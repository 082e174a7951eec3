"""Classical sensing/communication metrics and model-quality criteria.

All information quantities are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc

import numpy as np

from . import errors
from .scene import NoiseModel, SensingPrior
from .waveform import Waveform, energy_spectral_density


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterVector:
    """Flat real parameter vector plus a layout of per-entry labels."""

    values: np.ndarray
    layout: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size != len(self.layout):
            raise errors.ToolkitError(
                f"{self.values.size} values vs {len(self.layout)} labels")


@dataclass(frozen=True)
class AmbiguityMap:
    """|A(nu, tau)| over a doppler x delay grid."""

    values: np.ndarray        # (n_doppler, n_delay), nonnegative
    doppler_grid: np.ndarray  # Hz
    delay_grid: np.ndarray    # s

    def peak(self) -> float:
        return float(self.values.max())

    def volume(self) -> float:
        """Cell-area weighted sum of |A|^2 (approximates the surface energy)."""
        dnu = float(np.mean(np.diff(self.doppler_grid))) \
            if self.doppler_grid.size > 1 else 1.0
        dtau = float(np.mean(np.diff(self.delay_grid))) \
            if self.delay_grid.size > 1 else 1.0
        return float(np.sum(self.values ** 2) * dnu * dtau)


@dataclass(frozen=True)
class JointPMF:
    """Joint PMF over finite alphabets; rows = X symbols, cols = Y symbols."""

    pmf: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", p)
        if (p < 0).any():
            raise ValueError("PMF entries must be >= 0")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"PMF sums to {p.sum()}, not 1")


@dataclass(frozen=True)
class CommReport:
    """Bit accounting of one communication run."""

    bits_transmitted: int
    bit_errors: int

    def __post_init__(self):
        if not 0 <= self.bit_errors <= self.bits_transmitted:
            raise ValueError("bit_errors must lie in [0, bits_transmitted]")

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_transmitted


# ---------------------------------------------------------------------------
# estimation error metrics
# ---------------------------------------------------------------------------

def crlb_numeric(log_likelihood, draw_data, theta0: ParameterVector,
                 mc_trials: int = 1000, step: float = 1e-5,
                 seed: int = 0) -> np.ndarray:
    """Cramer-Rao bound via a Monte Carlo numeric Fisher information.

    log_likelihood(theta_values, data) -> scalar log-likelihood of the data;
    draw_data(rng) -> one data realization at the true parameters.  The
    Fisher matrix is the Monte Carlo average of -Hessian(log-likelihood),
    with central finite differences of relative step `step`; the bound is
    its inverse.
    """
    theta = theta0.values
    d = theta.size
    h = step * np.maximum(np.abs(theta), 1.0)
    rng = np.random.default_rng(seed)
    fisher = np.zeros((d, d))

    def ll(vals, data):
        return float(log_likelihood(vals, data))

    for _ in range(mc_trials):
        data = draw_data(rng)
        f0 = ll(theta, data)
        hess = np.empty((d, d))
        for i in range(d):
            ei = np.zeros(d); ei[i] = h[i]
            fpp = ll(theta + ei, data)
            fmm = ll(theta - ei, data)
            hess[i, i] = (fpp - 2 * f0 + fmm) / h[i] ** 2
            for j in range(i + 1, d):
                ej = np.zeros(d); ej[j] = h[j]
                fpq = ll(theta + ei + ej, data)
                fpm = ll(theta + ei - ej, data)
                fmp = ll(theta - ei + ej, data)
                fmq = ll(theta - ei - ej, data)
                hess[i, j] = hess[j, i] = \
                    (fpq - fpm - fmp + fmq) / (4 * h[i] * h[j])
        fisher -= hess
    fisher /= mc_trials
    if np.linalg.cond(fisher) > 1e12:
        raise errors.ToolkitError(
            "Fisher estimate numerically singular (unidentifiable parameters?)")
    return np.linalg.inv(fisher)


# ---------------------------------------------------------------------------
# communication metrics
# ---------------------------------------------------------------------------

def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) of a scalar x, via math.erfc."""
    return float(0.5 * erfc(x / np.sqrt(2.0)))


def ber_theoretical_bpsk(eb_over_n0: float) -> float:
    """BPSK over AWGN at a scalar Eb/N0: Q(sqrt(2 Eb/N0)); identical to the SER."""
    if eb_over_n0 < 0:
        raise ValueError("Eb/N0 must be >= 0")
    return float(0.5 * erfc(np.sqrt(eb_over_n0)))


# ---------------------------------------------------------------------------
# information metrics
# ---------------------------------------------------------------------------

def mutual_information(p: JointPMF) -> float:
    """I(X;Y) in nats, with 0*log(0/...) treated as 0."""
    pxy = p.pmf
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    mask = pxy > 0
    ratio = pxy[mask] / np.outer(px, py)[mask]
    return float(np.sum(pxy[mask] * np.log(ratio)))


def channel_capacity(p_y_given_x: np.ndarray, tol: float = 1e-9,
                     max_iter: int = 10_000) -> tuple[float, np.ndarray]:
    """Capacity max_{p_x} I(X;Y) in nats via Blahut-Arimoto.

    p_y_given_x is row-stochastic (row x holds p(y|x)).  Iterates until the
    Arimoto upper/lower capacity bounds agree within tol.  Returns
    (capacity, achieving input PMF).
    """
    W = np.asarray(p_y_given_x, dtype=float)
    if W.ndim != 2 or (W < 0).any() or np.any(np.abs(W.sum(axis=1) - 1) > 1e-9):
        raise errors.ToolkitError("rows must be probability vectors")
    m = W.shape[0]
    r = np.full(m, 1.0 / m)
    cap = 0.0
    logW = np.where(W > 0, np.log(np.where(W > 0, W, 1.0)), 0.0)
    for _ in range(max_iter):
        py = r @ W
        # D(p(y|x) || p(y)); the input prior cancels inside the divergence
        log_py = np.log(np.where(py > 0, py, 1.0))
        d = np.sum(np.where(W > 0, W * (logW - log_py[None, :]), 0.0), axis=1)
        lower = float(np.sum(r * d))
        upper = float(np.max(d))
        cap = lower
        if upper - lower < tol:
            break
        r = r * np.exp(d - upper)
        r /= r.sum()
    return cap, r


def conditional_mi_spectra(esd: np.ndarray, sigma_g2: np.ndarray,
                           p_nn: np.ndarray, freqs: np.ndarray,
                           duration: float) -> float:
    """Sensing MI T * integral ln(1 + 2|u(f)|^2 sigma_g^2(f) / (P_nn(f) T)) df.

    esd is |u(f)|^2 (energy spectral density), all arrays on one common
    frequency grid; trapezoid quadrature.
    """
    esd = np.asarray(esd, float)
    sigma_g2 = np.asarray(sigma_g2, float)
    p_nn = np.asarray(p_nn, float)
    num = 2.0 * esd * sigma_g2
    bad = (p_nn <= 0) & (num > 0)
    if bad.any():
        raise errors.ToolkitError(
            "noise PSD is zero where the signal carries energy")
    integrand = np.zeros_like(esd)
    ok = p_nn > 0
    integrand[ok] = np.log1p(num[ok] / (p_nn[ok] * duration))
    return float(duration * np.trapezoid(integrand, freqs))


def _common_band(u: Waveform, prior: SensingPrior, noise: NoiseModel, n):
    """(freqs, sigma_g^2, P_nn) on `n` points of the band u, prior and noise
    share; no points when they share no interval."""
    lo = max(u.band[0], prior.band[0], noise.band[0])
    hi = min(u.band[1], prior.band[1], noise.band[1])
    freqs = np.linspace(lo, hi, n if hi > lo else 0)
    return (freqs, np.interp(freqs, prior.freqs, prior.spectral_variance,
                             left=0.0, right=0.0),
            np.interp(freqs, noise.freqs, noise.psd, left=0.0, right=0.0))


def conditional_mi(u: Waveform, prior: SensingPrior,
                   noise: NoiseModel) -> float:
    """Conditional sensing MI of a waveform over its own duration under a
    Gaussian target prior; 0 when the waveform, prior and noise bands share
    no interval."""
    freqs, sg2, pnn = _common_band(
        u, prior, noise, max(prior.spectral_variance.size, noise.psd.size, 256))
    prof = energy_spectral_density(u)
    esd = np.interp(freqs, prof.freqs, prof.psd, left=0.0, right=0.0)
    return conditional_mi_spectra(esd, sg2, pnn, freqs, u.duration)


# ---------------------------------------------------------------------------
# ambiguity function
# ---------------------------------------------------------------------------

def ambiguity(u: Waveform, doppler_grid=None) -> AmbiguityMap:
    """|integral u(t) e^{j2pi nu t} u*(t - tau) dt| on a (nu, tau) grid.

    Delays are every sample lag, -(n - 1) to n - 1 sample periods; Doppler
    values default to 0 Hz.  An empty Doppler grid, a non-finite value or
    one beyond +-fs/2 is a ToolkitError.  FFT-accelerated over the delay axis.
    """
    fs = u.sample_rate
    n = len(u)
    dt = 1.0 / fs
    lags = np.arange(-(n - 1), n)
    if doppler_grid is None:
        doppler_grid = np.array([0.0])
    doppler_grid = np.asarray(doppler_grid, float)
    if not doppler_grid.size:
        raise errors.ToolkitError("doppler grid is empty")
    if not np.isfinite(doppler_grid).all():
        raise errors.ToolkitError("doppler grid has a non-finite value")
    if np.max(np.abs(doppler_grid)) > fs / 2:
        raise errors.ToolkitError("doppler grid beyond +-fs/2")

    nfft = 2 * n
    t = np.arange(n) * dt
    cu = np.conj(np.fft.fft(u.samples, nfft))
    out = np.empty((doppler_grid.size, lags.size))
    for i, nu in enumerate(doppler_grid):
        v = u.samples * np.exp(2j * np.pi * nu * t)
        corr = np.fft.ifft(np.fft.fft(v, nfft) * cu)   # corr[l] = sum v[n] u*[n-l]
        vals = corr[lags % nfft] * dt
        out[i] = np.abs(vals)
    return AmbiguityMap(out, doppler_grid, lags * dt)


# ---------------------------------------------------------------------------
# system-identification metrics
# ---------------------------------------------------------------------------

def r_squared(y, y_hat) -> float:
    """Coefficient of determination, clamped to 0 from below."""
    y = np.asarray(y, float)
    y_hat = np.asarray(y_hat, float)
    if y.size != y_hat.size or y.size < 2:
        raise ValueError("need equal-length vectors of length >= 2")
    denom = np.sum((y - y.mean()) ** 2)
    if denom == 0:
        raise errors.ToolkitError("constant data has no variance to account for")
    score = 1.0 - np.sum((y - y_hat) ** 2) / denom
    return float(max(score, 0.0))


def fpe(y, y_hat, model_dim: int) -> float:
    """Final prediction error ((1+d/N)/(1-d/N)) * mean squared residual."""
    y = np.asarray(y, float)
    y_hat = np.asarray(y_hat, float)
    n = y.size
    if not 0 <= model_dim < n:
        raise errors.ToolkitError(f"model_dim {model_dim} outside [0, {n})")
    ratio = (1.0 + model_dim / n) / (1.0 - model_dim / n)
    return float(ratio * np.mean((y - y_hat) ** 2))


def cost_criterion(y, y_hat, penalty: float) -> float:
    """(1 + U_N) * mean squared residual."""
    y = np.asarray(y, float)
    y_hat = np.asarray(y_hat, float)
    if y.size != y_hat.size:
        raise ValueError("length mismatch")
    if penalty < 0:
        raise ValueError("penalty must be >= 0")
    return float((1.0 + penalty) * np.mean((y - y_hat) ** 2))


def nats_to_bits(x: float) -> float:
    return float(x / np.log(2.0))
