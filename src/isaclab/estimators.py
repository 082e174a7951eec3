"""Sensing estimators, demodulation, and the resource-cost ledger."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import errors
from .scene import ReceivedSignal, Target, TargetScene, apply_channel
from .waveform import Waveform, ofdm_grid, slice_psk


# ---------------------------------------------------------------------------
# cost ledger
# ---------------------------------------------------------------------------

@dataclass
class CostLedger:
    """Resources consumed by one estimator run.

    Counting convention: one complex multiply-accumulate = 1 operation; an
    FFT of length L is counted as L*log2(L).  cost_vector exposes labeled
    components for the unified metric.

    flop_count counts each estimator's nominal algorithm, not the
    arithmetic that runs: MUSIC's ledger counts the covariance, a full
    eigendecomposition and the noise-subspace projection even when its
    signal subspace comes from block Lanczos, which forms no covariance.
    OMP counts a dense atoms^H r GEMM per selection and the matched filter
    an FFT correlator per Doppler column, whichever way
    `Dictionary.correlate` computes the correlations.
    """

    flop_count: int = 0
    time_samples_used: int = 0
    spectral_bins_used: int = 0
    occupied_bandwidth: float = 0.0
    apriori_inputs: list[str] = field(default_factory=list)
    cost_vector: dict[str, float] = field(default_factory=dict)

    # cost_vector component name -> the field it reads
    COMPONENTS = {"flops": "flop_count", "time_samples": "time_samples_used",
                  "spectral_bins": "spectral_bins_used",
                  "bandwidth_hz": "occupied_bandwidth"}

    def finalize(self) -> "CostLedger":
        self.cost_vector = {name: float(getattr(self, attr))
                            for name, attr in self.COMPONENTS.items()}
        return self


def fft_flops(length: int) -> int:
    return int(round(length * np.log2(max(length, 2))))


# ---------------------------------------------------------------------------
# dictionary
# ---------------------------------------------------------------------------

class Dictionary:
    """Delay-Doppler atom bank for a probe waveform.

    Each atom is the noiseless unit-amplitude channel response at one
    (tau, nu) grid cell divided by `norm`, the probe's norm, which is
    every response's: a delay is a unit-modulus phase ramp over the whole
    spectrum (Parseval) and a Doppler shift a unit-modulus phasor, so
    dividing a correlation by `norm` gives a physical amplitude.  Atoms
    are flattened delay-major: flat index i_tau * len(doppler_grid) + i_nu.

    Doppler modulates the delayed copy at the channel output, so the
    atoms of one delay are that copy (one `apply_channel` at 0 Hz) times
    each Doppler phasor e^{j2pi nu t}; the phasors are computed once.

    The grid alone picks how `correlate` computes atoms^H y.  On a
    whole-sample grid the atoms are shifted copies of the probe times
    their phasors, so it runs one FFT cross-correlation per Doppler
    column; when a delay is more than 1e-9 of a sample off a whole number
    of samples it multiplies by the (length x n_atoms) atom matrix.  That
    matrix is built on first use only, and `columns` builds only the
    atoms an estimator keeps.
    """

    def __init__(self, probe: Waveform, delay_grid, doppler_grid):
        delay_grid = np.asarray(delay_grid, float)
        doppler_grid = np.asarray(doppler_grid, float)
        if delay_grid.size > 1 and not (np.diff(delay_grid) > 0).all():
            raise errors.ToolkitError("delay grid must be strictly increasing")
        if doppler_grid.size > 1 and not (np.diff(doppler_grid) > 0).all():
            raise errors.ToolkitError("doppler grid must be strictly increasing")
        # the delay check of Target, which every atom's channel would make;
        # it comes first, since the length below needs finite delays
        bad = delay_grid[~(np.isfinite(delay_grid) & (delay_grid >= 0))]
        if bad.size:
            raise ValueError(f"target delay must be finite and >= 0, "
                             f"got {float(bad[0])}")
        self.probe = probe
        self.delay_grid = delay_grid
        self.doppler_grid = doppler_grid
        self.band = probe.band
        fs = probe.sample_rate
        length = len(probe) + int(np.ceil(delay_grid.max() * fs)) \
            if delay_grid.size else len(probe)
        self.length = length
        self.norm = float(np.linalg.norm(probe.samples))
        self.n_atoms = delay_grid.size * doppler_grid.size
        if self.n_atoms:
            # the Doppler checks of Target and apply_channel, which see 0 Hz
            if not np.isfinite(doppler_grid).all():
                raise ValueError("target doppler must be finite")
            worst = float(doppler_grid[np.argmax(np.abs(doppler_grid))])
            if abs(worst) > fs / 2:
                raise errors.ToolkitError(
                    f"doppler {worst} Hz exceeds fs/2 = {fs / 2} Hz")
        shifts = delay_grid * fs
        lags = np.round(shifts)
        # whole-sample lags, or None when a delay falls between samples
        self._lags = lags.astype(int) \
            if (np.abs(shifts - lags) < 1e-9).all() else None

    @cached_property
    def _phasors(self) -> np.ndarray:
        """e^{j2pi nu t} for every Doppler cell, shape (length, n_nu)."""
        t = np.arange(self.length) / self.probe.sample_rate
        return np.exp(2j * np.pi * self.doppler_grid * t[:, None])

    def _response(self, tau: float) -> np.ndarray:
        """The probe through a unit target at delay tau and 0 Hz."""
        scn = TargetScene((Target(1.0 + 0j, float(tau), 0.0),))
        window = float(self.delay_grid.max())
        return apply_channel(self.probe, scn, None, max_delay=window).samples

    @cached_property
    def atoms(self) -> np.ndarray:
        """Every cell's atom, C-ordered."""
        return np.ascontiguousarray(self.columns(np.arange(self.n_atoms)))

    def correlate(self, y: np.ndarray) -> np.ndarray:
        """atoms^H y for an observation y of `length` samples."""
        if self._lags is None:
            return self.atoms.conj().T @ y
        # atom (tau, nu) is the probe delayed by lag = tau * fs samples times
        # e^{j2pi nu t}, so its correlation with y is the cross-correlation
        # of y e^{-j2pi nu t} with the probe at that lag; `length` covers the
        # largest lag plus the probe, so the circular correlation cannot wrap
        z = np.fft.fft(y[:, None] * self._phasors.conj(), axis=0)
        p = np.fft.fft(self.probe.samples, self.length)
        c = np.fft.ifft(z * p.conj()[:, None], axis=0)
        return c[self._lags].reshape(-1) / self.norm

    def columns(self, flat_indices) -> np.ndarray:
        """The atoms of the given cells, bit for bit those columns of
        `atoms`, without building the others.

        The block is Fortran-ordered, the layout of ``atoms[:, cells]``,
        so least squares and products on it round as they would on that
        copy.
        """
        i_tau, i_nu = np.divmod(np.asarray(flat_indices, int),
                                self.doppler_grid.size)
        block = np.zeros((self.length, i_tau.size), np.complex128, order="F")
        # the delay cells in ascending order, as np.unique gives them
        # without importing numpy.ma
        for t in np.flatnonzero(np.bincount(i_tau)):
            resp = self._response(self.delay_grid[t])
            for j in np.flatnonzero(i_tau == t):
                np.multiply(resp, self._phasors[:resp.size, i_nu[j]],
                            out=block[:resp.size, j])
        block /= self.norm
        return block

    def cell(self, flat_index: int) -> tuple[float, float]:
        i_tau, i_nu = divmod(flat_index, self.doppler_grid.size)
        return float(self.delay_grid[i_tau]), float(self.doppler_grid[i_nu])


# ---------------------------------------------------------------------------
# estimate report
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    """Estimated targets, predicted signal, and consumed cost."""

    estimated_targets: list[Target]
    predicted_signal: np.ndarray
    residual_energy: float
    cost: CostLedger
    diagnostics: dict = field(default_factory=dict)


def _pad_to(x: np.ndarray, n: int) -> np.ndarray:
    if x.size == n:
        return x
    out = np.zeros(n, x.dtype)
    out[:min(x.size, n)] = x[:n]
    return out


def _window_max(surface: np.ndarray) -> np.ndarray:
    """Each cell's 3x3 window maximum (the cell and its 8 neighbours),
    -inf beyond the edges, NaN where the window holds a NaN."""
    p = np.full((surface.shape[0] + 2, surface.shape[1] + 2), -np.inf)
    p[1:-1, 1:-1] = surface
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def _local_maxima(surface: np.ndarray) -> np.ndarray:
    """Boolean mask of cells >= all existing neighbors (8-connectivity):
    each cell against its 3x3 window maximum, False where that is NaN."""
    return surface >= _window_max(surface)


# ---------------------------------------------------------------------------
# matched filter
# ---------------------------------------------------------------------------

def matched_filter_estimate(rx: ReceivedSignal, u: Waveform,
                            dictionary: Dictionary,
                            detect_threshold_db: float = -13.0,
                            ) -> EstimateReport:
    """Cross-ambiguity surface over the dictionary grid; peaks above the
    relative threshold become targets with correlator amplitudes."""
    if rx.sample_rate != u.sample_rate:
        raise ValueError("rx and waveform sample rates differ")
    if dictionary.length > len(rx) + len(u):
        raise errors.ToolkitError("dictionary grid beyond the observation window")
    y = _pad_to(rx.samples, dictionary.length)
    corr = dictionary.correlate(y)                    # unit-norm correlations
    n_tau, n_nu = dictionary.delay_grid.size, dictionary.doppler_grid.size
    surface = np.abs(corr.reshape(n_tau, n_nu)) ** 2

    sel: list[int] = []
    if surface.size and surface.max() > 0:
        thresh = surface.max() * 10.0 ** (detect_threshold_db / 10.0)
        peaks = _local_maxima(surface) & (surface >= thresh)
        order = np.argsort(surface[peaks])[::-1]
        sel = [int(i_tau) * n_nu + int(i_nu)
               for i_tau, i_nu in np.argwhere(peaks)[order]]
    atoms = dictionary.columns(sel)
    amp = corr / dictionary.norm                      # physical amplitudes
    targets = [Target(complex(amp[flat]), *dictionary.cell(flat))
               for flat in sel]
    y_hat = atoms @ corr[sel] if sel else np.zeros_like(y)
    residual = float(np.linalg.norm(y - y_hat) ** 2)

    ledger = CostLedger(time_samples_used=len(rx),
                        spectral_bins_used=len(u),
                        occupied_bandwidth=u.band[1] - u.band[0])
    # correlator bank: one FFT correlation per Doppler column
    ledger.flop_count = n_nu * 3 * fft_flops(dictionary.length) + surface.size
    ledger.finalize()

    dt = 1.0 / u.sample_rate
    raw_surface = np.abs(corr.reshape(n_tau, n_nu)) * dictionary.norm * dt
    return EstimateReport(targets, y_hat, residual, ledger,
                          diagnostics={"surface": raw_surface})


# ---------------------------------------------------------------------------
# orthogonal matching pursuit
# ---------------------------------------------------------------------------

def omp_estimate(rx: ReceivedSignal, dictionary: Dictionary,
                 sparsity: int) -> EstimateReport:
    """Greedy sparse recovery: correlation selection, LS refit, residual
    update, for `sparsity` iterations."""
    if sparsity < 0 or sparsity > dictionary.n_atoms:
        raise ValueError(f"sparsity {sparsity} outside [0, {dictionary.n_atoms}]")
    y = _pad_to(rx.samples, dictionary.length)
    residual = y.copy()
    selected: list[int] = []
    res_history = [float(np.linalg.norm(residual) ** 2)]
    ledger = CostLedger(time_samples_used=len(rx),
                        spectral_bins_used=dictionary.length,
                        occupied_bandwidth=dictionary.band[1] - dictionary.band[0],
                        apriori_inputs=["target count P"])
    # the selected atoms, built one per iteration into a Fortran-ordered
    # block: the layout of the copy atoms[:, selected]
    A = np.zeros((dictionary.length, sparsity), np.complex128, order="F")
    coeffs = np.zeros(0, np.complex128)
    for k in range(sparsity):
        scores = np.abs(dictionary.correlate(residual))
        ledger.flop_count += dictionary.n_atoms * dictionary.length
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        A[:, k:k + 1] = dictionary.columns(selected[-1:])
        A_sel = A[:, :k + 1]
        if np.linalg.cond(A_sel.conj().T @ A_sel) > 1e12:
            raise errors.ToolkitError("selected atoms numerically dependent")
        coeffs, *_ = np.linalg.lstsq(A_sel, y, rcond=None)
        ledger.flop_count += len(selected) ** 2 * dictionary.length
        residual = y - A_sel @ coeffs
        res_history.append(float(np.linalg.norm(residual) ** 2))
    ledger.finalize()

    targets = [Target(complex(c / dictionary.norm), *dictionary.cell(flat))
               for flat, c in zip(selected, coeffs)]
    y_hat = A @ coeffs if selected else np.zeros_like(y)
    return EstimateReport(targets, y_hat, res_history[-1], ledger,
                          diagnostics={"residual_history": res_history,
                                       "support": list(selected)})


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

def _steering(freq_like: float, step: float, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * step * freq_like * np.arange(n))


@lru_cache(maxsize=4)
def _steering_matrix(delays: bytes, dopplers: bytes, freq_step: float,
                     time_step: float, mw: int, lw: int) -> np.ndarray:
    """Unit-norm steering vectors of an (mw, lw) window at every cell of the
    grids (float64 bytes), columns in (tau, nu) order.

    A sweep calls MUSIC on one grid again and again, so the matrix is
    cached; it is read-only, since every call on equal grids shares it.
    """
    delay_grid = np.frombuffer(delays)
    doppler_grid = np.frombuffer(dopplers)
    a_f = np.exp(2j * np.pi * freq_step * delay_grid * np.arange(mw)[:, None])
    a_t = np.exp(2j * np.pi * time_step * doppler_grid
                 * np.arange(lw)[:, None])
    S = (a_f[:, None, :, None] * a_t[None, :, None, :]).reshape(mw * lw, -1)
    S /= np.linalg.norm(S, axis=0)
    S.flags.writeable = False
    return S


def _snapshot_covariance(G: np.ndarray, mw: int, lw: int):
    """X -> R X for MUSIC's smoothed covariance R = snaps snaps^H / n_snap,
    without forming snaps or R.

    Snapshot i * (L - lw + 1) + j is G[i:i + mw, j:j + lw], so snaps is
    block-Hankel in G: snaps^H x is the correlation of conj(G) with the
    window x, and snaps y the correlation of G with y on the snapshot grid.
    Both run as FFTs of G's own shape, over the axes longer than 1; an
    index i + p never passes the last row of G, so no product wraps.
    """
    M, L = G.shape
    n_i, n_j = M - mw + 1, L - lw + 1
    shape, axes = ((M, L), (0, 1)) if L > 1 else ((M,), (0,))
    FG = np.fft.fftn(G, shape, axes)[..., None]

    def apply(X: np.ndarray) -> np.ndarray:
        # W = conj(snaps^H X) on the snapshot grid, then R X = snaps
        # conj(W) / n_snap, each a correlation with G
        X = X.reshape(mw, lw, -1)
        W = np.fft.ifftn(FG * np.fft.fftn(X, shape, axes).conj(),
                         axes=axes)[:n_i, :n_j]
        Y = np.fft.ifftn(FG * np.fft.fftn(W, shape, axes).conj(),
                         axes=axes)[:mw, :lw]
        return Y.reshape(mw * lw, -1) / (n_i * n_j)

    return apply


# block Lanczos for MUSIC's signal subspace: a block holds `order` vectors
# and at most SUBSPACE_MAX_ITER blocks make the basis; SUBSPACE_TOL is the
# relative size below which a block's direction counts as lost and a sum of
# Ritz values as trace(R); a covariance of at most order + SUBSPACE_EXTRA
# rows goes to a full `eigh`
SUBSPACE_EXTRA = 10
SUBSPACE_TOL = 1e-13
SUBSPACE_MAX_ITER = 36


def _signal_subspace(apply_R, dim: int, trace: float, order: int):
    """Top `order` eigenpairs of the Hermitian positive semi-definite R, of
    size dim x dim, by block Lanczos (Golub & Underwood, "The block Lanczos
    method for computing eigenvalues", 1977).  After each block it yields
    ``(steps, eigenvalues ascending, eigenvectors, residual, gap)``: the top
    `order` Ritz pairs (lam, X), the Frobenius norm of R X - X diag(lam),
    and a gap between lam and the rest of R's spectrum.  By the sin theta
    theorem (Davis & Kahan, "The rotation of eigenvectors by a
    perturbation. III", 1970) the sine of the largest angle between span X
    and R's top-`order` eigenspace is then at most residual / gap.

    R is seen only through `apply_R` (X -> R X) and its trace.  The first
    block is a fixed pseudo-random one, so the result depends on R alone;
    a block of `order` vectors, not one, is what finds every direction of
    a repeated eigenvalue.  Each next block is R times the newest one,
    orthogonalised twice against the whole basis, and every step runs
    Rayleigh-Ritz on the whole basis.

    The gap is half the Ritz gap, lam[0] minus the (order + 1)-th Ritz
    value.  That Ritz value is at most R's (order + 1)-th eigenvalue
    (Cauchy interlacing) and rises toward it as the basis grows, so the
    Ritz gap overstates the true one; halving it keeps the bound while the
    Ritz value is within half the Ritz gap of its eigenvalue.  That is an
    empirical margin, not a proof: a Krylov basis bounds no eigenvalue it
    has not reached from above.  Against the full `eigh`, the Ritz gap at
    MUSIC's stop overstated the true one by at most 21 % (README gives the
    ranges checked).  The first block has no (order + 1)-th Ritz value, so
    its gap is 0: no bound.

    A block that loses rank (singular values at most SUBSPACE_TOL times the
    largest Ritz value are dropped) ends the iteration after its step.  Its
    Ritz pairs are exact only if the basis holds all of R, which the Ritz
    values summing to trace(R) within SUBSPACE_TOL shows; the step's gap
    is then inf (residual / gap = 0), else 0.

    Nothing is yielded when R is too small to gain from blocks (dim at most
    order + SUBSPACE_EXTRA), and the iteration stops after
    SUBSPACE_MAX_ITER blocks or before the basis would pass R's dimension;
    a caller that has taken no step's pairs by then runs a full `eigh`.
    The cap bounds a call whose pairs are never taken: on a 256-row
    covariance, 36 blocks of 2 cost about as much as the R and full `eigh`
    that follow them (19-23 ms against 20 ms on one thread of a 2-vCPU
    host), and twice that when `music_estimate` looks at every block's
    peak choice.
    """
    if dim <= order + SUBSPACE_EXTRA:
        return
    rng = np.random.default_rng(0)
    new, _ = np.linalg.qr(rng.standard_normal((dim, order))
                          + 1j * rng.standard_normal((dim, order)))
    cap = min(dim, order * SUBSPACE_MAX_ITER)
    Q = np.empty((dim, cap), np.complex128)
    Qh = np.empty((cap, dim), np.complex128)  # Q^H, spares a copy per use
    Z = np.empty_like(Q)                      # R Q
    T = np.empty((cap, cap), np.complex128)   # Q^H R Q, lower triangle
    k = 0
    for step in range(1, SUBSPACE_MAX_ITER + 1):
        r = new.shape[1]
        if r:
            Q[:, k:k + r] = new
            Qh[k:k + r] = new.conj().T
            Z[:, k:k + r] = apply_R(new)
            T[k:k + r, :k + r] = Qh[k:k + r] @ Z[:, :k + r]
            k += r
        ritz, V = np.linalg.eigh(T[:k, :k])
        X = Q[:, :k] @ V[:, -order:]
        lam = ritz[-order:]
        residual = np.linalg.norm(Z[:, :k] @ V[:, -order:] - X * lam)
        if r < order:
            held = abs(ritz.sum() - trace) <= SUBSPACE_TOL * trace
            yield step, lam, X, residual, np.inf if held else 0.0
            return
        yield step, lam, X, residual, \
            (lam[0] - ritz[-order - 1]) / 2 if k > order else 0.0
        W = Z[:, k - order:k]
        for _ in range(2):
            W = W - Q[:, :k] @ (Qh[:k] @ W)
        U, sv, _ = np.linalg.svd(W, full_matrices=False)
        new = U[:, sv > SUBSPACE_TOL * ritz[-1]]
        if k + new.shape[1] > cap:
            return


def _choose_peaks(pseudo: np.ndarray, order: int) -> list[tuple[int, int]]:
    """MUSIC's peak choice: the `order` largest local maxima of the
    pseudospectrum, taken greedily, each skipping the cells next to one
    already taken."""
    peaks_mask = _local_maxima(pseudo)
    cand = np.argwhere(peaks_mask)
    cand = cand[np.argsort(pseudo[peaks_mask])[::-1]]
    chosen: list[tuple[int, int]] = []
    for i, j in cand:
        if any(abs(i - ci) <= 1 and abs(j - cj) <= 1 for ci, cj in chosen):
            continue
        chosen.append((int(i), int(j)))
        if len(chosen) == order:
            break
    return chosen


def _choice_margin(root: np.ndarray, chosen, order: int) -> float:
    """The smallest gap in `root`, the square root of each cell's
    pseudospectrum denominator, among the comparisons that decide
    `_choose_peaks`' choice `chosen`.  If no cell's root moves by more than
    half of it, the choice stays `chosen`, in its order:

    - each chosen peak stays below the next one, and below every neighbour
      (so it stays a local maximum of the pseudospectrum);
    - every cell not next to a chosen peak stays above the last one chosen
      or above its lowest neighbour (so it stays behind the choice or no
      local maximum); with fewer than `order` chosen, only the latter.
    """
    near = np.zeros(root.shape, bool)
    gaps = []
    for k, (i, j) in enumerate(chosen):
        window = np.s_[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
        around = root[window].copy()
        around[i - window[0].start, j - window[1].start] = np.inf
        gaps.append(around.min() - root[i, j])
        if k:
            gaps.append(root[i, j] - root[chosen[k - 1]])
        near[window] = True
    last = root[chosen[-1]] if len(chosen) == order else np.inf
    # the window holds the cell itself, so the second gap is at least 0; a
    # cell below all its neighbours is a local maximum the choice passed
    # over, so its gap above the last one chosen decides
    rest, lowest = root[~near], -_window_max(-root)[~near]
    return float(np.min(np.concatenate(
        [gaps, np.maximum(rest - last, rest - lowest)]), initial=np.inf))


def music_estimate(obs, order: int, delay_grid, doppler_grid,
                   freq_step: float, time_step: float = 1.0) -> EstimateReport:
    """Subspace estimation of delay/Doppler exponentials.

    obs is the channel-domain observation G[m, l] (frequency bins x slow
    time) whose entries follow sum_p h_p e^{j2pi m*freq_step tau_p}
    e^{j2pi l*time_step nu_p}; a 1-D vector is treated as (M, 1).
    Snapshots come from 2-D spatial smoothing over sliding (mw, lw)
    windows, max(min(M, order + 1), ceil(M / 2)) by ceil(L / 2).

    The covariance R = snaps snaps^H / n_snap is not formed: the signal
    subspace E_s comes from block Lanczos in `_signal_subspace`, which
    sees R only through the FFT products of `_snapshot_covariance` and
    trace(R), the windowed energy of |G|^2.  The pseudospectrum
    denominator is ||a - E_s E_s^H a||^2, the norm of the projection
    residual; the difference ||a||^2 - ||E_s^H a||^2 would lose digits to
    cancellation at the peaks.  Each Lanczos step's pairs give it to within
    their bound b = residual / gap: the square root of every cell's
    denominator is within b of the one R's exact eigenvectors give (Davis
    & Kahan's sin theta, since ||a|| = 1).  The iteration stops at the
    first step whose 2 b is at most `_choice_margin`, the smallest gap in
    those square roots among the comparisons that decide the peak choice,
    so, while the gap's margin holds, its peaks are the exact
    eigenvectors' peaks; the diagnostics
    `subspace_residual` and `subspace_gap` give its residual and gap.  When
    no step settles the choice (R too small, a lost rank that leaves part
    of trace(R) out, or the SUBSPACE_MAX_ITER cap), the snapshots and R
    are built, and a full `eigh` and the noise-subspace form
    ||E_n^H a||^2 run instead (diagnostic `eigh_fallback`, with no
    residual or gap; `subspace_steps` counts the Lanczos blocks, 0 when R
    was too small to try).  The unit-norm steering matrix comes from the
    read-only cache of `_steering_matrix`.  The steering vectors are
    periodic in delay with period 1/freq_step (and in Doppler with
    1/time_step), so a grid spanning a whole period raises ToolkitError.
    The cost ledger counts the nominal algorithm, the covariance, a full
    eigendecomposition and the noise-subspace projection, whichever path
    ran.
    Unlike the other estimators', `predicted_signal` and `residual_energy`
    are channel-domain: the (M, L) steering fit of G and its residual.
    """
    G = np.asarray(obs, np.complex128)
    if G.ndim == 1:
        G = G[:, None]
    M, L = G.shape
    if order < 1:
        raise errors.ToolkitError("model order must be >= 1")
    mw, lw = max(min(M, order + 1), (M + 1) // 2), (L + 1) // 2
    dim = mw * lw
    if order >= dim:
        raise errors.ToolkitError(f"order {order} >= covariance dimension {dim}")
    n_snap = (M - mw + 1) * (L - lw + 1)

    delay_grid = np.asarray(delay_grid, float)
    doppler_grid = np.asarray(doppler_grid, float)
    for axis, grid, step, used in (("delay", delay_grid, freq_step, True),
                                   ("doppler", doppler_grid, time_step, L > 1)):
        if used and grid.size and abs(np.ptp(grid) * step) >= 1:
            raise errors.ToolkitError(
                f"{axis} grid spans {np.ptp(grid)}, at least the steering "
                f"period {1 / abs(step)}, so its cells alias")

    n_tau, n_nu = delay_grid.size, doppler_grid.size
    S = _steering_matrix(delay_grid.tobytes(), doppler_grid.tobytes(),
                         freq_step, time_step, mw, lw)
    # snapshot i * (L - lw + 1) + j is G[i:i + mw, j:j + lw], and trace(R)
    # the snapshots' mean energy
    trace = float(np.lib.stride_tricks.sliding_window_view(
        np.abs(G) ** 2, (mw, lw)).sum()) / n_snap
    # the first Lanczos step whose bound cannot move any cell's root
    # across a comparison that decides the peak choice is taken; every
    # root lies in [0, 1], so a bound above 1/2 is not worth a look
    steps, settled = 0, None
    resid = np.empty_like(S)        # every look's projection residual
    for steps, evals, signal_sub, sub_residual, sub_gap in _signal_subspace(
            _snapshot_covariance(G, mw, lw), dim, trace, order):
        bound = sub_residual / sub_gap if sub_gap > 0 else np.inf
        if 2 * bound > 1:
            continue
        np.matmul(signal_sub, signal_sub.conj().T @ S, out=resid)
        parts = np.subtract(S, resid, out=resid).view(np.float64)
        denom = np.maximum(np.einsum("ij,ij->j", parts, parts)
                           .reshape(-1, 2).sum(axis=1), 1e-300)
        pseudo = 1.0 / denom.reshape(n_tau, n_nu)
        chosen = _choose_peaks(pseudo, order)
        if 2 * bound <= _choice_margin(np.sqrt(denom).reshape(n_tau, n_nu),
                                       chosen, order):
            settled = float(sub_residual), float(sub_gap)
            break
    else:
        snaps = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(G, (mw, lw))
            .transpose(2, 3, 0, 1).reshape(dim, n_snap))
        R = snaps @ snaps.conj().T / n_snap
        evals, evecs = np.linalg.eigh(R)
        evals = evals[dim - order:]
        denom = np.sum(np.abs(evecs[:, :dim - order].conj().T @ S) ** 2,
                       axis=0)
        pseudo = 1.0 / np.maximum(denom, 1e-300).reshape(n_tau, n_nu)
        chosen = _choose_peaks(pseudo, order)

    # amplitudes: LS fit of full-size steering vectors to the observation
    B = np.empty((M * L, len(chosen)), np.complex128)
    for k, (i, j) in enumerate(chosen):
        B[:, k] = np.outer(_steering(delay_grid[i], freq_step, M),
                           _steering(doppler_grid[j], time_step, L)).reshape(-1)
    amps, *_ = np.linalg.lstsq(B, G.reshape(-1), rcond=None)
    g_hat = B @ amps
    targets = [Target(complex(h), float(delay_grid[i]), float(doppler_grid[j]))
               for (i, j), h in zip(chosen, amps)]
    residual = float(np.linalg.norm(G.reshape(-1) - g_hat) ** 2)

    ledger = CostLedger(time_samples_used=M * L, spectral_bins_used=M,
                        occupied_bandwidth=M * freq_step,
                        apriori_inputs=["model order P"])
    ledger.flop_count = (dim ** 2 * n_snap + dim ** 3
                         + n_tau * n_nu * dim * (dim - order))
    ledger.finalize()
    sub_residual, sub_gap = settled or (None, None)
    return EstimateReport(targets, g_hat.reshape(M, L), residual, ledger,
                          diagnostics={"pseudospectrum": pseudo,
                                       "eigenvalues": evals,
                                       "noise_floor": float(
                                           (trace - evals.sum())
                                           / (dim - order)),
                                       "eigh_fallback": settled is None,
                                       "subspace_steps": steps,
                                       "subspace_residual": sub_residual,
                                       "subspace_gap": sub_gap})


# ---------------------------------------------------------------------------
# demodulation
# ---------------------------------------------------------------------------

def demodulate(rx: ReceivedSignal, u: Waveform,
               channel_estimate: EstimateReport | None = None) -> np.ndarray:
    """Equalize with the estimated channel and hard-decide bits.

    OFDM: CP removal, per-symbol DFT, single-tap equalization with the
    frequency response rebuilt from the estimated targets (Doppler within
    one frame is neglected).  PSK: strongest-tap delay/phase compensation
    plus matched filtering over the oversampling window.
    """
    lay = u.layout
    if lay is None or lay.kind not in ("single-carrier-psk", "ofdm"):
        raise errors.ToolkitError("waveform carries no demodulatable layout")
    fs = rx.sample_rate

    if lay.kind == "single-carrier-psk":
        y = rx.samples
        gain = 1.0 + 0j
        if channel_estimate is not None and channel_estimate.estimated_targets:
            strongest = max(channel_estimate.estimated_targets,
                            key=lambda t: abs(t.amplitude))
            shift = int(round(strongest.delay * fs))
            y = y[shift:]
            gain = strongest.amplitude
        n = len(u)
        y = _pad_to(y, n)
        sym = y.reshape(-1, lay.oversampling).mean(axis=1) / gain
        return slice_psk(sym, lay.bits_per_symbol)

    n_sc = lay.n_subcarriers
    grid = ofdm_grid(_pad_to(rx.samples, len(u)), lay)
    H = np.ones(n_sc, np.complex128)
    if channel_estimate is not None and channel_estimate.estimated_targets:
        freqs = np.fft.fftfreq(n_sc, 1.0 / fs)
        H = np.zeros(n_sc, np.complex128)
        for t in channel_estimate.estimated_targets:
            H += t.amplitude * np.exp(-2j * np.pi * freqs * t.delay)
        H[np.abs(H) < 1e-15] = 1.0
    eq = grid / H[:, None]
    active = np.zeros(n_sc, bool)
    active[list(lay.active_subcarriers)] = True
    return slice_psk(eq.T[:, active].reshape(-1), lay.bits_per_symbol)


# ---------------------------------------------------------------------------
# cost weighting
# ---------------------------------------------------------------------------

def tally_cost(cost: CostLedger | dict, weights: dict, c_max: float,
               form: str = "fpe") -> float:
    """Scalar resource weight w_cost from a cost ledger.

    FPE-like: (1+S)/(1-S) with S = sum_k lambda_k C_k / C_max.
    Additive: 1 + sum_k lambda_k (C_k / C_max) (components pre-normalized
    by C_max so both forms share one scale).  Both are >= 1.
    """
    vec = cost.cost_vector if isinstance(cost, CostLedger) else dict(cost)
    lam_sum = sum(weights.values())
    if abs(lam_sum - 1.0) > 1e-9:
        raise errors.ToolkitError(f"cost weights sum to {lam_sum}, not 1")
    if not all(w >= 0 for w in weights.values()):
        raise errors.ToolkitError(f"cost weights must be >= 0, got {weights}")
    missing = set(weights) - set(vec)
    if missing:
        raise errors.ToolkitError(f"weights name unknown cost components {missing}")
    if any(v < 0 for v in vec.values()):
        raise ValueError("cost components must be >= 0")
    if c_max <= 0:
        raise ValueError("C_max must be > 0")
    s = sum(weights[k] * vec[k] for k in weights) / c_max
    if form == "fpe":
        if s >= 1.0:
            raise errors.ToolkitError(f"weighted cost S={s} >= 1")
        return (1.0 + s) / (1.0 - s)
    if form == "additive":
        return 1.0 + s
    raise ValueError(f"unknown w_cost form {form!r}")
