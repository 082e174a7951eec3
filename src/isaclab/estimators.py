"""Sensing estimators, demodulation, and the resource-cost ledger."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors
from .scene import ReceivedSignal, Target, TargetScene, apply_channel
from .waveform import Waveform, slice_psk, pilot_sequence, map_psk


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
    arithmetic that runs: MUSIC's ledger counts a full eigendecomposition
    and the noise-subspace projection even when its signal subspace comes
    from the cheaper subspace iteration.
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
    (tau, nu) grid cell, normalized to unit norm; atom_norms keeps the
    pre-normalization norms so correlator outputs convert back to
    physical amplitudes.  Atoms are flattened delay-major: flat index
    i_tau * len(doppler_grid) + i_nu.

    Doppler modulates the delayed copy at the channel output, so the
    atoms of one delay are that copy (one `apply_channel` at 0 Hz) times
    each Doppler phasor e^{j2pi nu t}; the phasors are computed once.
    """

    def __init__(self, probe: Waveform, delay_grid, doppler_grid):
        delay_grid = np.asarray(delay_grid, float)
        doppler_grid = np.asarray(doppler_grid, float)
        if delay_grid.size > 1 and not (np.diff(delay_grid) > 0).all():
            raise errors.GridError("delay grid must be strictly increasing")
        if doppler_grid.size > 1 and not (np.diff(doppler_grid) > 0).all():
            raise errors.GridError("doppler grid must be strictly increasing")
        self.probe = probe
        self.delay_grid = delay_grid
        self.doppler_grid = doppler_grid
        self.band = probe.band
        fs = probe.sample_rate
        length = len(probe) + int(np.ceil(delay_grid.max() * fs)) \
            if delay_grid.size else len(probe)
        self.length = length
        n_nu = doppler_grid.size
        n_atoms = delay_grid.size * n_nu
        if n_atoms:
            # the Doppler checks of Target and apply_channel, which see 0 Hz
            if not np.isfinite(doppler_grid).all():
                raise ValueError("target doppler must be finite")
            worst = float(doppler_grid[np.argmax(np.abs(doppler_grid))])
            if abs(worst) > fs / 2:
                raise errors.AliasError(
                    f"doppler {worst} Hz exceeds fs/2 = {fs / 2} Hz")
        A = np.zeros((length, n_atoms), np.complex128)
        norms = np.empty(n_atoms)
        window = float(delay_grid.max()) if delay_grid.size else 0.0
        phasors = np.exp(2j * np.pi * doppler_grid
                         * (np.arange(length) / fs)[:, None])
        for i, tau in enumerate(delay_grid):
            scn = TargetScene((Target(1.0 + 0j, float(tau), 0.0),))
            resp = apply_channel(probe, scn, None, max_delay=window).samples
            block = A[:resp.size, i * n_nu:(i + 1) * n_nu]
            np.multiply(resp[:, None], phasors[:resp.size], out=block)
        for k in range(n_atoms):
            norms[k] = np.linalg.norm(A[:, k])
        A /= norms
        self.atoms = A
        self.atom_norms = norms
        self._coherence = None

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def cell(self, flat_index: int) -> tuple[float, float]:
        i_tau, i_nu = divmod(flat_index, self.doppler_grid.size)
        return float(self.delay_grid[i_tau]), float(self.doppler_grid[i_nu])

    def coherence(self) -> float:
        """Max off-diagonal inter-atom correlation magnitude (cached)."""
        if self._coherence is None:
            g = np.abs(self.atoms.conj().T @ self.atoms)
            np.fill_diagonal(g, 0.0)
            self._coherence = float(g.max()) if g.size else 0.0
        return self._coherence


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
    capabilities: dict[str, str] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _pad_to(x: np.ndarray, n: int) -> np.ndarray:
    if x.size == n:
        return x
    out = np.zeros(n, x.dtype)
    out[:min(x.size, n)] = x[:n]
    return out


def _local_maxima(surface: np.ndarray) -> np.ndarray:
    """Boolean mask of cells >= all existing neighbors (8-connectivity)."""
    s = surface
    mask = np.ones_like(s, bool)
    padded = np.full((s.shape[0] + 2, s.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = s
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= s >= padded[1 + di:1 + di + s.shape[0],
                                1 + dj:1 + dj + s.shape[1]]
    return mask


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
        raise errors.GridError("dictionary grid beyond the observation window")
    y = _pad_to(rx.samples, dictionary.length)
    corr = dictionary.atoms.conj().T @ y              # unit-norm correlations
    n_tau, n_nu = dictionary.delay_grid.size, dictionary.doppler_grid.size
    amp = (corr / dictionary.atom_norms)              # physical amplitudes
    surface = np.abs(corr.reshape(n_tau, n_nu)) ** 2

    targets: list[Target] = []
    sel: list[int] = []
    if surface.size and surface.max() > 0:
        thresh = surface.max() * 10.0 ** (detect_threshold_db / 10.0)
        peaks = _local_maxima(surface) & (surface >= thresh)
        order = np.argsort(surface[peaks])[::-1]
        idx = np.argwhere(peaks)[order]
        for i_tau, i_nu in idx:
            flat = i_tau * n_nu + i_nu
            sel.append(flat)
            targets.append(Target(complex(amp[flat]),
                                  float(dictionary.delay_grid[i_tau]),
                                  float(dictionary.doppler_grid[i_nu])))
    if sel:
        y_hat = dictionary.atoms[:, sel] @ corr[sel]
    else:
        y_hat = np.zeros_like(y)
    residual = float(np.linalg.norm(y - y_hat) ** 2)

    ledger = CostLedger(time_samples_used=len(rx),
                        spectral_bins_used=len(u),
                        occupied_bandwidth=u.band[1] - u.band[0])
    # correlator bank implemented per Doppler column via FFT correlation
    ledger.flop_count = n_nu * 3 * fft_flops(dictionary.length) + surface.size
    ledger.finalize()

    dt = 1.0 / u.sample_rate
    raw_surface = np.abs((corr * dictionary.atom_norms).reshape(n_tau, n_nu)) * dt
    return EstimateReport(targets, y_hat, residual, ledger,
                          capabilities={"model": "model-free",
                                        "apriori": "none",
                                        "setup": "mono-or-multi-static"},
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
    coeffs = np.zeros(0, np.complex128)
    for _ in range(sparsity):
        scores = np.abs(dictionary.atoms.conj().T @ residual)
        ledger.flop_count += dictionary.n_atoms * dictionary.length
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        A_sel = dictionary.atoms[:, selected]
        if np.linalg.cond(A_sel.conj().T @ A_sel) > 1e12:
            raise errors.RankError("selected atoms numerically dependent")
        coeffs, *_ = np.linalg.lstsq(A_sel, y, rcond=None)
        ledger.flop_count += len(selected) ** 2 * dictionary.length
        residual = y - A_sel @ coeffs
        res_history.append(float(np.linalg.norm(residual) ** 2))
    ledger.finalize()

    targets = []
    for flat, c in zip(selected, coeffs):
        tau, nu = dictionary.cell(flat)
        targets.append(Target(complex(c / dictionary.atom_norms[flat]), tau, nu))
    y_hat = dictionary.atoms[:, selected] @ coeffs if selected else np.zeros_like(y)
    return EstimateReport(targets, y_hat, res_history[-1], ledger,
                          capabilities={"model": "model-based",
                                        "apriori": "target count P",
                                        "setup": "mono-or-multi-static"},
                          diagnostics={"residual_history": res_history,
                                       "support": list(selected)})


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

def _steering(freq_like: float, step: float, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * step * freq_like * np.arange(n))


# block subspace iteration for MUSIC's signal subspace: the block holds
# order + SUBSPACE_EXTRA vectors, and the top `order` Ritz pairs must meet
# ||Rv - lambda v|| <= SUBSPACE_TOL * lambda_max within SUBSPACE_MAX_ITER steps
SUBSPACE_EXTRA = 10
SUBSPACE_TOL = 1e-13
SUBSPACE_MAX_ITER = 80


def _signal_subspace(R: np.ndarray, order: int):
    """Top `order` eigenpairs of the Hermitian R by block subspace iteration
    with Rayleigh-Ritz (Xu & Kailath, "Fast subspace decomposition", IEEE
    TSP 1994), as ``(eigenvalues ascending, eigenvectors)``.

    The start block is the columns of R with the largest norms, so the
    result depends on R alone.  Returns None when the block would not be
    smaller than R, or when a Ritz pair still misses the residual test
    after SUBSPACE_MAX_ITER steps; the caller then runs a full `eigh`.
    """
    dim = R.shape[0]
    block = order + SUBSPACE_EXTRA
    if block >= dim:
        return None
    start = np.argsort(-np.linalg.norm(R, axis=0), kind="stable")[:block]
    Q, _ = np.linalg.qr(R[:, start])
    for _ in range(SUBSPACE_MAX_ITER):
        Z = R @ Q
        ritz, V = np.linalg.eigh(Q.conj().T @ Z)
        X = Q @ V[:, -order:]
        lam = ritz[-order:]
        resid = np.linalg.norm(Z @ V[:, -order:] - X * lam, axis=0)
        if (resid <= SUBSPACE_TOL * ritz[-1]).all():
            return lam, X
        Q, _ = np.linalg.qr(Z)
    return None


def music_estimate(obs, order: int, delay_grid, doppler_grid,
                   freq_step: float, time_step: float = 1.0,
                   window: tuple[int, int] | None = None) -> EstimateReport:
    """Subspace estimation of delay/Doppler exponentials.

    obs is the channel-domain observation G[m, l] (frequency bins x slow
    time) whose entries follow sum_p h_p e^{j2pi m*freq_step tau_p}
    e^{j2pi l*time_step nu_p}; a 1-D vector is treated as (M, 1).
    Snapshots come from 2-D spatial smoothing over sliding windows of
    shape `window` (default: about half of each axis extent).

    The signal subspace E_s comes from `_signal_subspace`, and the
    pseudospectrum denominator is ||a - E_s E_s^H a||^2, the norm of the
    projection residual; the difference ||a||^2 - ||E_s^H a||^2 would lose
    digits to cancellation at the peaks.  If the iteration misses its
    residual test, a full `eigh` and the noise-subspace form ||E_n^H a||^2
    run instead (diagnostic `eigh_fallback`).  The steering
    vectors are periodic in delay with period 1/freq_step (and in Doppler
    with 1/time_step), so a grid spanning a whole period raises GridError.
    The cost ledger counts the nominal algorithm, a full eigendecomposition
    and the noise-subspace projection, whichever path ran.
    """
    G = np.asarray(obs, np.complex128)
    if G.ndim == 1:
        G = G[:, None]
    M, L = G.shape
    if order < 1:
        raise errors.OrderError("model order must be >= 1")
    if window is None:
        mw = max(min(M, order + 1), (M + 1) // 2)
        lw = max(min(L, 1), (L + 1) // 2)
        window = (mw, lw)
    mw, lw = window
    dim = mw * lw
    if order >= dim:
        raise errors.OrderError(f"order {order} >= covariance dimension {dim}")
    n_snap = (M - mw + 1) * (L - lw + 1)
    if n_snap < 1:
        raise errors.OrderError("smoothing window larger than the data")

    delay_grid = np.asarray(delay_grid, float)
    doppler_grid = np.asarray(doppler_grid, float)
    for axis, grid, step, used in (("delay", delay_grid, freq_step, True),
                                   ("doppler", doppler_grid, time_step, L > 1)):
        if used and grid.size and abs(np.ptp(grid) * step) >= 1:
            raise errors.GridError(
                f"{axis} grid spans {np.ptp(grid)!r}, at least the steering "
                f"period {1 / abs(step)!r}, so its cells alias")

    # snapshot i * (L - lw + 1) + j is G[i:i + mw, j:j + lw], row-major
    snaps = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(G, (mw, lw))
        .transpose(2, 3, 0, 1).reshape(dim, n_snap))
    R = snaps @ snaps.conj().T / n_snap

    n_tau, n_nu = delay_grid.size, doppler_grid.size
    # unit-norm steering vectors of every cell, columns in (tau, nu) order
    a_f = np.exp(2j * np.pi * freq_step * delay_grid * np.arange(mw)[:, None])
    a_t = np.exp(2j * np.pi * time_step * doppler_grid
                 * np.arange(lw)[:, None])
    S = (a_f[:, None, :, None] * a_t[None, :, None, :]).reshape(dim, -1)
    S /= np.linalg.norm(S, axis=0)
    found = _signal_subspace(R, order)
    if found is not None:
        evals, signal_sub = found
        resid = S - signal_sub @ (signal_sub.conj().T @ S)
        denom = np.sum(np.abs(resid) ** 2, axis=0)
    else:
        evals, evecs = np.linalg.eigh(R)
        evals = evals[dim - order:]
        denom = np.sum(np.abs(evecs[:, :dim - order].conj().T @ S) ** 2,
                       axis=0)
    pseudo = 1.0 / np.maximum(denom, 1e-300).reshape(n_tau, n_nu)

    # P largest well-separated peaks (greedy, excluding adjacent cells)
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

    # amplitudes: LS fit of full-size steering vectors to the observation
    targets: list[Target] = []
    if chosen:
        cols = []
        for i, j in chosen:
            v = np.outer(_steering(delay_grid[i], freq_step, M),
                         _steering(doppler_grid[j], time_step, L)).reshape(-1)
            cols.append(v)
        B = np.stack(cols, axis=1)
        amps, *_ = np.linalg.lstsq(B, G.reshape(-1), rcond=None)
        g_hat = B @ amps
        for (i, j), h in zip(chosen, amps):
            targets.append(Target(complex(h), float(delay_grid[i]),
                                  float(doppler_grid[j])))
    else:
        g_hat = np.zeros(M * L, np.complex128)
    residual = float(np.linalg.norm(G.reshape(-1) - g_hat) ** 2)

    ledger = CostLedger(time_samples_used=M * L, spectral_bins_used=M,
                        occupied_bandwidth=M * freq_step,
                        apriori_inputs=["model order P"])
    ledger.flop_count = (dim ** 2 * n_snap + dim ** 3
                         + n_tau * n_nu * dim * (dim - order))
    ledger.finalize()
    return EstimateReport(targets, g_hat.reshape(M, L), residual, ledger,
                          capabilities={"model": "model-based",
                                        "apriori": "model order P",
                                        "resolution": "super-resolution"},
                          diagnostics={"pseudospectrum": pseudo,
                                       "eigenvalues": evals,
                                       "noise_floor": float(
                                           (np.trace(R).real - evals.sum())
                                           / (dim - order)),
                                       "eigh_fallback": found is None})


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
        raise errors.LayoutError("waveform carries no demodulatable layout")
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

    n_sc, n_sym = lay.n_subcarriers, lay.n_symbols
    sym_len = len(u) // n_sym
    cp = sym_len - n_sc
    y = _pad_to(rx.samples, len(u))
    blocks = y.reshape(sym_len, n_sym, order="F")[cp:, :]
    grid = np.fft.fft(blocks, axis=0) / np.sqrt(n_sc)
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
    data_cells = active[:, None] & ~lay.pilot_mask
    data_syms = eq.T[data_cells.T]
    return slice_psk(data_syms, lay.bits_per_symbol)


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
        raise errors.WeightError(f"cost weights sum to {lam_sum}, not 1")
    if not all(w >= 0 for w in weights.values()):
        raise errors.WeightError(f"cost weights must be >= 0, got {weights}")
    missing = set(weights) - set(vec)
    if missing:
        raise errors.WeightError(f"weights name unknown cost components {missing}")
    if any(v < 0 for v in vec.values()):
        raise ValueError("cost components must be >= 0")
    if c_max <= 0:
        raise ValueError("C_max must be > 0")
    s = sum(weights[k] * vec[k] for k in weights) / c_max
    if form == "fpe":
        if s >= 1.0:
            raise errors.SaturationError(f"weighted cost S={s} >= 1")
        return (1.0 + s) / (1.0 - s)
    if form == "additive":
        return 1.0 + s
    raise ValueError(f"unknown w_cost form {form!r}")
