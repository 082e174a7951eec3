"""Distributed-aperture spatiotemporal synchronization.

Simulates pairwise bidirectional measurements between networked apertures,
builds the factor graph of the joint posterior (pair likelihoods times
per-node priors), and runs particle-based loopy belief propagation to
produce MAP/MMSE estimates of agent states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import errors
from .conventions import SPEED_OF_LIGHT

_COMPONENT_DIMS = {"position": 2, "orientation": 1, "time_offset": 1,
                   "cpo": 1}
_CIRCULAR = {"orientation", "cpo"}


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    w = np.mod(np.asarray(x, float) + np.pi, 2 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    if w.shape == ():
        return float(w)
    return w


# ---------------------------------------------------------------------------
# states and topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApertureState:
    """Spatial state (position, orientation) plus temporal state (time
    offset, carrier phase offset): the components the observables read."""

    id: int
    position: np.ndarray
    orientation: float = 0.0
    time_offset: float = 0.0
    cpo: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, float))
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))
        object.__setattr__(self, "cpo", wrap_angle(self.cpo))


class StateSpace:
    """Active state components and their packing into flat vectors."""

    def __init__(self, components=("position",)):
        unknown = set(components) - set(_COMPONENT_DIMS)
        if unknown:
            raise ValueError(f"unknown state components {unknown}")
        self.components = tuple(components)
        self.slices = {}
        off = 0
        for c in self.components:
            d = _COMPONENT_DIMS[c]
            self.slices[c] = slice(off, off + d)
            off += d
        self.dim = off
        self.circular_mask = np.array([c in _CIRCULAR for c in self.components
                                       for _ in range(_COMPONENT_DIMS[c])],
                                      bool)

    def pack(self, state: ApertureState) -> np.ndarray:
        v = np.zeros(self.dim)
        for c in self.components:
            val = getattr(state, c)
            v[self.slices[c]] = val
        return v

    def unpack(self, vec: np.ndarray, node_id: int) -> ApertureState:
        kw = {"id": node_id, "position": np.zeros(2)}
        for c in self.components:
            val = vec[self.slices[c]]
            kw[c] = val if _COMPONENT_DIMS[c] > 1 else float(val[0])
        return ApertureState(**kw)

    def get(self, particles: np.ndarray, component: str):
        """Component values from a particle array, or a constant default."""
        if component in self.slices:
            sl = self.slices[component]
            vals = particles[:, sl]
            return vals[:, 0] if _COMPONENT_DIMS[component] == 1 else vals
        n = particles.shape[0]
        if _COMPONENT_DIMS[component] > 1:
            return np.zeros((n, _COMPONENT_DIMS[component]))
        return np.zeros(n)


@dataclass(frozen=True)
class NetworkTopology:
    """Aperture ids split into anchors/agents plus the measured pair mask."""

    apertures: tuple[int, ...]
    anchors: tuple[int, ...]
    measurement_mask: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        aps = tuple(sorted(set(self.apertures)))
        anc = tuple(sorted(set(self.anchors)))
        object.__setattr__(self, "apertures", aps)
        object.__setattr__(self, "anchors", anc)
        if not set(anc) <= set(aps):
            raise errors.TopologyError("anchors must be a subset of apertures")
        mask = tuple(self.measurement_mask)
        for (j, jp) in mask:
            if j == jp or j not in aps or jp not in aps:
                raise errors.TopologyError(f"bad measured pair {(j, jp)}")
        if len(set(mask)) != len(mask):
            raise errors.TopologyError("duplicate pairs in measurement mask")
        object.__setattr__(self, "measurement_mask", mask)

    @property
    def agents(self) -> tuple[int, ...]:
        return tuple(j for j in self.apertures if j not in self.anchors)

    @property
    def pair_set(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, jp) for j in self.apertures for jp in self.apertures
                     if j != jp)

    @classmethod
    def full_mesh(cls, apertures, anchors) -> "NetworkTopology":
        top = cls(tuple(apertures), tuple(anchors))
        return replace(top, measurement_mask=top.pair_set)


@dataclass(frozen=True)
class MeasurementNoise:
    """Per-observable noise stds; None disables the observable."""

    delay_std: float | None = None
    aoa_std: float | None = None
    phase_std: float | None = None

    def __post_init__(self):
        for name in ("delay_std", "aoa_std", "phase_std"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be > 0 when enabled")


@dataclass(frozen=True)
class PairMeasurement:
    """Observables of one ordered pair (transmitter j, receiver j')."""

    pair: tuple[int, int]
    delay: float | None
    aoa: float | None
    phase: float | None
    noise: MeasurementNoise


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

class PointPrior:
    """Degenerate (point-mass) prior; anchors use it and never move."""

    def __init__(self, vec: np.ndarray):
        self.vec = np.asarray(vec, float)

    def sample(self, n, rng):
        return np.tile(self.vec, (n, 1))

    def logpdf(self, x):
        return np.zeros(x.shape[0])


class GaussianPrior:
    def __init__(self, mean, std, circular_mask=None):
        self.mean = np.asarray(mean, float)
        self.std = np.broadcast_to(np.asarray(std, float), self.mean.shape).copy()
        self.circular_mask = (np.zeros(self.mean.size, bool)
                              if circular_mask is None else circular_mask)

    def sample(self, n, rng):
        x = self.mean + self.std * rng.standard_normal((n, self.mean.size))
        x[:, self.circular_mask] = wrap_angle(x[:, self.circular_mask])
        return x

    def logpdf(self, x):
        d = x - self.mean
        d[:, self.circular_mask] = wrap_angle(d[:, self.circular_mask])
        return -0.5 * np.sum((d / self.std) ** 2, axis=1)


class UniformPrior:
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, float)
        self.hi = np.asarray(hi, float)

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=(n, self.lo.size))

    def logpdf(self, x):
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=1)
        return np.where(inside, 0.0, -np.inf)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def _geometry(p_tx, p_rx):
    """Transmitter-minus-receiver offset and its length (vectorized)."""
    diff = p_tx - p_rx
    return diff, np.linalg.norm(diff, axis=-1)


def _delay(dist, to_tx, to_rx):
    """Propagation delay plus the clock-offset difference TO_rx - TO_tx."""
    return dist / SPEED_OF_LIGHT + (to_rx - to_tx)


def _aoa(diff, orient_rx):
    """Bearing of the transmitter in the receiver frame."""
    return wrap_angle(np.arctan2(diff[..., 1], diff[..., 0]) - orient_rx)


def _phase(dist, cpo_tx, cpo_rx, carrier_freq):
    """Wrapped carrier phase of the geometric delay plus the CPO difference."""
    return wrap_angle(2 * np.pi * carrier_freq * dist / SPEED_OF_LIGHT
                      + (cpo_rx - cpo_tx))


def simulate_measurements(topology: NetworkTopology, true_states: dict,
                          noise: MeasurementNoise, seed: int,
                          carrier_freq: float = 1e9) -> list[PairMeasurement]:
    """Bidirectional pair observables with additive Gaussian noise.

    Delay carries propagation plus the clock-offset difference TO_rx - TO_tx;
    AOA is the bearing of the transmitter in the receiver frame; phase is the
    wrapped carrier phase of the geometric delay plus the CPO difference.
    Only the observables the noise model enables are computed, and their
    noise is drawn in the order delay, AOA, phase. Deterministic given the
    seed.
    """
    missing = set(topology.apertures) - set(true_states)
    if missing:
        raise errors.TopologyError(f"missing true states for {missing}")
    rng = np.random.default_rng(seed)
    out = []
    for (j, jp) in sorted(topology.measurement_mask):
        tx, rx = true_states[j], true_states[jp]
        diff, dist = _geometry(tx.position, rx.position)
        z_delay = z_aoa = z_phase = None
        if noise.delay_std is not None:
            z_delay = float(_delay(dist, tx.time_offset, rx.time_offset)
                            + noise.delay_std * rng.standard_normal())
        if noise.aoa_std is not None:
            z_aoa = float(wrap_angle(_aoa(diff, rx.orientation)
                                     + noise.aoa_std * rng.standard_normal()))
        if noise.phase_std is not None:
            phase = _phase(dist, tx.cpo, rx.cpo, carrier_freq)
            z_phase = float(wrap_angle(phase
                                       + noise.phase_std * rng.standard_normal()))
        out.append(PairMeasurement((j, jp), z_delay, z_aoa, z_phase, noise))
    return out


# ---------------------------------------------------------------------------
# factor graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFactor:
    measurement: PairMeasurement

    @property
    def pair(self):
        return self.measurement.pair


@dataclass(frozen=True)
class PriorFactor:
    node_id: int
    prior: object


@dataclass
class FactorGraph:
    topology: NetworkTopology
    space: StateSpace
    prior_factors: list[PriorFactor]
    pair_factors: list[PairFactor]
    carrier_freq: float = 1e9

    @property
    def n_factors(self) -> int:
        return len(self.prior_factors) + len(self.pair_factors)

    def priors(self) -> dict:
        return {f.node_id: f.prior for f in self.prior_factors}

    def has_cycles(self) -> bool:
        """Whether the undirected measured-pair graph has a cycle.

        Both directions of a pair are one edge. Union-find over the edges:
        an edge that joins two already-connected apertures closes a cycle,
        in whichever connected component it lies.
        """
        parent = {j: j for j in self.topology.apertures}

        def root(j):
            while parent[j] != j:
                j = parent[j]
            return j

        for a, b in {frozenset(f.pair) for f in self.pair_factors}:
            ra, rb = root(a), root(b)
            if ra == rb:
                return True
            parent[ra] = rb
        return False


def build_factor_graph(topology: NetworkTopology, priors: dict,
                       measurements, space: StateSpace | None = None,
                       carrier_freq: float = 1e9) -> FactorGraph:
    """Graph of |measured pairs| pair factors plus one prior factor per
    aperture, matching the posterior factorization up to proportionality."""
    space = space or StateSpace()
    missing = set(topology.apertures) - set(priors)
    if missing:
        raise errors.TopologyError(f"missing priors for apertures {missing}")
    for j in topology.anchors:
        if not isinstance(priors[j], PointPrior):
            raise errors.TopologyError(f"anchor {j} needs a point-mass prior")
    mask = set(topology.measurement_mask)
    seen = set()
    pair_factors = []
    for m in measurements:
        if m.pair not in mask:
            raise errors.TopologyError(f"measurement for unmasked pair {m.pair}")
        if m.pair in seen:
            raise errors.TopologyError(f"duplicate measurement for {m.pair}")
        seen.add(m.pair)
        pair_factors.append(PairFactor(m))
    dangling = mask - seen
    if dangling:
        raise errors.TopologyError(f"masked pairs without measurements {dangling}")
    prior_factors = [PriorFactor(j, priors[j]) for j in topology.apertures]
    return FactorGraph(topology, space, prior_factors, pair_factors,
                       carrier_freq)


def pair_log_likelihood(meas: PairMeasurement, x_tx: np.ndarray,
                        x_rx: np.ndarray, space: StateSpace,
                        carrier_freq: float,
                        noise_scale: float = 1.0) -> np.ndarray:
    """log f(z | theta_tx, theta_rx) for particle arrays (row-broadcastable).

    Only the observables the measurement holds are computed.
    """
    x_tx = np.atleast_2d(x_tx)
    x_rx = np.atleast_2d(x_rx)
    diff, dist = _geometry(space.get(x_tx, "position"),
                           space.get(x_rx, "position"))
    lw = np.zeros(dist.shape)
    noise = meas.noise
    # an overflowing residual legitimately drives the log-weight to -inf
    with np.errstate(over="ignore"):
        if meas.delay is not None:
            delay = _delay(dist, space.get(x_tx, "time_offset"),
                           space.get(x_rx, "time_offset"))
            s = noise.delay_std * noise_scale
            lw += -0.5 * ((meas.delay - delay) / s) ** 2
        if meas.aoa is not None:
            aoa = _aoa(diff, space.get(x_rx, "orientation"))
            s = noise.aoa_std * noise_scale
            lw += -0.5 * (wrap_angle(meas.aoa - aoa) / s) ** 2
        if meas.phase is not None:
            phase = _phase(dist, space.get(x_tx, "cpo"),
                           space.get(x_rx, "cpo"), carrier_freq)
            s = noise.phase_std * noise_scale
            lw += -0.5 * (wrap_angle(meas.phase - phase) / s) ** 2
    return lw


# ---------------------------------------------------------------------------
# particle BP
# ---------------------------------------------------------------------------

# a belief's log-weights are DAMPING times this iteration's plus the rest
# times the previous iteration's, until it is resampled
DAMPING = 0.5
# a belief is resampled when its ESS falls below RESAMPLE_THRESHOLD * n
RESAMPLE_THRESHOLD = 0.5


@dataclass(frozen=True)
class BPConfig:
    particle_count: int = 1000
    max_iterations: int = 50
    message_tol: float = 1e-4
    seed: int = 0
    # likelihood tempering: stds scaled by anneal_start * anneal_decay^iter
    # (floored at 1) to avoid weight underflow under tight likelihoods
    anneal_start: float = 1.0
    anneal_decay: float = 0.5

    def __post_init__(self):
        if self.particle_count < 100:
            raise ValueError("particle_count must be >= 100")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("anneal_start", "anneal_decay"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass
class Belief:
    """Weighted particle representation of one marginal posterior."""

    particles: np.ndarray
    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        s = self.weights.sum()
        if not (np.isfinite(s) and s > 0):
            raise errors.DegeneracyError(f"belief weights sum to {s}")
        if abs(s - 1.0) > 1e-9:
            self.weights = self.weights / s

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.weights ** 2))


def _weighted_std(x: np.ndarray, w: np.ndarray, circular: bool) -> float:
    if circular:
        cbar = np.sum(w * np.cos(x))
        sbar = np.sum(w * np.sin(x))
        r = np.hypot(cbar, sbar)
        r = min(r, 1.0 - 1e-15)
        return float(np.sqrt(-2.0 * np.log(max(r, 1e-15))))
    mu = np.sum(w * x)
    return float(np.sqrt(max(np.sum(w * (x - mu) ** 2), 0.0)))


def _silverman_bandwidth(particles, weights, circular_mask) -> np.ndarray:
    n, d = particles.shape
    factor = n ** (-1.0 / (d + 4))
    h = np.empty(d)
    for k in range(d):
        s = _weighted_std(particles[:, k], weights, circular_mask[k])
        h[k] = max(s, 1e-12) * factor
    return h


def _systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    # the sum of normalised weights can land a few ulps below 1, and a
    # position past it would index n
    cum[-1] = 1.0
    return np.searchsorted(cum, positions)


# bytes of the one exponent block `_kde_log_density` reuses for every row
# block. Budgets from 256 KiB to 2 MiB timed within run-to-run noise of
# each other on a host with a 4 MiB L2; 768 KiB is a middle value
_KDE_BLOCK_BYTES = 768 * 1024
# the log-weight of a zero-weight centre: finite, so no -inf meets a 0 in
# the product, and far below exp's range, so its term is exactly 0
_LOG_ZERO_WEIGHT = -1e300


def _kde_log_density(x_eval, centers, weights, h, circular_mask):
    """log of the weighted Gaussian-mixture density (the jittered-resample
    proposal) at each evaluation point.

    Linear dims use the expanded quadratic form with no difference tensor.
    Both point sets are first centred on the weighted mean of the centres
    and scaled by h: h shrinks to millimetres while coordinates are tens of
    metres, and the uncentred |x/h|² ≈ 1e9 would cancel catastrophically.
    The operands are augmented, ``a = [x, 1, ½|x|²]`` and
    ``b = [c, log w − ½|c|², −1]``, so one product ``a·bᵀ`` is the whole
    exponent ``x·c + log w − ½|c|² − ½|x|²``. A zero weight's log w is
    ``_LOG_ZERO_WEIGHT``, not −inf, so no −inf enters the product; the
    centre stays in the row sums, which keeps their summation order.

    The evaluation points go through in row blocks of about
    ``_KDE_BLOCK_BYTES`` of exponents, in one reused buffer: product, row
    maximum, shift, exp and sum all run while the block is in cache, and
    no n_eval × n_centres array is formed. Circular dims subtract
    ``½(wrap(Δ)/h)²`` per block and per dim. log w is folded in before the
    row maximum, so the largest term of every row is exp(0) and no row
    underflows.
    """
    lin = ~circular_mask
    mu = weights @ centers[:, lin]
    xe = (x_eval[:, lin] - mu) / h[lin]
    ce = (centers[:, lin] - mu) / h[lin]
    with np.errstate(divide="ignore"):
        log_w = np.maximum(np.log(weights), _LOG_ZERO_WEIGHT)
    a = np.column_stack([xe, np.ones(len(xe)), 0.5 * np.sum(xe * xe, axis=1)])
    b = np.column_stack([ce, log_w - 0.5 * np.sum(ce * ce, axis=1),
                         np.full(len(ce), -1.0)])
    xc, cc = x_eval[:, circular_mask], centers[:, circular_mask]
    half_inv_h2 = 0.5 / h[circular_mask] ** 2
    n_eval, n_c = x_eval.shape[0], centers.shape[0]
    rows = max(1, _KDE_BLOCK_BYTES // (8 * n_c))
    buf = np.empty((min(rows, n_eval), n_c))
    out = np.empty(n_eval)
    log_norm = float(np.sum(np.log(h)) + 0.5 * h.size * np.log(2 * np.pi))
    for start in range(0, n_eval, rows):
        sl = slice(start, min(start + rows, n_eval))
        q = buf[:sl.stop - start]
        np.matmul(a[sl], b.T, out=q)
        for k in range(xc.shape[1]):
            q -= half_inv_h2[k] * wrap_angle(xc[sl, k, None] - cc[:, k]) ** 2
        peak = q.max(axis=1)
        q -= peak[:, None]
        np.exp(q, out=q)
        out[sl] = np.log(q.sum(axis=1)) + peak - log_norm
    return out


def run_loopy_bp(graph: FactorGraph, config: BPConfig) -> dict:
    """Synchronous (flooding) particle BP over the factor graph.

    Messages into an agent pair each of its particles with a particle
    resampled from the neighbor belief, weights are the damped product of
    prior and incoming messages, and beliefs are resampled with kernel
    jitter when the effective sample size drops below
    RESAMPLE_THRESHOLD * n. An anchor's belief is its one known state,
    shape (1, d), drawn from its point-mass prior; it never changes, and a
    message from it reads that state as is, with no resampling.

    Returns a dict of aperture id to its `Belief`, anchors included.
    """
    space = graph.space
    top = graph.topology
    rng = np.random.default_rng(config.seed)
    priors = graph.priors()
    n = config.particle_count

    beliefs: dict[int, Belief] = {}
    for j in top.apertures:
        k = 1 if j in top.anchors else n
        beliefs[j] = Belief(priors[j].sample(k, rng), np.full(k, 1.0 / k))

    # importance proposal density of each agent's particle set; starts as
    # the prior (the initial sampler) and becomes the jittered-resample KDE
    logq: dict[int, np.ndarray] = {
        m: priors[m].logpdf(beliefs[m].particles).astype(float)
        for m in top.agents}

    factors_of = {m: [f for f in graph.pair_factors if m in f.pair]
                  for m in top.agents}
    prev_logw: dict[int, np.ndarray | None] = {m: None for m in top.agents}
    prev_means: dict[int, np.ndarray] = {}

    for it in range(config.max_iterations):
        scale = max(1.0, config.anneal_start * config.anneal_decay ** it)
        new_logw = {}
        for m in top.agents:
            parts = beliefs[m].particles
            lw = priors[m].logpdf(parts).astype(float)
            for f in factors_of[m]:
                j, jp = f.pair
                other = jp if m == j else j
                x_other = beliefs[other].particles
                if other not in top.anchors:
                    x_other = x_other[_systematic_resample(
                        beliefs[other].weights, rng)]
                x_tx, x_rx = (parts, x_other) if m == j else (x_other, parts)
                lw += pair_log_likelihood(f.measurement, x_tx, x_rx, space,
                                          graph.carrier_freq,
                                          noise_scale=scale)
            new_logw[m] = lw

        converged = scale == 1.0 and it > 0
        for m in top.agents:
            lw = new_logw[m]
            if prev_logw[m] is not None:
                lw = DAMPING * lw + (1.0 - DAMPING) * prev_logw[m]
            prev_logw[m] = lw
            # importance correction: particles follow logq, not the target
            lw_is = lw - logq[m]
            finite = np.isfinite(lw_is)
            if not finite.any():
                raise errors.DegeneracyError(
                    f"all particle weights underflowed for agent {m}")
            # the largest finite term is exp(0) = 1, so the sum is >= 1
            w = np.exp(lw_is - lw_is[finite].max())
            w_sum = w.sum()
            if not np.isfinite(w_sum):
                raise errors.DegeneracyError(
                    f"particle weights of agent {m} sum to {w_sum}")
            w /= w_sum
            bel = Belief(beliefs[m].particles, w, iteration=it + 1)

            mean = np.sum(bel.particles * w[:, None], axis=0)
            if it > 0 and np.max(np.abs(mean - prev_means[m])) \
                    > config.message_tol:
                converged = False
            prev_means[m] = mean

            if bel.ess < RESAMPLE_THRESHOLD * n:
                cm = space.circular_mask
                old_parts = bel.particles
                parts = old_parts[_systematic_resample(w, rng)]
                h = _silverman_bandwidth(old_parts, w, cm)
                parts += h * rng.standard_normal(parts.shape)
                parts[:, cm] = wrap_angle(parts[:, cm])
                # new particles follow the jitter-KDE; record it as the
                # proposal so later weights stay importance-corrected
                logq[m] = _kde_log_density(parts, old_parts, w, h, cm)
                bel = Belief(parts, np.full(n, 1.0 / n), iteration=it + 1)
                prev_logw[m] = None
            beliefs[m] = bel

        if converged:
            break
    return beliefs


# ---------------------------------------------------------------------------
# estimates and reporting
# ---------------------------------------------------------------------------

def estimate_mmse(belief: Belief, space: StateSpace,
                  node_id: int = -1) -> ApertureState:
    """Weighted particle mean; circular mean on wrapped coordinates."""
    if belief.particles.size == 0:
        raise errors.EmptyBelief("empty belief")
    w = belief.weights
    x = belief.particles
    mean = np.sum(x * w[:, None], axis=0)
    for k in np.nonzero(space.circular_mask)[0]:
        mean[k] = np.arctan2(np.sum(w * np.sin(x[:, k])),
                             np.sum(w * np.cos(x[:, k])))
    return space.unpack(mean, node_id)


def estimate_map(belief: Belief, space: StateSpace,
                 node_id: int = -1) -> ApertureState:
    """Highest-density particle after Gaussian kernel smoothing with the
    Silverman bandwidth rule (circular dims use wrapped differences)."""
    if belief.particles.size == 0:
        raise errors.EmptyBelief("empty belief")
    x = belief.particles
    h = _silverman_bandwidth(x, belief.weights, space.circular_mask)
    dens = _kde_log_density(x, x, belief.weights, h, space.circular_mask)
    return space.unpack(x[int(np.argmax(dens))].copy(), node_id)


def sync_error_report(estimates: dict, truth: dict) -> dict:
    """Per-aperture position error (m) and signed time-offset error (s),
    plus their network RMS under ``"rms"``. Orientation and CPO errors are
    not reported."""
    if set(estimates) != set(truth):
        raise errors.IdMismatch(
            f"estimate ids {sorted(estimates)} != truth ids {sorted(truth)}")
    rows = {}
    pos_sq, to_sq = [], []
    for j in sorted(estimates):
        e, t = estimates[j], truth[j]
        pos_err = float(np.linalg.norm(e.position - t.position))
        row = {"position_error_m": pos_err,
               "to_error_s": e.time_offset - t.time_offset}
        rows[j] = row
        pos_sq.append(pos_err ** 2)
        to_sq.append(row["to_error_s"] ** 2)
    rows["rms"] = {
        "position_rms_m": float(np.sqrt(np.mean(pos_sq))),
        "to_rms_s": float(np.sqrt(np.mean(to_sq))),
    }
    return rows


def measurement_jacobian_rank(graph: FactorGraph, truth: dict,
                              step: float = 1e-6) -> dict:
    """Numeric rank of the stacked observable Jacobian w.r.t. agent states.

    Reports identifiability diagnostics instead of asserting anchor-count
    thresholds: rank deficiency signals unobservable directions (e.g. the
    common clock shift in anchor-free delay-only networks).
    """
    space = graph.space
    agents = graph.topology.agents
    x0 = np.concatenate([space.pack(truth[m]) for m in agents])

    def stacked(x):
        states = dict(truth)
        off = 0
        for m in agents:
            states[m] = space.unpack(x[off:off + space.dim], m)
            off += space.dim
        obs = []
        for f in graph.pair_factors:
            tx, rx = states[f.pair[0]], states[f.pair[1]]
            diff, dist = _geometry(tx.position, rx.position)
            meas = f.measurement
            if meas.delay is not None:
                obs.append(_delay(dist, tx.time_offset, rx.time_offset)
                           / meas.noise.delay_std)
            if meas.aoa is not None:
                obs.append(_aoa(diff, rx.orientation) / meas.noise.aoa_std)
            if meas.phase is not None:
                obs.append(_phase(dist, tx.cpo, rx.cpo, graph.carrier_freq)
                           / meas.noise.phase_std)
        return np.asarray(obs, float)

    f0 = stacked(x0)
    jac = np.empty((f0.size, x0.size))
    for k in range(x0.size):
        dx = np.zeros_like(x0)
        dx[k] = step * max(abs(x0[k]), 1.0)
        jac[:, k] = (stacked(x0 + dx) - stacked(x0 - dx)) / (2 * dx[k])
    sv = np.linalg.svd(jac, compute_uv=False)
    tol = max(jac.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > max(tol, 1e-9 * (sv[0] if sv.size else 1.0))))
    return {"rank": rank, "dim": x0.size, "singular_values": sv}


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass
class SyncScenario:
    space: StateSpace
    topology: NetworkTopology
    true_states: dict
    scene_box: tuple[float, float, float, float]
    noise: MeasurementNoise
    config: BPConfig
    carrier_freq: float = 1e9


def _positive(text: str) -> float:
    v = float(text)
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"expected a finite value > 0, got {text!r}")
    return v


# scenario key -> (BPConfig field, parser of its value)
_BP_KEYS = {"bp-particles": ("particle_count", int),
            "bp-iterations": ("max_iterations", int),
            "bp-tol": ("message_tol", _positive),
            "bp-seed": ("seed", int),
            "anneal-start": ("anneal_start", float),
            "anneal-decay": ("anneal_decay", float)}


def load_sync_scenario(path) -> SyncScenario:
    """Parse a network scenario file (the line grammar of
    `errors.key_value_lines`).  Keys:

        sync-version: 1                       (required first)
        components: position [orientation time_offset cpo]
        carrier-freq: <Hz>
        scene-box: x_lo x_hi y_lo y_hi        (agent position prior support)
        aperture: <id> <anchor|agent> x y orient to cpo   (unique ids)
        measure: all        | measure: <j> <jp>  (one per line)
        noise: <delay|aoa|phase> <std>        (at least one)
        bp-particles/bp-iterations/bp-tol/bp-seed: <value>
        anneal-start/anneal-decay: <value>
    """
    components = ("position",)
    carrier = 1e9
    box = (0.0, 100.0, 0.0, 100.0)
    apertures: dict[int, tuple] = {}
    measures: list[tuple[int, int]] = []
    measure_all = False
    noise_kw: dict[str, float] = {}
    bp_kw: dict = {}
    for lineno, key, rest in errors.key_value_lines(path, "sync-version: 1"):
        try:
            if key == "components":
                components = tuple(rest.split())
            elif key == "carrier-freq":
                carrier = _positive(rest)
            elif key == "scene-box":
                box = tuple(float(v) for v in rest.split())
                if (len(box) != 4 or not np.isfinite(box).all()
                        or box[0] >= box[1] or box[2] >= box[3]):
                    raise ValueError("scene-box needs 'x_lo x_hi y_lo y_hi' "
                                     "with finite lo < hi")
            elif key == "aperture":
                parts = rest.split()
                if len(parts) != 7 or parts[1] not in ("anchor", "agent"):
                    raise ValueError(
                        "aperture needs 'id anchor|agent x y orient to cpo'")
                j = int(parts[0])
                if j in apertures:
                    raise ValueError(f"duplicate aperture id {j}")
                apertures[j] = (parts[1] == "anchor",
                                *(float(v) for v in parts[2:]))
            elif key == "measure":
                if rest == "all":
                    measure_all = True
                else:
                    j, jp = (int(v) for v in rest.split())
                    measures.append((j, jp))
            elif key == "noise":
                kind, std = rest.split()
                if kind not in ("delay", "aoa", "phase"):
                    raise ValueError(f"unknown observable {kind}")
                noise_kw[f"{kind}_std"] = float(std)
                MeasurementNoise(**noise_kw)            # check it at its line
            elif key in _BP_KEYS:
                name, cast = _BP_KEYS[key]
                bp_kw[name] = cast(rest)
                BPConfig(**bp_kw)                       # check it at its line
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, TypeError) as exc:
            raise errors.ParseError(f"{path}:{lineno}: {exc}") from None
    if not apertures:
        raise errors.ParseError(f"{path}: no apertures declared")
    if not noise_kw:
        raise errors.ParseError(
            f"{path}: no 'noise:' line, so nothing is observed")
    anchors = tuple(j for j, a in apertures.items() if a[0])
    if len(anchors) == len(apertures):
        raise errors.ParseError(
            f"{path}: every aperture is an anchor, so nothing is estimated")
    states = {j: ApertureState(j, np.array(a[1:3]), orientation=a[3],
                               time_offset=a[4], cpo=a[5])
              for j, a in apertures.items()}
    try:
        topo = NetworkTopology(tuple(apertures), anchors)
        topo = replace(topo, measurement_mask=(
            topo.pair_set if measure_all else tuple(measures)))
        return SyncScenario(StateSpace(components), topo, states, box,
                            MeasurementNoise(**noise_kw), BPConfig(**bp_kw),
                            carrier)
    except (ValueError, errors.TopologyError) as exc:
        raise errors.ParseError(f"{path}: {exc}") from None


def default_agent_prior(scenario: SyncScenario) -> dict:
    """Priors: anchors point-mass at truth; agents uniform over the scene
    box in position, uniform angles, broad Gaussian clock terms."""
    space = scenario.space
    priors = {}
    for j in scenario.topology.apertures:
        if j in scenario.topology.anchors:
            priors[j] = PointPrior(space.pack(scenario.true_states[j]))
            continue
        lo = np.empty(space.dim)
        hi = np.empty(space.dim)
        for c in space.components:
            sl = space.slices[c]
            if c == "position":
                lo[sl] = [scenario.scene_box[0], scenario.scene_box[2]]
                hi[sl] = [scenario.scene_box[1], scenario.scene_box[3]]
            elif c in _CIRCULAR:
                lo[sl], hi[sl] = -np.pi, np.pi
            else:                           # time_offset
                lo[sl], hi[sl] = -1e-6, 1e-6
        priors[j] = UniformPrior(lo, hi)
    return priors


def run_sync_scenario(scenario: SyncScenario, seed: int | None = None):
    """Simulate measurements, run BP, and report errors.

    Returns (estimates dict, beliefs dict, error report).  Anchors are
    estimated by their known states, so the report covers the agents only.
    """
    cfg = scenario.config if seed is None else replace(scenario.config, seed=seed)
    meas_seed = cfg.seed
    measurements = simulate_measurements(scenario.topology,
                                         scenario.true_states, scenario.noise,
                                         meas_seed, scenario.carrier_freq)
    graph = build_factor_graph(scenario.topology,
                               default_agent_prior(scenario), measurements,
                               scenario.space, scenario.carrier_freq)
    beliefs = run_loopy_bp(graph, cfg)
    truth = scenario.true_states
    agents = {j: estimate_mmse(beliefs[j], scenario.space, j)
              for j in scenario.topology.agents}
    report = sync_error_report(agents, {j: truth[j] for j in agents})
    estimates = {**{j: truth[j] for j in scenario.topology.anchors}, **agents}
    return estimates, beliefs, report
