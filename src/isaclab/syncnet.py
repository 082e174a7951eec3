"""Distributed-aperture spatiotemporal synchronization.

Simulates pairwise bidirectional measurements between networked apertures
and builds the factor graph of the joint posterior (pair likelihoods times
per-node priors). Its basin is found in closed form from two-way delays
(two-way time transfer and lateration) or, for a network that closed form
cannot place, by particle loopy belief propagation; damped Gauss-Newton
then fits all agent states jointly there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import erfc, sqrt

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
        object.__setattr__(self, "position", np.asarray(self.position, float))
        if not np.isfinite(np.append(self.position, [
                self.orientation, self.time_offset, self.cpo])).all():
            raise ValueError(f"aperture {self.id}'s state must be finite")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))
        object.__setattr__(self, "cpo", wrap_angle(self.cpo))


class StateSpace:
    """Active state components and their packing into flat vectors."""

    def __init__(self, components=("position",)):
        self.components = tuple(components)
        unknown = set(self.components) - set(_COMPONENT_DIMS)
        if unknown:
            raise ValueError(f"unknown state components {unknown}")
        if len(set(self.components)) < len(self.components):
            raise ValueError(f"repeated state component in {self.components}")
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


def _components(apertures, pairs):
    """Union-find over the measured pairs, both directions of a pair being
    one edge: a dict of each aperture's component root, and whether some
    edge joins two already-connected apertures, which closes a cycle."""
    parent = {j: j for j in apertures}

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    cycle = False
    for a, b in {frozenset(pair) for pair in pairs}:
        ra, rb = root(a), root(b)
        cycle |= ra == rb
        parent[ra] = rb
    return {j: root(j) for j in apertures}, cycle


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
            raise errors.ToolkitError("anchors must be a subset of apertures")
        mask = tuple(self.measurement_mask)
        for (j, jp) in mask:
            if j == jp or j not in aps or jp not in aps:
                raise errors.ToolkitError(f"bad measured pair {(j, jp)}")
        if len(set(mask)) != len(mask):
            raise errors.ToolkitError("duplicate pairs in measurement mask")
        object.__setattr__(self, "measurement_mask", mask)

    @property
    def agents(self) -> tuple[int, ...]:
        return tuple(j for j in self.apertures if j not in self.anchors)

    @property
    def unanchored(self) -> tuple[int, ...]:
        """Agents that no chain of measured pairs joins to an anchor, so
        nothing fixes them in the anchors' frame; without anchors, all."""
        root, _ = _components(self.apertures, self.measurement_mask)
        fixed = {root[j] for j in self.anchors}
        return tuple(j for j in self.agents if root[j] not in fixed)

    @classmethod
    def full_mesh(cls, apertures, anchors) -> "NetworkTopology":
        aps = sorted(set(apertures))
        return cls(tuple(aps), tuple(anchors),
                   tuple(itertools.permutations(aps, 2)))


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


class GaussianPrior:
    def __init__(self, mean, std):
        self.mean = np.asarray(mean, float)
        self.std = np.broadcast_to(np.asarray(std, float), self.mean.shape).copy()

    def sample(self, n, rng):
        return self.mean + self.std * rng.standard_normal((n, self.mean.size))

    def logpdf(self, x):
        return -0.5 * np.sum(((x - self.mean) / self.std) ** 2, axis=1)


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

def _length(diff):
    """Lengths of (..., 2) offsets: `np.linalg.norm(diff, axis=-1)` bit for
    bit (the same two products and one sum), at a fraction of its cost on
    a few thousand rows."""
    dx, dy = diff[..., 0], diff[..., 1]
    return np.sqrt(dx * dx + dy * dy)


# the pair observables, in the order they are computed, drawn and summed
_OBSERVABLES = ("delay", "aoa", "phase")
_ANGULAR = {"aoa", "phase"}
# the observable that reads each component but position, which all read
_READ_BY = {"time_offset": "delay", "orientation": "aoa", "cpo": "phase"}


def _held(obj, suffix=""):
    """The observables whose attribute `name + suffix` of obj is set."""
    return [k for k in _OBSERVABLES if getattr(obj, k + suffix) is not None]


def _observables(which, x_tx, x_rx, space: StateSpace, carrier_freq):
    """Noiseless observables named in `which`, in `_OBSERVABLES` order, of
    packed state arrays that broadcast by row; absent components read 0."""
    x_tx, x_rx = np.atleast_2d(x_tx), np.atleast_2d(x_rx)
    # transmitter-minus-receiver offset and its length
    diff = space.get(x_tx, "position") - space.get(x_rx, "position")
    dist = _length(diff)
    out = []
    if "delay" in which:
        # propagation delay plus the clock-offset difference TO_rx - TO_tx
        out.append(dist / SPEED_OF_LIGHT + (space.get(x_rx, "time_offset")
                                            - space.get(x_tx, "time_offset")))
    if "aoa" in which:
        # bearing of the transmitter in the receiver frame
        out.append(wrap_angle(np.arctan2(diff[..., 1], diff[..., 0])
                              - space.get(x_rx, "orientation")))
    if "phase" in which:
        # wrapped carrier phase of the geometric delay plus the CPO difference
        out.append(wrap_angle(2 * np.pi * carrier_freq * dist / SPEED_OF_LIGHT
                              + (space.get(x_rx, "cpo")
                                 - space.get(x_tx, "cpo"))))
    return out


def simulate_measurements(topology: NetworkTopology, true_states: dict,
                          noise: MeasurementNoise, seed: int,
                          carrier_freq: float = 1e9) -> list[PairMeasurement]:
    """Bidirectional pair observables with additive Gaussian noise.

    Delay carries propagation plus the clock-offset difference TO_rx - TO_tx;
    AOA is the bearing of the transmitter in the receiver frame; phase is the
    wrapped carrier phase of the geometric delay plus the CPO difference.
    Every component of the true states is read. Only the observables the
    noise model enables are computed, and their noise is drawn in the order
    delay, AOA, phase. Deterministic given the seed, an int or a
    np.random.SeedSequence.
    """
    missing = set(topology.apertures) - set(true_states)
    if missing:
        raise errors.ToolkitError(f"missing true states for {missing}")
    rng = np.random.default_rng(seed)
    full = StateSpace(tuple(_COMPONENT_DIMS))
    which = _held(noise, "_std")
    out = []
    for (j, jp) in sorted(topology.measurement_mask):
        z = dict.fromkeys(_OBSERVABLES)
        for k, clean in zip(which, _observables(
                which, full.pack(true_states[j]), full.pack(true_states[jp]),
                full, carrier_freq)):
            v = clean[0] + getattr(noise, f"{k}_std") * rng.standard_normal()
            z[k] = float(wrap_angle(v) if k in _ANGULAR else v)
        out.append(PairMeasurement((j, jp), noise=noise, **z))
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


@dataclass
class FactorGraph:
    """Pair factors plus `priors`, the dict of aperture id to its prior."""

    topology: NetworkTopology
    space: StateSpace
    priors: dict
    pair_factors: list[PairFactor]
    carrier_freq: float = 1e9

    @property
    def n_factors(self) -> int:
        return len(self.priors) + len(self.pair_factors)

    def has_cycles(self) -> bool:
        """Whether the measured pairs, as undirected edges, form a cycle."""
        return _components(self.topology.apertures,
                           [f.pair for f in self.pair_factors])[1]


def build_factor_graph(topology: NetworkTopology, priors: dict,
                       measurements, space: StateSpace,
                       carrier_freq: float = 1e9) -> FactorGraph:
    """Graph of |measured pairs| pair factors plus one prior factor per
    aperture, matching the posterior factorization up to proportionality.
    Each masked pair needs one measurement, each anchor a point-mass prior
    and, when there are anchors, each agent a chain of measured pairs to
    one; an anchor-free graph is kept for `measurement_jacobian_rank`."""
    if set(priors) != set(topology.apertures):
        raise errors.ToolkitError(f"priors for apertures {sorted(priors)}, "
                                  f"not {list(topology.apertures)}")
    for j in topology.anchors:
        if not isinstance(priors[j], PointPrior):
            raise errors.ToolkitError(f"anchor {j} needs a point-mass prior")
    if topology.anchors and topology.unanchored:
        raise errors.ToolkitError(f"agents {list(topology.unanchored)} are "
                                  f"in no measured pair chained to an anchor")
    measurements = list(measurements)
    pairs = sorted(m.pair for m in measurements)
    if pairs != sorted(topology.measurement_mask):
        raise errors.ToolkitError(
            f"measurements for pairs {pairs}, not the masked pairs "
            f"{sorted(topology.measurement_mask)}")
    return FactorGraph(topology, space, dict(priors),
                       [PairFactor(m) for m in measurements], carrier_freq)


def _residuals(meas: PairMeasurement, x_tx, x_rx, space: StateSpace,
               carrier_freq: float) -> list:
    """The whitened residuals (z - h(x)) / std of the observables `meas`
    holds, in `_OBSERVABLES` order, for packed state arrays that broadcast
    by row; an angle's residual is wrapped before it is whitened."""
    which = _held(meas)
    out = []
    for k, clean in zip(which, _observables(which, x_tx, x_rx, space,
                                            carrier_freq)):
        r = getattr(meas, k) - clean
        out.append((wrap_angle(r) if k in _ANGULAR else r)
                   / getattr(meas.noise, f"{k}_std"))
    return out


def pair_log_likelihood(meas: PairMeasurement, x_tx: np.ndarray,
                        x_rx: np.ndarray, space: StateSpace,
                        carrier_freq: float,
                        noise_scale: float = 1.0) -> np.ndarray:
    """log f(z | theta_tx, theta_rx) for particle arrays (row-broadcastable):
    -1/2 the sum of squares of the whitened residuals, each std scaled by
    `noise_scale`."""
    lw = np.zeros(max(len(np.atleast_2d(x_tx)), len(np.atleast_2d(x_rx))))
    # an overflowing residual legitimately drives the log-weight to -inf
    with np.errstate(over="ignore"):
        for r in _residuals(meas, x_tx, x_rx, space, carrier_freq):
            lw -= 0.5 * (r / noise_scale) ** 2
    return lw


def _linearize(graph: FactorGraph, states: dict):
    """Every pair observable's whitened residual, in factor order, at
    `states` (aperture id -> ApertureState, anchors included), and its
    central difference d(h / std) / dx over the agents' packed states in
    topology order, each x stepped by 1e-6 * max(|x|, 1), angles wrapped."""
    space, agents, d = graph.space, graph.topology.agents, graph.space.dim
    x0 = np.concatenate([space.pack(states[m]) for m in agents])
    dx = 1e-6 * np.maximum(np.abs(x0), 1.0)
    # row 0 is x0, row 1 + k is x0 + dx[k] e_k and row 1 + x0.size + k is
    # x0 - dx[k] e_k, their angles wrapped as every state's are
    x = np.concatenate([x0[None], x0 + np.diag(dx), x0 - np.diag(dx)])
    circ = np.tile(space.circular_mask, len(agents))
    x[:, circ] = wrap_angle(x[:, circ])
    at = {j: space.pack(s) for j, s in states.items()}
    at.update((m, x[:, i * d:(i + 1) * d]) for i, m in enumerate(agents))
    r = np.array(np.broadcast_arrays(*(
        v for f in graph.pair_factors for v in _residuals(
            f.measurement, at[f.pair[0]], at[f.pair[1]], space,
            graph.carrier_freq)))).reshape(-1, len(x))
    # h / std rises by what the residual falls; an angle's difference is
    # wrapped by its whitened period 2 pi / std
    diff = r[:, 1 + x0.size:] - r[:, 1:1 + x0.size]
    held = [(f.measurement.noise, k) for f in graph.pair_factors
            for k in _held(f.measurement)]
    for row, (noise, k) in zip(diff, held):
        if k in _ANGULAR:
            period = 2 * np.pi / getattr(noise, f"{k}_std")
            row -= period * np.rint(row / period)
    return r[:, 0], diff / (2 * dx)


def measurement_jacobian(graph: FactorGraph, states: dict) -> np.ndarray:
    """The whitened observable Jacobian at `states` (see `_linearize`): a
    row per observable of each pair factor, a column per component of each
    agent's packed state. inv(JᵀJ) at the truth is the agents' CRLB."""
    return _linearize(graph, states)[1]


# ---------------------------------------------------------------------------
# particle BP
# ---------------------------------------------------------------------------

# a belief's log-weights are DAMPING times this iteration's plus the rest
# times the previous iteration's, until it is resampled
DAMPING = 0.5
# a belief is resampled when its ESS falls below RESAMPLE_THRESHOLD * n
RESAMPLE_THRESHOLD = 0.5
# BP converges once, at anneal scale 1, no belief mean moves by MESSAGE_TOL
MESSAGE_TOL = 1e-4


@dataclass(frozen=True)
class BPConfig:
    particle_count: int = 1000
    max_iterations: int = 50
    seed: int = 0                       # or a np.random.SeedSequence
    # likelihood tempering (`scale`) against weight underflow
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

    def scale(self, it: int) -> float:
        """Iteration `it`'s anneal scale (from 0): every noise std's factor."""
        return max(1.0, self.anneal_start * self.anneal_decay ** it)


@dataclass
class Belief:
    """Weighted particle representation of one marginal posterior."""

    particles: np.ndarray
    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        if self.weights.shape != self.particles.shape[:1]:
            raise ValueError("a belief needs one weight per particle")
        s = self.weights.sum()
        if not (np.isfinite(s) and s > 0):
            raise errors.ToolkitError(f"belief weights sum to {s}")
        if abs(s - 1.0) > 1e-9:
            self.weights = self.weights / s

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.weights ** 2))


class BPResult(dict):
    """What `run_loopy_bp` returns: a dict of aperture id to its `Belief`,
    anchors included, that also says whether BP `converged` (the belief
    means settled after annealing ended) and after how many `iterations`
    it stopped."""

    def __init__(self, beliefs: dict, converged: bool, iterations: int):
        super().__init__(beliefs)
        self.converged = converged
        self.iterations = iterations


def _belief_mean(x, w, circular_mask):
    """Weighted particle mean; circular mean on wrapped coordinates."""
    mean = np.sum(x * w[:, None], axis=0)
    for k in np.nonzero(circular_mask)[0]:
        mean[k] = np.arctan2(np.sum(w * np.sin(x[:, k])),
                             np.sum(w * np.cos(x[:, k])))
    return mean


def _silverman_bandwidth(particles, weights, circular_mask) -> np.ndarray:
    """Silverman's rule on each dim's weighted (an angle's circular) std."""
    n, d = particles.shape
    std = np.sqrt(weights @ (particles - weights @ particles) ** 2)
    c = particles[:, circular_mask]
    r = np.hypot(weights @ np.cos(c), weights @ np.sin(c))
    std[circular_mask] = np.sqrt(-2 * np.log(np.clip(r, 1e-15, 1 - 1e-15)))
    return np.maximum(std, 1e-12) * n ** (-1.0 / (d + 4))


def _systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    # the sum of normalised weights can land a few ulps below 1, and a
    # position past it would index n
    cum[-1] = 1.0
    return np.searchsorted(cum, positions)


def run_loopy_bp(graph: FactorGraph, config: BPConfig) -> BPResult:
    """Synchronous (flooding) particle BP over the factor graph.

    Messages into an agent pair each of its particles with a particle
    resampled from the neighbor belief, weights are the damped product of
    prior and incoming messages, and beliefs are resampled with Gaussian
    jitter of Silverman bandwidth when the effective sample size drops
    below RESAMPLE_THRESHOLD * n. A jittered particle's proposal density
    is its parent's weight, so later weights are the incremental ratio of
    an SMC sampler (Del Moral, Doucet & Jasra, JRSS-B 2006) with no kernel
    density evaluated. An anchor's belief is its one known
    state, shape (1, d), drawn from its point-mass prior; it never
    changes, and a message from it reads that state as is, with no
    resampling.

    Returns a `BPResult`: the dict of aperture id to its `Belief`, anchors
    included, with `converged` and `iterations`.
    """
    space = graph.space
    top = graph.topology
    rng = np.random.default_rng(config.seed)
    priors = graph.priors
    n = config.particle_count

    beliefs: dict[int, Belief] = {}
    for j in top.apertures:
        k = 1 if j in top.anchors else n
        beliefs[j] = Belief(priors[j].sample(k, rng), np.full(k, 1.0 / k))

    # the proposal log-density of each agent's particles: the prior, then
    # after each resample their parents' log-weights
    logq: dict[int, np.ndarray] = {
        m: priors[m].logpdf(beliefs[m].particles) for m in top.agents}

    factors_of = {m: [f for f in graph.pair_factors if m in f.pair]
                  for m in top.agents}
    prev_logw: dict[int, np.ndarray | None] = {m: None for m in top.agents}
    prev_means: dict[int, np.ndarray] = {}

    for it in range(config.max_iterations):
        scale = config.scale(it)
        new_logw = {}
        for m in top.agents:
            parts = beliefs[m].particles
            lw = priors[m].logpdf(parts)
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
        cm = space.circular_mask
        for m in top.agents:
            lw = new_logw[m]
            if prev_logw[m] is not None:
                lw = DAMPING * lw + (1.0 - DAMPING) * prev_logw[m]
            prev_logw[m] = lw
            # importance correction: particles follow logq, not the target
            lw_is = lw - logq[m]
            finite = np.isfinite(lw_is)
            if not finite.any():
                raise errors.ToolkitError(
                    f"all particle weights underflowed for agent {m}")
            # the largest finite term is exp(0) = 1, so the sum is >= 1;
            # Belief normalises it
            bel = Belief(beliefs[m].particles,
                         np.exp(lw_is - lw_is[finite].max()), iteration=it + 1)
            w = bel.weights

            # the mean estimate_mmse reports; its angles' steps are wrapped
            mean = _belief_mean(bel.particles, w, cm)
            step = mean - prev_means.get(m, mean)
            step[cm] = wrap_angle(step[cm])
            if np.max(np.abs(step)) > MESSAGE_TOL:
                converged = False
            prev_means[m] = mean

            if bel.ess < RESAMPLE_THRESHOLD * n:
                idx = _systematic_resample(w, rng)
                parts = bel.particles[idx]
                parts += _silverman_bandwidth(bel.particles, w, cm) \
                    * rng.standard_normal(parts.shape)
                parts[:, cm] = wrap_angle(parts[:, cm])
                # the SMC-sampler weight with the forward kernel as the
                # backward one: later weights are incremental ratios
                logq[m] = lw[idx]
                bel = Belief(parts, np.full(n, 1.0 / n), iteration=it + 1)
                prev_logw[m] = None
            beliefs[m] = bel

        if converged:
            break
    return BPResult(beliefs, converged, it + 1)


# ---------------------------------------------------------------------------
# estimates and reporting
# ---------------------------------------------------------------------------

def estimate_mmse(belief: Belief, space: StateSpace,
                  node_id: int = -1) -> ApertureState:
    """Weighted particle mean; circular mean on wrapped coordinates."""
    return space.unpack(_belief_mean(belief.particles, belief.weights,
                                     space.circular_mask), node_id)


def sync_error_report(estimates: dict, truth: dict) -> dict:
    """A sync record's error fields: `agent_position_error`, each aperture's
    position error (m) as ``[id, error]`` pairs, their RMS `position_rms_m`
    and the time-offset errors' RMS `to_rms_s` (s); no angle error."""
    if set(estimates) != set(truth):
        raise errors.ToolkitError(
            f"estimate ids {sorted(estimates)} != truth ids {sorted(truth)}")
    ids = sorted(estimates)
    pos = [float(np.linalg.norm(estimates[j].position - truth[j].position))
           for j in ids]
    to = [estimates[j].time_offset - truth[j].time_offset for j in ids]
    return {"agent_position_error": [[j, e] for j, e in zip(ids, pos)],
            "position_rms_m": float(np.sqrt(np.mean([e ** 2 for e in pos]))),
            "to_rms_s": float(np.sqrt(np.mean([e ** 2 for e in to])))}


def _numeric_rank(sv: np.ndarray, shape) -> int:
    """How many of a matrix's singular values `sv` (descending) exceed
    max(max(shape) eps, 1e-9) times the largest."""
    top = sv[0] if sv.size else 0.0
    return int(np.sum(sv > max(max(shape) * np.finfo(float).eps, 1e-9) * top))


def measurement_jacobian_rank(graph: FactorGraph, truth: dict) -> dict:
    """Numeric rank of `measurement_jacobian` at the truth, counted on
    unit-norm columns so units do not matter: a deficiency is an
    unobservable direction, such as an anchor-free network's common clock
    shift. The singular values are J's own."""
    jac = measurement_jacobian(graph, truth)
    col = np.linalg.norm(jac, axis=0)
    scaled = np.linalg.svd(jac / np.where(col > 0, col, 1.0), compute_uv=False)
    return {"rank": _numeric_rank(scaled, jac.shape), "dim": jac.shape[1],
            "singular_values": np.linalg.svd(jac, compute_uv=False)}


def _closed_form_start(graph: FactorGraph, anchors: dict) -> dict | None:
    """Every agent's state from two-way time transfer (Kirchner, Proc.
    IEEE 1991) and lateration (Patwari et al., IEEE SPM 2005), given the
    anchors' states `anchors` (aperture id -> ApertureState); None if some
    agent cannot be placed. No random number is drawn.

    Anchors are placed first. Then, pass after pass, each agent is placed
    once three or more placed neighbours j carry a delay in both directions:
    their range is r_j = c (z_{j->m} + z_{m->j}) / 2, and the agent's
    position the least-squares solve of the differenced squared ranges,
    A = 2 (p_k - p_0), b = r_0^2 - r_k^2 + |p_k|^2 - |p_0|^2; its time
    offset the mean of TO_j + (z_{j->m} - z_{m->j}) / 2; its orientation the
    circular mean of bearing(p_j - p_m) - aoa_{j->m}. None too when an
    agent's A has numeric rank below 2 (`_numeric_rank`), as with collinear
    neighbours, or when the space holds `cpo`, whose carrier cycle no delay
    fixes."""
    space = graph.space
    if "cpo" in space.slices:
        return None
    delay = {f.pair: f.measurement.delay for f in graph.pair_factors}
    aoa = {f.pair: f.measurement.aoa for f in graph.pair_factors}
    placed = dict(anchors)
    todo = list(graph.topology.agents)
    while todo:
        for m in todo:
            nbrs = [j for j in placed if delay.get((j, m)) is not None
                    and delay.get((m, j)) is not None]
            if len(nbrs) < 3:
                continue
            there = np.array([delay[(j, m)] for j in nbrs])
            back = np.array([delay[(m, j)] for j in nbrs])
            r = SPEED_OF_LIGHT * (there + back) / 2
            p = np.array([placed[j].position for j in nbrs])
            sq = np.sum(p * p, axis=1)
            a = 2 * (p[1:] - p[0])
            pos, _, _, sv = np.linalg.lstsq(
                a, r[0] ** 2 - r[1:] ** 2 + sq[1:] - sq[0], rcond=None)
            if _numeric_rank(sv, a.shape) < 2:
                return None
            state = {"position": pos}
            if "time_offset" in space.slices:
                state["time_offset"] = float(np.mean(
                    [placed[j].time_offset for j in nbrs] + (there - back) / 2))
            if "orientation" in space.slices:
                diff = p - pos
                turn = np.arctan2(diff[:, 1], diff[:, 0]) - np.array(
                    [aoa[(j, m)] for j in nbrs])
                state["orientation"] = float(np.arctan2(np.sum(np.sin(turn)),
                                                        np.sum(np.cos(turn))))
            placed[m] = ApertureState(m, **state)
            todo.remove(m)
            break
        else:
            return None
    return {m: placed[m] for m in graph.topology.agents}


# Gauss-Newton stops after GN_MAX_STEPS steps, or at a step that no damping
# in _GN_DAMPING makes lower the cost. Its fit has converged when its
# undamped step would move the whitened residuals by under GN_STEP_TOL
# stds, and its cost per degree of freedom is under `gn_cost_limit`: in the
# right mode the cost is chi-square, which exceeds the limit with
# probability GN_TAIL_PROB
GN_MAX_STEPS = 10
_GN_DAMPING = (0.0, 1.0, 1e2, 1e4)
GN_STEP_TOL = 1e-3
GN_TAIL_PROB = 1e-6


def gn_cost_limit(dof: int) -> float:
    """Chi-square's upper GN_TAIL_PROB quantile over `dof`, per degree of
    freedom, by Wilson-Hilferty (PNAS 1931): (X / dof)^(1/3) is nearly
    normal with mean 1 - v and variance v, v = 2 / (9 dof)."""
    lo, hi = 0.0, 40.0          # the normal quantile z, by bisection
    for _ in range(60):
        z = (lo + hi) / 2
        lo, hi = (z, hi) if erfc(z / sqrt(2)) / 2 > GN_TAIL_PROB else (lo, z)
    v = 2 / (9 * dof)
    return (1 - v + z * sqrt(v)) ** 3


@dataclass(frozen=True)
class GNFit:
    """A `gauss_newton` fit; `step` is its undamped step's whitened size."""

    states: dict
    step: float
    cost_per_dof: float
    cost_limit: float
    steps: int

    @property
    def converged(self) -> bool:
        return self.step < GN_STEP_TOL and self.cost_per_dof < self.cost_limit


def gauss_newton(graph: FactorGraph, states: dict) -> GNFit:
    """Damped Gauss-Newton (Levenberg-Marquardt; Moré 1978) on the whitened
    residuals of every pair observable, over all agents jointly, from
    `states` (aperture id -> ApertureState; anchors stay), solved on J's
    unit-norm columns. A fit that makes no progress keeps `states`."""
    space, agents, d = graph.space, graph.topology.agents, graph.space.dim
    r, jac = _linearize(graph, states)
    steps = 0
    while True:
        col = np.linalg.norm(jac, axis=0)
        col[col == 0] = 1.0
        dz = np.linalg.lstsq(jac / col, r, rcond=None)[0]
        step = float(np.linalg.norm(jac @ (dz / col)))
        if step < GN_STEP_TOL or steps == GN_MAX_STEPS:
            break
        x = np.concatenate([space.pack(states[m]) for m in agents])
        for damping in _GN_DAMPING:
            if damping:
                dz = np.linalg.lstsq(
                    np.vstack([jac / col, np.sqrt(damping) * np.eye(x.size)]),
                    np.append(r, np.zeros(x.size)), rcond=None)[0]
            # unpacking wraps the angles
            trial = {**states, **{m: space.unpack((x + dz / col)[
                i * d:(i + 1) * d], m) for i, m in enumerate(agents)}}
            r_try, jac_try = _linearize(graph, trial)
            if r_try @ r_try < r @ r:
                break
        else:
            break
        states, r, jac, steps = trial, r_try, jac_try, steps + 1
    dof = max(r.size - jac.shape[1], 1)
    return GNFit(states, step, float(r @ r) / dof, gn_cost_limit(dof), steps)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass
class SyncScenario:
    space: StateSpace
    topology: NetworkTopology
    true_states: dict
    # aperture id -> its prior, as `build_factor_graph` takes them
    priors: dict
    noise: MeasurementNoise
    config: BPConfig
    carrier_freq: float = 1e9


# scenario key -> (BPConfig field, parser of its value)
_BP_KEYS = {"bp-particles": ("particle_count", int),
            "bp-iterations": ("max_iterations", int),
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
        measure: all        | measure: <j> <jp>  (unique pairs; `all`
                                              stands alone)
        noise: <delay|aoa|phase> <std>        (at least one, one each)
        bp-particles/bp-iterations: <value>
        anneal-start/anneal-decay: <value>

    Only `aperture`, `measure` and `noise` may repeat. Position must be
    a component, an enabled observable must read each other one
    (time_offset needs delay, orientation aoa, and cpo phase), and every
    aperture must hold 0 in each undeclared one, which the model reads as
    0. There must be an anchor, measured pairs chaining every agent to one,
    and each agent's true state inside its prior: uniform over the scene
    box, every angle and +-1 us of time offset (an anchor's is a point mass
    at its state). Each defect is a ParseError at its line, an agent's at
    its `aperture:` line; a file with no anchor has no one line to blame.
    """
    space = StateSpace()
    carrier = 1e9
    box = (0.0, 100.0, 0.0, 100.0)
    # aperture id -> (its line, whether it is an anchor, its true state)
    apertures: dict[int, tuple] = {}
    # measured pair -> its line, in file order
    measures: dict[tuple[int, int], int] = {}
    measure_all = False
    noise_kw: dict[str, float] = {}
    bp_kw: dict = {}
    for lineno, key, rest in errors.key_value_lines(
            path, "sync-version: 1",
            ("components", "carrier-freq", "scene-box", "aperture",
             "measure", "noise", *_BP_KEYS),
            repeatable=("aperture", "measure", "noise")):
        try:
            if key == "components":
                space, components_at = StateSpace(rest.split()), lineno
                if "position" not in space.components:
                    raise ValueError("components must include position")
            elif key == "carrier-freq":
                carrier = errors.positive(rest)
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
                v = [float(x) for x in parts[2:]]
                apertures[j] = (lineno, parts[1] == "anchor",
                                ApertureState(j, np.array(v[:2]), *v[2:]))
            elif key == "measure":
                if measure_all or (rest == "all" and measures):
                    raise ValueError("'measure: all' lists every pair, so it "
                                     "must be the only measure line")
                if rest == "all":
                    measure_all = True
                else:
                    j, jp = (int(v) for v in rest.split())
                    if j == jp:
                        raise ValueError(f"aperture {j} cannot measure itself")
                    if (j, jp) in measures:
                        raise ValueError(f"pair {j} {jp} is measured twice")
                    measures[(j, jp)] = lineno
            elif key == "noise":
                kind, std = rest.split()
                if kind not in ("delay", "aoa", "phase"):
                    raise ValueError(f"unknown observable {kind}")
                repeated = f"{kind}_std" in noise_kw
                noise_kw[f"{kind}_std"] = float(std)
                MeasurementNoise(**noise_kw)            # check it at its line
                if repeated:
                    raise ValueError(f"a second noise line for {kind}")
            else:                                       # a _BP_KEYS key
                name, cast = _BP_KEYS[key]
                bp_kw[name] = cast(rest)
                BPConfig(**bp_kw)                       # check it at its line
        except (ValueError, TypeError) as exc:
            raise errors.ParseError(f"{path}:{lineno}: {exc}") from None
    if not apertures:
        raise errors.ParseError(f"{path}: no apertures declared")
    if not noise_kw:
        raise errors.ParseError(
            f"{path}: no 'noise:' line, so nothing is observed")
    for c in space.components:
        if c in _READ_BY and f"{_READ_BY[c]}_std" not in noise_kw:
            raise errors.ParseError(
                f"{path}:{components_at}: no observable reads component {c}; "
                f"it needs a 'noise: {_READ_BY[c]}' line")
    for j, (lineno, _, state) in apertures.items():
        for c in _READ_BY:
            if c not in space.components and getattr(state, c) != 0:
                raise errors.ParseError(
                    f"{path}:{lineno}: aperture {j} has {c} "
                    f"{getattr(state, c)!r}, but no {c} component is declared")
    for (j, jp), lineno in measures.items():
        if not {j, jp} <= apertures.keys():
            raise errors.ParseError(f"{path}:{lineno}: pair {j} {jp} names "
                                    f"an undeclared aperture")
    anchors = tuple(j for j, a in apertures.items() if a[1])
    if not anchors:
        raise errors.ParseError(f"{path}: no anchor fixes the agents' frame")
    if len(anchors) == len(apertures):
        raise errors.ParseError(
            f"{path}: every aperture is an anchor, so nothing is estimated")
    topo = (NetworkTopology.full_mesh(apertures, anchors) if measure_all
            else NetworkTopology(tuple(apertures), anchors, tuple(measures)))
    states = {j: a[2] for j, a in apertures.items()}
    support = {"position": ([box[0], box[2]], [box[1], box[3]]),
               "orientation": (-np.pi, np.pi), "cpo": (-np.pi, np.pi),
               "time_offset": (-1e-6, 1e-6)}
    lo, hi = np.empty(space.dim), np.empty(space.dim)
    for c in space.components:
        lo[space.slices[c]], hi[space.slices[c]] = support[c]
    agent_prior, unanchored = UniformPrior(lo, hi), topo.unanchored
    priors = {j: PointPrior(space.pack(states[j])) if j in anchors
              else agent_prior for j in topo.apertures}
    for j in topo.agents:
        x = space.pack(states[j])
        at = f"{path}:{apertures[j][0]}: agent {j}"
        if j in unanchored:
            raise errors.ParseError(f"{at} is in no measured pair chained to "
                                    f"an anchor, so nothing fixes it")
        if not np.isfinite(agent_prior.logpdf(x[None]))[0]:
            raise errors.ParseError(
                f"{at}'s true state {x.tolist()} lies outside its prior, "
                f"uniform from {lo.tolist()} to {hi.tolist()}")
    return SyncScenario(space, topo, states, priors,
                        MeasurementNoise(**noise_kw), BPConfig(**bp_kw),
                        carrier)


def run_sync_scenario(scenario: SyncScenario, seed: int):
    """Simulate measurements, start every agent at `_closed_form_start` or,
    when it cannot place one, at BP's MMSE estimates, fit from there by
    `gauss_newton`, and report the agents' errors, `to_rms_s` None if no
    clock is estimated. BP runs to the first iteration at anneal scale 1
    (or its cap; its convergence test cannot fire before it). One `seed`
    child draws the noise and the other BP's particles, if BP runs.
    Returns the `GNFit` (its states are the estimates), BP's own
    `BPResult`, or None when the closed form gave the start, and the
    `sync_error_report`."""
    noise_seed, bp_seed = np.random.SeedSequence(seed).spawn(2)
    measurements = simulate_measurements(scenario.topology,
                                         scenario.true_states, scenario.noise,
                                         noise_seed, scenario.carrier_freq)
    graph = build_factor_graph(scenario.topology, scenario.priors,
                               measurements, scenario.space,
                               scenario.carrier_freq)
    truth, agents = scenario.true_states, scenario.topology.agents
    anchors = {j: truth[j] for j in scenario.topology.anchors}
    bp, start = None, _closed_form_start(graph, anchors)
    if start is None:
        # no floor: on files without anneal keys, handing off after BP's
        # first iteration gave the same fits as after its second to twelfth
        cfg = scenario.config
        handoff = next((it + 1 for it in range(cfg.max_iterations)
                        if cfg.scale(it) == 1), cfg.max_iterations)
        bp = run_loopy_bp(graph, replace(cfg, seed=bp_seed,
                                         max_iterations=handoff))
        start = {j: estimate_mmse(bp[j], scenario.space, j) for j in agents}
    fit = gauss_newton(graph, {**anchors, **start})
    report = sync_error_report({j: fit.states[j] for j in agents},
                               {j: truth[j] for j in agents})
    if "time_offset" not in scenario.space.slices:
        report["to_rms_s"] = None               # no clock was estimated
    return fit, bp, report
