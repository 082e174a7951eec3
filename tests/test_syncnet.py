import numpy as np
import pytest

from isaclab import cli, errors, syncnet as sn
from isaclab.conventions import SPEED_OF_LIGHT as C


def test_wrap_angle():
    assert sn.wrap_angle(0.0) == 0.0
    assert sn.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert sn.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert sn.wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    arr = sn.wrap_angle(np.array([0.0, 2 * np.pi + 0.1]))
    assert arr[1] == pytest.approx(0.1)


def test_aperture_state_wraps_angles():
    s = sn.ApertureState(0, [0.0, 0.0], orientation=3 * np.pi,
                         cpo=-3 * np.pi / 2)
    assert s.orientation == pytest.approx(np.pi)
    assert s.cpo == pytest.approx(np.pi / 2)


def test_state_space_pack_unpack():
    space = sn.StateSpace(("position", "orientation", "time_offset"))
    assert space.dim == 4
    s = sn.ApertureState(3, [1.0, 2.0], orientation=0.5, time_offset=1e-7)
    v = space.pack(s)
    assert np.allclose(v, [1.0, 2.0, 0.5, 1e-7])
    back = space.unpack(v, 3)
    assert back.id == 3
    assert np.allclose(back.position, [1.0, 2.0])
    assert back.orientation == 0.5
    assert back.time_offset == 1e-7
    assert np.array_equal(space.circular_mask, [False, False, True, False])
    with pytest.raises(ValueError):
        sn.StateSpace(("position", "warp"))


def test_state_space_get_defaults_absent_components():
    space = sn.StateSpace(("position",))
    parts = np.ones((5, 2))
    assert np.allclose(space.get(parts, "time_offset"), 0.0)
    assert np.allclose(space.get(parts, "position"), 1.0)


def test_topology_and_full_mesh():
    top = sn.NetworkTopology.full_mesh((0, 1, 2), (0,))
    assert top.agents == (1, 2)
    assert len(top.measurement_mask) == 6      # ordered pairs
    with pytest.raises(errors.TopologyError):
        sn.NetworkTopology((0, 1), (2,))
    with pytest.raises(errors.TopologyError):
        sn.NetworkTopology((0, 1), (), measurement_mask=((0, 0),))
    with pytest.raises(errors.TopologyError):
        sn.NetworkTopology((0, 1), (), measurement_mask=((0, 1), (0, 1)))


def test_measurement_noise_validation():
    with pytest.raises(ValueError):
        sn.MeasurementNoise(delay_std=0.0)
    n = sn.MeasurementNoise(delay_std=1e-9, aoa_std=0.01)
    assert n.phase_std is None


def test_observables_closed_form():
    space = sn.StateSpace(("position", "orientation", "time_offset", "cpo"))
    # packed (x, y, orientation, time offset, cpo); the receiver's
    # orientation turns the bearing, the transmitter's does not
    x_tx = np.array([3.0, 4.0, 0.7, 2e-9, 0.2])
    x_rx = np.array([0.0, 0.0, 0.1, 5e-9, 0.4])
    fc = 1e9
    delay, aoa, phase = sn._observables(("delay", "aoa", "phase"), x_tx, x_rx,
                                        space, fc)
    assert delay[0] == pytest.approx(5.0 / C + 3e-9)
    assert aoa[0] == pytest.approx(np.arctan2(4.0, 3.0) - 0.1)
    assert phase[0] == pytest.approx(sn.wrap_angle(2 * np.pi * fc * 5.0 / C
                                                   + 0.2))
    # only the named observables, in the order delay, AoA, phase
    d2, p2 = sn._observables(("phase", "delay"), x_tx, x_rx, space, fc)
    assert d2[0] == delay[0] and p2[0] == phase[0]


def test_simulate_measurements_deterministic_and_selective():
    top = sn.NetworkTopology.full_mesh((0, 1), (0,))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [10.0, 0.0])}
    noise = sn.MeasurementNoise(delay_std=1e-9, aoa_std=0.01)
    m1 = sn.simulate_measurements(top, truth, noise, seed=5)
    m2 = sn.simulate_measurements(top, truth, noise, seed=5)
    assert len(m1) == 2
    assert m1[0].delay == m2[0].delay
    assert m1[0].phase is None          # disabled observable
    assert m1[0].aoa is not None
    with pytest.raises(errors.TopologyError):
        sn.simulate_measurements(top, {0: truth[0]}, noise, seed=0)


def test_factor_graph_counts_and_cycles():
    space = sn.StateSpace(("position",))
    noise = sn.MeasurementNoise(delay_std=1e-9)
    for j_count in (2, 3, 5):
        ids = tuple(range(j_count))
        top = sn.NetworkTopology.full_mesh(ids, (0,))
        truth = {j: sn.ApertureState(j, [float(j), 0.0]) for j in ids}
        meas = sn.simulate_measurements(top, truth, noise, seed=1)
        priors = {j: sn.PointPrior(space.pack(truth[j])) if j == 0
                  else sn.UniformPrior([-10, -10], [10, 10]) for j in ids}
        g = sn.build_factor_graph(top, priors, meas, space)
        assert g.n_factors == j_count * (j_count - 1) + j_count
        assert g.has_cycles() == (j_count > 2)


def _graph_with_pairs(apertures, pairs):
    noise = sn.MeasurementNoise(delay_std=1e-9)
    top = sn.NetworkTopology(apertures, (), measurement_mask=pairs)
    meas = [sn.PairMeasurement(p, 1e-8, None, None, noise) for p in pairs]
    priors = {j: sn.UniformPrior([0.0, 0.0], [1.0, 1.0]) for j in apertures}
    return sn.build_factor_graph(top, priors, meas, sn.StateSpace())


@pytest.mark.parametrize("apertures, pairs, cyclic", [
    # a path 0-1-2 and a triangle 3-4-5
    (range(6), ((0, 1), (2, 1), (3, 4), (4, 5), (5, 3)), True),
    ((0, 1, 2, 3), ((0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)), False),
    ((0, 1, 2, 3), ((0, 1), (2, 1), (2, 3)), False),
    ((0, 1, 2), ((0, 1), (1, 2), (2, 0)), True),
], ids=["cycle-in-second-component", "star-both-ways", "path",
        "one-way-triangle"])
def test_has_cycles_graph_shapes(apertures, pairs, cyclic):
    assert _graph_with_pairs(tuple(apertures), pairs).has_cycles() is cyclic


@pytest.mark.parametrize("shape", [(1500, 2), (3, 400, 2)])
def test_pair_length_is_linalg_norm_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    # offsets across scales, with exact zeros and one axis-aligned row
    diff = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
    diff[..., 0, :] = 0.0
    diff[..., 1, 1] = 0.0
    assert np.array_equal(sn._length(diff), np.linalg.norm(diff, axis=-1))


def test_build_factor_graph_rejects_an_agent_in_no_measured_pair():
    space = sn.StateSpace(("position",))
    noise = sn.MeasurementNoise(delay_std=1e-9)
    top = sn.NetworkTopology((0, 1, 2), (0, 1),
                             measurement_mask=((0, 1), (1, 0)))
    assert top.unanchored == (2,)
    truth = {j: sn.ApertureState(j, [10.0 * j, 0.0]) for j in range(3)}
    meas = sn.simulate_measurements(top, truth, noise, seed=0)
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.PointPrior(space.pack(truth[1])),
              2: sn.UniformPrior([0.0, 0.0], [50.0, 50.0])}
    with pytest.raises(errors.TopologyError, match=r"agents \[2\] are in no"):
        sn.build_factor_graph(top, priors, meas, space)


def test_build_factor_graph_rejects_an_island_of_agents():
    # agents 2 and 3 measure each other but no anchor: their pair fixes
    # their distance, not where they are
    space = sn.StateSpace(("position",))
    noise = sn.MeasurementNoise(delay_std=1e-9)
    top = sn.NetworkTopology((0, 1, 2, 3), (0, 1), measurement_mask=(
        (0, 1), (1, 0), (2, 3), (3, 2)))
    assert top.unanchored == (2, 3)
    truth = {j: sn.ApertureState(j, [10.0 * j, 5.0]) for j in range(4)}
    meas = sn.simulate_measurements(top, truth, noise, seed=0)
    priors = {j: sn.PointPrior(space.pack(truth[j])) for j in (0, 1)}
    priors.update({j: sn.UniformPrior([0.0, 0.0], [50.0, 50.0])
                   for j in (2, 3)})
    with pytest.raises(errors.TopologyError,
                       match=r"agents \[2, 3\] are in no measured pair "
                             r"chained to an anchor"):
        sn.build_factor_graph(top, priors, meas, space)


def test_full_mesh_mask_is_the_nested_loop_order():
    ids = (5, 0, 3, 0, 9)
    top = sn.NetworkTopology.full_mesh(ids, (3,))
    aps = sorted(set(ids))
    assert top.measurement_mask == tuple(
        (j, jp) for j in aps for jp in aps if j != jp)
    assert top.unanchored == ()


def test_build_factor_graph_validation():
    space = sn.StateSpace(("position",))
    noise = sn.MeasurementNoise(delay_std=1e-9)
    top = sn.NetworkTopology.full_mesh((0, 1), (0,))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [5.0, 0.0])}
    meas = sn.simulate_measurements(top, truth, noise, seed=2)
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.UniformPrior([-10, -10], [10, 10])}
    # missing prior
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top, {0: priors[0]}, meas, space)
    # a prior for an aperture the topology lacks
    with pytest.raises(errors.TopologyError, match="priors for apertures"):
        sn.build_factor_graph(top, {**priors, 7: priors[1]}, meas, space)
    # anchor without point prior
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top, {0: priors[1], 1: priors[1]}, meas, space)
    # the graph holds the priors it was given
    assert sn.build_factor_graph(top, priors, meas, space).priors == priors
    # unmasked pair
    bad = sn.PairMeasurement((1, 0), 1e-8, None, None, noise)
    top_partial = sn.NetworkTopology((0, 1), (0,),
                                     measurement_mask=((0, 1),))
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top_partial, priors, [meas[0], bad], space)
    # masked pair without measurement
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top, priors, [meas[0]], space)
    # duplicate measurement
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top, priors, [meas[0], meas[0]], space)


def test_pair_log_likelihood_scalar_oracle():
    space = sn.StateSpace(("position",))
    noise = sn.MeasurementNoise(delay_std=2e-9, aoa_std=0.05)
    z = sn.PairMeasurement((0, 1), 4e-8, 0.3, None, noise)
    x_tx = np.array([[0.0, 0.0]])
    x_rx = np.array([[6.0, 8.0]])
    lw = sn.pair_log_likelihood(z, x_tx, x_rx, space, 1e9)
    # the transmitter sits 10 m from the receiver, at bearing
    # arctan2(-8, -6) in its frame; 0.3 minus that needs no wrapping
    expect = (-0.5 * ((4e-8 - 10.0 / C) / 2e-9) ** 2
              - 0.5 * ((0.3 - np.arctan2(-8.0, -6.0)) / 0.05) ** 2)
    assert lw[0] == pytest.approx(expect, rel=1e-12)
    # tempering widens the likelihood
    lw2 = sn.pair_log_likelihood(z, x_tx, x_rx, space, 1e9, noise_scale=10.0)
    assert lw2[0] == pytest.approx(expect / 100.0, rel=1e-12)


def test_bp_config_validation():
    with pytest.raises(ValueError):
        sn.BPConfig(particle_count=10)
    with pytest.raises(ValueError):
        sn.BPConfig(max_iterations=0)


def _two_node_graph(delay_std=5e-10, seed=3):
    space = sn.StateSpace(("position",))
    top = sn.NetworkTopology.full_mesh((0, 1), (0,))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [12.0, 9.0])}
    noise = sn.MeasurementNoise(delay_std=delay_std, aoa_std=0.02)
    meas = sn.simulate_measurements(top, truth, noise, seed=seed)
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.GaussianPrior(np.array([10.0, 10.0]), np.array([5.0, 5.0]))}
    g = sn.build_factor_graph(top, priors, meas, space)
    return g, truth, space


def test_bp_two_node_matches_exact_posterior_mean():
    g, truth, space = _two_node_graph()
    beliefs = sn.run_loopy_bp(g, sn.BPConfig(particle_count=2000, seed=1,
                                             anneal_start=100.0))
    est = sn.estimate_mmse(beliefs[1], space, 1)
    # oracle: posterior mean by dense-grid quadrature
    n = 400
    gx = np.linspace(8.0, 16.0, n)
    gy = np.linspace(5.0, 13.0, n)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    logp = g.priors[1].logpdf(pts)
    for f in g.pair_factors:
        j, _ = f.pair
        if j == 0:
            logp += sn.pair_log_likelihood(f.measurement,
                                           space.pack(truth[0]), pts,
                                           space, g.carrier_freq)
        else:
            logp += sn.pair_log_likelihood(f.measurement, pts,
                                           space.pack(truth[0]),
                                           space, g.carrier_freq)
    w = np.exp(logp - logp.max())
    w /= w.sum()
    exact_mean = pts.T @ w
    assert np.linalg.norm(est.position - exact_mean) < 0.05
    # and both sit within the measurement-noise scale of the truth
    assert np.linalg.norm(est.position - truth[1].position) < 1.0


def test_bp_proposal_is_the_parents_weight(monkeypatch):
    # with no jitter a resampled particle is its parent, so on a static
    # target (one agent, anchor messages only, no annealing) its next
    # weight, target over proposal, is its parent's over its parent's: 1
    monkeypatch.setattr(sn, "_silverman_bandwidth",
                        lambda x, w, circular_mask: np.zeros(x.shape[1]))
    g, _, _ = _two_node_graph()
    first = sn.run_loopy_bp(g, sn.BPConfig(particle_count=500, seed=1,
                                           max_iterations=1))
    # the first iteration resampled: its particles repeat their parents
    assert np.unique(first[1].particles[:, 0]).size < 500
    result = sn.run_loopy_bp(g, sn.BPConfig(particle_count=500, seed=1,
                                            max_iterations=5))
    assert result.converged and result.iterations == 2
    np.testing.assert_array_equal(result[1].particles, first[1].particles)
    np.testing.assert_allclose(result[1].weights, 1 / 500, rtol=1e-9)


def test_silverman_bandwidth_matches_the_per_dim_loop():
    # the loop it replaced: a linear dim's weighted std, an angle's circular
    # std sqrt(-2 log R), floored at 1e-12, times n^(-1/(d+4))
    rng = np.random.default_rng(23)
    n = 600
    x = np.column_stack([50.0 + rng.standard_normal((n, 2)),
                         sn.wrap_angle(np.pi + 0.3 * rng.standard_normal(n)),
                         1e-9 * rng.standard_normal(n), np.zeros(n)])
    w = rng.random(n) ** 4
    w /= w.sum()
    cm = np.array([False, False, True, False, True])
    expect = []
    for k in range(5):
        if cm[k]:
            r = np.hypot(np.sum(w * np.cos(x[:, k])),
                         np.sum(w * np.sin(x[:, k])))
            s = np.sqrt(-2.0 * np.log(max(min(r, 1 - 1e-15), 1e-15)))
        else:
            s = np.sqrt(np.sum(w * (x[:, k] - np.sum(w * x[:, k])) ** 2))
        expect.append(max(s, 1e-12) * n ** (-1.0 / 9))
    np.testing.assert_allclose(sn._silverman_bandwidth(x, w, cm), expect,
                               rtol=1e-9)


def _mesh_graph():
    """Criterion 8b's mesh: four corner anchors and one agent, noiseless
    two-way delays at mm scale."""
    space = sn.StateSpace(("position",))
    ids, anchors = (0, 1, 2, 3, 4), (0, 1, 2, 3)
    top = sn.NetworkTopology.full_mesh(ids, anchors)
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [100.0, 0.0]),
             2: sn.ApertureState(2, [0.0, 100.0]),
             3: sn.ApertureState(3, [100.0, 100.0]),
             4: sn.ApertureState(4, [37.0, 61.0])}
    meas = sn.simulate_measurements(top, truth,
                                    sn.MeasurementNoise(delay_std=1e-13),
                                    seed=7)
    priors = {j: (sn.PointPrior(space.pack(truth[j])) if j in anchors
                  else sn.UniformPrior([0.0, 0.0], [100.0, 100.0]))
              for j in ids}
    return sn.build_factor_graph(top, priors, meas, space)


@pytest.mark.parametrize("start, decay, it, scale", [
    (1.0, 0.5, 0, 1.0),                     # no tempering
    (0.5, 0.5, 0, 1.0),                     # never below 1
    (1e6, 0.4, 0, 1e6),
    (1e6, 0.4, 15, 1e6 * 0.4 ** 15),        # 1.07 at BP's 16th iteration
    (1e6, 0.4, 16, 1.0),                    # 0.43, floored: the 17th, where
                                            # run_sync_scenario hands off
])
def test_bp_config_scale(start, decay, it, scale):
    assert sn.BPConfig(anneal_start=start, anneal_decay=decay).scale(it) \
        == scale


@pytest.mark.parametrize("cap,converged", [(50, True), (2, False)])
def test_bp_result_says_whether_it_converged(cap, converged):
    cfg = sn.BPConfig(particle_count=1500, max_iterations=cap, seed=0,
                      anneal_start=1e6, anneal_decay=0.4)
    result = sn.run_loopy_bp(_mesh_graph(), cfg)
    assert result.converged is converged
    assert (result.iterations < cap) is converged
    assert sorted(result) == [0, 1, 2, 3, 4]
    # the values keep their per-belief iteration; anchors never update
    assert max(b.iteration for b in result.values()) == result.iterations
    assert result[0].iteration == 0


def test_belief_mean_is_circular_on_a_belief_straddling_pi():
    # half the angles sit just below pi and half just above -pi, where
    # their arithmetic mean would read 0
    x = np.array([[1.0, 2.0, 3.1], [3.0, 4.0, -3.1],
                  [5.0, 6.0, 3.12], [7.0, 8.0, -3.12]])
    w = np.full(4, 0.25)
    space = sn.StateSpace(("position", "orientation"))
    mean = sn._belief_mean(x, w, space.circular_mask)
    assert mean[:2].tolist() == [4.0, 5.0]
    assert abs(sn.wrap_angle(mean[2] - np.pi)) < 1e-12
    # estimate_mmse reports that same mean
    est = sn.estimate_mmse(sn.Belief(x, w), space)
    assert est.position.tolist() == [4.0, 5.0]
    assert est.orientation == sn.wrap_angle(mean[2])


def test_bp_convergence_wraps_the_belief_mean_step(monkeypatch):
    # BP tests convergence on the mean estimate_mmse reports; one whose
    # angle steps across +-pi by 2e-6 rad each iteration has settled
    calls = []

    def stepping_mean(x, w, circular_mask):
        calls.append(circular_mask.tolist())
        return np.array([37.0, 61.0, (np.pi - 1e-6) * (-1) ** len(calls)])

    monkeypatch.setattr(sn, "_belief_mean", stepping_mean)
    space = sn.StateSpace(("position", "orientation"))
    truth = {j: sn.ApertureState(j, xy) for j, xy in enumerate(
        ([0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]))}
    truth[4] = sn.ApertureState(4, [37.0, 61.0], orientation=np.pi - 1e-3)
    top = sn.NetworkTopology.full_mesh(tuple(truth), (0, 1, 2, 3))
    meas = sn.simulate_measurements(
        top, truth, sn.MeasurementNoise(delay_std=1e-9, aoa_std=0.02), seed=0)
    priors = {j: sn.PointPrior(space.pack(truth[j])) for j in range(4)}
    priors[4] = sn.UniformPrior([0, 0, -np.pi], [100, 100, np.pi])
    result = sn.run_loopy_bp(
        sn.build_factor_graph(top, priors, meas, space),
        sn.BPConfig(particle_count=100, max_iterations=5, anneal_start=1.0))
    assert result.converged and result.iterations == 2
    assert calls == [[False, False, True]] * 2


class _StubRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_systematic_resample_stays_in_range():
    rng = np.random.default_rng(3)
    n = 1500
    # normalised weights whose cumulative sum ends a few ulps below 1
    while True:
        w = rng.random(n)
        w /= w.sum()
        if np.cumsum(w)[-1] < 1.0:
            break
    idx = sn._systematic_resample(w, _StubRng(np.nextafter(1.0, 0.0)))
    assert idx.max() == n - 1
    # any other draw keeps the indices of the unpinned cumulative sum
    for u in (0.0, 0.37, 0.999):
        positions = (u + np.arange(n)) / n
        np.testing.assert_array_equal(
            sn._systematic_resample(w, _StubRng(u)),
            np.searchsorted(np.cumsum(w), positions))


def test_bp_degeneracy_error():
    # a measurement no particle can explain overflows every log-weight to
    # -inf; the solver must report the underflow instead of dividing by zero
    space = sn.StateSpace(("position",))
    top = sn.NetworkTopology((0, 1), (0,), measurement_mask=((0, 1),))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [10.0, 0.0])}
    noise = sn.MeasurementNoise(delay_std=1e-13)
    absurd = sn.PairMeasurement((0, 1), 1e200, None, None, noise)
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.UniformPrior([0.0, 0.0], [20.0, 20.0])}
    g = sn.build_factor_graph(top, priors, [absurd], space)
    with pytest.raises(errors.DegeneracyError):
        sn.run_loopy_bp(g, sn.BPConfig(particle_count=200, seed=0))


def test_sync_error_report():
    est = {1: sn.ApertureState(1, [3.0, 4.0], time_offset=2e-9)}
    truth = {1: sn.ApertureState(1, [0.0, 0.0], time_offset=0.0)}
    rep = sn.sync_error_report(est, truth)
    # the fields of a sync record, as it stores them
    assert rep == {"agent_position_error": [[1, pytest.approx(5.0)]],
                   "position_rms_m": pytest.approx(5.0),
                   "to_rms_s": pytest.approx(2e-9)}
    with pytest.raises(errors.IdMismatch):
        sn.sync_error_report(est, {2: truth[1]})


def test_measurement_jacobian_rank_detects_common_clock_shift():
    # delay-only anchor-free network: the common time offset is unobservable
    space = sn.StateSpace(("time_offset",))
    top = sn.NetworkTopology.full_mesh((0, 1, 2), ())
    truth = {j: sn.ApertureState(j, [float(j), 0.0], time_offset=j * 1e-9)
             for j in (0, 1, 2)}
    noise = sn.MeasurementNoise(delay_std=1e-9)
    meas = sn.simulate_measurements(top, truth, noise, seed=1)
    priors = {j: sn.UniformPrior([-1e-6], [1e-6]) for j in (0, 1, 2)}
    g = sn.build_factor_graph(top, priors, meas, space)
    diag = sn.measurement_jacobian_rank(g, truth)
    assert diag["dim"] == 3
    assert diag["rank"] == 2          # one flat direction: the common shift


def _analytic_jacobian(g, truth):
    """The whitened observable Jacobian w.r.t. the agents' packed states,
    from the closed-form derivatives of delay, AoA and phase."""
    space, agents = g.space, g.topology.agents
    fc = g.carrier_freq
    rows = []
    for f in g.pair_factors:
        j, jp = f.pair
        meas, noise = f.measurement, f.measurement.noise
        diff = truth[j].position - truth[jp].position
        dist = np.linalg.norm(diff)
        u = diff / dist
        perp = np.array([-diff[1], diff[0]]) / dist ** 2
        # observable -> (std, {(aperture, component): derivative})
        derivs = {
            "delay": (noise.delay_std, {
                (j, "position"): u / C, (jp, "position"): -u / C,
                (j, "time_offset"): -1.0, (jp, "time_offset"): 1.0}),
            "aoa": (noise.aoa_std, {
                (j, "position"): perp, (jp, "position"): -perp,
                (jp, "orientation"): -1.0}),
            "phase": (noise.phase_std, {
                (j, "position"): 2 * np.pi * fc / C * u,
                (jp, "position"): -2 * np.pi * fc / C * u,
                (j, "cpo"): -1.0, (jp, "cpo"): 1.0}),
        }
        for name, (std, grad) in derivs.items():
            if getattr(meas, name) is None:
                continue
            row = np.zeros(len(agents) * space.dim)
            for (node, comp), d in grad.items():
                if node in agents and comp in space.slices:
                    sl = space.slices[comp]
                    off = agents.index(node) * space.dim
                    row[off + sl.start:off + sl.stop] = np.asarray(d) / std
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("pairs", [((0, 2),), "all"], ids=["one-pair", "mesh"])
def test_measurement_jacobian_wraps_angle_differences(pairs):
    # the agent's phase to anchor 0 lies 1e-5 rad below pi, well within
    # one step of the wrap; its Jacobian row is the closed form, not a
    # 2 pi jump over two steps
    fc, std = 1e9, 0.1
    lam = C / fc
    x = 100.5 * lam - 1e-5 * lam / (2 * np.pi)
    space = sn.StateSpace(("position",))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [0.0, 50.0]),
             2: sn.ApertureState(2, [x, 0.0])}
    top = sn.NetworkTopology.full_mesh((0, 1, 2), (0, 1))
    if pairs != "all":
        top = sn.NetworkTopology((0, 1, 2), (0, 1), measurement_mask=pairs)
    noise = sn.MeasurementNoise(phase_std=std)
    meas = sn.simulate_measurements(top, truth, noise, seed=0, carrier_freq=fc)
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.PointPrior(space.pack(truth[1])),
              2: sn.UniformPrior([0.0, -50.0], [100.0, 50.0])}
    g = sn.build_factor_graph(top, priors, meas, space, fc)
    sv = sn.measurement_jacobian_rank(g, truth)["singular_values"]
    expect = np.linalg.svd(_analytic_jacobian(g, truth), compute_uv=False)
    np.testing.assert_allclose(sv, expect, rtol=1e-6)
    if pairs != "all":
        np.testing.assert_allclose(sv, [2 * np.pi * fc / (C * std)],
                                   rtol=1e-6)


# agent 5's orientation; the second puts anchor 0's bearing in its frame
# 1e-7 rad below pi, within one step of the wrap
@pytest.mark.parametrize(
    "orient", [-2.4, np.arctan2(-30.0, -70.0) + np.pi + 1e-7],
    ids=["aoa-inside", "aoa-at-wrap"])
def test_measurement_jacobian_all_components_matches_analytic(orient):
    space = sn.StateSpace(("position", "orientation", "time_offset", "cpo"))
    anchors = (0, 1, 2, 3)
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [100.0, 0.0]),
             2: sn.ApertureState(2, [0.0, 100.0]),
             3: sn.ApertureState(3, [100.0, 100.0]),
             4: sn.ApertureState(4, [37.0, 61.0], orientation=0.7,
                                 time_offset=2e-7, cpo=1.1),
             5: sn.ApertureState(5, [70.0, 30.0], orientation=orient,
                                 time_offset=-2e-7, cpo=-0.6)}
    top = sn.NetworkTopology.full_mesh(tuple(truth), anchors)
    noise = sn.MeasurementNoise(delay_std=1e-10, aoa_std=0.02, phase_std=0.05)
    meas = sn.simulate_measurements(top, truth, noise, seed=0)
    priors = {j: sn.PointPrior(space.pack(truth[j])) for j in anchors}
    for j in (4, 5):
        priors[j] = sn.UniformPrior([0, 0, -np.pi, -1e-6, -np.pi],
                                    [100, 100, np.pi, 1e-6, np.pi])
    g = sn.build_factor_graph(top, priors, meas, space)
    diag = sn.measurement_jacobian_rank(g, truth)
    expect = np.linalg.svd(_analytic_jacobian(g, truth), compute_uv=False)
    assert diag["dim"] == 10 and diag["rank"] == 10
    np.testing.assert_allclose(diag["singular_values"], expect, rtol=1e-6)


def _all_component_mesh(delay_std, aoa_std):
    """4 corner anchors and 2 agents with every state component, delay,
    AoA and phase measured on the full mesh: its graph and truth."""
    space = sn.StateSpace(("position", "orientation", "time_offset", "cpo"))
    anchors = (0, 1, 2, 3)
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [100.0, 0.0]),
             2: sn.ApertureState(2, [0.0, 100.0]),
             3: sn.ApertureState(3, [100.0, 100.0]),
             4: sn.ApertureState(4, [37.0, 61.0], orientation=0.4,
                                 time_offset=2e-7, cpo=0.3),
             5: sn.ApertureState(5, [70.0, 30.0], orientation=-1.1,
                                 time_offset=-2e-7, cpo=-0.7)}
    top = sn.NetworkTopology.full_mesh(tuple(truth), anchors)
    noise = sn.MeasurementNoise(delay_std=delay_std, aoa_std=aoa_std,
                                phase_std=0.05)
    meas = sn.simulate_measurements(top, truth, noise, seed=0)
    priors = {j: sn.PointPrior(space.pack(truth[j])) for j in anchors}
    for j in (4, 5):
        priors[j] = sn.UniformPrior([0, 0, -np.pi, -1e-6, -np.pi],
                                    [100, 100, np.pi, 1e-6, np.pi])
    return sn.build_factor_graph(top, priors, meas, space), truth


# the time-offset columns scale as 1 / delay_std and the others do not, so
# a rank counted across units read 8 and 6 of 10 in the last two cases
@pytest.mark.parametrize("delay_std, aoa_std", [
    (1e-10, 0.02), (1e-10, 1.0), (1e-12, 0.02)],
    ids=["reference", "wide-aoa", "tight-delay"])
def test_measurement_jacobian_rank_does_not_depend_on_units(delay_std,
                                                            aoa_std):
    g, truth = _all_component_mesh(delay_std, aoa_std)
    diag = sn.measurement_jacobian_rank(g, truth)
    assert diag["dim"] == 10 and diag["rank"] == 10
    # the singular values are the unscaled Jacobian's; at a condition
    # number of 6e10 the central differences hold the smallest to 1e-6
    expect = np.linalg.svd(_analytic_jacobian(g, truth), compute_uv=False)
    np.testing.assert_allclose(diag["singular_values"], expect, rtol=1e-5)


def test_measurement_jacobian_rank_keeps_a_flat_rotation():
    # delay only, one anchor: rotating every agent about the anchor keeps
    # every range, so one direction of the 9 stays unobservable
    space = sn.StateSpace(("position", "time_offset"))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [40.0, 10.0], time_offset=1e-8),
             2: sn.ApertureState(2, [15.0, 60.0], time_offset=-2e-8),
             3: sn.ApertureState(3, [70.0, 55.0], time_offset=3e-8)}
    top = sn.NetworkTopology.full_mesh((0, 1, 2, 3), (0,))
    meas = sn.simulate_measurements(top, truth,
                                    sn.MeasurementNoise(delay_std=1e-10),
                                    seed=0)
    priors = {0: sn.PointPrior(space.pack(truth[0]))}
    for j in (1, 2, 3):
        priors[j] = sn.UniformPrior([0, 0, -1e-6], [100, 100, 1e-6])
    g = sn.build_factor_graph(top, priors, meas, space)
    diag = sn.measurement_jacobian_rank(g, truth)
    assert diag["dim"] == 9 and diag["rank"] == 8


def test_sync_scenario_file(tmp_path):
    text = """sync-version: 1
components: position
carrier-freq: 2.4e9
scene-box: 0 50 0 50
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 agent 20 30 0 0 0
measure: all
noise: delay 1e-9
bp-particles: 500
bp-iterations: 30
anneal-start: 1e4
"""
    p = tmp_path / "net.txt"
    p.write_text(text)
    scn = sn.load_sync_scenario(p)
    assert scn.topology.anchors == (0, 1)
    assert scn.topology.agents == (2,)
    assert scn.carrier_freq == 2.4e9
    assert scn.config.particle_count == 500
    assert scn.config.anneal_start == 1e4
    assert scn.noise.delay_std == 1e-9
    # parse errors carry path and line number
    p.write_text("components: position\n")
    with pytest.raises(errors.ParseError, match="sync-version"):
        sn.load_sync_scenario(p)
    p.write_text("sync-version: 1\naperture: 0 unknown 0 0 0 0 0\n")
    with pytest.raises(errors.ParseError, match=":2"):
        sn.load_sync_scenario(p)
    p.write_text("sync-version: 1\naperture: 0 anchor 0 0 0 0 0\n"
                 "noise: delay 1e-9\n")
    with pytest.raises(errors.ParseError, match="every aperture is an anchor"):
        sn.load_sync_scenario(p)


def test_run_sync_scenario_end_to_end(tmp_path):
    text = """sync-version: 1
components: position
scene-box: 0 100 0 100
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 100 0 0 0 0
aperture: 2 anchor 0 100 0 0 0
aperture: 3 agent 40 55 0 0 0
measure: all
noise: delay 3e-10
bp-particles: 1000
bp-iterations: 40
anneal-start: 1e4
anneal-decay: 0.4
"""
    p = tmp_path / "net.txt"
    p.write_text(text)
    scn = sn.load_sync_scenario(p)
    fit, _, report = sn.run_sync_scenario(scn, seed=4)
    [[agent, err]] = report["agent_position_error"]
    assert agent == 3 and err < 1.0
    assert set(fit.states) == {0, 1, 2, 3}


# three nearly collinear anchors, so each agent's reflection across their
# line fits the delays almost as well as its true position
_MIRROR = """sync-version: 1
components: position
scene-box: 0 100 0 100
aperture: 0 anchor 0 40 0 0 0
aperture: 1 anchor 100 40 0 0 0
aperture: 2 anchor 50 42 0 0 0
aperture: 4 agent 37 61 0 0 0
aperture: 5 agent 70 30 0 0 0
measure: all
noise: delay 1e-11
bp-particles: 1500
anneal-start: 1e6
anneal-decay: 0.4
"""


@pytest.mark.parametrize("seed, cap, wrong", [(0, 8, False), (7, 8, True),
                                              (7, 20, False)])
def test_a_fit_in_the_wrong_mode_fails_the_cost_check(tmp_path, seed, cap,
                                                      wrong):
    # a cap of 8 hands off at anneal scale 1.6e3, where BP's mean can lie
    # in the mirror basin: GN converges there, and only its cost tells. The
    # default handoff, at the first iteration at scale 1 (17), does not
    (tmp_path / "m.sync").write_text(_MIRROR + f"bp-iterations: {cap}\n")
    scn = sn.load_sync_scenario(tmp_path / "m.sync")
    fit, bp, report = sn.run_sync_scenario(scn, seed)
    assert bp.iterations == min(cap, 17)
    assert fit.step < sn.GN_STEP_TOL
    worst = max(err for _, err in report["agent_position_error"])
    if wrong:
        assert worst > 10.0
        assert fit.cost_per_dof > fit.cost_limit
    else:
        assert worst < 0.01 and fit.cost_per_dof < 3.0
    assert fit.converged is not wrong


def test_a_fit_no_damping_improves_keeps_its_start(monkeypatch):
    # a Jacobian of the wrong sign points every damped step uphill: the
    # fit tries each damping once, takes no step and keeps its start
    graph = _mesh_graph()
    start = {j: sn.ApertureState(j, graph.priors[j].vec) for j in range(4)}
    start[4] = sn.ApertureState(4, [38.0, 60.0])
    assert sn.gauss_newton(graph, start).steps >= 1
    calls = []
    real = sn._linearize

    def uphill(graph, states):
        calls.append(states)
        r, jac = real(graph, states)
        return r, -jac

    monkeypatch.setattr(sn, "_linearize", uphill)
    fit = sn.gauss_newton(graph, start)
    assert fit.steps == 0 and fit.states is start
    assert len(calls) == 1 + len(sn._GN_DAMPING)
    assert fit.step >= sn.GN_STEP_TOL and not fit.converged


@pytest.mark.parametrize("dof, exact", [
    (1, 23.928126976934827), (2, 13.815510557964274),
    (5, 7.177637375934573), (26, 2.905669436627101),
    (52, 2.22189931070091), (1000, 1.2271524211875755)])
def test_gn_cost_limit_is_the_chi_square_quantile(dof, exact):
    # exact: scipy.stats.chi2.isf(1e-6, dof) / dof. Wilson-Hilferty is high
    # at few dof, so it errs towards passing a fit, and within 1 % from the
    # demos' 26 dof up
    assert sn.GN_TAIL_PROB == 1e-6
    assert sn.gn_cost_limit(dof) >= exact
    if dof >= 26:
        assert sn.gn_cost_limit(dof) == pytest.approx(exact, rel=0.01)


# the spatio-temporal demo's network with carrier phase and no angles: the
# phase likelihood has a mode every half wavelength (15 cm at 1 GHz) of
# range, and BP's particles hand Gauss-Newton whichever one they found
_CARRIER = """sync-version: 1
components: position time_offset cpo
scene-box: 0 100 0 100
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 100 0 0 0 0
aperture: 2 anchor 0 100 0 0 0
aperture: 3 anchor 100 100 0 0 0
aperture: 4 agent 37 61 0 1.5e-7 1.0
aperture: 5 agent 70 30 0 -2e-7 -2.0
measure: all
noise: delay 1e-10
noise: phase 0.05
bp-particles: 1500
bp-iterations: 40
anneal-start: 1e6
anneal-decay: 0.4
"""


@pytest.mark.parametrize("seed, wrong", [(1, False), (4, True)])
def test_a_fit_a_carrier_cycle_off_fails_the_cost_check(tmp_path, seed,
                                                         wrong):
    (tmp_path / "cp.sync").write_text(_CARRIER)
    scn = sn.load_sync_scenario(tmp_path / "cp.sync")
    fit, _, report = sn.run_sync_scenario(scn, seed)
    assert fit.step < sn.GN_STEP_TOL
    worst = max(err for _, err in report["agent_position_error"])
    if wrong:
        # the wrapped phase residual is bounded, so the wrong cycle costs
        # less than a fixed limit of 100 and more than the chi-square one
        assert worst > 0.1
        assert fit.cost_limit < fit.cost_per_dof < 100.0
    else:
        assert worst < 0.01
    assert fit.converged is not wrong


def test_run_sync_scenario_returns_bps_result_untouched(tmp_path,
                                                        monkeypatch):
    # cut at 8 iterations, BP fails its own check while the fit passes its;
    # each verdict stays with its own result
    returned = []

    def spy(graph, config, run=sn.run_loopy_bp):
        result = run(graph, config)
        returned.append((result, dict(vars(result)), dict(result)))
        return result

    monkeypatch.setattr(sn, "run_loopy_bp", spy)
    (tmp_path / "m.sync").write_text(_MIRROR + "bp-iterations: 8\n")
    fit, bp, _ = sn.run_sync_scenario(
        sn.load_sync_scenario(tmp_path / "m.sync"), 0)
    [(result, attributes, beliefs)] = returned
    assert bp is result and not hasattr(bp, "fit")
    assert vars(bp) == attributes == {"converged": False, "iterations": 8}
    assert dict(bp).keys() == beliefs.keys()
    assert all(bp[j] is beliefs[j] for j in beliefs)
    assert fit.converged


def test_fit_error_is_at_the_crlb_on_criterion_8b_mesh(tmp_path):
    # criterion 8b's mesh and BP settings, with the noise redrawn by each
    # seed. An efficient estimator's RMSE^2 / CRLB over 20 seeds is a
    # chi-square of 40 dof over 40; its root read 1.07 here (0.80 and 1.04
    # on seeds 20-39 and 40-59), and the band is that chi-square's central
    # 99.9 %
    (tmp_path / "m.sync").write_text("""sync-version: 1
components: position
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 100 0 0 0 0
aperture: 2 anchor 0 100 0 0 0
aperture: 3 anchor 100 100 0 0 0
aperture: 4 agent 37 61 0 0 0
measure: all
noise: delay 1e-13
bp-particles: 1500
bp-iterations: 50
anneal-start: 1e6
anneal-decay: 0.4
""")
    scn = sn.load_sync_scenario(tmp_path / "m.sync")
    # one agent, 4: its error is the record's only [id, error] pair
    sq = [sn.run_sync_scenario(scn, seed)[2]["agent_position_error"][0][1]
          ** 2 for seed in range(20)]
    # J at the truth does not depend on the measured values
    g = sn.build_factor_graph(scn.topology, scn.priors,
                              sn.simulate_measurements(scn.topology,
                                                       scn.true_states,
                                                       scn.noise, 0),
                              scn.space)
    jac = sn.measurement_jacobian(g, scn.true_states)
    ratio = np.sqrt(np.mean(sq) / np.trace(np.linalg.inv(jac.T @ jac)))
    assert 0.65 < ratio < 1.38


_ALL_COMPONENTS = """sync-version: 1
components: position orientation time_offset
scene-box: 0 100 0 100
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 100 0 0 0 0
aperture: 2 anchor 0 100 0 0 0
aperture: 3 anchor 100 100 0 0 0
aperture: 4 agent 37 61 0.4 2e-7 0
aperture: 5 agent 70 30 -1.1 -2e-7 0
measure: all
noise: delay 1e-10
noise: aoa 0.02
bp-particles: 300
bp-iterations: 20
anneal-start: 1e6
anneal-decay: 0.4
"""


def test_sync_cli_estimates_orientation_and_time_offset(tmp_path):
    # the agents' priors span every angle and +-1 us of clock offset, and
    # their estimates take the circular mean of the angles
    (tmp_path / "net.txt").write_text(_ALL_COMPONENTS)
    (tmp_path / "exp.ini").write_text("[experiment]\nschema-version = 1\n\n"
                                      "[sync]\nfile = net.txt\n")
    texts = []
    for out in ("a", "b"):
        assert cli.main(["sync", "--config", str(tmp_path / "exp.ini"),
                         "--out", str(tmp_path / out)]) == 0
        texts.append((tmp_path / out / "rows.csv").read_text())
    assert texts[0] == texts[1]
    rows = {line.split(",")[3]: float(line.split(",")[4])
            for line in texts[0].splitlines()[1:]}
    assert rows["position_rms_m"] < 5.0
    assert rows["to_rms_s"] < 2e-8


def test_sync_scenario_measure_lines_are_the_mask(tmp_path):
    p = tmp_path / "net.txt"
    p.write_text(_ALL_COMPONENTS.replace(
        "measure: all\n", "measure: 0 4\nmeasure: 5 1\nmeasure: 4 5\n"))
    scn = sn.load_sync_scenario(p)
    assert scn.topology.measurement_mask == ((0, 4), (5, 1), (4, 5))


def test_run_sync_scenario_reports_agents_only(tmp_path):
    p = tmp_path / "net.txt"
    p.write_text("""sync-version: 1
components: position
scene-box: 0 50 0 50
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 anchor 0 50 0 0 0
aperture: 3 agent 20 30 0 0 0
aperture: 4 agent 35 15 0 0 0
measure: all
noise: delay 1e-9
bp-particles: 300
bp-iterations: 15
anneal-start: 1e4
""")
    scn = sn.load_sync_scenario(p)
    fit, _, report = sn.run_sync_scenario(scn, seed=2)
    errs = [np.linalg.norm(fit.states[j].position - scn.true_states[j].position)
            for j in (3, 4)]
    # anchors are estimated by their known states, so they are not scored
    assert report["agent_position_error"] == [[3, errs[0]], [4, errs[1]]]
    assert report["position_rms_m"] \
        == pytest.approx(np.sqrt(np.mean(np.square(errs))), rel=1e-12)
    assert report["to_rms_s"] is None           # no clock is estimated


def test_pair_log_likelihood_restores_numpy_error_state():
    noise = sn.MeasurementNoise(aoa_std=0.1)
    # a delay observation without its std cannot be scored
    z = sn.PairMeasurement((0, 1), 1e-8, None, None, noise)
    before = np.geterr()
    with pytest.raises(TypeError):
        sn.pair_log_likelihood(z, np.zeros(2), np.ones(2), sn.StateSpace(),
                               1e9)
    assert np.geterr() == before


# line 5 of each case's file enables delay noise, except where this says
# otherwise
_LINE5_NOISE = {"components: position time_offset": "aoa 0.02"}


@pytest.mark.parametrize("line, match", [
    ("components: position velocity", "unknown state components"),
    ("components: position cfo", "unknown state components"),
    ("components: position position",
     r"net\.txt:6: repeated state component in \('position', 'position'\)"),
    # the trial's seed draws BP's particles, so the file names none
    ("bp-seed: 9", r"net\.txt:6: unknown key 'bp-seed'"),
    # BP stops at the anneal's end, before its tolerance could act
    ("bp-tol: nan", r"net\.txt:6: unknown key 'bp-tol'"),
    ("bp-particles: 50", "particle_count"),
    ("noise: aoa -1", "aoa_std"),
    ("scene-box: 50 0 0 50", "scene-box"),
    ("scene-box: 0 inf 0 50", r"net\.txt:6: scene-box"),
    ("carrier-freq: nan", r"net\.txt:6: expected a finite value > 0"),
    ("carrier-freq: -1", r"net\.txt:6: expected a finite value > 0"),
    ("aperture: 1 anchor 9 9 0 0 0", r"net\.txt:6: duplicate aperture id 1"),
    ("noise: delay nan", r"net\.txt:6: delay_std must be > 0"),
    ("anneal-start: nan", r"net\.txt:6: anneal_start must be finite"),
    ("anneal-start: inf", r"net\.txt:6: anneal_start must be finite"),
    ("anneal-start: 0", r"net\.txt:6: anneal_start must be finite and > 0"),
    ("anneal-decay: nan", r"net\.txt:6: anneal_decay must be finite"),
    ("anneal-decay: -0.5", r"net\.txt:6: anneal_decay must be finite and > 0"),
    ("colour: red", r"net\.txt:6: unknown key 'colour'"),
    ("noise: delay 2e-9", r"net\.txt:6: a second noise line for delay"),
    ("bp-particles: 400\nbp-particles: 500",
     r"net\.txt:7: key 'bp-particles' repeats line 6"),
    ("carrier-freq: 1e9\ncarrier-freq: 2e9",
     r"net\.txt:7: key 'carrier-freq' repeats line 6"),
    ("measure: 0 1", r"net\.txt:6: 'measure: all' lists every pair"),
    ("measure: all", r"net\.txt:6: 'measure: all' lists every pair"),
    ("a line without a separator", r"net\.txt:6: expected 'key: value'"),
    ("noise: range 1", r"net\.txt:6: unknown observable range"),
    # a declared component that no enabled observable reads
    ("components: position time_offset",
     r"net\.txt:6: no observable reads component time_offset; it needs a "
     r"'noise: delay' line"),
    ("components: position orientation",
     r"net\.txt:6: no observable reads component orientation; it needs a "
     r"'noise: aoa' line"),
    ("components: position time_offset cpo",
     r"net\.txt:6: no observable reads component cpo; it needs a "
     r"'noise: phase' line"),
    # every observable reads position, so a model without it reads every
    # aperture at the origin
    ("components: time_offset",
     r"net\.txt:6: components must include position"),
    # a true state the model cannot represent: it reads 0 in an undeclared
    # component, while the measurements carry the file's value
    ("aperture: 2 agent 9 9 0 3e-08 0",
     r"net\.txt:6: aperture 2 has time_offset 3e-08, but no time_offset "
     r"component is declared"),
    ("aperture: 2 anchor 9 9 0.5 0 0",
     r"net\.txt:6: aperture 2 has orientation 0\.5, but no orientation "
     r"component is declared"),
    ("aperture: 2 agent 9 9 0 0 -0.25",
     r"net\.txt:6: aperture 2 has cpo -0\.25, but no cpo component is "
     r"declared"),
])
def test_sync_scenario_semantic_errors_are_parse_errors(tmp_path, line,
                                                        match):
    p = tmp_path / "net.txt"
    p.write_text("sync-version: 1\naperture: 0 anchor 0 0 0 0 0\n"
                 "aperture: 1 agent 5 5 0 0 0\nmeasure: all\n"
                 f"noise: {_LINE5_NOISE.get(line, 'delay 1e-9')}\n{line}\n")
    with pytest.raises(errors.ParseError, match=match) as exc:
        sn.load_sync_scenario(p)
    # every case is reported at its own line, the last one it adds
    lineno = 6 + line.count("\n")
    assert str(exc.value).startswith(f"{p}:{lineno}: ")
    (tmp_path / "exp.ini").write_text("[experiment]\nschema-version = 1\n\n"
                                      "[sync]\nfile = net.txt\n")
    assert cli.main(["sync", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "rows.csv").exists()


def _assert_sync_input_error(tmp_path, match):
    """net.txt in tmp_path raises a ParseError matching `match`, and the
    sync command on it exits 2."""
    with pytest.raises(errors.ParseError, match=match):
        sn.load_sync_scenario(tmp_path / "net.txt")
    (tmp_path / "exp.ini").write_text("[experiment]\nschema-version = 1\n\n"
                                      "[sync]\nfile = net.txt\n")
    assert cli.main(["sync", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("role, measures, match", [
    ("anchor", "measure: 0 2\nmeasure: 2 0\nmeasure: 0 2",
     r"net\.txt:8: pair 0 2 is measured twice"),
    ("anchor", "measure: 0 2\nmeasure: all",
     r"net\.txt:7: 'measure: all' lists"),
    # agent 2 sits in no measured pair, so nothing observes it: the error
    # names its aperture line
    ("anchor", "measure: 0 1\nmeasure: 1 0",
     r"net\.txt:4: agent 2 is in no measured pair"),
    # without an anchor nothing fixes the frame, and no one line is at fault
    ("agent", "measure: all", r"net\.txt: no anchor fixes"),
    # agents 2 and 3 measure only each other, so they are fixed only up to
    # a rigid motion of their pair
    ("anchor", "aperture: 3 agent 30 40 0 0 0\nmeasure: 0 1\n"
               "measure: 2 3\nmeasure: 3 2",
     r"net\.txt:4: agent 2 is in no measured pair chained to an anchor"),
    ("anchor", "measure: 0 2\nmeasure: 1 7",
     r"net\.txt:7: pair 1 7 names an undeclared aperture"),
    ("anchor", "measure: 2 2",
     r"net\.txt:6: aperture 2 cannot measure itself"),
], ids=["pair-twice", "pair-then-all", "unmeasured-agent", "no-anchor",
        "island-of-agents", "undeclared-aperture", "self-pair"])
def test_sync_scenario_measure_line_errors(tmp_path, role, measures, match):
    (tmp_path / "net.txt").write_text(
        f"sync-version: 1\naperture: 0 {role} 0 0 0 0 0\n"
        f"aperture: 1 {role} 50 0 0 0 0\naperture: 2 agent 20 30 0 0 0\n"
        f"noise: delay 1e-9\n{measures}\n")
    _assert_sync_input_error(tmp_path, match)


# the true state must lie inside the support of the agent's prior, or BP,
# whose particles never leave it, pins the estimate to the support's edge;
# scene-box comes after the agent's line, so the check waits for the file
@pytest.mark.parametrize("components, agent, match", [
    ("position", "3 agent 150 50 0 0 0",
     r"net\.txt:6: agent 3's true state \[150\.0, 50\.0\] lies outside "
     r"its prior"),
    ("position time_offset", "3 agent 40 50 0 -2e-6 0",
     r"net\.txt:6: agent 3's true state \[40\.0, 50\.0, -2e-06\] lies "
     r"outside its prior, uniform from \[0\.0, 0\.0, -1e-06\]"),
], ids=["outside-scene-box", "time-offset-beyond-1us"])
def test_sync_scenario_true_state_outside_its_prior(tmp_path, components,
                                                    agent, match):
    (tmp_path / "net.txt").write_text(
        f"sync-version: 1\ncomponents: {components}\n"
        "aperture: 0 anchor 0 0 0 0 0\naperture: 1 anchor 100 0 0 0 0\n"
        f"aperture: 2 anchor 0 100 0 0 0\naperture: {agent}\n"
        "scene-box: 0 100 0 100\nmeasure: all\nnoise: delay 1e-9\n")
    _assert_sync_input_error(tmp_path, match)


# a non-finite value that no prior check reads, an anchor's or an agent's
# unestimated component, would reach BP and underflow every weight there
@pytest.mark.parametrize("anchor, agent, match", [
    ("nan 0 0 0 0", "20 30 0 0 0",
     r"net\.txt:2: aperture 0's state must be finite"),
    ("0 0 0 0 0", "20 30 0 inf 0",
     r"net\.txt:4: aperture 2's state must be finite"),
], ids=["anchor-nan-position", "agent-inf-time-offset"])
def test_sync_scenario_non_finite_state_is_parse_error(tmp_path, anchor,
                                                       agent, match):
    (tmp_path / "net.txt").write_text(
        f"sync-version: 1\naperture: 0 anchor {anchor}\n"
        f"aperture: 1 anchor 50 0 0 0 0\naperture: 2 agent {agent}\n"
        "measure: all\nnoise: delay 1e-9\n")
    _assert_sync_input_error(tmp_path, match)


def test_sync_scenario_without_apertures_is_parse_error(tmp_path):
    (tmp_path / "net.txt").write_text("sync-version: 1\nnoise: delay 1e-9\n")
    _assert_sync_input_error(tmp_path, r"net\.txt: no apertures declared")


def test_sync_scenario_without_noise_is_parse_error(tmp_path):
    p = tmp_path / "net.txt"
    p.write_text("sync-version: 1\naperture: 0 anchor 0 0 0 0 0\n"
                 "aperture: 1 anchor 50 0 0 0 0\n"
                 "aperture: 2 agent 5 5 0 0 0\nmeasure: all\n")
    with pytest.raises(errors.ParseError, match=r"net\.txt: no 'noise:'"):
        sn.load_sync_scenario(p)


@pytest.mark.parametrize("weights", [[0.0, 0.0], [np.nan, 1.0],
                                     [np.inf, 1.0], [-1.0, 0.5]])
def test_belief_rejects_degenerate_weights(weights):
    with pytest.raises(errors.DegeneracyError):
        sn.Belief(np.zeros((2, 2)), np.array(weights))


@pytest.mark.parametrize("n_particles, n_weights", [(0, 1), (3, 2)])
def test_belief_needs_one_weight_per_particle(n_particles, n_weights):
    # no particles under a unit weight would estimate the origin
    with pytest.raises(ValueError, match="one weight per particle"):
        sn.Belief(np.zeros((n_particles, 2)), np.ones(n_weights))
