import tracemalloc

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
    p_tx = np.array([3.0, 4.0])
    p_rx = np.array([0.0, 0.0])
    fc = 1e9
    diff, dist = sn._geometry(p_tx, p_rx)
    assert np.array_equal(diff, [3.0, 4.0]) and dist == 5.0
    assert sn._delay(dist, 2e-9, 5e-9) == pytest.approx(5.0 / C + 3e-9)
    assert sn._aoa(diff, 0.1) == pytest.approx(np.arctan2(4.0, 3.0) - 0.1)
    assert sn._phase(dist, 0.2, 0.4, fc) \
        == pytest.approx(sn.wrap_angle(2 * np.pi * fc * 5.0 / C + 0.2))


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
    return sn.build_factor_graph(top, priors, meas)


@pytest.mark.parametrize("apertures, pairs, cyclic", [
    # a path 0-1-2, a triangle 3-4-5 and aperture 6 on its own
    (range(7), ((0, 1), (2, 1), (3, 4), (4, 5), (5, 3)), True),
    ((0, 1, 2, 3), ((0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)), False),
    ((0, 1, 2, 3), ((0, 1), (2, 1), (2, 3)), False),
    ((0, 1, 2), ((0, 1), (1, 2), (2, 0)), True),
], ids=["cycle-in-second-component", "star-both-ways", "path",
        "one-way-triangle"])
def test_has_cycles_graph_shapes(apertures, pairs, cyclic):
    assert _graph_with_pairs(tuple(apertures), pairs).has_cycles() is cyclic


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
    # anchor without point prior
    with pytest.raises(errors.TopologyError):
        sn.build_factor_graph(top, {0: priors[1], 1: priors[1]}, meas, space)
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
    logp = g.priors()[1].logpdf(pts)
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


def test_estimate_map_close_to_mmse_unimodal():
    g, truth, space = _two_node_graph()
    beliefs = sn.run_loopy_bp(g, sn.BPConfig(particle_count=2000, seed=1,
                                             anneal_start=100.0))
    m1 = sn.estimate_mmse(beliefs[1], space, 1)
    m2 = sn.estimate_map(beliefs[1], space, 1)
    assert np.linalg.norm(m1.position - m2.position) < 1.0


def _kde_reference(x_eval, centers, weights, h, circular_mask):
    """The kernel density from the n×n×d difference tensor, chunked."""
    out = np.empty(x_eval.shape[0])
    log_norm = np.sum(np.log(h)) + 0.5 * h.size * np.log(2 * np.pi)
    chunk = max(1, int(2e6) // centers.shape[0])
    for start in range(0, x_eval.shape[0], chunk):
        sl = slice(start, start + chunk)
        diff = x_eval[sl, None, :] - centers[None, :, :]
        diff[:, :, circular_mask] = sn.wrap_angle(diff[:, :, circular_mask])
        q = -0.5 * np.sum((diff / h) ** 2, axis=2)
        peak = q.max(axis=1, keepdims=True)
        out[sl] = (np.log(np.sum(weights * np.exp(q - peak), axis=1))
                   + peak[:, 0] - log_norm)
    return out


def _mixed_particles(rng, n):
    # position, orientation, time offset, cpo; both angles straddle ±pi
    return np.column_stack([
        50.0 + rng.standard_normal((n, 2)),
        sn.wrap_angle(np.pi + 0.3 * rng.standard_normal(n)),
        1e-9 * rng.standard_normal(n),
        sn.wrap_angle(np.pi + 0.2 * rng.standard_normal(n))])


@pytest.mark.parametrize("case", ["mm-bandwidth", "mixed-circular",
                                  "zero-weights", "chunked", "one-weight",
                                  "eval-circular"])
def test_kde_log_density_matches_difference_tensor(case):
    rng = np.random.default_rng(17)
    n = 400
    space = sn.StateSpace(("position",))
    if case == "mm-bandwidth":
        centers = np.array([50.0, 60.0]) + 1e-3 * rng.standard_normal((n, 2))
    elif case in ("mixed-circular", "eval-circular"):
        space = sn.StateSpace(("position", "orientation", "time_offset",
                               "cpo"))
        centers = _mixed_particles(rng, n)
    elif case in ("zero-weights", "one-weight"):
        centers = np.array([50.0, 60.0]) + 30.0 * rng.standard_normal((n, 2))
    else:
        centers = np.array([50.0, 60.0]) + rng.standard_normal((2500, 2))
    x_eval = centers
    if case == "chunked":
        # three whole row blocks and a part of a fourth
        rows = sn._KDE_BLOCK_BYTES // (8 * centers.shape[0])
        x_eval = np.array([50.0, 60.0]) \
            + 2.0 * rng.standard_normal((3 * rows + rows // 2 + 1, 2))
    if case == "eval-circular":
        # fewer evaluation points than centres, angles again around ±pi
        x_eval = _mixed_particles(rng, 173)
    cm = space.circular_mask
    w = rng.random(centers.shape[0])
    if case == "zero-weights":
        w[rng.random(w.size) < 0.3] = 0.0
    w /= w.sum()
    h = sn._silverman_bandwidth(centers, w, cm)
    if case == "one-weight":
        # one centre carries all the weight; h stays that of the whole set
        w = np.zeros(n)
        w[123] = 1.0
    got = sn._kde_log_density(x_eval, centers, w, h, cm)
    np.testing.assert_allclose(got, _kde_reference(x_eval, centers, w, h, cm),
                               rtol=0, atol=1e-9)


def test_kde_log_density_peak_memory():
    # at 1500 centres with two circular dims an n×n×k wrapped-difference
    # tensor alone would be 34 MiB
    rng = np.random.default_rng(4)
    space = sn.StateSpace(("position", "orientation", "time_offset", "cpo"))
    x = _mixed_particles(rng, 1500)
    w = rng.random(1500)
    w /= w.sum()
    h = sn._silverman_bandwidth(x, w, space.circular_mask)
    tracemalloc.start()
    try:
        sn._kde_log_density(x, x, w, h, space.circular_mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_estimate_map_matches_difference_tensor():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(100, 300))
        if trial % 2:
            space = sn.StateSpace(("position", "orientation", "time_offset",
                                   "cpo"))
            x = _mixed_particles(rng, n)
        else:
            space = sn.StateSpace(("position",))
            x = rng.uniform(0.0, 100.0, 2) \
                + 10.0 ** rng.uniform(-3, 1) * rng.standard_normal((n, 2))
        w = rng.random(n) ** 4
        belief = sn.Belief(x, w)
        cm = space.circular_mask
        h = sn._silverman_bandwidth(x, belief.weights, cm)
        best = np.argmax(_kde_reference(x, x, belief.weights, h, cm))
        got = sn.estimate_map(belief, space)
        np.testing.assert_array_equal(space.pack(got),
                                      space.pack(space.unpack(x[best], -1)))


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
    assert rep[1]["position_error_m"] == pytest.approx(5.0)
    assert rep[1]["to_error_s"] == pytest.approx(2e-9)
    assert rep["rms"]["position_rms_m"] == pytest.approx(5.0)
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
bp-seed: 9
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
    est, beliefs, report = sn.run_sync_scenario(scn, seed=4)
    assert report[3]["position_error_m"] < 1.0
    assert set(est) == {0, 1, 2, 3}


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
    est, _, report = sn.run_sync_scenario(scn, seed=2)
    # anchors are estimated by their known states, so they are not scored
    assert set(report) == {3, 4, "rms"}
    errs = [np.linalg.norm(est[j].position - scn.true_states[j].position)
            for j in (3, 4)]
    assert [report[j]["position_error_m"] for j in (3, 4)] == errs
    assert report["rms"]["position_rms_m"] \
        == pytest.approx(np.sqrt(np.mean(np.square(errs))), rel=1e-12)


def test_bp_tree_matches_grid_marginal():
    """Tree graph (anchor - agent chain): the BP belief histogram matches
    direct grid marginalization of the joint posterior."""
    space = sn.StateSpace(("position",))
    top = sn.NetworkTopology((0, 1), (0,), measurement_mask=((0, 1), (1, 0)))
    truth = {0: sn.ApertureState(0, [0.0, 0.0]),
             1: sn.ApertureState(1, [8.0, 5.0])}
    noise = sn.MeasurementNoise(delay_std=4e-9)   # ~1.2 m ranging std
    meas = sn.simulate_measurements(top, truth, noise, seed=11)
    prior_mean = np.array([7.0, 6.0])
    prior_std = np.array([3.0, 3.0])
    priors = {0: sn.PointPrior(space.pack(truth[0])),
              1: sn.GaussianPrior(prior_mean, prior_std)}
    g = sn.build_factor_graph(top, priors, meas, space)
    assert not g.has_cycles()

    beliefs = sn.run_loopy_bp(g, sn.BPConfig(particle_count=5000, seed=2,
                                             max_iterations=12))
    parts = beliefs[1].particles
    w = beliefs[1].weights

    lo, hi = prior_mean - 12.0, prior_mean + 12.0
    edges_x = np.linspace(lo[0], hi[0], 11)
    edges_y = np.linspace(lo[1], hi[1], 11)
    hist_bp, _, _ = np.histogram2d(parts[:, 0], parts[:, 1],
                                   bins=(edges_x, edges_y), weights=w)
    hist_bp /= hist_bp.sum()

    # dense-grid direct marginal of the exact posterior
    nx = 240
    gx = np.linspace(lo[0], hi[0], nx)
    gy = np.linspace(lo[1], hi[1], nx)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    logp = priors[1].logpdf(pts)
    for f in g.pair_factors:
        j, jp = f.pair
        if j == 0:
            logp += sn.pair_log_likelihood(f.measurement,
                                           space.pack(truth[0]), pts,
                                           space, g.carrier_freq)
        else:
            logp += sn.pair_log_likelihood(f.measurement, pts,
                                           space.pack(truth[0]),
                                           space, g.carrier_freq)
    dens = np.exp(logp - logp.max()).reshape(nx, nx)
    ix = np.clip(np.searchsorted(edges_x, gx) - 1, 0, 9)
    iy = np.clip(np.searchsorted(edges_y, gy) - 1, 0, 9)
    hist_exact = np.zeros((10, 10))
    for a in range(nx):
        for b in range(nx):
            hist_exact[ix[a], iy[b]] += dens[a, b]
    hist_exact /= hist_exact.sum()

    tv = 0.5 * np.abs(hist_bp - hist_exact).sum()
    assert tv < 0.05


def test_pair_log_likelihood_restores_numpy_error_state():
    noise = sn.MeasurementNoise(aoa_std=0.1)
    # a delay observation without its std cannot be scored
    z = sn.PairMeasurement((0, 1), 1e-8, None, None, noise)
    before = np.geterr()
    with pytest.raises(TypeError):
        sn.pair_log_likelihood(z, np.zeros(2), np.ones(2), sn.StateSpace(),
                               1e9)
    assert np.geterr() == before


@pytest.mark.parametrize("line, match", [
    ("components: position velocity", "unknown state components"),
    ("components: position cfo", "unknown state components"),
    ("bp-particles: 50", "particle_count"),
    ("noise: aoa -1", "aoa_std"),
    ("scene-box: 50 0 0 50", "scene-box"),
    ("scene-box: 0 inf 0 50", r"net\.txt:6: scene-box"),
    ("carrier-freq: nan", r"net\.txt:6: expected a finite value > 0"),
    ("carrier-freq: -1", r"net\.txt:6: expected a finite value > 0"),
    ("bp-tol: nan", r"net\.txt:6: expected a finite value > 0"),
    ("aperture: 1 anchor 9 9 0 0 0", r"net\.txt:6: duplicate aperture id 1"),
    ("noise: delay nan", r"net\.txt:6: delay_std must be > 0"),
    ("anneal-start: nan", r"net\.txt:6: anneal_start must be finite"),
    ("anneal-start: inf", r"net\.txt:6: anneal_start must be finite"),
    ("anneal-start: 0", r"net\.txt:6: anneal_start must be finite and > 0"),
    ("anneal-decay: nan", r"net\.txt:6: anneal_decay must be finite"),
    ("anneal-decay: -0.5", r"net\.txt:6: anneal_decay must be finite and > 0"),
])
def test_sync_scenario_semantic_errors_are_parse_errors(tmp_path, line,
                                                        match):
    p = tmp_path / "net.txt"
    p.write_text("sync-version: 1\naperture: 0 anchor 0 0 0 0 0\n"
                 "aperture: 1 agent 5 5 0 0 0\nmeasure: all\n"
                 f"noise: delay 1e-9\n{line}\n")
    with pytest.raises(errors.ParseError, match=match) as exc:
        sn.load_sync_scenario(p)
    assert str(p) in str(exc.value)
    (tmp_path / "exp.ini").write_text("[experiment]\nschema-version = 1\n\n"
                                      "[sync]\nfile = net.txt\n")
    assert cli.main(["sync", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2


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
