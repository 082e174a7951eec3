import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isaclab import errors, metrics, scene, unified, waveform
from isaclab.estimators import CostLedger


FS = 1e6


def _setup():
    u = waveform.generate_chirp(4e5, 1e-4, FS)
    prior = scene.SensingPrior(np.full(64, 1.0), (-FS / 2, FS / 2))
    noise = scene.NoiseModel.white(1e-9, (-FS / 2, FS / 2))
    chan = np.array([[0.9, 0.1], [0.1, 0.9]])
    return u, prior, noise, chan


def test_normalization_policy_rejects_zero_reference():
    with pytest.raises(errors.ToolkitError,
                       match="normalization reference is zero"):
        unified.NormalizationPolicy(0.0, 1.0)
    with pytest.raises(errors.ToolkitError,
                       match="normalization reference is zero"):
        unified.NormalizationPolicy(1.0, 0.0)


def test_max_attainable_normalization():
    u, prior, noise, chan = _setup()
    norm = unified.max_attainable_normalization(u, prior, noise, chan)
    assert norm.name == "max-attainable"
    # comm reference is the channel capacity
    cap, _ = metrics.channel_capacity(chan)
    assert norm.comm_ref == pytest.approx(cap, abs=1e-9)
    # sensing reference: a flat same-energy spectrum scores at least as high
    # as the actual waveform
    i_s = metrics.conditional_mi(u, prior, noise)
    assert norm.sensing_ref >= 0.95 * i_s


def test_disjoint_bands_have_no_default_normalization():
    # a chirp in +-50 kHz and a prior on (200, 300) kHz share no band: the
    # sensing MI is 0, and no sensing maximum exists to normalize it by
    u = waveform.generate_chirp(1e5, 1e-4, FS)
    _, _, noise, chan = _setup()
    prior = scene.SensingPrior(np.full(64, 1.0), (2e5, 3e5))
    assert metrics.conditional_mi(u, prior, noise) == 0.0
    with pytest.raises(errors.ToolkitError, match="share no interval"):
        unified.max_attainable_normalization(u, prior, noise, chan)
    with pytest.raises(errors.ToolkitError, match="share no interval"):
        unified.signal_metric(u, prior, noise, chan, 0.5)
    fixed = unified.NormalizationPolicy(1.0, 1.0)
    score = unified.signal_metric(u, prior, noise, chan, 0.5, fixed)
    assert score.sensing_term == 0.0 and np.isfinite(score.value)


def test_signal_metric_components_and_value():
    u, prior, noise, chan = _setup()
    lam = 0.3
    score = unified.signal_metric(u, prior, noise, chan, lam)
    assert score.value == pytest.approx(
        lam * score.normalized_sensing + (1 - lam) * score.normalized_comm,
        rel=1e-12)
    assert score.sensing_term == pytest.approx(
        metrics.conditional_mi(u, prior, noise), rel=1e-12)
    # conditional channel under a uniform input
    joint = metrics.JointPMF(chan / 2)
    assert score.comm_term == pytest.approx(
        metrics.mutual_information(joint), rel=1e-12)


def test_signal_metric_lambda_open_interval():
    u, prior, noise, chan = _setup()
    for lam in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            unified.signal_metric(u, prior, noise, chan, lam)


def test_signal_metric_accepts_joint_pmf_with_explicit_norm():
    u, prior, noise, _ = _setup()
    joint = metrics.JointPMF(np.array([[0.45, 0.05], [0.05, 0.45]]))
    norm = unified.NormalizationPolicy(1.0, 1.0)
    score = unified.signal_metric(u, prior, noise, joint, 0.5, norm)
    assert score.comm_term == pytest.approx(
        metrics.mutual_information(joint), rel=1e-12)
    # joint PMF without an explicit normalization cannot use the default
    with pytest.raises(errors.ToolkitError,
                       match="needs a conditional PMF channel"):
        unified.signal_metric(u, prior, noise, joint, 0.5)


def test_estimator_metric_formula():
    led = CostLedger(flop_count=500)
    led.finalize()
    comm = metrics.CommReport(1000, 50)
    truth, est = [1.0, 2.0], [1.1, 2.1]
    lam = 0.4
    score = unified.estimator_metric(truth, est, comm, lam, led,
                                     {"flops": 1.0}, 1000.0)
    wcost = (1 + 0.5) / (1 - 0.5)
    mse = 0.01
    assert score.wcost == pytest.approx(wcost)
    assert score.value == pytest.approx(wcost * (lam * mse + 0.6 * 0.05),
                                        rel=1e-9)


def test_estimator_metric_shape_mismatch():
    comm = metrics.CommReport(10, 0)
    led = CostLedger().finalize()
    with pytest.raises(errors.ToolkitError,
                       match=r"phi shape \(1,\) != phi_hat shape \(2,\)"):
        unified.estimator_metric([1.0], [1.0, 2.0], comm, 0.5, led,
                                 {"flops": 1.0}, 100.0)


def test_sweep_lambda_affine():
    rows = unified.sweep_lambda(2.0, 0.5, np.linspace(0.1, 0.9, 9),
                                wcost=1.5)
    lams = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    # affine in lambda: second differences vanish
    assert np.max(np.abs(np.diff(vals, 2))) < 1e-12
    assert vals[0] == pytest.approx(1.5 * (0.1 * 2.0 + 0.9 * 0.5))
    with pytest.raises(ValueError):
        unified.sweep_lambda(1.0, 1.0, [0.0, 0.5])


@given(st.floats(0.01, 0.99), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_estimator_score_dominance(lam, e1, b1, de, db):
    """An estimator with no larger sensing error and no larger comm error
    never scores worse (lower J is better) at equal cost."""
    led = CostLedger().finalize()
    comm_a = metrics.CommReport(10_000, int(min(b1, 5.0) * 1000))
    comm_b = metrics.CommReport(10_000, int(min(b1 + db, 5.0 + 5.0) * 1000))
    a = unified.estimator_metric([0.0], [np.sqrt(e1)], comm_a, lam, led,
                                 {"flops": 1.0}, 1e9)
    b = unified.estimator_metric([0.0], [np.sqrt(e1 + de)], comm_b, lam, led,
                                 {"flops": 1.0}, 1e9)
    assert a.value <= b.value + 1e-12
