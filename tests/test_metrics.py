import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isaclab import errors, metrics, scene, waveform


# ---------------------------------------------------------------------------
# estimation error metrics
# ---------------------------------------------------------------------------

def test_mse_sample_outer_product_oracle():
    truth = metrics.ParameterVector([1.0, -2.0], ("a", "b"))
    ests = [metrics.ParameterVector([1.1, -2.2], ("a", "b")),
            metrics.ParameterVector([0.9, -1.9], ("a", "b"))]
    M, tr = metrics.mse_sample(truth, ests)
    e1 = np.array([-0.1, 0.2])
    e2 = np.array([0.1, -0.1])
    expect = (np.outer(e1, e1) + np.outer(e2, e2)) / 2
    assert np.allclose(M, expect)
    assert tr == pytest.approx(np.trace(expect))


def test_mse_sample_layout_mismatch():
    truth = metrics.ParameterVector([1.0], ("a",))
    with pytest.raises(errors.LayoutMismatch):
        metrics.mse_sample(truth, [metrics.ParameterVector([1.0], ("b",))])


def test_parameter_vector_from_targets():
    pv = metrics.ParameterVector.from_targets(
        [scene.Target(1 - 2j, 3e-6, 40.0)])
    assert np.allclose(pv.values, [1.0, -2.0, 3e-6, 40.0])
    assert pv.layout == ("re_h[0]", "im_h[0]", "tau[0]", "nu[0]")


def test_crlb_numeric_gaussian_mean():
    # N Gaussian samples of known variance: Fisher = N / sigma^2 exactly
    sigma2, n = 2.0, 16

    def ll(theta, data):
        return -0.5 * np.sum((data - theta[0]) ** 2) / sigma2

    def draw(rng):
        return 0.5 + np.sqrt(sigma2) * rng.standard_normal(n)

    bound = metrics.crlb_numeric(ll, draw, metrics.ParameterVector(
        [0.5], ("mu",)), mc_trials=50)
    assert bound[0, 0] == pytest.approx(sigma2 / n, rel=1e-4)


def test_crlb_singular_fisher():
    # a parameter the likelihood ignores has zero Fisher information
    def ll(theta, data):
        return -0.5 * np.sum((data - theta[0]) ** 2)

    def draw(rng):
        return rng.standard_normal(4)

    with pytest.raises(errors.SingularFisher):
        metrics.crlb_numeric(ll, draw, metrics.ParameterVector(
            [0.0, 1.0], ("mu", "unused")), mc_trials=10)


# ---------------------------------------------------------------------------
# communication metrics
# ---------------------------------------------------------------------------

def test_qfunc_oracle():
    # Q(x) against direct numerical integration of the Gaussian tail
    for x in (0.0, 0.5, 1.0, 2.0, 3.0):
        grid = np.linspace(x, x + 12, 400_001)
        tail = np.trapezoid(np.exp(-grid ** 2 / 2), grid) / np.sqrt(2 * np.pi)
        assert metrics.qfunc(x) == pytest.approx(tail, rel=1e-9)


def test_ber_theoretical_bpsk_identity():
    for snr in (0.0, 1.0, 10 ** 0.4):
        assert metrics.ber_theoretical_bpsk(snr) == pytest.approx(
            metrics.qfunc(np.sqrt(2 * snr)), rel=1e-12)
    assert metrics.ber_theoretical_bpsk(0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        metrics.ber_theoretical_bpsk(-0.1)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one may already hold scipy from elsewhere
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, isaclab.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "isaclab.cli" in out
    assert [m for m in out if m == "scipy" or m.startswith("scipy.")] == []


# ---------------------------------------------------------------------------
# information metrics
# ---------------------------------------------------------------------------

def _h_b(p):
    return -(p * np.log(p) + (1 - p) * np.log(1 - p))


def test_mutual_information_term_sum_oracle():
    pxy = np.array([[0.3, 0.1], [0.2, 0.4]])
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    expect = sum(pxy[i, j] * np.log(pxy[i, j] / (px[i] * py[j]))
                 for i in range(2) for j in range(2))
    assert metrics.mutual_information(metrics.JointPMF(pxy)) \
        == pytest.approx(expect, rel=1e-12)


def test_mutual_information_zero_cells():
    # independent variables: exactly zero, zero cells handled as 0 log 0 = 0
    pxy = np.outer([0.5, 0.5], [0.25, 0.0, 0.75])
    assert metrics.mutual_information(pxy) == pytest.approx(0.0, abs=1e-15)
    # noiseless binary channel: ln 2
    pxy = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert metrics.mutual_information(pxy) == pytest.approx(np.log(2))


def test_joint_pmf_validation():
    with pytest.raises(ValueError):
        metrics.JointPMF(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        metrics.JointPMF(np.array([[-0.1, 1.1]]))


def test_channel_capacity_bsc():
    eps = 0.1
    W = np.array([[1 - eps, eps], [eps, 1 - eps]])
    cap, px = metrics.channel_capacity(W)
    assert cap == pytest.approx(np.log(2) - _h_b(eps), abs=1e-9)
    assert np.allclose(px, 0.5, atol=1e-4)


def test_channel_capacity_asymmetric_zchannel():
    # Z-channel closed form: C = ln(1 + (1-eps) eps^(eps/(1-eps)))
    eps = 0.3
    W = np.array([[1.0, 0.0], [eps, 1 - eps]])
    cap, _ = metrics.channel_capacity(W)
    expect = np.log(1 + (1 - eps) * eps ** (eps / (1 - eps)))
    assert cap == pytest.approx(expect, abs=1e-8)


def test_channel_capacity_validation():
    with pytest.raises(errors.NonStochasticChannel):
        metrics.channel_capacity(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_conditional_mi_flat_closed_form():
    # flat spectra over bandwidth W: I = T W ln(1 + 2 U S / (N0 T))
    T, W, U, S, N0 = 1e-3, 2e5, 3e-9, 1.5, 4e-12
    freqs = np.linspace(-W / 2, W / 2, 1001)
    val = metrics.conditional_mi_spectra(np.full(freqs.size, U),
                                         np.full(freqs.size, S),
                                         np.full(freqs.size, N0), freqs, T)
    expect = T * W * np.log(1 + 2 * U * S / (N0 * T))
    assert val == pytest.approx(expect, rel=1e-9)


def test_conditional_mi_zero_noise_guard():
    freqs = np.linspace(0, 1e5, 11)
    with pytest.raises(errors.ZeroNoiseDensityError):
        metrics.conditional_mi_spectra(np.ones(11), np.ones(11),
                                       np.zeros(11), freqs, 1e-3)


def test_conditional_mi_waveform_wrapper_monotone_in_energy():
    fs = 1e6
    prior = scene.SensingPrior(np.full(64, 1.0), (-fs / 2, fs / 2))
    noise = scene.NoiseModel.white(1e-9, (-fs / 2, fs / 2))
    u1 = waveform.generate_chirp(4e5, 1e-4, fs)
    u2 = waveform.Waveform(2.0 * u1.samples, fs, u1.band)
    i1 = metrics.conditional_mi(u1, prior, noise)
    i2 = metrics.conditional_mi(u2, prior, noise)
    assert 0 < i1 < i2


# ---------------------------------------------------------------------------
# ambiguity
# ---------------------------------------------------------------------------

def _brute_ambiguity(u, tau, nu):
    fs = u.sample_rate
    n = len(u)
    t = np.arange(n) / fs
    lag = int(round(tau * fs))
    x = u.samples * np.exp(2j * np.pi * nu * t)
    y = np.zeros(n, np.complex128)
    if lag >= 0:
        y[lag:] = u.samples[:n - lag]
    else:
        y[:n + lag] = u.samples[-lag:]
    return abs(np.sum(x * np.conj(y)) / fs)


def test_ambiguity_matches_brute_force():
    u = waveform.generate_chirp(3e5, 6.4e-5, 1e6)
    dopplers = np.array([-2e4, 0.0, 1.5e4])
    amb = metrics.ambiguity(u, doppler_grid=dopplers)
    rng = np.random.default_rng(4)
    for _ in range(25):
        i = rng.integers(0, dopplers.size)
        j = rng.integers(0, amb.delay_grid.size)
        expect = _brute_ambiguity(u, amb.delay_grid[j], dopplers[i])
        assert amb.values[i, j] == pytest.approx(expect, abs=1e-12)


def test_ambiguity_peak_is_energy():
    u = waveform.generate_chirp(3e5, 6.4e-5, 1e6)
    amb = metrics.ambiguity(u)
    assert amb.peak() == pytest.approx(u.energy, rel=1e-12)


def test_ambiguity_grid_errors():
    u = waveform.generate_chirp(3e5, 6.4e-5, 1e6)
    with pytest.raises(errors.GridError):
        metrics.ambiguity(u, delay_grid=np.array([0.4 / 1e6]))
    with pytest.raises(errors.GridError):
        metrics.ambiguity(u, delay_grid=np.array([1.0]))
    with pytest.raises(errors.GridError):
        metrics.ambiguity(u, doppler_grid=np.array([1e6]))
    for bad in (np.nan, np.inf):
        with pytest.raises(errors.GridError, match="non-finite"):
            metrics.ambiguity(u, doppler_grid=np.array([0.0, bad]))
        with pytest.raises(errors.GridError, match="non-finite"):
            metrics.ambiguity(u, delay_grid=np.array([0.0, bad]))


# ---------------------------------------------------------------------------
# system identification metrics
# ---------------------------------------------------------------------------

def test_r_squared_basics():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert metrics.r_squared(y, y) == 1.0
    assert metrics.r_squared(y, np.full(4, y.mean())) == 0.0
    # worse than the mean predictor: clamped to zero
    assert metrics.r_squared(y, np.array([4.0, 3.0, 2.0, 1.0])) == 0.0
    with pytest.raises(errors.DegenerateData):
        metrics.r_squared(np.ones(4), np.ones(4))


def test_fpe_penalty():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y_hat = y + 0.5
    msr = 0.25
    assert metrics.fpe(y, y_hat, 0) == pytest.approx(msr, abs=1e-15)
    d, n = 2, 6
    assert metrics.fpe(y, y_hat, d) == pytest.approx(
        (1 + d / n) / (1 - d / n) * msr, rel=1e-12)
    with pytest.raises(errors.DimensionError):
        metrics.fpe(y, y_hat, 6)


def test_cost_criterion():
    y = np.array([1.0, 2.0, 3.0])
    y_hat = np.array([1.5, 2.5, 2.5])
    assert metrics.cost_criterion(y, y_hat, 0.0) == pytest.approx(0.25)
    assert metrics.cost_criterion(y, y_hat, 1.0) == pytest.approx(0.5)
    assert metrics.cost_criterion(y, y_hat, 0.0,
                                  loss="absolute") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        metrics.cost_criterion(y, y_hat, -1.0)


def test_nats_to_bits():
    assert metrics.nats_to_bits(np.log(2)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_mutual_information_nonnegative(vals):
    pxy = np.array(vals).reshape(2, 2)
    pxy /= pxy.sum()
    assert metrics.mutual_information(pxy) >= -1e-12


@given(st.integers(0, 2 ** 31), st.integers(2, 30))
@settings(max_examples=50, deadline=None)
def test_r_squared_bounds(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    if np.allclose(y, y[0]):
        return
    y_hat = rng.standard_normal(n)
    score = metrics.r_squared(y, y_hat)
    assert 0.0 <= score <= 1.0


@given(st.floats(0.01, 0.49))
@settings(max_examples=30, deadline=None)
def test_bsc_capacity_closed_form_property(eps):
    W = np.array([[1 - eps, eps], [eps, 1 - eps]])
    cap, _ = metrics.channel_capacity(W)
    assert cap == pytest.approx(np.log(2) - _h_b(eps), abs=1e-7)
