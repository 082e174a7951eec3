import numpy as np
import pytest

from isaclab import errors, estimators, scene, waveform


FS = 1e6


def _chirp(n=128):
    return waveform.generate_chirp(4e5, n / FS, FS)


def _dictionary(u, n_tau=12):
    return estimators.Dictionary(u, np.arange(n_tau) / FS, np.array([0.0]))


def test_dictionary_atoms_unit_norm_and_cells():
    u = _chirp()
    d = estimators.Dictionary(u, np.arange(6) / FS,
                              np.array([-1e3, 0.0, 1e3]))
    assert d.n_atoms == 18
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
    assert d.cell(0) == (0.0, -1e3)
    assert d.cell(5) == (1 / FS, 1e3)
    # stored norms recover the raw (unnormalized) response scale
    scn = scene.TargetScene((scene.Target(1.0, 2 / FS, 0.0),))
    resp = scene.apply_channel(u, scn).samples
    flat = 2 * 3 + 1      # (tau index 2, nu index 1)
    assert d.atom_norms[flat] == pytest.approx(np.linalg.norm(resp), rel=1e-9)


def test_dictionary_grid_validation():
    u = _chirp()
    with pytest.raises(errors.GridError):
        estimators.Dictionary(u, np.array([1 / FS, 0.0]), np.array([0.0]))
    with pytest.raises(errors.GridError):
        estimators.Dictionary(u, np.array([0.0]), np.array([1e3, -1e3]))


def _per_atom_reference(u, delays, dopplers):
    """The atoms built one at a time: one apply_channel per (tau, nu)."""
    length = len(u) + int(np.ceil(delays.max() * u.sample_rate))
    atoms, norms = [], []
    for tau in delays:
        for nu in dopplers:
            scn = scene.TargetScene((scene.Target(1.0 + 0j, tau, nu),))
            col = np.zeros(length, np.complex128)
            resp = scene.apply_channel(u, scn, max_delay=delays.max()).samples
            col[:resp.size] = resp
            norms.append(np.linalg.norm(col))
            atoms.append(col / norms[-1])
    return np.stack(atoms, axis=1), np.array(norms)


def _ofdm():
    bits = np.random.default_rng(2).integers(0, 2, 128).astype(np.uint8)
    layout = waveform.ModulationLayout(
        kind="ofdm", bits_per_symbol=2, n_subcarriers=16, n_symbols=4,
        active_subcarriers=tuple(range(16)), data_bits=bits)
    return waveform.generate_ofdm(layout, FS, 4)


def _psk():
    bits = np.random.default_rng(1).integers(0, 2, 64).astype(np.uint8)
    return waveform.generate_psk_frame(bits, 1, FS, 2)


@pytest.mark.parametrize("probe, delays, dopplers", [
    (_psk, np.arange(10) / FS, np.linspace(-1100.0, 1100.0, 12)),
    (_ofdm, np.arange(8) / FS, np.linspace(-2e3, 2e3, 7)),
    (_chirp, np.arange(16) / FS, np.array([0.0])),
    (_psk, np.arange(9) * 0.37 / FS, np.linspace(-3e3, 3e3, 5)),
    (_chirp, np.array([2.5 / FS]), np.array([700.0])),
], ids=["psk-12-doppler", "ofdm", "chirp", "fractional-delay", "one-cell"])
def test_dictionary_equals_per_atom_channel(probe, delays, dopplers):
    u = probe()
    d = estimators.Dictionary(u, delays, dopplers)
    atoms, norms = _per_atom_reference(u, delays, dopplers)
    assert np.array_equal(d.atoms, atoms)
    assert np.array_equal(d.atom_norms, norms)
    assert d.atoms.flags.c_contiguous


def test_dictionary_checks_doppler_and_delay_values():
    u = _chirp()
    with pytest.raises(errors.AliasError, match="fs/2"):
        estimators.Dictionary(u, np.arange(3) / FS,
                              np.array([-6e5, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        estimators.Dictionary(u, np.arange(3) / FS, np.array([np.inf]))
    with pytest.raises(ValueError, match="delay"):
        estimators.Dictionary(u, np.array([-1 / FS, 0.0]), np.array([0.0]))
    # an empty grid has no atoms, and then nothing to alias
    d = estimators.Dictionary(u, np.zeros(0), np.array([6e5]))
    assert d.atoms.shape == (len(u), 0)
    d = estimators.Dictionary(u, np.arange(3) / FS, np.zeros(0))
    assert d.atoms.shape == (len(u) + 2, 0)


def test_dictionary_coherence():
    u = _chirp()
    d = _dictionary(u, 4)
    g = np.abs(d.atoms.conj().T @ d.atoms)
    np.fill_diagonal(g, 0.0)
    assert d.coherence() == pytest.approx(g.max())


def test_matched_filter_exact_on_grid_noiseless():
    u = _chirp()
    h = 0.7 - 0.4j
    scn = scene.TargetScene((scene.Target(h, 5 / FS, 0.0),))
    rx = scene.apply_channel(u, scn)
    rep = estimators.matched_filter_estimate(rx, u, _dictionary(u))
    assert len(rep.estimated_targets) >= 1
    top = max(rep.estimated_targets, key=lambda t: abs(t.amplitude))
    assert top.delay == pytest.approx(5 / FS)
    assert top.amplitude == pytest.approx(h, abs=1e-9)


def test_matched_filter_surface_energy_convention():
    # the cross-ambiguity surface at the true cell of a unit target equals
    # the waveform energy (same scaling as the ambiguity map peak)
    u = _chirp()
    scn = scene.TargetScene((scene.Target(1.0, 3 / FS, 0.0),))
    rx = scene.apply_channel(u, scn)
    rep = estimators.matched_filter_estimate(rx, u, _dictionary(u))
    surface = rep.diagnostics["surface"]
    assert surface[3, 0] == pytest.approx(u.energy, rel=1e-9)


def test_matched_filter_threshold_suppresses_weak_sidelobes():
    u = _chirp()
    scn = scene.TargetScene((scene.Target(1.0, 2 / FS, 0.0),))
    rx = scene.apply_channel(u, scn)
    strict = estimators.matched_filter_estimate(rx, u, _dictionary(u),
                                                detect_threshold_db=-3.0)
    loose = estimators.matched_filter_estimate(rx, u, _dictionary(u),
                                               detect_threshold_db=-60.0)
    assert len(strict.estimated_targets) <= len(loose.estimated_targets)


def test_matched_filter_capabilities_and_cost():
    u = _chirp()
    rx = scene.apply_channel(u, scene.TargetScene(
        (scene.Target(1.0, 0.0, 0.0),)))
    rep = estimators.matched_filter_estimate(rx, u, _dictionary(u))
    assert rep.capabilities["apriori"] == "none"
    assert rep.cost.cost_vector["flops"] > 0
    assert rep.cost.cost_vector["bandwidth_hz"] == pytest.approx(4e5)


def test_omp_multi_target_recovery():
    u = _chirp(256)
    truth = [scene.Target(1.0, 3 / FS, 0.0),
             scene.Target(0.6 + 0.2j, 9 / FS, 0.0)]
    rx = scene.apply_channel(u, scene.TargetScene(tuple(truth)))
    rep = estimators.omp_estimate(rx, _dictionary(u), 2)
    got = sorted(rep.estimated_targets, key=lambda t: t.delay)
    assert got[0].delay == pytest.approx(3 / FS)
    assert got[1].delay == pytest.approx(9 / FS)
    assert got[0].amplitude == pytest.approx(1.0, abs=1e-8)
    assert got[1].amplitude == pytest.approx(0.6 + 0.2j, abs=1e-8)
    assert rep.residual_energy < 1e-16
    hist = rep.diagnostics["residual_history"]
    assert len(hist) == 3 and hist[0] > hist[1] > hist[2]


def test_omp_sparsity_validation():
    u = _chirp()
    rx = scene.apply_channel(u, scene.TargetScene(()))
    with pytest.raises(ValueError):
        estimators.omp_estimate(rx, _dictionary(u), -1)
    with pytest.raises(ValueError):
        estimators.omp_estimate(rx, _dictionary(u, 4), 5)


def test_omp_rank_error_on_dependent_atoms():
    # two delay cells separated by a millionth of a sample produce atoms
    # that are numerically dependent; the conditioning guard must trip
    u = _chirp()
    d = estimators.Dictionary(u, np.array([0.0, 1e-6 / FS]),
                              np.array([0.0]))
    rx = scene.apply_channel(u, scene.TargetScene(
        (scene.Target(1.0, 0.0, 0.0),)))
    with pytest.raises(errors.RankError):
        estimators.omp_estimate(rx, d, 2)


def _dd_observation(targets, M=32, L=16, df=25e3, dt=1e-3, snr_db=None,
                    seed=0):
    scn = scene.TargetScene(tuple(targets))
    G = scene.eval_dd_response(scn, dt * np.arange(L)[None, :],
                               df * np.arange(M)[:, None])
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        p = np.mean(np.abs(G) ** 2)
        s = np.sqrt(p / 10 ** (snr_db / 10) / 2)
        G = G + s * (rng.standard_normal(G.shape)
                     + 1j * rng.standard_normal(G.shape))
    return G


def test_music_two_targets():
    targets = [scene.Target(0.8 + 0.3j, 3.2e-6, 150.0),
               scene.Target(0.5 - 0.2j, 7.2e-6, -75.0)]
    G = _dd_observation(targets, snr_db=40, seed=5)
    rep = estimators.music_estimate(G, 2, np.arange(0, 10e-6, 0.4e-6),
                                    np.arange(-200.0, 201.0, 25.0),
                                    freq_step=25e3, time_step=1e-3)
    got = sorted(rep.estimated_targets, key=lambda t: t.delay)
    assert got[0].delay == pytest.approx(3.2e-6)
    assert got[0].doppler == pytest.approx(150.0)
    assert got[1].delay == pytest.approx(7.2e-6)
    assert got[1].doppler == pytest.approx(-75.0)
    assert got[0].amplitude == pytest.approx(0.8 + 0.3j, abs=0.05)
    assert rep.capabilities["apriori"] == "model order P"
    assert "pseudospectrum" in rep.diagnostics


def test_music_pseudospectrum_matches_per_cell_projection():
    targets = [scene.Target(0.8 + 0.3j, 3.2e-6, 150.0),
               scene.Target(0.5 - 0.2j, 7.2e-6, -75.0)]
    G = _dd_observation(targets, snr_db=20, seed=6)
    delays = np.arange(0, 10e-6, 0.4e-6)
    dopplers = np.arange(-200.0, 201.0, 25.0)
    rep = estimators.music_estimate(G, 2, delays, dopplers, freq_step=25e3,
                                    time_step=1e-3, window=(10, 8))
    # reference: one steering vector and one noise-subspace projection per
    # cell, from the eigenvectors of the same smoothed covariance
    M, L = G.shape
    snaps = np.stack([G[i:i + 10, j:j + 8].reshape(-1)
                      for i in range(M - 9) for j in range(L - 7)], axis=1)
    _, evecs = np.linalg.eigh(snaps @ snaps.conj().T / snaps.shape[1])
    noise_sub = evecs[:, :80 - 2]
    ref = np.empty((delays.size, dopplers.size))
    for i, tau in enumerate(delays):
        for j, nu in enumerate(dopplers):
            a = np.outer(np.exp(2j * np.pi * 25e3 * tau * np.arange(10)),
                         np.exp(2j * np.pi * 1e-3 * nu * np.arange(8)))
            a = a.reshape(-1) / np.linalg.norm(a)
            ref[i, j] = 1.0 / np.linalg.norm(noise_sub.conj().T @ a) ** 2
    np.testing.assert_allclose(rep.diagnostics["pseudospectrum"], ref,
                               rtol=1e-10)
    assert rep.cost.flop_count == (80 ** 2 * snaps.shape[1] + 80 ** 3
                                   + ref.size * 80 * (80 - 2))


def test_music_1d_vector_observation():
    targets = [scene.Target(1.0, 4e-6, 0.0)]
    G = _dd_observation(targets, L=1, snr_db=40)[:, 0]
    rep = estimators.music_estimate(G, 1, np.arange(0, 10e-6, 0.5e-6),
                                    np.array([0.0]), freq_step=25e3)
    assert rep.estimated_targets[0].delay == pytest.approx(4e-6)


def test_music_order_validation():
    G = _dd_observation([scene.Target(1.0, 1e-6, 0.0)])
    with pytest.raises(errors.OrderError):
        estimators.music_estimate(G, 0, np.array([0.0]), np.array([0.0]),
                                  freq_step=25e3)
    with pytest.raises(errors.OrderError):
        estimators.music_estimate(np.ones(3, complex), 9,
                                  np.array([0.0]), np.array([0.0]),
                                  freq_step=25e3, window=(3, 1))


def test_demodulate_psk_through_channel():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 64).astype(np.uint8)
    u = waveform.generate_psk_frame(bits, 1, FS, oversampling=2)
    h = 0.5 * np.exp(1j * 0.8)
    scn = scene.TargetScene((scene.Target(h, 6 / FS, 0.0),))
    rx = scene.apply_channel(u, scn)
    d = estimators.Dictionary(u, np.arange(10) / FS, np.array([0.0]))
    est = estimators.omp_estimate(rx, d, 1)
    decoded = estimators.demodulate(rx, u, est)
    assert np.array_equal(decoded, bits)


def test_demodulate_ofdm_two_tap_equalization():
    rng = np.random.default_rng(9)
    n_sc, n_sym, cp = 32, 4, 8
    bits = rng.integers(0, 2, n_sc * n_sym).astype(np.uint8)
    lay = waveform.ModulationLayout(kind="ofdm", bits_per_symbol=1,
                                    n_subcarriers=n_sc, n_symbols=n_sym,
                                    active_subcarriers=tuple(range(n_sc)),
                                    data_bits=bits)
    u = waveform.generate_ofdm(lay, FS, cp)
    truth = [scene.Target(1.0, 0.0, 0.0),
             scene.Target(0.4j, 3 / FS, 0.0)]
    rx = scene.apply_channel(u, scene.TargetScene(tuple(truth)))
    d = estimators.Dictionary(u, np.arange(cp) / FS, np.array([0.0]))
    est = estimators.omp_estimate(rx, d, 2)
    decoded = estimators.demodulate(rx, u, est)
    assert np.array_equal(decoded, bits)


def test_demodulate_requires_layout():
    u = _chirp()
    rx = scene.ReceivedSignal(u.samples, FS)
    with pytest.raises(errors.LayoutError):
        estimators.demodulate(rx, u)


def test_fft_flops_convention():
    assert estimators.fft_flops(1024) == 1024 * 10


def test_tally_cost_forms():
    vec = {"flops": 500.0, "time_samples": 0.0,
           "spectral_bins": 0.0, "bandwidth_hz": 0.0}
    w = {"flops": 1.0}
    # S = 0.5 gives (1+0.5)/(1-0.5) = 3 in the FPE-like form
    assert estimators.tally_cost(vec, w, 1000.0) == pytest.approx(3.0)
    assert estimators.tally_cost(vec, w, 1000.0,
                                 form="additive") == pytest.approx(1.5)
    # zero cost gives exactly 1 in both forms
    zero = {k: 0.0 for k in vec}
    assert estimators.tally_cost(zero, w, 1000.0) == 1.0
    assert estimators.tally_cost(zero, w, 1000.0, form="additive") == 1.0


def test_tally_cost_errors():
    vec = {"flops": 10.0}
    with pytest.raises(errors.WeightError):
        estimators.tally_cost(vec, {"flops": 0.7}, 100.0)
    with pytest.raises(errors.WeightError):
        estimators.tally_cost(vec, {"nonexistent": 1.0}, 100.0)
    with pytest.raises(errors.WeightError, match=">= 0"):
        estimators.tally_cost({"flops": 10.0, "time_samples": 4.0},
                              {"flops": -0.5, "time_samples": 1.5}, 100.0)
    with pytest.raises(errors.SaturationError):
        estimators.tally_cost(vec, {"flops": 1.0}, 5.0)
    with pytest.raises(ValueError):
        estimators.tally_cost(vec, {"flops": 1.0}, -1.0)
    with pytest.raises(ValueError):
        estimators.tally_cost(vec, {"flops": 1.0}, 100.0, form="mystery")


def test_tally_cost_accepts_ledger():
    led = estimators.CostLedger(flop_count=100)
    led.finalize()
    assert estimators.tally_cost(led, {"flops": 1.0}, 400.0) \
        == pytest.approx((1 + 0.25) / (1 - 0.25))
