import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isaclab import errors, estimators, harness, scene, waveform


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
    # the stored norm recovers the raw (unnormalized) response scale
    scn = scene.TargetScene((scene.Target(1.0, 2 / FS, 0.0),))
    resp = scene.apply_channel(u, scn).samples
    assert d.norm == pytest.approx(np.linalg.norm(resp), rel=1e-9)


def test_dictionary_grid_validation():
    u = _chirp()
    with pytest.raises(errors.ToolkitError,
                       match="delay grid must be strictly increasing"):
        estimators.Dictionary(u, np.array([1 / FS, 0.0]), np.array([0.0]))
    with pytest.raises(errors.ToolkitError,
                       match="doppler grid must be strictly increasing"):
        estimators.Dictionary(u, np.array([0.0]), np.array([1e3, -1e3]))


def _per_atom_reference(u, delays, dopplers):
    """The atoms built one at a time: one apply_channel per (tau, nu)."""
    length = len(u) + int(np.ceil(delays.max() * u.sample_rate))
    atoms = []
    for tau in delays:
        for nu in dopplers:
            scn = scene.TargetScene((scene.Target(1.0 + 0j, tau, nu),))
            col = np.zeros(length, np.complex128)
            resp = scene.apply_channel(u, scn, max_delay=delays.max()).samples
            col[:resp.size] = resp
            atoms.append(col / np.linalg.norm(u.samples))
    return np.stack(atoms, axis=1)


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
    assert np.array_equal(d.atoms, _per_atom_reference(u, delays, dopplers))
    assert d.atoms.flags.c_contiguous
    # every atom has the probe's norm: a delay is a unit-modulus phase ramp
    # over the whole spectrum and a Doppler shift a unit-modulus phasor
    np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0,
                               rtol=0, atol=1e-14)


def test_dictionary_checks_doppler_and_delay_values():
    u = _chirp()
    with pytest.raises(errors.ToolkitError, match="fs/2"):
        estimators.Dictionary(u, np.arange(3) / FS,
                              np.array([-6e5, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        estimators.Dictionary(u, np.arange(3) / FS, np.array([np.inf]))
    with pytest.raises(ValueError, match="delay"):
        estimators.Dictionary(u, np.array([-1 / FS, 0.0]), np.array([0.0]))
    # checked before the grid's length is computed from its largest delay
    for delays in ([np.inf], [np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            estimators.Dictionary(u, np.array(delays), np.array([0.0]))
    # an empty grid has no atoms, and then nothing to alias
    d = estimators.Dictionary(u, np.zeros(0), np.array([6e5]))
    assert d.atoms.shape == (len(u), 0)
    d = estimators.Dictionary(u, np.arange(3) / FS, np.zeros(0))
    assert d.atoms.shape == (len(u) + 2, 0)


def _observation(u, d, targets, seed=0):
    """The targets' echo of u plus white noise, padded to d.length."""
    noise = scene.NoiseModel.white(1e-4 / FS, (-FS / 2, FS / 2), seed)
    rx = scene.apply_channel(u, scene.TargetScene(tuple(targets)), noise)
    return estimators._pad_to(rx.samples, d.length)


_ECHOES = (scene.Target(0.9 - 0.3j, 2 / FS, 300.0),
           scene.Target(0.4j, 5 / FS, -800.0))


@pytest.mark.parametrize("probe, delays, dopplers", [
    (_psk, np.arange(10) / FS, np.linspace(-1100.0, 1100.0, 12)),
    (_ofdm, np.arange(8) / FS, np.linspace(-2e3, 2e3, 7)),
    (_chirp, np.arange(16) / FS, np.array([0.0])),
    (_chirp, np.array([2.5 / FS]), np.array([700.0])),
], ids=["psk-12-doppler", "ofdm", "chirp", "one-cell"])
def test_dictionary_correlate_equals_atom_products(probe, delays, dopplers):
    u = probe()
    d = estimators.Dictionary(u, delays, dopplers)
    y = _observation(u, d, _ECHOES)
    corr = d.correlate(y)
    np.testing.assert_allclose(corr, d.atoms.conj().T @ y, rtol=1e-12, atol=0)
    # the grid alone picks the correlator: reading the atoms changes nothing
    assert np.array_equal(d.correlate(y), corr)


def test_dictionary_correlate_on_fractional_delays_is_the_gemm():
    u = _psk()
    delays, dopplers = np.arange(9) * 0.37 / FS, np.linspace(-3e3, 3e3, 5)
    fresh = estimators.Dictionary(u, delays, dopplers)
    y = _observation(u, fresh, _ECHOES)
    corr = fresh.correlate(y)
    ref = estimators.Dictionary(u, delays, dopplers).atoms.conj().T @ y
    assert np.array_equal(corr, ref)


@pytest.mark.parametrize("probe, delays, dopplers", [
    (_psk, np.arange(10) / FS, np.linspace(-1100.0, 1100.0, 12)),
    (_ofdm, np.arange(8) / FS, np.linspace(-2e3, 2e3, 7)),
    (_psk, np.arange(9) * 0.37 / FS, np.linspace(-3e3, 3e3, 5)),
], ids=["psk-12-doppler", "ofdm", "fractional-delay"])
def test_dictionary_columns_are_atom_columns(probe, delays, dopplers):
    u = probe()
    d = estimators.Dictionary(u, delays, dopplers)
    cells = [7, 0, d.n_atoms - 1, 8]
    block = d.columns(cells)
    assert "atoms" not in vars(d)
    assert np.array_equal(block, d.atoms[:, cells])
    assert block.flags.f_contiguous


def _psk_trials(n):
    """n harness PSK trials on the 48 x 12 grid: (probe, grids, rx)."""
    cfg = harness.ExperimentConfig(wf_kind="psk", bits=256, oversampling=2,
                                   delay_bins=48, doppler_bins=12,
                                   doppler_max=1100.0, ebn0_db=10.0)
    for trial in range(n):
        rng = np.random.default_rng(trial)
        u = harness._build_waveform(cfg, rng)
        targets = (scene.Target(complex(rng.standard_normal(),
                                        rng.standard_normal()),
                                int(rng.integers(0, 48)) / FS,
                                float(rng.uniform(-1100.0, 1100.0))),
                   scene.Target(0.5, 47 / FS, 0.0))
        rx = scene.apply_channel(u, scene.TargetScene(targets),
                                 harness._noise_model(cfg, u, trial))
        yield u, harness._grids(cfg), rx


def _reference_omp(y, d, sparsity):
    """OMP's residual history on the full atom matrix, refit on the copy
    atoms[:, selected]."""
    residual, selected, history = y, [], [float(np.linalg.norm(y) ** 2)]
    for _ in range(sparsity):
        scores = np.abs(d.atoms.conj().T @ residual)
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        A_sel = d.atoms[:, selected]
        coeffs, *_ = np.linalg.lstsq(A_sel, y, rcond=None)
        residual = y - A_sel @ coeffs
        history.append(float(np.linalg.norm(residual) ** 2))
    return history


def test_omp_without_atoms_equals_omp_with_atoms():
    for u, grids, rx in _psk_trials(24):
        fresh = estimators.Dictionary(u, *grids)
        fast = estimators.omp_estimate(rx, fresh, 3)
        assert "atoms" not in vars(fresh)
        built = estimators.Dictionary(u, *grids)
        assert built.atoms.shape == (built.length, 48 * 12)
        full = estimators.omp_estimate(rx, built, 3)
        y = estimators._pad_to(rx.samples, built.length)
        assert fast.diagnostics["residual_history"] == _reference_omp(
            y, built, 3)
        assert fast.estimated_targets == full.estimated_targets
        assert fast.diagnostics == full.diagnostics
        assert fast.residual_energy == full.residual_energy
        assert np.array_equal(fast.predicted_signal, full.predicted_signal)
        assert fast.cost == full.cost


def test_omp_trial_builds_only_the_selected_atoms(monkeypatch):
    def no_atoms(self):
        raise AssertionError("the atom matrix was built")
    calls = []
    channel = estimators.apply_channel
    monkeypatch.setattr(estimators.Dictionary, "atoms", property(no_atoms))
    monkeypatch.setattr(estimators, "apply_channel",
                        lambda *args, **kw: calls.append(args)
                        or channel(*args, **kw))
    cfg = harness.ExperimentConfig(wf_kind="psk", bits=256, oversampling=2,
                                   est_kind="omp", sparsity=2, delay_bins=48,
                                   doppler_bins=12, doppler_max=1100.0,
                                   ebn0_db=20.0)
    base = scene.TargetScene((scene.Target(1.0, 3 / FS, 100.0),
                              scene.Target(0.5j, 20 / FS, -300.0)),
                             label="two")
    _, record = harness.run_trial(cfg, 0, base)
    assert len(record["estimated_targets"]) == 2
    assert len(calls) <= 1 + cfg.sparsity


def _ofdm_with_clutter():
    clutter = scene.generate_clutter(scene.ClutterModel(
        2e-3, 0.05, (0.0, 7 / FS), (-2e3, 2e3)), seed=3)
    return scene.merge_scenes(scene.TargetScene(_ECHOES), clutter).targets


@pytest.mark.parametrize("probe, delays, dopplers, targets", [
    (_psk, np.arange(10) / FS, np.linspace(-1100.0, 1100.0, 12), _ECHOES),
    (_ofdm, np.arange(8) / FS, np.linspace(-2e3, 2e3, 7),
     _ofdm_with_clutter()),
], ids=["psk-12-doppler", "ofdm-clutter"])
def test_matched_filter_without_atoms_matches_with_atoms(probe, delays,
                                                         dopplers, targets):
    # reading the atoms first changes nothing; the FFT correlations differ
    # from the dense product atoms^H y in the last bits only
    u = probe()
    noise = scene.NoiseModel.white(1e-4 / FS, (-FS / 2, FS / 2), 5)
    rx = scene.apply_channel(u, scene.TargetScene(targets), noise)
    fresh = estimators.Dictionary(u, delays, dopplers)
    fast = estimators.matched_filter_estimate(rx, u, fresh, -20.0)
    assert "atoms" not in vars(fresh)
    built = estimators.Dictionary(u, delays, dopplers)
    assert built.atoms.shape[1] == built.n_atoms
    full = estimators.matched_filter_estimate(rx, u, built, -20.0)
    assert fast.estimated_targets == full.estimated_targets
    assert fast.residual_energy == full.residual_energy
    assert np.array_equal(fast.diagnostics["surface"],
                          full.diagnostics["surface"])
    assert fast.cost == full.cost

    y = estimators._pad_to(rx.samples, built.length)
    corr = built.atoms.conj().T @ y
    flat = [int(np.flatnonzero(delays == t.delay)[0]) * dopplers.size
            + int(np.flatnonzero(dopplers == t.doppler)[0])
            for t in fast.estimated_targets]
    assert len(flat) > 1
    np.testing.assert_allclose(
        [t.amplitude for t in fast.estimated_targets],
        corr[flat] / built.norm, rtol=1e-12)
    surface = np.abs(corr * built.norm).reshape(
        delays.size, dopplers.size) / FS
    np.testing.assert_allclose(fast.diagnostics["surface"], surface,
                               rtol=1e-12)


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


def _local_maxima_reference(s):
    """Each cell against its 8 neighbours in turn, -inf beyond the edge."""
    mask = np.ones(s.shape, bool)
    padded = np.full((s.shape[0] + 2, s.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = s
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                mask &= s >= padded[1 + di:1 + di + s.shape[0],
                                    1 + dj:1 + dj + s.shape[1]]
    return mask


@given(st.integers(0, 5), st.integers(0, 5),
       st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                min_size=25, max_size=25))
@settings(max_examples=300, deadline=None)
def test_local_maxima_matches_the_neighbour_loop(rows, cols, values):
    # few distinct values, so ties, +-inf and NaN neighbours are common
    surface = np.array(values[:rows * cols]).reshape(rows, cols)
    assert np.array_equal(estimators._local_maxima(surface),
                          _local_maxima_reference(surface))


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
    assert rep.cost.apriori_inputs == []
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
    with pytest.raises(errors.ToolkitError,
                       match="selected atoms numerically dependent"):
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
    assert rep.cost.apriori_inputs == ["model order P"]
    assert "pseudospectrum" in rep.diagnostics


def test_music_pseudospectrum_matches_per_cell_projection():
    targets = [scene.Target(0.8 + 0.3j, 3.2e-6, 150.0),
               scene.Target(0.5 - 0.2j, 7.2e-6, -75.0)]
    # 20 x 16 bins, so MUSIC's smoothing window is 10 x 8
    G = _dd_observation(targets, M=20, snr_db=20, seed=6)
    delays = np.arange(0, 10e-6, 0.4e-6)
    dopplers = np.arange(-200.0, 201.0, 25.0)
    rep = estimators.music_estimate(G, 2, delays, dopplers, freq_step=25e3,
                                    time_step=1e-3)
    # reference: one steering vector and one noise-subspace projection per
    # cell, from the eigenvectors of the same smoothed covariance
    M, L = G.shape
    snaps = np.stack([G[i:i + 10, j:j + 8].reshape(-1)
                      for i in range(M - 9) for j in range(L - 7)], axis=1)
    evals, evecs = np.linalg.eigh(snaps @ snaps.conj().T / snaps.shape[1])
    noise_sub = evecs[:, :80 - 2]
    ref = np.empty((delays.size, dopplers.size))
    for i, tau in enumerate(delays):
        for j, nu in enumerate(dopplers):
            a = np.outer(np.exp(2j * np.pi * 25e3 * tau * np.arange(10)),
                         np.exp(2j * np.pi * 1e-3 * nu * np.arange(8)))
            a = a.reshape(-1) / np.linalg.norm(a)
            ref[i, j] = 1.0 / np.linalg.norm(noise_sub.conj().T @ a) ** 2
    _assert_settled(rep, ref, evals, delays, dopplers)
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
    with pytest.raises(errors.ToolkitError, match="model order must be >= 1"):
        estimators.music_estimate(G, 0, np.array([0.0]), np.array([0.0]),
                                  freq_step=25e3)
    with pytest.raises(errors.ToolkitError,
                       match="order 9 >= covariance dimension 3"):
        # a 3-bin observation gives a 3 x 3 covariance
        estimators.music_estimate(np.ones(3, complex), 9,
                                  np.array([0.0]), np.array([0.0]),
                                  freq_step=25e3)


def _music_full_eigh(G, order, delays, dopplers, freq_step, time_step=1.0):
    """MUSIC's pseudospectrum as computed before the subspace iteration:
    looped snapshots, a full `eigh` and the noise-subspace GEMM, on a
    window of half of each axis (MUSIC's own when order < M / 2)."""
    G = G.reshape(G.shape[0], -1)
    M, L = G.shape
    mw, lw = (M + 1) // 2, (L + 1) // 2
    dim = mw * lw
    snaps = np.empty((dim, (M - mw + 1) * (L - lw + 1)), np.complex128)
    k = 0
    for i in range(M - mw + 1):
        for j in range(L - lw + 1):
            snaps[:, k] = G[i:i + mw, j:j + lw].reshape(-1)
            k += 1
    R = snaps @ snaps.conj().T / snaps.shape[1]
    evals, evecs = np.linalg.eigh(R)
    a_f = np.exp(2j * np.pi * freq_step * delays * np.arange(mw)[:, None])
    a_t = np.exp(2j * np.pi * time_step * dopplers * np.arange(lw)[:, None])
    S = (a_f[:, None, :, None] * a_t[None, :, None, :]).reshape(dim, -1)
    S /= np.linalg.norm(S, axis=0)
    denom = np.sum(np.abs(evecs[:, :dim - order].conj().T @ S) ** 2, axis=0)
    pseudo = 1.0 / np.maximum(denom, 1e-300).reshape(delays.size, -1)
    return pseudo, evals, R


def _assert_settled(rep, ref, evals, delays, dopplers):
    """What MUSIC's stopping rule claims against the full `eigh`'s
    pseudospectrum `ref` and ascending eigenvalues `evals`: the reported
    gap within the true one, from the lowest Ritz value to R's
    (order + 1)-th eigenvalue (the empirical margin the rule rests on);
    with the bound b = subspace_residual / subspace_gap, every cell's
    square-root denominator within b (Davis & Kahan); each Ritz value
    within the residual of its eigenvalue; and the full `eigh`'s peaks."""
    diag = rep.diagnostics
    order = diag["eigenvalues"].size
    assert not diag["eigh_fallback"]
    assert diag["subspace_gap"] <= diag["eigenvalues"][0] - evals[-order - 1]
    residual = diag["subspace_residual"]
    bound = residual / diag["subspace_gap"]
    assert np.all(np.abs(np.sqrt(1 / diag["pseudospectrum"])
                         - np.sqrt(1 / ref)) <= bound)
    assert np.all(np.abs(diag["eigenvalues"] - evals[-order:]) <= residual)
    assert [(t.delay, t.doppler) for t in rep.estimated_targets] == [
        (delays[i], dopplers[j])
        for i, j in estimators._choose_peaks(ref, order)]


_CHIRP_SWEEP = """[experiment]
schema-version = 1
trials = 1
master-seed = 2024

[scene]
file = scene.txt

[noise]
kind = white
ebn0-db = {ebn0}

[waveform]
kind = chirp
bandwidth = 8e5
duration = 5.12e-4
sample-rate = 1e6

[estimator]
kind = music
order = 2
delay-bins = 256
"""


def _chirp_music_trial(tmp_path, monkeypatch, ebn0,
                       targets=((1.0, 84e-6), (0.7j, 89e-6))):
    """The arguments and report of the MUSIC call in one harness trial: a
    512-sample chirp, two targets unless `targets` (amplitude, delay) says
    otherwise, the harness's deconvolution and grids.  An `ebn0` of None
    runs the trial without noise."""
    scene.save_scene(scene.TargetScene(
        tuple(scene.Target(h, tau, 0.0) for h, tau in targets)),
        tmp_path / "scene.txt")
    text = _CHIRP_SWEEP.format(ebn0=ebn0)
    if ebn0 is None:
        text = text.replace("kind = white\nebn0-db = None", "kind = none")
    (tmp_path / "exp.ini").write_text(text)
    cfg = harness.load_config(tmp_path / "exp.ini")
    calls = []
    real = estimators.music_estimate

    def spy(obs, order, delays, dopplers, **kw):
        calls.append((obs, order, delays, dopplers, kw,
                      real(obs, order, delays, dopplers, **kw)))
        return calls[-1][-1]

    with monkeypatch.context() as m:
        m.setattr(estimators, "music_estimate", spy)
        harness.run_trial(cfg, 0, scene.load_scene(tmp_path / "scene.txt"))
    (call,) = calls
    for got, want in zip(call[2:4], harness._grids(cfg)):
        np.testing.assert_array_equal(got, want)
    return call


@pytest.mark.parametrize("ebn0", [0, 10, 20, 30])
def test_music_signal_subspace_matches_full_eigh_on_chirp_trials(
        tmp_path, monkeypatch, ebn0):
    obs, order, delays, dopplers, kw, rep = _chirp_music_trial(
        tmp_path, monkeypatch, ebn0)
    ref, evals, R = _music_full_eigh(obs, order, delays, dopplers,
                                     kw["freq_step"])
    _assert_settled(rep, ref, evals, delays, dopplers)
    # the noise floor is trace(R) less the eigenvalues, over dim - order
    assert abs(rep.diagnostics["noise_floor"] - evals[:-order].mean()) \
        <= order * rep.diagnostics["subspace_residual"] / (256 - order)
    assert rep.cost.flop_count == (256 ** 2 * 257 + 256 ** 3
                                   + 256 * 256 * (256 - order))


@pytest.mark.parametrize("ebn0", [-10, -5])
def test_music_signal_subspace_matches_full_eigh_below_0_db_on_a_weak_target(
        tmp_path, monkeypatch, ebn0):
    # the weak target's eigenvalue lies near the noise's top one, where the
    # Ritz gap overstates the true gap the most
    obs, order, delays, dopplers, kw, rep = _chirp_music_trial(
        tmp_path, monkeypatch, ebn0, targets=((1.0, 84e-6), (0.2j, 89e-6)))
    ref, evals, _ = _music_full_eigh(obs, order, delays, dopplers,
                                     kw["freq_step"])
    _assert_settled(rep, ref, evals, delays, dopplers)


def _assert_settled_on_2d_window(snr_db, seed, second):
    targets = [scene.Target(0.8 + 0.3j, 3.2e-6, 150.0),
               scene.Target(second, 7.2e-6, -75.0)]
    # 24 x 18 bins, so MUSIC's smoothing window is 12 x 9
    G = _dd_observation(targets, M=24, L=18, snr_db=snr_db, seed=seed)
    delays = np.arange(0, 10e-6, 0.4e-6)
    dopplers = np.arange(-200.0, 201.0, 25.0)
    rep = estimators.music_estimate(G, 2, delays, dopplers, freq_step=25e3,
                                    time_step=1e-3)
    ref, evals, _ = _music_full_eigh(G, 2, delays, dopplers, 25e3, 1e-3)
    _assert_settled(rep, ref, evals, delays, dopplers)


@pytest.mark.parametrize("snr_db, seed", [(0, 1), (10, 2), (30, 3)])
def test_music_signal_subspace_matches_full_eigh_on_2d_windows(snr_db, seed):
    _assert_settled_on_2d_window(snr_db, seed, 0.5 - 0.2j)


@pytest.mark.parametrize("snr_db, seed", [(-10, 5), (-5, 6)])
def test_music_signal_subspace_matches_full_eigh_below_0_db_on_2d_windows(
        snr_db, seed):
    # a second target 18 dB below the first
    _assert_settled_on_2d_window(snr_db, seed, 0.1 - 0.04j)


@pytest.mark.parametrize("case", ["chirp", "2d-window"])
def test_music_fallback_is_the_full_eigh_bit_for_bit(tmp_path, monkeypatch,
                                                     case):
    if case == "chirp":
        obs, order, delays, dopplers, kw, _ = _chirp_music_trial(
            tmp_path, monkeypatch, 20)
    else:
        # 20 x 16 bins, so MUSIC's smoothing window is 10 x 8
        obs = _dd_observation([scene.Target(0.8 + 0.3j, 3.2e-6, 150.0)],
                              M=20, snr_db=20, seed=4)
        order, delays, dopplers = 1, np.arange(0, 10e-6, 0.4e-6), \
            np.arange(-200.0, 201.0, 25.0)
        kw = {"freq_step": 25e3, "time_step": 1e-3}
    monkeypatch.setattr(estimators, "SUBSPACE_MAX_ITER", 1)
    rep = estimators.music_estimate(obs, order, delays, dopplers, **kw)
    ref, evals, R = _music_full_eigh(obs, order, delays, dopplers, **kw)
    assert rep.diagnostics["eigh_fallback"]
    np.testing.assert_array_equal(rep.diagnostics["pseudospectrum"], ref)
    np.testing.assert_array_equal(rep.diagnostics["eigenvalues"],
                                  evals[-order:])
    assert rep.diagnostics["noise_floor"] == pytest.approx(
        (np.trace(R).real - evals[-order:].sum()) / (R.shape[0] - order))


def test_music_never_decomposes_the_full_covariance(tmp_path, monkeypatch):
    sizes = []
    real = np.linalg.eigh

    def spy(a, *args, **kw):
        sizes.append(a.shape[0])
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    *_, rep = _chirp_music_trial(tmp_path, monkeypatch, 20)
    assert not rep.diagnostics["eigh_fallback"]
    assert sizes and max(sizes) <= 2 + estimators.SUBSPACE_EXTRA


def _equal_power_pair(third: bool):
    """Noiseless G of 63 bins with targets on bins 3, 11 (and 20) of the
    grid arange(31) / (32 f): the 32-sample steering vectors of the bins
    are orthogonal, so R has the double eigenvalue 32 (and 8)."""
    f = 25e3
    bins = [(1.0, 3), (1j, 11)] + ([(0.5, 20)] if third else [])
    targets = [scene.Target(h, b / (32 * f), 0.0) for h, b in bins]
    return _dd_observation(targets, M=63, L=1, df=f)[:, 0], \
        np.arange(31) / (32 * f)


@pytest.mark.parametrize("third", [False, True], ids=["pair", "pair+third"])
def test_music_separates_an_equal_power_orthogonal_pair(third):
    # a single start vector would see one direction of the double
    # eigenvalue only, and report 8 and bin 20 in its place
    G, delays = _equal_power_pair(third)
    rep = estimators.music_estimate(G, 2, delays, np.array([0.0]),
                                    freq_step=25e3)
    got = sorted(round(t.delay * 32 * 25e3) for t in rep.estimated_targets)
    assert got == [3, 11]
    _, evals, _ = _music_full_eigh(G, 2, delays, np.array([0.0]), 25e3)
    np.testing.assert_allclose(rep.diagnostics["eigenvalues"], evals[-2:],
                               rtol=1e-10)
    np.testing.assert_allclose(evals[-2:], [32.0, 32.0], rtol=1e-10)


def test_music_three_noiseless_chirp_targets_need_no_fallback(tmp_path,
                                                             monkeypatch):
    # R has rank 3, so the second block of two loses a column: the basis
    # then holds all of R, which its Ritz values summing to trace(R) shows
    obs, order, delays, dopplers, kw, rep = _chirp_music_trial(
        tmp_path, monkeypatch, None,
        targets=((1.0, 84e-6), (0.7j, 89e-6), (0.3, 140e-6)))
    assert not rep.diagnostics["eigh_fallback"]
    _, evals, _ = _music_full_eigh(obs, order, delays, dopplers,
                                   kw["freq_step"])
    np.testing.assert_allclose(rep.diagnostics["eigenvalues"],
                               evals[-order:], rtol=1e-10)
    assert sorted(t.delay for t in rep.estimated_targets) \
        == pytest.approx([84e-6, 89e-6])


def _snapshots(G, mw, lw):
    G = G.reshape(G.shape[0], -1)
    M, L = G.shape
    return np.stack([G[i:i + mw, j:j + lw].reshape(-1)
                     for i in range(M - mw + 1) for j in range(L - lw + 1)],
                    axis=1)


@pytest.mark.parametrize("case", ["chirp", "2d-window"])
def test_snapshot_covariance_product_matches_the_snapshot_matrix(
        tmp_path, monkeypatch, case):
    if case == "chirp":
        obs, *_ = _chirp_music_trial(tmp_path, monkeypatch, 10)
        G, (mw, lw) = obs[:, None], (256, 1)
    else:
        G = _dd_observation([scene.Target(0.8 + 0.3j, 3.2e-6, 150.0),
                             scene.Target(0.5 - 0.2j, 7.2e-6, -75.0)],
                            snr_db=10, seed=8)
        mw, lw = 12, 9
    snaps = _snapshots(G, mw, lw)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((mw * lw, 3)) + 1j * rng.standard_normal(
        (mw * lw, 3))
    got = estimators._snapshot_covariance(G, mw, lw)(X)
    np.testing.assert_allclose(got, snaps @ (snaps.conj().T @ X)
                               / snaps.shape[1], rtol=1e-12)


def test_steering_matrix_is_shared_and_read_only():
    delays = np.arange(0, 10e-6, 0.4e-6)
    dopplers = np.arange(-200.0, 201.0, 25.0)
    S = estimators._steering_matrix(delays.tobytes(), dopplers.tobytes(),
                                    25e3, 1e-3, 10, 8)
    again = estimators._steering_matrix(delays.copy().tobytes(),
                                        dopplers.copy().tobytes(),
                                        25e3, 1e-3, 10, 8)
    assert again is S and not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 0
    a_f = np.exp(2j * np.pi * 25e3 * delays * np.arange(10)[:, None])
    a_t = np.exp(2j * np.pi * 1e-3 * dopplers * np.arange(8)[:, None])
    want = (a_f[:, None, :, None] * a_t[None, :, None, :]).reshape(80, -1)
    want /= np.linalg.norm(want, axis=0)
    np.testing.assert_array_equal(S, want)


def test_music_call_stays_under_3_mib(tmp_path, monkeypatch):
    # the 256 x 256 covariance and snapshot matrix alone would take 2 MiB
    obs, order, delays, dopplers, kw, _ = _chirp_music_trial(
        tmp_path, monkeypatch, 0)
    tracemalloc.start()
    try:
        rep = estimators.music_estimate(obs, order, delays, dopplers, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.diagnostics["eigh_fallback"]
    assert peak < 3 * 2 ** 20


def test_signal_subspace_rejects_a_basis_short_of_the_trace():
    # R = U M U^H, U's first two columns the iteration's fixed start block.
    # M couples 0 to nothing and 1, 2, ..., 14 in a chain, and holds its
    # largest eigenvalue, 100, on 15 alone: 15 is outside the start
    # block's Krylov space. R times the block adds one direction only, so
    # the second block loses rank, and the basis of three misses trace(R)
    dim, order = 16, 2
    rng = np.random.default_rng(0)
    start, _ = np.linalg.qr(rng.standard_normal((dim, order))
                            + 1j * rng.standard_normal((dim, order)))
    U, _ = np.linalg.qr(np.hstack([start, rng.standard_normal(
        (dim, dim - order))]))
    M = np.diag(np.r_[1.0:16.0, 100.0])
    for k in range(1, 14):
        M[k, k + 1] = M[k + 1, k] = 0.5
    R = U @ M @ U.conj().T
    assert np.allclose(U[:, :order] @ (U[:, :order].conj().T @ start), start)
    # the first step has no gap and the second misses part of the trace,
    # so neither bounds its pairs, and the iteration ends there
    steps = estimators._signal_subspace(lambda X: R @ X, dim,
                                        float(np.trace(M)), order)
    assert [(step, gap) for step, *_, gap in steps] == [(1, 0.0), (2, 0.0)]


def test_music_reports_its_subspace_steps(tmp_path, monkeypatch):
    *_, rep = _chirp_music_trial(tmp_path, monkeypatch, 20)
    assert rep.diagnostics["subspace_steps"] >= 1
    # a covariance of order + SUBSPACE_EXTRA rows or fewer goes to `eigh`
    rep = estimators.music_estimate(np.arange(1.0, 6.0), 1, np.zeros(1),
                                    np.zeros(1), freq_step=25e3)
    assert rep.diagnostics["subspace_steps"] == 0
    assert rep.diagnostics["eigh_fallback"]


def test_music_rejects_grids_that_alias():
    G = _dd_observation([scene.Target(1.0, 4e-6, 100.0)])   # 32 x 16
    dopplers = np.arange(-200.0, 201.0, 25.0)
    ok_delays = np.arange(63) / (64 * 25e3)      # span 62/64 of a period
    estimators.music_estimate(G, 1, ok_delays, dopplers, freq_step=25e3,
                              time_step=1e-3)
    with pytest.raises(errors.ToolkitError, match="delay grid"):
        estimators.music_estimate(G, 1, np.arange(65) / (64 * 25e3),
                                  dopplers, freq_step=25e3, time_step=1e-3)
    with pytest.raises(errors.ToolkitError, match="doppler grid"):
        estimators.music_estimate(G, 1, ok_delays,
                                  np.linspace(-500.0, 500.0, 9),
                                  freq_step=25e3, time_step=1e-3)
    # one slow-time column carries no Doppler, so its grid cannot alias
    estimators.music_estimate(G[:, 0], 1, ok_delays,
                              np.linspace(-500.0, 500.0, 9), freq_step=25e3,
                              time_step=1e-3)


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
    with pytest.raises(errors.ToolkitError, match="no demodulatable layout"):
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
    with pytest.raises(errors.ToolkitError,
                       match=r"cost weights sum to 0\.7, not 1"):
        estimators.tally_cost(vec, {"flops": 0.7}, 100.0)
    with pytest.raises(errors.ToolkitError, match="unknown cost components"):
        estimators.tally_cost(vec, {"nonexistent": 1.0}, 100.0)
    with pytest.raises(errors.ToolkitError, match=">= 0"):
        estimators.tally_cost({"flops": 10.0, "time_samples": 4.0},
                              {"flops": -0.5, "time_samples": 1.5}, 100.0)
    with pytest.raises(errors.ToolkitError,
                       match=r"weighted cost S=2\.0 >= 1"):
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
