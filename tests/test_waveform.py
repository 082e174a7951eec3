import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isaclab import errors, waveform


def test_bpsk_mapping():
    syms = waveform.map_psk(np.array([0, 1, 1, 0]), 1)
    assert np.array_equal(syms, [1, -1, -1, 1])


def test_qpsk_mapping_gray():
    syms = waveform.map_psk(np.array([0, 0, 0, 1, 1, 0, 1, 1]), 2)
    s2 = np.sqrt(2.0)
    expect = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / s2
    assert np.allclose(syms, expect)
    # unit energy
    assert np.allclose(np.abs(syms), 1.0)


def test_psk_roundtrip():
    rng = np.random.default_rng(0)
    for bps in (1, 2):
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(
            waveform.slice_psk(waveform.map_psk(bits, bps), bps), bits)


def test_map_psk_length_errors():
    with pytest.raises(errors.LengthError):
        waveform.map_psk(np.array([0, 1, 0]), 2)
    with pytest.raises(errors.LengthError):
        waveform.map_psk(np.array([0, 1]), 3)


def test_psk_frame_shape_and_energy():
    bits = np.array([0, 1, 0, 0], np.uint8)
    u = waveform.generate_psk_frame(bits, 1, 1e6, oversampling=4)
    assert len(u) == 16
    assert np.mean(np.abs(u.samples) ** 2) == pytest.approx(1.0)
    assert u.energy == pytest.approx(16 / 1e6)
    assert u.layout.kind == "single-carrier-psk"


def test_ofdm_grid_oracle():
    # one symbol, all subcarriers active: the time samples must be
    # the IDFT of the PSK symbols scaled by sqrt(n_sc), CP = last cp samples
    n_sc, cp = 8, 2
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, n_sc).astype(np.uint8)
    lay = waveform.ModulationLayout(kind="ofdm", bits_per_symbol=1,
                                    n_subcarriers=n_sc, n_symbols=1,
                                    active_subcarriers=tuple(range(n_sc)),
                                    data_bits=bits)
    u = waveform.generate_ofdm(lay, 1e6, cp)
    syms = waveform.map_psk(bits, 1)
    body = np.fft.ifft(syms) * np.sqrt(n_sc)
    assert np.allclose(u.samples[cp:], body)
    assert np.allclose(u.samples[:cp], body[-cp:])
    # Parseval: body power is exactly the mean subcarrier symbol energy
    assert np.mean(np.abs(body) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_ofdm_data_layout():
    # subcarrier 0 inactive: it stays empty, and the data fill is
    # subcarrier-major over the active ones within each symbol
    n_sc, n_sym = 4, 2
    bits = (np.arange(6) % 2).astype(np.uint8)
    lay = waveform.ModulationLayout(kind="ofdm", bits_per_symbol=1,
                                    n_subcarriers=n_sc, n_symbols=n_sym,
                                    active_subcarriers=(1, 2, 3),
                                    data_bits=bits)
    u = waveform.generate_ofdm(lay, 1e6, 0)
    grid = np.fft.fft(u.samples.reshape(n_sc, n_sym, order="F"),
                      axis=0) / np.sqrt(n_sc)
    assert np.allclose(grid[0, :], 0.0)
    syms = waveform.map_psk(bits, 1)
    assert np.allclose(grid[1:, 0], syms[:3])
    assert np.allclose(grid[1:, 1], syms[3:])


def test_ofdm_layout_validation():
    with pytest.raises(errors.LayoutError):
        waveform.ModulationLayout(kind="ofdm", n_subcarriers=4, n_symbols=1,
                                  active_subcarriers=(),
                                  data_bits=np.zeros(4, np.uint8))
    with pytest.raises(errors.LayoutError):
        # wrong bit count for the data cells
        waveform.ModulationLayout(kind="ofdm", n_subcarriers=4, n_symbols=1,
                                  active_subcarriers=(0, 1),
                                  data_bits=np.zeros(3, np.uint8))


@pytest.mark.parametrize("active", [(1, 2, 99), (0, 1, -1), (1, 1, 2)],
                         ids=["out-of-range", "negative", "repeated"])
def test_ofdm_layout_rejects_bad_active_subcarriers(active):
    with pytest.raises(errors.LayoutError, match="active subcarriers"):
        waveform.ModulationLayout(kind="ofdm", n_subcarriers=16, n_symbols=1,
                                  active_subcarriers=active,
                                  data_bits=np.zeros(3, np.uint8))


def test_chirp_sweep_and_unit_amplitude():
    u = waveform.generate_chirp(2e5, 1e-3, 1e6)
    assert len(u) == 1000
    assert np.allclose(np.abs(u.samples), 1.0)
    # instantaneous frequency sweeps -B/2 -> +B/2: check via phase differences
    inst = np.diff(np.unwrap(np.angle(u.samples))) * 1e6 / (2 * np.pi)
    assert inst[0] == pytest.approx(-1e5, rel=0.02)
    assert inst[-1] == pytest.approx(1e5, rel=0.02)


def test_papr():
    u = waveform.generate_chirp(1e5, 1e-3, 1e6)
    assert waveform.papr(u) == pytest.approx(1.0)
    x = waveform.Waveform(np.array([1.0, 0.0, 0.0, 0.0]), 1e6, (-5e5, 5e5))
    assert waveform.papr(x) == pytest.approx(4.0)
    with pytest.raises(errors.ZeroSignalError):
        waveform.papr(waveform.Waveform(np.zeros(8), 1e6, (-5e5, 5e5)))


def test_spectrum_profile_parseval():
    rng = np.random.default_rng(2)
    u = waveform.Waveform(rng.standard_normal(128)
                          + 1j * rng.standard_normal(128), 1e6, (-5e5, 5e5))
    prof = waveform.spectrum_profile(u)
    df = 1e6 / 128
    assert np.sum(prof.psd) * df == pytest.approx(
        np.mean(np.abs(u.samples) ** 2), rel=1e-12)
    esd = waveform.energy_spectral_density(u)
    assert np.sum(esd.psd) * df == pytest.approx(u.energy, rel=1e-12)


@given(st.integers(1, 64), st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_psk_roundtrip_property(n_sym, bps):
    rng = np.random.default_rng(n_sym * 7 + bps)
    bits = rng.integers(0, 2, n_sym * bps).astype(np.uint8)
    u = waveform.generate_psk_frame(bits, bps, 1e6)
    syms = u.samples
    assert np.array_equal(waveform.slice_psk(syms, bps), bits)
    assert np.allclose(np.abs(syms), 1.0)
