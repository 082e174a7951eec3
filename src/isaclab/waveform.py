"""Transmit waveforms (PSK frames, OFDM grids, chirps) and signal criteria."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulationLayout:
    """Describes how bits are mapped onto the waveform resource grid.

    kind is one of 'single-carrier-psk', 'ofdm', 'chirp'.  For OFDM the grid
    is (n_subcarriers x n_symbols) and every cell of an active subcarrier
    carries data.  data_bits are laid out subcarrier-major within each
    symbol, symbols in time order.
    """

    kind: str
    bits_per_symbol: int = 1
    n_subcarriers: int = 0
    n_symbols: int = 0
    active_subcarriers: tuple[int, ...] = ()
    data_bits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    oversampling: int = 1

    def __post_init__(self):
        object.__setattr__(self, "data_bits",
                           np.asarray(self.data_bits, dtype=np.uint8))
        if self.kind == "ofdm":
            active_idx = self.active_subcarriers
            if len(active_idx) == 0:
                raise errors.ToolkitError("OFDM layout needs active subcarriers")
            if len(set(active_idx)) != len(active_idx) or not all(
                    0 <= k < self.n_subcarriers for k in active_idx):
                raise errors.ToolkitError(
                    f"active subcarriers {active_idx} are not distinct "
                    f"indices in [0, {self.n_subcarriers})")
            n_data = len(active_idx) * self.n_symbols
            if n_data * self.bits_per_symbol != self.data_bits.size:
                raise errors.ToolkitError(
                    f"{n_data} data cells x {self.bits_per_symbol} bits != "
                    f"{self.data_bits.size} data bits")


@dataclass(frozen=True)
class Waveform:
    """Complex baseband samples with time/frequency support descriptors."""

    samples: np.ndarray
    sample_rate: float
    band: tuple[float, float]
    layout: ModulationLayout | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))
        fs = self.sample_rate
        lo, hi = self.band
        if not (-fs / 2 - 1e-9 <= lo < hi <= fs / 2 + 1e-9):
            raise ValueError(f"band {self.band} outside [-fs/2, fs/2]")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def energy(self) -> float:
        """Continuous-convention energy: sum |u|^2 / fs."""
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)


@dataclass(frozen=True)
class SpectrumProfile:
    """Sampled power spectral density; integrates to the signal power."""

    freqs: np.ndarray      # Hz, ascending
    psd: np.ndarray        # W/Hz, nonnegative


# ---------------------------------------------------------------------------
# symbol mappings
# ---------------------------------------------------------------------------

def map_psk(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Gray-mapped unit-energy BPSK/QPSK symbols.

    BPSK: bit 0 -> +1, bit 1 -> -1.
    QPSK: first bit sets the sign of the real part, second bit of the
    imaginary part (Gray: adjacent constellation points differ in one bit).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits_per_symbol not in (1, 2):
        raise errors.ToolkitError(f"bits_per_symbol must be 1 or 2, got {bits_per_symbol}")
    if bits.size % bits_per_symbol:
        raise errors.ToolkitError(
            f"{bits.size} bits not divisible by {bits_per_symbol}")
    if bits_per_symbol == 1:
        return (1.0 - 2.0 * bits).astype(np.complex128)
    b = bits.reshape(-1, 2).astype(float)
    return ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1])) / _SQRT2


def slice_psk(symbols: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Hard decision, inverse of map_psk."""
    symbols = np.asarray(symbols)
    if bits_per_symbol == 1:
        return (symbols.real < 0).astype(np.uint8)
    out = np.empty((symbols.size, 2), np.uint8)
    out[:, 0] = symbols.real < 0
    out[:, 1] = symbols.imag < 0
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_psk_frame(bits, bits_per_symbol: int, sample_rate: float,
                       oversampling: int = 1) -> Waveform:
    """Rectangular-pulse PSK frame with unit energy per symbol sample."""
    symbols = map_psk(bits, bits_per_symbol)
    samples = np.repeat(symbols, oversampling)
    rs = sample_rate / oversampling
    layout = ModulationLayout(kind="single-carrier-psk",
                              bits_per_symbol=bits_per_symbol,
                              data_bits=np.asarray(bits, np.uint8),
                              oversampling=oversampling)
    return Waveform(samples, sample_rate, (-rs / 2, rs / 2), layout)


def generate_ofdm(layout: ModulationLayout, sample_rate: float,
                  cp_length: int) -> Waveform:
    """Inverse-DFT OFDM synthesis with cyclic prefix.

    Subcarrier k occupies DFT bin k (frequency k*fs/n_sc, aliased to the
    baseband interval).  Every active cell carries a Gray-mapped PSK symbol
    of layout.data_bits.
    """
    if layout.kind != "ofdm":
        raise errors.ToolkitError("layout kind must be 'ofdm'")
    n_sc, n_sym = layout.n_subcarriers, layout.n_symbols
    if cp_length >= n_sc:
        raise errors.ToolkitError(f"cp_length {cp_length} >= symbol length {n_sc}")
    active = np.zeros(n_sc, bool)
    active[list(layout.active_subcarriers)] = True

    grid = np.zeros((n_sc, n_sym), np.complex128)
    syms = map_psk(layout.data_bits, layout.bits_per_symbol)
    # column-major fill would scatter across symbols; fill symbol by symbol,
    # subcarrier-major, to match the demodulator traversal
    grid.T[:, active] = syms.reshape(n_sym, active.sum())

    time_syms = np.fft.ifft(grid, axis=0) * np.sqrt(n_sc)
    with_cp = np.concatenate([time_syms[n_sc - cp_length:], time_syms])
    samples = with_cp.reshape(-1, order="F")

    df = sample_rate / n_sc
    freqs = np.fft.fftfreq(n_sc, 1.0 / sample_rate)
    used = freqs[list(layout.active_subcarriers)]
    band = (float(used.min() - df / 2), float(used.max() + df / 2))
    band = (max(band[0], -sample_rate / 2), min(band[1], sample_rate / 2))
    return Waveform(samples, sample_rate, band, layout)


def ofdm_grid(samples: np.ndarray, layout: ModulationLayout) -> np.ndarray:
    """The (n_subcarriers, n_symbols) grid of whole OFDM symbols, the inverse
    of `generate_ofdm`: per symbol, CP removal and a unitary DFT."""
    n_sc = layout.n_subcarriers
    blocks = samples.reshape(-1, layout.n_symbols, order="F")[-n_sc:]
    return np.fft.fft(blocks, axis=0) / np.sqrt(n_sc)


def generate_chirp(bandwidth: float, duration: float,
                   sample_rate: float) -> Waveform:
    """Unit-amplitude linear FM sweep from -B/2 to +B/2."""
    if bandwidth > sample_rate:
        raise ValueError("bandwidth exceeds sample rate")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    phase = 2 * np.pi * (-bandwidth / 2 * t + bandwidth / (2 * duration) * t ** 2)
    layout = ModulationLayout(kind="chirp")
    half = max(bandwidth / 2, sample_rate / (2 * max(n, 1)))
    return Waveform(np.exp(1j * phase), sample_rate, (-half, half), layout)


# ---------------------------------------------------------------------------
# signal criteria
# ---------------------------------------------------------------------------

def papr(u: Waveform) -> float:
    """Peak-to-average power ratio max|u|^2 / mean|u|^2 (linear)."""
    p = np.abs(u.samples) ** 2
    if not p.any():
        raise errors.ToolkitError("PAPR of an all-zero signal")
    return float(p.max() / p.mean())


def spectrum_profile(u: Waveform) -> SpectrumProfile:
    """Periodogram PSD; Parseval-exact (integrates to the signal power)."""
    n = len(u)
    spec = np.fft.fftshift(np.abs(np.fft.fft(u.samples)) ** 2)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, 1.0 / u.sample_rate))
    psd = spec / (n * u.sample_rate)
    return SpectrumProfile(freqs, psd)


def energy_spectral_density(u: Waveform) -> SpectrumProfile:
    """|u(f)|^2 with the continuous-transform scaling (integrates to energy)."""
    prof = spectrum_profile(u)
    return SpectrumProfile(prof.freqs, prof.psd * u.duration)
