"""Delay-Doppler target scenes, clutter and noise, and the LTV channel."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .waveform import Waveform


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One point scatterer: complex gain, delay (s, >= 0), Doppler (Hz)."""

    amplitude: complex
    delay: float
    doppler: float

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ValueError("target amplitude must be finite")
        if not np.isfinite(self.delay) or self.delay < 0:
            raise ValueError(f"target delay must be finite and >= 0, got {self.delay}")
        if not np.isfinite(self.doppler):
            raise ValueError("target doppler must be finite")


@dataclass(frozen=True)
class ClutterModel:
    """Homogeneous Poisson scatterer field over a delay-Doppler rectangle.

    density is in scatterers per unit delay-Doppler area (s*Hz); gains are
    i.i.d. circular complex Gaussian with std amplitude_scale.
    """

    density: float
    amplitude_scale: float
    delay_span: tuple[float, float]
    doppler_span: tuple[float, float]

    def __post_init__(self):
        if not np.isfinite([self.density, self.amplitude_scale,
                            *self.delay_span, *self.doppler_span]).all():
            raise ValueError("clutter values must be finite")
        if self.density < 0:
            raise ValueError("clutter density must be >= 0")
        if self.amplitude_scale < 0:
            raise ValueError("clutter amplitude scale must be >= 0")
        if self.delay_span[0] < 0 or self.delay_span[1] < self.delay_span[0]:
            raise ValueError(f"bad delay span {self.delay_span}")
        if self.doppler_span[1] < self.doppler_span[0]:
            raise ValueError(f"bad doppler span {self.doppler_span}")

    @property
    def area(self) -> float:
        return ((self.delay_span[1] - self.delay_span[0])
                * (self.doppler_span[1] - self.doppler_span[0]))


def _check_label(label: str) -> None:
    """A label is a scenario name: rows.csv must hold it unquoted, and a
    scene file's `label:` line must read it back unchanged."""
    if errors.csv_quoted(label) or "#" in label or label != label.strip():
        raise ValueError(f"label {label!r} must hold no ',', '\"', '#' or "
                         f"line break, and no surrounding whitespace")


@dataclass(frozen=True)
class TargetScene:
    """Sparse scatterer set plus optional clutter description."""

    targets: tuple[Target, ...]
    clutter: ClutterModel | None = None
    label: str = ""

    def __post_init__(self):
        _check_label(self.label)
        object.__setattr__(self, "targets", tuple(self.targets))
        seen = set()
        for t in self.targets:
            key = (t.delay, t.doppler)
            if key in seen:
                raise ValueError(f"degenerate scene: duplicate (tau, nu) {key}")
            seen.add(key)


@dataclass(frozen=True)
class NoiseModel:
    """Sampled noise PSD over a band, with a generation seed.

    psd holds P_nn(f) in W/Hz at len(psd) >= 2 uniform samples spanning
    band, the first at band[0] and the last at band[1].
    """

    psd: np.ndarray
    band: tuple[float, float]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "psd", np.asarray(self.psd, dtype=float))
        if (self.psd < 0).any():
            raise ValueError("noise PSD samples must be >= 0")
        if self.psd.size < 2:
            raise ValueError("a noise PSD needs at least 2 samples to "
                             "span its band")

    @property
    def freqs(self) -> np.ndarray:
        return np.linspace(self.band[0], self.band[1], self.psd.size)

    @property
    def enabled(self) -> bool:
        return bool((self.psd > 0).any())

    @classmethod
    def white(cls, level: float, band: tuple[float, float], seed: int = 0,
              n: int = 64) -> "NoiseModel":
        return cls(np.full(n, level), band, seed)


@dataclass(frozen=True)
class SensingPrior:
    """Spectral variance sigma_g^2(f) of the random impulse response, at
    len(spectral_variance) >= 2 uniform samples spanning band."""

    spectral_variance: np.ndarray
    band: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "spectral_variance",
                           np.asarray(self.spectral_variance, dtype=float))
        if (self.spectral_variance < 0).any():
            raise ValueError("spectral variance samples must be >= 0")
        if self.spectral_variance.size < 2:
            raise ValueError("a spectral variance needs at least 2 samples "
                             "to span its band")

    @property
    def freqs(self) -> np.ndarray:
        return np.linspace(self.band[0], self.band[1],
                           self.spectral_variance.size)


@dataclass(frozen=True)
class ReceivedSignal:
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))

    def __len__(self):
        return self.samples.size


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_dd_response(scene: TargetScene, t, f):
    """Delay-Doppler response sum_p h_p e^{j2pi t nu_p} e^{j2pi f tau_p}
    as an array over the broadcast shape of t and f."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    out = np.zeros(np.broadcast(t, f).shape, dtype=np.complex128)
    for tgt in scene.targets:
        out += tgt.amplitude * np.exp(2j * np.pi * t * tgt.doppler) \
                             * np.exp(2j * np.pi * f * tgt.delay)
    return out


def _colored_noise(n: int, fs: float, noise: NoiseModel) -> np.ndarray:
    """White complex-Gaussian samples shaped by sqrt(PSD) in frequency."""
    rng = np.random.default_rng(noise.seed)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    grid = np.fft.fftfreq(n, 1.0 / fs)
    psd = np.interp(grid, noise.freqs, noise.psd, left=0.0, right=0.0)
    # unit-variance white discrete noise has two-sided PSD 1/fs
    shaped = np.fft.ifft(np.fft.fft(w) * np.sqrt(psd * fs))
    return shaped


def apply_channel(u: Waveform, scene: TargetScene,
                  noise: NoiseModel | None = None,
                  max_delay: float | None = None) -> ReceivedSignal:
    """y(t) = sum_p h_p u(t - tau_p) e^{j2pi nu_p t} + n(t).

    Delays are applied by frequency-domain phase ramps (band-limited
    fractional-delay interpolation); Doppler modulates the delayed copy at
    the channel output.  The output covers the full delay spread.
    max_delay bounds the unambiguous delay window (default: one frame).
    """
    fs = u.sample_rate
    window = u.duration if max_delay is None else max_delay
    for tgt in scene.targets:
        if abs(tgt.doppler) > fs / 2:
            raise errors.ToolkitError(
                f"doppler {tgt.doppler} Hz exceeds fs/2 = {fs / 2} Hz")
        if tgt.delay > window:
            raise errors.ToolkitError(
                f"delay {tgt.delay} s exceeds window {window} s")
    spread = max((t.delay for t in scene.targets), default=0.0)
    n_out = len(u) + int(np.ceil(spread * fs))
    y = np.zeros(n_out, np.complex128)
    if scene.targets:
        pad = np.zeros(n_out, np.complex128)
        pad[:len(u)] = u.samples
        spec = np.fft.fft(pad)
        k = np.fft.fftfreq(n_out)
        t_out = np.arange(n_out) / fs
        for tgt in scene.targets:
            shift = tgt.delay * fs
            delayed = np.fft.ifft(spec * np.exp(-2j * np.pi * k * shift))
            y += tgt.amplitude * delayed * np.exp(2j * np.pi * tgt.doppler * t_out)
    if noise is not None and noise.enabled:
        y = y + _colored_noise(n_out, fs, noise)
    return ReceivedSignal(y, fs)


def generate_clutter(model: ClutterModel, seed: int) -> TargetScene:
    """Poisson-count scatterers uniform in the region, CN(0, scale^2) gains."""
    rng = np.random.default_rng(seed)
    count = rng.poisson(model.density * model.area)
    taus = rng.uniform(*model.delay_span, size=count)
    nus = rng.uniform(*model.doppler_span, size=count)
    amps = (model.amplitude_scale / np.sqrt(2)
            * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    targets = tuple(Target(complex(a), float(t), float(n))
                    for a, t, n in zip(amps, taus, nus))
    return TargetScene(targets, label=f"clutter(seed={seed})")


def merge_scenes(*scenes: TargetScene, label: str = "") -> TargetScene:
    targets = tuple(t for s in scenes for t in s.targets)
    return TargetScene(targets, label=label)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

def save_scene(scene: TargetScene, path) -> None:
    """Write the structured-text scene format (see load_scene)."""
    lines = ["scene-version: 1"]
    if scene.label:
        lines.append(f"label: {scene.label}")
    for t in scene.targets:
        lines.append(f"target: {t.amplitude.real!r} {t.amplitude.imag!r} "
                     f"{t.delay!r} {t.doppler!r}")
    c = scene.clutter
    if c is not None:
        lines.append(f"clutter: {c.density!r} {c.amplitude_scale!r} "
                     f"{c.delay_span[0]!r} {c.delay_span[1]!r} "
                     f"{c.doppler_span[0]!r} {c.doppler_span[1]!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_frame(what: str, delay: float, frame: float | None) -> None:
    if frame is not None and delay > frame:
        raise ValueError(f"{what} {delay!r} s exceeds the probe's frame of "
                         f"{frame!r} s")


def _check_nyquist(what: str, doppler: float,
                   sample_rate: float | None) -> None:
    if sample_rate is not None and abs(doppler) > sample_rate / 2:
        raise ValueError(f"{what} {doppler!r} Hz exceeds half the sample "
                         f"rate, {sample_rate / 2!r} Hz")


def _outside(what: str, value: float, unit: str, span) -> list[str]:
    if span is None or span[0] <= value <= span[1]:
        return []
    lo, hi = span
    return [f"target {what} {value!r} {unit} is outside {lo!r} to {hi!r} "
            f"{unit}, the estimator's {what} grid and half a cell past each "
            f"end"]


def load_scene(path, frame: float | None = None,
               sample_rate: float | None = None, grid=None) -> TargetScene:
    """Parse a scene file (the line grammar of `errors.key_value_lines`).

    Keys:

        scene-version: 1                (required, first non-comment line)
        label: <text>                   (optional)
        target: re im tau_s nu_hz       (one per target)
        clutter: density scale tau_lo tau_hi nu_lo nu_hi   (optional)

    Only `target` may repeat. With `frame`, the probe's duration in s, a
    target delay or a clutter delay span's upper end past it, which
    `apply_channel` cannot delay, is a ParseError at its line; with
    `sample_rate`, so is a target Doppler or a clutter Doppler span's end
    past half of it, which `apply_channel` cannot shift. With `grid`, the
    ``(low, high)`` delay and Doppler spans an estimator's grid covers
    (a Doppler span of None takes any Doppler), every target outside them
    is a ValidationError naming its line.
    """
    targets: list[Target] = []
    clutter = None
    label = ""
    outside = []
    for lineno, key, rest in errors.key_value_lines(
            path, "scene-version: 1", ("label", "target", "clutter"),
            repeatable=("target",)):
        try:
            if key == "label":
                _check_label(rest)
                label = rest
            elif key == "target":
                parts = rest.split()
                if len(parts) != 4:
                    raise ValueError("target needs 4 fields (re im tau nu)")
                re_, im, tau, nu = (float(p) for p in parts)
                targets.append(Target(complex(re_, im), tau, nu))
                _check_frame("target delay", tau, frame)
                _check_nyquist("target Doppler", nu, sample_rate)
                if grid is not None:
                    outside += [f"{path}:{lineno}: {problem}" for problem in
                                _outside("delay", tau, "s", grid[0])
                                + _outside("Doppler", nu, "Hz", grid[1])]
            else:                                       # clutter
                parts = rest.split()
                if len(parts) != 6:
                    raise ValueError("clutter needs 6 fields")
                d, s, t0, t1, n0, n1 = (float(p) for p in parts)
                clutter = ClutterModel(d, s, (t0, t1), (n0, n1))
                _check_frame("clutter delay span's upper end", t1, frame)
                _check_nyquist("clutter Doppler span's end",
                               max(n0, n1, key=abs), sample_rate)
        except (ValueError, TypeError) as exc:
            raise errors.ParseError(f"{path}:{lineno}: {exc}") from None
    try:
        scn = TargetScene(tuple(targets), clutter, label)
    except ValueError as exc:
        raise errors.ParseError(f"{path}: {exc}") from None
    if outside:
        raise errors.ValidationError(outside)
    return scn
