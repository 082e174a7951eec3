"""Exception hierarchy shared across the toolkit, and the line grammar of
its versioned text files."""

import math
from pathlib import Path


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- channel / scene ---

class AliasError(ToolkitError):
    """A Doppler shift exceeds the representable (unaliased) range."""


class DelayError(ToolkitError):
    """A delay falls outside the configured unambiguous delay window."""


# --- waveforms ---

class LengthError(ToolkitError):
    """Bit vector length incompatible with the requested mapping."""


class LayoutError(ToolkitError):
    """Inconsistent modulation layout (active set, bit count)."""


class ZeroSignalError(ToolkitError):
    """Metric requested on an all-zero signal."""


# --- estimators ---

class GridError(ToolkitError):
    """Search grid extends beyond the representable window."""


class RankError(ToolkitError):
    """Selected atoms are numerically dependent."""


class OrderError(ToolkitError):
    """Model order too large for the available covariance dimension."""


class WeightError(ToolkitError):
    """Cost weights do not sum to one."""


class SaturationError(ToolkitError):
    """Weighted cost reaches or exceeds the saturation bound."""


# --- metrics ---

class LayoutMismatch(ToolkitError):
    """Parameter vectors with incompatible layouts."""


class SingularFisher(ToolkitError):
    """Fisher information estimate numerically singular."""


class NonStochasticChannel(ToolkitError):
    """Conditional PMF rows do not form probability distributions."""


class ZeroNoiseDensityError(ToolkitError):
    """Noise spectral density vanishes where signal energy is present."""


class DegenerateData(ToolkitError):
    """Constant data where variance is required."""


class DimensionError(ToolkitError):
    """Model dimension incompatible with the number of data points."""


class NormalizationError(ToolkitError):
    """A normalization reference constant is zero."""


# --- syncnet ---

class TopologyError(ToolkitError):
    """Missing priors, unmatched measurements or unanchored agents."""


class DegeneracyError(ToolkitError):
    """All particle weights underflowed (inconsistent measurements/priors)."""


class IdMismatch(ToolkitError):
    """Estimate and truth id sets differ."""


# --- harness ---

class ParseError(ToolkitError):
    """Malformed config or scenario file; carries line/field context."""


def key_value_lines(path, header: str, keys, repeatable=(),
                    ) -> list[tuple[int, str, str]]:
    """The ``(lineno, key, value)`` lines of a versioned text file.

    The file is UTF-8 text of `key: value` lines; `#` starts a comment and
    blank lines are skipped.  The first line left must equal `header` (such
    as 'scene-version: 1') and is not returned.  Every other line's key
    must be one of `keys`, and only a key in `repeatable` may be on more
    than one line.  Every defect raises ParseError naming `path`, with the
    line number when there is one.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected 'key: value'")
        lines.append((lineno, key.strip(), value.strip()))
    if not lines:
        raise ParseError(f"{path}: missing '{header}' header")
    lineno, key, value = lines[0]
    if f"{key}: {value}" != header:
        raise ParseError(f"{path}:{lineno}: first line must be '{header}'")
    first: dict[str, int] = {}
    for lineno, key, _ in lines[1:]:
        if key not in keys:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first and key not in repeatable:
            raise ParseError(f"{path}:{lineno}: key {key!r} repeats line "
                             f"{first[key]}")
        first.setdefault(key, lineno)
    return lines[1:]


def csv_quoted(text: str) -> bool:
    """Whether a CSV field holding `text` needs quotes (',', '"', a break)."""
    return any(c in text for c in ',"') or "".join(text.splitlines()) != text


def positive(text: str) -> float:
    """A line's value that must be a finite number > 0."""
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"expected a finite value > 0, got {text!r}")
    return v


class ValidationError(ToolkitError):
    """One or more config constraints violated; aggregates all of them."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
