"""Configuration-driven experiment runner with deterministic CSV output."""

from __future__ import annotations

import configparser
import json
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import errors, estimators, metrics, scene, syncnet, unified, waveform

_MASK64 = (1 << 64) - 1

CSV_HEADER = "trial,scenario,estimator,metric,value,units,seed"

# each metric's unit, under the kind of trial record that holds it
_SENSING_METRICS = {"papr": "ratio", "ber": "ratio", "ser": "ratio",
                    "delay_rmse": "s", "doppler_rmse": "Hz",
                    "residual_energy": "energy", "r_squared": "ratio",
                    "w_cost": "ratio", "estimator_j": "score"}
_SYNC_METRICS = {"agent_position_error": "m", "position_rms_m": "m",
                 "to_rms_s": "s"}
_KNOWN_METRICS = _SENSING_METRICS | _SYNC_METRICS


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------

def splitmix64(x: int) -> int:
    """One step of the SplitMix64 mixer (public 64-bit finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, trial_index: int, component: str = "") -> int:
    """Documented splitting rule: mix the master seed with the trial index
    and each component-name byte through SplitMix64."""
    x = splitmix64((master_seed & _MASK64) ^ splitmix64(trial_index + 1))
    for ch in component.encode("utf-8"):
        x = splitmix64(x ^ ch)
    return x


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _setting(default, section, key, cast=str, rule=None):
    """A config field: its default, the INI `[section]` and `key` it is read
    from, the `cast` of the text, and the `rule` (check, wording) that the
    value must meet."""
    made = ({"default_factory": default.copy} if isinstance(default, dict)
            else {"default": default})
    return field(metadata={"ini": (section, key, cast, rule)}, **made)


def _ge(lo):
    return (lambda v: v >= lo), f">= {lo}"


def _one_of(*choices):
    return (lambda v: v in choices), "|".join(map(str, choices))


_POSITIVE = (lambda v: v > 0), "> 0"
_UNIT = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"


def _items(text):
    """The non-empty entries of a comma-separated list."""
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _cost_weights(text):
    """`name:weight` pairs as a dict; ValidationError lists every defect."""
    cw, problems = {}, []
    for part in _items(text):
        name, _, val = part.partition(":")
        name = name.strip()
        if name in cw:
            problems.append(f"[unified] cost-weight name {name!r} is repeated")
        try:
            cw[name] = float(val)
        except ValueError:
            problems.append(f"[unified] bad cost-weight entry {part!r}")
            continue
        if not np.isfinite(cw[name]):
            problems.append(f"[unified] cost-weight {part!r} is not finite")
        elif cw[name] < 0:
            problems.append(f"[unified] cost-weight {part!r} must be >= 0")
        if name not in estimators.CostLedger.COMPONENTS:
            problems.append(f"[unified] cost-weight {part!r} names an unknown "
                            f"cost component (known: "
                            f"{sorted(estimators.CostLedger.COMPONENTS)})")
    if abs(sum(cw.values()) - 1.0) > 1e-9:
        problems.append(f"[unified] cost-weights sum to {sum(cw.values())}, not 1")
    if problems:
        raise errors.ValidationError(problems)
    return cw


def _sweep_values(text):
    """The swept values as floats; ValidationError lists every defect."""
    vals, problems = [], []
    for part in _items(text):
        try:
            vals.append(float(part))
        except ValueError:
            problems.append(f"[sweep] bad value {part!r}")
            continue
        if not np.isfinite(vals[-1]):
            problems.append(f"[sweep] value {part!r} is not finite")
    if problems:
        raise errors.ValidationError(problems)
    return tuple(vals)


@dataclass
class ExperimentConfig:
    """Every experiment setting, each declared once by `_setting`, which
    `load_config` reads: a field's default applies when its key is
    absent, and a value that fails its rule is a ValidationError."""

    schema_version: int | None = _setting(None, "experiment", "schema-version",
                                          int)
    trials: int = _setting(1, "experiment", "trials", int, _ge(1))
    master_seed: int = _setting(0, "experiment", "master-seed", int)
    # processes that run shares of the trials, forked from this one: at most
    # one per trial and per available CPU; rows are the same at any value
    workers: int = _setting(1, "experiment", "workers", int, _ge(1))
    output_dir: str = _setting("out", "experiment", "output-dir")
    store_reports: bool = _setting(
        False, "experiment", "store-reports",
        lambda text: {"true": True, "false": False}.get(text.lower()),
        ((lambda v: v is not None), "true or false"))
    scene_file: str | None = _setting(None, "scene", "file")
    # None when not given: no noise, as for 'none', but only an explicit
    # 'none' conflicts with an Eb/N0
    noise_kind: str | None = _setting(None, "noise", "kind", str,
                                      _one_of("none", "white"))
    noise_level: float = _setting(0.0, "noise", "level", float, _ge(0))
    ebn0_db: float | None = _setting(None, "noise", "ebn0-db", float)
    wf_kind: str | None = _setting(None, "waveform", "kind", str,
                                   _one_of("psk", "ofdm", "chirp"))
    bits: int = _setting(1000, "waveform", "bits", int, _ge(1))
    bits_per_symbol: int = _setting(1, "waveform", "bits-per-symbol", int,
                                    _one_of(1, 2))
    sample_rate: float = _setting(1e6, "waveform", "sample-rate", float,
                                  _POSITIVE)
    oversampling: int = _setting(1, "waveform", "oversampling", int, _ge(1))
    bandwidth: float = _setting(1e5, "waveform", "bandwidth", float, _POSITIVE)
    duration: float = _setting(1e-3, "waveform", "duration", float, _POSITIVE)
    subcarriers: int = _setting(64, "waveform", "subcarriers", int, _ge(2))
    symbols: int = _setting(4, "waveform", "symbols", int, _ge(1))
    cp: int = _setting(16, "waveform", "cp", int, _ge(0))
    # None for 'all'; the range [0, subcarriers) is checked across keys
    active: tuple[int, ...] | None = _setting(
        None, "waveform", "active",
        lambda text: None if text == "all" else tuple(map(int, text.split())),
        ((lambda v: v is None or 0 < len(v) == len(set(v))),
         "'all' or distinct subcarrier indices"))
    est_kind: str = _setting("none", "estimator", "kind", str,
                             _one_of("none", "matched-filter", "omp", "music"))
    threshold_db: float = _setting(-13.0, "estimator", "threshold-db", float)
    sparsity: int = _setting(1, "estimator", "sparsity", int, _ge(0))
    order: int = _setting(1, "estimator", "order", int, _ge(1))
    delay_bins: int = _setting(16, "estimator", "delay-bins", int, _ge(1))
    doppler_bins: int = _setting(1, "estimator", "doppler-bins", int, _ge(1))
    doppler_max: float = _setting(0.0, "estimator", "doppler-max", float,
                                  _ge(0))
    metric_list: tuple[str, ...] = _setting(
        (), "metrics", "list", _items,
        ((lambda v: all(n in _KNOWN_METRICS for n in v)),
         f"names from {sorted(_KNOWN_METRICS)}"))
    lam: float = _setting(0.5, "unified", "lambda", float, _UNIT)
    cost_weights: dict = _setting({"flops": 1.0}, "unified", "cost-weights",
                                  _cost_weights)
    c_max: float = _setting(1e12, "unified", "c-max", float, _POSITIVE)
    form: str = _setting("fpe", "unified", "form", str,
                         _one_of("fpe", "additive"))
    sync_file: str | None = _setting(None, "sync", "file")
    sweep_parameter: str | None = _setting(None, "sweep", "parameter", str,
                                           _one_of("lambda", "ebn0-db"))
    sweep_values: tuple[float, ...] = _setting((), "sweep", "values",
                                               _sweep_values)
    base_dir: Path = Path(".")


def load_config(path, overrides=None) -> ExperimentConfig:
    """Load and validate an experiment config, reporting every violation.

    `overrides` maps field names to values that replace the file's, such
    as ``{"master_seed": 7}``, and pass the same cast and rule; None keeps
    the file's value.
    """
    path = Path(path)
    # no interpolation: a '%' in a value is literal text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise errors.ParseError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise errors.ParseError(f"{path}: {exc}") from None

    settings = {f.metadata["ini"][:2]: f for f in fields(ExperimentConfig)
                if "ini" in f.metadata}
    problems: list[str] = []
    for section in parser.sections():
        if section not in {s for s, _ in settings}:
            problems.append(f"unknown section [{section}]")
            continue
        problems += [f"unknown key {key!r} in [{section}]"
                     for key in parser[section]
                     if (section, key) not in settings]

    cfg = ExperimentConfig(base_dir=path.parent)
    overrides = overrides or {}
    for (section, key), f in settings.items():
        cast, rule = f.metadata["ini"][2:]
        if overrides.get(f.name) is not None:
            raw = overrides[f.name]
        elif parser.has_option(section, key):
            raw = parser[section][key]
        else:
            continue
        try:
            value = cast(raw)
        except ValueError:
            problems.append(f"[{section}] {key} = {raw!r}: not a valid value")
            continue
        except errors.ValidationError as exc:
            problems += exc.problems
            continue
        if cast is float and not np.isfinite(value):
            problems.append(f"[{section}] {key} = {raw!r}: not a finite value")
        elif rule is not None and not rule[0](value):
            problems.append(f"[{section}] {key} = {raw!r}: "
                            f"{key} must be {rule[1]}")
        else:
            setattr(cfg, f.name, value)

    # a [sync] file without a [metrics] list lists every sync metric
    if cfg.sync_file is not None and not parser.has_option("metrics", "list"):
        cfg.metric_list = tuple(_SYNC_METRICS)
    # checks across keys
    if "experiment" not in parser:
        problems.append("missing [experiment] section")
    elif cfg.schema_version != 1:
        problems.append(f"[experiment] schema-version must be 1, "
                        f"got {cfg.schema_version}")
    for section, name in (("scene", cfg.scene_file), ("sync", cfg.sync_file)):
        if name is None:
            continue
        if not (cfg.base_dir / name).exists():
            problems.append(f"[{section}] file {name!r} does not exist")
        # the stem names the scenario in rows.csv, unless a scene label does
        if errors.csv_quoted(Path(name).stem):
            problems.append(f"[{section}] file {name!r}: its stem names the "
                            f"scenario, and rows.csv cannot hold a ',', "
                            f"'\"' or line break unquoted")
    # waveform values that would fail every trial, checked without building
    # the waveform, whose `bits` may be huge
    if cfg.wf_kind == "psk" and cfg.bits < cfg.bits_per_symbol:
        problems.append(f"[waveform] bits = {cfg.bits} is fewer than "
                        f"bits-per-symbol = {cfg.bits_per_symbol}")
    if cfg.wf_kind == "chirp":
        if cfg.bandwidth > cfg.sample_rate:
            problems.append(f"[waveform] bandwidth = {cfg.bandwidth!r} "
                            f"exceeds sample-rate = {cfg.sample_rate!r}")
        # round(duration * sample-rate) samples: none up to 0.5
        if cfg.duration * cfg.sample_rate <= 0.5:
            problems.append(f"[waveform] duration = {cfg.duration!r} is "
                            f"shorter than one sample at sample-rate = "
                            f"{cfg.sample_rate!r}")
    if cfg.wf_kind == "ofdm":
        if cfg.cp >= cfg.subcarriers:
            problems.append(f"[waveform] cp = {cfg.cp} must be below "
                            f"subcarriers = {cfg.subcarriers}")
        outside = [k for k in cfg.active or ()
                   if not 0 <= k < cfg.subcarriers]
        if outside:
            problems.append(f"[waveform] active subcarriers {outside} lie "
                            f"outside [0, subcarriers = {cfg.subcarriers})")
    nyquist = cfg.sample_rate / 2
    if cfg.doppler_bins > 1 and cfg.doppler_max > nyquist:
        problems.append(f"[estimator] doppler-max = {cfg.doppler_max!r}"
                        f" exceeds sample-rate / 2 = {nyquist!r}")
    if cfg.doppler_bins > 1 and cfg.doppler_max == 0:
        problems.append(f"[estimator] doppler-bins = {cfg.doppler_bins} "
                        f"needs a doppler-max above 0")
    # MUSIC sees one observation column, so every Doppler cell of a delay
    # has the same pseudospectrum and any reported Doppler would be a tie
    if cfg.est_kind == "music" and cfg.doppler_bins > 1:
        problems.append(f"[estimator] doppler-bins = {cfg.doppler_bins!r}: "
                        f"kind = music cannot resolve Doppler, use "
                        f"doppler-bins = 1")
    # MUSIC's covariance dimension is the probe length when `order` reaches
    # it (see music_estimate's smoothing window), and must exceed `order`
    samples = _probe_samples(cfg)
    if cfg.est_kind == "music" and 0 < samples <= cfg.order:
        problems.append(f"[estimator] order = {cfg.order} must be below the "
                        f"probe length of {samples} samples")
    # MUSIC's delay steering repeats every probe length: more cells alias
    if cfg.est_kind == "music" and 0 < samples < cfg.delay_bins:
        problems.append(f"[estimator] delay-bins = {cfg.delay_bins} must not "
                        f"exceed the probe length of {samples} samples")
    # an explicit 'kind = none' and an Eb/N0 ask for opposite things, and
    # a level is the white noise's, set only when no Eb/N0 sets it
    ebn0 = cfg.ebn0_db is not None or cfg.sweep_parameter == "ebn0-db"
    if cfg.noise_kind == "none" and ebn0:
        problems.append("[noise] kind = none conflicts with an ebn0-db "
                        "value or sweep, which adds noise")
    if cfg.noise_level > 0 and cfg.noise_kind != "white":
        problems.append(f"[noise] level = {cfg.noise_level!r} needs "
                        f"kind = white")
    if cfg.noise_level > 0 and ebn0:
        problems.append(f"[noise] level = {cfg.noise_level!r} conflicts with "
                        f"an ebn0-db value or sweep, which sets the level")
    if cfg.noise_kind == "white" and not (cfg.noise_level > 0 or ebn0):
        problems.append("[noise] kind = white needs a level > 0 or an "
                        "ebn0-db value or sweep")
    if cfg.sweep_parameter == "lambda":
        problems += [f"[sweep] value '{v!r}': lambda must lie in [0, 1]"
                     for v in cfg.sweep_values if not _UNIT[0](v)]
    if problems:
        raise errors.ValidationError(problems)
    return cfg


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    trial: int
    scenario: str
    estimator: str
    metric: str
    value: float
    units: str
    seed: int

    def __post_init__(self):
        # float() would read "0.5" and True as numbers
        if isinstance(self.value, (str, bool)):
            raise ValueError(f"{self.metric} is {self.value!r}, not a number")
        object.__setattr__(self, "value", float(self.value))
        for name in ("scenario", "estimator", "metric"):
            text = getattr(self, name)
            if not isinstance(text, str) or errors.csv_quoted(text):
                raise ValueError(f"{name} {text!r} would need quotes")
        if type(self.trial) is not int or type(self.seed) is not int:
            raise ValueError(f"trial {self.trial!r}, seed {self.seed!r}: not ints")
        if not np.isfinite(self.value):
            raise ValueError(f"{self.metric} is {self.value!r}, not finite")

    def csv(self) -> str:
        return (f"{self.trial},{self.scenario},{self.estimator},"
                f"{self.metric},{self.value!r},{self.units},{self.seed}")


def _sort_rows(rows):
    return sorted(rows, key=lambda r: (r.trial, r.scenario, r.estimator,
                                       r.metric))


# ---------------------------------------------------------------------------
# trial pipeline
# ---------------------------------------------------------------------------

def _probe_samples(cfg: ExperimentConfig) -> int:
    """The length of the probe `_build_waveform` makes, without making it."""
    if cfg.wf_kind == "psk":
        return cfg.bits // cfg.bits_per_symbol * cfg.oversampling
    if cfg.wf_kind == "chirp":
        return int(round(cfg.duration * cfg.sample_rate))
    if cfg.wf_kind == "ofdm":
        return cfg.symbols * (cfg.subcarriers + cfg.cp)
    return 0


def _build_waveform(cfg: ExperimentConfig, rng) -> waveform.Waveform:
    if cfg.wf_kind == "psk":
        bits = rng.integers(0, 2, cfg.bits).astype(np.uint8)
        n = bits.size - bits.size % cfg.bits_per_symbol
        return waveform.generate_psk_frame(bits[:n], cfg.bits_per_symbol,
                                           cfg.sample_rate, cfg.oversampling)
    if cfg.wf_kind == "chirp":
        return waveform.generate_chirp(cfg.bandwidth, cfg.duration,
                                       cfg.sample_rate)
    if cfg.wf_kind == "ofdm":
        active = cfg.active or tuple(range(cfg.subcarriers))
        n_bits = len(active) * cfg.symbols * cfg.bits_per_symbol
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        layout = waveform.ModulationLayout(
            kind="ofdm", bits_per_symbol=cfg.bits_per_symbol,
            n_subcarriers=cfg.subcarriers, n_symbols=cfg.symbols,
            active_subcarriers=active, data_bits=bits)
        return waveform.generate_ofdm(layout, cfg.sample_rate, cfg.cp)
    raise errors.ValidationError(["a [waveform] section is required"])


def _noise_model(cfg: ExperimentConfig, u, seed: int):
    fs = u.sample_rate
    if cfg.ebn0_db is not None:
        # unit-energy symbols at the symbol rate: per-sample noise variance
        # sigma^2 = Es / (Eb/N0 * bits-per-symbol), flat PSD sigma^2 / fs
        ebn0 = 10.0 ** (cfg.ebn0_db / 10.0)
        bps = u.layout.bits_per_symbol if u.layout else 1
        sigma2 = 1.0 / (ebn0 * bps)
        return scene.NoiseModel.white(sigma2 / fs, (-fs / 2, fs / 2), seed)
    if cfg.noise_kind == "white" and cfg.noise_level > 0:
        return scene.NoiseModel.white(cfg.noise_level, (-fs / 2, fs / 2), seed)
    return None


def _doppler_cells(span: float, bins: int) -> np.ndarray:
    """`bins` Doppler cells evenly over [-span, span]; one bin is 0 Hz."""
    return np.linspace(-span, span, bins) if bins > 1 else np.zeros(1)


def _grids(cfg: ExperimentConfig, u) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's delay grid (whole samples) and Doppler grid."""
    return (np.arange(cfg.delay_bins) / u.sample_rate,
            _doppler_cells(cfg.doppler_max, cfg.doppler_bins))


def _match_targets(truth, estimated):
    """Greedy nearest-delay pairing of true and estimated targets, each
    given as ``[re, im, delay, doppler]``."""
    pairs = []
    pool = list(estimated)
    for t in sorted(truth, key=lambda t: -abs(complex(t[0], t[1]))):
        if not pool:
            break
        best = min(pool, key=lambda e: abs(e[2] - t[2]))
        pool.remove(best)
        pairs.append((t, best))
    return pairs


def _targets_doc(targets):
    """Targets as the ``[re, im, delay, doppler]`` lists a record stores."""
    return [[complex(t.amplitude).real, complex(t.amplitude).imag,
             float(t.delay), float(t.doppler)] for t in targets]


def run_trial(cfg: ExperimentConfig, trial: int,
              base: scene.TargetScene | None) -> tuple[list[ResultRow], dict]:
    """One simulate trial: scene -> rx -> estimate -> record -> rows.

    `base` is the parsed `[scene]` file, or None for the direct link.  The
    record is JSON-ready and holds everything the metrics read, so
    ``recompute_metrics`` turns a stored record into the same rows.
    """
    seed = derive_seed(cfg.master_seed, trial, "trial")
    rng = np.random.default_rng(seed)
    scenario = "default"
    u = _build_waveform(cfg, rng)
    scn = scene.TargetScene(())
    if base is not None:
        scn = base
        scenario = scn.label or Path(cfg.scene_file).stem
        if scn.clutter is not None:
            cl = scene.generate_clutter(
                scn.clutter, derive_seed(cfg.master_seed, trial, "clutter"))
            scn = scene.merge_scenes(scn, cl, label=scn.label)
    noise = _noise_model(cfg, u, derive_seed(cfg.master_seed, trial, "noise"))
    if base is None:
        # the direct link: the probe itself, plus noise when set
        y = u.samples.copy() if noise is None else \
            u.samples + scene.apply_channel(u, scn, noise).samples
        rx = scene.ReceivedSignal(y, u.sample_rate)
    else:
        # a scene without targets echoes nothing, with or without noise
        rx = scene.apply_channel(u, scn, noise)

    report = None
    if cfg.est_kind in ("matched-filter", "omp"):
        dictionary = estimators.Dictionary(u, *_grids(cfg, u))
    if cfg.est_kind == "matched-filter":
        report = estimators.matched_filter_estimate(
            rx, u, dictionary, cfg.threshold_db)
    elif cfg.est_kind == "omp":
        report = estimators.omp_estimate(rx, dictionary, cfg.sparsity)
    elif cfg.est_kind == "music":
        # fold the echo tail back onto the frame, which apply_channel's
        # one-frame delay cap makes enough for an exact circular model;
        # deconvolve to the frequency-domain response, conjugated so the
        # delay exponential matches the positive-exponent steering model
        n = len(u)
        y = rx.samples[:n].copy()
        y[:len(rx) - n] += rx.samples[n:]
        uf = np.fft.fft(u.samples)
        guard = 1e-3 * np.max(np.abs(uf))
        obs = np.conj(np.fft.fft(y) / np.where(np.abs(uf) > guard, uf, np.inf))
        report = estimators.music_estimate(
            obs, cfg.order, *_grids(cfg, u),
            freq_step=u.sample_rate / n)
        report.estimated_targets[:] = [
            scene.Target(np.conj(t.amplitude), t.delay, t.doppler)
            for t in report.estimated_targets]
        # predict and score in the time domain, as the other estimators do
        report.predicted_signal = estimators._pad_to(scene.apply_channel(
            u, scene.TargetScene(report.estimated_targets)).samples, len(rx))
        report.residual_energy = float(
            np.linalg.norm(rx.samples - report.predicted_signal) ** 2)

    # every generated waveform has a layout; a chirp carries no bits
    tx_bits, decoded = u.layout.data_bits, np.zeros(0, np.uint8)
    if u.layout.kind != "chirp" and tx_bits.size:
        # equalize with the estimate, except on the identity channel
        chan_est = report if (report and report.estimated_targets
                              and scn.targets) else None
        decoded = estimators.demodulate(rx, u, chan_est)

    # None marks an input that does not apply (no estimator ran); papr and
    # r_squared read the signals, so they are reduced here, and only when
    # listed, so an unlisted metric can never raise
    ran = report is not None
    record = {
        "trial": trial, "seed": seed, "scenario": scenario,
        "estimator": cfg.est_kind,
        "tx_bits": tx_bits.tolist(), "decoded_bits": decoded.tolist(),
        "bits_per_symbol": u.layout.bits_per_symbol,
        "true_targets": _targets_doc(scn.targets),
        "estimated_targets":
            _targets_doc(report.estimated_targets) if ran else None,
        "residual_energy": float(report.residual_energy) if ran else None,
        "cost_vector": dict(report.cost.cost_vector) if ran else None,
    }
    if "papr" in cfg.metric_list:
        record["papr"] = waveform.papr(u)
    if "r_squared" in cfg.metric_list:
        record["r_squared"] = None
        if ran:
            y = np.concatenate([rx.samples.real, rx.samples.imag])
            pred = estimators._pad_to(
                np.asarray(report.predicted_signal).reshape(-1), len(rx))
            record["r_squared"] = metrics.r_squared(
                y, np.concatenate([pred.real, pred.imag]))
    return metric_rows(record, cfg), record


def run_sync_trial(cfg: ExperimentConfig, trial: int,
                   scenario: syncnet.SyncScenario,
                   ) -> tuple[list[ResultRow], dict, str]:
    """One sync trial on the parsed `[sync]` file: measurements -> particle
    BP -> Gauss-Newton -> record (each agent's position error, the network
    RMS) -> rows. The third element is the trial's stderr line: empty, or
    for a fit that fails its check (`syncnet.GNFit.converged`) a report of
    it, with BP's cap if BP stopped at it before its anneal reached scale
    1; the rows are the same either way."""
    seed = derive_seed(cfg.master_seed, trial, "sync")
    fit, bp, report = syncnet.run_sync_scenario(scenario, seed=seed)
    line = ""
    if not fit.converged:
        capped = scenario.config.scale(bp.iterations - 1) > 1
        line = (f"trial {trial}: the Gauss-Newton fit failed its check: "
                f"step {fit.step:.2g} (limit {syncnet.GN_STEP_TOL:g}), "
                f"cost/dof {fit.cost_per_dof:.3g} "
                f"(limit {fit.cost_limit:.3g})"
                + capped * (f"; BP stopped at bp-iterations {bp.iterations} "
                            f"before its anneal reached scale 1") + "\n")
    record = {"trial": trial, "seed": seed, "estimator": "bp",
              "scenario": Path(cfg.sync_file).stem, **report}
    return metric_rows(record, cfg), record, line


def _metric_value(name: str, rec: dict, cfg: ExperimentConfig):
    """One formula per metric, reading only the trial record; None means
    the metric does not apply to this trial and yields no row."""
    if name in ("papr", "residual_energy", "r_squared", "position_rms_m",
                "to_rms_s"):
        return rec[name]
    tx = np.asarray(rec["tx_bits"], np.uint8)
    de = np.asarray(rec["decoded_bits"], np.uint8)
    n = min(tx.size, de.size)
    tx, de = tx[:n], de[:n]
    if name in ("ber", "ser") and not n:
        return None
    if name == "ber":
        return int(np.sum(tx != de)) / n
    if name == "ser":
        bps = rec["bits_per_symbol"]
        wrong = np.any(tx.reshape(-1, bps) != de.reshape(-1, bps), axis=1)
        return float(np.mean(wrong))
    if rec["cost_vector"] is None:          # no estimator ran
        return None
    if name == "w_cost":
        return estimators.tally_cost(rec["cost_vector"], cfg.cost_weights,
                                     cfg.c_max, cfg.form)
    pairs = _match_targets(rec["true_targets"], rec["estimated_targets"])
    if not pairs:
        return None
    if name in ("delay_rmse", "doppler_rmse"):
        k = 2 if name == "delay_rmse" else 3
        return float(np.sqrt(np.mean(np.square([t[k] - e[k]
                                                for t, e in pairs]))))
    if name == "estimator_j":
        phi = [t[2] for t, _ in pairs] + [t[3] for t, _ in pairs]
        phi_hat = [e[2] for _, e in pairs] + [e[3] for _, e in pairs]
        comm = metrics.CommReport(max(n, 1), int(np.sum(tx != de)))
        return unified.estimator_metric(phi, phi_hat, comm, cfg.lam,
                                        rec["cost_vector"], cfg.cost_weights,
                                        cfg.c_max, cfg.form).value
    raise errors.ValidationError([f"unknown metric {name!r}"])


def metric_rows(rec: dict, cfg: ExperimentConfig, source="trial record",
                ) -> list[ResultRow]:
    """The rows of every listed metric of one trial record;
    `agent_position_error` yields one `agent{j}_position_error` row per
    agent j."""
    rows = []
    for name in cfg.metric_list:
        try:
            if name == "agent_position_error":
                for j, _ in rec[name]:  # an id names a row: no float or bool
                    if type(j) is not int:
                        raise ValueError(f"agent id {j!r} is not an int")
                values = [(f"agent{j}_position_error", err)
                          for j, err in rec[name]]
            else:
                values = [(name, _metric_value(name, rec, cfg))]
            rows += [ResultRow(rec["trial"], rec["scenario"], rec["estimator"],
                               metric, value, _KNOWN_METRICS[name],
                               rec["seed"])
                     for metric, value in values if value is not None]
        except KeyError as exc:
            raise errors.ValidationError(
                [f"{source}: metric {name!r} needs {exc.args[0]!r}, "
                 f"which the record lacks"]) from None
    return rows


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _processes(cfg: ExperimentConfig) -> int:
    """How many processes run the trials: `cfg.workers`, but at most one
    per trial and one per CPU this process may run on, and one where the
    platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cfg.workers, cfg.trials, cpus)


def _fork_share(trial, share: range) -> tuple[int, int] | None:
    """Run `share` in a forked child; returns the child's pid and the read
    end of the pipe that brings back, pickled, the results of the share's
    trials in order up to the first that raised, or None where no child
    could be started (no pipe, or `fork` failed under a process or memory
    limit). Fork, not spawn: the child has the loaded modules and `trial`'s
    closure at no cost, which a fresh interpreter would import (~0.2 s) or
    pickle."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # the child sends its results only through the pipe, never returns
        # into the caller's stack, and exits 0 only once it has sent its list
        code = 1
        try:
            os.close(r)
            done = []
            try:
                for t in share:
                    done.append(trial(t))
            except Exception:
                pass                # the parent runs this trial again
            sys.stdout.flush()
            sys.stderr.flush()
            with open(w, "wb") as pipe:
                pickle.dump(done, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _run_forked(trial, trials: int, processes: int) -> list:
    """Every trial's result, in order, from `processes` contiguous shares.
    This process runs share 0 and a forked child each other share; with
    one process nothing is forked. Once every child is reaped, a trial
    that no child brought back (it raised there, the child died, or no
    child could be started) runs here, in order, so the first that raises
    does so as in a serial loop."""
    shares = [range(trials * i // processes, trials * (i + 1) // processes)
              for i in range(processes)]
    got = [[] for _ in shares]
    # a child must not write out again what this process has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children, sent, status = [], [], []
    try:
        for i in range(1, processes):
            child = _fork_share(trial, shares[i])
            if child is not None:
                children.append((i, *child))
        got[0] = [trial(t) for t in shares[0]]
        for _, _, r in children:
            with open(r, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pid, r in children:
            os.close(r)
            status.append(os.waitpid(pid, 0)[1])
    for (i, _, _), data, code in zip(children, sent, status):
        if code == 0:
            got[i] = pickle.loads(data)
    return [result for share, done in zip(shares, got)
            for result in done + [trial(t) for t in share[len(done):]]]


def _run_trials(cfg: ExperimentConfig, trial, store_dir: Path | None,
                ) -> list[ResultRow]:
    """The one trial driver and the one writer of a run's per-trial text:
    `trial(t)` returns trial t's rows, record and stderr line (empty for
    none). `_run_forked` splits the trials into contiguous shares, one per
    process (`_processes`); with one process they all run in order on the
    calling thread. A trial's result depends only on (config, seed, t),
    and only this process writes, once every trial has run: each record
    as ``report_<trial>.json`` under `store_dir`, then every line in trial
    order. So the records, the lines and the rows, which come back sorted,
    are the same at any `cfg.workers`, and a run that raises writes none."""
    results = _run_forked(trial, cfg.trials, _processes(cfg))
    if store_dir is not None:
        store_dir.mkdir(parents=True, exist_ok=True)
        for _, doc, _ in results:
            out = store_dir / f"report_{doc['trial']:05d}.json"
            out.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    sys.stderr.write("".join(line for _, _, line in results))
    return _sort_rows(r for rows, _, _ in results for r in rows)


def _check_metrics(cfg: ExperimentConfig, held: dict) -> None:
    """The one check of `[metrics] list`, before any trial runs or record is
    read: not empty, and each name one that `held`, the command's, lists."""
    problems = [f"[metrics] list names {name!r}, which this command's records "
                f"never hold; they hold {', '.join(held)}"
                for name in cfg.metric_list if name not in held]
    if problems or not cfg.metric_list:
        raise errors.ValidationError(problems or ["[metrics] list is empty"])


def run_experiment(cfg: ExperimentConfig, store_dir: Path | None = None,
                   ) -> list[ResultRow]:
    """Monte Carlo simulate trials; the scene file is parsed once."""
    _check_metrics(cfg, _SENSING_METRICS)
    base = None if cfg.scene_file is None else \
        scene.load_scene(cfg.base_dir / cfg.scene_file)
    # run_trial is looked up at call time, so a rebound one is used
    return _run_trials(cfg, lambda t: (*run_trial(cfg, t, base), ""),
                       store_dir)


def recompute_metrics(report_dir: Path, cfg: ExperimentConfig) -> list[ResultRow]:
    """Recompute metric rows from stored per-trial records, through the same
    ``metric_rows`` as ``run_experiment`` and ``run_sync``; a record no metric
    reads, or whose rows `ResultRow` rejects, is a ParseError naming it."""
    _check_metrics(cfg, _KNOWN_METRICS)     # a record of either kind
    rows = []
    files = sorted(Path(report_dir).glob("report_*.json"))
    if not files:
        raise errors.ParseError(f"no stored reports under {report_dir}")
    for f in files:
        try:
            rec = json.loads(f.read_text(encoding="utf-8"))
            if not isinstance(rec, dict):
                raise ValueError("a trial record is a JSON object")
            rows += metric_rows(rec, cfg, source=str(f))
        except errors.ValidationError:
            raise
        except (ValueError, TypeError, IndexError, AttributeError,
                ArithmeticError, errors.ToolkitError) as exc:
            raise errors.ParseError(f"{f}: {exc}") from None
    return _sort_rows(rows)


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Grid sweep over lambda or Eb/N0; scenario column carries the value."""
    if cfg.sweep_parameter is None or not cfg.sweep_values:
        raise errors.ValidationError(["[sweep] needs parameter and values"])
    rows = []
    for val in cfg.sweep_values:
        if cfg.sweep_parameter == "lambda":
            sub, tag = replace(cfg, lam=val), f"lambda={val:g}"
        else:
            sub, tag = replace(cfg, ebn0_db=val), f"ebn0={val:g}dB"
        rows += [replace(row, scenario=tag) for row in run_experiment(sub)]
    return _sort_rows(rows)


def run_sync(cfg: ExperimentConfig, store_dir: Path | None = None,
             ) -> list[ResultRow]:
    """Syncnet scenario trials; the sync file is parsed once."""
    if cfg.sync_file is None:
        raise errors.ValidationError(["[sync] file is required"])
    _check_metrics(cfg, _SYNC_METRICS)
    scenario = syncnet.load_sync_scenario(cfg.base_dir / cfg.sync_file)
    return _run_trials(cfg, lambda t: run_sync_trial(cfg, t, scenario),
                       store_dir)


def ambiguity_rows(cfg: ExperimentConfig, doppler_span: float | None = None,
                   n_doppler: int = 65):
    """Ambiguity surface of the configured waveform as CSV-ready lines.

    `doppler_span` and `n_doppler` are the CLI's --doppler-span and
    --doppler-bins; an unusable value is a ValidationError.
    """
    problems = []
    if n_doppler < 1:
        problems.append("--doppler-bins must be >= 1")
    if doppler_span is not None and not (np.isfinite(doppler_span)
                                         and doppler_span > 0):
        problems.append("--doppler-span must be finite and > 0")
    elif doppler_span is not None and doppler_span > cfg.sample_rate / 2:
        problems.append(f"--doppler-span = {doppler_span!r} exceeds "
                        f"sample-rate / 2 = {cfg.sample_rate / 2!r}")
    if problems:
        raise errors.ValidationError(problems)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, 0, "ambiguity"))
    u = _build_waveform(cfg, rng)
    if doppler_span is None:
        doppler_span = 4.0 / u.duration
        if doppler_span > u.sample_rate / 2:
            raise errors.ValidationError([
                f"the default --doppler-span, 4 / duration = "
                f"{doppler_span!r} Hz, exceeds sample-rate / 2 = "
                f"{u.sample_rate / 2!r} for a {len(u)}-sample waveform; "
                f"pass --doppler-span"])
    dopplers = _doppler_cells(doppler_span, n_doppler)
    amb = metrics.ambiguity(u, doppler_grid=dopplers)
    lines = ["doppler_hz,delay_s,magnitude"]
    for i, nu in enumerate(amb.doppler_grid):
        for j, tau in enumerate(amb.delay_grid):
            lines.append(f"{float(nu)!r},{float(tau)!r},"
                         f"{float(amb.values[i, j])!r}")
    return lines


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(rows, fmt: str, out_dir) -> list[Path]:
    """Write rows.csv and/or summary.txt (UTF-8, trailing newline)."""
    if not rows:
        raise ValueError("no rows to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    rows = _sort_rows(rows)
    if fmt in ("csv", "both"):
        p = out_dir / "rows.csv"
        body = "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
        p.write_text(body, encoding="utf-8")
        paths.append(p)
    if fmt in ("summary", "both"):
        p = out_dir / "summary.txt"
        by_metric: dict[str, list[float]] = {}
        for r in rows:
            by_metric.setdefault(r.metric, []).append(r.value)
        lines = []
        for name in sorted(by_metric):
            vals = np.asarray(by_metric[name], float)
            lines.append(f"{name}: n={vals.size} mean={float(vals.mean())!r} "
                         f"std={float(vals.std())!r} min={float(vals.min())!r} "
                         f"max={float(vals.max())!r}")
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(p)
    if not paths:
        raise ValueError(f"unknown report format {fmt!r}")
    return paths
