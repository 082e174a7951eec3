"""Configuration-driven experiment runner with deterministic CSV output."""

from __future__ import annotations

import configparser
import copy
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import errors, estimators, metrics, scene, syncnet, unified, waveform

_MASK64 = (1 << 64) - 1

CSV_HEADER = "trial,scenario,estimator,metric,value,units,seed"

_KNOWN_METRICS = {
    "papr": "ratio", "ber": "ratio", "ser": "ratio",
    "delay_rmse": "s", "doppler_rmse": "Hz",
    "residual_energy": "energy", "r_squared": "ratio",
    "w_cost": "ratio", "estimator_j": "score",
}


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

_SCHEMA = {
    "experiment": {"schema-version", "trials", "master-seed", "workers",
                   "output-dir", "store-reports"},
    "scene": {"file"},
    "noise": {"kind", "level", "ebn0-db"},
    "waveform": {"kind", "bits", "bits-per-symbol", "sample-rate",
                 "oversampling", "bandwidth", "duration", "subcarriers",
                 "symbols", "cp", "active"},
    "estimator": {"kind", "threshold-db", "sparsity", "order",
                  "delay-bins", "doppler-bins", "doppler-max"},
    "metrics": {"list"},
    "unified": {"lambda", "cost-weights", "c-max", "form"},
    "sync": {"file"},
    "sweep": {"parameter", "values"},
}


@dataclass
class ExperimentConfig:
    trials: int = 1
    master_seed: int = 0
    workers: int = 1
    output_dir: str = "out"
    store_reports: bool = False
    scene_file: str | None = None
    noise_kind: str = "none"
    noise_level: float = 0.0
    ebn0_db: float | None = None
    wf_kind: str | None = None
    wf: dict = field(default_factory=dict)
    est_kind: str = "none"
    est: dict = field(default_factory=dict)
    metric_list: tuple[str, ...] = ()
    lam: float = 0.5
    cost_weights: dict = field(default_factory=lambda: {"flops": 1.0})
    c_max: float = 1e12
    form: str = "fpe"
    sync_file: str | None = None
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    base_dir: Path = Path(".")


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config, reporting every violation."""
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

    problems: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key {key!r} in [{section}]")

    cfg = ExperimentConfig(base_dir=path.parent)

    def get(section, key, cast, default=None, check=None, describe=""):
        if section not in parser or key not in parser[section]:
            return default
        raw = parser[section][key]
        try:
            val = cast(raw)
        except ValueError:
            problems.append(f"[{section}] {key} = {raw!r}: not a valid value")
            return default
        if cast is float and not np.isfinite(val):
            problems.append(f"[{section}] {key} = {raw!r}: not a finite value")
            return default
        if check is not None and not check(val):
            problems.append(f"[{section}] {key} = {raw!r}: {describe}")
            return default
        return val

    if "experiment" in parser:
        sv = get("experiment", "schema-version", int, None)
        if sv != 1:
            problems.append(f"[experiment] schema-version must be 1, got {sv}")
        cfg.trials = get("experiment", "trials", int, 1,
                         lambda v: v >= 1, "trials must be >= 1")
        cfg.master_seed = get("experiment", "master-seed", int, 0)
        cfg.workers = get("experiment", "workers", int, 1,
                          lambda v: v >= 1, "workers must be >= 1")
        cfg.output_dir = get("experiment", "output-dir", str, "out")
        cfg.store_reports = get("experiment", "store-reports", str.lower,
                                "false", lambda v: v in ("true", "false"),
                                "store-reports must be true or false") == "true"
    else:
        problems.append("missing [experiment] section")

    cfg.scene_file = get("scene", "file", str, None)
    if cfg.scene_file is not None:
        p = (cfg.base_dir / cfg.scene_file)
        if not p.exists():
            problems.append(f"[scene] file {cfg.scene_file!r} does not exist")

    cfg.noise_kind = get("noise", "kind", str, "none",
                         lambda v: v in ("none", "white"),
                         "kind must be none|white")
    cfg.noise_level = get("noise", "level", float, 0.0,
                          lambda v: v >= 0, "level must be >= 0")
    cfg.ebn0_db = get("noise", "ebn0-db", float, None)

    cfg.wf_kind = get("waveform", "kind", str, None,
                      lambda v: v in ("psk", "ofdm", "chirp"),
                      "kind must be psk|ofdm|chirp")
    cfg.wf = {
        "bits": get("waveform", "bits", int, 1000,
                    lambda v: v >= 1, "bits must be >= 1"),
        "bits_per_symbol": get("waveform", "bits-per-symbol", int, 1,
                               lambda v: v in (1, 2), "must be 1 or 2"),
        "sample_rate": get("waveform", "sample-rate", float, 1e6,
                           lambda v: v > 0, "sample-rate must be > 0"),
        "oversampling": get("waveform", "oversampling", int, 1,
                            lambda v: v >= 1, "oversampling must be >= 1"),
        "bandwidth": get("waveform", "bandwidth", float, 1e5,
                         lambda v: v > 0, "bandwidth must be > 0"),
        "duration": get("waveform", "duration", float, 1e-3,
                        lambda v: v > 0, "duration must be > 0"),
        "subcarriers": get("waveform", "subcarriers", int, 64,
                           lambda v: v >= 2, "subcarriers must be >= 2"),
        "symbols": get("waveform", "symbols", int, 4,
                       lambda v: v >= 1, "symbols must be >= 1"),
        "cp": get("waveform", "cp", int, 16, lambda v: v >= 0,
                  "cp must be >= 0"),
        "active": get("waveform", "active", str, "all"),
    }

    cfg.est_kind = get("estimator", "kind", str, "none",
                       lambda v: v in ("none", "matched-filter", "omp", "music"),
                       "kind must be none|matched-filter|omp|music")
    cfg.est = {
        "threshold_db": get("estimator", "threshold-db", float, -13.0),
        "sparsity": get("estimator", "sparsity", int, 1,
                        lambda v: v >= 0, "sparsity must be >= 0"),
        "order": get("estimator", "order", int, 1,
                     lambda v: v >= 1, "order must be >= 1"),
        "delay_bins": get("estimator", "delay-bins", int, 16,
                          lambda v: v >= 1, "delay-bins must be >= 1"),
        "doppler_bins": get("estimator", "doppler-bins", int, 1,
                            lambda v: v >= 1, "doppler-bins must be >= 1"),
        "doppler_max": get("estimator", "doppler-max", float, 0.0,
                           lambda v: v >= 0, "doppler-max must be >= 0"),
    }
    nyquist = cfg.wf["sample_rate"] / 2
    if cfg.est["doppler_bins"] > 1 and cfg.est["doppler_max"] > nyquist:
        problems.append(f"[estimator] doppler-max = {cfg.est['doppler_max']!r}"
                        f" exceeds sample-rate / 2 = {nyquist!r}")
    # MUSIC sees one observation column, so every Doppler cell of a delay
    # has the same pseudospectrum and any reported Doppler would be a tie
    if cfg.est_kind == "music" and cfg.est["doppler_bins"] > 1:
        problems.append(f"[estimator] doppler-bins = "
                        f"{cfg.est['doppler_bins']!r}: kind = music "
                        f"cannot resolve Doppler, use doppler-bins = 1")

    raw_list = get("metrics", "list", str, "")
    names = tuple(n.strip() for n in raw_list.split(",") if n.strip())
    for n in names:
        if n not in _KNOWN_METRICS:
            problems.append(f"[metrics] unknown metric {n!r} "
                            f"(known: {sorted(_KNOWN_METRICS)})")
    cfg.metric_list = names

    def lambda_ok(v):
        return 0.0 <= v <= 1.0

    cfg.lam = get("unified", "lambda", float, 0.5, lambda_ok,
                  "lambda must lie in [0, 1]")
    raw_cw = get("unified", "cost-weights", str, "flops:1.0")
    cw = {}
    for part in raw_cw.split(","):
        part = part.strip()
        if not part:
            continue
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
    if cw and abs(sum(cw.values()) - 1.0) > 1e-9:
        problems.append(f"[unified] cost-weights sum to {sum(cw.values())}, not 1")
    cfg.cost_weights = cw or {"flops": 1.0}
    cfg.c_max = get("unified", "c-max", float, 1e12,
                    lambda v: v > 0, "c-max must be > 0")
    cfg.form = get("unified", "form", str, "fpe",
                   lambda v: v in ("fpe", "additive"),
                   "form must be fpe|additive")

    cfg.sync_file = get("sync", "file", str, None)
    if cfg.sync_file is not None:
        if not (cfg.base_dir / cfg.sync_file).exists():
            problems.append(f"[sync] file {cfg.sync_file!r} does not exist")

    cfg.sweep_parameter = get("sweep", "parameter", str, None,
                              lambda v: v in ("lambda", "ebn0-db"),
                              "parameter must be lambda|ebn0-db")
    raw_vals = get("sweep", "values", str, "")
    vals = []
    for part in raw_vals.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(float(part))
        except ValueError:
            problems.append(f"[sweep] bad value {part!r}")
            continue
        if not np.isfinite(vals[-1]):
            problems.append(f"[sweep] value {part!r} is not finite")
        elif cfg.sweep_parameter == "lambda" and not lambda_ok(vals[-1]):
            problems.append(f"[sweep] value {part!r}: lambda must lie in [0, 1]")
    cfg.sweep_values = tuple(vals)

    # an explicit 'kind = none' and an Eb/N0 ask for opposite things
    if "noise" in parser and parser["noise"].get("kind") == "none" and (
            "ebn0-db" in parser["noise"] or cfg.sweep_parameter == "ebn0-db"):
        problems.append("[noise] kind = none conflicts with an ebn0-db "
                        "value or sweep, which adds noise")

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
        object.__setattr__(self, "value", float(self.value))

    def csv(self) -> str:
        return (f"{self.trial},{self.scenario},{self.estimator},"
                f"{self.metric},{self.value!r},{self.units},{self.seed}")


def _sort_rows(rows):
    return sorted(rows, key=lambda r: (r.trial, r.scenario, r.estimator,
                                       r.metric))


# ---------------------------------------------------------------------------
# trial pipeline
# ---------------------------------------------------------------------------

def _build_waveform(cfg: ExperimentConfig, rng) -> waveform.Waveform:
    wf = cfg.wf
    if cfg.wf_kind == "psk":
        bits = rng.integers(0, 2, wf["bits"]).astype(np.uint8)
        n = bits.size - bits.size % wf["bits_per_symbol"]
        return waveform.generate_psk_frame(bits[:n], wf["bits_per_symbol"],
                                           wf["sample_rate"],
                                           wf["oversampling"])
    if cfg.wf_kind == "chirp":
        return waveform.generate_chirp(wf["bandwidth"], wf["duration"],
                                       wf["sample_rate"])
    if cfg.wf_kind == "ofdm":
        n_sc, n_sym = wf["subcarriers"], wf["symbols"]
        if wf["active"] == "all":
            active = tuple(range(n_sc))
        else:
            active = tuple(int(v) for v in wf["active"].split())
        n_bits = len(active) * n_sym * wf["bits_per_symbol"]
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        layout = waveform.ModulationLayout(
            kind="ofdm", bits_per_symbol=wf["bits_per_symbol"],
            n_subcarriers=n_sc, n_symbols=n_sym,
            active_subcarriers=active, data_bits=bits)
        return waveform.generate_ofdm(layout, wf["sample_rate"], wf["cp"])
    raise errors.ValidationError(["simulate needs a [waveform] section"])


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


def _grids(cfg: ExperimentConfig, u) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's delay grid (whole samples) and Doppler grid."""
    est = cfg.est
    delays = np.arange(est["delay_bins"]) / u.sample_rate
    if est["doppler_bins"] > 1 and est["doppler_max"] > 0:
        dopplers = np.linspace(-est["doppler_max"], est["doppler_max"],
                               est["doppler_bins"])
    else:
        dopplers = np.array([0.0])
    return delays, dopplers


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
            scn = scene.merge_scenes(scn, cl, label=scenario)
    noise = _noise_model(cfg, u, derive_seed(cfg.master_seed, trial, "noise"))
    if scn.targets or (noise is not None and base is not None):
        rx = scene.apply_channel(u, scn, noise)
    else:
        # identity channel: the direct link when there is no [scene] (probe
        # plus noise), and a noiseless scene without targets
        y = u.samples.copy() if noise is None else \
            u.samples + scene.apply_channel(u, scn, noise).samples
        rx = scene.ReceivedSignal(y, u.sample_rate)

    report = None
    if cfg.est_kind in ("matched-filter", "omp"):
        dictionary = estimators.Dictionary(u, *_grids(cfg, u))
    if cfg.est_kind == "matched-filter":
        report = estimators.matched_filter_estimate(
            rx, u, dictionary, cfg.est["threshold_db"])
    elif cfg.est_kind == "omp":
        report = estimators.omp_estimate(rx, dictionary, cfg.est["sparsity"])
    elif cfg.est_kind == "music":
        # deconvolve to the frequency-domain response; conjugate so the
        # delay exponential matches the positive-exponent steering model
        n = len(u)
        uf = np.fft.fft(u.samples)
        yf = np.fft.fft(rx.samples[:n])
        guard = 1e-3 * np.max(np.abs(uf))
        obs = np.conj(yf / np.where(np.abs(uf) > guard, uf, np.inf))
        report = estimators.music_estimate(
            obs, cfg.est["order"], *_grids(cfg, u),
            freq_step=u.sample_rate / n)
        report.estimated_targets[:] = [
            scene.Target(np.conj(t.amplitude), t.delay, t.doppler)
            for t in report.estimated_targets]

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


def _metric_value(name: str, rec: dict, cfg: ExperimentConfig):
    """One formula per metric, reading only the trial record; None means
    the metric does not apply to this trial and yields no row."""
    if name in ("papr", "residual_energy", "r_squared"):
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
    """The rows of every listed metric of one trial record."""
    rows = []
    for name in cfg.metric_list:
        try:
            value = _metric_value(name, rec, cfg)
            if value is not None:
                rows.append(ResultRow(rec["trial"], rec["scenario"],
                                      rec["estimator"], name, value,
                                      _KNOWN_METRICS[name], rec["seed"]))
        except KeyError as exc:
            raise errors.ValidationError(
                [f"{source}: metric {name!r} needs {exc.args[0]!r}, "
                 f"which the record lacks"]) from None
    return rows


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, store_dir: Path | None = None,
                   ) -> list[ResultRow]:
    """Monte Carlo simulate sweep; rows deterministic given (config, seed)."""
    base = None if cfg.scene_file is None else \
        scene.load_scene(cfg.base_dir / cfg.scene_file)

    def one(trial):
        return run_trial(cfg, trial, base)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(one, range(cfg.trials)))
    else:
        results = [one(t) for t in range(cfg.trials)]
    rows = [r for rows_t, _ in results for r in rows_t]
    if store_dir is not None:
        store_dir.mkdir(parents=True, exist_ok=True)
        for _, doc in results:
            out = store_dir / f"report_{doc['trial']:05d}.json"
            out.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return _sort_rows(rows)


def recompute_metrics(report_dir: Path, cfg: ExperimentConfig) -> list[ResultRow]:
    """Recompute metric rows from stored per-trial records, through the same
    ``metric_rows`` as ``run_experiment``."""
    rows = []
    files = sorted(Path(report_dir).glob("report_*.json"))
    if not files:
        raise errors.ParseError(f"no stored reports under {report_dir}")
    for f in files:
        try:
            rec = json.loads(f.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise errors.ParseError(f"{f}: {exc}") from None
        rows += metric_rows(rec, cfg, source=str(f))
    return _sort_rows(rows)


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Grid sweep over lambda or Eb/N0; scenario column carries the value."""
    if cfg.sweep_parameter is None or not cfg.sweep_values:
        raise errors.ValidationError(["[sweep] needs parameter and values"])
    rows = []
    for val in cfg.sweep_values:
        sub = copy.deepcopy(cfg)
        if cfg.sweep_parameter == "lambda":
            sub.lam = val
            tag = f"lambda={val:g}"
        else:
            sub.ebn0_db = val
            tag = f"ebn0={val:g}dB"
        rows += [replace(row, scenario=tag) for row in run_experiment(sub)]
    return _sort_rows(rows)


def run_sync(cfg: ExperimentConfig) -> list[ResultRow]:
    """Syncnet scenario trials; per-agent errors plus network RMS rows."""
    if cfg.sync_file is None:
        raise errors.ValidationError(["[sync] file is required"])
    scenario = syncnet.load_sync_scenario(cfg.base_dir / cfg.sync_file)
    tag = Path(cfg.sync_file).stem
    rows = []
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.master_seed, trial, "sync")
        _, _, report = syncnet.run_sync_scenario(scenario, seed=seed)
        for j, metrics_row in report.items():
            if j == "rms":
                for k, v in metrics_row.items():
                    rows.append(ResultRow(trial, tag, "bp", k, float(v),
                                          "mixed", seed))
            else:
                rows.append(ResultRow(trial, tag, "bp",
                                      f"agent{j}_position_error",
                                      float(metrics_row["position_error_m"]),
                                      "m", seed))
    return _sort_rows(rows)


def ambiguity_rows(cfg: ExperimentConfig, doppler_span: float | None = None,
                   n_doppler: int = 65):
    """Ambiguity surface of the configured waveform as CSV-ready lines."""
    rng = np.random.default_rng(derive_seed(cfg.master_seed, 0, "ambiguity"))
    u = _build_waveform(cfg, rng)
    if doppler_span is None:
        doppler_span = 4.0 / u.duration
    dopplers = np.linspace(-doppler_span, doppler_span, n_doppler)
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
