"""Seeded generator and correctness checks for the benchmark workloads.

Each workload turns a seed into the INI, scene and sync files one
``isaclab`` command reads, plus the command's arguments. The program sees
only those files. ``check_rows`` judges one command's ``rows.csv``; the
checks do not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FS = 1e6                        # sample rate of every generated waveform
ALL_METRICS = ("papr, ber, ser, delay_rmse, doppler_rmse, residual_energy, "
               "r_squared, w_cost, estimator_j")

# simulate-psk-omp: 48 delay bins x 12 Doppler bins = 576 atoms
PSK_BITS = 256
PSK_OVERSAMPLING = 2
OMP_DELAY_BINS = 48
OMP_DOPPLER_BINS = 12
OMP_DOPPLER_MAX = 1100.0        # 200 Hz steps; bins next to 0 are +-100 Hz

# sweep-chirp-music: fixed 512-sample chirp, 256 delay bins, 4 Eb/N0 points
CHIRP_SAMPLES = 512
CHIRP_BANDWIDTH = 8e5
MUSIC_DELAY_BINS = 256
SWEEP_EBN0_DB = (0, 10, 20, 30)
SWEEP_TRIALS_PER_POINT = 10
MUSIC_MIN_HIT_SHARE = 0.8       # of the trials at the top Eb/N0

# sync-mesh: 4 anchors on the box corners, 2 agents inside
SYNC_DELAY_STD = 1e-11
SYNC_PARTICLES = 1500
# annealing reaches scale 1 at iteration 16 and most runs converge by 18;
# the cap keeps the work per trial from swinging with the seed
SYNC_MAX_ITERATIONS = 20
SYNC_POSITION_RMS_BOUND_M = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                # isaclab subcommand
    why: str
    trials: int                 # trials per command; for sweep, per point
    points: int                 # sweep points (1 for simulate and sync)
    workers: int
    particles: int = 0          # BP particles per agent (sync only)

    @property
    def trials_per_op(self) -> int:
        return self.trials * self.points


WORKLOADS = {w.name: w for w in (
    # Dictionary construction (576 atoms, one apply_channel FFT pair each)
    # dominates, and the PSK probe is redrawn every trial, so a cache of
    # dictionaries cannot help: the plain single-worker baseline.
    Workload("simulate-psk-omp", "simulate",
             "fresh BPSK probe per trial, so Dictionary builds dominate and "
             "cannot be cached; single-worker baseline",
             trials=10, points=1, workers=1),
    # MUSIC over 256 delay cells is the largest layer; the same chirp is
    # probed in every trial, so this is the only workload a cache of
    # dictionaries helps, and the only one with two trial workers.
    Workload("sweep-chirp-music", "sweep",
             "fixed chirp probe, so MUSIC dominates and Dictionary builds "
             "repeat; the only workload with 2 trial workers",
             trials=SWEEP_TRIALS_PER_POINT, points=len(SWEEP_EBN0_DB),
             workers=2),
    # Particle BP with its kernel density does nearly all the work, and no
    # work in the other two workloads; two agents make the BP loopy.
    Workload("sync-mesh", "sync",
             "4-anchor 2-agent mesh, so loopy particle BP and its kernel "
             "density do nearly all the work",
             trials=1, points=1, workers=1, particles=SYNC_PARTICLES),
)}


@dataclass(frozen=True)
class Generated:
    """The files of one workload and the arguments that run it."""

    workload: Workload
    directory: Path
    config: Path
    master_seed: int

    def cli_args(self, out_dir: Path) -> list[str]:
        return [self.workload.command, "--config", str(self.config),
                "--out", str(out_dir), "--seed", str(self.master_seed),
                "--workers", str(self.workload.workers)]

    def digest(self) -> str:
        """SHA-256 over the generated files, in a fixed order."""
        h = hashlib.sha256()
        for p in sorted(self.directory.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()


def _experiment(trials: int, master_seed: int, workers: int) -> str:
    return (f"[experiment]\nschema-version = 1\ntrials = {trials}\n"
            f"master-seed = {master_seed}\nworkers = {workers}\n\n")


def _unified() -> str:
    return ("[metrics]\nlist = " + ALL_METRICS + "\n\n"
            "[unified]\nlambda = 0.5\ncost-weights = flops:1.0\n"
            "c-max = 1e12\n")


def _scene_text(label: str, targets) -> str:
    lines = ["scene-version: 1", f"label: {label}"]
    for amp, tau, nu in targets:
        lines.append(f"target: {amp.real!r} {amp.imag!r} {tau!r} {nu!r}")
    return "\n".join(lines) + "\n"


def _random_phase(rng, magnitude: float) -> complex:
    return complex(magnitude * np.exp(2j * np.pi * rng.random()))


def generate(w: Workload, seed: int, directory: Path) -> Generated:
    """Write the input files of workload ``w`` for ``seed`` into
    ``directory``. The self-tests pass shrunken copies of ``WORKLOADS``."""
    name = w.name
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    master_seed = int(rng.integers(0, 2 ** 31))
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "exp.ini"
    if name == "simulate-psk-omp":
        dopplers = np.linspace(-OMP_DOPPLER_MAX, OMP_DOPPLER_MAX,
                               OMP_DOPPLER_BINS)
        d0 = int(rng.integers(0, 12))
        d1 = d0 + int(rng.integers(3, 9))
        # direct path on a grid bin next to 0 Hz, echo on an outer bin
        nu0 = float(dopplers[OMP_DOPPLER_BINS // 2 - int(rng.integers(0, 2))])
        outer = [0, 1, 2, 3, 8, 9, 10, 11]
        nu1 = float(dopplers[outer[int(rng.integers(0, len(outer)))]])
        targets = [(_random_phase(rng, 1.0), d0 / FS, nu0),
                   (_random_phase(rng, rng.uniform(0.2, 0.35)), d1 / FS, nu1)]
        (directory / "scene.txt").write_text(_scene_text("psk", targets),
                                             encoding="utf-8")
        config.write_text(
            _experiment(w.trials, master_seed, w.workers)
            + "[scene]\nfile = scene.txt\n\n"
            + "[noise]\nebn0-db = 20\n\n"
            + f"[waveform]\nkind = psk\nbits = {PSK_BITS}\n"
              f"bits-per-symbol = 1\nsample-rate = {FS!r}\n"
              f"oversampling = {PSK_OVERSAMPLING}\n\n"
            + f"[estimator]\nkind = omp\nsparsity = 2\n"
              f"delay-bins = {OMP_DELAY_BINS}\n"
              f"doppler-bins = {OMP_DOPPLER_BINS}\n"
              f"doppler-max = {OMP_DOPPLER_MAX!r}\n\n"
            + _unified(), encoding="utf-8")
    elif name == "sweep-chirp-music":
        d0 = int(rng.integers(8, MUSIC_DELAY_BINS - 24))
        d1 = d0 + int(rng.integers(3, 9))
        targets = [(_random_phase(rng, 1.0), d0 / FS, 0.0),
                   (_random_phase(rng, rng.uniform(0.6, 0.9)), d1 / FS, 0.0)]
        (directory / "scene.txt").write_text(_scene_text("chirp", targets),
                                             encoding="utf-8")
        config.write_text(
            _experiment(w.trials, master_seed, w.workers)
            + "[scene]\nfile = scene.txt\n\n"
            + f"[waveform]\nkind = chirp\nbandwidth = {CHIRP_BANDWIDTH!r}\n"
              f"duration = {CHIRP_SAMPLES / FS!r}\nsample-rate = {FS!r}\n\n"
            + f"[estimator]\nkind = music\norder = 2\n"
              f"delay-bins = {MUSIC_DELAY_BINS}\n\n"
            + "[sweep]\nparameter = ebn0-db\nvalues = "
            + ", ".join(str(v) for v in SWEEP_EBN0_DB) + "\n\n"
            + _unified(), encoding="utf-8")
    elif name == "sync-mesh":
        side = float(rng.uniform(80.0, 120.0))
        agents = rng.uniform(0.2 * side, 0.8 * side, size=(2, 2))
        lines = ["sync-version: 1", "components: position",
                 f"scene-box: 0.0 {side!r} 0.0 {side!r}"]
        corners = [(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)]
        for j, (x, y) in enumerate(corners):
            lines.append(f"aperture: {j} anchor {x!r} {y!r} 0 0 0")
        for k, (x, y) in enumerate(agents):
            lines.append(f"aperture: {4 + k} agent {float(x)!r} "
                         f"{float(y)!r} 0 0 0")
        lines += ["measure: all", f"noise: delay {SYNC_DELAY_STD!r}",
                  f"bp-particles: {w.particles}", f"bp-iterations: {SYNC_MAX_ITERATIONS}",
                  "anneal-start: 1e6", "anneal-decay: 0.4"]
        (directory / "mesh.sync").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
        config.write_text(
            _experiment(w.trials, master_seed, w.workers)
            + "[sync]\nfile = mesh.sync\n", encoding="utf-8")
    else:                                    # pragma: no cover
        raise KeyError(name)
    return Generated(w, directory, config, master_seed)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def parse_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["trial", "scenario", "estimator", "metric",
                             "value", "units", "seed"]:
        raise ValueError("rows.csv header is not the isaclab CSV header")
    rows = list(reader)
    for r in rows:
        r["trial"] = int(r["trial"])
        r["value"] = float(r["value"])
    return rows


def check_rows(gen: Generated, text: str) -> str | None:
    """None if ``rows.csv`` text passes the workload's check, else why not."""
    try:
        rows = parse_rows(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable rows.csv: {exc}"
    w = gen.workload
    half_bin, one_bin = 0.5 / FS, 1.0 / FS
    if w.name == "simulate-psk-omp":
        by = _by_trial(rows)
        if sorted(by) != list(range(w.trials)):
            return f"expected trials 0..{w.trials - 1}, got {sorted(by)}"
        for t, m in by.items():
            if m.get("ber", 1.0) > 0.01:
                return f"trial {t}: ber {m.get('ber')} is not ~0"
            # both targets lie on grid bins; every estimate must hit its bin
            if m.get("delay_rmse", 1.0) >= half_bin:
                return f"trial {t}: delay_rmse {m.get('delay_rmse')} off-bin"
        return None
    if w.name == "sweep-chirp-music":
        top = f"ebn0={max(SWEEP_EBN0_DB):g}dB"
        scenarios = {r["scenario"] for r in rows}
        expected = {f"ebn0={v:g}dB" for v in SWEEP_EBN0_DB}
        if scenarios != expected:
            return f"sweep points {sorted(scenarios)} != {sorted(expected)}"
        top_rows = [r for r in rows if r["scenario"] == top]
        by = _by_trial(top_rows)
        if len(by) != w.trials:
            return f"{len(by)} trials at {top}, expected {w.trials}"
        # delay errors are whole bins, so rmse <= 1 bin means both are
        # within one bin of the truth
        hits = sum(1 for m in by.values()
                   if m.get("delay_rmse", 1.0) <= one_bin * (1 + 1e-9))
        need = math.ceil(MUSIC_MIN_HIT_SHARE * w.trials)
        if hits < need:
            return f"{hits}/{w.trials} trials at {top} hit both delays"
        return None
    if w.name == "sync-mesh":
        rms = [r["value"] for r in rows if r["metric"] == "position_rms_m"]
        if len(rms) != w.trials:
            return f"{len(rms)} position_rms_m rows, expected {w.trials}"
        worst = max(rms)
        if not worst < SYNC_POSITION_RMS_BOUND_M:
            return f"position_rms_m {worst} >= {SYNC_POSITION_RMS_BOUND_M} m"
        return None
    raise KeyError(w.name)                   # pragma: no cover


def _by_trial(rows) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    for r in rows:
        out.setdefault(r["trial"], {})[r["metric"]] = r["value"]
    return out
