"""Benchmark of the ``isaclab`` CLI on generated workloads.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload simulate-psk-omp --seed 1 \\
        --seconds 20 --trace 0

The workload's input files are generated from ``--seed`` into a scratch
directory under ``.bench_work/``. The same command (one *operation*) then
runs again and again in a fresh interpreter for ``--seconds`` seconds,
with BLAS pinned to one thread. Every operation's ``rows.csv`` must pass
the workload's check, and all of them must have one digest.

``--trace 0`` reports the end-to-end metrics, each a median over the
operations of the run:

- ``trials_per_s``: trials (times sweep points) per second of the
  command's wall time; input generation and set-up probes are untimed;
- ``setup_s``: a fresh interpreter importing isaclab and loading the
  config and its scene or sync file, probed once before each operation;
- ``peak_rss_mb``: peak resident memory of the command process;
- ``ops_ok_ratio``: operations that exited 0 and passed the check, over
  operations run.

The two times are scaled to a host of nominal speed. On a shared machine
the speed of the cores drifts by a quarter and more over minutes, far
more than the changes the benchmark must resolve. A fixed NumPy kernel
that does not touch isaclab (``reference.py``) is timed before and
after every operation, on one thread and on one per trial worker. Each
time is multiplied by ``REFERENCE_NOMINAL_S`` over the mean of the two
kernel times around it, the set-up probe's with the one-thread kernel,
the command's with the kernel on as many threads as it has workers.
The raw times and the speed factors are kept in the details line.

``--trace 1`` alternates plain and traced operations (see ``tracer.py``)
and reports the per-layer metrics. The last line of standard output is
one JSON object; the line before it holds the environment, the input and
output digests, the failed-operation ratio and the raw per-operation
figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OP_TIMEOUT_S = 100.0
REFERENCE_NOMINAL_S = 0.25          # reference.py on a quiet host
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# fresh interpreter: import isaclab and load the workload's input files
SETUP_PROBE = """\
import sys
from isaclab import harness, scene, syncnet
cfg = harness.load_config(sys.argv[1])
if cfg.scene_file is not None:
    scene.load_scene(cfg.base_dir / cfg.scene_file)
if cfg.sync_file is not None:
    syncnet.load_sync_scenario(cfg.base_dir / cfg.sync_file)
"""

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "ops_ok_ratio": "ratio"}

PER_LAYER_UNITS = {
    "estimators.dictionary_s": "s",
    "estimators.dictionary_self_s": "s",
    "estimators.dictionary_calls": "count",
    "estimators.dictionary_atoms": "count",
    "estimators.dictionary_repeat_ratio": "ratio",
    "estimators.dictionary_cpu_s": "s",
    "scene.apply_channel_s": "s",
    "scene.apply_channel_calls": "count",
    "scene.integer_delay_ratio": "ratio",
    "estimators.omp_s": "s",
    "estimators.omp_calls": "count",
    "estimators.demodulate_s": "s",
    "estimators.music_s": "s",
    "estimators.music_calls": "count",
    "estimators.music_grid_cells": "count",
    "estimators.music_cpu_s": "s",
    "estimators.reported_flops": "flop",
    "waveform.generate_s": "s",
    "scene.load_scene_s": "s",
    "scene.load_scene_calls": "count",
    "metrics.r_squared_s": "s",
    "unified.estimator_metric_s": "s",
    "harness.run_trial_s": "s",
    "harness.run_trial_calls": "count",
    "harness.run_trial_wait_s": "s",
    "harness.trial_p50_ms": "ms",
    "harness.trial_tail_ms": "ms",
    "harness.trial_tail_pct": "%",
    "harness.parallel_efficiency": "ratio",
    "harness.cpu_s": "s",
    "harness.load_config_s": "s",
    "syncnet.load_sync_scenario_s": "s",
    "harness.emit_report_s": "s",
    "syncnet.bp_s": "s",
    "syncnet.bp_calls": "count",
    "syncnet.bp_iterations": "count",
    "syncnet.bp_s_per_iteration": "s",
    "syncnet.bp_self_s": "s",
    "syncnet.pair_log_likelihood_s": "s",
    "syncnet.pair_log_likelihood_calls": "count",
    "syncnet.simulate_measurements_s": "s",
    "syncnet.estimate_mmse_s": "s",
    "syncnet.converged_ratio": "ratio",
    "syncnet.position_rms_m": "m",
    "trace_overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(root: Path, work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict, cwd: Path, log: Path):
    """Run argv to completion; return (exit code, wall s, peak RSS MiB).

    The peak RSS comes from wait4, which reports the larger of the child
    and any descendant it waited for.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:                # interrupted: leave no child
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(root: Path) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(root)}


def git_commit(root: Path) -> str:
    """Commit of a git checkout read from .git, or 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = root / ".git" / name
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip()
            for line in (root / ".git" / "packed-refs").read_text(
                    encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks operations of one generated workload."""

    def __init__(self, root: Path, work: Path, gen: workloads.Generated):
        self.root, self.work, self.gen = root, work, gen
        self.env = child_env(root, work)
        self.count = 0
        self.digests: set[str] = set()
        self.failures: list[str] = []

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", SETUP_PROBE, str(self.gen.config)]
        log = self.work / "setup.log"
        code, wall, _ = run_child(argv, self.env, self.root, log)
        if code != 0:
            raise RuntimeError("setup probe failed: "
                               + log.read_text(errors="replace")[-2000:])
        return wall

    def reference_time(self, threads: int) -> float:
        """Seconds of ``reference.py`` on ``threads`` threads.

        It runs in a child so that its arrays never raise this process's
        peak memory, which every child it spawns inherits as its own.
        """
        out = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(threads)],
            env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, check=True)
        return float(out.stdout)

    def op(self, traced: bool) -> dict:
        """One CLI command; returns its figures and the check's verdict."""
        self.count += 1
        out = self.work / f"op{self.count}"
        cli = self.gen.cli_args(out)
        spans_path = out.with_suffix(".spans.json")
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(spans_path), "--", *cli]
        else:
            argv = [sys.executable, "-m", "isaclab.cli", *cli]
        log = out.with_suffix(".log")
        code, wall, rss = run_child(argv, self.env, self.root, log)
        rec = {"traced": traced, "wall_s": wall, "rss_mb": rss, "ok": False}
        rows = out / "rows.csv"
        if code != 0 or not rows.exists():
            why = f"exit {code}: " + log.read_text(errors="replace")[-500:]
        else:
            text = rows.read_text(encoding="utf-8")
            rec["digest"] = hashlib.sha256(text.encode()).hexdigest()
            self.digests.add(rec["digest"])
            why = workloads.check_rows(self.gen, text)
            if why is None:
                rec["ok"] = True
                rec["rows"] = text
        if why is not None:
            self.failures.append(f"op {self.count}: {why}")
        if traced and spans_path.exists():
            rec["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        return rec


def median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list]:
    # reference timings bracket each set-up probe and operation: on one
    # thread for the probe, on one per trial worker for the command
    workers = runner.gen.workload.workers

    def speeds():
        one = runner.reference_time(1)
        return one, one if workers == 1 else runner.reference_time(workers)

    refs, ops = [speeds()], []
    deadline = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() < deadline:
        setup = runner.setup_time()
        ops.append(runner.op(traced=False))
        ops[-1]["setup_s"] = setup
        refs.append(speeds())
    for i, o in enumerate(ops):
        (one_a, all_a), (one_b, all_b) = refs[i], refs[i + 1]
        o["setup_speed"] = 0.5 * (one_a + one_b) / REFERENCE_NOMINAL_S
        o["speed_factor"] = 0.5 * (all_a + all_b) / REFERENCE_NOMINAL_S
    good = [o for o in ops if o["ok"]]
    trials = runner.gen.workload.trials_per_op
    return {
        "trials_per_s": median([trials / o["wall_s"] * o["speed_factor"]
                                for o in good]),
        "setup_s": median([o["setup_s"] / o["setup_speed"] for o in ops]),
        "peak_rss_mb": median([o["rss_mb"] for o in good]),
        "ops_ok_ratio": len(good) / len(ops),
    }, ops


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list]:
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() < deadline:
        ops.append(runner.op(traced=len(ops) % 2 == 1))
    plain = [o["wall_s"] for o in ops if o["ok"] and not o["traced"]]
    traced = [o for o in ops if o["ok"] and o["traced"] and "trace" in o]
    per_op = [layer_metrics(o["trace"], o["rows"], runner.gen) for o in traced]
    metrics = {k: median([m[k] for m in per_op]) for k in PER_LAYER_UNITS
               if k not in ("harness.trial_p50_ms", "harness.trial_tail_ms",
                            "harness.trial_tail_pct",
                            "trace_overhead_ratio")}
    trial_ms = [1e3 * (s["end"] - s["start"]) for o in traced
                for s in o["trace"]["spans"]
                if s["name"] == "harness.run_trial"]
    p50, tail, pct = trial_percentiles(trial_ms)
    metrics["harness.trial_p50_ms"] = p50
    metrics["harness.trial_tail_ms"] = tail
    metrics["harness.trial_tail_pct"] = pct
    if plain and traced:
        metrics["trace_overhead_ratio"] = (
            median([o["wall_s"] for o in traced]) / median(plain) - 1.0)
    else:
        metrics["trace_overhead_ratio"] = 0.0
    return metrics, ops


def trial_percentiles(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest whole percentile with at least ten samples
    beyond it (the median when there are too few samples)."""
    if not samples:
        return 0.0, 0.0, 0.0
    n = len(samples)
    pct = max(50, 100 * (n - 10) // n)
    return (float(np.percentile(samples, 50)),
            float(np.percentile(samples, pct)), float(pct))


def layer_metrics(trace: dict, rows_text: str,
                  gen: workloads.Generated) -> dict:
    """Per-layer figures of one traced command."""
    spans = trace["spans"]
    by_name: dict[str, list[dict]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] >= 0:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   for s in by_name.get(name, ()))

    def cpu(name):
        return sum(s["cpu"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def share(name, flag):
        group = by_name.get(name, ())
        return sum(1 for s in group if flag(s)) / len(group) if group else 0.0

    seen_keys: set[str] = set()

    def repeated(span):
        hit = span["key"] in seen_keys
        seen_keys.add(span["key"])
        return hit

    dicts = sorted(by_name.get("estimators.Dictionary", ()),
                   key=lambda s: s["start"])
    bps = by_name.get("syncnet.run_loopy_bp", ())
    iterations = sum(s["iterations"] for s in bps)
    rows = workloads.parse_rows(rows_text)
    rms = [r["value"] for r in rows if r["metric"] == "position_rms_m"]
    wall, workers = trace["wall_s"], gen.workload.workers
    return {
        "estimators.dictionary_s": busy("estimators.Dictionary"),
        "estimators.dictionary_self_s": self_time("estimators.Dictionary"),
        "estimators.dictionary_calls": calls("estimators.Dictionary"),
        "estimators.dictionary_atoms": sum(s["atoms"] for s in dicts),
        "estimators.dictionary_repeat_ratio":
            (sum(1 for s in dicts if repeated(s)) / len(dicts)
             if dicts else 0.0),
        "estimators.dictionary_cpu_s": cpu("estimators.Dictionary"),
        "scene.apply_channel_s": busy("scene.apply_channel"),
        "scene.apply_channel_calls": calls("scene.apply_channel"),
        "scene.integer_delay_ratio":
            share("scene.apply_channel", lambda s: s["integer_delay"]),
        "estimators.omp_s": busy("estimators.omp_estimate"),
        "estimators.omp_calls": calls("estimators.omp_estimate"),
        "estimators.demodulate_s": busy("estimators.demodulate"),
        "estimators.music_s": busy("estimators.music_estimate"),
        "estimators.music_calls": calls("estimators.music_estimate"),
        "estimators.music_grid_cells":
            sum(s["grid_cells"]
                for s in by_name.get("estimators.music_estimate", ())),
        "estimators.music_cpu_s": cpu("estimators.music_estimate"),
        "estimators.reported_flops":
            sum(s["flops"] for n in ("estimators.omp_estimate",
                                     "estimators.music_estimate")
                for s in by_name.get(n, ())),
        "waveform.generate_s": busy("waveform.generate"),
        "scene.load_scene_s": busy("scene.load_scene"),
        "scene.load_scene_calls": calls("scene.load_scene"),
        "metrics.r_squared_s": busy("metrics.r_squared"),
        "unified.estimator_metric_s": busy("unified.estimator_metric"),
        "harness.run_trial_s": busy("harness.run_trial"),
        "harness.run_trial_calls": calls("harness.run_trial"),
        # busy but not on a CPU: waiting for the interpreter lock or host
        "harness.run_trial_wait_s":
            busy("harness.run_trial") - cpu("harness.run_trial"),
        "harness.parallel_efficiency":
            busy("harness.run_trial") / (wall * workers),
        "harness.cpu_s": trace["cpu_s"],
        "harness.load_config_s": busy("harness.load_config"),
        "syncnet.load_sync_scenario_s": busy("syncnet.load_sync_scenario"),
        "harness.emit_report_s": busy("harness.emit_report"),
        "syncnet.bp_s": busy("syncnet.run_loopy_bp"),
        "syncnet.bp_calls": len(bps),
        "syncnet.bp_iterations": iterations,
        "syncnet.bp_s_per_iteration":
            busy("syncnet.run_loopy_bp") / iterations if iterations else 0.0,
        "syncnet.bp_self_s": self_time("syncnet.run_loopy_bp"),
        "syncnet.pair_log_likelihood_s": busy("syncnet.pair_log_likelihood"),
        "syncnet.pair_log_likelihood_calls":
            calls("syncnet.pair_log_likelihood"),
        "syncnet.simulate_measurements_s":
            busy("syncnet.simulate_measurements"),
        "syncnet.estimate_mmse_s": busy("syncnet.estimate_mmse"),
        "syncnet.converged_ratio":
            share("syncnet.run_loopy_bp",
                  lambda s: s["iterations"] < s["max_iterations"]),
        "syncnet.position_rms_m": max(rms) if rms else 0.0,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_benchmark(root: Path, workload: workloads.Workload, seed: int,
                  seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, details line)."""
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                 dir=root / ".bench_work"))
    try:
        gen = workloads.generate(workload, seed, work / "inputs")
        runner = Runner(root, work, gen)
        runner.setup_time()                  # fill bytecode caches; untimed
        if trace:
            metrics, ops = per_layer(runner, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, ops = end_to_end(runner, seconds)
            units = END_TO_END_UNITS
        failed = sum(1 for o in ops if not o["ok"])
        if len(runner.digests) > 1:
            runner.failures.append(
                f"{len(runner.digests)} distinct rows.csv digests for one "
                "seed")
        details = {
            "workload": workload.name, "seed": seed, "why": workload.why,
            "environment": environment(root),
            "input_digest": gen.digest(),
            "rows_digests": sorted(runner.digests),
            "ops_failed_ratio": failed / len(ops),
            "failures": runner.failures,
            "ops": [{k: o[k] for k in ("traced", "wall_s", "rss_mb", "ok",
                                       "setup_s", "setup_speed",
                                       "speed_factor") if k in o}
                    for o in ops],
        }
        result = {
            "correct": not runner.failures,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:                      # another run still uses it
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "isaclab" / "cli.py").is_file():
        print(f"bench: no isaclab source under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    result, details = run_benchmark(root, workloads.WORKLOADS[args.workload],
                                    args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
