"""Self-tests of the benchmark on tiny versions of its workloads.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "simulate-psk-omp": replace(workloads.WORKLOADS["simulate-psk-omp"],
                                trials=2),
    "sweep-chirp-music": replace(workloads.WORKLOADS["sweep-chirp-music"],
                                 trials=2),
    "sync-mesh": replace(workloads.WORKLOADS["sync-mesh"], particles=300),
}
# the issue's profile of sweep-chirp-music was taken at one worker
SWEEP_ONE_WORKER = replace(TINY["sweep-chirp-music"], workers=1)

END_TO_END = {"trials_per_s": "trials/s", "setup_s": "s",
              "peak_rss_mb": "MiB", "ops_ok_ratio": "ratio"}

PER_LAYER = (
    "estimators.dictionary_s", "estimators.dictionary_self_s",
    "estimators.dictionary_calls", "estimators.dictionary_atoms",
    "estimators.dictionary_repeat_ratio", "estimators.dictionary_cpu_s",
    "scene.apply_channel_s",
    "scene.apply_channel_calls", "scene.integer_delay_ratio",
    "estimators.omp_s", "estimators.omp_calls", "estimators.demodulate_s",
    "estimators.music_s", "estimators.music_calls",
    "estimators.music_grid_cells", "estimators.music_cpu_s",
    "estimators.reported_flops",
    "waveform.generate_s", "scene.load_scene_s", "scene.load_scene_calls",
    "metrics.r_squared_s", "unified.estimator_metric_s",
    "harness.run_trial_s", "harness.run_trial_calls",
    "harness.run_trial_wait_s",
    "harness.trial_p50_ms", "harness.trial_tail_ms",
    "harness.parallel_efficiency", "harness.cpu_s", "harness.load_config_s",
    "syncnet.load_sync_scenario_s", "harness.emit_report_s", "syncnet.bp_s",
    "syncnet.bp_calls", "syncnet.bp_iterations",
    "syncnet.bp_s_per_iteration", "syncnet.bp_self_s",
    "syncnet.pair_log_likelihood_s", "syncnet.pair_log_likelihood_calls",
    "syncnet.simulate_measurements_s", "syncnet.estimate_mmse_s",
    "syncnet.converged_ratio", "syncnet.position_rms_m",
    "trace_overhead_ratio",
)

# spans below the harness driver, by the per-layer busy-time metric
LAYER_BUSY = ("estimators.dictionary_s", "scene.apply_channel_s",
              "estimators.omp_s", "estimators.demodulate_s",
              "estimators.music_s", "waveform.generate_s",
              "scene.load_scene_s", "metrics.r_squared_s",
              "unified.estimator_metric_s", "syncnet.pair_log_likelihood_s",
              "syncnet.simulate_measurements_s", "syncnet.estimate_mmse_s",
              "harness.load_config_s", "syncnet.load_sync_scenario_s",
              "harness.emit_report_s")


def _bench(workload, trace, seed=3):
    return run.run_benchmark(ROOT, workload, seed, 0.0, trace)


@pytest.fixture(scope="module")
def benchmark_file():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced():
    out = {name: _bench(w, True)[0]["metrics"] for name, w in TINY.items()}
    out["sweep-one-worker"] = _bench(SWEEP_ONE_WORKER, True)[0]["metrics"]
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_and_units(name, benchmark_file):
    result, details = _bench(TINY[name], False)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert details["ops_failed_ratio"] == 0.0
    assert len(details["rows_digests"]) == 1
    declared = {m["name"]: m["unit"] for m in benchmark_file["end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_and_units(traced, benchmark_file):
    declared = {m["name"]: m["unit"] for m in benchmark_file["per_layer"]}
    assert set(PER_LAYER) <= set(declared)
    for metrics in traced.values():
        assert {k: v["unit"] for k, v in metrics.items()} == declared


def _largest_layer(metrics, exclude=()):
    return max((k for k in LAYER_BUSY if k not in exclude),
               key=lambda k: metrics[k]["value"])


def test_attribution_simulate(traced):
    m = traced["simulate-psk-omp"]
    assert _largest_layer(m) == "estimators.dictionary_s"
    assert m["estimators.dictionary_repeat_ratio"]["value"] == 0.0
    assert m["estimators.dictionary_atoms"]["value"] == 576 * 2
    assert m["scene.integer_delay_ratio"]["value"] == 1.0


def test_attribution_sweep(traced):
    one = traced["sweep-one-worker"]
    assert _largest_layer(one) == "estimators.music_s"
    m = traced["sweep-chirp-music"]
    # at two trial threads, Dictionary's Python loop (and apply_channel
    # inside it) contends for the interpreter lock and can overtake MUSIC
    dictionary_tree = ("estimators.dictionary_s", "scene.apply_channel_s")
    assert _largest_layer(m, exclude=dictionary_tree) == "estimators.music_s"
    assert m["harness.run_trial_wait_s"]["value"] > 0.0
    # 4 points x 2 trials, one chirp: every build after the first repeats
    assert m["estimators.dictionary_repeat_ratio"]["value"] == 7 / 8
    assert m["estimators.music_calls"]["value"] == 8


def test_attribution_sync(traced):
    m = traced["sync-mesh"]
    bp_self = m["syncnet.bp_self_s"]["value"]
    assert all(bp_self > m[k]["value"] for k in LAYER_BUSY)
    assert m["syncnet.bp_calls"]["value"] == 1
    assert m["harness.run_trial_calls"]["value"] == 0


def test_same_seed_same_inputs_and_rows():
    w = TINY["simulate-psk-omp"]
    a, b, c = (_bench(w, False, seed)[1] for seed in (5, 5, 6))
    assert a["input_digest"] == b["input_digest"] != c["input_digest"]
    assert a["rows_digests"] == b["rows_digests"] != c["rows_digests"]


def _good_rows(tmp_path, name):
    gen = workloads.generate(TINY[name], 3, tmp_path / "in")
    runner = run.Runner(ROOT, tmp_path, gen)
    rec = runner.op(traced=False)
    assert rec["ok"], runner.failures
    return gen, rec["rows"]


def _corrupt(text, metric, value):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) == 7 and parts[3] == metric:
            parts[4] = repr(value)
            lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,metric,value", [
    ("simulate-psk-omp", "ber", 0.5),
    ("simulate-psk-omp", "delay_rmse", 3e-6),
    ("sweep-chirp-music", "delay_rmse", 5e-6),
    ("sync-mesh", "position_rms_m", 0.5),
])
def test_checks_reject_corrupted_rows(tmp_path, name, metric, value):
    gen, text = _good_rows(tmp_path, name)
    assert workloads.check_rows(gen, text) is None
    assert workloads.check_rows(gen, _corrupt(text, metric, value))
    assert workloads.check_rows(gen, text.replace("trial,", "trail,"))
    assert workloads.check_rows(gen, "")
