import json
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from isaclab import (cli, errors, estimators, harness, metrics, scene,
                     syncnet, waveform)


def test_splitmix64_known_vector():
    # first output of the SplitMix64 stream seeded with 0
    assert harness.splitmix64(0) == 0xE220A8397B1DCDAF
    # stays within 64 bits
    assert 0 <= harness.splitmix64(2 ** 64 - 1) < 2 ** 64


def test_derive_seed_distinct_and_deterministic():
    seeds = {harness.derive_seed(42, t, comp)
             for t in range(50) for comp in ("trial", "noise", "clutter")}
    assert len(seeds) == 150
    assert harness.derive_seed(42, 7, "noise") \
        == harness.derive_seed(42, 7, "noise")
    assert harness.derive_seed(42, 7, "noise") \
        != harness.derive_seed(43, 7, "noise")


def _write_scene(path):
    scene.save_scene(scene.TargetScene(
        (scene.Target(1.0, 3e-6, 0.0),), label="one"), path)


_ALL_METRICS = ("papr, ber, ser, delay_rmse, doppler_rmse, residual_energy, "
                "r_squared, w_cost, estimator_j")

_PSK_OMP = """[waveform]
kind = psk
bits = 64
bits-per-symbol = 1
sample-rate = 1e6
oversampling = 2

[estimator]
kind = omp
sparsity = 1
delay-bins = 8
"""

_CHIRP_MUSIC = """[waveform]
kind = chirp
bandwidth = 4e5
duration = 6.4e-5

[estimator]
kind = music
order = 1
delay-bins = 16
"""


def _config_text(scene_name="scene.txt", trials=3, extra="",
                 metrics="papr, ber, delay_rmse, residual_energy, w_cost",
                 probe=_PSK_OMP, experiment=""):
    return f"""[experiment]
schema-version = 1
trials = {trials}
master-seed = 99
workers = 1
{experiment}
[scene]
file = {scene_name}

[noise]
kind = white
level = 1e-10

{probe}
[metrics]
list = {metrics}

[unified]
lambda = 0.5
cost-weights = flops:1.0
c-max = 1e9
{extra}"""


def test_load_config_valid(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
    cfg = harness.load_config(tmp_path / "exp.ini")
    assert cfg.trials == 3
    assert cfg.master_seed == 99
    assert cfg.est_kind == "omp"
    assert cfg.metric_list == ("papr", "ber", "delay_rmse",
                               "residual_energy", "w_cost")


def test_load_config_aggregates_all_problems(tmp_path):
    (tmp_path / "bad.ini").write_text("""[experiment]
schema-version = 2
trials = 0
typo-key = 1

[mystery]
x = 1

[metrics]
list = papr, bogus
""")
    with pytest.raises(errors.ValidationError) as exc:
        harness.load_config(tmp_path / "bad.ini")
    msgs = "\n".join(exc.value.problems)
    assert "schema-version" in msgs
    assert "trials" in msgs
    assert "typo-key" in msgs
    assert "[mystery]" in msgs
    assert "bogus" in msgs
    assert len(exc.value.problems) >= 5


def test_load_config_missing_files_reported(tmp_path):
    (tmp_path / "exp.ini").write_text(_config_text("nope.txt"))
    with pytest.raises(errors.ValidationError, match="does not exist"):
        harness.load_config(tmp_path / "exp.ini")


def test_run_experiment_rows_and_sorting(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=2))
    cfg = harness.load_config(tmp_path / "exp.ini")
    rows = harness.run_experiment(cfg)
    assert len(rows) == 2 * 5
    keys = [(r.trial, r.scenario, r.estimator, r.metric) for r in rows]
    assert keys == sorted(keys)
    ber = [r for r in rows if r.metric == "ber"]
    assert all(r.value == 0.0 for r in ber)       # near-noiseless channel
    rmse = [r for r in rows if r.metric == "delay_rmse"]
    assert all(r.value < 1e-9 for r in rmse)      # on-grid target
    assert all(r.units == "s" for r in rmse)


def test_run_experiment_worker_count_invariance(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=4))
    cfg = harness.load_config(tmp_path / "exp.ini")
    rows1 = harness.run_experiment(cfg)
    cfg.workers = 4
    rows4 = harness.run_experiment(cfg)
    assert rows1 == rows4
    p1 = harness.emit_report(rows1, "csv", tmp_path / "o1")[0]
    p4 = harness.emit_report(rows4, "csv", tmp_path / "o4")[0]
    assert p1.read_bytes() == p4.read_bytes()


def test_emit_report_csv_format(tmp_path):
    rows = [harness.ResultRow(0, "s", "omp", "ber", 0.125, "ratio", 7)]
    path = harness.emit_report(rows, "csv", tmp_path)[0]
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "trial,scenario,estimator,metric,value,units,seed"
    assert lines[1] == "0,s,omp,ber,0.125,ratio,7"
    assert text.endswith("\n")


def test_emit_report_summary(tmp_path):
    rows = [harness.ResultRow(t, "s", "e", "ber", float(t), "ratio", 1)
            for t in range(3)]
    path = harness.emit_report(rows, "summary", tmp_path)[0]
    text = path.read_text()
    assert text.startswith("s,e,ber: n=3 mean=1.0 ")
    assert "min=0.0" in text and "max=2.0" in text
    with pytest.raises(ValueError):
        harness.emit_report([], "csv", tmp_path)


def test_emit_report_summary_keeps_scenarios_apart(tmp_path):
    # two sweep points' rows of one metric are two lines, not one pooled
    rows = [harness.ResultRow(t, scenario, "music", "r_squared", value,
                              "ratio", 1)
            for t in range(2)
            for scenario, value in (("ebn0=10dB", 0.5), ("ebn0=30dB", 0.9))]
    path = harness.emit_report(rows, "summary", tmp_path)[0]
    lines = path.read_text().splitlines()
    assert [line.split(" ")[:3] for line in lines] == [
        ["ebn0=10dB,music,r_squared:", "n=2", "mean=0.5"],
        ["ebn0=30dB,music,r_squared:", "n=2", "mean=0.9"]]


def test_store_and_recompute_metrics(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=2,
                                                   metrics=_ALL_METRICS))
    cfg = harness.load_config(tmp_path / "exp.ini")
    rows = harness.run_experiment(cfg, store_dir=tmp_path / "reports")
    assert (tmp_path / "reports" / "report_00000.json").exists()
    assert len(rows) == 2 * 9
    # same rows, exactly: every metric, scenario and estimator column
    assert harness.recompute_metrics(tmp_path / "reports", cfg) == rows
    with pytest.raises(errors.ParseError):
        harness.recompute_metrics(tmp_path / "empty", cfg)


@pytest.mark.parametrize("probe", [_PSK_OMP, _CHIRP_MUSIC],
                         ids=["psk-omp", "chirp-music"])
def test_cli_metrics_reproduces_simulate_bytes(tmp_path, probe):
    _write_scene(tmp_path / "scene.txt")
    text = _config_text(trials=2, metrics=_ALL_METRICS, probe=probe,
                        experiment="store-reports = true\n")
    (tmp_path / "exp.ini").write_text(text)
    ini = str(tmp_path / "exp.ini")
    assert cli.main(["simulate", "--config", ini,
                     "--out", str(tmp_path / "sim")]) == 0
    assert cli.main(["metrics", "--config", ini,
                     "--reports", str(tmp_path / "sim" / "reports"),
                     "--out", str(tmp_path / "re")]) == 0
    sim = (tmp_path / "sim" / "rows.csv").read_bytes()
    assert sim == (tmp_path / "re" / "rows.csv").read_bytes()
    lines = sim.decode().splitlines()[1:]
    assert len(lines) >= 2 * 7           # chirps carry no bits: no ber, ser
    assert all(",one,omp," in line or ",one,music," in line
               for line in lines)


_NO_ESTIMATOR = _config_text(
    trials=2, metrics="ber, w_cost, estimator_j",
    probe="[waveform]\nkind = psk\nbits = 64\n\n[estimator]\nkind = none\n",
    experiment="store-reports = true\n")

_DIRECT_LINK = """[experiment]
schema-version = 1
trials = 2
master-seed = 5
store-reports = true

[noise]
ebn0-db = 20

""" + _PSK_OMP + """
[metrics]
list = ber, delay_rmse, w_cost
"""


@pytest.mark.parametrize("text, written", [
    (_NO_ESTIMATOR, ["ber"]),
    (_DIRECT_LINK, ["ber", "w_cost"]),
], ids=["no-estimator", "direct-link"])
def test_a_listed_metric_that_does_not_apply_writes_no_row(tmp_path, text,
                                                            written):
    # no estimator ran, so no cost or target estimate exists for w_cost
    # and estimator_j; the direct link has no target for delay_rmse to
    # pair with an estimate
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(text)
    ini = str(tmp_path / "exp.ini")
    assert cli.main(["simulate", "--config", ini,
                     "--out", str(tmp_path / "sim")]) == 0
    assert cli.main(["metrics", "--config", ini,
                     "--reports", str(tmp_path / "sim" / "reports"),
                     "--out", str(tmp_path / "re")]) == 0
    sim = (tmp_path / "sim" / "rows.csv").read_bytes()
    assert sim == (tmp_path / "re" / "rows.csv").read_bytes()
    metrics = [line.split(",")[3] for line in sim.decode().splitlines()[1:]]
    assert metrics == written * 2


def test_recompute_missing_input_is_validation_error(tmp_path, capsys):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "stored.ini").write_text(_config_text(trials=1,
                                                      metrics="ber"))
    cfg = harness.load_config(tmp_path / "stored.ini")
    harness.run_experiment(cfg, store_dir=tmp_path / "reports")
    # papr and r_squared are reduced only when listed at simulate time
    (tmp_path / "exp.ini").write_text(_config_text(trials=1,
                                                   metrics="ber, papr"))
    cfg = harness.load_config(tmp_path / "exp.ini")
    with pytest.raises(errors.ValidationError,
                       match=r"report_00000\.json: metric 'papr'"):
        harness.recompute_metrics(tmp_path / "reports", cfg)
    assert cli.main(["metrics", "--config", str(tmp_path / "exp.ini"),
                     "--reports", str(tmp_path / "reports"),
                     "--out", str(tmp_path / "re")]) == 2
    assert "papr" in capsys.readouterr().err


@pytest.mark.parametrize("sync, field, value, message", [
    (False, None, None, "a trial record is a JSON object"),
    (False, "scenario", "a,b", "scenario 'a,b' would need quotes"),
    (False, "cost_vector", {"flops": "x"}, "'<' not supported"),
    (False, "tx_bits", 5, "too many indices"),
    (False, "estimated_targets", [[1, 2]], "list index out of range"),
    (False, "true_targets", None, "'NoneType' object is not iterable"),
    (True, "position_rms_m", [1, 2], "float() argument must be"),
    (True, "agent_position_error", [[4]], "not enough values to unpack"),
    (True, "estimator", "b,p", "estimator 'b,p' would need quotes"),
    (True, "trial", "x", "trial 'x', seed"),
    (True, "position_rms_m", float("nan"), "position_rms_m is nan"),
    (True, "agent_position_error", [[4.5, 0.1]], "agent id 4.5 is not an int"),
    (True, "agent_position_error", [[3, 0.1], [True, 0.2]],
     "agent id True is not an int"),
    (True, "position_rms_m", "0.5", "position_rms_m is '0.5', not a number"),
    (True, "to_rms_s", False, "to_rms_s is False, not a number"),
], ids=["not-an-object", "comma-scenario", "text-cost", "scalar-bits",
        "short-target", "null-targets", "list-rms", "short-agent-error",
        "comma-estimator", "text-trial", "nan-rms", "float-agent-id",
        "bool-agent-id", "text-rms", "bool-rms"])
def test_recompute_rejects_a_record_rows_csv_cannot_hold(tmp_path, capsys,
                                                         sync, field, value,
                                                         message):
    # a stored record is outside input: each defect is an input error that
    # names the file, exit 2 and no rows.csv, never a traceback or a row
    if sync:
        ini = _sync_config(tmp_path)
        harness.run_sync(harness.load_config(ini),
                         store_dir=tmp_path / "reports")
    else:
        _write_scene(tmp_path / "scene.txt")
        ini = str(tmp_path / "exp.ini")
        (tmp_path / "exp.ini").write_text(_config_text(
            trials=1, metrics="ber, w_cost, delay_rmse"))
        harness.run_experiment(harness.load_config(ini),
                               store_dir=tmp_path / "reports")
    stored = tmp_path / "reports" / "report_00000.json"
    rec = json.loads(stored.read_text())
    stored.write_text(json.dumps({**rec, field: value} if field else [rec]))
    assert cli.main(["metrics", "--config", ini,
                     "--reports", str(tmp_path / "reports"),
                     "--out", str(tmp_path / "re")]) == 2
    assert capsys.readouterr().err.startswith(
        f"input error: {stored}: {message}")
    assert not (tmp_path / "re").exists()


def test_cli_sweep_without_scene_is_direct_link(tmp_path):
    # no [scene]: the receiver sees the probe plus noise, so the BPSK BER
    # follows Q(sqrt(2 Eb/N0)): 0.079 at 0 dB, 0.012 at 4 dB, ~0 at 20 dB
    (tmp_path / "exp.ini").write_text("""[experiment]
schema-version = 1
trials = 2
master-seed = 3

[waveform]
kind = psk
bits = 2000

[metrics]
list = ber

[sweep]
parameter = ebn0-db
values = 0, 4, 20
""")
    assert cli.main(["sweep", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 0
    ber = {}
    for line in (tmp_path / "out" / "rows.csv").read_text().splitlines()[1:]:
        _, tag, _, metric, value, _, _ = line.split(",")
        ber.setdefault(tag, []).append(float(value))
    mean = {tag: float(np.mean(v)) for tag, v in ber.items()}
    assert 0.06 < mean["ebn0=0dB"] < 0.10
    assert mean["ebn0=0dB"] > mean["ebn0=4dB"] > mean["ebn0=20dB"]
    assert mean["ebn0=20dB"] < 1e-3


@pytest.mark.parametrize("noise", ["", "[noise]\nebn0-db = 10\n"],
                         ids=["noiseless", "ebn0=10dB"])
def test_cli_empty_scene_receives_no_echo(tmp_path, noise):
    # a [scene] without targets is an empty channel, not the direct link:
    # the matched filter finds nothing to fit when no noise is set, and
    # the decoder gets no probe to read the bits from at either setting
    scene.save_scene(scene.TargetScene((), label="empty"),
                     tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(f"""[experiment]
schema-version = 1
trials = 2
master-seed = 5
store-reports = true

[scene]
file = scene.txt

{noise}
{_PSK_OMP.replace("kind = omp", "kind = matched-filter")}
[metrics]
list = ber
""")
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 0
    ber = [float(line.split(",")[4]) for line in
           (tmp_path / "out" / "rows.csv").read_text().splitlines()[1:]]
    assert len(ber) == 2 and all(0.3 < b < 0.7 for b in ber)
    for path in sorted((tmp_path / "out" / "reports").glob("*.json")):
        rec = json.loads(path.read_text())
        assert rec["true_targets"] == []
        if not noise:
            assert rec["estimated_targets"] == []
            assert rec["residual_energy"] == 0.0


def test_load_config_rejects_seed_component(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    text = _config_text().replace("level = 1e-10",
                                  "level = 1e-10\nseed-component = noise")
    (tmp_path / "exp.ini").write_text(text)
    with pytest.raises(errors.ValidationError, match="seed-component"):
        harness.load_config(tmp_path / "exp.ini")


def test_run_sweep_lambda(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    extra = "\n[sweep]\nparameter = lambda\nvalues = 0.2, 0.8\n"
    (tmp_path / "exp.ini").write_text(_config_text(trials=1, extra=extra))
    cfg = harness.load_config(tmp_path / "exp.ini")
    rows = harness.run_sweep(cfg)
    tags = {r.scenario for r in rows}
    assert tags == {"lambda=0.2", "lambda=0.8"}


def _no_trial(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("parameter, values, experiment, message", [
    # a lambda point's record would not hold the lambda its rows were
    # scored at, so `isaclab metrics` could not reproduce the sweep's rows
    ("ebn0-db", "0, 20", "store-reports = true\n",
     "store-reports = true: a sweep stores no records"),
    ("ebn0-db", "10, 10.0000001", "",
     "values 10.0 and 10.0000001 share the scenario tag 'ebn0=10dB'"),
    ("ebn0-db", "0, 0", "",
     "values 0.0 and 0.0 share the scenario tag 'ebn0=0dB'"),
    ("lambda", "0.5, 0.2, 0.5000001", "",
     "values 0.5 and 0.5000001 share the scenario tag 'lambda=0.5'"),
], ids=["store-reports", "ebn0-close", "ebn0-repeated", "lambda-close"])
def test_cli_sweep_rejects_before_any_trial(tmp_path, capsys, monkeypatch,
                                            parameter, values, experiment,
                                            message):
    _write_scene(tmp_path / "scene.txt")
    sweep = f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=1, extra=sweep, experiment=experiment)
        .replace("kind = white\nlevel = 1e-10\n", ""))
    monkeypatch.setattr(harness, "run_trial", _no_trial)
    assert cli.main(["sweep", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("probe", [
    _PSK_OMP.replace("kind = omp", "kind = matched-filter"), _PSK_OMP,
    _CHIRP_MUSIC], ids=["matched-filter", "omp", "music"])
def test_residual_energy_is_taken_over_the_whole_observation(tmp_path,
                                                             probe):
    # an echo at 30 us lies past the first probes' 8-bin grid, so the
    # matched filter's and OMP's dictionary window holds only part of it
    truth = scene.TargetScene((scene.Target(1.0, 30e-6, 0.0),))
    scene.save_scene(truth, tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=1, probe=probe, metrics="residual_energy, r_squared")
        .replace("kind = white\nlevel = 1e-10", "kind = none"))
    cfg = harness.load_config(tmp_path / "exp.ini")
    _, record = harness.run_trial(cfg, 0, truth)
    u = harness._build_waveform(cfg, np.random.default_rng(record["seed"]))
    rx = scene.apply_channel(u, truth).samples
    est = scene.TargetScene(tuple(scene.Target(complex(re, im), tau, nu)
                                  for re, im, tau, nu
                                  in record["estimated_targets"]))
    pred = estimators._pad_to(scene.apply_channel(u, est).samples, len(rx))
    assert record["residual_energy"] == pytest.approx(
        np.linalg.norm(rx - pred) ** 2, rel=1e-9)
    assert record["r_squared"] == pytest.approx(metrics.r_squared(
        np.concatenate([rx.real, rx.imag]),
        np.concatenate([pred.real, pred.imag])), abs=1e-9)


def test_ambiguity_rows(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
    cfg = harness.load_config(tmp_path / "exp.ini")
    lines = harness.ambiguity_rows(cfg, doppler_span=1e4, n_doppler=3)
    assert lines[0] == "doppler_hz,delay_s,magnitude"
    assert len(lines) > 10


def test_one_doppler_bin_is_the_zero_doppler_cut(tmp_path):
    # as the estimator's grid: one bin is 0 Hz, whatever the span
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
    assert cli.main(["ambiguity", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out"),
                     "--doppler-bins", "1"]) == 0
    lines = (tmp_path / "out" / "ambiguity.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"0.0"}


def test_cli_simulate_and_exit_codes(tmp_path, capsys):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=2))
    code = cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out"), "--format", "both"])
    assert code == 0
    assert (tmp_path / "out" / "rows.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()

    # validation failure -> exit 2
    (tmp_path / "bad.ini").write_text("[experiment]\nschema-version = 9\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "bad.ini")]) == 2
    err = capsys.readouterr().err
    assert "schema-version" in err

    # missing config file -> exit 2
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


def test_cli_runtime_error_exit_3(tmp_path, capsys, monkeypatch):
    # a failure a trial detects, not one of its input, exits 3
    def failing(cfg, t, base):
        raise errors.ToolkitError(f"trial {t} failed")

    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=1))
    monkeypatch.setattr(harness, "run_trial", failing)
    code = cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == "runtime error: trial 0 failed\n"


def _chirp_demo_with(tmp_path, monkeypatch, command, line, estimator=""):
    """Run demos/chirp.ini with `command` on its scene plus `line` (line
    4), its `[estimator]` section replaced by `estimator` if given; any
    trial fails the test."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the scene check")

    (tmp_path / "chirp.scene").write_text(
        f"scene-version: 1\nlabel: chirp\ntarget: 1.0 0.0 8.4e-05 0.0\n"
        f"{line}\n")
    ini = (Path(__file__).parents[1] / "demos" / "chirp.ini").read_text()
    music = "[estimator]\nkind = music\norder = 2\ndelay-bins = 256\n"
    assert music in ini
    ini = ini.replace(music, estimator or music)
    if command == "sweep":
        ini += "\n[sweep]\nparameter = ebn0-db\nvalues = 30\n"
        ini = ini.replace("store-reports = true", "")
    (tmp_path / "chirp.ini").write_text(ini)
    monkeypatch.setattr(harness, "run_trial", no_trial)
    return cli.main([command, "--config", str(tmp_path / "chirp.ini"),
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("line, message", [
    ("target: 1.0 0.0 6e-4 0.0",
     "target delay 0.0006 s exceeds the probe's frame of 0.000512 s"),
    ("clutter: 1e5 0.1 0 9e-4 -100 100", "clutter delay span's upper end "
     "0.0009 s exceeds the probe's frame of 0.000512 s"),
], ids=["target", "clutter"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_delay_past_the_frame_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch, command, line, message):
    # demos/chirp.ini's 512-sample chirp at 1 MHz is a 512 us frame, which
    # apply_channel cannot delay an echo past
    assert _chirp_demo_with(tmp_path, monkeypatch, command, line) == 2
    assert capsys.readouterr().err == (
        f"input error: {tmp_path / 'chirp.scene'}:4: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("target: 1.0 0.0 8.4e-05 6e5",
     "target Doppler 600000.0 Hz exceeds half the sample rate, 500000.0 Hz"),
    ("clutter: 1e5 0.1 0 1e-4 -6e5 100", "clutter Doppler span's end "
     "-600000.0 Hz exceeds half the sample rate, 500000.0 Hz"),
], ids=["target", "clutter"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_doppler_past_half_the_sample_rate_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch, command, line, message):
    # apply_channel cannot shift an echo past fs/2, 500 kHz for the demo
    assert _chirp_demo_with(tmp_path, monkeypatch, command, line) == 2
    assert capsys.readouterr().err == (
        f"input error: {tmp_path / 'chirp.scene'}:4: {message}\n")
    assert not (tmp_path / "out").exists()


_MF_3_DOPPLER_CELLS = ("[estimator]\nkind = matched-filter\n"
                       "delay-bins = 256\ndoppler-bins = 3\n"
                       "doppler-max = 1000\n")


@pytest.mark.parametrize("line, estimator, message", [
    # the demo's 256 delay cells are 0 to 255 us
    ("target: 1.0 0.0 3e-4 0.0", "",
     "target delay 0.0003 s is outside -5e-07 to 0.0002555 s, the "
     "estimator's delay grid and half a cell past each end"),
    # cells at -1000, 0 and 1000 Hz, so the grid's edges are +-1500 Hz
    ("target: 1.0 0.0 9e-05 -1600.0", _MF_3_DOPPLER_CELLS,
     "target Doppler -1600.0 Hz is outside -1500.0 to 1500.0 Hz"),
], ids=["delay", "doppler-cells"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_target_off_the_estimator_grid_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch, command, line, estimator, message):
    assert _chirp_demo_with(tmp_path, monkeypatch, command, line,
                            estimator) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation errors:\n")
    assert f"  - {tmp_path / 'chirp.scene'}:4: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, estimator", [
    ("target: 1.0 0.0 2.554e-4 0.0", ""),
    # MUSIC's one Doppler cell makes it a delay-only estimator
    ("target: 1.0 0.0 9e-05 4e4", ""),
    ("target: 1.0 0.0 9e-05 1499.0", _MF_3_DOPPLER_CELLS),
], ids=["delay", "music-moving-target", "doppler-cells"])
def test_a_target_within_half_a_cell_of_the_grid_runs(
        tmp_path, monkeypatch, line, estimator):
    with pytest.raises(AssertionError, match="a trial ran"):
        _chirp_demo_with(tmp_path, monkeypatch, "simulate", line, estimator)


@pytest.mark.parametrize("scene_text, probe, message", [
    ("scene-version: 1\ntarget: 1 0 nope 0\n", _PSK_OMP, "scene.txt:2"),
    ("scene-version: 1\nlabel: a,b\n", _PSK_OMP, "scene.txt:2: label 'a,b'"),
    (None, "", "[waveform]"),
], ids=["bad-scene-value", "comma-label", "no-waveform-section"])
def test_cli_input_errors_found_in_trials_exit_2(tmp_path, capsys,
                                                 scene_text, probe, message):
    if scene_text is None:
        _write_scene(tmp_path / "scene.txt")
    else:
        (tmp_path / "scene.txt").write_text(scene_text)
    (tmp_path / "exp.ini").write_text(_config_text(trials=1, probe=probe))
    code = cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, ini, message", [
    ("sweep", _config_text(trials=1), "[sweep] needs parameter and values"),
    ("sync", "[experiment]\nschema-version = 1\n\n[metrics]\n"
             "list = position_rms_m\n", "[sync] file is required"),
    ("sync", "[experiment]\nschema-version = 1\n", "[sync] file is required"),
    ("ambiguity", _config_text(trials=1, probe=""),
     "a [waveform] section is required"),
], ids=["sweep-without-sweep", "sync-without-file",
        "sync-without-file-or-metrics", "ambiguity-without-waveform"])
def test_cli_command_without_its_section_exits_2(tmp_path, capsys, command,
                                                 ini, message):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(ini)
    assert cli.main([command, "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_run_experiment_parses_scene_once(tmp_path, monkeypatch):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=3))
    cfg = harness.load_config(tmp_path / "exp.ini")
    calls = []
    load = scene.load_scene
    monkeypatch.setattr(scene, "load_scene",
                        lambda path, **kw: calls.append(path) or load(path,
                                                                      **kw))
    assert len(harness.run_experiment(cfg)) == 3 * 5
    assert len(calls) == 1


def test_simulate_trial_draws_the_scene_clutter(tmp_path):
    clutter = scene.ClutterModel(300.0, 0.05, (0.0, 7e-6), (-2e3, 2e3))
    scene.save_scene(scene.TargetScene((scene.Target(1.0, 3e-6, 0.0),),
                                       clutter, "cluttered"),
                     tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=1))
    cfg = harness.load_config(tmp_path / "exp.ini")
    base = scene.load_scene(tmp_path / "scene.txt")
    rows, record = harness.run_trial(cfg, 0, base)
    assert harness.run_trial(cfg, 0, base)[0] == rows
    # the record's truth is the target, then the trial's clutter draw
    drawn = scene.generate_clutter(
        clutter, harness.derive_seed(cfg.master_seed, 0, "clutter"))
    assert len(drawn.targets) > 1
    assert record["true_targets"] == harness._targets_doc(
        base.targets + drawn.targets)
    assert record["scenario"] == "cluttered"


_CHIRP_MF = _CHIRP_MUSIC.replace("kind = music", "kind = matched-filter")


@pytest.mark.parametrize("probe, builds", [
    (_CHIRP_MUSIC, 0), (_CHIRP_MF, 1), (_PSK_OMP, 1),
], ids=["music", "matched-filter", "omp"])
def test_dictionary_built_only_for_atom_estimators(tmp_path, monkeypatch,
                                                   probe, builds):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=2, probe=probe))
    cfg = harness.load_config(tmp_path / "exp.ini")
    calls = []
    build = estimators.Dictionary
    monkeypatch.setattr(estimators, "Dictionary",
                        lambda *args: calls.append(args) or build(*args))
    assert harness.run_experiment(cfg)
    assert len(calls) == 2 * builds


def _noise_config(tmp_path, noise, sweep=""):
    _write_scene(tmp_path / "scene.txt")
    text = _config_text(trials=1, extra=sweep).replace(
        "kind = white\nlevel = 1e-10", noise)
    (tmp_path / "exp.ini").write_text(text)
    return tmp_path / "exp.ini"


@pytest.mark.parametrize("noise, sweep, message", [
    ("ebn0-db = nan", "", "ebn0-db = 'nan': not a finite value"),
    ("ebn0-db = inf", "", "ebn0-db = 'inf': not a finite value"),
    ("kind = none\nebn0-db = 10", "", "kind = none conflicts"),
    ("kind = none", "\n[sweep]\nparameter = ebn0-db\nvalues = 0, 10\n",
     "kind = none conflicts"),
    ("", "\n[sweep]\nparameter = ebn0-db\nvalues = 0, nan\n",
     "[sweep] value 'nan' is not finite"),
    ("level = 1e-3", "", "level = 0.001 needs kind = white"),
    ("kind = none\nlevel = 1e-3", "", "level = 0.001 needs kind = white"),
    ("kind = white\nlevel = 1e-3\nebn0-db = 10", "",
     "level = 0.001 conflicts with an ebn0-db"),
    ("kind = white\nlevel = 1e-3",
     "\n[sweep]\nparameter = ebn0-db\nvalues = 0, 10\n",
     "level = 0.001 conflicts with an ebn0-db"),
    ("kind = white", "", "kind = white needs a level > 0"),
    ("kind = white\nlevel = 0", "", "kind = white needs a level > 0"),
], ids=["nan", "inf", "none-with-ebn0", "none-with-sweep", "nan-in-sweep",
        "level-without-kind", "level-with-kind-none", "level-with-ebn0",
        "level-with-sweep", "white-without-level", "white-at-level-0"])
def test_noise_config_conflicts_are_validation_errors(tmp_path, capsys,
                                                      noise, sweep, message):
    path = _noise_config(tmp_path, noise, sweep)
    with pytest.raises(errors.ValidationError) as exc:
        harness.load_config(path)
    assert any(message in p for p in exc.value.problems)
    command = "sweep" if sweep else "simulate"
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("cost-weights = flops:1.0", "cost-weights = flop:1.0",
     "names an unknown cost component"),
    ("cost-weights = flops:1.0", "cost-weights = flops:-0.5, time_samples:1.5",
     "cost-weight 'flops:-0.5' must be >= 0"),
    ("c-max = 1e9\n", "c-max = 1e9\n[sweep]\nparameter = lambda\n"
     "values = 0.5, 1.5\n", "[sweep] value '1.5': lambda must lie in [0, 1]"),
    ("workers = 1\n", "workers = 1\nstore-reports = yes\n",
     "store-reports must be true or false"),
    ("workers = 1\n", "workers = 1\nstore-reports = ture\n",
     "store-reports must be true or false"),
    ("cost-weights = flops:1.0", "cost-weights = flops:0.3, flops:1.0",
     "cost-weight name 'flops' is repeated"),
    ("cost-weights = flops:1.0", "cost-weights =", "sum to 0, not 1"),
], ids=["unknown-cost-component", "negative-cost-weight",
        "lambda-sweep-out-of-range", "store-reports-yes", "store-reports-typo",
        "repeated-cost-weight", "empty-cost-weights"])
def test_config_value_defects_are_validation_errors(tmp_path, capsys,
                                                    old, new, message):
    _write_scene(tmp_path / "scene.txt")
    text = _config_text(trials=1)
    assert old in text
    (tmp_path / "exp.ini").write_text(text.replace(old, new))
    with pytest.raises(errors.ValidationError) as exc:
        harness.load_config(tmp_path / "exp.ini")
    assert any(message in p for p in exc.value.problems)
    command = "sweep" if "[sweep]" in new else "simulate"
    assert cli.main([command, "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("raw, stored", [("TRUE", True), ("False", False)])
def test_store_reports_reads_true_or_false_in_any_case(tmp_path, raw, stored):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(
        _config_text(experiment=f"store-reports = {raw}\n"))
    assert harness.load_config(tmp_path / "exp.ini").store_reports is stored


def test_load_config_accepts_kind_none_without_ebn0(tmp_path):
    cfg = harness.load_config(_noise_config(tmp_path, "kind = none"))
    assert cfg.noise_kind == "none" and cfg.ebn0_db is None


def test_load_config_defaults_are_the_field_defaults(tmp_path):
    (tmp_path / "exp.ini").write_text("[experiment]\nschema-version = 1\n")
    assert harness.load_config(tmp_path / "exp.ini") == \
        harness.ExperimentConfig(schema_version=1, base_dir=tmp_path)


_OFDM = """[waveform]
kind = ofdm
subcarriers = 16
symbols = 2
cp = 4
"""


@pytest.mark.parametrize("probe, message", [
    (_OFDM + "active = 1 2 99\n",
     "active subcarriers [99] lie outside [0, subcarriers = 16)"),
    (_OFDM + "active = 0 1 -1\n",
     "active subcarriers [-1] lie outside [0, subcarriers = 16)"),
    (_OFDM + "active = 0 1 x\n", "active = '0 1 x': not a valid value"),
    (_OFDM + "active = 1 1 2\n",
     "active must be 'all' or distinct subcarrier indices"),
    (_OFDM + "active =\n",
     "active must be 'all' or distinct subcarrier indices"),
    (_OFDM.replace("cp = 4", "cp = 16"),
     "cp = 16 must be below subcarriers = 16"),
    (_CHIRP_MUSIC.replace("duration = 6.4e-5",
                          "duration = 6.4e-5\nsample-rate = 2e5"),
     "bandwidth = 400000.0 exceeds sample-rate = 200000.0"),
    (_CHIRP_MUSIC.replace("duration = 6.4e-5", "duration = 4e-7"),
     "duration = 4e-07 is shorter than one sample"),
    (_PSK_OMP.replace("bits = 64\nbits-per-symbol = 1",
                      "bits = 1\nbits-per-symbol = 2"),
     "bits = 1 is fewer than bits-per-symbol = 2"),
], ids=["active-too-large", "active-negative", "active-not-integer",
        "active-repeated", "active-empty", "cp-not-below-subcarriers",
        "chirp-bandwidth-above-rate", "chirp-without-samples",
        "psk-without-symbols"])
def test_waveform_defects_are_validation_errors(tmp_path, capsys, probe,
                                                message):
    _write_scene(tmp_path / "scene.txt")
    path = tmp_path / "exp.ini"
    path.write_text(_config_text(trials=1, probe=probe))
    with pytest.raises(errors.ValidationError) as exc:
        harness.load_config(path)
    assert any(message in p for p in exc.value.problems)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_waveform_active_subcarriers(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    path = tmp_path / "exp.ini"
    path.write_text(_config_text(probe=_OFDM + "active = 0 2 5\n"))
    cfg = harness.load_config(path)
    u = harness._build_waveform(cfg, np.random.default_rng(0))
    assert u.layout.active_subcarriers == (0, 2, 5)
    path.write_text(_config_text(probe=_OFDM + "active = all\n"))
    u = harness._build_waveform(harness.load_config(path),
                                np.random.default_rng(0))
    assert u.layout.active_subcarriers == tuple(range(16))


def test_overrides_pass_the_config_checks(tmp_path, capsys):
    _write_scene(tmp_path / "scene.txt")
    path = tmp_path / "exp.ini"
    path.write_text(_config_text())
    cfg = harness.load_config(path, {"workers": 3, "master_seed": 7})
    assert (cfg.workers, cfg.master_seed) == (3, 7)
    with pytest.raises(errors.ValidationError, match="workers must be >= 1"):
        harness.load_config(path, {"workers": 0})
    assert cli.main(["simulate", "--config", str(path), "--workers", "0",
                     "--out", str(tmp_path / "out")]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_rejects_doppler_beyond_nyquist(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    probe = _PSK_OMP + "doppler-bins = 3\ndoppler-max = 6e5\n"
    (tmp_path / "exp.ini").write_text(_config_text(probe=probe))
    with pytest.raises(errors.ValidationError, match="sample-rate / 2"):
        harness.load_config(tmp_path / "exp.ini")


def test_doppler_bins_without_doppler_max_is_validation_error(tmp_path,
                                                              capsys):
    # every cell of the grid would be 0 Hz
    _write_scene(tmp_path / "scene.txt")
    path = tmp_path / "exp.ini"
    path.write_text(_config_text(probe=_PSK_OMP + "doppler-bins = 3\n"))
    message = "doppler-bins = 3 needs a doppler-max above 0"
    with pytest.raises(errors.ValidationError, match=message):
        harness.load_config(path)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_music_with_doppler_bins_is_validation_error(tmp_path, capsys):
    _write_scene(tmp_path / "scene.txt")
    probe = _CHIRP_MUSIC + "doppler-bins = 5\ndoppler-max = 1e3\n"
    path = tmp_path / "exp.ini"
    path.write_text(_config_text(probe=probe))
    with pytest.raises(errors.ValidationError, match="doppler-bins = 5"):
        harness.load_config(path)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "kind = music" in capsys.readouterr().err
    path.write_text(_config_text(probe=_CHIRP_MUSIC + "doppler-bins = 1\n"))
    assert harness.load_config(path).doppler_bins == 1


def _music_order(probe, order):
    return probe.replace("order = 1\n", "") + f"order = {order}\n"


# MUSIC probes of 128 (PSK: 64 bits at 2 samples each), 64 (chirp) and 40
# (OFDM: 2 symbols of 16 + 4 samples) samples
@pytest.mark.parametrize("probe, samples", [
    (_PSK_OMP.replace("kind = omp", "kind = music"), 128),
    (_CHIRP_MUSIC, 64),
    (_OFDM + "\n[estimator]\nkind = music\ndelay-bins = 4\n", 40),
], ids=["psk", "chirp", "ofdm"])
def test_music_order_at_probe_length_is_validation_error(tmp_path, capsys,
                                                         probe, samples):
    _write_scene(tmp_path / "scene.txt")
    path = tmp_path / "exp.ini"
    message = (f"order = {samples} must be below the probe length of "
               f"{samples} samples")
    path.write_text(_config_text(trials=1, probe=_music_order(probe, samples)))
    with pytest.raises(errors.ValidationError, match=message):
        harness.load_config(path)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # one below the probe length, the covariance dimension exceeds the order
    path.write_text(_config_text(trials=1,
                                 probe=_music_order(probe, samples - 1)))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0


def test_load_config_non_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"[experiment]\nschema-version = 1\n# caf\xe9\n")
    with pytest.raises(errors.ParseError, match="exp.ini"):
        harness.load_config(path)
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_seed_override_changes_rows(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=1))
    for seed, out in ((1, "a"), (2, "b"), (1, "c")):
        assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                         "--seed", str(seed),
                         "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "a" / "rows.csv").read_bytes()
    b = (tmp_path / "b" / "rows.csv").read_bytes()
    c = (tmp_path / "c" / "rows.csv").read_bytes()
    assert a != b and a == c


def test_cli_ambiguity(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
    code = cli.main(["ambiguity", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out"),
                     "--doppler-bins", "3"])
    assert code == 0
    header, *lines = (tmp_path / "out" / "ambiguity.csv").read_text().split()
    assert header == "doppler_hz,delay_s,magnitude"
    values = [[float(v) for v in line.split(",")] for line in lines]
    # 3 Doppler bins x 255 lags of the 128-sample PSK probe
    assert len(values) == 3 * 255 and all(len(v) == 3 for v in values)


# a 4-sample chirp: the default span 4 / duration is above sample-rate / 2;
# MUSIC's delay grid may not exceed the probe length, so it has 4 bins
_CHIRP_4 = _CHIRP_MUSIC.replace("duration = 6.4e-5", "duration = 4e-6") \
    .replace("delay-bins = 16", "delay-bins = 4")


@pytest.mark.parametrize("args, message, probe", [
    (["--doppler-bins", "0"], "--doppler-bins must be >= 1", _PSK_OMP),
    (["--doppler-bins", "-3"], "--doppler-bins must be >= 1", _PSK_OMP),
    (["--doppler-span", "nan"], "--doppler-span must be finite and > 0",
     _PSK_OMP),
    (["--doppler-span", "inf"], "--doppler-span must be finite and > 0",
     _PSK_OMP),
    (["--doppler-span", "0"], "--doppler-span must be finite and > 0",
     _PSK_OMP),
    (["--doppler-span=-1e4"], "--doppler-span must be finite and > 0",
     _PSK_OMP),
    (["--doppler-span", "1e9"], "exceeds sample-rate / 2 = 500000.0",
     _PSK_OMP),
    ([], "the default --doppler-span, 4 / duration = 1000000.0 Hz, exceeds "
         "sample-rate / 2 = 500000.0 for a 4-sample waveform; "
         "pass --doppler-span", _CHIRP_4),
], ids=["bins-0", "bins-negative", "span-nan", "span-inf", "span-0",
        "span-negative", "span-above-nyquist", "default-span-above-nyquist"])
def test_cli_ambiguity_rejects_bad_doppler_arguments(tmp_path, capsys, args,
                                                     message, probe):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(probe=probe))
    code = cli.main(["ambiguity", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "ambiguity.csv").exists()


@pytest.mark.parametrize("delay_bins, code", [(16, 0), (17, 2), (20, 2)],
                         ids=["16-bins", "17-bins", "20-bins"])
def test_cli_music_grid_that_aliases_is_a_config_error(tmp_path, capsys,
                                                       delay_bins, code):
    # a 16-sample chirp: 16 delay bins span 15 samples, one below the
    # steering period; with 17 or more, cells k and k + 16 coincide
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=1, probe=_CHIRP_MUSIC.replace("delay-bins = 16",
                                             f"delay-bins = {delay_bins}")
        .replace("duration = 6.4e-5", "duration = 1.6e-5")))
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == code
    if code:
        assert (f"delay-bins = {delay_bins} must not exceed the probe length "
                f"of 16 samples") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_sync(tmp_path):
    (tmp_path / "net.txt").write_text("""sync-version: 1
components: position
scene-box: 0 50 0 50
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 anchor 0 50 0 0 0
aperture: 3 agent 20 30 0 0 0
measure: all
noise: delay 1e-9
bp-particles: 400
bp-iterations: 25
anneal-start: 1e4
""")
    (tmp_path / "exp.ini").write_text("""[experiment]
schema-version = 1
trials = 1
master-seed = 5

[sync]
file = net.txt
""")
    code = cli.main(["sync", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    text = (tmp_path / "out" / "rows.csv").read_text()
    assert "agent3_position_error" in text
    units = {line.split(",")[3]: line.split(",")[5]
             for line in text.splitlines()[1:]}
    assert units["position_rms_m"] == "m"
    # no clock is estimated, so no clock error is reported
    assert "to_rms_s" not in units
    assert "agent0_position_error" not in text      # anchors are not scored
    assert harness.load_config(tmp_path / "exp.ini").metric_list == (
        "agent_position_error", "position_rms_m", "to_rms_s")


# 3 anchors and 2 agents; 300 particles keep each trial short
_SYNC_NET = """sync-version: 1
components: position
scene-box: 0 50 0 50
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 anchor 0 50 0 0 0
aperture: 3 agent 20 30 0 0 0
aperture: 4 agent 35 15 0 0 0
measure: all
noise: delay 1e-9
bp-particles: 300
bp-iterations: 15
anneal-start: 1e4
"""


# _SYNC_NET measured one way only, so the closed-form start cannot place
# its agents and BP gives the start
_SYNC_NET_ONE_WAY = _SYNC_NET.replace("measure: all\n", "".join(
    f"measure: {j} {m}\n" for j, m in ((0, 3), (1, 3), (2, 3), (0, 4),
                                       (1, 4), (2, 4), (3, 4))))


def _sync_config(tmp_path, trials=1, experiment="", metrics=None,
                 net=_SYNC_NET):
    (tmp_path / "net.txt").write_text(net)
    listed = "" if metrics is None else f"\n[metrics]\nlist = {metrics}\n"
    (tmp_path / "exp.ini").write_text(f"""[experiment]
schema-version = 1
trials = {trials}
master-seed = 5
{experiment}
[sync]
file = net.txt
{listed}""")
    return str(tmp_path / "exp.ini")


def test_cli_metrics_reproduces_sync_bytes(tmp_path):
    ini = _sync_config(tmp_path, trials=2, experiment="store-reports = true")
    assert cli.main(["sync", "--config", ini,
                     "--out", str(tmp_path / "sync")]) == 0
    assert (tmp_path / "sync" / "reports" / "report_00001.json").exists()
    assert cli.main(["metrics", "--config", ini,
                     "--reports", str(tmp_path / "sync" / "reports"),
                     "--out", str(tmp_path / "re")]) == 0
    rows = (tmp_path / "sync" / "rows.csv").read_bytes()
    assert rows == (tmp_path / "re" / "rows.csv").read_bytes()
    metrics = [line.split(",")[3] for line in rows.decode().splitlines()[1:]]
    assert metrics == 2 * ["agent3_position_error", "agent4_position_error",
                           "position_rms_m"]


def test_sync_rows_identical_at_any_worker_count(tmp_path):
    ini = _sync_config(tmp_path, trials=3)
    for workers in ("1", "2"):
        assert cli.main(["sync", "--config", ini, "--workers", workers,
                         "--out", str(tmp_path / workers)]) == 0
    one = (tmp_path / "1" / "rows.csv").read_bytes()
    assert one == (tmp_path / "2" / "rows.csv").read_bytes()
    assert {line.split(",")[0] for line in one.decode().splitlines()[1:]} \
        == {"0", "1", "2"}


def test_trials_run_on_the_calling_thread(tmp_path, monkeypatch):
    threads = []
    for name in ("run_trial", "run_sync_trial"):
        def recorded(*args, _run=getattr(harness, name)):
            threads.append(threading.get_ident())
            return _run(*args)
        monkeypatch.setattr(harness, name, recorded)
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=3))
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--workers", "1", "--out", str(tmp_path / "sim")]) == 0
    (tmp_path / "sync").mkdir()
    ini = _sync_config(tmp_path / "sync", trials=2)
    assert cli.main(["sync", "--config", ini, "--workers", "1",
                     "--out", str(tmp_path / "sync" / "out")]) == 0
    assert threads == 5 * [threading.get_ident()]


def _cpus(monkeypatch, n):
    """Let `_processes` see `n` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _log_trials(monkeypatch, log):
    """Append `<pid> <trial>` to `log` at each simulate trial, from
    whichever process runs it."""
    def logged(cfg, t, base, _run=harness.run_trial):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {t}\n")
        return _run(cfg, t, base)
    monkeypatch.setattr(harness, "run_trial", logged)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_shares_run_each_trial_once(tmp_path, monkeypatch):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=6))
    cfg = harness.load_config(tmp_path / "exp.ini")
    serial = harness.run_experiment(cfg)
    _cpus(monkeypatch, 2)
    _log_trials(monkeypatch, tmp_path / "log")
    cfg.workers = 2
    assert harness.run_experiment(cfg) == serial
    _no_child_left()
    ran = [line.split() for line in (tmp_path / "log").read_text()
           .splitlines()]
    assert sorted(int(t) for _, t in ran) == list(range(6))
    by_pid = {}
    for pid, t in ran:
        by_pid.setdefault(int(pid), []).append(int(t))
    # this process runs share 0, one child the other share; trial 0 runs
    # before the fork, so the child inherits what it loaded
    assert ran[0] == [str(os.getpid()), "0"]
    assert by_pid.pop(os.getpid()) == [0, 1, 2]
    assert list(by_pid.values()) == [[3, 4, 5]]


def test_rows_and_records_identical_at_any_worker_count(tmp_path,
                                                        monkeypatch):
    # room for 5 processes, so 5 workers give 5 shares of 7 trials
    _cpus(monkeypatch, 8)
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=7, experiment="store-reports = true"))
    sweep = "\n[sweep]\nparameter = ebn0-db\nvalues = 0, 20\n"
    (tmp_path / "sweep.ini").write_text(_config_text(
        trials=7, extra=sweep, metrics=_ALL_METRICS).replace(
        "kind = white\nlevel = 1e-10\n", ""))
    outputs = {}
    for workers in ("1", "2", "5"):
        for command, ini in (("simulate", "exp.ini"), ("sweep", "sweep.ini")):
            out = tmp_path / command / workers
            assert cli.main([command, "--config", str(tmp_path / ini),
                             "--workers", workers, "--out", str(out)]) == 0
            outputs[command, workers] = {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
    _no_child_left()
    assert len(outputs["simulate", "1"]) == 1 + 7
    assert list(outputs["sweep", "1"]) == [Path("rows.csv")]
    for command in ("simulate", "sweep"):
        assert outputs[command, "1"] == outputs[command, "2"] \
            == outputs[command, "5"]


@pytest.mark.parametrize("failing, kind, code", [
    ({4, 5}, errors.ParseError, 2),
    ({2, 4}, ValueError, 3),
], ids=["in-a-child", "in-this-process"])
def test_a_failing_trial_fails_alike_at_any_worker_count(
        tmp_path, capsys, monkeypatch, failing, kind, code):
    _cpus(monkeypatch, 2)
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=6))

    def failing_trial(cfg, t, base, _run=harness.run_trial):
        if t in failing:
            raise kind(f"trial {t} fails")
        return _run(cfg, t, base)

    monkeypatch.setattr(harness, "run_trial", failing_trial)
    seen = []
    for workers in ("1", "2"):
        seen.append(cli.main(["simulate", "--config",
                              str(tmp_path / "exp.ini"), "--workers",
                              workers, "--out", str(tmp_path / workers)]))
        seen.append(capsys.readouterr().err)
        _no_child_left()
    # shares 0-2 and 3-5: the lowest failing trial raises, as in order
    assert seen[:2] == [code, f"{'input' if code == 2 else 'runtime'} "
                              f"error: trial {min(failing)} fails\n"]
    assert seen[2:] == seen[:2]
    assert not (tmp_path / "2" / "rows.csv").exists()


@pytest.mark.parametrize("kind", [ValueError, KeyboardInterrupt])
def test_an_error_here_ends_and_reaps_the_children(tmp_path, monkeypatch,
                                                   kind):
    _cpus(monkeypatch, 2)
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=4))
    cfg = harness.load_config(tmp_path / "exp.ini")
    cfg.workers = 2
    parent = os.getpid()

    def slow_child(cfg, t, base, _run=harness.run_trial):
        if os.getpid() != parent:
            time.sleep(60)
        if t == 0:          # this process runs trial 0 before it forks
            return _run(cfg, t, base)
        raise kind("stop")

    monkeypatch.setattr(harness, "run_trial", slow_child)
    t0 = time.perf_counter()
    with pytest.raises(kind, match="stop"):
        harness.run_experiment(cfg)
    # the child was stopped, not waited for through its share
    assert time.perf_counter() - t0 < 20
    _no_child_left()


def test_a_child_that_dies_leaves_its_share_to_this_process(tmp_path,
                                                            monkeypatch):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=4))
    cfg = harness.load_config(tmp_path / "exp.ini")
    serial = harness.run_experiment(cfg)
    _cpus(monkeypatch, 2)
    _log_trials(monkeypatch, tmp_path / "log")
    parent = os.getpid()

    def killed_in_child(cfg, t, base, _run=harness.run_trial):
        if os.getpid() != parent and t == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return _run(cfg, t, base)

    monkeypatch.setattr(harness, "run_trial", killed_in_child)
    cfg.workers = 2
    assert harness.run_experiment(cfg) == serial
    _no_child_left()
    # the child ran trial 2 and was killed at trial 3, so this process ran
    # its own share and then the child's whole share
    ran = [tuple(map(int, line.split())) for line in
           (tmp_path / "log").read_text().splitlines()]
    assert [t for pid, t in ran if pid == parent] == [0, 1, 2, 3]
    assert [t for pid, t in ran if pid != parent] == [2]


def test_a_share_no_child_could_start_runs_in_this_process(tmp_path,
                                                           monkeypatch):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=6))
    cfg = harness.load_config(tmp_path / "exp.ini")
    serial = harness.run_experiment(cfg)
    _cpus(monkeypatch, 3)
    _log_trials(monkeypatch, tmp_path / "log")
    pipes, forks = [], []

    def pipe(_pipe=os.pipe):
        pipes.extend(_pipe())
        return pipes[-2], pipes[-1]

    def first_fork_fails(_fork=os.fork):
        forks.append(None)
        if len(forks) == 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return _fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", first_fork_fails)
    cfg.workers = 3
    assert harness.run_experiment(cfg) == serial
    _no_child_left()
    # shares 0-1, 2-3 and 4-5: no child ran 2-3, so this process ran them
    ran = [tuple(map(int, line.split())) for line in
           (tmp_path / "log").read_text().splitlines()]
    assert [t for pid, t in ran if pid == os.getpid()] == [0, 1, 2, 3]
    assert [t for pid, t in ran if pid != os.getpid()] == [4, 5]
    # the failed fork's pipe is closed, as is the child's
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_processes_never_exceed_the_cpus(tmp_path, monkeypatch):
    forks = []

    def counted(_fork=os.fork):
        pid = _fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=8))
    cfg = harness.load_config(tmp_path / "exp.ini")
    rows = harness.run_experiment(cfg)
    cfg.workers = 100
    for cpus, trials, processes in ((3, 8, 3), (3, 2, 2), (1, 8, 1)):
        _cpus(monkeypatch, cpus)
        cfg.trials = trials
        forks.clear()
        assert harness._processes(cfg, trials) == processes
        assert harness.run_experiment(cfg) == rows[:len(rows) * trials // 8]
        assert len(forks) == processes - 1
        _no_child_left()
    # without os.fork, one process runs every trial
    monkeypatch.delattr(os, "fork")
    assert harness._processes(cfg, cfg.trials) == 1
    assert harness.run_experiment(cfg) == rows


_SWEEP_4 = "\n[sweep]\nparameter = ebn0-db\nvalues = 0, 10, 20, 30\n"


def _sweep_config(tmp_path, trials):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=trials, extra=_SWEEP_4).replace(
        "kind = white\nlevel = 1e-10\n", ""))
    return harness.load_config(tmp_path / "exp.ini")


def test_a_sweep_forks_once(tmp_path, monkeypatch):
    cfg = _sweep_config(tmp_path, trials=3)
    serial = harness.run_sweep(cfg)
    forks, loads = [], []

    def counted(_fork=os.fork):
        pid = _fork()
        if pid:
            forks.append(pid)
        return pid

    load = scene.load_scene
    monkeypatch.setattr(scene, "load_scene",
                        lambda path, **kw: loads.append(path) or load(path,
                                                                      **kw))
    monkeypatch.setattr(os, "fork", counted)
    _cpus(monkeypatch, 2)
    _log_trials(monkeypatch, tmp_path / "log")
    cfg.workers = 2
    assert harness.run_sweep(cfg) == serial
    _no_child_left()
    # 4 points x 3 trials run as 12 flat trials, k = trial * 4 + point,
    # in two shares of one run that parses the scene once
    assert len(forks) == 1 and len(loads) == 1
    ran = [tuple(map(int, line.split())) for line in
           (tmp_path / "log").read_text().splitlines()]
    assert [t for pid, t in ran if pid == os.getpid()] == [0] * 4 + [1] * 2
    assert [t for pid, t in ran if pid != os.getpid()] == [1] * 2 + [2] * 4


@pytest.mark.parametrize("trials", [1, 3])
def test_sweep_rows_are_the_same_bytes_at_1_2_and_3_processes(
        tmp_path, monkeypatch, trials):
    _sweep_config(tmp_path, trials)
    _cpus(monkeypatch, 3)
    rows = []
    for workers in ("1", "2", "3"):
        out = tmp_path / workers
        assert cli.main(["sweep", "--config", str(tmp_path / "exp.ini"),
                         "--workers", workers, "--out", str(out)]) == 0
        rows.append((out / "rows.csv").read_bytes())
    _no_child_left()
    assert rows[0].count(b"\n") == 1 + 4 * trials * 5
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_a_sweep_whose_fork_fails_gives_the_same_rows(tmp_path,
                                                      monkeypatch):
    cfg = _sweep_config(tmp_path, trials=2)
    serial = harness.run_sweep(cfg)

    def no_fork():
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 3)
    cfg.workers = 3
    assert harness.run_sweep(cfg) == serial
    _no_child_left()


@pytest.mark.parametrize("stem", ["a,b", 'say "hi"'], ids=["comma", "quote"])
def test_file_stem_that_csv_would_quote_is_a_validation_error(tmp_path,
                                                               capsys, stem):
    _write_scene(tmp_path / f"{stem}.txt")
    (tmp_path / "exp.ini").write_text(_config_text(f"{stem}.txt", trials=1))
    with pytest.raises(errors.ValidationError, match=r"\[scene\] file"):
        harness.load_config(tmp_path / "exp.ini")
    (tmp_path / f"{stem}.sync").write_text(_SYNC_NET)
    (tmp_path / "sync.ini").write_text(
        f"[experiment]\nschema-version = 1\n\n[sync]\nfile = {stem}.sync\n")
    assert cli.main(["sync", "--config", str(tmp_path / "sync.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert "[sync] file" in capsys.readouterr().err


def test_sync_reports_a_failed_fit_on_stderr(tmp_path, capsys, monkeypatch):
    ini = _sync_config(tmp_path, trials=2)
    out = tmp_path / "out" / "rows.csv"
    assert cli.main(["sync", "--config", ini, "--out", str(out.parent)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_bytes()
    assert len(rows.decode().splitlines()) == 1 + 2 * 3
    # no cost passes a limit of 0, so both fits fail the check; the rows
    # are the same
    monkeypatch.setattr(syncnet, "gn_cost_limit", lambda dof: 0.0)
    assert cli.main(["sync", "--config", ini, "--out", str(out.parent)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["trial 0", "trial 1"]
    assert all("the Gauss-Newton fit failed its check" in line
               and "(limit 0)" in line for line in err)
    assert out.read_bytes() == rows


def test_sync_stderr_is_the_same_at_any_worker_count(tmp_path, capfd,
                                                     monkeypatch):
    # room for 2 processes, so 2 and 3 workers both give shares 0-2 and 3-5
    _cpus(monkeypatch, 2)
    ini = _sync_config(tmp_path, trials=6)
    # no cost passes a limit of 0, so every fit fails its check
    monkeypatch.setattr(syncnet, "gn_cost_limit", lambda dof: 0.0)
    errs = []
    for workers in ("1", "2", "3"):
        assert cli.main(["sync", "--config", ini, "--workers", workers,
                         "--out", str(tmp_path / workers)]) == 0
        _no_child_left()
        errs.append(capfd.readouterr().err)
    assert errs[0] == errs[1] == errs[2]
    err = errs[0].splitlines()
    assert [line.split(":")[0] for line in err] \
        == [f"trial {t}" for t in range(6)]
    assert all("the Gauss-Newton fit failed its check" in line
               and line.endswith("(limit 0)") for line in err)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sync_run_that_raises_writes_no_fit_line(tmp_path, capfd,
                                                   monkeypatch, workers):
    _cpus(monkeypatch, 2)
    ini = _sync_config(tmp_path, trials=6)
    # trials 0-2 fail their fit, and trial 3 raises
    monkeypatch.setattr(syncnet, "gn_cost_limit", lambda dof: 0.0)

    def raising(cfg, t, scenario, _run=harness.run_sync_trial):
        if t == 3:
            raise ValueError(f"trial {t} fails")
        return _run(cfg, t, scenario)

    monkeypatch.setattr(harness, "run_sync_trial", raising)
    assert cli.main(["sync", "--config", ini, "--workers", workers,
                     "--out", str(tmp_path / "out")]) == 3
    _no_child_left()
    assert capfd.readouterr().err == "runtime error: trial 3 fails\n"
    assert not (tmp_path / "out" / "rows.csv").exists()


def test_sync_reports_bp_stopped_at_its_cap_on_stderr(tmp_path, capsys,
                                                     monkeypatch):
    ini = _sync_config(tmp_path, trials=2)
    # no cost passes a limit of 0, so every fit fails its check
    monkeypatch.setattr(syncnet, "gn_cost_limit", lambda dof: 0.0)
    note = "; BP stopped at bp-iterations 15 before its anneal reached scale 1"
    # _SYNC_NET reaches anneal scale 1 at its 15th and last iteration, and a
    # faster anneal before it; a slower one is still at scale 440 there, so
    # BP stops at its cap and the line says so. Measured both ways, the
    # network takes the closed-form start, and BP's cap is not reported
    for net, extra, capped in ((_SYNC_NET_ONE_WAY, "", False),
                               (_SYNC_NET_ONE_WAY, "anneal-decay: 0.3\n",
                                False),
                               (_SYNC_NET_ONE_WAY, "anneal-decay: 0.8\n",
                                True),
                               (_SYNC_NET, "anneal-decay: 0.8\n", False)):
        (tmp_path / "net.txt").write_text(net + extra)
        assert cli.main(["sync", "--config", ini,
                         "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["trial 0", "trial 1"]
        assert all(line.startswith(f"trial {t}: the Gauss-Newton fit failed")
                   and line.endswith(note) == capped
                   for t, line in enumerate(err))
        assert len((tmp_path / "out" / "rows.csv").read_text()
                   .splitlines()) == 1 + 2 * 3


def _sync_net(measures, agents="aperture: 3 agent 20 30 0 0 0\n"
                                "aperture: 4 agent 35 15 0 0 0\n",
              anchors=((0, 0), (50, 0), (0, 50)), components="position",
              extra=""):
    """A _SYNC_NET-like file with BP settings that keep a fallback short."""
    return (f"sync-version: 1\ncomponents: {components}\n"
            "scene-box: 0 50 0 50\n"
            + "".join(f"aperture: {j} anchor {x} {y} 0 0 0\n"
                      for j, (x, y) in enumerate(anchors))
            + agents + "".join(f"measure: {j} {m}\n" for j, m in measures)
            + "noise: delay 1e-9\nbp-particles: 100\nbp-iterations: 3\n"
            + extra)


_TWO_WAY = [(j, m) for j in range(5) for m in range(5) if j != m]


@pytest.mark.parametrize("net, start", [
    (_SYNC_NET, "closed-form"),
    # agent 4 hears anchor 2 and agent 3 one way only: two two-way
    # neighbours are too few to place it
    (_sync_net([p for p in _TWO_WAY if p not in ((4, 2), (4, 3))]), "bp"),
    (_SYNC_NET_ONE_WAY, "bp"),
    # collinear anchors make the differenced ranges' matrix rank 1
    (_sync_net(_TWO_WAY, anchors=((0, 0), (25, 0), (50, 0))), "bp"),
    # no delay fixes a carrier cycle, so a cpo component takes BP's start
    (_sync_net(_TWO_WAY, agents="aperture: 3 agent 20 30 0 0 1.0\n"
                                "aperture: 4 agent 35 15 0 0 -2.0\n",
               components="position cpo", extra="noise: phase 0.05\n"),
     "bp"),
], ids=["two-way", "two-neighbours", "one-way", "collinear", "cpo"])
def test_a_sync_trial_records_which_start_it_took(tmp_path, monkeypatch,
                                                  net, start):
    calls = []

    def spy(graph, config, _run=syncnet.run_loopy_bp):
        calls.append(config)
        return _run(graph, config)

    monkeypatch.setattr(syncnet, "run_loopy_bp", spy)
    cfg = harness.load_config(_sync_config(tmp_path, net=net))
    scn = syncnet.load_sync_scenario(tmp_path / "net.txt")
    rows, record, _ = harness.run_sync_trial(cfg, 0, scn)
    assert record["start"] == start
    assert len(calls) == (start == "bp")
    assert {row.estimator for row in rows} == {"bp"}


def test_sync_output_is_the_same_at_any_worker_count_with_a_failed_fit(
        tmp_path, capfd, monkeypatch):
    # a cost limit between the highest two costs of 4 closed-form fits, so
    # exactly one trial fails its check
    _cpus(monkeypatch, 2)
    ini = _sync_config(tmp_path, trials=4, experiment="store-reports = true")
    cfg = harness.load_config(ini)
    scn = syncnet.load_sync_scenario(tmp_path / "net.txt")
    costs = [syncnet.run_sync_scenario(scn, harness.derive_seed(
        cfg.master_seed, t, "sync"))[0].cost_per_dof for t in range(4)]
    worst = int(np.argmax(costs))
    limit = float(np.mean(sorted(costs)[-2:]))
    monkeypatch.setattr(syncnet, "gn_cost_limit", lambda dof: limit)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["sync", "--config", ini, "--workers", workers,
                         "--out", str(out)]) == 0
        _no_child_left()
        records = [json.loads(p.read_text())
                   for p in sorted((out / "reports").glob("report_*.json"))]
        assert [r["start"] for r in records] == 4 * ["closed-form"]
        outs.append((capfd.readouterr().err, (out / "rows.csv").read_bytes()))
    assert outs[0] == outs[1]
    [line] = outs[0][0].splitlines()
    assert line.startswith(f"trial {worst}: the Gauss-Newton fit failed")
    assert line.endswith(f"(limit {limit:.3g})")


def test_sync_metric_list_selects_rows(tmp_path):
    ini = _sync_config(tmp_path, metrics="position_rms_m")
    assert cli.main(["sync", "--config", ini,
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "rows.csv").read_text().splitlines()[1:]
    assert [line.split(",")[3:6:2] for line in lines] \
        == [["position_rms_m", "m"]]


@pytest.mark.parametrize("command, metric, held", [
    ("sync", "ber", "agent_position_error, position_rms_m, to_rms_s"),
    ("simulate", "position_rms_m", _ALL_METRICS),
    ("sweep", "position_rms_m", _ALL_METRICS),
], ids=["sync-ber", "simulate-position-rms", "sweep-position-rms"])
def test_sync_with_simulate_metric_exits_2(tmp_path, capsys, monkeypatch,
                                           command, metric, held):
    # a metric the command's records never hold exits before any trial
    # runs, and before a sync scenario is parsed
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the metric check")

    def no_bp(*args, **kwargs):
        raise AssertionError("particle BP ran before the metric check")

    def no_parse(*args, **kwargs):
        raise AssertionError("the scenario was parsed before the metric check")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    monkeypatch.setattr(syncnet, "run_sync_scenario", no_bp)
    monkeypatch.setattr(syncnet, "load_sync_scenario", no_parse)
    if command == "sync":
        ini = _sync_config(tmp_path, metrics=metric)
    else:
        _write_scene(tmp_path / "scene.txt")
        (tmp_path / "exp.ini").write_text(_config_text(
            metrics=metric, extra="\n[sweep]\nparameter = lambda\n"
                                  "values = 0.5\n"))
        ini = str(tmp_path / "exp.ini")
    assert cli.main([command, "--config", ini,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"validation errors:\n  - [metrics] list names {metric!r}, which "
        f"this command's records never hold; they hold {held}\n")
    assert not (tmp_path / "out" / "rows.csv").exists()


def test_run_experiment_rejects_an_empty_metric_list(tmp_path):
    # the check is the library's, so a caller without the CLI gets it too
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(metrics=""))
    with pytest.raises(errors.ValidationError,
                       match=r"\[metrics\] list is empty"):
        harness.run_experiment(harness.load_config(tmp_path / "exp.ini"))


@pytest.mark.parametrize("command", ["simulate", "sweep", "metrics", "sync"])
def test_empty_metric_list_exits_2_before_any_trial(tmp_path, capsys,
                                                    monkeypatch, command):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the metric list check")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    monkeypatch.setattr(syncnet, "run_sync_scenario", no_trial)
    if command == "sync":
        ini = _sync_config(tmp_path, metrics="")
    else:
        _write_scene(tmp_path / "scene.txt")
        (tmp_path / "exp.ini").write_text(_config_text(
            metrics="", extra="\n[sweep]\nparameter = lambda\nvalues = 0.5\n"))
        ini = str(tmp_path / "exp.ini")
    extra = ["--reports", str(tmp_path)] if command == "metrics" else []
    assert cli.main([command, "--config", ini,
                     "--out", str(tmp_path / "out")] + extra) == 2
    assert "[metrics] list is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a 512-sample chirp whose echoes at 84 and 92 samples overrun the frame
_CHIRP_ECHOES = _CHIRP_MUSIC.replace("bandwidth = 4e5", "bandwidth = 8e5") \
    .replace("duration = 6.4e-5", "duration = 5.12e-4") \
    .replace("order = 1", "order = 2").replace("delay-bins = 16",
                                               "delay-bins = 256")


def _music_echo_config(tmp_path, noise):
    truth = scene.TargetScene((scene.Target(-0.986 - 0.169j, 84e-6, 0.0),
                               scene.Target(0.769 + 0.268j, 92e-6, 0.0)))
    scene.save_scene(truth, tmp_path / "scene.txt")
    text = _config_text(trials=3, probe=_CHIRP_ECHOES,
                        metrics="residual_energy, r_squared")
    (tmp_path / "exp.ini").write_text(text.replace(
        "kind = white\nlevel = 1e-10", noise))
    return harness.load_config(tmp_path / "exp.ini"), truth


def test_music_trial_fits_the_whole_echo_in_the_time_domain(tmp_path):
    cfg, truth = _music_echo_config(tmp_path, "kind = none")
    rows, record = harness.run_trial(cfg, 0, truth)
    est = sorted(record["estimated_targets"], key=lambda t: t[2])
    for (re, im, tau, _), t in zip(est, truth.targets):
        assert tau == t.delay
        assert abs(complex(re, im) - t.amplitude) < 1e-9
    rx = scene.apply_channel(waveform.generate_chirp(8e5, 5.12e-4, 1e6), truth)
    assert record["residual_energy"] \
        < 1e-20 * np.linalg.norm(rx.samples) ** 2
    assert record["r_squared"] == pytest.approx(1.0)


def test_music_r_squared_at_30_db(tmp_path):
    cfg, _ = _music_echo_config(tmp_path, "ebn0-db = 30")
    rows = harness.run_experiment(cfg)
    r2 = [r.value for r in rows if r.metric == "r_squared"]
    assert len(r2) == 3 and min(r2) > 0.9
