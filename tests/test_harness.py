import json

import numpy as np
import pytest

from isaclab import (cli, errors, estimators, harness, scene, syncnet,
                     waveform)


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
    assert "ber: n=3 mean=1.0" in text
    assert "min=0.0" in text and "max=2.0" in text
    with pytest.raises(ValueError):
        harness.emit_report([], "csv", tmp_path)


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


def test_ambiguity_rows(tmp_path):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
    cfg = harness.load_config(tmp_path / "exp.ini")
    lines = harness.ambiguity_rows(cfg, doppler_span=1e4, n_doppler=3)
    assert lines[0] == "doppler_hz,delay_s,magnitude"
    assert len(lines) > 10


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


def test_cli_runtime_error_exit_3(tmp_path):
    # target delay beyond the waveform frame fails at run time, not load time
    scene.save_scene(scene.TargetScene(
        (scene.Target(1.0, 0.5, 0.0),)), tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=1))
    code = cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("scene_text, probe, message", [
    ("scene-version: 1\ntarget: 1 0 nope 0\n", _PSK_OMP, "scene.txt:2"),
    (None, "", "[waveform]"),
], ids=["bad-scene-value", "no-waveform-section"])
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


def test_run_experiment_parses_scene_once(tmp_path, monkeypatch):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(trials=3))
    cfg = harness.load_config(tmp_path / "exp.ini")
    calls = []
    load = scene.load_scene
    monkeypatch.setattr(scene, "load_scene",
                        lambda path: calls.append(path) or load(path))
    assert len(harness.run_experiment(cfg)) == 3 * 5
    assert len(calls) == 1


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
], ids=["nan", "inf", "none-with-ebn0", "none-with-sweep", "nan-in-sweep"])
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


# a 4-sample chirp: the default span 4 / duration is above sample-rate / 2
_CHIRP_4 = _CHIRP_MUSIC.replace("duration = 6.4e-5", "duration = 4e-6")


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


def test_cli_music_grid_that_aliases_is_a_runtime_error(tmp_path, capsys):
    # 20 delay bins on a 16-sample chirp: cells k and k + 16 coincide
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text(
        trials=1, probe=_CHIRP_MUSIC.replace("delay-bins = 16",
                                             "delay-bins = 20")
        .replace("duration = 6.4e-5", "duration = 1.6e-5")))
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 3
    assert "delay grid" in capsys.readouterr().err


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
    assert units["position_rms_m"] == "m" and units["to_rms_s"] == "s"
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


def _sync_config(tmp_path, trials=1, experiment="", metrics=None):
    (tmp_path / "net.txt").write_text(_SYNC_NET)
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
                           "position_rms_m", "to_rms_s"]


def test_sync_rows_identical_at_any_worker_count(tmp_path):
    ini = _sync_config(tmp_path, trials=3)
    for workers in ("1", "2"):
        assert cli.main(["sync", "--config", ini, "--workers", workers,
                         "--out", str(tmp_path / workers)]) == 0
    one = (tmp_path / "1" / "rows.csv").read_bytes()
    assert one == (tmp_path / "2" / "rows.csv").read_bytes()
    assert {line.split(",")[0] for line in one.decode().splitlines()[1:]} \
        == {"0", "1", "2"}


def test_sync_metric_list_selects_rows(tmp_path):
    ini = _sync_config(tmp_path, metrics="position_rms_m")
    assert cli.main(["sync", "--config", ini,
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "rows.csv").read_text().splitlines()[1:]
    assert [line.split(",")[3:6:2] for line in lines] \
        == [["position_rms_m", "m"]]


def test_sync_with_simulate_metric_exits_2(tmp_path, capsys, monkeypatch):
    def no_bp(*args, **kwargs):
        raise AssertionError("particle BP ran before the metric check")

    monkeypatch.setattr(syncnet, "run_sync_scenario", no_bp)
    ini = _sync_config(tmp_path, metrics="ber")
    assert cli.main(["sync", "--config", ini,
                     "--out", str(tmp_path / "out")]) == 2
    assert "'ber' needs 'tx_bits'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rows.csv").exists()


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
