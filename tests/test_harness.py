import numpy as np
import pytest

from isaclab import cli, errors, estimators, harness, scene


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
], ids=["unknown-cost-component", "negative-cost-weight",
        "lambda-sweep-out-of-range", "store-reports-yes", "store-reports-typo",
        "repeated-cost-weight"])
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
    assert harness.load_config(path).est["doppler_bins"] == 1


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


@pytest.mark.parametrize("args, message", [
    (["--doppler-bins", "0"], "--doppler-bins must be >= 1"),
    (["--doppler-bins", "-3"], "--doppler-bins must be >= 1"),
    (["--doppler-span", "nan"], "--doppler-span must be finite and > 0"),
    (["--doppler-span", "inf"], "--doppler-span must be finite and > 0"),
    (["--doppler-span", "0"], "--doppler-span must be finite and > 0"),
    (["--doppler-span=-1e4"], "--doppler-span must be finite and > 0"),
], ids=["bins-0", "bins-negative", "span-nan", "span-inf", "span-0",
        "span-negative"])
def test_cli_ambiguity_rejects_bad_doppler_arguments(tmp_path, capsys, args,
                                                     message):
    _write_scene(tmp_path / "scene.txt")
    (tmp_path / "exp.ini").write_text(_config_text())
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
    assert "position_rms_m" in text
