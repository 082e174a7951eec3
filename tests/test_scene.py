import numpy as np
import pytest

from isaclab import cli, errors, scene, waveform


def _tone(fs=1e6, n=256):
    t = np.arange(n) / fs
    return waveform.Waveform(np.exp(2j * np.pi * 5e4 * t), fs,
                             (-fs / 2, fs / 2))


def test_target_validation():
    with pytest.raises(ValueError):
        scene.Target(1.0, -1e-6, 0.0)
    with pytest.raises(ValueError):
        scene.Target(np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        scene.Target(1.0, 0.0, np.inf)


def test_scene_rejects_duplicate_cells():
    t = scene.Target(1.0, 1e-6, 0.0)
    with pytest.raises(ValueError):
        scene.TargetScene((t, scene.Target(0.5, 1e-6, 0.0)))


def test_eval_dd_response_term_sum_oracle():
    targets = (scene.Target(0.7 + 0.2j, 2e-6, 100.0),
               scene.Target(-0.3 + 0.9j, 5e-6, -40.0))
    scn = scene.TargetScene(targets)
    t, f = 1.3e-3, 2.5e4
    expect = sum(tg.amplitude * np.exp(2j * np.pi * t * tg.doppler)
                 * np.exp(2j * np.pi * f * tg.delay) for tg in targets)
    assert scene.eval_dd_response(scn, t, f) == pytest.approx(expect)
    # broadcasting over grids
    tt = np.array([0.0, 1e-3])
    ff = np.array([0.0, 1e4, 2e4])
    g = scene.eval_dd_response(scn, tt[:, None], ff[None, :])
    assert g.shape == (2, 3)
    assert g[1, 2] == pytest.approx(scene.eval_dd_response(scn, 1e-3, 2e4))


def test_apply_channel_integer_delay_oracle():
    fs = 1e6
    u = _tone(fs)
    h, k = 0.8 - 0.1j, 7
    scn = scene.TargetScene((scene.Target(h, k / fs, 0.0),))
    rx = scene.apply_channel(u, scn)
    assert len(rx) == len(u) + k
    expect = np.zeros(len(rx), np.complex128)
    expect[k:] = h * u.samples
    assert np.allclose(rx.samples, expect, atol=1e-9)


def test_apply_channel_doppler_after_delay():
    fs = 1e6
    u = _tone(fs)
    h, k, nu = 1.0, 4, 1.25e4
    scn = scene.TargetScene((scene.Target(h, k / fs, nu),))
    rx = scene.apply_channel(u, scn)
    t_out = np.arange(len(rx)) / fs
    expect = np.zeros(len(rx), np.complex128)
    expect[k:] = u.samples
    expect *= np.exp(2j * np.pi * nu * t_out)   # modulation at channel output
    assert np.allclose(rx.samples, expect, atol=1e-9)


def test_apply_channel_fractional_delay_bandlimited():
    # time-concentrated near-bandlimited Gaussian pulse: a fractional delay
    # matches the analytically shifted pulse
    fs = 1e6
    n = 512
    t = np.arange(n) / fs
    t0, s = 256 / fs, 20 / fs
    u = waveform.Waveform(np.exp(-((t - t0) ** 2) / (2 * s ** 2)), fs,
                          (-fs / 2, fs / 2))
    tau = 3.5 / fs
    scn = scene.TargetScene((scene.Target(1.0, tau, 0.0),))
    rx = scene.apply_channel(u, scn)
    t_out = np.arange(len(rx)) / fs
    expect = np.exp(-((t_out - tau - t0) ** 2) / (2 * s ** 2))
    assert np.max(np.abs(rx.samples - expect)) < 1e-9


def test_apply_channel_superposition():
    fs = 1e6
    u = _tone(fs)
    t1 = scene.Target(0.5, 3e-6, 2e4)
    t2 = scene.Target(0.25j, 9e-6, -1e4)
    y12 = scene.apply_channel(u, scene.TargetScene((t1, t2))).samples
    y1 = scene.apply_channel(u, scene.TargetScene((t1,))).samples
    y2 = scene.apply_channel(u, scene.TargetScene((t2,))).samples
    assert np.allclose(y12, np.pad(y1, (0, y12.size - y1.size)) + y2)


def test_apply_channel_guards():
    u = _tone()
    with pytest.raises(errors.ToolkitError,
                       match=r"doppler 600000\.0 Hz exceeds fs/2"):
        scene.apply_channel(u, scene.TargetScene(
            (scene.Target(1.0, 0.0, 6e5),)))
    with pytest.raises(errors.ToolkitError,
                       match=r"delay 1\.0 s exceeds window"):
        scene.apply_channel(u, scene.TargetScene(
            (scene.Target(1.0, 1.0, 0.0),)))
    # explicit window overrides the default frame duration
    scene.apply_channel(u, scene.TargetScene(
        (scene.Target(1.0, 3e-4, 0.0),)), max_delay=1e-3)


def test_white_noise_variance_convention():
    # flat two-sided PSD level P over the full band gives per-sample
    # variance P * fs
    fs, n = 1e6, 20000
    level = 4e-9
    u = waveform.Waveform(np.zeros(n), fs, (-fs / 2, fs / 2))
    noise = scene.NoiseModel.white(level, (-fs / 2, fs / 2), seed=5)
    rx = scene.apply_channel(u, scene.TargetScene(()), noise)
    var = np.mean(np.abs(rx.samples) ** 2)
    assert var == pytest.approx(level * fs, rel=0.05)


def test_colored_noise_shaping():
    # zero PSD over half the band: spectral energy concentrates in the
    # supported half
    fs, n = 1e6, 4096
    freqs = np.linspace(-fs / 2, fs / 2, 64)
    psd = np.where(freqs >= 0, 1e-9, 0.0)
    noise = scene.NoiseModel(psd, (-fs / 2, fs / 2), seed=11)
    u = waveform.Waveform(np.zeros(n), fs, (-fs / 2, fs / 2))
    rx = scene.apply_channel(u, scene.TargetScene(()), noise)
    spec = np.abs(np.fft.fftshift(np.fft.fft(rx.samples))) ** 2
    grid = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
    neg = spec[grid < -fs / 16].sum()
    pos = spec[grid > fs / 16].sum()
    assert neg < 0.05 * pos


@pytest.mark.parametrize("n", [0, 1])
def test_psd_with_fewer_than_two_samples_is_rejected(n):
    # one sample sits at the band's lower edge alone, so the rest of the
    # band would read as zero: no noise, and no mutual information
    band = (-5e5, 5e5)
    with pytest.raises(ValueError, match="at least 2 samples"):
        scene.NoiseModel(np.full(n, 1e-9), band)
    with pytest.raises(ValueError, match="at least 2 samples"):
        scene.NoiseModel.white(1e-9, band, n=n)
    with pytest.raises(ValueError, match="at least 2 samples"):
        scene.SensingPrior(np.full(n, 1.0), band)
    assert scene.NoiseModel(np.full(2, 1e-9), band).enabled
    scene.SensingPrior(np.full(2, 1.0), band)


def test_noise_deterministic_given_seed():
    fs = 1e6
    u = _tone(fs)
    noise = scene.NoiseModel.white(1e-9, (-fs / 2, fs / 2), seed=3)
    a = scene.apply_channel(u, scene.TargetScene(()), noise).samples
    b = scene.apply_channel(u, scene.TargetScene(()), noise).samples
    assert np.array_equal(a, b)


def test_clutter_poisson_statistics():
    model = scene.ClutterModel(density=4e4, amplitude_scale=0.1,
                               delay_span=(0.0, 1e-5),
                               doppler_span=(-50.0, 50.0))
    lam = model.density * model.area    # 40 expected scatterers
    counts = [len(scene.generate_clutter(model, seed).targets)
              for seed in range(300)]
    mean = np.mean(counts)
    assert abs(mean - lam) < 4 * np.sqrt(lam / 300)
    # placement inside the region
    scat = scene.generate_clutter(model, 0)
    for t in scat.targets:
        assert 0.0 <= t.delay <= 1e-5
        assert -50.0 <= t.doppler <= 50.0
    # gain variance ~ amplitude_scale^2
    amps = np.array([t.amplitude for t in
                     scene.generate_clutter(scene.ClutterModel(
                         5e6, 0.1, (0, 1e-5), (-50, 50)), 1).targets])
    assert np.mean(np.abs(amps) ** 2) == pytest.approx(0.01, rel=0.1)


def test_merge_scenes():
    s1 = scene.TargetScene((scene.Target(1.0, 1e-6, 0.0),))
    s2 = scene.TargetScene((scene.Target(2.0, 2e-6, 0.0),))
    m = scene.merge_scenes(s1, s2, label="both")
    assert len(m.targets) == 2 and m.label == "both"


def test_scene_file_roundtrip(tmp_path):
    scn = scene.TargetScene(
        (scene.Target(0.5 - 0.25j, 1.5e-6, 120.0),
         scene.Target(1.0, 4e-6, -30.0)),
        clutter=scene.ClutterModel(1e6, 0.05, (0, 1e-5), (-100, 100)),
        label="two targets")
    path = tmp_path / "scene.txt"
    scene.save_scene(scn, path)
    back = scene.load_scene(path)
    assert back.label == "two targets"
    assert len(back.targets) == 2
    assert back.targets[0].amplitude == 0.5 - 0.25j
    assert back.targets[0].delay == 1.5e-6
    assert back.clutter.density == 1e6
    assert back.clutter.doppler_span == (-100.0, 100.0)


@pytest.mark.parametrize("label", ["two targets", "run-3 (b)", "x=1;y",
                                   "\u00e9cho", ""])
def test_scene_label_reads_back_unchanged(tmp_path, label):
    scene.save_scene(scene.TargetScene((), label=label), tmp_path / "s.txt")
    assert scene.load_scene(tmp_path / "s.txt").label == label


@pytest.mark.parametrize("label", [
    "run #3", " padded ", "padded ", "two\nlines", "two\rlines",
    "two\u2028lines", "a,b", 'say "hi"',
], ids=["hash", "padded", "trailing-space", "newline", "return",
        "line-separator", "comma", "quote"])
def test_scene_label_that_would_not_read_back_is_rejected(label):
    with pytest.raises(ValueError, match="label"):
        scene.TargetScene((), label=label)


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', 'a,"b"'])
def test_scene_file_label_csv_would_quote_is_a_parse_error(tmp_path, label):
    p = tmp_path / "scene.txt"
    p.write_text(f"scene-version: 1\nlabel: {label}\ntarget: 1 0 0 0\n")
    with pytest.raises(errors.ParseError, match=r"scene\.txt:2: label"):
        scene.load_scene(p)


def test_scene_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("target: 1 0 0 0\n")
    with pytest.raises(errors.ParseError, match="scene-version"):
        scene.load_scene(p)
    p.write_text("scene-version: 1\ntarget: 1 0 0\n")
    with pytest.raises(errors.ParseError, match=":2"):
        scene.load_scene(p)
    p.write_text("scene-version: 1\nbogus: 3\n")
    with pytest.raises(errors.ParseError, match="unknown key"):
        scene.load_scene(p)
    p.write_text("scene-version: 1\n# comment only\n")
    scn = scene.load_scene(p)
    assert len(scn.targets) == 0


def test_scene_file_duplicate_target_is_a_parse_error(tmp_path):
    # two targets in one (tau, nu) cell are one unidentifiable target; the
    # check is the scene's, after every line, so the error names the file
    p = tmp_path / "scene.txt"
    p.write_text("scene-version: 1\ntarget: 1 0 3e-06 0\n"
                 "target: 0.5 0 3e-06 0\n")
    with pytest.raises(errors.ParseError,
                       match=r"scene\.txt: degenerate scene: duplicate"):
        scene.load_scene(p)
    (tmp_path / "exp.ini").write_text(
        "[experiment]\nschema-version = 1\n\n[scene]\nfile = scene.txt\n\n"
        "[waveform]\nkind = chirp\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "rows.csv").exists()


@pytest.mark.parametrize("lines, match", [
    ("label: a\nlabel: b", r"scene\.txt:3: key 'label' repeats line 2"),
    ("clutter: 0 0 0 0 0 0\nclutter: 1 0 0 0 0 0",
     r"scene\.txt:3: key 'clutter' repeats line 2"),
], ids=["two-labels", "two-clutters"])
def test_scene_file_repeated_key_is_a_parse_error(tmp_path, lines, match):
    # a second line of a key that does not repeat would silently win
    p = tmp_path / "scene.txt"
    p.write_text(f"scene-version: 1\n{lines}\ntarget: 1 0 0 0\n")
    with pytest.raises(errors.ParseError, match=match):
        scene.load_scene(p)


@pytest.mark.parametrize("clutter", [
    "inf 0.1 0 5e-06 -100 100",
    "nan 0.1 0 5e-06 -100 100",
    "1e6 nan 0 5e-06 -100 100",
    "1e6 0.1 0 inf -100 100",
    "1e6 0.1 nan 5e-06 -100 100",
    "1e6 0.1 0 5e-06 -inf 100",
    "1e6 0.1 0 5e-06 -100 nan",
], ids=["density-inf", "density-nan", "scale-nan", "delay-inf", "delay-nan",
        "doppler-inf", "doppler-nan"])
def test_scene_file_rejects_non_finite_clutter(tmp_path, clutter):
    p = tmp_path / "scene.txt"
    p.write_text(f"scene-version: 1\nclutter: {clutter}\n")
    with pytest.raises(errors.ParseError,
                       match=r"scene\.txt:2: clutter values must be finite"):
        scene.load_scene(p)
    (tmp_path / "exp.ini").write_text(
        "[experiment]\nschema-version = 1\n\n[scene]\nfile = scene.txt\n\n"
        "[waveform]\nkind = chirp\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")]) == 2
