"""Property tests of the file loaders: a mutated scene or sync-scenario
file either loads or raises a ParseError that names the file, a sync
scenario that loads can be estimated, and a mutated INI config loads or
raises a ParseError naming the file or a ValidationError."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isaclab import errors, harness, scene, syncnet

_SCENE = b"""scene-version: 1
label: two targets  # a comment
target: 0.5 -0.25 1.5e-06 20.0
target: 1.0 0.0 3e-06 -40.0
clutter: 1000000.0 0.1 0.0 5e-06 -100.0 100.0
"""

_SYNC = b"""sync-version: 1
components: position orientation
carrier-freq: 2.4e9
scene-box: 0 50 0 50
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 agent 20 30 0 0 0
measure: all
noise: delay 1e-9
noise: aoa 0.02
bp-particles: 500
"""

# fragments at the edges of the grammar: separators, comments, line breaks,
# signs, non-finite numbers, and bytes that are not UTF-8
_FRAGMENTS = st.sampled_from([b":", b"#", b"\n", b" ", b"-", b"9", b"nan",
                              b"inf", b"\xff", b"\xc3", b"\x00"])
_EDITS = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 3),
                            _FRAGMENTS | st.binary(min_size=1, max_size=3)),
                  min_size=1, max_size=4)


def _mutate(data: bytes, edits) -> bytes:
    """Replace `span` bytes at each relative position with the fragment."""
    for where, span, fragment in edits:
        i = int(where * len(data))
        data = data[:i] + fragment + data[i + span:]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cases = {
        "scene": (d / "scene.txt", _SCENE, scene.load_scene),
        "sync": (d / "net.txt", _SYNC, syncnet.load_sync_scenario),
    }
    for path, valid, load in cases.values():
        path.write_bytes(valid)
        load(path)
    _assert_estimable(syncnet.load_sync_scenario(d / "net.txt"))
    return cases


@given(kind=st.sampled_from(["scene", "sync"]), edits=_EDITS)
@settings(max_examples=300, deadline=None)
def test_mutated_files_load_or_raise_parse_error(files, kind, edits):
    path, valid, load = files[kind]
    path.write_bytes(_mutate(valid, edits))
    try:
        loaded = load(path)
    except errors.ParseError as exc:
        assert str(path) in str(exc)
        return
    if kind == "sync":
        _assert_estimable(loaded)


def _assert_estimable(scn):
    """A loaded sync scenario can be estimated: position is a component,
    an enabled observable reads every declared component, every true state
    is 0 in each undeclared one, an anchor fixes the frame, measured pairs
    chain every agent to one, every true state is finite, and each agent's
    prior holds its true state."""
    noise = scn.noise
    read = {"position"} | {c for c, std in (("time_offset", noise.delay_std),
                                            ("orientation", noise.aoa_std),
                                            ("cpo", noise.phase_std))
                           if std is not None}
    assert "position" in scn.space.components
    assert set(scn.space.components) <= read
    for state in scn.true_states.values():
        for c in {"orientation", "time_offset", "cpo"} - set(
                scn.space.components):
            assert getattr(state, c) == 0
    top = scn.topology
    assert top.anchors and top.unanchored == ()
    full = syncnet.StateSpace(("position", "orientation", "time_offset",
                               "cpo"))
    for j in top.apertures:
        assert np.isfinite(full.pack(scn.true_states[j])).all()
    for j in top.agents:
        x = scn.space.pack(scn.true_states[j])[None]
        assert np.isfinite(scn.priors[j].logpdf(x)).all()


_INI = b"""[experiment]
schema-version = 1
trials = 2
master-seed = 7
workers = 1

[scene]
file = scene.txt

[noise]
ebn0-db = 20

[waveform]
kind = psk
bits = 64
sample-rate = 1e6

[estimator]
kind = omp
sparsity = 2
delay-bins = 8
doppler-bins = 3
doppler-max = 1e3

[metrics]
list = ber, delay_rmse, w_cost

[unified]
lambda = 0.5
cost-weights = flops:1.0
c-max = 1e12

[sweep]
parameter = ebn0-db
values = 0, 10, 20
"""

# the INI grammar's own separators and markers on top of the line fragments
_INI_EDITS = st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 3),
              _FRAGMENTS | st.sampled_from([b"[", b"]", b"=", b"%", b";",
                                            b"\t", b"%(x)s"])
              | st.binary(min_size=1, max_size=3)),
    min_size=1, max_size=4)


@given(edits=_INI_EDITS)
@settings(max_examples=300, deadline=None)
def test_mutated_config_loads_or_raises_toolkit_error(tmp_path_factory,
                                                      edits):
    d = tmp_path_factory.getbasetemp() / "ini-fuzz"
    d.mkdir(exist_ok=True)
    (d / "scene.txt").write_bytes(_SCENE)
    path = d / "exp.ini"
    path.write_bytes(_INI)
    harness.load_config(path)
    path.write_bytes(_mutate(_INI, edits))
    try:
        harness.load_config(path)
    except errors.ParseError as exc:
        assert str(path) in str(exc)
    except errors.ValidationError:
        pass
