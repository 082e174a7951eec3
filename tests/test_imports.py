"""The package loads lazily: a command executes only the modules it uses,
and every module resolves after `import isaclab`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


SRC = Path(__file__).resolve().parents[1] / "src"

# run a CLI command, then print the isaclab modules whose code ran and
# whether numpy.ma was imported. Executing a module's code adds
# `__builtins__` to its namespace; reading `__dict__` past the lazy
# module's own attribute hook does not execute it
_COMMAND = """\
import sys
from isaclab import cli
assert cli.main(sys.argv[1:]) == 0
ran = [n.split(".")[1] for n, m in sorted(sys.modules.items())
       if n.startswith("isaclab.")
       and "__builtins__" in object.__getattribute__(m, "__dict__")]
print(*ran)
print("numpy.ma" in sys.modules)
"""

_SIMULATE = """[experiment]
schema-version = 1
trials = 1

[scene]
file = scene.txt

[waveform]
kind = psk
bits = 32
sample-rate = 1e6

[estimator]
kind = omp
sparsity = 1
delay-bins = 8

[metrics]
list = papr, delay_rmse, residual_energy
"""

_SCENE = "scene-version: 1\ntarget: 1.0 0.0 3e-06 0.0\n"

_SYNC = """sync-version: 1
aperture: 0 anchor 0 0 0 0 0
aperture: 1 anchor 50 0 0 0 0
aperture: 2 agent 20 30 0 0 0
measure: all
noise: delay 1e-9
bp-particles: 100
bp-iterations: 3
"""


def _python(code, *args):
    """Standard output of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          check=True).stdout.splitlines()


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """Command name -> (modules executed, whether numpy.ma was imported)."""
    d = tmp_path_factory.mktemp("lazy")
    (d / "scene.txt").write_text(_SCENE)
    (d / "sim.ini").write_text(_SIMULATE)
    (d / "net.txt").write_text(_SYNC)
    (d / "sync.ini").write_text("[experiment]\nschema-version = 1\n\n"
                                "[sync]\nfile = net.txt\n")
    result = {}
    for command, config in (("simulate", "sim.ini"), ("sync", "sync.ini")):
        *_, ran, ma = _python(_COMMAND, command, "--config", d / config,
                              "--out", d / command)
        result[command] = (set(ran.split()), ma == "True")
    return result


def test_sync_executes_no_sensing_module(executed):
    ran, _ = executed["sync"]
    assert {"harness", "syncnet"} <= ran
    assert ran.isdisjoint({"estimators", "metrics", "unified", "scene",
                           "waveform"})


def test_simulate_executes_no_syncnet(executed):
    ran, _ = executed["simulate"]
    assert {"harness", "estimators"} <= ran
    assert "syncnet" not in ran


def test_omp_trial_imports_no_numpy_ma(executed):
    # np.unique imports numpy.ma in numpy 2.x, a cost every OMP run paid
    assert executed["simulate"][1] is False


def test_tracer_targets_resolve_after_import():
    # a tracer finds each module in sys.modules and reads its namespace;
    # that read executes a lazily loaded module. Names are reached only
    # through their module
    out = _python("""\
import sys, isaclab
for name, attr in (("conventions", "SPEED_OF_LIGHT"),
                   ("errors", "ParseError"), ("harness", "run_trial"),
                   ("waveform", "generate_chirp"), ("scene", "apply_channel"),
                   ("estimators", "omp_estimate"), ("metrics", "r_squared"),
                   ("unified", "estimator_metric"),
                   ("syncnet", "run_loopy_bp")):
    mod = sys.modules["isaclab." + name]
    print(name, attr in vars(mod), getattr(isaclab, name) is mod)
try:
    isaclab.Dictionary
except AttributeError:
    print("no Dictionary")
""")
    assert out == [f"{name} True True" for name in (
        "conventions", "errors", "harness", "waveform", "scene",
        "estimators", "metrics", "unified", "syncnet")] + ["no Dictionary"]
