"""isaclab: integrated sensing and communication simulation and metrology.

Modules:
    scene       delay-Doppler targets, clutter, noise, channel application
    waveform    PSK/OFDM/chirp generation, spectra
    estimators  matched filter, OMP, MUSIC, demodulation, cost accounting
    metrics     CRLB, BER, mutual information, ambiguity, model-order
    unified     combined sensing + communication scores
    syncnet     distributed aperture synchronization via particle BP
    harness     config-driven experiment runner

Every module but `cli` is registered in `sys.modules` at import and runs
its code only when one of its attributes is first read, so a command
executes only the modules it uses. Each name is read through the module
that defines it, e.g. `isaclab.estimators.Dictionary`.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name):
    """Submodule `name`, registered in `sys.modules` unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({m: _lazy(m) for m in "conventions errors scene waveform "
                  "estimators metrics unified syncnet harness".split()})
