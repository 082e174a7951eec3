"""isaclab: integrated sensing and communication simulation and metrology.

Modules:
    scene       delay-Doppler targets, clutter, noise, channel application
    waveform    PSK/OFDM/chirp generation, spectra, waveform files
    estimators  matched filter, OMP, MUSIC, demodulation, cost accounting
    metrics     MSE/CRLB, BER, mutual information, ambiguity, model-order
    unified     combined sensing + communication scores
    syncnet     distributed aperture synchronization via particle BP
    harness     config-driven experiment runner

Every module but `cli` is registered in `sys.modules` at import and runs
its code only when one of its attributes is first read, so a command
executes only the modules it uses. The names below are read through the
module that defines them (PEP 562).
"""

import importlib.util
import sys

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("conventions", "SPEED_OF_LIGHT"),
    ("errors", "ToolkitError ValidationError"),
    ("scene", "ClutterModel NoiseModel ReceivedSignal SensingPrior Target "
              "TargetScene apply_channel eval_dd_response generate_clutter "
              "load_scene merge_scenes save_scene"),
    ("waveform", "ModulationLayout Waveform energy_spectral_density "
                 "generate_chirp generate_ofdm generate_psk_frame "
                 "informativeness_check load_waveform papr save_waveform "
                 "spectrum_profile"),
    ("estimators", "CostLedger Dictionary EstimateReport demodulate "
                   "matched_filter_estimate music_estimate omp_estimate "
                   "tally_cost"),
    ("metrics", "AmbiguityMap CommReport JointPMF ParameterVector ambiguity "
                "ber_theoretical_bpsk channel_capacity conditional_mi "
                "cost_criterion crlb_numeric fpe mse_sample "
                "mutual_information nats_to_bits qfunc r_squared"),
    ("unified", "EstimatorScore NormalizationPolicy SignalScore "
                "estimator_metric max_attainable_normalization signal_metric "
                "sweep_lambda"),
    ("syncnet", "ApertureState BPConfig BPResult FactorGraph "
                "MeasurementNoise NetworkTopology StateSpace SyncScenario "
                "build_factor_graph estimate_map estimate_mmse "
                "load_sync_scenario run_loopy_bp run_sync_scenario "
                "simulate_measurements sync_error_report"),
    ("harness", "ExperimentConfig ResultRow derive_seed emit_report "
                "load_config run_experiment run_sweep"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _lazy(name):
    """Submodule `name`, registered in `sys.modules` unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({m: _lazy(m) for m in dict.fromkeys(_EXPORTS.values())})


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
