"""isaclab: integrated sensing and communication simulation and metrology.

Modules:
    scene       delay-Doppler targets, clutter, noise, channel application
    waveform    PSK/OFDM/chirp generation, spectra, waveform files
    estimators  matched filter, OMP, MUSIC, demodulation, cost accounting
    metrics     MSE/CRLB, BER, mutual information, ambiguity, model-order
    unified     combined sensing + communication scores
    syncnet     distributed aperture synchronization via particle BP
    harness     config-driven experiment runner
"""

from .conventions import SPEED_OF_LIGHT
from .errors import ToolkitError, ValidationError
from .scene import (ClutterModel, NoiseModel, ReceivedSignal, SensingPrior,
                    Target, TargetScene, apply_channel, eval_dd_response,
                    generate_clutter, load_scene, merge_scenes, save_scene)
from .waveform import (ModulationLayout, Waveform, energy_spectral_density,
                       generate_chirp, generate_ofdm, generate_psk_frame,
                       informativeness_check, load_waveform, papr,
                       save_waveform, spectrum_profile)
from .estimators import (CostLedger, Dictionary, EstimateReport, demodulate,
                         matched_filter_estimate, music_estimate,
                         omp_estimate, tally_cost)
from .metrics import (AmbiguityMap, CommReport, JointPMF, ParameterVector,
                      ambiguity, ber_theoretical_bpsk, channel_capacity,
                      conditional_mi, cost_criterion, crlb_numeric, fpe,
                      mse_sample, mutual_information, nats_to_bits, qfunc,
                      r_squared)
from .unified import (EstimatorScore, NormalizationPolicy, SignalScore,
                      estimator_metric, max_attainable_normalization,
                      signal_metric, sweep_lambda)
from .syncnet import (ApertureState, BPConfig, BPResult, FactorGraph,
                      MeasurementNoise, NetworkTopology, StateSpace,
                      SyncScenario, build_factor_graph, estimate_map,
                      estimate_mmse, load_sync_scenario, run_loopy_bp,
                      run_sync_scenario, simulate_measurements,
                      sync_error_report)
from .harness import (ExperimentConfig, ResultRow, derive_seed, emit_report,
                      load_config, run_experiment, run_sweep)

__version__ = "0.1.0"
