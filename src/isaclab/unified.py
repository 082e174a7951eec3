"""Unified signal and estimator scores combining sensing and communication.

The signal score blends the (normalized) conditional sensing MI with the
(normalized) communication MI under a user weight; the estimator score
weights sensing and communication errors by the resource cost of the
estimator that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .estimators import CostLedger, tally_cost
from .metrics import (CommReport, JointPMF, _common_band, channel_capacity,
                      conditional_mi, conditional_mi_spectra,
                      mutual_information)
from .scene import NoiseModel, SensingPrior
from .waveform import Waveform


# ---------------------------------------------------------------------------
# normalization policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationPolicy:
    """Reference constants dividing the sensing and communication terms.

    The default policy (see max_attainable_normalization) uses the highest
    value each term could attain in the scenario, so both normalized terms
    live on comparable scales; any fixed pair of positive references is a
    valid alternative and is recorded in the resulting score.
    """

    sensing_ref: float
    comm_ref: float
    name: str = "fixed"

    def __post_init__(self):
        if self.sensing_ref == 0 or self.comm_ref == 0:
            raise errors.NormalizationError("normalization reference is zero")


def max_attainable_normalization(u: Waveform, prior: SensingPrior,
                                 noise: NoiseModel,
                                 channel: np.ndarray) -> NormalizationPolicy:
    """Scenario maxima: flat full-power spectrum for sensing, channel
    capacity for communication; NormalizationError when the waveform,
    prior and noise bands share no interval."""
    freqs, sg2, pnn = _common_band(u, prior, noise, 512)
    if not freqs.size:
        raise errors.NormalizationError(f"bands {u.band}, {prior.band} and "
                                        f"{noise.band} share no interval")
    flat_esd = np.full(512, u.energy / np.ptp(freqs))      # same energy budget
    i_s_max = conditional_mi_spectra(flat_esd, sg2, pnn, freqs, u.duration)
    c, _ = channel_capacity(channel)
    return NormalizationPolicy(i_s_max, c, name="max-attainable")


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalScore:
    sensing_term: float          # I_s, nats (before normalization)
    comm_term: float             # I_c, nats (before normalization)
    lam: float
    value: float
    normalization: NormalizationPolicy

    @property
    def normalized_sensing(self) -> float:
        return self.sensing_term / self.normalization.sensing_ref

    @property
    def normalized_comm(self) -> float:
        return self.comm_term / self.normalization.comm_ref


@dataclass(frozen=True)
class EstimatorScore:
    sensing_error: float
    comm_error: float
    lam: float
    wcost: float
    value: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def signal_metric(u: Waveform, prior: SensingPrior, noise: NoiseModel,
                  channel, lam: float,
                  norm: NormalizationPolicy | None = None) -> SignalScore:
    """J(u) = lam * I_s_hat + (1-lam) * I_c_hat, lam in (0, 1) exclusive.

    channel is either a JointPMF (input/output joint distribution of the
    communication link) or a row-stochastic conditional PMF array (a
    uniform input is then assumed).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1) exclusive, got {lam}")
    i_s = conditional_mi(u, prior, noise)
    if isinstance(channel, JointPMF):
        i_c = mutual_information(channel)
        cond = None
    else:
        cond = np.asarray(channel, float)
        joint = cond / cond.shape[0]
        i_c = mutual_information(JointPMF(joint))
    if norm is None:
        if cond is None:
            raise errors.NormalizationError(
                "default normalization needs a conditional PMF channel")
        norm = max_attainable_normalization(u, prior, noise, cond)
    value = lam * (i_s / norm.sensing_ref) + (1 - lam) * (i_c / norm.comm_ref)
    return SignalScore(i_s, i_c, lam, value, norm)


def estimator_metric(truth, estimate, comm: CommReport, lam: float,
                     cost: CostLedger | dict, cost_weights: dict,
                     c_max: float, form: str = "fpe") -> EstimatorScore:
    """J = w_cost * (lam * (1/K) sum (phi - phi_hat)^2 + (1-lam) * BER)."""
    phi = np.asarray(truth, float)
    phi_hat = np.asarray(estimate, float)
    if phi.shape != phi_hat.shape or phi.size < 1:
        raise errors.LayoutMismatch(
            f"phi shape {phi.shape} != phi_hat shape {phi_hat.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    wcost = tally_cost(cost, cost_weights, c_max, form)
    sensing = float(np.mean((phi - phi_hat) ** 2))
    ber = comm.ber
    value = wcost * (lam * sensing + (1 - lam) * ber)
    return EstimatorScore(sensing, ber, lam, wcost, value)


def sweep_lambda(sensing_term: float, comm_term: float, lambda_grid,
                 wcost: float = 1.0) -> list[tuple[float, float]]:
    """Rows (lambda, J) with J = wcost * (lam*sensing + (1-lam)*comm).

    J is affine in lambda for fixed terms; the terms are whatever scale the
    caller fixed (normalized MIs for the signal score, errors for the
    estimator score).
    """
    rows = []
    for lam in np.asarray(lambda_grid, float):
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda grid value {lam} outside (0, 1)")
        rows.append((float(lam),
                     float(wcost * (lam * sensing_term
                                    + (1 - lam) * comm_term))))
    return rows
