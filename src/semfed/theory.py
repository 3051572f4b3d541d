"""Convergence-bound calculators: the two closed forms ``semfed bound`` evaluates.

The pseudo-label gradient gap is a high-probability bound with three
summands: a distribution-shift term scaling with the square root of the
KL shift, a label-noise term, and a finite-sample concentration term
that shrinks with the public batch size.  The stationarity bound for
biased SGD on a smooth objective has three summands as well: an
initialization term decaying as 1/(step * steps), a gradient-noise term
linear in the step size, and a squared bias floor.  All logs are
natural.  A bound that does not fit a float raises OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LOG5",
    "StepTooLargeError",
    "GapParams",
    "delta_T",
    "StationarityParams",
    "StationarityBound",
    "stationarity_rhs",
]

# Covering number of the unit ball at radius 1/2 grows like 5^dim; its
# log shows up in the concentration term.
LOG5 = math.log(5.0)


class StepTooLargeError(ValueError):
    """Raised when the step size exceeds the smoothness-imposed cap."""


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise unless ``value`` is finite and >= 0 (> 0 when ``positive``)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


def _fits(name: str, value: float) -> float:
    """``value``, or OverflowError when it is inf or NaN (an overflowed summand)."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows to {value}")
    return value


@dataclass(frozen=True)
class GapParams:
    """Inputs to the pseudo-label gradient-gap bound.

    grad_bound: uniform bound G on per-example gradient norms.
    kl_shift: KL divergence between public and private prompt
        distributions.
    label_noise: probability mass of wrong pseudo-labels, in [0, 1].
    public_batch: number of public examples averaged each step.
    param_dim: parameter dimension entering the covering number.
    total_steps: number of optimization steps the union bound covers.
    confidence: failure probability, strictly inside (0, 1).
    """

    grad_bound: float
    kl_shift: float
    label_noise: float
    public_batch: int
    param_dim: int
    total_steps: int
    confidence: float

    def __post_init__(self) -> None:
        _check_finite("grad_bound", self.grad_bound)
        _check_finite("kl_shift", self.kl_shift)
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError(f"label_noise must be in [0, 1], got {self.label_noise}")
        if self.public_batch < 1:
            raise ValueError(f"public_batch must be >= 1, got {self.public_batch}")
        if self.param_dim < 1:
            raise ValueError(f"param_dim must be >= 1, got {self.param_dim}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


def delta_T(params: GapParams) -> float:
    """High-probability gap between pseudo-label and private gradients.

    Sum of a shift term G*sqrt(2*kl), a label-noise term 2*G*noise, and
    a concentration term
    4*G*sqrt((2/B) * (dim*log5 + log(2*steps/confidence))).
    Monotone: nondecreasing in steps and dim, nonincreasing in the
    public batch size.
    """
    g = params.grad_bound
    shift = g * math.sqrt(2.0 * params.kl_shift)
    # g times each small factor first: 2.0 * g alone can overflow where the
    # term fits; the factors are powers of two, so the bits are the same
    # wherever nothing overflows or goes subnormal.
    noise = g * (2.0 * params.label_noise)
    log_term = params.param_dim * LOG5 + math.log(2.0 * params.total_steps / params.confidence)
    concentration = g * (4.0 * math.sqrt((2.0 / params.public_batch) * log_term))
    return _fits("gap", shift + noise + concentration)


@dataclass(frozen=True)
class StationarityParams:
    """Inputs to the biased-SGD stationarity bound.

    smoothness is the gradient-Lipschitz constant of the averaged
    objective; step_size must not exceed 1/(4*smoothness), enforced by
    stationarity_rhs.  noise_var is the per-step gradient noise
    variance excluding client sampling; heterogeneity is the mean
    squared deviation of per-client gradients, of which a quarter adds
    to the effective variance.  init_gap is the objective gap at the
    starting point.
    """

    gap: GapParams
    smoothness: float
    step_size: float
    noise_var: float
    heterogeneity: float
    init_gap: float

    def __post_init__(self) -> None:
        _check_finite("smoothness", self.smoothness, positive=True)
        _check_finite("step_size", self.step_size, positive=True)
        _check_finite("noise_var", self.noise_var)
        _check_finite("heterogeneity", self.heterogeneity)
        _check_finite("init_gap", self.init_gap)


@dataclass(frozen=True)
class StationarityBound:
    """The bound's three summands; total is exactly their sum."""

    descent_term: float
    noise_term: float
    bias_term: float
    gap_value: float
    total: float


def stationarity_rhs(params: StationarityParams) -> StationarityBound:
    """Bound on the average squared gradient norm over the run.

    descent_term = 4 * init_gap / (step * steps)
    noise_term   = 2 * smoothness * step * (noise_var + heterogeneity/4)
    bias_term    = (3/4) * gap^2
    Raises StepTooLargeError when step > 1/(4*smoothness).
    """
    cap = 1.0 / (4.0 * params.smoothness)
    if params.step_size > cap:
        raise StepTooLargeError(
            f"step_size {params.step_size} exceeds 1/(4*smoothness) = {cap}"
        )
    gap_value = delta_T(params.gap)
    descent = 4.0 * params.init_gap / (params.step_size * params.gap.total_steps)
    noise = 2.0 * params.smoothness * params.step_size * (params.noise_var + params.heterogeneity / 4.0)
    bias = 0.75 * gap_value * gap_value
    return StationarityBound(
        descent_term=descent,
        noise_term=noise,
        bias_term=bias,
        gap_value=gap_value,
        total=_fits("stationarity total", descent + noise + bias),
    )
