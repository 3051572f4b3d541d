"""Convergence-bound calculators and the harnesses that check them.

Two closed forms are implemented.  The pseudo-label gradient gap is a
high-probability bound with three summands: a distribution-shift term
scaling with the square root of the KL shift, a label-noise term, and a
finite-sample concentration term that shrinks with the public batch
size.  The stationarity bound for biased SGD on a smooth objective has
three summands as well: an initialization term decaying as 1/(step *
steps), a gradient-noise term linear in the step size, and a squared
bias floor.  All logs are natural.

The empirical side constructs problems where every assumption holds
with equality, then checks the averaged squared gradient norm of an
actual biased-SGD run against the bound: quadratic objectives with a
shared curvature matrix, per-client optima inducing a known
heterogeneity, a deterministic adversarial bias of exactly the allowed
magnitude pointed against the descent direction, and Gaussian plus
client-sampling noise realizing the variance budget exactly.

Separate helpers give Monte-Carlo checks for the supporting
inequalities: total variation vs KL (Pinsker), expectation shift of a
bounded function vs total variation, and the sampled-client gradient
variance decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LOG5",
    "StepTooLargeError",
    "GapParams",
    "delta_T",
    "StationarityParams",
    "StationarityBound",
    "stationarity_rhs",
    "SyntheticProblem",
    "make_quadratic_problem",
    "BoundCheckReport",
    "empirical_bound_check",
    "VarianceCheckReport",
    "client_variance_check",
    "total_variation",
    "kl_divergence",
    "DivergenceCheckReport",
    "tv_pinsker_check",
    "random_distribution_pairs",
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
    noise = 2.0 * g * params.label_noise
    log_term = params.param_dim * LOG5 + math.log(2.0 * params.total_steps / params.confidence)
    concentration = 4.0 * g * math.sqrt((2.0 / params.public_batch) * log_term)
    return shift + noise + concentration


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
        total=descent + noise + bias,
    )


@dataclass(frozen=True)
class SyntheticProblem:
    """A quadratic test bed realizing every bound assumption exactly.

    Client i's objective is 0.5 * (x - opt_i)' A (x - opt_i) with a
    shared symmetric PSD curvature A, so the averaged objective is
    smooth with constant ||A||_2 and the per-client gradient deviations
    A*(mean_opt - opt_i) are constant in x, making the heterogeneity
    exactly (1/K) * sum ||A (mean_opt - opt_i)||^2.

    Each SGD step sees gradient + bias + sampling noise + Gaussian
    noise, where the bias has magnitude bias_magnitude pointed against
    the current gradient (the worst direction allowed), the sampling
    noise is half the sampled client's deviation (mean zero, second
    moment heterogeneity/4), and the Gaussian part has second moment
    noise_sigma^2.  bias_magnitude may not exceed half the gap bound.
    """

    curvature: np.ndarray
    client_optima: np.ndarray
    init: np.ndarray
    gap: GapParams
    step_size: float
    noise_sigma: float
    bias_magnitude: float
    seed: int

    def __post_init__(self) -> None:
        a = np.asarray(self.curvature, dtype=np.float64)
        opts = np.asarray(self.client_optima, dtype=np.float64)
        init = np.asarray(self.init, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"curvature must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("curvature must be symmetric")
        if float(np.linalg.eigvalsh(a).min()) < -1e-9:
            raise ValueError("curvature must be positive semidefinite")
        dim = a.shape[0]
        if opts.ndim != 2 or opts.shape[1] != dim or opts.shape[0] < 1:
            raise ValueError(f"client_optima must be (K, {dim}), got {opts.shape}")
        if init.shape != (dim,):
            raise ValueError(f"init must have shape ({dim},), got {init.shape}")
        if self.gap.param_dim != dim:
            raise ValueError(
                f"gap.param_dim {self.gap.param_dim} must match problem dimension {dim}"
            )
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        cap = delta_T(self.gap) / 2.0
        if self.bias_magnitude < 0.0 or self.bias_magnitude > cap + 1e-12:
            raise ValueError(
                f"bias_magnitude must lie in [0, gap/2] = [0, {cap}], got {self.bias_magnitude}"
            )
        object.__setattr__(self, "curvature", a)
        object.__setattr__(self, "client_optima", opts)
        object.__setattr__(self, "init", init)

    @property
    def dimension(self) -> int:
        return self.curvature.shape[0]

    @property
    def num_clients(self) -> int:
        return self.client_optima.shape[0]

    @property
    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.curvature).max())

    @property
    def mean_optimum(self) -> np.ndarray:
        return self.client_optima.mean(axis=0)

    @property
    def heterogeneity(self) -> float:
        deviations = (self.mean_optimum[None, :] - self.client_optima) @ self.curvature.T
        return float((deviations**2).sum(axis=1).mean())

    def objective(self, x: np.ndarray) -> float:
        diffs = x[None, :] - self.client_optima
        return float(0.5 * ((diffs @ self.curvature) * diffs).sum(axis=1).mean())

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.curvature @ (x - self.mean_optimum)

    @property
    def init_gap(self) -> float:
        # The averaged quadratic is minimized at the mean optimum for
        # any PSD curvature.
        return self.objective(self.init) - self.objective(self.mean_optimum)

    def stationarity_params(self) -> StationarityParams:
        return StationarityParams(
            gap=self.gap,
            smoothness=self.smoothness,
            step_size=self.step_size,
            noise_var=self.noise_sigma**2,
            heterogeneity=self.heterogeneity,
            init_gap=self.init_gap,
        )


def make_quadratic_problem(
    client_optima: Sequence[Sequence[float]],
    init: Sequence[float],
    gap: GapParams,
    step_size: float,
    noise_sigma: float,
    bias_magnitude: float,
    seed: int,
    curvature: Sequence[Sequence[float]] | None = None,
) -> SyntheticProblem:
    """Convenience constructor; identity curvature unless given."""
    opts = np.asarray(client_optima, dtype=np.float64)
    a = np.eye(opts.shape[1]) if curvature is None else np.asarray(curvature, dtype=np.float64)
    return SyntheticProblem(
        curvature=a,
        client_optima=opts,
        init=np.asarray(init, dtype=np.float64),
        gap=gap,
        step_size=step_size,
        noise_sigma=noise_sigma,
        bias_magnitude=bias_magnitude,
        seed=seed,
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Per-seed averaged squared gradient norms against the bound."""

    per_run_lhs: tuple[float, ...]
    bound: StationarityBound
    violations: int

    @property
    def all_hold(self) -> bool:
        return self.violations == 0

    @property
    def mean_lhs(self) -> float:
        return float(np.mean(self.per_run_lhs))


def _run_biased_sgd(problem: SyntheticProblem, rng: np.random.Generator) -> float:
    """One trajectory; returns the average exact squared gradient norm."""
    a = problem.curvature
    mean_opt = problem.mean_optimum
    deviations = (mean_opt[None, :] - problem.client_optima) @ a.T
    dim = problem.dimension
    k = problem.num_clients
    sigma_component = problem.noise_sigma / math.sqrt(dim)
    x = problem.init.copy()
    total = 0.0
    steps = problem.gap.total_steps
    for _ in range(steps):
        grad = a @ (x - mean_opt)
        grad_norm = float(np.linalg.norm(grad))
        total += grad_norm * grad_norm
        if grad_norm > 1e-15:
            bias = (-problem.bias_magnitude / grad_norm) * grad
        else:
            bias = np.zeros(dim)
            bias[0] = problem.bias_magnitude
        sampled = int(rng.integers(k))
        sampling_noise = 0.5 * deviations[sampled]
        gaussian_noise = rng.normal(0.0, sigma_component, dim)
        x = x - problem.step_size * (grad + bias + sampling_noise + gaussian_noise)
    return total / steps


def empirical_bound_check(problem: SyntheticProblem, runs: int) -> BoundCheckReport:
    """Run biased SGD across seeds and compare each run to the bound.

    The left side uses exact analytic gradients of the averaged
    objective; only the update direction is corrupted.  Each run gets
    its own RNG stream derived from (problem.seed, run index), so
    results are reproducible and independent of execution order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    bound = stationarity_rhs(problem.stationarity_params())
    lhs_values = []
    for run in range(runs):
        rng = np.random.default_rng([problem.seed, run])
        lhs_values.append(_run_biased_sgd(problem, rng))
    violations = sum(1 for lhs in lhs_values if lhs > bound.total)
    return BoundCheckReport(per_run_lhs=tuple(lhs_values), bound=bound, violations=violations)


@dataclass(frozen=True)
class VarianceCheckReport:
    """Monte-Carlo estimate of sampled-gradient variance vs its bound."""

    empirical: float
    bound: float
    std_error: float
    samples: int

    @property
    def slack(self) -> float:
        return self.bound - self.empirical

    @property
    def holds_within_3se(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.std_error


def client_variance_check(
    gradients: Sequence[Sequence[float]],
    noise_var: float,
    samples: int,
    seed: int = 0,
) -> VarianceCheckReport:
    """Check E||g_I + noise - mean_g||^2 <= noise_var + mean dev^2.

    gradients holds one per-client gradient per row; a client is drawn
    uniformly each sample and isotropic Gaussian noise with total
    variance noise_var is added.  The reported standard error is over
    the Monte-Carlo samples.
    """
    grads = np.asarray(gradients, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] < 1:
        raise ValueError(f"gradients must be a (K, dim) array, got shape {grads.shape}")
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    k, dim = grads.shape
    mean_grad = grads.mean(axis=0)
    spread = float(((grads - mean_grad[None, :]) ** 2).sum(axis=1).mean())
    bound = noise_var + spread

    rng = np.random.default_rng(seed)
    picks = rng.integers(k, size=samples)
    noise = rng.normal(0.0, math.sqrt(noise_var / dim), size=(samples, dim))
    errors = grads[picks] + noise - mean_grad[None, :]
    squared = (errors**2).sum(axis=1)
    empirical = float(squared.mean())
    std_error = float(squared.std(ddof=1) / math.sqrt(samples))
    return VarianceCheckReport(
        empirical=empirical, bound=bound, std_error=std_error, samples=samples
    )


def total_variation(mu: Sequence[float], nu: Sequence[float]) -> float:
    """Total variation distance between two finite distributions."""
    p = _validate_distribution(mu, "mu")
    q = _validate_distribution(nu, "nu")
    if p.shape != q.shape:
        raise ValueError("distributions must share a support size")
    return 0.5 * float(np.abs(p - q).sum())


def kl_divergence(mu: Sequence[float], nu: Sequence[float]) -> float:
    """KL(mu || nu) in nats; infinite when nu misses mass mu has."""
    p = _validate_distribution(mu, "mu")
    q = _validate_distribution(nu, "nu")
    if p.shape != q.shape:
        raise ValueError("distributions must share a support size")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += float(pi) * math.log(float(pi) / float(qi))
    return total


def _validate_distribution(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty probability vector")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} has negative entries")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {float(arr.sum())}, not 1")
    return arr


@dataclass(frozen=True)
class DivergenceCheckReport:
    """Outcome of the Pinsker and expectation-shift checks.

    max_pinsker_slack is the largest observed tv - sqrt(kl/2) over
    finite-KL instances (at most 0 when the inequality holds);
    min_shift_slack is the smallest observed 2*B*tv - shift (at least
    0 when it holds).
    """

    instances: int
    pinsker_violations: int
    shift_violations: int
    max_pinsker_slack: float
    min_shift_slack: float

    @property
    def all_hold(self) -> bool:
        return self.pinsker_violations == 0 and self.shift_violations == 0


def tv_pinsker_check(
    pairs: Sequence[tuple[Sequence[float], Sequence[float]]],
    bound: float = 1.0,
    functions_per_pair: int = 4,
    seed: int = 0,
) -> DivergenceCheckReport:
    """Check TV <= sqrt(KL/2) and ||shift of a bounded mean|| <= 2*B*TV.

    For each (mu, nu) pair the Pinsker inequality is evaluated
    directly, then functions_per_pair random vector-valued functions
    with per-point norm at most ``bound`` test the expectation-shift
    inequality.  Comparisons allow 1e-12 absolute float slack.
    """
    if bound <= 0.0:
        raise ValueError(f"bound must be > 0, got {bound}")
    rng = np.random.default_rng(seed)
    pinsker_violations = 0
    shift_violations = 0
    max_pinsker_slack = -math.inf
    min_shift_slack = math.inf
    count = 0
    for mu, nu in pairs:
        p = _validate_distribution(mu, "mu")
        q = _validate_distribution(nu, "nu")
        if p.shape != q.shape:
            raise ValueError("distributions must share a support size")
        count += 1
        tv = total_variation(p, q)
        kl = kl_divergence(p, q)
        pinsker_rhs = math.sqrt(kl / 2.0) if math.isfinite(kl) else math.inf
        if tv > pinsker_rhs + 1e-12:
            pinsker_violations += 1
        if math.isfinite(pinsker_rhs):
            max_pinsker_slack = max(max_pinsker_slack, tv - pinsker_rhs)
        support = p.size
        for _ in range(functions_per_pair):
            h = rng.uniform(-1.0, 1.0, size=(support, 3))
            row_norms = np.linalg.norm(h, axis=1)
            scale = bound / float(row_norms.max())
            h = h * scale
            shift = float(np.linalg.norm(q @ h - p @ h))
            limit = 2.0 * bound * tv
            if shift > limit + 1e-12:
                shift_violations += 1
            min_shift_slack = min(min_shift_slack, limit - shift)
    return DivergenceCheckReport(
        instances=count,
        pinsker_violations=pinsker_violations,
        shift_violations=shift_violations,
        max_pinsker_slack=max_pinsker_slack,
        min_shift_slack=min_shift_slack,
    )


def random_distribution_pairs(
    count: int, support: int, seed: int = 0, include_zeros: bool = True
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded random distribution pairs for the divergence checks.

    A fraction of the pairs zero out some coordinates (of mu only, so
    KL stays finite) to exercise boundary handling.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if support < 2:
        raise ValueError(f"support must be >= 2, got {support}")
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        p = rng.dirichlet(np.full(support, 0.8))
        q = rng.dirichlet(np.full(support, 0.8))
        if include_zeros and i % 5 == 0:
            p = p.copy()
            p[int(rng.integers(support))] = 0.0
            p = p / p.sum()
        pairs.append((p, q))
    return pairs
