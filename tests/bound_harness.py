"""Empirical checks of the convergence bounds in ``semfed.theory``.

A synthetic quadratic problem realizes every assumption of the
stationarity bound with equality: a shared curvature matrix, per-client
optima inducing a known heterogeneity, a deterministic adversarial bias
of exactly the allowed magnitude pointed against the descent direction,
and Gaussian plus client-sampling noise realizing the variance budget
exactly.  ``empirical_bound_check`` runs biased SGD on it and compares
each run's averaged squared gradient norm with the bound.

Monte-Carlo checks cover the supporting inequalities: total variation
vs KL (Pinsker), expectation shift of a bounded function vs total
variation, and the sampled-client gradient variance decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semfed.theory import GapParams, StationarityBound, StationarityParams, delta_T, stationarity_rhs


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
    noise_sigma^2.  Build it with ``make_quadratic_problem``.
    """

    curvature: np.ndarray
    client_optima: np.ndarray
    init: np.ndarray
    gap: GapParams
    step_size: float
    noise_sigma: float
    bias_magnitude: float
    seed: int

    @property
    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.curvature).max())

    @property
    def mean_optimum(self) -> np.ndarray:
        return self.client_optima.mean(axis=0)

    @property
    def deviations(self) -> np.ndarray:
        """Per-client gradient deviations A*(mean_opt - opt_i), one per row."""
        return (self.mean_optimum[None, :] - self.client_optima) @ self.curvature.T

    @property
    def heterogeneity(self) -> float:
        return float((self.deviations**2).sum(axis=1).mean())

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
    """Validated SyntheticProblem; identity curvature unless given.

    bias_magnitude may not exceed half the gap bound.
    """
    opts = np.asarray(client_optima, dtype=np.float64)
    if opts.ndim != 2 or opts.shape[0] < 1:
        raise ValueError(f"client_optima must be (K, dim), got {opts.shape}")
    a = np.eye(opts.shape[1]) if curvature is None else np.asarray(curvature, dtype=np.float64)
    x0 = np.asarray(init, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"curvature must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("curvature must be symmetric")
    if float(np.linalg.eigvalsh(a).min()) < -1e-9:
        raise ValueError("curvature must be positive semidefinite")
    dim = a.shape[0]
    if opts.shape[1] != dim:
        raise ValueError(f"client_optima must be (K, {dim}), got {opts.shape}")
    if x0.shape != (dim,):
        raise ValueError(f"init must have shape ({dim},), got {x0.shape}")
    if gap.param_dim != dim:
        raise ValueError(f"gap.param_dim {gap.param_dim} must match problem dimension {dim}")
    if step_size <= 0.0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    cap = delta_T(gap) / 2.0
    if bias_magnitude < 0.0 or bias_magnitude > cap + 1e-12:
        raise ValueError(f"bias_magnitude must lie in [0, gap/2] = [0, {cap}], got {bias_magnitude}")
    return SyntheticProblem(a, opts, x0, gap, step_size, noise_sigma, bias_magnitude, seed)


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
    deviations = problem.deviations
    k, dim = problem.client_optima.shape
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
        sampling_noise = 0.5 * deviations[int(rng.integers(k))]
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
    lhs_values = tuple(
        _run_biased_sgd(problem, np.random.default_rng([problem.seed, run])) for run in range(runs)
    )
    violations = sum(1 for lhs in lhs_values if lhs > bound.total)
    return BoundCheckReport(per_run_lhs=lhs_values, bound=bound, violations=violations)


@dataclass(frozen=True)
class VarianceCheckReport:
    """Monte-Carlo estimate of sampled-gradient variance vs its bound."""

    empirical: float
    bound: float
    std_error: float

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

    rng = np.random.default_rng(seed)
    picks = rng.integers(k, size=samples)
    noise = rng.normal(0.0, math.sqrt(noise_var / dim), size=(samples, dim))
    squared = ((grads[picks] + noise - mean_grad[None, :]) ** 2).sum(axis=1)
    return VarianceCheckReport(
        empirical=float(squared.mean()),
        bound=noise_var + spread,
        std_error=float(squared.std(ddof=1) / math.sqrt(samples)),
    )


def _distributions(mu: Sequence[float], nu: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both as probability vectors over one support, or ValueError."""
    pair = []
    for values, name in ((mu, "mu"), (nu, "nu")):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{name} must be a non-empty probability vector")
        if np.any(arr < 0.0):
            raise ValueError(f"{name} has negative entries")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {float(arr.sum())}, not 1")
        pair.append(arr)
    if pair[0].shape != pair[1].shape:
        raise ValueError("distributions must share a support size")
    return pair[0], pair[1]


def total_variation(mu: Sequence[float], nu: Sequence[float]) -> float:
    """Total variation distance between two finite distributions."""
    p, q = _distributions(mu, nu)
    return 0.5 * float(np.abs(p - q).sum())


def kl_divergence(mu: Sequence[float], nu: Sequence[float]) -> float:
    """KL(mu || nu) in nats; infinite when nu misses mass mu has."""
    p, q = _distributions(mu, nu)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += float(pi) * math.log(float(pi) / float(qi))
    return total


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
    for mu, nu in pairs:
        p, q = _distributions(mu, nu)
        tv = total_variation(p, q)
        kl = kl_divergence(p, q)
        pinsker_rhs = math.sqrt(kl / 2.0) if math.isfinite(kl) else math.inf
        if tv > pinsker_rhs + 1e-12:
            pinsker_violations += 1
        if math.isfinite(pinsker_rhs):
            max_pinsker_slack = max(max_pinsker_slack, tv - pinsker_rhs)
        for _ in range(functions_per_pair):
            h = rng.uniform(-1.0, 1.0, size=(p.size, 3))
            h = h * (bound / float(np.linalg.norm(h, axis=1).max()))
            shift = float(np.linalg.norm(q @ h - p @ h))
            limit = 2.0 * bound * tv
            if shift > limit + 1e-12:
                shift_violations += 1
            min_shift_slack = min(min_shift_slack, limit - shift)
    return DivergenceCheckReport(
        instances=len(pairs),
        pinsker_violations=pinsker_violations,
        shift_violations=shift_violations,
        max_pinsker_slack=max_pinsker_slack,
        min_shift_slack=min_shift_slack,
    )


def random_distribution_pairs(count: int, support: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded random distribution pairs for the divergence checks.

    Every fifth pair zeroes one coordinate (of mu only, so KL stays
    finite) to exercise boundary handling.
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
        if i % 5 == 0:
            p = p.copy()
            p[int(rng.integers(support))] = 0.0
            p = p / p.sum()
        pairs.append((p, q))
    return pairs
