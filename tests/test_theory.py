import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bound_harness import (
    client_variance_check,
    empirical_bound_check,
    kl_divergence,
    make_quadratic_problem,
    random_distribution_pairs,
    total_variation,
    tv_pinsker_check,
)
from oracles import mp_delta, mp_stationarity
from semfed.theory import GapParams, StationarityParams, StepTooLargeError, delta_T, stationarity_rhs


def gap(**overrides):
    base = dict(
        grad_bound=1.0,
        kl_shift=0.5,
        label_noise=0.1,
        public_batch=64,
        param_dim=4,
        total_steps=100,
        confidence=0.05,
    )
    base.update(overrides)
    return GapParams(**base)


# ------------------------------------------------------------ delta_T


def test_zero_gradient_bound_gives_zero_gap():
    assert delta_T(gap(grad_bound=0.0)) == 0.0


def test_gap_vanishes_with_huge_public_batch():
    params = gap(
        kl_shift=0.0, label_noise=0.0, public_batch=10**9, param_dim=1,
        total_steps=1, confidence=0.5,
    )
    assert 0.0 < delta_T(params) < 1e-3


def test_gap_golden_value_matches_high_precision_oracle():
    value = delta_T(gap())
    want = float(mp_delta(1.0, 0.5, 0.1, 64, 4, 100, 0.05))
    assert math.isclose(value, want, rel_tol=1e-12)
    # frozen from the high-precision evaluation
    assert math.isclose(value, 3.9140192786565121629, rel_tol=1e-15)


@given(
    steps=st.integers(1, 10**6),
    factor=st.integers(2, 100),
    dim=st.integers(1, 512),
    batch=st.integers(1, 10**6),
)
def test_gap_monotonicity(steps, factor, dim, batch):
    base = gap(total_steps=steps, param_dim=dim, public_batch=batch)
    assert delta_T(gap(total_steps=steps * factor, param_dim=dim, public_batch=batch)) >= delta_T(base)
    assert delta_T(gap(total_steps=steps, param_dim=dim + 1, public_batch=batch)) >= delta_T(base)
    assert delta_T(gap(total_steps=steps, param_dim=dim, public_batch=batch * factor)) <= delta_T(base)


def test_gap_params_validation():
    with pytest.raises(ValueError):
        gap(confidence=0.0)
    with pytest.raises(ValueError):
        gap(confidence=1.0)
    with pytest.raises(ValueError):
        gap(label_noise=1.5)
    with pytest.raises(ValueError):
        gap(public_batch=0)
    with pytest.raises(ValueError):
        gap(grad_bound=-1.0)


# ------------------------------------------------------- stationarity


def stationarity(**overrides):
    base = dict(
        gap=gap(),
        smoothness=2.0,
        step_size=0.1,
        noise_var=0.5,
        heterogeneity=1.0,
        init_gap=3.0,
    )
    base.update(overrides)
    return StationarityParams(**base)


def test_stationarity_zeroes_give_zero_total():
    params = stationarity(
        gap=gap(grad_bound=0.0), noise_var=0.0, heterogeneity=0.0, init_gap=0.0
    )
    bound = stationarity_rhs(params)
    assert bound.total == 0.0


def test_stationarity_total_is_sum_of_parts():
    bound = stationarity_rhs(stationarity())
    assert bound.total == bound.descent_term + bound.noise_term + bound.bias_term


def test_stationarity_matches_high_precision_oracle():
    bound = stationarity_rhs(stationarity())
    want = float(
        mp_stationarity(1.0, 0.5, 0.1, 64, 4, 100, 0.05, 2.0, 0.1, 0.5, 1.0, 3.0)
    )
    assert math.isclose(bound.total, want, rel_tol=1e-12)


def test_doubling_steps_halves_descent_term_only():
    short = stationarity_rhs(stationarity())
    long = stationarity_rhs(stationarity(gap=gap(total_steps=200)))
    assert math.isclose(long.descent_term, short.descent_term / 2.0, rel_tol=1e-15)
    assert long.noise_term == short.noise_term
    # the bias term grows slightly through the union bound over steps
    assert long.bias_term >= short.bias_term


def test_step_size_cap_enforced():
    with pytest.raises(StepTooLargeError):
        stationarity_rhs(stationarity(smoothness=1.0, step_size=0.3))
    # exactly at the cap is allowed
    stationarity_rhs(stationarity(smoothness=1.0, step_size=0.25))


# ------------------------------------------------------------ harness


def quad_gap():
    return gap(
        grad_bound=1.0, kl_shift=0.02, label_noise=0.05, public_batch=256,
        param_dim=2, total_steps=500, confidence=0.05,
    )


def cross_problem(bias=None, sigma=0.1, step=1.0 / 8.0, seed=42):
    g = quad_gap()
    cap = delta_T(g) / 2.0
    return make_quadratic_problem(
        client_optima=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        init=[2.0, 1.0],
        gap=g,
        step_size=step,
        noise_sigma=sigma,
        bias_magnitude=cap if bias is None else bias,
        seed=seed,
    )


def test_quadratic_problem_derived_quantities():
    problem = cross_problem()
    assert problem.smoothness == 1.0
    # optima at the four unit points, mean at the origin, identity
    # curvature: heterogeneity is the mean squared optimum norm
    assert math.isclose(problem.heterogeneity, 1.0, rel_tol=1e-12)
    assert np.allclose(problem.mean_optimum, [0.0, 0.0])
    # objective gap at (2, 1): 0.5 * (|x|^2 + mean |opt|^2) = 0.5 * (5 + 1) - 0.5
    assert math.isclose(problem.init_gap, 2.5, rel_tol=1e-12)
    assert np.allclose(problem.gradient(np.array([2.0, 1.0])), [2.0, 1.0])


def test_noiseless_run_from_optimum_stays_at_zero():
    g = gap(grad_bound=0.0, total_steps=50, param_dim=2)
    problem = make_quadratic_problem(
        client_optima=[[0.0, 0.0], [0.0, 0.0]],
        init=[0.0, 0.0],
        gap=g,
        step_size=0.1,
        noise_sigma=0.0,
        bias_magnitude=0.0,
        seed=1,
    )
    report = empirical_bound_check(problem, runs=3)
    assert report.per_run_lhs == (0.0, 0.0, 0.0)
    assert report.all_hold


def test_bound_holds_across_seeds():
    report = empirical_bound_check(cross_problem(), runs=20)
    assert report.violations == 0
    assert report.mean_lhs <= report.bound.total


def test_bound_check_is_reproducible():
    a = empirical_bound_check(cross_problem(), runs=5)
    b = empirical_bound_check(cross_problem(), runs=5)
    assert a.per_run_lhs == b.per_run_lhs


def test_too_large_step_rejected_not_reported_as_violation():
    with pytest.raises(StepTooLargeError):
        empirical_bound_check(cross_problem(step=0.3), runs=2)


def test_bias_above_cap_rejected_at_construction():
    g = quad_gap()
    with pytest.raises(ValueError, match="bias_magnitude"):
        cross_problem(bias=delta_T(g) / 2.0 + 0.01)


def test_problem_validation():
    g = gap(param_dim=2)
    with pytest.raises(ValueError, match="param_dim"):
        make_quadratic_problem(
            client_optima=[[1.0, 0.0, 0.0]], init=[0.0, 0.0, 0.0],
            gap=g, step_size=0.1, noise_sigma=0.0, bias_magnitude=0.0, seed=0,
        )
    with pytest.raises(ValueError, match="symmetric"):
        make_quadratic_problem(
            client_optima=[[1.0, 0.0]], init=[0.0, 0.0], gap=g,
            step_size=0.1, noise_sigma=0.0, bias_magnitude=0.0, seed=0,
            curvature=[[1.0, 0.5], [0.0, 1.0]],
        )


# ---------------------------------------------------- client variance


def test_identical_gradients_zero_noise_has_zero_error():
    report = client_variance_check([[1.0, 2.0]] * 4, noise_var=0.0, samples=10, seed=0)
    assert report.empirical == 0.0
    assert report.bound == 0.0
    assert report.holds_within_3se


def test_two_point_gradients_are_exact():
    report = client_variance_check(
        [[1.0, 0.0], [-1.0, 0.0]], noise_var=0.0, samples=100, seed=0
    )
    # every draw errs by exactly 1 in squared norm
    assert report.empirical == 1.0
    assert report.bound == 1.0
    assert report.std_error == 0.0
    assert report.holds_within_3se


def test_variance_bound_holds_with_noise():
    rng = np.random.default_rng(5)
    grads = rng.normal(size=(5, 8))
    report = client_variance_check(grads, noise_var=0.3, samples=40_000, seed=7)
    assert report.holds_within_3se
    # the bound is tight here, so the estimate cannot sit far below it
    assert report.empirical >= report.bound - 5 * report.std_error


# ------------------------------------------------------- divergences


def test_tv_and_kl_two_point_closed_form():
    mu = [1.0, 0.0]
    nu = [0.5, 0.5]
    assert total_variation(mu, nu) == 0.5
    assert math.isclose(kl_divergence(mu, nu), math.log(2.0), rel_tol=1e-12)
    # Pinsker: 0.5 <= sqrt(log(2)/2) ~ 0.5887
    assert 0.5 <= math.sqrt(kl_divergence(mu, nu) / 2.0)


def test_kl_infinite_when_support_escapes():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_identical_distributions_have_zero_divergences():
    mu = [0.2, 0.3, 0.5]
    assert total_variation(mu, mu) == 0.0
    assert kl_divergence(mu, mu) == 0.0


def test_distribution_validation():
    with pytest.raises(ValueError, match="sums"):
        total_variation([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        kl_divergence([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError, match="support"):
        total_variation([0.5, 0.5], [0.2, 0.3, 0.5])


def test_pinsker_and_shift_hold_on_random_pairs():
    pairs = random_distribution_pairs(200, support=5, seed=3)
    report = tv_pinsker_check(pairs, bound=2.0, functions_per_pair=3, seed=9)
    assert report.instances == 200
    assert report.all_hold
    assert report.max_pinsker_slack <= 0.0
    assert report.min_shift_slack >= 0.0
