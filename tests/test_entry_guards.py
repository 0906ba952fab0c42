"""Library entry points reject nan, inf where infinity means nothing, and
values outside an argument's domain.

The config layer rejects non-finite values before a run; these guards are
the same rule for a library caller, who would otherwise get a nan budget,
smoothness, objective or bound back instead of an error naming the argument.
"""

import math
import re

import numpy as np
import pytest

from smoothbench import (
    Dataset,
    FunctionClassSpec,
    entropy_setup,
    euclidean_setup,
    hard_gaussian,
    lambda_for,
    lipschitz_excess_bound,
    make_smooth_ramp,
    make_squared,
    margin_bound,
    margin_empirical_error,
    regime_generator,
    regret_bound,
    run_mirror_descent_batch,
    separable_synthetic,
    smooth_risk_bound,
    solve_regularized_erm,
    stepsize_for,
)

NAN, INF = math.nan, math.inf


def _solve(lam):
    data = Dataset(ys=np.array([1.0, -1.0]), xs=np.eye(2))
    return solve_regularized_erm(euclidean_setup(2, 1.0), make_squared(), data, lam)


def _smooth(**kw):
    args = dict(empirical_loss=0.1, smoothness_H=1.0, range_b=1.0, rademacher=0.01, n=100)
    return smooth_risk_bound(**{**args, **kw})


def _margin(**kw):
    args = dict(empirical_loss=0.1, range_b=1.0, rademacher=0.01, n=100, margin=0.5)
    return margin_bound(**{**args, **kw})


def _play(eta):
    ys, xs = np.ones((2, 3)), np.full((2, 3, 2), 0.5)
    return run_mirror_descent_batch(euclidean_setup(2, 1.0), make_squared(), ys, eta, xs=xs)


CASES = {
    "Dataset dense ys nan": (
        lambda: Dataset(ys=np.array([1.0, NAN]), xs=np.eye(2)), "ys entries must be finite"),
    "Dataset dense xs inf": (
        lambda: Dataset(ys=np.ones(2), xs=np.array([[1.0, INF], [0.0, 1.0]])),
        "xs entries must be finite"),
    "Dataset basis ys inf": (
        lambda: Dataset(ys=np.array([INF, 1.0]), basis_idx=np.array([0, 1]), dim=2),
        "ys entries must be finite"),
    "euclidean_setup budget nan": (lambda: euclidean_setup(5, NAN), "budget > 0"),
    "euclidean_setup budget inf": (lambda: euclidean_setup(5, INF), "budget > 0"),
    "entropy_setup budget nan": (lambda: entropy_setup(5, NAN), "budget >= 1"),
    "entropy_setup budget inf": (lambda: entropy_setup(5, INF), "budget >= 1"),
    # finite budgets whose F_max = B^2 (or the entropy supremum) leaves (0, inf)
    "euclidean_setup budget 1e200": (
        lambda: euclidean_setup(5, 1e200), r"0 < B\^2 < inf, got dim 5, budget 1e\+200"),
    "euclidean_setup budget 1e-200": (
        lambda: euclidean_setup(5, 1e-200), r"0 < B\^2 < inf, got dim 5, budget 1e-200"),
    "entropy_setup budget 1e200": (
        lambda: entropy_setup(5, 1e200), r"finite F_max, got inf at budget 1e\+200"),
    "regime_generator x_scale nan": (lambda: regime_generator(5, NAN, 0.1, 1), "x_scale > 0"),
    "regime_generator sigma nan": (lambda: regime_generator(5, 1.0, NAN, 1), "sigma >= 0"),
    "make_smooth_ramp gamma nan": (lambda: make_smooth_ramp(NAN), "gamma must be positive"),
    "make_smooth_ramp gamma inf": (lambda: make_smooth_ramp(INF), "gamma must be positive"),
    "hard_gaussian sigma inf": (lambda: hard_gaussian(16, INF, 1), "sigma must be nonnegative"),
    # finite values whose square, step, lambda or dimension is no float or array size
    "hard_gaussian sigma 1e300": (
        lambda: hard_gaussian(16, 1e300, 1), r"finite square, got 1e\+300"),
    "hard_gaussian sigma 1e-150": (
        lambda: hard_gaussian(16, 1e-150, 1), "sigma 1e-150 gives dim .* beyond the largest"),
    "regime_generator x_scale 1e200": (
        lambda: regime_generator(5, 1e200, 0.1, 1), r"0 < x_scale\^2 < inf"),
    "regime_generator x_scale 1e-200": (
        lambda: regime_generator(5, 1e-200, 0.1, 1), r"0 < x_scale\^2 < inf"),
    "regime_generator sigma 1e200": (
        lambda: regime_generator(5, 1.0, 1e200, 1), r"sigma\^2 < inf"),
    "stepsize_for H F 1e300": (
        lambda: stepsize_for(1.0, 1e300, 10, 0.0), r"step size 0 at .* outside \(0, inf\)"),
    "stepsize_for H F 1e-310": (
        lambda: stepsize_for(1.0, 1e-310, 10, 0.0), "step size inf"),
    "stepsize_for H F underflows": (
        lambda: stepsize_for(1e-200, 1e-200, 10, 0.0), "step size inf"),
    "lambda_for F 1e-320": (lambda: lambda_for(2.0, 1e-320, 64, 0.01), "lambda inf"),
    "margin_bound margin 1e-200": (
        lambda: _margin(margin=1e-200), "margin must be positive with a positive square"),
    "stepsize_for lbar nan": (lambda: stepsize_for(1.0, 1.0, 10, NAN), "lbar"),
    "lambda_for lbar nan": (lambda: lambda_for(1.0, 1.0, 10, NAN), "lbar"),
    "regret_bound H nan": (lambda: regret_bound(NAN, 1.0, 10, 0.1), "smoothness"),
    "regret_bound F inf": (lambda: regret_bound(1.0, INF, 10, 0.1), "smoothness"),
    "FunctionClassSpec budget nan": (
        lambda: FunctionClassSpec("linear_l2_ball", NAN), "budget must be positive"),
    "FunctionClassSpec budget inf": (
        lambda: FunctionClassSpec("linear_l2_ball", INF), "budget must be positive"),
    "margin_bound margin nan": (
        lambda: margin_bound(0.1, 1.0, 0.01, 100, margin=NAN), "margin must be positive"),
    "smooth_risk_bound smoothness_H nan": (lambda: _smooth(smoothness_H=NAN), "smoothness_H"),
    "smooth_risk_bound rademacher nan": (lambda: _smooth(rademacher=NAN), "rademacher"),
    "smooth_risk_bound rademacher negative": (lambda: _smooth(rademacher=-0.01), "rademacher"),
    "smooth_risk_bound bound_K nan": (lambda: _smooth(bound_K=NAN), "bound_K"),
    "smooth_risk_bound empirical_loss negative": (
        lambda: _smooth(empirical_loss=-0.1), "empirical_loss"),
    "lipschitz_excess_bound l_star nan": (
        lambda: lipschitz_excess_bound(NAN, 1.0, 0.01), "l_star"),
    "lipschitz_excess_bound lipschitz_D nan": (
        lambda: lipschitz_excess_bound(0.1, NAN, 0.01), "lipschitz_D"),
    "lipschitz_excess_bound rademacher nan": (
        lambda: lipschitz_excess_bound(0.1, 1.0, NAN), "rademacher"),
    "lipschitz_excess_bound rademacher negative": (
        lambda: lipschitz_excess_bound(0.1, 1.0, -0.5), "rademacher"),
    "margin_bound range_b nan": (lambda: _margin(range_b=NAN), "range_b"),
    "margin_bound bound_K negative": (lambda: _margin(bound_K=-1.0), "bound_K"),
    "margin_bound n zero": (lambda: _margin(n=0), "n must be >= 1"),
    "margin_empirical_error gamma nan": (
        lambda: margin_empirical_error([0.5], [1.0], NAN), "gamma"),
    "solve_regularized_erm lam nan": (lambda: _solve(NAN), "lambda must be positive"),
    "solve_regularized_erm lam inf": (lambda: _solve(INF), "lambda must be positive"),
    "run_mirror_descent_batch eta inf": (lambda: _play(INF), "step sizes must be positive"),
    "run_mirror_descent_batch one eta inf": (
        lambda: _play(np.array([0.1, INF])), "step sizes must be positive"),
    # a dim that is no integer >= 1, named before numpy meets it
    **{f"{name} dim {dim}": (lambda make=make, dim=dim: make(dim),
                             rf"dim must be an integer >= 1, got {re.escape(repr(dim))}")
       for name, make in [("separable_synthetic", lambda dim: separable_synthetic(dim, 1)),
                          ("hard_gaussian", lambda dim: hard_gaussian(64, 0.1, 1, dim=dim))]
       for dim in (0, -1, 2.5, 1.0)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejects_non_finite_values(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()
