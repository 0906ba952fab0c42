"""Library entry points reject nan, and inf where infinity means nothing.

The config layer rejects non-finite values before a run; these guards are
the same rule for a library caller, who would otherwise get a nan budget,
smoothness or objective back instead of an error.
"""

import math

import numpy as np
import pytest

from smoothbench import (
    Dataset,
    FunctionClassSpec,
    entropy_setup,
    euclidean_setup,
    hard_gaussian,
    lambda_for,
    make_smooth_ramp,
    make_squared,
    margin_bound,
    regime_generator,
    regret_bound,
    run_mirror_descent_batch,
    solve_regularized_erm,
    stepsize_for,
)

NAN, INF = math.nan, math.inf


def _solve(lam):
    data = Dataset(ys=np.array([1.0, -1.0]), xs=np.eye(2))
    return solve_regularized_erm(euclidean_setup(2, 1.0), make_squared(), data, lam)


def _play(eta):
    ys, xs = np.ones((2, 3)), np.full((2, 3, 2), 0.5)
    return run_mirror_descent_batch(euclidean_setup(2, 1.0), make_squared(), ys, eta, xs=xs)


CASES = {
    "euclidean_setup budget nan": (lambda: euclidean_setup(5, NAN), "budget > 0"),
    "euclidean_setup budget inf": (lambda: euclidean_setup(5, INF), "budget > 0"),
    "entropy_setup budget nan": (lambda: entropy_setup(5, NAN), "budget >= 1"),
    "entropy_setup budget inf": (lambda: entropy_setup(5, INF), "budget >= 1"),
    "regime_generator x_scale nan": (lambda: regime_generator(5, NAN, 0.1, 1), "x_scale > 0"),
    "regime_generator sigma nan": (lambda: regime_generator(5, 1.0, NAN, 1), "sigma >= 0"),
    "make_smooth_ramp gamma nan": (lambda: make_smooth_ramp(NAN), "gamma must be positive"),
    "make_smooth_ramp gamma inf": (lambda: make_smooth_ramp(INF), "gamma must be positive"),
    "hard_gaussian sigma inf": (lambda: hard_gaussian(16, INF, 1), "sigma must be nonnegative"),
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
    "solve_regularized_erm lam nan": (lambda: _solve(NAN), "lambda must be positive"),
    "solve_regularized_erm lam inf": (lambda: _solve(INF), "lambda must be positive"),
    "run_mirror_descent_batch eta inf": (lambda: _play(INF), "step sizes must be positive"),
    "run_mirror_descent_batch one eta inf": (
        lambda: _play(np.array([0.1, INF])), "step sizes must be positive"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejects_non_finite_values(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()
