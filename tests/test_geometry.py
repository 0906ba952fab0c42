import math

import numpy as np
import pytest

from smoothbench import (
    ball_radius,
    bregman_divergence,
    default_start,
    dual_norm,
    entropy_setup,
    euclidean_setup,
    is_feasible,
    mirror_step,
    primal_norm,
    probe_strong_convexity,
    regularizer_grad,
    regularizer_value,
)
from smoothbench.geometry import random_feasible


def md_objective_reference(setup, w, g, eta, iters=60_000, step=1e-3):
    """Independent numeric minimizer of the mirror-descent objective
    <eta g - grad F(w), u> + F(u) over the constraint set, by projected
    subgradient descent with averaging (no reuse of mirror_step's algebra).
    """
    c = eta * np.asarray(g) - regularizer_grad(setup, w)

    def project(u):
        if setup.geometry == "euclidean":
            r = np.linalg.norm(u)
            radius = ball_radius(setup)
            return u if r <= radius else u * (radius / r)
        u = np.maximum(u, 0.0)
        s = u.sum()
        return u if s <= setup.budget else u * (setup.budget / s)

    u = project(np.asarray(w, dtype=float).copy())
    best, best_val = u.copy(), math.inf
    for k in range(iters):
        if setup.geometry == "euclidean":
            grad = c + u
        else:
            grad = c + setup.budget * (np.log(setup.dim * np.maximum(u, 1e-300)) + 1.0)
        u = project(u - step * grad)
        if k % 100 == 0 or k == iters - 1:
            val = float(c @ u) + regularizer_value(setup, u)
            if val < best_val:
                best, best_val = u.copy(), val
    return best


class TestSetups:
    def test_euclidean_f_max(self):
        setup = euclidean_setup(3, 2.0)
        assert setup.f_max == 4.0
        assert ball_radius(setup) == pytest.approx(2 * math.sqrt(2))

    def test_entropy_f_max_exact_supremum(self):
        setup = entropy_setup(8, 2.0)
        assert setup.f_max == pytest.approx(4 * math.log(16) + 4 / math.e, rel=1e-15)
        # attained at a single-coordinate vertex, never exceeded elsewhere
        vertex = np.zeros(8)
        vertex[3] = 2.0
        assert regularizer_value(setup, vertex) == pytest.approx(setup.f_max, rel=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(500):
            w = random_feasible(setup, rng)
            assert regularizer_value(setup, w) <= setup.f_max + 1e-12

    def test_entropy_requires_budget_at_least_one(self):
        with pytest.raises(ValueError):
            entropy_setup(4, 0.5)

    def test_entropy_nonnegative_on_set(self):
        setup = entropy_setup(6, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(500):
            w = random_feasible(setup, rng)
            assert regularizer_value(setup, w) >= -1e-12


class TestRegularizerValue:
    def test_euclidean(self):
        setup = euclidean_setup(2, 5.0)
        assert regularizer_value(setup, np.array([3.0, 4.0])) == 12.5

    def test_entropy_hand_values(self):
        setup = entropy_setup(2, 1.0)
        assert regularizer_value(setup, np.array([0.5, 0.5])) == pytest.approx(
            1 / math.e, rel=1e-15
        )
        assert regularizer_value(setup, np.array([1.0, 0.0])) == pytest.approx(
            math.log(2) + 1 / math.e, rel=1e-15
        )

    def test_errors(self):
        setup = entropy_setup(2, 1.0)
        with pytest.raises(ValueError, match="negative coordinate"):
            regularizer_value(setup, np.array([-0.1, 0.5]))
        with pytest.raises(ValueError, match="infeasible"):
            regularizer_value(setup, np.array([0.8, 0.8]))
        eu = euclidean_setup(2, 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            regularizer_value(eu, np.array([3.0, 4.0]))


class TestDualNorm:
    def test_values(self):
        eu = euclidean_setup(2, 5.0)
        en = entropy_setup(2, 1.0)
        assert dual_norm(eu, np.array([3.0, 4.0])) == 5.0
        assert dual_norm(en, np.array([3.0, -7.0])) == 7.0
        assert dual_norm(eu, np.zeros(2)) == 0.0
        assert dual_norm(en, np.zeros(2)) == 0.0


class TestMirrorStep:
    def test_euclidean_interior(self):
        setup = euclidean_setup(2, 1 / math.sqrt(2))  # radius 1
        out = mirror_step(setup, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
        assert np.allclose(out, [0.5, 0.0])

    def test_euclidean_radial_projection(self):
        setup = euclidean_setup(2, 1 / math.sqrt(2))
        out = mirror_step(setup, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_entropy_multiplicative(self):
        setup = entropy_setup(2, 1.0)
        out = mirror_step(
            setup, np.array([0.5, 0.5]), np.array([0.0, math.log(4)]), 1.0
        )
        assert np.allclose(out, [0.5, 0.125])

    def test_entropy_rescales_onto_face(self):
        setup = entropy_setup(2, 1.0)
        out = mirror_step(setup, np.array([0.5, 0.5]), np.array([-3.0, -3.0]), 1.0)
        assert np.sum(out) == pytest.approx(1.0, rel=1e-12)

    def test_errors(self):
        setup = euclidean_setup(2, 1.0)
        with pytest.raises(ValueError):
            mirror_step(setup, np.zeros(2), np.ones(2), 0.0)
        with pytest.raises(ValueError, match="infeasible"):
            mirror_step(setup, np.array([5.0, 5.0]), np.ones(2), 0.1)

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_output_always_feasible(self, geometry):
        setup = (
            euclidean_setup(5, 0.8) if geometry == "euclidean" else entropy_setup(5, 1.5)
        )
        rng = np.random.default_rng(23)
        for _ in range(300):
            w = random_feasible(setup, rng, positive=True)
            g = rng.standard_normal(5) * 10
            out = mirror_step(setup, w, g, float(rng.uniform(0.01, 5.0)))
            assert is_feasible(setup, out)

    def test_euclidean_matches_md_objective_reference(self):
        # two code paths: the closed-form projected step vs a numeric
        # minimizer of the mirror-descent objective
        setup = euclidean_setup(3, 0.9)
        rng = np.random.default_rng(29)
        for _ in range(25):
            w = random_feasible(setup, rng)
            g = rng.standard_normal(3)
            eta = float(rng.uniform(0.05, 1.5))
            fast = mirror_step(setup, w, g, eta)
            slow = md_objective_reference(setup, w, g, eta)
            assert np.allclose(fast, slow, atol=5e-3)
            # the reference objective at the closed form is no worse
            c = eta * g - regularizer_grad(setup, w)
            val_fast = float(c @ fast) + regularizer_value(setup, fast)
            val_slow = float(c @ slow) + regularizer_value(setup, slow)
            assert val_fast <= val_slow + 1e-9

    def test_euclidean_matches_kkt_bisection_path(self):
        # independent derivation of the same step: stationarity of the
        # mirror objective gives u = (w - eta g)/(1 + mu) with mu >= 0 the
        # ball multiplier, located by bisection instead of radial scaling
        setup = euclidean_setup(4, 0.8)
        radius = ball_radius(setup)
        rng = np.random.default_rng(53)
        for _ in range(1000):
            w = random_feasible(setup, rng)
            g = rng.standard_normal(4) * float(rng.uniform(0.1, 5.0))
            eta = float(rng.uniform(0.01, 3.0))
            v = w - eta * g
            if np.linalg.norm(v) <= radius:
                reference = v
            else:
                lo, hi = 0.0, 1.0
                while np.linalg.norm(v) / (1 + hi) > radius:
                    hi *= 2.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if np.linalg.norm(v) / (1 + mid) > radius:
                        lo = mid
                    else:
                        hi = mid
                reference = v / (1 + hi)
            fast = mirror_step(setup, w, g, eta)
            assert float(np.max(np.abs(fast - reference))) <= 1e-12

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_first_order_optimality(self, geometry):
        # <eta g - grad F(w) + grad F(w+), wbar - w+> >= 0 for all feasible wbar
        setup = (
            euclidean_setup(4, 0.7) if geometry == "euclidean" else entropy_setup(4, 1.2)
        )
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = random_feasible(setup, rng, positive=True)
            g = rng.standard_normal(4)
            eta = float(rng.uniform(0.05, 2.0))
            w_plus = mirror_step(setup, w, g, eta)
            if geometry == "entropy" and np.any(w_plus <= 0):
                continue  # grad F undefined; optimality checked via feasible dirs only
            vec = eta * g - regularizer_grad(setup, w) + regularizer_grad(setup, w_plus)
            for _ in range(100):
                wbar = random_feasible(setup, rng)
                assert float(vec @ (wbar - w_plus)) >= -1e-8


class TestBregman:
    def test_zero_at_equal_points(self):
        setup = entropy_setup(3, 1.0)
        w = np.array([0.2, 0.3, 0.1])
        assert bregman_divergence(setup, w, w) == pytest.approx(0.0, abs=1e-15)

    def test_euclidean_is_half_squared_distance(self):
        setup = euclidean_setup(2, 5.0)
        assert bregman_divergence(setup, np.array([1.0, 0.0]), np.zeros(2)) == 0.5
        rng = np.random.default_rng(37)
        for _ in range(100):
            w = random_feasible(setup, rng)
            wp = random_feasible(setup, rng)
            d = w - wp
            assert bregman_divergence(setup, w, wp) == pytest.approx(
                0.5 * float(d @ d), rel=1e-12
            )

    def test_entropy_hand_value(self):
        setup = entropy_setup(2, 1.0)
        val = bregman_divergence(setup, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(math.log(2), rel=1e-12)

    def test_infeasible_points_raise(self):
        eu = euclidean_setup(2, 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            bregman_divergence(eu, np.array([3.0, 4.0]), np.zeros(2))
        with pytest.raises(ValueError, match="infeasible"):
            bregman_divergence(eu, np.zeros(2), np.array([3.0, 4.0]))
        ent = entropy_setup(2, 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            bregman_divergence(ent, np.array([0.8, 0.8]), np.array([0.5, 0.5]))

    def test_entropy_boundary_error(self):
        setup = entropy_setup(2, 1.0)
        with pytest.raises(ValueError, match="boundary"):
            bregman_divergence(setup, np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_dominates_half_squared_primal_distance(self, geometry):
        setup = (
            euclidean_setup(6, 1.1) if geometry == "euclidean" else entropy_setup(6, 1.3)
        )
        rng = np.random.default_rng(41)
        for _ in range(500):
            w = random_feasible(setup, rng, positive=True)
            wp = random_feasible(setup, rng, positive=True)
            dist = primal_norm(setup, w - wp)
            assert bregman_divergence(setup, w, wp) >= 0.5 * dist * dist - 1e-9


class TestStrongConvexity:
    def test_euclidean_slack_is_identically_zero(self):
        assert probe_strong_convexity(euclidean_setup(4, 1.0), 200, seed=43) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_entropy_slack_nonnegative(self):
        assert probe_strong_convexity(entropy_setup(8, 1.0), 10_000, seed=47) >= -1e-9

    def test_entropy_hand_slack(self):
        setup = entropy_setup(2, 1.0)
        slack = bregman_divergence(
            setup, np.array([1.0, 0.0]), np.array([0.5, 0.5])
        ) - 0.5 * 1.0**2
        assert slack == pytest.approx(math.log(2) - 0.5, rel=1e-12)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            probe_strong_convexity(euclidean_setup(2, 1.0), 0, seed=1)


def test_default_starts():
    assert np.all(default_start(euclidean_setup(3, 1.0)) == 0.0)
    en = default_start(entropy_setup(4, 2.0))
    assert np.allclose(en, 0.5)
    assert is_feasible(entropy_setup(4, 2.0), en)
