import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench import (
    FunctionClassSpec,
    empirical_rademacher,
    lipschitz_excess_bound,
    margin_bound,
    margin_empirical_error,
    smooth_risk_bound,
)
from smoothbench.bounds import _sign_blocks, regime_envelope
from references import enumerated_norm_means, margin_reference, smooth_risk_reference


def rademacher_bruteforce(cls, xs):
    """Literal enumeration oracle, written against the definition: for every
    sign vector, maximize |sum_i s_i <w, x_i>| / n over the ball by evaluating
    the linear functional at its argmax (norm duality applied by hand)."""
    n, d = xs.shape
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        v = sum(s * x for s, x in zip(signs, xs))
        if cls.kind == "linear_l2_ball":
            nv = float(np.linalg.norm(v))
            w = cls.budget * v / nv if nv > 0 else np.zeros(d)
        else:
            w = np.zeros(d)
            j = int(np.argmax(np.abs(v)))
            w[j] = cls.budget * math.copysign(1.0, v[j]) if v[j] != 0 else 0.0
        total += abs(float(v @ w)) / n
    return total / 2**n


class TestEmpiricalRademacher:
    def test_hand_values(self):
        cls = FunctionClassSpec("linear_l2_ball", 1.0)
        # one row: every sign vector scores |x| = 1, so the estimate is exact
        one = empirical_rademacher(cls, np.array([[1.0]]), draws=2000, seed=1)
        assert (one.value, one.stderr) == (1.0, 0.0)
        # two equal rows: 1 on equal signs, 0 on opposite ones; mean 1/2
        two = empirical_rademacher(cls, np.array([[1.0], [1.0]]), draws=2000, seed=1)
        assert two.stderr == pytest.approx(0.5 / math.sqrt(2000), rel=0.01)
        assert abs(two.value - 0.5) <= 4 * two.stderr

    def test_budget_homogeneity(self):
        # the same seed draws the same signs, and a doubled budget doubles each value
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((6, 3))
        one = empirical_rademacher(FunctionClassSpec("linear_l2_ball", 1.0), xs, seed=2)
        two = empirical_rademacher(FunctionClassSpec("linear_l2_ball", 2.0), xs, seed=2)
        assert two.value == pytest.approx(2 * one.value, rel=1e-12)
        assert two.stderr == pytest.approx(2 * one.stderr, rel=1e-12)

    @pytest.mark.parametrize("kind", ["linear_l2_ball", "linear_l1_ball"])
    def test_exact_enumeration_matches_bruteforce(self, kind):
        # criterion 9's block enumeration of all 2^n signs against the literal one
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 8):
            xs = rng.standard_normal((n, 3))
            cls = FunctionClassSpec(kind, 1.3)
            mean = enumerated_norm_means(xs)[("linear_l2_ball", "linear_l1_ball").index(kind)]
            exact = cls.budget * mean / n
            assert exact == pytest.approx(rademacher_bruteforce(cls, xs), rel=1e-12)

    @pytest.mark.parametrize("kind", ["linear_l2_ball", "linear_l1_ball"])
    def test_monte_carlo_within_4_stderr_of_exact(self, kind):
        # the program's estimate against the literal enumeration of all 2^n signs
        rng = np.random.default_rng(5)
        for trial, n in enumerate((2, 5, 8, *rng.integers(4, 13, size=5))):
            xs = rng.standard_normal((int(n), 4))
            cls = FunctionClassSpec(kind, 1.3)
            est = empirical_rademacher(cls, xs, draws=4000, seed=100 + trial)
            assert est.draws == 4000 and est.stderr > 0
            assert abs(est.value - rademacher_bruteforce(cls, xs)) <= 4 * est.stderr

    def test_monte_carlo_path_reports_stderr(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((25, 3))
        cls = FunctionClassSpec("linear_l2_ball", 1.0)
        est = empirical_rademacher(cls, xs, draws=500, seed=8)
        assert est.stderr > 0 and est.draws == 500
        # one draw has no standard error, and no draw no estimate, at any n
        assert empirical_rademacher(cls, xs[:3], draws=1, seed=8).stderr == math.inf
        with pytest.raises(ValueError, match="draws >= 1"):
            empirical_rademacher(cls, xs[:3], draws=0, seed=8)

    @pytest.mark.parametrize("kind", ["linear_l2_ball", "linear_l1_ball"])
    @pytest.mark.parametrize("draws", [2000, 1000])  # last block 208 / 232 rows
    def test_monte_carlo_blocks_match_one_shot_draw(self, kind, draws):
        # the margin study's shape: n = 2048 unit rows in d = 10
        n, d, budget, seed = 2048, 10, 1.4, 11
        xs = np.random.default_rng(2).standard_normal((n, d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(draws, n))
        combos = signs @ xs
        norms = (
            np.linalg.norm(combos, axis=1)
            if kind == "linear_l2_ball"
            else np.max(np.abs(combos), axis=1)
        )
        vals = budget * norms / n
        est = empirical_rademacher(FunctionClassSpec(kind, budget), xs, draws=draws, seed=seed)
        assert est.value == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(draws))

    @pytest.mark.parametrize("draws", [1, 63, 64, 127, 128, 129, 2000])
    def test_sign_blocks_cover_every_draw_once(self, draws):
        blocks = _sign_blocks(draws)
        assert [r for start, stop in blocks for r in range(start, stop)] == list(range(draws))
        # 64-row blocks, the last one shorter and zero-padded (2000: 31 x 64 + 16)
        assert len(blocks) == -(-draws // 64)
        assert all(stop - start == 64 for start, stop in blocks[:-1])
        assert 1 <= blocks[-1][1] - blocks[-1][0] <= 64

    def test_monte_carlo_signs_are_held_one_block_at_a_time(self, traced_peak):
        # the margin study's shape; one (2000, 2048) sign matrix is 31 MiB,
        # the reused 64-row block 1 MiB, and a 16-row draw with its draw
        # indices 0.5 MiB
        xs = np.random.default_rng(2).standard_normal((2048, 10))
        cls = FunctionClassSpec("linear_l2_ball", 1.0)
        est, peak = traced_peak(empirical_rademacher, cls, xs, draws=2000, seed=3)
        assert est.draws == 2000
        assert peak <= 2 * 2**20

    def test_classical_norm_bound(self):
        # R-hat(l2 ball) <= B max||x|| / sqrt(n), which the estimate meets within 4 stderr
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            xs = rng.standard_normal((n, 3))
            cls = FunctionClassSpec("linear_l2_ball", 1.7)
            est = empirical_rademacher(cls, xs, seed=200 + trial)
            cap = 1.7 * float(np.max(np.linalg.norm(xs, axis=1))) / math.sqrt(n)
            assert est.value <= cap + 4 * est.stderr

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FunctionClassSpec("rbf", 1.0)


class TestRegimeEnvelope:
    def test_envelope_terms(self):
        env, term = regime_envelope(2, 50, 5.0, 0.5)
        assert env == pytest.approx(min(25.0, 25 / 2 + 5 * 0.5 / math.sqrt(2), 50 * 0.25 / 2))
        env_big, term_big = regime_envelope(10**6, 50, 5.0, 0.5)
        assert term_big == "asymptotic"
        assert env_big == pytest.approx(50 * 0.25 / 10**6, rel=1e-12)


class TestBoundFormulas:
    def test_lipschitz_hand_values(self):
        assert lipschitz_excess_bound(
            l_star=0.0, lipschitz_D=1.0, rademacher=0.1
        ) == pytest.approx(0.2, rel=1e-15)
        assert lipschitz_excess_bound(l_star=0.3, lipschitz_D=1.0, rademacher=0.0) == 0.3
        one = lipschitz_excess_bound(l_star=0.0, lipschitz_D=1.0, rademacher=0.05)
        two = lipschitz_excess_bound(l_star=0.0, lipschitz_D=2.0, rademacher=0.05)
        assert two == pytest.approx(2 * one, rel=1e-15)

    def test_smooth_risk_frozen_value(self):
        n = int(round(math.e**4))
        value = smooth_risk_bound(
            empirical_loss=0.25, smoothness_H=1.0, range_b=1.0,
            rademacher=0.01, n=n, delta=math.exp(-1), bound_K=1.0,
        )
        assert value == pytest.approx(
            smooth_risk_reference(0.25, 1.0, 1.0, 0.01, n, math.exp(-1), 1.0), rel=1e-15
        )

    def test_smooth_risk_bound_collapses(self):
        value = smooth_risk_bound(
            empirical_loss=0.0, smoothness_H=2.0, range_b=1.5,
            rademacher=0.02, n=100, delta=0.1, bound_K=3.0,
        )
        expected = 3.0 * (2.0 * math.log(100) ** 3 * 0.02**2 + 1.5 * math.log(10) / 100)
        assert value == pytest.approx(expected, rel=1e-14)
        # R_n = 0 and b -> 0: only the empirical term survives
        small_b = smooth_risk_bound(
            empirical_loss=0.25, smoothness_H=1.0, range_b=1e-300,
            rademacher=0.0, n=100, delta=0.5, bound_K=1e5,
        )
        assert small_b == pytest.approx(0.25, rel=1e-10)

    def test_dual_evaluation_at_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            args = dict(
                lhat=float(rng.uniform(0, 1)),
                H=float(rng.uniform(0.1, 10)),
                b=float(rng.uniform(0.1, 5)),
                r=float(rng.uniform(0, 0.5)),
                n=int(rng.integers(2, 10**6)),
                delta=float(rng.uniform(0.001, 0.999)),
                K=float(rng.uniform(1, 1e5)),
            )
            value = smooth_risk_bound(
                empirical_loss=args["lhat"], smoothness_H=args["H"], range_b=args["b"],
                rademacher=args["r"], n=args["n"], delta=args["delta"], bound_K=args["K"],
            )
            assert value == pytest.approx(smooth_risk_reference(**args), rel=1e-12)

    def test_margin_dual_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            b = float(rng.uniform(0.5, 5))
            gamma = float(rng.uniform(0.01, 4 * b / math.e * 0.99))
            args = dict(
                err=float(rng.uniform(0, 1)),
                b=b,
                r=float(rng.uniform(0, 0.5)),
                n=int(rng.integers(2, 10**6)),
                delta=float(rng.uniform(0.001, 0.999)),
                K=float(rng.uniform(1, 1e5)),
                gamma=gamma,
            )
            inputs = dict(
                empirical_loss=args["err"], range_b=b, rademacher=args["r"],
                n=args["n"], delta=args["delta"], bound_K=args["K"], margin=gamma,
            )
            assert margin_bound(**inputs) == pytest.approx(margin_reference(**args), rel=1e-12)
            assert margin_bound(**inputs, simplified=True) == pytest.approx(
                margin_reference(**args, simplified=True), rel=1e-12
            )

    def test_margin_domain_error(self):
        with pytest.raises(ValueError, match="margin too large"):
            margin_bound(empirical_loss=0.1, range_b=1.0, rademacher=0.01, n=100, margin=2.0)

    def test_margin_monotone_nonincreasing_in_gamma(self):
        gammas = np.linspace(0.05, 1.2, 40)
        vals = [
            margin_bound(
                empirical_loss=0.2, range_b=1.0, rademacher=0.03,
                n=1000, delta=0.05, bound_K=1e5, margin=float(g),
            )
            for g in gammas
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_missing_fields(self):
        # every input a bound depends on is a required argument
        with pytest.raises(TypeError, match="missing 4 required"):
            smooth_risk_bound(empirical_loss=0.1)
        with pytest.raises(TypeError, match="missing 2 required"):
            lipschitz_excess_bound(l_star=0.1)
        with pytest.raises(TypeError, match="missing 3 required"):
            margin_bound(empirical_loss=0.1, range_b=1.0)

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta"):
            smooth_risk_bound(
                empirical_loss=0.1, smoothness_H=1.0, range_b=1.0,
                rademacher=0.01, n=100, delta=1.5,
            )
        with pytest.raises(ValueError, match="delta"):
            margin_bound(
                empirical_loss=0.1, range_b=1.0, rademacher=0.01, n=100, margin=0.5,
                delta=0.0,
            )


@settings(max_examples=100, deadline=None)
@given(
    g1=st.floats(0.05, 1.0),
    g2=st.floats(0.05, 1.0),
    err=st.floats(0.0, 1.0),
)
def test_margin_monotonicity_property(g1, g2, err):
    lo, hi = sorted((g1, g2))
    make = lambda g: margin_bound(
        empirical_loss=err, range_b=1.0, rademacher=0.02,
        n=500, delta=0.05, bound_K=10.0, margin=g,
    )
    assert make(hi) <= make(lo) + 1e-9


class TestMarginEmpiricalError:
    def test_all_margins_clear(self):
        assert margin_empirical_error([1.0, 2.0], [1.0, 1.0], 0.5) == 0.0

    def test_strict_inequality_at_zero(self):
        # score exactly 0 has margin 0, which is not < 0
        assert margin_empirical_error([0.0, -0.1], [1.0, 1.0], 0.0) == 0.5

    def test_hand_count(self):
        assert margin_empirical_error([0.5, -0.2], [1.0, 1.0], 0.3) == 0.5

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            margin_empirical_error([], [], 0.1)
        with pytest.raises(ValueError, match="labels"):
            margin_empirical_error([0.5], [0.7], 0.1)
