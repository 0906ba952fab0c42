import math
from fractions import Fraction

import numpy as np
import pytest

from smoothbench import (
    HardDistribution,
    erm_exact,
    excess_risk,
    hard_absolute,
    hard_gaussian,
    hard_quadlin,
    lower_bound_applies,
    lower_bound_value,
    quadlin_minimizer_closed_form,
    regime_generator,
    separable_synthetic,
    sparse_generator,
)
from smoothbench.batch import Dataset
from smoothbench.distributions import (
    _DRAW_CHUNK,
    AbsoluteSeparable,
    GaussianSquared,
    OnedimQuadlin,
    draw_signs,
    draw_unit_vector,
)

# how far a binding hardB ERM's norm may sit from 1: four ulp of 1.0, for the
# rounding of w and of its norm
SPHERE_ULPS = 4 * np.finfo(float).eps


def projected_gradient_oracle(xs_idx, ys, dim, iters=200_000, step=2e-3):
    """Brute-force empirical minimizer of the unhalved squared loss over the
    unit ball on a basis design; independent of erm_exact's algebra."""
    w = np.zeros(dim)
    n = len(ys)
    for _ in range(iters):
        resid = 2.0 * (w[xs_idx] - ys)
        g = np.bincount(xs_idx, weights=resid, minlength=dim) / n
        w = w - step * g
        r = float(np.linalg.norm(w))
        if r > 1.0:
            w *= 1.0 / r
    return w


def projected_gradient_oracle_batch(xs_idx, ys, dim, iters=200_000, step=2e-3):
    """projected_gradient_oracle for a stack of problems with one sample
    size n (problem t: indices xs_idx[t], targets ys[t]), all iterated at
    once. Each is zero-padded to dim coordinates: a padded coordinate draws
    no instance, so its gradient and weight stay 0 and the norm is unmoved."""
    ys = np.asarray(ys, dtype=float)
    trials, n = ys.shape
    flat = (np.asarray(xs_idx) + dim * np.arange(trials)[:, None]).ravel()
    w = np.zeros((trials, dim))
    for _ in range(iters):
        resid = 2.0 * (w.ravel()[flat] - ys.ravel())
        g = np.bincount(flat, weights=resid, minlength=trials * dim).reshape(trials, dim) / n
        w = w - step * g
        r = np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
        w *= 1.0 / np.maximum(r, 1.0)  # 1/r where r > 1, else exactly 1
    return w


class TestConstructionA:
    def test_sample_support(self):
        dist = hard_absolute(50, seed=1)
        data = dist.sample(200, seed=2)
        assert data.dim == 100
        target = 1 / math.sqrt(50)
        assert set(np.round(np.abs(data.ys), 12)) == {round(target, 12)}
        assert np.all((data.basis_idx >= 0) & (data.basis_idx < 100))

    def test_reference_predictor_has_zero_risk(self):
        dist = hard_absolute(30, seed=3)
        assert dist.l_star == 0.0
        assert dist.true_risk(dist.w_star) == 0.0

    def test_erm_zero_empirical_loss_and_exact_risk(self):
        dist = hard_absolute(40, seed=5)
        data = dist.sample(40, seed=6)
        w = erm_exact(dist, data)
        assert np.all(w[data.basis_idx] == data.ys)  # empirical loss exactly 0
        assert float(np.linalg.norm(w)) <= 1.0
        seen = len(set(data.basis_idx.tolist()))
        expected = (dist.dim - seen) / (dist.dim * math.sqrt(40))
        assert dist.true_risk(w) == pytest.approx(expected, rel=1e-12)

    def test_handcrafted_half_coverage(self):
        # sample covering exactly 4 distinct coordinates of d = 8
        dist = hard_absolute(4, seed=7)
        idx = np.array([0, 1, 2, 3])
        data = Dataset(
            ys=dist.w_star[idx], basis_idx=idx, dim=8
        )
        assert np.allclose(np.abs(data.ys), 0.5)  # hidden signs / sqrt(4)
        w = erm_exact(dist, data)
        assert dist.true_risk(w) == pytest.approx(0.25, rel=1e-12)  # = 1/(2 sqrt(4))

    def test_risk_floor(self):
        for n in (16, 64, 256):
            dist = hard_absolute(n, seed=11)
            data = dist.sample(n, seed=12)
            w = erm_exact(dist, data)
            assert excess_risk(dist, w) >= 0.5 / math.sqrt(n)

    def test_lower_bound_value(self):
        dist = hard_absolute(100, seed=13)
        assert lower_bound_value(dist, 100) == 0.05
        assert lower_bound_applies(dist, 1)


class TestConstructionB:
    def test_noiseless_sampling(self):
        dist = hard_gaussian(64, 0.0, seed=1, dim=10)
        data = dist.sample(100, seed=2)
        assert np.array_equal(data.ys, dist.w_star[data.basis_idx])
        assert np.allclose(np.abs(data.ys), 1 / (2 * math.sqrt(10)))  # hidden signs / (2 sqrt(d))

    def test_default_dimension(self):
        assert hard_gaussian(64, 0.1, seed=1).dim == 80
        assert hard_gaussian(8192, 0.1, seed=1).dim == 906

    def test_sigma_zero_needs_explicit_dim(self):
        with pytest.raises(ValueError):
            hard_gaussian(64, 0.0, seed=1)

    def test_reference_risk_is_sigma_squared(self):
        dist = hard_gaussian(100, 0.1, seed=3)
        assert dist.true_risk(dist.w_star) == pytest.approx(0.01, rel=1e-12)
        assert float(np.linalg.norm(dist.w_star)) == pytest.approx(0.5, rel=1e-12)

    def test_noiseless_erm_recovers_seen_coordinates(self):
        dist = hard_gaussian(64, 0.0, seed=5, dim=12)
        data = dist.sample(64, seed=6)
        w = erm_exact(dist, data)
        seen = np.unique(data.basis_idx)
        assert np.allclose(w[seen], dist.w_star[seen])

    @staticmethod
    def _oracle_problems():
        """Four small problems (dim 2 to 4, n = 16) and their exact ERMs."""
        rng = np.random.default_rng(7)
        problems = []
        for trial in range(4):
            dim = int(rng.integers(2, 5))
            dist = hard_gaussian(16, 0.5, seed=100 + trial, dim=dim)
            data = dist.sample(16, seed=200 + trial)
            problems.append((data, erm_exact(dist, data)))
        return problems

    def test_erm_matches_projected_gradient_oracle(self):
        problems = self._oracle_problems()
        oracles = projected_gradient_oracle_batch(
            [data.basis_idx for data, _ in problems], [data.ys for data, _ in problems], 4
        )
        for (data, w), oracle in zip(problems, oracles):
            assert float(np.max(np.abs(w - oracle[: data.dim]))) <= 1e-6
            assert not np.any(oracle[data.dim :])

    def test_batched_oracle_matches_the_loop(self):
        # 20,000 of the 200,000 iterations: enough to compare the two loops
        data = self._oracle_problems()[1][0]  # dim 3, padded by one coordinate
        batch = projected_gradient_oracle_batch([data.basis_idx], [data.ys], 4, iters=20_000)
        loop = projected_gradient_oracle(data.basis_idx, data.ys, data.dim, iters=20_000)
        # the batch's row norms may round differently from np.linalg.norm
        assert np.allclose(batch[0, : data.dim], loop, rtol=0.0, atol=1e-14)
        assert batch[0, data.dim] == 0.0

    def test_erm_ball_constraint_secular_root(self):
        # large noise forces per-coordinate means outside the unit ball
        dist = hard_gaussian(50, 3.0, seed=9, dim=3)
        data = dist.sample(50, seed=10)
        w = erm_exact(dist, data)
        assert float(np.linalg.norm(w)) == pytest.approx(1.0, abs=SPHERE_ULPS)
        oracle = projected_gradient_oracle(data.basis_idx, data.ys, 3)
        assert float(np.max(np.abs(w - oracle))) <= 1e-5

    def test_binding_erm_sits_on_the_sphere_with_one_multiplier(self):
        # the ball binds in most of these samples; there the exact ERM is
        # w_k = a_k / (s_k + mu) on the seen coordinates for one mu >= 0
        # (s = counts / n, a = sums / n) and 0 elsewhere, with ||w|| = 1
        binding = 0
        for sigma in (0.1, 0.5, 3.0):
            for n in (16, 64, 256, 1024, 8192):
                for seed in range(8):
                    dist = hard_gaussian(n, sigma, seed=seed)
                    data = dist.sample(n, seed=1000 + seed)
                    counts = np.bincount(data.basis_idx, minlength=dist.dim)
                    sums = np.bincount(data.basis_idx, weights=data.ys, minlength=dist.dim)
                    ybar = np.divide(sums, counts, out=np.zeros(dist.dim), where=counts > 0)
                    if float(np.linalg.norm(ybar)) <= 1.0:
                        continue
                    binding += 1
                    w = erm_exact(dist, data)
                    assert abs(float(np.linalg.norm(w)) - 1.0) <= SPHERE_ULPS
                    seen = counts > 0
                    assert not np.any(w[~seen])
                    s, a = counts[seen] / n, sums[seen] / n
                    mu = float(np.median(a / w[seen] - s))
                    assert mu >= 0.0
                    assert np.allclose(w[seen] * (s + mu), a, rtol=1e-14, atol=0.0)
        assert binding >= 60

    def test_erm_at_the_largest_sigmas(self):
        # sample means near sigma overflow ||w||^2 or ||w||^3 in the Newton
        # step; the step is retaken from w/||w||, so the ERM still sits on
        # the sphere with one multiplier, and no overflow warning escapes
        for sigma in (1e150, 1.3e154):
            for dim in (1, 5, 50):
                dist = hard_gaussian(64, sigma, seed=dim, dim=dim)
                data = dist.sample(64, seed=11)
                w = erm_exact(dist, data)
                assert abs(float(np.linalg.norm(w)) - 1.0) <= SPHERE_ULPS
                counts = np.bincount(data.basis_idx, minlength=dim)
                sums = np.bincount(data.basis_idx, weights=data.ys, minlength=dim)
                seen = counts > 0
                s, a = counts[seen] / 64, sums[seen] / 64
                mu = float(np.median(a / w[seen] - s))
                assert np.allclose(w[seen] * (s + mu), a, rtol=1e-14, atol=0.0)

    def test_lower_bound_value(self):
        dist = hard_gaussian(100, 0.1, seed=11)
        assert lower_bound_value(dist, 100) == pytest.approx(0.01, rel=1e-12)

    def test_floor_applies_once_every_coordinate_can_be_sampled(self):
        small = hard_gaussian(64, 0.1, seed=11)
        assert small.dim == 80
        assert not lower_bound_applies(small, 64)
        large = hard_gaussian(128, 0.1, seed=11)
        assert large.dim == 114
        assert lower_bound_applies(large, 128)


class TestConstructionC:
    def test_rejects_overbiased_parameters(self):
        with pytest.raises(ValueError, match="p ="):
            hard_quadlin(1, 0.1)  # q n = 0.1 < 0.16

    def test_sampling_support_and_bias(self):
        dist = hard_quadlin(400, 1.0)
        data = dist.sample(200_000, seed=1)
        assert set(np.unique(data.xs)) <= {0.0, 1.0}
        assert np.all(data.xs == 1.0)  # q = 1
        frac = float(np.mean(data.ys > 0))
        p = dist.p
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / 200_000)

    def test_x_zero_gives_y_zero(self):
        dist = hard_quadlin(100, 0.3)
        data = dist.sample(5000, seed=3)
        off = data.xs[:, 0] == 0.0
        assert np.all(data.ys[off] == 0.0)

    def test_population_minimizer_matches_closed_form(self):
        # w* is where the risk's derivative q (p phi'(w - 1) + (1 - p) phi'(w + 1))
        # vanishes, to rounding, and L* is the risk there
        for n, q in [(25, 1.0), (100, 0.5), (400, 0.9), (10000, 1.0)]:
            dist = hard_quadlin(n, q)
            w = float(dist.w_star[0])
            assert w == quadlin_minimizer_closed_form(dist.p)
            slope = q * (
                dist.p * float(dist.loss.derivative(w, 1.0))
                + (1.0 - dist.p) * float(dist.loss.derivative(w, -1.0))
            )
            assert abs(slope) <= 1e-14
            assert dist.l_star == dist.true_risk(dist.w_star)

    def test_l_star_exceeds_half_q(self):
        for n in (25, 100, 1000):
            dist = hard_quadlin(n, 1.0)
            assert dist.l_star > dist.q / 2

    def test_erm_matches_dense_grid_oracle(self):
        dist = hard_quadlin(64, 0.8)
        grid = np.linspace(-1, 1, 1_000_001)

        def emp(data, w):
            on = data.xs[:, 0] > 0
            n_pos = float(np.sum(data.ys[on] > 0))
            n_neg = float(np.sum(on) - n_pos)
            return (
                n_pos * np.asarray(dist.loss.value(w, 1.0))
                + n_neg * np.asarray(dist.loss.value(w, -1.0))
            ) / data.n

        samples = [dist.sample(n, seed) for n, seed in [(64, 5), (64, 6), (17, 7), (5, 8)]]
        tie = Dataset(ys=np.array([1.0, -1.0, 0.0, 1.0, -1.0]),
                      xs=np.array([[1.0], [1.0], [0.0], [1.0], [1.0]]))
        unseen = Dataset(ys=np.zeros(3), xs=np.zeros((3, 1)))
        one_sided = Dataset(ys=np.array([1.0, 1.0, 0.0]), xs=np.array([[1.0], [1.0], [0.0]]))
        cases = [(data, True) for data in samples + [one_sided]]
        for data, unique in cases + [(tie, False), (unseen, False)]:
            w = float(erm_exact(dist, data)[0])
            grid_emp = emp(data, grid)
            assert float(emp(data, np.array([w]))[0]) <= float(np.min(grid_emp)) + 1e-15
            if unique:
                assert w == pytest.approx(grid[int(np.argmin(grid_emp))], abs=1e-6)
        assert float(erm_exact(dist, tie)[0]) == 0.0  # the interval's minimum-norm point
        assert float(erm_exact(dist, unseen)[0]) == 0.0
        assert float(erm_exact(dist, one_sided)[0]) == 1.0

    def test_all_negative_labels_push_erm_left(self):
        dist = hard_quadlin(64, 1.0)
        data = Dataset(ys=-np.ones(30), xs=np.ones((30, 1)))
        w = erm_exact(dist, data)
        assert float(w[0]) <= -0.5

    def test_lower_bound_value(self):
        dist = hard_quadlin(100, 1.0)
        assert lower_bound_value(dist, 100) == pytest.approx(
            math.sqrt(0.32 * dist.l_star / 100), rel=1e-12
        )
        assert lower_bound_applies(dist, 1)


class TestMonteCarloRiskAgreement:
    """Closed-form risks match a 1e6-draw Monte Carlo estimate within 3 SE."""

    def _check(self, dist, w, n_draws=1_000_000):
        data = dist.sample(n_draws, seed=99)
        losses = np.asarray(dist.loss.value(data.predictions(w), data.ys))
        mc = float(losses.mean())
        se = float(losses.std(ddof=1) / math.sqrt(n_draws))
        assert abs(mc - dist.true_risk(w)) <= 3 * se + 1e-9

    def test_a(self):
        dist = hard_absolute(16, seed=21)
        w = dist.w_star * 0.5
        self._check(dist, w)

    def test_b(self):
        dist = hard_gaussian(64, 0.2, seed=23)
        rng = np.random.default_rng(3)
        w = dist.w_star + rng.normal(0, 0.05, dist.dim)
        self._check(dist, w)

    def test_c(self):
        dist = hard_quadlin(100, 0.7)
        self._check(dist, np.array([0.1]))


class TestSeparableSynthetic:
    def test_zero_risk_at_reference(self):
        gen = separable_synthetic(8, seed=31)
        assert gen.true_risk(gen.w_star) == 0.0
        assert float(np.linalg.norm(gen.w_star)) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_risk(self):
        gen = separable_synthetic(8, seed=31)
        w = gen.w_star + 0.2
        assert gen.true_risk(w) == pytest.approx(0.5 * 8 * 0.04 / 8, rel=1e-12)

    def test_sample_is_noiseless(self):
        gen = separable_synthetic(8, seed=31)
        data = gen.sample(100, seed=32)
        assert np.allclose(data.ys, gen.w_star[data.basis_idx])


class TestSparseGenerator:
    def test_norm_budget_and_bounded_targets(self):
        gen = sparse_generator(256, 4, seed=41)
        assert float(np.sum(np.abs(gen.w_star))) <= 2 * math.sqrt(4)
        assert int(np.sum(gen.w_star != 0)) == 4
        data = gen.sample_signed(2000, seed=42)
        assert float(np.max(np.abs(data.ys))) <= 1.0
        assert float(np.max(np.abs(data.xs))) == 1.0

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_w0_l1_norm_is_one_minus_noise(self, noise):
        # so ||w0||_1 <= 1 <= 2 sqrt(k), the l1 budget's default, for every k
        for k in (1, 4, 16):
            gen = sparse_generator(64, k, seed=47, noise=noise)
            assert float(np.sum(np.abs(gen.w_star))) == pytest.approx(1.0 - noise, rel=1e-12)

    def test_doubled_features_negate(self):
        gen = sparse_generator(16, 2, seed=43)
        xs = gen.sample_doubled(50, seed=44).dense_xs()
        assert xs.shape == (50, 32)
        assert np.allclose(xs[:, :16], -xs[:, 16:])

    def test_doubled_sample_holds_no_stacked_copies(self, traced_peak):
        # the doubled sample holds X alone: [X, -X] would be twice X's bytes
        gen = sparse_generator(256, 8, seed=49, noise=0.1)
        data, peak = traced_peak(gen.sample_doubled, 512, 50)
        assert data.dim == 512 and data.xs.shape == (512, 256)
        assert peak <= 1.5 * data.xs.nbytes

    def test_signed_part_is_the_signed_sample(self):
        gen = sparse_generator(16, 2, seed=43, noise=0.1)
        doubled = gen.sample_doubled(50, seed=44)
        part = gen.signed_part(doubled)
        drawn = gen.sample_signed(50, seed=44)
        assert np.array_equal(part.xs, drawn.xs) and np.array_equal(part.ys, drawn.ys)
        assert np.shares_memory(part.xs, doubled.xs)  # read in place, not copied

    def test_fold_roundtrip_risk(self):
        gen = sparse_generator(16, 2, seed=45)
        doubled = np.concatenate([np.maximum(gen.w_star, 0), np.maximum(-gen.w_star, 0)])
        assert gen.true_risk(doubled) == pytest.approx(gen.l_star, abs=1e-15)

    def test_support_features_uncorrelated_unit_variance(self):
        gen = sparse_generator(32, 3, seed=47)
        data = gen.sample_signed(200_000, seed=48)
        cov = data.xs.T @ data.xs / data.n
        off_diag = cov - np.eye(32)
        assert float(np.max(np.abs(off_diag))) < 0.02

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            sparse_generator(8, 9, seed=1)
        with pytest.raises(ValueError):
            sparse_generator(8, 0, seed=1)


class TestRegimeGenerator:
    def test_envelope_terms(self):
        gen = regime_generator(50, 5.0, 0.5, seed=51)
        env, term = gen.envelope(2)
        assert env == pytest.approx(min(25.0, 25 / 2 + 5 * 0.5 / math.sqrt(2), 50 * 0.25 / 2))
        env_big, term_big = gen.envelope(10**6)
        assert term_big == "asymptotic"
        assert env_big == pytest.approx(50 * 0.25 / 10**6, rel=1e-12)

    def test_mean_feature_norm(self):
        gen = regime_generator(50, 5.0, 0.5, seed=53)
        data = gen.sample(20_000, seed=54)
        assert float(np.mean(np.linalg.norm(data.xs, axis=1) ** 2)) == pytest.approx(
            25.0, rel=0.05
        )

    def test_closed_form_risk(self):
        gen = regime_generator(10, 2.0, 0.3, seed=55)
        w = gen.w_star * 0.5
        expected = 0.09 + (4.0 / 10) * 0.25 * 1.0
        assert gen.true_risk(w) == pytest.approx(expected, rel=1e-12)


class TestClosedFormExcess:
    # family -> (constructor, c): the excess is c ||w - w*||^2
    FAMILIES = {
        "regime": (lambda: regime_generator(12, 3.0, 1e3, seed=71), Fraction(9, 12)),
        "hardB": (lambda: hard_gaussian(64, 1e4, seed=72, dim=10), Fraction(1, 10)),
        "separable": (lambda: separable_synthetic(9, seed=73), Fraction(1, 18)),
        "sparse": (lambda: sparse_generator(11, 3, seed=74, noise=0.5), Fraction(1, 2)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_excess_is_the_quadratic_form(self, family):
        build, c = self.FAMILIES[family]
        dist = build()
        rng = np.random.default_rng(75)
        for _ in range(50):
            w = rng.standard_normal(dist.w_star.size)
            diff = [Fraction(float(a)) - Fraction(float(b)) for a, b in zip(w, dist.w_star)]
            exact = float(c * sum(d * d for d in diff))
            assert abs(dist.excess(w) - exact) <= 4 * math.ulp(exact)
            assert dist.true_risk(w) == dist.l_star + dist.excess(w)
            if family == "sparse":  # a doubled vector folds to the same excess
                doubled = np.concatenate([np.maximum(w, 0), np.maximum(-w, 0)])
                assert dist.excess(doubled) == dist.excess(w)


def test_sampling_is_deterministic_per_seed():
    dist = hard_gaussian(64, 0.1, seed=61)
    a = dist.sample(100, seed=62)
    b = dist.sample(100, seed=62)
    c = dist.sample(100, seed=63)
    assert np.array_equal(a.ys, b.ys) and np.array_equal(a.basis_idx, b.basis_idx)
    assert not np.array_equal(a.ys, c.ys)


class TestHardFamilyClasses:
    FAMILIES = [
        (AbsoluteSeparable, lambda: hard_absolute(4, seed=1)),
        (GaussianSquared, lambda: hard_gaussian(16, 0.5, seed=1)),
        (OnedimQuadlin, lambda: hard_quadlin(64, 0.5)),
    ]

    @pytest.mark.parametrize("cls, build", FAMILIES)
    def test_constructor_class_and_provenance(self, cls, build):
        dist = build()
        assert type(dist) is cls and isinstance(dist, HardDistribution)

    @pytest.mark.parametrize("cls", [f[0] for f in FAMILIES])
    def test_sample_and_true_risk_are_not_overridden(self, cls):
        # the benchmark tracer wraps HardDistribution.sample and .true_risk;
        # a subclass override would bypass it while the name still resolves
        assert "sample" not in vars(cls) and "true_risk" not in vars(cls)

    def test_module_functions_reject_other_distributions(self):
        dist = separable_synthetic(8, 1)
        data = dist.sample(16, seed=2)
        with pytest.raises(ValueError, match="not a hard family"):
            erm_exact(dist, data)
        with pytest.raises(ValueError, match="not a hard family"):
            lower_bound_value(dist, 16)
        with pytest.raises(ValueError, match="not a hard family"):
            lower_bound_applies(dist, 16)


class TestDrawHelpers:
    """The shared draws equal the one-shot numpy expressions they replace,
    and leave the generator where those leave it."""

    @staticmethod
    def _same_stream(a, b):
        assert a.integers(0, 2**62) == b.integers(0, 2**62)
        assert a.random() == b.random()

    @pytest.mark.parametrize("shape", [
        0, 1, 7, 8, 513, (1, 5), (3, 7), (4, 6), (64, 2048), (5, _DRAW_CHUNK + 3),
        (2 * _DRAW_CHUNK + 1,),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 97, 1234])
    def test_signs_equal_one_choice_draw(self, shape, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        signs = draw_signs(a, shape)
        reference = b.choice([-1.0, 1.0], size=shape)
        assert signs.dtype == reference.dtype and signs.shape == reference.shape
        assert signs.tobytes() == reference.tobytes()
        self._same_stream(a, b)

    @pytest.mark.parametrize("rows, n", [(16, 2048), (3, _DRAW_CHUNK - 1), (64, 7)])
    def test_signs_into_a_row_slice(self, rows, n):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        block = np.full((rows + 2, n), 7.0)
        out = draw_signs(a, (rows, n), out=block[:rows])
        assert np.shares_memory(out, block)
        assert block[:rows].tobytes() == b.choice([-1.0, 1.0], size=(rows, n)).tobytes()
        assert np.all(block[rows:] == 7.0)
        self._same_stream(a, b)

    def test_signs_refuse_an_out_they_cannot_fill_in_place(self):
        with pytest.raises(ValueError):
            draw_signs(np.random.default_rng(0), (4, 3), out=np.zeros((4, 6))[:, :3])

    def test_chunked_draws_equal_one_draw(self):
        # consecutive draws continue one stream: row blocks of any height
        # draw what one whole-matrix draw does
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        whole = draw_signs(a, (100, 33))
        parts = np.vstack([draw_signs(b, (k, 33)) for k in (1, 17, 64, 18)])
        assert whole.tobytes() == parts.tobytes()
        self._same_stream(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 8, 10, 50, 257])
    def test_unit_vector_equals_the_inline_draw(self, dim):
        a, b = np.random.default_rng(dim), np.random.default_rng(dim)
        w = draw_unit_vector(a, dim)
        reference = b.standard_normal(dim)
        reference /= float(np.linalg.norm(reference))
        assert w.tobytes() == reference.tobytes()
        self._same_stream(a, b)

    @pytest.mark.parametrize("make", [
        lambda: hard_absolute(16, 3), lambda: hard_gaussian(64, 0.1, 3),
        lambda: hard_gaussian(64, 0.0, 3, dim=9), lambda: separable_synthetic(12, 3),
    ])
    def test_basis_samples_equal_the_inline_draw(self, make):
        dist = make()
        data = dist.sample(40, 8)
        rng = np.random.default_rng(8)
        idx = rng.integers(dist.dim, size=40)
        sigma = getattr(dist, "sigma", 0.0)
        ys = dist.w_star[idx] if sigma == 0 else rng.normal(dist.w_star[idx], sigma)
        assert np.array_equal(data.basis_idx, idx) and data.dim == dist.dim
        assert data.ys.tobytes() == ys.tobytes()
