import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench import (
    Dataset,
    LossSpec,
    ball_radius,
    bregman_divergence,
    default_start,
    dual_norm,
    entropy_setup,
    euclidean_setup,
    excess_risk,
    hard_absolute,
    hard_gaussian,
    hard_quadlin,
    is_feasible,
    lambda_for,
    make_absolute,
    make_smooth_ramp,
    make_squared,
    make_squared_unhalved,
    mirror_step,
    regularizer_grad,
    regime_generator,
    regularizer_value,
    solve_regularized_erm,
    stability_probe,
)
from smoothbench import batch
from smoothbench.batch import TERM_MAX_ITERS, TERM_TOLERANCE

SQ = make_squared()


def ridge_ball_closed_form(xs, ys, lam, radius, s=1.0):
    """Oracle: the exact minimizer of mean s (x@w - y)^2 / 2 + lam ||w||^2 / 2
    over ||w|| <= radius: an eigh of (s/n) X^T X, then, when the ball binds,
    a bisection on its multiplier mu."""
    n = xs.shape[0]
    evals, vecs = np.linalg.eigh((s / n) * (xs.T @ xs))
    rhs = vecs.T @ ((s / n) * (xs.T @ ys))

    def solve(mu):
        return vecs @ (rhs / (evals + lam + mu))

    w = solve(0.0)
    if np.linalg.norm(w) <= radius:
        return w
    lo, hi = 0.0, 1.0
    while np.linalg.norm(solve(hi)) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(solve(mid)) > radius:
            lo = mid
        else:
            hi = mid
    return solve(hi)  # the feasible end of the bracket


def reference_solve(setup, loss, data, lam, tol, max_iters):
    """The solver's loop written with the public, checked geometry calls
    only: every trial checks the points it steps from, scores and compares."""

    def objective(w):
        emp = float(np.mean(loss.value(data.predictions(w), data.ys)))
        return emp + lam * regularizer_value(setup, w)

    def gradient(w):
        resid = np.asarray(loss.derivative(data.predictions(w), data.ys), dtype=float)
        return data.grad_combination(resid) / data.n + lam * regularizer_grad(setup, w)

    w = default_start(setup)
    obj = objective(w)
    cert, step, termination, iterations = math.inf, 1.0, TERM_MAX_ITERS, 0
    for iterations in range(1, max_iters + 1):
        g = gradient(w)
        stalled = False
        while True:
            w_new = mirror_step(setup, w, g, step)
            obj_new = objective(w_new)
            linear = float(g @ (w_new - w))
            margin = bregman_divergence(setup, w_new, w) / step
            if obj_new <= obj + linear + margin + 1e-15 * (1.0 + abs(obj)):
                break
            step *= 0.5
            if step < 1e-18:
                stalled = True
                break
        if stalled:
            break
        v = gradient(w_new) - g - (regularizer_grad(setup, w_new) - regularizer_grad(setup, w)) / step
        cert = dual_norm(setup, v) ** 2 / (2.0 * lam)
        w, obj = w_new, obj_new
        if cert <= tol:
            termination = TERM_TOLERANCE
            break
        step *= 2.0
    return w, obj, cert, iterations, termination


def _lean_solve_cases():
    rng = np.random.default_rng(23)
    xs = rng.standard_normal((40, 5)) / 2
    ys = rng.uniform(-1, 1, 40)
    yield "euclidean dense", euclidean_setup(5, 1.0), Dataset(ys=ys, xs=xs), 0.05, 1e-12
    idx = rng.integers(0, 6, 50)
    basis = Dataset(ys=rng.uniform(-1, 1, 50), basis_idx=idx, dim=6)
    yield "euclidean basis", euclidean_setup(6, 1.0), basis, 0.02, 1e-12
    signs = rng.choice([-1.0, 1.0], size=(60, 8))
    dense_pm = Dataset(ys=signs[:, 0] * 0.8 + rng.normal(0, 0.1, 60), xs=signs)
    yield "entropy dense", entropy_setup(8, 1.5), dense_pm, 0.05, 1e-10
    # targets far outside the small ball, so the projection binds at the end
    yield "active ball", euclidean_setup(5, 0.1), Dataset(ys=10 * ys, xs=xs), 0.01, 1e-12


class TestLeanSolve:
    """solve_regularized_erm checks feasibility once per iteration and at
    exit; its iterate, objective, certificate and ending match the fully
    checked loop bit for bit."""

    @pytest.mark.parametrize("max_iters", [3, 100_000])
    @pytest.mark.parametrize("case", list(_lean_solve_cases()), ids=lambda c: c[0])
    def test_matches_checked_reference(self, case, max_iters):
        _, setup, data, lam, tol = case
        report = solve_regularized_erm(setup, SQ, data, lam, tol=tol, max_iters=max_iters)
        w, objective, certificate, iterations, termination = reference_solve(
            setup, SQ, data, lam, tol, max_iters
        )
        assert np.array_equal(report.w, w)
        assert report.objective == objective
        assert report.certificate == certificate
        assert report.iterations == iterations
        assert report.termination == termination
        expected = TERM_MAX_ITERS if max_iters == 3 else TERM_TOLERANCE
        assert termination == expected

    @pytest.mark.parametrize("case", list(_lean_solve_cases()), ids=lambda c: c[0])
    def test_work_per_iteration(self, case, monkeypatch):
        """One prediction matvec per trial; the accepted trial's predictions
        and regularizer gradient are carried, not recomputed."""
        _, setup, data, lam, tol = case
        calls = dict.fromkeys(["predictions", "_objective", "_gradient", "regularizer_grad"], 0)

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(Dataset, "predictions")
        for name in ("_objective", "_gradient", "regularizer_grad"):
            count(batch, name)
        report = solve_regularized_erm(setup, SQ, data, lam, tol=tol)
        assert report.termination == TERM_TOLERANCE
        assert calls["predictions"] == calls["_objective"] > report.iterations
        assert calls["_gradient"] == 2 * report.iterations  # the benchmark's pinned count
        assert calls["regularizer_grad"] == report.iterations + 1

    def test_active_ball_case_ends_on_the_sphere(self):
        (_, setup, data, lam, tol), = [c for c in _lean_solve_cases() if c[0] == "active ball"]
        report = solve_regularized_erm(setup, SQ, data, lam, tol=tol)
        radius = math.sqrt(2.0) * setup.budget
        assert float(np.linalg.norm(report.w)) == pytest.approx(radius, rel=1e-12)


class TestLambdaFor:
    def test_hand_values(self):
        assert lambda_for(1, 1, 128, 0) == 2.0
        assert lambda_for(1, 1, 128, 1) == pytest.approx(1 + math.sqrt(2), rel=1e-15)

    def test_lambda_n_exceeds_32h(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = float(rng.uniform(0.1, 10))
            f = float(rng.uniform(0.1, 10))
            n = int(rng.integers(1, 10**6))
            lbar = float(rng.uniform(0, 5))
            assert lambda_for(H, f, n, lbar) * n > 32 * H

    def test_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            H = float(rng.uniform(0.1, 5))
            f = float(rng.uniform(0.1, 5))
            n = int(rng.integers(2, 10**5))
            lbar = float(rng.uniform(0, 5))
            assert lambda_for(H, f, n, lbar) >= lambda_for(H, f, n + 1, lbar)
            assert lambda_for(H * 1.5, f, n, lbar) >= lambda_for(H, f, n, lbar)
            assert lambda_for(H, f, n, lbar + 0.5) >= lambda_for(H, f, n, lbar)

    def test_errors(self):
        for bad in [(0, 1, 10, 0), (1, 0, 10, 0), (1, 1, 0, 0), (1, 1, 10, -1)]:
            with pytest.raises(ValueError):
                lambda_for(*bad)


@settings(max_examples=100, deadline=None)
@given(
    H=st.floats(0.1, 10),
    f=st.floats(0.1, 10),
    n=st.integers(1, 10**6),
    lbar=st.floats(0, 10),
)
def test_lambda_keeps_denominator_positive(H, f, n, lbar):
    lam = lambda_for(H, f, n, lbar)
    assert 1.0 - 32.0 * H / (lam * n) > 0


class TestDataset:
    def test_basis_and_dense_agree(self):
        idx = np.array([0, 2, 2, 1])
        ys = np.array([1.0, 2.0, 3.0, 4.0])
        data = Dataset(ys=ys, basis_idx=idx, dim=3)
        w = np.array([0.5, -1.0, 2.0])
        dense = Dataset(ys=ys, xs=data.dense_xs())
        assert np.allclose(data.predictions(w), dense.predictions(w))
        v = np.array([1.0, 1.0, -1.0, 0.5])
        assert np.allclose(data.grad_combination(v), dense.grad_combination(v))

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(ys=np.ones(2))
        with pytest.raises(ValueError):
            Dataset(ys=np.ones(2), xs=np.ones((3, 2)))
        with pytest.raises(ValueError):
            Dataset(ys=np.ones(0), xs=np.ones((0, 2)))
        with pytest.raises(ValueError):
            Dataset(ys=np.ones(2), basis_idx=np.array([0, 1]))  # missing dim

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
    def test_dense_design_must_be_a_matrix(self, shape):
        # a vector has no dim, and a stack of matrices would predict a
        # matrix per instance
        with pytest.raises(ValueError, match=r"xs must have shape \(n, d\)"):
            Dataset(ys=np.ones(3), xs=np.ones(shape))

    @pytest.mark.parametrize(
        "idx",
        [
            np.array([-1, 0]),  # would predict w[-1]
            np.array([5, 0]),  # past dim: grad_combination would grow to length 6
            np.array([0.0, 1.0]),  # float indices
            np.array([[0, 1]]),  # not one index per target
        ],
    )
    def test_basis_indices_must_be_integers_in_range(self, idx):
        with pytest.raises(ValueError, match="basis_idx"):
            Dataset(ys=np.ones(2), basis_idx=idx, dim=3)

    def test_replace_instance(self):
        # a same-kind source: its first instance is copied, the rest ignored
        basis = Dataset(ys=np.array([1.0, 2.0]), basis_idx=np.array([0, 1]), dim=3)
        source = Dataset(ys=np.array([5.0, 7.0]), basis_idx=np.array([2, 0]), dim=3)
        new = basis.replace_instance(1, source)
        assert np.array_equal(new.basis_idx, [0, 2]) and np.array_equal(new.ys, [1.0, 5.0])
        assert np.array_equal(basis.basis_idx, [0, 1]) and basis.ys[1] == 2.0  # untouched
        dense = Dataset(ys=np.array([1.0, 2.0]), xs=np.eye(2, 3))
        new = dense.replace_instance(0, Dataset(ys=np.array([5.0]), xs=[[1.0, 2.0, 3.0]]))
        assert np.array_equal(new.xs, [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(new.ys, [5.0, 2.0])
        assert np.array_equal(dense.xs, np.eye(2, 3)) and dense.ys[0] == 1.0  # untouched

    @pytest.mark.parametrize("x", [
        [0.5, 0.5, 0.0], [1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.0],
        [[0.0, 1.0, 0.0]], 1.0,
    ])
    def test_replace_instance_on_a_basis_design_takes_a_basis_vector(self, x):
        # a basis design takes a basis source only: a dense row is the other
        # kind, even the one-hot [0, 1, 0]
        data = Dataset(ys=np.array([1.0, 2.0]), basis_idx=np.array([0, 1]), dim=3)
        source = Dataset(ys=np.array([5.0]), xs=np.reshape(x, (1, -1)))
        with pytest.raises(ValueError, match="source must be a basis dataset of dim 3"):
            data.replace_instance(1, source)

    @pytest.mark.parametrize("source", [
        pytest.param(Dataset(ys=np.array([5.0]), xs=[[5.0]]), id="dim1"),
        pytest.param(Dataset(ys=np.array([5.0]), xs=[[1.0, 2.0]]), id="dim2"),
        pytest.param(Dataset(ys=np.array([5.0]), basis_idx=np.array([2]), dim=3), id="basis"),
    ])
    def test_replace_instance_on_a_dense_design_takes_a_row(self, source):
        data = Dataset(ys=np.array([1.0, 2.0]), xs=np.eye(2, 3))
        with pytest.raises(ValueError, match="source must be a dense dataset of dim 3"):
            data.replace_instance(1, source)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_replace_instance_on_a_basis_design_needs_its_dim(self, dim):
        data = Dataset(ys=np.array([1.0, 2.0]), basis_idx=np.array([0, 1]), dim=3)
        source = Dataset(ys=np.array([5.0]), basis_idx=np.array([1]), dim=dim)
        with pytest.raises(ValueError, match="source must be a basis dataset of dim 3"):
            data.replace_instance(1, source)


class TestSolver:
    def test_single_sample_closed_form(self):
        setup = euclidean_setup(2, 1.0)
        data = Dataset(ys=np.array([1.0]), xs=np.array([[1.0, 0.0]]))
        report = solve_regularized_erm(setup, SQ, data, 1.0)
        assert report.w[0] == pytest.approx(0.5, abs=1e-8)
        assert report.termination == TERM_TOLERANCE

    def test_huge_lambda_recovers_regularizer_argmin(self):
        setup = euclidean_setup(3, 1.0)
        rng = np.random.default_rng(7)
        data = Dataset(ys=rng.uniform(-1, 1, 20), xs=rng.standard_normal((20, 3)) / 2)
        report = solve_regularized_erm(setup, SQ, data, 1e9, tol=1e-14)
        assert float(np.linalg.norm(report.w)) <= 1e-6

    def test_zero_gradient_data_terminates_immediately(self):
        setup = euclidean_setup(2, 1.0)
        data = Dataset(ys=np.zeros(4), xs=np.tile(np.array([[1.0, 0.0]]), (4, 1)))
        report = solve_regularized_erm(setup, SQ, data, 0.5)
        assert report.iterations == 1
        assert np.allclose(report.w, 0.0)

    def test_against_ridge_ball_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(3, 30))
            xs = rng.standard_normal((n, d))
            xs /= max(1.0, float(np.max(np.linalg.norm(xs, axis=1))))
            ys = rng.uniform(-1, 1, n)
            lam = float(rng.uniform(0.01, 2.0))
            # small radius on odd trials so the ball constraint binds sometimes
            budget = 0.1 if trial % 2 else 1.0
            setup = euclidean_setup(d, budget)
            data = Dataset(ys=ys, xs=xs)
            report = solve_regularized_erm(setup, SQ, data, lam, tol=1e-14)
            oracle = ridge_ball_closed_form(xs, ys, lam, math.sqrt(2) * budget)
            assert float(np.max(np.abs(report.w - oracle))) <= 1e-6

    @staticmethod
    def _entropy_problem():
        rng = np.random.default_rng(13)
        xs = rng.uniform(-1, 1, size=(12, 2))
        return entropy_setup(2, 1.0), xs, rng.uniform(-1, 1, size=12)

    def test_entropy_geometry_against_grid_oracle(self):
        setup, xs, ys = self._entropy_problem()
        data = Dataset(ys=ys, xs=xs)
        lam = 0.3
        report = solve_regularized_erm(setup, SQ, data, lam, tol=1e-12)

        # dense grid over the interior of the positive l1 ball
        best = self._grid_min(setup, xs, ys, lam, np.linspace(1e-6, 1.0 - 1e-6, 500))
        assert report.objective <= best + 1e-5
        assert is_feasible(setup, report.w)

    @staticmethod
    def _grid_min(setup, xs, ys, lam, grid):
        """The least regularized objective over the (a, b) of the grid with
        b <= 1 - a, all grid points scored at once."""
        a, b = np.meshgrid(grid, grid, indexing="ij")
        inside = b <= 1.0 - a
        ws = np.stack([a[inside], b[inside]], axis=1)
        losses = np.mean(SQ.value(ws @ xs.T, ys), axis=1)
        # the entropy regularizer on the interior (every coordinate > 0)
        reg = setup.budget * np.sum(ws * np.log(setup.dim * ws), axis=1)
        return float(np.min(losses + lam * (reg + setup.budget**2 / math.e)))

    def test_vectorized_grid_oracle_matches_the_loop(self):
        from smoothbench import regularizer_value

        setup, xs, ys = self._entropy_problem()
        grid = np.linspace(1e-6, 1.0 - 1e-6, 40)
        best = math.inf
        for a in grid:
            for b in grid[grid <= 1.0 - a]:
                w = np.array([a, b])
                obj = float(np.mean(SQ.value(xs @ w, ys))) + 0.3 * regularizer_value(setup, w)
                best = min(best, obj)
        # scoring all points with one matrix product may reorder the rounding
        assert self._grid_min(setup, xs, ys, 0.3, grid) == pytest.approx(
            best, rel=4 * np.finfo(float).eps, abs=0.0
        )

    def test_objective_history_non_increasing(self):
        setup = euclidean_setup(4, 1.0)
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((30, 4)) / 2
        data = Dataset(ys=rng.uniform(-1, 1, 30), xs=xs)
        report = solve_regularized_erm(setup, SQ, data, 0.05, tol=1e-12)
        # the solve is deterministic: a solve capped at k iterations stops at
        # the full solve's iterate k (k = 0: the start)
        objs = np.array([
            solve_regularized_erm(setup, SQ, data, 0.05, tol=1e-12, max_iters=k).objective
            for k in range(report.iterations + 1)
        ])
        assert objs[-1] == report.objective
        assert np.all(np.diff(objs) <= 1e-12 * (1 + np.abs(objs[:-1])))
        assert report.termination in (TERM_TOLERANCE, TERM_MAX_ITERS)
        assert is_feasible(setup, report.w)

    def test_max_iters_reported_not_raised(self):
        setup = euclidean_setup(3, 1.0)
        rng = np.random.default_rng(19)
        data = Dataset(ys=rng.uniform(-1, 1, 10), xs=rng.standard_normal((10, 3)) / 2)
        report = solve_regularized_erm(setup, SQ, data, 0.01, tol=1e-30, max_iters=3)
        assert report.termination == TERM_MAX_ITERS
        assert report.iterations == 3

    def test_rejects_nonconvex_and_nonsmooth_losses(self):
        setup = euclidean_setup(2, 1.0)
        data = Dataset(ys=np.ones(2), xs=np.eye(2))
        with pytest.raises(ValueError, match="convex"):
            solve_regularized_erm(setup, make_smooth_ramp(1.0), data, 0.1)
        with pytest.raises(ValueError, match="smooth"):
            solve_regularized_erm(setup, make_absolute(), data, 0.1)
        with pytest.raises(ValueError):
            solve_regularized_erm(setup, SQ, data, 0.0)

    def test_rejects_a_loss_that_declares_no_smoothness(self):
        setup = euclidean_setup(2, 1.0)
        data = Dataset(ys=np.ones(2), xs=np.eye(2))
        undeclared = LossSpec("x", SQ.value, SQ.derivative, 12.5)
        with pytest.raises(ValueError, match="smooth loss, got x"):
            solve_regularized_erm(setup, undeclared, data, 0.1)


class TestCertificate:
    """A solve that ends at `tolerance` reports a certificate that bounds
    its true objective gap f(w) - f*, with f* from the exact minimizer."""

    @staticmethod
    def _problems(rng, design, active):
        for _ in range(18):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(d, 60))
            ys = rng.uniform(-1, 1, n)
            if design == "dense":
                data = Dataset(ys=ys, xs=rng.standard_normal((n, d)) / math.sqrt(d))
            else:
                data = Dataset(ys=ys, basis_idx=rng.integers(0, d, n), dim=d)
            budget = 0.005 if active else 10.0
            yield euclidean_setup(d, budget), data, float(rng.uniform(0.01, 1.0))

    @pytest.mark.parametrize("active", [False, True], ids=["inactive ball", "active ball"])
    @pytest.mark.parametrize("loss", [SQ, make_squared_unhalved()], ids=lambda loss: loss.name)
    @pytest.mark.parametrize("design", ["dense", "basis"])
    def test_certificate_bounds_the_true_gap(self, design, loss, active):
        s = loss.smoothness_H  # the loss is s (t - y)^2 / 2
        rng = np.random.default_rng(5)
        binding = 0
        for setup, data, lam in self._problems(rng, design, active):
            xs = data.dense_xs()

            def f(w):
                r = xs @ w - data.ys
                return 0.5 * s * float(np.mean(r * r)) + 0.5 * lam * float(w @ w)

            report = solve_regularized_erm(setup, loss, data, lam)
            assert report.termination == TERM_TOLERANCE
            radius = ball_radius(setup)
            w_star = ridge_ball_closed_form(xs, data.ys, lam, radius, s)
            binding += bool(np.isclose(np.linalg.norm(w_star), radius, rtol=1e-9, atol=0))
            f_star = f(w_star)
            # rounding allowance: f(w) and f* are each summed in floating
            # point, so their difference is known to a few ulps of f*
            allowance = 4 * np.finfo(float).eps * (1.0 + abs(f_star))
            assert f(report.w) - f_star <= report.certificate + allowance
        # both regimes are exercised: the ball binds where it is meant to
        assert binding >= 15 if active else binding == 0


class TestStabilityProbe:
    def test_requires_30_replicates(self):
        dist = hard_gaussian(16, 0.1, seed=1)
        setup = euclidean_setup(dist.dim, 1 / math.sqrt(2))
        with pytest.raises(ValueError):
            stability_probe(setup, dist, 1.0, 16, replicates=10, seed=2)

    def test_huge_lambda_makes_lhs_tiny(self):
        dist = hard_gaussian(16, 0.1, seed=3)
        setup = euclidean_setup(dist.dim, 1 / math.sqrt(2))
        report = stability_probe(setup, dist, 1e6, 16, replicates=30, seed=4)
        assert abs(report.lhs_mean) <= 1e-6
        assert report.lhs_mean <= report.rhs_mean
        assert report.replicates == 30

    def test_degenerate_n_equals_one(self):
        dist = hard_gaussian(4, 0.1, seed=5, dim=4)
        setup = euclidean_setup(4, 1 / math.sqrt(2))
        report = stability_probe(setup, dist, 5.0, 1, replicates=30, seed=6)
        assert math.isfinite(report.lhs_mean)
        assert report.rhs_mean > 0
        assert report.combined_stderr >= report.rhs_stderr

    def test_rejects_instances_outside_the_unit_ball(self):
        # H is the loss's, the smoothness in w only for ||x||_2 <= 1; this
        # gaussian design has E||x||^2 = 25
        setup, dist = euclidean_setup(8, 1.0), regime_generator(8, 5.0, 0.5, seed=1)
        with pytest.raises(ValueError, match=r"needs \|\|x\|\|_2 <= 1"):
            stability_probe(setup, dist, 1.0, 16, replicates=30, seed=2)

    def test_accepts_dense_unit_norm_instances(self):
        dist = hard_quadlin(64, 0.5)  # dense scalar instances in {0, 1}
        report = stability_probe(euclidean_setup(1, 1 / math.sqrt(2)), dist, 1.0, 64,
                                 replicates=30, seed=3)
        assert math.isfinite(report.lhs_mean) and report.rhs_mean > 0


class TestExcessRisk:
    def test_a_at_reference_is_zero(self):
        dist = hard_absolute(25, seed=7)
        assert excess_risk(dist, dist.w_star) == 0.0

    def test_a_at_zero_vector(self):
        dist = hard_absolute(25, seed=7)
        assert excess_risk(dist, np.zeros(dist.dim)) == pytest.approx(1 / 5, rel=1e-12)

    def test_b_closed_form(self):
        dist = hard_gaussian(100, 0.1, seed=9)
        w = dist.w_star.copy()
        w[0] += 0.3
        assert excess_risk(dist, w) == pytest.approx(0.09 / dist.dim, rel=1e-12)
        assert dist.true_risk(dist.w_star) == pytest.approx(0.01, rel=1e-12)

    def test_large_noise_does_not_swallow_the_excess(self):
        # L* = sigma^2 = 1e16 next to an excess near 1/2: a difference of the
        # two risks rounds to 0
        dist = regime_generator(50, 5.0, 1e8, 3)
        exact = float(Fraction(25, 50) * sum(Fraction(float(v)) ** 2 for v in dist.w_star))
        assert abs(excess_risk(dist, np.zeros(50)) - exact) <= 4 * math.ulp(exact)
