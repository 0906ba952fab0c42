import math

import numpy as np
import pytest

from smoothbench import (
    adaptive_stream,
    average_regret,
    averaged_iterate,
    entropy_setup,
    euclidean_setup,
    fixed_stream,
    hindsight_average_loss,
    iid_stream,
    is_feasible,
    make_squared,
    regret_bound,
    run_mirror_descent,
    run_mirror_descent_batch,
    stepsize_for,
)
from smoothbench.geometry import ball_radius
from smoothbench.online import OnlineTrace

from probes import random_feasible

SQ = make_squared()


def sphere_sampler(w_star, dim):
    def sampler(rng, n):
        xs = rng.standard_normal((n, dim))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        return xs, xs @ w_star

    return sampler


class TestStepsize:
    def test_hand_values(self):
        assert stepsize_for(1, 1, 100, 0) == 0.5
        assert stepsize_for(1, 1, 4, 1) == pytest.approx(1 / (1 + math.sqrt(5)), rel=1e-15)
        assert stepsize_for(4, 1, 1, 0) == 0.125

    def test_errors(self):
        for bad in [(0, 1, 10, 0), (1, 0, 10, 0), (1, 1, 0, 0), (1, 1, 10, -1)]:
            with pytest.raises(ValueError):
                stepsize_for(*bad)

    def test_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert (
                stepsize_for(
                    float(rng.uniform(0.1, 10)),
                    float(rng.uniform(0.1, 10)),
                    int(rng.integers(1, 10**6)),
                    float(rng.uniform(0, 10)),
                )
                > 0
            )


class TestRegretBound:
    def test_hand_values(self):
        assert regret_bound(1, 1, 100, 0) == 0.04
        assert regret_bound(1, 1, 100, 1) == pytest.approx(0.24, rel=1e-15)

    def test_scales_as_inverse_n_when_separable(self):
        assert regret_bound(1, 1, 400, 0) / regret_bound(1, 1, 100, 0) == 0.25


class TestRunMirrorDescent:
    def test_hand_trace(self):
        setup = euclidean_setup(2, 1.0)
        xs = np.array([[1.0, 0.0]] * 3)
        ys = np.ones(3)
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), 0.5, np.zeros(2))
        assert np.allclose(trace.iterates[:, 0], [0.0, 0.5, 0.75])
        assert np.allclose(trace.losses, [0.5, 0.125, 0.03125])

    def test_degenerate_single_round(self):
        setup = euclidean_setup(2, 1.0)
        trace = run_mirror_descent(
            setup, SQ, fixed_stream(np.array([[1.0, 0.0]]), np.array([1.0])), 0.5
        )
        assert trace.n == 1
        assert np.allclose(trace.iterates[0], 0.0)

    def test_zero_gradient_fixed_point(self):
        setup = euclidean_setup(2, 1.0)
        w1 = np.array([0.3, -0.2])
        xs = np.tile(np.array([[0.6, 0.8]]), (5, 1))
        ys = xs @ w1  # phi' = 0 every round
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), 0.7, w1)
        assert np.allclose(trace.iterates, w1)

    def test_deterministic_per_seed(self):
        setup = euclidean_setup(3, 1.0)
        w_star = np.array([0.6, 0.0, -0.8])
        s1 = iid_stream(sphere_sampler(w_star, 3), 50, seed=99)
        s2 = iid_stream(sphere_sampler(w_star, 3), 50, seed=99)
        t1 = run_mirror_descent(setup, SQ, s1, 0.3)
        t2 = run_mirror_descent(setup, SQ, s2, 0.3)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.losses, t2.losses)
        t3 = run_mirror_descent(setup, SQ, iid_stream(sphere_sampler(w_star, 3), 50, seed=100), 0.3)
        assert not np.array_equal(t1.iterates, t3.iterates)
        # the stream holds the sampler's one draw from the seeded generator,
        # and plays as the fixed stream of that draw
        xs, ys = sphere_sampler(w_star, 3)(np.random.default_rng(99), 50)
        assert np.array_equal(s1.xs, xs) and np.array_equal(s1.ys, ys)
        t4 = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), 0.3)
        assert np.array_equal(t1.iterates, t4.iterates)
        assert np.array_equal(t1.losses, t4.losses)

    def test_every_iterate_feasible_under_pressure(self):
        setup = euclidean_setup(2, 0.5)
        xs = np.tile(np.array([[1.0, 0.0]]), (200, 1))
        ys = np.full(200, 10.0)  # targets far outside the ball
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), 2.0)
        for w in trace.iterates:
            assert is_feasible(setup, w)

    def test_losses_nonnegative(self):
        setup = euclidean_setup(2, 1.0)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((50, 2))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = rng.uniform(-1, 1, 50)
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), 0.2)
        assert np.all(trace.losses >= 0)

    def test_errors(self):
        setup = euclidean_setup(2, 1.0)
        stream = fixed_stream(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            run_mirror_descent(setup, SQ, stream, 0.0)
        with pytest.raises(ValueError, match="infeasible"):
            run_mirror_descent(setup, SQ, stream, 0.5, np.array([9.0, 9.0]))
        with pytest.raises(ValueError, match="dimension"):
            run_mirror_descent(euclidean_setup(3, 1.0), SQ, stream, 0.5)

    def test_adaptive_sees_only_current_iterate(self):
        setup = euclidean_setup(2, 1.0)
        seen = []

        def adversary(i, w):
            seen.append(w.copy())
            return np.array([1.0, 0.0]), -1.0

        trace = run_mirror_descent(setup, SQ, adaptive_stream(adversary, 4), 0.5)
        assert len(seen) == 4
        assert np.allclose(np.array(seen), trace.iterates)


class TestAverageRegret:
    def test_hand_value(self):
        setup = euclidean_setup(2, 1.0)
        xs = np.array([[1.0, 0.0]] * 2)
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, np.ones(2)), 0.5, np.zeros(2))
        assert average_regret(trace, np.array([1.0, 0.0])) == 0.3125

    def test_zero_when_all_iterates_equal_comparator(self):
        setup = euclidean_setup(2, 1.0)
        w1 = np.array([0.3, 0.1])
        xs = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs, xs @ w1), 0.5, w1)
        assert average_regret(trace, w1) == 0.0

    def test_infeasible_comparator(self):
        setup = euclidean_setup(2, 1.0)
        trace = run_mirror_descent(
            setup, SQ, fixed_stream(np.array([[1.0, 0.0]]), np.ones(1)), 0.5
        )
        with pytest.raises(ValueError, match="infeasible comparator"):
            average_regret(trace, np.array([4.0, 4.0]))


class TestAveragedIterate:
    def test_hand_values(self):
        setup = euclidean_setup(2, 1.0)
        iterates = np.array([[1.0, 0.0], [0.0, 1.0]])
        trace = OnlineTrace(iterates, iterates, np.zeros(2), np.zeros(2), setup, SQ)
        assert np.allclose(averaged_iterate(trace), [0.5, 0.5])

    def test_constant_trace(self):
        setup = euclidean_setup(2, 1.0)
        iterates = np.tile(np.array([[0.2, -0.1]]), (5, 1))
        trace = OnlineTrace(iterates, iterates, np.zeros(5), np.zeros(5), setup, SQ)
        assert np.allclose(averaged_iterate(trace), [0.2, -0.1])

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_average_feasible_for_random_iterate_sets(self, geometry):
        setup = (
            euclidean_setup(4, 0.9) if geometry == "euclidean" else entropy_setup(4, 1.4)
        )
        rng = np.random.default_rng(61)
        for _ in range(1000):
            pts = np.array([random_feasible(setup, rng) for _ in range(6)])
            trace = OnlineTrace(pts, pts, np.zeros(6), np.zeros(6), setup, SQ)
            assert is_feasible(setup, averaged_iterate(trace))

    def test_empty_trace(self):
        setup = euclidean_setup(2, 1.0)
        trace = OnlineTrace(
            np.empty((0, 2)), np.empty((0, 2)), np.empty(0), np.empty(0), setup, SQ
        )
        with pytest.raises(ValueError, match="empty"):
            averaged_iterate(trace)


class TestRegretTheorem:
    """Measured average regret never exceeds the guarantee when eta comes
    from the formula with a valid Lbar and a comparator inside the set."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 10000])
    def test_euclidean_iid_separable(self, n):
        dim = 8
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            w_star = rng.standard_normal(dim)
            w_star /= float(np.linalg.norm(w_star))
            setup = euclidean_setup(dim, 1.0)
            eta = stepsize_for(1.0, setup.f_max, n, 0.0)
            trace = run_mirror_descent(
                setup, SQ, iid_stream(sphere_sampler(w_star, dim), n, 500 + seed), eta
            )
            assert average_regret(trace, w_star) <= regret_bound(1.0, setup.f_max, n, 0.0) + 1e-9

    @pytest.mark.parametrize("n", [10, 100, 1000, 10000])
    def test_euclidean_fixed_adversarial(self, n):
        dim = 6
        for seed in range(3):
            rng = np.random.default_rng(900 + seed)
            xs = rng.standard_normal((n, dim))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            ys = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)
            w_c = np.zeros(dim)
            lbar = float(np.mean(SQ.value(xs @ w_c, ys)))
            setup = euclidean_setup(dim, 1.0)
            eta = stepsize_for(1.0, setup.f_max, n, lbar)
            trace = run_mirror_descent(setup, SQ, fixed_stream(xs, ys), eta)
            assert hindsight_average_loss(trace, w_c) <= lbar + 1e-15
            assert average_regret(trace, w_c) <= regret_bound(1.0, setup.f_max, n, lbar) + 1e-9

    @pytest.mark.parametrize("n", [10, 100, 1000, 10000])
    def test_euclidean_adaptive_adversary(self, n):
        dim = 4
        setup = euclidean_setup(dim, 1.0)

        def adversary(i, w):
            x = np.zeros(dim)
            x[i % dim] = 1.0
            return x, (-1.0 if w[i % dim] >= 0 else 1.0)

        lbar = 0.5  # zero comparator pays y^2/2 = 1/2 each round
        eta = stepsize_for(1.0, setup.f_max, n, lbar)
        trace = run_mirror_descent(setup, SQ, adaptive_stream(adversary, n), eta)
        assert average_regret(trace, np.zeros(dim)) <= regret_bound(1.0, setup.f_max, n, lbar) + 1e-9

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_entropy_iid(self, n):
        dim = 16
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            w_star = rng.exponential(size=dim)
            w_star /= float(np.sum(w_star))

            def sampler(rng2, m, w_star=w_star):
                xs = rng2.uniform(-1.0, 1.0, size=(m, dim))
                return xs, xs @ w_star

            setup = entropy_setup(dim, 1.0)
            eta = stepsize_for(1.0, setup.f_max, n, 0.0)
            trace = run_mirror_descent(setup, SQ, iid_stream(sampler, n, 700 + seed), eta)
            assert average_regret(trace, w_star) <= regret_bound(1.0, setup.f_max, n, 0.0) + 1e-9


def one_hot(idx, dim):
    """The dense design of a basis design, as Dataset.dense_xs builds it."""
    xs = np.zeros(idx.shape + (dim,))
    np.put_along_axis(xs, idx[..., None], 1.0, axis=-1)
    return xs


class TestBatchedRunner:
    """run_mirror_descent_batch against run_mirror_descent, run by run, to
    the last bit."""

    @staticmethod
    def assert_matches_per_run(setup, xs, ys, eta, run, w_start=None):
        eta = np.broadcast_to(eta, ys.shape[:-1])
        for r in np.ndindex(ys.shape[:-1]):
            start = None if w_start is None else w_start[r]
            trace = run_mirror_descent(
                setup, SQ, fixed_stream(xs[r], ys[r]), float(eta[r]), start
            )
            assert np.array_equal(run.averages[r], averaged_iterate(trace))
            assert np.array_equal(run.losses[r], trace.losses)
            assert np.mean(run.losses[r]) == np.mean(trace.losses)

    @staticmethod
    def problem(geometry, reps, n, dim, seed, budget=1.0):
        rng = np.random.default_rng(seed)
        if geometry == "euclidean":
            setup = euclidean_setup(dim, budget)
            xs = rng.standard_normal((reps, n, dim))
            xs /= np.linalg.norm(xs, axis=-1, keepdims=True)
        else:
            setup = entropy_setup(dim, budget)
            xs = rng.uniform(-1.0, 1.0, size=(reps, n, dim))
        ys = rng.uniform(-1.0, 1.0, size=(reps, n))
        eta = rng.uniform(0.05, 0.8, size=reps)
        return setup, xs, ys, eta

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    @pytest.mark.parametrize("reps", [1, 7])
    def test_dense_design_per_row_eta(self, geometry, reps):
        setup, xs, ys, eta = self.problem(geometry, reps, 150, 6, seed=reps)
        run = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs)
        self.assert_matches_per_run(setup, xs, ys, eta, run)

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_basis_design(self, geometry):
        # a row rule gathering each round's one-hot rows, as rate's basis
        # families play
        setup, _, ys, eta = self.problem(geometry, 5, 200, 8, seed=3)
        idx = np.random.default_rng(4).integers(8, size=ys.shape).astype(np.uint8)
        basis = np.eye(8)
        run = run_mirror_descent_batch(
            setup, SQ, ys * 3.0, eta, xs=lambda i: basis[idx[:, i]]
        )
        self.assert_matches_per_run(setup, one_hot(idx, 8), ys * 3.0, eta, run)

    def test_one_dimension(self):
        # numpy's mean over (n, 1) iterates sums pairwise, the batch sums in
        # order: the averages agree to n ulps, the losses exactly
        setup, xs, ys, eta = self.problem("euclidean", 4, 300, 1, seed=12)
        run = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs)
        for r in range(4):
            trace = run_mirror_descent(setup, SQ, fixed_stream(xs[r], ys[r]), float(eta[r]))
            assert np.array_equal(run.losses[r], trace.losses)
            np.testing.assert_allclose(
                run.averages[r], averaged_iterate(trace), rtol=300 * np.finfo(float).eps
            )

    def test_scalar_eta(self):
        setup, xs, ys, _ = self.problem("euclidean", 4, 60, 5, seed=8)
        run = run_mirror_descent_batch(setup, SQ, ys, 0.3, xs=xs)
        self.assert_matches_per_run(setup, xs, ys, 0.3, run)

    def test_projection_active(self):
        # a small ball and far targets: the step leaves the ball every round
        setup, xs, ys, eta = self.problem("euclidean", 6, 80, 4, seed=5, budget=0.05)
        ys = 20.0 * np.sign(ys)
        run = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs)
        self.assert_matches_per_run(setup, xs, ys, eta, run)
        trace = run_mirror_descent(setup, SQ, fixed_stream(xs[0], ys[0]), float(eta[0]))
        radii = np.linalg.norm(trace.iterates[1:], axis=1)
        assert np.mean(np.isclose(radii, ball_radius(setup), rtol=1e-12)) > 0.5

    def test_two_leading_axes_on_a_broadcast_design(self):
        setup, xs, ys, _ = self.problem("euclidean", 3, 90, 5, seed=6)
        eta = np.array([0.1, 0.3, 0.5, 0.9])
        shape = (3, 4)
        run = run_mirror_descent_batch(
            setup, SQ,
            np.broadcast_to(ys[:, None], shape + (90,)),
            np.broadcast_to(eta, shape),
            xs=np.broadcast_to(xs[:, None], shape + (90, 5)),
        )
        assert run.averages.shape == (3, 4, 5)
        for j, k in np.ndindex(shape):
            trace = run_mirror_descent(setup, SQ, fixed_stream(xs[j], ys[j]), float(eta[k]))
            assert np.array_equal(run.averages[j, k], averaged_iterate(trace))
            assert np.array_equal(run.losses[j, k], trace.losses)

    def test_skipping_losses_keeps_the_averages(self):
        setup, xs, ys, eta = self.problem("entropy", 3, 50, 4, seed=10)
        full = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs)
        lean = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs, record_losses=False)
        assert lean.losses is None
        assert np.array_equal(lean.averages, full.averages)

    def test_regret_of_a_basis_run(self):
        # a run's regret is its average loss minus the comparator's: a basis
        # run pays, round by round, what the same run on its dense rows pays
        setup, _, ys, eta = self.problem("euclidean", 3, 60, 5, seed=13)
        idx = np.random.default_rng(14).integers(5, size=ys.shape)
        basis = run_mirror_descent_batch(setup, SQ, ys, eta, xs=lambda i: np.eye(5)[idx[:, i]])
        dense = run_mirror_descent_batch(setup, SQ, ys, eta, xs=one_hot(idx, 5))
        assert np.array_equal(basis.losses, dense.losses)
        assert np.array_equal(basis.averages, dense.averages)

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_start_point_per_run(self, geometry):
        setup, xs, ys, eta = self.problem(geometry, 4, 70, 6, seed=15)
        rng = np.random.default_rng(16)
        w_start = np.array([random_feasible(setup, rng) for _ in range(4)])
        run = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs, w_start=w_start)
        self.assert_matches_per_run(setup, xs, ys, eta, run, w_start)
        # one start broadcasts to every run
        run = run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs, w_start=w_start[1])
        self.assert_matches_per_run(setup, xs, ys, eta, run, np.broadcast_to(w_start[1], (4, 6)))

    @pytest.mark.parametrize("geometry", ["euclidean", "entropy"])
    def test_start_point_validation(self, geometry):
        setup, xs, ys, eta = self.problem(geometry, 3, 20, 4, seed=17)
        w_start = np.array([random_feasible(setup, np.random.default_rng(r)) for r in range(3)])
        w_start[2] *= 10.0 * setup.budget  # outside the ball or the budget
        with pytest.raises(ValueError, match="infeasible"):
            run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs, w_start=w_start)
        for shape in [(2, 4), (3, 5), (3, 1, 4)]:
            with pytest.raises(ValueError, match="w_start"):
                run_mirror_descent_batch(setup, SQ, ys, eta, xs=xs, w_start=np.zeros(shape))

    @pytest.mark.parametrize("dim", [1, 8])
    def test_adaptive_label_rule(self, dim):
        # the sign-flipping adversary of the regret experiment, played both ways
        setup, n, eta = euclidean_setup(dim, 1.0), 300, 0.37

        def adversary(i, w):
            x = np.zeros(dim)
            x[i % dim] = 1.0
            return x, (-1.0 if w[i % dim] >= 0 else 1.0)

        labels = []

        def rule(pred):
            labels.append(np.where(pred >= 0, -1.0, 1.0))
            return labels[-1]

        trace = run_mirror_descent(setup, SQ, adaptive_stream(adversary, n), eta)
        run = run_mirror_descent_batch(setup, SQ, rule, eta, xs=np.eye(dim)[np.arange(n) % dim])
        assert run.losses.shape == (n,)
        assert np.array_equal(np.array(labels), trace.ys)
        assert np.array_equal(run.losses, trace.losses)
        if dim > 1:  # at d = 1 numpy's mean sums pairwise (test_one_dimension)
            assert np.array_equal(run.averages, averaged_iterate(trace))

    def test_label_rule_on_a_stack(self):
        # one call per round, with the (R,) predictions of that round
        setup, xs, ys, eta = self.problem("entropy", 3, 40, 4, seed=18)
        labels = []

        def rule(pred):
            labels.append(np.tanh(pred) - 0.5)
            return labels[-1]

        run = run_mirror_descent_batch(setup, SQ, rule, eta, xs=xs)
        assert [y.shape for y in labels] == [(3,)] * 40
        self.assert_matches_per_run(setup, xs, np.stack(labels, axis=-1), eta, run)

    def test_entry_validation(self):
        setup, xs, ys, eta = self.problem("euclidean", 3, 20, 4, seed=11)
        with pytest.raises(ValueError, match="positive"):
            run_mirror_descent_batch(setup, SQ, ys, [0.1, 0.0, 0.2], xs=xs)
        with pytest.raises(ValueError, match="positive"):
            run_mirror_descent_batch(setup, SQ, ys, -0.1, xs=xs)
        bad_shapes = [
            dict(xs=xs[:, :, :3]),  # design dimension != setup dimension
            dict(xs=xs[:2]),  # fewer design rows than target rows
            dict(xs=xs[:, :19]),  # fewer rounds than targets
        ]
        for kwargs in bad_shapes:
            with pytest.raises(ValueError):
                run_mirror_descent_batch(setup, SQ, ys, eta, **kwargs)
        with pytest.raises(ValueError, match=r"row 0 has shape \(2, 4\)"):
            run_mirror_descent_batch(setup, SQ, ys, eta, xs=lambda i: xs[:2, i])
        with pytest.raises(ValueError, match="array design"):
            run_mirror_descent_batch(setup, SQ, np.sign, eta, xs=lambda i: xs[:, i])
        with pytest.raises(ValueError, match="eta"):
            run_mirror_descent_batch(setup, SQ, ys, [0.1, 0.2], xs=xs)
        with pytest.raises(ValueError):
            run_mirror_descent_batch(setup, SQ, np.empty((3, 0)), eta, xs=xs[:, :0])


def test_stream_validation():
    with pytest.raises(ValueError):
        fixed_stream(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError):
        fixed_stream(np.ones((0, 2)), np.ones(0))
    with pytest.raises(ValueError):
        iid_stream(lambda rng, n: None, 0, seed=1)
    # a short draw fails when the stream is built, not when it is played
    with pytest.raises(ValueError, match="sampler returned 4 rows, expected 5"):
        iid_stream(lambda rng, n: (np.ones((n - 1, 2)), np.ones(n - 1)), 5, seed=1)
    with pytest.raises(ValueError):
        adaptive_stream(lambda i, w: None, 0)
