"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

import smoothbench as sb
from probes import pair_bound_residual, self_bound_residual
from smoothbench.harness import (
    config_from_dict,
    rate_slope,
    run_margin_experiment,
    run_rate_experiment,
    run_regret_experiment,
    run_sparse_experiment,
    run_stability_experiment,
    sparse_slopes,
    with_defaults,
)

MASTER_SEED = 20260810


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")


def make_cfg(**kw):
    kw.setdefault("seed", MASTER_SEED)
    return with_defaults(config_from_dict(kw))


def test_criterion_01_self_bounding_suite():
    start = time.perf_counter()
    losses = [
        sb.make_squared(),
        sb.make_squared_unhalved(),
        sb.make_smooth_ramp(1.0),
        sb.make_smooth_ramp(0.5),
        sb.make_piecewise_quadlin(),
    ]
    worst_self = math.inf
    worst_pair = math.inf
    rng = np.random.default_rng(MASTER_SEED)
    for loss in losses:
        t = rng.uniform(*loss.t_domain, size=10_000)
        y = rng.uniform(*loss.y_domain, size=10_000)
        r = rng.uniform(*loss.t_domain, size=10_000)
        worst_self = min(worst_self, float(np.min(self_bound_residual(loss, t, y))))
        worst_pair = min(worst_pair, float(np.min(pair_bound_residual(loss, t, r, y))))
    elapsed = time.perf_counter() - start
    ok = worst_self >= -1e-9 and worst_pair >= -1e-9 and elapsed < 1.0
    report(1, ok, f"min self residual {worst_self:.2e}, min pair residual {worst_pair:.2e}", elapsed, 1)
    assert worst_self >= -1e-9
    assert worst_pair >= -1e-9
    assert elapsed < 1.0


def test_criterion_02_regret_guarantee():
    start = time.perf_counter()
    cfg = make_cfg(
        experiment="regret", n_grid=[10, 100, 1000, 10000], replicates=10,
        methods=["iid_separable", "fixed_adversarial"],
    )
    checked = run_regret_experiment(cfg)
    violations = [r for r in checked if r.measured > r.bound + 1e-9]
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    report(2, ok, f"{len(checked)} runs, {len(violations)} bound violations", elapsed, 30)
    assert not violations, violations[:5]
    assert elapsed < 30.0


def test_criterion_03_separable_fast_rate():
    start = time.perf_counter()
    cfg = make_cfg(
        experiment="rate", distribution="separable",
        n_grid=[2**k for k in range(5, 13)], replicates=50,
    )
    rows = run_rate_experiment(cfg)
    slope = rate_slope(rows)
    above_bound = [r.n for r in rows if r.mean > r.bound]
    elapsed = time.perf_counter() - start
    ok = slope <= -0.85 and not above_bound and elapsed < 120.0
    report(3, ok, f"log-log slope {slope:.3f} (need <= -0.85)", elapsed, 120)
    assert slope <= -0.85
    assert not above_bound
    assert elapsed < 120.0


def test_criterion_04_nonsmooth_separable_slow_rate():
    start = time.perf_counter()
    cfg = make_cfg(experiment="rate", distribution="hardA")
    rows = run_rate_experiment(cfg)
    repeat = run_rate_experiment(make_cfg(experiment="rate", distribution="hardA"))
    deterministic = all(
        a.mean == b.mean for a, b in zip(rows, repeat)
    )
    floor_failures = [r.n for r in rows if r.mean < r.lower_bound]
    slope = rate_slope(rows)
    elapsed = time.perf_counter() - start
    ok = (
        not floor_failures and -0.65 <= slope <= -0.35 and deterministic and elapsed < 10.0
    )
    report(4, ok, f"slope {slope:.3f} in [-0.65,-0.35], floors exact, deterministic={deterministic}", elapsed, 10)
    assert not floor_failures
    assert -0.65 <= slope <= -0.35
    assert deterministic
    assert elapsed < 10.0


def _per_coordinate_mean_erm_excess(n: int, d: int, sigma: float) -> float:
    """Exact expected excess of the per-coordinate-mean ERM on the noisy
    orthogonal design, without the unit-ball projection:
    sigma^2 E[1/N; N>=1] + P(N=0)/(4d), N ~ Binomial(n, 1/d)."""
    p = 1.0 / d
    inv_count = sum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) / k for k in range(1, n + 1)
    )
    return sigma**2 * inv_count + (1.0 - p) ** n / (4.0 * d)


def test_criterion_05_smooth_nonseparable_slow_rate():
    """Noisy orthogonal design (hardB, d = ceil(sqrt(n)/sigma)), exact ERM.

    The family realises the sqrt(L*/n) floor once every coordinate is
    sampled, n >= d; that is about n L* >= 1, where sqrt(L*/n) leads the
    rate. There the mean excess must reach 0.5 * sqrt(L*/n): from n = 128
    (d = 114) to 8192, and the test asserts that this is 7 of the 8 grid
    points, so the exempt range cannot widen unnoticed.

    At n = 64, d = 80, so n/d = 0.8 and about 45% of coordinates go unseen.
    The floor is not promised there: the exact expected excess,
    sigma^2 E[1/N; N>=1] + P(N=0)/(4d), is 5.888e-3, 0.942x the 6.25e-3
    half-floor. That row is held to this exact value instead, within 3
    standard errors; the unit-ball projection, which the formula leaves
    out, binds in well under 1 draw in 1,000 there.

    The fitted slope must lie in [-0.65, -0.35]."""
    start = time.perf_counter()
    sigma = 0.1
    cfg = make_cfg(experiment="rate", distribution=f"hardB:{sigma}")
    rows = run_rate_experiment(cfg)
    floor_ns, floor_failures, exact_failures = [], [], []
    for r in rows:
        d = sb.hard_gaussian(r.n, sigma, seed=MASTER_SEED).dim
        if r.n >= d:
            floor_ns.append(r.n)
            if r.mean < 0.5 * r.lower_bound:
                floor_failures.append((r.n, r.mean, 0.5 * r.lower_bound))
        else:
            exact = _per_coordinate_mean_erm_excess(r.n, d, sigma)
            if abs(r.mean - exact) > 3.0 * r.stderr:
                exact_failures.append((r.n, r.mean, exact, r.stderr))
    floor_grid_ok = floor_ns == [2**k for k in range(7, 14)]
    slope = rate_slope(rows)
    slope_ok = -0.65 <= slope <= -0.35
    elapsed = time.perf_counter() - start
    ok = (
        floor_grid_ok and not floor_failures and not exact_failures
        and slope_ok and elapsed < 120.0
    )
    report(
        5, ok,
        f"slope {slope:.3f}, floor applied at n={floor_ns}, floor failures at "
        f"n={[f[0] for f in floor_failures]}, exact-mean failures at "
        f"n={[f[0] for f in exact_failures]}",
        elapsed, 120,
    )
    assert slope_ok
    assert elapsed < 120.0
    assert floor_grid_ok, f"floor applied only at n={floor_ns}"
    assert not floor_failures, (
        "mean excess below 0.5*sqrt(L*/n) at: "
        + ", ".join(f"n={n} ({m:.4e} < {f:.4e})" for n, m, f in floor_failures)
    )
    assert not exact_failures, (
        "mean excess off the exact ERM expectation by > 3 stderr at: "
        + ", ".join(
            f"n={n} ({m:.4e} vs {e:.4e}, stderr {se:.1e})"
            for n, m, e, se in exact_failures
        )
    )


def _regularized_bound_grid(dist_factory, smoothness, budget, label, replicates=200):
    failures = []
    for i, n in enumerate((64, 256, 1024)):
        excesses = []
        for j in range(replicates):
            dist = dist_factory(n, 1_000_000 * i + j)
            setup = sb.euclidean_setup(dist.dim, budget)
            lam = sb.lambda_for(smoothness, setup.f_max, n, dist.l_star)
            data = dist.sample(n, 2_000_000 * i + j)
            rep = sb.solve_regularized_erm(setup, dist.loss, data, lam, tol=1e-10)
            excesses.append(sb.excess_risk(dist, rep.w))
        mean = float(np.mean(excesses))
        stderr = float(np.std(excesses, ddof=1) / math.sqrt(replicates))
        bound = 256.0 * smoothness * setup.f_max / n + math.sqrt(
            2048.0 * smoothness * setup.f_max * dist.l_star / n
        )
        if mean > bound + 2 * stderr:
            failures.append((label, n, mean, bound))
    return failures


def test_criterion_06_regularized_erm_bound():
    start = time.perf_counter()
    failures = _regularized_bound_grid(
        lambda n, s: sb.hard_gaussian(n, 0.1, seed=MASTER_SEED + s),
        smoothness=2.0,
        budget=1.0 / math.sqrt(2.0),
        label="hardB",
    )
    failures += _regularized_bound_grid(
        lambda n, s: sb.separable_synthetic(16, seed=MASTER_SEED + s),
        smoothness=1.0,
        budget=1.0,
        label="separable",
    )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(6, ok, f"6 grid points x 200 replicates, {len(failures)} violations", elapsed, 300)
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_07_stability():
    start = time.perf_counter()
    cfg = make_cfg(experiment="stability")
    (row,) = run_stability_experiment(cfg)
    gap = row.rhs_mean + 2 * row.combined_stderr - row.lhs_mean
    elapsed = time.perf_counter() - start
    ok = gap >= 0 and elapsed < 180.0
    report(
        7, ok,
        f"lhs {row.lhs_mean:.3e} <= rhs {row.rhs_mean:.3e} + 2se (slack {gap:.3e})",
        elapsed, 180,
    )
    assert gap >= 0
    assert elapsed < 180.0


def test_criterion_08_formula_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0

    def rel_err(a, b):
        return abs(a - b) / max(1e-300, abs(b))

    for _ in range(20):
        H = float(rng.uniform(0.1, 10))
        f = float(rng.uniform(0.1, 10))
        n = int(rng.integers(1, 10**6))
        lbar = float(rng.uniform(0, 10))
        hf = H * f
        eta_ref = 1.0 / (hf * (1.0 + math.sqrt(1.0 + n * lbar / hf)))
        worst = max(worst, rel_err(sb.stepsize_for(H, f, n, lbar), eta_ref))
        rb_ref = (4.0 * hf + 2.0 * math.sqrt(hf * lbar * n)) / n
        worst = max(worst, rel_err(sb.regret_bound(H, f, n, lbar), rb_ref))
        lam_ref = (128.0 * H / n) * (1.0 + math.sqrt(1.0 + lbar * n / (128.0 * H * f)))
        worst = max(worst, rel_err(sb.lambda_for(H, f, n, lbar), lam_ref))

        lhat = float(rng.uniform(0, 1))
        b = float(rng.uniform(0.1, 5))
        r = float(rng.uniform(0, 0.5))
        delta = float(rng.uniform(0.001, 0.999))
        K = float(rng.uniform(1, 1e5))
        n2 = int(rng.integers(2, 10**6))
        conf = b * math.log(1 / delta) / n2
        t1_ref = lhat + K * (
            math.sqrt(lhat) * (math.sqrt(H) * math.log(n2) ** 1.5 * r + math.sqrt(conf))
            + H * math.log(n2) ** 3 * r * r
            + conf
        )
        t1 = sb.smooth_risk_bound(
            empirical_loss=lhat, smoothness_H=H, range_b=b, rademacher=r,
            n=n2, delta=delta, bound_K=K,
        )
        worst = max(worst, rel_err(t1, t1_ref))

        gamma = float(rng.uniform(0.01, 4 * b / math.e * 0.99))
        cc = math.log(math.log(4 * b / gamma) / delta) / n2
        mg_ref = lhat + K * (
            math.sqrt(lhat) * (math.log(n2) ** 1.5 / gamma * r + math.sqrt(cc))
            + math.log(n2) ** 3 / gamma**2 * r * r
            + cc
        )
        mg = sb.margin_bound(
            empirical_loss=lhat, range_b=b, rademacher=r, n=n2,
            delta=delta, bound_K=K, margin=gamma,
        )
        worst = max(worst, rel_err(mg, mg_ref))

        lstar = float(rng.uniform(0, 1))
        D = float(rng.uniform(0.1, 5))
        lip_ref = lstar + 2 * D * r
        worst = max(
            worst,
            rel_err(
                sb.lipschitz_excess_bound(l_star=lstar, lipschitz_D=D, rademacher=r),
                lip_ref,
            ),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(8, ok, f"max relative deviation {worst:.2e} over 6 formulas x 20 points", elapsed, 1)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_09_rademacher_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 9)
    failures = 0
    for trial in range(20):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 6))
        xs = rng.standard_normal((n, d))
        for kind in ("linear_l2_ball", "linear_l1_ball"):
            cls = sb.FunctionClassSpec(kind, float(rng.uniform(0.5, 3.0)))
            exact = sb.empirical_rademacher(cls, xs)
            draws = 4000
            signs = np.random.default_rng(MASTER_SEED + trial).choice(
                [-1.0, 1.0], size=(draws, n)
            )
            combos = signs @ xs
            norms = (
                np.linalg.norm(combos, axis=1)
                if kind == "linear_l2_ball"
                else np.max(np.abs(combos), axis=1)
            )
            vals = cls.budget * norms / n
            mc = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(draws))
            if abs(mc - exact.value) > 4 * se:
                failures += 1
    # just above the exact limit the program draws its own Monte Carlo
    # signs: held to an enumeration of all 2^n sign vectors made here
    worst = 0.0
    for n in (21, 22):
        xs = rng.standard_normal((n, int(rng.integers(1, 6))))
        sums, bits, chunk = np.zeros(2), np.arange(n), 1 << 16
        for first in range(0, 1 << n, chunk):
            block = np.arange(first, first + chunk)
            combos = (((block[:, None] >> bits) & 1) * 2.0 - 1.0) @ xs
            sums += [np.linalg.norm(combos, axis=1).sum(), np.abs(combos).max(axis=1).sum()]
        for k, kind in enumerate(("linear_l2_ball", "linear_l1_ball")):
            cls = sb.FunctionClassSpec(kind, float(rng.uniform(0.5, 3.0)))
            exact = cls.budget * sums[k] / n / (1 << n)
            mc = sb.empirical_rademacher(cls, xs, draws=4000, seed=MASTER_SEED + 10 * n + k)
            assert not mc.exact and mc.draws == 4000
            worst = max(worst, abs(mc.value - exact) / mc.stderr)
            failures += abs(mc.value - exact) > 4 * mc.stderr
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(9, ok, f"20 samples x 2 geometries and Monte Carlo at n = 21, 22 (worst "
                  f"{worst:.2f} stderr), {failures} beyond 4 stderr", elapsed, 30)
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_10_sparse_trend():
    start = time.perf_counter()
    cfg = make_cfg(
        experiment="sparse", dim=256, sparsity_k=4,
        n_grid=[2**k for k in range(7, 13)], replicates=20,
        methods=["entropy_md"],
    )
    rows = run_sparse_experiment(cfg)
    slope = sparse_slopes(rows)["entropy_md"]
    elapsed = time.perf_counter() - start
    ok = slope <= -0.85 and elapsed < 120.0
    report(10, ok, f"entropy MD slope {slope:.3f} (need <= -0.85, eta_scale={cfg.eta_scale})", elapsed, 120)
    assert slope <= -0.85
    assert elapsed < 120.0


def test_criterion_11_margin_substitute_properties():
    start = time.perf_counter()
    cfg = make_cfg(experiment="margin")
    rows = run_margin_experiment(cfg)
    vacuity_failures = [r.gamma for r in rows if r.rhs < r.holdout_error]
    fixed_err = 0.17
    vals = [
        sb.margin_bound(
            empirical_loss=fixed_err, range_b=math.sqrt(2), rademacher=0.03,
            n=2048, delta=0.05, bound_K=1e5, margin=float(g),
        )
        for g in cfg.gamma_grid
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - start
    ok = not vacuity_failures and monotone and elapsed < 60.0
    report(
        11, ok,
        f"RHS >= holdout on {len(rows)} rows; monotone in gamma at fixed error={monotone}",
        elapsed, 60,
    )
    assert not vacuity_failures
    assert monotone
    assert elapsed < 60.0
