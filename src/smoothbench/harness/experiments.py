"""Experiment runners: rate curves, regret tables, stability, sparse,
regime, and margin studies, with deterministic seeding and CSV/JSON output.

Seed discipline: replicate j at grid point i derives its seed from
sha256(master, experiment, i, j), so grid points and replicates are
independent streams and reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import __version__ as _pkg_version
from ..batch import (
    Dataset,
    excess_risk,
    lambda_for,
    mean_stderr,
    solve_regularized_erm,
    stability_probe,
)
from ..bounds import (
    BoundInputs,
    FunctionClassSpec,
    empirical_rademacher,
    margin_bound,
    margin_empirical_error,
)
from ..distributions import (
    erm_exact,
    lower_bound_applies,
    lower_bound_value,
    regime_generator,
    sparse_generator,
)
from ..geometry import (
    ball_radius,
    bregman_divergence,
    default_start,
    entropy_setup,
    euclidean_setup,
)
from ..losses import make_smooth_ramp, make_squared
from ..online import (
    adaptive_stream,
    average_regret,
    averaged_iterate,
    fixed_stream,
    iid_stream,
    regret_bound,
    run_mirror_descent,
    stepsize_for,
)
from .config import ExperimentConfig, make_distribution

REGRET_SLACK = 1e-9
REGIME_ENVELOPE_FACTOR = 8.0


def seed_for(master: int, experiment: str, grid_index: int, replicate: int) -> int:
    """Stable 63-bit seed for replicate `replicate` at grid point `grid_index`."""
    digest = hashlib.sha256(
        f"{master}:{experiment}:{grid_index}:{replicate}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def fit_slope(ns, means) -> tuple[float, float, float]:
    """OLS of ln(mean) on ln(n): (slope, intercept, rms residual).

    Rows with non-positive means are dropped with a warning (clamping them
    would bias the slope); fewer than 3 usable rows is an error.
    """
    pts = [(math.log(n), math.log(m)) for n, m in zip(ns, means) if m > 0]
    dropped = len(list(ns)) - len(pts)
    if dropped:
        warnings.warn(f"fit_slope dropped {dropped} non-positive rows", stacklevel=2)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 rows with positive means, have {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    return slope, intercept, float(np.sqrt(np.mean(resid**2)))


def _column(name, **kwargs):
    """A row field written as CSV column `name` (None: not written)."""
    return field(metadata={"column": name}, **kwargs)


@dataclass(frozen=True)
class RateRow:
    n: int
    mean: float = _column("mean_excess")
    stderr: float
    bound: float
    lower_bound: float
    # whether the design realises lower_bound at this n
    floor_applies: bool = _column(None, default=True)


@dataclass
class RateCurve:
    rows: list

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: r.n)

    def slope(self) -> tuple[float, float, float]:
        return fit_slope([r.n for r in self.rows], [r.mean for r in self.rows])


def run_rate_experiment(cfg: ExperimentConfig) -> RateCurve:
    """Replicate-mean excess risk of the configured learner across n_grid."""
    rows = []
    for i, n in enumerate(cfg.n_grid):
        excesses = []
        bound = math.nan
        lower = math.nan
        for j in range(cfg.replicates):
            dist = make_distribution(
                cfg.distribution, n, cfg.dim, seed_for(cfg.seed, "rate-dist", i, j)
            )
            data = dist.sample(n, seed_for(cfg.seed, "rate-data", i, j))
            if cfg.learner == "erm":
                w = erm_exact(dist, data)
            else:
                setup = euclidean_setup(dist.dim, cfg.budget)
                smoothness = dist.loss.smoothness_H * dist.x_dual_bound(setup.geometry) ** 2
                if cfg.learner == "regularized_erm":
                    lam = lambda_for(smoothness, setup.f_max, n, dist.l_star)
                    bound = 256.0 * smoothness * setup.f_max / n + math.sqrt(
                        2048.0 * smoothness * setup.f_max * dist.l_star / n
                    )
                    w = solve_regularized_erm(setup, dist.loss, data, lam, tol=cfg.tol).w
                else:
                    eta = stepsize_for(smoothness, setup.f_max, n, dist.l_star)
                    bound = regret_bound(smoothness, setup.f_max, n, dist.l_star)
                    trace = run_mirror_descent(
                        setup, dist.loss, fixed_stream(data.dense_xs(), data.ys), eta
                    )
                    w = averaged_iterate(trace)
            excesses.append(excess_risk(dist, w))
        try:
            lower = lower_bound_value(dist, n)
        except ValueError:
            lower = math.nan
        mean, stderr = mean_stderr(excesses)
        rows.append(
            RateRow(
                n=n, mean=mean, stderr=stderr, bound=bound, lower_bound=lower,
                floor_applies=lower_bound_applies(dist, n),
            )
        )
    return RateCurve(rows)


@dataclass(frozen=True)
class RegretRow:
    stream: str
    n: int
    seed_index: int
    measured: float
    bound: float
    lbar: float


def _sphere_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    xs = rng.standard_normal((n, dim))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


def run_regret_experiment(cfg: ExperimentConfig) -> list:
    """Measured average regret vs the theory bound, per stream kind / n / seed.

    Streams: i.i.d. separable (comparator = generating vector, Lbar = 0),
    a fixed seeded sequence (comparator = zero vector, Lbar = its exact
    hindsight loss, known before the run since the sequence is fixed), and
    an adaptive sign-flipping adversary (comparator = zero vector,
    Lbar = 1/2 from the label range). lbar_mode = "auto" replaces the exact
    Lbar of fixed streams with a doubling search over candidates, reporting
    the best post-hoc feasible run; that mode is a heuristic outside the
    guarantee's premises and is labeled in the stream column.
    """
    loss = make_squared()
    dim = cfg.dim
    setup = euclidean_setup(dim, cfg.budget)
    kinds = cfg.methods
    rows = []
    for i, n in enumerate(cfg.n_grid):
        for j in range(cfg.replicates):
            seed = seed_for(cfg.seed, "regret", i, j)
            rng = np.random.default_rng(seed)

            w_star = rng.standard_normal(dim)
            w_star /= float(np.linalg.norm(w_star))

            def run(stream_kind, stream, comparator, lbar):
                return _regret_row(stream_kind, setup, loss, stream, comparator, lbar, n, j)

            if "iid_separable" in kinds:

                def sampler(rng2, m, w_star=w_star):
                    xs = _sphere_rows(rng2, m, dim)
                    return xs, xs @ w_star

                stream = iid_stream(sampler, n, seed_for(cfg.seed, "regret-iid", i, j))
                rows.append(run("iid_separable", stream, w_star, 0.0))

            if "fixed_adversarial" in kinds:
                xs = _sphere_rows(rng, n, dim)
                ys = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)
                w_zero = np.zeros(dim)
                if cfg.lbar_mode == "auto":
                    rows.append(_doubling_lbar_run(run, loss, xs, ys, w_zero))
                else:
                    lbar_exact = float(np.mean(loss.value(xs @ w_zero, ys)))
                    rows.append(run("fixed_adversarial", fixed_stream(xs, ys), w_zero, lbar_exact))

            if "adaptive" in kinds:

                def adversary(i_round, w):
                    x = np.zeros(dim)
                    x[i_round % dim] = 1.0
                    return x, (-1.0 if w[i_round % dim] >= 0 else 1.0)

                # the zero vector pays y^2/2 = 1/2 every round
                rows.append(run("adaptive", adaptive_stream(adversary, n), np.zeros(dim), 0.5))
    return rows


def _regret_row(stream_kind, setup, loss, stream, comparator, lbar, n, j) -> RegretRow:
    """One mirror-descent run at the theory step for Lbar, scored against
    the comparator; the smoothness is 1 (squared loss, ||x||_2 = 1 rows)."""
    eta = stepsize_for(1.0, setup.f_max, n, lbar)
    trace = run_mirror_descent(setup, loss, stream, eta)
    return RegretRow(
        stream=stream_kind,
        n=n,
        seed_index=j,
        measured=average_regret(trace, comparator),
        bound=regret_bound(1.0, setup.f_max, n, lbar),
        lbar=lbar,
    )


def _doubling_lbar_run(run, loss, xs, ys, w_star) -> RegretRow:
    """Doubling search over Lbar candidates for a fixed sequence; keeps the
    best run whose comparator hindsight loss actually fits the candidate."""
    hindsight = float(np.mean(loss.value(xs @ w_star, ys)))
    best = None
    candidates = [float(loss.range_bound_b) / 2**k for k in range(12)]
    for cand in candidates:
        if hindsight > cand:
            continue  # post-hoc infeasible
        row = run("fixed_adversarial:auto_lbar", fixed_stream(xs, ys), w_star, cand)
        if best is None or row.measured < best.measured:
            best = row
    return best


@dataclass(frozen=True)
class StabilityRow:
    n: int
    lam: float = _column("lambda")
    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    combined_stderr: float
    replicates: int


def run_stability_experiment(cfg: ExperimentConfig) -> list:
    rows = []
    for i, n in enumerate(cfg.n_grid):
        dist = make_distribution(
            cfg.distribution, n, cfg.dim, seed_for(cfg.seed, "stability-dist", i, 0)
        )
        setup = euclidean_setup(dist.dim, cfg.budget)
        smoothness = dist.loss.smoothness_H * dist.x_dual_bound(setup.geometry) ** 2
        lam = lambda_for(smoothness, setup.f_max, n, dist.l_star)
        report = stability_probe(
            setup,
            dist.loss,
            dist,
            lam,
            n,
            replicates=cfg.replicates,
            seed=seed_for(cfg.seed, "stability", i, 0),
            tol=cfg.tol,
        )
        rows.append(
            StabilityRow(
                n=n,
                lam=lam,
                lhs_mean=report.lhs_mean,
                lhs_stderr=report.lhs_stderr,
                rhs_mean=report.rhs_mean,
                rhs_stderr=report.rhs_stderr,
                combined_stderr=report.combined_stderr,
                replicates=report.replicates,
            )
        )
    return rows


@dataclass(frozen=True)
class SparseRow:
    method: str
    n: int
    dim: int
    k: int
    mean_excess: float
    stderr: float
    bound: float


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball (sort-and-threshold)."""
    if float(np.sum(np.abs(v))) <= radius:
        return v
    u = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    k = int(np.nonzero(u * ranks > cumsum - radius)[0][-1])
    tau = (cumsum[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _l1_constrained_erm(data: Dataset, loss, radius: float, max_iters: int = 2000):
    """Projected gradient on the l1 ball with backtracking; comparison
    method for the sparse study (no certificate: the objective is not
    strongly convex)."""
    w = np.zeros(data.dim)

    def objective(w):
        return float(np.mean(loss.value(data.predictions(w), data.ys)))

    obj = objective(w)
    step = 1.0
    for _ in range(max_iters):
        resid = np.asarray(loss.derivative(data.predictions(w), data.ys))
        g = data.grad_combination(resid) / data.n
        while True:
            w_new = _project_l1_ball(w - step * g, radius)
            obj_new = objective(w_new)
            d = w_new - w
            if obj_new <= obj + float(g @ d) + float(d @ d) / (2.0 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                break
        moved = float(np.linalg.norm(w_new - w))
        w, obj = w_new, obj_new
        step *= 2.0
        if moved <= 1e-12:
            break
    return w


def run_sparse_experiment(cfg: ExperimentConfig) -> list:
    """Sparse-prediction comparison: single-pass entropy mirror descent,
    entropy-regularized ERM, and l1-constrained ERM on the doubled design.

    The mirror-descent step is eta_scale times the formula step evaluated at
    the comparator's Bregman distance from the start (oracle knowledge, like
    the hindsight-loss bound Lbar already is). eta_scale > 1 is a desk calibration, a
    heuristic outside the certified-regret regime; the theory-parameterized
    regret checks live in the regret experiment.
    """
    d0, k = cfg.dim, cfg.sparsity_k
    budget = cfg.budget
    bound_dim = 2 * d0
    rows = []
    for i, n in enumerate(cfg.n_grid):
        per_method = {m: [] for m in cfg.methods}
        l_w0 = math.nan
        for j in range(cfg.replicates):
            gen = sparse_generator(
                d0, k, seed_for(cfg.seed, "sparse-gen", i, j), noise=cfg.noise
            )
            if float(np.sum(np.abs(gen.w0))) > 2.0 * math.sqrt(k) + 1e-12:
                raise AssertionError("generator violated ||w0||_1 <= 2 sqrt(k)")
            l_w0 = gen.l_star
            data = gen.sample_doubled(n, seed_for(cfg.seed, "sparse-data", i, j))
            setup = entropy_setup(bound_dim, budget)
            smoothness = gen.loss.smoothness_H  # ||x||_inf = 1
            w0_doubled = np.concatenate(
                [np.maximum(gen.w0, 0.0), np.maximum(-gen.w0, 0.0)]
            )
            for method in cfg.methods:
                if method == "entropy_md":
                    u1 = bregman_divergence(setup, w0_doubled, default_start(setup))
                    eta = cfg.eta_scale * stepsize_for(smoothness, u1, n, gen.l_star)
                    trace = run_mirror_descent(
                        setup, gen.loss, fixed_stream(data.xs, data.ys), eta
                    )
                    w = averaged_iterate(trace)
                elif method == "entropy_regerm":
                    lam = lambda_for(smoothness, setup.f_max, n, gen.l_star)
                    w = solve_regularized_erm(
                        setup, gen.loss, data, lam, tol=max(cfg.tol, 1e-8),
                        max_iters=1000,
                    ).w
                else:  # l1_erm
                    signed = gen.sample_signed(
                        n, seed_for(cfg.seed, "sparse-data", i, j)
                    )
                    w = _l1_constrained_erm(signed, gen.loss, budget)
                per_method[method].append(gen.true_risk(w) - gen.l_star)
        ref = k * math.log(bound_dim) / n
        bound = ref + math.sqrt(k * l_w0 * math.log(bound_dim) / n)
        for method, ex in per_method.items():
            mean, stderr = mean_stderr(ex)
            rows.append(
                SparseRow(
                    method=method, n=n, dim=d0, k=k,
                    mean_excess=mean, stderr=stderr, bound=bound,
                )
            )
    return rows


def sparse_slopes(rows) -> dict:
    """Per-method log-log slope of mean excess over n."""
    out = {}
    for method in sorted({r.method for r in rows}):
        sub = sorted((r for r in rows if r.method == method), key=lambda r: r.n)
        out[method] = fit_slope([r.n for r in sub], [r.mean_excess for r in sub])[0]
    return out


@dataclass(frozen=True)
class RegimeRow:
    n: int
    mean_excess: float
    stderr: float
    envelope: float
    active_term: str
    lam: float = _column("lambda")


def run_regime_experiment(cfg: ExperimentConfig) -> list:
    """Ridge excess across sample sizes vs the three-term regime envelope.

    lambda_policy = "oracle" mimics an optimally chosen lambda: a geometric
    grid descending from the formula value, keeping the candidate with the
    best replicate-mean excess per n. "formula" uses the rule value
    alone (heavily over-regularized at small n; reported as-is).
    """
    d, xb, sigma = cfg.dim, cfg.x_scale, cfg.sigma
    rows = []
    for i, n in enumerate(cfg.n_grid):
        smoothness = 2.0 * xb**2  # population scale 2 E||X||^2 for the rule
        setup = euclidean_setup(d, cfg.budget)
        lam_theory = lambda_for(smoothness, setup.f_max, n, sigma**2)
        if cfg.lambda_policy == "formula":
            candidates = [lam_theory]
        else:
            candidates = [lam_theory * 4.0 ** (-k) for k in range(12)]
        best = None
        for lam in candidates:
            ex = []
            for j in range(cfg.replicates):
                gen = regime_generator(
                    d, xb, sigma, seed_for(cfg.seed, "regime-gen", i, j)
                )
                data = gen.sample(n, seed_for(cfg.seed, "regime-data", i, j))
                rep = solve_regularized_erm(
                    setup, gen.loss, data, lam, tol=max(cfg.tol, 1e-9), max_iters=4000
                )
                ex.append(gen.true_risk(rep.w) - gen.l_star)
            mean, stderr = mean_stderr(ex)
            if best is None or mean < best[0]:
                best = (mean, stderr, lam)
        gen = regime_generator(d, xb, sigma, seed_for(cfg.seed, "regime-gen", i, 0))
        envelope, term = gen.envelope(n)
        rows.append(
            RegimeRow(
                n=n, mean_excess=best[0], stderr=best[1],
                envelope=envelope, active_term=term, lam=best[2],
            )
        )
    return rows


@dataclass(frozen=True)
class MarginRow:
    gamma: float
    margin_error: float
    rhs: float
    rhs_simplified: float
    holdout_error: float


def run_margin_experiment(cfg: ExperimentConfig) -> list:
    """Train a ramp-loss mirror-descent classifier, then tabulate the margin
    bound against a large holdout across the gamma grid."""
    n = cfg.n_grid[-1]
    dim = cfg.dim
    rng = np.random.default_rng(seed_for(cfg.seed, "margin", 0, 0))
    w_true = rng.standard_normal(dim)
    w_true /= float(np.linalg.norm(w_true))

    def draw(rng2, m):
        xs = _sphere_rows(rng2, m, dim)
        ys = np.sign(xs @ w_true)
        ys[ys == 0] = 1.0
        flips = rng2.random(m) < cfg.label_noise
        return xs, np.where(flips, -ys, ys)

    xs, ys = draw(rng, n)
    setup = euclidean_setup(dim, cfg.budget)
    ramp = make_smooth_ramp(0.5)
    smoothness = ramp.smoothness_H  # ||x||_2 = 1
    eta = stepsize_for(smoothness, setup.f_max, n, cfg.label_noise)
    # the ramp is flat at non-positive margins, so the zero vector is a
    # stationary start; begin from a random unit vector instead
    w_start = rng.standard_normal(dim)
    w_start /= float(np.linalg.norm(w_start))
    trace = run_mirror_descent(setup, ramp, fixed_stream(xs, ys), eta, w_start=w_start)
    w_hat = averaged_iterate(trace)

    scores = xs @ w_hat
    xs_hold, ys_hold = draw(rng, 100_000)
    holdout = float(np.mean(ys_hold * (xs_hold @ w_hat) <= 0.0))

    range_b = ball_radius(setup)  # sup |<w, x>| over the class, ||x|| = 1
    cls = FunctionClassSpec("linear_l2_ball", range_b, dim)
    rad = empirical_rademacher(cls, xs, draws=2000, seed=seed_for(cfg.seed, "margin-rad", 0, 1))

    rows = []
    for gamma in cfg.gamma_grid:
        err = margin_empirical_error(scores, ys, gamma)
        inputs = BoundInputs(
            empirical_loss=err,
            range_b=range_b,
            rademacher=rad.value,
            n=n,
            delta=cfg.delta,
            bound_K=cfg.bound_k,
            margin=gamma,
        )
        rows.append(
            MarginRow(
                gamma=gamma,
                margin_error=err,
                rhs=margin_bound(inputs),
                rhs_simplified=margin_bound(inputs, simplified=True),
                holdout_error=holdout,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission and checks

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_table(experiment: str, result) -> tuple[list, list]:
    """(header, records) of a result: one column per field of the
    experiment's row type, named by the field's `column` metadata if any."""
    columns = [
        (f.name, f.metadata.get("column", f.name))
        for f in dataclasses.fields(_EXPERIMENTS[experiment][1])
        if f.metadata.get("column", f.name)
    ]
    rows = result.rows if isinstance(result, RateCurve) else result
    return (
        [column for _, column in columns],
        [[getattr(r, name) for name, _ in columns] for r in rows],
    )


def write_csv(path: str, experiment: str, result) -> None:
    """Fixed, versioned CSV schema; floats at 17 significant digits so that
    identical configs reproduce byte-identical files."""
    header, records = csv_table(experiment, result)
    lines = [",".join(header)] + [",".join(_fmt(v) for v in record) for record in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meta(path: str, cfg: ExperimentConfig, wall_time: float) -> None:
    meta = {
        "config": dataclasses.asdict(cfg),
        "versions": {
            "smoothbench": _pkg_version,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time,
        "csv_schema_version": 1,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# experiment -> (runner, row type)
_EXPERIMENTS = {
    "rate": (run_rate_experiment, RateRow),
    "regret": (run_regret_experiment, RegretRow),
    "stability": (run_stability_experiment, StabilityRow),
    "sparse": (run_sparse_experiment, SparseRow),
    "regime": (run_regime_experiment, RegimeRow),
    "margin": (run_margin_experiment, MarginRow),
}


def run_experiment(cfg: ExperimentConfig):
    return _EXPERIMENTS[cfg.experiment][0](cfg)


def check_result(cfg: ExperimentConfig, result) -> tuple[bool, list]:
    """Experiment-specific acceptance checks for --check; returns
    (passed, failure messages)."""
    failures = []
    exp = cfg.experiment
    if exp == "rate":
        factor = cfg.check_floor_factor
        if not math.isnan(factor):
            for r in result.rows:
                if r.floor_applies and r.mean < factor * r.lower_bound:
                    failures.append(
                        f"n={r.n}: mean {r.mean:.6g} < {factor} * lower bound "
                        f"{r.lower_bound:.6g}"
                    )
        bound_rows = [r for r in result.rows if not math.isnan(r.bound)]
        for r in bound_rows:
            if r.mean > r.bound + REGRET_SLACK:
                failures.append(f"n={r.n}: mean {r.mean:.6g} above bound {r.bound:.6g}")
        slope = result.slope()[0]
        if not math.isnan(cfg.check_slope_max) and slope > cfg.check_slope_max:
            failures.append(f"slope {slope:.3f} > {cfg.check_slope_max}")
        if not math.isnan(cfg.check_slope_min) and slope < cfg.check_slope_min:
            failures.append(f"slope {slope:.3f} < {cfg.check_slope_min}")
    elif exp == "regret":
        for r in result:
            if r.measured > r.bound + REGRET_SLACK:
                failures.append(
                    f"{r.stream} n={r.n} seed={r.seed_index}: measured "
                    f"{r.measured:.6g} > bound {r.bound:.6g}"
                )
    elif exp == "stability":
        for r in result:
            if r.lhs_mean > r.rhs_mean + 2.0 * r.combined_stderr:
                failures.append(
                    f"n={r.n}: lhs {r.lhs_mean:.6g} > rhs {r.rhs_mean:.6g} "
                    f"+ 2 stderres"
                )
    elif exp == "sparse":
        slopes = sparse_slopes(result)
        if "entropy_md" in slopes and cfg.noise == 0:
            if slopes["entropy_md"] > cfg.check_slope_max:
                failures.append(
                    f"entropy_md slope {slopes['entropy_md']:.3f} > {cfg.check_slope_max}"
                )
    elif exp == "regime":
        for r in result:
            if r.mean_excess > REGIME_ENVELOPE_FACTOR * r.envelope:
                failures.append(
                    f"n={r.n}: excess {r.mean_excess:.6g} > "
                    f"{REGIME_ENVELOPE_FACTOR} * envelope {r.envelope:.6g}"
                )
    elif exp == "margin":
        for r in result:
            if r.rhs < r.holdout_error:
                failures.append(
                    f"gamma={r.gamma}: rhs {r.rhs:.6g} < holdout {r.holdout_error:.6g}"
                )
    return (not failures, failures)


def run_and_emit(cfg: ExperimentConfig) -> tuple[object, float]:
    """Run the experiment; write CSV + metadata when an output prefix is set."""
    start = time.perf_counter()
    result = run_experiment(cfg)
    wall = time.perf_counter() - start
    if cfg.out:
        write_csv(f"{cfg.out}.csv", cfg.experiment, result)
        write_meta(f"{cfg.out}.meta.json", cfg, wall)
    return result, wall
