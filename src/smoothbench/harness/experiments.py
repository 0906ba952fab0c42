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
import os
import platform
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import __version__ as _pkg_version
from ..batch import (
    STABILITY_MIN_REPLICATES,
    TERM_MAX_ITERS,
    _l1_constrained_erm,
    excess_risk,
    lambda_for,
    mean_stderr,
    solve_regularized_erm,
    stability_probe,
)
from ..bounds import (
    FunctionClassSpec,
    empirical_rademacher,
    margin_bound,
    margin_domain_error,
    margin_empirical_error,
)
from ..distributions import (
    HardDistribution,
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
    is_feasible,
)
from ..losses import make_smooth_ramp, make_squared
from ..online import regret_bound, run_mirror_descent_batch, stepsize_for
from .config import (
    ConfigError,
    ExperimentConfig,
    fill_unset,
    make_distribution,
    parse_distribution,
    require_choice,
)

REGRET_SLACK = 1e-9
REGIME_ENVELOPE_FACTOR = 8.0
SPARSE_SLOPE_MAX = -0.85  # sparse --check: entropy_md's greatest slope without noise
_HOLDOUT_BLOCK = 1024  # margin's holdout rows drawn at a time
_SLOPE_MIN_ROWS = 3  # fit_slope's least number of usable rows
_PREMISE_SEED = 0  # the premises' trial constructions; no constructor rule reads the seed


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
    if len(pts) < _SLOPE_MIN_ROWS:
        raise ValueError(
            f"need at least {_SLOPE_MIN_ROWS} rows with positive means, have {len(pts)}"
        )
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
    # regularized-ERM solves at this n that stopped at max_iters
    max_iters_hits: int = _column(None, default=0)
    # whether lower_bound holds this row: it is the exact ERM's floor, so
    # only for learner = erm, and only where the design realises it at n
    floor_applies: bool = _column(None, default=True)


def run_rate_experiment(cfg: ExperimentConfig) -> list:
    """Replicate-mean excess risk of the configured learner across n_grid;
    the mirror-descent replicates of a grid point run as one batch.

    The smooth-loss learners take H from the family's loss: every family
    has unit-norm instances (basis vectors, or the scalar {0, 1}), so the
    loss's constant is also the smoothness of w -> loss(<w, x>, y)."""
    rows = []
    for i, n in enumerate(cfg.n_grid):

        def draw(j):
            dist = make_distribution(
                cfg.distribution, n, cfg.dim, seed_for(cfg.seed, "rate-dist", i, j)
            )
            return dist, dist.sample(n, seed_for(cfg.seed, "rate-data", i, j))

        # lazily: the solvers hold one replicate's sample at a time
        replicates = (draw(j) for j in range(cfg.replicates))
        bound, hits = math.nan, 0
        if cfg.learner == "mirror_descent":
            dists, ws, bound = _batched_mirror_descent(cfg, n, replicates)
            excesses = [excess_risk(d, w) for d, w in zip(dists, ws)]
            dist = dists[-1]
        else:
            excesses = []
            for dist, data in replicates:
                if cfg.learner == "erm":
                    w = erm_exact(dist, data)
                else:
                    setup = euclidean_setup(dist.dim, cfg.budget)
                    smoothness = dist.loss.smoothness_H
                    lam = lambda_for(smoothness, setup.f_max, n, dist.l_star)
                    bound = 256.0 * smoothness * setup.f_max / n + math.sqrt(
                        2048.0 * smoothness * setup.f_max * dist.l_star / n
                    )
                    report = solve_regularized_erm(setup, dist.loss, data, lam, tol=cfg.tol)
                    hits += report.termination == TERM_MAX_ITERS
                    w = report.w
                excesses.append(excess_risk(dist, w))
        try:
            lower = lower_bound_value(dist, n)
        except ValueError:
            lower = math.nan
        mean, stderr = mean_stderr(excesses)
        rows.append(
            RateRow(
                n=n, mean=mean, stderr=stderr, bound=bound, lower_bound=lower,
                max_iters_hits=hits,
                floor_applies=cfg.learner == "erm" and lower_bound_applies(dist, n),
            )
        )
    return rows


def rate_slope(rows) -> float:
    """Log-log slope of the rate rows' mean excess over n."""
    return fit_slope([r.n for r in rows], [r.mean for r in rows])[0]


def _family_defaults(cfg: ExperimentConfig):
    """Fill in the configured family's budget and dim, and return it."""
    family, _ = parse_distribution(cfg.distribution)
    if family.dim is None and cfg.dim is not None:
        raise ConfigError(f"distribution {cfg.distribution!r} does not read 'dim'")
    fill_unset(cfg, {"budget": family.budget, "dim": family.dim})
    return family


def _rate_defaults(cfg: ExperimentConfig) -> None:
    fill_unset(cfg, _family_defaults(cfg).rate)
    require_choice("learner", cfg.learner, ("erm", "regularized_erm", "mirror_descent"))


def _family_premises(cfg: ExperimentConfig, exact_erm: bool) -> None:
    """The premises of a run on the configured family (rate, stability);
    `exact_erm`: the run solves the exact ERM, not a smooth-loss learner."""
    dist = make_distribution(cfg.distribution, cfg.n_grid[0], cfg.dim, _PREMISE_SEED)
    if not exact_erm:
        dist.loss.smoothness_H  # raises for a non-smooth loss
    elif not isinstance(dist, HardDistribution):
        raise ValueError("the family has no exact ERM; use regularized_erm or mirror_descent")
    euclidean_setup(dist.dim, cfg.budget)


def _check_rate(cfg: ExperimentConfig, rows) -> list:
    # a nan threshold or bound compares false: that check is off
    factor, slope_min, slope_max = parse_distribution(cfg.distribution)[0].rate_check
    failures = _max_iters_failures(rows)
    failures += [
        f"n={r.n}: mean {r.mean:.6g} < {factor} * lower bound {r.lower_bound:.6g}"
        for r in rows if r.floor_applies and r.mean < factor * r.lower_bound
    ]
    failures += [
        f"n={r.n}: mean {r.mean:.6g} above bound {r.bound:.6g}"
        for r in rows if r.mean > r.bound + REGRET_SLACK
    ]
    slope = rate_slope(rows)
    if slope > slope_max:
        failures.append(f"slope {slope:.3f} > {slope_max}")
    if slope < slope_min:
        failures.append(f"slope {slope:.3f} < {slope_min}")
    return failures


def _batched_mirror_descent(cfg, n, replicates) -> tuple[list, np.ndarray, float]:
    """(distributions, averaged iterates, regret bound) of one mirror-descent
    run per (distribution, sample) replicate, played as one batch. Basis
    designs stay indices. The family's constants (dimension, loss, L*) do
    not depend on the replicate's seed."""
    dists, ys, design = [], np.empty((cfg.replicates, n)), None
    for j, (dist, data) in enumerate(replicates):
        dists.append(dist)
        if data.basis_idx is None:
            part, dtype = data.xs, float
        else:  # the narrowest integer type that holds every index
            part, dtype = data.basis_idx, np.min_scalar_type(dist.dim - 1)
        if design is None:
            design = np.empty((cfg.replicates,) + part.shape, dtype=dtype)
        design[j] = part
        ys[j] = data.ys
    setup = euclidean_setup(dist.dim, cfg.budget)
    smoothness = dist.loss.smoothness_H  # unit-norm instances
    eta = stepsize_for(smoothness, setup.f_max, n, dist.l_star)
    if data.basis_idx is not None:  # one-hot rows; each Dataset checked its indices
        basis, idx = np.eye(dist.dim), design
        design = lambda i: basis[idx[:, i]]
    run = run_mirror_descent_batch(setup, dist.loss, ys, eta, xs=design, record_losses=False)
    return dists, run.averages, regret_bound(smoothness, setup.f_max, n, dist.l_star)


@dataclass(frozen=True)
class RegretRow:
    stream: str
    n: int
    seed_index: int
    measured: float
    bound: float
    lbar: float


def _sphere_rows(rng: np.random.Generator, n: int, dim: int, out=None) -> np.ndarray:
    """n uniform unit vectors, written into `out` when given."""
    xs = rng.standard_normal((n, dim), out=out)
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    return xs


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

    Each comparator's hindsight loss is known before its run: 0 on the
    i.i.d. stream (its labels are the generating vector's predictions),
    the zero vector's exact loss on a fixed one, and 1/2 against the
    adversary. A row's regret is the run's average loss minus it.

    The replicates of the i.i.d. and fixed streams at one n run as one
    batch each. The adaptive adversary is deterministic (it has no seed),
    so every replicate would play the same run: it is played once per n,
    and each replicate's row carries that run's regret. Rows come out per
    replicate, in stream order.
    """
    loss = make_squared()
    dim, reps = cfg.dim, cfg.replicates
    setup = euclidean_setup(dim, cfg.budget)
    kinds = cfg.methods
    rows = []
    for i, n in enumerate(cfg.n_grid):

        def draws(j):
            """Replicate j's generator, after it has drawn the unit comparator."""
            rng = np.random.default_rng(seed_for(cfg.seed, "regret", i, j))
            w_star = rng.standard_normal(dim)
            return rng, w_star / float(np.linalg.norm(w_star))

        by_kind = []  # one list of replicate rows per stream kind
        if "iid_separable" in kinds:
            w_stars = np.array([draws(j)[1] for j in range(reps)])
            xs, ys = np.empty((reps, n, dim)), np.empty((reps, n))
            for j in range(reps):
                rng = np.random.default_rng(seed_for(cfg.seed, "regret-iid", i, j))
                _sphere_rows(rng, n, dim, out=xs[j])
                ys[j] = xs[j] @ w_stars[j]
            measured = _measured_regret(setup, loss, xs, ys, [0.0] * reps, 0.0)
            by_kind.append(_regret_rows("iid_separable", setup, n, measured, [0.0] * reps))
            del xs, ys  # one stacked design alive at a time

        if "fixed_adversarial" in kinds:
            xs, ys = np.empty((reps, n, dim)), np.empty((reps, n))
            for j in range(reps):
                rng, _ = draws(j)
                _sphere_rows(rng, n, dim, out=xs[j])
                ys[j] = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)
            hindsight = loss.value(0.0, ys).mean(axis=-1).tolist()  # the zero vector's
            if cfg.lbar_mode == "auto":
                by_kind.append(_doubling_lbar_rows(setup, loss, xs, ys, hindsight))
            else:
                measured = _measured_regret(setup, loss, xs, ys, hindsight, hindsight)
                by_kind.append(_regret_rows("fixed_adversarial", setup, n, measured, hindsight))
            del xs, ys

        if "adaptive" in kinds:
            # e_(i mod d) against the sign of w_i[i mod d]; the zero vector pays 1/2 a round
            eta = stepsize_for(1.0, setup.f_max, n, 0.5)
            run = run_mirror_descent_batch(
                setup, loss, lambda pred: np.where(pred >= 0, -1.0, 1.0), eta,
                xs=np.eye(dim)[np.arange(n) % dim],
            )
            measured = [run.losses.mean() - 0.5] * reps
            by_kind.append(_regret_rows("adaptive", setup, n, measured, [0.5] * reps))
        for j in range(reps):
            rows.extend(kind_rows[j] for kind_rows in by_kind)
    return rows


def _measured_regret(setup, loss, xs, ys, lbars, hindsight) -> np.ndarray:
    """Average regret of one mirror-descent run per stream, played at the
    theory step for its Lbar (the Lbars broadcast against the streams'
    leading axes; smoothness 1: squared loss, ||x||_2 = 1 rows), against a
    comparator whose hindsight loss is known before the run."""
    eta = [stepsize_for(1.0, setup.f_max, ys.shape[-1], lbar) for lbar in lbars]
    run = run_mirror_descent_batch(setup, loss, ys, eta, xs=xs)
    return run.losses.mean(axis=-1) - np.asarray(hindsight)


def _regret_rows(stream_kind, setup, n, measured, lbars) -> list:
    """One row per replicate j, with its measured regret and its Lbar."""
    return [
        RegretRow(
            stream=stream_kind,
            n=n,
            seed_index=j,
            measured=float(m),
            bound=regret_bound(1.0, setup.f_max, n, lbar),
            lbar=lbar,
        )
        for j, (m, lbar) in enumerate(zip(measured, lbars))
    ]


def _regret_premises(cfg: ExperimentConfig) -> None:
    setup = euclidean_setup(cfg.dim, cfg.budget)
    # the i.i.d. stream compares against a unit vector; the others against zero
    if "iid_separable" in cfg.methods:
        _unit_vectors_fit(cfg, setup)


def _unit_vectors_fit(cfg: ExperimentConfig, setup) -> None:
    """Reject a budget whose ball excludes unit-norm vectors."""
    if not is_feasible(setup, np.eye(1, setup.dim)[0]):
        raise ValueError(
            f"budget {cfg.budget} gives a ball of radius {ball_radius(setup):.6g} that "
            f"excludes unit-norm vectors"
        )


def _doubling_lbar_rows(setup, loss, xs, ys, hindsight) -> list:
    """Doubling search over Lbar candidates for each fixed sequence (zero
    comparator, hindsight loss `hindsight`); keeps the best run whose
    comparator hindsight loss actually fits the candidate. The candidates
    are the columns of one batch over all sequences."""
    candidates = [float(loss.range_bound_b) / 2**k for k in range(12)]
    hindsight = np.array(hindsight)[:, None]
    fits = hindsight <= np.array(candidates)  # a prefix of each row
    if not fits[:, 0].all():
        raise ValueError("no Lbar candidate fits the hindsight loss")
    width = int(fits.sum(axis=1).max())
    reps, n, dim = xs.shape
    regret = _measured_regret(
        setup, loss,
        np.broadcast_to(xs[:, None], (reps, width, n, dim)),
        np.broadcast_to(ys[:, None], (reps, width, n)),
        candidates[:width],
        hindsight,
    )
    best = np.where(fits[:, :width], regret, np.inf).argmin(axis=1)  # the first lowest
    return _regret_rows(
        "fixed_adversarial:auto_lbar", setup, n,
        regret[np.arange(reps), best], [candidates[k] for k in best],
    )


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
    # probe solves at this n that stopped at max_iters
    max_iters_hits: int = _column(None)


def run_stability_experiment(cfg: ExperimentConfig) -> list:
    rows = []
    for i, n in enumerate(cfg.n_grid):
        dist = make_distribution(
            cfg.distribution, n, cfg.dim, seed_for(cfg.seed, "stability-dist", i, 0)
        )
        setup = euclidean_setup(dist.dim, cfg.budget)
        # unit-norm instances: H is the loss's (see run_rate_experiment)
        lam = lambda_for(dist.loss.smoothness_H, setup.f_max, n, dist.l_star)
        report = stability_probe(
            setup,
            dist,
            lam,
            n,
            replicates=cfg.replicates,
            seed=seed_for(cfg.seed, "stability", i, 0),
            tol=cfg.tol,
        )
        rows.append(
            StabilityRow(
                n=n, lam=lam, combined_stderr=report.combined_stderr,
                **dataclasses.asdict(report),
            )
        )
    return rows


def _stability_rules(cfg: ExperimentConfig) -> None:
    _family_defaults(cfg)
    if cfg.replicates < STABILITY_MIN_REPLICATES:
        raise ConfigError(f"stability needs replicates >= {STABILITY_MIN_REPLICATES}")


@dataclass(frozen=True)
class SparseRow:
    """One method at one n. `bound` is k·ln(2d)/n + sqrt(k·L(w0)·ln(2d)/n)
    with no constants: a rate reference, not a guarantee (entropy_md can
    sit above it at moderate n)."""

    method: str
    n: int
    dim: int
    k: int
    mean_excess: float
    stderr: float
    bound: float
    # entropy_regerm solves of this row that stopped at max_iters (the l1
    # solve near n = d runs to its cap by design and is not counted)
    max_iters_hits: int = _column(None)


def run_sparse_experiment(cfg: ExperimentConfig) -> list:
    """Sparse-prediction comparison: single-pass entropy mirror descent,
    entropy-regularized ERM, and l1-constrained ERM on the doubled design.

    The mirror-descent step is eta_scale times the formula step evaluated at
    the comparator's Bregman distance from the start (oracle knowledge, like
    the hindsight-loss bound Lbar already is). eta_scale > 1 is a desk calibration, a
    heuristic outside the certified-regret regime; the theory-parameterized
    regret checks live in the regret experiment.

    entropy_md plays an n's replicates as one batch, from an int8 stack of
    their +-1 halves: one float design is alive at a time, never R.
    """
    d0, k, reps = cfg.dim, cfg.sparsity_k, cfg.replicates
    budget = cfg.budget
    bound_dim = 2 * d0
    setup = entropy_setup(bound_dim, budget)
    online = "entropy_md" in cfg.methods
    rows = []
    for i, n in enumerate(cfg.n_grid):
        per_method = {m: [] for m in cfg.methods}
        hits = dict.fromkeys(cfg.methods, 0)
        gens = [sparse_generator(d0, k, seed_for(cfg.seed, "sparse-gen", i, j), noise=cfg.noise)
                for j in range(reps)]
        eta, ys = np.empty(reps), np.empty((reps, n))
        signs = np.empty((reps, n, d0), np.int8) if online else None
        for j, gen in enumerate(gens):
            data = gen.sample_doubled(n, seed_for(cfg.seed, "sparse-data", i, j))
            smoothness = gen.loss.smoothness_H  # ||x||_inf = 1
            if online:
                signs[j], ys[j] = gen.signed_part(data).xs, data.ys
                w0_doubled = np.maximum(np.concatenate([gen.w0, -gen.w0]), 0.0)
                u1 = bregman_divergence(setup, w0_doubled, default_start(setup))
                eta[j] = cfg.eta_scale * stepsize_for(smoothness, u1, n, gen.l_star)
            for method in (m for m in cfg.methods if m != "entropy_md"):  # played below
                if method == "entropy_regerm":
                    lam = lambda_for(smoothness, setup.f_max, n, gen.l_star)
                    report = solve_regularized_erm(
                        setup, gen.loss, data, lam, tol=cfg.tol, max_iters=1000
                    )
                    hits[method] += report.termination == TERM_MAX_ITERS
                    w = report.w
                else:  # l1_erm
                    w = _l1_constrained_erm(gen.signed_part(data), gen.loss, budget).w
                per_method[method].append(gen.true_risk(w) - gen.l_star)
            del data  # one replicate's dataset alive at a time
        if online:  # round t's rows [s, -s], written into one (R, 2, dim) buffer
            pair, flip = np.empty((reps, 2, d0)), np.array([[1.0], [-1.0]])
            ws = run_mirror_descent_batch(
                setup, gen.loss, ys, eta, record_losses=False,
                xs=lambda t: np.multiply(signs[:, t, None], flip, out=pair).reshape(reps, -1),
            ).averages
            per_method["entropy_md"] = [g.true_risk(w) - g.l_star for g, w in zip(gens, ws)]
        del signs  # before the next n's stack
        ref = k * math.log(bound_dim) / n
        bound = ref + math.sqrt(k * gen.l_star * math.log(bound_dim) / n)
        for method, ex in per_method.items():
            mean, stderr = mean_stderr(ex)
            rows.append(
                SparseRow(
                    method=method, n=n, dim=d0, k=k,
                    mean_excess=mean, stderr=stderr, bound=bound,
                    max_iters_hits=hits[method],
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


def _sparse_premises(cfg: ExperimentConfig) -> None:
    sparse_generator(cfg.dim, cfg.sparsity_k, _PREMISE_SEED, noise=cfg.noise)
    entropy_setup(2 * cfg.dim, cfg.budget)


def _check_sparse(cfg: ExperimentConfig, rows) -> list:
    failures = _max_iters_failures(rows, lambda r: f"{r.method} n={r.n}")
    slope = sparse_slopes(rows).get("entropy_md", math.nan)
    if cfg.noise == 0 and slope > SPARSE_SLOPE_MAX:
        failures.append(f"entropy_md slope {slope:.3f} > {SPARSE_SLOPE_MAX}")
    return failures


@dataclass(frozen=True)
class RegimeRow:
    n: int
    mean_excess: float
    stderr: float
    envelope: float
    active_term: str
    lam: float = _column("lambda")
    # solves at this n, over every lambda candidate, that stopped at max_iters
    max_iters_hits: int = _column(None)


def run_regime_experiment(cfg: ExperimentConfig) -> list:
    """Ridge excess across sample sizes vs the three-term regime envelope.

    lambda_policy = "oracle" mimics an optimally chosen lambda: a geometric
    grid descending from the formula value, keeping the candidate with the
    best replicate-mean excess per n. "formula" uses the rule value
    alone (heavily over-regularized at small n; reported as-is).

    Each (n, replicate) dataset is drawn once and solved for every
    candidate; each candidate's excesses stay in replicate order.
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
        excesses = [[] for _ in candidates]
        hits = 0
        for j in range(cfg.replicates):
            gen = regime_generator(d, xb, sigma, seed_for(cfg.seed, "regime-gen", i, j))
            data = gen.sample(n, seed_for(cfg.seed, "regime-data", i, j))
            for lam, ex in zip(candidates, excesses):
                rep = solve_regularized_erm(
                    setup, gen.loss, data, lam, tol=cfg.tol, max_iters=4000
                )
                hits += rep.termination == TERM_MAX_ITERS
                ex.append(gen.true_risk(rep.w) - gen.l_star)
            del data  # one replicate's dataset alive at a time
        best = None
        for lam, ex in zip(candidates, excesses):
            mean, stderr = mean_stderr(ex)
            if best is None or mean < best[0]:
                best = (mean, stderr, lam)
        envelope, term = gen.envelope(n)  # the same for every replicate's w*
        rows.append(
            RegimeRow(
                n=n, mean_excess=best[0], stderr=best[1],
                envelope=envelope, active_term=term, lam=best[2],
                max_iters_hits=hits,
            )
        )
    return rows


def _regime_premises(cfg: ExperimentConfig) -> None:
    regime_generator(cfg.dim, cfg.x_scale, cfg.sigma, _PREMISE_SEED)
    euclidean_setup(cfg.dim, cfg.budget)


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

    def clean_labels(rows):
        """sign(<x, w_true>) with 0 read as +1."""
        signs = np.sign(rows @ w_true)
        signs[signs == 0] = 1.0
        return signs

    def flipped(values):
        """values, each negated with probability label_noise."""
        return np.where(rng.random(values.size) < cfg.label_noise, -values, values)

    xs = _sphere_rows(rng, n, dim)
    ys = flipped(clean_labels(xs))
    setup = euclidean_setup(dim, cfg.budget)
    ramp = make_smooth_ramp(0.5)
    smoothness = ramp.smoothness_H  # ||x||_2 = 1
    eta = stepsize_for(smoothness, setup.f_max, n, cfg.label_noise)
    # the ramp is flat at non-positive margins, so the zero vector is a
    # stationary start; begin from a random unit vector instead
    w_start = rng.standard_normal(dim)
    w_start /= float(np.linalg.norm(w_start))
    w_hat = run_mirror_descent_batch(
        setup, ramp, ys, eta, xs=xs, w_start=w_start, record_losses=False
    ).averages

    scores = xs @ w_hat
    # the holdout is drawn in row blocks, keeping only the sign of each
    # row's clean margin y <x, w_hat> (int8: -1, 0 or +1); the draws come in
    # the same order as one (m, dim) draw. The label flips follow every
    # row, as one m-long draw would, and are drawn and counted block by
    # block too. With labels of +-1, flipping the margin is flipping the
    # label, and a margin's sign alone decides its 0/1 error, flipped or not
    m = 100_000
    blocks = [(start, min(start + _HOLDOUT_BLOCK, m)) for start in range(0, m, _HOLDOUT_BLOCK)]
    signs = np.empty(m, dtype=np.int8)
    for start, stop in blocks:
        block = _sphere_rows(rng, stop - start, dim)
        signs[start:stop] = np.sign(clean_labels(block) * (block @ w_hat))
    wrong = sum(int(np.count_nonzero(flipped(signs[a:b]) <= 0)) for a, b in blocks)
    holdout = wrong / m  # np.mean of the 0/1 errors, exactly
    del signs

    range_b = ball_radius(setup)  # sup |<w, x>| over the class, ||x|| = 1
    cls = FunctionClassSpec("linear_l2_ball", range_b)
    rad = empirical_rademacher(cls, xs, draws=2000, seed=seed_for(cfg.seed, "margin-rad", 0, 1))

    rows = []
    for gamma in cfg.gamma_grid:
        err = margin_empirical_error(scores, ys, gamma)
        inputs = (err, range_b, rad.value, n, gamma, cfg.delta, cfg.bound_k)
        rows.append(
            MarginRow(
                gamma=gamma,
                margin_error=err,
                rhs=margin_bound(*inputs),
                rhs_simplified=margin_bound(*inputs, simplified=True),
                holdout_error=holdout,
            )
        )
    return rows


def _margin_rules(cfg: ExperimentConfig) -> None:
    # margin trains one classifier on one sample
    if len(cfg.n_grid) != 1:
        raise ConfigError(f"margin n_grid must have one entry, got {cfg.n_grid}")
    if cfg.replicates != 1:
        raise ConfigError(f"margin replicates must be 1, got {cfg.replicates}")
    if not 0 < cfg.delta < 1:
        raise ConfigError(f"delta must lie in (0, 1), got {cfg.delta}")
    if not 0 <= cfg.label_noise <= 1:  # also rejects nan
        raise ConfigError(f"label_noise must lie in [0, 1], got {cfg.label_noise}")
    if not 0 < cfg.bound_k < math.inf:
        raise ConfigError(f"bound_k must be positive and finite, got {cfg.bound_k}")


def _margin_premises(cfg: ExperimentConfig) -> None:
    setup = euclidean_setup(cfg.dim, cfg.budget)
    range_b = ball_radius(setup)
    _unit_vectors_fit(cfg, setup)  # the classifier starts at a unit vector
    for gamma in cfg.gamma_grid:
        problem = margin_domain_error(gamma, range_b)
        if problem:
            raise ValueError(f"gamma_grid entry {gamma}: {problem} = {range_b:.6g}")


# ---------------------------------------------------------------------------
# the experiments, emission and checks

def _max_iters_failures(rows, where=lambda r: f"n={r.n}") -> list:
    """A failure for each row whose certified solves stopped at max_iters."""
    return [
        f"{where(r)}: {r.max_iters_hits} solves stopped at max_iters"
        for r in rows if r.max_iters_hits
    ]


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment, declared once: adding an experiment is adding
    one record to EXPERIMENTS."""

    run: Callable  # cfg -> list of rows
    row: type  # the row type; its fields are the CSV columns (see `_column`)
    # cfg -> None: builds what the run builds, once, at the smallest n, so
    # that the constructors' own rules (ValueError) reject a bad config
    premises: Callable
    # every field the experiment reads besides experiment, seed and out,
    # with the value it takes when the config leaves it unset (None: none,
    # or one that `prepare` derives from other fields)
    defaults: dict
    check: Callable  # (cfg, rows) -> the `--check` failure messages
    # cfg -> None: fills the defaults that depend on other fields and
    # enforces the experiment's own config rules (ConfigError)
    prepare: Callable = lambda cfg: None
    fits_slope: bool = False  # whether `check` fits a log-log slope over n_grid


# the CLI's experiments, in its order; the hooks look the constructors up
# when called, so wrappers installed on their names (profilers, tracers)
# see each construction
EXPERIMENTS = {
    "rate": Experiment(
        run_rate_experiment, RateRow,
        lambda cfg: _family_premises(cfg, exact_erm=cfg.learner == "erm"),
        # the family gives learner, n_grid, budget and dim (separable only)
        {"distribution": "separable", "learner": None, "n_grid": None,
         "replicates": 50, "dim": None, "budget": None, "tol": 1e-10},
        check=_check_rate, prepare=_rate_defaults, fits_slope=True),
    "regret": Experiment(
        run_regret_experiment, RegretRow, _regret_premises,
        {"n_grid": (10, 100, 1000, 10000), "replicates": 10, "dim": 8, "budget": 1.0,
         "methods": ("iid_separable", "fixed_adversarial", "adaptive"), "lbar_mode": "exact"},
        check=lambda cfg, rows: [
            f"{r.stream} n={r.n} seed={r.seed_index}: measured {r.measured:.6g} > "
            f"bound {r.bound:.6g}"
            for r in rows if r.measured > r.bound + REGRET_SLACK
        ],
        prepare=lambda cfg: require_choice("lbar_mode", cfg.lbar_mode, ("exact", "auto"))),
    "stability": Experiment(
        run_stability_experiment, StabilityRow,
        lambda cfg: _family_premises(cfg, exact_erm=False),
        {"distribution": "hardB:0.1", "dim": None, "n_grid": (64,),
         "replicates": 200, "budget": None, "tol": 1e-10},
        check=lambda cfg, rows: _max_iters_failures(rows) + [
            f"n={r.n}: lhs {r.lhs_mean:.6g} > rhs {r.rhs_mean:.6g} + 2 stderres"
            for r in rows if r.lhs_mean > r.rhs_mean + 2.0 * r.combined_stderr
        ],
        prepare=_stability_rules),
    "sparse": Experiment(
        run_sparse_experiment, SparseRow, _sparse_premises,
        {"dim": 256, "sparsity_k": 4, "noise": 0.0, "n_grid": tuple(2**k for k in range(7, 13)),
         "replicates": 20, "budget": None, "methods": ("entropy_md", "entropy_regerm", "l1_erm"),
         "tol": 1e-8, "eta_scale": 8.0},
        check=_check_sparse,
        prepare=lambda cfg: fill_unset(cfg, {"budget": 2.0 * math.sqrt(cfg.sparsity_k)}),
        fits_slope=True),
    "regime": Experiment(
        run_regime_experiment, RegimeRow, _regime_premises,
        {"dim": 50, "x_scale": 5.0, "sigma": 0.5, "n_grid": tuple(2**k for k in range(3, 13)),
         "replicates": 12, "budget": 1.0, "tol": 1e-9, "lambda_policy": "oracle"},
        check=lambda cfg, rows: _max_iters_failures(rows) + [
            f"n={r.n}: excess {r.mean_excess:.6g} > "
            f"{REGIME_ENVELOPE_FACTOR} * envelope {r.envelope:.6g}"
            for r in rows if r.mean_excess > REGIME_ENVELOPE_FACTOR * r.envelope
        ],
        prepare=lambda cfg: require_choice(
            "lambda_policy", cfg.lambda_policy, ("oracle", "formula"))),
    "margin": Experiment(
        run_margin_experiment, MarginRow, _margin_premises,
        {"dim": 10, "n_grid": (2048,), "replicates": 1, "budget": 1.0,
         "gamma_grid": (0.05, 0.1, 0.2, 0.4, 0.8), "label_noise": 0.05, "delta": 0.05,
         "bound_k": 1e5},
        check=lambda cfg, rows: [
            f"gamma={r.gamma}: rhs {r.rhs:.6g} < holdout {r.holdout_error:.6g}"
            for r in rows if r.rhs < r.holdout_error
        ],
        prepare=_margin_rules),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_table(experiment: str, result) -> tuple[list, list]:
    """(header, records) of a result: one column per field of the
    experiment's row type, named by the field's `column` metadata if any."""
    columns = [
        (f.name, f.metadata.get("column", f.name))
        for f in dataclasses.fields(EXPERIMENTS[experiment].row)
        if f.metadata.get("column", f.name)
    ]
    return (
        [column for _, column in columns],
        [[getattr(r, name) for name, _ in columns] for r in result],
    )


def write_csv(path: str, experiment: str, result) -> None:
    """Fixed, versioned CSV schema; floats at 17 significant digits so that
    identical configs reproduce byte-identical files."""
    header, records = csv_table(experiment, result)
    lines = [",".join(header)] + [",".join(_fmt(v) for v in record) for record in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB (ru_maxrss counts
    KiB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def write_meta(path: str, cfg: ExperimentConfig, wall_time: float) -> None:
    # read here, not at import, so the build query stays out of start-up time
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "config": dataclasses.asdict(cfg),
        "versions": {
            "smoothbench": _pkg_version,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": {"name": blas["name"], "version": blas["version"]},
            "num_threads": {
                k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
            },
        },
        "wall_time_s": wall_time,
        "peak_rss_mb": _peak_rss_mb(),
        "csv_schema_version": 1,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig) -> list:
    return EXPERIMENTS[cfg.experiment].run(cfg)


def require_checkable(cfg: ExperimentConfig) -> None:
    """Raise ConfigError when `check_result` could not judge the rows of
    this (defaulted) config, before anything runs."""
    if EXPERIMENTS[cfg.experiment].fits_slope and len(cfg.n_grid) < _SLOPE_MIN_ROWS:
        raise ConfigError(
            f"--check fits a slope over n_grid and needs at least {_SLOPE_MIN_ROWS} "
            f"grid points, got {len(cfg.n_grid)}"
        )


def check_result(cfg: ExperimentConfig, result) -> tuple[bool, list]:
    """The experiment's acceptance checks for --check; returns
    (passed, failure messages)."""
    failures = EXPERIMENTS[cfg.experiment].check(cfg, result)
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
