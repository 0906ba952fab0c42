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
import numpy.random  # noqa: F401 -- numpy 2 loads it lazily: at import, not at a run's first draw

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
    margin_empirical_error,
)
from ..distributions import (
    draw_signs,
    draw_unit_vector,
    erm_exact,
    lower_bound_applies,
    lower_bound_value,
    regime_constants,
    regime_generator,
    sparse_constants,
    sparse_generator,
)
from ..geometry import ball_radius, entropy_setup, euclidean_setup, is_feasible
from ..losses import make_smooth_ramp, make_squared
from ..online import _in_range, regret_bound, run_mirror_descent_batch, stepsize_for
from .config import (
    FAMILIES,
    ConfigError,
    ExperimentConfig,
    _MAX_N,
    fill_unset,
    parse_distribution,
)

REGRET_SLACK = 1e-9
REGIME_ENVELOPE_FACTOR = 8.0
SPARSE_SLOPE_MAX = -0.85  # sparse --check: entropy_md's greatest slope without noise
_HOLDOUT_BLOCK = 1024  # margin's holdout rows drawn at a time
_SLOPE_MIN_ROWS = 3  # fit_slope's least number of usable rows
_RAMP_GAMMA = 0.5  # the margin classifier's ramp loss


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
    pairs = list(zip(ns, means))
    pts = [(math.log(n), math.log(m)) for n, m in pairs if m > 0]
    dropped = len(pairs) - len(pts)
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
    the mirror-descent replicates of a grid point run as one batch."""
    family, arg = parse_distribution(cfg.distribution)
    rows = []
    for i, (n, setup, step, bound) in enumerate(_family_plan(cfg, cfg.learner)):

        def draw(j):
            dist = family.build(n, arg, cfg.dim, seed_for(cfg.seed, "rate-dist", i, j))
            return dist, dist.sample(n, seed_for(cfg.seed, "rate-data", i, j))

        # lazily: the solvers hold one replicate's sample at a time
        replicates = (draw(j) for j in range(cfg.replicates))
        hits = 0
        if cfg.learner == "mirror_descent":
            dists, ws = _batched_mirror_descent(setup, step, cfg.replicates, n, replicates)
            excesses = [excess_risk(d, w) for d, w in zip(dists, ws)]
            dist = dists[-1]
        else:
            excesses = []
            for dist, data in replicates:
                if cfg.learner == "erm":
                    w = erm_exact(dist, data)
                else:
                    report = solve_regularized_erm(setup, dist.loss, data, step, tol=cfg.tol)
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


def _family_plan(cfg: ExperimentConfig, learner: str) -> list:
    """(n, setup, step size or λ, bound) of `learner` on the family (rate,
    stability) at each n, from its constants there: hardB's dim grows with n.
    Unit-norm instances (basis vectors, or the scalar {0, 1}): H is the loss's."""
    family, arg = parse_distribution(cfg.distribution)
    if learner == "erm" and family is FAMILIES["separable"]:
        raise ValueError("the family has no exact ERM; use regularized_erm or mirror_descent")
    _fits(cfg.replicates)  # the replicates' excesses, or the probe's values
    plan = []
    for n in cfg.n_grid:
        dim, loss, l_star = family.constants(n, arg, cfg.dim)
        np.empty(dim)  # the run's w*: one too large to allocate raises here, touching no page
        if learner == "regularized_erm":
            _certifiable(cfg.tol, l_star)
        setup = euclidean_setup(dim, cfg.budget)
        step, bound = None, math.nan
        if learner != "erm":  # H raises for a non-smooth loss
            h, f = loss.smoothness_H, setup.f_max
            if learner == "mirror_descent":
                _fits(cfg.replicates, n)  # the batch's targets
                step = _premise(f"budget {cfg.budget}", stepsize_for, h, f, n, l_star)
                _projectable(cfg.budget, setup, loss, step)
                bound = regret_bound(h, f, n, l_star)
            else:
                step = _premise(f"budget {cfg.budget}", lambda_for, h, f, n, l_star)
                bound = 256.0 * h * f / n + math.sqrt(2048.0 * h * f * l_star / n)
        plan.append((n, setup, step, bound))
    return plan


def _fits(*shape: int) -> None:
    """Reject a float64 array of `shape` longer than any, as with_defaults rejects such an n."""
    if math.prod(shape) > _MAX_N:
        raise ValueError(f"an array of shape {shape} would hold more than {_MAX_N} entries, "
                         f"the longest float64 array")


def _premise(keys: str, formula: Callable, *args):
    """formula(*args), as the run calls it; its ValueError names the config `keys`."""
    try:
        return formula(*args)
    except ValueError as exc:
        raise ValueError(f"{keys}: {exc}") from exc


def _projectable(budget: float, setup, loss, eta: float) -> None:
    """Reject a step size whose euclidean step the ball projection cannot
    square (margin needs no check: its ball holds unit vectors, so B >= 1
    and eta <= 1 / (H B^2)). On unit-norm instances the gradient is at most G = sqrt(4 H b),
    since a nonnegative H-smooth loss has |phi'| <= sqrt(4 H phi) and b
    bounds phi; so the projection reads ||w - eta g|| <= B + eta G."""
    reach = ball_radius(setup) + eta * math.sqrt(4.0 * loss.smoothness_H * loss.range_bound_b)
    if not reach * reach < math.inf:
        raise ValueError(f"budget {budget}: step size {eta:g} moves the iterate up to "
                         f"{reach:g}, whose square overflows the ball projection")


def _certifiable(tol: float, l_star: float) -> None:
    """A certified solve's objective sits near L*, and rounds to a multiple
    of L*'s ulp there: no certificate of tol at or below that ulp is met."""
    if tol <= np.spacing(l_star):
        raise ValueError(f"tol {tol:g} is at or below {np.spacing(l_star):g}, "
                         f"one ulp of L* = {l_star:g}")


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


def _batched_mirror_descent(setup, eta, count, n, replicates) -> tuple[list, np.ndarray]:
    """(distributions, averaged iterates) of one mirror-descent run at step
    `eta` per (distribution, sample) replicate, `count` of them, played as
    one batch. Basis designs stay indices."""
    dists, ys, design = [], np.empty((count, n)), None
    for j, (dist, data) in enumerate(replicates):
        dists.append(dist)
        if data.doubled:  # the euclidean families draw dense or basis rows
            raise ValueError("batched mirror descent takes dense or basis designs")
        if data.basis_idx is None:
            part, dtype = data.xs, float
        else:  # the narrowest integer type that holds every index
            part, dtype = data.basis_idx, np.min_scalar_type(dist.dim - 1)
        if design is None:
            design = np.empty((count,) + part.shape, dtype=dtype)
        design[j] = part
        ys[j] = data.ys
    if data.basis_idx is not None:  # one-hot rows; each Dataset checked its indices
        onehot, idx, runs = np.zeros((count, dist.dim)), design, np.arange(count)

        def design(i):
            """Round i's rows, in the one reused buffer: round i - 1's ones
            cleared (at i = 0 none are set yet), round i's set."""
            onehot[runs, idx[:, i - 1]] = 0.0
            onehot[runs, idx[:, i]] = 1.0
            return onehot
    run = run_mirror_descent_batch(setup, dist.loss, ys, eta, xs=design, record_losses=False)
    return dists, run.averages


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

    Each kind of stored stream (i.i.d., fixed) fills one (R, n, d) stack
    per n, allocated before any draw, and _scored_streams plays it as one
    batch: the exact Lbar is the one-candidate case of the doubling search.
    The adaptive adversary is deterministic (it has no seed), so it is
    played once per n, and each replicate's row carries that run's regret.
    Rows come out per replicate, in stream order.
    """
    setup, loss = _regret_plan(cfg)
    h, f = loss.smoothness_H, setup.f_max
    dim, reps = cfg.dim, cfg.replicates
    doubling = np.array([[float(loss.range_bound_b) / 2**k for k in range(12)]])
    rows = []
    for i, n in enumerate(cfg.n_grid):
        by_kind = []  # (stream, regrets, Lbars) per stream kind, one entry per replicate
        for kind in ("iid_separable", "fixed_adversarial"):
            if kind not in cfg.methods:
                continue
            iid = kind == "iid_separable"
            xs, ys = np.empty((reps, n, dim)), np.empty((reps, n))
            for j in range(reps):
                rng = np.random.default_rng(seed_for(cfg.seed, "regret", i, j))
                w_star = draw_unit_vector(rng, dim)  # the i.i.d. comparator; fixed draws past it
                if iid:  # rows from their own generator, labels from w*
                    _sphere_rows(np.random.default_rng(seed_for(cfg.seed, "regret-iid", i, j)),
                                 n, dim, out=xs[j])
                    ys[j] = xs[j] @ w_star
                else:
                    _sphere_rows(rng, n, dim, out=xs[j])
                    ys[j] = draw_signs(rng, n) * rng.uniform(0.2, 1.0, size=n)
            # w* pays 0 on its own labels; the zero vector its exact loss
            hindsight = np.zeros(reps) if iid else loss.value(0.0, ys).mean(axis=-1)
            auto = not iid and cfg.lbar_mode == "auto"
            lbars = doubling if auto else hindsight[:, None]
            stream = f"{kind}:auto_lbar" if auto else kind
            by_kind.append((stream, *_scored_streams(setup, loss, xs, ys, lbars, hindsight)))
            del xs, ys  # one stacked design alive at a time

        if "adaptive" in cfg.methods:
            # e_(i mod d) against the sign of w_i[i mod d]; the zero vector pays 1/2 a round
            eta = stepsize_for(h, f, n, 0.5)
            rounds = np.arange(n)
            design = np.zeros((n, dim))
            design[rounds, rounds % dim] = 1.0
            run = run_mirror_descent_batch(
                setup, loss, lambda pred: np.where(pred >= 0, -1.0, 1.0), eta, xs=design,
            )
            by_kind.append(("adaptive", np.full(reps, run.losses.mean() - 0.5), np.full(reps, 0.5)))
        for j in range(reps):
            rows.extend(
                RegretRow(stream, n, j, float(regrets[j]), regret_bound(h, f, n, float(lbars[j])),
                          float(lbars[j]))
                for stream, regrets, lbars in by_kind
            )
    return rows


def _scored_streams(setup, loss, xs, ys, lbars, hindsight) -> tuple[np.ndarray, np.ndarray]:
    """(regret, Lbar) of each stream of the (R, n, d) stack xs, ys. Each
    stream is played with mirror descent at the theory step of each Lbar
    candidate (H is the loss's: ||x||_2 = 1 rows), and keeps the first
    lowest regret among the candidates at or above its comparator's
    hindsight loss, known before the run. `lbars` is (R, 1), one candidate
    per stream, played as a batch of shape (R,); or (1, K), a grid shared
    by every stream, played as a batch of (R, K') over a broadcast view of
    the stack, K' the most candidates that fit one stream."""
    reps, n, dim = xs.shape
    hindsight = hindsight[:, None]
    fits = hindsight <= lbars  # a prefix of each row: the candidates fall
    if not fits[:, 0].all():
        raise ValueError("no Lbar candidate fits the hindsight loss")
    width = int(fits.sum(axis=1).max())
    lanes = lbars[:, 0] if lbars.shape[1] == 1 else lbars[0, :width]
    if lbars.shape[1] > 1:
        xs, ys = (np.broadcast_to(a[:, None], (reps, width) + a.shape[1:]) for a in (xs, ys))
    eta = [stepsize_for(loss.smoothness_H, setup.f_max, n, lbar) for lbar in lanes.tolist()]
    run = run_mirror_descent_batch(setup, loss, ys, eta, xs=xs)
    regret = run.losses.mean(axis=-1).reshape(reps, -1) - hindsight
    best = np.arange(reps), np.where(fits[:, :width], regret, np.inf).argmin(axis=1)
    return regret[best], np.broadcast_to(lbars, fits.shape)[best]  # the first lowest


def _regret_plan(cfg: ExperimentConfig):
    """The runs' (setup, loss). A stream's step reads the Lbar it draws, in
    [0, b]; eta is monotone in Lbar, so it is checked at both ends."""
    loss = make_squared()
    setup = euclidean_setup(cfg.dim, cfg.budget)
    # the i.i.d. stream compares against a unit vector; the others against zero
    if "iid_separable" in cfg.methods:
        _unit_vectors_fit(cfg, setup)
    for n in cfg.n_grid:
        _fits(cfg.replicates, n, cfg.dim)  # a stream kind's stacked design
        for lbar in (0.0, loss.range_bound_b):
            eta = _premise(f"budget {cfg.budget}", stepsize_for,
                           loss.smoothness_H, setup.f_max, n, lbar)
            _projectable(cfg.budget, setup, loss, eta)
    return setup, loss


def _unit_vectors_fit(cfg: ExperimentConfig, setup) -> None:
    """Reject a budget whose ball excludes unit-norm vectors."""
    if not is_feasible(setup, np.eye(1, setup.dim)[0]):
        raise ValueError(
            f"budget {cfg.budget} gives a ball of radius {ball_radius(setup):.6g} that "
            f"excludes unit-norm vectors"
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
    family, arg = parse_distribution(cfg.distribution)
    rows = []
    for i, (n, setup, lam, _) in enumerate(_family_plan(cfg, "regularized_erm")):
        dist = family.build(n, arg, cfg.dim, seed_for(cfg.seed, "stability-dist", i, 0))
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

    The steps, λ and L* are the plan's (see `_sparse_plan`). eta_scale > 1 is a
    desk calibration, a heuristic outside the certified-regret regime; the
    theory-parameterized regret checks live in the regret experiment.

    Each sample is the doubled Dataset kind, which holds only its signed
    half X (n d floats) and answers for [X, -X]; no doubled array is built.
    entropy_md plays an n's replicates as one batch, from a stack of their
    X packed to bits (R n ceil(d/8) bytes): one float X is alive at a time,
    never R.
    """
    d0, k, reps = cfg.dim, cfg.sparsity_k, cfg.replicates
    setup, l_star, plan = _sparse_plan(cfg)
    online = "entropy_md" in cfg.methods
    rows = []
    for i, (n, eta, lam) in enumerate(plan):
        per_method = {m: [] for m in cfg.methods}
        hits = dict.fromkeys(cfg.methods, 0)
        ys = np.empty((reps, n))
        bits = np.empty((reps, n, -(-d0 // 8)), np.uint8) if online else None
        gens = [sparse_generator(d0, k, seed_for(cfg.seed, "sparse-gen", i, j), noise=cfg.noise)
                for j in range(reps)]
        for j, gen in enumerate(gens):
            data = gen.sample_doubled(n, seed_for(cfg.seed, "sparse-data", i, j))
            if online:
                bits[j] = np.packbits(data.xs > 0, axis=-1)  # the signed half X
                ys[j] = data.ys
            for method in (m for m in cfg.methods if m != "entropy_md"):  # played below
                if method == "entropy_regerm":
                    report = solve_regularized_erm(
                        setup, gen.loss, data, lam, tol=cfg.tol, max_iters=1000
                    )
                    hits[method] += report.termination == TERM_MAX_ITERS
                    w = report.w
                else:  # l1_erm
                    w = _l1_constrained_erm(gen.signed_part(data), cfg.budget).w
                per_method[method].append(excess_risk(gen, w))
            del data  # one replicate's dataset alive at a time
        if online:  # round t's rows [s, -s], unpacked into one (R, 2, dim) buffer
            pair, flip = np.empty((reps, 2, d0)), np.array([[1.0], [-1.0]])
            sign = np.array([-1.0, 1.0])  # of a clear bit and of a set one
            ws = run_mirror_descent_batch(
                setup, gen.loss, ys, eta, record_losses=False,
                xs=lambda t: np.multiply(
                    sign.take(np.unpackbits(bits[:, t, None], axis=-1, count=d0)), flip, out=pair
                ).reshape(reps, -1),
            ).averages
            per_method["entropy_md"] = [excess_risk(g, w) for g, w in zip(gens, ws)]
        del bits  # before the next n's stack
        bound = k * math.log(2 * d0) / n + math.sqrt(k * l_star * math.log(2 * d0) / n)
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


def _sparse_plan(cfg: ExperimentConfig) -> tuple:
    """(setup, L*, [(n, entropy_md step, entropy_regerm λ)]); None for a method
    that does not run. The step is eta_scale times the formula's at the comparator's
    Bregman distance from the uniform start B/2d (oracle knowledge, like Lbar). Every
    member's doubled w0 has k entries w = (1 - noise)/k and 2d - k zeros, so that
    distance is B [(1 - noise) ln(2dw/B) - (1 - noise) + B]; ||x||_inf = 1: H is the loss's."""
    weight, loss, l_star = sparse_constants(cfg.dim, cfg.sparsity_k, cfg.noise)
    _premise("dim", _fits, cfg.replicates, 2 * cfg.dim)  # the entropy iterates, one per replicate
    setup = entropy_setup(2 * cfg.dim, cfg.budget)
    _certifiable(cfg.tol, l_star)
    h, b, mass = loss.smoothness_H, setup.budget, 1.0 - cfg.noise  # mass: ||w0||_1
    u1 = b * (mass * math.log(weight * setup.dim / b) - mass + b)
    plan = []
    for n in cfg.n_grid:
        _fits(cfg.replicates, n)  # the batch's targets
        _fits(n, cfg.dim)  # a replicate's design
        eta = lam = None
        if "entropy_md" in cfg.methods:
            args = (h, u1, n, l_star)
            eta = cfg.eta_scale * _premise(f"budget {cfg.budget}", stepsize_for, *args)
            _premise(f"eta_scale {cfg.eta_scale}", _in_range, "scaled step size", eta, *args)
        if "entropy_regerm" in cfg.methods:
            lam = _premise(f"budget {cfg.budget}", lambda_for, h, setup.f_max, n, l_star)
        plan.append((n, eta, lam))
    return setup, l_star, plan


def _sparse_rules(cfg: ExperimentConfig) -> None:
    try:  # the family's rules before the default budget takes k's square root
        sparse_constants(cfg.dim, cfg.sparsity_k, cfg.noise)
        fill_unset(cfg, {"budget": 2.0 * math.sqrt(cfg.sparsity_k)})
    except (ValueError, OverflowError) as exc:  # or a k <= dim beyond the float range
        raise ConfigError(str(exc)) from exc


def _sparse_fits_slope(cfg: ExperimentConfig) -> bool:
    """Whether `sparse --check` fits a slope: entropy_md's, and only without noise."""
    return cfg.noise == 0 and "entropy_md" in cfg.methods


def _check_sparse(cfg: ExperimentConfig, rows) -> list:
    failures = _max_iters_failures(rows, lambda r: f"{r.method} n={r.n}")
    online = [r for r in rows if r.method == "entropy_md"]  # in n order
    if _sparse_fits_slope(cfg):
        try:  # a slope that cannot be fitted fails the check
            slope = fit_slope([r.n for r in online], [r.mean_excess for r in online])[0]
        except ValueError as exc:
            return failures + [f"entropy_md slope: {exc}"]
        if slope > SPARSE_SLOPE_MAX:
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
    setup, plan = _regime_plan(cfg)
    rows = []
    for i, (n, candidates) in enumerate(plan):
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
                ex.append(excess_risk(gen, rep.w))
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


def _regime_plan(cfg: ExperimentConfig) -> tuple:
    """(setup, [(n, the λ candidates at n)]): the rule's value at the
    family's L* and H = the loss's times E||X||^2 = x_scale^2, then, for the
    oracle policy, a geometric grid below it."""
    loss, l_star = regime_constants(cfg.dim, cfg.x_scale, cfg.sigma)
    h = loss.smoothness_H * cfg.x_scale**2
    setup = euclidean_setup(cfg.dim, cfg.budget)
    plan = []
    for n in cfg.n_grid:
        _fits(n, cfg.dim)  # a replicate's design
        lam = lambda_for(h, setup.f_max, n, l_star)
        candidates = [lam * 4.0 ** (-k) for k in range(1 if cfg.lambda_policy == "formula" else 12)]
        if not candidates[-1] > 0:
            raise ValueError(f"the least lambda candidate {lam:g} / 4^11 rounds to 0 at n = {n}")
        plan.append((n, candidates))
    _certifiable(cfg.tol, l_star)
    return setup, plan


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
    setup, ramp, eta = _margin_plan(cfg)
    rng = np.random.default_rng(seed_for(cfg.seed, "margin", 0, 0))
    w_true = draw_unit_vector(rng, dim)

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
    # the ramp is flat at non-positive margins, so the zero vector is a
    # stationary start; begin from a random unit vector instead
    w_start = draw_unit_vector(rng, dim)
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
    if not 0 <= cfg.label_noise <= 1:
        raise ConfigError(f"label_noise must lie in [0, 1], got {cfg.label_noise}")


def _margin_plan(cfg: ExperimentConfig) -> tuple:
    """(setup, ramp loss, step) of the classifier (||x||_2 = 1: H is the
    ramp's); the bound reads the run's margin error, so is checked at 0."""
    setup = euclidean_setup(cfg.dim, cfg.budget)
    _unit_vectors_fit(cfg, setup)  # the classifier starts at a unit vector
    n = cfg.n_grid[-1]
    _fits(n, cfg.dim)  # the sample
    ramp = make_smooth_ramp(_RAMP_GAMMA)
    eta = _premise(f"budget {cfg.budget}", stepsize_for,
                   ramp.smoothness_H, setup.f_max, n, cfg.label_noise)
    for gamma in cfg.gamma_grid:
        _premise(f"margin bound at gamma_grid entry {gamma}", margin_bound,
                 0.0, ball_radius(setup), 0.0, n, gamma, cfg.delta, cfg.bound_k)
    return setup, ramp, eta


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
    # cfg -> the run's plan: the constants its run reads at each n, from closed
    # forms that draw nothing; with_defaults builds it too, so that the constructors'
    # argument rules and the formulas' rules (ValueError) reject a bad config
    premises: Callable
    # every field the experiment reads besides experiment, seed and out,
    # with the value it takes when the config leaves it unset (None: none,
    # or one that `prepare` derives from other fields)
    defaults: dict
    check: Callable  # (cfg, rows) -> the `--check` failure messages
    # cfg -> None: fills the defaults that depend on other fields and
    # enforces the experiment's own config rules (ConfigError)
    prepare: Callable = lambda cfg: None
    fits_slope: Callable = lambda cfg: False  # cfg -> whether `check` fits a slope over n_grid


# the CLI's experiments, in its order; the hooks look the constructors up
# when called, so wrappers installed on their names (profilers, tracers)
# see each construction
EXPERIMENTS = {
    "rate": Experiment(
        run_rate_experiment, RateRow,
        lambda cfg: _family_plan(cfg, cfg.learner),
        # the family gives learner, n_grid, budget and dim (separable only)
        {"distribution": "separable", "learner": None, "n_grid": None,
         "replicates": 50, "dim": None, "budget": None, "tol": 1e-10},
        check=_check_rate, prepare=lambda cfg: fill_unset(cfg, _family_defaults(cfg).rate),
        fits_slope=lambda cfg: True),
    "regret": Experiment(
        run_regret_experiment, RegretRow, _regret_plan,
        {"n_grid": (10, 100, 1000, 10000), "replicates": 10, "dim": 8, "budget": 1.0,
         "methods": ("iid_separable", "fixed_adversarial", "adaptive"), "lbar_mode": "exact"},
        check=lambda cfg, rows: [
            f"{r.stream} n={r.n} seed={r.seed_index}: measured {r.measured:.6g} > "
            f"bound {r.bound:.6g}"
            for r in rows if r.measured > r.bound + REGRET_SLACK
        ]),
    "stability": Experiment(
        run_stability_experiment, StabilityRow,
        lambda cfg: _family_plan(cfg, "regularized_erm"),
        {"distribution": "hardB:0.1", "dim": None, "n_grid": (64,),
         "replicates": 200, "budget": None, "tol": 1e-10},
        check=lambda cfg, rows: _max_iters_failures(rows) + [
            f"n={r.n}: lhs {r.lhs_mean:.6g} > rhs {r.rhs_mean:.6g} + 2 stderres"
            for r in rows if r.lhs_mean > r.rhs_mean + 2.0 * r.combined_stderr
        ],
        prepare=_stability_rules),
    "sparse": Experiment(
        run_sparse_experiment, SparseRow, _sparse_plan,
        {"dim": 256, "sparsity_k": 4, "noise": 0.0, "n_grid": tuple(2**k for k in range(7, 13)),
         "replicates": 20, "budget": None, "methods": ("entropy_md", "entropy_regerm", "l1_erm"),
         "tol": 1e-8, "eta_scale": 8.0},
        check=_check_sparse, prepare=_sparse_rules, fits_slope=_sparse_fits_slope),
    "regime": Experiment(
        run_regime_experiment, RegimeRow, _regime_plan,
        {"dim": 50, "x_scale": 5.0, "sigma": 0.5, "n_grid": tuple(2**k for k in range(3, 13)),
         "replicates": 12, "budget": 1.0, "tol": 1e-9, "lambda_policy": "oracle"},
        check=lambda cfg, rows: _max_iters_failures(rows) + [
            f"n={r.n}: excess {r.mean_excess:.6g} > "
            f"{REGIME_ENVELOPE_FACTOR} * envelope {r.envelope:.6g}"
            for r in rows if r.mean_excess > REGIME_ENVELOPE_FACTOR * r.envelope
        ]),
    "margin": Experiment(
        run_margin_experiment, MarginRow, _margin_plan,
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
    if EXPERIMENTS[cfg.experiment].fits_slope(cfg) and len(cfg.n_grid) < _SLOPE_MIN_ROWS:
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
