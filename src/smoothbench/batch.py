"""Regularized empirical risk minimization, l1-constrained least squares,
and the expected-stability probe.

The solver minimizes  mean_i phi(<w, x_i>, y_i) + lambda F(w)  over the
setup's constraint set by full-gradient mirror steps with a backtracking
(halving) line search. Termination is certified: lambda-strong convexity of
the objective w.r.t. the setup's primal norm turns a computable residual
into an objective-gap bound, so `tol` means what it says. The l1 solve
(the sparse study's comparison method) certifies only the rounding floor
of its non-negative objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EUCLIDEAN,
    MirrorSetup,
    _bregman,
    _regularizer_value,
    _step_kernel,
    check_feasible,
    default_start,
    dual_norm,
    mirror_step,
    regularizer_grad,
)
from .losses import LossSpec, make_squared
from .online import _check_formula_args, _in_range

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITERS = "max_iters"
TERM_STALLED = "stalled"  # the l1 solve's iterate stopped moving

_L1_FLOOR = 1e-15  # the l1 line search's slack, and its self-certifying objective
_L1_PATIENCE = 50  # accepted l1 iterations without progress before a floor stop
_L1_NEAR_FLOOR = 1e-10  # the l1 objective is read from the design below this


@dataclass(frozen=True)
class Dataset:
    """A sample of (x, y) pairs, in one of three kinds:

    - dense: rows `xs` of shape (n, d);
    - basis: for orthogonal designs where every x is a standard basis
      vector, just the column indices `basis_idx`, which keeps the big rate
      experiments out of dense-matrix territory;
    - doubled (`doubled=True`): the rows [x, -x] of the EG+- reduction,
      which lets nonnegative weights represent a signed predictor. `xs`
      holds only the signed half X, of shape (n, d0), and `dim` is 2 d0.

    Every kind answers the same queries, and `replace_instance` swaps
    instances only within one kind.
    """

    ys: np.ndarray
    xs: np.ndarray | None = None
    basis_idx: np.ndarray | None = None
    dim: int = 0
    doubled: bool = False

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        if not np.all(np.isfinite(ys)):
            raise ValueError("ys entries must be finite")
        object.__setattr__(self, "ys", ys)
        if (self.xs is None) == (self.basis_idx is None):
            raise ValueError("exactly one of xs / basis_idx must be given")
        if self.xs is not None:
            xs = np.asarray(self.xs, dtype=float)
            if xs.ndim != 2:
                raise ValueError(f"xs must have shape (n, d), got {xs.shape}")
            if not np.all(np.isfinite(xs)):
                raise ValueError("xs entries must be finite")
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "dim", xs.shape[1] * (2 if self.doubled else 1))
            n = xs.shape[0]
        else:
            if self.doubled:
                raise ValueError("a doubled dataset holds its signed half in xs, not basis_idx")
            idx = np.asarray(self.basis_idx)
            object.__setattr__(self, "basis_idx", idx)
            if self.dim < 1:
                raise ValueError("basis_idx datasets need an explicit dim")
            if idx.shape != ys.shape or idx.dtype.kind not in "iu":
                raise ValueError(f"basis_idx needs integer entries of shape {ys.shape}")
            if idx.size and (idx.min() < 0 or idx.max() >= self.dim):
                raise ValueError(f"basis_idx entries must lie in [0, {self.dim})")
            n = idx.size
        if n < 1 or ys.shape != (n,):
            raise ValueError("dataset needs n >= 1 instances with matching targets")

    @property
    def n(self) -> int:
        return self.ys.shape[0]

    def predictions(self, w: np.ndarray) -> np.ndarray:
        """<w, x_i> for every instance; X (w+ - w-) for a doubled design."""
        if self.doubled:
            d0 = self.xs.shape[1]
            return self.xs @ (w[:d0] - w[d0:])
        if self.xs is not None:
            return self.xs @ w
        return w[self.basis_idx]

    def grad_combination(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i x_i (the data side of the empirical-risk gradient);
        (X^T v, -X^T v) for a doubled design."""
        if self.doubled:
            half = self.xs.T @ v
            return np.concatenate((half, -half))
        if self.xs is not None:
            return self.xs.T @ v
        return np.bincount(self.basis_idx, weights=v, minlength=self.dim)

    def dense_xs(self) -> np.ndarray:
        if self.doubled:
            return np.hstack((self.xs, -self.xs))
        if self.xs is not None:
            return self.xs
        out = np.zeros((self.n, self.dim))
        out[np.arange(self.n), self.basis_idx] = 1.0
        return out

    def replace_instance(self, i: int, source: "Dataset") -> "Dataset":
        """A copy with instance i set to the first instance of `source`, a
        dataset of the same kind (dense, basis or doubled) and dimension: a
        basis design copies its index, a dense or doubled one its row."""
        if self._kind() != source._kind() or source.dim != self.dim:
            raise ValueError(f"source must be a {self._kind()} dataset of dim {self.dim}")
        ys = self.ys.copy()
        ys[i] = source.ys[0]
        if self.xs is not None:
            xs = self.xs.copy()
            xs[i] = source.xs[0]
            return Dataset(ys=ys, xs=xs, doubled=self.doubled)
        idx = self.basis_idx.copy()
        idx[i] = source.basis_idx[0]
        return Dataset(ys=ys, basis_idx=idx, dim=self.dim)

    def _kind(self) -> str:
        if self.doubled:
            return "doubled"
        return "dense" if self.xs is not None else "basis"


def lambda_for(smoothness_H: float, f_max: float, n: int, lbar: float) -> float:
    """lambda = 128 H / n + sqrt((128 H / n)^2 + 128 H Lbar / (n F)).

    Always exceeds 32 H / n (in fact lambda n >= 128 H), which keeps the
    stability-based excess-risk denominator 1 - 32 H / (lambda n) positive.
    Statement (arXiv 1009.3896): stable regularized ERM's lambda, for regularized_erm_bound.
    Premise: an H-smooth non-negative loss of <w, x>, a 1-strongly convex regularizer <= F.
    """
    _check_formula_args(smoothness_H, f_max, n, lbar)
    base = 128.0 * smoothness_H / n
    lam = base + math.sqrt(base * base + 128.0 * smoothness_H * lbar / (n * f_max))
    return _in_range("lambda", lam, smoothness_H, f_max, n, lbar)


@dataclass
class SolveReport:
    """Outcome of one regularized-ERM or l1 solve: the final iterate w, its
    objective, the iterations run, why the solve stopped (`termination`),
    and the certified objective-gap bound at w (`certificate`; inf when the
    solve certified nothing)."""

    w: np.ndarray
    objective: float
    iterations: int
    termination: str
    certificate: float


def _objective(setup, loss, data, lam, w) -> tuple[float, np.ndarray]:
    """The objective at w, and the predictions <w, x_i> it scored.

    add.reduce / n is the sum and division np.mean does, without its
    dispatch.
    """
    preds = data.predictions(w)
    emp = float(np.add.reduce(loss.value(preds, data.ys)) / data.n)
    return emp + lam * _regularizer_value(setup, w), preds


def _gradient(loss, data, lam, preds, reg_grad) -> np.ndarray:
    """The objective's gradient at the point that scored `preds`, whose
    regularizer gradient is `reg_grad`."""
    resid = np.asarray(loss.derivative(preds, data.ys), dtype=float)
    return data.grad_combination(resid) / data.n + lam * reg_grad


def solve_regularized_erm(
    setup: MirrorSetup,
    loss: LossSpec,
    data: Dataset,
    lam: float,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> SolveReport:
    """Minimize the lambda-regularized empirical risk over the setup's set.

    Requires a smooth convex loss (the ramp is rejected). The certificate
    is ||v||_*^2 / (2 lambda) where v = grad f(w+) - grad f(w)
    - (grad F(w+) - grad F(w)) / s is a subgradient of the constrained
    objective at the new iterate w+; the solve stops once that bound drops
    below tol, else reports termination="max_iters" and lets the caller
    decide.

    Feasibility is checked once per iteration and at exit: each
    iteration's first trial goes through `mirror_step`, which checks the
    point it steps from, and the returned w is checked once. The
    backtracking retrials, the objective and the sufficient-decrease margin
    use the unchecked geometry kernels, since a mirror step from a feasible
    point is feasible by construction.

    Each trial computes its predictions once, in `_objective`. The accepted
    trial's predictions and regularizer gradient are carried forward: they
    give both the gradient after the step and the next iteration's.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not loss.is_smooth:
        raise ValueError(f"solver requires a smooth loss, got {loss.name}")
    if not loss.is_convex:
        raise ValueError(f"solver requires convex loss, got {loss.name}")

    euclidean = setup.geometry == EUCLIDEAN
    retrial = _step_kernel(setup)
    w = default_start(setup)
    obj, preds = _objective(setup, loss, data, lam, w)
    reg_grad = regularizer_grad(setup, w)
    step = 1.0
    cert = math.inf
    termination = TERM_MAX_ITERS
    iterations = 0

    for iterations in range(1, max_iters + 1):
        g = _gradient(loss, data, lam, preds, reg_grad)
        # halve the step until the Bregman sufficient-decrease test passes
        stalled = False
        w_new = mirror_step(setup, w, g, step)
        while True:
            obj_new, preds_new = _objective(setup, loss, data, lam, w_new)
            if euclidean:  # one difference gives both terms; _bregman's own value
                dw = w_new - w
                linear = float(g @ dw)
                margin = 0.5 * float(dw @ dw) / step
            else:
                linear = float(g @ (w_new - w))
                margin = _bregman(setup, w_new, w) / step
            if obj_new <= obj + linear + margin + 1e-15 * (1.0 + abs(obj)):
                break
            step *= 0.5
            if step < 1e-18:
                stalled = True
                break
            w_new = retrial(w, g, step)
        if stalled:
            break
        reg_grad_new = regularizer_grad(setup, w_new)
        g_new = _gradient(loss, data, lam, preds_new, reg_grad_new)
        v = g_new - g - (reg_grad_new - reg_grad) / step
        grad_map = dual_norm(setup, v)
        cert = grad_map * grad_map / (2.0 * lam)
        w, obj, preds, reg_grad = w_new, obj_new, preds_new, reg_grad_new
        if cert <= tol:
            termination = TERM_TOLERANCE
            break
        step *= 2.0

    check_feasible(setup, w)
    return SolveReport(
        w=w,
        objective=obj,
        iterations=iterations,
        termination=termination,
        certificate=cert,
    )


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball (sort-and-threshold). A `v`
    inside the ball is returned itself, not a copy."""
    mags = np.abs(v)
    if float(np.add.reduce(mags)) <= radius:
        return v
    u = np.sort(mags)[::-1]
    cumsum = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    k = int(np.nonzero(u * ranks > cumsum - radius)[0][-1])
    tau = (cumsum[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(mags - tau, 0.0)


def _l1_constrained_erm(data: Dataset, radius: float, max_iters: int = 2000) -> SolveReport:
    """Least squares (the half squared loss) on the l1 ball by projected
    gradient with backtracking; the comparison method of the sparse study.

    Gram form: with A = X^T X / n built once, an iteration does one d×d
    product, A g. A trial w - s·g inside the ball scores in closed form,
    f - s·g·g + s²·(g·A g) / 2, and once accepted the next gradient is
    g - s·A g. The design X is read only at the start, by a trial that the
    projection moves (its predictions, and its gradient once accepted),
    and by the floor checks below.

    The loss is non-negative, so f(w) - f* <= f(w): an objective at the
    line search's own slack (_L1_FLOOR) certifies itself. The solve stops
    there once the objective has also made no progress in _L1_PATIENCE
    accepted iterations, where progress is a new low and, at the floor, a
    new low that halves the best (past that point it only creeps at the
    rounding level). The closed-form objective drifts at the rounding
    level of f(0) (about 3e-14), so floor decisions never rest on it: it is
    re-evaluated from the design when it first falls below _L1_NEAR_FLOOR,
    and the stop itself is decided on a direct evaluation. When f* > 0
    the objective never reaches the floor, and near n = d it is still far
    above it at max_iters: those solves end with no certificate.

    The report carries w, the objective, the iterations and the
    termination; `certificate` is f(w) after a floor stop and inf
    otherwise."""
    loss, ys, n = make_squared(), data.ys, data.n

    def evaluate(w):
        """Predictions and objective at w, from the design. add.reduce / n
        is the sum and division np.mean does, without its dispatch."""
        preds = data.predictions(w)
        return preds, float(np.add.reduce(loss.value(preds, ys)) / n)

    xs = data.dense_xs()  # a doubled design's [X, -X]: the sparse study passes X alone
    gram = xs.T @ xs
    gram /= n
    w = np.zeros(data.dim)
    preds, obj = evaluate(w)
    g = data.grad_combination(loss.derivative(preds, ys)) / n
    evaluated = best = obj  # the last objective read from the design
    since_best = 0
    step = 1.0
    termination, cert = TERM_MAX_ITERS, math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        ag = gram @ g
        gg, gag = float(g @ g), float(g @ ag)
        while True:
            trial = step
            v = w - trial * g
            w_new = _project_l1_ball(v, radius)
            if w_new is v:
                obj_new = obj - trial * gg + 0.5 * trial * trial * gag
                gd, dd = -trial * gg, trial * trial * gg
            else:
                preds_new, obj_new = evaluate(w_new)
                d = w_new - w
                gd, dd = float(g @ d), float(d @ d)
            if obj_new <= obj + gd + dd / (2.0 * trial) + _L1_FLOOR:
                break
            step *= 0.5
            if step < 1e-18:
                break
        if w_new is v:
            g = g - trial * ag
        else:
            g = data.grad_combination(loss.derivative(preds_new, ys)) / n
            evaluated = obj_new
        w, obj = w_new, obj_new
        step *= 2.0
        if obj <= _L1_NEAR_FLOOR < evaluated:
            obj = evaluated = evaluate(w)[1]
        if obj < (0.5 * best if obj <= _L1_FLOOR else best):
            best, since_best = obj, 0
        else:
            since_best += 1
        if math.sqrt(dd) <= 1e-12:  # ||w_new - w||
            termination = TERM_STALLED
            break
        if obj <= _L1_FLOOR and since_best >= _L1_PATIENCE:
            obj = evaluated = evaluate(w)[1]
            if obj <= _L1_FLOOR:
                termination, cert = TERM_TOLERANCE, obj
                break

    return SolveReport(
        w=w,
        objective=obj,
        iterations=iterations,
        termination=termination,
        certificate=cert,
    )


STABILITY_MIN_REPLICATES = 30


@dataclass(frozen=True)
class StabilityReport:
    """Monte Carlo estimate of the perturbed-sample stability inequality.

    lhs averages loss(perturbed minimizer, z_i) - loss(minimizer, z_i) at a
    uniformly random kept index i; rhs averages 32 H / (lambda n) times the
    true risk of the minimizer. Standard errors accompany both sides.
    max_iters_hits counts the solves that stopped at max_iters.
    """

    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    replicates: int
    max_iters_hits: int

    @property
    def combined_stderr(self) -> float:
        return math.sqrt(self.lhs_stderr**2 + self.rhs_stderr**2)


def stability_probe(
    setup: MirrorSetup,
    dist,
    lam: float,
    n: int,
    replicates: int,
    seed: int,
    tol: float = 1e-10,
) -> StabilityReport:
    """Estimate both sides of the stability inequality on dist.

    Each replicate draws a sample, solves, swaps instance i (a fresh index
    per replicate) for a fresh draw of the same kind, resolves, and scores
    the original instance i under both minimizers. The rhs uses the
    distribution's exact risk and the H of dist.loss, which is the
    smoothness in w only for ||x||_2 <= 1 (basis vectors, or the scalar
    {0, 1}: every family the harness probes).
    """
    if replicates < STABILITY_MIN_REPLICATES:
        raise ValueError(f"stability probe needs at least {STABILITY_MIN_REPLICATES} replicates")
    loss = dist.loss

    def unit_norm(sample: Dataset) -> Dataset:
        # a doubled row [x, -x] has twice the squared norm of its half x
        scale = 2.0 if sample.doubled else 1.0
        if sample.xs is not None and scale * np.max(np.sum(sample.xs**2, axis=1)) > 1.0 + 1e-12:
            raise ValueError("stability_probe takes H from the loss, so it needs ||x||_2 <= 1")
        return sample

    factor = 32.0 * loss.smoothness_H / (lam * n)
    rng = np.random.default_rng(seed)
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)
    hits = 0
    for j in range(replicates):
        data = unit_norm(dist.sample(n, int(rng.integers(2**63))))
        report = solve_regularized_erm(setup, loss, data, lam, tol=tol)
        i = int(rng.integers(n))
        fresh = unit_norm(dist.sample(1, int(rng.integers(2**63))))
        perturbed = data.replace_instance(i, fresh)
        report_i = solve_regularized_erm(setup, loss, perturbed, lam, tol=tol)
        hits += sum(r.termination == TERM_MAX_ITERS for r in (report, report_i))
        y_i = float(data.ys[i])
        lhs[j] = float(loss.value(data.predictions(report_i.w)[i], y_i)) - float(
            loss.value(data.predictions(report.w)[i], y_i)
        )
        rhs[j] = factor * dist.true_risk(report.w)
    lhs_mean, lhs_stderr = mean_stderr(lhs)
    rhs_mean, rhs_stderr = mean_stderr(rhs)
    return StabilityReport(lhs_mean, lhs_stderr, rhs_mean, rhs_stderr, replicates, hits)


def mean_stderr(values) -> tuple[float, float]:
    """Replicate mean and its standard error; a single replicate has stderr 0."""
    values = np.asarray(values, dtype=float)
    stderr = (
        float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    )
    return float(np.mean(values)), stderr


def excess_risk(dist, w: np.ndarray) -> float:
    """L(w) - L*, from the family's own form of the excess."""
    return dist.excess(w)
