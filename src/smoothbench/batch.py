"""Regularized empirical risk minimization and the expected-stability probe.

The solver minimizes  mean_i phi(<w, x_i>, y_i) + lambda F(w)  over the
setup's constraint set by full-gradient mirror steps with a backtracking
(halving) line search. Termination is certified: lambda-strong convexity of
the objective w.r.t. the setup's primal norm turns a computable residual
into an objective-gap bound, so `tol` means what it says.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MirrorSetup,
    bregman_divergence,
    default_start,
    dual_norm,
    mirror_step,
    regularizer_grad,
    regularizer_value,
)
from .losses import LossSpec

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class Dataset:
    """A sample of (x, y) pairs.

    Either dense rows `xs` of shape (n, d), or — for orthogonal designs
    where every x is a standard basis vector — just the column indices
    `basis_idx`, which keeps the big rate experiments out of dense-matrix
    territory. Both representations answer the same queries.
    """

    ys: np.ndarray
    xs: np.ndarray | None = None
    basis_idx: np.ndarray | None = None
    dim: int = 0
    provenance: str = ""

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "ys", ys)
        if (self.xs is None) == (self.basis_idx is None):
            raise ValueError("exactly one of xs / basis_idx must be given")
        if self.xs is not None:
            xs = np.asarray(self.xs, dtype=float)
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "dim", xs.shape[1])
            n = xs.shape[0]
        else:
            idx = np.asarray(self.basis_idx)
            object.__setattr__(self, "basis_idx", idx)
            if self.dim < 1:
                raise ValueError("basis_idx datasets need an explicit dim")
            n = idx.shape[0]
        if n < 1 or ys.shape != (n,):
            raise ValueError("dataset needs n >= 1 instances with matching targets")

    @property
    def n(self) -> int:
        return self.ys.shape[0]

    def predictions(self, w: np.ndarray) -> np.ndarray:
        """<w, x_i> for every instance."""
        if self.xs is not None:
            return self.xs @ w
        return w[self.basis_idx]

    def grad_combination(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i x_i (the data side of the empirical-risk gradient)."""
        if self.xs is not None:
            return self.xs.T @ v
        return np.bincount(self.basis_idx, weights=v, minlength=self.dim)

    def dense_xs(self) -> np.ndarray:
        if self.xs is not None:
            return self.xs
        out = np.zeros((self.n, self.dim))
        out[np.arange(self.n), self.basis_idx] = 1.0
        return out

    def x_dual_bound(self, geometry: str) -> float:
        """max_i ||x_i|| in the dual norm of the given geometry."""
        if self.xs is None:
            return 1.0
        if geometry == "euclidean":
            return float(np.max(np.linalg.norm(self.xs, axis=1)))
        return float(np.max(np.abs(self.xs)))

    def replace_instance(self, i: int, x: np.ndarray, y: float) -> "Dataset":
        ys = self.ys.copy()
        ys[i] = y
        if self.xs is not None:
            xs = self.xs.copy()
            xs[i] = x
            return Dataset(ys=ys, xs=xs, provenance=self.provenance)
        idx = self.basis_idx.copy()
        idx[i] = int(np.argmax(x))
        return Dataset(ys=ys, basis_idx=idx, dim=self.dim, provenance=self.provenance)


def lambda_for(smoothness_H: float, f_max: float, n: int, lbar: float) -> float:
    """lambda = 128 H / n + sqrt((128 H / n)^2 + 128 H Lbar / (n F)).

    Always exceeds 32 H / n (in fact lambda n >= 128 H), which keeps the
    stability-based excess-risk denominator 1 - 32 H / (lambda n) positive.
    """
    if smoothness_H <= 0 or f_max <= 0:
        raise ValueError("smoothness and regularizer bound must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if lbar < 0:
        raise ValueError("lbar must be nonnegative")
    base = 128.0 * smoothness_H / n
    return base + math.sqrt(base * base + 128.0 * smoothness_H * lbar / (n * f_max))


@dataclass
class SolveReport:
    """Outcome of one regularized-ERM solve.

    objectives[k] is the objective after iteration k (objectives[0] is the
    start value) — non-increasing by the line-search condition.
    certificate is the final certified objective-gap bound, grad_map_norm
    the dual norm of the residual that produced it.
    """

    w: np.ndarray
    objective: float
    iterations: int
    termination: str
    grad_map_norm: float
    certificate: float
    objectives: list = field(default_factory=list)
    certificates: list = field(default_factory=list)

    def diagnostics_json(self) -> str:
        return json.dumps(
            {
                "termination": self.termination,
                "iterations": self.iterations,
                "history": [
                    {"iteration": k, "objective": o, "certificate": c}
                    for k, (o, c) in enumerate(zip(self.objectives, self.certificates))
                ],
            }
        )


def _objective(setup, loss, data, lam, w) -> float:
    emp = float(np.mean(loss.value(data.predictions(w), data.ys)))
    return emp + lam * regularizer_value(setup, w)


def _gradient(setup, loss, data, lam, w) -> np.ndarray:
    resid = np.asarray(loss.derivative(data.predictions(w), data.ys), dtype=float)
    return data.grad_combination(resid) / data.n + lam * regularizer_grad(setup, w)


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
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not loss.is_smooth:
        raise ValueError(f"solver requires a smooth loss, got {loss.name}")
    if not loss.is_convex:
        raise ValueError(f"solver requires convex loss, got {loss.name}")

    w = default_start(setup)
    obj = _objective(setup, loss, data, lam, w)
    objectives = [obj]
    certificates = [None]
    step = 1.0
    grad_map = math.inf
    cert = math.inf
    termination = TERM_MAX_ITERS
    iterations = 0

    for iterations in range(1, max_iters + 1):
        g = _gradient(setup, loss, data, lam, w)
        # halve the step until the Bregman sufficient-decrease test passes
        stalled = False
        while True:
            w_new = mirror_step(setup, w, g, step)
            obj_new = _objective(setup, loss, data, lam, w_new)
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
        g_new = _gradient(setup, loss, data, lam, w_new)
        v = g_new - g - (regularizer_grad(setup, w_new) - regularizer_grad(setup, w)) / step
        grad_map = dual_norm(setup, v)
        cert = grad_map * grad_map / (2.0 * lam)
        w, obj = w_new, obj_new
        objectives.append(obj)
        certificates.append(cert)
        if cert <= tol:
            termination = TERM_TOLERANCE
            break
        step *= 2.0

    return SolveReport(
        w=w,
        objective=obj,
        iterations=iterations,
        termination=termination,
        grad_map_norm=grad_map,
        certificate=cert,
        objectives=objectives,
        certificates=certificates,
    )


STABILITY_MIN_REPLICATES = 30


@dataclass(frozen=True)
class StabilityReport:
    """Monte Carlo estimate of the perturbed-sample stability inequality.

    lhs averages loss(perturbed minimizer, z_i) - loss(minimizer, z_i) at a
    uniformly random kept index i; rhs averages 32 H / (lambda n) times the
    true risk of the minimizer. Standard errors accompany both sides.
    """

    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    replicates: int

    @property
    def combined_stderr(self) -> float:
        return math.sqrt(self.lhs_stderr**2 + self.rhs_stderr**2)


def stability_probe(
    setup: MirrorSetup,
    loss: LossSpec,
    dist,
    lam: float,
    n: int,
    replicates: int,
    seed: int,
    tol: float = 1e-10,
) -> StabilityReport:
    """Estimate both sides of the stability inequality on dist.

    Each replicate draws a sample, solves, redraws one instance (fresh index
    per replicate), resolves, and scores the original instance under both
    minimizers. The rhs uses the distribution's exact risk.
    """
    if replicates < STABILITY_MIN_REPLICATES:
        raise ValueError(f"stability probe needs at least {STABILITY_MIN_REPLICATES} replicates")
    smoothness = loss.smoothness_H * dist.x_dual_bound(setup.geometry) ** 2
    factor = 32.0 * smoothness / (lam * n)
    rng = np.random.default_rng(seed)
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)
    for j in range(replicates):
        data = dist.sample(n, int(rng.integers(2**63)))
        report = solve_regularized_erm(setup, loss, data, lam, tol=tol)
        i = int(rng.integers(n))
        fresh = dist.sample(1, int(rng.integers(2**63)))
        perturbed = data.replace_instance(i, fresh.dense_xs()[0], float(fresh.ys[0]))
        report_i = solve_regularized_erm(setup, loss, perturbed, lam, tol=tol)
        x_i = data.dense_xs()[i]
        y_i = float(data.ys[i])
        lhs[j] = float(loss.value(x_i @ report_i.w, y_i)) - float(
            loss.value(x_i @ report.w, y_i)
        )
        rhs[j] = factor * dist.true_risk(report.w)
    lhs_mean, lhs_stderr = mean_stderr(lhs)
    rhs_mean, rhs_stderr = mean_stderr(rhs)
    return StabilityReport(lhs_mean, lhs_stderr, rhs_mean, rhs_stderr, replicates)


def mean_stderr(values) -> tuple[float, float]:
    """Replicate mean and its standard error; a single replicate has stderr 0."""
    values = np.asarray(values, dtype=float)
    stderr = (
        float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    )
    return float(np.mean(values)), stderr


def excess_risk(dist, w: np.ndarray) -> float:
    """true risk of w minus the distribution's reference risk L*."""
    return dist.true_risk(w) - dist.l_star
