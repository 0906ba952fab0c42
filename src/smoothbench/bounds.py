"""Rademacher-complexity estimation and closed-form risk/margin bound evaluators.

The complexity estimator exploits the closed-form inner supremum for
norm-ball linear classes: sup over the l2 ball is B ||sum_i s_i x_i||_2 / n
and over the l1 ball B ||sum_i s_i x_i||_inf / n, so only the sign average
needs enumeration (exact up to n = 20) or Monte Carlo.

All bound evaluators are plain arithmetic in natural logarithms; log^1.5 n
means (ln n)^(3/2). The leading constant K defaults to 1e5 and is not
tightened here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINEAR_L2_BALL = "linear_l2_ball"
LINEAR_L1_BALL = "linear_l1_ball"

_EXACT_LIMIT = 20
_ENUM_CHUNK = 1 << 14
# Monte Carlo sign rows drawn at a time (1 MiB of signs at n = 2048); a
# remainder shorter than one block joins the last block, so every block has
# at least _SIGN_BLOCK rows. The blocked `signs @ xs` is then the one-shot
# product bit for bit at the margin study's default shape (n = 2048, d = 10):
# OpenBLAS 0.3.31 multiplies blocks of 64 rows or more with the kernel it
# uses for the whole matrix, but 16- to 48-row blocks with another, which
# moves the margin study's rhs by 1 ulp. At other shapes a block may still
# take another kernel than the whole matrix (a few ulps in the estimate).
_SIGN_BLOCK = 64


@dataclass(frozen=True)
class FunctionClassSpec:
    """Linear predictors x -> <w, x> with ||w|| <= budget in the given norm."""

    kind: str
    budget: float
    dim: int

    def __post_init__(self):
        if self.kind not in (LINEAR_L2_BALL, LINEAR_L1_BALL):
            raise ValueError(f"unknown class kind: {self.kind}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    exact: bool
    draws: int


def _sup_values(cls: FunctionClassSpec, signs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sup_h |(1/n) sum_i s_i h(x_i)| for each sign row, via the closed form."""
    n = xs.shape[0]
    combos = signs @ xs  # (m, d): sum_i s_i x_i
    if cls.kind == LINEAR_L2_BALL:
        norms = np.linalg.norm(combos, axis=1)
    else:
        norms = np.max(np.abs(combos), axis=1)
    return cls.budget * norms / n


def _sign_blocks(draws: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the Monte Carlo sign blocks: _SIGN_BLOCK
    rows each, a remainder shorter than one block joining the last."""
    cuts = [k * _SIGN_BLOCK for k in range(max(draws // _SIGN_BLOCK, 1))] + [draws]
    return list(zip(cuts[:-1], cuts[1:]))


def empirical_rademacher(
    cls: FunctionClassSpec,
    xs: np.ndarray,
    draws: int = 2000,
    seed: int | None = None,
) -> RademacherEstimate:
    """E_sigma sup_h |(1/n) sum_i h(x_i) sigma_i| on the given sample.

    Exact enumeration over all 2^n sign vectors when n <= 20 (stderr 0);
    Monte Carlo with a standard error otherwise, which then requires
    draws >= 1. The Monte Carlo signs are drawn in row blocks of
    _SIGN_BLOCK = 64 rows, a shorter remainder joining the last block
    (2,000 draws: 30 blocks of 64 and one of 80), and only each row's
    supremum is kept; consecutive blocks draw the same signs as one
    (draws, n) draw. No block is shorter than 64 rows unless draws is:
    shorter blocks may take another BLAS kernel than the one-shot product.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("xs must have shape (n, d) with n >= 1")
    n = xs.shape[0]
    if n <= _EXACT_LIMIT:
        total = 0.0
        m = 1 << n
        bit_cols = np.arange(n)
        for start in range(0, m, _ENUM_CHUNK):
            block = np.arange(start, min(start + _ENUM_CHUNK, m))
            signs = (((block[:, None] >> bit_cols) & 1) * 2.0 - 1.0)
            total += float(np.sum(_sup_values(cls, signs, xs)))
        return RademacherEstimate(value=total / m, stderr=0.0, exact=True, draws=m)
    if draws < 1:
        raise ValueError("Monte Carlo estimation needs draws >= 1 when n > 20")
    rng = np.random.default_rng(seed)
    vals = np.empty(draws)
    for start, stop in _sign_blocks(draws):
        # no name holds the block, so it is freed before the next is drawn
        vals[start:stop] = _sup_values(cls, rng.choice([-1.0, 1.0], size=(stop - start, n)), xs)
    stderr = float(vals.std(ddof=1) / math.sqrt(draws)) if draws > 1 else math.inf
    return RademacherEstimate(value=float(vals.mean()), stderr=stderr, exact=False, draws=draws)


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients for the closed-form bound evaluators.

    empirical_loss doubles as the margin empirical error for margin bounds.
    Fields irrelevant to a given evaluator may stay None; each evaluator
    validates what it needs.
    """

    empirical_loss: float | None = None
    smoothness_H: float | None = None
    range_b: float | None = None
    rademacher: float | None = None
    n: int | None = None
    delta: float = 0.05
    bound_K: float = 1e5
    margin: float | None = None
    lipschitz_D: float | None = None
    l_star: float | None = None


def _require(inputs: BoundInputs, *names: str) -> None:
    for name in names:
        if getattr(inputs, name) is None:
            raise ValueError(f"missing bound input: {name}")


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def lipschitz_excess_bound(inputs: BoundInputs) -> float:
    """L* + 2 D R_n: the classical Lipschitz-composition excess-risk bound."""
    _require(inputs, "l_star", "lipschitz_D", "rademacher")
    return inputs.l_star + 2.0 * inputs.lipschitz_D * inputs.rademacher


def smooth_risk_bound(inputs: BoundInputs) -> float:
    """Smooth-loss risk bound:

    Lhat + K (sqrt(Lhat) (sqrt(H) (ln n)^1.5 R + sqrt(b ln(1/delta)/n))
              + H (ln n)^3 R^2 + b ln(1/delta)/n)
    """
    _require(inputs, "empirical_loss", "smoothness_H", "range_b", "rademacher", "n")
    _check_delta(inputs.delta)
    lhat, H, b = inputs.empirical_loss, inputs.smoothness_H, inputs.range_b
    r, n, K = inputs.rademacher, inputs.n, inputs.bound_K
    log_n = math.log(n)
    conf = b * math.log(1.0 / inputs.delta) / n
    sqrt_part = math.sqrt(lhat) * (math.sqrt(H) * log_n**1.5 * r + math.sqrt(conf))
    return lhat + K * (sqrt_part + H * log_n**3 * r * r + conf)


def margin_domain_error(gamma: float, b: float) -> str | None:
    """Why gamma lies outside the margin bound's domain 0 < gamma < 4b/e, or None."""
    if gamma <= 0:
        return "margin must be positive"
    if 4.0 * b / gamma <= math.e:
        return "margin too large relative to b"
    return None


def margin_bound(inputs: BoundInputs, simplified: bool = False) -> float:
    """Zero-one risk bound from the gamma-margin empirical error, valid
    simultaneously for all margins:

    err_g + K (sqrt(err_g) ((ln n)^1.5/g R + sqrt(ln(ln(4b/g)/delta)/n))
               + (ln n)^3/g^2 R^2 + ln(ln(4b/g)/delta)/n)

    simplified=True returns the display variant
    1.01 err_g + K (2 (ln n)^3/g^2 R^2 + 2 ln(ln(4b/g)/delta)/n).
    """
    _require(inputs, "empirical_loss", "range_b", "rademacher", "n", "margin")
    _check_delta(inputs.delta)
    gamma, b = inputs.margin, inputs.range_b
    problem = margin_domain_error(gamma, b)
    if problem:
        raise ValueError(problem)
    err, r, n, K = inputs.empirical_loss, inputs.rademacher, inputs.n, inputs.bound_K
    log_n = math.log(n)
    conf = math.log(math.log(4.0 * b / gamma) / inputs.delta) / n
    quad = (log_n**3 / gamma**2) * r * r
    if simplified:
        return 1.01 * err + K * (2.0 * quad + 2.0 * conf)
    sqrt_part = math.sqrt(err) * ((log_n**1.5 / gamma) * r + math.sqrt(conf))
    return err + K * (sqrt_part + quad + conf)


def margin_empirical_error(scores, labels, gamma: float) -> float:
    """Fraction of samples with y h(x) strictly below gamma."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.size == 0:
        raise ValueError("empty input")
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +-1")
    return float(np.mean(labels * scores < gamma))
