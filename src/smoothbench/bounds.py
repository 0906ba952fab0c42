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

from .distributions import draw_signs

LINEAR_L2_BALL = "linear_l2_ball"
LINEAR_L1_BALL = "linear_l1_ball"

_EXACT_LIMIT = 20
_ENUM_CHUNK = 1 << 14
# Monte Carlo sign rows scored at a time (1 MiB of signs at n = 2048), in
# one reused block. The last block is zero-padded, so every `signs @ xs`
# product has the one shape (_SIGN_BLOCK, n), OpenBLAS takes one kernel for
# all of them, and a row's sum does not depend on the number of draws.
# (OpenBLAS 0.3.31 multiplies 16- to 48-row blocks of the margin study's
# (2048, 10) shape with another kernel than 64-row ones, 1 ulp apart.)
_SIGN_BLOCK = 64


@dataclass(frozen=True)
class FunctionClassSpec:
    """Linear predictors x -> <w, x> with ||w|| <= budget in the given norm."""

    kind: str
    budget: float

    def __post_init__(self):
        if self.kind not in (LINEAR_L2_BALL, LINEAR_L1_BALL):
            raise ValueError(f"unknown class kind: {self.kind}")
        if not 0 < self.budget < math.inf:
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
    rows each, the last one shorter when draws is not a multiple."""
    return [(a, min(a + _SIGN_BLOCK, draws)) for a in range(0, draws, _SIGN_BLOCK)]


def empirical_rademacher(
    cls: FunctionClassSpec,
    xs: np.ndarray,
    draws: int = 2000,
    seed: int | None = None,
) -> RademacherEstimate:
    """E_sigma sup_h |(1/n) sum_i h(x_i) sigma_i| on the given sample.

    Exact enumeration over all 2^n sign vectors when n <= 20 (stderr 0);
    Monte Carlo with a standard error otherwise, which then requires
    draws >= 1. The Monte Carlo signs fill one reused (_SIGN_BLOCK, n)
    block, and only each row's supremum is kept; the blocks draw the same
    signs as one (draws, n) draw. The last block's unused rows are zeros,
    and their suprema are dropped (2,000 draws: 31 full blocks and one of
    16 rows and 48 zeros).
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
    signs = np.zeros((_SIGN_BLOCK, n))
    for start, stop in _sign_blocks(draws):
        rows = stop - start
        draw_signs(rng, (rows, n), out=signs[:rows])
        signs[rows:] = 0.0
        vals[start:stop] = _sup_values(cls, signs, xs)[:rows]
    stderr = float(vals.std(ddof=1) / math.sqrt(draws)) if draws > 1 else math.inf
    return RademacherEstimate(value=float(vals.mean()), stderr=stderr, exact=False, draws=draws)


def _check_nonnegative(**values: float) -> None:
    # each comparison is false for nan, so nan is rejected with the rest
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_sample(n: int, delta: float, bound_K: float) -> None:
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < bound_K < math.inf:
        raise ValueError(f"bound_K must be positive and finite, got {bound_K}")


def lipschitz_excess_bound(l_star: float, lipschitz_D: float, rademacher: float) -> float:
    """L* + 2 D R_n: the classical Lipschitz-composition excess-risk bound."""
    _check_nonnegative(l_star=l_star, lipschitz_D=lipschitz_D, rademacher=rademacher)
    return l_star + 2.0 * lipschitz_D * rademacher


def smooth_risk_bound(
    empirical_loss: float,
    smoothness_H: float,
    range_b: float,
    rademacher: float,
    n: int,
    delta: float = 0.05,
    bound_K: float = 1e5,
) -> float:
    """Smooth-loss risk bound:

    Lhat + K (sqrt(Lhat) (sqrt(H) (ln n)^1.5 R + sqrt(b ln(1/delta)/n))
              + H (ln n)^3 R^2 + b ln(1/delta)/n)
    """
    _check_sample(n, delta, bound_K)
    _check_nonnegative(empirical_loss=empirical_loss, smoothness_H=smoothness_H,
                       range_b=range_b, rademacher=rademacher)
    lhat, H, r = empirical_loss, smoothness_H, rademacher
    log_n = math.log(n)
    conf = range_b * math.log(1.0 / delta) / n
    sqrt_part = math.sqrt(lhat) * (math.sqrt(H) * log_n**1.5 * r + math.sqrt(conf))
    return lhat + bound_K * (sqrt_part + H * log_n**3 * r * r + conf)


def margin_bound(
    empirical_loss: float,
    range_b: float,
    rademacher: float,
    n: int,
    margin: float,
    delta: float = 0.05,
    bound_K: float = 1e5,
    simplified: bool = False,
) -> float:
    """Zero-one risk bound from the gamma-margin empirical error
    (`empirical_loss`), valid simultaneously for all margins:

    err_g + K (sqrt(err_g) ((ln n)^1.5/g R + sqrt(ln(ln(4b/g)/delta)/n))
               + (ln n)^3/g^2 R^2 + ln(ln(4b/g)/delta)/n)

    simplified=True returns the display variant
    1.01 err_g + K (2 (ln n)^3/g^2 R^2 + 2 ln(ln(4b/g)/delta)/n).
    """
    _check_sample(n, delta, bound_K)
    _check_nonnegative(empirical_loss=empirical_loss, range_b=range_b, rademacher=rademacher)
    gamma, b, err, r = margin, range_b, empirical_loss, rademacher
    # the domain is 0 < gamma < 4b/e, and the bound divides by gamma^2
    if not (gamma > 0 and gamma * gamma > 0):
        raise ValueError(f"margin must be positive with a positive square, got {gamma}")
    if not 4.0 * b / gamma > math.e:
        raise ValueError(f"margin too large relative to b = {b:.6g}: needs < 4b/e, got {gamma}")
    log_n = math.log(n)
    conf = math.log(math.log(4.0 * b / gamma) / delta) / n
    quad = (log_n**3 / gamma**2) * r * r
    if simplified:
        return 1.01 * err + bound_K * (2.0 * quad + 2.0 * conf)
    sqrt_part = math.sqrt(err) * ((log_n**1.5 / gamma) * r + math.sqrt(conf))
    return err + bound_K * (sqrt_part + quad + conf)


def margin_empirical_error(scores, labels, gamma: float) -> float:
    """Fraction of samples with y h(x) strictly below gamma."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not -math.inf < gamma < math.inf:
        raise ValueError(f"gamma must be finite, got {gamma}")
    if scores.size == 0:
        raise ValueError("empty input")
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +-1")
    return float(np.mean(labels * scores < gamma))
