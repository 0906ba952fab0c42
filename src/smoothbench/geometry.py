"""Mirror geometries: norm/regularizer pairs, Bregman machinery, mirror steps.

Two geometries are supported:

  euclidean  F(w) = ||w||_2^2 / 2 over the ball ||w||_2 <= sqrt(2) B,
             so that feasibility is exactly F(w) <= B^2; F_max = B^2.
  entropy    F(w) = B sum_i w_i log(d w_i) + B^2 / e over
             {w >= 0, ||w||_1 <= B}; requires B >= 1 (otherwise F dips
             negative on the set); F_max = B^2 log(B d) + B^2 / e, the
             exact supremum, attained at a single-coordinate vertex.

Both regularizers are 1-strongly convex w.r.t. their primal norm (l2 and
l1 respectively), which is what the step-size and lambda formulas assume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
ENTROPY = "entropy"

# exp() argument cap for multiplicative updates; keeps extreme gradients
# from overflowing without changing any realistic step
_EXP_CLIP = 700.0

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class MirrorSetup:
    """A geometry, its dimension, the norm budget B, and sup F over the set."""

    geometry: str
    dim: int
    budget: float
    f_max: float


def euclidean_setup(dim: int, budget: float) -> MirrorSetup:
    try:
        f_max = float(budget) ** 2
    except OverflowError:
        f_max = math.inf
    # F = B^2 rounds to 0 or overflows for a budget at the float range's ends
    if dim < 1 or not budget > 0 or not 0 < f_max < math.inf:
        raise ValueError(f"euclidean setup needs dim >= 1 and budget > 0 with 0 < B^2 < inf, "
                         f"got dim {dim}, budget {budget}")
    return MirrorSetup(EUCLIDEAN, dim, float(budget), f_max)


def entropy_setup(dim: int, budget: float) -> MirrorSetup:
    if dim < 1:
        raise ValueError("entropy setup needs dim >= 1")
    if not 1.0 <= budget < math.inf:
        raise ValueError(f"entropy geometry requires budget >= 1, got {budget}")
    b = float(budget)
    f_max = b * b * math.log(b * dim) + b * b / math.e
    if f_max == math.inf:
        raise ValueError(f"entropy geometry needs a finite F_max, got inf at budget {budget}")
    return MirrorSetup(ENTROPY, dim, b, f_max)


def ball_radius(setup: MirrorSetup) -> float:
    """Euclidean constraint radius sqrt(2) B."""
    if setup.geometry != EUCLIDEAN:
        raise ValueError("ball_radius is a euclidean-only notion")
    return math.sqrt(2.0) * setup.budget


def is_feasible(setup: MirrorSetup, w: np.ndarray) -> bool:
    w = np.asarray(w, dtype=float)
    if w.shape != (setup.dim,):
        return False
    if setup.geometry == EUCLIDEAN:
        # the same number np.linalg.norm(w) gives for a 1-D float vector, at less cost
        return math.sqrt(float(w @ w)) <= math.sqrt(2.0) * setup.budget * (1.0 + _FEAS_TOL)
    if np.min(w) < -_FEAS_TOL * setup.budget:
        return False
    return float(np.sum(w)) <= setup.budget * (1.0 + _FEAS_TOL)


def check_feasible(setup: MirrorSetup, w: np.ndarray) -> None:
    if not is_feasible(setup, w):
        raise ValueError(
            f"infeasible point for {setup.geometry} setup "
            f"(dim={setup.dim}, budget={setup.budget})"
        )


def regularizer_value(setup: MirrorSetup, w: np.ndarray) -> float:
    """F(w); nonnegative on the constraint set."""
    w = np.asarray(w, dtype=float)
    value = _regularizer_value(setup, w)  # a negative entropy coordinate raises first
    check_feasible(setup, w)
    return value


def _regularizer_value(setup: MirrorSetup, w: np.ndarray) -> float:
    """F(w) without the feasibility check (callers validate once)."""
    if setup.geometry == EUCLIDEAN:
        return 0.5 * float(w @ w)
    if np.any(w < 0):
        raise ValueError("negative coordinate in entropy geometry")
    b, d = setup.budget, setup.dim
    pos = w[w > 0]
    return b * float(np.sum(pos * np.log(d * pos))) + b * b / math.e


def regularizer_grad(setup: MirrorSetup, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if setup.geometry == EUCLIDEAN:
        return w.copy()
    if np.any(w <= 0):
        raise ValueError("gradient undefined at boundary of entropy geometry")
    return setup.budget * (np.log(setup.dim * w) + 1.0)


def dual_norm(setup: MirrorSetup, v: np.ndarray) -> float:
    """l2 for the euclidean geometry, l-infinity for the entropy (l1) one."""
    v = np.asarray(v, dtype=float)
    if setup.geometry == EUCLIDEAN:
        # the same number np.linalg.norm(v) gives for a 1-D float vector, at less cost
        return math.sqrt(float(v @ v))
    return float(np.max(np.abs(v))) if v.size else 0.0


def default_start(setup: MirrorSetup) -> np.ndarray:
    """Zero vector (euclidean) or the uniform vector B/d (entropy).

    The uniform start keeps every entropy coordinate live: multiplicative
    updates never revive a zeroed coordinate.
    """
    if setup.geometry == EUCLIDEAN:
        return np.zeros(setup.dim)
    return np.full(setup.dim, setup.budget / setup.dim)


def mirror_step(setup: MirrorSetup, w: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """One mirror-descent step from w along gradient g with step size eta.

    euclidean: radial projection of w - eta g onto the ball.
    entropy:   multiplicative update w_i exp(-eta g_i / B), then rescale to
               l1 norm B if the update left the set (this conditional
               rescaling is the exact entropy-Bregman projection onto
               {w >= 0, ||w||_1 <= B}).
    """
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    check_feasible(setup, w)
    if setup.geometry == EUCLIDEAN:
        return _euclidean_step(w, g, eta, ball_radius(setup))
    return _entropy_step(w, g, eta, setup.budget)


def _step_kernel(setup: MirrorSetup):
    """The unchecked step (w, g, eta) -> w' of the setup's geometry.

    It acts on (..., d) stacks row by row; eta is a scalar or broadcasts
    against g (shape (..., 1)). Callers validate once: a step from a
    feasible point with eta > 0 is feasible by construction.
    """
    if setup.geometry == EUCLIDEAN:
        radius = ball_radius(setup)
        return lambda w, g, eta: _euclidean_step(w, g, eta, radius)
    return lambda w, g, eta: _entropy_step(w, g, eta, setup.budget)


# A stack rescales every row, by exactly 1.0 where it is inside the set. A
# single euclidean vector takes the same branch in scalar arithmetic, which
# costs less per call: the certified solve steps one vector per trial. The
# results are bit-identical (the tests compare them).


def _euclidean_step(w, g, eta, radius: float) -> np.ndarray:
    v = w - eta * g
    r = np.sqrt(np.vecdot(v, v))
    if v.ndim == 1:
        if r > radius:
            v *= radius / float(r)
        return v
    v *= (radius / np.maximum(r, radius))[..., None]
    return v


def _entropy_step(w, g, eta, budget: float) -> np.ndarray:
    h = w * np.exp(np.clip(-eta * g / budget, -_EXP_CLIP, _EXP_CLIP))
    h *= (budget / np.maximum(h.sum(axis=-1), budget))[..., None]
    return h


def bregman_divergence(setup: MirrorSetup, w: np.ndarray, wp: np.ndarray) -> float:
    """F(w) - F(wp) - <grad F(wp), w - wp>; nonnegative by convexity.

    For the entropy geometry this is B times the generalized KL divergence,
    computed in that form directly (no cancellation of log terms); wp must
    be strictly positive.
    """
    w = np.asarray(w, dtype=float)
    wp = np.asarray(wp, dtype=float)
    check_feasible(setup, w)
    check_feasible(setup, wp)
    return _bregman(setup, w, wp)


def _bregman(setup: MirrorSetup, w: np.ndarray, wp: np.ndarray) -> float:
    """D_F(w, wp) without the feasibility checks (callers validate once)."""
    if setup.geometry == EUCLIDEAN:
        d = w - wp
        return 0.5 * float(d @ d)
    if np.any(wp <= 0):
        raise ValueError("gradient undefined at boundary of entropy geometry")
    if np.any(w < 0):
        raise ValueError("negative coordinate in entropy geometry")
    terms = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0) / wp), 0.0)
    return setup.budget * float(np.sum(terms) - np.sum(w) + np.sum(wp))

