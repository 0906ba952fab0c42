"""Scalar loss catalog with smoothness metadata and self-bounding probes.

Each loss is a plain (t, y) -> value / derivative pair that operates
elementwise on numpy arrays (t is the prediction, y the target; derivatives
are always w.r.t. t). The declared smoothness constant H is the Lipschitz
constant of the derivative in t and feeds the step-size and regularization
formulas downstream, so it must be an honest upper bound: the residual
probes in this module check that on grids.

The factories build each spec once per process (per gamma for the ramp),
since a LossSpec is frozen. The difference losses are functions of |t - y|
that grow with it, so each range bound is the value at the domain corner
t = 4, y = -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_T_DOMAIN = (-4.0, 4.0)
DEFAULT_Y_DOMAIN = (-1.0, 1.0)


class NonSmoothLossError(ValueError):
    """Raised when an operation needs a smoothness constant the loss lacks."""


@dataclass(frozen=True)
class LossSpec:
    """A scalar loss phi(t, y) with its analytic derivative and metadata.

    range_bound_b is sup |phi| over t_domain x y_domain. `smoothness` is
    None exactly when is_smooth is False; use the smoothness_H property,
    which signals non-smooth losses instead of returning garbage.
    """

    name: str
    value: Callable[..., np.ndarray]
    derivative: Callable[..., np.ndarray]
    range_bound_b: float
    t_domain: tuple[float, float] = DEFAULT_T_DOMAIN
    y_domain: tuple[float, float] = DEFAULT_Y_DOMAIN
    is_smooth: bool = True
    is_convex: bool = True
    smoothness: float | None = None

    @property
    def smoothness_H(self) -> float:
        if not self.is_smooth or self.smoothness is None:
            raise NonSmoothLossError(f"non-smooth loss: {self.name}")
        return self.smoothness


@functools.cache
def make_squared() -> LossSpec:
    """Half squared difference (t - y)^2 / 2; 1-smooth, convex."""

    def value(t, y):
        d = np.asarray(t, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * d * d

    def derivative(t, y):
        return np.asarray(t, dtype=float) - np.asarray(y, dtype=float)

    b = float(value(4.0, -1.0))
    return LossSpec("squared", value, derivative, b, smoothness=1.0)


@functools.cache
def make_squared_unhalved() -> LossSpec:
    """Plain squared difference (t - y)^2; 2-smooth, convex.

    Used by the noisy orthogonal-design distribution and the ridge regime
    generator, whose closed-form risks are stated in this convention.
    """

    def value(t, y):
        d = np.asarray(t, dtype=float) - np.asarray(y, dtype=float)
        return d * d

    def derivative(t, y):
        return 2.0 * (np.asarray(t, dtype=float) - np.asarray(y, dtype=float))

    b = float(value(4.0, -1.0))
    return LossSpec("squared2", value, derivative, b, smoothness=2.0)


@functools.cache
def make_smooth_ramp(gamma: float) -> LossSpec:
    """Cosine ramp on the margin m = y*t.

    Value is 1 for m <= 0, (1 + cos(pi m / gamma)) / 2 on the bridge
    0 < m < gamma, and 0 past the margin. Sandwiched between the zero-one
    loss and the gamma-margin zero-one loss; bounded in [0, 1].

    The declared smoothness is the exact curvature peak pi^2 / (2 gamma^2)
    (second derivative of the bridge at its endpoints), so the self-bounding
    residuals hold with no slack.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    scale = math.pi / gamma

    def value(t, y):
        m = np.asarray(y, dtype=float) * np.asarray(t, dtype=float)
        bridge = 0.5 * (1.0 + np.cos(scale * np.clip(m, 0.0, gamma)))
        return np.where(m <= 0, 1.0, np.where(m >= gamma, 0.0, bridge))

    def derivative(t, y):
        y = np.asarray(y, dtype=float)
        m = y * np.asarray(t, dtype=float)
        inside = (m > 0) & (m < gamma)
        slope = -y * (0.5 * scale) * np.sin(scale * np.clip(m, 0.0, gamma))
        return np.where(inside, slope, 0.0)

    H = math.pi**2 / (2.0 * gamma**2)
    return LossSpec(
        f"ramp:{gamma:g}", value, derivative, 1.0, is_convex=False, smoothness=H
    )


@functools.cache
def make_piecewise_quadlin() -> LossSpec:
    """Quadratic within 1/2 of the target, linear with slope 1 beyond.

    phi = (t-y)^2 for |t-y| <= 1/2 and |t-y| - 1/4 otherwise; C^1 at the
    seam with derivative clip(2(t-y), -1, 1). The quadratic branch has
    curvature 2, which is the declared smoothness.
    """

    def value(t, y):
        r = np.asarray(t, dtype=float) - np.asarray(y, dtype=float)
        a = np.abs(r)
        return np.where(a <= 0.5, r * r, a - 0.25)

    def derivative(t, y):
        r = np.asarray(t, dtype=float) - np.asarray(y, dtype=float)
        return np.clip(2.0 * r, -1.0, 1.0)

    b = float(value(4.0, -1.0))
    return LossSpec("quadlin", value, derivative, b, smoothness=2.0)


@functools.cache
def make_absolute() -> LossSpec:
    """Absolute difference |t - y|; convex but not smooth.

    The subgradient is sign(t - y) with sign(0) = 0, which keeps exact
    minimizers deterministic. Querying smoothness_H raises.
    """

    def value(t, y):
        return np.abs(np.asarray(t, dtype=float) - np.asarray(y, dtype=float))

    def derivative(t, y):
        return np.sign(np.asarray(t, dtype=float) - np.asarray(y, dtype=float))

    b = float(value(4.0, -1.0))
    return LossSpec("absolute", value, derivative, b, is_smooth=False)


def self_bound_residual(loss: LossSpec, t, y):
    """sqrt(4 H phi(t, y)) - |phi'(t, y)|.

    Nonnegative everywhere on the domain for a smooth nonnegative loss:
    the derivative is small wherever the value is small.
    """
    H = loss.smoothness_H
    return np.sqrt(4.0 * H * loss.value(t, y)) - np.abs(loss.derivative(t, y))


def pair_bound_residual(loss: LossSpec, t, r, y):
    """6 H (phi(t,y) + phi(r,y)) (t - r)^2 - (phi(t,y) - phi(r,y))^2, >= 0."""
    H = loss.smoothness_H
    ft = loss.value(t, y)
    fr = loss.value(r, y)
    d = np.asarray(t, dtype=float) - np.asarray(r, dtype=float)
    return 6.0 * H * (ft + fr) * d * d - (ft - fr) ** 2


def probe_smoothness(loss: LossSpec, grid_points: int) -> float:
    """Largest difference quotient of phi' over a uniform t grid.

    Adjacent grid pairs realize the maximum over all pairs, since any wider
    quotient is a convex combination of adjacent ones. Probed at both ends
    and the midpoint of the y domain; the result must not exceed the
    declared smoothness.
    """
    loss.smoothness_H  # signals non-smooth losses
    if grid_points < 10:
        raise ValueError(f"grid_points must be >= 10, got {grid_points}")
    t = np.linspace(loss.t_domain[0], loss.t_domain[1], grid_points)
    dt = np.diff(t)
    lo, hi = loss.y_domain
    best = 0.0
    for yv in (lo, 0.5 * (lo + hi), hi):
        d = loss.derivative(t, yv)
        best = max(best, float(np.max(np.abs(np.diff(d)) / dt)))
    return best
