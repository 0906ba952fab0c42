"""Scalar loss catalog with smoothness metadata.

Each loss is a plain (t, y) -> value / derivative pair that operates
elementwise on numpy arrays (t is the prediction, y the target; derivatives
are always w.r.t. t). The declared smoothness constant H is the Lipschitz
constant of the derivative in t and feeds the step-size and regularization
formulas downstream, so it must be an honest upper bound: the test
suite's probes (tests/probes.py) check that and the self-bounding
residuals on grids.

The factories build each spec once per process (per gamma for the ramp),
since a LossSpec is frozen. The difference losses are functions of
r = t - y, built by one helper; each grows with |r|, so its range bound is
the value at the domain corner t = 4, y = -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np


class NonSmoothLossError(ValueError):
    """Raised when an operation needs a smoothness constant the loss lacks."""


@dataclass(frozen=True)
class LossSpec:
    """A scalar loss phi(t, y) with its analytic derivative and metadata.

    range_bound_b is sup |phi| over t_domain x y_domain. A loss is smooth
    exactly when it declares a `smoothness` constant; use the smoothness_H
    property, which signals non-smooth losses instead of returning garbage.
    """

    name: str
    value: Callable[..., np.ndarray]
    derivative: Callable[..., np.ndarray]
    range_bound_b: float
    is_convex: bool = True
    smoothness: float | None = None
    t_domain: ClassVar[tuple[float, float]] = (-4.0, 4.0)
    y_domain: ClassVar[tuple[float, float]] = (-1.0, 1.0)

    @property
    def is_smooth(self) -> bool:
        return self.smoothness is not None

    @property
    def smoothness_H(self) -> float:
        if self.smoothness is None:
            raise NonSmoothLossError(f"non-smooth loss: {self.name}")
        return self.smoothness


def _difference_loss(name, phi, dphi, smoothness=None) -> LossSpec:
    """The loss phi(r) of r = t - y, with derivative dphi(r); its range
    bound is the value at the domain corner t = 4, y = -1."""

    def value(t, y):
        return phi(np.asarray(t, dtype=float) - np.asarray(y, dtype=float))

    def derivative(t, y):
        return dphi(np.asarray(t, dtype=float) - np.asarray(y, dtype=float))

    b = float(value(LossSpec.t_domain[1], LossSpec.y_domain[0]))
    return LossSpec(name, value, derivative, b, smoothness=smoothness)


@functools.cache
def make_squared() -> LossSpec:
    """Half squared difference (t - y)^2 / 2; 1-smooth, convex."""
    return _difference_loss("squared", lambda r: 0.5 * r * r, lambda r: r, 1.0)


@functools.cache
def make_squared_unhalved() -> LossSpec:
    """Plain squared difference (t - y)^2; 2-smooth, convex.

    Used by the noisy orthogonal-design distribution and the ridge regime
    generator, whose closed-form risks are stated in this convention.
    """
    return _difference_loss("squared2", lambda r: r * r, lambda r: 2.0 * r, 2.0)


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
    if not 0 < gamma < math.inf:
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

    def phi(r):
        a = np.abs(r)
        return np.where(a <= 0.5, r * r, a - 0.25)

    return _difference_loss("quadlin", phi, lambda r: np.clip(2.0 * r, -1.0, 1.0), 2.0)


@functools.cache
def make_absolute() -> LossSpec:
    """Absolute difference |t - y|; convex but not smooth.

    The subgradient is sign(t - y) with sign(0) = 0, which keeps exact
    minimizers deterministic. Querying smoothness_H raises.
    """
    return _difference_loss("absolute", np.abs, np.sign)
