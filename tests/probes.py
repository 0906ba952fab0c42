"""Test-side probes of the constants the library declares.

`probe_smoothness` checks a loss's declared smoothness H on a grid, and
`random_feasible` draws points of a mirror setup's constraint set for the
geometry and online tests. Neither is part of the library: nothing there
calls them.
"""

import numpy as np

from smoothbench.geometry import EUCLIDEAN, MirrorSetup, ball_radius
from smoothbench.losses import LossSpec


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


def random_feasible(
    setup: MirrorSetup, rng: np.random.Generator, positive: bool = False
) -> np.ndarray:
    """A random point of the constraint set; positive=True keeps coordinates
    strictly positive (entropy interior, where grad F exists)."""
    if setup.geometry == EUCLIDEAN:
        direction = rng.standard_normal(setup.dim)
        direction /= max(float(np.linalg.norm(direction)), 1e-300)
        radius = ball_radius(setup) * rng.uniform() ** (1.0 / setup.dim)
        return radius * direction
    raw = rng.exponential(size=setup.dim)
    raw /= float(np.sum(raw))
    scale = setup.budget * (rng.uniform(0.05, 1.0) if positive else rng.uniform())
    return scale * raw
