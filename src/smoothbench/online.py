"""Online mirror descent: game loop, theory step sizes, regret accounting.

The game is the standard n-round protocol: the player reveals w_i, the
adversary answers with an instance z_i = (x_i, y_i), and the player pays
phi(<w_i, x_i>, y_i). Gradients of the round objective are analytic,
phi'(<w, x>, y) x, never finite differences, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import MirrorSetup, _step_kernel, check_feasible, default_start
from .losses import LossSpec

FIXED = "fixed_sequence"
IID = "iid_sampler"
ADAPTIVE = "adaptive"


def stepsize_for(smoothness_H: float, f_max: float, n: int, lbar: float) -> float:
    """eta = 1 / (H F + sqrt(H^2 F^2 + H F n Lbar)), F = sup of the regularizer over the set
    and Lbar a bound on the comparator's average loss in hindsight.
    Statement (arXiv 1009.3896): online mirror descent's step for its optimistic regret bound.
    Premise: an H-smooth non-negative loss, a 1-strongly convex regularizer <= F, Lbar known."""
    _check_formula_args(smoothness_H, f_max, n, lbar)
    hf = smoothness_H * f_max  # eta is 0 once H^2 F^2 overflows, inf once H F is subnormal
    eta = 1.0 / (hf + math.sqrt(hf * hf + hf * n * lbar)) if hf else math.inf
    return _in_range("step size", eta, smoothness_H, f_max, n, lbar)


def regret_bound(smoothness_H: float, f_max: float, n: int, lbar: float) -> float:
    """Average-regret guarantee 4 H F / n + 2 sqrt(H F Lbar / n) at stepsize_for(H, F, n, Lbar).
    Statement (arXiv 1009.3896): online mirror descent's optimistic regret on a smooth loss.
    Premise: stepsize_for's; whether it also needs 2 eta H < 1 is open (ROADMAP item 5)."""
    _check_formula_args(smoothness_H, f_max, n, lbar)
    hf = smoothness_H * f_max
    return 4.0 * hf / n + 2.0 * math.sqrt(hf * lbar / n)


def _check_formula_args(smoothness_H, f_max, n, lbar) -> None:
    if not (0 < smoothness_H < math.inf and 0 < f_max < math.inf):
        raise ValueError("smoothness and regularizer bound must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= lbar < math.inf:
        raise ValueError("lbar must be nonnegative")


def _in_range(name: str, value: float, *args) -> float:
    """`value`, a formula's result at args = (H, F, n, Lbar), if it lies in (0, inf)."""
    if not 0 < value < math.inf:
        at = ", ".join(f"{arg:g}" for arg in args)
        raise ValueError(f"{name} {value:g} at (H, F, n, Lbar) = ({at}) lies outside (0, inf)")
    return value


@dataclass(frozen=True)
class InstanceStream:
    """Per-round instance supplier.

    fixed_sequence: xs/ys arrays consumed in order.
    iid_sampler:    the same, drawn once by sampler(rng, n) -> (xs, ys) when
                    the stream is built, from a generator seeded with `seed`;
                    reruns are bit-identical.
    adaptive:       callback(i, w_i) -> (x, y) sees only the current iterate
                    (never the RNG state), so adversaries stay reproducible.
    """

    mode: str
    length: int
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    callback: Callable[[int, np.ndarray], tuple[np.ndarray, float]] | None = None


def fixed_stream(xs: np.ndarray, ys: np.ndarray) -> InstanceStream:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
        raise ValueError("a stream needs xs of shape (n, d) and ys of shape (n,)")
    if xs.shape[0] < 1:
        raise ValueError("empty stream")
    return InstanceStream(FIXED, xs.shape[0], xs=xs, ys=ys)


def iid_stream(sampler, length: int, seed: int) -> InstanceStream:
    if length < 1:
        raise ValueError("stream length must be >= 1")
    stream = fixed_stream(*sampler(np.random.default_rng(seed), length))
    if stream.length != length:
        raise ValueError(f"sampler returned {stream.length} rows, expected {length}")
    return replace(stream, mode=IID)


def adaptive_stream(callback, length: int) -> InstanceStream:
    if length < 1:
        raise ValueError("stream length must be >= 1")
    return InstanceStream(ADAPTIVE, length, callback=callback)


@dataclass
class OnlineTrace:
    """Per-round record of one mirror-descent run.

    iterates[i] is the vector that played round i (w_1 .. w_n; the
    post-final update is not stored), losses[i] the loss it incurred.
    """

    iterates: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    losses: np.ndarray
    setup: MirrorSetup
    loss: LossSpec

    @property
    def n(self) -> int:
        return self.iterates.shape[0]


def run_mirror_descent(
    setup: MirrorSetup,
    loss: LossSpec,
    stream: InstanceStream,
    eta: float,
    w_start: np.ndarray | None = None,
) -> OnlineTrace:
    """Play the stream with mirror descent at fixed step size eta.

    w_{i+1} depends only on (w_i, z_i, eta); the trace is deterministic
    given the stream and the start point (default: geometry's start).
    This is the single-game API, which keeps every iterate; the
    experiments play run_mirror_descent_batch, which the tests check
    against it.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"step size must be positive, got {eta}")
    w = default_start(setup) if w_start is None else np.asarray(w_start, dtype=float).copy()
    check_feasible(setup, w)

    n, d = stream.length, setup.dim
    if stream.mode == ADAPTIVE:
        xs = np.empty((n, d))
        ys = np.empty(n)
    else:  # fixed and iid streams hold their arrays
        xs, ys = stream.xs, stream.ys
        if xs.shape[1] != d:
            raise ValueError(f"stream dimension {xs.shape[1]} != setup dimension {d}")

    step = _step_kernel(setup)
    iterates = np.empty((n, d))
    losses = np.empty(n)
    for i in range(n):
        if stream.mode == ADAPTIVE:
            x, y = stream.callback(i, w.copy())
            x = np.asarray(x, dtype=float)
            xs[i] = x
            ys[i] = y
        else:
            x, y = xs[i], ys[i]
        pred = float(x @ w)
        iterates[i] = w
        losses[i] = float(loss.value(pred, y))
        g = float(loss.derivative(pred, y)) * x
        w = step(w, g, eta)
    return OnlineTrace(iterates, xs, ys, losses, setup, loss)


@dataclass
class BatchRun:
    """R mirror-descent runs over fixed streams, played together.

    Leading axes index the runs (shape B, usually (R,)): averages[r] is
    run r's averaged iterate, losses[r, i] the loss it paid in round i
    (None when not recorded).
    """

    averages: np.ndarray
    losses: np.ndarray | None


def run_mirror_descent_batch(
    setup: MirrorSetup,
    loss: LossSpec,
    ys: np.ndarray | Callable[[np.ndarray], np.ndarray],
    eta: float | np.ndarray,
    *,
    xs: np.ndarray | Callable[[int], np.ndarray],
    w_start: np.ndarray | None = None,
    record_losses: bool = True,
) -> BatchRun:
    """Play streams of equal length n with mirror descent, all at once.

    ys has shape B + (n,), or is a label rule ys(pred) -> labels, called
    once per round on the predictions <w_i, x_i> (an adaptive adversary).
    The design xs is an array of shape B + (n, d), which gives a label rule
    B and n, or a row rule xs(i) -> B + (d,), read in round i only (so it
    may reuse one buffer). eta is a scalar or has shape B. The runs start
    at w_start, which broadcasts to B + (d,), or at the geometry's default
    start. The inputs are validated here, once, and a rule's rows as they
    come. Each run's losses, and for d >= 2 its averaged iterate, are
    bit-identical to run_mirror_descent on that run's stream. The average
    is a running sum over the rounds divided by n, which is how numpy's
    mean over an (n, d) array sums when d >= 2; at d = 1 numpy sums
    pairwise, so the two averages may differ in the last bits.
    record_losses=False skips the round losses (losses is then None) for
    callers that read only the averages: an (R, n) array each.
    """
    rule = ys if callable(ys) else None
    if rule is not None:  # written as the rounds are played
        if callable(xs):
            raise ValueError("a label rule needs an array design, not a row rule")
        ys = np.empty(np.shape(xs)[:-1])
    ys = np.asarray(ys, dtype=float)
    if ys.ndim < 1 or ys.size == 0:
        raise ValueError("ys needs shape B + (n,) with at least one run and one round")
    batch, n, d = ys.shape[:-1], ys.shape[-1], setup.dim
    if not callable(xs):
        xs = np.asarray(xs, dtype=float)
        if xs.shape != batch + (n, d):
            raise ValueError(f"xs has shape {xs.shape}, expected {batch + (n, d)}")
    try:
        eta = np.broadcast_to(np.asarray(eta, dtype=float), batch)
    except ValueError:
        raise ValueError(f"eta must be a scalar or of shape {batch}") from None
    if not np.all((0 < eta) & (eta < math.inf)):
        raise ValueError(f"step sizes must be positive, got {eta.min()}")
    start = default_start(setup) if w_start is None else np.asarray(w_start, dtype=float)
    try:
        w = np.broadcast_to(start, batch + (d,)).copy()
    except ValueError:
        raise ValueError(f"w_start has shape {start.shape}, expected {batch + (d,)}") from None
    if w_start is not None:  # the default start is feasible by construction
        for r in np.ndindex(batch):
            check_feasible(setup, w[r])

    step = _step_kernel(setup)
    eta_col = eta[..., None]
    losses = np.empty(ys.shape) if record_losses else None
    total = w.copy()
    for i in range(n):
        x = xs(i) if callable(xs) else xs[..., i, :]
        if callable(xs) and x.shape != batch + (d,):  # an array was checked whole above
            raise ValueError(f"row {i} has shape {x.shape}, expected {batch + (d,)}")
        pred = np.vecdot(x, w)
        if rule is not None:
            ys[..., i] = rule(pred)
        y = ys[..., i]
        if record_losses:
            losses[..., i] = loss.value(pred, y)
        if i + 1 < n:
            w = step(w, loss.derivative(pred, y)[..., None] * x, eta_col)
            total += w
    return BatchRun(total / n, losses)


def average_regret(trace: OnlineTrace, w_star: np.ndarray) -> float:
    """Player's average loss minus the fixed comparator's on the same
    instances; may be negative."""
    w_star = np.asarray(w_star, dtype=float)
    try:
        check_feasible(trace.setup, w_star)
    except ValueError as exc:
        raise ValueError(f"infeasible comparator: {exc}") from exc
    return float(np.mean(trace.losses)) - hindsight_average_loss(trace, w_star)


def hindsight_average_loss(trace: OnlineTrace, w: np.ndarray) -> float:
    """Average loss of a fixed vector on the realized instance sequence."""
    preds = trace.xs @ np.asarray(w, dtype=float)
    return float(np.mean(trace.loss.value(preds, trace.ys)))


def averaged_iterate(trace: OnlineTrace) -> np.ndarray:
    """Coordinate-wise mean of the played iterates (feasible by convexity)."""
    if trace.n == 0:
        raise ValueError("empty trace")
    return trace.iterates.mean(axis=0)
