"""Hard distributions with exact samplers, closed-form risks, and exact ERMs.

Three lower-bound families over basis-vector designs, plus the synthetic
generators the harness uses for fast-rate, sparse, and ridge-regime runs.
All are classes with the same duck-typed surface: .sample(n, seed) ->
Dataset, .true_risk(w), .excess(w), .l_star, .w_star and .loss. Where
the excess L(w) - L* is a quadratic form in w - w*, .excess computes it
directly and .true_risk is L* plus it, so a large L* cannot swallow the
excess in a difference of two risks.

Family overview (d standard basis vectors, Y conditioned on X = e_i):

  absolute_separable  d = 2 n_design, Y = r_i / sqrt(n_design) with hidden
                      signs r; absolute loss; any sample reveals at most
                      n of the 2n signs, so every learner carries risk
                      >= 1/(2 sqrt(n)). Reference risk L* = 0.
  gaussian_squared    d = ceil(sqrt(n)/sigma), Y ~ Normal(r_i/(2 sqrt(d)),
                      sigma); plain squared loss; L* = sigma^2 and
                      L(w) = sigma^2 + ||w - w*||^2 / d exactly.
  onedim_quadlin      scalar X in {0, 1}, P(X=1) = q, Y|X=1 = +1 with
                      probability p = 1/2 + 0.2/sqrt(q n); quadratic-then-
                      linear loss on w in [-1, 1]; w* and L* in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import Dataset
from .losses import (
    LossSpec,
    make_absolute,
    make_piecewise_quadlin,
    make_squared,
    make_squared_unhalved,
)

_DRAW_ROWS = 64  # sparse design rows drawn at a time


@dataclass(frozen=True)
class HardDistribution:
    """A lower-bound family over a basis (or scalar {0,1}) design. Each
    subclass holds its own constants and implements _draw, _risk, _erm and
    _floor; sample and true_risk are defined here only."""

    dim: int
    loss: LossSpec
    w_star: np.ndarray
    l_star: float

    def sample(self, n: int, seed: int) -> Dataset:
        """n i.i.d. draws; deterministic per seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._draw(n, np.random.default_rng(seed))

    def true_risk(self, w: np.ndarray) -> float:
        """Exact risk of a fixed predictor; no sampling."""
        return self._risk(np.asarray(w, dtype=float))

    def excess(self, w: np.ndarray) -> float:
        """L(w) - L*. As a difference it is exact for hardA, whose L* is 0;
        hardC's risk is piecewise in w, with no single closed form for the
        excess. hardB overrides this with its quadratic form."""
        return self.true_risk(w) - self.l_star

    def _floor_applies(self, n: int) -> bool:
        return True


@dataclass(frozen=True)
class AbsoluteSeparable(HardDistribution):
    n_design: int
    signs: np.ndarray

    def _draw(self, n: int, rng: np.random.Generator) -> Dataset:
        idx = rng.integers(self.dim, size=n)
        ys = self.signs[idx] / math.sqrt(self.n_design)
        return Dataset(ys=ys, basis_idx=idx, dim=self.dim)

    def _risk(self, w: np.ndarray) -> float:
        targets = self.signs / math.sqrt(self.n_design)
        return float(np.mean(np.abs(w - targets)))

    def _erm(self, data: Dataset) -> np.ndarray:
        # match every seen coordinate, leave unseen ones at zero: the minimal-
        # support minimizer, empirical loss exactly 0 and norm at most 1
        w = np.zeros(self.dim)
        w[data.basis_idx] = data.ys
        return w

    def _floor(self, n: int) -> float:
        return 0.5 / math.sqrt(n)


@dataclass(frozen=True)
class GaussianSquared(HardDistribution):
    signs: np.ndarray
    sigma: float

    def _draw(self, n: int, rng: np.random.Generator) -> Dataset:
        idx = rng.integers(self.dim, size=n)
        means = self.signs[idx] / (2.0 * math.sqrt(self.dim))
        ys = means if self.sigma == 0 else rng.normal(means, self.sigma)
        return Dataset(ys=ys, basis_idx=idx, dim=self.dim)

    def excess(self, w: np.ndarray) -> float:
        diff = np.asarray(w, dtype=float) - self.w_star
        return float(diff @ diff) / self.dim

    def _risk(self, w: np.ndarray) -> float:
        return self.l_star + self.excess(w)

    def _erm(self, data: Dataset) -> np.ndarray:
        # per-coordinate sample means; when the unit ball binds, the seen coordinates
        # are a / (s + mu) at the root mu of ||w(mu)|| = 1: Newton steps on the concave,
        # increasing 1/||w(mu)|| rise from mu = 0 until rounding stalls them (More-Sorensen)
        counts = np.bincount(data.basis_idx, minlength=self.dim).astype(float)
        sums = np.bincount(data.basis_idx, weights=data.ys, minlength=self.dim)
        ybar = np.divide(sums, counts, out=np.zeros(self.dim), where=counts > 0)
        if float(np.linalg.norm(ybar)) <= 1.0:
            return ybar
        seen = counts > 0
        s, a = counts[seen] / data.n, sums[seen] / data.n
        mu = 0.0
        while True:
            w = a / (s + mu)
            norm2 = float(w @ w)
            step = (math.sqrt(norm2) - 1.0) * norm2 / float(w @ (w / (s + mu)))
            if not mu + step > mu:
                break
            mu += step
        ybar[seen] = w
        return ybar

    def _floor(self, n: int) -> float:
        return math.sqrt(self.l_star / n)

    def _floor_applies(self, n: int) -> bool:
        # sqrt(L*/n) is reached only once every coordinate is sampled,
        # n >= dim (about n L* >= 1, where sqrt(L*/n) leads the rate). Below
        # that, unseen coordinates pull the exact ERM's expected excess under
        # the floor: at n = 64, dim = 80 it is 0.942 * sqrt(L*/n) / 2.
        return n >= self.dim


@dataclass(frozen=True)
class OnedimQuadlin(HardDistribution):
    q: float
    p: float

    def _draw(self, n: int, rng: np.random.Generator) -> Dataset:
        xs = (rng.random(n) < self.q).astype(float)
        flips = rng.random(n)
        ys = np.where(xs > 0, np.where(flips < self.p, 1.0, -1.0), 0.0)
        return Dataset(ys=ys, xs=xs[:, None])

    def _risk(self, w: np.ndarray) -> float:
        return _quadlin_risk(self.loss, self.q, self.p, float(w[0]) if w.ndim else float(w))

    def _erm(self, data: Dataset) -> np.ndarray:
        # the stationary point on the majority label's quadratic branch; a tie
        # (or no x = 1) leaves an interval around 0, whose minimum-norm point is 0
        on = data.xs[:, 0] > 0
        n_pos = int(np.sum(data.ys[on] > 0))
        n_neg = int(np.sum(on)) - n_pos
        if n_pos == n_neg:
            return np.zeros(1)
        major, minor = max(n_pos, n_neg), min(n_pos, n_neg)
        return np.array([math.copysign(1.0 - minor / (2.0 * major), n_pos - n_neg)])

    def _floor(self, n: int) -> float:
        return math.sqrt(0.32 * self.l_star / n)


def _quadlin_risk(loss: LossSpec, q: float, p: float, w: float) -> float:
    return q * (p * float(loss.value(w, 1.0)) + (1.0 - p) * float(loss.value(w, -1.0)))


def hard_absolute(n_design: int, seed: int) -> AbsoluteSeparable:
    """Separable absolute-loss family; the hidden-sign vector is drawn once
    from the seed and then treated as fixed by nature."""
    if n_design < 1:
        raise ValueError("n_design must be >= 1")
    d = 2 * n_design
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=d)
    w_star = signs / math.sqrt(n_design)
    return AbsoluteSeparable(
        dim=d, loss=make_absolute(), w_star=w_star, l_star=0.0,
        n_design=n_design, signs=signs,
    )


def hard_gaussian(
    n_design: int, sigma: float, seed: int, dim: int | None = None
) -> GaussianSquared:
    """Noisy orthogonal-design squared-loss family.

    dim defaults to ceil(sqrt(n_design)/sigma); sigma = 0 is allowed only
    with an explicit dim (the default would be undefined).
    """
    if n_design < 1:
        raise ValueError("n_design must be >= 1")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative")
    if dim is None:
        if sigma == 0:
            raise ValueError("sigma = 0 needs an explicit dim")
        dim = math.ceil(math.sqrt(n_design) / sigma)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=dim)
    w_star = signs / (2.0 * math.sqrt(dim))
    return GaussianSquared(
        dim=dim, loss=make_squared_unhalved(), w_star=w_star, l_star=sigma**2,
        signs=signs, sigma=sigma,
    )


def hard_quadlin(n_design: int, q: float) -> OnedimQuadlin:
    """Scalar quadratic-then-linear family with label bias p = 1/2
    + 0.2/sqrt(q n). w* is the closed form 3/2 - 1/(2p), the risk's stationary
    point on the +1 label's quadratic branch (p in (1/2, 1] puts it in
    (1/2, 1]), and L* is the exact risk there."""
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    if n_design < 1:
        raise ValueError("n_design must be >= 1")
    p = 0.5 + 0.2 / math.sqrt(q * n_design)
    if p > 1:
        raise ValueError(f"bias p = {p:.4f} > 1; increase q*n (needs q n >= 0.16)")
    loss = make_piecewise_quadlin()
    w_opt = quadlin_minimizer_closed_form(p)
    return OnedimQuadlin(
        dim=1, loss=loss, w_star=np.array([w_opt]), l_star=_quadlin_risk(loss, q, p, w_opt),
        q=q, p=p,
    )


def quadlin_minimizer_closed_form(p: float) -> float:
    """The population minimizer 3/2 - 1/(2p) for label bias p in (1/2, 1]."""
    return 1.5 - 1.0 / (2.0 * p)


def _hard(dist) -> HardDistribution:
    if not isinstance(dist, HardDistribution):
        raise ValueError(f"{type(dist).__name__} is not a hard family")
    return dist


def erm_exact(dist: HardDistribution, data: Dataset) -> np.ndarray:
    """An exact empirical minimizer, specialized per family. A coordinate the
    sample leaves undetermined takes its minimum-norm value 0: an unseen one
    in hardA and hardB, hardC's on a tie of its +1 and -1 labels at x = 1."""
    if data.n < 1:
        raise ValueError("empty dataset")
    return _hard(dist)._erm(data)


def lower_bound_value(dist: HardDistribution, n: int) -> float:
    """The theoretical risk floor quoted for each family, for report columns."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _hard(dist)._floor(n)


def lower_bound_applies(dist: HardDistribution, n: int) -> bool:
    """Whether the family realises its lower_bound_value floor at size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _hard(dist)._floor_applies(n)


@dataclass(frozen=True)
class SeparableSynthetic:
    """Noiseless orthogonal design: X uniform over basis vectors,
    y = <w*, x> exactly, half-squared loss, so L* = 0 and
    L(w) = ||w - w*||^2 / (2 d)."""

    dim: int
    w_star: np.ndarray
    loss: LossSpec
    l_star: float = 0.0

    def sample(self, n: int, seed: int) -> Dataset:
        rng = np.random.default_rng(seed)
        idx = rng.integers(self.dim, size=n)
        return Dataset(ys=self.w_star[idx], basis_idx=idx, dim=self.dim)

    def excess(self, w: np.ndarray) -> float:
        diff = np.asarray(w, dtype=float) - self.w_star
        return 0.5 * float(diff @ diff) / self.dim

    def true_risk(self, w: np.ndarray) -> float:
        return self.l_star + self.excess(w)


def separable_synthetic(dim: int, seed: int) -> SeparableSynthetic:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= float(np.linalg.norm(w))
    return SeparableSynthetic(dim=dim, w_star=w, loss=make_squared())


@dataclass(frozen=True)
class SparseGenerator:
    """Sparse linear target over mutually uncorrelated sign features.

    X has i.i.d. +-1 coordinates (so ||x||_inf = 1 and all features are
    uncorrelated with unit variance), y = <w0, x> plus optional bounded
    uniform noise; w0 has k nonzeros scaled so |y| <= 1 and
    ||w0||_1 <= 2 sqrt(k). Doubled samples append the negated features so
    nonnegative weight vectors can represent signed ones.
    """

    dim0: int
    k: int
    w0: np.ndarray
    noise: float
    loss: LossSpec

    @property
    def l_star(self) -> float:
        # risk of w0 itself under half-squared loss
        return 0.5 * self.noise**2 / 3.0

    @property
    def w_star(self) -> np.ndarray:
        return self.w0

    def _draw(self, n: int, seed: int, out: np.ndarray | None = None):
        """n rows of +-1 features, written into `out` when given, and their
        targets. The rows are drawn _DRAW_ROWS at a time, which draws the
        same signs as one (n, dim0) draw without its full-size index array."""
        rng = np.random.default_rng(seed)
        xs = np.empty((n, self.dim0)) if out is None else out
        for start in range(0, n, _DRAW_ROWS):
            stop = min(start + _DRAW_ROWS, n)
            xs[start:stop] = rng.choice([-1.0, 1.0], size=(stop - start, self.dim0))
        ys = xs @ self.w0
        if self.noise > 0:
            ys = ys + rng.uniform(-self.noise, self.noise, size=n)
        return xs, ys

    def sample_signed(self, n: int, seed: int) -> Dataset:
        xs, ys = self._draw(n, seed)
        return Dataset(ys=ys, xs=xs)

    def sample_doubled(self, n: int, seed: int) -> Dataset:
        doubled = np.empty((n, 2 * self.dim0))  # [xs, -xs], with no stacked temporaries
        xs, ys = self._draw(n, seed, out=doubled[:, : self.dim0])
        np.negative(xs, out=doubled[:, self.dim0 :])
        return Dataset(ys=ys, xs=doubled)

    def sample(self, n: int, seed: int) -> Dataset:
        return self.sample_doubled(n, seed)

    def signed_part(self, doubled: Dataset) -> Dataset:
        """The signed sample a doubled one was built from, without drawing
        it again: its first dim0 columns, a view read in place (BLAS takes
        the doubled row stride, and XᵀX, X w and Xᵀ r equal the contiguous
        copy's bit for bit)."""
        return Dataset(ys=doubled.ys, xs=doubled.xs[:, : self.dim0])

    def excess(self, w: np.ndarray) -> float:
        """||w - w0||^2 / 2 for a signed weight vector, or for a doubled-
        feature one folded back to signed space."""
        w = np.asarray(w, dtype=float)
        if w.shape[0] == 2 * self.dim0:
            w = w[: self.dim0] - w[self.dim0 :]
        diff = w - self.w0
        return 0.5 * float(diff @ diff)

    def true_risk(self, w: np.ndarray) -> float:
        return self.l_star + self.excess(w)


def sparse_generator(dim0: int, k: int, seed: int, noise: float = 0.0) -> SparseGenerator:
    if not 1 <= k <= dim0:
        raise ValueError(f"invalid sparsity: k={k}, dim={dim0}")
    if not 0 <= noise < 1:
        raise ValueError("noise half-width must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    support = rng.choice(dim0, size=k, replace=False)
    w0 = np.zeros(dim0)
    w0[support] = rng.choice([-1.0, 1.0], size=k) * (1.0 - noise) / k
    return SparseGenerator(dim0=dim0, k=k, w0=w0, noise=noise, loss=make_squared())


@dataclass(frozen=True)
class RegimeGenerator:
    """Isotropic Gaussian design for the ridge regime study.

    X ~ Normal(0, (x_scale^2 / d) I) so E||X||^2 = x_scale^2;
    y = <w*, x> + Normal(0, sigma^2) with ||w*|| = 1; plain squared loss,
    so L* = sigma^2 and the excess of any w is (x_scale^2/d) ||w - w*||^2.
    """

    dim: int
    x_scale: float
    sigma: float
    w_star: np.ndarray
    loss: LossSpec

    @property
    def l_star(self) -> float:
        return self.sigma**2

    def sample(self, n: int, seed: int) -> Dataset:
        rng = np.random.default_rng(seed)
        xs = rng.normal(0.0, self.x_scale / math.sqrt(self.dim), size=(n, self.dim))
        ys = xs @ self.w_star + rng.normal(0.0, self.sigma, size=n)
        return Dataset(ys=ys, xs=xs)

    def excess(self, w: np.ndarray) -> float:
        diff = np.asarray(w, dtype=float) - self.w_star
        return (self.x_scale**2 / self.dim) * float(diff @ diff)

    def true_risk(self, w: np.ndarray) -> float:
        return self.l_star + self.excess(w)

    def envelope(self, n: int) -> tuple[float, str]:
        """min(B^2, B^2/n + B sigma/sqrt(n), d sigma^2/n) and the active term."""
        b2 = self.x_scale**2
        terms = {
            "random": b2,
            "low_noise": b2 / n + self.x_scale * self.sigma / math.sqrt(n),
            "asymptotic": self.dim * self.sigma**2 / n,
        }
        name = min(terms, key=terms.get)
        return terms[name], name


def regime_generator(dim: int, x_scale: float, sigma: float, seed: int) -> RegimeGenerator:
    if dim < 1 or not 0 < x_scale < math.inf or not 0 <= sigma < math.inf:
        raise ValueError("regime generator needs dim >= 1, x_scale > 0, sigma >= 0")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= float(np.linalg.norm(w))
    return RegimeGenerator(dim=dim, x_scale=x_scale, sigma=sigma, w_star=w, loss=make_squared_unhalved())
