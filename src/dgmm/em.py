"""Offline EM fitting of fixed-size Gaussian mixtures, plus the metric used
to compare density estimates: the integrated square error between two
mixtures.  (Held-out records are scored in log space by
MotionModel.log_density; see dgmm.evaluation.)

The integrated square error is computed in closed form (`ise`): for
mixtures p = sum_i a_i N(mu_i, S_i) and q = sum_j b_j N(nu_j, T_j),

    int (p - q)^2 = a^T K_pp a - 2 a^T K_pq b + b^T K_qq b,
    K_pq[i, j] = int N(x; mu_i, S_i) N(x; nu_j, T_j) dx = N(mu_i; nu_j, S_i + T_j)

(Williams & Maybeck, "Cost-function-based Gaussian mixture reduction",
FUSION 2003; Jian & Vemuri, "Robust point set registration using Gaussian
mixture models", TPAMI 2011).  It needs no grid, so it works in any
dimension.  The midpoint rule on a rectangular grid (`Grid`,
`integrate_on_grid`, `mise`, `support_grid`) stays as the oracle that
tests check the closed form and the unit integrals against at D 1-2.

A fitted mixture is evaluated by the same array core as the online one
(dgmm.mixture.MixtureCore), and EM iterates on stacked arrays: the E-step
runs the core's Mahalanobis kernel and log-sum-exp, the M-step forms all
covariances in one batched product, and `_factor` diagonally loads any
that collapse.  The returned fit takes the last M-step's arrays and factors
as they are; it builds `Gaussian` objects only when `gaussians` is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import Gaussian, symmetrize
from .mixture import MixtureCore, _factor, _log_norm, _quad, logsumexp


class FixedGaussianMixture(MixtureCore):
    """Gaussian mixture with a component count fixed at fit time; weights
    are normalized mixture proportions summing to 1.  A covariance that
    does not factor is evaluated with diagonal loading."""

    def __init__(self, weights, gaussians: list[Gaussian]):
        weights = np.asarray(weights, dtype=float).reshape(-1)
        gaussians = list(gaussians)
        if len(gaussians) != weights.shape[0]:
            raise ValueError("one weight per component required")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if len({g.dim for g in gaussians}) != 1:
            raise ValueError("components must share one dimension")
        super().__init__(weights, np.array([g.mean for g in gaussians]),
                         *_factor(np.array([g.cov for g in gaussians])))
        #: per-iteration data log-likelihood of the restart that produced
        #: this fit; useful for monotonicity checks.
        self.loglik_path: list[float] = []

    @property
    def weights(self) -> np.ndarray:
        """The mixture proportions (m,)."""
        return self._w

    @property
    def gaussians(self) -> list[Gaussian]:
        """The components as Gaussian objects with their evaluation
        covariances (diagonally loaded where a covariance does not factor),
        built on each access from copies of the arrays."""
        return [Gaussian(mean.copy(), cov.copy()) for mean, cov in zip(self._mean, self._eval_cov)]


def _em_once(points: np.ndarray, m: int, tol: float, max_iter: int,
             rng: np.random.Generator) -> FixedGaussianMixture:
    n, d = points.shape
    # init: m distinct data points as means, shared data covariance, uniform weights
    idx = rng.choice(n, size=m, replace=False)
    means = points[idx].copy()
    base_cov = symmetrize(np.atleast_2d(np.cov(points, rowvar=False, bias=True)))
    weights = np.full(m, 1.0 / m)
    covs, chol_inv = _factor(np.repeat(base_cov[None], m, axis=0))
    path = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        # E-step
        log_weighted = _log_norm(chol_inv) - 0.5 * _quad(points, means, chol_inv) + np.log(weights)
        log_total = logsumexp(log_weighted)
        ll = float(log_total.sum())
        path.append(ll)
        resp = np.exp(log_weighted - log_total[:, None])
        # M-step
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / n
        means = (resp.T @ points) / nk[:, None]
        diff = points[None] - means[:, None]
        covs = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff / nk[:, None, None]
        covs, chol_inv = _factor(0.5 * (covs + covs.transpose(0, 2, 1)))
        if (ll - prev_ll) / n < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
    # the last M-step's arrays and factors, as they are: nothing is factored again
    fit = FixedGaussianMixture.__new__(FixedGaussianMixture)
    MixtureCore.__init__(fit, weights / weights.sum(), means, covs, chol_inv)
    fit.loglik_path = path
    return fit


def em_fit(points, m: int, tol: float = 1e-8, max_iter: int = 500,
           rng: np.random.Generator | None = None, restarts: int = 5) -> FixedGaussianMixture:
    """Fit an m-component Gaussian mixture by expectation-maximization.

    Means initialize to m distinct random data points, covariances to the
    data covariance, weights uniform; the best of `restarts` runs (by final
    data log-likelihood) is returned.  Iteration stops when the per-point
    log-likelihood improves by less than tol.  Covariances that collapse
    (e.g. duplicated points) are regularized rather than failing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.size == 0:
        raise ValueError("no points to fit")
    if m < 1:
        raise ValueError("m must be >= 1")
    if points.shape[0] < m:
        raise ValueError(f"need at least {m} points to fit {m} components")
    if rng is None:
        rng = np.random.default_rng()
    best = None
    for _ in range(max(1, restarts)):
        fit = _em_once(points, m, tol, max_iter, rng)
        if best is None or fit.loglik_path[-1] > best.loglik_path[-1]:
            best = fit
    return best


@dataclass(frozen=True)
class Grid:
    """Rectangular evaluation grid: cell-centered, `shape[i]` cells along
    axis i between lower[i] and upper[i]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        lo, hi, sh = map(np.asarray, (self.lower, self.upper, self.shape))
        if not (lo.shape == hi.shape == sh.shape) or lo.ndim != 1:
            raise ValueError("lower, upper, shape must be equal-length 1-D")
        if np.any(hi <= lo) or np.any(sh < 2):
            raise ValueError("degenerate grid: need upper > lower and >= 2 cells per axis")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def cell_volume(self) -> float:
        steps = [(u - l) / s for l, u, s in zip(self.lower, self.upper, self.shape)]
        return float(np.prod(steps))

    def centers(self) -> np.ndarray:
        """All cell centers, shape (prod(shape), ndim)."""
        axes = [
            l + (u - l) * (np.arange(s) + 0.5) / s
            for l, u, s in zip(self.lower, self.upper, self.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def integrate_on_grid(density, grid: Grid) -> float:
    """Midpoint-rule integral of a density over the grid."""
    vals = np.asarray(density(grid.centers()), dtype=float)
    return float(vals.sum() * grid.cell_volume())


def ise(p: MixtureCore, q: MixtureCore) -> float:
    """Integrated square error, the integral of (p - q)^2 over all space,
    between the densities of two mixtures, in closed form (see the module
    docstring).  Each mixture is integrated as density() evaluates it:
    normalized weights w / W and evaluation covariances.

    One Gram matrix over the components of p and q together, weighted by
    the outer product of their weights, comes from one batched
    factorization of all pairwise covariance sums; its blocks give the
    three terms, which are combined as (pp - 2 pq) + qq and clamped at 0.
    When q is p the three blocks are bitwise equal, so ise(p, p) is
    exactly 0.0.
    """
    if not (len(p) and len(q)):
        raise ValueError("mixture is empty")
    if p.dim != q.dim:
        raise ValueError(f"mixture dimensions differ: {p.dim} != {q.dim}")
    w = np.concatenate([p._w / p._W, q._w / q._W])
    mean = np.concatenate([p._mean, q._mean])
    cov = np.concatenate([p._eval_cov, q._eval_cov])
    _, chol_inv = _factor(cov[:, None] + cov[None])
    y = (chol_inv @ (mean[:, None] - mean[None])[..., None])[..., 0]
    gram = w[:, None] * w * np.exp(_log_norm(chol_inv) - 0.5 * np.einsum("ijd,ijd->ij", y, y))
    m = len(p)
    pp, pq, qq = gram[:m, :m].sum(), gram[:m, m:].sum(), gram[m:, m:].sum()
    return max(float((pp - 2.0 * pq) + qq), 0.0)


def mise(p, q, grid: Grid) -> float:
    """Mean integrated square error between two densities: the midpoint-rule
    approximation of the integral of (p - q)^2 over the grid.  The oracle
    for `ise` at low dimension."""
    pts = grid.centers()
    diff = np.asarray(p(pts), dtype=float) - np.asarray(q(pts), dtype=float)
    return float(np.sum(diff * diff) * grid.cell_volume())


def mixture_support_box(mixtures, n_sigma: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box covering every component mean +- n_sigma marginal
    standard deviations, across one or more mixtures (MixtureCore.support_box)."""
    boxes = [mix.support_box(n_sigma) for mix in mixtures if len(mix)]
    if not boxes:
        raise ValueError("no components to bound")
    return np.min([lo for lo, _ in boxes], axis=0), np.max([hi for _, hi in boxes], axis=0)


def support_grid(mixtures, resolution: int = 150, n_sigma: float = 8.0) -> Grid:
    lo, hi = mixture_support_box(mixtures, n_sigma)
    return Grid(tuple(lo), tuple(hi), (resolution,) * lo.shape[0])
