"""Multivariate Gaussian primitive.

A `Gaussian` is a mean vector plus a full covariance matrix.  Everything
else in this package (mixtures, motion models, EM) is built on the four
operations here: density evaluation, peak-normalized density,
marginalization onto a coordinate subset, and conditioning on a
coordinate subset.

Covariances are factored with Cholesky (cached per instance).  Updated or
estimated covariances can be singular (e.g. two coincident samples), so
`ensure_positive_definite` provides the standard escape hatch: leave the
exact moments untouched and regularize only the matrix that gets factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)

#: Default diagonal loading used whenever a covariance fails to factor.
DEFAULT_EPSILON = 1e-9

#: Relative tolerance for the symmetry check on covariance input.
SYMMETRY_RTOL = 1e-12


def symmetrize(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Return (m + m.T) / 2, written into out when given; matrix updates
    are symmetric analytically but not always under floating point."""
    return np.multiply(0.5, m + m.T, out)


def check_symmetric(cov: np.ndarray) -> None:
    """ValueError("cov is not symmetric") unless every entry of the square
    matrix cov is within SYMMETRY_RTOL * max(1, |entry|) of its transpose's."""
    if np.any(np.abs(cov - cov.T) > SYMMETRY_RTOL * np.maximum(1.0, np.abs(cov))):
        raise ValueError("cov is not symmetric")


def regularize(cov: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal loading scaled to the matrix: cov + epsilon * max(1, tr/D) * I.

    Total on symmetric input; the result factors for any PSD input and
    epsilon > 0.
    """
    cov = np.asarray(cov, dtype=float)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = cov.shape[0]
    trace_scale = max(1.0, float(np.trace(cov)) / d)
    return cov + epsilon * trace_scale * np.eye(d)


class Gaussian:
    """Multivariate normal N(mean, cov) with a cached Cholesky factor.

    Instances are immutable in spirit: updates elsewhere build new
    instances rather than mutating, so the cached factor never goes stale.
    """

    __slots__ = ("mean", "cov", "_chol", "_log_norm")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("cov must be a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has dimension {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        check_symmetric(cov)
        self.mean = mean
        self.cov = cov
        self._chol = None
        self._log_norm = None

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "Gaussian":
        """A Gaussian on float arrays mean (D,) and cov (D, D), taken as they
        are, without __init__'s conversions and checks: for moments this
        package has just computed from checked ones, such as merge_into's,
        whose covariance is symmetric by construction."""
        g = cls.__new__(cls)
        g.mean, g.cov, g._chol, g._log_norm = mean, cov, None, None
        return g

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def __repr__(self):
        return f"Gaussian(dim={self.dim}, mean={np.array2string(self.mean, precision=4)})"

    # -- factorization --------------------------------------------------

    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of cov; raises LinAlgError if cov is not
        positive definite (callers that can see singular input should go
        through ensure_positive_definite first)."""
        if self._chol is None:
            self._chol = np.linalg.cholesky(self.cov)
        return self._chol

    def log_norm_const(self) -> float:
        """log of the density normalization constant: -D/2 log(2pi) - log|L|."""
        if self._log_norm is None:
            L = self.chol()
            self._log_norm = float(
                -0.5 * self.dim * LOG_2PI - np.sum(np.log(np.diag(L)))
            )
        return self._log_norm

    # -- evaluation ------------------------------------------------------

    def _quad_form(self, x: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance for x of shape (D,) or (N, D)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"point dimension {pts.shape[1]} != Gaussian dimension {self.dim}")
        y = np.linalg.solve(self.chol(), (pts - self.mean).T)
        q = np.sum(y * y, axis=0)
        return q[0] if single else q

    def log_density(self, x):
        """Log of the normal pdf at x; x may be one point (D,) or a batch (N, D)."""
        return self.log_norm_const() - 0.5 * self._quad_form(x)

    def density(self, x):
        """Normal pdf at x; strictly positive and finite for finite x."""
        return np.exp(self.log_density(x))

    def normalized_density(self, x):
        """Density rescaled so the peak is exactly 1: exp(-maha²/2).

        Equal to density(x) / density(mean), computed directly from the
        quadratic form so no ratio round-off enters.
        """
        return np.exp(-0.5 * self._quad_form(x))

    # -- structure -------------------------------------------------------

    def marginal(self, kept) -> "Gaussian":
        """Marginal distribution over the coordinates in `kept`."""
        kept = _check_indices(kept, self.dim, "kept")
        return Gaussian(self.mean[kept], self.cov[np.ix_(kept, kept)])

    def conditional(self, split: "IndexSplit", z) -> "Gaussian":
        """Distribution of the kept block given dropped block == z.

        mean: mu_k + S_kd S_dd^-1 (z - mu_d)
        cov:  S_kk - S_kd S_dd^-1 S_dk   (Schur complement, symmetrized)
        """
        split.validate(self.dim)
        z = np.asarray(z, dtype=float).reshape(-1)
        kept = list(split.kept)
        dropped = list(split.dropped)
        if z.shape[0] != len(dropped):
            raise ValueError(f"z has dimension {z.shape[0]}, expected {len(dropped)}")
        s_kk = self.cov[np.ix_(kept, kept)]
        s_kd = self.cov[np.ix_(kept, dropped)]
        s_dd = self.cov[np.ix_(dropped, dropped)]
        try:
            chol = np.linalg.cholesky(s_dd)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "dropped-block covariance is singular; cannot condition"
            ) from exc
        gain = np.linalg.solve(chol.T, np.linalg.solve(chol, s_kd.T)).T  # S_kd S_dd^-1
        mean = self.mean[kept] + gain @ (z - self.mean[dropped])
        cov = symmetrize(s_kk - gain @ s_kd.T)
        return Gaussian(mean, cov)


@dataclass(frozen=True)
class IndexSplit:
    """Partition of the coordinates {0..D-1} into a kept and a dropped block."""

    kept: tuple[int, ...]
    dropped: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kept", tuple(sorted(int(i) for i in self.kept)))
        object.__setattr__(self, "dropped", tuple(sorted(int(i) for i in self.dropped)))

    def validate(self, dim: int) -> None:
        kept, dropped = set(self.kept), set(self.dropped)
        if kept & dropped:
            raise ValueError("kept and dropped overlap")
        if kept | dropped != set(range(dim)):
            raise ValueError(f"kept and dropped do not partition 0..{dim - 1}")
        if not kept:
            raise ValueError("kept block is empty")


def positive_definite_cholesky(cov: np.ndarray):
    """(cov', L): cov itself and its lower Cholesky factor if it factors,
    else the first diagonally loaded copy (DEFAULT_EPSILON, 10 times that,
    ...) that does, with its factor."""
    try:
        return cov, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eps = DEFAULT_EPSILON
    for _ in range(16):
        loaded = regularize(cov, eps)
        try:
            return loaded, np.linalg.cholesky(loaded)
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized to positive definite")


def ensure_positive_definite(g: Gaussian) -> Gaussian:
    """Return g itself if its covariance factors, else a copy with diagonal
    loading applied until it does.  Exact moments are kept separate from the
    evaluation copy, so estimators stay unbiased while density queries on
    degenerate components remain well defined."""
    cov = positive_definite_cholesky(g.cov)[0]
    return g if cov is g.cov else Gaussian(g.mean, cov)


def _check_indices(idx, dim: int, name: str) -> list[int]:
    idx = [int(i) for i in idx]
    if not idx:
        raise ValueError(f"{name} index set is empty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{name} indices are not distinct")
    if min(idx) < 0 or max(idx) >= dim:
        raise ValueError(f"{name} indices out of range for dimension {dim}")
    return idx
