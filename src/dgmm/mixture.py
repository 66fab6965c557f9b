"""Gaussian mixtures on stacked arrays: one evaluation core, and the
dynamic mixture that grows online.

Each incoming sample either refines an existing component or becomes a new
one.  The choice is probabilistic: a merge threshold

    t = 1 - (1 - d) * exp(-k * n)

is compared against a uniform draw, where d is the peak-normalized mixture
density at the sample, n is the number of samples already absorbed, and k
is the merge likelihood constant.  Low density and a young model favor new
components; as the model matures (n grows) merging dominates.

Component weights are unnormalized sample counts.  Merging uses exact
incremental updates of the unbiased mean/covariance estimators, so a
component that has absorbed samples y_1..y_n carries exactly their batch
mean and unbiased covariance (the creation-time identity covariance is a
placeholder that drops out on the first merge).

Every mixture in this package is evaluated by one array core,
`MixtureCore`: m components over D dimensions stored one row per
component,

    _w          (m,)        unnormalized weights; _W is their total
    _mean       (m, D)      means
    _eval_cov   (m, D, D)   evaluation covariances, diagonally loaded
                            where they would not factor
    _chol_inv   (m, D, D)   inverse upper Cholesky factors V = U^-1 of
                            _eval_cov = U U^T (V is upper triangular)

Each component's log normalization constant -D/2 log(2 pi) + log|V| is
not stored: `_log_norm` reads it off the diagonals of _chol_inv.

The factor is upper, not lower, so that conditioning on the trailing
coordinates z needs no factorization.  With S = U U^T and V = U^-1 both
upper triangular, the trailing block V[:, k:, k:] is the inverse factor of
each component's marginal over z, and the leading block V[:, :k, :k] that
of its conditional given z (the Schur complement S_xx - U_xz U_xz^T, where
U_xz = S_xz V_zz^T).  Rows k: of V are zero in columns :k, so whitening a
whole point u, y_i = V_i (u - mean_i), gives in y_i[k:] the whitening of
u[k:] against the marginal over k:, whatever finite u[:k] holds (those
columns add exact zeros).  One whitening
therefore gives the joint and the terrain-marginal log densities at x || z,
one row per component of an (m, 2) array (`_split_log_density`): both are
sums over coordinates of the terms log diag(V_i) - 1/2 log(2 pi) - y_i^2 / 2,
column 0 over all of them and column 1 over the trailing ones, so a term
that overflows to -inf reaches only the sums it belongs to.  The diagonal
logs come from `_log_diag`, which `_log_norm` shares.  The terrain
conditional (`_conditional`) is products of the stored arrays and that
whitening.

It gives `log_density`, of which `density` is the exp, and `support_box`;
`_factor` is the one place that factorizes, and `_quad` (many points
against every component in one product) and `_whitened` (one point
against every component) are its Mahalanobis kernels.
`_factor` calls the LAPACK gufuncs behind np.linalg.cholesky and
np.linalg.inv directly, since at D <= 8 those functions' Python wrappers
cost more than the factorization itself; it falls back to numpy.linalg,
with the same bits, errors and warnings, when a gufunc fails.
The online mixture (DynamicGaussianMixture, here) and the EM fit
(em.FixedGaussianMixture) are MixtureCore subclasses; the
terrain-conditioned query mixture is a plain MixtureCore.

DynamicGaussianMixture adds, for learning:

    _cov        (m, D, D)   exact unbiased covariances
    _creation   m entries   creation covariance of each component, or None

and derives _eval_cov from _cov and _creation (see WeightedGaussian).  The
component-at-mean densities N(mean_i; component j), an (m, m) matrix the
peak estimate needs, are not stored: `_scaled_peak` builds them from the
current arrays on each call, in O(m^2 D^2), scaled by the largest weighted
density at a mean, so that d is one ratio of numbers in [0, m] at every
covariance scale.  That scaled peak is at least 1, so the scaled numerator
alone, an O(m) dot product of the distances already in hand, bounds d from
above: add_sample builds the peak matrix only for a draw that neither t(0)
nor t(that bound) settles.  The
merge's draw is likewise one expression: its scores are shifted by the
nearest component's distance, so it needs no nearest-component fallback,
and every merge makes exactly one draw.

add_sample makes one pass over a sample, computing each piece once.  One
whitening (`_distances`) gives the differences x - mean_i, the squared
distances and their minimum: the distances serve the bound, d and the
draw, the minimum shifts the draw's scores, and a merge takes the drawn
component's difference as _absorb's dx.  exp(-k n) is evaluated once, and
t(0), t(bound) and t(d) are formed from it by merge_threshold's own
expression (`_threshold`).  A merge keeps the weight as a Python float and
writes the new evaluation covariance into its row; an append, whose
creation covariance is new_cov_scale * I, looks `_fresh` up by
(D, new_cov_scale) without building that matrix.  A stream that
stops once its count is final compares its total weight with
`_final_count(k)`, the first n at which `_count_is_final(n, k)` holds,
found once per k.
Invariant: after construction and after every add_sample, _eval_cov and
_chol_inv are those of the current moments (and so is every log
normalizer read off _chol_inv).  add_sample keeps this in
O(m D^2): a merge into component i updates i in place and re-factors only
i; an append grows every array by one, and factors nothing unless its
creation covariance differs from the last one appended by any mixture in
the process.  A fresh component's evaluation covariance and factor depend
on its creation covariance alone, so one module-level entry, `_fresh`,
keeps them with a read-only copy of that covariance, and every mixture
built with the same creation covariance (the many per-command mixtures of
a motion model, say) shares them.  Reads
(density, log_density, normalized_density, select_component, components)
never mutate a mixture; only add_sample writes.

A whole mixture is built from its moment arrays by one constructor,
`DynamicGaussianMixture._from_arrays`, the one place that derives _eval_cov
and _chol_inv from moments; model files load through it, and __init__ and
from_components stack their components into the same code.  The
per-component objects -- `WeightedGaussian` with `pd_gaussian`,
`merge_into`, and the `components` property that builds them on each
access -- are a reference layer: tests and benchmark oracles check the
arrays against them, and no learning, persistence or EM path builds them.
They, and the `density` entry in DynamicGaussianMixture's own namespace,
stay because the benchmark harness (bench/) wraps or reads them; no other
entry point or argument is kept for tests alone.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .gaussian import (
    LOG_2PI,
    Gaussian,
    ensure_positive_definite,
    positive_definite_cholesky,
    symmetrize,
)

# the gufuncs that np.linalg.cholesky and np.linalg.inv call, from numpy's
# private API; None where a numpy lacks them, and then _factor calls
# numpy.linalg itself, which gives the same bits
try:
    from numpy.linalg import _umath_linalg

    _cholesky_lo, _inv = _umath_linalg.cholesky_lo, _umath_linalg.inv
except (ImportError, AttributeError):
    _cholesky_lo = _inv = None
# what np.einsum calls (without `optimize`), skipping its Python wrapper,
# which costs more than the product on a few dozen entries; np.einsum
# itself, with the same bits, where neither private path has it
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    try:  # numpy < 2
        from numpy.core.multiarray import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum

# ((D, scale), read-only copies of the creation covariance scale * I, its
# fresh component's evaluation covariance and inverse factor) for the last
# creation covariance appended by any mixture, or None: see
# DynamicGaussianMixture._append.  The entry is replaced whole, never
# written in place.
_fresh: tuple[tuple[int, float], np.ndarray, np.ndarray, np.ndarray] | None = None

# the shift that _log_ratio gives a column whose every entry is -inf
_LOWEST = float(np.finfo(float).min)

#: Largest accepted sample coordinate magnitude: its square is finite in float64.
MAX_COORDINATE = math.sqrt(np.finfo(float).max)


def check_coordinates(v: np.ndarray, what: str) -> np.ndarray:
    """v itself if every coordinate is finite with a finite square, else
    ValueError naming the first offending coordinate ("<what> coordinate i
    is NaN", ...)."""
    for i, c in enumerate(v.tolist()):
        if not abs(c) <= MAX_COORDINATE:
            if math.isnan(c):
                problem = "is NaN"
            elif math.isinf(c):
                problem = "is infinite"
            else:
                problem = f"= {c!r} is too large: its square overflows float64"
            raise ValueError(f"{what} coordinate {i} {problem}")
    return v


def check_rows(points: np.ndarray, what: str) -> None:
    """check_coordinates on the first row of points (N, D) that holds a NaN,
    infinite or overflowing coordinate, named what.format(row=its index)."""
    bad = ~(np.abs(points) <= MAX_COORDINATE)
    if bad.any():
        row = int(np.argwhere(bad)[0, 0])
        check_coordinates(np.atleast_1d(points[row]), what.format(row=row))


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by the row maximum so
    no term overflows or underflows all at once; -inf for a row whose
    terms are all -inf."""
    top = a.max(axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=-1)) + top[..., 0]


def merge_threshold(d: float, n: float, k: float) -> float:
    """Probability of merging rather than adding: 1 - (1 - d) e^{-kn}.

    Non-decreasing in each argument; equals d at n = 0 and tends to 1 as
    n grows for any k > 0.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("normalized density d must lie in [0, 1]")
    if not (n >= 0 and k >= 0):
        raise ValueError("n and k must be non-negative")
    return _threshold(d, np.exp(-k * n))


def _threshold(d: float, decay: float) -> float:
    """merge_threshold(d, n, k) given decay = exp(-k n), unchecked: the one
    copy of its expression, so a caller that holds the decay for several
    d gets merge_threshold's bits."""
    return 1.0 - (1.0 - d) * decay


def _count_is_final(n: float, k: float) -> bool:
    """True when a mixture that has absorbed n samples at constant k can
    gain no more components: the threshold at d = 0 has rounded to 1, so
    (as (1 - d) <= 1 and rounding is monotone) it is 1 for every d in
    [0, 1], every draw in [0, 1) falls below it, and it stays 1 as n grows.
    In float64 that happens once k n exceeds about 37.4."""
    return merge_threshold(0.0, n, k) == 1.0


def _final_count(k: float) -> float:
    """The first n = 1, 2, ... at which _count_is_final(n, k) holds, found
    on that predicate by doubling then bisection (the predicate is
    monotone in n), so a stream can compare its total weight with this
    count in place of evaluating the predicate after every sample.

    inf when no n up to 2**53 is final (k = 0 never is): a total weight
    counted by adding 1 stops growing there.  k = inf is final at n = 1.
    k must be non-negative (merge_threshold raises otherwise)."""
    hi = 1
    while not _count_is_final(hi, k):
        if hi >= 2**53:
            return math.inf
        hi *= 2
    lo = hi // 2  # 0, or a count the doubling found not final
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_is_final(mid, k):
            hi = mid
        else:
            lo = mid
    return float(hi)


def _absorb(w: float, mean: np.ndarray, cov: np.ndarray, dx: np.ndarray) -> None:
    """Update, in place, the mean and unbiased covariance of w >= 1 samples
    to those after absorbing the sample x = mean + dx, given dx = x - mu
    (West 1979; Welford 1962):

        w'  = w + 1
        mu' = mu + dx / w'
        S'  = ((w - 1) S + dx (x - mu')^T) / w,   where x - mu' = (w / w') dx

    The outer product is formed from dx alone, so no large offset cancels
    and S' stays exactly symmetric.  For w = 1 the (w - 1) factor drops the
    creation covariance and S' is the unbiased covariance of two samples.
    """
    w_new = w + 1.0
    mean += dx / w_new
    cov *= w - 1.0
    cov += dx[:, None] * dx * (w / w_new)
    cov /= w


def _evaluation_cov(cov: np.ndarray, w: float, creation: np.ndarray | None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Covariance a component is evaluated with (see WeightedGaussian): cov
    itself when it is evaluated as it is, else the blend, written into out
    (D, D) when given."""
    if creation is None or w < 1.0:
        return cov
    return symmetrize(((w - 1.0) * cov + creation) / w, out)


def _factor(eval_cov: np.ndarray):
    """(evaluation covariances, inverse upper Cholesky factors) of one
    covariance (D, D) or a stack (m, D, D).  S = U U^T with U upper
    triangular is the lower factor of S with its coordinates reversed,
    reversed back.

    It calls the LAPACK gufuncs behind np.linalg.cholesky and np.linalg.inv
    directly, which skips their Python wrappers (most of the cost at
    D <= 8) and gives the same bits.  A gufunc that fails fills its output
    with NaN, and a NaN factor makes a non-finite inverse; so when either
    output holds a non-finite entry, the work is redone by
    `_factor_linalg`, which diagonally loads a covariance that does not
    factor and raises or warns as numpy.linalg does.  Where numpy has no
    such gufuncs, `_factor_linalg` does all the work.
    """
    if _cholesky_lo is None:
        return _factor_linalg(eval_cov)
    flipped = eval_cov[..., ::-1, ::-1]
    with np.errstate(all="ignore"):
        chol = _cholesky_lo(flipped, signature="d->d")
        chol_inv = _inv(chol[..., ::-1, ::-1], signature="d->d")
        # non-finite when an entry of either is: so is its term of the sum
        ok = math.isfinite(np.vdot(chol, chol_inv))
    if ok:
        return eval_cov, chol_inv
    return _factor_linalg(eval_cov)


def _factor_linalg(eval_cov: np.ndarray):
    """_factor through numpy.linalg: a covariance that does not factor is
    diagonally loaded until it does (see positive_definite_cholesky)."""
    flipped = eval_cov[..., ::-1, ::-1]
    try:
        chol = np.linalg.cholesky(flipped)
    except np.linalg.LinAlgError:
        d = eval_cov.shape[-1]
        pairs = [positive_definite_cholesky(c) for c in flipped.reshape(-1, d, d)]
        eval_cov = np.array([c for c, _ in pairs]).reshape(flipped.shape)[..., ::-1, ::-1]
        chol = np.array([f for _, f in pairs]).reshape(flipped.shape)
    return eval_cov, np.linalg.inv(chol[..., ::-1, ::-1])


def _log_diag(chol_inv: np.ndarray) -> np.ndarray:
    """Logs of the diagonals of inverse Cholesky factors (..., D, D), read
    through one strided view: (..., D)."""
    return np.log(chol_inv.diagonal(axis1=-2, axis2=-1))


def _log_norm(chol_inv: np.ndarray) -> np.ndarray:
    """Log normalization constants from inverse Cholesky factors (..., D, D):
    -D/2 log(2 pi) + log|V|."""
    return -0.5 * chol_inv.shape[-1] * LOG_2PI + _log_diag(chol_inv).sum(axis=-1)


def _quad(pts: np.ndarray, mean: np.ndarray, chol_inv: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of every point (N, D) to every
    component (m, D): shape (N, m)."""
    y = (pts[None] - mean[:, None]) @ chol_inv.transpose(0, 2, 1)
    return np.einsum("mnd,mnd->nm", y, y)


class MixtureCore:
    """Weighted Gaussian mixture evaluated from stacked arrays (see the
    module docstring); the density is sum_i (w_i / W) N(x; mean_i, S_i)."""

    def __init__(self, w: np.ndarray, mean: np.ndarray, eval_cov: np.ndarray,
                 chol_inv: np.ndarray):
        """Takes ownership of the arrays: weights (m,), means (m, D),
        evaluation covariances (m, D, D) and their inverse upper Cholesky
        factors (m, D, D); callers holding only covariances pass
        *_factor(cov)."""
        self.dim = mean.shape[1]
        self._w, self._W, self._mean = w, float(w.sum()), mean
        self._eval_cov, self._chol_inv = eval_cov, chol_inv

    def __len__(self) -> int:
        return len(self._w)

    @property
    def _log_norm(self) -> np.ndarray:
        """Log normalization constant of each component (m,), read off the
        diagonals of the inverse factors on each access."""
        return _log_norm(self._chol_inv)

    def _check_points(self, x) -> tuple[np.ndarray, bool]:
        if not len(self):
            raise ValueError("mixture is empty")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"point dimension {pts.shape[1]} != mixture dimension {self.dim}")
        return pts, single

    def density(self, x):
        """Mixture pdf at one point (D,), a float, or a batch (N, D): exp of
        log_density, the one formula for the mixture."""
        vals = self.log_density(x)
        return math.exp(vals) if isinstance(vals, float) else np.exp(vals)

    def log_density(self, x):
        """Log of the mixture pdf, summed in log space: finite wherever one
        component's log density is, even where density() underflows to 0.
        One point takes the query kernel: _split_log_density over all D
        coordinates, whose column 1 is then 0, and _log_ratio, whose
        second sum is then the total weight.  A batch sums its (N, m)
        component log densities with logsumexp."""
        pts, single = self._check_points(x)
        if single:
            return self._log_ratio(self._split_log_density(pts[0], self.dim)[1])
        log_components = self._log_norm - 0.5 * _quad(pts, self._mean, self._chol_inv)
        return logsumexp(log_components + np.log(self._w / self._W))

    def support_box(self, n_sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (low, high) covering every component's mean
        -+ n_sigma marginal standard deviations of its evaluation covariance."""
        sig = np.sqrt(np.clip(np.diagonal(self._eval_cov, axis1=1, axis2=2), 0.0, None))
        return (self._mean - n_sigma * sig).min(axis=0), (self._mean + n_sigma * sig).max(axis=0)

    def _whitened(self, x: np.ndarray) -> np.ndarray:
        """V_i (x - mean_i) for one point x (D,) and every component: (m, D)."""
        return self._whiten(x[..., None, :] - self._mean)

    def _whiten(self, diff: np.ndarray) -> np.ndarray:
        """V_i diff_i for differences diff (..., m, D) from the means."""
        return (self._chol_inv @ diff[..., None])[..., 0]

    def _split_log_density(self, u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(y, s) for one point u (D,), from the one whitening
        y_i = V_i (u - mean_i) (m, D): s (m, 2) holds log N(u; component i)
        in column 0 and log N(u[k:]; marginal_i over k:) in column 1, each
        a sum over its coordinates of the terms
        log diag(V_i) - 1/2 log(2 pi) - y_i^2 / 2.  With k = D column 1
        sums no term and is 0.  y_i[k:] is the marginal's whitening and the
        trailing diagonal of V_i its inverse factor's (see the module
        docstring), so y[:, k:] and column 1 are the same for any finite
        u[:k].  A coordinate whose square overflows gives a -inf term, and
        a sum, never a product with it, forms each column, so the other
        column keeps its value."""
        y = self._whitened(u)
        terms = _log_diag(self._chol_inv) - 0.5 * y * y
        s = np.empty((len(terms), 2))
        # each sum starts from its coordinates' share of -1/2 log(2 pi)
        np.add.reduce(terms, axis=1, out=s[:, 0], initial=-0.5 * LOG_2PI * self.dim)
        np.add.reduce(terms[:, k:], axis=1, out=s[:, 1], initial=-0.5 * LOG_2PI * (self.dim - k))
        return y, s

    def _log_ratio(self, s: np.ndarray) -> float:
        """log sum_i w_i exp(s_i0) - log sum_i w_i exp(s_i1) for s (m, 2)
        from _split_log_density: the log of the joint over the marginal,
        in which the total weight cancels.  Each sum is taken as
        top + log(w @ exp(s - top)), top being its column's maximum, so its
        largest term is w_i exp(0) and it neither overflows nor underflows
        to 0.  A column whose every entry is -inf is shifted by the lowest
        float instead, so its sum is log(0) = -inf, not NaN."""
        top = np.maximum.reduce(s, initial=_LOWEST)
        log_joint, log_marginal = (top + np.log(self._w @ np.exp(s - top))).tolist()
        return log_joint - log_marginal

    def _conditional(self, k: int, y: np.ndarray, s: np.ndarray) -> "MixtureCore":
        """Mixture over the leading k coordinates given that the trailing
        ones equal z = u[k:], from the evaluation Gaussians and
        _split_log_density(u, k) = (y, s).

        Component i is conditioned in closed form and reweighted by w_i
        times its trailing-block marginal density at z, so the result is
        pointwise joint(x || z) / marginal(z).  Everything comes from the
        stored factors (see the module docstring); nothing is factorized.
        Components whose weight underflows to zero are dropped; the result
        is empty when all of them do."""
        weight = self._w * np.exp(s[:, 1])
        keep = weight > 0.0
        u_xz = self._eval_cov[:, :k, k:] @ self._chol_inv[:, k:, k:].transpose(0, 2, 1)
        mean = self._mean[:, :k] + (u_xz @ y[:, k:, None])[:, :, 0]
        schur = self._eval_cov[:, :k, :k] - u_xz @ u_xz.transpose(0, 2, 1)
        schur = 0.5 * (schur + schur.transpose(0, 2, 1))
        return MixtureCore(weight[keep], mean[keep], schur[keep], self._chol_inv[keep, :k, :k])


class WeightedGaussian:
    """A mixture component: Gaussian moments plus an unnormalized weight.

    Under the online update rules w counts contributing samples (integral,
    >= 1).  Hand-built mixtures may carry arbitrary positive weights.

    Components created by the online update remember their creation
    covariance.  The stored moments `g` are always the exact incremental
    estimators, which are rank-deficient right after the first merge (the
    unbiased covariance of two points), so densities are evaluated against
    a blend that treats the creation covariance as one pseudo-sample:

        S_eval = ((w - 1) S + S_creation) / w

    The prior washes out as the component matures, keeps young components
    selectable instead of freezing them at their second sample, and never
    touches the exact moments.  Components without a creation covariance
    (hand-built mixtures) evaluate their moments as-is, with minimal
    diagonal loading only if factorization fails.
    """

    __slots__ = ("g", "w", "creation_cov")

    def __init__(self, g: Gaussian, w: float, creation_cov: np.ndarray | None = None):
        if w <= 0:
            raise ValueError("component weight must be positive")
        self.g = g
        self.w = float(w)
        self.creation_cov = creation_cov

    def pd_gaussian(self) -> Gaussian:
        """Gaussian used for density evaluation (see class docstring)."""
        cov = _evaluation_cov(self.g.cov, self.w, self.creation_cov)
        return ensure_positive_definite(self.g if cov is self.g.cov else Gaussian(self.g.mean, cov))

    def __repr__(self):
        return f"WeightedGaussian(w={self.w}, {self.g!r})"


def merge_into(c: WeightedGaussian, x) -> WeightedGaussian:
    """Absorb one sample into a component, returning the updated component.

    Exact one-pass update of the unbiased estimators (see _absorb):
    w' = w + 1, mu' = (w mu + x) / w', and S' the unbiased covariance of
    the w' samples.  For w = 1 the creation covariance is discarded and S'
    is the unbiased covariance of the two samples seen.
    """
    if c.w < 1:
        raise ValueError("merge requires a component with weight >= 1")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != c.g.dim:
        raise ValueError(f"sample dimension {x.shape[0]} != component dimension {c.g.dim}")
    mean, cov = c.g.mean.copy(), c.g.cov.copy()
    _absorb(c.w, mean, cov, x - mean)
    return WeightedGaussian(Gaussian(mean, cov), c.w + 1.0, c.creation_cov)


class DynamicGaussianMixture(MixtureCore):
    """Variable-size weighted Gaussian mixture over a D-dimensional space,
    stored as parallel arrays (see the module docstring)."""

    def __init__(self, dim: int, components: list[WeightedGaussian] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        comps, d = list(components or []), int(dim)
        for c in comps:
            if c.g.dim != d:
                raise ValueError(f"component dimension {c.g.dim} != mixture dimension {d}")
        m = len(comps)
        self._adopt(np.array([c.w for c in comps], dtype=float),
                    np.array([c.g.mean for c in comps], dtype=float).reshape(m, d),
                    np.array([c.g.cov for c in comps], dtype=float).reshape(m, d, d),
                    [None if c.creation_cov is None else np.array(c.creation_cov, dtype=float)
                     for c in comps])

    @classmethod
    def _from_arrays(cls, w: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                     creation: list) -> "DynamicGaussianMixture":
        """A mixture that takes ownership of weights (m,), means (m, D),
        exact covariances (m, D, D) and creation covariances (m entries,
        each (D, D) or None); no component object is built."""
        mix = cls.__new__(cls)
        mix._adopt(w, mean, cov, creation)
        return mix

    def _adopt(self, w: np.ndarray, mean: np.ndarray, cov: np.ndarray, creation: list) -> None:
        """Take ownership of the moment arrays (see _from_arrays) and derive
        every component's evaluation covariance and inverse factor from
        them: the one place that does so for a whole mixture."""
        self._cov, self._creation = cov, creation
        # weights only grow from here on, so this is the one place to find a
        # component below 1, which no merge could take (see add_sample)
        light = np.flatnonzero(w < 1.0)
        self._light = int(light[0]) if light.size else None
        # _evaluation_cov for every row at once: the blend where a row has a
        # creation covariance and w >= 1, cov itself elsewhere
        eval_cov = cov.copy()
        blended = np.flatnonzero((w >= 1.0) & np.array([c is not None for c in creation], dtype=bool))
        if blended.size:
            wb = w[blended, None, None]
            blend = ((wb - 1.0) * cov[blended] + np.array([creation[i] for i in blended])) / wb
            eval_cov[blended] = 0.5 * (blend + blend.transpose(0, 2, 1))
        super().__init__(w, mean, *(_factor(eval_cov) if len(w) else (eval_cov, eval_cov.copy())))

    # -- bookkeeping ------------------------------------------------------

    def __repr__(self):
        return f"DynamicGaussianMixture(dim={self.dim}, components={len(self)}, weight={self.total_weight()})"

    @property
    def components(self) -> list[WeightedGaussian]:
        """The components as WeightedGaussian objects, built on each access
        from copies of the arrays: editing them does not change the mixture."""
        return [
            WeightedGaussian(Gaussian(self._mean[i].copy(), self._cov[i].copy()),
                             float(self._w[i]), None if creation is None else creation.copy())
            for i, creation in enumerate(self._creation)
        ]

    def total_weight(self) -> float:
        """Sum of unnormalized weights; the number of absorbed samples for
        models built purely by add_sample."""
        return self._W

    def weights(self) -> np.ndarray:
        return self._w.copy()

    def means(self) -> np.ndarray:
        return self._mean.copy()

    # -- evaluation --------------------------------------------------------

    # an entry in this class's own namespace, where per-class method
    # wrappers (bench/tracer.py) look it up
    density = MixtureCore.density

    def _scaled_weights(self) -> tuple[float, np.ndarray]:
        """(c, a): the mixture scaled by exp(-c), in O(m D).

        c = max_j log((w_j / W) N(mean_j; component j)) and
        a_j = (w_j / W) N(mean_j; component j) exp(-c), so the mixture at a
        point with squared distances q_j is exp(c) sum_j a_j exp(-q_j / 2).
        Every a_j is <= 1, and the argmax's is exactly 1."""
        log_a = np.log(self._w / self._W) + self._log_norm
        c = log_a.max()
        return float(c), np.exp(log_a - c)

    def _scaled_peak(self, a: np.ndarray) -> float:
        """The peak estimate scaled by exp(-c), for a = _scaled_weights()[1]:
        peak = max_i sum_j a_j exp(-q_ij / 2) over the means.  A component's
        density is highest at its mean, so every term is <= 1, and the
        argmax of a meets itself at distance exactly 0, so its own term is
        exactly 1 and the others add non-negative terms: peak lies in
        [1, m] whatever the scale of the covariances, also after rounding.
        Builds the (m, m) distances, so it costs O(m^2 D^2)."""
        return float((np.exp(-0.5 * _quad(self._mean, self._mean, self._chol_inv)) @ a).max())

    def _peak_estimate(self) -> float:
        """Estimated mixture maximum: the largest mixture value over all
        component means.  Exact for well-separated components; can
        undershoot when components overlap, so callers clamp ratios at 1.
        It is exp(c) times the scaled peak of _scaled_peak, so it
        underflows to 0 or overflows to inf where that product does; the
        ratio d never forms it."""
        c, a = self._scaled_weights()
        return float(np.exp(c) * self._scaled_peak(a))

    def _normalized(self, quad: np.ndarray) -> np.ndarray:
        """Mixture density over its estimated peak, clamped at 1, from the
        squared distances (m,) of one point or (N, m) of N points.

        Numerator and peak are both scaled by exp(-c) (see _scaled_peak),
        so the peak lies in [1, m] and the ratio is one expression at every
        scale: it is never 0/0, inf/inf or a subnormal peak, and there is
        no log-space fallback."""
        _, a = self._scaled_weights()
        return np.minimum((np.exp(-0.5 * quad) @ a) / self._scaled_peak(a), 1.0)

    def normalized_density(self, x):
        """Mixture density rescaled so the estimated peak is 1; in [0, 1].
        Each call builds the peak matrix, O(m^2 D^2), so it is meant for
        inspection, not hot loops."""
        pts, single = self._check_points(x)
        vals = self._normalized(_quad(pts, self._mean, self._chol_inv))
        return float(vals[0]) if single else vals

    # -- online update -----------------------------------------------------

    def _distances(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(diff, quad, nearest) for one point x (D,), from one whitening:
        the differences diff_i = x - mean_i (m, D), the squared Mahalanobis
        distances quad_i = |V_i diff_i|^2 (m,) and their minimum.

        A finite x can still lie so far from every component, against
        small enough covariances, that every distance overflows to inf (or
        one to NaN), and then neither d nor the draw has a defined value:
        that raises ValueError.  It uses no randomness, so add_sample and
        select_component raise before the rng is touched."""
        diff = x - self._mean
        y = self._whiten(diff)
        quad = _einsum("md,md->m", y, y)
        # np.minimum.reduce is what quad.min() calls, without its Python
        # wrapper: half the cost on a few dozen entries
        nearest = float(np.minimum.reduce(quad))
        if not nearest < math.inf:
            raise ValueError("sample is too far from the mixture: its squared Mahalanobis "
                             "distance to every component overflows float64")
        return diff, quad, nearest

    def _selection_scores(self, quad: np.ndarray) -> np.ndarray:
        """w_i * exp(-maha_i^2 / 2) from the squared distances to one point."""
        return self._w * np.exp(-0.5 * quad)

    def _draw(self, quad: np.ndarray, rng: np.random.Generator, nearest: float) -> int:
        """One categorical draw with probability proportional to
        w_i * exp(-quad_i / 2), from exactly one rng.random().  The scores
        are shifted by the smallest distance, nearest (see _distances), so
        the nearest component scores its own weight and the total is
        positive and finite even where every unshifted score underflows."""
        cum = self._selection_scores(quad - nearest).cumsum().tolist()
        return min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)

    def select_component(self, x, rng: np.random.Generator) -> int:
        """Draw a component index with probability proportional to
        w_i * exp(-maha_i(x)^2 / 2), using exactly one rng.random().  There
        is no fallback: far outside the support, where every score would
        underflow, the draw still follows these proportions (see _draw).
        A point with a NaN, an infinite or an overflowing coordinate, or
        whose distance to every component overflows, raises ValueError, as
        in add_sample, before the rng is touched."""
        pts, _ = self._check_points(x)
        _, quad, nearest = self._distances(check_coordinates(pts[0], "sample"))
        return self._draw(quad, rng, nearest)

    def _check_sample(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise ValueError(f"sample dimension {x.shape[0]} != mixture dimension {self.dim}")
        return check_coordinates(x, "sample")

    def add_sample(self, x, k: float, rng: np.random.Generator, new_cov_scale: float = 1.0) -> None:
        """Absorb one sample: merge into a stochastically chosen component
        or append a fresh one with mean x, covariance new_cov_scale * I and
        weight 1.  Total weight always grows by exactly 1.

        A sample with a NaN, an infinite coordinate, or a coordinate whose
        square overflows float64, a sample whose distance to every
        component overflows (see _distances), a k that is negative or NaN,
        a new_cov_scale outside (0, inf), and a mixture holding a component
        of weight below 1 (which no merge can take) raise ValueError
        before anything else happens, leaving the mixture and rng
        untouched.  Otherwise the uniform draw happens first,
        unconditionally, so a fixed seed yields the same decision sequence
        regardless of branch outcomes; a merge then makes exactly one more
        draw, for its component (see _draw).

        Each piece of a sample's work is computed once: one whitening gives
        the differences x - mean_i, the squared distances and their
        minimum (_distances); the distances serve d and the draw, the
        minimum shifts the draw's scores, and the merge takes the drawn
        component's difference as its dx (_absorb).  exp(-k n) is
        evaluated once, and each threshold the decision needs is formed
        from it (_merges).
        """
        if not k >= 0:
            raise ValueError("k must be non-negative")
        if not 0.0 < new_cov_scale < math.inf:
            raise ValueError(f"new_cov_scale must be positive and finite, got {new_cov_scale!r}")
        if self._light is not None:
            raise ValueError(f"component {self._light} has weight {float(self._w[self._light])!r} < 1; "
                             "a mixture absorbs samples only when every component has weight >= 1")
        x = self._check_sample(x)
        diff = None
        if len(self):
            diff, quad, nearest = self._distances(x)
        r = rng.random()
        # an empty mixture has d = n = 0, so t = 0 and it always appends
        if diff is not None and self._merges(quad, r, k):
            i = self._draw(quad, rng, nearest)
            self._merge(i, diff[i])
        else:
            self._append(x, new_cov_scale)
        self._W += 1.0

    def _merges(self, quad: np.ndarray, r: float, k: float) -> bool:
        """r < t(d), for the squared distances quad (m,) of a sample, where
        t(d) = merge_threshold(d, n, k) and d = _normalized(quad).

        t is non-decreasing in d also after rounding (fl(1 - d) <= 1 and
        rounding is monotone), so two bounds on d settle most draws
        without the O(m^2 D^2) peak estimate: r < t(0) merges, and
        r >= t(min(num, 1)) appends, where num = sum_j a_j exp(-q_j / 2) is
        d's scaled numerator, an O(m) dot product.  The scaled peak is at
        least 1 (see _scaled_peak), so d = min(num / peak, 1) <= min(num, 1)
        also after rounding.  Only a draw between the bounds builds the
        peak, and d is then the value _normalized gives.

        exp(-k n) is evaluated once, and t(0), t(min(num, 1)) and t(d) are
        formed from it by merge_threshold's own expression (_threshold), so
        each has merge_threshold's bits.  Every d here lies in [0, 1] and
        add_sample has checked k, so merge_threshold's checks are skipped."""
        decay = float(np.exp(-k * self._W))
        if r < _threshold(0.0, decay):
            return True
        _, a = self._scaled_weights()
        num = float(np.exp(-0.5 * quad) @ a)
        if r >= _threshold(min(num, 1.0), decay):
            return False
        return r < _threshold(min(num / self._scaled_peak(a), 1.0), decay)

    def _merge(self, i: int, dx: np.ndarray) -> None:
        """Absorb the sample x = mean_i + dx into component i, whose weight
        is >= 1 (add_sample checks that every weight is before it draws).
        The weight is a Python float, and the new evaluation covariance is
        written into its row before i alone is re-factored."""
        w = float(self._w[i])
        _absorb(w, self._mean[i], self._cov[i], dx)
        w += 1.0
        self._w[i] = w
        row = self._eval_cov[i]
        eval_cov, self._chol_inv[i] = _factor(
            _evaluation_cov(self._cov[i], w, self._creation[i], out=row))
        if eval_cov is not row:  # cov itself, or loaded by _factor_linalg
            row[...] = eval_cov

    def _append(self, x: np.ndarray, scale: float) -> None:
        """Grow every array by one row for a weight-1 component at x whose
        covariance and creation covariance are scale * I.  Its evaluation
        covariance and factor depend on that covariance alone, so they are
        kept in the module's `_fresh` entry for the last one any mixture
        appended, and reused while it repeats, as it does within a stream
        and across the mixtures of one motion model; the components share
        one read-only copy of it as their creation covariance.  The entry
        is keyed by (D, scale), so a repeated scale * I is not even built."""
        global _fresh
        key = (self.dim, scale)
        fresh = _fresh
        if fresh is None or fresh[0] != key:
            cov = scale * np.eye(self.dim)
            eval_cov, chol_inv = _factor(_evaluation_cov(cov, 1.0, cov))
            for arr in (cov, eval_cov, chol_inv):
                arr.flags.writeable = False
            fresh = _fresh = (key, cov, eval_cov, chol_inv)
        _, cov, eval_cov, chol_inv = fresh
        self._w = np.concatenate([self._w, [1.0]])
        self._mean = np.concatenate([self._mean, x[None]])
        self._cov = np.concatenate([self._cov, cov[None]])
        self._creation.append(cov)
        self._eval_cov = np.concatenate([self._eval_cov, eval_cov[None]])
        self._chol_inv = np.concatenate([self._chol_inv, chol_inv[None]])

    # -- construction ------------------------------------------------------

    @classmethod
    def from_components(cls, components: list[WeightedGaussian]) -> "DynamicGaussianMixture":
        if not components:
            raise ValueError("need at least one component")
        return cls(components[0].g.dim, components)
