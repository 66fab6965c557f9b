"""Hand-made mixtures for the tests, built by the library's one array
constructor, DynamicGaussianMixture._from_arrays, and the float64 test
that a mixture's component count is final."""

import numpy as np

from dgmm.mixture import DynamicGaussianMixture, merge_threshold


def dynamic_mixture(w, mean, cov, k=0.3, creation_cov_scale=None) -> DynamicGaussianMixture:
    """A mixture of weights (m,), means (m, D) and exact covariances
    (m, D, D), given as array-likes and copied, with merge likelihood k.
    With a creation_cov_scale s every component of weight >= 1 is
    evaluated with its blend with s I, and the mixture absorbs samples; by
    default it has no creation covariance, and every component is
    evaluated with its covariance as it is."""
    w = np.array(w, dtype=float).reshape(-1)
    m = len(w)
    mean = np.array(mean, dtype=float)
    if mean.ndim != 2:  # one row per component, also for an empty (0, D)
        mean = mean.reshape(m, -1)
    d = mean.shape[1]
    cov = np.array(cov, dtype=float).reshape(m, d, d)
    return DynamicGaussianMixture._from_arrays(w, mean, cov, k, creation_cov_scale)


def rebuild(m: DynamicGaussianMixture) -> DynamicGaussianMixture:
    """m built anew from copies of its moment arrays and its constants."""
    return dynamic_mixture(m._w, m._mean, m._cov, m.k, m.creation_cov_scale)


def count_is_final(n: float, k: float) -> bool:
    """True when the merge threshold at d = 0 has rounded to 1 after n
    samples at k: it is then 1 for every d in [0, 1], every draw in [0, 1)
    falls below it, and it stays 1 as n grows, so no later sample appends.
    In float64 that happens once k n exceeds about 37.4."""
    return merge_threshold(0.0, n, k) == 1.0
