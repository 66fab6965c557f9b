"""Hand-made mixtures for the tests, built by the library's one array
constructor, DynamicGaussianMixture._from_arrays."""

import numpy as np

from dgmm.mixture import DynamicGaussianMixture


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
