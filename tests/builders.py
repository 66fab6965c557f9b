"""Hand-made mixtures for the tests, built by the library's one array
constructor, DynamicGaussianMixture._from_arrays."""

import numpy as np

from dgmm.mixture import DynamicGaussianMixture


def dynamic_mixture(w, mean, cov, creation=None) -> DynamicGaussianMixture:
    """A mixture of weights (m,), means (m, D) and exact covariances
    (m, D, D), given as array-likes and copied.  creation holds one
    creation covariance (D, D) or None per component; by default every
    component has none and is evaluated with its covariance as it is."""
    w = np.array(w, dtype=float).reshape(-1)
    m = len(w)
    mean = np.array(mean, dtype=float)
    if mean.ndim != 2:  # one row per component, also for an empty (0, D)
        mean = mean.reshape(m, -1)
    d = mean.shape[1]
    cov = np.array(cov, dtype=float).reshape(m, d, d)
    creation = [None if c is None else np.array(c, dtype=float)
                for c in (creation if creation is not None else [None] * m)]
    return DynamicGaussianMixture._from_arrays(w, mean, cov, creation)
