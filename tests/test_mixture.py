import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dgmm.mixture
from dgmm.gaussian import LOG_2PI, Gaussian, positive_definite_cholesky
from dgmm.mixture import (
    DynamicGaussianMixture,
    WeightedGaussian,
    _Served,
    _absorb,
    _evaluation_cov,
    _factor,
    _log_norm,
    _merge_floors,
    _quad,
    _threshold,
    logsumexp,
    merge_into,
    merge_threshold,
)
from dgmm.em import FixedGaussianMixture, Grid, integrate_on_grid, mixture_support_box
from dgmm.datasets import sample_gmm, three_component_benchmark
from dgmm.motion import CommandKey, MotionModel

from builders import count_is_final, dynamic_mixture, rebuild

STD_PEAK = 1.0 / math.sqrt(2 * math.pi)
FWD = CommandKey(0.5, 0.0, 0.0)


def mix(*comps, k=0.3, creation_cov_scale=None):
    means, covs, w = zip(*comps)
    return dynamic_mixture(w, means, covs, k, creation_cov_scale)


def peak_estimate(m):
    """The mixture's largest value over its component means: exp(c) times
    the scaled peak, so it underflows to 0 or overflows to inf where that
    product does."""
    c, a = m._scaled_weights()
    return float(np.exp(c) * m._scaled_peak(a))


class TestConstruction:
    """Each mixture kind has one way to be built from moments, and takes
    arrays: no constructor stacks component objects."""

    def test_no_component_object_constructor(self):
        assert not hasattr(DynamicGaussianMixture, "from_components")
        with pytest.raises(TypeError):
            DynamicGaussianMixture(1, 0.3, 1.0, [WeightedGaussian(Gaussian([0.0], [[1.0]]), 1.0)])
        with pytest.raises(TypeError):
            FixedGaussianMixture([1.0], [Gaussian([0.0], [[1.0]])])
        for owner, name in ((DynamicGaussianMixture, "weights"), (DynamicGaussianMixture, "means"),
                            (FixedGaussianMixture, "gaussians")):
            assert not hasattr(owner, name), name

    def test_empty_mixture_from_its_dimension(self):
        m = DynamicGaussianMixture(3, 0.3)
        assert len(m) == 0 and m.dim == 3 and m.total_weight() == 0.0
        assert m._mean.shape == (0, 3) and m._cov.shape == m._chol_inv.shape == (0, 3, 3)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            DynamicGaussianMixture(0, 0.3)

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2", None])
    def test_dimension_not_an_integer(self, dim):
        with pytest.raises(ValueError, match="^dim must be an integer$"):
            DynamicGaussianMixture(dim, 0.3)
        assert DynamicGaussianMixture(np.int64(2), 0.3).dim == 2

    def test_reference_layer_is_not_exported(self):
        names = ("Gaussian", "IndexSplit", "ensure_positive_definite", "regularize",
                 "WeightedGaussian", "merge_into", "Grid", "integrate_on_grid", "mise")
        for name in names:
            assert name not in dgmm.__all__ and not hasattr(dgmm, name), name
        assert all(hasattr(dgmm, name) for name in dgmm.__all__)


class TestMixtureDensity:
    def test_single_standard_component(self):
        m = mix(([0.0], [[1.0]], 1.0))
        assert m.density(np.array([0.0])) == pytest.approx(STD_PEAK, rel=1e-12)

    def test_two_identical_components_collapse(self):
        single = mix(([1.0], [[2.0]], 1.0))
        double = mix(([1.0], [[2.0]], 1.0), ([1.0], [[2.0]], 3.0))
        for x in (-1.0, 0.5, 4.0):
            assert double.density(np.array([x])) == pytest.approx(
                single.density(np.array([x])), rel=1e-12
            )

    def test_weighted_two_component_value(self):
        m = mix(([0.0], [[1.0]], 1.0), ([4.0], [[1.0]], 3.0))
        g0 = Gaussian([0.0], [[1.0]])
        g4 = Gaussian([4.0], [[1.0]])
        expect = 0.25 * g0.density(np.array([0.0])) + 0.75 * g4.density(np.array([0.0]))
        assert m.density(np.array([0.0])) == pytest.approx(expect, rel=1e-12)

    def test_empty_and_mismatch_errors(self):
        empty = DynamicGaussianMixture(2, 0.3)
        with pytest.raises(ValueError):
            empty.density(np.zeros(2))
        m = mix(([0.0], [[1.0]], 1.0))
        with pytest.raises(ValueError):
            m.density(np.zeros(2))

    @pytest.mark.parametrize("read", ["density", "log_density", "normalized_density", "select_component"])
    @pytest.mark.parametrize("shape", [(1, 2, 2), (3, 2, 2), (1, 1, 1, 2)])
    def test_points_with_more_than_two_dimensions_rejected(self, read, shape):
        m = mix(([0.0, 0.0], np.eye(2), 1.0), ([3.0, 0.0], np.eye(2), 2.0))
        rng = np.random.default_rng(41)
        state = rng.bit_generator.state
        call = getattr(m, read)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            call(np.zeros(shape), rng) if read == "select_component" else call(np.zeros(shape))
        assert rng.bit_generator.state == state

    def test_density_is_exp_of_log_density(self):
        # one formula: density is exp of log_density, bit for bit, a float
        # for one point and an array for a batch
        rng = np.random.default_rng(40)
        m = mix(([0.0, 1.0], [[1.0, 0.3], [0.3, 0.5]], 2.0), ([3.0, -1.0], [[0.2, 0.0], [0.0, 4.0]], 5.0))
        pts = 3.0 * rng.standard_normal((50, 2))
        pts[0] = [300.0, 0.0]  # far enough that the density underflows to 0
        for x in pts:
            got = m.density(x)
            assert type(got) is float
            assert got == math.exp(m.log_density(x))
        assert m.density(pts[0]) == 0.0
        batch = m.density(pts)
        assert isinstance(batch, np.ndarray) and batch.shape == (50,)
        assert np.array_equal(batch, np.exp(m.log_density(pts)))


class TestNormalizedMixtureDensity:
    def test_peak_of_single_component(self):
        m = mix(([2.0], [[1.0]], 5.0))
        assert m.normalized_density(np.array([2.0])) == pytest.approx(1.0)

    def test_reduces_to_component_normalized_density(self):
        g = Gaussian([1.0], [[3.0]])
        m = mix(([1.0], [[3.0]], 2.0))
        for x in (-2.0, 0.0, 1.5):
            assert m.normalized_density(np.array([x])) == pytest.approx(
                g.normalized_density(np.array([x])), rel=1e-12
            )

    def test_well_separated_peak_estimate_matches_grid_search(self):
        m = mix(([0.0], [[1.0]], 1.0), ([10.0], [[1.0]], 1.0))
        xs = np.linspace(-8.0, 18.0, 200001)
        grid_max = m.density(xs[:, None]).max()
        assert peak_estimate(m) == pytest.approx(grid_max, abs=1e-6)
        assert m.normalized_density(np.array([0.0])) == pytest.approx(1.0, abs=1e-4)
        assert m.normalized_density(np.array([10.0])) == pytest.approx(1.0, abs=1e-4)

    def test_clamped_to_one_for_overlapping_components(self):
        # the candidate-mean peak estimate can undershoot between two
        # overlapping components; the ratio must still be capped at 1
        m = mix(([-0.5], [[1.0]], 1.0), ([0.5], [[1.0]], 1.0))
        assert m.normalized_density(np.array([0.0])) <= 1.0

    def test_underflowing_peak_is_taken_in_log_space(self):
        # at D = 8 a covariance of 1e100 I puts every density, even at the
        # mean, below the smallest float: the linear ratio would be 0/0
        mean = np.linspace(-1.0, 1.0, 8)
        m = mix((mean, 1e100 * np.eye(8), 3.0), k=0.1, creation_cov_scale=1e100)
        assert peak_estimate(m) == 0.0
        rng = np.random.default_rng(0)
        for _ in range(20):
            m.add_sample(mean, rng)
        assert len(m) == 1
        assert m.total_weight() == 23.0
        assert m.normalized_density(mean) == 1.0
        # one component: d = exp(-maha^2 / 2); here maha^2 = 2
        x = mean + math.sqrt(2.0 * m._eval_cov[0, 0, 0]) * np.eye(8)[0]
        assert m.normalized_density(np.array([mean, x])) == pytest.approx([1.0, math.exp(-1.0)],
                                                                          rel=1e-12)


    @pytest.mark.parametrize("log_peak", [-742.0, -735.0])
    def test_subnormal_peak_gives_the_exact_ratio(self, log_peak):
        # one D = 8 component whose density at its mean is exp(log_peak),
        # a subnormal float: a linear ratio of two subnormals loses digits
        log_s = -(log_peak + 4.0 * math.log(2.0 * math.pi)) / 4.0
        mean = np.linspace(-1.0, 1.0, 8) * math.exp(0.5 * log_s)
        m = mix((mean, math.exp(log_s) * np.eye(8), 3.0))
        assert m._log_norm[0] == pytest.approx(log_peak, abs=1e-9)
        x = mean + math.sqrt(2.0 * m._eval_cov[0, 0, 0]) * np.eye(8)[0]
        assert m.normalized_density(x) == pytest.approx(math.exp(-1.0), rel=1e-14)


class TestScaledNormalizedDensity:
    """d is one scaled ratio at every covariance scale: it lies in [0, 1]
    and equals its log-space definition
    exp(min(0, logsumexp(a(x)) - max_i logsumexp(a(mean_i)))), with
    a(y)_j = log(w_j / W) + log N(y; component j)."""

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 5),
        log_peak=st.floats(-800.0, 800.0),
        spread=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=8, m=1, log_peak=-742.0, spread=1.0, seed=0)
    @example(dim=8, m=3, log_peak=-730.0, spread=2.0, seed=1)
    @example(dim=8, m=2, log_peak=760.0, spread=1.0, seed=2)
    def test_matches_log_space_reference(self, dim, m, log_peak, spread, seed):
        rng = np.random.default_rng(seed)
        # one covariance scale s puts each component's log density at its
        # mean near log_peak; at small D, s is kept inside float64's range
        log_s = np.clip(-2.0 * (log_peak + 0.5 * dim * math.log(2.0 * math.pi)) / dim, -650.0, 650.0)
        sd = math.exp(0.5 * log_s)
        comps = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = math.exp(log_s) * (a @ a.T / dim + 0.1 * np.eye(dim))
            comps.append(WeightedGaussian(Gaussian(3.0 * sd * rng.standard_normal(dim), 0.5 * (cov + cov.T)),
                                          rng.uniform(0.1, 20.0)))
        mixture = dynamic_mixture([c.w for c in comps], [c.g.mean for c in comps], [c.g.cov for c in comps])
        pds = [c.pd_gaussian() for c in comps]
        log_w = np.log(np.array([c.w for c in comps]) / sum(c.w for c in comps))

        def log_mix(y):
            return logsumexp(log_w + np.array([g.log_density(y) for g in pds]))

        log_peak_est = max(log_mix(g.mean) for g in pds)
        pts = np.array([pds[rng.integers(m)].mean + spread * sd * rng.standard_normal(dim) for _ in range(4)])
        got = mixture.normalized_density(pts)
        want = np.exp(np.minimum(0.0, np.array([log_mix(x) for x in pts]) - log_peak_est))
        assert np.all((got >= 0.0) & (got <= 1.0))
        scored = want >= 1e-300
        assert got[scored] == pytest.approx(want[scored], rel=1e-12)


class TestMergeThreshold:
    def test_zero_count_gives_d(self):
        assert merge_threshold(0.5, 0.0, 3.0) == pytest.approx(0.5)

    def test_full_density_gives_one(self):
        for n in (0.0, 5.0, 1e6):
            assert merge_threshold(1.0, n, 0.7) == pytest.approx(1.0)

    def test_scalar_case(self):
        assert merge_threshold(0.5, 10.0, 0.7) == pytest.approx(1.0 - 0.5 * math.exp(-7.0), rel=1e-12)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.uniform(0, 1)
            n = rng.uniform(0, 50)
            k = rng.uniform(0, 3)
            t = merge_threshold(d, n, k)
            assert 0.0 <= t <= 1.0
            assert merge_threshold(min(d + 0.1, 1.0), n, k) >= t
            assert merge_threshold(d, n + 1.0, k) >= t
            assert merge_threshold(d, n, k + 0.1) >= t
        assert merge_threshold(0.3, 1e9, 0.7) == pytest.approx(1.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            merge_threshold(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            merge_threshold(0.5, -1.0, 1.0)

    @pytest.mark.parametrize("k", [-1.0, math.nan])
    def test_negative_or_nan_k_rejected(self, k):
        # a NaN threshold compares false with every draw, so every sample
        # would append
        with pytest.raises(ValueError, match="n and k must be non-negative"):
            merge_threshold(0.5, 1.0, k)
        with pytest.raises(ValueError, match="n and k must be non-negative"):
            merge_threshold(0.5, k, 1.0)
        # k is checked once, when a mixture is built
        for build in (lambda: DynamicGaussianMixture(1, k), lambda: mix(([0.0], [[1.0]], 3.0), k=k)):
            with pytest.raises(ValueError, match="k must be non-negative"):
                build()

    @pytest.mark.parametrize("k", ["0.3", None, [0.3]])
    def test_k_that_is_not_a_real_number_rejected(self, k):
        for build in (lambda: DynamicGaussianMixture(1, k), lambda: mix(([0.0], [[1.0]], 3.0), k=k)):
            with pytest.raises(ValueError, match="^k must be a real number$"):
                build()
        rng = np.random.default_rng(7)
        for good in (np.float64(0.3), np.int64(1)):
            m = mix(([0.0], [[1.0]], 3.0), k=good, creation_cov_scale=1.0)
            m.add_sample(np.array([0.1]), rng)
            assert m.k == float(good) and m.total_weight() == 4.0

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.floats(0.0, 1.0),
        n=st.floats(0.0, 1e12),
        k=st.floats(0.0, 1e6),
    )
    def test_zero_density_threshold_is_a_lower_bound(self, d, n, k):
        # add_sample skips d whenever r < t(0); in float64 that must imply r < t(d)
        assert merge_threshold(d, n, k) >= merge_threshold(0.0, n, k)


class TestTotalWeight:
    def test_values(self):
        assert DynamicGaussianMixture(1, 0.3).total_weight() == 0.0
        assert mix(([0.0], [[1.0]], 1.0)).total_weight() == 1.0
        assert mix(([0.0], [[1.0]], 3.0), ([1.0], [[1.0]], 2.0)).total_weight() == 5.0


class TestSelectComponent:
    def test_single_component(self):
        m = mix(([0.0], [[1.0]], 1.0))
        rng = np.random.default_rng(1)
        assert all(m.select_component(np.array([5.0]), rng) == 0 for _ in range(20))

    def test_weight_ratio_for_identical_components(self):
        m = mix(([0.0], [[1.0]], 1.0), ([0.0], [[1.0]], 3.0))
        rng = np.random.default_rng(2)
        draws = np.array([m.select_component(np.array([0.3]), rng) for _ in range(100_000)])
        freq1 = (draws == 1).mean()
        assert freq1 == pytest.approx(0.75, abs=0.01)

    def test_near_component_dominates(self):
        # x at A's mean, B ten sigma away: analytic score ratio >= 0.999
        m = mix(([0.0], [[1.0]], 1.0), ([10.0], [[1.0]], 2.0))
        x = np.array([0.0])
        score_a = 1.0 * m.components[0].g.normalized_density(x)
        score_b = 2.0 * m.components[1].g.normalized_density(x)
        assert score_a / (score_a + score_b) >= 0.999
        rng = np.random.default_rng(3)
        assert all(m.select_component(x, rng) == 0 for _ in range(1000))

    def test_zero_score_fallback_uses_mahalanobis(self):
        # both scores underflow at this x; the nearer component (by
        # Mahalanobis distance) must win deterministically
        m = mix(([0.0, 0.0], np.eye(2), 1.0), ([100.0, 0.0], np.eye(2), 1.0))
        x = np.array([60.0, 0.0])
        rng = np.random.default_rng(4)
        assert all(m.select_component(x, rng) == 1 for _ in range(20))


    def test_underflowing_scores_draw_with_true_proportions(self):
        # equal weights at squared distances 1500 and 1501: both scores
        # underflow, and the nearer one's share is 1 / (1 + e^-0.5)
        m = mix(([math.sqrt(1500.0)], [[1.0]], 1.0), ([-math.sqrt(1501.0)], [[1.0]], 1.0))
        x = np.array([0.0])
        assert np.all(m._selection_scores(m._distances(x)[1]) == 0.0)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        draws = []
        for _ in range(4000):
            draws.append(m.select_component(x, rng))
            twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state
        share = draws.count(0) / len(draws)
        assert share == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=0.02)

    @pytest.mark.parametrize("bad, problem", [
        (math.nan, "is NaN"),
        (math.inf, "is infinite"),
        (-math.inf, "is infinite"),
        (1e200, "= 1e+200 is too large: its square overflows float64"),
    ])
    def test_bad_point_rejected_before_any_draw(self, bad, problem):
        m = mix(([0.0, 0.0], np.eye(2), 1.0), ([3.0, 0.0], np.eye(2), 2.0))
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample coordinate 1 " + re.escape(problem)):
            m.select_component(np.array([0.5, bad]), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(2, 2), (0, 2), (5, 2)])
    def test_batch_rejected_before_any_draw(self, shape):
        m = mix(([0.0, 0.0], np.eye(2), 1.0), ([3.0, 0.0], np.eye(2), 2.0))
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(f"got points of shape {shape}")):
            m.select_component(np.zeros(shape), rng)
        assert rng.bit_generator.state == state
        # one point, also as a batch of one, draws
        assert m.select_component(np.zeros(2), rng) == m.select_component(np.zeros((1, 2)), rng) == 0

    def test_distance_overflowing_for_every_component_is_rejected(self):
        # finite coordinates whose whitened squares overflow against small
        # covariances: no draw has a defined value there
        m = mix(([0.0, 0.0], 1e-4 * np.eye(2), 1.0), ([1.0, 0.0], 1e-4 * np.eye(2), 1.0),
                creation_cov_scale=1e-4)
        x = np.array([1e153, 0.0])
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: m.select_component(x, rng), lambda: m.add_sample(x, rng)):
                with pytest.raises(ValueError, match="squared Mahalanobis distance to every "
                                                     "component overflows float64"):
                    call()
        assert rng.bit_generator.state == state
        assert len(m) == 2 and m.total_weight() == 2.0
        # one finite distance is enough: the far component scores 0
        near = mix(([0.0, 0.0], 1e-4 * np.eye(2), 1.0), ([1e153, 0.0], np.eye(2), 1.0))
        assert near.select_component(x, rng) == 1


class TestMergeInto:
    def test_first_merge_discards_creation_covariance(self):
        c = WeightedGaussian(Gaussian([0.0], [[1.0]]), 1.0)
        out = merge_into(c, np.array([2.0]))
        assert out.w == 2.0
        assert out.g.mean == pytest.approx([1.0])
        assert out.g.cov == pytest.approx(np.array([[2.0]]))  # unbiased cov of {0, 2}

    def test_second_merge(self):
        c = WeightedGaussian(Gaussian([1.0], [[2.0]]), 2.0)
        out = merge_into(c, np.array([4.0]))
        assert out.w == 3.0
        assert out.g.mean == pytest.approx([2.0])
        assert out.g.cov == pytest.approx(np.array([[4.0]]))  # unbiased cov of {0, 2, 4}

    def test_merge_at_mean_shrinks_covariance(self):
        rng = np.random.default_rng(5)
        for n in (2.0, 5.0, 17.0):
            cov = np.array([[2.0, 0.3], [0.3, 1.0]])
            mu = rng.standard_normal(2)
            c = WeightedGaussian(Gaussian(mu, cov), n)
            out = merge_into(c, mu)
            assert out.g.mean == pytest.approx(mu, rel=1e-12)
            assert out.g.cov == pytest.approx((n - 1.0) / n * cov, rel=1e-9, abs=1e-12)

    def test_dimension_mismatch(self):
        c = WeightedGaussian(Gaussian([0.0], [[1.0]]), 1.0)
        with pytest.raises(ValueError):
            merge_into(c, np.zeros(2))

    def test_rejects_weight_below_one(self):
        c = WeightedGaussian(Gaussian([0.0], [[1.0]]), 0.5)
        with pytest.raises(ValueError):
            merge_into(c, np.array([1.0]))


class TestAddSample:
    def test_empty_model_always_adds(self):
        m = DynamicGaussianMixture(2, 0.7)
        rng = np.random.default_rng(6)
        x = np.array([3.0, -1.0])
        m.add_sample(x, rng)
        assert len(m) == 1
        comp = m.components[0]
        assert comp.w == 1.0
        assert np.array_equal(comp.g.mean, x)
        assert np.array_equal(comp.g.cov, np.eye(2))
        assert np.array_equal(comp.creation_cov, np.eye(2))

    def test_sample_at_mean_of_heavy_model_merges(self):
        m = mix(([1.0], [[1.0]], 50.0), k=0.7, creation_cov_scale=1.0)
        rng = np.random.default_rng(7)
        m.add_sample(np.array([1.0]), rng)  # d = 1 so t = 1: always merge
        assert len(m) == 1
        assert m.total_weight() == 51.0

    def test_weight_conservation_and_count_growth(self):
        rng = np.random.default_rng(8)
        m = DynamicGaussianMixture(2, 0.3)
        for i in range(200):
            before_w, before_m = m.total_weight(), len(m)
            m.add_sample(rng.standard_normal(2), rng)
            assert m.total_weight() == before_w + 1.0
            assert len(m) - before_m in (0, 1)

    def test_two_cluster_stream_concentrates_on_two_components(self):
        # 300 draws from a two-component generator; with k chosen by a
        # sweep, the run-final component count is most often exactly 2
        gen = FixedGaussianMixture([0.5, 0.5], [[0.0], [4.0]], [[[0.25]], [[0.25]]])
        counts = {}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = sample_gmm(gen, 300, rng)
            m = DynamicGaussianMixture(1, 0.3)
            for x in pts:
                m.add_sample(x, rng)
            counts[len(m)] = counts.get(len(m), 0) + 1
        mode = max(counts, key=counts.get)
        assert mode == 2

    def test_determinism(self):
        pts = np.random.default_rng(9).standard_normal((150, 2))
        models = []
        for _ in range(2):
            rng = np.random.default_rng(4242)
            m = DynamicGaussianMixture(2, 0.5)
            for x in pts:
                m.add_sample(x, rng)
            models.append(m)
        a, b = models
        assert len(a) == len(b)
        assert np.array_equal(a._w, b._w)
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.g.mean, cb.g.mean)
            assert np.array_equal(ca.g.cov, cb.g.cov)

    def test_forced_merge_stream_matches_batch_estimators(self):
        # huge k makes the threshold 1 after the first sample, so the
        # whole stream lands in a single component
        rng = np.random.default_rng(10)
        X = rng.uniform(-2, 2, size=(500, 3)) * rng.uniform(0.2, 1.5, 3)
        m = DynamicGaussianMixture(3, 1e9)
        for x in X:
            m.add_sample(x, rng)
        assert len(m) == 1
        comp = m.components[0]
        assert comp.g.mean == pytest.approx(X.mean(axis=0), rel=1e-11, abs=1e-12)
        assert comp.g.cov == pytest.approx(np.cov(X, rowvar=False, ddof=1), rel=1e-10, abs=1e-12)

    def test_streamed_model_density_integrates_to_one(self):
        rng = np.random.default_rng(11)
        pts = np.concatenate([rng.normal(0, 0.5, 120), rng.normal(3, 0.7, 80)])
        m = DynamicGaussianMixture(1, 0.4)
        for x in pts:
            m.add_sample([x], rng)
        means = m._mean.reshape(-1)
        sig = math.sqrt(max(np.diag(c.pd_gaussian().cov)[0] for c in m.components))
        grid = Grid((means.min() - 8 * sig,), (means.max() + 8 * sig,), (8001,))
        assert integrate_on_grid(m.density, grid) == pytest.approx(1.0, abs=1e-3)


class TestEvaluationBlend:
    def test_young_component_evaluates_with_creation_prior(self):
        m = DynamicGaussianMixture(2, 1e9)
        rng = np.random.default_rng(12)
        m.add_sample(np.array([0.0, 0.0]), rng)
        m.add_sample(np.array([1.0, 0.0]), rng)  # forced merge: rank-1 stored cov
        comp = m.components[0]
        assert np.linalg.matrix_rank(comp.g.cov) == 1  # exact moments stay degenerate
        blended = comp.pd_gaussian().cov
        expect = (comp.g.cov + np.eye(2)) / 2.0
        assert blended == pytest.approx(expect, rel=1e-12)

    def test_prior_washes_out_with_weight(self):
        rng = np.random.default_rng(13)
        m = DynamicGaussianMixture(2, 1e9)
        for x in rng.standard_normal((2000, 2)):
            m.add_sample(x, rng)
        comp = m.components[0]
        assert comp.pd_gaussian().cov == pytest.approx(comp.g.cov, rel=2e-3)

    def test_hand_built_components_evaluate_exactly(self):
        g = Gaussian([0.0], [[0.04]])
        m = mix(([0.0], [[0.04]], 5.0))
        assert m.density(np.array([0.0])) == pytest.approx(g.density(np.array([0.0])), rel=1e-12)


class TestSampleValidation:
    def test_component_below_unit_weight_is_rejected_before_any_draw(self):
        # no merge can take a component of weight 0.5, so the mixture
        # refuses every sample up front instead of failing after its draw
        m = mix(([0.0], [[1.0]], 3.0), ([5.0], [[1.0]], 0.5), k=5.0, creation_cov_scale=1.0)
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape("component 1 has weight 0.5 < 1")):
            m.add_sample(np.array([5.0]), rng)
        assert rng.bit_generator.state == state
        assert m.total_weight() == 3.5 and np.array_equal(m._w, [3.0, 0.5])
        # its density is still defined, and unit weights train as before
        assert m.density(np.array([5.0])) > 0.0
        ok = mix(([0.0], [[1.0]], 3.0), ([5.0], [[1.0]], 1.0), k=5.0, creation_cov_scale=1.0)
        ok.add_sample(np.array([5.0]), rng)
        assert ok.total_weight() == 5.0

    @pytest.mark.parametrize("bad, problem", [
        (math.nan, "is NaN"),
        (math.inf, "is infinite"),
        (-math.inf, "is infinite"),
        (1e200, "= 1e+200 is too large: its square overflows float64"),
    ])
    def test_rejected_before_any_draw(self, bad, problem):
        rng = np.random.default_rng(30)
        m = DynamicGaussianMixture(2, 0.3)
        for x in rng.standard_normal((20, 2)):
            m.add_sample(x, rng)
        before = [(c.w, c.g.mean, c.g.cov) for c in m.components]
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample coordinate 1 " + re.escape(problem)):
            m.add_sample(np.array([0.5, bad]), rng)
        assert rng.bit_generator.state == state
        assert m.total_weight() == 20.0
        after = [(c.w, c.g.mean, c.g.cov) for c in m.components]
        assert len(after) == len(before)
        for (wa, ma, ca), (wb, mb, cb) in zip(after, before):
            assert wa == wb and np.array_equal(ma, mb) and np.array_equal(ca, cb)
        assert np.isfinite(m.density(np.zeros(2)))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_creation_scale_rejected_before_any_draw(self, scale):
        # the scale is checked once, when a mixture is built
        for build in (lambda: DynamicGaussianMixture(1, 0.3, scale),
                      lambda: mix(([0.0], [[1.0]], 3.0), creation_cov_scale=scale)):
            with pytest.raises(ValueError, match="creation_cov_scale must be positive and finite"):
                build()

    @pytest.mark.parametrize("scale", ["1", None, [1.0]])
    def test_creation_scale_that_is_not_a_real_number_rejected(self, scale):
        with pytest.raises(ValueError, match="^creation_cov_scale must be a real number$"):
            DynamicGaussianMixture(1, 0.3, scale)
        with pytest.raises(ValueError, match="^creation_cov_scale must be a real number$"):
            MotionModel(k=0.3, creation_cov_scale=scale)

    @pytest.mark.parametrize("name, build", [
        ("k", lambda: MotionModel(k=10**400)),
        ("k", lambda: DynamicGaussianMixture(2, 10**400)),
        ("k", lambda: mix(([0.0], [[1.0]], 3.0), k=-10**400)),
        ("creation_cov_scale", lambda: MotionModel(k=0.3, creation_cov_scale=10**400)),
        ("creation_cov_scale", lambda: DynamicGaussianMixture(2, 0.3, 10**400)),
    ])
    def test_integer_beyond_float_range_is_named(self, name, build):
        # a Python int is a real number, but one float64 cannot hold is not
        # a finite number, as a model file's 10**400 is not
        message = f"^{name} is not a finite number: an integer beyond float64's range$"
        with pytest.raises(ValueError, match=message):
            build()

    def test_mixture_without_a_creation_covariance_absorbs_no_sample(self):
        m = mix(([0.0], [[1.0]], 3.0))
        rng = np.random.default_rng(32)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the mixture has no creation covariance"):
            m.add_sample(np.array([0.5]), rng)
        assert rng.bit_generator.state == state
        assert len(m) == 1 and m.total_weight() == 3.0 and m.creation_cov_scale is None
        assert m.components[0].creation_cov is None

    def test_largest_finite_square_is_accepted(self):
        m = DynamicGaussianMixture(1, 0.3)
        m.add_sample(np.array([1e150]), np.random.default_rng(31))
        assert m._mean[0, 0] == 1e150

    @pytest.mark.parametrize("bad, problem", [
        (math.nan, "is NaN"),
        (-math.inf, "is infinite"),
        (1e200, "= 1e+200 is too large: its square overflows float64"),
    ])
    def test_conditioning_value_is_checked(self, bad, problem):
        # a mixture is conditioned through the motion model that holds it
        # as a joint over (x, z); the conditioning value is checked there
        mm = MotionModel(k=0.5, x_dim=1, z_dim=2)
        mm.models[FWD] = mix(([0.0, 0.0, 0.0], np.eye(3), 2.0), ([1.0, 0.0, 1.0], 2.0 * np.eye(3), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^terrain coordinate 1 " + re.escape(problem) + "$"):
                mm.conditional_motion_density(FWD, np.array([0.5, bad]))
        assert len(mm.conditional_motion_density(FWD, np.array([0.5, 0.0]))) == 2


def _batch_cov(X):
    # X - X[0] is exact by Sterbenz's lemma (every row is within a factor
    # of two of X[0]), so the reference carries no offset cancellation
    return np.atleast_2d(np.cov(X - X[0], rowvar=False, ddof=1))


class TestMomentsAtOffset:
    """Forced-merge streams far from the origin: the one-pass moments must
    not lose the unit-scale covariance to cancellation against the offset."""

    @pytest.mark.parametrize("offset, bound", [(1e4, 1e-9), (1e6, 1e-9), (1e8, 1e-6)])
    def test_merge_into_and_add_sample(self, offset, bound):
        rng = np.random.default_rng(41)
        for d in (1, 2, 3):
            X = offset + rng.standard_normal((2000, d)) * rng.uniform(0.5, 2.0, d)
            want = _batch_cov(X)
            comp = WeightedGaussian(Gaussian(X[0], np.eye(d)), 1.0, creation_cov=np.eye(d))
            for x in X[1:]:
                comp = merge_into(comp, x)
            m = DynamicGaussianMixture(d, 1e9)
            for x in X:
                m.add_sample(x, rng)
            assert len(m) == 1
            for cov in (comp.g.cov, m.components[0].g.cov):
                err = np.max(np.abs(cov - want)) / np.max(np.abs(want))
                assert err <= bound
                assert np.linalg.eigvalsh(cov).min() > 0.0


class TestIncrementalCaches:
    """What add_sample maintains incrementally (factors, peak matrix, the one
    evaluation at x) equals a from-scratch loop over the components'
    evaluation Gaussians."""

    RTOL = 1e-12

    @staticmethod
    def reference(m, x):
        comps = m.components
        pds = [c.pd_gaussian() for c in comps]
        total = sum(c.w for c in comps)
        peak = max(sum(c.w / total * float(g.density(h.mean)) for c, g in zip(comps, pds)) for h in pds)
        density = sum(c.w / total * float(g.density(x)) for c, g in zip(comps, pds))
        scores = [c.w * float(g.normalized_density(x)) for c, g in zip(comps, pds)]
        return peak, density, np.array(scores)

    @pytest.mark.parametrize("dim", [1, 2, 6, 8])
    @pytest.mark.parametrize("k", [0.02, 0.3, 1e9])
    def test_matches_reference_loop(self, dim, k):
        for seed in range(3):
            rng = np.random.default_rng([dim, seed])
            centers = 3.0 * rng.standard_normal((3, dim))
            m = DynamicGaussianMixture(dim, k)
            for step in range(120):
                m.add_sample(centers[step % 3] + rng.standard_normal(dim), rng)
                if step % 30 != 29:
                    continue
                assert m._scaled_peak(m._scaled_weights()[1]) >= 1.0
                x = centers[step % 3] + 0.5 * rng.standard_normal(dim)
                peak, density, scores = self.reference(m, x)
                assert peak_estimate(m) == pytest.approx(peak, rel=self.RTOL)
                assert m.density(x) == pytest.approx(density, rel=self.RTOL)
                assert m._selection_scores(m._distances(x)[1]) == pytest.approx(scores, rel=self.RTOL)


class TestSharedCore:
    """The online and the EM mixture evaluate through one array core; both
    must agree with a per-Gaussian sum anywhere in dimension, offset and
    scale."""

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 10),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_kinds_match_per_gaussian_sum(self, dim, m, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        gaussians = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = scale**2 * (a @ a.T / dim + 0.1 * np.eye(dim))
            gaussians.append(Gaussian(offset + 3.0 * scale * rng.standard_normal(dim), 0.5 * (cov + cov.T)))
        w = rng.uniform(0.1, 10.0, m)
        pts = np.array([g.mean for g in gaussians]) + scale * rng.standard_normal((m, dim))
        want = sum(wi / w.sum() * g.density(pts) for wi, g in zip(w, gaussians))
        means, covs = [g.mean for g in gaussians], [g.cov for g in gaussians]
        fixed = FixedGaussianMixture(w / w.sum(), means, covs)
        dynamic = dynamic_mixture(w, means, covs)
        box = mixture_support_box([fixed])
        for model in (fixed, dynamic):
            assert model.density(pts) == pytest.approx(want, rel=1e-9)
            assert np.exp(model.log_density(pts)) == pytest.approx(want, rel=1e-9)
            lo, hi = mixture_support_box([model])
            assert np.array_equal(lo, box[0]) and np.array_equal(hi, box[1])
        sig = [8.0 * np.sqrt(np.diag(g.cov)) for g in gaussians]
        assert np.array_equal(box[0], np.min([g.mean - s for g, s in zip(gaussians, sig)], axis=0))
        assert np.array_equal(box[1], np.max([g.mean + s for g, s in zip(gaussians, sig)], axis=0))


class TestLogSumExp:
    def test_matches_direct_sum(self):
        a = np.log(np.array([[1.0, 2.0, 3.0], [1e-3, 1e-3, 5.0]]))
        assert logsumexp(a) == pytest.approx(np.log(np.exp(a).sum(axis=1)), rel=1e-15)

    def test_terms_far_below_underflow(self):
        a = np.array([-2000.0, -2000.0 + math.log(3.0)])
        assert logsumexp(a) == pytest.approx(-2000.0 + math.log(4.0), rel=1e-15)

    def test_all_minus_inf_row_is_minus_inf(self):
        out = logsumexp(np.array([[-np.inf, -np.inf], [0.0, -np.inf]]))
        assert out[0] == -np.inf
        assert out[1] == 0.0


class TestUpdateProperties:
    """Over dimension, offset and scale, add_sample keeps the exact batch
    moments, adds exactly 1 to the total weight per sample, and keeps its
    evaluation arrays and peak matrix equal to those of a mixture built from
    scratch out of its components."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n=st.integers(2, 80),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forced_merges_give_batch_moments(self, dim, n, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        X = offset + scale * rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        m = DynamicGaussianMixture(dim, 1e9)
        for i, x in enumerate(X):
            m.add_sample(x, rng)
            assert m.total_weight() == i + 1
        assert len(m) == 1
        # a one-pass mean gathers up to an ulp of the offset per sample, and
        # every deviation from it inherits that error
        bound = 4.0 * n * np.finfo(float).eps * (1.0 + abs(offset) / scale)
        want = _batch_cov(X)
        assert np.max(np.abs(m._mean[0] - X.mean(axis=0))) / scale <= bound
        assert np.max(np.abs(m._cov[0] - want)) / np.max(np.abs(want)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n=st.integers(1, 80),
        log_k=st.floats(-2.0, 1.0),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_incremental_arrays_equal_a_fresh_mixture(self, dim, n, log_k, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        centers = offset + 4.0 * scale * rng.standard_normal((3, dim))
        m = DynamicGaussianMixture(dim, 10.0**log_k, scale**2)
        for i in range(n):
            x = centers[rng.integers(3)] + scale * rng.standard_normal(dim)
            m.add_sample(x, rng)
            assert m.total_weight() == i + 1
        assert m._w.sum() == n
        fresh = rebuild(m)
        for name in ("_eval_cov", "_chol_inv", "_log_norm"):
            np.testing.assert_allclose(getattr(m, name), getattr(fresh, name), rtol=1e-12, atol=0.0,
                                       err_msg=name)


def eager_add_sample(m, x, rng):
    """add_sample with d computed for every sample, as the decision rule
    reads: merge iff r < 1 - (1 - d) e^{-kn}."""
    x = m._check_sample(x)
    r = rng.random()
    d = 0.0
    if len(m):
        _, quad, nearest = m._distances(x)
        d = float(m._normalized(quad))
    if r < merge_threshold(d, m._W, m.k):
        i = m._draw(quad, rng, nearest)
        m._merge(i, x - m._mean[i])
    else:
        m._append(x)
    m._W += 1.0


class ScriptedUniforms:
    """A stand-in for the generator add_sample reads: random() serves the
    given values in order."""

    def __init__(self, values):
        self.random = iter(values).__next__


def clustered_stream(rng, n, dim, offset, scale):
    """n points around three centers, a fifth of them far out (d ~ 0)."""
    centers = offset + 4.0 * scale * rng.standard_normal((3, dim))
    spread = scale * np.where(rng.random((n, 1)) < 0.2, 1e2, 1.0)
    return centers[rng.integers(3, size=n)] + spread * rng.standard_normal((n, dim))


def assert_same_mixture(a, b):
    assert len(a) == len(b)
    assert a.total_weight() == b.total_weight()
    for name in ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv", "_log_norm"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestLazyDensity:
    """add_sample evaluates d only when the draw is at or above the
    threshold at d = 0; that must never change a decision."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n=st.integers(1, 120),
        log_k=st.floats(-3.0, 1.0),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eager_reference(self, dim, n, log_k, offset, log_scale, seed):
        k, scale = 10.0**log_k, 10.0**log_scale
        pts = clustered_stream(np.random.default_rng(seed), n, dim, offset, scale)
        lazy, eager = (DynamicGaussianMixture(dim, k, scale**2) for _ in range(2))
        rng_lazy, rng_eager = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for x in pts:
            lazy.add_sample(x, rng_lazy)
            eager_add_sample(eager, x, rng_eager)
            assert len(lazy) == len(eager)
            for name in ("_w", "_mean", "_cov"):
                assert np.array_equal(getattr(lazy, name), getattr(eager, name)), name
            assert rng_lazy.bit_generator.state == rng_eager.bit_generator.state


class TestDensityBound:
    """add_sample settles a draw at or above t(0) by bounds on d before it
    builds d (see DynamicGaussianMixture._merges): r >= t(min(sum(e) *
    slack, 1)) appends before the scaled weights are built, r >=
    t(min(num, 1)) appends, num being d's scaled numerator (the scaled peak
    is at least 1), and r < t(min(num / (sum(a) * slack), 1)) merges
    before the peak matrix is built (the scaled peak is at most sum(a)).
    Each holds for the computed values, so no decision changes."""

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 12),
        n=st.integers(1, 30),
        log_k=st.floats(-6.0, 0.0),
        offset=st.floats(-1e9, 1e9),
        log_cov_scale=st.floats(-150.0, 150.0),
        fractional=st.booleans(),
        scripted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_and_changes_no_decision(self, dim, m, n, log_k, offset, log_cov_scale,
                                                 fractional, scripted, seed):
        # scripted: every decision draw r is placed in [t(0), t(min(num, 1))),
        # where neither t(0) nor the numerator bound settles it, so the sum
        # bounds and, past them, the peak decide, as d itself does in the
        # eager reference
        rng = np.random.default_rng(seed)
        k, cov_scale = 10.0**log_k, 10.0**log_cov_scale
        scale = math.sqrt(cov_scale)
        w, means, covs = [], [], []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = cov_scale * (a @ a.T / dim + 0.1 * np.eye(dim))
            means.append(scale * (offset + 3.0 * rng.standard_normal(dim)))
            covs.append(0.5 * (cov + cov.T))
            w.append(1.0 + 9.0 * rng.random() if fractional else float(rng.integers(1, 10)))
        bounded, eager = (dynamic_mixture(w, means, covs, k, cov_scale) for _ in range(2))
        # near a mean, between means, or far out (d ~ 0)
        spread = scale * np.array([0.5, 0.5, 3.0, 30.0])[rng.integers(4, size=(n, 1))]
        pts = np.array(means)[rng.integers(m, size=n)] + spread * rng.standard_normal((n, dim))
        rng_bounded, rng_eager = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for x in pts:
            quad = bounded._distances(x)[1]
            _, a = bounded._scaled_weights()
            num = float(np.exp(-0.5 * quad) @ a)
            slack = 1.0 + 4.0 * len(a) * np.finfo(float).eps
            assert bounded._scaled_peak(a) >= 1.0
            d = float(bounded._normalized(quad))
            assert min(num / (float(a.sum()) * slack), 1.0) <= d <= min(num, 1.0)
            draws_bounded, draws_eager = rng_bounded, rng_eager
            if scripted:
                lo = merge_threshold(0.0, bounded.total_weight(), k)
                hi = merge_threshold(min(num, 1.0), bounded.total_weight(), k)
                u, v = rng.random(2)
                # where t(0) rounds to 1, no draw lies in [t(0), 1): every one merges
                r = min(lo + u * (hi - lo), math.nextafter(hi, 0.0)) if hi > lo else min(lo, u)
                assert r < 1.0
                draws_bounded, draws_eager = ScriptedUniforms([r, v]), ScriptedUniforms([r, v])
            bounded.add_sample(x, draws_bounded)
            eager_add_sample(eager, x, draws_eager)
            assert_same_mixture(bounded, eager)
            assert rng_bounded.bit_generator.state == rng_eager.bit_generator.state

    def test_peak_matrix_is_built_only_between_the_bounds(self, monkeypatch):
        # far samples (d ~ 0) draw at or above t(0), but every e_j underflows
        # to 0, so sum(e) settles them before the scaled weights, let alone
        # the peak matrix, are built
        m = mix(([0.0], [[1.0]], 5.0), ([4.0], [[1.0]], 5.0), k=1e-3, creation_cov_scale=1.0)
        built = []
        for name in ("_scaled_weights", "_scaled_peak"):
            method = getattr(DynamicGaussianMixture, name)
            monkeypatch.setattr(DynamicGaussianMixture, name,
                                lambda self, *args, name=name, method=method:
                                built.append(name) or method(self, *args))
        rng = np.random.default_rng(12)
        for i in range(20):
            m.add_sample(np.array([1e3 * (i + 1)]), rng)
        assert m.total_weight() == 30.0 and len(m) > 15 and built == []

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 40),
        log_cov_scale=st.floats(-150.0, 150.0),
        layout=st.sampled_from(["coincident", "clustered", "far apart"]),
        fractional=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_bound_the_computed_numerator_and_peak(self, dim, m, log_cov_scale, layout,
                                                         fractional, seed):
        # the computed num = e @ a is at most fl(sum(e)) * slack, and every
        # computed row of the peak matrix at most fl(sum(a)) * slack, in
        # whatever order the dot product and the matrix product sum
        rng = np.random.default_rng(seed)
        cov_scale = 10.0**log_cov_scale
        sd = math.sqrt(cov_scale)
        w = 1.0 + (1e3 * rng.random(m) if fractional else rng.integers(0, 1000, m).astype(float))
        spread = {"coincident": 0.0, "clustered": 1.0, "far apart": 1e3}[layout]
        means = sd * (rng.standard_normal(dim) + spread * rng.standard_normal((m, dim)))
        if layout == "coincident":
            # every density at a mean is exactly 1: the peak is sum(a), rounded
            covs = [cov_scale * np.eye(dim)] * m
        else:
            covs = []
            for _ in range(m):
                b = rng.standard_normal((dim, dim))
                covs.append(cov_scale * (b @ b.T / dim + 0.1 * np.eye(dim)))
        mixture = dynamic_mixture(w, means, covs)
        slack = 1.0 + 4.0 * m * np.finfo(float).eps
        _, a = mixture._scaled_weights()
        assert a.max() == 1.0 and (a <= 1.0).all()
        assert 1.0 <= mixture._scaled_peak(a) <= float(a.sum()) * slack
        pts = np.concatenate([means, means[rng.integers(m, size=8)] + sd * rng.standard_normal((8, dim))])
        for x in pts:
            quad = mixture._distances(x)[1]
            e = np.exp(-0.5 * quad)
            assert float(e @ a) <= float(e.sum()) * slack

    def test_sum_bound_leaves_open_a_sample_between_components(self):
        # at x = 0 between unit components at -1 and 1, each e_j is
        # exp(-1/2) ~ 0.61 but d = 1: the bound is the sum of the e_j, not
        # their largest, and a draw above t(0.61) still merges
        k, x = 1e-3, np.array([0.0])
        r = merge_threshold(0.8, 10.0, k)
        bounded, eager = (mix(([-1.0], [[1.0]], 5.0), ([1.0], [[1.0]], 5.0), k=k, creation_cov_scale=1.0)
                          for _ in range(2))
        quad = bounded._distances(x)[1]
        assert float(np.exp(-0.5 * quad).max()) < 0.8 and float(bounded._normalized(quad)) == 1.0
        bounded.add_sample(x, ScriptedUniforms([r, 0.0]))
        eager_add_sample(eager, x, ScriptedUniforms([r, 0.0]))
        assert len(bounded) == 2 and bounded.total_weight() == 11.0
        assert_same_mixture(bounded, eager)

    def test_lower_bound_merges_without_the_peak_matrix(self, monkeypatch):
        # a sample at one of two equal, well-separated components: a = (1, 1)
        # and num ~ 1, so t(min(num, 1)) = 1 settles nothing, but d >= num / 2
        built = []
        peak = DynamicGaussianMixture._scaled_peak
        monkeypatch.setattr(DynamicGaussianMixture, "_scaled_peak",
                            lambda self, a: built.append(len(self)) or peak(self, a))
        k, x = 1e-3, np.array([0.0])
        t0, t_half = merge_threshold(0.0, 10.0, k), merge_threshold(0.5, 10.0, k)
        # below t(num / sum(a)) the lower bound merges; above it the peak decides
        for r, peaks in ((0.3, []), (0.9, [2])):
            assert t0 <= r < 1.0 and (r < t_half) == (not peaks)
            bounded, eager = (mix(([0.0], [[1.0]], 5.0), ([4.0], [[1.0]], 5.0), k=k, creation_cov_scale=1.0)
                              for _ in range(2))
            bounded.add_sample(x, ScriptedUniforms([r, 0.0]))
            assert built == peaks
            eager_add_sample(eager, x, ScriptedUniforms([r, 0.0]))
            assert len(bounded) == 2 and bounded.total_weight() == 11.0
            assert_same_mixture(bounded, eager)
            built.clear()


class TestRebuiltMixture:
    """A mixture rebuilt from its moment arrays (the path a loaded model
    file takes) holds the live mixture's arrays bit for bit and continues a
    stream exactly as the live one does."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n=st.integers(1, 80),
        more=st.integers(1, 40),
        log_k=st.floats(-3.0, 1.0),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_from_arrays_resumes_bit_for_bit(self, dim, n, more, log_k, offset, log_scale, seed):
        k, scale = 10.0**log_k, 10.0**log_scale
        pts = clustered_stream(np.random.default_rng(seed), n + more, dim, offset, scale)
        live = DynamicGaussianMixture(dim, k, scale**2)
        rng = np.random.default_rng([seed, 2])
        for x in pts[:n]:
            live.add_sample(x, rng)
        rebuilt = rebuild(live)
        assert_same_mixture(live, rebuilt)
        rng_rebuilt = np.random.default_rng()
        rng_rebuilt.bit_generator.state = rng.bit_generator.state
        for x in pts[n:]:
            live.add_sample(x, rng)
            rebuilt.add_sample(x, rng_rebuilt)
        assert_same_mixture(live, rebuilt)
        assert rng.bit_generator.state == rng_rebuilt.bit_generator.state


class TestCountIsFinal:
    """Once the merge threshold has rounded to 1, every later sample merges,
    wherever it lies, so the component count can no longer change."""

    @settings(max_examples=40, deadline=None)
    @given(
        log_k=st.floats(-3.0, 3.0),
        dim=st.integers(1, 3),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        extra=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_count_never_changes_once_final(self, log_k, dim, offset, log_scale, extra, seed):
        rng = np.random.default_rng(seed)
        k, scale = 10.0**log_k, 10.0**log_scale
        n_final = max(1, int(36.0 / k))
        while not count_is_final(n_final, k):
            n_final += 1
        assert not count_is_final(n_final - 1, k)
        # reach n_final with a short stream, on top of hand-built components
        # carrying the rest of the weight when n_final is large
        streamed = min(n_final, 20)
        rest = n_final - streamed
        w = [rest - 2, 1, 1] if rest > 2 else [rest] if rest else []
        m = dynamic_mixture(w, offset + scale * rng.standard_normal((len(w), dim)),
                            [scale**2 * np.eye(dim)] * len(w), k, scale**2)
        # points at the components and far from them (density ratio d ~ 0)
        spread = scale * np.where(rng.random((streamed + extra, 1)) < 0.3, 1e3, 1.0)
        pts = offset + spread * rng.standard_normal((streamed + extra, dim))
        for x in pts[:streamed]:
            m.add_sample(x, rng)
        assert m.total_weight() == n_final
        assert count_is_final(m.total_weight(), k)
        count = len(m)
        for x in pts[streamed:]:
            m.add_sample(x, rng)
            assert len(m) == count


def linalg_factor(eval_cov):
    """_factor as numpy.linalg computes it: np.linalg.cholesky of the
    reversed covariance, diagonal loading when that raises, and
    np.linalg.inv of the factor reversed back."""
    flipped = eval_cov[..., ::-1, ::-1]
    try:
        chol = np.linalg.cholesky(flipped)
    except np.linalg.LinAlgError:
        d = eval_cov.shape[-1]
        pairs = [positive_definite_cholesky(c) for c in flipped.reshape(-1, d, d)]
        eval_cov = np.array([c for c, _ in pairs]).reshape(flipped.shape)[..., ::-1, ::-1]
        chol = np.array([f for _, f in pairs]).reshape(flipped.shape)
    return eval_cov, np.linalg.inv(chol[..., ::-1, ::-1])


def outcome(f, a):
    """What f(a) does: its arrays as (shape, dtype, bytes), or the type and
    message of what it raised; with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = tuple((r.shape, r.dtype, r.tobytes()) for r in f(a))
        except Exception as exc:  # compared, not swallowed
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def quad_by_broadcast(pts, mean, chol_inv):
    """_quad with the differences broadcast to (m, N, D)."""
    y = (pts[None] - mean[:, None]) @ chol_inv.transpose(0, 2, 1)
    return np.einsum("mnd,mnd->nm", y, y)


class TestPeakPathBits:
    """t(0) at every total weight, the squared distances and the pieces of
    the peak estimate are formed in place or as whole vectors, with the
    bits of the scalar and out-of-place expressions they stand for."""

    @pytest.mark.parametrize("k", [0.0, 5e-324, 1e-300, 1e-6, 0.02, 0.05, 0.1, 0.3, 0.7, 1.5,
                                   1000.0, 1e300, 1.7e308, math.inf])
    def test_merge_floors_have_the_bits_of_merges_first_threshold(self, k):
        floors = _merge_floors(k, 3000)
        assert floors.shape == (3000,)
        want = [_threshold(0.0, float(np.exp(-k * float(n)))) for n in range(3000)]
        assert floors.tobytes() == np.array(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(log_k=st.floats(-6.0, 300.0), n=st.integers(1, 20000))
    def test_merge_floors_equal_merge_threshold(self, log_k, n):
        k = 10.0**log_k
        assert _merge_floors(k, n + 1)[n] == merge_threshold(0.0, n, k)

    def test_merge_floors_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_merge_floors(math.inf, 2)[0])
            assert _merge_floors(math.inf, 2)[1] == 1.0
            assert (_merge_floors(1.7e308, 5)[1:] == 1.0).all()

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 8), m=st.integers(1, 40), n=st.integers(1, 40),
           offset=st.floats(-1e6, 1e6), log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_quad_and_peak_pieces_have_the_broadcast_bits(self, dim, m, n, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        a = rng.standard_normal((m, dim, dim))
        cov = scale**2 * (a @ a.transpose(0, 2, 1) / dim + 0.1 * np.eye(dim))
        mix = dynamic_mixture(rng.integers(1, 50, m), offset + scale * rng.standard_normal((m, dim)), cov,
                              creation_cov_scale=scale**2)
        pts = offset + scale * rng.standard_normal((n if n != m else n + 1, dim))
        mean, chol_inv = mix._mean, mix._chol_inv
        assert _quad(pts, mean, chol_inv).tobytes() == quad_by_broadcast(pts, mean, chol_inv).tobytes()
        log_norm = -0.5 * dim * LOG_2PI + np.log(chol_inv.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
        assert _log_norm(chol_inv).tobytes() == log_norm.tobytes()
        log_a = np.log(mix._w / mix._W) + log_norm
        c, a = mix._scaled_weights()
        assert c == float(log_a.max())
        assert a.tobytes() == np.exp(log_a - log_a.max()).tobytes()
        peak = float((np.exp(-0.5 * quad_by_broadcast(mean, mean, chol_inv)) @ a).max())
        assert mix._scaled_peak(a) == peak


class TestOnePassPieces:
    """The pieces add_sample computes once give the bits of the expressions
    they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 8), m=st.integers(1, 12), offset=st.floats(-1e6, 1e6),
           seed=st.integers(0, 2**32 - 1))
    def test_distances_and_merge_with_the_difference(self, dim, m, offset, seed):
        rng = np.random.default_rng(seed)
        w, means, covs = [], [], []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T / dim + 0.1 * np.eye(dim)
            means.append(offset + rng.standard_normal(dim))
            covs.append(0.5 * (cov + cov.T))
            w.append(float(rng.integers(1, 10)))
        a, b = (dynamic_mixture(w, means, covs, creation_cov_scale=1.0) for _ in range(2))
        x = offset + rng.standard_normal(dim)
        diff, quad, nearest = a._distances(x)
        y = a._whitened(x)
        assert np.array_equal(diff, x - a._mean)
        assert np.array_equal(quad, np.einsum("md,md->m", y, y))
        assert nearest == quad.min()
        i = int(rng.integers(m))
        a._merge(i, diff[i])
        b._merge(i, x - b._mean[i])
        assert_same_mixture(a, b)
        r = np.random.default_rng(seed)
        assert a._draw(quad, r, nearest) == b._draw(quad, np.random.default_rng(seed), float(quad.min()))

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 8), w=st.floats(0.5, 1e6), log_scale=st.floats(-6.0, 6.0),
           with_creation=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_evaluation_cov_is_the_covariance_itself_without_a_blend(self, dim, w, log_scale,
                                                                      with_creation, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        cov = 10.0**log_scale * (a @ a.T)
        creation = 10.0**log_scale * np.eye(dim) if with_creation else None
        got = _evaluation_cov(cov, w, creation)
        if creation is None or w < 1.0:
            assert got is cov
        else:
            blend = ((w - 1.0) * cov + creation) / w
            assert not np.shares_memory(got, cov)
            assert got.tobytes() == (0.5 * (blend + blend.T)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(0.0, 1.0), n=st.floats(0.0, 1e6), k=st.floats(0.0, 1e3))
    def test_threshold_from_the_decay_has_merge_thresholds_bits(self, d, n, k):
        assert _threshold(d, float(np.exp(-k * n))) == merge_threshold(d, n, k)

    def test_append_by_scale_equals_append_of_the_covariance(self):
        # the mixture built whole from the same moments derives every
        # factor in _adopt, by _factor
        for scale in (2.0, 0.5, 1e-300, 1.7e308):
            a = DynamicGaussianMixture(3, 0.3, scale)
            for i in range(4):
                a._append(np.full(3, float(i)))
                a._W += 1.0
            b = DynamicGaussianMixture._from_arrays(
                np.ones(4), np.array([np.full(3, float(i)) for i in range(4)]),
                np.array([scale * np.eye(3)] * 4), 0.3, scale)
            assert_same_mixture(a, b)
            assert a.creation_cov_scale == scale and np.array_equal(a._cov, b._cov)


class TestFactor:
    """_factor calls numpy.linalg's gufuncs directly; it must give what the
    numpy.linalg path gives, bit for bit, on every input: the same arrays,
    or the same exception, and the same warnings."""

    @staticmethod
    def matrix(rng, dim, scale, kind):
        a = rng.standard_normal((dim, dim))
        if kind == "singular":
            # rank < dim, or exactly zero: the Cholesky fails and the
            # covariance takes the diagonal loading path
            a[:, rng.integers(0, dim):] = 0.0
        cov = scale * (a @ a.T)
        if kind == "pd":
            cov += scale * dim * np.eye(dim)
        elif kind == "indefinite":
            cov -= scale * (1.0 + np.abs(cov).sum()) * np.eye(dim)
        elif kind in ("inf", "nan"):
            i, j = rng.integers(0, dim, 2)
            cov[i, j] = cov[j, i] = math.inf if kind == "inf" else math.nan
        return cov

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 8),
        stack=st.one_of(st.none(), st.integers(0, 4)),
        log_scale=st.floats(-3.0, 3.0),
        kinds=st.lists(st.sampled_from(["pd", "pd", "pd", "singular", "indefinite", "inf", "nan"]),
                       min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_linalg_path(self, dim, stack, log_scale, kinds, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        if stack is None:
            cov = self.matrix(rng, dim, scale, kinds[0])
        else:
            cov = np.array([self.matrix(rng, dim, scale, kind) for kind in kinds[:stack]])
            cov = cov.reshape(stack, dim, dim)
        assert outcome(_factor, cov) == outcome(linalg_factor, cov)

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_loaded_and_unloaded_components_in_one_stack(self, dim):
        rng = np.random.default_rng(dim)
        good = self.matrix(rng, dim, 1.0, "pd")
        cov = np.array([good, np.zeros((dim, dim)), good])
        eval_cov, chol_inv = _factor(cov)
        assert eval_cov is not cov and not np.array_equal(eval_cov[1], cov[1])
        assert np.array_equal(eval_cov[[0, 2]], cov[[0, 2]])
        assert outcome(_factor, cov) == outcome(linalg_factor, cov)


class TestFreshComponents:
    """A fresh component's evaluation covariance and factor depend on the
    mixture's one creation covariance s I alone: the constructor forms its
    factor I / sqrt(s) in closed form, an append factors nothing, and the
    mixture hands out copies of it."""

    # the smallest subnormal, the smallest normal, near 1, powers of 4
    # (whose square roots are exact), and up to near the largest float
    EDGES = (5e-324, 1e-323, 2.2250738585072014e-308, 0.25, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
             4.0**-500, 4.0**500, 8.98846567431158e307, 1.7e308)

    def test_closed_form_factor_has_the_bits_of_factor(self):
        # every sign bit too: an off-diagonal -0.0 from the LAPACK inverse
        # would differ from the closed form's 0.0 in its bytes
        rng = np.random.default_rng(15)
        scales = np.concatenate([self.EDGES, 10.0 ** rng.uniform(-323.0, math.log10(1.7e308), 2500),
                                 np.exp(rng.uniform(-744.0, 709.0, 2500))])
        for dim in range(1, 9):
            eye = np.eye(dim)
            stack = scales[:, None, None] * eye
            eval_cov, chol_inv = _factor(stack)
            assert eval_cov is stack
            for s, want in zip(scales.tolist(), chol_inv):
                assert (eye / math.sqrt(s)).tobytes() == want.tobytes(), (dim, s)
            for s in self.EDGES:
                m = DynamicGaussianMixture(dim, 0.3, s)
                assert m._creation_chol_inv.tobytes() == _factor(s * eye)[1].tobytes(), (dim, s)
                assert m._creation_cov.tobytes() == (s * eye).tobytes(), (dim, s)

    def test_repeated_creation_covariance_is_factored_once(self, monkeypatch):
        # once, in closed form, by the constructor: no append factors
        m = DynamicGaussianMixture(3, 0.0, 2.0)
        rng = np.random.default_rng(4)
        factored = []
        factor = dgmm.mixture._factor

        def counting(eval_cov):
            factored.append(eval_cov.copy())
            return factor(eval_cov)

        monkeypatch.setattr(dgmm.mixture, "_factor", counting)
        # k = 0 and far samples: every sample appends
        for _ in range(6):
            m.add_sample(np.full(3, 1e3 * len(m)), rng)
        assert len(m) == 6
        assert factored == []
        monkeypatch.undo()
        rebuilt = rebuild(m)
        for name in ("_eval_cov", "_chol_inv"):
            assert np.array_equal(getattr(m, name), getattr(rebuilt, name)), name

    def test_components_hand_out_creation_copies(self):
        m = DynamicGaussianMixture(2, 0.0)
        rng = np.random.default_rng(5)
        for x in (0.0, 1e3, 2e3):
            m.add_sample(np.full(2, x), rng)
        creation = m.components[0].creation_cov
        creation[0, 0] = 99.0
        assert all(np.array_equal(c.creation_cov, np.eye(2)) for c in m.components)
        assert np.array_equal(m._creation_cov, np.eye(2))
        m.add_sample(np.full(2, 3e3), rng)
        assert np.array_equal(m._eval_cov[3], np.eye(2))
        assert np.array_equal(m.components[3].creation_cov, np.eye(2))

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_creation_scale_above_half_the_largest_float(self, scale):
        # a fresh component is evaluated with its creation covariance C
        # itself: (C + C^T) / 2 would overflow, and every later merge
        # decision would compare its draw with NaN thresholds
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = DynamicGaussianMixture(2, 0.3, scale)
            m.add_sample(np.zeros(2), rng)
            assert np.array_equal(m._eval_cov[0], scale * np.eye(2))
            rebuilt = rebuild(m)
            rng_rebuilt = np.random.default_rng()
            rng_rebuilt.bit_generator.state = rng.bit_generator.state
            for x in rng.standard_normal((20, 2)):
                m.add_sample(x, rng)
                rebuilt.add_sample(x, rng_rebuilt)
            for name in ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv"):
                assert np.array_equal(getattr(m, name), getattr(rebuilt, name)), name
            assert np.isfinite(m.log_density(np.zeros(2)))

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_reference_component_at_a_creation_scale_above_half_the_largest_float(self, scale):
        # the reference blend is symmetrized only where it is not exactly
        # symmetric, so a fresh component's C is not added to C^T
        m = DynamicGaussianMixture(2, 0.3, scale)
        m.add_sample(np.zeros(2), np.random.default_rng(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = m.components[0].pd_gaussian().cov
        assert np.array_equal(cov, m._eval_cov[0])

    def test_hand_built_creation_covariance_blends_after_a_merge(self):
        m = dynamic_mixture([2.0], [np.zeros(2)], [np.eye(2)], k=1e9, creation_cov_scale=1.0)
        m.add_sample(np.full(2, 0.1), np.random.default_rng(6))
        assert len(m) == 1
        c = merge_into(WeightedGaussian(Gaussian(np.zeros(2), np.eye(2)), 2.0, np.eye(2)), np.full(2, 0.1))
        assert np.array_equal(c.creation_cov, np.eye(2))
        reference = dynamic_mixture([c.w], [c.g.mean], [c.g.cov], creation_cov_scale=1.0)
        assert np.array_equal(m._eval_cov, reference._eval_cov)


class TestAdoptBlend:
    """_adopt forms the evaluation covariances of a whole mixture in one
    expression; it gives, bit for bit, what _evaluation_cov gives row by
    row, in a mixture without a creation covariance and in one with its
    creation covariance, at weights below, at and above 1."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(0, 12),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_row_evaluation_cov(self, dim, m, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        default = scale * np.eye(dim)

        def pd():
            # symmetric up to rounding only, as a model file may hold it
            a = rng.standard_normal((dim, dim))
            cov = scale * (a @ a.T / dim + 0.1 * np.eye(dim))
            cov[0, -1] *= 1.0 + 1e-13
            return cov

        w = rng.choice([0.5, 1.0, 2.0, 3.7, 40.0], size=m)
        mean = rng.standard_normal((m, dim))
        cov = np.array([pd() for _ in range(m)]).reshape(m, dim, dim)
        for creation, creation_cov_scale in ((None, None), (default, scale)):
            want = np.array([_evaluation_cov(c, wi, creation) for c, wi in zip(cov, w)])
            mixture = DynamicGaussianMixture._from_arrays(w.copy(), mean, cov.copy(), 0.3, creation_cov_scale)
            assert mixture._eval_cov.tobytes() == want.reshape(m, dim, dim).tobytes()
            if m:
                assert mixture._chol_inv.tobytes() == _factor(want)[1].tobytes()


class TestUniforms:
    """_Served(rng.random(n)) serves Generator.random()'s sequence bit for
    bit, as Python floats: also after a permutation, which may leave a
    buffered 32-bit value behind."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), shuffled=st.integers(0, 40), n=st.integers(0, 400))
    @example(seed=1, shuffled=7, n=64)
    @example(seed=1, shuffled=0, n=65)
    def test_serves_generator_random_bit_for_bit(self, seed, shuffled, n):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rng.permutation(shuffled).tolist() == twin.permutation(shuffled).tolist()
        draws = _Served(rng.random(n))
        got = [draws.random() for _ in range(n)]
        want = [twin.random() for _ in range(n)]
        assert all(type(u) is float for u in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def merged_by_parts(m, i, dx):
    """Row i of m after absorbing mean_i + dx, from the parts the fused
    merge replaces: _absorb, then _evaluation_cov, then _factor, on copies."""
    w, mean, cov = float(m._w[i]), m._mean[i].copy(), m._cov[i].copy()
    _absorb(w, mean, cov, dx)
    eval_cov, chol_inv = _factor(_evaluation_cov(cov, w + 1.0, m._creation_cov))
    return np.array(w + 1.0), mean, cov, eval_cov, chol_inv


class TestFusedMerge:
    """_merge forms the blend ((w' - 1) S' + C) / w' in place in its row and
    symmetrizes it only in a mixture holding a row that is not exactly
    symmetric: the bits equal _absorb, then _evaluation_cov, then _factor,
    at integral and fractional weights."""

    ROWS = ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv")

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 5),
        log_scale=st.floats(-4.0, 4.0),
        asymmetric=st.sampled_from([None, "cov"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_parts(self, dim, m, log_scale, asymmetric, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale

        def pd():
            a = rng.standard_normal((dim, dim))
            cov = scale * (a @ a.T / dim + 0.1 * np.eye(dim))
            return 0.5 * (cov + cov.T)  # exactly symmetric

        w = np.concatenate([[3.5], rng.choice([1.0, 1.25, 2.0, 7.0, 1e6], size=m - 1)])
        cov = np.array([pd() for _ in range(m)])
        if asymmetric is not None:
            # symmetric only within a model file's tolerance (1e-12)
            cov[0, 0, -1] *= 1.0 + 1e-13
        a = DynamicGaussianMixture._from_arrays(w, rng.standard_normal((m, dim)), cov, 0.3, scale)
        assert a._symmetric == (asymmetric is None or dim == 1)
        for _ in range(3):
            i = int(rng.integers(m))
            dx = scale**0.5 * rng.standard_normal(dim)
            before = {name: getattr(a, name).copy() for name in self.ROWS}
            want = merged_by_parts(a, i, dx)
            a._merge(i, dx)
            for name, row in zip(self.ROWS, want):
                assert getattr(a, name)[i].tobytes() == row.tobytes(), name
                others = np.delete(getattr(a, name), i, axis=0)
                assert others.tobytes() == np.delete(before[name], i, axis=0).tobytes(), name

    def test_a_row_symmetric_within_tolerance_keeps_the_symmetrized_bits(self):
        # the blend of this row is not exactly symmetric, so skipping the
        # symmetrization would change its evaluation covariance
        cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        cov[0, 2] *= 1.0 + 1e-13
        a = dynamic_mixture([4.0], [[0.0, 0.0, 0.0]], [cov], creation_cov_scale=1.0)
        assert not a._symmetric
        dx = np.array([0.3, -0.2, 0.1])
        want = merged_by_parts(a, 0, dx)
        unsymmetrized = ((want[0] - 1.0) * want[2] + np.eye(3)) / want[0]
        assert unsymmetrized.tobytes() != want[3].tobytes()
        a._merge(0, dx)
        assert a._eval_cov[0].tobytes() == want[3].tobytes()
        assert a._chol_inv[0].tobytes() == want[4].tobytes()

    def test_online_mixtures_are_exactly_symmetric(self):
        rng = np.random.default_rng(14)
        a = DynamicGaussianMixture(4, 0.05)
        for x in rng.standard_normal((300, 4)) * [1.0, 3.0, 0.5, 1e3]:
            a.add_sample(x, rng)
        assert a._symmetric
        for name in ("_cov", "_eval_cov"):
            arr = getattr(a, name)
            assert np.array_equal(arr, arr.transpose(0, 2, 1)), name
        rebuilt = rebuild(a)
        assert rebuilt._symmetric
        assert_same_mixture(a, rebuilt)


# Runs in a fresh interpreter, with every warning an error: "plain" as
# numpy is, "fallback" after taking away the private numpy names that
# dgmm.mixture reads at import (the LAPACK gufuncs of
# numpy.linalg._umath_linalg, c_einsum, and the error-state context
# variable with its state builder), as a numpy without them would.
# numpy.linalg, np.einsum and np.errstate keep their own references.
FALLBACK_SCRIPT = """
import hashlib, json, sys, types
import numpy as np
import numpy.linalg
if sys.argv[1] == "fallback":
    numpy.linalg._umath_linalg = types.SimpleNamespace()
    try:
        import numpy._core.multiarray as multiarray
        import numpy._core.umath as umath
    except ImportError:
        import numpy.core.multiarray as multiarray
        umath = types.SimpleNamespace()
    del multiarray.c_einsum
    for name in ("_extobj_contextvar", "_make_extobj"):
        if hasattr(umath, name):
            delattr(umath, name)
import dgmm.mixture as mx

errstates = [np.geterr()]
rng = np.random.default_rng(7)
a = rng.standard_normal((3, 4, 4))
pd = a @ a.transpose(0, 2, 1) + 4.0 * np.eye(4)
singular = np.zeros((4, 4))
singular[:2, :2] = 1.0
factors = [[arr.tobytes().hex() for arr in mx._factor(cov)]
           for cov in (pd[0], pd, singular, np.array([pd[1], singular]))]
errstates.append(np.geterr())  # after factors that fail
mix, sizes = mx.DynamicGaussianMixture(3, 0.05), []
for x in rng.standard_normal((300, 3)) * [1.0, 3.0, 0.5]:
    mix.add_sample(x, rng)
    sizes.append(len(mix))
arrays = b"".join(getattr(mix, name).tobytes() for name in ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv"))
# the last point's whitening overflows: -inf, with no warning
queries = [repr(mix.log_density(p)) for p in ([0.1, -0.2, 0.3], [0.0, 0.0, 1.3e154])]
# errors raised inside the quiet error states leave numpy's state as it was
for call in (lambda: mx._factor(np.zeros((2, 3))), lambda: mix._split_log_density(np.zeros(5), 3)):
    try:
        call()
    except ValueError:
        errstates.append(np.geterr())
print(json.dumps({"private": mx._cholesky_lo is not None, "c_einsum": mx._einsum is not np.einsum,
                  "prebuilt": not isinstance(mx._ALL_QUIET, dict), "errstates": errstates,
                  "factors": factors, "sizes": sizes, "arrays": hashlib.sha256(arrays).hexdigest(),
                  "queries": queries, "state": str(rng.bit_generator.state["state"])}))
"""


def run_fallback_script(mode):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", FALLBACK_SCRIPT, mode],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_without_private_names_falls_back_with_the_same_bits():
    plain, fallback = run_fallback_script("plain"), run_fallback_script("fallback")
    assert plain["private"] and plain["c_einsum"]
    assert plain["prebuilt"] == (not isinstance(dgmm.mixture._ALL_QUIET, dict))
    assert not fallback["private"] and not fallback["c_einsum"] and not fallback["prebuilt"]
    # the same factors, and a seeded stream makes the same decisions
    # (mixture sizes, arrays and generator state after every draw), and
    # the same queries
    for key in ("factors", "sizes", "arrays", "state", "queries"):
        assert fallback[key] == plain[key], key
    assert plain["sizes"][-1] > 1
    assert plain["queries"][1] == "-inf"
    # numpy's error state is as it was after a failing factor and after
    # each of two errors raised inside the quiet states
    for run in (plain, fallback):
        assert len(run["errstates"]) == 4
        assert all(state == run["errstates"][0] for state in run["errstates"])


class DecisionLog(DynamicGaussianMixture):
    """A mixture that logs each sample's decision: ("merge", i) for a merge
    into component i, ("append", m) for a new component m."""

    def __init__(self, dim, k, creation_cov_scale):
        super().__init__(dim, k, creation_cov_scale)
        self.log = []

    def _merge(self, i, dx):
        self.log.append(("merge", int(i)))
        super()._merge(i, dx)

    def _append(self, x):
        self.log.append(("append", len(self)))
        super()._append(x)


class TestDecisionInvariance:
    """A stream's decisions are those of the same stream with its points
    scaled by s and its creation covariance s^2 I, or offset: the draw,
    d and the merge thresholds read whitened distances."""

    @staticmethod
    def stream(points, k, creation_cov_scale):
        model, rng = DecisionLog(points.shape[1], k, creation_cov_scale), np.random.default_rng(1)
        for x in points:
            model.add_sample(x, rng)
        return model

    @classmethod
    def decisions(cls, points, k, creation_cov_scale):
        return cls.stream(points, k, creation_cov_scale).log

    @pytest.mark.parametrize("k", [0.02, 0.3])
    @pytest.mark.parametrize("scale, offset", [
        (1e-150, 0.0), (1e-30, 0.0), (1e30, 0.0), (1e150, 0.0),
        (1.0, 1e4), (1.0, 1e8), (1.0, -1e8)])
    def test_scaled_or_offset_stream_makes_the_same_decisions(self, k, scale, offset):
        points = sample_gmm(three_component_benchmark(), 500, np.random.default_rng(1))
        want = self.decisions(points, k, 1.0)
        got = self.decisions(scale * points + offset, k, scale**2)
        assert len(want) == 500 and {branch for branch, _ in want} == {"merge", "append"}
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(log_s=st.floats(-150.0, 150.0), k=st.sampled_from([0.02, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    @example(log_s=-150.0, k=0.02, seed=1)
    @example(log_s=150.0, k=0.3, seed=1)
    def test_decisions_are_scale_invariant(self, log_s, k, seed):
        # points scaled by s and the creation scale by s^2: the same
        # component count, weights, and merge history of each component
        s = 10.0**log_s
        points = sample_gmm(three_component_benchmark(), 300, np.random.default_rng(seed))
        want, got = self.stream(points, k, 1.0), self.stream(s * points, k, s**2)

        def histories(model):
            merged = [[] for _ in range(len(model))]
            for n, (_, i) in enumerate(model.log):
                merged[i].append(n)
            return merged

        assert len(got) == len(want)
        assert np.array_equal(got._w, want._w)
        assert histories(got) == histories(want)
