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
from dgmm.gaussian import Gaussian, positive_definite_cholesky
from dgmm.mixture import (
    DynamicGaussianMixture,
    WeightedGaussian,
    _count_is_final,
    _evaluation_cov,
    _factor,
    _final_count,
    _threshold,
    logsumexp,
    merge_into,
    merge_threshold,
)
from dgmm.em import FixedGaussianMixture, Grid, integrate_on_grid, mixture_support_box
from dgmm.datasets import sample_gmm
from dgmm.motion import CommandKey, MotionModel

STD_PEAK = 1.0 / math.sqrt(2 * math.pi)
FWD = CommandKey(0.5, 0.0, 0.0)


def mix(*comps):
    return DynamicGaussianMixture.from_components(
        [WeightedGaussian(Gaussian(m, np.atleast_2d(c)), w) for m, c, w in comps]
    )


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
        empty = DynamicGaussianMixture(2)
        with pytest.raises(ValueError):
            empty.density(np.zeros(2))
        m = mix(([0.0], [[1.0]], 1.0))
        with pytest.raises(ValueError):
            m.density(np.zeros(2))

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
        m = DynamicGaussianMixture.from_components([WeightedGaussian(g, 2.0)])
        for x in (-2.0, 0.0, 1.5):
            assert m.normalized_density(np.array([x])) == pytest.approx(
                g.normalized_density(np.array([x])), rel=1e-12
            )

    def test_well_separated_peak_estimate_matches_grid_search(self):
        m = mix(([0.0], [[1.0]], 1.0), ([10.0], [[1.0]], 1.0))
        xs = np.linspace(-8.0, 18.0, 200001)
        grid_max = m.density(xs[:, None]).max()
        assert m._peak_estimate() == pytest.approx(grid_max, abs=1e-6)
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
        m = mix((mean, 1e100 * np.eye(8), 3.0))
        assert m._peak_estimate() == 0.0
        rng = np.random.default_rng(0)
        for _ in range(20):
            m.add_sample(mean, 0.1, rng)
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
        mixture = DynamicGaussianMixture.from_components(comps)
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
        m = mix(([0.0], [[1.0]], 3.0))
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="k must be non-negative"):
            m.add_sample(np.array([0.1]), k, rng)
        assert len(m) == 1 and m.total_weight() == 3.0
        assert rng.bit_generator.state == state

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
        assert DynamicGaussianMixture(1).total_weight() == 0.0
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

    def test_distance_overflowing_for_every_component_is_rejected(self):
        # finite coordinates whose whitened squares overflow against small
        # covariances: no draw has a defined value there
        m = mix(([0.0, 0.0], 1e-4 * np.eye(2), 1.0), ([1.0, 0.0], 1e-4 * np.eye(2), 1.0))
        x = np.array([1e153, 0.0])
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: m.select_component(x, rng), lambda: m.add_sample(x, 0.3, rng)):
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
        m = DynamicGaussianMixture(2)
        rng = np.random.default_rng(6)
        x = np.array([3.0, -1.0])
        m.add_sample(x, 0.7, rng)
        assert len(m) == 1
        comp = m.components[0]
        assert comp.w == 1.0
        assert np.array_equal(comp.g.mean, x)
        assert np.array_equal(comp.g.cov, np.eye(2))
        assert np.array_equal(comp.creation_cov, np.eye(2))

    def test_sample_at_mean_of_heavy_model_merges(self):
        m = mix(([1.0], [[1.0]], 50.0))
        rng = np.random.default_rng(7)
        m.add_sample(np.array([1.0]), 0.7, rng)  # d = 1 so t = 1: always merge
        assert len(m) == 1
        assert m.total_weight() == 51.0

    def test_weight_conservation_and_count_growth(self):
        rng = np.random.default_rng(8)
        m = DynamicGaussianMixture(2)
        for i in range(200):
            before_w, before_m = m.total_weight(), len(m)
            m.add_sample(rng.standard_normal(2), 0.3, rng)
            assert m.total_weight() == before_w + 1.0
            assert len(m) - before_m in (0, 1)

    def test_two_cluster_stream_concentrates_on_two_components(self):
        # 300 draws from a two-component generator; with k chosen by a
        # sweep, the run-final component count is most often exactly 2
        gen = FixedGaussianMixture(
            [0.5, 0.5], [Gaussian([0.0], [[0.25]]), Gaussian([4.0], [[0.25]])]
        )
        counts = {}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = sample_gmm(gen, 300, rng)
            m = DynamicGaussianMixture(1)
            for x in pts:
                m.add_sample(x, 0.3, rng)
            counts[len(m)] = counts.get(len(m), 0) + 1
        mode = max(counts, key=counts.get)
        assert mode == 2

    def test_determinism(self):
        pts = np.random.default_rng(9).standard_normal((150, 2))
        models = []
        for _ in range(2):
            rng = np.random.default_rng(4242)
            m = DynamicGaussianMixture(2)
            for x in pts:
                m.add_sample(x, 0.5, rng)
            models.append(m)
        a, b = models
        assert len(a) == len(b)
        assert np.array_equal(a.weights(), b.weights())
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.g.mean, cb.g.mean)
            assert np.array_equal(ca.g.cov, cb.g.cov)

    def test_forced_merge_stream_matches_batch_estimators(self):
        # huge k makes the threshold 1 after the first sample, so the
        # whole stream lands in a single component
        rng = np.random.default_rng(10)
        X = rng.uniform(-2, 2, size=(500, 3)) * rng.uniform(0.2, 1.5, 3)
        m = DynamicGaussianMixture(3)
        for x in X:
            m.add_sample(x, 1e9, rng)
        assert len(m) == 1
        comp = m.components[0]
        assert comp.g.mean == pytest.approx(X.mean(axis=0), rel=1e-11, abs=1e-12)
        assert comp.g.cov == pytest.approx(np.cov(X, rowvar=False, ddof=1), rel=1e-10, abs=1e-12)

    def test_streamed_model_density_integrates_to_one(self):
        rng = np.random.default_rng(11)
        pts = np.concatenate([rng.normal(0, 0.5, 120), rng.normal(3, 0.7, 80)])
        m = DynamicGaussianMixture(1)
        for x in pts:
            m.add_sample([x], 0.4, rng)
        means = m.means().reshape(-1)
        sig = math.sqrt(max(np.diag(c.pd_gaussian().cov)[0] for c in m.components))
        grid = Grid((means.min() - 8 * sig,), (means.max() + 8 * sig,), (8001,))
        assert integrate_on_grid(m.density, grid) == pytest.approx(1.0, abs=1e-3)


class TestEvaluationBlend:
    def test_young_component_evaluates_with_creation_prior(self):
        m = DynamicGaussianMixture(2)
        rng = np.random.default_rng(12)
        m.add_sample(np.array([0.0, 0.0]), 1e9, rng)
        m.add_sample(np.array([1.0, 0.0]), 1e9, rng)  # forced merge: rank-1 stored cov
        comp = m.components[0]
        assert np.linalg.matrix_rank(comp.g.cov) == 1  # exact moments stay degenerate
        blended = comp.pd_gaussian().cov
        expect = (comp.g.cov + np.eye(2)) / 2.0
        assert blended == pytest.approx(expect, rel=1e-12)

    def test_prior_washes_out_with_weight(self):
        rng = np.random.default_rng(13)
        m = DynamicGaussianMixture(2)
        for x in rng.standard_normal((2000, 2)):
            m.add_sample(x, 1e9, rng)
        comp = m.components[0]
        assert comp.pd_gaussian().cov == pytest.approx(comp.g.cov, rel=2e-3)

    def test_hand_built_components_evaluate_exactly(self):
        g = Gaussian([0.0], [[0.04]])
        m = DynamicGaussianMixture.from_components([WeightedGaussian(g, 5.0)])
        assert m.density(np.array([0.0])) == pytest.approx(g.density(np.array([0.0])), rel=1e-12)


class TestSampleValidation:
    def test_component_below_unit_weight_is_rejected_before_any_draw(self):
        # no merge can take a component of weight 0.5, so the mixture
        # refuses every sample up front instead of failing after its draw
        m = mix(([0.0], [[1.0]], 3.0), ([5.0], [[1.0]], 0.5))
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape("component 1 has weight 0.5 < 1")):
            m.add_sample(np.array([5.0]), 5.0, rng)
        assert rng.bit_generator.state == state
        assert m.total_weight() == 3.5 and np.array_equal(m._w, [3.0, 0.5])
        # its density is still defined, and unit weights train as before
        assert m.density(np.array([5.0])) > 0.0
        ok = mix(([0.0], [[1.0]], 3.0), ([5.0], [[1.0]], 1.0))
        ok.add_sample(np.array([5.0]), 5.0, rng)
        assert ok.total_weight() == 5.0

    @pytest.mark.parametrize("bad, problem", [
        (math.nan, "is NaN"),
        (math.inf, "is infinite"),
        (-math.inf, "is infinite"),
        (1e200, "= 1e+200 is too large: its square overflows float64"),
    ])
    def test_rejected_before_any_draw(self, bad, problem):
        rng = np.random.default_rng(30)
        m = DynamicGaussianMixture(2)
        for x in rng.standard_normal((20, 2)):
            m.add_sample(x, 0.3, rng)
        before = [(c.w, c.g.mean, c.g.cov) for c in m.components]
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample coordinate 1 " + re.escape(problem)):
            m.add_sample(np.array([0.5, bad]), 0.3, rng)
        assert rng.bit_generator.state == state
        assert m.total_weight() == 20.0
        after = [(c.w, c.g.mean, c.g.cov) for c in m.components]
        assert len(after) == len(before)
        for (wa, ma, ca), (wb, mb, cb) in zip(after, before):
            assert wa == wb and np.array_equal(ma, mb) and np.array_equal(ca, cb)
        assert np.isfinite(m.density(np.zeros(2)))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_creation_scale_rejected_before_any_draw(self, scale):
        m = mix(([0.0], [[1.0]], 3.0))
        rng = np.random.default_rng(32)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="new_cov_scale must be positive and finite"):
            m.add_sample(np.array([50.0]), 0.3, rng, new_cov_scale=scale)
        assert rng.bit_generator.state == state
        assert len(m) == 1 and m.total_weight() == 3.0
        with pytest.raises(ValueError, match="new_cov_scale must be positive and finite"):
            DynamicGaussianMixture(1).add_sample(np.array([0.0]), 0.3, rng, new_cov_scale=scale)
        assert rng.bit_generator.state == state

    def test_largest_finite_square_is_accepted(self):
        m = DynamicGaussianMixture(1)
        m.add_sample(np.array([1e150]), 0.3, np.random.default_rng(31))
        assert m.means()[0, 0] == 1e150

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
            m = DynamicGaussianMixture(d)
            for x in X:
                m.add_sample(x, 1e9, rng)
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
            m = DynamicGaussianMixture(dim)
            for step in range(120):
                m.add_sample(centers[step % 3] + rng.standard_normal(dim), k, rng)
                if step % 30 != 29:
                    continue
                assert m._scaled_peak(m._scaled_weights()[1]) >= 1.0
                x = centers[step % 3] + 0.5 * rng.standard_normal(dim)
                peak, density, scores = self.reference(m, x)
                assert m._peak_estimate() == pytest.approx(peak, rel=self.RTOL)
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
        fixed = FixedGaussianMixture(w / w.sum(), gaussians)
        dynamic = DynamicGaussianMixture.from_components(
            [WeightedGaussian(g, wi) for g, wi in zip(gaussians, w)])
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
        m = DynamicGaussianMixture(dim)
        for i, x in enumerate(X):
            m.add_sample(x, 1e9, rng)
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
        m = DynamicGaussianMixture(dim)
        for i in range(n):
            x = centers[rng.integers(3)] + scale * rng.standard_normal(dim)
            m.add_sample(x, 10.0**log_k, rng, new_cov_scale=scale**2)
            assert m.total_weight() == i + 1
        assert m._w.sum() == n
        fresh = DynamicGaussianMixture.from_components(m.components)
        for name in ("_eval_cov", "_chol_inv", "_log_norm"):
            np.testing.assert_allclose(getattr(m, name), getattr(fresh, name), rtol=1e-12, atol=0.0,
                                       err_msg=name)


def eager_add_sample(m, x, k, rng, new_cov_scale=1.0):
    """add_sample with d computed for every sample, as the decision rule
    reads: merge iff r < 1 - (1 - d) e^{-kn}."""
    x = m._check_sample(x)
    r = rng.random()
    d = 0.0
    if len(m):
        _, quad, nearest = m._distances(x)
        d = float(m._normalized(quad))
    if r < merge_threshold(d, m._W, k):
        i = m._draw(quad, rng, nearest)
        m._merge(i, x - m._mean[i])
    else:
        m._append(x, new_cov_scale)
    m._W += 1.0


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
        lazy, eager = DynamicGaussianMixture(dim), DynamicGaussianMixture(dim)
        rng_lazy, rng_eager = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for x in pts:
            lazy.add_sample(x, k, rng_lazy, new_cov_scale=scale**2)
            eager_add_sample(eager, x, k, rng_eager, new_cov_scale=scale**2)
            assert len(lazy) == len(eager)
            for name in ("_w", "_mean", "_cov"):
                assert np.array_equal(getattr(lazy, name), getattr(eager, name)), name
            assert rng_lazy.bit_generator.state == rng_eager.bit_generator.state


class TestDensityBound:
    """add_sample settles a draw at or above t(0) without the peak matrix
    when r >= t(min(num, 1)), num being d's scaled numerator: the scaled
    peak is at least 1, so that is an upper bound on d and skips no
    merge."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 8),
        m=st.integers(1, 12),
        n=st.integers(1, 30),
        log_k=st.floats(-3.0, 0.0),
        offset=st.floats(-1e6, 1e6),
        log_cov_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_and_changes_no_decision(self, dim, m, n, log_k, offset, log_cov_scale, seed):
        rng = np.random.default_rng(seed)
        k, cov_scale = 10.0**log_k, 10.0**log_cov_scale
        scale = math.sqrt(cov_scale)
        comps = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = cov_scale * (a @ a.T / dim + 0.1 * np.eye(dim))
            comps.append(WeightedGaussian(
                Gaussian(offset + 3.0 * scale * rng.standard_normal(dim), 0.5 * (cov + cov.T)),
                float(rng.integers(1, 10)), creation_cov=cov_scale * np.eye(dim)))
        bounded, eager = DynamicGaussianMixture(dim, comps), DynamicGaussianMixture(dim, comps)
        spread = scale * np.where(rng.random((n, 1)) < 0.3, 30.0, 1.0)
        pts = offset + 3.0 * scale * rng.standard_normal((1, dim)) + spread * rng.standard_normal((n, dim))
        rng_bounded, rng_eager = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for x in pts:
            quad = bounded._distances(x)[1]
            _, a = bounded._scaled_weights()
            num = float(np.exp(-0.5 * quad) @ a)
            assert bounded._scaled_peak(a) >= 1.0
            assert float(bounded._normalized(quad)) <= min(num, 1.0)
            bounded.add_sample(x, k, rng_bounded, new_cov_scale=cov_scale)
            eager_add_sample(eager, x, k, rng_eager, new_cov_scale=cov_scale)
            assert_same_mixture(bounded, eager)
            assert rng_bounded.bit_generator.state == rng_eager.bit_generator.state

    def test_peak_matrix_is_built_only_between_the_bounds(self, monkeypatch):
        # far samples (d ~ 0) draw at or above t(0) but are settled by the bound
        m = mix(([0.0], [[1.0]], 5.0), ([4.0], [[1.0]], 5.0))
        built = []
        peak = DynamicGaussianMixture._scaled_peak
        monkeypatch.setattr(DynamicGaussianMixture, "_scaled_peak",
                            lambda self, a: built.append(len(self)) or peak(self, a))
        rng = np.random.default_rng(12)
        for i in range(20):
            m.add_sample(np.array([1e3 * (i + 1)]), 1e-3, rng)
        assert m.total_weight() == 30.0 and len(m) > 15 and built == []


class TestRebuiltMixture:
    """A mixture rebuilt from its components (the path a loaded model file
    takes) holds the live mixture's arrays bit for bit and continues a
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
    def test_from_components_resumes_bit_for_bit(self, dim, n, more, log_k, offset, log_scale, seed):
        k, scale = 10.0**log_k, 10.0**log_scale
        pts = clustered_stream(np.random.default_rng(seed), n + more, dim, offset, scale)
        live = DynamicGaussianMixture(dim)
        rng = np.random.default_rng([seed, 2])
        for x in pts[:n]:
            live.add_sample(x, k, rng, new_cov_scale=scale**2)
        rebuilt = DynamicGaussianMixture.from_components(live.components)
        assert_same_mixture(live, rebuilt)
        rng_rebuilt = np.random.default_rng()
        rng_rebuilt.bit_generator.state = rng.bit_generator.state
        for x in pts[n:]:
            live.add_sample(x, k, rng, new_cov_scale=scale**2)
            rebuilt.add_sample(x, k, rng_rebuilt, new_cov_scale=scale**2)
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
        while not _count_is_final(n_final, k):
            n_final += 1
        assert not _count_is_final(n_final - 1, k)
        # reach n_final with a short stream, on top of hand-built components
        # carrying the rest of the weight when n_final is large
        streamed = min(n_final, 20)
        rest = n_final - streamed
        comps = [
            WeightedGaussian(
                Gaussian(offset + scale * rng.standard_normal(dim), scale**2 * np.eye(dim)), w)
            for w in ([rest - 2, 1, 1] if rest > 2 else [rest] if rest else [])
        ]
        m = DynamicGaussianMixture(dim, comps)
        # points at the components and far from them (density ratio d ~ 0)
        spread = scale * np.where(rng.random((streamed + extra, 1)) < 0.3, 1e3, 1.0)
        pts = offset + spread * rng.standard_normal((streamed + extra, dim))
        for x in pts[:streamed]:
            m.add_sample(x, k, rng)
        assert m.total_weight() == n_final
        assert _count_is_final(m.total_weight(), k)
        count = len(m)
        for x in pts[streamed:]:
            m.add_sample(x, k, rng)
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


class TestFinalCount:
    """_final_count(k) is the first n at which _count_is_final(n, k) holds,
    found once per k, so a stream that stops when its total weight reaches
    it stops where the per-sample predicate would."""

    @settings(max_examples=300, deadline=None)
    @given(log_k=st.floats(-4.0, 4.0))
    @example(log_k=-4.0)
    @example(log_k=4.0)
    @example(log_k=0.0)
    def test_first_count_where_the_predicate_holds(self, log_k):
        k = 10.0**log_k
        n = _final_count(k)
        assert n == int(n) >= 1
        assert _count_is_final(n, k)
        assert not _count_is_final(n - 1, k)

    def test_zero_k_is_never_final(self):
        assert _final_count(0.0) == math.inf
        assert not _count_is_final(2.0**53, 0.0)

    def test_infinite_k_is_final_at_one(self):
        assert _final_count(math.inf) == 1.0
        assert _count_is_final(1, math.inf)
        assert not _count_is_final(0, math.inf)

    def test_huge_and_tiny_k(self):
        assert _final_count(1e300) == 1.0
        # k n must pass about 37.4, beyond the weights a stream can count
        assert _final_count(1e-300) == math.inf

    def test_negative_or_nan_k_raises(self):
        for k in (-1.0, math.nan):
            with pytest.raises(ValueError, match="n and k must be non-negative"):
                _final_count(k)


class TestOnePassPieces:
    """The pieces add_sample computes once give the bits of the expressions
    they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 8), m=st.integers(1, 12), offset=st.floats(-1e6, 1e6),
           seed=st.integers(0, 2**32 - 1))
    def test_distances_and_merge_with_the_difference(self, dim, m, offset, seed):
        rng = np.random.default_rng(seed)
        comps = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T / dim + 0.1 * np.eye(dim)
            comps.append(WeightedGaussian(Gaussian(offset + rng.standard_normal(dim), 0.5 * (cov + cov.T)),
                                          float(rng.integers(1, 10)), creation_cov=np.eye(dim)))
        a, b = DynamicGaussianMixture(dim, comps), DynamicGaussianMixture(dim, comps)
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
    def test_evaluation_cov_into_a_row(self, dim, w, log_scale, with_creation, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        cov = 10.0**log_scale * (a @ a.T)
        creation = 10.0**log_scale * np.eye(dim) if with_creation else None
        rows = np.full((3, dim, dim), np.nan)
        got = _evaluation_cov(cov, w, creation, out=rows[1])
        assert np.array_equal(got, _evaluation_cov(cov, w, creation))
        if creation is None or w < 1.0:
            assert got is cov and np.isnan(rows).all()
        else:
            assert np.shares_memory(got, rows[1]) and np.array_equal(got, rows[1])
            assert np.isnan(rows[[0, 2]]).all()

    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(0.0, 1.0), n=st.floats(0.0, 1e6), k=st.floats(0.0, 1e3))
    def test_threshold_from_the_decay_has_merge_thresholds_bits(self, d, n, k):
        assert _threshold(d, float(np.exp(-k * n))) == merge_threshold(d, n, k)

    def test_append_by_scale_equals_append_of_the_covariance(self, monkeypatch):
        # the mixture built whole from the same moments derives every
        # factor in _adopt, without the `_fresh` entry
        monkeypatch.setattr(dgmm.mixture, "_fresh", None)
        scales = (2.0, 2.0, 0.5, 2.0)
        a = DynamicGaussianMixture(3)
        for i, scale in enumerate(scales):
            a._append(np.full(3, float(i)), scale)
            a._W += 1.0
        covs = [scale * np.eye(3) for scale in scales]
        b = DynamicGaussianMixture._from_arrays(
            np.ones(4), np.array([np.full(3, float(i)) for i in range(4)]), np.array(covs), covs)
        assert_same_mixture(a, b)
        assert [c[0, 0] for c in a._creation] == [2.0, 2.0, 0.5, 2.0]


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
    """A fresh component's evaluation covariance and factor depend on its
    creation covariance alone: a run of appends with one creation
    covariance factors it once, and the mixture keeps and hands out copies
    of what it is given."""

    def test_repeated_creation_covariance_is_factored_once(self, monkeypatch):
        m = DynamicGaussianMixture(3)
        rng = np.random.default_rng(4)
        factored = []
        factor = dgmm.mixture._factor
        # the entry is shared by every mixture: start from an empty one
        monkeypatch.setattr(dgmm.mixture, "_fresh", None)

        def counting(eval_cov):
            factored.append(eval_cov.copy())
            return factor(eval_cov)

        monkeypatch.setattr(dgmm.mixture, "_factor", counting)
        # k = 0 and far samples: every sample appends
        for scale in (2.0, 2.0, 2.0, 0.5, 0.5, 2.0):
            m.add_sample(np.full(3, 1e3 * len(m)), 0.0, rng, new_cov_scale=scale)
        assert len(m) == 6
        assert [c[0, 0] for c in factored] == [2.0, 0.5, 2.0]
        monkeypatch.undo()
        rebuilt = DynamicGaussianMixture.from_components(m.components)
        for name in ("_eval_cov", "_chol_inv"):
            assert np.array_equal(getattr(m, name), getattr(rebuilt, name)), name

    def test_mixtures_share_one_fresh_factor(self, monkeypatch):
        # the many mixtures of a motion model all append the identity
        factored = []
        factor = dgmm.mixture._factor

        def counting(eval_cov):
            factored.append(eval_cov.shape)
            return factor(eval_cov)

        monkeypatch.setattr(dgmm.mixture, "_fresh", None)
        monkeypatch.setattr(dgmm.mixture, "_factor", counting)
        rng = np.random.default_rng(7)
        mixtures = [DynamicGaussianMixture(4) for _ in range(5)]
        for i, m in enumerate(mixtures):
            m.add_sample(np.full(4, float(i)), 0.3, rng)
            m.add_sample(np.full(4, 1e3), 0.0, rng)
        assert factored == [(4, 4)]
        monkeypatch.undo()
        assert all(m._creation[0] is mixtures[0]._creation[0] for m in mixtures)
        for m in mixtures:
            rebuilt = DynamicGaussianMixture.from_components(m.components)
            for name in ("_eval_cov", "_chol_inv"):
                assert np.array_equal(getattr(m, name), getattr(rebuilt, name)), name

    def test_components_hand_out_creation_copies(self):
        m = DynamicGaussianMixture(2)
        rng = np.random.default_rng(5)
        for x in (0.0, 1e3, 2e3):
            m.add_sample(np.full(2, x), 0.0, rng)
        creation = m.components[0].creation_cov
        creation[0, 0] = 99.0
        assert all(np.array_equal(c.creation_cov, np.eye(2)) for c in m.components)
        assert all(np.array_equal(c, np.eye(2)) for c in m._creation)
        # the components share one creation array, which cannot be written
        with pytest.raises(ValueError, match="read-only"):
            m._creation[1][0, 0] = 99.0
        m.add_sample(np.full(2, 3e3), 0.0, rng)
        assert np.array_equal(m._eval_cov[3], np.eye(2))
        assert np.array_equal(m.components[3].creation_cov, np.eye(2))

    def test_construction_copies_creation_covariances(self):
        creation = np.eye(2)
        c = WeightedGaussian(Gaussian(np.zeros(2), np.eye(2)), 2.0, creation)
        m = DynamicGaussianMixture(2, [c])
        creation[0, 0] = 99.0
        assert np.array_equal(m._creation[0], np.eye(2))
        m.add_sample(np.full(2, 0.1), 1e9, np.random.default_rng(6))
        assert len(m) == 1
        reference = DynamicGaussianMixture(2, [merge_into(WeightedGaussian(c.g, 2.0, np.eye(2)), np.full(2, 0.1))])
        assert np.array_equal(m._eval_cov, reference._eval_cov)


class TestAdoptBlend:
    """_adopt forms the evaluation covariances of a whole mixture in one
    expression; it gives, bit for bit, what _evaluation_cov gives row by
    row, for rows without a creation covariance, with the shared default
    one, with their own one, and at weights below, at and above 1."""

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
        creation = [(None, default, pd())[int(rng.integers(3))] for _ in range(m)]
        want = np.array([_evaluation_cov(c, wi, cr) for c, wi, cr in zip(cov, w, creation)])
        mixture = DynamicGaussianMixture._from_arrays(w.copy(), mean, cov.copy(), list(creation))
        assert mixture._eval_cov.tobytes() == want.reshape(m, dim, dim).tobytes()
        if m:
            assert mixture._chol_inv.tobytes() == _factor(want)[1].tobytes()


# Runs in a fresh interpreter: "plain" as numpy is, "fallback" after taking
# away the private numpy names that dgmm.mixture reads at import (the LAPACK
# gufuncs of numpy.linalg._umath_linalg and c_einsum), as a numpy without
# them would.  numpy.linalg and np.einsum keep their own references.
FALLBACK_SCRIPT = """
import hashlib, json, sys, types
import numpy as np
import numpy.linalg
if sys.argv[1] == "fallback":
    numpy.linalg._umath_linalg = types.SimpleNamespace()
    try:
        import numpy._core.multiarray as multiarray
    except ImportError:
        import numpy.core.multiarray as multiarray
    del multiarray.c_einsum
import dgmm.mixture as mx

rng = np.random.default_rng(7)
a = rng.standard_normal((3, 4, 4))
pd = a @ a.transpose(0, 2, 1) + 4.0 * np.eye(4)
singular = np.zeros((4, 4))
singular[:2, :2] = 1.0
factors = [[arr.tobytes().hex() for arr in mx._factor(cov)]
           for cov in (pd[0], pd, singular, np.array([pd[1], singular]))]
mix, sizes = mx.DynamicGaussianMixture(3), []
for x in rng.standard_normal((300, 3)) * [1.0, 3.0, 0.5]:
    mix.add_sample(x, 0.05, rng)
    sizes.append(len(mix))
arrays = b"".join(getattr(mix, name).tobytes() for name in ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv"))
print(json.dumps({"private": mx._cholesky_lo is not None, "c_einsum": mx._einsum is not np.einsum,
                  "factors": factors, "sizes": sizes, "arrays": hashlib.sha256(arrays).hexdigest(),
                  "state": str(rng.bit_generator.state["state"])}))
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
    assert not fallback["private"] and not fallback["c_einsum"]
    # the same factors, and a seeded stream makes the same decisions
    # (mixture sizes, arrays and generator state after every draw)
    for key in ("factors", "sizes", "arrays", "state"):
        assert fallback[key] == plain[key], key
    assert plain["sizes"][-1] > 1
