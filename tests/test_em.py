import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dgmm.em
from dgmm.gaussian import Gaussian, ensure_positive_definite
from dgmm.mixture import DynamicGaussianMixture, WeightedGaussian
from dgmm.em import (
    FixedGaussianMixture,
    Grid,
    em_fit,
    integrate_on_grid,
    ise,
    mise,
    mixture_support_box,
    support_grid,
)

from builders import dynamic_mixture


class TestFixedGaussianMixture:
    """The one constructor of a fixed mixture: weights, means and
    covariances as arrays, checked, then factored once."""

    def test_arrays_are_copied_and_factored(self):
        w, mean = np.array([0.25, 0.75]), np.array([[0.0, 0.0], [3.0, 1.0]])
        cov = np.array([np.eye(2), 0.5 * np.eye(2)])
        fit = FixedGaussianMixture(w, mean, cov)
        w[0], mean[0, 0], cov[0, 0, 0] = 9.0, 9.0, 9.0
        assert np.array_equal(fit.weights, [0.25, 0.75])
        assert np.array_equal(fit._mean, [[0.0, 0.0], [3.0, 1.0]])
        assert np.array_equal(fit._eval_cov, [np.eye(2), 0.5 * np.eye(2)])
        assert np.array_equal(fit._chol_inv, dgmm.em._factor(fit._eval_cov)[1])
        assert fit.loglik_path == []

    @pytest.mark.parametrize("weights, message", [
        ([math.nan, 0.5], "weights must be positive and finite"),
        ([math.inf, 0.5], "weights must be positive and finite"),
        ([1.5, -0.5], "weights must be positive and finite"),
        ([0.0, 1.0], "weights must be positive and finite"),
        ([0.5, 0.4], "weights must sum to 1"),
    ])
    def test_bad_weights_rejected(self, weights, message):
        # a NaN weight used to be accepted, and gave a NaN density
        with pytest.raises(ValueError, match="^" + message + "$"):
            FixedGaussianMixture(weights, [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("weights, means, covs", [
        ([1.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]]),
        ([0.5, 0.5], [[0.0], [1.0]], [[[1.0]]]),
        ([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [[[1.0]], [[1.0]]]),
        ([0.5, 0.5], [0.0, 1.0], [[[1.0]], [[1.0]]]),
        ([[0.5, 0.5]], [[0.0], [1.0]], [[[1.0]], [[1.0]]]),
        ([0.5, 0.5], np.empty((2, 0)), np.empty((2, 0, 0))),
    ])
    def test_mismatched_shapes_rejected_with_one_message(self, weights, means, covs):
        with pytest.raises(ValueError, match=r"must have shapes \(m,\), \(m, D\) and \(m, D, D\)"):
            FixedGaussianMixture(weights, means, covs)

    @pytest.mark.parametrize("means, covs", [
        ([[math.nan, 0.0]], [np.eye(2)]),
        ([[math.inf, 0.0]], [np.eye(2)]),
        ([[0.0, 0.0]], [[[math.nan, 0.0], [0.0, 1.0]]]),
    ])
    def test_non_finite_moments_rejected(self, means, covs):
        # they used to be accepted, and gave a NaN density
        with pytest.raises(ValueError, match="^means and covs must be finite$"):
            FixedGaussianMixture([1.0], means, covs)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="^covs must be symmetric$"):
            FixedGaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.2, 1.0]]])


class TestEmFit:
    def test_fit_builds_no_gaussian_and_factors_once_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.normal(c, 0.5, size=(60, 2)) for c in (-3.0, 0.0, 3.0)])
        factored, iterations = [], []
        factor, em_once = dgmm.em._factor, dgmm.em._em_once

        def counting_factor(cov):
            factored.append(cov.shape)
            return factor(cov)

        def counting_em_once(*args):
            fit = em_once(*args)
            iterations.append(len(fit.loglik_path))
            return fit

        def refuse(*args, **kwargs):
            raise AssertionError("a component object was built")

        monkeypatch.setattr(dgmm.em, "_factor", counting_factor)
        monkeypatch.setattr(dgmm.em, "_em_once", counting_em_once)
        monkeypatch.setattr(Gaussian, "__init__", refuse)
        monkeypatch.setattr(WeightedGaussian, "__init__", refuse)
        fit = em_fit(pts, 3, rng=np.random.default_rng(9))
        # one for each of the 5 restarts' initial covariances, one per
        # iteration, and one for each restart's fit, which the constructor
        # factors from the last M-step's covariances
        assert len(iterations) == 5
        assert len(factored) == 5 + sum(iterations) + 5
        monkeypatch.undo()
        assert np.array_equal(dgmm.em._factor(fit._eval_cov)[1], fit._chol_inv)
        assert fit.weights is fit._w and fit.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(2.0, 1.5, size=(200, 2)) @ np.array([[1.0, 0.3], [0.0, 1.0]])
        fit = em_fit(pts, 1, rng=rng)
        assert fit.weights == pytest.approx(np.array([1.0]))
        assert fit._mean[0] == pytest.approx(pts.mean(axis=0), abs=1e-10)
        ml_cov = np.cov(pts, rowvar=False, bias=True)
        assert fit._eval_cov[0] == pytest.approx(ml_cov, abs=1e-10)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(10.0, 1.0, 500)])
        fit = em_fit(pts, 2, rng=rng)
        means = sorted(fit._mean[:, 0])
        assert means[0] == pytest.approx(0.0, abs=0.2)
        assert means[1] == pytest.approx(10.0, abs=0.2)
        assert fit.weights == pytest.approx(np.array([0.5, 0.5]), abs=0.05)

    def test_duplicate_points_do_not_fail(self):
        pts = np.tile(np.array([[1.0, 2.0]]), (40, 1))
        fit = em_fit(pts, 2, rng=np.random.default_rng(2))
        assert len(fit) == 2
        assert np.isfinite(fit.loglik_path[-1])

    def test_loglik_nondecreasing_on_nondegenerate_fits(self):
        # monotonicity holds whenever no component collapses (collapse
        # engages the regularizer, which clips the likelihood singularity
        # and can legitimately step down from the spike)
        rng = np.random.default_rng(3)
        for _ in range(5):
            pts = np.concatenate([
                rng.normal(0, 1, (150, 2)),
                rng.normal(4, 0.7, (100, 2)),
            ])
            fit = em_fit(pts, 2, rng=rng)
            steps = np.diff(fit.loglik_path)
            assert np.all(steps >= -1e-10)

    def test_collapsing_component_is_regularized_not_fatal(self):
        rng = np.random.default_rng(30)
        pts = np.concatenate([rng.normal(0, 1, (150, 2)), rng.normal(4, 0.7, (100, 2))])
        fit = em_fit(pts, 3, rng=np.random.default_rng(3))
        assert np.isfinite(fit.loglik_path[-1])
        for cov in fit._eval_cov:
            np.linalg.cholesky(cov)  # every returned covariance factors

    def test_input_validation(self):
        with pytest.raises(ValueError):
            em_fit(np.empty((0, 2)), 1, rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            em_fit(np.zeros((3, 2)), 5, rng=np.random.default_rng(4))

    @pytest.mark.parametrize("m", [2.5, 2.0, "2", None])
    def test_non_integral_m_rejected_before_any_draw(self, m):
        pts = np.random.default_rng(5).standard_normal((20, 2))
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^m must be an integer$"):
            em_fit(pts, m, rng)
        assert rng.bit_generator.state == state
        assert len(em_fit(pts, np.int64(2), rng)) == 2

    @pytest.mark.parametrize("bad, problem", [
        (math.nan, "is NaN"),
        (-math.inf, "is infinite"),
        (1e200, "= 1e+200 is too large: its square overflows float64"),
    ])
    def test_bad_point_rejected_before_any_draw(self, bad, problem):
        # one NaN point used to give a fit with NaN means and log-likelihood
        pts = np.random.default_rng(5).standard_normal((20, 2))
        pts[7, 1] = bad
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^point 7 coordinate 1 " + re.escape(problem) + "$"):
            em_fit(pts, 2, rng)
        assert rng.bit_generator.state == state

    def test_generator_is_required(self):
        # as in every experiment function: no fresh entropy is drawn silently
        pts = np.random.default_rng(5).standard_normal((20, 2))
        with pytest.raises(TypeError):
            em_fit(pts, 2)
        a = em_fit(pts, 2, np.random.default_rng(6))
        b = em_fit(pts, 2, rng=np.random.default_rng(6))
        assert a.loglik_path == b.loglik_path
        assert np.array_equal(a._mean, b._mean)


class TestLogLikelihood:
    def test_shared_evaluation_path_across_model_kinds(self):
        # a dynamic mixture and a fixed mixture with the same parameters
        # must score identically
        gaussians = [Gaussian([0.0, 0.0], np.eye(2)), Gaussian([3.0, 1.0], 0.5 * np.eye(2))]
        means, covs = [g.mean for g in gaussians], [g.cov for g in gaussians]
        fixed = FixedGaussianMixture([0.25, 0.75], means, covs)
        dynamic = dynamic_mixture([1.0, 3.0], means, covs)
        pts = np.random.default_rng(6).standard_normal((50, 2))
        assert dynamic.log_density(pts).sum() == pytest.approx(
            fixed.log_density(pts).sum(), rel=1e-12
        )
        # both kinds, density and log_density, against the per-Gaussian sum;
        # the third component is singular and takes the diagonal-loading path
        gaussians.append(Gaussian([-1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]]))
        weights = np.array([1.0, 3.0, 2.0])
        means, covs = [g.mean for g in gaussians], [g.cov for g in gaussians]
        fixed = FixedGaussianMixture(weights / weights.sum(), means, covs)
        dynamic = dynamic_mixture(weights, means, covs)
        pts = np.vstack([pts, [-1.0, 2.0], [0.0, 1.0], [-3.0, 0.0]])
        want = sum(w / weights.sum() * ensure_positive_definite(g).density(pts)
                   for g, w in zip(gaussians, weights))
        for model in (fixed, dynamic):
            assert model.density(pts) == pytest.approx(want, rel=1e-12)
            assert np.exp(model.log_density(pts)) == pytest.approx(want, rel=1e-12)
            assert model.log_density(pts[0]) == pytest.approx(math.log(want[0]), rel=1e-12)
        assert fixed.density(pts[-3]) > 1e3  # on the singular component's line


class TestMise:
    def test_identical_densities(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        grid = Grid((-8.0, -8.0), (8.0, 8.0), (150, 150))
        assert mise(g.density, g.density, grid) == 0.0

    def test_symmetry(self):
        p = Gaussian([0.0], [[1.0]])
        q = Gaussian([1.0], [[2.0]])
        grid = Grid((-12.0,), (13.0,), (2000,))
        assert mise(p.density, q.density, grid) == pytest.approx(
            mise(q.density, p.density, grid), rel=1e-15
        )

    def test_closed_form_two_standard_normals(self):
        # integral of (N(0,1) - N(delta,1))^2 = 2 (1 - exp(-delta^2/4)) / sqrt(4 pi)
        for delta in (0.5, 1.0, 2.5):
            p = Gaussian([0.0], [[1.0]])
            q = Gaussian([delta], [[1.0]])
            grid = Grid((-8.0,), (delta + 8.0,), (4000,))
            expect = 2.0 * (1.0 - math.exp(-(delta**2) / 4.0)) / math.sqrt(4 * math.pi)
            assert mise(p.density, q.density, grid) == pytest.approx(expect, abs=1e-4)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid((0.0,), (0.0,), (100,))
        with pytest.raises(ValueError):
            Grid((0.0,), (1.0,), (1,))

    def test_support_grid_covers_components(self):
        p = FixedGaussianMixture([0.5, 0.5], [[0.0, 0.0], [5.0, -2.0]], [np.eye(2), 2 * np.eye(2)])
        grid = support_grid([p], resolution=100)
        assert np.all(np.asarray(grid.lower) <= np.array([-8.0, -8.0]))
        assert np.all(np.asarray(grid.upper) >= np.array([5.0 + 8 * math.sqrt(2), -2.0 + 8 * math.sqrt(2)]) - 1e-9)
        assert integrate_on_grid(p.density, Grid(grid.lower, grid.upper, (500, 500))) == pytest.approx(1.0, abs=1e-3)


def two_cluster_points(rng, n, dim, offset, scale):
    """n points around two centers 3 scale units apart, at an offset."""
    centers = offset + scale * np.array([np.full(dim, -1.5), np.full(dim, 1.5)])
    return centers[rng.integers(2, size=n)] + scale * rng.standard_normal((n, dim))


def streamed(points, k, scale, rng):
    """An online mixture fed the points, with creation covariance scale^2 I."""
    m = DynamicGaussianMixture(points.shape[1], k, scale**2)
    for x in points:
        m.add_sample(x, rng)
    return m


# the most cells the grid oracle allocates; a draw whose grid would need
# more (a streamed component far narrower than the support box) skips the
# grid comparison only
GRID_CELL_BUDGET = 250_000


def grid_mise(p, q, mixtures):
    """The grid oracle, with cells at most half the smallest standard
    deviation of the evaluation covariances of `mixtures` (the midpoint rule
    is then exact far below the tolerances used here); None when that grid
    would hold more than GRID_CELL_BUDGET cells, counted before anything
    is allocated."""
    lo, hi = mixture_support_box(mixtures)
    sigma = min(math.sqrt(np.linalg.eigvalsh(mix._eval_cov).min()) for mix in mixtures)
    cells = max(math.ceil(np.max(hi - lo) / (0.5 * sigma)), 2)
    if cells ** len(lo) > GRID_CELL_BUDGET:
        return None
    return mise(p.density, q.density, Grid(tuple(lo), tuple(hi), (cells,) * len(lo)))


def assert_matches_grid(got, p, q, mixtures, rel):
    """got matches grid_mise(p, q, mixtures) within rel, unless the grid
    is over budget."""
    oracle = grid_mise(p, q, mixtures)
    if oracle is not None:
        assert got == pytest.approx(oracle, rel=rel)


def grid_rel(offset, scale):
    """Relative tolerance of the grid oracle: a cell center at an offset is
    rounded to an ulp of it, eps |offset| / scale standard deviations."""
    return 1e-11 + 8.0 * np.finfo(float).eps * abs(offset) / scale


def equal_cov_ise(delta, cov):
    """Closed form for two Gaussians with one covariance S, means delta apart:
    2 (1 - exp(-delta^T S^-1 delta / 4)) / sqrt((4 pi)^D |S|)."""
    maha = float(delta @ np.linalg.solve(cov, delta))
    log_det = np.linalg.slogdet(cov)[1]
    return -2.0 * math.expm1(-maha / 4.0) * math.exp(-0.5 * (len(delta) * math.log(4 * math.pi) + log_det))


class TestIse:
    """The closed-form integrated square error against the grid oracle at
    D 1-2, and against the two-Gaussian closed form at D 1 and 8, where no
    grid can run."""

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(1, 2),
        n=st.integers(2, 40),
        log_k=st.floats(-1.0, 0.5),
        m_em=st.integers(1, 2),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_grid_mise(self, dim, n, log_k, m_em, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        p = streamed(two_cluster_points(rng, n, dim, offset, scale), 10.0**log_k, scale, rng)
        q = em_fit(two_cluster_points(rng, 200, dim, offset, scale), m_em, rng=rng)
        got = ise(p, q)
        assert got >= 0.0
        assert_matches_grid(got, p, q, [p, q], grid_rel(offset, scale))
        assert ise(q, p) == pytest.approx(got, rel=1e-12)
        for mix in (p, q):
            assert ise(mix, mix) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 40),
        log_k=st.floats(-1.0, 0.5),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # its streamed mixture asks for a grid of 1092885^2 cells
    @example(n=26, log_k=0.25, offset=0.0, log_scale=0.0, seed=194353)
    def test_singular_component_matches_grid_mise(self, n, log_k, offset, log_scale, seed):
        # one hand-built singular component, with the same share in both
        # mixtures: it takes the diagonal-loading path, and it cancels from
        # p - q, so the grid needs no cells across its narrow ridge
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        p = streamed(two_cluster_points(rng, n, 2, offset, scale), 10.0**log_k, scale, rng)
        q = em_fit(two_cluster_points(rng, 200, 2, offset, scale), 2, rng=rng)
        # a power of 4 makes the Cholesky factorization fail exactly
        c = 4.0 ** round(math.log(scale**2, 4))
        singular = Gaussian(offset + scale * rng.standard_normal(2), c * np.ones((2, 2)))
        # p2 has no creation covariance, so p's rows enter it with their
        # evaluation covariances, which it evaluates as p does
        p2 = dynamic_mixture(np.append(p._w, p.total_weight()), np.vstack([p._mean, singular.mean]),
                             np.concatenate([p._eval_cov, [singular.cov]]))
        q2 = FixedGaussianMixture(np.append(q.weights / 2.0, 0.5), np.vstack([q._mean, singular.mean]),
                                  np.concatenate([q._eval_cov, [singular.cov]]))
        assert not np.array_equal(p2._eval_cov[-1], singular.cov)
        assert np.array_equal(p2._eval_cov[-1], q2._eval_cov[-1])
        got = ise(p2, q2)
        assert_matches_grid(got, p2, q2, [p, q], grid_rel(offset, scale))
        # p2 - q2 = (p - q) / 2
        assert got == pytest.approx(ise(p, q) / 4.0, rel=1e-9)
        assert ise(q2, p2) == pytest.approx(got, rel=1e-9)
        for mix in (p2, q2):
            assert ise(mix, mix) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 8]),
        maha=st.floats(0.05, 20.0),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_covariance_pair_closed_form(self, dim, maha, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        a = rng.standard_normal((dim, dim))
        cov = scale**2 * (a @ a.T + dim * np.eye(dim))
        u = rng.standard_normal(dim)
        delta = maha * np.linalg.cholesky(cov) @ (u / np.linalg.norm(u))
        mean = offset + scale * rng.standard_normal(dim)
        p = FixedGaussianMixture([1.0], [mean], [cov])
        q = FixedGaussianMixture([1.0], [mean + delta], [cov])
        # at an offset, mean + delta rounds; the stored difference is exact
        want = equal_cov_ise(q._mean[0] - mean, cov)
        got = ise(p, q)
        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-10)
        assert ise(q, p) == pytest.approx(want, rel=1e-10)
        assert ise(p, p) == 0.0

    def test_rejects_empty_and_mismatched_mixtures(self):
        one = FixedGaussianMixture([1.0], [[0.0]], [[[1.0]]])
        two = FixedGaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        with pytest.raises(ValueError, match="empty"):
            ise(one, DynamicGaussianMixture(1, 0.3))
        with pytest.raises(ValueError, match="dimensions differ"):
            ise(one, two)


class TestIntegratesToOne:
    """Streamed and EM-fitted densities integrate to 1 at D 1-2 over
    merge constants, offsets and scales (North star 3)."""

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(1, 2),
        n=st.integers(1, 60),
        log_k=st.floats(-1.0, 1.0),
        m_em=st.integers(1, 2),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_and_em_fits(self, dim, n, log_k, m_em, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        shape = (4001,) if dim == 1 else (300, 300)
        online = streamed(two_cluster_points(rng, n, dim, offset, scale), 10.0**log_k, scale, rng)
        fit = em_fit(two_cluster_points(rng, 200, dim, offset, scale), m_em, rng=rng)
        for mix in (online, fit):
            lo, hi = mixture_support_box([mix])
            total = integrate_on_grid(mix.density, Grid(tuple(lo), tuple(hi), shape))
            assert total == pytest.approx(1.0, abs=1e-3)
