import dataclasses
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dgmm.mixture
from dgmm.gaussian import Gaussian, IndexSplit
from dgmm.mixture import WeightedGaussian, logsumexp
from dgmm.motion import (
    CommandKey,
    DeltaPose,
    MotionModel,
    Pose,
    Standardizer,
    TerrainSupportError,
    TerrainVector,
    pose_delta,
    wrap_angle,
)
from dgmm.datasets import InclineConfig, SampleRecord, simulate_incline
from dgmm.evaluation import fit_motion_model

from builders import dynamic_mixture

FWD = CommandKey(0.5, 0.0, 0.0)
TURN = CommandKey(0.0, 0.0, 0.5)


def random_joint_model(rng, x_dim, z_dim, n_comps, k=0.5):
    """Hand-built augmented model with random full-covariance components."""
    dim = x_dim + z_dim
    w, means, covs = [], [], []
    for _ in range(n_comps):
        a = rng.standard_normal((dim, dim))
        means.append(rng.standard_normal(dim))
        covs.append(a @ a.T + dim * np.eye(dim))
        w.append(float(rng.integers(1, 20)))
    mm = MotionModel(k=k, x_dim=x_dim, z_dim=z_dim)
    mm.models[FWD] = dynamic_mixture(w, means, covs)
    return mm


class TestAngles:
    def test_wrap_basics(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-0.1) == pytest.approx(-0.1)

    def test_pose_delta_zero(self):
        p = Pose(1.0, 2.0, 3.0, 0.1, -0.2, 3.0)
        d = pose_delta(p, p)
        assert np.array_equal(d.as_vector(), np.zeros(6))

    def test_pose_delta_yaw_wraps(self):
        prev = Pose(0, 0, 0, 0, 0, 3.0)
        curr = Pose(0, 0, 0, 0, 0, -3.0)
        d = pose_delta(prev, curr)
        assert d.dyaw == pytest.approx(2 * math.pi - 6.0)  # +0.28319, not -6

    def test_pose_delta_pure_translation(self):
        prev = Pose(0, 0, 0, 0.3, -0.1, 1.0)
        curr = Pose(1, 2, 0, 0.3, -0.1, 1.0)
        d = pose_delta(prev, curr)
        assert (d.dx, d.dy, d.dz) == (1.0, 2.0, 0.0)
        assert (d.droll, d.dpitch, d.dyaw) == (0.0, 0.0, 0.0)

    def test_delta_components_wrapped_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = Pose(*rng.uniform(-5, 5, 3), *rng.uniform(-10, 10, 3))
            b = Pose(*rng.uniform(-5, 5, 3), *rng.uniform(-10, 10, 3))
            d = pose_delta(a, b).as_vector()
            assert np.all(np.isfinite(d))
            for ang in d[3:]:
                assert -math.pi < ang <= math.pi


class TestCommandKey:
    @pytest.mark.parametrize("text", ["0.5,0", "0.5,0,0,0", ""])
    def test_parse_needs_three_parts(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"command must be three comma-separated numbers, got {text!r}")):
            CommandKey.parse(text)
        assert CommandKey.parse("0.5,0,-0.5") == CommandKey(0.5, 0.0, -0.5)


class TestRecording:
    def test_first_step_creates_single_component(self):
        mm = MotionModel(k=0.7)
        rng = np.random.default_rng(1)
        prev = Pose(0, 0, 0, 0, 0, 0)
        curr = Pose(0.2, 0.0, 0.0, 0, 0, 0.1)
        mm.record_step(FWD, prev, curr, None, rng)
        model = mm.mixture_for(FWD)
        assert len(model) == 1
        assert model.components[0].w == 1.0
        assert model.components[0].g.mean == pytest.approx(pose_delta(prev, curr).as_vector())

    def test_distinct_commands_are_independent(self):
        mm = MotionModel(k=0.7)
        rng = np.random.default_rng(2)
        mm.record_sample(FWD, DeltaPose(0.2, 0, 0, 0, 0, 0), None, rng)
        mm.record_sample(TURN, DeltaPose(0, 0, 0, 0, 0, 0.3), None, rng)
        assert set(mm.models) == {FWD, TURN}
        assert mm.mixture_for(FWD).total_weight() == 1.0
        assert mm.mixture_for(TURN).total_weight() == 1.0

    def test_non_finite_sample_rejected_before_any_draw(self):
        mm = MotionModel(k=0.7)
        rng = np.random.default_rng(5)
        mm.record_sample(FWD, DeltaPose(0.2, 0, 0, 0, 0, 0), None, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample coordinate 0 is NaN"):
            mm.record_sample(TURN, DeltaPose(math.nan, 0, 0, 0, 0, 0), None, rng)
        with pytest.raises(ValueError, match="sample coordinate 1 is infinite"):
            mm.record_sample(FWD, DeltaPose(0.2, math.inf, 0, 0, 0, 0), None, rng)
        assert rng.bit_generator.state == state
        assert set(mm.models) == {FWD}
        assert mm.mixture_for(FWD).total_weight() == 1.0

    def test_full_incline_run_weights(self):
        records = simulate_incline(InclineConfig())
        assert len(records) == 390
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(3))
        assert len(mm.models) == 26
        for c in mm.commands():
            assert mm.mixture_for(c).total_weight() == 15.0

    def test_record_step_only_touches_its_command(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        mm = fit_motion_model(records[:30], k=0.3, rng=np.random.default_rng(4))
        before = {c: mm.mixture_for(c).total_weight() for c in mm.commands()}
        target = records[0]
        mm.record_sample(target.command, target.x, target.z, np.random.default_rng(5))
        for c, w in before.items():
            expect = w + 1.0 if c == target.command else w
            assert mm.mixture_for(c).total_weight() == expect

    def test_command_values_must_be_discretized(self):
        with pytest.raises(ValueError):
            CommandKey(0.25, 0.0, 0.0)
        with pytest.raises(ValueError):
            CommandKey(0.5, 0.0, 1.0)

    def test_command_key_hash_is_built_once_and_keys_still_work(self):
        keys = [CommandKey(a, b, c) for a in (-0.5, 0, 0.5) for b in (-0.5, 0, 0.5) for c in (-0.5, 0, 0.5)]
        table = {key: i for i, key in enumerate(keys)}
        assert len(table) == len(set(keys)) == 27
        for i, key in enumerate(keys):
            twin = CommandKey(*key.as_tuple())
            # the dataclass's own hash, so set and dict order is unchanged
            assert twin == key and hash(twin) == hash(key) == hash(key.as_tuple())
            assert table[twin] == i and twin in set(keys)
        moved = dataclasses.replace(FWD, turn=0.5)
        assert moved == CommandKey(0.5, 0.0, 0.5) and table[moved] == table[CommandKey(0.5, 0.0, 0.5)]
        again = pickle.loads(pickle.dumps(TURN))
        assert again == TURN and hash(again) == hash(TURN) and table[again] == table[TURN]

    def test_noop_command_rejected(self):
        mm = MotionModel(k=0.7)
        with pytest.raises(ValueError, match="^the no-op command <0,0,0> is not trainable$"):
            mm.record_sample(CommandKey(0, 0, 0), DeltaPose(0, 0, 0, 0, 0, 0), None,
                             np.random.default_rng(6))
        assert not mm.models

    def test_terrain_presence_must_match_layout(self):
        rng = np.random.default_rng(7)
        plain = MotionModel(k=0.7)
        with pytest.raises(ValueError):
            plain.record_sample(FWD, DeltaPose(0, 0, 0, 0, 0, 0), TerrainVector(0.1, 0.0), rng)
        augmented = MotionModel(k=0.7, z_dim=2)
        with pytest.raises(ValueError):
            augmented.record_sample(FWD, DeltaPose(0, 0, 0, 0, 0, 0), None, rng)


class TestMotionDensity:
    def test_delegates_to_mixture(self):
        mm = MotionModel(k=0.7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            mm.record_sample(FWD, DeltaPose(*rng.normal(0, 0.3, 6)), None, rng)
        x = rng.normal(0, 0.3, 6)
        assert mm.motion_density(FWD, x) == mm.mixture_for(FWD).density(x)

    def test_unknown_command_and_augmented_misuse(self):
        mm = MotionModel(k=0.7)
        mm.record_sample(FWD, DeltaPose(0.1, 0, 0, 0, 0, 0), None, np.random.default_rng(9))
        with pytest.raises(KeyError):
            mm.motion_density(TURN, np.zeros(6))
        aug = MotionModel(k=0.7, z_dim=2)
        with pytest.raises(ValueError):
            aug.motion_density(FWD, np.zeros(6))

    def test_beats_uniform_baseline_on_held_out_data(self):
        rng = np.random.default_rng(10)
        gen_mean = np.array([0.2, 0.0, 0.0, 0.0, 0.0, 0.1])
        gen_std = 0.05
        train = gen_mean + gen_std * rng.standard_normal((100, 6))
        held = gen_mean + gen_std * rng.standard_normal((50, 6))
        # identity creation covariance assumes unit scale, so fit on
        # standardized samples, as the harness does
        mm = MotionModel(k=0.5, standardizer=Standardizer.fit(train))
        for row in train:
            mm.record_sample(FWD, DeltaPose(*row), None, rng)
        data = np.vstack([train, held])
        volume = np.prod(data.max(axis=0) - data.min(axis=0))
        uniform_log = -math.log(volume)
        avg_log = np.mean([mm.log_density(FWD, DeltaPose(*row)) for row in held])
        assert avg_log > uniform_log

    def test_standardized_model_reports_original_unit_density(self):
        # a single standard-normal component in standardized space is, in
        # original units, a normal with mean=offset and cov=diag(scale^2)
        offset = np.array([0.1, -0.2, 0.0, 0.05, 0.0, 0.3])
        scale = np.array([0.5, 2.0, 1.0, 0.1, 0.2, 1.5])
        mm = MotionModel(k=0.5, standardizer=Standardizer(offset, scale))
        mm.models[FWD] = dynamic_mixture([1.0], [np.zeros(6)], [np.eye(6)])
        oracle = Gaussian(offset, np.diag(scale**2))
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = offset + scale * rng.standard_normal(6)
            assert mm.motion_density(FWD, x) == pytest.approx(float(oracle.density(x)), rel=1e-12)


class TestLogSpaceQueries:
    def test_log_density_finite_where_density_underflows(self):
        # one component, standardized: the closed form in original units is
        # log N(u; mu, S) - sum(log scale) with u the standardized query
        offset = np.array([0.1, -0.2, 0.0, 0.05, 0.0, 0.3])
        scale = np.array([0.5, 2.0, 1.0, 0.1, 0.2, 1.5])
        mean, cov = np.full(6, 0.25), 0.3 * np.eye(6)
        mm = MotionModel(k=0.5, standardizer=Standardizer(offset, scale))
        mm.models[FWD] = dynamic_mixture([4.0], [mean], [cov])
        x = offset + scale * np.array([40.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert mm.motion_density(FWD, x) == 0.0
        u = (x - offset) / scale
        quad = (u - mean) @ np.linalg.solve(cov, u - mean)
        want = -0.5 * (6 * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1] + quad) - np.log(scale).sum()
        got = mm.log_density(FWD, x)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_conditioned_log_density_matches_density(self):
        # the reference is the closed-form conditioned mixture, which
        # log_density does not build (no standardizer: no Jacobian)
        rng = np.random.default_rng(30)
        mm = random_joint_model(rng, x_dim=2, z_dim=1, n_comps=3)
        for _ in range(10):
            x, z = rng.standard_normal(2), rng.standard_normal(1)
            assert mm.log_density(FWD, x, z) == pytest.approx(
                math.log(mm.conditional_motion_density(FWD, z).density(x)), rel=1e-12)
        x_far = np.array([1e3, 0.0])
        assert mm.conditional_density(FWD, x_far, np.zeros(1)) == 0.0
        assert math.isfinite(mm.log_density(FWD, x_far, np.zeros(1)))


class TestQueryValidation:
    @pytest.mark.parametrize("bad, problem", [(math.nan, "is NaN"), (-math.inf, "is infinite"),
                                              (1e200, r"= 1e\+200 is too large")])
    def test_non_finite_query_names_coordinate(self, bad, problem):
        plain = MotionModel(k=0.5)
        plain.record_sample(FWD, DeltaPose(0.1, 0, 0, 0, 0, 0), None, np.random.default_rng(31))
        aug = random_joint_model(np.random.default_rng(32), x_dim=6, z_dim=2, n_comps=2)
        x = np.array([0.0, 0.0, 0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"query coordinate 3 {problem}"):
            plain.motion_density(FWD, x)
        with pytest.raises(ValueError, match=f"query coordinate 3 {problem}"):
            plain.log_density(FWD, x)
        with pytest.raises(ValueError, match=f"query coordinate 3 {problem}"):
            aug.conditional_density(FWD, x, np.zeros(2))
        with pytest.raises(ValueError, match=f"query coordinate 3 {problem}"):
            aug.log_density(FWD, x, np.zeros(2))
        for call in (lambda z: aug.conditional_motion_density(FWD, z),
                     lambda z: aug.conditional_density(FWD, np.zeros(6), z),
                     lambda z: aug.log_density(FWD, np.zeros(6), z)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"terrain coordinate 1 {problem}") as info:
                    call(np.array([0.0, bad]))
            assert not isinstance(info.value, TerrainSupportError)

    def test_terrain_vector_given_to_a_terrain_free_model(self):
        plain = MotionModel(k=0.5)
        plain.record_sample(FWD, DeltaPose(0.1, 0, 0, 0, 0, 0), None, np.random.default_rng(33))
        with pytest.raises(ValueError, match="^model has no terrain block; got a terrain vector$"):
            plain.log_density(FWD, np.zeros(6), TerrainVector(0.1, 0.0))

    @pytest.mark.parametrize("z", [TerrainVector(0.1, 0.0), np.zeros(2), None])
    def test_terrain_free_model_has_no_conditional(self, z):
        plain = MotionModel(k=0.5)
        plain.record_sample(FWD, DeltaPose(0.1, 0, 0, 0, 0, 0), None, np.random.default_rng(47))
        with pytest.raises(ValueError, match="^model has no terrain block$"):
            plain.conditional_motion_density(FWD, z)

    @pytest.mark.parametrize("call", [
        lambda mm: mm.log_density(FWD, np.zeros(6)),
        lambda mm: mm.conditional_density(FWD, np.zeros(6), None),
        lambda mm: mm.conditional_motion_density(FWD, None),
        lambda mm: mm.motion_density(FWD, np.zeros(6)),
    ])
    def test_terrain_model_queried_without_terrain(self, call):
        aug = random_joint_model(np.random.default_rng(34), x_dim=6, z_dim=2, n_comps=2)
        with pytest.raises(ValueError,
                           match="^model is terrain-augmented; a terrain vector is required$"):
            call(aug)


class TestConditionalMotionDensity:
    def test_single_component_ratio_identity(self):
        rng = np.random.default_rng(12)
        mm = random_joint_model(rng, x_dim=2, z_dim=1, n_comps=1)
        z = TerrainVector(0.3, 0.0)  # z_dim 1: only pitch used
        zv = np.array([0.3])
        cond = mm.conditional_motion_density(FWD, zv)
        assert len(cond) == 1
        joint = mm.mixture_for(FWD)
        zmarg = joint.components[0].g.marginal([2])
        for _ in range(10):
            x = rng.standard_normal(2)
            ratio = joint.density(np.concatenate([x, zv])) / zmarg.density(zv)
            assert cond.density(x) == pytest.approx(ratio, rel=1e-12)

    def test_block_diagonal_reweights_by_terrain_likelihood(self):
        x_cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        z_cov = np.array([[0.2]])
        comps = []
        for mu, w in (((0.0, 0.0, -1.0), 2.0), ((1.0, -1.0, 1.5), 3.0)):
            cov = np.zeros((3, 3))
            cov[:2, :2] = x_cov
            cov[2:, 2:] = z_cov
            comps.append(WeightedGaussian(Gaussian(np.array(mu), cov), w))
        mm = MotionModel(k=0.5, x_dim=2, z_dim=1)
        mm.models[FWD] = dynamic_mixture([c.w for c in comps], [c.g.mean for c in comps],
                                         [c.g.cov for c in comps])
        zv = np.array([0.0])
        cond = mm.conditional_motion_density(FWD, zv)
        # x-parts unchanged, weights scaled by each component's z likelihood
        assert len(cond) == len(comps)
        for w, mean, cov, src in zip(cond._w, cond._mean, cond._eval_cov, comps):
            assert mean == pytest.approx(src.g.mean[:2], rel=1e-12)
            assert cov == pytest.approx(x_cov, rel=1e-12)
            z_like = src.g.marginal([2]).density(zv)
            assert w == pytest.approx(src.w * float(z_like), rel=1e-12)

    def test_random_model_matches_ratio_on_grid(self):
        rng = np.random.default_rng(13)
        mm = random_joint_model(rng, x_dim=2, z_dim=1, n_comps=3)
        joint = mm.mixture_for(FWD)
        zv = rng.standard_normal(1)
        cond = mm.conditional_motion_density(FWD, zv)
        zmarg = dynamic_mixture(joint._w, joint._mean[:, 2:], joint._cov[:, 2:, 2:])
        xs = np.linspace(-3, 3, 20)
        for x0 in xs:
            pts = np.column_stack([np.full(20, x0), xs])
            ratio = joint.density(np.column_stack([pts, np.full(20, zv[0])])) / zmarg.density(zv)
            got = cond.density(pts)
            assert got == pytest.approx(ratio, rel=1e-9)

    def test_trained_model_ratio_consistency(self):
        # for models built by online updates the identity must hold against
        # the same evaluation the mixture itself uses
        records = simulate_incline(InclineConfig(reps_per_orientation=3))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(14), standardize=True)
        c = records[0].command
        z = records[0].z
        cond = mm.conditional_motion_density(c, z)
        joint = mm.mixture_for(c)
        zu = mm.standardizer.transform(np.concatenate([np.zeros(6), z.as_vector()]))[6:]
        zmarg = sum(
            comp.w / joint.total_weight() * comp.pd_gaussian().marginal([6, 7]).density(zu)
            for comp in joint.components
        )
        rng = np.random.default_rng(15)
        for _ in range(10):
            xu = rng.standard_normal(6) * 0.5
            ratio = joint.density(np.concatenate([xu, zu])) / zmarg
            assert cond.density(xu) == pytest.approx(ratio, rel=1e-9)

    def test_far_terrain_raises_support_error(self):
        rng = np.random.default_rng(16)
        mm = random_joint_model(rng, x_dim=2, z_dim=1, n_comps=2)
        with pytest.raises(TerrainSupportError):
            mm.conditional_motion_density(FWD, np.array([1e6]))

    def test_marginal_weights_equal_joint_weights(self):
        # the terrain marginal mixture reuses the joint mixture's weights;
        # if it used anything else, integrating the joint over the x block
        # at fixed z would disagree with it
        rng = np.random.default_rng(17)
        mm = random_joint_model(rng, x_dim=1, z_dim=1, n_comps=4)
        joint = mm.mixture_for(FWD)
        w_hat = joint._w / joint.total_weight()
        z = 0.4
        marginal_value = sum(
            wh * float(comp.g.marginal([1]).density(np.array([z])))
            for wh, comp in zip(w_hat, joint.components)
        )
        xs = np.linspace(-40, 40, 20001)
        integrated = np.trapezoid(joint.density(np.column_stack([xs, np.full_like(xs, z)])), xs)
        assert integrated == pytest.approx(marginal_value, rel=1e-6)


class TestConditioningInvariant:
    """The terrain conditional, read off the stored inverse factors, equals
    the per-component Gaussian conditional and the joint/marginal ratio
    anywhere in dimension, offset and scale."""

    @settings(max_examples=50, deadline=None)
    @given(
        layout=st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
        m=st.integers(1, 6),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conditional_matches_per_gaussian(self, layout, m, offset, log_scale, seed):
        dim, z_dim = layout
        k = dim - z_dim
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        comps = []
        for i in range(m):
            a = rng.standard_normal((dim, dim))
            cov = scale**2 * (a @ a.T / dim + 0.1 * np.eye(dim))
            if i == 0:
                # a pose coordinate with zero variance: only a diagonally
                # loaded copy of this covariance factors
                j = int(rng.integers(k))
                cov[j, :] = cov[:, j] = 0.0
            mean = offset + 3.0 * scale * rng.standard_normal(dim)
            comps.append(WeightedGaussian(Gaussian(mean, 0.5 * (cov + cov.T)), float(rng.uniform(0.5, 20.0))))
        joint = dynamic_mixture([c.w for c in comps], [c.g.mean for c in comps], [c.g.cov for c in comps])
        mm = MotionModel(k=0.5, x_dim=k, z_dim=z_dim)
        mm.models[FWD] = joint
        evals = [c.pd_gaussian() for c in comps]
        assert not np.array_equal(evals[0].cov, comps[0].g.cov)
        center = comps[int(rng.integers(m))].g.mean
        z = center[k:] + 0.5 * scale * rng.standard_normal(z_dim)
        x = center[:k] + 0.5 * scale * rng.standard_normal(k)

        split = IndexSplit(kept=tuple(range(k)), dropped=tuple(range(k, dim)))
        want_w = np.array([c.w * float(g.marginal(range(k, dim)).density(z)) for c, g in zip(comps, evals)])
        cond = mm.conditional_motion_density(FWD, z)
        assert len(cond) == int(np.count_nonzero(want_w))
        resolution = 1e-15 * abs(offset)
        for w, mean, cov, i in zip(cond._w, cond._mean, cond._eval_cov, np.flatnonzero(want_w)):
            ref = evals[i].conditional(split, z)
            assert w == pytest.approx(want_w[i], rel=1e-9)
            np.testing.assert_allclose(mean, ref.mean, rtol=1e-9, atol=1e-9 * scale + resolution)
            np.testing.assert_allclose(cov, ref.cov, rtol=1e-9, atol=1e-9 * scale**2)

        log_w = np.log([c.w for c in comps])
        log_joint = logsumexp(log_w + np.array([g.log_density(np.concatenate([x, z])) for g in evals]))
        log_marginal = logsumexp(log_w + np.array([g.marginal(range(k, dim)).log_density(z) for g in evals]))
        assert mm.log_density(FWD, x, z) == pytest.approx(log_joint - log_marginal, rel=1e-9)


    def test_terrain_queries_make_no_factorization(self, monkeypatch):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(35), standardize=True)

        def refuse(*args, **kwargs):
            raise AssertionError("terrain query factorized a matrix")

        for name in ("cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for r in records[:20]:
            assert math.isfinite(mm.log_density(r.command, r.x, r.z))
            assert mm.conditional_density(r.command, r.x, r.z) > 0.0

    def test_terrain_queries_call_no_factor_or_gufunc(self, monkeypatch):
        # the library factors through _factor, which calls numpy.linalg's
        # gufuncs without going through np.linalg
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(35), standardize=True)

        def refuse(*args, **kwargs):
            raise AssertionError("terrain query factorized a matrix")

        for name in ("_factor", "_factor_linalg", "_cholesky_lo", "_inv"):
            monkeypatch.setattr(dgmm.mixture, name, refuse)
        for r in records[:20]:
            assert math.isfinite(mm.log_density(r.command, r.x, r.z))
            assert mm.conditional_density(r.command, r.x, r.z) > 0.0
            assert mm.conditional_motion_density(r.command, r.z).dim == 6


class TestTerrainSupport:
    """log_density, conditional_density and conditional_motion_density
    agree on which terrains they can score."""

    def model(self):
        cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
        mm = MotionModel(k=0.5, x_dim=2, z_dim=1)
        mm.models[FWD] = dynamic_mixture([2.0, 3.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 100.0]], [cov, cov])
        return mm

    @pytest.mark.parametrize("z", [50.0, -60.0, 1e6])
    def test_far_terrain_raises_everywhere(self, z):
        # at z = 50 every terrain weight underflows although its log is finite
        mm, zv, x = self.model(), np.array([z]), np.array([0.1, -0.2])
        for call in (lambda: mm.conditional_motion_density(FWD, zv),
                     lambda: mm.conditional_density(FWD, x, zv),
                     lambda: mm.log_density(FWD, x, zv)):
            with pytest.raises(TerrainSupportError):
                call()

    @pytest.mark.parametrize("z", [0.5, 99.0])
    def test_partly_underflowing_terrain_scores_everywhere(self, z):
        mm, zv = self.model(), np.array([z])
        cond = mm.conditional_motion_density(FWD, zv)
        assert len(cond) == 1
        for x in (np.array([0.1, -0.2]), np.array([3.0, 2.0])):
            log_p = mm.log_density(FWD, x, zv)
            assert log_p == pytest.approx(math.log(cond.density(x)), rel=1e-12)

    def test_bad_query_reported_before_unsupported_terrain(self):
        # conditional_density checks its input as log_density does: the
        # pose delta before the terrain's support
        mm, zv = self.model(), np.array([1e6])
        for call in (mm.conditional_density, mm.log_density):
            with pytest.raises(TerrainSupportError):
                call(FWD, np.array([0.1, -0.2]), zv)
            with pytest.raises(ValueError, match="^query coordinate 0 is NaN$") as info:
                call(FWD, np.array([math.nan, -0.2]), zv)
            assert not isinstance(info.value, TerrainSupportError)
            with pytest.raises(ValueError, match="^query has dimension 3, expected 2$"):
                call(FWD, np.zeros(3), zv)


class TestOneQueryPath:
    """motion_density and conditional_density are exp of log_density, bit
    for bit: conditional_density builds no conditioned mixture."""

    def test_conditional_density_builds_no_conditioned_mixture(self, monkeypatch):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(36), standardize=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a conditioned mixture was built")

        monkeypatch.setattr(dgmm.mixture.MixtureCore, "_conditional", refuse)
        for r in records[:20]:
            density = mm.conditional_density(r.command, r.x, r.z)
            assert density > 0.0
            assert density == math.exp(mm.log_density(r.command, r.x, r.z))
        with pytest.raises(AssertionError, match="conditioned mixture"):
            mm.conditional_motion_density(records[0].command, records[0].z)

    def test_motion_density_is_exp_of_log_density(self):
        mm = MotionModel(k=0.5, standardizer=Standardizer(np.full(6, 0.1), np.linspace(0.5, 2.0, 6)))
        rng = np.random.default_rng(37)
        for _ in range(30):
            mm.record_sample(FWD, DeltaPose(*rng.normal(0.1, 0.5, 6)), None, rng)
        for _ in range(10):
            x = rng.normal(0.1, 0.5, 6)
            assert mm.motion_density(FWD, x) == math.exp(mm.log_density(FWD, x))


class TestFusedTerrainQuery:
    """log_density scores a terrain query from one whitening of x || z.
    Through a non-identity standardizer it agrees with the conditioned
    mixture and raises where conditional_motion_density does; no query
    writes a mixture array or draws a random number."""

    @settings(max_examples=40, deadline=None)
    @given(
        x_dim=st.integers(1, 6),
        z_dim=st.integers(1, 2),
        m=st.integers(1, 6),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        creation=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_conditioned_mixture(self, x_dim, z_dim, m, offset, log_scale, creation, seed):
        rng = np.random.default_rng(seed)
        dim, scale = x_dim + z_dim, 10.0**log_scale
        std = Standardizer(offset + rng.standard_normal(dim), scale * rng.uniform(0.5, 2.0, dim))
        mm = MotionModel(k=0.5, x_dim=x_dim, z_dim=z_dim, standardizer=std)
        joint = hand_built_mixture(rng, dim, m, 0.0, 1.0, mm, creation, integral=False)
        mm.models[FWD] = joint
        comps = joint.components
        arrays = ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv")
        before = {name: getattr(joint, name).copy() for name in arrays}
        global_state = np.random.get_state()[1].copy()

        def original(u):
            return std.offset + std.scale * u

        def raises(call):
            try:
                call()
            except TerrainSupportError:
                return True
            return False

        evals, log_w = [c.pd_gaussian() for c in comps], np.log([c.w for c in comps])
        for _ in range(4):
            # near a component mean, in the model's internal space
            v = original(joint._mean[int(rng.integers(m))] + 0.5 * rng.standard_normal(dim))
            x, z = v[:x_dim], v[x_dim:]
            # the conditioned mixture at the standardized x, times the
            # x block's Jacobian
            u = std.transform(v)
            density = (mm.conditional_motion_density(FWD, z).density(u[:x_dim])
                       / np.prod(std.scale[:x_dim]))
            assert density > 0.0
            log_p = mm.log_density(FWD, x, z)
            assert log_p == pytest.approx(math.log(density), rel=1e-12)
            # the per-Gaussian ratio at the point the model standardizes v to
            want = (logsumexp(log_w + np.array([g.log_density(u) for g in evals]))
                    - logsumexp(log_w + np.array([g.marginal(range(x_dim, dim)).log_density(u[x_dim:])
                                                  for g in evals]))
                    - np.log(std.scale[:x_dim]).sum())
            assert log_p == pytest.approx(want, rel=1e-9, abs=1e-9)
        for dist in (5.0, 20.0, 35.0, 40.0, 45.0, 60.0, 1e3, 1e6):
            # the terrain alone is moved away, so some of these lose every component
            u = joint._mean[int(rng.integers(m))].copy()
            direction = rng.standard_normal(z_dim)
            u[x_dim:] += dist * direction / np.linalg.norm(direction)
            v = original(u)
            x, z = v[:x_dim], v[x_dim:]
            unsupported = raises(lambda: mm.conditional_motion_density(FWD, z))
            assert raises(lambda: mm.conditional_density(FWD, x, z)) == unsupported
            assert raises(lambda: mm.log_density(FWD, x, z)) == unsupported
        for name, array in before.items():
            assert np.array_equal(getattr(joint, name), array), name
        assert joint.total_weight() == before["_w"].sum()
        assert np.array_equal(np.random.get_state()[1], global_state)


class TestQueryKernel:
    """The query kernel: per-component joint and terrain-marginal log
    densities as one (m, 2) array, each column summed as
    top + log(w @ exp(s - top)), at the edges of float64."""

    @staticmethod
    def fitted(z):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        if not z:
            records = [SampleRecord(r.command, None, r.x) for r in records]
        return records, fit_motion_model(records, k=0.3, rng=np.random.default_rng(38), standardize=True)

    @staticmethod
    def reference(mm, c, x, z=None):
        """log p(x | c[, z]) from the per-component evaluation Gaussians."""
        mix, k = mm.mixture_for(c), mm.x_dim
        v = x if z is None else np.concatenate([x, z])
        u = mm._std.transform(v)
        evals = [comp.pd_gaussian() for comp in mix.components]
        log_w = np.log(mix._w / mix.total_weight())
        value = logsumexp(log_w + np.array([g.log_density(u) for g in evals]))
        if z is not None:
            value -= logsumexp(log_w + np.array([g.marginal(range(k, mm.dim)).log_density(u[k:])
                                                 for g in evals]))
        return float(value) - np.log(mm._std.scale[:k]).sum()

    @pytest.mark.parametrize("z", [True, False])
    def test_far_query_is_finite_without_warnings(self, z):
        # about 1e3 units from every component: every joint term underflows
        # to 0, and the shifted sum still takes the log of a sum >= 1
        records, mm = self.fitted(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in records[:10]:
                for shift in (1e3, -1e3):
                    x = r.x.as_vector() + shift
                    zv = None if r.z is None else r.z.as_vector()
                    log_p = mm.log_density(r.command, x, zv)
                    assert math.isfinite(log_p) and log_p < -1e5
                    assert log_p == pytest.approx(self.reference(mm, r.command, x, zv), rel=1e-12)
                    if z:
                        assert mm.conditional_density(r.command, x, zv) == 0.0

    @pytest.mark.parametrize("z", [True, False])
    def test_all_minus_inf_joint_column_gives_minus_inf(self, z):
        # every component's whitening overflows: the joint column is all
        # -inf, and the query gives -inf as the logsumexp path did, not NaN
        records, mm = self.fitted(z)
        r = records[0]
        x = r.x.as_vector() + 1e153
        zv = None if r.z is None else r.z.as_vector()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mm.log_density(r.command, x, zv) == -math.inf
            if z:
                assert mm.conditional_density(r.command, x, zv) == 0.0
                assert len(mm.conditional_motion_density(r.command, zv)) > 0

    @pytest.mark.parametrize("standardize, shifts", [(True, (5e153, 1.3e154)),
                                                     (False, (1e154, 1.3e154))])
    def test_overflowing_whitening_drops_components_without_warnings(self, standardize, shifts):
        # one rule for a query whose whitening overflows: the components it
        # overflows for drop out of the joint, silently, and the query is
        # -inf when all of them do.  Standardized, 5e153 overflows every
        # component; unstandardized, 1e154 overflows some of them only
        records = simulate_incline(InclineConfig(reps_per_orientation=3))
        mm = fit_motion_model(records, 0.3, np.random.default_rng(0), standardize=standardize)
        r = records[0]
        got = []
        for shift in shifts:
            x = r.x.as_vector().copy()
            x[0] += shift
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got.append(mm.log_density(r.command, x, r.z))
                assert mm.conditional_density(r.command, x, r.z) == math.exp(got[-1])
        # a finite value this far out is of the order of -shift^2
        assert math.isfinite(got[0]) == (not standardize)
        assert not got[0] > -1e307
        assert got[-1] == -math.inf

    def test_overflowing_component_keeps_its_terrain_marginal(self):
        # the first component's pose block is so narrow that its whitening
        # at this x overflows: it drops out of the joint, but not out of the
        # marginal p(z), which it shares with the second
        narrow = np.diag([1e-300, 1e-300, 1.0])
        broad = np.diag([1e10, 1e10, 1.0])
        mm = MotionModel(k=0.5, x_dim=2, z_dim=1)
        mm.models[FWD] = dynamic_mixture([3.0, 1.0], np.zeros((2, 3)), [narrow, broad])
        x, zv = np.array([1e5, 0.0]), np.array([0.3])
        want = (Gaussian(np.zeros(2), broad[:2, :2]).log_density(x) + math.log(1.0 / 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mm.log_density(FWD, x, zv) == pytest.approx(want, rel=1e-12)

    def test_support_edge_raises_everywhere_at_once(self):
        # bisect the terrain to the last supported float: there all three
        # queries score, and from the next float on all three raise
        mm, x = TestTerrainSupport().model(), np.array([0.1, -0.2])

        def unsupported(z):
            try:
                mm.conditional_motion_density(FWD, np.array([z]))
            except TerrainSupportError:
                return True
            return False

        inside, outside = 0.0, 50.0
        while np.nextafter(inside, outside) != outside:
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                break
            if unsupported(mid):
                outside = mid
            else:
                inside = mid
        assert np.nextafter(inside, outside) == outside
        zv = np.array([inside])
        assert len(mm.conditional_motion_density(FWD, zv)) == 1
        assert math.isfinite(mm.log_density(FWD, x, zv))
        assert mm.conditional_density(FWD, x, zv) >= 0.0
        for z in (outside, np.nextafter(outside, 100.0), outside + 1e-9, 45.0, 50.0):
            zv = np.array([z])
            for call in (lambda: mm.conditional_motion_density(FWD, zv),
                         lambda: mm.conditional_density(FWD, x, zv),
                         lambda: mm.log_density(FWD, x, zv)):
                with pytest.raises(TerrainSupportError):
                    call()

    @settings(max_examples=60, deadline=None)
    @given(
        x_dim=st.integers(1, 6),
        z_dim=st.integers(0, 2),
        m=st.integers(1, 6),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        dist=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_gaussian_reference(self, x_dim, z_dim, m, offset, log_scale, dist, seed):
        # both branches, the terrain ratio and the terrain-free mixture,
        # through a standardizer, near and up to 6 units from a component;
        # the offset moves the data and the components' internal means
        rng = np.random.default_rng(seed)
        dim, scale = x_dim + z_dim, 10.0**log_scale
        std = Standardizer(offset + rng.standard_normal(dim), scale * rng.uniform(0.5, 2.0, dim))
        mm = MotionModel(k=0.5, x_dim=x_dim, z_dim=z_dim, standardizer=std)
        # with the model's creation covariance for even seeds, else none
        joint = mm.models[FWD] = hand_built_mixture(rng, dim, m, offset, 1.0, mm, seed % 2 == 0, integral=False)
        for _ in range(4):
            step = rng.standard_normal(dim)
            u = joint._mean[int(rng.integers(m))] + dist * step / np.linalg.norm(step)
            v = std.offset + std.scale * u
            x, zv = v[:x_dim], (v[x_dim:] if z_dim else None)
            want = self.reference(mm, FWD, x, zv)
            assert mm.log_density(FWD, x, zv) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        mm = MotionModel(k=0.7, z_dim=2)
        path = tmp_path / "empty.json"
        mm.save(path)
        back = MotionModel.load(path)
        assert back.k == 0.7
        assert back.z_dim == 2
        assert back.models == {}

    def test_trained_round_trip_evaluates_identically(self, tmp_path):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(18), standardize=True)
        path = tmp_path / "model.json"
        mm.save(path)
        back = MotionModel.load(path)
        assert back.commands() == mm.commands()
        for c in mm.commands():
            a, b = mm.mixture_for(c), back.mixture_for(c)
            assert np.array_equal(a._w, b._w)
            for ca, cb in zip(a.components, b.components):
                assert ca.g.mean == pytest.approx(cb.g.mean, rel=1e-15)
                assert ca.g.cov == pytest.approx(cb.g.cov, rel=1e-15)
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = records[rng.integers(len(records))]
            x = DeltaPose(*(r.x.as_vector() + 0.01 * rng.standard_normal(6)))
            got = back.conditional_density(r.command, x, r.z)
            want = mm.conditional_density(r.command, x, r.z)
            assert got == pytest.approx(want, rel=1e-12)

    def test_hand_built_mixture_round_trips(self):
        # a mixture without a creation covariance, and one with the model's
        # creation_cov_scale * I, keep their densities through a save/load
        mm = MotionModel(k=0.5, creation_cov_scale=2.0)
        mm.models[FWD] = dynamic_mixture([3.0], [np.zeros(6)], [0.1 * np.eye(6)])
        mm.models[TURN] = dynamic_mixture([2.0, 5.0], [np.ones(6), -np.ones(6)],
                                          [0.2 * np.eye(6), 0.3 * np.eye(6)], mm.k, mm.creation_cov_scale)
        doc = mm.to_dict()
        back = MotionModel.from_dict(json.loads(json.dumps(doc)))
        assert back.to_dict() == doc
        turn = doc["commands"][[c["key"] for c in doc["commands"]].index([0.0, 0.0, 0.5])]
        fwd = doc["commands"][[c["key"] for c in doc["commands"]].index([0.5, 0.0, 0.0])]
        assert fwd["components"][0]["creation_cov"] is None
        assert not any("creation_cov" in comp for comp in turn["components"])
        assert back.mixture_for(FWD).creation_cov_scale is None
        assert back.mixture_for(TURN).creation_cov_scale == 2.0
        rng = np.random.default_rng(33)
        for c, center in ((FWD, np.zeros(6)), (TURN, np.ones(6)), (TURN, -np.ones(6))):
            for x in (center, center + 0.3 * rng.standard_normal(6)):
                assert back.motion_density(c, x) == mm.motion_density(c, x)
        assert back.motion_density(FWD, np.zeros(6)) == pytest.approx(
            float(Gaussian(np.zeros(6), 0.1 * np.eye(6)).density(np.zeros(6))), rel=1e-12)

    def test_trained_model_file_has_no_creation_covariances(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        doc = fit_motion_model(records, k=0.3, rng=np.random.default_rng(34)).to_dict()
        assert not any("creation_cov" in comp for c in doc["commands"] for comp in c["components"])

    def test_non_symmetric_covariance_rejected(self, tmp_path):
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [[0.0, 0.0]], [np.eye(2)])
        doc = mm.to_dict()
        doc["commands"][0]["components"][0]["cov"] = [1.0, 0.5, 0.2, 1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"components\[0\].cov"):
            MotionModel.load(path)

    @pytest.mark.parametrize("creation_cov_scale, bad, value, why", [
        # a matrix, even the model's own creation_cov_scale * I, or a bad one
        (1.0, 1, [1.0, 0.0, 0.0, 1.0], "a matrix is not accepted"),
        (1.0, 0, [1.0, 5.0, -3.0, 1.0], "a matrix is not accepted"),
        (None, 2, [2.0, 0.0, 0.0, 2.0], "a matrix is not accepted"),
        (None, 1, "absent", "every component of a command must leave it out"),
        (1.0, 2, None, "every component of a command must leave it out"),
    ])
    def test_bad_creation_covariance_rejected(self, creation_cov_scale, bad, value, why):
        # every component of a command leaves creation_cov out (the model's
        # creation_cov_scale * I), or every one gives null (none)
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0] * 3, [[float(i), 0.0] for i in range(3)], [np.eye(2)] * 3,
                                         mm.k, creation_cov_scale)
        doc = json.loads(json.dumps(mm.to_dict()))
        assert MotionModel.from_dict(doc).to_dict() == doc
        comp = doc["commands"][0]["components"][bad]
        if value == "absent":
            del comp["creation_cov"]
        else:
            comp["creation_cov"] = value
        field = rf"^model file: field 'commands\[0\]\.components\[{bad}\]\.creation_cov': "
        with pytest.raises(ValueError, match=field + ".*" + why):
            MotionModel.from_dict(doc)

    @pytest.mark.parametrize("dim, cov", [
        (1, [-5.0]),
        (1, [-5e9]),
        (2, [1.0, 2.0, 2.0, 1.0]),
        (2, [1.0, 0.0, 0.0, -1e-7]),
    ])
    def test_indefinite_covariance_rejected(self, dim, cov):
        mm = MotionModel(k=0.5, x_dim=dim, z_dim=0)
        mm.models[FWD] = dynamic_mixture([3.0], [np.zeros(dim)], [np.eye(dim)])
        doc = json.loads(json.dumps(mm.to_dict()))
        doc["commands"][0]["components"][0]["cov"] = cov
        with pytest.raises(ValueError, match=r"model file: field 'commands\[0\]\.components\[0\]\.cov': "
                                             "not positive semidefinite"):
            MotionModel.from_dict(doc)

    @pytest.mark.parametrize("cov, why", [
        ([1.0, 0.5, 0.2, 1.0], "cov is not symmetric"),
        ([1.0, 2.0, 2.0, 1.0], "not positive semidefinite"),
    ])
    def test_bad_covariance_named_past_the_first_component(self, cov, why):
        # a command's covariances are checked together; the error names
        # the first bad one, here the second of the second command's three
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        for c in (FWD, TURN):
            mm.models[c] = dynamic_mixture([2.0] * 3, [[float(i), 0.0] for i in range(3)], [np.eye(2)] * 3)
        doc = json.loads(json.dumps(mm.to_dict()))
        assert MotionModel.from_dict(doc).to_dict() == doc
        doc["commands"][1]["components"][1]["cov"] = cov
        doc["commands"][1]["components"][2]["cov"] = cov
        with pytest.raises(ValueError, match=r"^model file: field 'commands\[1\]\.components\[1\]\.cov': "
                                             + why + "$"):
            MotionModel.from_dict(doc)

    def test_rank_deficient_covariance_loads(self):
        # the exact unbiased covariance of two samples has rank one
        a, b = np.array([0.1, -0.3, 2.0]), np.array([1.7, 0.4, -0.9])
        mean = (a + b) / 2
        cov = np.outer(a - mean, a - mean) + np.outer(b - mean, b - mean)
        assert np.linalg.matrix_rank(cov) == 1
        mm = MotionModel(k=0.5, x_dim=3, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [mean], [cov], mm.k, mm.creation_cov_scale)
        doc = json.loads(json.dumps(mm.to_dict()))
        assert MotionModel.from_dict(doc).to_dict() == doc

    def test_malformed_fields_are_named(self, tmp_path):
        base = MotionModel(k=0.5, x_dim=2, z_dim=0).to_dict()

        def check(mutate, field):
            doc = json.loads(json.dumps(base))
            mutate(doc)
            path = tmp_path / "m.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=field):
                MotionModel.load(path)

        check(lambda d: d.pop("k"), "'k'")
        check(lambda d: d.pop("layout"), "'layout'")
        check(lambda d: d.__setitem__("format", "nope"), "'format'")
        check(lambda d: d.__setitem__("commands", 3), "'commands'")
        check(lambda d: d.__setitem__("commands", [{"key": [0.5, 0.0]}]), r"commands\[0\].key")

    @pytest.mark.parametrize("field, mutate", [
        ("k", lambda d: d.__setitem__("k", -1)),
        ("layout.x_dim", lambda d: d["layout"].__setitem__("x_dim", 2.5)),
        ("layout.x_dim", lambda d: d["layout"].__setitem__("x_dim", 0)),
        ("layout.z_dim", lambda d: d["layout"].__setitem__("z_dim", -1)),
        ("commands[0].components", lambda d: d["commands"][0].__setitem__("components", [])),
        ("commands[0].key", lambda d: d["commands"][0].__setitem__("key", [0, 0, 0])),
        ("commands[0].key", lambda d: d["commands"][0].__setitem__("key", [0.3, 0, 0])),
    ])
    def test_untrainable_fields_are_named(self, field, mutate):
        # no trained model writes any of these
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [np.zeros(2)], [np.eye(2)])
        doc = json.loads(json.dumps(mm.to_dict()))
        MotionModel.from_dict(json.loads(json.dumps(doc)))  # loads unmutated
        mutate(doc)
        with pytest.raises(ValueError, match=re.escape(f"model file: field '{field}': ")):
            MotionModel.from_dict(doc)

    @pytest.mark.parametrize("field, message, mutate", [
        ("creation_cov_scale", "must be positive", lambda d: d.__setitem__("creation_cov_scale", 0.0)),
        ("creation_cov_scale", "must be positive", lambda d: d.__setitem__("creation_cov_scale", -2.0)),
        ("standardizer", "not an object or null", lambda d: d.__setitem__("standardizer", [0.0, 1.0])),
        ("standardizer.scale", "entries must be positive",
         lambda d: d.__setitem__("standardizer", {"offset": [0.0, 0.0], "scale": [1.0, 0.0]})),
        ("standardizer.scale", "entries must be positive",
         lambda d: d.__setitem__("standardizer", {"offset": [0.0, 0.0], "scale": [-1.0, 1.0]})),
        ("commands[0]", "not an object", lambda d: d["commands"].__setitem__(0, [0.5, 0.0, 0.0])),
        ("commands[1].key", "duplicate command key",
         lambda d: d["commands"].append(json.loads(json.dumps(d["commands"][0])))),
        ("commands[0].components", "missing or not a list",
         lambda d: d["commands"][0].__setitem__("components", {"w": 2.0})),
        ("commands[0].components[0]", "not an object",
         lambda d: d["commands"][0]["components"].__setitem__(0, 2.0)),
        ("commands[0].components[0].w", "must be a positive finite number",
         lambda d: d["commands"][0]["components"][0].__setitem__("w", 0.0)),
        ("commands[0].components[0].w", "must be a positive finite number",
         lambda d: d["commands"][0]["components"][0].__setitem__("w", -1.0)),
    ])
    def test_malformed_structure_is_named(self, field, message, mutate):
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [np.zeros(2)], [np.eye(2)])
        doc = json.loads(json.dumps(mm.to_dict()))
        MotionModel.from_dict(json.loads(json.dumps(doc)))  # loads unmutated
        mutate(doc)
        with pytest.raises(ValueError, match=re.escape(f"model file: field '{field}': {message}") + "$"):
            MotionModel.from_dict(doc)

    @pytest.mark.parametrize("root", [[], "model", 3.0, None])
    def test_root_that_is_not_an_object_is_named(self, root):
        with pytest.raises(ValueError, match=re.escape("model file: field '<root>': not a JSON object")):
            MotionModel.from_dict(root)

    def test_invalid_json_is_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": ')
        with pytest.raises(ValueError, match=re.escape("model file: field '<root>': invalid JSON (")):
            MotionModel.load(path)

    @pytest.mark.parametrize("entry", [True, "1.0", None, [1.0]])
    def test_bad_number_in_a_list_is_named(self, entry):
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [np.zeros(2)], [np.eye(2)])
        doc = json.loads(json.dumps(mm.to_dict()))
        doc["commands"][0]["components"][0]["cov"][2] = entry
        with pytest.raises(ValueError, match=re.escape(
                "model file: field 'commands[0].components[0].cov[2]': not a finite number")):
            MotionModel.from_dict(doc)

    def test_numbers_that_subclass_float_load(self):
        # a document built in Python rather than read from JSON
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [np.array([0.5, -1.0])], [np.eye(2)])
        doc = json.loads(json.dumps(mm.to_dict()))
        doc["commands"][0]["components"][0]["mean"] = [np.float64(0.5), np.float64(-1.0)]
        assert MotionModel.from_dict(doc).to_dict() == mm.to_dict()

    @pytest.mark.parametrize("field, message, mutate", [
        ("k", "missing or not a finite number", lambda d: d.__setitem__("k", 10**400)),
        ("commands[0].components[0].w", "missing or not a finite number",
         lambda d: d["commands"][0]["components"][0].__setitem__("w", 10**400)),
        ("commands[0].components[0].mean[1]", "not a finite number",
         lambda d: d["commands"][0]["components"][0]["mean"].__setitem__(1, 10**400)),
        ("commands[0].components[0].cov[3]", "not a finite number",
         lambda d: d["commands"][0]["components"][0]["cov"].__setitem__(3, -10**400)),
        ("commands[0].key[0]", "not a finite number",
         lambda d: d["commands"][0]["key"].__setitem__(0, 10**400)),
    ])
    def test_integer_beyond_float_range_is_named(self, field, message, mutate):
        # JSON integers are unbounded; one that float64 cannot hold is not
        # a finite number
        mm = MotionModel(k=0.5, x_dim=2, z_dim=0)
        mm.models[FWD] = dynamic_mixture([2.0], [np.zeros(2)], [np.eye(2)])
        doc = json.loads(json.dumps(mm.to_dict()))
        mutate(doc)
        doc = json.loads(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"model file: field '{field}': {message}")):
            MotionModel.from_dict(doc)

    def test_component_below_unit_weight_loads_but_does_not_train(self):
        # a hand-built model may hold such a weight and still be queried;
        # no merge can take it, so training fails before the first draw
        mm = MotionModel(k=5.0)
        mm.models[FWD] = dynamic_mixture([0.5], [np.zeros(6)], [np.eye(6)], mm.k, mm.creation_cov_scale)
        doc = json.loads(json.dumps(mm.to_dict()))
        back = MotionModel.from_dict(doc)
        assert back.motion_density(FWD, np.zeros(6)) == mm.motion_density(FWD, np.zeros(6))
        rng = np.random.default_rng(36)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape("component 0 has weight 0.5 < 1")):
            back.record_sample(FWD, DeltaPose(0, 0, 0, 0, 0, 0), None, rng)
        assert rng.bit_generator.state == state
        assert back.to_dict() == doc

    @pytest.mark.parametrize("k", [-1.0, math.nan])
    def test_negative_or_nan_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be non-negative"):
            MotionModel(k=k)

    @pytest.mark.parametrize("k", ["0.3", None])
    def test_k_that_is_not_a_real_number_rejected(self, k):
        with pytest.raises(ValueError, match="^k must be a real number$"):
            MotionModel(k=k)

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_creation_scale_above_half_the_largest_float(self, tmp_path, scale):
        # each command's first record makes a weight-1 component whose
        # evaluation covariance is scale * I; the model file stores it, and
        # reloading must not symmetrize it into inf
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        rng = np.random.default_rng(37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mm = MotionModel(k=0.3, creation_cov_scale=scale, x_dim=6, z_dim=2)
            for r in records[::6]:
                mm.record_sample(r.command, r.x, r.z, rng)
            assert 1.0 in np.concatenate([mm.mixture_for(c)._w for c in mm.commands()])
            path = tmp_path / "model.json"
            mm.save(path)
            back = MotionModel.load(path)
            assert_same_model(mm, back)
            rng_back = np.random.default_rng()
            rng_back.bit_generator.state = rng.bit_generator.state
            for r in records[1::6]:
                mm.record_sample(r.command, r.x, r.z, rng)
                back.record_sample(r.command, r.x, r.z, rng_back)
            assert_same_model(mm, back)
            assert np.isfinite(back.log_density(records[0].command, records[0].x, records[0].z))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_creation_cov_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="creation_cov_scale must be positive and finite"):
            MotionModel(k=0.3, creation_cov_scale=scale)

    @pytest.mark.parametrize("dims, message", [
        ({"x_dim": 6.7, "z_dim": 2}, "^x_dim must be an integer$"),
        ({"x_dim": 6.0}, "^x_dim must be an integer$"),
        ({"x_dim": "6"}, "^x_dim must be an integer$"),
        ({"x_dim": None}, "^x_dim must be an integer$"),
        ({"z_dim": 2.5}, "^z_dim must be an integer$"),
        ({"z_dim": "2"}, "^z_dim must be an integer$"),
        ({"x_dim": 0}, "^x_dim must be >= 1$"),
        ({"z_dim": -1}, "^z_dim must be >= 0$"),
    ])
    def test_bad_dimensions_rejected(self, dims, message):
        with pytest.raises(ValueError, match=message):
            MotionModel(0.3, **dims)
        mm = MotionModel(0.3, x_dim=np.int64(6), z_dim=np.int64(2))
        assert (mm.x_dim, mm.z_dim) == (6, 2) and type(mm.x_dim) is int

    def test_infinite_k_trains_and_queries_but_writes_no_file(self, tmp_path):
        # a model file holds finite numbers only, so the writer refuses what
        # from_dict would refuse, before the file is opened
        mm = MotionModel(k=math.inf)
        rng = np.random.default_rng(46)
        for _ in range(3):
            mm.record_sample(FWD, DeltaPose(*rng.standard_normal(6)), None, rng)
        assert len(mm.mixture_for(FWD)) == 1
        assert math.isfinite(mm.log_density(FWD, np.zeros(6)))
        with pytest.raises(ValueError, match="^k = inf cannot be written to a model file"):
            mm.to_dict()
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="^k = inf cannot be written to a model file"):
            mm.save(path)
        assert not path.exists()

    def test_persistence_builds_no_component_objects(self, monkeypatch):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(35), standardize=True)
        mm.models[TURN] = dynamic_mixture([2.0, 5.0], [np.ones(8), -np.ones(8)],
                                          [0.2 * np.eye(8), 0.3 * np.eye(8)])

        def refuse(*args, **kwargs):
            raise AssertionError("a component object was built")

        monkeypatch.setattr(Gaussian, "__init__", refuse)
        monkeypatch.setattr(WeightedGaussian, "__init__", refuse)
        doc = json.loads(json.dumps(mm.to_dict()))
        back = MotionModel.from_dict(doc)
        assert back.to_dict() == doc
        monkeypatch.undo()
        assert_same_model(mm, back)

    def test_invocation_passthrough(self, tmp_path):
        mm = MotionModel(k=0.5)
        path = tmp_path / "m.json"
        mm.save(path, invocation={"subcommand": "fit", "seed": 1})
        doc = json.loads(path.read_text())
        assert doc["invocation"] == {"subcommand": "fit", "seed": 1}
        MotionModel.load(path)  # extra field tolerated


def hand_built_mixture(rng, dim, m, offset, scale, mm, with_creation, integral):
    """A mixture of m random components for the motion model mm, with mm's
    k and, with_creation, mm's creation covariance, else none."""
    w, means, covs = [], [], []
    for _ in range(m):
        a = rng.standard_normal((dim, dim))
        cov = scale**2 * (a @ a.T / dim + 0.1 * np.eye(dim))
        w.append(float(rng.integers(1, 20)) if integral else rng.uniform(0.1, 20.0))
        means.append(offset + 3.0 * scale * rng.standard_normal(dim))
        covs.append(0.5 * (cov + cov.T))
    return dynamic_mixture(w, means, covs, mm.k, mm.creation_cov_scale if with_creation else None)


def assert_same_model(a, b):
    assert a.commands() == b.commands()
    for c in a.commands():
        ma, mb = a.mixture_for(c), b.mixture_for(c)
        assert ma.total_weight() == mb.total_weight()
        for name in ("_w", "_mean", "_cov", "_eval_cov", "_chol_inv", "_log_norm"):
            assert np.array_equal(getattr(ma, name), getattr(mb, name)), name
        assert (ma.k, ma.creation_cov_scale) == (mb.k, mb.creation_cov_scale)


class TestSaveLoadProperties:
    """A model file holds its model exactly, over dimension, component
    count, offset and scale: the reloaded model has the same arrays and
    writes the same file, and it continues a stream with the decisions the
    saved model would have made."""

    @settings(max_examples=40, deadline=None)
    @given(
        x_dim=st.integers(1, 6),
        z_dim=st.integers(0, 2),
        m=st.integers(1, 6),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        standardize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_exact(self, x_dim, z_dim, m, offset, log_scale, standardize, seed):
        rng = np.random.default_rng(seed)
        dim, scale = x_dim + z_dim, 10.0**log_scale
        std = Standardizer(offset + rng.standard_normal(dim), scale * rng.uniform(0.5, 2.0, dim)) \
            if standardize else None
        mm = MotionModel(k=rng.uniform(0.01, 2.0), x_dim=x_dim, z_dim=z_dim, standardizer=std,
                         creation_cov_scale=scale**2)
        for c, count, with_creation in ((FWD, m, True), (TURN, 1 + m // 2, False)):
            mm.models[c] = hand_built_mixture(rng, dim, count, offset, scale, mm, with_creation, integral=False)
        doc = json.loads(json.dumps(mm.to_dict()))
        back = MotionModel.from_dict(doc)
        assert back.to_dict() == doc
        assert (back.k, back.creation_cov_scale) == (mm.k, mm.creation_cov_scale)
        if standardize:
            assert np.array_equal(back.standardizer.offset, std.offset)
            assert np.array_equal(back.standardizer.scale, std.scale)
        assert_same_model(mm, back)

    @settings(max_examples=30, deadline=None)
    @given(
        z_dim=st.sampled_from([0, 2]),
        m=st.integers(0, 4),
        n=st.integers(0, 40),
        more=st.integers(1, 40),
        log_k=st.floats(-2.0, 1.0),
        offset=st.floats(-1e6, 1e6),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reloaded_model_resumes_stream(self, z_dim, m, n, more, log_k, offset, log_scale, seed):
        rng = np.random.default_rng(seed)
        dim, scale = 6 + z_dim, 10.0**log_scale
        mm = MotionModel(k=10.0**log_k, x_dim=6, z_dim=z_dim, creation_cov_scale=scale**2)
        # a loaded mixture re-sums its weights, which matches the live running
        # total bit for bit only when the weights are integral
        if m:
            mm.models[TURN] = hand_built_mixture(rng, dim, m, offset, scale, mm, True, integral=True)
        # angle coordinates wrap, so the samples stay within pi of zero there
        samples = offset + scale * rng.standard_normal((n + more, dim))
        commands = [(FWD, TURN)[i] for i in rng.integers(2, size=n + more)]

        def record(model, gen, lo, hi):
            for c, v in zip(commands[lo:hi], samples[lo:hi]):
                z = TerrainVector(*v[6:]) if z_dim else None
                model.record_sample(c, DeltaPose(*v[:6]), z, gen)

        record(mm, rng, 0, n)
        back = MotionModel.from_dict(json.loads(json.dumps(mm.to_dict())))
        assert_same_model(mm, back)
        rng_back = np.random.default_rng()
        rng_back.bit_generator.state = rng.bit_generator.state
        record(mm, rng, n, n + more)
        record(back, rng_back, n, n + more)
        assert_same_model(mm, back)
        assert back.to_dict() == mm.to_dict()


class TestStandardizer:
    @pytest.mark.parametrize("offset, scale, message", [
        ([0.0], [math.inf], "scales must be positive and finite"),
        ([0.0], [math.nan], "scales must be positive and finite"),
        ([0.0, 1.0], [1.0, 0.0], "scales must be positive and finite"),
        ([0.0, 1.0], [1.0, -2.0], "scales must be positive and finite"),
        ([math.nan], [1.0], "offsets must be finite"),
        ([0.0, -math.inf], [1.0, 1.0], "offsets must be finite"),
        ([0.0, 1.0], [1.0], "offset and scale must have the same length"),
    ])
    def test_rejects_non_finite_parameters(self, offset, scale, message):
        # an infinite scale maps every value to 0 and has log Jacobian -inf
        with pytest.raises(ValueError, match=f"^{message}$"):
            Standardizer(offset, scale)

    def test_fit_floors_constant_dimensions(self):
        pts = np.column_stack([np.random.default_rng(20).normal(2, 3, 50), np.zeros(50)])
        s = Standardizer.fit(pts)
        assert s.scale[1] == 1.0
        assert s.offset[1] == 0.0
        u = s.transform(pts)
        assert u[:, 0].std() == pytest.approx(1.0, rel=1e-9)

    def test_fit_rejects_coordinates_the_mixture_rejects(self):
        pts = np.random.default_rng(21).normal(0.0, 1.0, (30, 3))
        for value, problem in ((1e200, "= 1e+200 is too large: its square overflows float64"),
                               (math.inf, "is infinite"), (math.nan, "is NaN")):
            bad = pts.copy()
            bad[7, 2] = value
            with pytest.raises(ValueError, match=re.escape(f"sample coordinate 2 {problem}")):
                Standardizer.fit(bad)

    def test_fit_rejects_an_overflowing_standard_deviation(self):
        # every coordinate's square is finite, and so is the standard
        # deviation (1e154), but the squared deviations from the mean are not
        pts = np.zeros((2000, 2))
        pts[:, 1] = np.where(np.arange(2000) % 2, 1e154, -1e154)
        with pytest.raises(ValueError, match=re.escape(
                "sample coordinate 1 is spread too widely to standardize: "
                "its squared deviations overflow float64")):
            Standardizer.fit(pts)

    def test_overflowing_record_is_rejected_with_or_without_standardizing(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))[:40]
        r = records[11]
        records[11] = SampleRecord(r.command, TerrainVector(1e200, r.z.roll), r.x)
        for standardize in (False, True):
            with pytest.raises(ValueError, match=re.escape(
                    "sample coordinate 6 = 1e+200 is too large: its square overflows float64")):
                fit_motion_model(records, k=0.3, rng=np.random.default_rng(3), standardize=standardize)
