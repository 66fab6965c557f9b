import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from dgmm import evaluation
from dgmm.datasets import (
    InclineConfig,
    SampleRecord,
    load_old_faithful,
    sample_gmm,
    simulate_incline,
    strip_z,
    three_component_benchmark,
)
from dgmm.evaluation import (
    LOG_FLOOR,
    EvalReport,
    fit_motion_model,
    k_sweep,
    mise_experiment,
    stratified_kfold,
    terrain_comparison,
)
from dgmm.mixture import DynamicGaussianMixture, merge_threshold
from dgmm.motion import CommandKey, DeltaPose, MotionModel, Standardizer, TerrainSupportError, TerrainVector

from builders import count_is_final


class TestStratifiedKfold:
    def test_exact_division(self):
        records = simulate_incline(InclineConfig(orientations_deg=(0.0,), reps_per_orientation=10))
        two_cmds = [r for r in records if r.command.as_tuple() in ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0))]
        assert len(two_cmds) == 20
        split = stratified_kfold(two_cmds, 10, np.random.default_rng(0))
        for fold in split.folds:
            assert len(fold) == 2
            assert len({two_cmds[i].command for i in fold}) == 2

    def test_default_incline_fold_shape(self):
        records = simulate_incline(InclineConfig())
        split = stratified_kfold(records, 10, np.random.default_rng(1))
        sizes = [len(f) for f in split.folds]
        assert sizes == [39] * 10
        for fold in split.folds:
            per_cmd = {}
            for i in fold:
                per_cmd[records[i].command] = per_cmd.get(records[i].command, 0) + 1
            assert set(per_cmd.values()) <= {1, 2}

    def test_two_folds_of_one_command(self):
        records = simulate_incline(InclineConfig(orientations_deg=(0.0,), reps_per_orientation=4))
        one_cmd = [r for r in records if r.command.as_tuple() == (0.5, 0.0, 0.0)]
        split = stratified_kfold(one_cmd, 2, np.random.default_rng(2))
        assert sorted(len(f) for f in split.folds) == [2, 2]

    def test_partition_property(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        split = stratified_kfold(records, 7, np.random.default_rng(3))
        everything = sorted(i for fold in split.folds for i in fold)
        assert everything == list(range(len(records)))

    def test_small_stratum_warns(self):
        records = simulate_incline(InclineConfig(orientations_deg=(0.0,), reps_per_orientation=3))
        split = stratified_kfold(records, 10, np.random.default_rng(4))
        assert split.warnings  # 3 records per command cannot reach 10 folds

    def test_rejects_single_fold(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        with pytest.raises(ValueError):
            stratified_kfold(records, 1, np.random.default_rng(5))

    def test_rejects_no_records(self):
        with pytest.raises(ValueError, match="^no records to split$"):
            stratified_kfold([], 2, np.random.default_rng(5))


class TestKSweep:
    def test_zero_k_on_scattered_points_keeps_most(self):
        pts = (10.0 * np.arange(12))[:, None]
        report = k_sweep(pts, [0.0], repeats=10, rng=np.random.default_rng(6))
        mean_count = report.summary["per_k"][0]["mean_components"]
        assert mean_count >= 10.0

    def test_huge_k_collapses_to_one(self):
        pts = np.random.default_rng(7).standard_normal((40, 2))
        report = k_sweep(pts, [1000.0], repeats=5, rng=np.random.default_rng(8))
        assert report.summary["per_k"][0]["mean_components"] == 1.0

    def test_monotone_trend(self):
        pts = sample_gmm(three_component_benchmark(), 200, np.random.default_rng(9))
        grid = [0.05, 0.1, 0.3, 0.7, 1.5, 3.0]
        report = k_sweep(pts, grid, repeats=10, rng=np.random.default_rng(10))
        means = [row["mean_components"] for row in report.summary["per_k"]]
        rho = spearmanr(grid, means).statistic
        assert rho <= -0.8

    def test_grid_validation(self):
        pts = np.zeros((5, 1))
        with pytest.raises(ValueError):
            k_sweep(pts, [], 3, np.random.default_rng(11))
        with pytest.raises(ValueError):
            k_sweep(pts, [0.5, 0.2], 3, np.random.default_rng(11))


class TestMiseExperiment:
    def test_model_against_itself_is_zero(self):
        from dgmm.em import mise, support_grid

        rng = np.random.default_rng(12)
        pts = sample_gmm(three_component_benchmark(), 100, rng)
        m = DynamicGaussianMixture(2, 0.5)
        for x in pts:
            m.add_sample(x, rng)
        grid = support_grid([m], resolution=100)
        assert mise(m.density, m.density, grid) == 0.0

    def test_single_needed_run_with_found_seed(self):
        pts = sample_gmm(three_component_benchmark(), 120, np.random.default_rng(13))
        # seed search is part of the fixture: find a master seed whose
        # first attempt lands on the target component count
        target = 3
        master = None
        for candidate in range(200):
            rng = np.random.default_rng(candidate)
            rng.integers(0, 2**63 - 1)  # em restarts consume nothing here; probe attempt seed
            probe = np.random.default_rng(candidate)
            report = mise_experiment(pts, 0.35, target, needed=1, max_attempts=1, rng=probe)
            if not report.summary["incomplete"]:
                master = candidate
                break
        assert master is not None
        report = mise_experiment(pts, 0.35, target, needed=1, max_attempts=1,
                                 rng=np.random.default_rng(master))
        assert report.summary["accepted"] == 1
        assert len(report.runs) == 1
        assert report.runs[0]["mise"] >= 0.0

    def test_incomplete_flag_when_budget_exhausted(self):
        pts = np.random.default_rng(14).standard_normal((50, 2))
        report = mise_experiment(pts, 0.5, target_m=40, needed=3, max_attempts=4,
                                 rng=np.random.default_rng(15))
        assert report.summary["incomplete"] is True
        assert report.warnings

    def test_aggregates_recomputable(self):
        pts, = [sample_gmm(three_component_benchmark(), 150, np.random.default_rng(16))]
        report = mise_experiment(pts, 0.5, 2, needed=3, max_attempts=60,
                                 rng=np.random.default_rng(17))
        values = [r["mise"] for r in report.runs]
        if values:
            assert report.summary["mise_mean"] == pytest.approx(np.mean(values), abs=1e-12)
            if len(values) > 1:
                assert report.summary["mise_std"] == pytest.approx(np.std(values, ddof=1), abs=1e-12)


    def test_one_dimensional_points_are_one_column(self):
        # as in k_sweep and em_fit, before any work: the report equals the
        # one for the same points as a column
        points = np.random.default_rng(40).standard_normal(60)
        flat = mise_experiment(points, 0.5, 1, 1, 5, np.random.default_rng(41))
        column = mise_experiment(points[:, None], 0.5, 1, 1, 5, np.random.default_rng(41))
        assert flat.to_json() == column.to_json()
        assert flat.summary["attempts"] >= 1


class TestTerrainComparison:
    def test_fold_split_warnings_reach_the_report(self):
        # 3 records per command for 5 folds: every command warns, in every
        # repeat; the report keeps each warning once, in first-seen order
        records = simulate_incline(InclineConfig(reps_per_orientation=1, seed=2))
        split = stratified_kfold(records, 5, np.random.default_rng(0))
        assert len(split.warnings) == 26
        report = terrain_comparison(records, folds=5, repeats=2, k=0.3,
                                    rng=np.random.default_rng(42))
        assert report.warnings == split.warnings
        assert report.to_dict()["warnings"] == split.warnings

    def test_flat_ground_cases_indistinguishable(self):
        records = simulate_incline(InclineConfig(slope_deg=0.0, seed=20))
        report = terrain_comparison(records, folds=5, repeats=2, k=0.3,
                                    rng=np.random.default_rng(21))
        s = report.summary
        assert abs(s["gap"]) <= 2.0 * s["pooled_se"]

    def test_flat_ground_fold_rankings_agree(self):
        # with an uninformative terrain block the two scorings rank the
        # validation folds the same way, up to the stochasticity of the
        # independently trained per-fold models: demand a clearly positive
        # rank association over 50 fold scores
        records = simulate_incline(InclineConfig(slope_deg=0.0, seed=22))
        report = terrain_comparison(records, folds=10, repeats=5, k=0.3,
                                    rng=np.random.default_rng(23))
        with_t = [r["with_terrain"] for r in report.runs]
        without_t = [r["without_terrain"] for r in report.runs]
        rho = spearmanr(with_t, without_t).statistic
        assert rho >= 0.5

    def test_incline_gap_positive(self):
        records = simulate_incline(InclineConfig(seed=24))
        report = terrain_comparison(records, folds=5, repeats=2, k=0.3,
                                    rng=np.random.default_rng(25))
        assert report.summary["gap"] > 0
        assert report.summary["gap_over_se"] > 3.0

    def test_requires_terrain_records(self):
        from dgmm.datasets import strip_z

        records = strip_z(simulate_incline(InclineConfig(reps_per_orientation=1)))
        with pytest.raises(ValueError):
            terrain_comparison(records, 5, 1, 0.3, np.random.default_rng(26))


def per_record_fit(records, k, rng, standardize=True):
    """fit_motion_model one record at a time through record_sample."""
    augmented = records[0].z is not None
    vectors = np.array([np.concatenate([r.x.as_vector(), r.z.as_vector()]) if augmented
                        else r.x.as_vector() for r in records])
    mm = MotionModel(k=k, x_dim=6, z_dim=2 if augmented else 0,
                     standardizer=Standardizer.fit(vectors) if standardize else None)
    for r in records:
        mm.record_sample(r.command, r.x, r.z, rng)
    return mm


def per_record_score(model, records):
    """Summed floored log density and unscored count, one log_density call
    per record, summed in record order."""
    total, unscored = 0.0, 0
    for r in records:
        try:
            ll = model.log_density(r.command, r.x, r.z)
        except (KeyError, TerrainSupportError):
            unscored += 1
            total += LOG_FLOOR
            continue
        total += max(ll, LOG_FLOOR)
    return total, unscored


def per_record_runs(s1, folds, repeats, k, rng, standardize=True, score_training=False):
    """The runs of terrain_comparison, with every model trained and every
    record scored one record at a time."""
    s2 = strip_z(s1)
    runs = []
    for rep in range(repeats):
        split = stratified_kfold(s1, folds, rng)
        seeds = [int(x) for x in rng.integers(0, 2**63 - 1, size=folds, dtype=np.int64)]
        for fi, fold in enumerate(split.folds):
            sub = np.random.default_rng(seeds[fi])
            train_idx = [i for fj, f in enumerate(split.folds) if fj != fi for i in f]
            order = [train_idx[j] for j in sub.permutation(len(train_idx))]
            with_model = per_record_fit([s1[i] for i in order], k, sub, standardize)
            without_model = per_record_fit([s2[i] for i in order], k, sub, standardize)
            target = train_idx if score_training else fold
            case1, miss1 = per_record_score(with_model, [s1[i] for i in target])
            case2, miss2 = per_record_score(without_model, [s2[i] for i in target])
            runs.append({"repeat": rep, "fold": fi, "seed": seeds[fi], "n_scored": len(target),
                         "with_terrain": case1, "without_terrain": case2,
                         "unscored_with": miss1, "unscored_without": miss2})
    return runs


def awkward_incline_set(seed=40):
    """A small incline set with a command of one record (unknown to the
    models of the fold that holds it out) and a record whose terrain is far
    outside every other record's (unsupported where it is held out)."""
    records = simulate_incline(InclineConfig(reps_per_orientation=2, seed=seed))
    lone = records[0].command
    records = [r for r in records if r.command != lone] + [records[0]]
    far = records[1]
    return records + [SampleRecord(far.command, TerrainVector(40.0, -0.2), far.x)]


class TestBatchedFolds:
    """terrain_comparison builds its record arrays once and trains every
    fold through one row trainer; its runs equal those of training and
    scoring one record at a time, bit for bit, every training record is
    one add_sample and every scored record one log_density per model."""

    @pytest.mark.parametrize("standardize, score_training", [(True, False), (False, False),
                                                             (True, True)])
    def test_runs_equal_per_record_reference(self, standardize, score_training):
        records = awkward_incline_set()
        report = terrain_comparison(records, folds=3, repeats=2, k=0.3, rng=np.random.default_rng(41),
                                    standardize=standardize, score_training=score_training)
        want = per_record_runs(records, 3, 2, 0.3, np.random.default_rng(41), standardize,
                               score_training)
        assert report.runs == want
        if not score_training:
            assert report.summary["unscored_with"] > report.summary["unscored_without"] > 0

    @pytest.mark.parametrize("at", [0, 40, -1])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_bad_record_raises_what_the_reference_raises(self, at, standardize):
        records = awkward_incline_set()
        r = records[at]
        records[at] = SampleRecord(r.command, r.z, DeltaPose(r.x.dx, math.nan, *r.x.as_vector()[2:]))
        with pytest.raises(ValueError) as want:
            per_record_runs(records, 3, 1, 0.3, np.random.default_rng(42), standardize)
        with pytest.raises(ValueError) as got:
            terrain_comparison(records, folds=3, repeats=1, k=0.3, rng=np.random.default_rng(42),
                               standardize=standardize)
        assert str(got.value) == str(want.value)

    def test_fit_motion_model_equals_per_record_training(self):
        records = awkward_incline_set()
        for recs in (records, strip_z(records)):
            for standardize in (True, False):
                got = fit_motion_model(recs, 0.3, np.random.default_rng(43), standardize)
                want = per_record_fit(recs, 0.3, np.random.default_rng(43), standardize)
                assert got.to_dict() == want.to_dict()
                assert list(got.models) == list(want.models)

    def test_fit_motion_model_rejects_no_records_or_mixed_terrain(self):
        records = awkward_incline_set()
        with pytest.raises(ValueError, match="^no records to fit$"):
            fit_motion_model([], 0.3, np.random.default_rng(43))
        with pytest.raises(ValueError, match="^terrain presence must be uniform across records$"):
            fit_motion_model(records[:3] + strip_z(records[3:6]), 0.3, np.random.default_rng(43))

    def test_every_training_record_is_one_add_sample(self, monkeypatch):
        records = awkward_incline_set()
        calls = _counting_add_sample(monkeypatch)
        terrain_comparison(records, folds=3, repeats=2, k=0.3, rng=np.random.default_rng(44))
        # two models per fold, each trained on the records outside the fold
        assert calls[0] == 2 * 2 * (3 - 1) * len(records)
        calls[0] = 0
        fit_motion_model(records, 0.3, np.random.default_rng(45))
        assert calls[0] == len(records)

    def test_every_scored_record_is_one_log_density_per_model(self, monkeypatch):
        records = awkward_incline_set()
        calls = [0]
        orig = MotionModel.log_density

        def log_density(self, *args, **kwargs):
            calls[0] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(MotionModel, "log_density", log_density)
        report = terrain_comparison(records, folds=3, repeats=2, k=0.3, rng=np.random.default_rng(46))
        # every record is held out once per repeat and scored by both
        # models, counting the calls that raise (unknown command, terrain
        # outside the support)
        assert report.summary["unscored_with"] > report.summary["unscored_without"] > 0
        assert calls[0] == 2 * 2 * len(records)


class TestNoopCommandInABatch:
    """The batch fits train through record_sample's step, so a record with
    the no-op command raises its ValueError there too."""

    NOOP = "^the no-op command <0,0,0> is not trainable$"

    @staticmethod
    def with_noop(records, at):
        r = records[at]
        return records[:at] + [SampleRecord(CommandKey(0, 0, 0), r.z, r.x)] + records[at:]

    @pytest.mark.parametrize("at", [0, 30])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_fit_motion_model(self, at, standardize):
        records = awkward_incline_set()
        for recs in (records, strip_z(records)):
            with pytest.raises(ValueError, match=self.NOOP):
                fit_motion_model(self.with_noop(recs, at), 0.3, np.random.default_rng(47), standardize)

    @pytest.mark.parametrize("standardize", [True, False])
    def test_terrain_comparison(self, standardize):
        records = self.with_noop(awkward_incline_set(), 30)
        with pytest.raises(ValueError, match=self.NOOP):
            terrain_comparison(records, folds=3, repeats=1, k=0.3, rng=np.random.default_rng(48),
                               standardize=standardize)


class TestPinnedDecisions:
    """The experiments' decisions at small settings, seeds 1-3, as recorded
    when every update drew from its generator one rng.random() at a time:
    drawing the uniforms in blocks (mixture._Uniforms) changes none."""

    K_SWEEP = {1: [36, 23, 4, 8, 2, 1], 2: [35, 28, 6, 7, 1, 1], 3: [28, 33, 6, 7, 2, 1]}
    MISE = {1: (6, [3, 5, 6]), 2: (5, [2, 3, 5]), 3: (10, [3, 6, 10])}
    UNSCORED = {1: [(2, 1), (0, 0), (0, 0), (1, 1), (1, 0), (0, 0)],
                2: [(1, 1), (0, 0), (1, 0), (1, 1), (1, 0), (0, 0)],
                3: [(1, 1), (0, 0), (1, 0), (1, 1), (0, 0), (1, 0)]}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k_sweep_component_counts(self, seed):
        pts = sample_gmm(three_component_benchmark(), 200, np.random.default_rng([50, seed]))
        report = k_sweep(pts, [0.02, 0.1, 0.7], 2, np.random.default_rng(seed))
        assert [run["components"] for run in report.runs] == self.K_SWEEP[seed]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mise_experiment_attempts_and_accepted(self, seed):
        pts = load_old_faithful(standardize=True)[0]
        report = mise_experiment(pts, 0.7, 2, needed=3, max_attempts=30, rng=np.random.default_rng(seed))
        attempts, accepted_at = self.MISE[seed]
        assert report.summary["attempts"] == attempts and report.summary["accepted"] == 3
        assert [run["attempt"] for run in report.runs] == accepted_at
        assert [run["components"] for run in report.runs] == [2, 2, 2]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_terrain_comparison_unscored_counts(self, seed):
        report = terrain_comparison(awkward_incline_set(seed), folds=3, repeats=2, k=0.3,
                                    rng=np.random.default_rng(seed))
        got = [(run["unscored_with"], run["unscored_without"]) for run in report.runs]
        assert got == self.UNSCORED[seed]


class TestReportReproducibility:
    def test_identical_seed_identical_report(self):
        pts = sample_gmm(three_component_benchmark(), 80, np.random.default_rng(27))
        a = k_sweep(pts, [0.1, 0.5], 4, np.random.default_rng(99))
        b = k_sweep(pts, [0.1, 0.5], 4, np.random.default_rng(99))
        assert a.to_json() == b.to_json()
        assert a.to_tsv() == b.to_tsv()

    def test_tsv_shape(self):
        pts = sample_gmm(three_component_benchmark(), 60, np.random.default_rng(28))
        report = k_sweep(pts, [0.2, 0.8], 3, np.random.default_rng(29))
        lines = report.to_tsv(invocation={"subcommand": "sweep-k"}).strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1].split("\t") == ["k", "repeat", "seed", "components"]
        assert len(lines) == 2 + 6


def _reference_streams(decided):
    """Reference for evaluation._streams that ignores the target it is given
    and stops a stream on decided(model, k, rng, n_points), evaluated after
    every sample; every update draws from the stream's generator rng
    itself."""

    def streams(points, plan, target_m):
        for k, seed in plan:
            sub = np.random.default_rng(seed)
            model = DynamicGaussianMixture(points.shape[1], k)
            for x in points[sub.permutation(points.shape[0])]:
                model.add_sample(x, sub)
                if decided(model, k, sub, points.shape[0]):
                    break
            yield model

    return streams


def _full_stream(*args):
    """A stop rule that never stops: every point is streamed."""
    return False


def _look_ahead(target_m):
    """The stop rule of evaluation._streams, one sample at a time: stop on
    more than target_m components, or on a count that is not target_m and
    cannot change.  It cannot change when, from a copy of the generator's
    state, every later sample's decision draw, drawn one value at a time,
    falls below merge_threshold(0.0, n, k) at its total weight n: each
    such sample merges whatever its density and then reads one more value,
    its component draw, so the decision draws are every other value."""

    def decided(model, k, rng, n_points):
        m = len(model)
        if m >= target_m:
            return m > target_m
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        for n in range(int(model.total_weight()), n_points):
            if not twin.random() < merge_threshold(0.0, n, k):
                return False
            twin.random()
        return True

    return decided


def _count_final(target_m):
    """A stop rule that waits for t(0) itself to round to 1: stop on more
    than target_m components, or on a count that is not target_m once
    count_is_final holds at the total weight."""

    def decided(model, k, rng, n_points):
        m = len(model)
        return m > target_m or (m != target_m and count_is_final(model.total_weight(), k))

    return decided


def _by_runner(monkeypatch, run, *rules):
    """[(run(), the add_sample calls it made)] with evaluation._streams as
    it is, then replaced by _reference_streams(rule) for each rule, in
    order."""
    calls = _counting_add_sample(monkeypatch)
    out = []
    for rule in (None,) + rules:
        if rule is not None:
            monkeypatch.setattr(evaluation, "_streams", _reference_streams(rule))
        before = calls[0]
        out.append((run(), calls[0] - before))
    return out


def _counting_add_sample(monkeypatch):
    """Count DynamicGaussianMixture.add_sample calls from here on."""
    calls = [0]
    orig = DynamicGaussianMixture.add_sample

    def add_sample(self, *args, **kwargs):
        calls[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(DynamicGaussianMixture, "add_sample", add_sample)
    return calls


class TestEarlyStop:
    """k_sweep and mise_experiment stop a stream once its outcome is decided;
    their reports equal those of streaming every point."""

    @pytest.mark.parametrize("seed", range(5))
    def test_k_sweep_equals_full_stream(self, seed, monkeypatch):
        pts = sample_gmm(three_component_benchmark(), 150, np.random.default_rng([30, seed]))
        grid = [0.0, 0.1, 0.7, 1000.0]
        (early, early_calls), (full, full_calls), (_, oracle_calls) = _by_runner(
            monkeypatch, lambda: k_sweep(pts, grid, 2, np.random.default_rng(seed)),
            _full_stream, _look_ahead(math.inf))
        assert early.to_json() == full.to_json()
        assert early.to_tsv() == full.to_tsv()
        # the streams stop where the per-sample oracle stops them; per
        # repeat, k = 1000 stops after 1 of the 150 points
        assert early_calls == oracle_calls <= full_calls - 2 * 149

    @pytest.mark.parametrize("k, target_m", [
        (0.0, 2), (0.1, 2), (0.1, 7), (0.7, 2), (1000.0, 2), (1000.0, 1)])
    def test_mise_experiment_equals_full_stream(self, k, target_m, monkeypatch):
        pts = load_old_faithful(standardize=True)[0][::2]
        calls = _counting_add_sample(monkeypatch)
        early = [mise_experiment(pts, k, target_m, needed=2, max_attempts=4,
                                 rng=np.random.default_rng(seed))
                 for seed in range(5)]
        early_calls = calls[0]
        monkeypatch.setattr(evaluation, "_streams", _reference_streams(_full_stream))
        full = [mise_experiment(pts, k, target_m, needed=2, max_attempts=4,
                                rng=np.random.default_rng(seed))
                for seed in range(5)]
        for a, b in zip(early, full):
            assert a.to_json() == b.to_json()
        assert early_calls <= calls[0] - early_calls

    def test_mise_experiment_builds_no_stream_after_the_last_acceptance(self, monkeypatch):
        # at TestPinnedDecisions' settings, seed 1 accepts its third run at
        # attempt 6 of 30: the streams are built one at a time, as the
        # experiment asks for them
        built = [0]
        init = DynamicGaussianMixture.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(DynamicGaussianMixture, "__init__", counting_init)
        pts = load_old_faithful(standardize=True)[0]
        report = mise_experiment(pts, 0.7, 2, needed=3, max_attempts=30, rng=np.random.default_rng(1))
        assert report.summary["attempts"] == 6 and report.summary["accepted"] == 3
        assert built[0] == 6


class TestPointValidation:
    """A stream may stop before its last point, so every point is checked
    before the first one is streamed."""

    @pytest.mark.parametrize("bad, problem", [
        (np.nan, "is NaN"), (-np.inf, "is infinite"),
        (1e200, r"= 1e\+200 is too large: its square overflows float64")])
    def test_bad_last_point_raises(self, bad, problem):
        pts = np.random.default_rng(31).standard_normal((40, 2))
        pts[-1, 1] = bad
        pattern = f"sample coordinate 1 {problem}$"
        with pytest.raises(ValueError, match=pattern):
            k_sweep(pts, [1000.0], 2, np.random.default_rng(32))
        with pytest.raises(ValueError, match=pattern):
            mise_experiment(pts, 1000.0, 2, needed=1, max_attempts=3, rng=np.random.default_rng(33))

    def test_raises_naming_the_row_before_any_draw(self):
        pts = np.random.default_rng(34).standard_normal((40, 2))
        pts[25, 0] = np.nan
        pts[31, 1] = np.inf
        for run in (lambda rng: k_sweep(pts, [0.5], 1, rng),
                    lambda rng: mise_experiment(pts, 0.5, 2, needed=1, max_attempts=3, rng=rng)):
            rng = np.random.default_rng(35)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=r"^point 25: sample coordinate 0 is NaN$"):
                run(rng)
            assert rng.bit_generator.state == state


class TestStopCount:
    """The streams stop exactly where the per-sample look-ahead oracle
    (_look_ahead) would stop them, with the same number of add_sample
    calls, and never later than a rule that waits for t(0) to round to 1
    (_count_final), with the same reports."""

    @pytest.mark.parametrize("k, target_m", [
        (0.0, 2), (0.1, 2), (0.1, 7), (0.7, 2), (0.7, 3), (1000.0, 2), (1000.0, 1), (math.inf, 1)])
    def test_mise_experiment_calls_equal_the_per_sample_rule(self, k, target_m, monkeypatch):
        pts = load_old_faithful(standardize=True)[0][::2]

        def run():
            return [mise_experiment(pts, k, target_m, needed=2, max_attempts=4,
                                    rng=np.random.default_rng(seed)).to_json()
                    for seed in range(5)]

        (got, got_calls), (want, want_calls), (final, final_calls) = _by_runner(
            monkeypatch, run, _look_ahead(target_m), _count_final(target_m))
        assert got == want == final
        assert got_calls == want_calls <= final_calls

    @pytest.mark.parametrize("seed", range(3))
    def test_k_sweep_calls_equal_the_per_sample_rule(self, seed, monkeypatch):
        pts = sample_gmm(three_component_benchmark(), 120, np.random.default_rng([36, seed]))
        grid = [0.0, 0.05, 0.3, 0.7, 1000.0, math.inf]
        (got, got_calls), (want, want_calls), (final, final_calls) = _by_runner(
            monkeypatch, lambda: k_sweep(pts, grid, 2, np.random.default_rng(seed)).to_json(),
            _look_ahead(math.inf), _count_final(math.inf))
        assert got == want == final
        assert got_calls == want_calls <= final_calls

    def test_k_sweep_stops_sooner_on_the_benchmark_grid(self, monkeypatch):
        # the benchmark's AC3 grid on 500 points: at k = 0.02, t(0) never
        # rounds to 1 within the stream, yet the draws settle the count
        pts = sample_gmm(three_component_benchmark(), 500, np.random.default_rng(37))
        grid = [0.02, 0.05, 0.1, 0.3, 0.7, 1.5]
        (got, got_calls), (want, want_calls), (final, final_calls) = _by_runner(
            monkeypatch, lambda: k_sweep(pts, grid, 1, np.random.default_rng(38)).to_json(),
            _look_ahead(math.inf), _count_final(math.inf))
        assert got == want == final
        assert got_calls == want_calls < final_calls


def _never(*args, **kwargs):
    raise AssertionError("called before the arguments were checked")


# a k the experiments reject, with the message that names it
BAD_K = [(-0.1, "^k must be non-negative$"), (math.nan, "^k must be non-negative$"),
         (-math.inf, "^k must be non-negative$"), ("0.3", "^k must be a real number$"),
         (None, "^k must be a real number$")]

# a k_grid k_sweep rejects, with the message that names it: each k is
# checked before it is converted
BAD_K_GRIDS = [([0.1, 0.5, math.nan], "^k must be non-negative$"),
               ([0.1, math.nan, 0.5], "^k must be non-negative$"),
               ([math.nan], "^k must be non-negative$"), ([-0.5, 0.1], "^k must be non-negative$"),
               ([0.1, 0.5, -math.inf], "^k must be non-negative$"),
               ([0.1, "0.3"], "^k must be a real number$"), ([None], "^k must be a real number$")]


class TestArgumentsCheckedFirst:
    """k_sweep, mise_experiment and terrain_comparison check k and their
    run counts before the EM fit, the fold split or any stream, and leave
    the rng untouched."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        calls = _counting_add_sample(monkeypatch)
        monkeypatch.setattr(evaluation, "em_fit", _never)
        monkeypatch.setattr(evaluation, "stratified_kfold", _never)
        yield
        assert calls[0] == 0

    @staticmethod
    def raises_untouched(run, pattern):
        rng = np.random.default_rng(37)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=pattern):
                run(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("grid, message", BAD_K_GRIDS, ids=[f"grid{i}" for i in range(len(BAD_K_GRIDS))])
    def test_k_sweep_bad_k(self, grid, message, no_work):
        pts = np.random.default_rng(38).standard_normal((30, 2))
        self.raises_untouched(lambda rng: k_sweep(pts, grid, 2, rng), message)

    @pytest.mark.parametrize("k, message", BAD_K, ids=[str(k) for k, _ in BAD_K])
    def test_mise_experiment_bad_k(self, k, message, no_work):
        pts = load_old_faithful(standardize=True)[0]
        self.raises_untouched(lambda rng: mise_experiment(pts, k, 2, needed=1, max_attempts=3, rng=rng),
                              message)

    @pytest.mark.parametrize("k, message", BAD_K, ids=[str(k) for k, _ in BAD_K])
    def test_terrain_comparison_bad_k(self, k, message, no_work):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        self.raises_untouched(lambda rng: terrain_comparison(records, 2, 1, k, rng), message)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one(self, repeats, no_work):
        pts = np.random.default_rng(39).standard_normal((30, 2))
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        self.raises_untouched(lambda rng: k_sweep(pts, [0.1, 0.5], repeats, rng),
                              "^repeats must be >= 1$")
        self.raises_untouched(lambda rng: terrain_comparison(records, 2, repeats, 0.3, rng),
                              "^repeats must be >= 1$")

    @pytest.mark.parametrize("repeats", [1.5, 2.5, math.nan, 2.0, "2", None])
    def test_repeats_not_an_integer(self, repeats, no_work):
        pts = np.random.default_rng(40).standard_normal((30, 2))
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        self.raises_untouched(lambda rng: k_sweep(pts, [0.1, 0.5], repeats, rng),
                              "^repeats must be an integer$")
        self.raises_untouched(lambda rng: terrain_comparison(records, 2, repeats, 0.3, rng),
                              "^repeats must be an integer$")

    @pytest.mark.parametrize("needed, max_attempts, pattern", [
        (0, 3, "^needed must be >= 1$"),
        (1.5, 3, "^needed must be an integer$"),
        (1, -1, "^max_attempts must be >= 0$"),
        (1, 2.5, "^max_attempts must be an integer$"),
        (1, math.nan, "^max_attempts must be an integer$"),
        ("3", 3, "^needed must be an integer$"),
        (None, 3, "^needed must be an integer$"),
        (1, "2", "^max_attempts must be an integer$"),
        (1, None, "^max_attempts must be an integer$"),
    ])
    def test_mise_experiment_bad_counts(self, needed, max_attempts, pattern, no_work):
        pts = load_old_faithful(standardize=True)[0]
        self.raises_untouched(
            lambda rng: mise_experiment(pts, 0.5, 2, needed=needed, max_attempts=max_attempts,
                                        rng=rng), pattern)

    @pytest.mark.parametrize("count", [1.5, 2.5, math.nan, 2.0, "2", None])
    def test_folds_and_target_m_not_an_integer(self, count, no_work):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        pts = load_old_faithful(standardize=True)[0]
        self.raises_untouched(lambda rng: terrain_comparison(records, count, 1, 0.3, rng),
                              "^folds must be an integer$")
        self.raises_untouched(
            lambda rng: mise_experiment(pts, 0.5, count, needed=1, max_attempts=5, rng=rng),
            "^target_m must be an integer$")

    @pytest.mark.parametrize("count", [1, 0, -1])
    def test_folds_and_target_m_too_small(self, count, monkeypatch):
        # the fold split and the EM fit name these, before any draw
        calls = _counting_add_sample(monkeypatch)
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        pts = load_old_faithful(standardize=True)[0]
        self.raises_untouched(lambda rng: terrain_comparison(records, count, 1, 0.3, rng),
                              "^need at least 2 folds$")
        if count < 1:
            self.raises_untouched(
                lambda rng: mise_experiment(pts, 0.5, count, needed=1, max_attempts=5, rng=rng),
                "^m must be >= 1$")
        assert calls[0] == 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJsonReports:
    """Reports are strict JSON: a non-finite float is written as its repr
    string, the cell to_tsv writes, and a report of finite numbers is
    json.dumps of its document, as before."""

    def test_k_sweep_with_infinite_k(self):
        pts = np.random.default_rng(41).standard_normal((40, 2))
        report = k_sweep(pts, [0.05, 1000.0, math.inf], 2, np.random.default_rng(42))
        doc = json.loads(report.to_json(), parse_constant=_reject_constant)
        assert doc["config"]["k_grid"] == [0.05, 1000.0, "inf"]
        assert [p["k"] for p in doc["summary"]["per_k"]] == [0.05, 1000.0, "inf"]
        assert [r["k"] for r in doc["runs"]][-2:] == ["inf", "inf"]
        # float() reads each back, and the table holds the same cells
        assert [float(r["k"]) for r in doc["runs"]] == [r["k"] for r in report.runs]
        rows = [line.split("\t") for line in report.to_tsv().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(r["k"]) for r in doc["runs"]]

    def test_terrain_comparison_report(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=2))
        report = terrain_comparison(records, 2, 1, math.inf, np.random.default_rng(43))
        doc = json.loads(report.to_json(), parse_constant=_reject_constant)
        assert doc["config"]["k"] == "inf"
        assert doc["summary"]["gap"] == report.summary["gap"]

    def test_every_non_finite_float_is_its_repr(self):
        report = EvalReport("r", {"a": math.nan, "b": (-math.inf, 1.5)}, [{"v": np.float64(math.inf)}],
                            {"gap_over_se": math.inf, "n": 2, "ok": True, "none": None})
        doc = json.loads(report.to_json({"seed": 1}), parse_constant=_reject_constant)
        assert doc["config"] == {"a": "nan", "b": ["-inf", 1.5]}
        assert doc["runs"] == [{"v": "inf"}]
        assert doc["summary"] == {"gap_over_se": "inf", "n": 2, "ok": True, "none": None}
        assert doc["invocation"] == {"seed": 1}

    def test_finite_report_keeps_its_bytes(self):
        pts = np.random.default_rng(44).standard_normal((40, 2))
        report = k_sweep(pts, [0.05, 0.3], 2, np.random.default_rng(45))
        assert report.to_json({"argv": ["x"]}) == json.dumps(report.to_dict({"argv": ["x"]}), indent=1) + "\n"
