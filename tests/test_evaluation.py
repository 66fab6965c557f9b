import numpy as np
import pytest
from scipy.stats import spearmanr

from dgmm import evaluation
from dgmm.datasets import (
    InclineConfig,
    load_old_faithful,
    sample_gmm,
    simulate_incline,
    three_component_benchmark,
)
from dgmm.evaluation import (
    k_sweep,
    mise_experiment,
    stratified_kfold,
    terrain_comparison,
)
from dgmm.mixture import DynamicGaussianMixture


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
        m = DynamicGaussianMixture(2)
        for x in pts:
            m.add_sample(x, 0.5, rng)
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


class TestTerrainComparison:
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


def _full_stream(points, k, seed, stop):
    """Reference for evaluation._stream_shuffle that ignores the stop rule
    and streams every point."""
    sub = np.random.default_rng(seed)
    model = DynamicGaussianMixture(points.shape[1])
    for x in points[sub.permutation(points.shape[0])]:
        model.add_sample(x, k, sub)
    return model


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
        calls = _counting_add_sample(monkeypatch)
        early = k_sweep(pts, grid, 2, np.random.default_rng(seed))
        early_calls = calls[0]
        monkeypatch.setattr(evaluation, "_stream_shuffle", _full_stream)
        full = k_sweep(pts, grid, 2, np.random.default_rng(seed))
        assert early.to_json() == full.to_json()
        assert early.to_tsv() == full.to_tsv()
        # per repeat, k = 1000 stops after 1 of the 150 points and k = 0.7
        # after 54; k = 0.1 would stop only after 375
        assert early_calls == (calls[0] - early_calls) - 2 * (149 + 96)

    @pytest.mark.parametrize("k, target_m", [
        (0.0, 2), (0.1, 2), (0.1, 7), (0.7, 2), (1000.0, 2), (1000.0, 1)])
    def test_mise_experiment_equals_full_stream(self, k, target_m, monkeypatch):
        pts = load_old_faithful(standardize=True)[0][::2]
        calls = _counting_add_sample(monkeypatch)
        early = [mise_experiment(pts, k, target_m, needed=2, max_attempts=4,
                                 rng=np.random.default_rng(seed))
                 for seed in range(5)]
        early_calls = calls[0]
        monkeypatch.setattr(evaluation, "_stream_shuffle", _full_stream)
        full = [mise_experiment(pts, k, target_m, needed=2, max_attempts=4,
                                rng=np.random.default_rng(seed))
                for seed in range(5)]
        for a, b in zip(early, full):
            assert a.to_json() == b.to_json()
        assert early_calls <= calls[0] - early_calls


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
