"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the metric
lines as they complete).
"""

import json
import math
import shutil

import numpy as np
import pytest
from scipy.stats import spearmanr

from dgmm.cli import run
from dgmm.datasets import (
    InclineConfig,
    load_old_faithful,
    sample_gmm,
    simulate_incline,
    three_component_benchmark,
)
from dgmm.em import Grid, em_fit, integrate_on_grid, mixture_support_box, support_grid
from dgmm.evaluation import k_sweep, mise_experiment, terrain_comparison
from dgmm.gaussian import Gaussian, IndexSplit
from dgmm.mixture import DynamicGaussianMixture, WeightedGaussian, merge_into
from dgmm.motion import CommandKey, MotionModel

from builders import dynamic_mixture


def rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(np.max(np.abs(want)), 1e-300)
    return float(np.max(np.abs(got - want)) / scale)


@pytest.fixture(scope="module")
def faithful():
    pts, _, _ = load_old_faithful(standardize=True)
    return pts


@pytest.fixture(scope="module")
def mise_report(faithful):
    return mise_experiment(
        faithful, k=0.7, target_m=2, needed=100, max_attempts=600,
        rng=np.random.default_rng(20240101),
    )


def test_ac1_incremental_moments_match_batch_estimators():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        d = int(rng.choice([1, 2, 4, 6]))
        n = int(round(10 ** rng.uniform(1, 4)))
        mean = rng.uniform(-5, 5, d)
        scale = rng.uniform(0.1, 2.0, d)
        X = mean + scale * rng.standard_normal((n, d))
        # creation from the first sample, then the merge branch throughout
        comp = WeightedGaussian(Gaussian(X[0], np.eye(d)), 1.0, creation_cov=np.eye(d))
        for x in X[1:]:
            comp = merge_into(comp, x)
        assert comp.w == n
        worst = max(worst, rel_err(comp.g.mean, X.mean(axis=0)))
        batch_cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
        worst = max(worst, rel_err(comp.g.cov, batch_cov))
    assert worst <= 1e-9
    print(f"\nAC-1 PASS: 200 forced-merge streams, worst relative moment error {worst:.3e} <= 1e-9")


def test_ac2_old_faithful_mise(mise_report):
    s = mise_report.summary
    assert not s["incomplete"], "did not reach 100 two-component runs"
    assert s["accepted"] == 100
    assert s["acceptance_rate"] >= 0.20
    assert 0.0 <= s["mise_mean"] <= 0.15
    print(
        f"\nAC-2 PASS: MISE {s['mise_mean']:.4f} +/- {s['mise_std']:.4f} "
        f"(bound 0.15), acceptance rate {s['acceptance_rate']:.2f} (bound 0.20)"
    )


def test_ac3_component_count_decreases_with_k():
    pts = sample_gmm(three_component_benchmark(), 500, np.random.default_rng(2024))
    k_grid = [0.02, 0.05, 0.1, 0.3, 0.7, 1.5]
    report = k_sweep(pts, k_grid, repeats=20, rng=np.random.default_rng(5))
    means = [row["mean_components"] for row in report.summary["per_k"]]
    rho = spearmanr(k_grid, means).statistic
    assert rho <= -0.8
    assert means[0] >= 3.0 * means[-1]
    print(
        f"\nAC-3 PASS: spearman(k, mean count) = {rho:.3f} <= -0.8, "
        f"count ratio {means[0] / means[-1]:.1f}x >= 3x (counts {[round(m, 2) for m in means]})"
    )


def test_ac4_terrain_information_improves_likelihood():
    records = simulate_incline(InclineConfig())
    assert len(records) == 390
    report = terrain_comparison(records, folds=10, repeats=10, k=0.3,
                                rng=np.random.default_rng(77))
    s = report.summary
    assert s["gap"] > 0
    assert s["gap_over_se"] > 3.0
    print(
        f"\nAC-4 PASS: with terrain {s['with_terrain_mean']:.1f} +/- {s['with_terrain_std']:.1f}, "
        f"without {s['without_terrain_mean']:.1f} +/- {s['without_terrain_std']:.1f}, "
        f"gap = {s['gap']:.1f} = {s['gap_over_se']:.1f} pooled SEs (> 3)"
    )


def test_ac5_conditioning_matches_density_ratio():
    rng = np.random.default_rng(55)
    command = CommandKey(0.5, 0.0, 0.0)
    worst = 0.0
    for _ in range(50):
        x_dim = int(rng.integers(2, 7))
        z_dim = int(rng.integers(1, 3))
        dim = x_dim + z_dim
        w, means, covs = [], [], []
        for _ in range(int(rng.integers(1, 11))):
            a = rng.standard_normal((dim, dim))
            means.append(rng.standard_normal(dim))
            covs.append(a @ a.T + dim * np.eye(dim))
            w.append(float(rng.integers(1, 30)))
        mm = MotionModel(k=0.5, x_dim=x_dim, z_dim=z_dim)
        mm.models[command] = dynamic_mixture(w, means, covs)
        joint = mm.models[command]
        z = rng.standard_normal(z_dim)
        cond = mm.conditional_motion_density(command, z)
        # independent ratio oracle: joint mixture over the z-marginal mixture
        w_hat = joint._w / joint.total_weight()
        z_block = list(range(x_dim, dim))
        denom = sum(
            wh * float(c.g.marginal(z_block).density(z))
            for wh, c in zip(w_hat, joint.components)
        )
        # grid over the conditional's support, 3 nodes per axis
        grid = support_grid([cond], resolution=3, n_sigma=1.0)
        pts = grid.centers()
        ratio = joint.density(np.column_stack([pts, np.tile(z, (pts.shape[0], 1))])) / denom
        got = cond.density(pts)
        worst = max(worst, float(np.max(np.abs(got - ratio) / np.maximum(np.abs(ratio), 1e-300))))
    assert worst <= 1e-9
    print(f"\nAC-5 PASS: 50 random augmented models, worst conditional/ratio relative error {worst:.3e} <= 1e-9")


def test_ac6_densities_integrate_to_one(faithful):
    cases = []

    # online estimates on the 2-D benchmark
    rng = np.random.default_rng(6)
    for _ in range(3):
        m = DynamicGaussianMixture(2, 0.7)
        for x in faithful[rng.permutation(len(faithful))]:
            m.add_sample(x, rng)
        cases.append(("online 2-D", m.density, [m]))

    # EM references, 2-D and 1-D
    em2 = em_fit(faithful, 2, rng=rng)
    cases.append(("EM 2-D", em2.density, [em2]))
    em1 = em_fit(faithful[:, :1], 1, rng=rng)
    cases.append(("EM 1-D", em1.density, [em1]))

    # online estimate on a 1-D stream
    pts1 = np.concatenate([rng.normal(0, 0.5, 150), rng.normal(4, 0.5, 150)])
    m1 = DynamicGaussianMixture(1, 0.3)
    for x in pts1:
        m1.add_sample([x], rng)
    cases.append(("online 1-D", m1.density, [m1]))

    # a conditioned mixture over a 2-D kept block
    w, means, covs = [], [], []
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        means.append(rng.standard_normal(3))
        covs.append(a @ a.T + 3 * np.eye(3))
        w.append(float(rng.integers(1, 10)))
    mm = MotionModel(k=0.5, x_dim=2, z_dim=1)
    mm.models[CommandKey(0.5, 0, 0)] = dynamic_mixture(w, means, covs)
    cond = mm.conditional_motion_density(CommandKey(0.5, 0, 0), np.array([0.2]))
    cases.append(("conditioned 2-D", cond.density, [cond]))

    # the fixed synthetic generator
    bench = three_component_benchmark()
    cases.append(("benchmark 2-D", bench.density, [bench]))

    worst = 0.0
    for name, density, mixtures in cases:
        lo, hi = mixture_support_box(mixtures)
        ndim = len(lo)
        shape = (8001,) if ndim == 1 else (500, 500)
        total = integrate_on_grid(density, Grid(tuple(lo), tuple(hi), shape))
        worst = max(worst, abs(total - 1.0))
        assert total == pytest.approx(1.0, abs=1e-3), name
    print(f"\nAC-6 PASS: {len(cases)} suite densities integrate to 1 within 1e-3 (worst |err| {worst:.2e})")


def test_ac7_em_sanity(faithful, mise_report):
    # monotone log-likelihood on every acceptance fit
    assert mise_report.summary["em_loglik_min_step"] >= -1e-10
    fit2 = em_fit(faithful, 2, rng=np.random.default_rng(7))
    steps = np.diff(fit2.loglik_path)
    assert np.all(steps >= -1e-10)

    # m = 1 equals the closed-form maximum likelihood estimates
    fit1 = em_fit(faithful, 1, rng=np.random.default_rng(8))
    assert fit1.weights == pytest.approx(np.array([1.0]), abs=1e-15)
    assert np.max(np.abs(fit1._mean[0] - faithful.mean(axis=0))) <= 1e-10
    ml_cov = np.cov(faithful, rowvar=False, bias=True)
    assert np.max(np.abs(fit1._eval_cov[0] - ml_cov)) <= 1e-10
    print(
        f"\nAC-7 PASS: EM log-likelihood non-decreasing (min step "
        f"{min(float(steps.min()), mise_report.summary['em_loglik_min_step']):.2e} >= -1e-10); "
        f"m=1 matches closed forms within 1e-10"
    )


def test_ac8_seeded_invocations_are_byte_identical(tmp_path, monkeypatch):
    # identical argv + seed in two fresh directories must give identical bytes
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()

    def run_all(workdir):
        monkeypatch.chdir(workdir)
        assert run(["gen-incline", "--out", "samples.csv", "--reps", "2", "--seed", "3"]) == 0
        assert run(["gen-gmm", "--out", "pts.txt", "--n", "100", "--seed", "5"]) == 0
        assert run(["fit", "--input", "samples.csv", "--k", "0.3", "--seed", "42",
                    "--standardize", "--out", "model.json"]) == 0
        assert run(["sweep-k", "--input", "pts.txt", "--k-grid", "0.1,0.5,2.0",
                    "--repeats", "3", "--seed", "11", "--out", "sweep.json"]) == 0
        assert run(["compare-em", "--needed", "2", "--max-attempts", "30",
                    "--seed", "3", "--out", "em.json"]) == 0
        assert run(["xval-terrain", "--input", "samples.csv", "--folds", "3",
                    "--repeats", "1", "--k", "0.3", "--seed", "4", "--out", "xval.json"]) == 0

    run_all(dir_a)
    run_all(dir_b)
    outputs = ["samples.csv", "samples.csv.meta.json", "pts.txt", "model.json",
               "sweep.json", "sweep.tsv", "em.json", "em.tsv", "xval.json", "xval.tsv"]
    for name in outputs:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    print(f"\nAC-8 PASS: {len(outputs)} output files byte-identical across seeded reruns")
