"""The four benchmark workloads.

Each workload drives the public dgmm API the way one kind of user does.
`setup` makes the inputs from the seed, `warm_up` runs a small piece of
the job so lazy initialisation is paid before timing, and `job(j)` runs
job number j with its own generator, derived from (seed, j), so a job's
outputs depend only on the seed and j.  `check` returns the output checks
of one job and `fingerprint` a text that two runs of the same job must
reproduce exactly.

Library functions are looked up through their modules at call time, so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import dgmm.datasets as datasets
import dgmm.evaluation as evaluation
import dgmm.motion as motion

# AC2: k = 0.7, two-component runs scored against a 2-component EM fit
FAITHFUL_K = 0.7
FAITHFUL_TARGET_M = 2
FAITHFUL_NEEDED = 10
FAITHFUL_MISE_BOUND = 0.15

# AC3 grid; its small-k end is where the m x m peak estimate dominates
SWEEP_K_GRID = (0.02, 0.05, 0.1, 0.3, 0.7, 1.5)
SWEEP_POINTS = 500
SWEEP_REPEATS = 2

# AC4: 10-fold stratified cross-validation at k = 0.3
XVAL_FOLDS = 10
XVAL_REPEATS = 4
XVAL_K = 0.3

# one live model fed three simulated incline runs, 1170 control cycles
ROBOT_K = 0.3
ROBOT_RUNS = 3
ROBOT_ORACLE_EVERY = 39
ROBOT_ORACLE_RTOL = 1e-9


# job number of the warm-up, outside the range of timed jobs
WARM_UP_JOB = 2**32 - 1


def job_rng(seed: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, j])


class FaithfulEM:
    """`mise_experiment` on the standardized Old Faithful table."""

    name = "faithful-em"
    step = "add_sample"
    quality_jobs = 4

    def setup(self, seed):
        self.seed = seed % 2**63
        self.points = datasets.load_old_faithful()[0]

    def warm_up(self):
        evaluation.mise_experiment(self.points, FAITHFUL_K, FAITHFUL_TARGET_M, needed=1,
                                   max_attempts=1, rng=job_rng(self.seed, WARM_UP_JOB))

    def job(self, j):
        return evaluation.mise_experiment(
            self.points, FAITHFUL_K, FAITHFUL_TARGET_M, needed=FAITHFUL_NEEDED,
            max_attempts=40 * FAITHFUL_NEEDED, rng=job_rng(self.seed, j))

    def samples(self, report):
        return report.summary["attempts"] * len(self.points)

    def check(self, report):
        s = report.summary
        return [
            ("accepted == needed", s["accepted"] == FAITHFUL_NEEDED and not s["incomplete"]),
            (f"mise_mean <= {FAITHFUL_MISE_BOUND}", 0.0 <= s["mise_mean"] <= FAITHFUL_MISE_BOUND),
        ]

    def operations(self, report):
        values = [r["mise"] for r in report.runs]
        return "MISE finite", len(values), sum(not math.isfinite(v) for v in values)

    def quality(self, reports):
        values = [r["mise"] for rep in reports for r in rep.runs]
        return {"mise_mean": (float(np.mean(values)), "mise")}

    def describe(self, reports):
        return {
            "D": 2, "n": len(self.points), "k": [FAITHFUL_K], "target_m": FAITHFUL_TARGET_M,
            "needed": FAITHFUL_NEEDED,
            "acceptance_rate": float(np.mean([r.summary["acceptance_rate"] for r in reports])),
        }

    def fingerprint(self, report):
        return report.to_json()


class GmmSweep:
    """`k_sweep` over points drawn from the fixed 3-component benchmark."""

    name = "gmm-sweep"
    step = "add_sample"
    quality_jobs = 1

    def setup(self, seed):
        self.seed = seed % 2**63
        self.points = datasets.sample_gmm(datasets.three_component_benchmark(), SWEEP_POINTS,
                                          np.random.default_rng(self.seed))

    def warm_up(self):
        evaluation.k_sweep(self.points[:100], SWEEP_K_GRID[-2:], 1, job_rng(self.seed, WARM_UP_JOB))

    def job(self, j):
        return evaluation.k_sweep(self.points, SWEEP_K_GRID, SWEEP_REPEATS, job_rng(self.seed, j))

    def samples(self, report):
        return len(report.runs) * len(self.points)

    def check(self, report):
        means = [row["mean_components"] for row in report.summary["per_k"]]
        return [
            ("spearman(k, mean m) <= -0.8", _spearman(SWEEP_K_GRID, means) <= -0.8),
            ("mean m spread >= 3x", means[0] >= 3.0 * means[-1]),
        ]

    def operations(self, report):
        return "", 0, 0

    def quality(self, reports):
        return {}

    def describe(self, reports):
        per_k = {k: [] for k in SWEEP_K_GRID}
        for rep in reports:
            for run in rep.runs:
                per_k[run["k"]].append(run["components"])
        return {
            "D": 2, "n": len(self.points), "k": list(SWEEP_K_GRID), "repeats": SWEEP_REPEATS,
            "m_by_k": {str(k): {"mean": float(np.mean(v)), "min": min(v), "max": max(v)}
                       for k, v in per_k.items()},
        }

    def fingerprint(self, report):
        return report.to_json()


class InclineXval:
    """`terrain_comparison` on the simulated incline run."""

    name = "incline-xval"
    step = "add_sample"
    quality_jobs = 2

    def setup(self, seed):
        self.seed = seed % 2**63
        self.records = datasets.simulate_incline(datasets.InclineConfig(seed=self.seed))

    def warm_up(self):
        evaluation.terrain_comparison(self.records[::5], folds=2, repeats=1, k=XVAL_K,
                                      rng=job_rng(self.seed, WARM_UP_JOB))

    def job(self, j):
        return evaluation.terrain_comparison(self.records, folds=XVAL_FOLDS, repeats=XVAL_REPEATS,
                                             k=XVAL_K, rng=job_rng(self.seed, j))

    def samples(self, report):
        # two models per fold, each trained on every record outside the fold
        return XVAL_REPEATS * 2 * (XVAL_FOLDS - 1) * len(self.records)

    def operations(self, report):
        s = report.summary
        return ("held-out record scored (no KeyError or TerrainSupportError)",
                2 * sum(r["n_scored"] for r in report.runs),
                s["unscored_with"] + s["unscored_without"])

    def check(self, report):
        s = report.summary
        return [("gap > 0", s["gap"] > 0), ("gap_over_se > 3", s["gap_over_se"] > 3.0)]

    def quality(self, reports):
        return {"heldout_gap_se": (float(np.mean([r.summary["gap_over_se"] for r in reports])), "se")}

    def describe(self, reports):
        return {"D": [8, 6], "n": len(self.records), "commands": 26, "k": [XVAL_K],
                "folds": XVAL_FOLDS, "repeats": XVAL_REPEATS}

    def fingerprint(self, report):
        return report.to_json()


@dataclass
class RobotEpisode:
    """Outputs of one robot-online job."""

    model: motion.MotionModel
    lls: list[float]            # log p(x | c, z) of each scored cycle
    latencies_ns: list[int]     # one per control cycle
    starts_ns: list[int]        # perf_counter_ns() at the start of each cycle
    failures: int               # queries that raised or gave a non-finite log density
    recorded: dict              # command -> samples recorded
    probes: list                # records re-queried against the oracle at the end


class RobotOnline:
    """One live terrain-aware motion model: every control cycle scores the
    sample with `log_density` (when its command has a model), then records
    it.  One stream with a write before every read."""

    name = "robot-online"
    step = "control cycle"
    quality_jobs = 3
    # called between control cycles, outside their timing, when set
    between_steps = None

    def setup(self, seed):
        self.seed = seed % 2**63
        run_seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=ROBOT_RUNS + 1)
        # the standardizer is fixed from a calibration run before the robot starts
        calibration = datasets.simulate_incline(datasets.InclineConfig(seed=int(run_seeds[0])))
        self.standardizer = motion.Standardizer.fit(
            np.array([np.concatenate([r.x.as_vector(), r.z.as_vector()]) for r in calibration]))
        self.records = [r for s in run_seeds[1:]
                        for r in datasets.simulate_incline(datasets.InclineConfig(seed=int(s)))]

    def warm_up(self):
        self._episode(job_rng(self.seed, WARM_UP_JOB), self.records[:100])

    def job(self, j):
        rng = job_rng(self.seed, j)
        order = rng.permutation(len(self.records))
        return self._episode(rng, [self.records[i] for i in order])

    def _episode(self, rng, stream):
        mm = motion.MotionModel(k=ROBOT_K, x_dim=6, z_dim=2, standardizer=self.standardizer)
        lls, latencies, starts, probes = [], [], [], []
        between = self.between_steps
        recorded: dict = {}
        failures = 0
        for step, r in enumerate(stream):
            t0 = perf_counter_ns()
            if r.command in mm.models:
                try:
                    ll = mm.log_density(r.command, r.x, r.z)
                except motion.TerrainSupportError:
                    ll = None
                if ll is None or not math.isfinite(ll):
                    failures += 1
                else:
                    lls.append(ll)
            mm.record_sample(r.command, r.x, r.z, rng)
            latencies.append(perf_counter_ns() - t0)
            starts.append(t0)
            recorded[r.command] = recorded.get(r.command, 0) + 1
            if step % ROBOT_ORACLE_EVERY == 0:
                probes.append(r)
            if between is not None:
                between()
        return RobotEpisode(mm, lls, latencies, starts, failures, recorded, probes)

    def samples(self, episode):
        return len(episode.latencies_ns)

    def operations(self, episode):
        return ("query finite (no TerrainSupportError)", len(episode.lls) + episode.failures,
                episode.failures)

    def check(self, episode):
        mm = episode.model
        weights_ok = all(mm.mixture_for(c).total_weight() == n for c, n in episode.recorded.items())
        worst = max(_ratio_error(mm, r) for r in episode.probes)
        doc = mm.to_dict()
        again = motion.MotionModel.from_dict(json.loads(json.dumps(doc))).to_dict()
        return [
            ("total weight == samples recorded, per command", weights_ok),
            (f"conditional == joint/marginal within {ROBOT_ORACLE_RTOL}", worst <= ROBOT_ORACLE_RTOL),
            ("to_dict/from_dict round-trips exactly", again == doc),
        ]

    def quality(self, episodes):
        lls = [ll for e in episodes for ll in e.lls]
        return {"prequential_ll": (float(np.mean(lls)), "nats")}

    def describe(self, episodes):
        sizes = [len(mix) for e in episodes for mix in e.model.models.values()]
        return {"D": 8, "n": len(self.records), "commands": 26, "k": [ROBOT_K],
                "m_final": {"min": min(sizes), "mean": float(np.mean(sizes)), "max": max(sizes)}}

    def fingerprint(self, episode):
        return json.dumps({"model": episode.model.to_dict(), "lls": episode.lls,
                           "failures": episode.failures})


def _spearman(a, b) -> float:
    """Spearman rank correlation, tied values sharing their mean rank."""
    return float(np.corrcoef(_ranks(a), _ranks(b))[0, 1])


def _ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        ranks[i] = np.sum(values < v) + (np.sum(values == v) + 1) / 2.0
    return ranks


def _ratio_error(mm, record) -> float:
    """Relative error of p(x | c, z) against the joint/marginal ratio,
    both evaluated here from the components' evaluation moments (the AC5
    oracle), in the model's standardized space."""
    mix = mm.mixture_for(record.command)
    u = mm.standardizer.transform(np.concatenate([record.x.as_vector(), record.z.as_vector()]))
    x_dim = mm.x_dim
    joint = marginal = 0.0
    for comp in mix.components:
        g = comp.pd_gaussian()
        joint += comp.w * _normal_pdf(u, g.mean, g.cov)
        marginal += comp.w * _normal_pdf(u[x_dim:], g.mean[x_dim:], g.cov[x_dim:, x_dim:])
    want = joint / marginal
    try:
        got = float(mm.conditional_motion_density(record.command, record.z).density(u[:x_dim]))
    except motion.TerrainSupportError:
        return math.inf
    return abs(got - want) / max(abs(want), 1e-300)


def _normal_pdf(x, mean, cov) -> float:
    diff = x - mean
    sign, logdet = np.linalg.slogdet(cov)
    quad = float(diff @ np.linalg.solve(cov, diff))
    return math.exp(-0.5 * (len(x) * math.log(2.0 * math.pi) + logdet + quad))


WORKLOADS = {w.name: w for w in (FaithfulEM, GmmSweep, InclineXval, RobotOnline)}
