"""Experiment harness: merge-constant sweeps, the EM comparison study,
stratified cross-validation, and the terrain-benefit comparison.

Every experiment returns an EvalReport carrying one record per run plus
aggregate statistics that are recomputable from those records.  All
randomness flows from one master generator: each independent work item
(run, fold, attempt) gets its own integer seed drawn up-front from the
master stream, so runs are independent, reproducible, and replayable from
the report alone.

The terrain comparison builds its records' vectors once, and every
fold's models train on rows of them (`_fit`, which fit_motion_model wraps
too).  Every training record is one MotionModel._record, the training step
that record_sample takes too, so a batch has the bits and errors of
training one record at a time: one DynamicGaussianMixture.add_sample call
per record.  Every held-out record is scored through the public query, one
MotionModel.log_density call per record and model (`_score_fold`).

k_sweep and mise_experiment state their streams as data: a plan of
(k, seed) pairs and a target component count, which one runner
(`_streams`) executes in order, each stream only when the experiment
asks for it, with one stop rule.  Each stream and each fold owns a
generator, seeded from the master stream, that it discards when it ends.
After its shuffle, that generator is read only by add_sample's
rng.random() calls, so the updates read it through a mixture._Uniforms,
which draws the same values in blocks; a fold's two models read one
_Uniforms in sequence, as they would read the generator.  Every streamed
sample is still one add_sample call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import SampleRecord
from .em import em_fit, ise
from .mixture import (DynamicGaussianMixture, _final_count, _Uniforms, check_batch, check_count,
                      check_integer, check_k)
from .motion import MotionModel, Standardizer, TerrainSupportError

#: Held-out log densities are floored here, so a record far from every
#: component, or one that cannot be scored, keeps fold sums finite.
LOG_FLOOR = math.log(1e-300)


def summary_stats(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0 for a single value)."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass
class EvalReport:
    """Named bundle of per-run records plus aggregates derived from them."""

    name: str
    config: dict
    runs: list[dict]
    summary: dict
    warnings: list[str] = field(default_factory=list)

    def to_dict(self, invocation: dict | None = None) -> dict:
        doc = {
            "name": self.name,
            "config": self.config,
            "summary": self.summary,
            "warnings": self.warnings,
            "runs": self.runs,
        }
        if invocation is not None:
            doc["invocation"] = invocation
        return doc

    def to_json(self, invocation: dict | None = None) -> str:
        """Strict JSON (RFC 8259): a non-finite float is written as its repr
        string, "inf", "-inf" or "nan", as to_tsv writes it and float()
        reads it back, so no bare Infinity or NaN can reach the text."""
        return json.dumps(_finite_json(self.to_dict(invocation)), indent=1, allow_nan=False) + "\n"

    def to_tsv(self, invocation: dict | None = None) -> str:
        """One row per run; floats rendered with exact round-trip repr."""
        cols: list[str] = []
        for run in self.runs:
            for key in run:
                if key not in cols:
                    cols.append(key)
        lines = []
        if invocation is not None:
            lines.append("# " + json.dumps(invocation))
        lines.append("\t".join(cols))
        for run in self.runs:
            lines.append("\t".join(_cell(run.get(c)) for c in cols))
        return "\n".join(lines) + "\n"


def _finite_json(v):
    """v with every non-finite float, in any list or dict value, replaced
    by its repr string."""
    if isinstance(v, dict):
        return {key: _finite_json(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_json(x) for x in v]
    return repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _spawn_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """n per-run seeds drawn from the master stream (run i consumes the
    i-th draw, so the split is a simple counter over the master)."""
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)]


# -- cross-validation folds ---------------------------------------------------


@dataclass
class FoldSplit:
    """Disjoint index folds covering a dataset, stratified by command."""

    folds: list[list[int]]
    warnings: list[str] = field(default_factory=list)


def stratified_kfold(records: list[SampleRecord], folds: int,
                     rng: np.random.Generator) -> FoldSplit:
    """Shuffle within each command stratum and deal the records round-robin
    into folds, carrying the dealing position across strata so fold sizes
    stay globally balanced (within one record) as well as per command.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    strata: dict = {}
    for i, r in enumerate(records):
        strata.setdefault(r.command, []).append(i)
    if not strata:
        raise ValueError("no records to split")
    warnings = []
    out: list[list[int]] = [[] for _ in range(folds)]
    cursor = 0
    for command in sorted(strata, key=lambda c: c.as_tuple()):
        idx = strata[command]
        if len(idx) < folds:
            warnings.append(
                f"command {command}: only {len(idx)} records for {folds} folds; "
                "some folds will lack this command"
            )
        for j in rng.permutation(len(idx)):
            out[cursor % folds].append(idx[j])
            cursor += 1
    return FoldSplit(out, warnings)


# -- model construction from records -------------------------------------------


def fit_motion_model(records: list[SampleRecord], k: float, rng: np.random.Generator,
                     standardize: bool = True) -> MotionModel:
    """Stream records (in the given order) into a fresh motion model.  The
    terrain block is included iff the records carry terrain; with
    standardize, a per-dimension standardizer is fitted on the full batch
    first and stored in the model."""
    if not records:
        raise ValueError("no records to fit")
    augmented = records[0].z is not None
    if any((r.z is not None) != augmented for r in records):
        raise ValueError("terrain presence must be uniform across records")
    return _fit(_record_vectors(records, augmented), [r.command for r in records],
                2 if augmented else 0, k, rng, standardize)


def _record_vectors(records: list[SampleRecord], with_terrain: bool) -> np.ndarray:
    """The records' x || z vectors (N, 8), or their x vectors (N, 6)."""
    return np.array([
        np.concatenate([r.x.as_vector(), r.z.as_vector()]) if with_terrain else r.x.as_vector()
        for r in records
    ])


def _fit(vectors: np.ndarray, commands: list, z_dim: int, k: float,
         rng: np.random.Generator | _Uniforms, standardize: bool) -> MotionModel:
    """A fresh motion model trained on the rows of vectors (N, 6 + z_dim),
    x or x || z in original units, in order, each with its command: with
    standardize, the standardizer is fitted on every row first.  The rows
    are standardized in one batch, then each is one training step
    (MotionModel._record, one add_sample), in order, drawing from rng, a
    generator or its _Uniforms."""
    std = Standardizer.fit(vectors) if standardize else None
    mm = MotionModel(k=k, x_dim=vectors.shape[1] - z_dim, z_dim=z_dim, standardizer=std)
    for c, u in zip(commands, mm._std.transform(vectors)):
        mm._record(c, u, rng)
    return mm


# -- experiments --------------------------------------------------------------


def _streams(points: np.ndarray, plan: list[tuple[float, int]], target_m: float):
    """The online mixtures of a plan's streams, one per (k, seed) pair, in
    plan order, each built only when the caller asks for the next: a fresh
    mixture fed one shuffle of the points at k, the shuffle and every
    update drawing from one generator seeded with seed, the updates
    through its _Uniforms.

    A stream stops once its outcome is decided: when it has more than
    target_m components (components are never removed), or when its count
    is final and is not target_m.  A count is final once the merge
    threshold has rounded to 1 (see mixture._count_is_final): every later
    sample merges, so the rest of the shuffle could not change it.  The
    total weight at which that happens is found once per stream
    (mixture._final_count).  With target_m = inf, a stream stops when its
    count is final.  Each stream draws from its own generator, so
    stopping one changes no other, and its count, or whether its count is
    target_m, is the one that streaming every point would give."""
    for k, seed in plan:
        final = _final_count(k)
        sub = np.random.default_rng(seed)
        model = DynamicGaussianMixture(points.shape[1], k)
        draws = _Uniforms(sub)
        for x in points[sub.permutation(points.shape[0])]:
            model.add_sample(x, draws)
            m = len(model)
            if m > target_m or (m != target_m and model.total_weight() >= final):
                break
        yield model


def k_sweep(points, k_grid, repeats: int, rng: np.random.Generator) -> EvalReport:
    """Model complexity versus the merge likelihood constant: for every k
    and repeat, stream a fresh shuffle of the points through the online
    update and record the final component count.

    Each stream stops as soon as its count is final (see _streams), so
    the report is the one that streaming every point would give.  Every k
    (not a real number: "k must be a real number"; negative or NaN: "k
    must be non-negative"), repeats (an integer, at least 1) and every
    point (NaN, infinite and overflowing coordinates) are checked before
    the first stream.
    """
    k_grid = list(k_grid)
    if not k_grid:
        raise ValueError("k_grid must be non-empty")
    for k in k_grid:
        check_k(k)
    k_grid = [float(k) for k in k_grid]
    if any(b <= a for a, b in zip(k_grid, k_grid[1:])):
        raise ValueError("k_grid must be strictly ascending")
    repeats = check_count(repeats, "repeats", 1)
    # a stream may stop before its last point, so every point is checked
    # before any is streamed
    points = check_batch(points, "point {row}: sample")
    seeds = _spawn_seeds(rng, len(k_grid) * repeats)
    plan = list(zip([k for k in k_grid for _ in range(repeats)], seeds))
    runs = [{"k": k, "repeat": i % repeats, "seed": seed, "components": len(model)}
            for i, ((k, seed), model) in enumerate(zip(plan, _streams(points, plan, math.inf)))]
    per_k = []
    for k in k_grid:
        counts = [r["components"] for r in runs if r["k"] == k]
        mean, std = summary_stats(counts)
        per_k.append({"k": k, "mean_components": mean, "std_components": std})
    return EvalReport(
        name="k_sweep",
        config={"k_grid": k_grid, "repeats": repeats, "n_points": int(points.shape[0])},
        runs=runs,
        summary={"per_k": per_k},
    )


def mise_experiment(points, k: float, target_m: int, needed: int,
                    max_attempts: int, rng: np.random.Generator) -> EvalReport:
    """Compare online estimates against an offline EM reference.

    Fits one EM mixture with target_m components, then repeatedly streams a
    fresh shuffle of the points through the online update; runs that end
    with exactly target_m components are accepted and scored by the
    integrated square error against the EM reference (the "mise" of each
    run), computed in closed form by em.ise: no grid is built, so the
    score is exact up to rounding and works in any dimension.
    Stops after `needed` accepted runs or max_attempts attempts (the report
    is flagged incomplete in the latter case).

    A rejected run stops streaming as soon as its outcome is decided (see
    _streams), and accepted runs stream every point, so the report is the
    one that streaming every point would give; no stream is built after
    the needed-th acceptance.  With no accepted run, mise_mean and
    mise_std are None (null in JSON).  k (negative or NaN: "k must be
    non-negative"), target_m (an integer; em_fit rejects one below 1),
    needed (an integer, at least 1), max_attempts (an integer, at least 0)
    and every point (NaN, infinite and overflowing coordinates) are
    checked before the EM fit.  1-D points are one column, as in k_sweep
    and em_fit.
    """
    check_k(k)
    target_m = check_integer(target_m, "target_m")
    needed = check_count(needed, "needed", 1)
    max_attempts = check_count(max_attempts, "max_attempts", 0)
    points = check_batch(points, "point {row}: sample")
    em_ref = em_fit(points, target_m, rng=rng)
    em_steps = np.diff(em_ref.loglik_path)
    plan = [(k, seed) for seed in _spawn_seeds(rng, max_attempts)]
    runs = []
    attempts = 0
    for (_, seed), model in zip(plan, _streams(points, plan, target_m)):
        attempts += 1
        if len(model) == target_m:
            runs.append({"attempt": attempts, "seed": seed, "components": len(model),
                         "mise": ise(model, em_ref)})
            if len(runs) == needed:
                break
    values = [r["mise"] for r in runs]
    mean, std = summary_stats(values) if values else (None, None)
    return EvalReport(
        name="mise_vs_em",
        config={
            "k": k,
            "target_m": target_m,
            "needed": needed,
            "max_attempts": max_attempts,
            "n_points": int(points.shape[0]),
        },
        runs=runs,
        summary={
            "mise_mean": mean,
            "mise_std": std,
            "accepted": len(runs),
            "attempts": attempts,
            "acceptance_rate": len(runs) / attempts if attempts else 0.0,
            "incomplete": len(runs) < needed,
            "em_loglik_min_step": float(em_steps.min()) if em_steps.size else 0.0,
            "em_loglik_final": em_ref.loglik_path[-1],
        },
        warnings=(["incomplete: attempt budget exhausted"] if len(runs) < needed else []),
    )


def _score_fold(model: MotionModel, records: list[SampleRecord]) -> tuple[float, int]:
    """Summed floored log density of the records under the model, one
    MotionModel.log_density call per record in record order (with its
    terrain vector for a terrain model, without one otherwise); the second
    value counts records that could not be scored (unknown command or
    terrain outside the training support) and took the floor.  A record
    with a bad coordinate raises log_density's ValueError."""
    total, unscored = 0.0, 0
    for r in records:
        try:
            ll = model.log_density(r.command, r.x, r.z if model.augmented else None)
        except (KeyError, TerrainSupportError):
            unscored += 1
            ll = LOG_FLOOR
        total += max(ll, LOG_FLOOR)
    return total, unscored


def terrain_comparison(s1: list[SampleRecord], folds: int, repeats: int, k: float,
                       rng: np.random.Generator, standardize: bool = True,
                       score_training: bool = False) -> EvalReport:
    """Does conditioning on terrain improve the motion model?

    For every repeat a fresh stratified fold split is drawn.  Per fold, two
    models are trained on the training portion: one on the full-perception
    records (terrain attached) and one on the same records with terrain
    stripped.  The held-out fold (or, with score_training, the training
    portion itself) is scored under both: summed log of the
    terrain-conditioned density versus summed log of the plain density.

    The records' x || z vectors are built once, and the terrain-free
    model uses a contiguous copy of their x block.  Each fold's two models
    train on the rows of the fold's shuffled training records (see _fit),
    bit for bit as fit_motion_model would.  Each target record is then
    scored by one MotionModel.log_density call per model, in record order
    (see _score_fold), so a bad record raises log_density's ValueError.
    The fold splits' warnings (a command with fewer records than folds)
    are the report's, each once, in first-seen order.
    Every record needs a terrain vector; folds (an integer;
    stratified_kfold rejects one below 2), k (negative or NaN: "k must be
    non-negative") and repeats (an integer, at least 1) are checked before
    the first fold split.
    """
    if not s1 or any(r.z is None for r in s1):
        raise ValueError("terrain comparison needs records with terrain vectors")
    folds = check_integer(folds, "folds")
    check_k(k)
    repeats = check_count(repeats, "repeats", 1)
    # built once: every fold trains on rows of these
    with_z = _record_vectors(s1, True)
    without_z = np.ascontiguousarray(with_z[:, :6])
    commands = [r.command for r in s1]
    runs, split_warnings = [], []
    for rep in range(repeats):
        split = stratified_kfold(s1, folds, rng)
        split_warnings += split.warnings
        seeds = _spawn_seeds(rng, len(split.folds))
        for fi, fold in enumerate(split.folds):
            sub = np.random.default_rng(seeds[fi])
            train_idx = [i for fj, f in enumerate(split.folds) if fj != fi for i in f]
            order = [train_idx[j] for j in sub.permutation(len(train_idx))]
            order_commands = [commands[i] for i in order]
            # both models read the fold generator's uniforms, in sequence
            draws = _Uniforms(sub)
            with_model = _fit(with_z[order], order_commands, 2, k, draws, standardize)
            without_model = _fit(without_z[order], order_commands, 0, k, draws, standardize)
            target_idx = train_idx if score_training else fold
            target = [s1[i] for i in target_idx]
            case1, miss1 = _score_fold(with_model, target)
            case2, miss2 = _score_fold(without_model, target)
            runs.append({
                "repeat": rep,
                "fold": fi,
                "seed": seeds[fi],
                "n_scored": len(target_idx),
                "with_terrain": case1,
                "without_terrain": case2,
                "unscored_with": miss1,
                "unscored_without": miss2,
            })
    c1_mean, c1_std = summary_stats([r["with_terrain"] for r in runs])
    c2_mean, c2_std = summary_stats([r["without_terrain"] for r in runs])
    n = len(runs)
    pooled_se = math.sqrt((c1_std**2 + c2_std**2) / n) if n > 1 else float("inf")
    gap = c1_mean - c2_mean
    return EvalReport(
        name="terrain_comparison",
        config={
            "folds": folds,
            "repeats": repeats,
            "k": k,
            "standardize": standardize,
            "score_training": score_training,
            "n_records": len(s1),
        },
        runs=runs,
        summary={
            "with_terrain_mean": c1_mean,
            "with_terrain_std": c1_std,
            "without_terrain_mean": c2_mean,
            "without_terrain_std": c2_std,
            "gap": gap,
            "pooled_se": pooled_se,
            "gap_over_se": gap / pooled_se if pooled_se > 0 else float("inf"),
            "unscored_with": int(sum(r["unscored_with"] for r in runs)),
            "unscored_without": int(sum(r["unscored_without"] for r in runs)),
        },
        # each repeat's split repeats its warnings: keep the first of each
        warnings=list(dict.fromkeys(split_warnings)),
    )
