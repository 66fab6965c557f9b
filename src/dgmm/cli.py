"""Command-line front end.

Subcommands cover model building and use (fit, query), data generation
(gen-incline, gen-gmm), and the three experiments (sweep-k, compare-em,
xval-terrain).  Every invocation that consumes randomness takes a seed
(default 0), outputs embed the full invocation for provenance, and
re-running with identical inputs and seed reproduces outputs byte for
byte.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datasets, evaluation
from .datasets import InclineConfig, load_old_faithful, load_points, load_samples
from .motion import CommandKey, MotionModel, Standardizer, TerrainSupportError, TerrainVector


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise _UsageError(f"not a comma-separated number list: {text!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="dgmm", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="train a motion model from a sample CSV")
    fit.add_argument("--input", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--k", type=float, default=0.3)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--standardize", action="store_true",
                     help="fit a per-dimension standardizer on the input batch")
    fit.add_argument("--no-z", action="store_true",
                     help="drop terrain columns even if the file has them")
    fit.set_defaults(func=_cmd_fit)

    query = sub.add_parser("query", help="evaluate a trained model's density")
    query.add_argument("--model", required=True)
    query.add_argument("--command", required=True, help="long,lat,turn")
    query.add_argument("--x", required=True,
                       help="dx,dy,dz,droll,dpitch,dyaw (write --x=-0.1,... for a leading minus)")
    query.add_argument("--z", default=None,
                       help="pitch,roll for augmented models (write --z=-0.3,... for a leading minus)")
    query.set_defaults(func=_cmd_query)

    sweep = sub.add_parser("sweep-k", help="component count vs merge constant")
    sweep.add_argument("--input", required=True, help="numeric point file")
    sweep.add_argument("--k-grid", required=True, help="ascending comma list")
    sweep.add_argument("--repeats", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep_k)

    cmp_em = sub.add_parser("compare-em", help="online estimate vs offline EM reference")
    cmp_em.add_argument("--input", default=None,
                        help="numeric point file (default: bundled Old Faithful table)")
    cmp_em.add_argument("--k", type=float, default=0.7)
    cmp_em.add_argument("--target-m", type=int, default=2)
    cmp_em.add_argument("--needed", type=int, default=100)
    cmp_em.add_argument("--max-attempts", type=int, default=None,
                        help="default: 20 * needed")
    cmp_em.add_argument("--seed", type=int, default=0)
    cmp_em.add_argument("--standardize", dest="standardize", action="store_true", default=True)
    cmp_em.add_argument("--no-standardize", dest="standardize", action="store_false")
    cmp_em.add_argument("--out", default=None)
    cmp_em.set_defaults(func=_cmd_compare_em)

    xval = sub.add_parser("xval-terrain", help="terrain benefit cross-validation")
    xval.add_argument("--input", required=True, help="sample CSV with terrain columns")
    xval.add_argument("--folds", type=int, default=10)
    xval.add_argument("--repeats", type=int, default=10)
    xval.add_argument("--k", type=float, default=0.3)
    xval.add_argument("--seed", type=int, default=0)
    xval.add_argument("--standardize", dest="standardize", action="store_true", default=True)
    xval.add_argument("--no-standardize", dest="standardize", action="store_false")
    xval.add_argument("--score-training", action="store_true",
                      help="score the training portion instead of the held-out fold")
    xval.add_argument("--out", default=None)
    xval.set_defaults(func=_cmd_xval_terrain)

    gen_inc = sub.add_parser("gen-incline", help="generate a simulated slope run")
    gen_inc.add_argument("--out", required=True)
    gen_inc.add_argument("--slope-deg", type=float, default=18.0)
    gen_inc.add_argument("--reps", type=int, default=5)
    gen_inc.add_argument("--noise-scale", type=float, default=0.02)
    gen_inc.add_argument("--drift-gain", type=float, default=0.5)
    gen_inc.add_argument("--seed", type=int, default=0)
    gen_inc.add_argument("--no-z", action="store_true", help="write without terrain columns")
    gen_inc.set_defaults(func=_cmd_gen_incline)

    gen_gmm = sub.add_parser("gen-gmm", help="sample the built-in 3-component benchmark mixture")
    gen_gmm.add_argument("--out", required=True)
    gen_gmm.add_argument("--n", type=int, default=500)
    gen_gmm.add_argument("--seed", type=int, default=0)
    gen_gmm.set_defaults(func=_cmd_gen_gmm)

    return p


def _invocation(args: argparse.Namespace, argv: list[str]) -> dict:
    doc = {"subcommand": args.subcommand, "argv": list(argv)}
    if hasattr(args, "seed"):
        doc["seed"] = args.seed
    return doc


def _write_report(report, args) -> None:
    text = report.to_json(args.invocation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        tsv_path = os.path.splitext(args.out)[0] + ".tsv"
        with open(tsv_path, "w", encoding="utf-8") as f:
            f.write(report.to_tsv(args.invocation))
        print(f"report: {args.out}\ntable: {tsv_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_fit(args) -> int:
    records = load_samples(args.input)
    if args.no_z:
        records = datasets.strip_z(records)
    rng = np.random.default_rng(args.seed)
    mm = evaluation.fit_motion_model(records, args.k, rng, standardize=args.standardize)
    mm.save(args.out, invocation=args.invocation)
    print(f"model: {args.out} ({len(records)} samples, {len(mm.models)} commands)",
          file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    mm = MotionModel.load(args.model)
    command = CommandKey.parse(args.command)
    x = _float_list(args.x)
    if len(x) != mm.x_dim:
        raise ValueError(f"--x needs {mm.x_dim} components, got {len(x)}")
    if mm.augmented:
        if args.z is None:
            raise ValueError("model is terrain-augmented: --z pitch,roll is required")
        z = _float_list(args.z)
        if len(z) != mm.z_dim:
            raise ValueError(f"--z needs {mm.z_dim} components, got {len(z)}")
        value = mm.conditional_density(command, np.array(x), TerrainVector(*z))
    else:
        if args.z is not None:
            raise ValueError("model has no terrain block: --z is not applicable")
        value = mm.motion_density(command, np.array(x))
    print(repr(value))
    return 0


def _cmd_sweep_k(args) -> int:
    points = load_points(args.input)
    k_grid = _float_list(args.k_grid)
    report = evaluation.k_sweep(points, k_grid, args.repeats, np.random.default_rng(args.seed))
    _write_report(report, args)
    return 0


def _cmd_compare_em(args) -> int:
    points = load_old_faithful(standardize=False)[0] if args.input is None else load_points(args.input)
    if args.standardize:
        points = Standardizer.fit(points).transform(points)
    max_attempts = args.max_attempts if args.max_attempts is not None else 20 * args.needed
    report = evaluation.mise_experiment(
        points, args.k, args.target_m, args.needed, max_attempts,
        np.random.default_rng(args.seed),
    )
    _write_report(report, args)
    return 0


def _cmd_xval_terrain(args) -> int:
    records = load_samples(args.input)
    report = evaluation.terrain_comparison(
        records, args.folds, args.repeats, args.k,
        np.random.default_rng(args.seed),
        standardize=args.standardize, score_training=args.score_training,
    )
    _write_report(report, args)
    return 0


def _cmd_gen_incline(args) -> int:
    cfg = InclineConfig(
        slope_deg=args.slope_deg,
        reps_per_orientation=args.reps,
        noise_scale=args.noise_scale,
        drift_gain=args.drift_gain,
        seed=args.seed,
    )
    records = datasets.simulate_incline(cfg)
    if args.no_z:
        records = datasets.strip_z(records)
    datasets.write_samples(args.out, records, comment=json.dumps(args.invocation))
    meta = datasets.incline_metadata(cfg)
    meta["invocation"] = args.invocation
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")
    print(f"samples: {args.out} ({len(records)} records)\nmetadata: {meta_path}",
          file=sys.stderr)
    return 0


def _cmd_gen_gmm(args) -> int:
    gmm = datasets.three_component_benchmark()
    points = datasets.sample_gmm(gmm, args.n, np.random.default_rng(args.seed))
    datasets.write_points(args.out, points, comment=json.dumps(args.invocation))
    print(f"points: {args.out} ({args.n} rows)", file=sys.stderr)
    return 0


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    args.invocation = _invocation(args, argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, TerrainSupportError, np.linalg.LinAlgError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
