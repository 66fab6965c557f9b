"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload robot-online [--seeds 1-10] [--trace 1]
                            [--write bench/baseline/robot-online.json]
    python3 bench/spread.py --workload robot-online --pair ../parent [--seeds 1-10]

Every run lasts ``run_seconds`` of BENCHMARK.json; runs go one at a time.

The first form runs ``bench/run.py`` once per seed from the root of this
checkout.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.

``--pair`` compares this checkout (the change) with another checkout of
the repository (the parent).  Both must hold the same benchmark code.  For
each seed it runs both, alternating which side goes first, so slow spells
of the machine fall on both sides alike.  For every end-to-end metric it
prints each side's median and quartiles, the median over pairs of
change / parent (oriented so that above 1 is worse), the pairs the change
won, and a verdict:

- ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile distance;
- ``unresolved``: the parent's spread is wider than the bound, and not
  every run of the change beat every run of the parent;
- ``WORSE THAN BOUND``: the median paired ratio is worse than the bound;
- ``within bound`` otherwise.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCH_NAME = os.path.basename(BENCH_DIR)
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, seconds, trace):
    """One run of the benchmark in checkout `root`: (JSON line, full result)."""
    bench = os.path.join(root, BENCH_NAME)
    cmd = [sys.executable, os.path.join(bench, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {root}: seed {seed} exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(bench, "out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as f:
        full = json.load(f)
    return line, full


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    if q2:
        spread = (q3 - q1) / abs(q2)
    else:
        spread = 0.0 if q1 == q3 == 0 else None
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": spread}


def same_benchmark(other):
    """Names of benchmark files that differ between this checkout and `other`."""
    names = ["BENCHMARK.json"] + [os.path.join(BENCH_NAME, n) for n in sorted(os.listdir(BENCH_DIR))
                                  if n.endswith(".py")]
    _, mismatch, errors = filecmp.cmpfiles(ROOT, other, names, shallow=False)
    return mismatch + errors


def spread_runs(args, spec, seeds):
    seconds = spec["run_seconds"]
    listed = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    runs, fulls = [], []
    for seed in seeds:
        result, full = run_once(ROOT, args.workload, seed, seconds, args.trace)
        runs.append(result)
        fulls.append(full)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {"workload": args.workload, "seeds": seeds, "seconds": seconds, "trace": args.trace,
               "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "environment": fulls[-1]["environment"], "metrics": {}, "reported": {}}
    # listed metrics come from the JSON line; the report-only ones from the result files
    for name, m in listed.items():
        s = summarise([r["metrics"][name]["value"] for r in runs])
        s["unit"] = m["unit"]
        summary["metrics"][name] = s
        spread = "n/a" if s["spread"] is None else f"{s['spread']:7.2%}"
        line = f"{name:<40} median {s['median']:>12.6g} {m['unit']:<6} spread {spread:>7}"
        if "bound" in m:
            steady = s["spread"] is not None and s["spread"] <= m["bound"] / 3
            line += f"  bound {m['bound']:.0%}{'' if steady else '  (above bound/3)'}"
        print(line)
    for name, first in fulls[0]["metrics"].items():
        if name not in listed:
            s = summarise([f["metrics"][name]["value"] for f in fulls])
            s["unit"] = first["unit"]
            summary["reported"][name] = s
            spread = "n/a" if s["spread"] is None else f"{s['spread']:7.2%}"
            print(f"{name:<40} median {s['median']:>12.6g} {first['unit']:<6} spread {spread:>7}"
                  "  (reported, not listed)")
    if args.write:
        os.makedirs(os.path.dirname(os.path.abspath(args.write)), exist_ok=True)
        with open(args.write, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, allow_nan=False)
            f.write("\n")
    return summary["correct"]


def verdict(m, parent, change):
    """Verdict of one end-to-end metric over paired runs (see the module doc)."""
    lower = m["better"] == "lower"
    ratios = [c / p if lower else p / c for p, c in zip(parent, change)]
    worse = statistics.median(ratios) - 1.0
    wins = sum(r < 1.0 for r in ratios)
    p, c = summarise(parent), summarise(change)
    gap = p["median"] - c["median"] if lower else c["median"] - p["median"]
    if wins >= 0.9 * len(ratios) and gap > p["q3"] - p["q1"]:
        word = "better"
    elif p["spread"] is None or p["spread"] > m["bound"]:
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        word = "better" if beats_all else "unresolved"
    elif worse > m["bound"]:
        word = "WORSE THAN BOUND"
    else:
        word = "within bound"
    return p, c, worse, wins, word


def paired_runs(args, spec, seeds):
    other = os.path.abspath(args.pair)
    differ = same_benchmark(other)
    if differ:
        raise SystemExit(f"error: the benchmark differs between the checkouts: {', '.join(differ)}")
    seconds = spec["run_seconds"]
    sides = {"parent": other, "change": ROOT}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
    correct = True
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, _ = run_once(sides[side], args.workload, seed, seconds, 0)
            correct = correct and result["correct"]
            for name, v in result["metrics"].items():
                values[side][name].append(v["value"])
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  flush=True)
    print(f"{args.workload}: {len(seeds)} pairs, change / parent oriented so that > 1 is worse")
    for m in spec["end_to_end"]:
        p, c, worse, wins, word = verdict(m, values["parent"][m["name"]], values["change"][m["name"]])
        print(f"  {m['name']:<14} parent {p['median']:>11.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
              f"  change {c['median']:>11.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {m['unit']:<4}"
              f"  worse by {worse:+7.2%}  won {wins}/{len(seeds)}  bound {m['bound']:.0%}  {word}")
    return correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", help="write the summary to this JSON file")
    p.add_argument("--pair", metavar="CHECKOUT", help="alternate runs with this other checkout")
    args = p.parse_args(argv)
    if args.pair and (args.trace or args.write):
        p.error("--pair compares end-to-end metrics only; it takes neither --trace nor --write")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    correct = paired_runs(args, spec, seeds) if args.pair else spread_runs(args, spec, seeds)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
