"""Benchmark for dgmm: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/`` directory, never from anywhere else.  With ``--trace 0`` the run
warms the workload up, then runs jobs until ``--seconds`` have passed (and
at least the workload's quality jobs), and reports the end-to-end metrics
listed in BENCHMARK.json.  Every job is timed between two slices of the
reference loop in ``reference.py``, and its times are calibrated by the
loop's speed around it.  Set-up is timed afterwards in fresh interpreters,
several times.  With ``--trace 1`` it runs job 0 untraced and then traced
until ``--seconds`` have passed, checks that both give the same outputs,
and reports the per-layer metrics.  Every job's outputs are checked.  A
readable report comes first, with the raw times next to the calibrated
ones; the last line of standard output is the JSON result.  The full
result, and the spans of a traced run, are written to ``bench/out/``.
"""

import os
import time

_START = time.perf_counter()

# Matrices here are at most 8 x 8, so BLAS threads never help; with two
# threads an idle OpenBLAS worker spins on the second core (172% CPU for
# one stream on a 2-core machine).  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5
SETUP_PROBE_TIMEOUT_S = 120


def import_library():
    """Import dgmm from this checkout's src/ and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "dgmm", "__init__.py")):
        raise SystemExit(f"error: no dgmm package under {SRC}")
    sys.path.insert(0, SRC)
    import dgmm

    if os.path.dirname(os.path.dirname(os.path.abspath(dgmm.__file__))) != SRC:
        raise SystemExit(f"error: dgmm was imported from {dgmm.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time import, set-up and warm-up in this fresh interpreter
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_probe and (args.seconds is None or args.seconds <= 0):
        p.error("--seconds must be given and positive")
    return args


class StepTimer:
    """Times every DynamicGaussianMixture.add_sample call: the per-sample
    step of the batch workloads.  It reads the clock, and after each call
    runs `between` (which takes a reference slice when one is due)."""

    def __init__(self, cls, between):
        self.cls = cls
        self.orig = cls.__dict__["add_sample"]
        self.between = between
        self.starts_ns: list[int] = []
        self.ns: list[int] = []

    def __enter__(self):
        orig, starts, ns, between = self.orig, self.starts_ns, self.ns, self.between

        def add_sample(mix, *args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return orig(mix, *args, **kwargs)
            finally:
                starts.append(t0)
                ns.append(perf_counter_ns() - t0)
                between()

        self.cls.add_sample = add_sample
        return self

    def __exit__(self, *exc):
        self.cls.add_sample = self.orig

    def take(self):
        """Start times and durations (ns) since the last take, as arrays;
        the lists are emptied so that memory does not grow with the run."""
        starts, ns = np.array(self.starts_ns), np.array(self.ns)
        self.starts_ns.clear()
        self.ns.clear()
        return starts, ns


class Tally:
    """Operations attempted and failed, with the labels of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def add(self, label: str, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures[label] = self.failures.get(label, 0) + failed

    def check_job(self, wl, out):
        for label, ok in wl.check(out):
            self.add(label, 1, 0 if ok else 1)
        self.add(*wl.operations(out))


def run_job(wl, j, tally):
    """Run job j; returns (outputs or None if it raised, seconds)."""
    t0 = perf_counter()
    try:
        out = wl.job(j)
    except Exception:
        traceback.print_exc()
        tally.add("job raised", 1, 1)
        return None, perf_counter() - t0
    dt = perf_counter() - t0
    tally.add("job", 1, 0)
    return out, dt


def setup_probe(args):
    """Child side of `set_up_fresh`: import, set-up and warm-up, as a user
    pays them when a process starts."""
    import_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.warm_up()
    setup_s = perf_counter() - _START
    print(json.dumps({"setup_s": setup_s}))


def set_up_fresh(workload, seed):
    """Raw and calibrated set-up times of SETUP_REPEATS fresh interpreters,
    each between two reference slices taken here."""
    import reference

    raw, calibrated, speeds = [], [], [reference.speed()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        speeds.append(reference.speed())
        raw.append(probe["setup_s"])
        calibrated.append(probe["setup_s"] * (speeds[-2] + speeds[-1]) / 2 / reference.NOMINAL_RATE)
    return raw, calibrated


def measure(wl, args):
    from dgmm.mixture import DynamicGaussianMixture
    import reference

    wl.setup(args.seed)
    wl.warm_up()
    tally = Tally()
    cal = reference.Calibrator()
    wl.between_steps = cal.tick
    timer = StepTimer(DynamicGaussianMixture, cal.tick) if wl.step == "add_sample" else None
    outputs, job_raw, job_cal, samples, step_raw, step_cal = [], [], [], 0, [], []
    start = perf_counter()
    j = 0
    with timer or contextlib.nullcontext():
        while j < wl.quality_jobs or perf_counter() - start < args.seconds:
            a = perf_counter_ns()
            out, _ = run_job(wl, j, tally)
            b = perf_counter_ns()
            cal.slice()
            if out is not None:
                raw_s, cal_s = cal.span(a, b)
                job_raw.append(raw_s)
                job_cal.append(cal_s)
                samples += wl.samples(out)
                starts, ns = timer.take() if timer else (out.starts_ns, out.latencies_ns)
                lat = np.asarray(ns, dtype=float) / 1e3
                step_raw.append(lat)
                step_cal.append(lat * cal.factors(starts))
                tally.check_job(wl, out)
                if j < wl.quality_jobs:
                    outputs.append(out)
            elif timer:
                timer.take()
            j += 1
    wl.between_steps = None
    if not job_raw:
        raise SystemExit("error: every job failed")
    # peak memory of the jobs, read before the set-up probes start children
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_raw, setup_cal = set_up_fresh(wl.name, args.seed)

    def per_job_median(q, steps):
        """Median over jobs of each job's q-th step-latency percentile: a
        burst of machine noise moves one job's tail, not the run's."""
        return statistics.median(float(np.percentile(s, q)) for s in steps)

    metrics = {
        "setup_s": (statistics.median(setup_cal), "s"),
        "job_s": (statistics.median(job_cal), "s"),
        "samples_per_s": (samples / sum(job_cal), "1/s"),
        "step_p50_us": (per_job_median(50, step_cal), "us"),
        "step_p99_us": (per_job_median(99, step_cal), "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    metrics.update(wl.quality(outputs))
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "failed/attempted")
    metrics.update({
        "raw.setup_s": (statistics.median(setup_raw), "s"),
        "raw.job_s": (statistics.median(job_raw), "s"),
        "raw.samples_per_s": (samples / sum(job_raw), "1/s"),
        "raw.step_p50_us": (per_job_median(50, step_raw), "us"),
        "raw.step_p99_us": (per_job_median(99, step_raw), "us"),
        "reference.speed": (statistics.median(cal.speeds), "units/s"),
        "reference.slices": (len(cal.speeds), "count"),
    })
    detail = {
        "jobs": j, "job_s": {"raw": job_raw, "calibrated": job_cal}, "samples": samples,
        "reference_speeds": cal.speeds, "steps_timed": [len(s) for s in step_raw], "step": wl.step,
        "setup_s": {"raw": setup_raw, "calibrated": setup_cal},
        "workload": wl.describe(outputs),
    }
    return metrics, tally, detail


def measure_traced(wl, args):
    """Job 0 untraced then traced, repeated until --seconds have passed.
    The per-layer metrics and the spans written out come from the first
    traced pass; the overhead is the median traced time minus the median
    untraced time."""
    from tracer import SETUP_JOB, Tracer, per_layer_metrics

    first = Tracer()
    first.job = SETUP_JOB
    first.install()
    try:
        wl.setup(args.seed)
    finally:
        first.uninstall()
    wl.warm_up()
    tally = Tally()
    plain_times, traced_times = [], []
    start = perf_counter()
    while not traced_times or perf_counter() - start < args.seconds:
        plain, plain_s = run_job(wl, 0, tally)
        tracer = first if not traced_times else Tracer()
        tracer.job = 0
        tracer.install()
        try:
            traced, traced_s = run_job(wl, 0, tally)
        finally:
            tracer.uninstall()
        tracer.end_job()
        same = (plain is not None and traced is not None
                and wl.fingerprint(plain) == wl.fingerprint(traced))
        tally.add("traced outputs == untraced outputs", 1, 0 if same else 1)
        if traced is not None:
            tally.check_job(wl, traced)
        plain_times.append(plain_s)
        traced_times.append(traced_s)
    metrics = per_layer_metrics(first, 0, traced_times[0])
    metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(plain_times), "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.tsv")
    first.write(spans_path)
    detail = {"untraced_job_s": plain_times, "traced_job_s": traced_times, "spans": len(first.spans),
              "spans_file": os.path.relpath(spans_path, ROOT),
              "final_m": {"min": min(first.final_m, default=0), "max": max(first.final_m, default=0)}}
    return metrics, tally, detail


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads():
    """Thread count of every loaded OpenBLAS, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        metrics, tally, detail = measure_traced(wl, args)
        listed = spec["per_layer"]
    else:
        metrics, tally, detail = measure(wl, args)
        listed = spec["end_to_end"]

    print(f"dgmm benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for label, n in tally.failures.items():
        print(f"  FAILED {n}x: {label}")

    result_metrics = {}
    for m in listed:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"error: metric {m['name']} has unit {unit}, BENCHMARK.json says {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": unit}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment(),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures, "detail": detail}, f, indent=1)
        f.write("\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
