"""Timing wrappers around the public functions of each dgmm layer.

The wrappers are installed from outside the library.  A module-level
function is replaced in every loaded ``dgmm`` module that holds it, so a
name another module imported with ``from ... import`` is wrapped where it
is looked up (``dgmm.mixture.merge_into``, ``dgmm.evaluation.em_fit``,
``ensure_positive_definite`` in both ``dgmm.mixture`` and ``dgmm.em``, ...).
Methods are wrapped on their class.

Each call becomes one span: (name, start ns, end ns, parent span index,
job id).  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
The wrappers read the clock and touch no random generator, so a traced
job computes exactly what the untraced job computes.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (module, class) -> wrapped methods
METHODS = {
    ("dgmm.gaussian", "Gaussian"): ("density", "log_density", "marginal", "conditional"),
    ("dgmm.mixture", "DynamicGaussianMixture"): (
        "add_sample", "density", "normalized_density", "select_component",
    ),
    ("dgmm.motion", "MotionModel"): (
        "record_sample", "motion_density", "conditional_motion_density",
        "conditional_density", "log_density",
    ),
}

# module -> wrapped module-level functions
FUNCTIONS = {
    "dgmm.gaussian": ("ensure_positive_definite",),
    "dgmm.mixture": ("merge_into",),
    "dgmm.em": ("em_fit", "mise", "support_grid"),
    "dgmm.evaluation": (
        "stratified_kfold", "fit_motion_model", "k_sweep", "mise_experiment",
        "terrain_comparison",
    ),
    "dgmm.datasets": ("load_old_faithful", "sample_gmm", "simulate_incline"),
}

LAYERS = ("gaussian", "mixture", "motion", "em", "evaluation", "datasets")

SETUP_JOB = -1


class Tracer:
    """Span recorder plus the few counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list = []          # (name, t0, t1, parent, job)
        self.add_sample_shape: dict[int, tuple[int, int]] = {}  # span -> (D, m before)
        self.em_iterations: dict[int, int] = {}                 # span -> iterations
        self.counts: Counter = Counter()                        # (job, what) -> n
        self.final_m: list[int] = []
        self._last_m: dict[int, int] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.job = SETUP_JOB

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            layer = mod_name.split(".")[1]
            for name in names:
                orig = cls.__dict__[name]
                self._set(cls, name, self._wrap(f"{layer}.{name}", orig), orig)
            if cls_name == "Gaussian":
                self._set(cls, "__init__", self._count_init(cls.__dict__["__init__"]),
                          cls.__dict__["__init__"])
        dgmm_modules = [m for n, m in sys.modules.items() if n == "dgmm" or n.startswith("dgmm.")]
        for mod_name, names in FUNCTIONS.items():
            layer = mod_name.split(".")[1]
            for name in names:
                orig = getattr(sys.modules[mod_name], name)
                wrapped = self._wrap(f"{layer}.{name}", orig)
                for mod in dgmm_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped, orig)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _set(self, owner, attr, wrapped, orig) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def _count_init(self, init):
        counts = self.counts

        def __init__(g, *args, **kwargs):
            counts[self.job, "gaussian.constructed"] += 1
            init(g, *args, **kwargs)

        return __init__

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_add_sample = name == "mixture.add_sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if is_add_sample:
                mix = args[0]
                m_before = len(mix)
                self.add_sample_shape[idx] = (mix.dim, m_before)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[self.job, f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if is_add_sample:
                self._track_components(mix, m_before)
            elif name == "gaussian.ensure_positive_definite" and result is not args[0]:
                self.counts[self.job, "gaussian.regularized"] += 1
            elif name == "em.em_fit":
                self.em_iterations[idx] = len(result.loglik_path)
            return result

        return wrapper

    def _track_components(self, mix, m_before: int) -> None:
        """Remember each mixture's latest size; a mixture seen with m = 0 is
        new, so whatever last held its id has ended."""
        key = id(mix)
        if m_before == 0 and key in self._last_m:
            self.final_m.append(self._last_m.pop(key))
        self._last_m[key] = len(mix)

    def end_job(self) -> None:
        self.final_m.extend(self._last_m.values())
        self._last_m.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """One span per line: name, start ns, end ns, parent index, job."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for name, t0, t1, parent, job in self.spans:
                f.write(f"{name}\t{t0}\t{t1}\t{parent}\t{job}\n")

    def self_times(self) -> np.ndarray:
        """Self time of every span, in ns."""
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.int64)
        covered = np.zeros_like(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        return dur - covered


def per_layer_metrics(tracer: Tracer, job: int, job_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job (datasets: of the traced set-up)."""
    selfs = tracer.self_times()
    durs: dict[str, list[int]] = {}
    self_by_name: dict[str, list[int]] = {}
    busy_ns = Counter()
    top_ns = 0
    add_sample_buckets: dict[str, list[int]] = {}
    for i, (name, t0, t1, parent, span_job) in enumerate(tracer.spans):
        layer = name.split(".")[0]
        if span_job != job and not (layer == "datasets" and span_job == SETUP_JOB):
            continue
        durs.setdefault(name, []).append(t1 - t0)
        self_by_name.setdefault(name, []).append(int(selfs[i]))
        busy_ns[layer] += int(selfs[i])
        if span_job == job and parent < 0:
            top_ns += t1 - t0
        if name == "mixture.add_sample":
            add_sample_buckets.setdefault(_bucket(*tracer.add_sample_shape[i]), []).append(t1 - t0)

    def p50(values, scale):
        return float(np.median(values)) / scale if values else 0.0

    us, ms = 1e3, 1e6
    add_calls = len(durs.get("mixture.add_sample", []))
    m = {}
    m["mixture.add_sample.us"] = (p50(durs.get("mixture.add_sample"), us), "us")
    for bucket in ("d2.m1-4", "d2.m5-16", "d2.m17plus", "d6", "d8"):
        m[f"mixture.add_sample.{bucket}.us"] = (p50(add_sample_buckets.get(bucket), us), "us")
    m["mixture.add_sample.calls"] = (add_calls, "count")
    m["mixture.normalized_density.self_us"] = (p50(self_by_name.get("mixture.normalized_density"), us), "us")
    for name in ("density", "select_component", "merge_into"):
        m[f"mixture.{name}.us"] = (p50(durs.get(f"mixture.{name}"), us), "us")
    merges = len(durs.get("mixture.merge_into", []))
    m["mixture.merge_ratio"] = (merges / add_calls if add_calls else 0.0, "ratio")
    final_m = tracer.final_m
    m["mixture.components.mean"] = (float(np.mean(final_m)) if final_m else 0.0, "count")
    m["mixture.components.max"] = (max(final_m, default=0), "count")
    constructed = tracer.counts[job, "gaussian.constructed"]
    m["gaussian.constructed_per_sample"] = (constructed / add_calls if add_calls else 0.0, "ratio")
    m["gaussian.regularized"] = (tracer.counts[job, "gaussian.regularized"], "count")
    m["gaussian.epd_calls"] = (len(durs.get("gaussian.ensure_positive_definite", [])), "count")
    for name in ("conditional", "marginal"):
        m[f"gaussian.{name}.us"] = (p50(durs.get(f"gaussian.{name}"), us), "us")
    for name in ("record_sample", "conditional_motion_density", "conditional_density", "log_density"):
        m[f"motion.{name}.us"] = (p50(durs.get(f"motion.{name}"), us), "us")
    m["motion.support_errors"] = (
        tracer.counts[job, "motion.conditional_motion_density.raised.TerrainSupportError"], "count")
    m["em.em_fit.ms"] = (p50(durs.get("em.em_fit"), ms), "ms")
    iterations = [n for i, n in tracer.em_iterations.items() if tracer.spans[i][4] == job]
    m["em.em_fit.iterations"] = (sum(iterations), "count")
    m["em.mise.ms"] = (p50(durs.get("em.mise"), ms), "ms")
    m["evaluation.fit_motion_model.ms"] = (p50(durs.get("evaluation.fit_motion_model"), ms), "ms")
    for name in ("mise_experiment", "k_sweep", "terrain_comparison"):
        m[f"evaluation.{name}.self_ms"] = (sum(self_by_name.get(f"evaluation.{name}", [])) / ms, "ms")
    for name in ("load_old_faithful", "sample_gmm", "simulate_incline"):
        m[f"datasets.{name}.ms"] = (p50(durs.get(f"datasets.{name}"), ms), "ms")
    for layer in LAYERS:
        m[f"{layer}.busy_ms"] = (busy_ns[layer] / ms, "ms")
    m["harness.busy_ms"] = (max(job_wall_s * 1e3 - top_ns / ms, 0.0), "ms")
    return m


def _bucket(dim: int, m: int) -> str:
    if dim != 2:
        return f"d{dim}"
    if m <= 4:
        return "d2.m1-4"
    return "d2.m5-16" if m <= 16 else "d2.m17plus"
