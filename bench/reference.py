"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's host is a virtual machine that shares its CPUs with other
tenants.  The same single-threaded job runs up to a third slower for
seconds to minutes at a time, so two runs minutes apart disagree by more
than any useful bound.  A run therefore times short slices of this loop
between its timed steps, and calibrates the work between two slices by
the loop's speed around it:

    calibrated time = raw time * (mean speed of the two slices) / NOMINAL_RATE

A calibrated time is the time the work would have taken had the machine
run this loop at NOMINAL_RATE.  When the machine slows down, the work and
the loop slow down together and the calibrated time stays put.  The loop
does what the library does per sample, with numpy only: Cholesky factors
and their inverses, einsum over four components, exponentials, an outer
product, a log determinant and Python-level bookkeeping, at D = 2 and
D = 8.  It does not import dgmm, so a change to the library never changes
the loop.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

# loop units per second measured on the baseline machine (median of many
# slices); only the scale of the calibrated times depends on it
NOMINAL_RATE = 8000.0
# a slice is SLICE_PARTS parts of PART_UNITS units, about 55 ms at NOMINAL_RATE
SLICE_PARTS = 5
PART_UNITS = 90
# wall time between the end of one slice and the next slice
SLICE_EVERY_S = 0.5


def _fixed_inputs(dim: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, dim, dim))
    covs = a @ a.transpose(0, 2, 1) + dim * np.eye(dim)
    return rng.standard_normal((m, dim)), covs, rng.standard_normal(dim)


_CASES = [_fixed_inputs(2, 4, 1), _fixed_inputs(8, 4, 2)]


def _unit() -> float:
    total = 0.0
    for means, covs, x in _CASES:
        l_inv = np.linalg.inv(np.linalg.cholesky(covs))
        diff = x[None, :] - means
        y = np.einsum("mij,mj->mi", l_inv, diff)
        log_dens = -0.5 * np.einsum("mi,mi->m", y, y) + np.log(np.diagonal(l_inv, axis1=1, axis2=2)).sum(1)
        w = np.exp(log_dens - log_dens.max())
        i = int(np.argmax(w))
        moved = covs[i] + np.outer(x - means[i], x - means[i]) / (2.0 + i)
        total += float(w.sum()) + float(np.linalg.slogdet(moved)[1])
        book = {}
        for j, v in enumerate(w.tolist()):
            book[j] = book.get(j, 0.0) + v * j
        total += sum(book.values())
    return total


def speed() -> float:
    """Reference-loop units per second over one slice: the median over its
    parts, so a pause of a few milliseconds does not set the speed of a
    whole stretch.  The garbage collector is held off during the slice; the
    loop makes no reference cycles, and a collection of the caller's heap
    is not the machine's speed."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rates = []
        for _ in range(SLICE_PARTS):
            t0 = perf_counter()
            for _ in range(PART_UNITS):
                _unit()
            rates.append(PART_UNITS / (perf_counter() - t0))
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(rates)


class Calibrator:
    """Reference slices taken through a timed phase, and the calibration of
    the time between them.  `slice` takes a slice at once; `tick` takes one
    when SLICE_EVERY_S have passed since the last one ended.  Call them only
    between timed steps, never inside one."""

    def __init__(self):
        self.starts: list[int] = []   # ns
        self.ends: list[int] = []     # ns
        self.speeds: list[float] = []
        self.slice()

    def slice(self) -> None:
        t0 = perf_counter_ns()
        s = speed()
        self.starts.append(t0)
        self.ends.append(perf_counter_ns())
        self.speeds.append(s)

    def tick(self) -> None:
        if perf_counter_ns() - self.ends[-1] >= SLICE_EVERY_S * 1e9:
            self.slice()

    def factors(self, t_ns) -> np.ndarray:
        """Calibration factor at each time of `t_ns`: the mean speed of the
        slices just before and just after it, over NOMINAL_RATE."""
        i = np.searchsorted(np.asarray(self.ends), np.asarray(t_ns), side="right")
        speeds = np.asarray(self.speeds)
        return (speeds[i - 1] + speeds[i]) / (2.0 * NOMINAL_RATE)

    def span(self, a_ns: int, b_ns: int) -> tuple[float, float]:
        """Raw and calibrated seconds of [a_ns, b_ns], slices left out.
        A slice must have ended before a_ns and another begun after b_ns."""
        raw = cal = 0.0
        for g in range(1, len(self.ends)):
            lo, hi = max(a_ns, self.ends[g - 1]), min(b_ns, self.starts[g])
            if hi > lo:
                raw += hi - lo
                cal += (hi - lo) * (self.speeds[g - 1] + self.speeds[g]) / (2.0 * NOMINAL_RATE)
        return raw / 1e9, cal / 1e9
