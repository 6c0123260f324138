"""Host-speed probes: fixed work owned by the benchmark, not by the program.

The CPU share a shared host gives this benchmark drifts: runs of the same
code minutes apart differ by up to 1.5x, in wall and in CPU time alike,
and longer runs do not average it away. So probes run between the ops and
after each set-up, outside the timing, and each op's times (``worker.py``)
and the set-up time (``run.py``) are divided by the slowness of the probe
samples taken around them

    slowness = sum(weight[kind] * mean(probe times of kind) / NOMINAL_S[kind])

A time then reads in seconds of a host on which each probe takes its
``NOMINAL_S``. The weights of a workload follow where its ops spend their
time (``workloads.Workload.probe``). The probes do not call the program,
so a change to the program moves the reported times and leaves the
slowness alone; the raw times stay in the record.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# mean probe times in a worker on the 2-core Intel Xeon (SkylakeX OpenBLAS,
# 2 threads) the benchmark was written on; they only fix the scale
NOMINAL_S = {"python": 0.03, "blas": 0.16}


def _python() -> None:
    """Interpreter-bound work like building a networkx graph: tuples and
    dicts. The tables are small (~0.3 MB): a 15k-entry one added 2 MB to
    the scan's ``peak_rss_mb``."""
    for _ in range(50):
        table = {}
        for i in range(3_000):
            table[(i, i * 7 % 1013)] = i
        total = 0
        for key, value in table.items():
            total += key[1] ^ value


def _blas() -> None:
    """LAPACK/BLAS-bound work: the pinv of a matrix of one radius-0, n=4
    cell's shape (the smaller pinv of 600x400 tracked the scan worse)."""
    np.linalg.pinv(np.random.default_rng(0).standard_normal((884, 600)))


PROBES = {"python": _python, "blas": _blas}


def measure(kinds) -> dict[str, float]:
    """Time one run of each probe kind. The collector runs first and is off
    during the probes, so the program's heap does not change what a probe
    costs."""
    times = {}
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in kinds:
            t0 = time.perf_counter()
            PROBES[kind]()
            times[kind] = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return times


def slowness(weights: dict[str, float], samples: list[dict[str, float]]) -> float:
    """The host's slowness over the samples; 1 on the nominal host. The
    mean, as a speed that flips within a run weighs on the ops by time."""
    return sum(
        weight * statistics.fmean(s[kind] for s in samples) / NOMINAL_S[kind]
        for kind, weight in weights.items()
    )
