"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this interpreter and passes the monotonic time just before
it did so, so ``setup_s`` covers interpreter start, imports, input
generation and one untimed warm-up op. With ``--setup-only`` the process
stops there and records only its set-up, so ``run.py`` can set up several
times in one run. A process per workload keeps
``peak_rss_mb`` (``ru_maxrss`` never decreases) and OpenBLAS's first-call
cost with the workload that pays them.

Ops run in a closed loop, one client: the next op starts when the previous
one returns, until the ops' summed wall time reaches ``--seconds``. Output
checks and the host-speed probes (``probe.py``) run between ops, outside the
timed region: after each op, one probe sample per ``PROBE_EVERY_S`` of it,
at least one; ``SETUP_PROBES`` samples follow the set-up. Each op's times
are divided by the slowness of the samples just before and just after it.
With ``--trace 1`` the ops alternate untraced and traced, so both halves
see the same drift of the host's speed; the difference of their median op
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 5
PROBE_EVERY_S = 2.0
REFERENCE = BENCH_DIR / "reference.json"

# the package is imported from this checkout's sources, never an installed copy
sys.path.insert(0, str(SRC))
import bbgky_zne  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True, help="time.perf_counter() at launch")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop after the warm-up op")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs ops, checks their outputs and keeps the tallies."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gains: dict[str, list[float]] = {"Q": [], "P": []}

    def probe(self, count: int) -> list[dict[str, float]]:
        return [probe.measure(self.workload.probe) for _ in range(count)]

    def one(self, index: int) -> tuple[float, float]:
        """Run op ``index``; return its wall and CPU seconds."""
        self.workload.before_op(index)
        # a CLI user's process starts with a clean heap; so does every op
        gc.collect()
        result, error = None, None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.begin_op(index)
        try:
            result = self.workload.op(index)
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            if self.tracer is not None:
                self.tracer.end_op()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        self.attempted += 1
        failures = [f"op raised: {error}"] if error else self.inspect(index, result)
        self.failed += bool(failures)
        self.failures.extend(f"op {index}: {f}" for f in failures)
        return wall, cpu

    def inspect(self, index: int, result) -> list[str]:
        try:
            found = self.workload.inspect(index, result)
        except Exception:
            return [f"inspection raised: {traceback.format_exc(limit=3)}"]
        failures = list(found.failures)
        key = str(index % workloads.POOL)
        if self.reference is not None and key in self.reference:
            failures += checks.matches_reference(found.values, self.reference[key])
        for name in self.gains:
            zne = sum(cell[name][0] for cell in found.cells)
            bbgky = sum(cell[name][1] for cell in found.cells)
            if zne:
                self.gains[name].append(1.0 - bbgky / zne)
        return failures

    def timed(
        self, first: int, seconds: float, tracer: tracing.Tracer | None = None
    ) -> tuple[dict[int, tuple[float, float]], set[int], dict[int, list[dict[str, float]]]]:
        """Closed loop until the ops' summed wall time reaches ``seconds``.

        Returns, by op index, each op's (wall, CPU) seconds and the probe
        samples taken just after it, and the indices of the traced ops;
        each kind of op runs once at the least. With a tracer every second
        op is traced: the wrappers are installed just before it and removed
        just after it, outside its timing.
        """
        samples: dict[int, tuple[float, float]] = {}
        probes: dict[int, list[dict[str, float]]] = {}
        traced: set[int] = set()
        index, total = first, 0.0
        while total < seconds or len(samples) == len(traced) or (tracer is not None and not traced):
            if tracer is not None and (index - first) % 2:
                self.tracer = tracer
                restore = tracing.install(tracer)
                try:
                    samples[index] = self.one(index)
                finally:
                    restore()
                    self.tracer = None
                traced.add(index)
            else:
                samples[index] = self.one(index)
            probes[index] = self.probe(max(1, round(samples[index][0] / PROBE_EVERY_S)))
            total += samples[index][0]
            index += 1
        return samples, traced, probes


def blas_info() -> dict:
    """OpenBLAS's configuration and thread count, asked from the loaded library."""
    info: dict = {"name": None, "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    return info
    return info


def environment(seed: int) -> dict:
    def first_line(path: str, key: str) -> str | None:
        try:
            with open(path) as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram": first_line("/proc/meminfo", "MemTotal"),
        "seed": seed,
    }


def op_slowness(weights: dict[str, float], probes: dict[int, list[dict[str, float]]]) -> dict[int, float]:
    """Slowness of the host around each op, from the probe samples taken
    just before it (after the op before, or after the set-up for the first)
    and just after it."""
    first = min(probes)
    return {i: probe.slowness(weights, probes[i - 1] + probes[i]) for i in probes if i > first}


def end_to_end(samples, setup_s: float) -> dict:
    walls = [w for w, _ in samples]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s_per_op": {"value": sum(c for _, c in samples) / len(samples), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def per_layer(tracer, workload, samples: dict, traced: set[int], slowness: dict[int, float]) -> dict:
    """Self times and counts of the traced ops; times at nominal host speed."""
    ops = sorted(traced)
    by_op = tracing.self_time_per_op(tracer.spans)
    metrics = {
        name: {"value": statistics.median(by_op[op].get(name, 0.0) / slowness[op] for op in ops), "unit": "s"}
        for name in tracing.SPAN_NAMES
    }
    traced_p50 = statistics.median(samples[op][0] / slowness[op] for op in ops)
    untraced_p50 = statistics.median(w / slowness[i] for i, (w, _) in samples.items() if i not in traced)
    metrics["trace.op_s_p50"] = {"value": traced_p50, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_p50 - untraced_p50, "unit": "s"}
    counted = [{name: tracer.counts.get((op, name), 0) for name in tracing.COUNTERS} for op in ops]
    computed = [workload.counts(op) for op in ops]
    for name in tracing.COUNTERS:
        metrics[name] = {"value": statistics.median_low(c[name] for c in counted), "unit": "bytes"}
    for name in workloads.COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = {"value": statistics.median_low(c[name] for c in computed), "unit": unit, "computed": True}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(bbgky_zne.__file__).resolve().parent != SRC / "bbgky_zne":
        raise SystemExit(f"bbgky_zne imported from {bbgky_zne.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    runner = Runner(workload, reference)

    workload.prepare()
    runner.one(0)
    setup_s = time.perf_counter() - args.started
    setup_probes = runner.probe(SETUP_PROBES)
    if args.setup_only:
        record = {
            "setup_s": setup_s,
            "setup_probes": setup_probes,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
        }
        args.result.write_text(json.dumps(record) + "\n")
        return 0

    tracer = tracing.Tracer() if args.trace else None
    samples, traced, probes = runner.timed(1, args.seconds, tracer)
    probes[0] = setup_probes
    slowness = op_slowness(workload.probe, probes)
    untraced = [i for i in samples if i not in traced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(untraced),
        "op_s": [samples[i][0] for i in untraced],
        "op_slowness": [slowness[i] for i in untraced],
        # set-up times are scaled by run.py, which sees every set-up
        "metrics": end_to_end([[t / slowness[i] for t in samples[i]] for i in untraced], setup_s),
        "raw_metrics": end_to_end([samples[i] for i in untraced], setup_s),
    }
    if tracer is not None:
        record["traced_op_s"] = [samples[i][0] for i in sorted(traced)]
        record["per_layer"] = per_layer(tracer, workload, samples, traced, slowness)
        args.spans.write_text(json.dumps(tracer.to_json()))
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        fail_frac=runner.failed / runner.attempted,
        failures=runner.failures[:20],
        gain_Q=statistics.median(runner.gains["Q"]) if runner.gains["Q"] else None,
        gain_P=statistics.median(runner.gains["P"]) if runner.gains["P"] else None,
        environment=environment(args.seed),
        probe_weights=workload.probe,
        setup_probes=setup_probes,
        probes=[probes[i] for i in sorted(probes)],
    )
    args.result.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
