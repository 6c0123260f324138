"""Benchmark of the bbgky_zne pipeline: one run of one workload.

    python3 perfbench/run.py --workload scan_n4_r0 --seed 1 --seconds 10 --trace 0

Sets the workload up ``SETUPS`` times, each in a fresh interpreter
(``worker.py``); the last of them goes on to the timed ops. ``setup_s`` is
the median of the set-ups, divided by the host's slowness that the probes
of ``probe.py`` measured after them (the worker scales the op times the
same way). Then prints the run's full record (environment, samples,
gains, failures) as one JSON line and, as the last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Records and
traced spans are kept under ``.bench_out/``. Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("scan_n4_r0", "mitigate_n4_r1", "cell_n8_r0", "hierarchy_n6_r1")
SETUPS = 3
TIMEOUT_S = 175


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker (subprocess.run does
    # so on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "bbgky_zne" / "__init__.py").is_file():
        print(f"no bbgky_zne sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{stem}"
    result = OUT / f"{stem}.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    result.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work-dir={work_dir}",
        f"--result={result}",
        f"--spans={OUT / f'{stem}-spans.json'}",
    ]
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    try:
        for k in range(SETUPS):
            last = k == SETUPS - 1
            # the CLI's "wrote ..." lines would otherwise precede the result lines
            code = subprocess.run(
                command + [f"--started={time.perf_counter()!r}"] + ([] if last else ["--setup-only"]),
                stdout=subprocess.DEVNULL,
                timeout=deadline - time.monotonic(),
            ).returncode
            if code != 0 or not result.is_file():
                print(f"worker exited {code} without a result", file=sys.stderr)
                return 1
            if not last:
                setups.append(json.loads(result.read_text()))
                result.unlink()
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = json.loads(result.read_text())
    for r in setups:
        record["attempted"] += r["attempted"]
        record["failed"] += r["failed"]
        record["failures"] += [f"set-up: {f}" for f in r["failures"]]
    record["fail_frac"] = record["failed"] / record["attempted"]
    setups.append({"setup_s": record["raw_metrics"]["setup_s"]["value"], "setup_probes": record["setup_probes"]})
    record["setups_s"] = [r["setup_s"] for r in setups]
    record["setup_slowness"] = probe.slowness(record["probe_weights"], [p for r in setups for p in r["setup_probes"]])
    setup_s = statistics.median(record["setups_s"])
    record["raw_metrics"]["setup_s"]["value"] = setup_s
    record["metrics"]["setup_s"]["value"] = setup_s / record["setup_slowness"]
    result.write_text(json.dumps(record, indent=1) + "\n")
    metrics = record["per_layer"] if args.trace else record["metrics"]
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
