"""Record the default-seed output values that later runs are checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs every pool input of each workload once at the default seed, checks it,
and writes the values each workload's ``inspect`` reports to
``perfbench/reference.json``. Record them only from a commit whose outputs
are known to be right: the file is what a changed answer is caught by.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    reference = json.loads(worker.REFERENCE.read_text()) if worker.REFERENCE.is_file() else {}
    scratch = worker.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload = workloads.WORKLOADS[name](worker.DEFAULT_SEED, Path(tmp))
            workload.prepare()
            values = {}
            for index in range(workloads.POOL):
                workload.before_op(index)
                found = workload.inspect(index, workload.op(index))
                if found.failures:
                    print(f"{name} input {index}: {found.failures}", file=sys.stderr)
                    return 1
                values[str(index)] = found.values
            reference[name] = values
            print(f"recorded {name}", file=sys.stderr)
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
