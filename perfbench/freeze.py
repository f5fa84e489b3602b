"""Record the oracle in expected.json: the expected outcome of every op.

    PYTHONPATH=src python3 perfbench/freeze.py

This was run once, at the commit that introduced the benchmark, and its
output is committed.  Re-running it at a later commit would turn that
commit's behaviour into the oracle, so do not, unless the benchmark itself
changes its ops (and then say so).

Exact ops record their exit status and the sha256 of their stdout.
Sampling ops record their exit status, the exact fields of their json
record (targets, sizes, arguments) and which 4-sigma verdict fields must
read "1"; sampled counts are never recorded, so a change in how the
sampler consumes random numbers is not a failure.

The process lifts CPython's int->str digit limit before running the ops.
Two emit-rows ops (``prop`` at n = 2000 and n = 1800) exceed it and exit 2
in a default interpreter; with the limit lifted they print their full
digits, and those bytes are what the oracle expects.  The benchmark's own
worker never lifts the limit, so the crash counts as a failed op until the
program prints full digits by itself.
"""

import hashlib
import json
import os
import sys

import workloads
from worker import VERDICT_FIELDS, exact_record, run_op

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def freeze() -> dict:
    sys.set_int_max_str_digits(0)
    ops: dict[str, dict] = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, seed=0, pass_index=0, size=size):
                status, out, err, _ = run_op(op)
                if status not in (0, 1):
                    raise SystemExit(f"{op.key}: exit {status}\n{err}")
                if op.sampled:
                    rec = json.loads(out)
                    entry = {"status": status, "fields": exact_record(out),
                             "verdicts": [k for k in VERDICT_FIELDS if k in rec]}
                else:
                    entry = {"status": status,
                             "sha256": hashlib.sha256(out.encode()).hexdigest(),
                             "bytes": len(out.encode())}
                ops.setdefault(op.key, entry)
                print(f"{size:4} {workload:14} {status} {op.key}", file=sys.stderr)
    return ops


if __name__ == "__main__":
    data = {
        "note": "Expected op outcomes, frozen at the commit that added the benchmark; "
                "see freeze.py.",
        "ops": freeze(),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
