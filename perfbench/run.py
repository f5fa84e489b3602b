"""symprop benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the repository root; it needs ``src/symprop`` and numpy, and
builds nothing.  A run repeats passes until ``--seconds`` have elapsed.  A
pass is one fresh Python process (worker.py) that imports symprop from
``src`` and runs every op of the workload in-process, one after another, on
one core.  Each pass's set-up time, wall time, items and peak RSS belong to
that pass alone; the run reports their medians.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus ``trace.overhead_s``, the traced minus the
untraced median wall time; the spans of the last traced pass are written to
``perfbench/out/<workload>.spans.csv``.

Every op is checked against the oracle in ``expected.json``.  ``attempted``
and ``failed`` count ops over all passes of the run; ``correct`` is false
when some op delivered a verdict whose output differs from the oracle (a
crash is a failure, not a wrong answer).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok": "ratio",
}
PER_LAYER = {
    "proportions.self_s": "s",
    "proportions.calls": "count",
    "proportions.row_entries": "count",
    "proportions.row_bits": "bits",
    "proportions.entries_per_s": "1/s",
    "bounds.self_s": "s",
    "bounds.cells": "count",
    "bounds.majorant_m": "count",
    "bounds.cells_per_s": "1/s",
    "divisors.self_s": "s",
    "divisors.sieve_s": "s",
    "divisors.sieve_limit": "count",
    "divisors.quad_n": "count",
    "recognition.self_s": "s",
    "recognition.degrees": "count",
    "sampler.self_s": "s",
    "sampler.draws": "count",
    "sampler.draws_per_s": "1/s",
    "sampler.rss_growth_mb": "MB",
    "reports.self_s": "s",
    "reports.rows": "count",
    "reports.dec6_calls": "count",
    "cli.self_s": "s",
    "cli.ops": "count",
    "cli.errors": "count",
    "cli.stdout_bytes": "bytes",
    "enclosure.calls": "count",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 4  # extra set-ups per run, on top of one per pass
PASS_TIMEOUT_S = 150  # one pass; a full-size pass takes a few seconds
RUN_BUDGET_S = 160  # no new pass starts that could end after this


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def child_env() -> dict[str, str]:
    """The worker's environment: no memo cache, the default int->str digit
    limit, BLAS threads capped at the cores this process may use."""
    env = {k: v for k, v in os.environ.items() if k not in workloads.DEFECT_HIDING_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_pass(workload: str, seed: int, index: int, traced: bool, size: str,
             expected: Path, spans: Path | None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--size", size,
           "--trace", "1" if traced else "0", "--expected", str(expected)]
    if traced and spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} of {workload} exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index} of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            expected: Path = EXPECTED) -> dict:
    """Run passes for ``seconds`` and return the result object."""
    spans = None
    if trace:
        spans = HERE / "out" / f"{workload}.spans.csv"
        spans.parent.mkdir(exist_ok=True)
    passes: list[dict] = []
    start = time.monotonic()
    setups = [run_pass(workload, seed, -1, False, size, expected, None, setup_only=True)
              ["setup_s"] for _ in range(SETUP_PROBES)]
    longest = 0.0
    while True:
        t0 = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, len(passes), traced, size, expected, spans))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and (elapsed >= seconds or elapsed + longest > RUN_BUDGET_S):
            break
    return summarize(passes, setups, trace)


def summarize(passes: list[dict], setups: list[float], trace: bool) -> dict:
    ops = [o for p in passes for o in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for o in ops if not o["ok"])
    plain = [p for p in passes if not p["traced"]]
    median = statistics.median
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = {name: median(p["layers"][name] for p in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - median(p["wall_s"] for p in plain))
        units = PER_LAYER
    else:
        values = {
            "wall_s": median(p["wall_s"] for p in plain),
            "items_per_s": median(p["items"] / p["wall_s"] for p in plain),
            "setup_s": median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "ops_ok": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "correct": not any(o["wrong"] for o in ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "passes": len(passes),
        "failures": sorted({f"{o['key']} ({o['error']})" for o in ops if not o["ok"]}),
    }


def report(workload: str, result: dict) -> dict:
    """Print the result readably; return the contract's JSON object."""
    print(f"{workload}: {result['passes']} passes, {result['attempted']} ops attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:26} {metric['value']:.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"  failed op: {failure}", file=sys.stderr)
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symprop" / "cli.py").is_file():
        print(f"run.py: no symprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: report(name, measure(name, args.seed, args.seconds,
                                              bool(args.trace)))
                   for name in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
