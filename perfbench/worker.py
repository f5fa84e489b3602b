"""One pass of a benchmark workload, in a fresh Python process.

run.py starts this script once per pass, with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --pass K --size full
        --trace 0 --expected perfbench/expected.json --spawned-at T

The process imports ``symprop.cli`` first, so set-up time runs from the
parent's spawn timestamp ``T`` (CLOCK_MONOTONIC) until that import is done.
It then runs the workload's ops in order, in-process, with stdout and stderr
captured, checks each op against the frozen oracle and prints one JSON line:
set-up and wall time, items, peak RSS, the outcome of every op and, with
``--trace 1``, the per-layer metrics.  Process-wide caches inside symprop
live and die with this process, so nothing carries over between passes.
"""

import sys
import time

import symprop.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402  (after the set-up timestamp on purpose)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

# Fields of sampling output that depend on the draws; everything else in
# the record is exact and frozen.
VERDICT_FIELDS = ("within_4sigma", "mean_within_4sigma", "cond_within_4sigma")
SAMPLED_FIELDS = frozenset({
    "successes", "estimate_num", "estimate_den", "estimate_dec", "std_error",
    "draws", "b_hits", "mean_num", "mean_den", "mean_dec",
    "cond_num", "cond_den", "cond_dec",
}) | frozenset(VERDICT_FIELDS)


def run_op(op: workloads.Op) -> tuple[int, str, str, float]:
    """Run one op; returns (exit status, stdout, stderr, seconds).

    An op that raises counts as a failed op with status -1, not as a
    broken benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if op.argv is not None:
                status = symprop.cli.main(list(op.argv))
            else:
                module, name = op.call.split(".")
                result = getattr(sys.modules[f"symprop.{module}"], name)()
                print(repr(result))
                status = 0 if result.passed else 1
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - recorded as the op's failure
            traceback.print_exc()
            status = -1
        seconds = time.perf_counter() - t0
    return status, out.getvalue(), err.getvalue(), seconds


def exact_record(out: str) -> dict[str, str] | None:
    """The frozen part of a sampling op's json record."""
    try:
        rec = json.loads(out)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    return {k: v for k, v in rec.items() if k not in SAMPLED_FIELDS}


def judge(op: workloads.Op, status: int, out: str, err: str,
          expected: dict) -> tuple[bool, bool, str]:
    """(ok, wrong, why not ok) for one op against its oracle entry.

    ok: exit status and checked output both match.  wrong: the op delivered
    a verdict (exit 0 or 1) whose output or verdict differs; a crash is a
    failure but not a wrong answer.
    """
    exp = expected[op.key]
    if op.sampled:
        same = exact_record(out) == exp["fields"]
        if same:
            rec = json.loads(out)
            same = all(rec[k] == "1" for k in exp["verdicts"])
    else:
        same = hashlib.sha256(out.encode()).hexdigest() == exp["sha256"]
    if status != exp["status"]:
        last = (err.strip().splitlines() or [""])[-1][:300]
        return False, status in (0, 1), f"exit {status}, expected {exp['status']}: {last}"
    if not same:
        return False, True, "output differs from the oracle"
    return True, False, ""


def check_hygiene(root: str) -> None:
    """Refuse to run when the environment would hide a known defect."""
    leaked = [name for name in workloads.DEFECT_HIDING_ENV if name in os.environ]
    if leaked or sys.flags.int_max_str_digits != -1:
        raise SystemExit(f"worker: refusing to run with {leaked or 'int_max_str_digits set'}")
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(symprop.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: symprop imported from {symprop.cli.__file__}, not {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="write the traced pass's spans here (csv)")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and run no op")
    args = parser.parse_args()
    setup_s = READY - args.spawned_at
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    check_hygiene(root)
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)["ops"]
    ops = workloads.build(args.workload, args.seed, args.pass_index, args.size)
    missing = [op.key for op in ops if op.key not in expected]
    if missing:
        raise SystemExit(f"worker: no oracle entry for {missing}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    for op in ops:
        status, out, err, seconds = run_op(op)
        if tracer is not None:
            tracer.end_op()
        ok, wrong, why = judge(op, status, out, err, expected)
        outcomes.append({
            "key": op.key,
            "status": status,
            "ok": ok,
            "wrong": wrong,
            "seconds": seconds,
            "items": op.items(out),
            "stdout_bytes": len(out.encode()),
            "error": why,
        })

    record = {
        "setup_s": setup_s,
        "wall_s": sum(o["seconds"] for o in outcomes),
        "items": sum(o["items"] for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcomes,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.ops"] = sum(1 for op in ops if op.argv is not None)
        layers["cli.errors"] = sum(1 for o in outcomes if o["status"] not in (0, 1))
        layers["cli.stdout_bytes"] = sum(o["stdout_bytes"] for o in outcomes)
        record["layers"] = layers
        if args.spans:
            record["spans"] = tracer.dump(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
