"""Command-line front end.

Subcommands cover the exact proportion queries (prop, split, alt-prop),
single bound checks (bound, divisors), the large verification sweeps
(verify-thm1, verify-shat, verify-thm2, table2, lemma-check), and the
Monte-Carlo layer (sample, search-sim).

Exit status: 0 when every verification in the invocation passed, 1 when
some check failed, 2 for usage errors, which are all caught while parsing
and validating the arguments, before anything is computed, 3 for a
fault: an exception raised while computing, whose traceback goes to
stderr, and 141 when the reader closed stdout before all was written.
The one twist is verify-shat, whose sweep is KNOWN to fail exactly at
those of m = 72 and m = 120 that it visits; that failure set is the
expected outcome and exits 0 (so does no failure at all when the sweep
stops below 72), while any other set exits 1.

Output formats: "table" renders every rational as num/den plus a
6-significant-digit decimal, "csv" emits the per-module column
contracts with newline line endings (byte-stable across runs for equal
arguments and seed), "json" mirrors the csv fields.  Each command builds
its records and text lines and hands them to :func:`symprop.reports.emit`,
the one writer of results; integers print with every digit at any size.
The library calls a command makes build the proportion rows they read.
verify-thm2 builds its list of cases and degrees once.  In csv/json, as in
table2, one batch of exact conditionals builds each modulus's row once for
all selected cases and degrees; table mode hands the same list to the
filtered sweep, one float filter pass per case.
Progress for long sweeps goes to stderr, never stdout, through
:func:`symprop.reports.note`, and so does the count of cells the float
filter decided in verify-thm1 and table-mode verify-thm2.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Sequence

from .bounds import (
    EXCESS_THRESHOLD_M,
    EXPECTED_MAJORANT_FAILURES,
    check_prop_upper_bound,
    majorant_moduli,
    prop_upper_bound_near,
    sweep_divisor_majorant,
    sweep_prop_bound,
    verify_exceptional_m,
)
from .divisors import applicable_variants, check_divisor_count_bound, divisor_list
from .divisors import divisor_rich_candidates
from .divisors import gamma_value, sweep_divisor_count_bounds, sweep_quadratic_divisor_sums
from .proportions import prop_alternating, prop_order_dividing, prop_order_dividing_signed
from .proportions import prop_split
from .recognition import TABLE2_EXCEPTIONS, _inadmissible, admissible_degrees, case_params
from .recognition import cond_probs, sweep_theorem2
from .reports import BoundReport, CondProbReport, cell, emit, exact, frac, value
from .sampler import estimate_case_event, estimate_order_divides, search_cost_sim

# cases 1, 4, 5 stay cheap far beyond the default window of the others
_THM2_DEFAULT_HI = {1: 1000, 4: 1000, 5: 1000}
_THM2_FALLBACK_HI = 300
_VALUE_COLUMNS = ("n", "m", "kind", "numerator", "denominator", "decimal")


def _emit_bounds(args: argparse.Namespace, reports: Sequence[BoundReport],
                 head: Sequence[str] = (), tail: Sequence[str] = ()) -> None:
    """Bound reports as records; table mode puts ``head`` and ``tail`` around them."""
    emit(args.format, BoundReport.columns, (r.record() for r in reports),
         chain(head, (r.line() for r in reports), tail))


def _emit_value(args: argparse.Namespace, kind: str, x: Fraction) -> None:
    rec = {"n": args.n, "m": args.m, "kind": kind, **value(x)}
    emit(args.format, _VALUE_COLUMNS, [rec], map(frac, [x]), doc=rec)


def _emit_flat(args: argparse.Namespace, rec: dict, lines: Sequence[str]) -> None:
    """One record whose json fields are all strings, as in its csv row."""
    rec = {k: cell(v) for k, v in rec.items()}
    emit(args.format, rec, [rec], lines, doc=rec)


# --- plain value queries -----------------------------------------------------


def cmd_prop(args: argparse.Namespace) -> int:
    x = (prop_order_dividing_signed if args.signed else prop_order_dividing)(args.n, args.m)
    _emit_value(args, "prop-signed" if args.signed else "prop", x)
    return 0


def cmd_alt_prop(args: argparse.Namespace) -> int:
    _emit_value(args, "alt", prop_alternating(args.n, args.m))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    part = prop_split(args.n, args.m)
    parts = {**part._asdict(), "total": part.total}
    emit(
        args.format,
        ("n", "m", "component", "numerator", "denominator", "decimal"),
        ({"n": args.n, "m": args.m, "component": name, **value(x)} for name, x in parts.items()),
        (f"{name}: {frac(x)}" for name, x in parts.items()),
        doc={"n": args.n, "m": args.m,
             "components": {name: value(x) for name, x in parts.items()}},
    )
    return 0


# --- bound checks ------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    reports = [check_prop_upper_bound(args.n, args.m)]
    if args.m in (args.n - 1, args.n):
        x = reports[0].lhs
        near = prop_upper_bound_near(args.n, args.m)
        reports.append(BoundReport("prop-upper-near", args.n, args.m, None, x, near, x <= near))
    _emit_bounds(args, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_divisors(args: argparse.Namespace) -> int:
    n = args.n
    reports = [check_divisor_count_bound(n, v) for v in applicable_variants(n)]
    ds = divisor_list(n)
    listing = ",".join(map(str, ds)) if len(ds) <= 40 else f"({len(ds)} divisors)"
    _emit_bounds(args, reports, head=[
        f"n={n} d(n)={len(ds)} divisors={listing} gamma={frac(gamma_value(n))}"])
    return 0 if all(r.passed for r in reports) else 1


def cmd_lemma_check(args: argparse.Namespace) -> int:
    containment = max(args.limit, divisor_rich_candidates()[-1]) if args.full else None
    failures = sweep_divisor_count_bounds(args.limit, containment_limit=containment)
    failures += sweep_quadratic_divisor_sums(args.pairs_max)
    scope = f"counts to {args.limit}" + (f", containment to {containment}" if containment else "")
    _emit_bounds(args, failures, head=[
        f"divisor lemmas ({scope}; quadratic sums to n={args.pairs_max}): "
        f"{len(failures)} failures"])
    return 0 if not failures else 1


# --- verification sweeps -----------------------------------------------------


def cmd_verify_thm1(args: argparse.Namespace) -> int:
    failures = sweep_prop_bound(args.n_lo, args.n_hi, args.m_mult)
    _emit_bounds(args, failures, head=[
        f"proportion bound, {args.n_lo} <= n <= {args.n_hi}, "
        f"n-1 <= m <= {args.m_mult}*n: {len(failures)} failures"])
    return 0 if not failures else 1


def cmd_verify_shat(args: argparse.Namespace) -> int:
    m_max = EXCESS_THRESHOLD_M if args.full else args.m_max or 2000
    with_candidates = not args.no_candidates
    failures = sweep_divisor_majorant(m_max, include_candidates=with_candidates)
    got = sorted(r.m for r in failures)
    sieved, listed = majorant_moduli(m_max, with_candidates)
    expected = sorted(m for m in EXPECTED_MAJORANT_FAILURES if m in sieved or m in listed)
    direct = [verify_exceptional_m(m) for m in expected]
    as_expected = got == expected and all(r.passed for r in direct)
    _emit_bounds(
        args, failures + direct,
        head=[f"divisor majorant sweep to m={m_max}: failing m = {got or 'none'} "
              f"(expected {expected})"],
        tail=["outcome: " + ("expected failure set, direct checks pass"
                             if as_expected else "UNEXPECTED failure set")],
    )
    return 0 if as_expected else 1


def _thm2_windows(args: argparse.Namespace) -> list[tuple[int, int, int]]:
    """(case, n_lo, n_hi) of each selected case, unset ends taking their defaults."""
    cases = [args.case] if args.case else range(1, 11)
    return [(cid, 1 if args.n_lo is None else args.n_lo,
             _THM2_DEFAULT_HI.get(cid, _THM2_FALLBACK_HI) if args.n_hi is None else args.n_hi)
            for cid in cases]


def cmd_verify_thm2(args: argparse.Namespace) -> int:
    ranges = _thm2_windows(args)
    specs = [case_params(cid, n) for cid, lo, hi in ranges for n in admissible_degrees(cid, lo, hi)]
    failures: list[CondProbReport] = []

    def every_degree() -> Iterator[dict]:
        # csv and json carry every degree, so each one is computed exactly,
        # in one batch over every case so that cases share proportion rows
        for rep in cond_probs(specs):
            if not rep.passed:
                failures.append(rep)
            yield rep.record()

    def summary() -> Iterator[str]:
        # the table lists only the failures, so the float filter may pass the rest
        failures.extend(sweep_theorem2(specs))
        yield (f"conditional floors over cases {[cid for cid, _, _ in ranges]}: "
               f"{len(specs)} degrees, {len(failures)} failures")
        yield from (r.line() for r in failures)

    # emit iterates only the argument its format needs
    emit(args.format, CondProbReport.columns, every_degree(), summary())
    return 0 if not failures else 1


def cmd_table2(args: argparse.Namespace) -> int:
    reports = cond_probs([case_params(cid, n) for cid, n in sorted(TABLE2_EXCEPTIONS)])
    emit(args.format, CondProbReport.columns, (r.record() for r in reports),
         (r.line() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


# --- sampling ----------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    if args.m is not None:
        group = args.group or "S"
        st = estimate_order_divides(args.n, args.m, args.trials, seed=args.seed, group=group)
        fields = {"kind": "order-divides", "n": args.n, "m": args.m, "group": group}
    else:
        event = args.event or "B"
        st = estimate_case_event(args.case, args.n, event, args.trials, seed=args.seed)
        fields = {"kind": f"case-event-{event}", "n": args.n, "case": args.case}
    verdict = st.within_sigma()
    label = " ".join(f"{k}={v}" for k, v in fields.items())
    _emit_flat(args, {
        **fields, "trials": st.trials, "successes": st.successes,
        **exact("estimate", st.estimate), "std_error": f"{st.std_error:.6g}",
        **exact("target", st.target_exact), "within_4sigma": verdict,
    }, [f"{label}: {st.successes}/{st.trials} = {frac(st.estimate)}, "
        f"target {frac(st.target_exact)}, 4-sigma {'pass' if verdict else 'FAIL'}"])
    return 0 if verdict else 1


def cmd_search_sim(args: argparse.Namespace) -> int:
    st = search_cost_sim(args.case, args.episodes, n=args.n, seed=args.seed)
    mean_ok = st.mean_within_sigma()
    cond_ok = st.cond_within_sigma()
    expected_mean = 1 / st.target_exact
    cond_est = Fraction(st.successes, st.b_hits)
    _emit_flat(args, {
        "case": args.case, "n": args.n, "episodes": st.successes, "draws": st.trials,
        "b_hits": st.b_hits, **exact("mean", st.mean_draws),
        **exact("expected", expected_mean), **exact("cond", cond_est),
        "mean_within_4sigma": mean_ok, "cond_within_4sigma": cond_ok,
    }, [
        f"case {args.case} n={args.n}: {st.successes} episodes, {st.trials} draws, "
        f"mean {frac(st.mean_draws)} vs {frac(expected_mean)}, "
        f"4-sigma {'pass' if mean_ok else 'FAIL'}",
        f"power-test hits {st.b_hits}, acceptance {frac(cond_est)} vs "
        f"{frac(st.target_cond)}, 4-sigma {'pass' if cond_ok else 'FAIL'}",
    ])
    return 0 if mean_ok and cond_ok else 1


# --- parser ------------------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


# Checks across arguments, run before any computation: each returns the
# usage error to report, or None.
def _check_bound(args: argparse.Namespace) -> str | None:
    return "the bound needs m >= n - 1" if args.m < args.n - 1 else None


def _check_verify_thm1(args: argparse.Namespace) -> str | None:
    return "need --n-lo <= --n-hi" if args.n_lo > args.n_hi else None


def _check_verify_shat(args: argparse.Namespace) -> str | None:
    if args.full and args.m_max is not None:
        return f"--full sweeps to m = {EXCESS_THRESHOLD_M}, so --m-max does not apply"
    return None


def _check_verify_thm2(args: argparse.Namespace) -> str | None:
    windows = _thm2_windows(args)
    empty = [f"case {cid} ends at n = {hi}" for cid, lo, hi in windows if lo > hi]
    if empty:
        return f"need --n-lo <= --n-hi: {empty[0]}"
    bare = [f"case {cid} has no admissible degree in {lo}..{hi}" for cid, lo, hi in windows
            if next(admissible_degrees(cid, lo, hi), None) is None]
    return bare[0] if bare else None


def _check_sample(args: argparse.Namespace) -> str | None:
    if (args.m is None) == (args.case is None):
        return "give exactly one of --m or --case"
    if args.case is not None:
        if args.group is not None:
            return "--group applies to --m; a --case event has its family's group"
        return _inadmissible(args.case, args.n)
    if args.event is not None:
        return "--event applies to --case only"
    return "the alternating group needs n >= 2" if args.group == "A" and args.n < 2 else None


def _check_search_sim(args: argparse.Namespace) -> str | None:
    return _inadmissible(args.case, args.n)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default table)",
    )
    positive = _int_at_least(1)

    parser = argparse.ArgumentParser(
        prog="symprop",
        description="Exact order statistics in symmetric and alternating groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prop", parents=[common], help="proportion with order dividing m")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--m", type=positive, required=True)
    p.add_argument("--signed", action="store_true", help="parity-signed variant")
    p.set_defaults(func=cmd_prop)

    p = sub.add_parser("split", parents=[common], help="split by cycles of points 1,2,3")
    p.add_argument("--n", type=_int_at_least(3), required=True)
    p.add_argument("--m", type=positive, required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("alt-prop", parents=[common], help="proportion inside A_n")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--m", type=positive, required=True)
    p.set_defaults(func=cmd_alt_prop)

    p = sub.add_parser("bound", parents=[common], help="check the 1/n + gamma*m/n^2 bound")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--m", type=positive, required=True)
    p.set_defaults(func=cmd_bound, check=_check_bound)

    p = sub.add_parser("verify-thm1", parents=[common], help="sweep the proportion bound")
    p.add_argument("--n-lo", type=_int_at_least(5), default=5)
    p.add_argument("--n-hi", type=int, default=300)
    p.add_argument("--m-mult", type=positive, default=3)
    p.set_defaults(func=cmd_verify_thm1, check=_check_verify_thm1)

    p = sub.add_parser(
        "verify-shat", parents=[common],
        help="divisor majorant sweep; failing exactly {72,120} is the expected outcome",
    )
    p.add_argument("--m-max", type=_int_at_least(2), help="sweep to m-max (default 2000)")
    p.add_argument("--full", action="store_true", help=f"sweep to m = {EXCESS_THRESHOLD_M}")
    p.add_argument("--no-candidates", action="store_true",
                   help="skip the divisor-rich candidates above m-max")
    p.set_defaults(func=cmd_verify_shat, check=_check_verify_shat)

    p = sub.add_parser("verify-thm2", parents=[common], help="conditional floors per case")
    p.add_argument("--case", type=int, choices=range(1, 11))
    p.add_argument("--n-lo", type=int)
    p.add_argument("--n-hi", type=int)
    p.set_defaults(func=cmd_verify_thm2, check=_check_verify_thm2)

    p = sub.add_parser("table2", parents=[common], help="the exceptional floor rows")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("divisors", parents=[common], help="divisor profile and count bounds")
    p.add_argument("--n", type=positive, required=True)
    p.set_defaults(func=cmd_divisors)

    p = sub.add_parser("lemma-check", parents=[common], help="divisor lemma sweeps")
    p.add_argument("--limit", type=positive, default=1_000_000)
    p.add_argument("--full", action="store_true",
                   help=f"extend the containment check to {divisor_rich_candidates()[-1]}")
    p.add_argument("--pairs-max", type=positive, default=2000)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("sample", parents=[common], help="Monte-Carlo frequency check")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--m", type=positive, help="order-divides event")
    p.add_argument("--case", type=int, choices=range(1, 11), help="family event")
    p.add_argument("--event", choices=("A", "B"), help="family event (default B)")
    p.add_argument("--group", choices=("S", "A"), help="group of --m (default S)")
    p.add_argument("--trials", type=positive, default=100_000)
    p.add_argument("--seed", type=_int_at_least(0))
    p.set_defaults(func=cmd_sample, check=_check_sample)

    p = sub.add_parser("search-sim", parents=[common], help="draw-until-target simulation")
    p.add_argument("--case", type=int, required=True, choices=range(1, 11))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--episodes", type=positive, default=10_000)
    p.add_argument("--seed", type=_int_at_least(0))
    p.set_defaults(func=cmd_search_sim, check=_check_search_sim)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand.  Bad arguments exit 2 through argparse before any
    computation; an exception raised while computing is a fault, not a usage
    error or a failed check: its traceback goes to stderr and the status is 3.
    A reader that closes stdout early is neither: the status is 141, the
    shell's for a writer killed by SIGPIPE, and nothing goes to stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    check = getattr(args, "check", None)
    problem = check(args) if check is not None else None
    if problem is not None:
        parser.error(f"{args.subcommand}: {problem}")
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        traceback.print_exc()
        return 3
