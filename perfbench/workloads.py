"""The benchmark's workloads: fixed symprop CLI invocations and library calls.

Every op runs in-process in one worker process, through
``symprop.cli.main(argv)`` or a named library function, with stdout and
stderr captured.  No op passes ``--jobs`` or ``--cache``.

An op's ``key`` names it in the frozen oracle (``expected.json``).  The key
never contains the sampling seed: the seed changes which permutations are
drawn, never what the oracle checks.  ``items`` turns the op's stdout into
the workload's unit of work (cells decided, integers checked, permutations
drawn, or csv rows plus json records emitted); an op that crashed scores
whatever it managed to emit.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("exact-sweep", "divisor-lemmas", "monte-carlo", "emit-rows")
SIZES = ("full", "tiny")

# Environment variables that would hide a known defect (the memo cache, the
# int->str digit limit); the runner drops them and the worker refuses them.
DEFECT_HIDING_ENV = ("SYMPROP_CACHE", "PYTHONINTMAXSTRDIGITS")


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...] | None  # CLI arguments; None for a library call
    call: str | None  # "module.function" under symprop, for a library call
    sampled: bool  # checked on exact target fields and 4-sigma verdicts only
    items: Callable[[str], int]


def _const(k: int) -> Callable[[str], int]:
    return lambda _out: k


def thm1_cells(n_lo: int, n_hi: int, m_mult: int = 3) -> int:
    """Cells (n, m) with n_lo <= n <= n_hi and n-1 <= m <= m_mult*n."""
    cells = 0
    for m in range(n_lo - 1, m_mult * n_hi + 1):
        first = max(n_lo, -(-m // m_mult))
        last = min(n_hi, m + 1)
        cells += max(0, last - first + 1)
    return cells


def _degrees(out: str) -> int:
    # table-mode header: "conditional floors over cases [...]: N degrees, F failures"
    found = re.search(r": (\d+) degrees,", out)
    return int(found.group(1)) if found else 0


def _lines(out: str) -> int:
    return out.count("\n")


def _emitted(out: str) -> int:
    """csv data rows, or json records (a list's length, or 1 for an object)."""
    text = out.strip()
    if not text:
        return 0
    if text[0] in "[{":
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return 0
        return len(data) if isinstance(data, list) else 1
    return max(0, text.count("\n"))


def _json_int(field: str) -> Callable[[str], int]:
    def items(out: str) -> int:
        try:
            return int(json.loads(out)[field])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return 0

    return items


def _cli(*argv: str, items: Callable[[str], int]) -> Op:
    return Op(" ".join(argv), tuple(argv), None, False, items)


def _lib(call: str, items: Callable[[str], int]) -> Op:
    return Op(call + "()", None, call, False, items)


def _sampled(seed: int, *argv: str, items: Callable[[str], int]) -> Op:
    return Op(" ".join(argv), tuple(argv) + ("--seed", str(seed)), None, True, items)


def _exact_sweep(size: str) -> list[Op]:
    if size == "tiny":
        return [
            _cli("verify-thm1", "--n-hi", "30", items=_const(thm1_cells(5, 30))),
            _cli("verify-thm2", "--n-hi", "40", items=_degrees),
            _cli("table2", items=_lines),
        ]
    return [
        _cli("verify-thm1", "--n-hi", "300", items=_const(thm1_cells(5, 300))),
        _cli("verify-thm2", "--n-hi", "300", items=_degrees),
        _cli("verify-thm2", "--case", "1", "--n-lo", "301", "--n-hi", "450", items=_degrees),
        _cli("verify-thm2", "--case", "4", "--n-lo", "301", "--n-hi", "600", items=_degrees),
        _cli("table2", items=_lines),
    ]


def _divisor_lemmas(size: str) -> list[Op]:
    # integers checked: every n the sieve covers plus every n of the quadratic
    # sums; every m of the majorant sweep, including the 540 divisor-rich
    # candidates above m-max; one n; the grids of the two tail certificates.
    if size == "tiny":
        return [
            _cli("lemma-check", "--limit", "5000", "--pairs-max", "200",
                 items=_const(5000 + 200)),
            _cli("verify-shat", "--m-max", "300", "--no-candidates", items=_const(299)),
            _cli("divisors", "--n", "720720", items=_const(1)),
            _lib("bounds.check_excess_threshold", items=_const(1)),
            _lib("bounds.check_excess_monotone", items=_const(6)),
        ]
    return [
        _cli("lemma-check", items=_const(1_000_000 + 2000)),
        _cli("verify-shat", "--full", items=_const(19020 - 1 + 197)),
        _cli("divisors", "--n", "720720", items=_const(1)),
        _lib("bounds.check_excess_threshold", items=_const(1)),
        _lib("bounds.check_excess_monotone", items=_const(6)),
    ]


def _monte_carlo(size: str, seeds: list[int]) -> list[Op]:
    trials = _json_int("trials")
    draws = _json_int("draws")
    big, mid, small, episodes = (
        ("2000", "2000", "1000", ("50", "100")) if size == "tiny"
        else ("100000", "50000", "20000", ("300", "1000"))
    )
    fmt = ("--format", "json")
    return [
        _sampled(seeds[0], "sample", "--n", "20", "--m", "12", "--trials", big, *fmt,
                 items=trials),
        _sampled(seeds[1], "sample", "--n", "60", "--m", "60", "--group", "A",
                 "--trials", small, *fmt, items=trials),
        _sampled(seeds[2], "sample", "--n", "200", "--m", "5040", "--trials", mid, *fmt,
                 items=trials),
        _sampled(seeds[3], "sample", "--case", "4", "--n", "21", "--event", "A",
                 "--trials", small, *fmt, items=trials),
        _sampled(seeds[4], "sample", "--case", "4", "--n", "21", "--event", "B",
                 "--trials", big, *fmt, items=trials),
        _sampled(seeds[5], "search-sim", "--case", "4", "--n", "21",
                 "--episodes", episodes[0], *fmt, items=draws),
        _sampled(seeds[6], "search-sim", "--case", "2", "--n", "13",
                 "--episodes", episodes[1], *fmt, items=draws),
    ]


def _emit_rows(size: str) -> list[Op]:
    # The last two ops hit CPython's 4300-digit int->str limit at the seed
    # commit and exit 2; they stay in the workload so that defect shows.
    big_n = [
        _cli("prop", "--n", "2000", "--m", "2", "--format", "csv", items=_emitted),
        _cli("prop", "--n", "1800", "--m", "12", "--format", "json", items=_emitted),
    ]
    if size == "tiny":
        return [
            _cli("verify-thm2", "--n-hi", "40", "--format", "csv", items=_emitted),
            _cli("verify-thm2", "--n-hi", "30", "--format", "json", items=_emitted),
            _cli("verify-shat", "--m-max", "300", "--no-candidates", "--format", "json",
                 items=_emitted),
            _cli("split", "--n", "40", "--m", "720", "--format", "json", items=_emitted),
            _cli("bound", "--n", "60", "--m", "59", "--format", "json", items=_emitted),
            *big_n,
        ]
    return [
        _cli("verify-thm2", "--n-hi", "400", "--format", "csv", items=_emitted),
        _cli("verify-thm2", "--n-hi", "300", "--format", "json", items=_emitted),
        _cli("verify-shat", "--format", "json", items=_emitted),
        _cli("split", "--n", "300", "--m", "720", "--format", "json", items=_emitted),
        _cli("alt-prop", "--n", "600", "--m", "720", "--format", "csv", items=_emitted),
        _cli("bound", "--n", "600", "--m", "599", "--format", "json", items=_emitted),
        *big_n,
    ]


def build(workload: str, seed: int, pass_index: int, size: str = "full") -> list[Op]:
    """The ops of one pass.  Sampling seeds come from (seed, pass_index)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if workload == "exact-sweep":
        return _exact_sweep(size)
    if workload == "divisor-lemmas":
        return _divisor_lemmas(size)
    if workload == "monte-carlo":
        base = (seed * 10_000 + pass_index * 100) % 2**63
        return _monte_carlo(size, [base + i for i in range(7)])
    return _emit_rows(size)
