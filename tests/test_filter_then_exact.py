"""The one filter-then-exact loop that both filtered sweeps run through.

The pins: each case is one argv list run in-process through
``symprop.cli.main``, with its exit status, the sha256 of its stdout, and
every stderr line that says how many cells the float filter decided and
how many went to exact arithmetic.  The data was captured from the sweeps
before their two filter-then-exact loops were merged into one, so a change
to the filter or to the fallback that moves a single cell between the two
shows here.  The two case-10 count lines were taken again when the A_n
families came to be filtered on twice their S_n enclosure, a change in which
cells the filter decides; the stdout digests were not.

The order: the open cells of a sweep reach one exact call, block by block,
in the order the filter names them within a block.  The theorem-1 filter
names them row by row: ascending degree, and across the moduli of the block
at each degree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction
from types import SimpleNamespace

import pytest

from symprop import bounds, cli, proportions
from symprop.proportions import filter_then_exact

_THM2_DEFAULT = [
    "case 1: 996 of 996 cells decided by the float filter, 0 by exact arithmetic",
    "case 2: 146 of 146 cells decided by the float filter, 0 by exact arithmetic",
    "case 3: 147 of 147 cells decided by the float filter, 0 by exact arithmetic",
    "case 4: 498 of 498 cells decided by the float filter, 0 by exact arithmetic",
    "case 5: 498 of 498 cells decided by the float filter, 0 by exact arithmetic",
    "case 6: 98 of 98 cells decided by the float filter, 0 by exact arithmetic",
    "case 7: 98 of 98 cells decided by the float filter, 0 by exact arithmetic",
    "case 8: 49 of 49 cells decided by the float filter, 0 by exact arithmetic",
    "case 9: 48 of 48 cells decided by the float filter, 0 by exact arithmetic",
    "case 10: 39 of 48 cells decided by the float filter, 9 by exact arithmetic",
]

_THM2_1000 = [
    "case 1: 996 of 996 cells decided by the float filter, 0 by exact arithmetic",
    "case 2: 496 of 496 cells decided by the float filter, 0 by exact arithmetic",
    "case 3: 497 of 497 cells decided by the float filter, 0 by exact arithmetic",
    "case 4: 498 of 498 cells decided by the float filter, 0 by exact arithmetic",
    "case 5: 498 of 498 cells decided by the float filter, 0 by exact arithmetic",
    "case 6: 332 of 332 cells decided by the float filter, 0 by exact arithmetic",
    "case 7: 331 of 331 cells decided by the float filter, 0 by exact arithmetic",
    "case 8: 165 of 165 cells decided by the float filter, 0 by exact arithmetic",
    "case 9: 165 of 165 cells decided by the float filter, 0 by exact arithmetic",
    "case 10: 156 of 165 cells decided by the float filter, 9 by exact arithmetic",
]

# argv -> (exit status, sha256 of stdout, count lines in order)
PINS = {
    "verify-thm1": (
        0,
        "7b3c0dd16c9a79bf0c74188b31afb08f53119df323f2218bcf51d5063cac81e2",
        ["bound sweep: 90872 of 90872 cells decided by the float filter, "
         "0 by exact arithmetic"],
    ),
    "verify-thm1 --n-hi 600": (
        0,
        "f6158a0a1018c63abfcae1b650e65f46ec3fcae344eb5d40c8c046f5feff98be",
        ["bound sweep: 361772 of 361772 cells decided by the float filter, "
         "0 by exact arithmetic"],
    ),
    "verify-thm2": (
        1,
        "5d72bfc569b0976a6562c4ee8dbe2ed17bfcb99dd013c479bb85413ffbd26095",
        _THM2_DEFAULT,
    ),
    "verify-thm2 --n-hi 1000": (
        1,
        "c075c03eb77d15906f1a7f3b922e90a6cc8fce0bda980f35a45f1f2c033e5da6",
        _THM2_1000,
    ),
}


@pytest.mark.parametrize("argv", list(PINS))
def test_count_lines_and_stdout_are_pinned(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv.split())
    want_status, want_sha, want_lines = PINS[argv]
    lines = [line for line in err.getvalue().splitlines()
             if "cells decided by the float filter" in line]
    assert lines == want_lines
    assert status == want_status
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want_sha


def test_open_cells_go_to_exact_once_each(monkeypatch, capsys):
    monkeypatch.setattr(proportions, "ENCLOSURE_COLUMNS", 2)
    blocks, batches = [], []

    def open_cells(block):
        blocks.append(list(block))
        return [(c, n) for n in (9, 2) for c in reversed(block)]

    def exact(cells):
        batches.append(list(cells))
        return [SimpleNamespace(passed=n == 2, at=(c, n)) for c, n in cells]

    failures = filter_then_exact("demo", "abcde", 50, open_cells, exact)
    msgs = capsys.readouterr().err.splitlines()
    assert blocks == [["a", "b"], ["c", "d"], ["e"]]
    assert len(batches) == 1  # one exact call for the whole sweep
    (calls,) = batches
    assert len(calls) == len(set(calls)) == 10
    assert set(calls) == {(c, n) for c in "abcde" for n in (2, 9)}
    # block by block, in the order each block names its cells
    assert calls[:4] == [("b", 9), ("a", 9), ("b", 2), ("a", 2)]
    assert len(failures) == 5
    assert {f.at for f in failures} == {(c, 9) for c in "abcde"}
    assert msgs == ["demo: 40 of 50 cells decided by the float filter, 10 by exact arithmetic"]
    # a batch that loses a report must not read as a pass
    with pytest.raises(ValueError):
        filter_then_exact("demo", "ab", 4, open_cells, lambda cells: exact(cells)[1:])


def test_theorem1_fallback_order_and_failures(monkeypatch):
    # gamma lowered to 1/2 leaves 153 cells open, 152 of them failing
    monkeypatch.setattr(bounds, "gamma_value", lambda m: Fraction(1, 2))
    check, calls = bounds.check_prop_upper_bound, []

    def recording(n, m, **kwargs):
        calls.append((m, n))
        return check(n, m, **kwargs)

    monkeypatch.setattr(bounds, "check_prop_upper_bound", recording)
    got = [(r.n, r.m) for r in bounds.sweep_prop_bound(5, 60, 3)]
    assert len(calls) == len(set(calls)) == 153
    assert len(got) == 152 and got == sorted(got)
