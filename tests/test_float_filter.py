"""The float64 filter of the theorem-1 and theorem-2 sweeps.

The enclosures of ``prop_enclosure`` are checked against exact Fractions
from ``ProportionTable``; the filtered sweeps are checked against the exact
sweeps they replace, with the written error bound as is and made infinite
or NaN so that every cell falls back to exact arithmetic.
"""

import contextlib
import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprop import bounds, cli, proportions, recognition
from symprop.bounds import check_prop_upper_bound, sweep_prop_bound
from symprop.proportions import (
    ProportionTable,
    prop_alternating,
    prop_enclosure,
    prop_order_dividing,
)
from symprop.recognition import admissible_degrees, case_params, cond_probs, sweep_theorem2

PRIMES = [p for p in range(2, 1200) if all(p % q for q in range(2, int(p**0.5) + 1))]


def _columns(moduli, n):
    """lo, hi at [k, i] for k <= n: every degree of every column read."""
    degrees, columns = np.indices((n + 1, len(moduli))).reshape(2, -1)
    lo, hi = prop_enclosure(moduli, degrees, columns)
    return lo.reshape(n + 1, -1), hi.reshape(n + 1, -1)


@st.composite
def rows(draw):
    """A degree n <= 250 and a modulus in [n-1, 3n] or a prime above n."""
    n = draw(st.integers(2, 250))
    if draw(st.booleans()):
        m = draw(st.integers(max(1, n - 1), 3 * n))
    else:
        m = draw(st.sampled_from([p for p in PRIMES if p > n]))
    return n, m


@given(row=rows())
@settings(max_examples=40, deadline=None)
def test_enclosure_holds_the_exact_value(row):
    n, m = row
    table = ProportionTable()
    lo, hi = _columns([m], n)
    for k in range(2, n + 1):
        exact = table.prop(k, m)
        low, high = lo[k, 0].item(), hi[k, 0].item()
        # float against Fraction compares exactly
        assert low <= exact <= high, (k, m)
        assert high - low <= 1e-10 * high + 1e-300, (k, m)
        # the A_n proportion is at most twice the S_n one, and equals it
        # for odd m, whose permutations are all even
        alternating = prop_alternating(k, m)
        assert alternating <= 2 * high, (k, m)
        if m % 2:
            assert 2 * low <= alternating, (k, m)


def test_enclosure_past_the_underflow():
    # 1/n! underflows past n = 170 when m is a prime above n
    table = ProportionTable()
    lo, hi = _columns([1201, 4, 360], 250)
    assert lo[250, 0] <= 0 < hi[250, 0]
    assert lo[250, 0].item() <= table.prop(250, 1201) <= hi[250, 0].item()
    assert lo[250, 2].item() <= table.prop(250, 360) <= hi[250, 2].item()


def test_enclosure_at_a_tier_a_degree():
    # family 9 at n = 7321 (r = 7315) reads m = 3r and m = r in S_n, far
    # beyond the degrees of the property test above
    n, r = 7321, 7315
    lo, hi = _columns([3 * r, r], n)
    for i, m in enumerate((3 * r, r)):
        assert lo[n, i].item() <= prop_order_dividing(n, m) <= hi[n, i].item(), m


def test_enclosure_holds_only_the_float_table_and_the_reads():
    # one read per column of a full block to degree 2,000: the float table
    # of 2,001 x 1,024 entries (16 MB) is the one block-sized array
    width, n = proportions.ENCLOSURE_COLUMNS, 2000
    degrees = np.full(width, n)
    table = (n + 1) * width * 8
    tracemalloc.start()
    try:
        lo, hi = prop_enclosure(list(range(n, n + width)), degrees, np.arange(width))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lo.shape == hi.shape == (width,) and (lo <= hi).all()
    assert peak < 1.5 * table, peak


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _counts(err):
    """(filter, exact) summed over the count lines a run wrote to stderr."""
    totals = [0, 0]
    for line in err.splitlines():
        if "cells decided by the float filter" in line:
            words = line.split(": ", 1)[1].split()
            totals[0] += int(words[0])
            totals[1] += int(words[-4])
            assert int(words[2]) == int(words[0]) + int(words[-4])
    return tuple(totals)


THM1 = ["verify-thm1", "--n-hi", "60"]
THM2 = ["verify-thm2", "--n-hi", "100"]


def test_theorem1_filter_agrees_with_exact():
    exact = [(n, m) for n in range(5, 61) for m in range(n - 1, 3 * n + 1)
             if not check_prop_upper_bound(n, m).passed]
    assert [(r.n, r.m) for r in sweep_prop_bound(5, 60, 3)] == exact == []
    status, out, err = _run(THM1)
    assert status == 0 and "0 failures" in out
    assert _counts(err) == (3752, 0)


def test_theorem1_filter_defers_failures_and_ties(monkeypatch, capsys):
    # with gamma lowered to 1/2 some cells fail, and (6, 10) sits exactly on
    # the bound: 11/36 = 1/6 + 10/72, a tie no float enclosure can settle
    monkeypatch.setattr(bounds, "gamma_value", lambda m: Fraction(1, 2))
    exact = [(n, m) for n in range(5, 61) for m in range(n - 1, 3 * n + 1)
             if not check_prop_upper_bound(n, m).passed]
    capsys.readouterr()
    got = sweep_prop_bound(5, 60, 3)
    msgs = capsys.readouterr().err.splitlines()
    assert sorted((r.n, r.m) for r in got) == sorted(exact) and len(exact) == 152
    assert all(not r.passed and r.lhs > r.rhs for r in got)
    assert (6, 10) not in exact
    assert msgs[-1] == ("bound sweep: 3599 of 3752 cells decided by the float filter, "
                        "153 by exact arithmetic")


@pytest.mark.parametrize("strict", [False, True], ids=["floors", "strict-n23"])
@pytest.mark.parametrize("case", range(1, 11))
def test_theorem2_filter_agrees_with_exact(case, strict, monkeypatch):
    if strict:
        # the n^(2/3) floor raised to 1 - 1/n^(2/3) fails at many degrees
        monkeypatch.setattr(recognition, "_FAMILIES", {
            cid: fam._replace(n23=(Fraction(1), 1, 0))
            for cid, fam in recognition._FAMILIES.items()})
    specs = [case_params(case, n) for n in admissible_degrees(case, 1, 100)]
    every = cond_probs(specs)
    failures = sweep_theorem2(specs)
    assert failures == [r for r in every if not r.passed]
    if case == 10 and not strict:
        assert [r.n for r in failures] == [37, 85]
    if case == 1 and strict:
        assert len(failures) == 22


def test_theorem2_count_line_shows_only_family_10_goes_exact():
    # the A_n families are filtered on twice their S_n enclosure, which
    # leaves 8 of family 10's degrees up to 100 open; only 37 and 85 fail
    status, out, err = _run(THM2)
    assert status == 1
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert len(failing) == 2 and "n=37" in failing[0] and "n=85" in failing[1]
    degrees = int(out.split(": ")[1].split()[0])
    assert _counts(err) == (degrees - 8, 8)
    sent = [line.split(":")[0] for line in err.splitlines()
            if "cells decided" in line and not line.endswith(" 0 by exact arithmetic")]
    assert sent == ["case 10"]


@pytest.mark.parametrize("case, hi, want", [
    (4, 1000, []),
    (5, 1000, []),
    (10, 1000, [13, 19, 25, 37, 49, 55, 61, 85, 145]),
])
def test_theorem2_open_degrees_are_pinned(case, hi, want):
    # the degrees the float filter leaves to exact arithmetic in the A_n
    # families, whose P(B) is bounded by twice its S_n enclosure
    specs = [case_params(case, n) for n in admissible_degrees(case, 1, hi)]
    assert len(specs) <= proportions.ENCLOSURE_COLUMNS  # one block, as the sweep sends it
    assert [spec.n for spec in recognition._open_degrees(specs)] == want


@pytest.mark.parametrize("error", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("argv", [THM1, THM2], ids=" ".join)
def test_inflated_bound_sends_every_cell_to_exact(argv, error, monkeypatch):
    status, out, err = _run(argv)
    filtered, exact = _counts(err)
    # a bound so large, or so undefined, that the filter decides nothing
    monkeypatch.setattr(proportions, "float_error", lambda values, depth, terms: error)
    status_exact, out_exact, err_exact = _run(argv)
    assert (status_exact, out_exact) == (status, out)
    assert _counts(err_exact) == (0, filtered + exact)
