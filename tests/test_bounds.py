import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import divisor_sum_naive
from symprop import bounds, divisors
from symprop.bounds import (
    EXPECTED_MAJORANT_FAILURES,
    _capped_sums,
    _listed_pairs,
    _majorant_sides,
    _relaxed_sums,
    _sieved_pairs,
    check_excess_monotone,
    majorant_moduli,
    check_excess_threshold,
    check_prop_upper_bound,
    excess_ratio_bound,
    prop_upper_bound,
    prop_upper_bound_near,
    sweep_divisor_majorant,
    sweep_prop_bound,
    verify_exceptional_m,
    verify_shat_condition,
)
from symprop.divisors import divisor_list, divisor_rich_candidates, gamma_value


def test_upper_bound_values():
    assert prop_upper_bound(10, 10) == Fraction(4345, 10000)
    assert prop_upper_bound(100, 99) == Fraction(1, 100) + Fraction(5, 2) * 99 / 100**2
    assert prop_upper_bound(400, 400) == Fraction(1, 400) + Fraction(1, 200)
    with pytest.raises(ValueError):
        prop_upper_bound(10, 8)


def test_check_at_small_degrees():
    rep = check_prop_upper_bound(5, 4)
    assert rep.passed
    assert rep.lhs == Fraction(7, 15)
    # out of the sweep window but the inequality still holds
    rep = check_prop_upper_bound(4, 3)
    assert rep.passed
    assert rep.lhs == Fraction(3, 8)
    assert Fraction(3, 8) < Fraction(1, 4) + Fraction(3345, 1000) * 3 / 16


def test_sweep_clean_window():
    assert sweep_prop_bound(5, 60, 3) == []


def test_sweep_rejects_bad_window():
    with pytest.raises(ValueError):
        sweep_prop_bound(3, 60, 3)
    with pytest.raises(ValueError):
        sweep_prop_bound(5, 4, 3)


def test_near_bound(table):
    for n, m in ((20, 19), (20, 20), (300, 299)):
        assert table.prop(n, m) <= prop_upper_bound_near(n, m)
    with pytest.raises(ValueError):
        prop_upper_bound_near(20, 18)


def test_shat_condition_exceptions():
    rep72 = verify_shat_condition(72)
    assert not rep72.passed
    assert "24" in rep72.witness and "36" in rep72.witness
    rep120 = verify_shat_condition(120)
    assert not rep120.passed
    assert "30" in rep120.witness and "40" in rep120.witness


def test_shat_condition_vacuous_and_boundary():
    assert verify_shat_condition(2).passed
    # at square m the threshold can be hit exactly; strict comparison
    # leaves such divisors out and the witness says so
    rep = verify_shat_condition(100)
    assert rep.passed
    assert "25" in rep.witness and "excluded" in rep.witness


def test_exceptional_direct_checks():
    for m in (72, 120):
        rep = verify_exceptional_m(m)
        assert rep.passed
        # n runs from the first integer at or above sqrt(gamma*m) to m+1
        assert f"{m + 1}" in rep.witness
    with pytest.raises(ValueError):
        verify_exceptional_m(96)


def test_majorant_records_are_pinned():
    # every record, passing m included, so the tightest divisor and its
    # sides stay pinned; the digest was taken before the check was rewritten
    records = [r.record() for r in map(verify_shat_condition, range(2, 2001))]
    records += [verify_exceptional_m(72).record(), verify_exceptional_m(120).record()]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "d656f0fb3766ca14c5e5c490e2ec4427e1391ed553141cb5281825376fc8f99d"


def test_majorant_sums_are_pinned():
    # S-hat(d, m) at every divisor d > gamma(m)*sqrt(m) the full sweep
    # visits, and S(n, m) over the whole range of the two direct checks;
    # the digest was taken from the per-m evaluator and the one-point S
    # that these two functions replaced
    ms = [m for part in majorant_moduli(19020) for m in part]
    qm, qa = [], []
    for m in ms:
        g = gamma_value(m)
        p, q = g.numerator, g.denominator
        ds = [d for d in divisor_list(m) if d * d * q * q > p * p * m]
        qm += [m] * len(ds)
        qa += ds
    sums = _relaxed_sums(_listed_pairs(ms), qm, qa).tolist()
    lines = [f"S-hat {d} {m} {s}\n" for m, d, s in zip(qm, qa, sums)]
    for m in (72, 120):
        capped = _capped_sums(m, m + 1)
        lines += [f"S {n} {m} {capped[n]}\n" for n in range(3, m + 2)]
    assert len(lines) == 92281
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "2f125ca277131271bf450a8fb306910f22c8c046c6969d10743ae21df79d3380")


def test_majorant_sweep_failure_set():
    failures = sweep_divisor_majorant(2000)
    assert sorted(r.m for r in failures) == [72, 120]
    assert EXPECTED_MAJORANT_FAILURES == frozenset({72, 120})


def test_majorant_sweep_small_range():
    failures = sweep_divisor_majorant(60, include_candidates=False)
    assert failures == []


def test_relaxed_sums_against_the_naive_oracle():
    # every divisor and a few other arguments (0, m/2 - 1, m + 1, 2m) of
    # every m <= 300, all in one batch of moduli
    ms = range(1, 301)
    queries = [(m, a) for m in ms for a in divisor_list(m) + (0, m // 2 - 1, m + 1, 2 * m)]
    qm, qa = zip(*queries)
    sums = _relaxed_sums(_listed_pairs(ms), qm, qa).tolist()
    assert sums == [divisor_sum_naive(a, m, m) for m, a in queries]


def test_majorant_sides_are_int64_for_every_candidate():
    # one batch of all 540 candidates, to 11,793,600: the sides are the
    # majorant step times q, in int64, and decide as its d*q cross-multiplication
    pairs = _listed_pairs(divisor_rich_candidates())
    sides = _majorant_sides(pairs)
    assert [column.dtype for column in sides] == [np.int64] * 4
    m, d, lhs, rhs = (column.tolist() for column in sides)
    shat = _relaxed_sums(pairs, m, d).tolist()
    pq = [gamma_value(y).as_integer_ratio() for y in m]
    assert lhs == [s * q for s, (_, q) in zip(shat, pq)]
    assert rhs == [(x - 1) * (x - 2) * (q + p * (y // x)) for x, y, (p, q) in zip(d, m, pq)]
    undivided = [s * x * q > (x - 1) * (x - 2) * (x * q + p * y)
                 for s, x, y, (p, q) in zip(shat, d, m, pq)]
    assert [a > b for a, b in zip(lhs, rhs)] == undivided
    assert {y for y, bad in zip(m, undivided) if bad} == EXPECTED_MAJORANT_FAILURES


def test_sieved_pairs_are_the_listed_pairs():
    for lo, hi in ((1, 1), (2, 2), (2, 300), (4000, 4103), (19000, 19020)):
        sieved, listed = _sieved_pairs(lo, hi), _listed_pairs(range(lo, hi + 1))
        assert all(np.array_equal(a, b) for a, b in zip(sieved, listed))


def test_majorant_sweep_does_not_depend_on_the_block(monkeypatch):
    want = [r.record() for r in sweep_divisor_majorant(3000)]
    monkeypatch.setattr(bounds, "_MAJORANT_BLOCK", 7)
    assert [r.record() for r in sweep_divisor_majorant(3000)] == want
    assert [r["m"] for r in want] == [72, 120]


def test_majorant_sweep_reads_gamma_from_gamma_value(monkeypatch):
    # a gamma copied into the batched check would miss the patched value
    monkeypatch.setattr(divisors, "GAMMA_MID", Fraction(2))
    got = [r.m for r in sweep_divisor_majorant(400, include_candidates=False)]
    assert got == [m for m in range(2, 401) if not verify_shat_condition(m).passed]
    assert got == [72, 84, 120, 180]


def test_majorant_sweep_memory_is_bounded():
    # also caches the candidates' divisor lists, so the peaks below omit them
    assert [r.m for r in sweep_divisor_majorant(60)] == [72, 120]
    # at m_max = 60 every candidate above 60 is listed, all in one batch
    for m_max in (60, 19020):
        tracemalloc.start()
        try:
            sweep_divisor_majorant(m_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, m_max
    # no m of the dense range is factorised, so the divisor cache stays put
    sweep_divisor_majorant(3000, include_candidates=False)
    size = divisor_list.cache_info().currsize
    sweep_divisor_majorant(12000, include_candidates=False)
    assert divisor_list.cache_info().currsize == size


def test_majorant_moduli_list_only_the_candidates():
    tracemalloc.start()
    try:
        sieved, listed = majorant_moduli(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of every m up to 10**6 alone would take tens of MB
    assert peak < 2**20
    assert sieved == range(2, 10**6 + 1)
    assert listed == [c for c in divisor_rich_candidates() if c > 10**6]
    assert len(listed) == 19 and listed == sorted(listed)
    assert majorant_moduli(10**6, include_candidates=False)[1] == []
    with pytest.raises(ValueError):
        majorant_moduli(1)


def test_excess_ratio_certificates():
    assert check_excess_threshold().passed
    assert check_excess_monotone().passed
    lo, hi = excess_ratio_bound(19020)
    assert hi < 1
    assert lo > Fraction(99, 100)


def test_excess_ratio_reports_are_pinned():
    # captured while the tail was still evaluated in general interval
    # arithmetic; perfbench/expected.json freezes the same two reprs
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(repr(check_excess_threshold()) + "\n") == (
        "876ab6ebd4b49f38faabe49e8dddfc19f04adf67f446ad958e77556867054eef")
    assert sha(repr(check_excess_monotone()) + "\n") == (
        "28bd149c4ac86e046a605bd18e8294da12a6545ed09b689c564111e3d985b6ce")
    # the exact endpoints at the grid and at m with an exact cube root
    ms = (19020, 40000, 10**5, 10**6, 10**7, 10**8, 100, 64, 27)
    endpoints = "".join(f"{m} {lo} {hi}\n" for m in ms for lo, hi in [excess_ratio_bound(m)])
    assert sha(endpoints) == "00e09755bc2cf082595394b7022304eec94ce38fa93e8446d71b4c5825f5f8dd"
