import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import pytest

import oracles
from oracles import iter_partitions, prob_A_centralizer, prob_A_rcycle
from symprop import cli
from symprop.proportions import ProportionTable, prop_alternating, prop_order_dividing
from symprop.recognition import (
    CASE1_WEAK_NS,
    TABLE2_EXCEPTIONS,
    _centralizer_order,
    admissible_degrees,
    admissible_divisor_check,
    admissible_n,
    case_params,
    check_n23_bound,
    cond_prob,
    cond_probs,
    lower_bound_for,
    prob_A,
    prob_B,
    prob_B_upper_bound,
)

ALL_CASES = range(1, 11)


def test_case_params_examples():
    spec = case_params(6, 14)
    assert spec.r == 11 and spec.parts == (3, 11)
    spec = case_params(1, 9)
    assert spec.r == 9 and spec.parts == (9,)
    spec = case_params(10, 13)
    assert spec.r == 8 and spec.parts == (2, 3, 8)
    assert sum(spec.parts) == 13  # no fixed points


def test_case_params_rejections():
    with pytest.raises(ValueError):
        case_params(0, 9)
    with pytest.raises(ValueError):
        case_params(11, 9)
    with pytest.raises(ValueError):
        case_params(2, 10)  # needs odd n
    with pytest.raises(ValueError):
        case_params(9, 12)  # needs n = 1 mod 6
    with pytest.raises(ValueError):
        case_params(6, 7)  # below the family threshold


def test_admissible_degrees_partition_mod6():
    # families 6..10 tile the residues; 9 and 10 share 1 mod 6
    for n in range(8, 60):
        hits = [c for c in (6, 7, 8, 9) if admissible_n(c, n)]
        assert len(hits) == 1
        assert admissible_n(10, n) == admissible_n(9, n)
    assert list(admissible_degrees(9, 8, 32)) == [13, 19, 25, 31]


def test_calc_group_convention():
    # cases 4, 5, 10 draw from the alternating group; the rest, including
    # the even-type families 6..9, compute inside the symmetric group
    for cid in ALL_CASES:
        n = next(iter(admissible_degrees(cid, 8, 40)))
        spec = case_params(cid, n)
        assert spec.calc_group == ("A" if cid in (4, 5, 10) else "S")


def test_prob_a_closed_forms():
    assert prob_A(case_params(1, 5)) == Fraction(1, 5)
    assert prob_A(case_params(9, 13)) == Fraction(1, 126)
    assert prob_A(case_params(10, 13)) == Fraction(1, 24)
    assert prob_A(case_params(2, 9)) == Fraction(1, 14)
    assert prob_A(case_params(4, 9)) == Fraction(2, 9)


def test_prob_a_centralizer_route():
    for cid in ALL_CASES:
        for n in admissible_degrees(cid, 8, 40):
            spec = case_params(cid, n)
            by_type = prob_A_centralizer(spec.parts, spec.calc_group)
            assert prob_A(spec) == by_type, (cid, n)


def test_centralizer_order():
    # 2^2 * 2! * 3 = 24 permutations commute with (..)(..)(...) in S_7; no
    # family's target type repeats a part above 1, so d**k * k! with d > 1
    # and k > 1 is checked here and nowhere else
    assert _centralizer_order((2, 2, 3)) == 24
    for n in range(1, 11):
        for parts in iter_partitions(n):
            assert _centralizer_order(parts) == oracles._centralizer_order(parts), parts


def test_prob_a_rcycle_route():
    # counting whole types whose r-th power is an s-cycle product picks up
    # a second class only in family 9, where 3^2 r^1 also lands on type 3^1
    for cid in ALL_CASES:
        for n in admissible_degrees(cid, 8, 36):
            spec = case_params(cid, n)
            via_types = prob_A_rcycle(spec.n, spec.r, spec.power_order, spec.calc_group)
            factor = 2 if cid == 9 else 1
            assert via_types == factor * prob_A(spec), (cid, n)


def test_prob_b_forms(table):
    assert prob_B(case_params(1, 5)) == Fraction(5, 24)
    assert prob_B(case_params(4, 5)) == Fraction(5, 12)
    expected = table.prop(9, 14) - table.prop(9, 7)
    assert prob_B(case_params(2, 9)) == expected


def _specs_upto(n_hi):
    return [case_params(cid, n) for cid in ALL_CASES for n in admissible_degrees(cid, 1, n_hi)]


def test_batch_matches_terms_computed_one_by_one():
    # every family at n <= 60 in one batch, so rows are shared across
    # families, degrees and groups; each P(B) is recomputed term by term
    specs = _specs_upto(60)
    reports = cond_probs(specs)
    assert [(r.case_id, r.n) for r in reports] == [(s.case_id, s.n) for s in specs]
    for spec, rep in zip(specs, reports):
        prop = prop_alternating if spec.calc_group == "A" else prop_order_dividing
        m = spec.power_order * spec.r
        want = prop(spec.n, m) - (prop(spec.n, spec.r) if spec.power_order > 1 else 0)
        assert rep.p_B == want, (spec.case_id, spec.n)
        assert rep.p_A_given_B == prob_A(spec) / want, (spec.case_id, spec.n)


def test_exact_csv_builds_each_modulus_row_once(monkeypatch):
    built = []
    build = ProportionTable._build

    def counting(self, m, signed, upto):
        row = self._row
        build(self, m, signed, upto)
        if self._row is not row:  # a real build, not a row already kept
            built.append((m, signed))

    monkeypatch.setattr(ProportionTable, "_build", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-thm2", "--n-hi", "60", "--format", "csv"]) == 1
    specs = _specs_upto(60)
    plain = {(m, False) for spec in specs for m in {spec.r, spec.power_order * spec.r}}
    signed = {(m, True) for spec in specs if spec.calc_group == "A"
              for m in {spec.r, spec.power_order * spec.r} if m % 2 == 0}
    assert signed  # family 10 reads even moduli in A_n
    assert Counter(built) == Counter(plain | signed)


def test_prob_b_upper_bound_window():
    for cid in (2, 3, 6, 7, 8, 9, 10):
        for n in admissible_degrees(cid, 20, 120):
            spec = case_params(cid, n)
            assert prob_B(spec) <= prob_B_upper_bound(spec), (cid, n)
    with pytest.raises(ValueError):
        prob_B_upper_bound(case_params(1, 20))


def test_lower_bound_selection():
    assert lower_bound_for(case_params(1, 5)) == Fraction(1, 2)
    for n in sorted(CASE1_WEAK_NS):
        assert lower_bound_for(case_params(1, n)) == Fraction(2, 7)
    for n in (11, 17):
        assert lower_bound_for(case_params(2, n)) == Fraction(1, 4)
    assert lower_bound_for(case_params(3, 18)) == Fraction(1, 4)
    assert lower_bound_for(case_params(2, 13)) == Fraction(1, 3)
    assert lower_bound_for(case_params(9, 31)) == Fraction(3, 10)
    assert lower_bound_for(case_params(10, 13)) == Fraction(3, 20)
    assert lower_bound_for(case_params(10, 25)) == Fraction(3, 20)
    assert lower_bound_for(case_params(10, 85)) == Fraction(3, 10)
    assert lower_bound_for(case_params(7, 15)) == Fraction(1, 3)


def test_cond_prob_case1_small():
    rep = cond_prob(case_params(1, 5))
    assert rep.p_A_given_B == Fraction(24, 25)
    assert rep.passed


def test_cond_prob_table2_rows():
    # the two exceptional rows that genuinely clear their printed floors
    rep = cond_prob(case_params(10, 13))
    assert rep.p_A_given_B == Fraction(14175, 62896)
    assert rep.passed
    rep = cond_prob(case_params(9, 31))
    assert Fraction(3, 10) < rep.p_A_given_B < Fraction(32, 100)
    assert rep.passed
    rep = cond_prob(case_params(10, 25))
    assert Fraction(3, 20) < rep.p_A_given_B < Fraction(16, 100)
    assert rep.passed


def test_cond_prob_known_shortfalls():
    # two admissible degrees in family 10 sit below their listed floors;
    # the exact values are frozen here so any drift is loud
    rep = cond_prob(case_params(10, 37))
    assert not rep.passed
    assert Fraction(319, 1000) < rep.p_A_given_B < Fraction(1, 3)
    rep = cond_prob(case_params(10, 85))
    assert not rep.passed
    assert Fraction(2, 7) < rep.p_A_given_B < Fraction(3, 10)
    assert abs(rep.p_A_given_B - Fraction(298274, 1000000)) < Fraction(1, 1000000)


def test_verify_theorem2_families_clean():
    for cid in (1, 4, 5):
        reports = cond_probs([case_params(cid, n) for n in admissible_degrees(cid, 5, 120)])
        assert all(r.passed for r in reports), cid
    for cid in (2, 3, 6, 7, 8, 9):
        reports = cond_probs([case_params(cid, n) for n in admissible_degrees(cid, 8, 120)])
        assert reports and all(r.passed for r in reports), cid


def test_verify_theorem2_case10_failures():
    reports = cond_probs([case_params(10, n) for n in admissible_degrees(10, 8, 300)])
    failing = sorted(r.n for r in reports if not r.passed)
    assert failing == [37, 85]


def test_n23_bound_samples():
    for cid in ALL_CASES:
        for n in admissible_degrees(cid, 30, 90):
            spec = case_params(cid, n)
            value = cond_prob(spec).p_A_given_B
            assert check_n23_bound(spec, value).passed, (cid, n)


def test_divisor_classification_examples():
    rep = admissible_divisor_check(2, 9)
    assert rep.passed
    rep = admissible_divisor_check(10, 13)
    assert rep.passed  # d = 12 is the listed stray triple
    for cid in (6, 7, 8, 9):
        for n in admissible_degrees(cid, 8, 80):
            assert admissible_divisor_check(cid, n).passed, (cid, n)
    with pytest.raises(ValueError):
        admissible_divisor_check(1, 9)
    with pytest.raises(ValueError):
        admissible_divisor_check(2, 5)


def test_divisor_classification_stray_is_unique_to_13():
    # without the stray allowance n = 13 would fail: d = 12 divides 24,
    # is neither 8 nor 18/...; every later family-10 degree stays clean
    for n in admissible_degrees(10, 14, 200):
        assert admissible_divisor_check(10, n).passed, n


def test_table2_keys_are_admissible():
    for (cid, n), floor in TABLE2_EXCEPTIONS.items():
        assert admissible_n(cid, n)
        assert floor in (Fraction(3, 10), Fraction(3, 20))


def test_family_records_are_pinned():
    # every family fact at every admissible n <= 300: parameters, P(A),
    # floors, the exact record, both checks and, where defined, the P(B)
    # bound and the divisor classes; the digest was taken before the
    # families were gathered into one table
    records = []
    for cid in ALL_CASES:
        for n in admissible_degrees(cid, 1, 300):
            spec = case_params(cid, n)
            rep = cond_prob(spec)
            rec = [cid, n, spec.r, spec.parts, spec.power_order, spec.calc_group,
                   spec.order_bound, prob_A(spec), lower_bound_for(spec), rep.record(),
                   astuple(check_n23_bound(spec, rep.p_A_given_B))]
            if cid not in (1, 4, 5):
                rec += [prob_B_upper_bound(spec), astuple(admissible_divisor_check(cid, n))]
            records.append(rec)
    records.append(astuple(admissible_divisor_check(2, 7)))
    digest = hashlib.sha256(json.dumps(records, default=str).encode()).hexdigest()
    assert len(records) == 1227
    assert digest == "a95ae63720da32f744ba7ec0b0301cded276e64a8415e74d47d00a74eece76e1"
