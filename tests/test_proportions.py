import tracemalloc
from fractions import Fraction
from math import factorial, lcm

import pytest

from oracles import brute_force_prop, divisor_sum_naive, iter_partitions, prob_A_centralizer
from symprop.bounds import _capped_sums, _listed_pairs, _relaxed_sums
from symprop.proportions import (
    prop_alternating,
    prop_order_dividing,
    prop_order_dividing_signed,
    prop_split,
)
from symprop.recognition import _b_moduli, admissible_degrees, case_params


def test_class_sizes_sum_to_one():
    for n in range(1, 9):
        total = sum(prob_A_centralizer(p, "S") for p in iter_partitions(n))
        assert total == 1


def test_iter_partitions_counts():
    # partition numbers 1, 2, 3, 5, 7, 11, 15, 22
    for n, count in enumerate((1, 2, 3, 5, 7, 11, 15, 22), start=1):
        assert sum(1 for _ in iter_partitions(n)) == count
    assert list(iter_partitions(5, max_part=2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_prop_anchors(table):
    assert table.prop(4, 3) == Fraction(3, 8)
    assert table.prop(5, 5) == Fraction(5, 24)
    assert table.prop(4, 2) == Fraction(5, 12)
    for m in (1, 2, 7, 30):
        assert table.prop(1, m) == 1
    assert prop_order_dividing(9, 6) == table.prop(9, 6)


def test_prop_nonpositive_degree_convention(table):
    # S_0 holds only the identity; a negative degree is refused, as by count
    assert table.prop(0, 4) == 1
    assert table.prop(0, 4, signed=True) == 1
    for n in (-1, -5):
        for signed in (False, True):
            with pytest.raises(ValueError):
                table.prop(n, 4, signed=signed)


def test_prop_range(table):
    for n in range(1, 12):
        for m in range(1, 13):
            v = table.prop(n, m)
            s = table.prop(n, m, signed=True)
            assert 0 <= v <= 1
            assert -1 <= s <= 1
            assert abs(s) <= v


def test_signed_anchors(table):
    assert table.prop(4, 2, signed=True) == Fraction(-1, 12)
    assert table.prop(3, 2, signed=True) == Fraction(-1, 3)
    assert prop_order_dividing_signed(4, 2) == Fraction(-1, 12)
    # odd m keeps every contributing element even
    for n in range(1, 10):
        for m in (1, 3, 5, 7, 9, 15):
            assert table.prop(n, m, signed=True) == table.prop(n, m)


def test_alternating_anchors():
    assert prop_alternating(4, 2) == Fraction(1, 3)
    assert prop_alternating(5, 5) == Fraction(5, 12)
    for n in range(2, 9):
        assert prop_alternating(n, 1) == Fraction(2, factorial(n))


def test_alternating_vs_enumeration():
    for n in range(2, 8):
        for m in range(1, 10):
            # a type is even iff n minus its number of cycles is even
            share = sum(
                prob_A_centralizer(p, "S")
                for p in iter_partitions(n)
                if (n - len(p)) % 2 == 0 and m % lcm(*p) == 0
            )
            assert prop_alternating(n, m) == 2 * share


def test_split_anchors(table):
    part = prop_split(3, 3)
    assert part == (Fraction(1, 3), Fraction(0), Fraction(1, 6))
    assert prop_split(4, 3).total == Fraction(3, 8)
    # order dividing 7 in S_8 means identity or 7-cycle; a 7-cycle fixes
    # one of the 8 points, which lands among the three marked ones with
    # probability 3/8, so the shared-pair component is (1/7)(3/8)
    part = prop_split(8, 7)
    assert part.two_cycles == Fraction(3, 56)
    assert part.one_cycle == Fraction(1, 7) - Fraction(3, 56)
    assert part.total == table.prop(8, 7)


def test_split_identity_window(table):
    for n in range(3, 16):
        for m in range(1, 2 * n + 1):
            assert prop_split(n, m).total == table.prop(n, m)


def test_brute_force_modes_agree(table):
    for n in range(1, 8):
        for m in (1, 2, 3, 4, 6, 12):
            by_perm = brute_force_prop(n, m, mode="permutations")
            by_part = brute_force_prop(n, m, mode="partitions")
            assert by_perm == by_part == table.prop(n, m)
            assert brute_force_prop(n, m, mode="permutations", signed=True) == table.prop(
                n, m, signed=True
            )


def test_recursion_vs_partition_oracle(table):
    for n in (20, 33, 40):
        for m in (7, 24, n, 2 * n):
            assert table.prop(n, m) == brute_force_prop(n, m, mode="partitions")
            assert table.prop(n, m, signed=True) == brute_force_prop(
                n, m, mode="partitions", signed=True
            )


def _shat(m, args):
    """S-hat(a, m) for each a in ``args``, from a batch of one modulus."""
    args = list(args)
    return _relaxed_sums(_listed_pairs([m]), [m] * len(args), args).tolist()


def test_divisor_sum_relaxed_vs_naive():
    for n, m in ((10, 10), (12, 24), (25, 24), (17, 16), (30, 60)):
        assert _shat(m, [n]) == [divisor_sum_naive(n, m, m)]


def test_divisor_sum_capped_below_relaxed():
    # the capped triple sum stays below the uncapped majorant while n <= m
    for m in (6, 10, 12, 24, 36):
        ns = range(3, m + 1)
        capped = _capped_sums(m, m)
        for n, relaxed in zip(ns, _shat(m, ns)):
            assert capped[n] <= relaxed


def test_divisor_sum_relaxed_m1():
    assert _shat(1, [3, 5, 10]) == [0, 0, 0]


def test_capped_sum_brute():
    # S(n,m) against a direct triple loop over ordered divisor triples
    for m in range(1, 61):
        capped = _capped_sums(m, 40)
        for n in range(3, 41):
            assert capped[n] == divisor_sum_naive(n, m, n), (n, m)


def test_table_rows_are_immutable_views(table):
    keys = [(n, m, s) for m in (5, 6) for s in (False, True) for n in range(1, 9)]
    before = {(n, m, s): table.prop(n, m, signed=s) for n, m, s in keys}
    table.prop(12, 6)
    table.prop(6, 6, signed=True)
    table.prop(20, 5, signed=True)
    after = {(n, m, s): table.prop(n, m, signed=s) for n, m, s in keys}
    assert after == before


def test_brute_force_prop_guards():
    with pytest.raises(ValueError):
        brute_force_prop(11, 3, mode="permutations")
    with pytest.raises(ValueError):
        brute_force_prop(61, 3, mode="partitions")
    with pytest.raises(ValueError):
        brute_force_prop(5, 3, mode="nonsense")


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alternating_holds_one_row_at_a_time():
    # the A_n proportion reads a plain row, then a signed row that replaces
    # it, so it peaks near the S_n proportion's single row
    alternating = _traced_peak(prop_alternating, 1500, 720)
    plain = _traced_peak(prop_order_dividing, 1500, 720)
    assert alternating <= 1.25 * plain, (alternating, plain)


def test_one_table_keeps_one_row_over_theorem2_reads(table):
    # every row the ten families' theorem-2 sweeps read for n <= 250, on one
    # shared table: only the row built last is kept, so the peak stays near
    # one row's size (a table that kept every row peaked at about 31 MB)
    tracemalloc.start()
    try:
        for case_id in range(1, 11):
            for n in admissible_degrees(case_id, 1, 250):
                spec = case_params(case_id, n)
                for m in _b_moduli(spec):
                    table.prop(n, m, signed=spec.calc_group == "A")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MB"
    # a covered read of the same modulus and sign keeps the row; the other
    # sign or another modulus replaces it
    table.prop(30, 12, signed=True)
    row = table._row
    table.prop(10, 12, signed=True)
    assert table._row is row and len(row) == 31
    table.prop(10, 12)
    assert table._row is not row and len(table._row) == 11
    table.prop(20, 7)
    assert table._key == (7, False) and len(table._row) == 21
