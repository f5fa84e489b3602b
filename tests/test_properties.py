"""Property checks that range over randomized inputs.

Everything here re-derives its expectation from a slower independent
route (enumeration, brute-force multiplication, a second formula), so a
pass is evidence rather than self-agreement.
"""

from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_prop, foata_cycles, power_order
from symprop.bounds import _capped_sums, _listed_pairs, _relaxed_sums
from symprop.divisors import (
    check_quadratic_divisor_sum,
    divisor_list,
    gamma_value,
)
from symprop.enclosure import integer_nth_root, root_enclosure
from symprop.proportions import (
    ProportionTable,
    prop_alternating,
    prop_order_dividing,
    prop_order_dividing_signed,
    prop_split,
)
from symprop.recognition import CaseSpec
from symprop.sampler import _cycle_lengths, _event_mask

fractions = st.fractions(min_value=Fraction(1, 1000), max_value=1000)


@given(x=fractions, y=fractions)
def test_ratio_minus_excess(x, y):
    # x/(x+y) >= 1 - y/x for positive x, y: clearing denominators turns
    # the claim into y**2 >= 0
    assert x / (x + y) >= 1 - y / x


positive_rationals = st.fractions(min_value=Fraction(1, 10**12), max_value=10**12)


@given(x=positive_rationals)
def test_root_bounds_bracket_the_root(x):
    q = x.denominator
    for k in (2, 3):
        lo, hi = root_enclosure(x, k)
        assert 0 < lo <= hi and lo**k <= x <= hi**k
        assert hi - lo <= Fraction(1, q * 10**40)
        # the root of x = p/q in lowest terms is rational iff p and q are k-th powers
        rational = all(integer_nth_root(v, k) ** k == v for v in (x.numerator, q))
        assert (lo == hi) == rational


@given(root=positive_rationals)
def test_root_bounds_are_exact_at_perfect_powers(root):
    assert root_enclosure(root**2, 2) == (root, root)
    assert root_enclosure(root**3, 3) == (root, root)


@given(n=st.integers(2001, 10**7), seed=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_quadratic_divisor_sum_random_large(n, seed):
    a = seed.randint(1, n)
    b = seed.randint(a, n)
    assert check_quadratic_divisor_sum(n, a, b).passed


@given(st.integers(1, 2000))
def test_gamma_is_a_step_function(m):
    g = gamma_value(m)
    if m > 360:
        assert g == 2
    elif m > 60:
        assert g == Fraction(5, 2)
    else:
        assert g == Fraction(3345, 1000)
    if m > 1:
        assert gamma_value(m - 1) >= g


def _compose(p: list[int], q: list[int]) -> list[int]:
    return [p[i] for i in q]


def _pow_perm(p: list[int], e: int) -> list[int]:
    out = list(range(len(p)))
    base = p
    while e:
        if e & 1:
            out = _compose(base, out)
        base = _compose(base, base)
        e >>= 1
    return out


@given(
    parts=st.lists(st.integers(1, 10), min_size=1, max_size=5),
    r=st.integers(1, 30),
)
@settings(deadline=None)
def test_power_order_by_iterated_composition(parts, r):
    # realize the type as an actual permutation and find the order of
    # its r-th power by explicit composition
    k = power_order(tuple(parts), r)
    perm: list[int] = []
    start = 0
    for d in parts:
        perm.extend(list(range(start + 1, start + d)) + [start])
        start += d
    g_r = _pow_perm(perm, r)
    ident = list(range(len(perm)))
    assert _pow_perm(g_r, k) == ident
    for j in range(1, k):
        if k % j == 0:
            assert _pow_perm(g_r, j) != ident


@given(n=st.integers(1, 9), m=st.integers(1, 20))
@settings(deadline=None)
def test_recursion_matches_enumeration(n, m):
    assert prop_order_dividing(n, m) == brute_force_prop(n, m, mode="permutations")
    assert prop_order_dividing_signed(n, m) == brute_force_prop(
        n, m, mode="permutations", signed=True
    )


@given(n=st.integers(1, 40), m=st.integers(1, 60))
@settings(deadline=None, max_examples=60)
def test_recursion_matches_partition_oracle(n, m):
    assert prop_order_dividing(n, m) == brute_force_prop(n, m, mode="partitions")


@given(n=st.integers(3, 30), m=st.integers(1, 60))
@settings(deadline=None, max_examples=60)
def test_split_sums_to_whole(n, m):
    assert prop_split(n, m).total == prop_order_dividing(n, m)


@given(n=st.integers(1, 25), m=st.integers(1, 30), k=st.integers(1, 4))
@settings(deadline=None, max_examples=80)
def test_prop_monotone_under_divisibility(n, m, k):
    # order dividing m implies order dividing k*m
    assert prop_order_dividing(n, m) <= prop_order_dividing(n, k * m)


@given(n=st.integers(2, 25), m=st.integers(1, 30))
@settings(deadline=None)
def test_signed_and_alternating_ranges(n, m):
    unsigned = prop_order_dividing(n, m)
    signed = prop_order_dividing_signed(n, m)
    alt = prop_alternating(n, m)
    assert abs(signed) <= unsigned
    assert 0 <= alt <= 1
    assert alt == unsigned + signed


@given(m=st.integers(2, 40), n=st.integers(3, 40))
@settings(deadline=None, max_examples=80)
def test_capped_below_relaxed_on_small_degrees(m, n):
    if n <= m:
        assert _capped_sums(m, n)[n] <= _relaxed_sums(_listed_pairs([m]), [m], [n])[0]


@given(m=st.integers(3, 60))
@settings(deadline=None)
def test_caps_coincide_at_equal_arguments(m):
    assert _capped_sums(m, m)[m] == _relaxed_sums(_listed_pairs([m]), [m], [m])[0]


def _walk_cycles(perm: list[int]) -> list[list[int]]:
    """The cycles of a permutation, found by following it point by point."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        cycles.append(cycle)
    return cycles


def _foata_image(word: list[int]) -> list[int]:
    """The permutation, as a list of images, whose cycles foata_cycles reads off."""
    perm = [0] * len(word)
    for cycle in foata_cycles(word):
        for point, image in zip(cycle, cycle[1:] + cycle[:1]):
            perm[point] = image
    return perm


word_batches = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=6)
)


@given(words=word_batches)
@settings(deadline=None, max_examples=150)
def test_cycle_lengths_match_a_cycle_walk(words):
    # entry (i, j) is the length of the cycle through words[i][j] in the
    # Foata image of row i, here found by walking that image point by point
    lengths, even = _cycle_lengths(np.array(words))
    for row, word, row_even in zip(lengths, words, even):
        cycles = _walk_cycles(_foata_image(word))
        assert sorted(map(sorted, cycles)) == sorted(map(sorted, foata_cycles(word)))
        expect = [0] * len(word)
        for cycle in cycles:
            for point in cycle:
                expect[point] = len(cycle)
        assert row.tolist() == [expect[point] for point in word]
        # even iff n minus the number of cycles is even
        assert bool(row_even) == ((len(word) - len(cycles)) % 2 == 0)


@given(words=word_batches, r=st.integers(1, 40), s=st.sampled_from((1, 2, 3)))
@settings(deadline=None, max_examples=150)
def test_event_masks_match_cycle_types(words, r, s):
    types = [tuple(sorted(map(len, foata_cycles(w)))) for w in words]
    spec = CaseSpec(0, len(words[0]), r, types[0], s)
    lengths, _ = _cycle_lengths(np.array(words))
    assert _event_mask(spec, "A")(lengths).tolist() == [t == types[0] for t in types]
    assert _event_mask(spec, "B")(lengths).tolist() == [power_order(t, r) == s for t in types]


@cache
def _oracle(n: int, m: int, signed: bool) -> Fraction:
    return Fraction(1) if n <= 0 else brute_force_prop(n, m, mode="partitions", signed=signed)


_QUERY_KINDS = ("prop", "signed", "count", "count-signed", "alt")
_queries = st.lists(
    st.tuples(st.sampled_from(_QUERY_KINDS), st.integers(0, 60),
              st.sampled_from([1, 2, 3, 4, 7, 12, 30, 60, 360])),
    min_size=1, max_size=12,
)


def _ask(table: ProportionTable, kind: str, n: int, m: int) -> Fraction | int:
    if kind == "alt":
        # the parity-row read prop_alternating makes on its own table
        return Fraction(table.count(n, m, signed=True) + table.count(n, m), factorial(n))
    if kind.startswith("count"):
        return table.count(n, m, signed=kind == "count-signed")
    return table.prop(n, m, signed=kind == "signed")


@given(queries=_queries)
@settings(max_examples=80, deadline=None)
def test_table_answers_do_not_depend_on_query_order(queries):
    # one shared table sees reads below its kept degree, and rebuilds for
    # a higher degree, another modulus or a parity row; each answer must
    # equal a fresh table's and the partition oracle's
    shared = ProportionTable()
    for kind, n, m in queries:
        if kind == "alt":
            n = max(n, 2)
        got = _ask(shared, kind, n, m)
        assert got == _ask(ProportionTable(), kind, n, m)
        if kind == "alt":
            want = _oracle(n, m, False) + _oracle(n, m, True)
        else:
            want = _oracle(n, m, kind in ("signed", "count-signed"))
        if kind.startswith("count"):
            want *= factorial(n)
        assert got == want, (kind, n, m)


@pytest.mark.parametrize("n", [1, 2, 9, 21, 200])
def test_permuted_rows_are_successive_permutations(n):
    # search_cost_sim draws rows in batches and counts them one by one,
    # which reproduces one-at-a-time draws only while this numpy
    # behaviour holds
    k = 50
    rows = np.random.default_rng(n).permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    rng = np.random.default_rng(n)
    singles = np.array([rng.permutation(n) for _ in range(k)])
    assert np.array_equal(rows, singles), (
        "rng.permuted(tile, axis=1) rows no longer equal successive "
        "rng.permutation(n) draws; seeded search-sim outputs will change"
    )
