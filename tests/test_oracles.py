"""The alternating-group oracles against direct enumeration and the package."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

import pytest

from oracles import (
    alt_cube_conditional,
    alt_order_divides,
    alt_type_proportion,
    iter_partitions,
    power_order,
)
from symprop.recognition import case_params, cond_prob


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("n", range(2, 8))
def test_oracles_match_enumeration(n):
    types = (_cycle_type(p) for p in permutations(range(n)))
    even = Counter(t for t in types if sum(d - 1 for d in t) % 2 == 0)
    size = sum(even.values())
    assert size == factorial(n) // 2
    for m in range(1, 13):
        hits = sum(c for t, c in even.items() if m % lcm(*t) == 0)
        assert alt_order_divides(n, m) == Fraction(hits, size), (n, m)
    for t, c in even.items():
        assert alt_type_proportion(t) == Fraction(c, size), t
    assert alt_type_proportion((2,) + (1,) * (n - 2)) == 0


def test_alt_cube_conditional_rejects_types_outside_the_event():
    with pytest.raises(ValueError):
        alt_cube_conditional((2, 3, 9), 9)  # the 2-cycle breaks g**27 = 1
    with pytest.raises(ValueError):
        alt_cube_conditional((3, 3, 1), 3)  # g**3 is already trivial


@pytest.mark.parametrize(
    "cid, n, target, r",
    [(9, 31, (3, 25, 1, 1, 1), 25), (10, 13, (2, 3, 8), 8), (10, 25, (2, 3, 20), 20)],
)
def test_listed_exception_rows_match_oracle(cid, n, target, r):
    # cases 6 to 9 are computed in S_n, where B holds only even
    # permutations, so the A_n oracle gives the same quotient
    assert sum(target) == n
    value = cond_prob(case_params(cid, n)).p_A_given_B
    assert value == alt_cube_conditional(target, r)


def test_power_order_examples():
    assert power_order((6, 2), 2) == 3
    for r in (1, 2, 5, 7):
        assert power_order((r,), r) == 1
    assert power_order((2, 3, 8), 8) == 3
    assert power_order((2, 3, 8), 1) == 24
    with pytest.raises(ValueError):
        power_order((3,), 0)


def test_power_order_against_lcm_brute():
    # |g^r| = lcm over cycles of d/gcd(d,r); cross-checked by repeated
    # exponent stepping on the lcm order
    for parts in iter_partitions(9):
        order = lcm(*parts)
        for r in range(1, 12):
            expect = 1
            while (r * expect) % order:
                expect += 1
            assert power_order(parts, r) == expect
