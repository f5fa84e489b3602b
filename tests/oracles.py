"""Exact oracles for the package's results that share no code with symprop.

Nothing here imports the package; divisors are listed by trial division
and families are given by plain arguments (parts, r, s, group) rather
than a ``CaseSpec``.  Proportions are sums of ``1/z`` over cycle types,
where ``z = prod(d**k_d * k_d!)`` is the centralizer order of a type
with ``k_d`` cycles of length ``d``; the share of a type in A_n is
``2/z`` when the type is even and 0 otherwise.

``n23_record`` is the one oracle that reads a spec: it takes the case,
degree and modulus off any object with ``case_id``, ``n`` and
``order_bound`` fields, and keeps its own copy of the paper's constants.

The S_n oracles enumerate permutations or partitions.  The A_n oracles
run a dynamic programme over the divisors of the modulus, so they
neither use the cycle-count recursion of ``ProportionTable`` nor
enumerate permutations, and they reach degrees (n = 85 and beyond) that
the partition mode of ``brute_force_prop`` refuses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import factorial, gcd, isqrt, lcm
from typing import Iterator


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def divisors_by_trial(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def is_prime_by_trial(n: int) -> bool:
    """Whether n is prime, by trial division up to sqrt(n)."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def peak_exponent(p: int) -> int:
    """The exponent at which (alpha+1)/p**(alpha/3) peaks over alpha >= 0.

    Equals floor(1/(p**(1/3)-1)) for prime p, computed without floats:
    the largest k >= 1 with p*k**3 <= (k+1)**3, and 0 when there is none.
    """
    if not is_prime_by_trial(p):
        raise ValueError("p must be prime")
    best = 0
    k = 1
    while p * k**3 <= (k + 1) ** 3:
        best = k
        k += 1
    return best


def divisor_ratio_cube(p: int, alpha: int) -> Fraction:
    """(alpha+1)**3/p**alpha, the cube of the per-prime factor of d(n)/n^(1/3)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return Fraction((alpha + 1) ** 3, p**alpha)


def _centralizer_order(parts: tuple[int, ...]) -> int:
    z = 1
    for d, k in Counter(parts).items():
        z *= d**k * factorial(k)
    return z


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n as descending tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    for first in range(top, 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def _cycle_parts_of_mapping(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
    return tuple(sorted(parts))


def foata_cycles(word: list[int] | tuple[int, ...]) -> list[list[int]]:
    """The cycles of the permutation a word of 0..n-1 stands for under
    Foata's fundamental bijection (Stanley, Enumerative Combinatorics I,
    2nd ed., Prop. 1.3.1): the word is cut before each left-to-right
    maximum, and a piece c_0 c_1 ... c_k is the cycle c_0 -> c_1 -> ...
    -> c_k -> c_0.  Every permutation comes from exactly one word."""
    cycles: list[list[int]] = []
    for point in word:
        if not cycles or point > cycles[-1][0]:
            cycles.append([])
        cycles[-1].append(point)
    return cycles


@lru_cache(maxsize=None)
def _sym_type_census(n: int) -> dict[tuple[int, ...], int]:
    """Cycle-type counts of S_n by full enumeration.  Keep n small."""
    counts: Counter[tuple[int, ...]] = Counter()
    for perm in permutations(range(n)):
        counts[_cycle_parts_of_mapping(perm)] += 1
    return dict(counts)


def brute_force_prop(
    n: int, m: int, mode: str = "permutations", signed: bool = False
) -> Fraction:
    """Oracle for the order-dividing proportion, independent of the recursion.

    mode "permutations" enumerates all n! elements (n <= 10); mode
    "partitions" sums 1/(prod d**k_d * k_d!) over partitions of n into
    divisors of m via dynamic programming (n <= 60).  ``signed`` weights
    each element by its sign.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if mode == "permutations":
        if not 1 <= n <= 10:
            raise ValueError("permutation enumeration is limited to n <= 10")
        total = 0
        for parts, cnt in _sym_type_census(n).items():
            if m % lcm(*parts) == 0:
                if signed and (n - len(parts)) % 2 == 1:
                    total -= cnt
                else:
                    total += cnt
        return Fraction(total, factorial(n))
    if mode == "partitions":
        if not 1 <= n <= 60:
            raise ValueError("partition DP is limited to n <= 60")
        return _partition_dp(n, m, signed)
    raise ValueError(f"unknown mode: {mode!r}")


def _partition_dp(n: int, m: int, signed: bool) -> Fraction:
    divs = [d for d in _divisors(m) if d <= n]

    memo: dict[tuple[int, int], Fraction] = {}

    def f(i: int, rem: int) -> Fraction:
        if rem == 0:
            return Fraction(1)
        if i == len(divs):
            return Fraction(0)
        key = (i, rem)
        got = memo.get(key)
        if got is not None:
            return got
        d = divs[i]
        total = Fraction(0)
        coef = Fraction(1)
        k = 0
        while k * d <= rem:
            if k:
                coef /= d * k
            w = -coef if signed and d % 2 == 0 and k % 2 == 1 else coef
            total += w * f(i + 1, rem - k * d)
            k += 1
        memo[key] = total
        return total

    return f(0, n)


def divisor_sum_naive(n: int, m: int, cap: int) -> int:
    """A divisor sum by its defining triple loops: divisors d <= n of m, with
    pair and triple sums at most ``cap``.  cap = n gives the capped sum
    S(n, m), cap = m the relaxed sum S-hat(n, m)."""
    ds = [d for d in _divisors(m) if d <= n]
    first = sum((d - 1) * (d - 2) for d in ds if d >= 3)
    pairs = sum(d2 - 1 for d2 in ds for d1 in ds if d2 >= 2 and d1 + d2 <= cap)
    triples = sum(1 for d1 in ds for d2 in ds for d3 in ds if d1 + d2 + d3 <= cap)
    return first + 3 * pairs + triples


def prob_A_centralizer(parts: tuple[int, ...], group: str) -> Fraction:
    """Proportion of S_n or A_n (group "S" or "A") with exactly the type ``parts``.

    The proportion in S_n is the reciprocal of the centralizer order;
    the A_n value doubles it for an even type and is 0 for an odd one.
    """
    if group == "A":
        return alt_type_proportion(parts)
    return Fraction(1, _centralizer_order(parts))


def power_order(parts: tuple[int, ...], r: int) -> int:
    """Order of g**r for any g with cycle type ``parts``: a d-cycle's r-th
    power splits into cycles of length d/gcd(d, r)."""
    if r < 1:
        raise ValueError("r must be positive")
    return lcm(*(d // gcd(d, r) for d in parts))


def prob_A_rcycle(n: int, r: int, s: int, group: str) -> Fraction:
    """Probability that g has an r-cycle and g**r has order exactly s.

    The leftover n - r points form a type whose parts must divide s*r
    and whose r-th power must have order exactly s.  For every family
    except case 9 this forces the target type itself; in case 9 the
    leftover six points can also form two 3-cycles, doubling the value.
    """
    total = Fraction(0)
    for rest in iter_partitions(n - r):
        if any((s * r) % d for d in rest):
            continue
        if power_order(rest, r) == s:
            total += prob_A_centralizer(rest + (r,), group)
    return total


def alt_order_divides(n: int, m: int) -> Fraction:
    """Proportion of elements of A_n (n >= 2) whose order divides m.

    ``weight[size][parity]`` is the sum of ``1/z`` over the cycle types
    of ``size`` points built from the divisors taken so far, split by
    the parity of the type (a cycle of even length is odd).  Each
    divisor d adds k >= 0 cycles of length d with weight
    ``1/(d**k * k!)``.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    weight = [[Fraction(0), Fraction(0)] for _ in range(n + 1)]
    weight[0][0] = Fraction(1)
    for d in range(1, min(m, n) + 1):
        if m % d:
            continue
        grown = [[Fraction(0), Fraction(0)] for _ in range(n + 1)]
        for size in range(n + 1):
            for parity in (0, 1):
                w = weight[size][parity]
                if not w:
                    continue
                coef = Fraction(1)
                k = 0
                while size + k * d <= n:
                    flip = k % 2 if d % 2 == 0 else 0
                    grown[size + k * d][parity ^ flip] += w * coef
                    k += 1
                    coef /= d * k
        weight = grown
    return 2 * weight[n][0]


def alt_type_proportion(parts: tuple[int, ...]) -> Fraction:
    """Proportion of A_n with exactly the cycle type ``parts``.

    Fixed points must be listed as parts equal to 1; n = sum(parts) >= 2.
    """
    if sum(parts) < 2 or any(d < 1 for d in parts):
        raise ValueError("need positive parts summing to at least 2")
    if sum(d - 1 for d in parts) % 2:
        return Fraction(0)
    return Fraction(2, _centralizer_order(parts))


def alt_cube_conditional(target: tuple[int, ...], r: int) -> Fraction:
    """P(type == target | order of g**r is exactly 3) for g uniform in A_n.

    n = sum(target).  The order of g**r is exactly 3 when the order of g
    divides 3r but not r.  The target must lie inside that event.
    """
    order = lcm(*target)
    if (3 * r) % order or r % order == 0:
        raise ValueError(f"type {target} does not satisfy the power condition")
    n = sum(target)
    p_b = alt_order_divides(n, 3 * r) - alt_order_divides(n, r)
    return alt_type_proportion(target) / p_b


def quad_divisor_excess(n: int, divisor_ends: bool) -> int:
    """The largest lhs - rhs of sum_{d | n, a <= d <= b} (d-1)(d-2) <=
    (b-1)(b-2) + n*b - n*a, over all 1 <= a <= b <= n, or over the pairs
    a <= b of divisors of n only when ``divisor_ends``."""
    weight = [0] + [(d - 1) * (d - 2) if n % d == 0 else 0 for d in range(1, n + 1)]
    prefix = list(accumulate(weight))  # prefix[k] sums the weights of d <= k
    ends = _divisors(n) if divisor_ends else range(1, n + 1)
    return max(prefix[b] - prefix[a - 1] - (b - 1) * (b - 2) - n * (b - a)
               for b in ends for a in ends if a <= b)


# case -> (base, a, b, gamma of n?) of the theorem-2 floor base - (a + b*gamma)/n^(2/3),
# gamma's argument being n when the flag is set and s*r otherwise
_N23 = {
    **{cid: (Fraction(1), 8, 15, True) for cid in (1, 4, 5)},
    **{cid: (Fraction(1), 18, 76, False) for cid in (2, 3)},
    **{cid: (Fraction(1), 98, 839, False) for cid in (6, 7, 8, 10)},
    9: (Fraction(1, 2), 46, 228, False),
}


def _gamma(m: int) -> Fraction:
    """The step constant gamma(m) of the O(m/n^2) proportion bounds."""
    return Fraction(3345, 1000) if m <= 60 else Fraction(5, 2) if m <= 360 else Fraction(2)


def n23_record(spec, value: Fraction) -> tuple:
    """The fields (kind, n, m, d, lhs, rhs, passed, witness) of the check
    value >= base - K/n^(2/3), K = a + b*gamma, made exact by cubing:
    max(base - value, 0)**3 * n**2 <= K**3."""
    base, a, b, of_n = _N23[spec.case_id]
    arg = spec.n if of_n else spec.order_bound
    lhs = max(base - value, Fraction(0)) ** 3 * spec.n**2
    rhs = (a + b * _gamma(arg)) ** 3
    return ("n23-lower", spec.n, spec.order_bound, None, lhs, rhs, lhs <= rhs,
            f"case {spec.case_id}: floor {base} - ({a}+{b}*gamma({arg}))/n^(2/3)")
