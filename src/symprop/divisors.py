"""Divisor counts, divisor-count growth bounds, and related exact checks.

The number of divisors d(n) grows slower than any power of n, but the
verification work in this package needs completely explicit constants.
The bounds handled here all have the shape

    d(n) <= C * n**(1/k),      k = 3 (or 2),

with C**k rational.  ``COUNT_BOUNDS`` holds each of them once: variant ->
(k, C**k, the n it covers).  Every check clears the root,
``d(n)**k * den <= num * n`` for C**k = num/den, so no floats are involved
and a reported pass is a proof for that n.  The one-n check and the sieve
sweep both read that table.

Also provided: the step function ``gamma_value`` used by the proportion bounds,
the explicit finite set of candidate exceptions to the refined bound, a
quadratic divisor-sum inequality, and the module's one primality test,
:func:`is_prime`: Miller-Rabin on the first 13 primes, which is exact
below 3.3e24, and above that a proof on the completely factored n - 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, count
from math import gcd, isqrt
from typing import Callable

import numpy as np

from .enclosure import integer_nth_root
from .reports import BoundReport, note

__all__ = [
    "divisor_list",
    "gamma_value",
    "is_prime",
    "COUNT_BOUNDS",
    "C0_CUBED",
    "applicable_variants",
    "check_divisor_count_bound",
    "divisor_rich_candidates",
    "is_divisor_rich_candidate",
    "check_quadratic_divisor_sum",
    "sweep_quadratic_divisor_sums",
    "divisor_count_sieve",
    "sweep_divisor_count_bounds",
]


@cache
def divisor_list(n: int) -> tuple[int, ...]:
    """Ascending tuple of the positive divisors of n >= 1, generated from
    the factorization :func:`_prime_factors` and sorted."""
    if n < 1:
        raise ValueError("n must be positive")
    divs = [1]
    for q, k in Counter(_prime_factors(n)).items():
        divs = [d * q**i for d in divs for i in range(k + 1)]
    return tuple(sorted(divs))


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1, with multiplicity.

    Trial division over a shrinking cofactor: the trials stop once the
    trial divisor's square exceeds what is left of n, so the cost is set
    by n's largest prime factors, not by n (2**64 takes 64 halvings).  A
    cofactor still left when the trials pass 2**16 has only prime factors
    above 2**16, and :func:`_large_prime_factors` splits it.
    """
    primes: list[int] = []
    rest = n
    p = 2
    while p * p <= rest and p <= _TRIAL_ONLY_BELOW:
        while rest % p == 0:
            rest //= p
            primes.append(p)
        p += 1 if p == 2 else 2
    if rest > 1:  # a prime once p * p > rest
        primes += [rest] if p * p > rest else _large_prime_factors(rest)
    return primes


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors of m, with multiplicity, for m with no factor below 2**16.

    A prime is settled by :func:`is_prime`.  A perfect power r**k is split
    by an exact k-th root, where rho would need about sqrt(r) steps; as
    r > 2**16, k is at most m.bit_length() // 16.  Anything else is split
    by Pollard's rho, so a product of two primes that are not both huge
    splits at once.
    """
    if is_prime(m):
        return [m]
    for k in range(2, m.bit_length() // 16 + 1):
        r = integer_nth_root(m, k)
        if r**k == m:
            return _large_prime_factors(r) * k
    f = _rho_factor(m)
    return _large_prime_factors(f) + _large_prime_factors(m // f)


def _rho_factor(m: int) -> int:
    """A proper factor of the odd composite m, by Brent's variant of Pollard's
    rho: iterate y -> y*y + c mod m from y = 2 and take gcds of batched
    products of differences.  c runs 1, 2, ... until a factor turns up, so
    the result is the same on every run."""
    for c in count(1):
        y, power, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % m
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, power - done)):
                    y = (y * y + c) % m
                    product = product * abs(x - y) % m
                g = gcd(product, m)
                done += _RHO_BATCH
            power *= 2
        if g == m:  # the batch overshot: step again one at a time from its start
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = gcd(abs(x - saved), m)
        if g != m:
            return g


# --- the gamma step function -------------------------------------------------

GAMMA_SMALL = Fraction(3345, 1000)  # m <= 60
GAMMA_MID = Fraction(5, 2)  # 60 < m <= 360
GAMMA_LARGE = Fraction(2)  # m > 360


def gamma_value(m: int) -> Fraction:
    """Step constant used in the O(m/n^2) proportion bounds."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > 360:
        return GAMMA_LARGE
    if m > 60:
        return GAMMA_MID
    return GAMMA_SMALL


# --- cube-root divisor-count bounds ------------------------------------------


_TRIAL_ONLY_BELOW = 1 << 16  # _prime_factors factors by rho past this trial divisor
_RHO_BATCH = 128  # differences multiplied together between gcds in _rho_factor
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _WITNESSES (Sorenson and Webster 2015)
_WITNESSES_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: no verdict is probabilistic.

    Miller-Rabin on the first 13 primes as bases decides n below 3.3e24.
    Above that, n is proven prime or composite by Pocklington's criterion
    with n - 1 factored completely by :func:`_prime_factors`, where it needs
    no gcd and reads as Lucas's test: n is prime iff for each prime q | n - 1
    some a has a**(n-1) = 1 and a**((n-1)/q) != 1 (mod n).  (The orders of
    those a then have lcm n - 1, which divides phi(n) only for a prime.)
    The search runs a = 2, 3, ...; it meets a primitive root when n is prime,
    and at the latest n's least prime factor, which fails a**(n-1) = 1, when
    n is not.  A prime's cost is that of factoring n - 1 by rho: up to about
    20 s for the worst of 164 random primes below 2**110, whose n - 1 has two
    prime factors above 2**44.  Every modulus a paper claim reaches is at
    most 11,793,600, inside the Miller-Rabin range, so that bound is
    documented rather than met with a second splitter.
    """
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2**twos
    odd = (n - 1) >> twos
    for w in _WITNESSES:
        x = pow(w, odd, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(twos)):
            return False
    if n < _WITNESSES_EXACT_BELOW:
        return True
    for q in set(_prime_factors(n - 1)):
        for a in count(2):
            x = pow(a, (n - 1) // q, n)
            if pow(x, q, n) != 1:  # a**(n-1) != 1, so n is composite
                return False
            if x != 1:  # the order of a holds the full power of q in n - 1
                break
    return True


# variant -> (k, C**k, covers): d(n)**k <= C**k * n for every n that covers
# accepts, an int or an int64 array.  "c0" is the refined constant, kept by
# every n outside the candidate set below.
COUNT_BOUNDS: dict[str, tuple[int, Fraction, Callable]] = {
    "half": (2, Fraction(3), lambda n: n > 0),
    "third": (3, Fraction(1536, 35), lambda n: n > 0),
    "odd": (3, Fraction(192, 35), lambda n: n % 2 == 1),
    "no9": (3, Fraction(4096, 105), lambda n: n % 9 != 0),
    "odd-no9": (3, Fraction(512, 105), lambda n: (n % 2 == 1) & (n % 9 != 0)),
    "c0": (3, Fraction(768, 35), lambda n: n > 0),
}
C0_CUBED = COUNT_BOUNDS["c0"][1]


def applicable_variants(n: int) -> tuple[str, ...]:
    return tuple(v for v, (_, _, covers) in COUNT_BOUNDS.items() if covers(n))


def check_divisor_count_bound(n: int, variant: str) -> BoundReport:
    """Check d(n) against the growth bound selected by ``variant``.

    The variant's entry in ``COUNT_BOUNDS`` gives the check d(n)**k <= C**k n;
    "c0" treats membership in the explicit candidate set as a pass (the
    bound promises nothing there).  A variant that does not cover n, such as
    "odd" at even n, raises ValueError.
    """
    d = len(divisor_list(n))
    if variant not in COUNT_BOUNDS:
        raise ValueError(f"unknown variant: {variant!r}")
    k, c_k, covers = COUNT_BOUNDS[variant]
    if not covers(n):
        raise ValueError(f"variant {variant!r} does not cover n = {n}")
    lhs = Fraction(d**k)
    rhs = c_k * n
    ok = lhs <= rhs
    witness = ""
    if variant == "c0" and not ok:
        ok = is_divisor_rich_candidate(n)
        witness = ("listed candidate exception" if ok
                   else "bound fails and n is not a listed candidate")
    return BoundReport(f"divcount-{variant}", n, None, d, lhs, rhs, ok, witness)


@cache
def divisor_rich_candidates() -> tuple[int, ...]:
    """All integers 2^a 3^b 5^c 7^d m with 1<=a<=6, 0<=b<=4, 0<=c<=2,
    0<=d<=1 and m in {1, 11, 13}, ascending.

    Every n whose divisor count exceeds the refined cube-root bound lies in
    this set; the converse is not promised, and members are not filtered.
    """
    vals = sorted(
        2**a * 3**b * 5**c * 7**d * m
        for a in range(1, 7)
        for b in range(0, 5)
        for c in range(0, 3)
        for d in range(0, 2)
        for m in (1, 11, 13)
    )
    assert len(vals) == len(set(vals)) == 540
    assert vals[-1] == 2**6 * 3**4 * 5**2 * 7 * 13 == 11_793_600
    return tuple(vals)


@cache
def _candidate_set() -> frozenset[int]:
    return frozenset(divisor_rich_candidates())


def is_divisor_rich_candidate(n: int) -> bool:
    return n in _candidate_set()


# --- quadratic divisor sums --------------------------------------------------


def check_quadratic_divisor_sum(n: int, a: int, b: int) -> BoundReport:
    """Check sum_{d|n, a<=d<=b} (d-1)(d-2) <= (b-1)(b-2) + nb - na.

    Requires 1 <= a <= b <= n.  The bound holds for every n, by this proof:
    - for divisors d < d' of n, lcm(d, d') divides n, so d*d' <= n*gcd(d, d'),
      and gcd(d, d') divides d' - d, so d*d' <= n(d' - d);
    - for the divisors d_1 < ... < d_k in [a, b], each (d_i - 1)(d_i - 2) <=
      d_i**2, so sum_{i<k} (d_i - 1)(d_i - 2) <= sum_{i<k} d_i d_{i+1}
      <= n(d_k - d_1) <= n(b - a);
    - the last one gives (d_k - 1)(d_k - 2) <= (b - 1)(b - 2), as (x-1)(x-2)
      does not decrease over the integers x >= 1.
    """
    if not (1 <= a <= b <= n):
        raise ValueError("need 1 <= a <= b <= n")
    total = sum((d - 1) * (d - 2) for d in divisor_list(n) if a <= d <= b)
    rhs = (b - 1) * (b - 2) + n * b - n * a
    return BoundReport(
        "quad-divisor-sum",
        n,
        None,
        None,
        Fraction(total),
        Fraction(rhs),
        total <= rhs,
        f"a={a} b={b}",
    )


def sweep_quadratic_divisor_sums(n_max: int) -> list[BoundReport]:
    """Exhaustively check the quadratic divisor-sum bound for all
    1 <= a <= b <= n <= n_max.  Returns the failures, empty for every
    n_max: :func:`check_quadratic_divisor_sum` proves the bound from
    d*d' <= n(d' - d) for divisors d < d' of n, so this is a cross-check.

    Only pairs of divisors a <= b of n need checking.  The left side
    changes only where a or b crosses a divisor, while the right side
    (b-1)(b-2) + n(b-a) grows with b and shrinks with a.  So among all
    ranges [a, b] holding the same divisors, the one from the smallest of
    them to the largest has the smallest right side, and a range holding
    no divisor has sum 0 and cannot fail.  That is d(n)^2/2 pairs per n.
    """
    failures: list[BoundReport] = []
    for n in range(1, n_max + 1):
        divs = divisor_list(n)
        # prefix[i] sums (d-1)(d-2) over the i smallest divisors
        prefix = list(accumulate(((d - 1) * (d - 2) for d in divs), initial=0))
        for j, b in enumerate(divs):
            for i, a in enumerate(divs[: j + 1]):
                if prefix[j + 1] - prefix[i] > (b - 1) * (b - 2) + n * (b - a):
                    failures.append(check_quadratic_divisor_sum(n, a, b))
        if n % 500 == 0:
            note(f"quadratic divisor sums: n={n}/{n_max}")
    return failures


# --- sieve sweeps ------------------------------------------------------------


def divisor_count_sieve(limit: int) -> np.ndarray:
    """Array c with c[n] = d(n) for 1 <= n <= limit (c[0] = 0).

    Each divisor pair (i, n/i) with i <= sqrt(n) is counted once from i,
    so i runs to sqrt(limit) only; a square n = i*i counts i once.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    counts = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, isqrt(limit) + 1):
        counts[i * i :: i] += 2
        counts[i * i] -= 1
    return counts


# n per block of the vectorised variant checks: bounds their working memory
SWEEP_BLOCK = 1 << 20


def sweep_divisor_count_bounds(
    limit: int = 1_000_000, containment_limit: int | None = None
) -> list[BoundReport]:
    """Sieve d(n) and check every variant bound for all n up to ``limit``.

    The refined-constant containment check (failures of the "c0" bound must
    all be listed candidates) runs up to ``containment_limit`` instead when
    given; pass 11_793_600 to cover the whole candidate range.  Returns the
    failures across all variants, expected empty.  The one sieve is read in
    blocks of ``SWEEP_BLOCK`` integers, so only it grows with the range.
    """
    top = max(limit, containment_limit or 0)
    hi = containment_limit if containment_limit is not None else limit
    note(f"sieving divisor counts to {top}")
    counts = divisor_count_sieve(top)
    upto = {variant: hi if variant == "c0" else limit for variant in COUNT_BOUNDS}
    above: dict[str, list[int]] = {variant: [] for variant in COUNT_BOUNDS}
    for start in range(1, top + 1, SWEEP_BLOCK):
        n = np.arange(start, min(start + SWEEP_BLOCK, top + 1), dtype=np.int64)
        c = counts[start : start + len(n)].astype(np.int64)
        for variant, (k, c_k, covers) in COUNT_BOUNDS.items():
            if start <= upto[variant]:
                fails = covers(n) & (c**k * c_k.denominator > c_k.numerator * n)
                above[variant] += n[fails & (n <= upto[variant])].tolist()

    viol = above.pop("c0")  # n <= hi above the refined bound
    stray = [k for k in viol if not is_divisor_rich_candidate(k)]
    failures = [check_divisor_count_bound(k, variant)
                for variant, ns in above.items() for k in ns]
    failures += [check_divisor_count_bound(k, "c0") for k in stray]
    note(f"checked n <= {limit} (containment to {hi}): "
         f"{len(failures)} failure(s), {len(viol)} refined-bound violations all "
         + ("listed" if not stray else "NOT all listed"))
    return failures
