"""Divisor counts, divisor-count growth bounds, and related exact checks.

The number of divisors d(n) grows slower than any power of n, but the
verification work in this package needs completely explicit constants.
The bounds handled here all have the shape

    d(n) <= C * n**(1/3)        (or C * n**(1/2)),

with C an exact cube root (or square root) of a rational.  Every check is
performed by clearing the root: ``d(n)**3 * denom <= num * n``.  No floats
are involved, so a reported pass is a proof for that n.

Also provided: the step function ``gamma_value`` used by the proportion bounds,
the per-prime factors ``(alpha+1)/p**(alpha/3)`` that drive the cube-root
constants, the explicit finite set of candidate exceptions to the refined
bound, and a quadratic divisor-sum inequality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import isqrt
from typing import Callable

import numpy as np

from .enclosure import Interval, cbrt_enclosure
from .reports import BoundReport

__all__ = [
    "divisor_list",
    "gamma_value",
    "peak_exponent",
    "divisor_ratio_factor",
    "CUBE_CONSTANTS",
    "C0_CUBED",
    "COUNT_BOUND_VARIANTS",
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
    """Ascending tuple of the positive divisors of n >= 1.

    n is factored by trial division over a shrinking cofactor: the trials
    stop once the trial divisor's square exceeds what is left of n, so the
    cost is set by n's largest prime factors, not by n (2**64 takes 64
    halvings).  A large prime n still costs sqrt(n) trials.  The divisors
    are then generated from the factorization and sorted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    divs = [1]
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            power = [1]
            while rest % p == 0:
                rest //= p
                power.append(power[-1] * p)
            divs = [d * q for d in divs for q in power]
        p += 1 if p == 2 else 2
    if rest > 1:
        divs += [d * rest for d in divs]
    return tuple(sorted(divs))


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


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


def peak_exponent(p: int) -> int:
    """The exponent at which (alpha+1)/p**(alpha/3) peaks over alpha >= 0.

    Equals floor(1/(p**(1/3)-1)) for prime p, computed without floats:
    the largest k >= 1 with p*k**3 <= (k+1)**3, and 0 when there is none.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    best = 0
    k = 1
    while p * k**3 <= (k + 1) ** 3:
        best = k
        k += 1
    return best


def divisor_ratio_factor(p: int, alpha: int, digits: int = 30) -> Interval:
    """Enclosure of (alpha+1)/p**(alpha/3), the per-prime factor of d(n)/n^(1/3)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    # (alpha+1)/p**(alpha/3) = cbrt((alpha+1)**3 / p**alpha)
    return cbrt_enclosure(Fraction((alpha + 1) ** 3, p**alpha), digits)


# Cubes of the constants C in d(n) <= C * n**(1/3), keyed by variant.
CUBE_CONSTANTS: dict[str, Fraction] = {
    "third": Fraction(1536, 35),  # all n
    "odd": Fraction(192, 35),  # odd n
    "no9": Fraction(4096, 105),  # 9 does not divide n
    "odd-no9": Fraction(512, 105),  # odd n, 9 does not divide n
    "c0": Fraction(768, 35),  # all n outside the candidate set below
}

C0_CUBED = CUBE_CONSTANTS["c0"]

COUNT_BOUND_VARIANTS = ("half", "third", "odd", "no9", "odd-no9", "c0")


def applicable_variants(n: int) -> tuple[str, ...]:
    out = ["half", "third"]
    if n % 2 == 1:
        out.append("odd")
    if n % 9 != 0:
        out.append("no9")
    if n % 2 == 1 and n % 9 != 0:
        out.append("odd-no9")
    out.append("c0")
    return tuple(out)


def check_divisor_count_bound(n: int, variant: str) -> BoundReport:
    """Check d(n) against the growth bound selected by ``variant``.

    Variants: "half" checks d(n)^2 <= 3n; "third", "odd", "no9" and
    "odd-no9" check d(n)^3 <= C^3 * n with the matching cube constant;
    "c0" checks the refined constant and treats membership in the
    explicit candidate set as a pass (the bound promises nothing there).
    Parity-restricted variants raise ValueError when n does not qualify.
    """
    d = len(divisor_list(n))
    if variant == "half":
        lhs, rhs = Fraction(d * d), Fraction(3 * n)
        return BoundReport("divcount-half", n, None, d, lhs, rhs, lhs <= rhs)
    if variant not in CUBE_CONSTANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if variant in ("odd", "odd-no9") and n % 2 == 0:
        raise ValueError(f"variant {variant!r} needs odd n")
    if variant in ("no9", "odd-no9") and n % 9 == 0:
        raise ValueError(f"variant {variant!r} needs n not divisible by 9")
    cube = CUBE_CONSTANTS[variant]
    lhs = Fraction(d**3)
    rhs = cube * n
    ok = lhs <= rhs
    witness = ""
    if variant == "c0" and not ok:
        if is_divisor_rich_candidate(n):
            ok = True
            witness = "listed candidate exception"
        else:
            witness = "bound fails and n is not a listed candidate"
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

    Requires 1 <= a <= b <= n.
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


def sweep_quadratic_divisor_sums(
    n_max: int, progress: Callable[[str], None] | None = None
) -> list[BoundReport]:
    """Exhaustively check the quadratic divisor-sum bound for all
    1 <= a <= b <= n <= n_max.  Returns the failures (expected empty).

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
        if progress is not None and n % 500 == 0:
            progress(f"quadratic divisor sums: n={n}/{n_max}")
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

# variant -> the n (int64) whose divisor count c fails its bound, c3 = c**3
_VARIANT_FAILS = {
    "half": lambda n, c, c3: c * c > 3 * n,
    "third": lambda n, c, c3: c3 * 35 > 1536 * n,
    "odd": lambda n, c, c3: (n % 2 == 1) & (c3 * 35 > 192 * n),
    "no9": lambda n, c, c3: (n % 9 != 0) & (c3 * 105 > 4096 * n),
    "odd-no9": lambda n, c, c3: (n % 2 == 1) & (n % 9 != 0) & (c3 * 105 > 512 * n),
}


def sweep_divisor_count_bounds(
    limit: int = 1_000_000,
    containment_limit: int | None = None,
    progress: Callable[[str], None] | None = None,
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
    if progress is not None:
        progress(f"sieving divisor counts to {top}")
    counts = divisor_count_sieve(top)
    bad: dict[str, list[int]] = {variant: [] for variant in _VARIANT_FAILS}
    viol: list[int] = []  # n <= hi above the refined bound
    for start in range(1, top + 1, SWEEP_BLOCK):
        n = np.arange(start, min(start + SWEEP_BLOCK, top + 1), dtype=np.int64)
        c = counts[start : start + len(n)].astype(np.int64)
        c3 = c * c * c
        if start <= limit:
            for variant, fails in _VARIANT_FAILS.items():
                bad[variant] += n[fails(n, c, c3) & (n <= limit)].tolist()
        viol += n[(c3 * 35 > 768 * n) & (n <= hi)].tolist()

    failures = [check_divisor_count_bound(k, variant)
                for variant, ns in bad.items() for k in ns]
    cand = _candidate_set()
    stray = [k for k in viol if k not in cand]
    failures += [check_divisor_count_bound(k, "c0") for k in stray]
    if progress is not None:
        progress(
            f"checked n <= {limit} (containment to {hi}): "
            f"{len(failures)} failure(s), {len(viol)} refined-bound violations all "
            + ("listed" if not stray else "NOT all listed")
        )
    return failures
