"""Upper bounds on the order-dividing proportions, verified exactly.

The central claim handled here: for m >= n - 1,

    P(n, m) <= 1/n + gamma(m) * m / n**2,

with gamma the three-step constant from :mod:`symprop.divisors`.  The
sweep first encloses every P(n, m) in float64 with the error bound written
in :mod:`symprop.proportions`, and a cell passes there only when the upper
end of its enclosure lies below the bound, itself rounded down.  Every other
cell goes to the exact check, :func:`check_prop_upper_bound`, through the
one exact call of :func:`~symprop.proportions.filter_then_exact`, and it
reports every failure with exact sides.  So a pass is certified either by
the written float bound or by exact arithmetic, and every FAIL is exact.

The supporting computational step works divisor by divisor: for every
divisor d of m lying above gamma(m)*sqrt(m), the relaxed summation S-hat must
stay below (d-1)(d-2)(1 + gamma*m/d).  That check fails precisely for
m = 72 and m = 120, and for those two values the capped summation S is
instead compared directly against (n-1)(n-2)(1 + gamma*m/n) over the
whole range sqrt(gamma*m) <= n <= m + 1.

For the tail in m there is a closed expression

    f(m, c) = 3c^2 sqrt(gm) / (m^(1/3) (sqrt(gm) - 1))
              + c^3 sqrt(gm) / ((sqrt(gm) - 1)(sqrt(gm) - 2)),

g = gamma(m).  Its bounds here are exact rationals, built from directed
rational bounds on its three roots sqrt(gm), c^(2/3) and m^(1/3), one
:func:`~symprop.enclosure.root_enclosure` call each; the fact that
f(19020, c0) <= 1 anchors the large-m branch.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .divisors import C0_CUBED, divisor_list, divisor_rich_candidates, gamma_value
from .enclosure import root_enclosure
from .proportions import (
    _arrangement_weights,
    filter_then_exact,
    prop_enclosure,
    prop_order_dividing,
)
from .reports import BoundReport, note

__all__ = [
    "prop_upper_bound",
    "check_prop_upper_bound",
    "sweep_prop_bound",
    "prop_upper_bound_near",
    "verify_shat_condition",
    "verify_exceptional_m",
    "majorant_moduli",
    "sweep_divisor_majorant",
    "excess_ratio_bound",
    "check_excess_threshold",
    "check_excess_monotone",
    "EXPECTED_MAJORANT_FAILURES",
]

EXPECTED_MAJORANT_FAILURES = frozenset({72, 120})


def prop_upper_bound(n: int, m: int) -> Fraction:
    """The bound 1/n + gamma(m)*m/n**2; requires m >= n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < n - 1:
        raise ValueError("the bound needs m >= n - 1")
    return Fraction(1, n) + gamma_value(m) * m / n**2


def check_prop_upper_bound(n: int, m: int) -> BoundReport:
    lhs = prop_order_dividing(n, m)
    rhs = prop_upper_bound(n, m)
    return BoundReport("prop-upper", n, m, None, lhs, rhs, lhs <= rhs)


def _open_cells(tasks: Sequence[tuple[int, int, int]]) -> Iterator[tuple[int, int]]:
    """The cells (n, m) of ``tasks`` the float filter cannot pass, ascending
    in n and, at each n, in task order.

    A task (m, n_first, n_last) asks for n_first <= n <= n_last.  A cell
    passes when the upper end of the enclosure of P(n, m) is at most the
    bound (n*q + p*m) / (n*n*q), gamma(m) = p/q, rounded down: numerator and
    denominator are exact in float64 below 2**53, the quotient is correctly
    rounded, and one step down (nextafter) puts it below the true bound.
    """
    ms, first, last = (np.array(column) for column in zip(*tasks))
    upto = int(last.max())
    _, hi = prop_enclosure(ms.tolist(), upto)
    gammas = [gamma_value(m) for m in ms.tolist()]
    p = np.array([g.numerator for g in gammas])
    q = np.array([g.denominator for g in gammas])
    n = np.arange(1, upto + 1)[:, None]
    num, den = n * q + p * ms, n * n * q
    passed = (hi[1:] <= np.nextafter(num / den, -np.inf)) & (den < 2**53)
    rows, cols = np.nonzero((n >= first) & (n <= last) & ~passed)
    return zip((rows + 1).tolist(), ms[cols].tolist())


def sweep_prop_bound(n_lo: int = 5, n_hi: int = 300, m_multiplier: int = 3) -> list[BoundReport]:
    """Check P(n,m) <= 1/n + gamma(m)m/n^2 for n_lo <= n <= n_hi and
    n-1 <= m <= m_multiplier*n.  Returns only the failures (expected none).

    One :func:`~symprop.proportions.filter_then_exact` pass, a column per
    modulus: :func:`_open_cells` passes what the float enclosures certify,
    and the rest get :func:`check_prop_upper_bound`, one at a time, so only
    the failures are held.
    """
    if not 5 <= n_lo <= n_hi:
        raise ValueError("need 5 <= n_lo <= n_hi")
    if m_multiplier < 1:
        raise ValueError("m_multiplier must be >= 1")
    tasks: list[tuple[int, int, int]] = []
    for m in range(n_lo - 1, m_multiplier * n_hi + 1):
        # n must satisfy n_lo <= n <= n_hi, n <= m+1 and m <= mult*n
        n_first = max(n_lo, -(-m // m_multiplier))
        n_last = min(n_hi, m + 1)
        if n_first <= n_last:
            tasks.append((m, n_first, n_last))

    failures = filter_then_exact(
        "bound sweep", tasks, sum(last - first + 1 for _, first, last in tasks), _open_cells,
        lambda cells: (check_prop_upper_bound(n, m) for n, m in cells))
    failures.sort(key=lambda r: (r.n, r.m))
    return failures


def prop_upper_bound_near(n: int, m: int) -> Fraction:
    """Sharper bound 1/m + d(m)(2 + 4*gamma(m))/n^2, valid for m in {n-1, n}."""
    if m not in (n - 1, n):
        raise ValueError("this bound needs m = n - 1 or m = n")
    d = len(divisor_list(m))
    return Fraction(1, m) + Fraction(d * (2 + 4 * gamma_value(m)), 1) / n**2


# --- the divisor-by-divisor computational step -------------------------------


def _capped_sums(m: int, top: int) -> list[int]:
    """The summation S(n, m) at index n, for every n <= top:

    S(n,m) = sum_{d|m, 3<=d<=n} (d-1)(d-2)
             + 3 * sum_{d1,d2|m, 2<=d2, d1+d2<=n} (d2-1)
             + #{(d1,d2,d3): di|m, d1+d2+d3 <= n}         (ordered tuples).

    It is :func:`~symprop.proportions.prop_split` with every P(n - s, m)
    set to 1, times n!/(n-3)!, so (n-3)!/n! times it majorizes P(n, m) for
    n >= 3.  Every term sits at a total length s <= n, so S(n, m) is a
    prefix sum of the arrangement weights built once, at n = top.
    """
    one, two, three = _arrangement_weights(divisor_list(m), top)
    return list(accumulate(a + 3 * b + c for a, b, c in zip(one, two, three)))


def _relaxed_sums(m: int, args: Sequence[int]) -> list[int]:
    """The relaxed summation S-hat(a, m) for each a in ``args``: the three
    sums of S with each divisor capped at a but pair and triple sums at m.

    Split the divisors of m into the small ones (3d <= m, so any pair or
    triple of them passes the sum cap) and the rest, which can only be m/2
    or m: a divisor in (m/3, m] other than those would leave a cofactor
    strictly between 1 and 3.  Everything then reduces to prefix sums over
    the small divisors plus a correction for m/2, with one genuinely
    quadratic piece: the ordered pairs of small divisors summing to at most
    m/2.  It is needed only for arguments at or above m/2, where every small
    divisor counts, so it is one number.  All of it is built once per m.
    """
    ds = divisor_list(m)
    quad = list(accumulate(((d - 1) * (d - 2) for d in ds), initial=0))
    lin = list(accumulate((d - 1 for d in ds), initial=0))
    small = bisect_right(ds, m // 3)
    for d in ds[small:]:
        assert d == m or 2 * d == m
    half = m // 2 if m % 2 == 0 else 0
    half_pairs = sum(bisect_right(ds, half - x, 0, small) for x in ds[:small]) if half else 0
    out = []
    for a in args:
        i = bisect_right(ds, a)
        s = min(i, small)
        h = 1 if half and half <= a else 0  # h implies s == small
        pairs = lin[s] * (s + h) + h * (half - 1) * (s + 1)
        out.append(quad[i] + 3 * pairs + s**3 + 3 * h * half_pairs)
    return out


def _tightest(sides: Iterable[tuple[int, int, int]]
              ) -> tuple[list[int], tuple[int, int, int] | None]:
    """For instances (lhs, rhs, x) of lhs <= rhs, rhs > 0: the x that fail,
    and the first instance with the largest lhs/rhs (None when there is none)."""
    failing: list[int] = []
    tight: tuple[int, int, int] | None = None
    for lhs, rhs, x in sides:
        if lhs > rhs:
            failing.append(x)
        if tight is None or lhs * tight[1] > tight[0] * rhs:
            tight = (lhs, rhs, x)
    return failing, tight


def verify_shat_condition(m: int) -> BoundReport:
    """Check, for every divisor d of m with d > gamma(m) * sqrt(m), that

        S-hat(d, m) <= (d-1)(d-2)(1 + gamma(m)*m/d),

    S-hat read from :func:`_relaxed_sums` for all of them at once.  The
    threshold comparison is exact (d**2 * q**2 > p**2 * m for
    gamma = p/q) and the main comparison is cross-multiplied by d*q.
    The report fails iff some qualifying divisor violates the
    inequality; the witness names all of them.  Across 2 <= m <= 2000
    together with the refined divisor-count candidates, the failures
    are exactly m = 72 and m = 120; for those two values
    :func:`verify_exceptional_m` settles the full n-range directly.
    A divisor landing exactly on the threshold (d*q == p*sqrt(m),
    which happens at square m such as m = 100, d = 25) is excluded,
    as the comparison is strict; the witness notes any such divisor.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    g = gamma_value(m)
    p, q = g.numerator, g.denominator
    divs, p2m = divisor_list(m), p * p * m
    # d*q > sqrt(p2m) iff d*q > isqrt(p2m), so the qualifying divisors are a
    # suffix, and only the divisor just below it can sit on the threshold
    first = bisect_right(divs, isqrt(p2m) // q)
    boundary = [d for d in divs[first - 1 : first] if d * d * q * q == p2m]
    above = divs[first:]
    # rhs > 0, as d > gamma*sqrt(m) >= 2*sqrt(2)
    failing, tight = _tightest([(s * d * q, (d - 1) * (d - 2) * (d * q + p * m), d)
                                for d, s in zip(above, _relaxed_sums(m, above))])
    notes = []
    if failing:
        notes.append("fails at d=" + ",".join(map(str, failing)))
    elif tight is None:
        notes.append("no divisor above gamma*sqrt(m)")
    if boundary:
        notes.append(
            "d == gamma*sqrt(m) at d=" + ",".join(map(str, boundary)) + " (excluded, strict)"
        )
    lhs, rhs, d = tight if tight is not None else (0, 0, None)
    return BoundReport("relaxed-majorant", None, m, d, Fraction(lhs), Fraction(rhs),
                       not failing, "; ".join(notes))


def verify_exceptional_m(m: int) -> BoundReport:
    """Direct check S(n, m) <= (n-1)(n-2)(1 + gamma*m/n) for all
    n with sqrt(gamma*m) <= n <= m + 1; only m = 72 and m = 120 qualify.
    """
    if m not in EXPECTED_MAJORANT_FAILURES:
        raise ValueError("direct check applies to m = 72 and m = 120 only")
    g = gamma_value(m)
    p, q = g.numerator, g.denominator
    n0 = isqrt(-(-p * m // q) - 1) + 1  # the least n with n*n >= ceil(p*m/q)
    capped = _capped_sums(m, m + 1)
    # rhs > 0, as n >= sqrt(gamma*m) > 2
    failing, (lhs, rhs, n_t) = _tightest(
        (capped[n] * n * q, (n - 1) * (n - 2) * (n * q + p * m), n) for n in range(n0, m + 2))
    witness = f"n range {n0}..{m + 1}"
    if failing:
        witness += "; fails at n=" + ",".join(map(str, failing))
    return BoundReport("capped-majorant", n_t, m, None, Fraction(lhs), Fraction(rhs),
                       not failing, witness)


def majorant_moduli(m_max: int, include_candidates: bool = True) -> list[int]:
    """The m the divisor majorant sweep visits, ascending: 2 <= m <= m_max,
    then, when asked, every refined divisor-count candidate above m_max."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    ms = list(range(2, m_max + 1))
    if include_candidates:
        ms.extend(c for c in divisor_rich_candidates() if c > m_max)
    return ms


def sweep_divisor_majorant(
    m_max: int = 2000, *, include_candidates: bool = True
) -> list[BoundReport]:
    """Run the divisor-by-divisor check over ``majorant_moduli(m_max,
    include_candidates)``.

    Returns the failing reports, ascending in m; the expected failure set
    is EXPECTED_MAJORANT_FAILURES intersected with those moduli.
    """
    ms = majorant_moduli(m_max, include_candidates)
    failures: list[BoundReport] = []
    for i, m in enumerate(ms):
        rep = verify_shat_condition(m)
        if not rep.passed:
            failures.append(rep)
        if (i + 1) % 2000 == 0:
            note(f"divisor majorant: {i + 1}/{len(ms)} values of m")
    return failures


# --- certified tail evaluation -----------------------------------------------


_EXCESS_GRID = (19020, 40000, 10**5, 10**6, 10**7, 10**8)


def excess_ratio_bound(m: int) -> tuple[Fraction, Fraction]:
    """Certified bounds lo <= f(m, c0) <= hi, from directed roots.

    Every factor of f is positive once sqrt(gamma*m) > 2, so the upper end
    takes each root in a numerator at its upper bound and each root in a
    denominator at its lower bound, and the lower end the opposite.
    """
    if m < 2:
        raise ValueError("needs m >= 2 so that sqrt(gamma*m) > 2")
    g_lo, g_hi = root_enclosure(gamma_value(m) * m, 2)
    if not g_lo > 2:
        raise ValueError("sqrt(gamma*m) must exceed 2")
    c_sq_lo, c_sq_hi = root_enclosure(C0_CUBED * C0_CUBED, 3)
    m_cbrt_lo, m_cbrt_hi = root_enclosure(m, 3)

    def f(g_up: Fraction, c_sq: Fraction, m_cbrt: Fraction, g_down: Fraction) -> Fraction:
        return (3 * c_sq * g_up / (m_cbrt * (g_down - 1))
                + C0_CUBED * g_up / ((g_down - 1) * (g_down - 2)))

    return f(g_lo, c_sq_lo, m_cbrt_hi, g_hi), f(g_hi, c_sq_hi, m_cbrt_lo, g_lo)


def check_excess_threshold() -> BoundReport:
    """Certify f(19020, c0) <= 1 from the upper end of its bounds."""
    lo, hi = excess_ratio_bound(19020)
    return BoundReport(
        "excess-threshold",
        None,
        19020,
        None,
        hi,
        Fraction(1),
        hi <= 1,
        f"enclosure width {float(hi - lo):.2e}",
    )


def check_excess_monotone() -> BoundReport:
    """Check f(m, c0) is non-increasing across the sampled grid.

    The grid ascends and lies in the constant-gamma tail (m > 360); each
    adjacent pair is compared through the bounds, so a pass proves the
    ordering of the true values at the sampled points.
    """
    los, his = zip(*map(excess_ratio_bound, _EXCESS_GRID))
    bad = [i for i in range(len(los) - 1) if not los[i] >= his[i + 1]]
    witness = "grid " + ",".join(map(str, _EXCESS_GRID))
    if bad:
        pairs = ", ".join(f"({_EXCESS_GRID[i]},{_EXCESS_GRID[i + 1]})" for i in bad)
        witness += "; order not certified at " + pairs
        lhs, rhs = his[bad[0] + 1], los[bad[0]]
    else:
        lhs, rhs = his[-1], los[0]
    return BoundReport(
        "excess-monotone",
        None,
        _EXCESS_GRID[0],
        None,
        lhs,
        rhs,
        not bad,
        witness,
    )
