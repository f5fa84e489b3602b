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
stay below (d-1)(d-2)(1 + gamma*m/d).  S-hat is written once, as one
exact evaluator batched over (m, a) queries and vectorised in numpy over
every divisor pair (m, d) of a batch of moduli; the sweep feeds it blocks
of consecutive m, each sieved over its own range, and the one-m report
reads it as a batch of one.  That check fails precisely for
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

from fractions import Fraction
from itertools import accumulate, chain
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
from .reports import BoundReport

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
    "EXCESS_THRESHOLD_M",
]

EXPECTED_MAJORANT_FAILURES = frozenset({72, 120})
# the tail's f(m, c0) <= 1 from here on; the majorant sweep covers m up to it
EXCESS_THRESHOLD_M = 19020


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
    n = np.arange(int(last.max()) + 1)[:, None]
    # only the tasks' cells, row-major: by n, then task
    rows, cols = np.nonzero((n >= first) & (n <= last))
    hi = prop_enclosure(ms.tolist(), rows, cols)[1]
    p, q = np.array([gamma_value(m).as_integer_ratio() for m in ms.tolist()]).T
    num = rows * q[cols]
    den = num * rows
    num += (p * ms)[cols]  # in place: the cells can outnumber the table's entries
    bound = num / den
    # NaN-safe: an enclosure end that compares false stays open
    undecided = ~(hi <= np.nextafter(bound, -np.inf, out=bound)) | (den >= 2**53)
    return zip(rows[undecided].tolist(), ms[cols[undecided]].tolist())


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


# moduli per block of the majorant sweep: bounds the divisor pairs held at
# once (4,096 raised the peak RSS of a sweep to m = 100,000 by 4 MB more)
_MAJORANT_BLOCK = 2048


def _sieved_pairs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every divisor pair (m, d), d | m, of lo <= m <= hi as two int64
    arrays, sorted by m and then d.

    A pair with d <= sqrt(m) comes from the multiples of d in
    [max(lo, d*d), hi], and brings its cofactor m/d unless m == d*d, so d
    runs to sqrt(hi) only and no m is factorised.
    """
    ms, ds = [], []
    for d in range(1, isqrt(hi) + 1):
        m = np.arange(max(-(-lo // d), d) * d, hi + 1, d, dtype=np.int64)
        co = m[m != d * d]
        ms += [m, co]
        ds += [np.full(len(m), d, dtype=np.int64), co // d]
    m, d = np.concatenate(ms), np.concatenate(ds)
    order = np.argsort(m * (hi + 1) + d)
    return m[order], d[order]


def _listed_pairs(ms: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """As :func:`_sieved_pairs`, for the ascending moduli ``ms``, from
    :func:`~symprop.divisors.divisor_list`: for sparse moduli."""
    divs = [divisor_list(m) for m in ms]
    return (np.repeat(np.array(ms, dtype=np.int64), [len(ds) for ds in divs]),
            np.array([d for ds in divs for d in ds], dtype=np.int64))


def _relaxed_sums(pairs: tuple[np.ndarray, np.ndarray],
                  qm: Sequence[int], qa: Sequence[int]) -> np.ndarray:
    """The relaxed summation S-hat(a, m) at each query (m, a) of ``qm`` and
    ``qa``: the three sums of S with each divisor capped at a but pair and
    triple sums at m.  ``pairs`` holds every divisor pair (m, d) of at least
    the queried m, sorted by m and then d, as from :func:`_sieved_pairs`.

    Split the divisors of m into the small ones (3d <= m, so any pair or
    triple of them passes the sum cap) and the rest, which can only be m/2
    or m: a divisor in (m/3, m] other than those would leave a cofactor
    strictly between 1 and 3.  Everything then reduces to prefix sums over
    each m's divisors plus a correction for m/2, with one genuinely
    quadratic piece: the ordered pairs of small divisors summing to at most
    m/2.  It is needed only for arguments at or above m/2, where every small
    divisor counts, so it is one number per m; one ``searchsorted`` over the
    sorted keys m*w + d (w above every m) counts it for every m at once.

    All of it is exact in int64.  The prefix sums restart at each m, so
    every number is a key, below (m + 1)**2, or at most S-hat(m, m) <=
    sigma_2(m) + 3 d(m) sigma(m) + d(m)**3 < 2m**2 + 9m**2 + 3m**2, as
    sigma_2(m) < zeta(2) m**2, sigma(m) <= d(m) m and d(m)**2 <= 3m (the
    "half" bound of ``COUNT_BOUNDS``); all stay below 2**63 for
    m <= 8 * 10**8.
    """
    pm, pd = pairs
    if pm[-1] > 8 * 10**8:
        raise ValueError("S-hat is evaluated in int64 for m <= 8 * 10**8 only")
    qm, qa = np.asarray(qm, dtype=np.int64), np.asarray(qa, dtype=np.int64)
    w = int(pm[-1]) + 1
    key = pm * w + pd
    first = np.flatnonzero(np.r_[True, pm[1:] != pm[:-1]])  # where each m starts
    start = np.repeat(first, np.diff(np.r_[first, len(pm)]))
    small = 3 * pd <= pm
    assert np.all(small | (pd == pm) | (2 * pd == pm))
    # the sums over each m's first k divisors at its (k-1)-th pair; the first
    # divisor, 1, adds 0 to both, so k = 0 reads the same place as k = 1
    quad, lin = (_segment_cumsum(x, first) for x in ((pd - 1) * (pd - 2), pd - 1))
    half_p = np.where(pm % 2 == 0, pm // 2, 0)  # m/2 at each pair, 0 for odd m
    # for small x: the divisors d <= m/2 - x, found at key m*w + (m/2 - x)
    below = np.searchsorted(key, key + half_p - 2 * pd, "right") - start
    n_small = np.add.reduceat(small.astype(np.int64), first)
    half_pairs = np.add.reduceat(np.where(small & (half_p > 0), below, 0), first)
    half = half_p[first]
    j = np.searchsorted(pm[first], qm)
    at = first[j]
    i = np.searchsorted(key, qm * w + np.clip(qa, 0, qm), "right") - at
    s = np.minimum(i, n_small[j])
    h = ((half[j] > 0) & (half[j] <= qa)).astype(np.int64)  # h implies s == n_small
    pair_sums = lin[at + np.maximum(s - 1, 0)] * (s + h) + h * (half[j] - 1) * (s + 1)
    return quad[at + np.maximum(i - 1, 0)] + 3 * pair_sums + s**3 + 3 * h * half_pairs[j]


def _segment_cumsum(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running sums of ``x`` that restart at each index of ``first``
    (ascending, from 0): each restart subtracts the segment before it from
    ``x``, which is overwritten."""
    x[first[1:]] -= np.add.reduceat(x, first)[:-1]
    return np.cumsum(x)


def _majorant_sides(pairs: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The instances of the majorant step over the moduli of ``pairs``
    (sorted as from :func:`_sieved_pairs`): arrays m, d, lhs, rhs, one entry
    per divisor d of m with d > gamma(m)*sqrt(m), ascending in m and then d,
    where the step holds iff lhs <= rhs.

    For gamma(m) = p/q from :func:`~symprop.divisors.gamma_value`, d
    qualifies iff (dq)**2 > p**2 m, and the step times q reads lhs =
    S-hat(d, m) q <= rhs = (d-1)(d-2)(q + p m/d), integers as d | m.
    Both are int64 for every m :func:`_relaxed_sums` accepts: above
    m = 360, q = 1, so lhs < 14 m**2 by the bound on S-hat(m, m) there and
    rhs < d**2 + 2dm <= 3m**2; below, q <= 200 keeps them small.
    """
    pm, pd = pairs
    first = np.flatnonzero(np.r_[True, pm[1:] != pm[:-1]])
    gammas = [gamma_value(m) for m in pm[first].tolist()]
    counts = np.diff(np.r_[first, len(pm)])
    p = np.repeat(np.array([g.numerator for g in gammas], dtype=np.int64), counts)
    q = np.repeat(np.array([g.denominator for g in gammas], dtype=np.int64), counts)
    keep = (pd * q) ** 2 > p * p * pm
    m, d, p, q = pm[keep], pd[keep], p[keep], q[keep]
    return m, d, _relaxed_sums(pairs, m, d) * q, (d - 1) * (d - 2) * (q + p * (m // d))


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

    read from :func:`_majorant_sides` as a batch of one modulus, so a
    report compares exactly the sides the sweep compares.  The threshold
    comparison is exact (d**2 * q**2 > p**2 * m for gamma = p/q), and the
    reported sides are the main comparison cross-multiplied by d*q, those
    of the batch times d.  The report fails iff some qualifying divisor
    violates the inequality; the witness names all of them.  Across
    2 <= m <= 19020 together with the refined divisor-count candidates, the
    failures are exactly m = 72 and m = 120; for those two values
    :func:`verify_exceptional_m` settles the full n-range directly.
    A divisor landing exactly on the threshold (d*q == p*sqrt(m),
    which happens at square m such as m = 100, d = 25) is excluded,
    as the comparison is strict; the witness notes any such divisor.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    g = gamma_value(m)
    p, q = g.numerator, g.denominator
    boundary = [d for d in divisor_list(m) if d * d * q * q == p * p * m]
    _, above, lhs, rhs = _majorant_sides(_listed_pairs([m]))
    # rhs > 0, as d > gamma*sqrt(m) >= 2*sqrt(2)
    failing, tight = _tightest(zip(lhs.tolist(), rhs.tolist(), above.tolist()))
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
    return BoundReport("relaxed-majorant", None, m, d, Fraction(lhs * (d or 1)),
                       Fraction(rhs * (d or 1)), not failing, "; ".join(notes))


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


def majorant_moduli(m_max: int, include_candidates: bool = True) -> tuple[range, list[int]]:
    """The m the divisor majorant sweep visits, ascending: the range
    2 <= m <= m_max, then, when asked, the list of every refined
    divisor-count candidate above m_max.  Only the candidates are listed."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    listed = [c for c in divisor_rich_candidates() if c > m_max] if include_candidates else []
    return range(2, m_max + 1), listed


def sweep_divisor_majorant(
    m_max: int = 2000, *, include_candidates: bool = True
) -> list[BoundReport]:
    """Run the divisor-by-divisor check over ``majorant_moduli(m_max,
    include_candidates)``.

    The moduli go in batches, each one :func:`_majorant_sides` call:
    blocks of at most ``_MAJORANT_BLOCK`` consecutive m of the range, each
    sieved over its own range, then all the listed candidates in one batch
    (at most 36,289 divisor pairs, under 4 MB traced at its peak).  So only
    one batch's divisor pairs are held, and no m up to m_max is factorised.
    Each failing m is reported by :func:`verify_shat_condition`.

    Returns the failing reports, ascending in m; the expected failure set
    is EXPECTED_MAJORANT_FAILURES intersected with those moduli.
    """
    sieved, listed = majorant_moduli(m_max, include_candidates)
    batches = chain(
        (_sieved_pairs(lo, min(lo + _MAJORANT_BLOCK - 1, m_max))
         for lo in sieved[::_MAJORANT_BLOCK]),
        [_listed_pairs(listed)] if listed else [])
    failing: list[int] = []
    for pairs in batches:
        m, _, lhs, rhs = _majorant_sides(pairs)
        failing += dict.fromkeys(m[lhs > rhs].tolist())  # each failing m once, ascending
    return [verify_shat_condition(m) for m in failing]


# --- certified tail evaluation -----------------------------------------------


_EXCESS_GRID = (EXCESS_THRESHOLD_M, 40000, 10**5, 10**6, 10**7, 10**8)


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
    lo, hi = excess_ratio_bound(EXCESS_THRESHOLD_M)
    return BoundReport("excess-threshold", None, EXCESS_THRESHOLD_M, None, hi, Fraction(1),
                       hi <= 1, f"enclosure width {float(hi - lo):.2e}")


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
