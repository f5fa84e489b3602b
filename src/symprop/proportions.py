"""Proportions of permutations whose order divides m: exact, and float64 enclosures.

Let P(n, m) be the proportion of the symmetric group S_n whose elements
have order dividing m, equivalently whose cycle lengths all divide m.
Conditioning on the length d of the cycle through a fixed point gives the
recursion

    P(n, m) = (1/n) * sum_{d | m, d <= n} P(n - d, m),      P(0, m) = 1,

because a cycle of length d through the point can be completed in
(n-1)!/(n-d)! ways.  A d-cycle has sign (-1)^(d-1), and the sign is
multiplicative over cycles, so the signed proportion s(n, m), each
permutation weighted by its sign, obeys the same recursion with that sign
on each term:

    s(n, m) = (1/n) * sum_{d | m, d <= n} (-1)^(d-1) s(n - d, m),   s(0, m) = 1.

For odd m every term is positive and s = P.  The proportion inside A_n
(n >= 2) is P + s, as 1 + sign(g) is 2 on the even permutations and 0 on
the odd ones.  The signed recursion cancels, so no float code runs it; it
serves only the exact rows.

:class:`ProportionTable` is exact.  It runs either recursion on integers
scaled by L!, for the last degree L of a row: F(j) = L! P(j, m) or
G(j) = L! s(j, m).  Each step is a sum of at most D big integers, D the
number of divisors d <= j of m, and one division by the small integer j,
which is exact because j F(j) = L! j P(j, m) is the sum and
F(j) = (L!/j!) j! P(j, m) is an integer (j! P(j, m) counts permutations);
likewise j! s(j, m) is the count of even permutations less the count of
odd ones.  A Fraction is formed only at query time.

:func:`prop_enclosure` runs the plain recursion in float64, on proportions,
so no factorial is ever formed, for many moduli at once, and bounds only
the (degree, modulus) entries its caller reads.  Nothing cancels,
and the computed value v of p(n) obeys the written bound

    |v - exact| <= 4 N u v + 4 n eta,      N = n D,  provided N u <= 1/4,

with u = 2**-53, eta = 2**-1074 the smallest subnormal, and D the number of
divisors d <= n of m, or any larger count.  Why it holds:

* Rounding.  A step adds at most D non-negative terms, in any order, and
  divides by k, so each term passes through at most D roundings.  Unrolled,
  p(n) is a sum of non-negative products along paths of at most n steps,
  each perturbed by at most N factors (1 + delta), |delta| <= u, that is by
  1 + theta with |theta| <= gamma_N = N u / (1 - N u) (Higham, *Accuracy
  and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.1 and ch. 4).
  Without underflow |v - p| <= gamma_N p.
* Underflow.  p(n, m) = 1/n! underflows past n = 170 when m is a prime
  above n.  An addition with a subnormal result is exact, and a division
  errs by at most eta/2.  Such an error made at depth j reaches the value
  at depth n scaled by the weight of the paths between them, which is a
  probability (at most 1) times at most 1 + gamma_N <= 2, so underflow adds
  at most n eta in all.
* Solving |v - p| <= gamma_N p + n eta for p gives
  |v - p| <= (gamma_N v + n eta) / (1 - gamma_N) <= 2 N u v + 1.5 n eta
  when N u <= 1/4.  The written bound has a spare factor of at least 4/3
  in each term, which covers the roundings made when it is evaluated; the
  enclosure's endpoints v -/+ bound are then rounded outward by one step
  (nextafter).

The module also provides the split of P(n, m) by how three marked points
fall among the cycles.  It weighs each P(n - s, m) by the ways the cycles
through the three points can have total length s.  The divisor summation
S(n, m) of :mod:`symprop.bounds` is that split with every P set to 1,
times n(n-1)(n-2), so the two read one weight table,
``_arrangement_weights``.  The brute-force oracles these are tested against
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .divisors import divisor_list
from .reports import note

__all__ = [
    "ProportionTable",
    "prop_order_dividing",
    "prop_order_dividing_signed",
    "prop_alternating",
    "prop_enclosure",
    "float_error",
    "filter_then_exact",
    "SplitProportions",
    "prop_split",
]


def _divisors_upto(m: int, n: int) -> tuple[int, ...]:
    """The divisors d <= n of m, ascending.

    Trial division up to n when n**2 < m, which is cheaper than listing
    every divisor of a large m; otherwise a prefix of ``divisor_list``.
    """
    if n * n < m:
        return tuple(d for d in range(1, n + 1) if m % d == 0)
    divs = divisor_list(m)
    return divs[: bisect_right(divs, n)]


def _offset_sum(offsets: list[int]) -> Callable[[list[int]], int]:
    """The function summing row[k] over the offsets k."""
    if not offsets:
        return lambda row: 0
    if len(offsets) == 1:
        (k,) = offsets
        return lambda row: row[k]
    get = itemgetter(*offsets)
    return lambda row: sum(get(row))


class ProportionTable:
    """Exact rows of the recursions, scaled by a factorial; one row kept.

    The row for modulus m and a sign flag holds, for 0 <= j <= L, L being
    its last degree, the integers F(j) = L! * P(j, m) of a plain row, or
    G(j) = L! * s(j, m) of a signed one:

        F(0) = L!,      F(j) = (sum_{d | m, d <= j} F(j - d)) // j,
        G(0) = L!,      G(j) = (sum_{d odd} G(j - d) - sum_{d even} G(j - d)) // j.

    The division is exact: the sum is j * F(j) (or j * G(j)), and
    F(j) = (L!/j!) * C(j) is an integer, C(j) = j! P(j, m) being a count of
    permutations; G(j) likewise, j! s(j, m) being the even count less the
    odd one.  A step costs one big-integer addition per divisor and one
    division by the small integer j.

    Only the row built last is kept, keyed by (m, signed), up to the degree
    L of the request that built it.  For odd m the two rows agree, so the
    key folds signed to False.  Any request the kept row does not cover
    replaces it with a row built to that request's degree, so a caller that
    reads one modulus and sign at several degrees first calls ``ensure`` at
    the top one.  The exact theorem-2 path does so: each modulus gets one
    table, whose plain row, built once to the highest degree read, serves
    every family and degree that reads that modulus, followed by a signed
    row when an A_n family reads it (see :func:`symprop.recognition.cond_probs`).

    ``prop`` forms one Fraction, the row's entry at n over L!.  ``count``,
    which only the tests and the benchmark's tracer reach, divides that
    entry by L!/n!, which it derives from the last degree it read, so reads
    in ascending (or descending) order cost one small factor each.
    """

    def __init__(self) -> None:
        self._key = (0, False)  # (m, signed) of the kept row; m = 0 while there is none
        self._scale = 1  # L!, L being the last degree of the kept row
        self._row: list[int] = []
        self._down = (0, 1)  # (k, L!/k!) for the last degree k read by count

    def _build(self, m: int, signed: bool, upto: int) -> None:
        """Keep a row that covers degree upto for (m, signed), building it if need be."""
        if m < 1:
            raise ValueError("m must be positive")
        key = (m, signed and m % 2 == 0)  # an odd m admits only even permutations
        if key == self._key and upto < len(self._row):
            return
        scale = factorial(upto)
        self._key, self._scale, self._down = key, scale, (upto, 1)
        row = self._row = [scale]
        # row[j - d] is row[-d] while row has j entries; the divisors d <= j
        # only change at j = d, so each stretch of degrees between two
        # divisors sums over fixed lists of offsets, the even d of a signed
        # row subtracted
        divs = _divisors_upto(m, upto)
        ends = divs[1:] + (upto + 1,)
        plus: list[int] = []
        minus: list[int] = []
        for d, end in zip(divs, ends):
            (minus if key[1] and d % 2 == 0 else plus).append(-d)
            at_plus, at_minus = _offset_sum(plus), _offset_sum(minus)
            for j in range(d, end):
                row.append((at_plus(row) - at_minus(row)) // j)

    def count(self, n: int, m: int, signed: bool = False) -> int:
        """The weighted count C(n) itself (n! times the proportion)."""
        if m < 1:
            raise ValueError("m must be positive")
        if n < 0:
            raise ValueError("count is defined for n >= 0")
        self._build(m, signed, n)
        # L!/n! from the last one by a few small factors when reads run in order
        k, q = self._down
        q = q // prod(range(k + 1, n + 1)) if n >= k else q * prod(range(n + 1, k + 1))
        self._down = (n, q)
        return self._row[n] // q

    def prop(self, n: int, m: int, signed: bool = False) -> Fraction:
        if m < 1:
            raise ValueError("m must be positive")
        if n < 0:
            raise ValueError("prop is defined for n >= 0")
        if n == 0:
            return Fraction(1)
        self._build(m, signed, n)
        return Fraction(self._row[n], self._scale)

    def ensure(self, m: int, upto: int, signed: bool = False) -> None:
        self._build(m, signed, max(upto, 0))


def prop_order_dividing(n: int, m: int) -> Fraction:
    """Proportion of S_n whose element orders divide m (n = 0 gives 1)."""
    return ProportionTable().prop(n, m)


def prop_order_dividing_signed(n: int, m: int) -> Fraction:
    """Signed version: each permutation weighted by its sign before averaging."""
    return ProportionTable().prop(n, m, signed=True)


def prop_alternating(n: int, m: int) -> Fraction:
    """Proportion of A_n whose element orders divide m; needs n >= 2.

    Averaging 1 + sign(g) over S_n keeps exactly the even permutations, at
    twice their weight, so the A_n proportion is the plain one plus the
    signed one.  The signed row replaces the plain one on the table, so one
    row is held at a time.
    """
    if n < 2:
        raise ValueError("alternating-group proportion needs n >= 2")
    t = ProportionTable()
    return t.prop(n, m) + t.prop(n, m, signed=True)


# --- float64 enclosures ------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074
# columns per block of filter_then_exact: bounds the one float table of
# prop_enclosure at (upto + 1) * ENCLOSURE_COLUMNS floats per modulus of a column
ENCLOSURE_COLUMNS = 1024


def float_error(values: np.ndarray, depth: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The written bound 4 N u v + 4 n eta on |v - exact|, N = n D.

    ``depth`` is n and ``terms`` is D (see the module docstring), or any
    larger count; the three arrays broadcast.  Every product but the one
    with ``values`` is exact.
    """
    return 4 * UNIT_ROUNDOFF * (depth * terms) * values + 4 * SMALLEST_SUBNORMAL * depth


def prop_enclosure(moduli: Sequence[int], degrees: np.ndarray,
                   columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 arrays lo, hi with lo[r] <= P(degrees[r], moduli[columns[r]])
    <= hi[r], certified, for each read r.

    One float table p(k) at [k, i], k up to the top degree read, serves every
    column: step k sums the (divisor, column) pairs with d <= k, a prefix of
    the pairs sorted by divisor, with one bincount.  Only the reads are
    bounded (module docstring), D counting divisors up to the top degree.
    """
    upto = int(degrees.max(initial=0))
    if degrees.min(initial=0) < 0 or any(m < 1 for m in moduli):
        raise ValueError("need degrees >= 0 and positive moduli")
    width = len(moduli)
    divs = [_divisors_upto(m, upto) for m in moduli]
    terms = np.array([len(ds) for ds in divs], dtype=np.int64)
    if upto * int(terms.max(initial=0)) * UNIT_ROUNDOFF > 0.25:
        raise ValueError("rows too deep for the written float bound")
    d = np.fromiter(chain.from_iterable(divs), np.int64, int(terms.sum()))
    col = np.repeat(np.arange(width), terms)
    order = np.argsort(d, kind="stable")
    d, col = d[order], col[order]
    active = np.searchsorted(d, np.arange(upto + 1), side="right")
    back = col - d * width  # entry [k - d, col] of a row-major table sits at k*width + back
    table = np.zeros((upto + 1, width))
    table[0] = 1.0
    flat = table.reshape(-1)
    for k, j in enumerate(active.tolist()[1:], 1):
        table[k] = np.bincount(col[:j], flat[k * width + back[:j]], width) / k
    values = table[degrees, columns]
    del table, flat  # the reads are all that is kept
    err = float_error(values, degrees, terms[columns])
    lo = values - err
    values += err
    return np.nextafter(lo, -np.inf, out=lo), np.nextafter(values, np.inf, out=values)


Column = TypeVar("Column")
Cell = TypeVar("Cell")
Report = TypeVar("Report")


def filter_then_exact(
    label: str,
    columns: Sequence[Column],
    cells: int,
    open_cells: Callable[[Sequence[Column]], Iterable[Cell]],
    exact: Callable[[list[Cell]], Iterable[Report]],
) -> list[Report]:
    """The failing reports of a sweep over ``cells`` cells, float filter first.

    This is the one place where open cells meet their exact reports.
    ``open_cells`` encloses the cells of a block of at most ENCLOSURE_COLUMNS
    columns, and no other entry, with one :func:`prop_enclosure` call and
    yields the cells it cannot pass.  The open cells of every block, in the
    order named, go to one ``exact`` call, which returns one report per cell
    in the same order.  One :func:`note` gives the count of each.
    """
    sent = [cell for start in range(0, len(columns), ENCLOSURE_COLUMNS)
            for cell in open_cells(columns[start : start + ENCLOSURE_COLUMNS])]
    # strict: a batch that drops or adds a report is a fault, not a pass
    failures = [report for _, report in zip(sent, exact(sent), strict=True)
                if not report.passed]
    note(f"{label}: {cells - len(sent)} of {cells} cells decided by the float filter, "
         f"{len(sent)} by exact arithmetic")
    return failures


class SplitProportions(NamedTuple):
    """P(n, m) split by how three marked points fall among the cycles."""

    one_cycle: Fraction  # all three points on a common cycle
    two_cycles: Fraction  # exactly two of them share a cycle
    three_cycles: Fraction  # pairwise distinct cycles

    @property
    def total(self) -> Fraction:
        return self.one_cycle + self.two_cycles + self.three_cycles


def _arrangement_weights(divs: Sequence[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """Weights, indexed by s <= n, of the ways three marked points can lie on
    cycles of total length s, the lengths drawn from the ascending ``divs``:

      one cycle:    (d-1)(d-2) at s = d,
      two cycles:   d2-1 for each ordered pair with d1 + d2 = s,
      three cycles: 1 for each ordered triple with d1 + d2 + d3 = s.
    """
    one, two, three, pairs = ([0] * (n + 1) for _ in range(4))
    for d2 in divs:
        if d2 > n:
            break
        one[d2] = (d2 - 1) * (d2 - 2)
        for d1 in divs:
            s = d1 + d2
            if s > n:
                break
            pairs[s] += 1
            two[s] += d2 - 1
    for d3 in divs:
        for s in range(d3 + 2, n + 1):
            three[s] += pairs[s - d3]
    return one, two, three


def prop_split(n: int, m: int) -> SplitProportions:
    """Split P(n, m) by the cycle arrangement of three marked points.

    With divisors d of m as admissible cycle lengths:

      one_cycle   = (n-3)!/n! * sum_{d, 3 <= d <= n} (d-1)(d-2) P(n-d, m)
      two_cycles  = 3 (n-3)!/n! * sum_{d1, d2 >= 2, d1+d2 <= n} (d2-1) P(n-d1-d2, m)
      three_cycles= (n-3)!/n! * sum_{d1, d2, d3, sum <= n} P(n-d1-d2-d3, m)

    The three parts sum to P(n, m) exactly.
    """
    if n < 3:
        raise ValueError("the split needs n >= 3")
    if m < 1:
        raise ValueError("m must be positive")
    t = ProportionTable()
    t.ensure(m, n - 3)  # every weight sits at s >= 3, so the parts read P(j, m), j <= n - 3
    row, scale = t._row, t._scale
    p1, p2, p3 = (sum(w * row[n - s] for s, w in enumerate(weights) if w)
                  for weights in _arrangement_weights(_divisors_upto(m, n), n))
    den = n * (n - 1) * (n - 2) * scale
    return SplitProportions(Fraction(p1, den), Fraction(3 * p2, den), Fraction(p3, den))
