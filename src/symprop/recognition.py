"""Conditional probabilities for locating long cycles by powering.

Ten families of cycle types are tracked, indexed 1..10.  Each family
fixes, for an admissible degree n, a cycle length r close to n and a
target type: an r-cycle alone, or an r-cycle joined by a 2-cycle, a
3-cycle, or both, with the leftover points fixed.  Event A is "a
uniform random element has exactly the target type"; event B is the
observable power condition "g**(s*r) = 1 and the order of g**r is s"
for the family's power order s in {1, 2, 3}.  A lies inside B, so the
quotient P(A)/P(B) is the chance that an element passing the cheap
power test is already a target element.

The families and their groups:

    case 1:   r = n,     type r^1,         s = 1, in S_n
    case 2:   n odd,  r = n-2, type 2^1 r^1,  s = 2, in S_n
    case 3:   n even, r = n-3, type 2^1 r^1,  s = 2, in S_n
    case 4:   n odd,  r = n,   type r^1,      s = 1, in A_n
    case 5:   n even, r = n-1, type r^1,      s = 1, in A_n
    case 6:   n = 2,4 (6), r = n-3, type 3^1 r^1, s = 3, in A_n
    case 7:   n = 3,5 (6), r = n-4, type 3^1 r^1, s = 3, in A_n
    case 8:   n = 0 (6),   r = n-5, type 3^1 r^1, s = 3, in A_n
    case 9:   n = 1 (6),   r = n-6, type 3^1 r^1, s = 3, in A_n
    case 10:  n = 1 (6),   r = n-5, type 2^1 3^1 r^1, s = 3, in A_n

For cases 6 to 9 the conditioning event B consists of even
permutations only (every cycle length divides 3r, which is odd), so
the conditional probability is the same whether computed in S_n or in
A_n; those cases are computed in S_n.  Cases 4, 5 and 10 are computed
in A_n, from the share of even permutations.

All probabilities are exact rationals.  :func:`sweep_theorem2` passes a
degree without them only when the float64 enclosure of P(B) (see
:mod:`symprop.proportions`) lies below the exact threshold; every other
degree, and every failure it reports, is computed exactly.  The absolute
lower bounds on
P(A | B) are 1/2 for the single-cycle families (weakening to 2/7 for
case 1 when n divides 24), and 1/3 for the rest, except a short list
of small degrees where 1/4, 3/10 or 3/20 is the true floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .divisors import divisor_list, gamma_value
from .enclosure import cbrt_enclosure
from .proportions import (
    ENCLOSURE_COLUMNS,
    CycleType,
    ProportionTable,
    _table,
    prop_alternating,
    prop_enclosure,
)
from .reports import BoundReport, CondProbReport

__all__ = [
    "CaseSpec",
    "case_params",
    "admissible_n",
    "admissible_degrees",
    "prob_A",
    "prob_B",
    "prob_B_upper_bound",
    "cond_prob",
    "lower_bound_for",
    "check_n23_bound",
    "verify_theorem2",
    "sweep_theorem2",
    "admissible_divisor_check",
    "TABLE2_EXCEPTIONS",
    "CASE1_WEAK_NS",
]


@dataclass(frozen=True)
class CaseSpec:
    """One concrete family instance: degree, target type, power test."""

    case_id: int
    n: int
    r: int
    cycle_type: CycleType  # full type, fixed points included
    power_order: int  # required order s of g**r
    group: str  # ambient group, "S" or "A"
    n_condition: str  # admissibility predicate on n, for display

    @property
    def calc_group(self) -> str:
        """Group the probabilities are computed in.

        Differs from ``group`` only in cases 6 to 9, where B contains
        even permutations only and the S_n numbers carry over.
        """
        return "S" if self.case_id in (1, 2, 3, 6, 7, 8, 9) else "A"

    @property
    def order_bound(self) -> int:
        """The modulus m = s*r of the power condition g**m = 1."""
        return self.power_order * self.r


# per case: (residues, modulus, r_offset, extra_parts, s, ambient, n_min, label)
_CASE_ROWS: dict[int, tuple[tuple[int, ...] | None, int, int, tuple[int, ...], int, str, int, str]] = {
    1: (None, 1, 0, (), 1, "S", 5, "any n"),
    2: ((1,), 2, 2, (2,), 2, "S", 8, "n odd"),
    3: ((0,), 2, 3, (2,), 2, "S", 8, "n even"),
    4: ((1,), 2, 0, (), 1, "A", 5, "n odd"),
    5: ((0,), 2, 1, (), 1, "A", 5, "n even"),
    6: ((2, 4), 6, 3, (3,), 3, "A", 8, "n = 2 or 4 (mod 6)"),
    7: ((3, 5), 6, 4, (3,), 3, "A", 8, "n = 3 or 5 (mod 6)"),
    8: ((0,), 6, 5, (3,), 3, "A", 8, "n = 0 (mod 6)"),
    9: ((1,), 6, 6, (3,), 3, "A", 8, "n = 1 (mod 6)"),
    10: ((1,), 6, 5, (2, 3), 3, "A", 8, "n = 1 (mod 6)"),
}

# Degrees where the case-1 floor drops from 1/2 to 2/7.
CASE1_WEAK_NS = frozenset({6, 8, 12, 24})

# (case_id, n) pairs whose floor is below the generic 1/3.  The last
# entry is the family with r = 80: the defining relation r = n - 5 and
# the congruence n = 1 (mod 6) admit exactly one degree for that cycle
# length, namely n = 85.
TABLE2_EXCEPTIONS: dict[tuple[int, int], Fraction] = {
    (9, 31): Fraction(3, 10),
    (10, 13): Fraction(3, 20),
    (10, 25): Fraction(3, 20),
    (10, 85): Fraction(3, 10),
}


def admissible_n(case_id: int, n: int) -> bool:
    if case_id not in _CASE_ROWS:
        raise ValueError(f"case_id must be 1..10, got {case_id}")
    residues, modulus, _, _, _, _, n_min, _ = _CASE_ROWS[case_id]
    if n < n_min:
        return False
    return residues is None or n % modulus in residues


def admissible_degrees(case_id: int, n_lo: int, n_hi: int) -> Iterator[int]:
    """Admissible degrees of the case in [n_lo, n_hi], ascending."""
    for n in range(n_lo, n_hi + 1):
        if admissible_n(case_id, n):
            yield n


def case_params(case_id: int, n: int) -> CaseSpec:
    """Resolve a family at a concrete degree.

    Raises ValueError if the degree is below the family minimum (5 for
    cases 1, 4, 5 and 8 otherwise) or breaks its congruence.
    """
    if case_id not in _CASE_ROWS:
        raise ValueError(f"case_id must be 1..10, got {case_id}")
    residues, modulus, offset, extra, s, ambient, n_min, label = _CASE_ROWS[case_id]
    if n < n_min:
        raise ValueError(f"case {case_id} needs n >= {n_min}, got {n}")
    if residues is not None and n % modulus not in residues:
        raise ValueError(f"case {case_id} needs {label}, got n = {n}")
    r = n - offset
    fixed = n - r - sum(extra)
    parts = extra + (r,) + (1,) * fixed
    return CaseSpec(case_id, n, r, CycleType(parts), s, ambient, label)


# closed forms for P(A) in the computation group, as multiples of 1/r
_PROB_A_FORMS: dict[int, Fraction] = {
    1: Fraction(1),
    2: Fraction(1, 2),
    3: Fraction(1, 2),
    4: Fraction(2),
    5: Fraction(2),
    6: Fraction(1, 3),
    7: Fraction(1, 3),
    8: Fraction(1, 6),
    9: Fraction(1, 18),
    10: Fraction(1, 3),
}


def prob_A(spec: CaseSpec) -> Fraction:
    """Exact probability of the target cycle type in ``calc_group``."""
    return _PROB_A_FORMS[spec.case_id] / spec.r


def prob_B(spec: CaseSpec, *, table: ProportionTable | None = None) -> Fraction:
    """Exact probability of the power condition in ``calc_group``."""
    t = _table(table)
    n, r, s = spec.n, spec.r, spec.power_order
    if s == 1:
        if spec.calc_group == "A":
            return prop_alternating(n, r, table=t)
        return t.prop(n, r)
    # order divides s*r but not r
    if spec.calc_group == "A":
        return prop_alternating(n, s * r, table=t) - prop_alternating(n, r, table=t)
    return t.prop(n, s * r) - t.prop(n, r)


def prob_B_upper_bound(spec: CaseSpec) -> Fraction:
    """Closed upper bound for P(B), families 2, 3 and 6 to 10.

    The single-cycle families are served by the sharper near-diagonal
    bound on the plain proportion instead (see bounds module).
    """
    n, r, cid = spec.n, spec.r, spec.case_id
    if cid in (2, 3):
        g = gamma_value(2 * r)
        dm = len(divisor_list(2 * r))
        return (
            Fraction(1, 2 * r)
            + Fraction(3 + 18 * g, 1) / n**2
            + dm * (Fraction(5, 3) + 50 * g / 9) / n**2
        )
    if cid in (6, 7, 8, 9):
        g = gamma_value(3 * r)
        dm = len(divisor_list(3 * r))
        c = {6: Fraction(1), 7: Fraction(1), 8: Fraction(1, 2), 9: Fraction(1, 3)}[cid]
        return c / (3 * r) + Fraction(7 + 39 * g, 1) / n**2 + dm * (20 + 75 * g) / 16 / n**2
    if cid == 10:
        g = gamma_value(3 * r)
        dm = len(divisor_list(3 * r))
        return Fraction(1, 3 * r) + Fraction(8 + 96 * g, 1) / n**2 + dm * (10 + 75 * g) / 2 / n**2
    raise ValueError("closed P(B) bound available for cases 2,3 and 6..10 only")


def lower_bound_for(spec: CaseSpec) -> Fraction:
    """The absolute floor for P(A | B) at this degree."""
    cid, n = spec.case_id, spec.n
    if cid == 1:
        return Fraction(2, 7) if n in CASE1_WEAK_NS else Fraction(1, 2)
    if cid in (4, 5):
        return Fraction(1, 2)
    if cid in (2, 3):
        return Fraction(1, 4) if n in (11, 17, 18) else Fraction(1, 3)
    return TABLE2_EXCEPTIONS.get((cid, n), Fraction(1, 3))


def cond_prob(spec: CaseSpec, *, table: ProportionTable | None = None) -> CondProbReport:
    """P(A | B) = P(A)/P(B) with the floor check folded in."""
    p_a = prob_A(spec)
    p_b = prob_B(spec, table=table)
    if p_b == 0:
        raise ZeroDivisionError(f"event B impossible for case {spec.case_id}, n = {spec.n}")
    quotient = p_a / p_b
    bound = lower_bound_for(spec)
    return CondProbReport(
        spec.case_id, spec.n, spec.r, p_a, p_b, quotient, bound, quotient >= bound
    )


# (base, additive constant a, gamma multiplier b, gamma argument) with
# the floor reading  base - (a + b*gamma(arg)) / n^(2/3)
def _n23_parameters(spec: CaseSpec) -> tuple[Fraction, int, int, int]:
    cid = spec.case_id
    if cid in (1, 4, 5):
        return Fraction(1), 8, 15, spec.n
    if cid in (2, 3):
        return Fraction(1), 18, 76, 2 * spec.r
    if cid == 9:
        return Fraction(1, 2), 46, 228, 3 * spec.r
    return Fraction(1), 98, 839, 3 * spec.r


def check_n23_bound(spec: CaseSpec, cond_value: Fraction) -> BoundReport:
    """Check cond_value >= base - K/n^(2/3) without irrational arithmetic.

    With deficit = max(base - cond_value, 0) the claim is equivalent to
    deficit**3 * n**2 <= K**3, an exact rational comparison.  Whenever
    the floor is nonpositive the comparison passes automatically, so no
    separate positivity test is needed.
    """
    base, a, b, arg = _n23_parameters(spec)
    k = a + b * gamma_value(arg)
    deficit = base - cond_value
    if deficit < 0:
        deficit = Fraction(0)
    lhs = deficit**3 * spec.n**2
    rhs = k**3
    return BoundReport(
        "n23-lower",
        spec.n,
        spec.order_bound,
        None,
        lhs,
        rhs,
        lhs <= rhs,
        f"case {spec.case_id}: floor {base} - ({a}+{b}*gamma({arg}))/n^(2/3)",
    )


def _exact_report(spec: CaseSpec, table: ProportionTable) -> CondProbReport:
    """The exact conditional; it passes only if both floors hold."""
    rep = cond_prob(spec, table=table)
    if not check_n23_bound(spec, rep.p_A_given_B).passed:
        rep = replace(rep, passed=False)
    return rep


def verify_theorem2(
    case_id: int,
    n_lo: int,
    n_hi: int,
    *,
    table: ProportionTable | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[CondProbReport]:
    """Exact conditionals for every admissible degree in [n_lo, n_hi].

    Each report's pass flag requires both the absolute floor and the
    n^(2/3)-shaped floor.  Reports come back sorted by degree.
    """
    t = _table(table)
    out: list[CondProbReport] = []
    degrees = list(admissible_degrees(case_id, n_lo, n_hi))
    for i, n in enumerate(degrees):
        out.append(_exact_report(case_params(case_id, n), t))
        if progress is not None and (i + 1) % 50 == 0:
            progress(f"case {case_id}: {i + 1}/{len(degrees)} degrees")
    return out


def _prob_B_ceiling(spec: CaseSpec) -> Fraction:
    """An exact T such that P(B) <= T implies that both floors hold.

    P(A|B) >= floor  <=>  P(B) <= P(A)/floor.  For the n^(2/3) floor
    base - K/n^(2/3), an upper end c >= n^(2/3) of a cube-root enclosure
    gives the larger floor base - K/c, so clearing it clears the true one.
    """
    base, a, b, arg = _n23_parameters(spec)
    shaped = base - (a + b * gamma_value(arg)) / cbrt_enclosure(spec.n**2, 6).hi
    return prob_A(spec) / max(lower_bound_for(spec), shaped)


def _float_passes(specs: list[CaseSpec]) -> list[bool]:
    """Which degrees of one family the float filter certifies to pass.

    P(B) is P(n, r) when s = 1 and P(n, sr) - P(n, r) otherwise, in the
    family's computation group; the enclosure of the difference adds the
    errors of both terms, rounded outward.
    """
    s, group = specs[0].power_order, specs[0].calc_group
    moduli = [spec.r for spec in specs]
    if s > 1:
        moduli += [spec.order_bound for spec in specs]
    ns = np.array([spec.n for spec in specs])
    lo, hi = prop_enclosure(moduli, int(ns.max()), alternating=group == "A")
    at = (ns, np.arange(len(specs)))
    lo_b, hi_b = lo[at], hi[at]
    if s > 1:
        top = (ns, np.arange(len(specs), 2 * len(specs)))
        lo_b, hi_b = (np.nextafter(lo[top] - hi_b, -np.inf),
                      np.nextafter(hi[top] - lo_b, np.inf))
    # Python floats, so each comparison with a Fraction is exact
    return [low > 0 and high <= _prob_B_ceiling(spec)
            for spec, low, high in zip(specs, lo_b.tolist(), hi_b.tolist())]


def sweep_theorem2(
    case_id: int,
    n_lo: int,
    n_hi: int,
    *,
    table: ProportionTable | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[int, list[CondProbReport]]:
    """The verdicts of :func:`verify_theorem2`, filter first.

    Returns the number of admissible degrees in [n_lo, n_hi] and the exact
    reports of those that fail, sorted by degree.  The float filter passes
    what it can certify; the rest get the exact check.  ``progress`` gets
    the count of each at the end.
    """
    t = _table(table)
    specs = [case_params(case_id, n) for n in admissible_degrees(case_id, n_lo, n_hi)]
    failures: list[CondProbReport] = []
    exact = 0
    for start in range(0, len(specs), ENCLOSURE_COLUMNS):
        block = specs[start : start + ENCLOSURE_COLUMNS]
        for spec, passed in zip(block, _float_passes(block)):
            if not passed:
                exact += 1
                rep = _exact_report(spec, t)
                if not rep.passed:
                    failures.append(rep)
    if progress is not None:
        progress(f"case {case_id}: {len(specs) - exact} of {len(specs)} cells decided by "
                 f"the float filter, {exact} by exact arithmetic")
    return len(specs), failures


def admissible_divisor_check(case_id: int, n: int) -> BoundReport:
    """Classify every divisor d <= n of the power-test modulus.

    For families 2 and 3 (modulus 2r, n >= 7): each divisor is r, or
    2r/3, or at most 2r/5.  For families 6 to 9 (modulus 3r, n >= 8):
    each is r, or 3r/y with y in {5, 7, 11, 13}, or at most r/5.  For
    family 10: each is r, or 3r/4, or at most 3r/5, or the single
    stray triple (n, r, d) = (13, 8, 12).  The report counts
    unclassified divisors on the left against zero on the right.
    """
    if case_id in (2, 3):
        n_min = 7
    elif case_id in (6, 7, 8, 9, 10):
        n_min = 8
    else:
        raise ValueError("divisor classification applies to cases 2,3 and 6..10")
    if n < n_min:
        raise ValueError(f"case {case_id} divisor check needs n >= {n_min}")
    residues, modulus, offset, _, s, _, _, label = _CASE_ROWS[case_id]
    if residues is not None and n % modulus not in residues:
        raise ValueError(f"case {case_id} needs {label}, got n = {n}")
    r = n - offset
    m = s * r
    stray: list[int] = []
    for d in divisor_list(m):
        if d > n:
            break
        if case_id in (2, 3):
            ok = d == r or 3 * d == 2 * r or 5 * d <= 2 * r
        elif case_id in (6, 7, 8, 9):
            ok = d == r or 5 * d <= r or any(d * y == 3 * r for y in (5, 7, 11, 13))
        else:
            ok = d == r or 4 * d == 3 * r or 5 * d <= 3 * r or (n, r, d) == (13, 8, 12)
        if not ok:
            stray.append(d)
    witness = (
        "unclassified d=" + ",".join(map(str, stray))
        if stray
        else f"all divisors of {m} up to {n} classified"
    )
    return BoundReport(
        "divisor-classes",
        n,
        m,
        None,
        Fraction(len(stray)),
        Fraction(0),
        not stray,
        witness,
    )
