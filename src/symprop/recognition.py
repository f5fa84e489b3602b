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

Each family's facts are written once, in its row of the private table
``_FAMILIES``: congruence and minimum degree, r, target type, s,
computation group, floors, and the constants of the P(B) bound and the
divisor classes.  Every function reads the row; P(A) is derived from it
as one over the centralizer order of the target type, doubled in A_n.

For cases 6 to 9 the conditioning event B consists of even
permutations only (every cycle length divides 3r, which is odd), so
the conditional probability is the same whether computed in S_n or in
A_n; those cases are computed in S_n.  Cases 4, 5 and 10 are computed
in A_n, each proportion as the plain one plus the signed one.

All probabilities are exact rationals.  Every exact conditional comes
from :func:`cond_probs`, which evaluates a batch of degrees of any families
at once: each distinct modulus of their P(B) terms gets one proportion row,
built once to the highest degree any of them reads, so families that share
a modulus share its row: a modulus m is r = n - offset for every family at
its own degree n = m + offset, families 2 and 3 share 2r, and families 6 to
10 share 3r.
:func:`cond_prob`, the command line's table2 and csv/json verify-thm2, and
the exact fallback of :func:`sweep_theorem2` all go through it; the sweep
sends every degree its filter leaves open to one batch.  It passes a degree
without the exact value only when P(A) over an upper bound hi_B for P(B), a
rational lower bound for P(A | B), already clears both floors by the same
exact predicate that judges the exact conditional; every other degree, and
every failure it reports, is computed exactly.  hi_B is the upper end of
the float64 enclosure of P(B) in S_n (see :mod:`symprop.proportions`),
doubled for the A_n families: for any event B, B and A_n meet in at most
|B| elements and |A_n| = n!/2, so P_{A_n}(B) <= 2 P_{S_n}(B).  The bound is
tight for odd moduli (families 4 and 5), whose B holds even permutations
only.  The absolute lower bounds on P(A | B) are 1/2 for the single-cycle
families (weakening to 2/7 for case 1 when n divides 24), and 1/3 for the
rest, except a short list of small degrees where 1/4, 3/10 or 3/20 is the
true floor.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf, prod
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .divisors import divisor_list, gamma_value
from .proportions import ProportionTable, filter_then_exact, prop_enclosure
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
    "cond_probs",
    "lower_bound_for",
    "check_n23_bound",
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
    parts: tuple[int, ...]  # the target type, ascending, fixed points included
    power_order: int  # required order s of g**r

    @property
    def calc_group(self) -> str:
        """Group the probabilities are computed in, "S" or "A".

        It is the family's group except in cases 6 to 9, where B contains
        even permutations only and the S_n numbers carry over.
        """
        return _FAMILIES[self.case_id].group

    @property
    def order_bound(self) -> int:
        """The modulus m = s*r of the power condition g**m = 1."""
        return self.power_order * self.r


class _Family(NamedTuple):
    """Every fact of one family, in the column order of ``_FAMILIES``."""

    residues: tuple[int, ...]  # admissible n mod `modulus`
    modulus: int
    n_min: int
    label: str  # the congruence, as error messages name it
    offset: int  # r = n - offset
    extra: tuple[int, ...]  # cycles of the target type besides the r-cycle
    s: int  # power order
    group: str  # computation group, "S" or "A"
    floor: Fraction  # absolute floor for P(A | B) outside _FLOOR_EXCEPTIONS
    n23: tuple[Fraction, int, int]  # (base, a, b) of base - (a + b*gamma)/n^(2/3)
    gamma_of_n: bool  # that gamma's argument: n if true, else s*r
    pb: tuple[Fraction, int, int, Fraction, Fraction] | None  # see prob_B_upper_bound
    # (cofactors, cutoff, stray (n, r, d), least n); see admissible_divisor_check
    classes: tuple[tuple[int, ...], int, tuple[int, int, int] | None, int] | None


_F = Fraction
_FAMILIES: dict[int, _Family] = {
    1: _Family((0,), 1, 5, "any n", 0, (), 1, "S", _F(1, 2), (_F(1), 8, 15), True, None, None),
    2: _Family((1,), 2, 8, "n odd", 2, (2,), 2, "S", _F(1, 3), (_F(1), 18, 76), False,
               (_F(1), 3, 18, _F(5, 3), _F(50, 9)), ((2, 3), 5, None, 7)),
    3: _Family((0,), 2, 8, "n even", 3, (2,), 2, "S", _F(1, 3), (_F(1), 18, 76), False,
               (_F(1), 3, 18, _F(5, 3), _F(50, 9)), ((2, 3), 5, None, 7)),
    4: _Family((1,), 2, 5, "n odd", 0, (), 1, "A", _F(1, 2), (_F(1), 8, 15), True, None, None),
    5: _Family((0,), 2, 5, "n even", 1, (), 1, "A", _F(1, 2), (_F(1), 8, 15), True, None, None),
    6: _Family((2, 4), 6, 8, "n = 2 or 4 (mod 6)", 3, (3,), 3, "S", _F(1, 3), (_F(1), 98, 839),
               False, (_F(1), 7, 39, _F(5, 4), _F(75, 16)), ((3, 5, 7, 11, 13), 15, None, 8)),
    7: _Family((3, 5), 6, 8, "n = 3 or 5 (mod 6)", 4, (3,), 3, "S", _F(1, 3), (_F(1), 98, 839),
               False, (_F(1), 7, 39, _F(5, 4), _F(75, 16)), ((3, 5, 7, 11, 13), 15, None, 8)),
    8: _Family((0,), 6, 8, "n = 0 (mod 6)", 5, (3,), 3, "S", _F(1, 3), (_F(1), 98, 839),
               False, (_F(1, 2), 7, 39, _F(5, 4), _F(75, 16)), ((3, 5, 7, 11, 13), 15, None, 8)),
    9: _Family((1,), 6, 8, "n = 1 (mod 6)", 6, (3,), 3, "S", _F(1, 3), (_F(1, 2), 46, 228),
               False, (_F(1, 3), 7, 39, _F(5, 4), _F(75, 16)), ((3, 5, 7, 11, 13), 15, None, 8)),
    10: _Family((1,), 6, 8, "n = 1 (mod 6)", 5, (2, 3), 3, "A", _F(1, 3), (_F(1), 98, 839),
                False, (_F(1), 8, 96, _F(5), _F(75, 2)), ((3, 4), 5, (13, 8, 12), 8)),
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

# every (case_id, n) whose floor is not its family's
_FLOOR_EXCEPTIONS: dict[tuple[int, int], Fraction] = {
    **{(1, n): Fraction(2, 7) for n in CASE1_WEAK_NS},
    **{(cid, n): Fraction(1, 4) for cid in (2, 3) for n in (11, 17, 18)},
    **TABLE2_EXCEPTIONS,
}


def _inadmissible(case_id: int, n: int, n_min: int | None = None) -> str | None:
    """Why n is not an admissible degree of the family, or None if it is.

    ``n_min`` replaces the family minimum; an unknown family raises.
    """
    if case_id not in _FAMILIES:
        raise ValueError(f"case_id must be 1..10, got {case_id}")
    fam = _FAMILIES[case_id]
    n_min = fam.n_min if n_min is None else n_min
    if n < n_min:
        return f"case {case_id} needs n >= {n_min}, got {n}"
    if n % fam.modulus not in fam.residues:
        return f"case {case_id} needs {fam.label}, got n = {n}"
    return None


def admissible_n(case_id: int, n: int) -> bool:
    return _inadmissible(case_id, n) is None


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
    problem = _inadmissible(case_id, n)
    if problem is not None:
        raise ValueError(problem)
    fam = _FAMILIES[case_id]
    r = n - fam.offset
    parts = fam.extra + (r,) + (1,) * (fam.offset - sum(fam.extra))
    return CaseSpec(case_id, n, r, tuple(sorted(parts)), fam.s)


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """The order of the centralizer in S_n of a permutation of cycle type
    ``parts``: the product of d**k * k! over the lengths d that occur k times."""
    return prod(d**k * factorial(k) for d, k in Counter(parts).items())


def prob_A(spec: CaseSpec) -> Fraction:
    """Exact probability of the target cycle type in ``calc_group``.

    One over the centralizer order in S_n, doubled in A_n, which holds
    the whole (even) class at half the group size.
    """
    return Fraction(2 if spec.calc_group == "A" else 1, _centralizer_order(spec.parts))


def _b_moduli(spec: CaseSpec) -> tuple[int, ...]:
    """The moduli of the terms of P(B): P(n, r) when s = 1, and
    P(n, s*r) - P(n, r) otherwise (the order divides s*r but not r)."""
    return (spec.r,) if spec.power_order == 1 else (spec.order_bound, spec.r)


def _probs_B(specs: Sequence[CaseSpec]) -> list[Fraction]:
    """Exact P(B) of every spec, one proportion row per distinct modulus and sign.

    The moduli of all the specs' terms (see :func:`_b_moduli`) are visited
    in ascending order.  Each gets one :class:`ProportionTable`, whose plain
    row is built once to the highest degree any spec reads from it.  When
    some spec reads it in A_n, a signed row then replaces the plain one,
    built once to the highest such degree, and each A_n term adds its
    signed proportion, as in :func:`~symprop.proportions.prop_alternating`.
    The table is dropped before the next modulus.
    """
    reads: dict[int, list[tuple[int, int]]] = defaultdict(list)  # m -> [(spec, term)]
    terms = [[0] * len(_b_moduli(spec)) for spec in specs]  # each term's proportion
    for i, moduli in enumerate(map(_b_moduli, specs)):
        for j, m in enumerate(moduli):
            reads[m].append((i, j))
    for m in sorted(reads):
        table = ProportionTable()
        alternating = [(i, j) for i, j in reads[m] if specs[i].calc_group == "A"]
        for signed, at in ((False, reads[m]), (True, alternating)):
            if at:
                table.ensure(m, max(specs[i].n for i, _ in at), signed=signed)
            for i, j in at:
                terms[i][j] += table.prop(specs[i].n, m, signed=signed)
    return [t[0] - sum(t[1:]) for t in terms]


def prob_B(spec: CaseSpec) -> Fraction:
    """Exact probability of the power condition in ``calc_group``."""
    return _probs_B([spec])[0]


def prob_B_upper_bound(spec: CaseSpec) -> Fraction:
    """Closed upper bound for P(B), families 2, 3 and 6 to 10.

    With m = s*r and g = gamma(m) it reads

        lead/m + (a + b*g)/n^2 + d(m) * (c + e*g)/n^2

    for the family's constants (lead, a, b, c, e).  The single-cycle
    families are served by the sharper near-diagonal bound on the plain
    proportion instead (see bounds module).
    """
    pb = _FAMILIES[spec.case_id].pb
    if pb is None:
        raise ValueError("closed P(B) bound available for cases 2,3 and 6..10 only")
    lead, a, b, c, e = pb
    m, n = spec.order_bound, spec.n
    g = gamma_value(m)
    return lead / m + (a + b * g) / n**2 + len(divisor_list(m)) * (c + e * g) / n**2


def lower_bound_for(spec: CaseSpec) -> Fraction:
    """The absolute floor for P(A | B) at this degree."""
    return _FLOOR_EXCEPTIONS.get((spec.case_id, spec.n), _FAMILIES[spec.case_id].floor)


def cond_probs(specs: Sequence[CaseSpec]) -> list[CondProbReport]:
    """The exact conditional P(A | B) = P(A)/P(B) of every spec, in input
    order; a report passes only if both floors hold (see :func:`_floors_hold`).

    Every P(B) of the batch comes from one pass over the distinct moduli
    (see :func:`_probs_B`), so specs that share a modulus, at any degree and
    in either group, share its row.
    """
    out: list[CondProbReport] = []
    for spec, p_b in zip(specs, _probs_B(specs)):
        if p_b == 0:
            raise ZeroDivisionError(f"event B impossible for case {spec.case_id}, n = {spec.n}")
        p_a = prob_A(spec)
        quotient = p_a / p_b
        out.append(CondProbReport(spec.case_id, spec.n, spec.r, p_a, p_b, quotient,
                                  lower_bound_for(spec), _floors_hold(spec, quotient)))
    return out


def cond_prob(spec: CaseSpec) -> CondProbReport:
    """The exact conditional of one spec (see :func:`cond_probs`)."""
    return cond_probs([spec])[0]


def _n23_parameters(spec: CaseSpec) -> tuple[Fraction, int, int, int]:
    """(base, a, b, arg) of the floor  base - (a + b*gamma(arg)) / n^(2/3)."""
    fam = _FAMILIES[spec.case_id]
    return (*fam.n23, spec.n if fam.gamma_of_n else spec.order_bound)


def check_n23_bound(spec: CaseSpec, cond_value: Fraction) -> BoundReport:
    """Check cond_value >= base - K/n^(2/3) without irrational arithmetic.

    With deficit = max(base - cond_value, 0) the claim is equivalent to
    deficit**3 * n**2 <= K**3, an exact rational comparison.  Whenever
    the floor is nonpositive the comparison passes automatically, so no
    separate positivity test is needed.
    """
    base, a, b, arg = _n23_parameters(spec)
    lhs = max(base - cond_value, Fraction(0)) ** 3 * spec.n**2
    rhs = (a + b * gamma_value(arg)) ** 3
    return BoundReport("n23-lower", spec.n, spec.order_bound, None, lhs, rhs, lhs <= rhs,
                       f"case {spec.case_id}: floor {base} - ({a}+{b}*gamma({arg}))/n^(2/3)")


def _floors_hold(spec: CaseSpec, value: Fraction) -> bool:
    """Whether a conditional P(A | B) of ``value`` clears both floors of the
    degree: the absolute one and the n^(2/3)-shaped one."""
    return value >= lower_bound_for(spec) and check_n23_bound(spec, value).passed


def _open_degrees(specs: Sequence[CaseSpec]) -> Iterator[CaseSpec]:
    """The specs of one family whose degrees the float filter cannot pass.

    P(B) is enclosed in S_n from its terms (see :func:`_b_moduli`), one
    read per term at the spec's degree.  Its upper end hi_B is that of the
    first term, less the lower end of the second when there is one, rounded
    up; in A_n it is doubled, which is exact in float64, as P_{A_n}(B) <=
    2 P_{S_n}(B) for every event B (A_n holds half of S_n).  As hi_B >= P(B)
    >= P(A) > 0 in the computation group, the rational P(A)/hi_B is at most
    P(A | B), and both floors only get easier as the conditional grows, so
    a degree passes when :func:`_floors_hold` holds for P(A)/hi_B.
    """
    terms = list(zip(*map(_b_moduli, specs)))  # terms[j][i]: term j of P(B) at specs[i]
    degrees = np.tile([spec.n for spec in specs], len(terms))  # read j*len(specs) + i
    lo, hi = prop_enclosure([m for col in terms for m in col], degrees, np.arange(len(degrees)))
    hi_b = hi[: len(specs)]
    if len(terms) > 1:
        hi_b = np.nextafter(hi_b - lo[len(specs) :], np.inf)
    if specs[0].calc_group == "A":
        hi_b = 2 * hi_b
    for spec, ceiling in zip(specs, hi_b.tolist()):
        # an infinite or NaN end decides nothing; Fraction(ceiling) is exact
        if not (ceiling < inf and _floors_hold(spec, prob_A(spec) / Fraction(ceiling))):
            yield spec


def sweep_theorem2(case_id: int, n_lo: int, n_hi: int) -> tuple[int, list[CondProbReport]]:
    """The verdicts of :func:`cond_probs` over one family's window, filter first.

    Returns the number of admissible degrees in [n_lo, n_hi] and the exact
    reports of those that fail, sorted by degree.  It is one
    :func:`~symprop.proportions.filter_then_exact` pass, a column per degree:
    :func:`_open_degrees` passes what the float enclosure of P(B) certifies,
    and the rest go to one :func:`cond_probs` batch, so they share rows; both
    judge by :func:`_floors_hold`.
    """
    specs = [case_params(case_id, n) for n in admissible_degrees(case_id, n_lo, n_hi)]
    failures = filter_then_exact(f"case {case_id}", specs, len(specs), _open_degrees,
                                 cond_probs)
    return len(specs), failures


def admissible_divisor_check(case_id: int, n: int) -> BoundReport:
    """Classify every divisor d <= n of the power-test modulus m = s*r.

    A divisor is classified when its cofactor y = m/d is in the family's
    set or at least its cutoff.  For families 2 and 3 (m = 2r, n >= 7):
    each divisor is r, or 2r/3, or at most 2r/5.  For families 6 to 9
    (m = 3r, n >= 8): each is r, or 3r/y with y in {5, 7, 11, 13}, or at
    most r/5.  For family 10: each is r, or 3r/4, or at most 3r/5, or the
    single stray triple (n, r, d) = (13, 8, 12).  The report counts
    unclassified divisors on the left against zero on the right.
    """
    fam = _FAMILIES.get(case_id)
    if fam is None or fam.classes is None:
        raise ValueError("divisor classification applies to cases 2,3 and 6..10")
    cofactors, cutoff, allowed, n_min = fam.classes
    problem = _inadmissible(case_id, n, n_min)
    if problem is not None:
        raise ValueError(problem)
    r = n - fam.offset
    m = fam.s * r
    stray = [d for d in divisor_list(m) if d <= n and m // d not in cofactors
             and m // d < cutoff and (n, r, d) != allowed]
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
