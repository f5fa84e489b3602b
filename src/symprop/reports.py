"""Report records, the one writer of results and the one writer of notes.

Every check in this package resolves to exact rational arithmetic before a
pass/fail verdict is recorded, so reports carry :class:`fractions.Fraction`
sides rather than floats.

Every result reaches stdout through :func:`emit`, in one of three formats:
"csv" (the given columns over records, newline line endings, bools as 1/0,
None as an empty field), "json" (indent 2, trailing newline) or "table"
(prepared text lines).  Numerators and denominators are rendered by
:func:`digits`, which prints every digit at any size.  Progress and count
lines of the sweeps reach stderr through :func:`note`.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, ClassVar, Iterable, Mapping

__all__ = [
    "note",
    "digits",
    "dec6",
    "frac",
    "exact",
    "value",
    "cell",
    "emit",
    "BoundReport",
    "CondProbReport",
]


def note(msg: str) -> None:
    """Write one progress or count line to stderr, never stdout.

    ``sys.stderr`` is looked up at each call, so a redirection made after
    import (``contextlib.redirect_stderr``) catches the line.
    """
    print(msg, file=sys.stderr, flush=True)


def digits(k: int) -> str:
    """Decimal digits of an integer of any size.

    Going through Decimal sidesteps CPython's int->str digit limit, which
    would otherwise reject integers of more than 4300 digits.
    """
    return str(Decimal(k))


def dec6(x: Fraction) -> str:
    """Decimal rendering of a rational to 6 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 6
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def frac(x: Fraction) -> str:
    """Table rendering of a rational: num/den (or the integer) and its dec6."""
    body = digits(x.numerator)
    if x.denominator != 1:
        body += "/" + digits(x.denominator)
    return f"{body} ({dec6(x)})"


def exact(prefix: str, x: Fraction, decimal: bool = True) -> dict[str, str]:
    """The ``<prefix>_num``, ``<prefix>_den`` and ``<prefix>_dec`` fields of x."""
    out = {f"{prefix}_num": digits(x.numerator), f"{prefix}_den": digits(x.denominator)}
    if decimal:
        out[f"{prefix}_dec"] = dec6(x)
    return out


def value(x: Fraction) -> dict[str, str]:
    """The numerator, denominator and decimal fields of a plain value."""
    return {"numerator": digits(x.numerator), "denominator": digits(x.denominator),
            "decimal": dec6(x)}


def cell(v: Any) -> str:
    """A csv field: bools as 1/0, None as empty, anything else as str."""
    if isinstance(v, bool):
        return "1" if v else "0"
    return "" if v is None else str(v)


def emit(
    fmt: str,
    columns: Iterable[str],
    rows: Iterable[Mapping[str, Any]],
    lines: Iterable[str],
    doc: Any = None,
) -> None:
    """Write one result to stdout in ``fmt``.

    csv writes ``columns`` over ``rows``, one record at a time; json writes
    ``doc``, by default the list of rows; table writes ``lines``.  Only the
    argument the format needs is iterated, so the others may be lazy.
    """
    out = sys.stdout
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        columns = list(columns)
        writer.writerow(columns)
        for rec in rows:
            writer.writerow([cell(rec[c]) for c in columns])
    elif fmt == "json":
        json.dump(list(rows) if doc is None else doc, out, indent=2)
        out.write("\n")
    else:
        for text in lines:
            out.write(text + "\n")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one exact inequality check.

    ``kind`` names the check.  ``n``, ``m``, ``d`` identify the instance;
    fields that do not apply to a given kind are None.  ``lhs`` and ``rhs``
    are the two sides of the decisive comparison (``passed`` means
    ``lhs <= rhs``), except for vacuous checks where both sides are 0.
    ``witness`` holds free-form detail: the failing sub-instance, or a note
    about a boundary case.
    """

    kind: str
    n: int | None
    m: int | None
    d: int | None
    lhs: Fraction
    rhs: Fraction
    passed: bool
    witness: str = ""

    # the csv columns: every record field but the witness
    columns: ClassVar[tuple[str, ...]] = (
        "kind", "n", "m", "d", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "passed")

    def record(self) -> dict[str, Any]:
        return {"kind": self.kind, "n": self.n, "m": self.m, "d": self.d,
                **exact("lhs", self.lhs, decimal=False),
                **exact("rhs", self.rhs, decimal=False),
                "passed": self.passed, "witness": self.witness}

    def line(self) -> str:
        where = " ".join(
            f"{k}={v}" for k, v in (("n", self.n), ("m", self.m), ("d", self.d)) if v is not None
        )
        text = (f"{self.kind} {where}: {frac(self.lhs)} <= {frac(self.rhs)} "
                f"{'pass' if self.passed else 'FAIL'}")
        if self.witness:
            text += f" [{self.witness}]"
        return text


@dataclass(frozen=True)
class CondProbReport:
    """One row of a conditional-probability verification sweep."""

    case_id: int
    n: int
    r: int
    p_A: Fraction
    p_B: Fraction
    p_A_given_B: Fraction
    lower_bound: Fraction
    passed: bool

    columns: ClassVar[tuple[str, ...]] = (
        "case", "n", "r", "pA_num", "pA_den", "pA_dec", "pB_num", "pB_den", "pB_dec",
        "pAgivenB_num", "pAgivenB_den", "pAgivenB_dec", "bound_num", "bound_den", "passed")

    def __post_init__(self) -> None:
        if not (0 <= self.p_A <= self.p_B <= 1):
            raise ValueError(f"inconsistent probabilities in case {self.case_id}, n={self.n}")

    def record(self) -> dict[str, Any]:
        return {"case": self.case_id, "n": self.n, "r": self.r,
                **exact("pA", self.p_A), **exact("pB", self.p_B),
                **exact("pAgivenB", self.p_A_given_B),
                **exact("bound", self.lower_bound, decimal=False),
                "passed": self.passed}

    def line(self) -> str:
        return (f"case {self.case_id} n={self.n} r={self.r}: "
                f"P(A)={frac(self.p_A)} P(B)={frac(self.p_B)} "
                f"P(A|B)={frac(self.p_A_given_B)} >= {frac(self.lower_bound)} "
                f"{'pass' if self.passed else 'FAIL'}")
