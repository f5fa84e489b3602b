"""Rational interval enclosures for square and cube roots.

All endpoint arithmetic is exact (Fraction), so a comparison between two
enclosed quantities that succeeds on the outer endpoints is a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


def integer_nth_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x.  Requires x >= 0, k >= 1."""
    if x < 0 or k < 1:
        raise ValueError("integer_nth_root needs x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    # integer Newton from a power-of-two overestimate; floats would drift
    # by ~1e14 at the operand sizes the enclosures use
    r = 1 << -(-x.bit_length() // k)
    while True:
        t = ((k - 1) * r + x // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, x: Rat) -> "Interval":
        f = Fraction(x)
        return cls(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval | Rat") -> "Interval":
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | Rat") -> "Interval":
        return self + (-_coerce(other))

    def __mul__(self, other: "Interval | Rat") -> "Interval":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | Rat") -> "Interval":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        inv = Interval(1 / o.hi, 1 / o.lo)
        return self * inv

    def entirely_le(self, x: Rat) -> bool:
        """True when every point of the interval is <= x."""
        return self.hi <= Fraction(x)


def _coerce(x: "Interval | Rat") -> Interval:
    return x if isinstance(x, Interval) else Interval.point(x)


def sqrt_enclosure(x: Rat, digits: int = 30) -> Interval:
    """Interval of width <= 10**-digits (roughly) around sqrt(x), x >= 0."""
    f = Fraction(x)
    if f < 0:
        raise ValueError("sqrt of negative value")
    p, q = f.numerator, f.denominator
    scale = 10**digits
    # sqrt(p/q) = sqrt(p*q)/q; floor and ceiling of the scaled integer root.
    root = isqrt(p * q * scale * scale)
    lo = Fraction(root, q * scale)
    if root * root == p * q * scale * scale:
        return Interval(lo, lo)
    return Interval(lo, Fraction(root + 1, q * scale))


def cbrt_enclosure(x: Rat, digits: int = 30) -> Interval:
    """Interval around the real cube root of x (any sign)."""
    f = Fraction(x)
    if f < 0:
        inner = cbrt_enclosure(-f, digits)
        return Interval(-inner.hi, -inner.lo)
    p, q = f.numerator, f.denominator
    scale = 10**digits
    # cbrt(p/q) = cbrt(p*q**2)/q
    root = integer_nth_root(p * q * q * scale**3, 3)
    lo = Fraction(root, q * scale)
    hi = Fraction(root + 1, q * scale)
    if root**3 == p * q * q * scale**3:
        hi = lo
    return Interval(lo, hi)
