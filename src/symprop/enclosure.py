"""Directed rational bounds on square and cube roots.

Each function returns exact Fractions (lo, hi) around the root of a
nonnegative rational x = p/q, both multiples of 1/(q * 10**40), so
hi - lo <= 1/(q * 10**40), and lo == hi exactly when the root is
rational.  A comparison that succeeds on the outer bounds is a proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_SCALE = 10**40


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


def sqrt_enclosure(x: Fraction | int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sqrt(x) <= hi, x >= 0."""
    f = Fraction(x)
    if f < 0:
        raise ValueError("sqrt of negative value")
    p, q = f.numerator, f.denominator
    # sqrt(p/q) = sqrt(p*q)/q; floor and ceiling of the scaled integer root.
    root = isqrt(p * q * _SCALE * _SCALE)
    lo = Fraction(root, q * _SCALE)
    if root * root == p * q * _SCALE * _SCALE:
        return lo, lo
    return lo, Fraction(root + 1, q * _SCALE)


def cbrt_enclosure(x: Fraction | int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= x**(1/3) <= hi, x >= 0."""
    f = Fraction(x)
    p, q = f.numerator, f.denominator
    # cbrt(p/q) = cbrt(p*q**2)/q; a negative x fails in integer_nth_root
    root = integer_nth_root(p * q * q * _SCALE**3, 3)
    lo = Fraction(root, q * _SCALE)
    if root**3 == p * q * q * _SCALE**3:
        return lo, lo
    return lo, Fraction(root + 1, q * _SCALE)
