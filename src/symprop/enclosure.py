"""Directed rational bounds on k-th roots.

:func:`root_enclosure` returns exact Fractions (lo, hi) around the k-th
root of a nonnegative rational x = p/q, both multiples of 1/(q * 10**40),
so hi - lo <= 1/(q * 10**40), and lo == hi exactly when the root is
rational.  A comparison that succeeds on the outer bounds is a proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = ["integer_nth_root", "root_enclosure"]

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


def root_enclosure(x: Fraction | int, k: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= x**(1/k) <= hi, x >= 0, k >= 1."""
    f = Fraction(x)
    p, q = f.numerator, f.denominator
    # (p/q)**(1/k) = (p * q**(k-1))**(1/k) / q: floor and ceiling of the
    # scaled integer root; a negative x fails in integer_nth_root
    scaled = p * q ** (k - 1) * _SCALE**k
    root = integer_nth_root(scaled, k)
    lo = Fraction(root, q * _SCALE)
    if root**k == scaled:
        return lo, lo
    return lo, Fraction(root + 1, q * _SCALE)
