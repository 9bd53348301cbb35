"""Exact complex-rational arithmetic.

Every predicate in the library is an exact zero test, so coefficients are
exact Gaussian rationals.  A ComplexRational stores one Gaussian-integer
numerator over one denominator, all plain ints: ``(a, b, d)`` means
(a + ib)/d, with d > 0 and gcd(a, b, d) = 1 after every operation.  The
representation is therefore canonical: equality compares three ints, and
each arithmetic operation is integer arithmetic plus one three-way gcd.
The real and imaginary parts are read-only ``fractions.Fraction`` views
for the callers that need rationals.  Floats never enter this module.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction, str]

_new = object.__new__
_PLAIN_RATIONAL = _re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational_parts(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms, denominator > 0.

    Accepts what ``Fraction(value)`` accepts, with the same errors, except
    a float or a bool, which raise TypeError like a float operand does (a
    string such as "0.1" stays exact, and a JSON true is not 1); ints,
    Fractions and plain "p" / "p/q" strings never build a Fraction.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, str) and _PLAIN_RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        p, q = int(num), int(den or 1)
        if q:
            g = gcd(p, q)
            return p // g, q // g
    if isinstance(value, bool):
        raise TypeError(f"boolean {str(value).lower()} is not an exact rational")
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact rational")
    value = Fraction(value)  # raises Fraction's own error on bad input or "p/0"
    return value.numerator, value.denominator


def _make(a: int, b: int, d: int) -> "ComplexRational":
    """(a + ib)/d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(ComplexRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _rational_str(a: int, d: int) -> str:
    """str(Fraction(a, d)) for d > 0, read off the ints without a Fraction."""
    g = gcd(a, d)
    return f"{a // g}/{d // g}" if d != g else str(a // g)


def _to_ints(pairs) -> tuple[int, list]:
    """(D, [(key, a, b), ...]) for (key, value) pairs, each value (a + ib)/D.

    D is the least common denominator of the ComplexRational values (1 for
    none), so the kernels that take these ints share one denominator.
    """
    pairs = list(pairs)
    if len(pairs) == 1:
        (key, z), = pairs
        return z._d, [(key, z._a, z._b)]
    dens = {z._d for _, z in pairs}
    if len(dens) == 1:
        return dens.pop(), [(key, z._a, z._b) for key, z in pairs]
    d = lcm(*dens)
    return d, [(key, z._a * (d // z._d), z._b * (d // z._d)) for key, z in pairs]


class ComplexRational:
    """A complex number (a + ib)/d with exact integer a, b and d > 0."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        p, q = _rational_parts(re)
        r, s = _rational_parts(im)
        g = gcd(q, s)
        d = q // g * s
        # p/q and r/s are reduced, so gcd(a, b, lcm(q, s)) = 1 already
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    # -- ring/field operations -------------------------------------------
    # Operands are coerced with cr(), so a float or builtin complex operand
    # raises TypeError instead of silently leaving exact arithmetic.

    def __add__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = cr(other)
        d, f = self._d, other._d
        if d == f:
            x = self._a + other._a
            y = self._b + other._b
        else:
            x = self._a * f + other._a * d
            y = self._b * f + other._b * d
            d *= f
        if d != 1:
            g = gcd(x, y, d)
            if g != 1:
                x //= g
                y //= g
                d //= g
        z = _new(ComplexRational)
        z._a = x
        z._b = y
        z._d = d
        return z

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = cr(other)
        return self + -other

    def __rsub__(self, other) -> "ComplexRational":
        return cr(other) - self

    def __mul__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = cr(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        x = a * c - b * e
        y = a * e + b * c
        d = self._d * other._d
        if d != 1:
            g = gcd(x, y, d)
            if g != 1:
                x //= g
                y //= g
                d //= g
        z = _new(ComplexRational)
        z._a = x
        z._b = y
        z._d = d
        return z

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = cr(other)
        c, e = other._a, other._b
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a + ib)/d * f (c - ie) / (c^2 + e^2)
        a, b, f = self._a, self._b, other._d
        return _make(f * (a * c + b * e), f * (b * c - a * e), self._d * norm)

    def __rtruediv__(self, other) -> "ComplexRational":
        return cr(other) / self

    def __neg__(self) -> "ComplexRational":
        z = _new(ComplexRational)
        z._a = -self._a
        z._b = -self._b
        z._d = self._d
        return z

    def __pow__(self, k: int) -> "ComplexRational":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ComplexRational":
        z = _new(ComplexRational)
        z._a = self._a
        z._b = -self._b
        z._d = self._d
        return z

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is ComplexRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        # equal to the hash of the int or Fraction this number equals
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    @property
    def is_real(self) -> bool:
        return self._b == 0

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def real_part(self) -> Fraction:
        """The real part, insisting the imaginary part is exactly zero."""
        if self._b:
            raise ValueError(f"{self} is not real")
        return Fraction(self._a, self._d)

    # -- conversions -------------------------------------------------------

    def __repr__(self) -> str:
        return format_complex(self)


def cr(value) -> ComplexRational:
    """Coerce ints, Fractions and rational strings to ComplexRational."""
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return ComplexRational(value)
    raise TypeError(f"cannot coerce {value!r} to ComplexRational")


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


def format_complex(z: ComplexRational) -> str:
    """Canonical literal: '3/2', '-1/2i', '1/2+1/4i', '1/2-1/4i', '0', each
    part written off the ints (a + ib)/d."""
    a, b, d = z._a, z._b, z._d
    if not b:
        return _rational_str(a, d)
    real = (_rational_str(a, d) + ("+" if b > 0 else "")) if a else ""
    return f"{real}{_rational_str(b, d)}i"
