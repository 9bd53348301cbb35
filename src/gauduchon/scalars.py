"""Exact complex-rational arithmetic.

Every predicate in the library is an exact zero test, so coefficients are
pairs of ``fractions.Fraction``.  Floats never enter this module; the search
code keeps its own floating mirror.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- ring/field operations -------------------------------------------
    # Operands are coerced with cr(), so a float or builtin complex operand
    # raises TypeError instead of silently leaving exact arithmetic.

    def __add__(self, other) -> "ComplexRational":
        other = cr(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        other = cr(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ComplexRational":
        return cr(other) - self

    def __mul__(self, other) -> "ComplexRational":
        other = cr(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        other = cr(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other) -> "ComplexRational":
        return cr(other) / self

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

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
        return ComplexRational(self.re, -self.im)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def real_part(self) -> Fraction:
        """The real part, insisting the imaginary part is exactly zero."""
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    # -- conversions -------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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


def format_rational(x: Fraction) -> str:
    return str(x)


def format_complex(z: ComplexRational) -> str:
    """Canonical literal: '3/2', '-1/2i', '1/2+1/4i', '1/2-1/4i', '0'."""
    if not z:
        return "0"
    if z.im == 0:
        return format_rational(z.re)
    imag = f"{format_rational(z.im)}i"
    if z.re == 0:
        return imag
    if z.im > 0:
        return f"{format_rational(z.re)}+{imag}"
    return f"{format_rational(z.re)}{imag}"
