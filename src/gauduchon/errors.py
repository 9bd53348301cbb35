"""Exception hierarchy shared across the package.

BadInput and its subclasses mean the input is outside what the library
accepts; readers and builders raise them where they read a value, and the
CLI exits 2 on them, as on an OSError (an unreadable path).  Every other
GauduchonError is a check that failed on well-formed input (exit 1).  Any
other exception is a program fault, which the CLI lets propagate.
"""

from __future__ import annotations

import sys


class GauduchonError(Exception):
    """Base class for all library errors."""


class BadInput(GauduchonError):
    """Input outside the domain the library accepts."""


class DslSyntaxError(BadInput):
    """Malformed structure-equation source.  Carries 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class JacobiViolation(GauduchonError):
    """d^2 != 0 on some generator; `residual` is the offending 3-form."""

    def __init__(self, generator: int, residual):
        super().__init__(f"d^2 != 0 on generator {generator}: residual {residual}")
        self.generator = generator
        self.residual = residual


class NotIntegrable(GauduchonError):
    """dw^j has a (0,2)-component, so d does not split as del + delbar."""

    def __init__(self, generator: int, residual):
        super().__init__(
            f"generator {generator} has (0,2)-component {residual}; "
            "the almost complex structure is not integrable"
        )
        self.generator = generator
        self.residual = residual


class NotAlmostComplex(GauduchonError):
    """J^2 != -Id (or J missing where one is required)."""


class DimensionMismatch(BadInput):
    """A size or index that does not fit: a form over another coframe than the
    structure equations, a ragged metric, a JSON index below 1."""


class NotSkewHermitian(GauduchonError):
    """Metric coefficient matrix fails conj(x_{kj}) = -x_{jk}."""


class NotPositive(GauduchonError):
    """Metric coefficient matrix is not positive definite."""


class BadK(BadInput):
    """k outside 1..n-1 for a k-th Gauduchon computation."""


class UnknownFamily(BadInput):
    """Catalog lookup with an unrecognized family name."""


class BadParams(BadInput):
    """Parameters outside the domain of a catalog family, closed form or table."""


class NotQuasiSasakian(GauduchonError):
    """Contact data fails one of the quasi-Sasakian compatibility checks."""


class ClaimFailure(GauduchonError):
    """A checked identity or invariant failed to hold."""


def ensure(cond, msg=None) -> None:
    """Raise ClaimFailure unless cond holds; unlike assert, kept by ``python -O``.

    msg becomes text only on failure; without one it names the caller's line.
    """
    if not cond:
        if msg is None:
            caller = sys._getframe(1)
            msg = f"{caller.f_code.co_name}, line {caller.f_lineno}"
        raise ClaimFailure(str(msg))
