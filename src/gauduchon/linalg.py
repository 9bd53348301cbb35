"""Small exact linear algebra over ComplexRational matrices.

Matrices are lists of row lists.  Sizes never exceed 2n <= 8, so plain
Gaussian elimination with exact arithmetic is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, ComplexRational, cr

Matrix = list  # list[list[ComplexRational]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat(rows) -> Matrix:
    return [[cr(v) for v in row] for row in rows]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if not aik:
                continue
            for j in range(cols):
                if b[k][j]:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_det(a: Matrix) -> ComplexRational:
    """Determinant by fraction-free-ish elimination on a working copy."""
    n = len(a)
    work = [row[:] for row in a]
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = ONE / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] * inv
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
    return det


def _gauss_jordan(work: Matrix) -> None:
    """Reduce the augmented rows [A | B] in place to [I | A^-1 B]."""
    n = len(work)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            raise ValueError("singular system")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        inv = ONE / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]


def solve(a: Matrix, rhs: list) -> list:
    """Solve the square system a x = rhs exactly; raises on singular input."""
    n = len(a)
    work = [a[i][:] + [rhs[i]] for i in range(n)]
    _gauss_jordan(work)
    return [work[i][n] for i in range(n)]


def mat_inverse(a: Matrix) -> Matrix:
    """a^-1 by one Gauss-Jordan pass over [a | I]; raises on singular input."""
    n = len(a)
    work = [a[i][:] + unit for i, unit in enumerate(identity(n))]
    _gauss_jordan(work)
    return [row[n:] for row in work]


def rref(a: Matrix) -> Matrix:
    """Reduced row echelon form (canonical representative of the row space)."""
    work = [row[:] for row in a]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = ONE / work[pivot_row][col]
        work[pivot_row] = [v * inv for v in work[pivot_row]]
        for r in range(rows):
            if r != pivot_row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    return work


def ldl(h: Matrix) -> tuple[Matrix, list[Fraction]]:
    """Decompose a Hermitian positive-definite h as L D L* exactly.

    L is unit lower triangular, D a list of positive rationals.  Raises
    ValueError when a pivot fails to be real positive (i.e. h not HPD).
    """
    n = len(h)
    lower = identity(n)
    diag: list[Fraction] = []
    for j in range(n):
        pivot = h[j][j]
        for k in range(j):
            pivot = pivot - lower[j][k] * lower[j][k].conjugate() * diag[k]
        d = pivot.real_part()
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            val = h[i][j]
            for k in range(j):
                val = val - lower[i][k] * lower[j][k].conjugate() * diag[k]
            lower[i][j] = val / cr(d)
    return lower, diag
