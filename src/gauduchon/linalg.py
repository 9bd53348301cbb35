"""Small exact linear algebra over ComplexRational matrices.

Matrices are lists of row lists.  Sizes never exceed 2n <= 8, so plain
exact elimination is entirely adequate.  One Gauss-Jordan routine,
_eliminate, serves rref, solve and mat_inverse: it reports the pivot
columns.  ldl (exact L D L*) has no caller in the package; the tests'
unitary-coframe reference and the bench's scaling cases use it.  A metric's
positivity and determinants come from its memoised minors (hermitian.Metric).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, cr

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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _eliminate(work: Matrix, cols: int) -> list:
    """Gauss-Jordan on the first cols columns of work, in place.

    The pivot of each column is its first nonzero entry at or below the next
    pivot row; it is swapped up, its row normalised and its column cleared
    in every other row.  Returns the pivot columns.
    """
    rows = len(work)
    pivots: list = []
    for col in range(cols):
        top = len(pivots)
        if top == rows:
            break
        for pivot in range(top, rows):
            if work[pivot][col]:
                break
        else:
            continue
        if pivot != top:
            work[top], work[pivot] = work[pivot], work[top]
        # rows from top down are zero left of col, so row operations start there
        head = work[top]
        inv = ONE / head[col]
        tail = [v * inv for v in head[col:]]
        head[col:] = tail
        for r in range(rows):
            if r != top and work[r][col]:
                f = work[r][col]
                work[r][col:] = [x - f * y for x, y in zip(work[r][col:], tail)]
        pivots.append(col)
    return pivots


def solve(a: Matrix, rhs: list) -> list:
    """Solve the square system a x = rhs exactly; raises on singular input."""
    n = len(a)
    work = [a[i][:] + [rhs[i]] for i in range(n)]
    if len(_eliminate(work, n)) < n:
        raise ValueError("singular system")
    return [row[n] for row in work]


def mat_inverse(a: Matrix) -> Matrix:
    """a^-1 by one Gauss-Jordan pass over [a | I]; raises on singular input."""
    n = len(a)
    work = [a[i][:] + unit for i, unit in enumerate(identity(n))]
    if len(_eliminate(work, n)) < n:
        raise ValueError("singular system")
    return [row[n:] for row in work]


def rref(a: Matrix) -> Matrix:
    """Reduced row echelon form (canonical representative of the row space)."""
    work = [row[:] for row in a]
    _eliminate(work, len(work[0]) if work else 0)
    return work


def ldl(h: Matrix) -> tuple[Matrix, list[Fraction]]:
    """Decompose a Hermitian positive-definite h as L D L* exactly.

    L is unit lower triangular, D a list of positive rationals.  Raises
    ValueError when a pivot fails to be real positive (i.e. h not HPD).
    """
    n = len(h)
    lower = identity(n)
    pivots: list = []
    for j in range(n):
        weights = [lower[j][k].conjugate() * pivots[k] for k in range(j)]  # shared by rows >= j
        pivot = h[j][j]
        for k in range(j):
            pivot = pivot - lower[j][k] * weights[k]
        if not pivot.is_real:
            raise ValueError(f"{pivot} is not real")
        if pivot._a <= 0:  # the sign of a real (a + 0i)/d, d > 0
            raise ValueError("matrix is not positive definite")
        pivots.append(pivot)
        for i in range(j + 1, n):
            val = h[i][j]
            for k in range(j):
                val = val - lower[i][k] * weights[k]
            lower[i][j] = val / pivot
    return lower, [p.real_part() for p in pivots]
