"""Structure equations of Lie algebras and the exterior differential.

StructureEquations carries a complex (1,0)-coframe w1..wn with dw^j given as
an exact 2-form; d extends to all forms as an odd derivation and splits as
del + delbar through bidegree.  RealLieAlgebra is the analogous object
over a real coframe e1..em, optionally carrying an almost complex
structure J, and complex_frame_from_real converts (coframe, J) into a
complex coframe with d transported.

The derivation is one Gaussian-integer kernel, _derive, which maps int sums
over rank bitmasks to int sums through a table of the rank differentials in
ints over one denominator, as forms.wedge does.  Both constructors read their
Forms through one checked term reader (_read_terms) into int rows over one
denominator and check d∘d = 0 by one int Jacobi test (_jacobi) on their table:
StructureEquations builds its table, conjugate rows and dw^j from the rows in
one pass and checks integrability there (_validate); RealLieAlgebra takes its
table straight from them.  d, partial, dbar and ddbar wrap the kernel for
Forms; hermitian runs it on Omega's sums and CompiledMaps' basis monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Optional

from . import linalg
from .errors import (
    BadParams,
    DimensionMismatch,
    JacobiViolation,
    NotAlmostComplex,
    NotIntegrable,
    ensure,
)
from .forms import Form, _form_of_sums, _mask, _ranks, conj_rank, conjugate_rank
from .forms import holo_rank, substitute
from .scalars import I, ONE, _make, _to_ints, cr


def _read_terms(d_of: List[Form], name: str, max_rank: int) -> tuple:
    """(den, rows): rows[j-1] lists (r, s, a, b) for each term (a + ib)/den of
    d_of[j-1] on its key (r, s), which must have 1 <= r < s <= max_rank; a bad
    key raises BadParams, or DimensionMismatch past max_rank, naming name + j."""
    den, terms = _to_ints(((j, mon), c) for j, df in enumerate(d_of, start=1)
                          for mon, c in df.terms.items())
    rows = [[] for _ in d_of]
    for (j, mon), a, b in terms:
        if len(mon) != 2:
            raise BadParams(f"{name}{j} must be a 2-form, got degree {len(mon)}")
        r, s = mon
        if r >= s:
            raise BadParams(f"{name}{j} has the key {mon}, whose ranks do not increase")
        if r < 1:
            raise BadParams(f"{name}{j} has the key {mon}, whose ranks start below 1")
        if s > max_rank:
            raise DimensionMismatch(f"{name}{j} uses ranks beyond the coframe")
        rows[j - 1].append((r, s, a, b))
    return den, rows


def _derive(sums: Dict[int, list], tables: tuple) -> tuple:
    """The derivation kernel: int sums {mask: [re, im]} through each rank table
    (den, rows) in turn, as (image sums, the product of the tables' denominators)."""
    den = 1
    for dt, rows in tables:
        out: Dict[int, list] = {}
        for mask, (x, y) in sums.items():
            for t, rank in enumerate(_ranks(mask)):
                rest = mask ^ (1 << rank)
                # d(rank) has even degree, so moving it to the front costs no
                # sign; taking rank out of position t costs (-1)^t
                for m2, p2, u, v in rows[rank]:
                    if m2 & rest:
                        continue
                    if (t + (p2 & rest).bit_count()) & 1:
                        u, v = -u, -v
                    re, im = x * u - y * v, x * v + y * u
                    m = m2 | rest
                    acc = out.get(m)
                    if acc is None:
                        out[m] = [re, im]
                    else:
                        acc[0] += re
                        acc[1] += im
        sums, den = out, den * dt
    return sums, den


def _jacobi(d_rank: tuple, generator_rows: list, d, d_of: List[Form]) -> None:
    """Raise JacobiViolation, with the residual d(d_of[j-1]), on the first j
    whose table row generator_rows[j-1] is not killed by the table d_rank."""
    for j, row in enumerate(generator_rows, start=1):
        if row:
            sums, _ = _derive({m: (a, b) for m, _, a, b in row}, (d_rank,))
            if any(re or im for re, im in sums.values()):
                raise JacobiViolation(j, d(d_of[j - 1]))


def _derivation(f: Form, tables: tuple, max_rank: int) -> Form:
    """Apply the odd derivations of rank-level differentials (rank tables) in order."""
    if f.is_zero:
        return Form.zero()
    if f.max_rank() > max_rank:
        raise DimensionMismatch(f"form uses rank {f.max_rank()} but the coframe has "
                                f"{max_rank} generators")
    df, terms = _to_ints(f.terms.items())
    sums, den = _derive({_mask(mon): (x, y) for mon, x, y in terms}, tables)
    return _form_of_sums(f.degree + len(tables), sums, df * den)


def _is_unimodular(d, m: int) -> bool:
    """True iff d kills every (m-1)-monomial (exact top-degree Stokes)."""
    full = tuple(range(1, m + 1))
    return all(d(Form(m - 1, {full[:h] + full[h + 1:]: ONE})).is_zero for h in range(m))


class StructureEquations:
    """A complex coframe w1..wn with exact structure equations.

    Construction rejects n < 1 and verifies d∘d = 0 on every generator
    (Jacobi identity) and that every dw^j has no (0,2)-component
    (integrability), so del and delbar are meaningful on every instance.
    The differential of each rank is split once into its del and delbar
    parts, which integrability makes sum to d; del and delbar are then
    single derivations over the one int table of the rank differentials,
    built by _validate from int rows: __init__ reads its Forms through
    _read_terms, _of_sums the int sums of the readers.  Instances are
    immutable.  The _compiled slot holds the structure's
    hermitian.CompiledMaps once a metric quantity needs them.
    """

    __slots__ = ("n", "d_of", "_d_rank", "_del_rank", "_dbar_rank", "_compiled")

    def __init__(self, n: int, d_of: List[Form]):
        if n < 1:
            raise BadParams(f"n must be at least 1, got {n}")
        if len(d_of) != n:
            raise DimensionMismatch(f"need {n} differentials, got {len(d_of)}")
        self._validate(n, *_read_terms(d_of, "dw", 2 * n))

    @staticmethod
    def _of_sums(n: int, sums: list) -> "StructureEquations":
        """The structure over n >= 1 generators of dw^j = sum (a + ib)/d w^r^w^s
        over the entries (r, s): (a, b, d), r < s, nonzero and unreduced, of
        sums[j-1].  Its table's denominator is the lcm of the reduced d, as in
        __init__: den, the lcm of the d, over its gcd with every numerator."""
        if len(sums) != n:
            raise DimensionMismatch(f"need {n} differentials, got {len(sums)}")
        den = lcm(*{d for terms in sums for _, _, d in terms.values()})
        rows = [[(r, s, a * (den // d), b * (den // d)) for (r, s), (a, b, d) in terms.items()]
                for terms in sums]
        g = gcd(den, *(x for row in rows for _, _, a, b in row for x in (a, b)))
        if g != 1:
            den //= g
            rows = [[(r, s, a // g, b // g) for r, s, a, b in row] for row in rows]
        se = object.__new__(StructureEquations)
        se._validate(n, den, rows)
        return se

    def _validate(self, n: int, den: int, rows: list) -> None:
        """Build and check the structure of the terms (r, s, a, b), r < s, in
        rows[j-1] of dw^j = sum (a + ib)/den w^r^w^s over their least common
        denominator: d_of, the rank table and its del and delbar split."""
        self.n = n
        self.d_of = d_of = []
        # table[2j-1] holds the terms of dw^j and table[2j] those of its
        # conjugate; dels and dbars hold the del and delbar part of each row
        table, dels, dbars = [[]], [[]], [[]]
        flat = 0  # the first generator whose differential has a (0,2) term
        for j, row in enumerate(rows, start=1):
            terms, holo, conj = {}, [], []
            parts = [], [], [], []  # del and delbar of dw^j, then of its conjugate
            for r, s, a, b in row:
                terms[r, s] = _make(a, b, den)
                if not (r | s) & 1:
                    flat = flat or j
                k = 0 if r & s & 1 else 1  # (2,0): del of dw^j, delbar of its conjugate
                e = (1 << r | 1 << s, (1 << s) - (1 << r), a, b)
                if s == r + 1 and r & 1:  # w^k^~w^k conjugates to ~w^k^w^k = -w^k^~w^k
                    c = (e[0], e[1], -a, b)
                else:  # conjugation keeps the order of the ranks of two generators
                    r, s = conjugate_rank(r), conjugate_rank(s)
                    c = (1 << r | 1 << s, (1 << s) - (1 << r), a, -b)
                holo.append(e)
                conj.append(c)
                parts[k].append(e)
                parts[3 - k].append(c)
            d_of.append(Form(2, terms))
            table += holo, conj
            dels += parts[0], parts[2]
            dbars += parts[1], parts[3]
        self._d_rank = den, table
        if flat:
            raise NotIntegrable(flat, d_of[flat - 1].component(0, 2))
        _jacobi(self._d_rank, table[1::2], self.d, d_of)
        self._del_rank = den, dels
        self._dbar_rank = den, dbars
        self._compiled = None

    # -- differentials -----------------------------------------------------

    def d(self, f: Form) -> Form:
        return _derivation(f, (self._d_rank,), 2 * self.n)

    def partial(self, f: Form) -> Form:
        """The (p+1,q)-part of d on each pure-(p,q) component."""
        return _derivation(f, (self._del_rank,), 2 * self.n)

    def dbar(self, f: Form) -> Form:
        """The (p,q+1)-part of d on each pure-(p,q) component."""
        return _derivation(f, (self._dbar_rank,), 2 * self.n)

    def ddbar(self, f: Form) -> Form:
        """partial(dbar(f)), both in one kernel call."""
        return _derivation(f, (self._dbar_rank, self._del_rank), 2 * self.n)

    # -- global properties ---------------------------------------------------

    def is_unimodular(self) -> bool:
        return _is_unimodular(self.d, 2 * self.n)

    def map_coefficients(self, fn) -> "StructureEquations":
        """Coefficient-converted copy, validated like any other construction."""
        return StructureEquations(self.n, [df.map_coefficients(fn) for df in self.d_of])

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureEquations):
            return NotImplemented
        return self.n == other.n and self.d_of == other.d_of

    def __repr__(self) -> str:
        lines = [f"n={self.n}"] + [
            f"dw{j}: {df!r}" for j, df in enumerate(self.d_of, start=1)
        ]
        return "StructureEquations(" + "; ".join(lines) + ")"


class RealLieAlgebra:
    """A real coframe e1..em with exact structure equations and optional J."""

    __slots__ = ("m", "d_of", "J", "_d_rank")

    def __init__(self, m: int, d_of: List[Form], J: Optional[list] = None):
        if len(d_of) != m:
            raise DimensionMismatch(f"need {m} differentials, got {len(d_of)}")
        den, rows = _read_terms(d_of, "de", m)
        for j, row in enumerate(rows, start=1):
            if any(b for *_, b in row):
                raise BadParams(f"de{j} has a non-real coefficient")
        self.m = m
        self.d_of = list(d_of)
        table = [[(1 << r | 1 << s, (1 << s) - (1 << r), a, b) for r, s, a, b in row]
                 for row in rows]
        self._d_rank = den, [[]] + table
        _jacobi(self._d_rank, table, self.d, self.d_of)
        self.J = None
        if J is not None:
            self.J = linalg.mat(J)
            if len(self.J) != m or any(len(row) != m for row in self.J):
                raise DimensionMismatch(f"J must be {m} x {m}, got {len(self.J)} rows "
                                        f"of lengths {[len(row) for row in self.J]}")
            if any(not v.is_real for row in self.J for v in row):
                raise NotAlmostComplex("J must be a real matrix")
            if not linalg.mat_eq(
                linalg.mat_mul(self.J, self.J),
                [[cr(-1) if i == j else cr(0) for j in range(m)] for i in range(m)],
            ):
                raise NotAlmostComplex("J^2 != -Id")

    def d(self, f: Form) -> Form:
        return _derivation(f, (self._d_rank,), self.m)

    def is_unimodular(self) -> bool:
        return _is_unimodular(self.d, self.m)

    def __repr__(self) -> str:
        lines = [f"m={self.m}"] + [
            f"de{j}: {df!r}" for j, df in enumerate(self.d_of, start=1)
        ]
        return "RealLieAlgebra(" + "; ".join(lines) + ")"


@dataclass(frozen=True)
class ComplexFrame:
    """A complex coframe over a real Lie algebra, with the transport map.

    rows[j][a] gives w^{j+1} = sum_a rows[j][a] e^{a+1}; to_complex_table
    expresses each real generator e^{a+1} in the complex frame.
    """

    structure: StructureEquations
    rows: list
    to_complex_table: dict

    def to_complex(self, f: Form) -> Form:
        """Rewrite a real-coframe form in the complex coframe."""
        return substitute(f, self.to_complex_table)


def _stacked_inverse(rows: list) -> tuple:
    """(rows, S, S^-1) for S = [rows; conj(rows)], the rows read exactly."""
    rows = [[cr(v) for v in row] for row in rows]
    stacked = rows + [[v.conjugate() for v in row] for row in rows]
    try:
        return rows, stacked, linalg.mat_inverse(stacked)
    except ValueError:  # linalg's singular system
        raise BadParams("the coframe rows and their conjugates are not independent") from None


def structure_from_coframe(alg: RealLieAlgebra, rows: list) -> ComplexFrame:
    """Transport d along an explicit (1,0)-coframe.

    rows is an n x m complex matrix whose j-th row expresses w^j in the real
    coframe.  The stacked matrix [rows; conj(rows)] must be invertible,
    else BadParams.  Raises NotIntegrable when some dw^j acquires a
    (0,2)-component.
    """
    m = alg.m
    if m % 2:
        raise NotAlmostComplex(f"odd-dimensional algebra (m={m}) has no coframe")
    n = m // 2
    if len(rows) != n or any(len(r) != m for r in rows):
        raise DimensionMismatch(f"coframe must be {n} rows of length {m}")
    rows, _, inv = _stacked_inverse(rows)

    # e^a in terms of w / ~w
    to_complex_table = {}
    for a in range(m):
        terms = {}
        for j in range(n):
            if inv[a][j]:
                terms[(holo_rank(j + 1),)] = inv[a][j]
            if inv[a][n + j]:
                terms[(conj_rank(j + 1),)] = inv[a][n + j]
        to_complex_table[a + 1] = Form(1, terms)

    d_of = []
    for j in range(n):
        df = Form.zero()
        for a in range(m):
            if rows[j][a] and not alg.d_of[a].is_zero:
                df = df + substitute(alg.d_of[a], to_complex_table).scale(rows[j][a])
        d_of.append(df)
    se = StructureEquations(n, d_of)
    return ComplexFrame(se, rows, to_complex_table)


def complex_frame_from_real(alg: RealLieAlgebra) -> ComplexFrame:
    """Deterministic (1,0)-coframe from (real coframe, J).

    Applies e^a - i e^a∘J for a = 1, 2, ... in order and keeps each
    candidate that is linearly independent of those kept before it (the rref
    of the kept rows plus the candidate has no zero row), stopping at n, so
    the output is reproducible across runs and platforms.
    """
    if alg.J is None:
        raise NotAlmostComplex("algebra carries no J")
    m = alg.m
    n = m // 2
    kept: list = []
    for a in range(m):
        cand = [(cr(1) if b == a else cr(0)) - I * alg.J[a][b] for b in range(m)]
        if all(any(row) for row in linalg.rref(kept + [cand])):
            kept.append(cand)
            if len(kept) == n:
                break
    ensure(len(kept) == n, "J eigenspace defect; J^2 = -Id should prevent this")
    return structure_from_coframe(alg, kept)


def complex_structure_from_coframe(rows: list, m: int) -> list:
    """The real matrix J for which the given rows are (1,0)-forms.

    rows is n x m complex with [rows; conj(rows)] invertible, else
    BadParams; returns J with J^2 = -Id such that (w^j)∘J = i w^j for
    every row.
    """
    n = m // 2
    rows, stacked, inv = _stacked_inverse(rows)
    diag = [
        [I if (i == j and i < n) else (-I if i == j else cr(0)) for j in range(m)]
        for i in range(m)
    ]
    # rows are (1,0) iff row.J = i row; stacking with conjugates pins J
    J = linalg.mat_mul(inv, linalg.mat_mul(diag, stacked))
    for row in J:
        for v in row:
            if not v.is_real:
                raise NotAlmostComplex("coframe does not define a real J")
    return J
