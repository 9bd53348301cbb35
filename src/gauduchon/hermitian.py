"""Invariant Hermitian metrics on a fixed set of structure equations.

A metric is the matrix X = (x_{jk}) of its fundamental form
Omega = sum x_{jk} w^j ^ ~w^k with conj(x_{kj}) = -x_{jk}; positivity is
equivalent to -iX being Hermitian positive definite.  This module computes
the k-th Gauduchon forms ddbar(Omega^k) ^ Omega^{n-k-1}, the associated
sign scalar, the Lee form theta = Lambda(d Omega) (the Lefschetz contraction
of d Omega, zero exactly on balanced metrics), the metric-class predicates,
and the Lefschetz operator pair with its commutation identities.  The
adjoints L* and d* are taken in the inner product that (-iX)^-1 induces on
forms, in the coframe the forms are written in.

No Omega-power quantity is wedged out per metric, and by Leibniz every
Gauduchon top is the k = 1 and k = 2 tops weighted by _leibniz.  classify
is one-shot: Omega's int sums pass once through the d table and split into
del Omega and dbar Omega, one del pass gives ddbar Omega, and pairing it and
del Omega ^ dbar Omega with the minors of X on the complementary ranks
gives those two tops.  Callers that evaluate one structure on many metrics
(search, gamma_scalar, gauduchon_form, balanced_defect) read CompiledMaps
instead: sparse int maps over the minors of X, compiled once per structure,
ddbar(Omega^p) for p = 1 and 2 only.  One pass pairs a map's image with the
complementary minors, and with each minor's derivative in x_jj gives the
top along every diagonal ray as a quadratic, for the search's closing move.

The metric layer is integer arithmetic.  A Metric stores X once, as
Gaussian-int numerators over one denominator D, and memoises its minors as
ints over D^p by their ids in the per-n minor plan (_MinorPlan), which
stores each minor's Laplace expansion over sub-minor ids when a caller
first names it; every table holds ids, fixed at compile.  Positivity is
Sylvester's criterion on the trailing principal minors of -iX, the last of
which is det(-iX).  The Lefschetz contraction is one Gaussian-int kernel
over rank masks (_contract) with -i (-iX)^-1 = X^-1, read off the cofactors
of X over |det X| (_cofactor_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod
from typing import Dict, Optional

from . import linalg
from .errors import BadK, BadParams, DimensionMismatch, NotPositive, NotSkewHermitian, ensure
from .forms import Form, Monomial, _form_of_sums, _mask, _ranks, sort_ranks
from .forms import _wedge_sums, wedge
from .scalars import I, ZERO, ComplexRational, _make, _rational_parts, _to_ints, cr
from .structures import StructureEquations, _derive


class _MinorPlan:
    """Minors of n x n matrices by int ids, named by row and column bitmasks.

    The first id(rows, cols) names the sub-minors, then stores the first-row
    Laplace expansion terms[id] = (row, [(col, sub-minor id, odd)]), so sub-
    minors have smaller ids.  keys[id] = (rows, cols), id 0 is the empty
    minor, and tails are the trailing principal minors of size p = 0..n.
    cofactors lists (rank of w^a, rank of ~w^b, id of the minor without row a
    and column b, unit) for the Lee table, unit indexing (-i)^n (-1)^(a+b).
    """

    __slots__ = ("n", "ids", "keys", "terms", "tails", "cofactors")

    def __init__(self, n: int):
        self.n, self.ids, self.keys, self.terms = n, {0: 0}, [(0, 0)], [(0, ())]
        full = (1 << n) - 1
        self.tails = [self.id(m, m) for m in (full >> q << q for q in range(n, -1, -1))]
        self.cofactors = [(2 * a + 1, 2 * b + 2, self.id(full ^ 1 << a, full ^ 1 << b),
                           (n + 2 * (a + b)) & 3) for a in range(n) for b in range(n)]

    def id(self, rows: int, cols: int) -> int:
        ids, n = self.ids, self.n
        i = ids.get(rows << n | cols)
        if i is None:
            below, terms = rows & rows - 1, []
            for t, col in enumerate(_ranks(cols)):
                rest = cols ^ 1 << col
                terms.append((col, ids.get(below << n | rest) or self.id(below, rest), t & 1))
            i = ids[rows << n | cols] = len(self.keys)
            self.keys.append((rows, cols))
            self.terms.append(((rows & -rows).bit_length() - 1, terms))
        return i


_plan = lru_cache(maxsize=None)(_MinorPlan)  # one plan per n, its ids shared by every metric


class Metric:
    """Skew-Hermitian coefficient matrix of an invariant fundamental form.

    X is stored once, as Gaussian-int numerators (a, b) over one denominator
    D (x_jk = (a + ib)/D), and the minors as ints over D^p, memoised by plan
    id.  Every constructor goes through _init, which checks the matrix.
    """

    __slots__ = ("n", "_num", "_den", "_positive", "_det", "_minors", "_plan")

    def __init__(self, x: list):
        rows = linalg.mat(x)
        den, nums = _to_ints(((j, k), v) for j, row in enumerate(rows)
                             for k, v in enumerate(row))
        num = [[] for _ in rows]
        for (j, _), a, b in nums:
            num[j].append((a, b))
        self._init(num, den)

    @staticmethod
    def _of_ints(num: list, den: int) -> "Metric":
        """The metric x_jk = (a + ib)/den for num[j][k] = (a, b), den > 0."""
        metric = object.__new__(Metric)
        metric._init(num, den)
        return metric

    def _init(self, num: list, den: int):
        n = len(num)
        if any(len(row) != n for row in num):
            raise DimensionMismatch(f"X has {n} rows of lengths {[len(r) for r in num]}")
        for j, row in enumerate(num):  # (j, k) and (k, j) state the same condition
            for k in range(j, n):
                (a, b), (c, e) = row[k], num[k][j]
                if c != -a or e != b:  # conj(x_kj) = -x_jk over the shared D
                    raise NotSkewHermitian(f"conj(x[{k}][{j}]) != -x[{j}][{k}]")
        self.n = n
        self._num = num
        self._den = den
        self._positive: Optional[bool] = None
        self._det: Optional[Fraction] = None
        self._minors: Dict[int, tuple] = {0: (1, 0)}
        self._plan = _plan(n)

    @property
    def x(self) -> list:
        """X as a new ComplexRational matrix, built from the ints."""
        den = self._den
        return [[_make(a, b, den) for a, b in row] for row in self._num]

    def bump_diagonal(self, j: int, amount) -> "Metric":
        """The metric with x_jj raised by i*amount = i*p/q, a new metric over
        D' = lcm(D, q) that memoises its own minors as they are read."""
        if not 0 <= j < self.n:
            raise DimensionMismatch(f"bump_diagonal needs j in 0..{self.n - 1}, got {j}")
        p, q = _rational_parts(amount)
        den = lcm(self._den, q)
        f = den // self._den
        num = [[(a * f, b * f) for a, b in r] for r in self._num]
        a, b = num[j][j]
        num[j][j] = (a, b + p * (den // q))
        return Metric._of_ints(num, den)

    @staticmethod
    def diagonal(n: int, entries=None) -> "Metric":
        """diag(i*u_1, ..., i*u_n); defaults to the standard diag(i,...,i)."""
        if entries is None:
            entries = [1] * n
        if len(entries) != n:
            raise DimensionMismatch(f"diag({n}) needs {n} entries, got {len(entries)}")
        x = [[I * cr(entries[j]) if j == k else ZERO for k in range(n)] for j in range(n)]
        return Metric(x)

    def minus_i_x(self) -> list:
        """The Hermitian matrix -iX; positive definite iff the metric is."""
        den = self._den
        return [[_make(b, -a, den) for a, b in row] for row in self._num]

    def is_positive(self) -> bool:
        """Sylvester's criterion: every trailing principal minor of -iX is > 0.

        The p x p trailing minor of H = -iX is (-i)^p det X_{SS} for S the
        last p indices (the plan's tails), the last det(-iX) = Delta_n / D^n.
        """
        if self._positive is None:
            minor, minors = self._minor, self._minors
            self._positive = True
            for p, i in enumerate(self._plan.tails):  # p = 0: the empty minor, delta = 1
                re, im = minors.get(i) or minor(i)
                delta = (re, im, -re, -im)[p & 3]  # the real (-i)^p (re + i im)
                if delta <= 0:
                    self._positive = False
                    break
            if self._positive:
                self._det = Fraction(delta, self._den ** self.n)
        return self._positive

    def require_positive(self):
        if not self.is_positive():
            raise NotPositive("metric coefficient matrix is not positive definite")

    def require_n(self, n: int):
        """DimensionMismatch unless the metric is n x n, the n of the structure it meets."""
        if self.n != n:
            raise DimensionMismatch(f"metric has n = {self.n}, the structure n = {n}")

    def det_minus_i_x(self) -> Fraction:
        """det(-iX), the last of the Sylvester minors; only positive metrics have it."""
        self.require_positive()
        return self._det

    def _minor(self, i: int) -> tuple:
        """(re, im) with det X_i = (re + i im)/D^p for the plan's minor i of
        size p, by its Laplace terms over the memoised sub-minors."""
        minors = self._minors
        val = minors.get(i)
        if val is None:
            row, terms = self._plan.terms[i]
            row = self._num[row]
            re = im = 0
            for col, sub, odd in terms:
                a, b = row[col]
                if a or b:
                    c, e = minors.get(sub) or self._minor(sub)
                    if odd:
                        re -= a * c - b * e
                        im -= a * e + b * c
                    else:
                        re += a * c - b * e
                        im += a * e + b * c
            val = minors[i] = (re, im)
        return val

    def minor(self, rows: tuple, cols: tuple) -> ComplexRational:
        """det X_{rows, cols} for strictly ascending 0-based index tuples of
        one length; det of the empty minor is 1."""
        n = self.n
        if len(rows) != len(cols) or any(tuple(ix) != tuple(r for r in range(n) if r in ix)
                                         for ix in (rows, cols)):
            raise DimensionMismatch(f"a minor needs rows and columns of one length, strictly "
                                    f"ascending in 0..{n - 1}; got {rows} and {cols}")
        re, im = self._minor(self._plan.id(_mask(rows), _mask(cols)))
        return _make(re, im, self._den ** len(rows))

    def fundamental_form(self) -> Form:
        """Omega = sum_{j,k} x_{jk} w^j ^ ~w^k; real in the sense conj = id."""
        return _form_of_sums(2, _omega_sums(self._num), self._den)

    def scale(self, c) -> "Metric":
        return Metric([[v * cr(c) for v in row] for row in self.x])

    def __eq__(self, other):
        if not isinstance(other, Metric):
            return NotImplemented
        return self.x == other.x

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(repr(v) for v in row) + "]" for row in self.x
        )
        return f"Metric({rows})"


def metric_from_form(omega: Form, n: int) -> Metric:
    """Inverse of fundamental_form; a key past rank 2n or not of type (1,1) is bad input."""
    x = [[ZERO for _ in range(n)] for _ in range(n)]
    for mon, c in omega.terms.items():
        if mon and mon[-1] > 2 * n:
            raise DimensionMismatch(f"Omega has the key {mon}, with a rank outside 1..{2 * n}")
        if Form.monomial_bidegree(mon) != (1, 1):
            raise BadParams(f"Omega has the key {mon}, which is not of type (1,1)")
        a, b = mon
        if a & 1:  # w^j ^ ~w^k stored in canonical order
            j, k = (a + 1) // 2, b // 2
            x[j - 1][k - 1] = x[j - 1][k - 1] + c
        else:  # canonical ~w^k ^ w^j carries the flipped sign
            k, j = a // 2, (b + 1) // 2
            x[j - 1][k - 1] = x[j - 1][k - 1] - c
    return Metric(x)


# ---------------------------------------------------------------------------
# volume data and the Gauduchon scalar
# ---------------------------------------------------------------------------


def sigma_monomial(n: int) -> Monomial:
    """The canonical top monomial w1^~w1^...^wn^~wn (ranks 1..2n)."""
    return tuple(range(1, 2 * n + 1))


def top_coefficient(f: Form, n: int) -> ComplexRational:
    """Coefficient of an (n,n)-form on the canonical top monomial."""
    return f.terms.get(sigma_monomial(n), ZERO)


def omega_power(omega: Form, k: int) -> Form:
    """Omega^k for k >= 0, one loop of the int wedge kernel; Omega^0 is the exact 1."""
    ensure(k >= 0, "Omega^k needs k >= 0")  # every caller derives k itself
    if not k:
        return Form.scalar(1)
    d, terms = _to_ints(omega.terms.items())
    base = sums = {_mask(mon): (x, y) for mon, x, y in terms}
    for _ in range(k - 1):
        sums = _wedge_sums(sums, base)
    return _form_of_sums((omega.degree or 0) * k, sums, d ** k)


def volume_coefficient(metric: Metric) -> ComplexRational:
    """coeff(Omega^n) = n! i^n det(-iX); positive metrics have det(-iX) > 0."""
    return cr(factorial(metric.n)) * I**metric.n * cr(metric.det_minus_i_x())


@lru_cache(maxsize=None)  # at most 2^(2n) masks for each n
def _complement(mask: int, n: int) -> tuple:
    """(b, sign) with coeff(m ^ Omega^q) = sign q! det X_b, m the monomial of
    the mask and q = n - deg(m)/2: b is the plan id of the minor (rows, cols)
    that indexes the basis monomial of Omega^q on the ranks m leaves out, sign
    sorts m's ranks, then b's."""
    rest = [r for r in range(1, 2 * n + 1) if not mask >> r & 1]
    holo = [r for r in rest if r & 1]
    anti = [r for r in rest if not r & 1]
    b = _plan(n).id(_mask((r - 1) // 2 for r in holo), _mask((r - 1) // 2 for r in anti))
    return b, sort_ranks(_ranks(mask) + tuple(r for pair in zip(holo, anti) for r in pair))[0]


def _cofactors(plan: _MinorPlan, i: int) -> list:
    """[(j, sub, sign)] for each j among both the rows and the columns of the
    plan's minor i: d det X_i / d x_jj = sign det X_sub, sub a plan id."""
    rows, cols = plan.keys[i]
    out = []
    for j in _ranks(rows & cols):
        below = (1 << j) - 1  # j is row r and column c of the minor, r and c from 0
        sign = -1 if ((rows & below).bit_count() + (cols & below).bit_count()) & 1 else 1
        out.append((j, plan.id(rows ^ 1 << j, cols ^ 1 << j), sign))
    return out


def _leibniz(k: int, n: int) -> tuple:
    """((p, w), ...) with top_k = sum w top_p, 1 <= k <= n-1: k(2-k) top_1 +
    C(k, 2) top_2, so k = 1 and k = 2 read their own top alone.  By Leibniz
    ddbar(Omega^k) = k Omega^{k-1} ddbar Omega + k(k-1) Omega^{k-2} P,
    P = del Omega ^ dbar Omega, so top_k = k A + k(k-1) B, with top_1 = A
    and top_2 = 2A + 2B."""
    if not 1 <= k <= n - 1:
        raise BadK(f"k must be in 1..{n - 1}, got {k}")
    return ((k, 1),) if k <= 2 else ((1, k * (2 - k)), (2, k * (k - 1) // 2))


class CompiledMaps:
    """The Omega-power predicates of one structure as sparse maps over minors
    of X, for evaluating one structure on many metrics (classify needs none).

    Omega^p = p! sum_{|J|=|K|=p} det X_{JK} m_{JK} over the basis monomials
    m_{JK} = w^{j_1} ^ ~w^{k_1} ^ ... ^ w^{j_p} ^ ~w^{k_p}, and d and ddbar
    are linear, so ddbar(Omega^p) is a fixed map over the p-minors and
    d(Omega^{n-1}) one over the cofactors, each one int table keyed by rank
    mask, built on first use and cached on the structure (CompiledMaps.of).
    Only ddbar(Omega) and ddbar(Omega^2) are compiled, each with the minor on
    each image monomial's complementary ranks and sign (n-p-1)!; the k-th
    Gauduchon top (top_ints) and its diagonal rays (rays, whose sub-minor
    lists are built on first use) are _leibniz sums of passes over them.
    _top_pass keeps its own pairing, precomputed per image monomial, rather
    than calling classify's _paired: that costs 1-3 us more per pass.
    """

    __slots__ = ("se", "n", "_dt", "_ddbar", "_d_top", "_rays")

    @staticmethod
    def of(se: StructureEquations) -> "CompiledMaps":
        """The structure's maps, kept in its _compiled slot."""
        maps = se._compiled
        if maps is None:
            maps = se._compiled = CompiledMaps(se)
        return maps

    def __init__(self, se: StructureEquations):
        self.se = se
        self.n = se.n
        self._dt = se._dbar_rank[0] * se._del_rank[0]  # the ddbar maps' denominator
        self._ddbar: Dict[int, tuple] = {}  # keyed by p = 1, 2
        self._d_top: Optional[tuple] = None
        self._rays: Dict[int, list] = {}  # keyed by p = 1, 2

    def _linear_map(self, tables: tuple, p: int) -> tuple:
        """Omega^p through the rank tables in order, as (D, {rank mask:
        [(p-minor id, a, b)]}): the image coefficient on a monomial is
        sum (a + ib) det X_id / D.  Each m_JK enters the kernel as its
        rank mask carrying p! times the sign that sorts its ranks.
        """
        scale, plan = factorial(p), _plan(self.n)
        out: Dict[int, list] = {}
        for rows in combinations(range(self.n), p):
            for cols in combinations(range(self.n), p):
                mask = sign = 0
                for j, k in zip(rows, cols):
                    for r in (2 * j + 1, 2 * k + 2):  # w^(j+1), ~w^(k+1)
                        sign ^= (mask >> r).bit_count()  # ranks above r, placed before it
                        mask |= 1 << r
                sums, _ = _derive({mask: (-scale if sign & 1 else scale, 0)}, tables)
                i = plan.id(_mask(rows), _mask(cols))
                for m, (a, b) in sums.items():
                    if a or b:
                        out.setdefault(m, []).append((i, a, b))
        return prod(dt for dt, _ in tables), out

    def _ddbar_map(self, p: int) -> tuple:
        """(D, {rank mask: entries}, pairs) for ddbar(Omega^p): the map and,
        per image monomial, (entries, b, c) with coeff(m ^ Omega^{n-p-1}) =
        c det X_b for c = sign (n-p-1)! (_complement)."""
        if p not in self._ddbar:
            n = self.n
            d, entries_of = self._linear_map((self.se._dbar_rank, self.se._del_rank), p)
            pairs = []
            for mask, entries in entries_of.items():
                b, sign = _complement(mask, n)
                pairs.append((entries, b, sign * factorial(n - p - 1)))
            self._ddbar[p] = d, entries_of, pairs
        return self._ddbar[p]

    def _d_top_map(self) -> tuple:
        if self._d_top is None:
            self._d_top = self._linear_map((self.se._d_rank,), self.n - 1)
        return self._d_top

    def _top_pass(self, metric: Metric, p: int) -> tuple:
        """(re, im) of top_p: each nonzero sum over the p-minors meets c det X_b."""
        minor, minors = metric._minor, metric._minors
        re = im = 0
        for entries, b, c in self._ddbar_map(p)[2]:
            x = y = 0
            for key, u, v in entries:
                mr, mi = minors.get(key) or minor(key)
                x += u * mr - v * mi
                y += u * mi + v * mr
            if x or y:
                u, v = minors.get(b) or minor(b)
                re += c * (x * u - y * v)
                im += c * (x * v + y * u)
        return re, im

    def top_ints(self, metric: Metric, k: int) -> tuple:
        """(re, im, den): the coefficient of ddbar(Omega^k) ^ Omega^{n-k-1}
        on the top monomial is (re + i im)/den, den > 0, for 1 <= k <= n-1,
        the _leibniz sum of the p = 1 and p = 2 passes, each scaled once."""
        re = im = 0
        for p, w in _leibniz(k, self.n):
            x, y = self._top_pass(metric, p)
            re, im = re + w * x, im + w * y
        return re, im, self._dt * metric._den ** (self.n - 1)

    def _ray_table(self, p: int) -> list:
        """Per pair of the ddbar(Omega^p) map, the diagonal derivatives of its
        minors: ([(j, [(sub, a, b)])], [(j, sub, sign)]) for the entries and
        for b, with d det X_key / d x_jj = sign det X_sub (_cofactors)."""
        table = self._rays.get(p)
        if table is None:
            table = self._rays[p] = []
            plan = _plan(self.n)
            for entries, b, _ in self._ddbar_map(p)[2]:
                by_j: Dict[int, list] = {}
                for key, u, v in entries:
                    for j, sub, sign in _cofactors(plan, key):
                        by_j.setdefault(j, []).append((sub, sign * u, sign * v))
                table.append((list(by_j.items()), _cofactors(plan, b)))
        return table

    def _ray_pass(self, metric: Metric, p: int, w: int) -> tuple:
        """(T0, [(T1_j, T2_j)]) of rays for w top_p, w folded into the scale."""
        minor, minors, n = metric._minor, metric._minors, self.n
        r0 = i0 = 0
        r1, i1, r2, i2 = [0] * n, [0] * n, [0] * n, [0] * n  # over i D and -D^2
        for (entries, b, c), (moves, b_moves) in zip(self._ddbar_map(p)[2], self._ray_table(p)):
            x = y = 0
            for key, u, v in entries:
                mr, mi = minors.get(key) or minor(key)
                x += u * mr - v * mi
                y += u * mi + v * mr
            u0, v0 = minors.get(b) or minor(b)
            r0 += c * (x * u0 - y * v0)
            i0 += c * (x * v0 + y * u0)
            slopes = {}  # j -> the derivative of the entries' sum, over i D
            for j, subs in moves:
                sx = sy = 0
                for sub, u, v in subs:
                    mr, mi = minors.get(sub) or minor(sub)
                    sx += u * mr - v * mi
                    sy += u * mi + v * mr
                slopes[j] = sx, sy
                r1[j] += c * (sx * u0 - sy * v0)
                i1[j] += c * (sx * v0 + sy * u0)
            for j, sub, sign in b_moves:
                mr, mi = minors.get(sub) or minor(sub)
                u, v = sign * c * mr, sign * c * mi
                r1[j] += x * u - y * v
                i1[j] += x * v + y * u
                sx, sy = slopes.get(j, (0, 0))
                r2[j] += sx * u - sy * v
                i2[j] += sx * v + sy * u
        f, g = w * metric._den, -w * metric._den ** 2
        return (w * r0, w * i0), [((-f * i1[j], f * r1[j]), (g * r2[j], g * i2[j]))
                                  for j in range(n)]

    def rays(self, metric: Metric, k: int) -> tuple:
        """(den, T0, [(T1_j, T2_j) for j < n]), Gaussian ints (re, im) with the
        k-th top at metric.bump_diagonal(j, t) = (T0 + T1_j t + T2_j t^2)/den
        for every rational t, den = top_ints' denominator at the metric.

        A minor with j among its rows and its columns moves by i D sign det X_sub
        per unit of t (over D^p), the others stay, so each pair S c det X_b of a
        top pass is a quadratic in t: one pass per map gives every ray at once.
        """
        (t0, rays), *rest = [self._ray_pass(metric, p, w) for p, w in _leibniz(k, self.n)]
        for (x, y), more in rest:  # k >= 3 adds the p = 2 pass
            t0 = t0[0] + x, t0[1] + y
            rays = [((a + c, b + e), (s + u, t + v))
                    for ((a, b), (s, t)), ((c, e), (u, v)) in zip(rays, more)]
        return self._dt * metric._den ** (self.n - 1), t0, rays

    @staticmethod
    def _image(entries_of: dict, metric: Metric) -> dict:
        """A map's int sums {rank mask: (re, im)} at the metric, over D_c D^p."""
        minor, minors = metric._minor, metric._minors
        sums = {}
        for mask, entries in entries_of.items():
            re = im = 0
            for key, u, v in entries:
                mr, mi = minors.get(key) or minor(key)
                re += u * mr - v * mi
                im += u * mi + v * mr
            sums[mask] = (re, im)
        return sums

    def ddbar_power(self, metric: Metric, p: int) -> Form:
        """ddbar(Omega^p) for p = 1 or 2, the two compiled maps."""
        if p not in (1, 2):
            raise BadK(f"ddbar_power reads p = 1 or 2, got {p}")
        d, entries_of, _ = self._ddbar_map(p)
        return _form_of_sums(2 * p + 2, self._image(entries_of, metric), d * metric._den ** p)

    def d_top(self, metric: Metric) -> Form:
        """d(Omega^{n-1}); zero exactly on balanced metrics."""
        d, entries_of = self._d_top_map()
        return _form_of_sums(2 * self.n - 1, self._image(entries_of, metric),
                             d * metric._den ** (self.n - 1))


def _turned(a: int, b: int, n: int) -> int:
    """The real part of i (-i)^n (a + ib), the one Gauduchon numerator reader:
    i (-i)^n is one of i, 1, -i, -1, and the imaginary part must vanish."""
    re, im = ((-b, a), (a, b), (b, -a), (-a, -b))[n & 3]  # i (-i)^n (a + ib), n mod 4
    ensure(not im, "the Gauduchon numerator is not real")
    return re


def _numerator(metric: Metric, k: int, se: StructureEquations) -> tuple:
    """(N, den) with (i/2) (-i)^n top_k = N/den off top_ints, den > 0: N has gamma_k's sign."""
    re, im, den = CompiledMaps.of(se).top_ints(metric, k)
    return _turned(re, im, se.n), 2 * den


def gauduchon_form(metric: Metric, k: int, se: StructureEquations) -> Form:
    """The (n,n)-form ddbar(Omega^k) ^ Omega^{n-k-1}."""
    metric.require_n(se.n)
    return Form(2 * se.n, {sigma_monomial(se.n): _make(*CompiledMaps.of(se).top_ints(metric, k))})


def gamma_numerator(metric: Metric, k: int, se: StructureEquations) -> Fraction:
    """The real scalar (i/2) (-i)^n coeff(ddbar Omega^k ^ Omega^{n-k-1}),
    gamma_scalar times the positive n! det(-iX); a quadratic along each
    diagonal ray x_jj + it (CompiledMaps.rays)."""
    metric.require_n(se.n)
    return Fraction(*_numerator(metric, k, se))


def gamma_scalar(metric: Metric, k: int, se: StructureEquations) -> Fraction:
    """The constant r with (i/2) ddbar(Omega^k) ^ Omega^{n-k-1} = r Omega^n.

    Exactly rational for positive metrics; its sign is a conformal-class
    invariant deciding the k-th Gauduchon condition at the invariant level.
    """
    metric.require_n(se.n)
    metric.require_positive()
    return Fraction(*_numerator(metric, k, se)) / (factorial(se.n) * metric.det_minus_i_x())


def balanced_defect(metric: Metric, se: StructureEquations) -> Form:
    """d(Omega^{n-1}) from the map over the cofactors; zero exactly on balanced metrics."""
    metric.require_n(se.n)
    return CompiledMaps.of(se).d_top(metric)


# ---------------------------------------------------------------------------
# Lee form
# ---------------------------------------------------------------------------


def _omega_sums(num: list) -> dict:
    """Omega as int sums {rank mask: (a, b)} over the metric's D, num[j][k] = (a, b).

    w^j ^ ~w^k is canonical for j <= k; otherwise it is -~w^k ^ w^j.
    """
    sums = {}
    for j, row in enumerate(num):
        for k, (a, b) in enumerate(row):
            if a or b:
                sums[1 << 2 * j + 1 | 1 << 2 * k + 2] = (a, b) if j <= k else (-a, -b)
    return sums


def _cofactor_table(metric: Metric) -> tuple:
    """(table, denominator) of the contraction with -i (H^-1)_{ba}, H = -iX > 0.

    -i (H^-1)_{ba} = (X^-1)_{ba} = C_ab / det X is the factor of contracting
    w^a with ~w^b, C_ab the (a, b) cofactor of X.  det X = i^n det H is
    i^n delta/D^n for delta = |D^n det X| > 0 and each cofactor (c + ie)/D^{n-1},
    so it is D (-i)^n (c + ie) / delta.  The table holds at the rank of w^a a
    row with (re, im) or None at the rank of each ~w^b, over delta.
    """
    n, den, plan = metric.n, metric._den, metric._plan
    minor, minors = metric._minor, metric._minors
    re, im = minors.get(plan.tails[-1]) or minor(plan.tails[-1])
    table = [[None] * (2 * n + 1) if r & 1 else None for r in range(2 * n + 1)]
    for r, s, i, unit in plan.cofactors:
        c, e = minors.get(i) or minor(i)
        if c or e:
            c, e = ((c, e), (e, -c), (-c, -e), (-e, c))[unit]
            table[r][s] = den * c, den * e
    return table, (re, im, -re, -im)[n & 3]


def _contract(sums: dict, table: list) -> dict:
    """The bare adjoint of L on int sums {rank mask: (re, im)}, over _cofactor_table.

    -i sum_{a,b} (H^-1)_{ba} i(d/d~w_b) i(d/dw_a): for every monomial and
    every pair (w^a at position p, ~w^b at position q of the rest) it drops
    the pair with the factor -i (H^-1)_{ba} (-1)^{p+q}, looking up only its ranks.
    """
    out: Dict[int, list] = {}
    for mask, (x, y) in sums.items():
        if not (x or y):
            continue
        ranks = _ranks(mask)
        for p, r in enumerate(ranks):
            row = table[r]
            if row is None:
                continue
            for t, s in enumerate(ranks):
                uv = row[s]
                if uv is None:
                    continue
                u, v = uv
                # ~w^b sits at position t of mon, t - 1 of the rest once w^a is dropped
                if (p + t - (s > r)) & 1:
                    u, v = -u, -v
                re, im = x * u - y * v, x * v + y * u
                m = mask ^ (1 << r) ^ (1 << s)
                acc = out.get(m)
                if acc is None:
                    out[m] = [re, im]
                else:
                    acc[0] += re
                    acc[1] += im
    return out


def _lee(metric: Metric, d_sums: dict, dt: int) -> Form:
    """theta = Lambda(d Omega) from d Omega's int sums over D dt: the image
    contracted with the cofactor table of X.  theta is real iff each ~w^j
    sum is the conjugate of the w^j sum, over the one positive denominator."""
    table, table_den = _cofactor_table(metric)
    sums = _contract(d_sums, table)
    for j in range(metric.n):  # the masks of w^{j+1} (rank 2j + 1) and ~w^{j+1}
        (re, im), (x, y) = sums.get(2 << 2 * j, (0, 0)), sums.get(4 << 2 * j, (0, 0))
        ensure(x == re and y == -im, "Lee form must be real")
    return _form_of_sums(1, sums, metric._den * dt * table_den)


def lee_form(metric: Metric, se: StructureEquations) -> Form:
    """The Lee form theta = Lambda(d Omega), the trace of d Omega.

    d Omega = (d Omega)_0 + theta ^ Omega / (n-1) with (d Omega)_0 primitive,
    and [Lambda, L] = n - p on p-forms, so Lambda(d Omega) is the unique
    1-form theta with d(Omega^{n-1}) = theta ^ Omega^{n-1}.  Computed in
    ints (_lee); a metric that is not positive raises NotPositive.
    """
    metric.require_n(se.n)
    metric.require_positive()
    return _lee(metric, *_derive(_omega_sums(metric._num), (se._d_rank,)))


def _rank_pairing(h_inv: list, r: int, s: int) -> ComplexRational:
    """<e_r, e_s> of two generators: (H^-1)_{ba} for w^a, w^b, its
    conjugate (H^-1)_{ab} for ~w^a, ~w^b, and 0 for w against ~w."""
    if (r ^ s) & 1:
        return ZERO
    a, b = (r - 1) // 2, (s - 1) // 2
    return h_inv[b][a] if r & 1 else h_inv[a][b]


def _pairing(h_inv: list, f: Form, g: Form) -> ComplexRational:
    """<f, g> of two 2-forms: 2x2 Gram determinants of the 1-form pairing."""
    val = ZERO
    for (a, b), c in f.terms.items():
        for (p, q), e in g.terms.items():
            gram = (_rank_pairing(h_inv, a, p) * _rank_pairing(h_inv, b, q)
                    - _rank_pairing(h_inv, a, q) * _rank_pairing(h_inv, b, p))
            if gram:
                val = val + c * e.conjugate() * gram
    return val


def lee_form_via_codifferential(metric: Metric, se: StructureEquations) -> Form:
    """Cross-check: theta = J(d* Omega) with d* the metric adjoint of d.

    The sign of J on 1-forms varies across conventions; frozen here (once,
    against lee_form on a reduced-family example with nonzero Lee form) as
    (J alpha) = -alpha∘J, i.e. J w^j = -i w^j, with d* the adjoint in the
    inner product that H^-1 (H = -iX) induces on forms and no further
    constant.  d* Omega solves <d* Omega, e_r> = <Omega, d e_r> over the
    generators e_r.
    """
    metric.require_n(se.n)
    metric.require_positive()
    h_inv = linalg.mat_inverse(metric.minus_i_x())
    ranks = range(1, 2 * se.n + 1)
    omega = metric.fundamental_form()
    gram = [[_rank_pairing(h_inv, s, r) for s in ranks] for r in ranks]
    rhs = [_pairing(h_inv, omega, se.d(Form.gen(r))) for r in ranks]
    dstar = linalg.solve(gram, rhs)
    return Form(1, {(r,): c * (-I if r & 1 else I) for r, c in zip(ranks, dstar)})


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class ClassReport:
    """Full verdict for one (structure, metric) pair."""

    n: int
    kahler: bool
    skt: bool
    astheno: bool
    balanced: bool
    gauduchon: Dict[int, bool]
    gamma: Dict[int, Fraction]
    lee: Form
    label: str

    def to_json(self) -> dict:
        from .dsl import form_to_json  # local import to avoid a cycle

        return {
            "n": self.n,
            "kahler": self.kahler,
            "skt": self.skt,
            "astheno": self.astheno,
            "balanced": self.balanced,
            "gauduchon": {str(k): v for k, v in sorted(self.gauduchon.items())},
            "gamma": {str(k): str(v) for k, v in sorted(self.gamma.items())},
            "lee_form": form_to_json(self.lee),
            "label": self.label,
        }


def _derivatives(metric: Metric, se: StructureEquations) -> tuple:
    """(Omega, d Omega, ddbar Omega, P, dt) as int sums {rank mask: (re, im)}:
    Omega over D, d Omega over D dt from one pass through the d table, split
    into del Omega (two holomorphic ranks) and dbar Omega (one);
    ddbar Omega = del(dbar Omega) over D dt^2, P = del Omega ^ dbar Omega
    over D^2 dt^2, both without zero sums."""
    omega = _omega_sums(metric._num)
    d_sums, dt = _derive(omega, (se._d_rank,))
    holo = sum(1 << r for r in range(1, 2 * se.n, 2))
    dbar, dl = parts = ({}, {})  # one and two holomorphic ranks
    for m, (re, im) in d_sums.items():
        if re or im:
            parts[(m & holo).bit_count() - 1][m] = (re, im)
    ddbar = {m: v for m, v in _derive(dbar, (se._del_rank,))[0].items() if v[0] or v[1]}
    p = {m: v for m, v in _wedge_sums(dl, dbar).items() if v[0] or v[1]}
    return omega, d_sums, ddbar, p, dt


def _paired(sums: dict, metric: Metric, q: int) -> tuple:
    """(re, im) of the top coefficient of sums ^ Omega^q, in ints over the
    sums' denominator times D^q: each monomial meets q! det X_b (_complement)."""
    minor, minors, n = metric._minor, metric._minors, metric.n
    re = im = 0
    for mask, (x, y) in sums.items():
        b, sign = _complement(mask, n)
        u, v = minors.get(b) or minor(b)
        re += sign * (x * u - y * v)
        im += sign * (x * v + y * u)
    scale = factorial(max(q, 0))  # q < 0 only for sums of too high a degree, all empty
    return re * scale, im * scale


def _astheno_sums(omega: dict, ddbar: dict, p: dict, n: int) -> dict:
    """Omega^{n-4} ^ (Omega ^ ddbar Omega + (n-3) P) = ddbar(Omega^{n-2})/(n-2),
    n >= 4, in ints over D^{n-2} dt^2 (the sums of _derivatives)."""
    sums = _wedge_sums(omega, ddbar)
    for m, (re, im) in p.items():
        acc = sums.setdefault(m, [0, 0])
        acc[0] += (n - 3) * re
        acc[1] += (n - 3) * im
    for _ in range(n - 4):
        sums = _wedge_sums(sums, omega)
    return sums


def classify(metric: Metric, se: StructureEquations) -> ClassReport:
    """Exact zero tests for every metric class plus the gamma scalars.

    One-shot, every quantity from _derivatives, with no CompiledMaps.  The
    k-th Gauduchon top is the _leibniz sum of top_1 = A and top_2 = 2(A + B),
    A = coeff(ddbar Omega ^ Omega^{n-2}) and B = coeff(P ^ Omega^{n-3}) in
    ints over dt^2 D^{n-1}.  Balanced is theta = 0: d(Omega^{n-1}) =
    theta ^ Omega^{n-1} and L^{n-1} is injective on 1-forms.
    """
    metric.require_n(se.n)
    metric.require_positive()
    n = se.n
    omega, d_sums, ddbar, p, dt = _derivatives(metric, se)
    lee = _lee(metric, d_sums, dt)
    kahler = not any(re or im for re, im in d_sums.values())
    skt = not ddbar
    if n < 4:  # for n = 3 astheno's ddbar(Omega^{n-2}) is SKT's ddbar(Omega)
        astheno = n < 3 or skt
    else:
        astheno = not any(re or im for re, im in _astheno_sums(omega, ddbar, p, n).values())
    a, b = _paired(ddbar, metric, n - 2), _paired(p, metric, n - 3)
    top_p = {1: a, 2: (2 * (a[0] + b[0]), 2 * (a[1] + b[1]))}  # top_1 and top_2
    den = 2 * dt * dt * metric._den ** (n - 1)  # the numerator's, twice the tops'
    volume = factorial(n) * metric.det_minus_i_x()
    tops = {k: [sum(w * top_p[q][t] for q, w in _leibniz(k, n)) for t in (0, 1)]
            for k in range(1, n)}
    gauduchon = {k: not (re or im) for k, (re, im) in tops.items()}
    gamma = {k: Fraction(_turned(re, im, n), den) / volume for k, (re, im) in tops.items()}
    balanced = lee.is_zero
    names = [name for name, flag in (("skt", skt), ("balanced", balanced), ("astheno", astheno))
             if flag] + [f"gauduchon{k}" for k, flag in sorted(gauduchon.items()) if flag]
    label = "kahler" if kahler else "+".join(names) or "hermitian"
    return ClassReport(n, kahler, skt, astheno, balanced, gauduchon, gamma, lee, label)


# ---------------------------------------------------------------------------
# Lefschetz operators
# ---------------------------------------------------------------------------


def _binom_general(a: int, k: int) -> Fraction:
    """Binomial coefficient with integer (possibly negative) upper index."""
    if k < 0:
        return Fraction(0)
    return Fraction(prod(a - t for t in range(k)), factorial(k))


class Lefschetz:
    """The pair L (wedging with Omega) and L* (4x its metric adjoint).

    The adjoint is taken in the Hermitian inner product the metric induces
    on forms: with H = -iX, <w^a, w^b> = (H^-1)_{ba} on 1-forms, extended to
    monomials by Gram determinants.  It is the contraction with the metric
    dual of Omega and needs only -i H^-1 = X^-1, in the coframe the forms
    live in, which it reads off the cofactors of X.
    The factor 4 is the unique calibration for which the r <= s
    commutation identity
        L*^r L^s = L^s L*^r + sum_i 4^i (i!)^2 C(s,i) C(r,i) C(n-p-s+r,i)
                   L^{s-i} L*^{r-i}
    holds on p-forms with no stray constants.
    """

    def __init__(self, metric: Metric):
        metric.require_positive()
        self.metric = metric
        self.n = metric.n
        self.omega = metric.fundamental_form()
        self._lam, self._lam_den = _cofactor_table(metric)

    def L(self, f: Form) -> Form:
        return wedge(self.omega, f)

    def adjoint(self, f: Form) -> Form:
        """The bare adjoint of L (no calibration factor): the contraction
        kernel _contract over the metric's cofactor table.  It sends Omega to
        the constant n."""
        if f.is_zero or f.degree < 2:
            return Form.zero()
        df, terms = _to_ints(f.terms.items())
        sums = _contract({_mask(mon): (x, y) for mon, x, y in terms}, self._lam)
        return _form_of_sums(f.degree - 2, sums, df * self._lam_den)

    def Lstar(self, f: Form) -> Form:
        return self.adjoint(f).scale(cr(4))

    def L_power(self, f: Form, k: int) -> Form:
        for _ in range(k):
            f = self.L(f)
        return f

    def Lstar_power(self, f: Form, k: int) -> Form:
        for _ in range(k):
            f = self.Lstar(f)
        return f

    def commutation_residual(self, r: int, s: int, f: Form) -> Form:
        """L*^r L^s f minus its commuted expansion; exactly zero for r <= s."""
        if r > s:
            raise ValueError("identity requires r <= s")
        if f.is_zero:
            return Form.zero()
        p = f.degree
        n = self.n
        lhs = self.Lstar_power(self.L_power(f, s), r)
        rhs = self.L_power(self.Lstar_power(f, r), s)
        for i in range(1, r + 1):
            coef = (
                Fraction(4**i * factorial(i) ** 2)
                * _binom_general(s, i)
                * _binom_general(r, i)
                * _binom_general(n - p - s + r, i)
            )
            if coef:
                term = self.L_power(self.Lstar_power(f, r - i), s - i)
                rhs = rhs + term.scale(cr(coef))
        return lhs - rhs


def gauduchon_reduction_check(metric: Metric, se: StructureEquations) -> dict:
    """The L*-power reduction of the degree-lowered Gauduchon form.

    With psi = 2i ddbar(Omega) ^ Omega, verifies

        L*^n (2i ddbar Omega ^ Omega^{n-2})
            = 4^n (n!/3!) (n-3)! adj^3(psi)
            = 4^{n-3} (n!/3!) (n-3)! L*^3(psi),

    where adj = L*/4 is the uncalibrated adjoint; the two right-hand sides
    are the same number written in the two normalizations.  Returns the
    computed scalars and the exact residual.
    """
    metric.require_n(se.n)
    n = se.n
    if n < 3:
        raise BadK("reduction needs n >= 3")
    lef = Lefschetz(metric)
    omega = metric.fundamental_form()
    chi = se.ddbar(omega).scale(cr(2) * I)
    psi = lef.L(chi)
    lhs_form = lef.Lstar_power(wedge(chi, omega_power(omega, n - 2)), n)
    rhs_form = lef.Lstar_power(psi, 3)
    fact = factorial(n) // 6 * factorial(n - 3)  # (n!/3!) (n-3)!
    constant = Fraction(4 ** (n - 3)) * fact
    lhs = lhs_form.terms.get((), ZERO)
    rhs = rhs_form.terms.get((), ZERO)
    residual = lhs - cr(constant) * rhs
    return {
        "lhs": lhs,
        "lstar3": rhs,
        "constant_calibrated": constant,
        "constant_display": Fraction(4**n) * fact,
        "residual": residual,
    }
