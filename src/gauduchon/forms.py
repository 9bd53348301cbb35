"""Graded exterior algebra over a finite totally ordered coframe.

A monomial is a strictly increasing tuple of generator ranks (1-based).  The
Form constructor alone enforces this key rule, raising BadParams on any other
key; Form.monomial is the constructor that sorts, with the permutation sign.
For a complex coframe in n complex dimensions there are 2n ranks in the
interleaved order w1 < ~w1 < w2 < ~w2 < ...: the holomorphic generator wj
gets rank 2j-1, its conjugate ~wj rank 2j.  This single global order fixes
every monomial sign in the package.  Bidegree and conjugation read the
holomorphic/antiholomorphic split off rank parity, so a Form is otherwise
frame-agnostic: forms over a real coframe e1..em use ranks 1..m and simply
never call the complex-specific methods.  Coefficients are ComplexRational.

The products are Gaussian-integer kernels.  wedge (and, in structures and
hermitian, the derivations and the Lefschetz contraction) scales each input
to (re, im) int numerators over one shared denominator (scalars._to_ints),
accumulates the products as plain ints (_wedge_sums, also run by hermitian)
and reduces each output coefficient once (scalars._make).  In a kernel a
monomial is a rank bitmask: two monomials meet iff their masks share a
bit, and the shuffle sign of a merge is the parity of the second mask's
bits under the first one's parity mask (_parity_mask).  Form keys stay tuples.
"""

from __future__ import annotations

from operator import lt
from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import BadParams
from .scalars import ONE, _make, _to_ints, cr, format_complex

Monomial = Tuple[int, ...]

_new = object.__new__
# rank bitmask -> monomial (_ranks): at most 2^(2n) entries in n complex dimensions
_RANKS: Dict[int, Monomial] = {}


def _mask(mon: Monomial) -> int:
    """The rank bitmask of a monomial: bit r set for every rank r."""
    mask = 0
    for r in mon:
        mask |= 1 << r
    return mask


def _parity_mask(mon: Monomial) -> int:
    """Bit j set iff an odd number of the monomial's ranks exceed j.

    Merging mon with a disjoint monomial of mask b moves every rank of b
    past the ranks of mon above it, so the merge sign is
    (-1)^popcount(_parity_mask(mon) & b).
    """
    parity = 0
    for r in mon:
        parity ^= (1 << r) - 1
    return parity


def _ranks(mask: int) -> Monomial:
    """The monomial of a rank bitmask, ranks ascending, memoised in _RANKS."""
    mon = _RANKS.get(mask)
    if mon is None:
        mon = _RANKS[mask] = tuple(r for r in range(mask.bit_length()) if mask >> r & 1)
    return mon


def _form_of_sums(degree: Optional[int], sums: dict, d: int) -> "Form":
    """The form sum (re + i im)/d over {mask: [re, im]}, zero sums dropped."""
    ranks = _RANKS
    terms = {}
    for m, (re, im) in sums.items():
        if re or im:
            terms[ranks.get(m) or _ranks(m)] = _make(re, im, d)
    f = _new(Form)
    f.degree = degree if terms else None
    f.terms = terms
    return f


def sort_ranks(seq: Iterable[int]) -> Optional[Tuple[int, Monomial]]:
    """Sort ranks into canonical order, tracking the permutation sign."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None
    return sign, tuple(items)


def conjugate_rank(rank: int) -> int:
    """Partner rank under conjugation: 2j-1 <-> 2j."""
    return rank + 1 if rank & 1 else rank - 1


def rank_token(rank: int) -> str:
    """DSL token of a complex-frame rank: 'w3' or '~w3'."""
    if rank & 1:
        return f"w{(rank + 1) // 2}"
    return f"~w{rank // 2}"


def holo_rank(j: int) -> int:
    return 2 * j - 1


def conj_rank(j: int) -> int:
    return 2 * j


class Form:
    """An exterior form of one total degree with exact coefficients.

    The zero form has degree None.  Terms map canonical monomials of degree
    ranks to nonzero coefficients (any other key raises BadParams, while
    Form.monomial sorts); instances are immutable by convention.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: Optional[int], terms: Dict[Monomial, object]):
        # cr reads ints, Fractions and rational strings; a float raises TypeError
        terms = {m: z for m, c in terms.items() if (z := cr(c))}
        if not terms:
            degree = None
        for m in terms:  # degree ranks, each above the one before it and the first above 0
            if len(m) != degree or not all(map(lt, (0,) + m, m)):
                raise BadParams(f"a {degree}-form cannot have the key {m}")
        self.degree = degree
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Form":
        return Form(None, {})

    @staticmethod
    def scalar(c) -> "Form":
        return Form(0, {(): c})

    @staticmethod
    def gen(rank: int, coeff=None) -> "Form":
        return Form(1, {(rank,): ONE if coeff is None else coeff})

    @staticmethod
    def monomial(ranks: Iterable[int], coeff=None) -> "Form":
        c = ONE if coeff is None else cr(coeff)
        sorted_ = sort_ranks(ranks)
        if sorted_ is None or not c:
            return Form.zero()
        sign, mon = sorted_
        return Form(len(mon), {mon: -c if sign < 0 else c})

    # -- basic predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- linear structure ----------------------------------------------------

    def _check_degree(self, other: "Form") -> Optional[int]:
        if self.is_zero:
            return other.degree
        if other.is_zero:
            return self.degree
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return self.degree

    def __add__(self, other: "Form") -> "Form":
        degree = self._check_degree(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return Form(degree, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Form":
        if not c:
            return Form.zero()
        return Form(self.degree, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, c) -> "Form":
        return self.scale(c)

    __rmul__ = __mul__

    def map_coefficients(self, fn: Callable) -> "Form":
        return Form(self.degree, {m: fn(c) for m, c in self.terms.items()})

    # -- complex-frame operations --------------------------------------------

    def conjugate(self) -> "Form":
        # conjugate_rank is an involution, so distinct keys stay distinct
        out: Dict[Monomial, object] = {}
        for mon, c in self.terms.items():
            sign, mm = sort_ranks(conjugate_rank(r) for r in mon)
            out[mm] = c.conjugate() if sign > 0 else -c.conjugate()
        return Form(self.degree, out)

    @staticmethod
    def monomial_bidegree(mon: Monomial) -> Tuple[int, int]:
        p = sum(1 for r in mon if r & 1)
        return p, len(mon) - p

    def bidegree_parts(self) -> Dict[Tuple[int, int], "Form"]:
        """Split into pure-(p,q) components; they sum back to the form."""
        buckets: Dict[Tuple[int, int], Dict[Monomial, object]] = {}
        for mon, c in self.terms.items():
            buckets.setdefault(self.monomial_bidegree(mon), {})[mon] = c
        return {pq: Form(self.degree, t) for pq, t in buckets.items()}

    def component(self, p: int, q: int) -> "Form":
        terms = {
            m: c for m, c in self.terms.items() if self.monomial_bidegree(m) == (p, q)
        }
        return Form(p + q if terms else None, terms)

    def max_rank(self) -> int:
        return max((m[-1] for m in self.terms if m), default=0)

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return format_form(self)


def _wedge_sums(left: dict, right: dict) -> dict:
    """The wedge kernel on int sums {rank mask: (re, im)}: the product as
    {mask: [re, im]}, over the product of the two sums' denominators."""
    right = [(mb, u, v) for mb, (u, v) in right.items() if u or v]
    sums: Dict[int, list] = {}
    for ma, (x, y) in left.items():
        if not (x or y):
            continue
        pa = _parity_mask(_RANKS.get(ma) or _ranks(ma))
        for mb, u, v in right:
            if ma & mb:
                continue
            if (pa & mb).bit_count() & 1:
                u, v = -u, -v
            re, im = x * u - y * v, x * v + y * u
            m = ma | mb
            acc = sums.get(m)
            if acc is None:
                sums[m] = [re, im]
            else:
                acc[0] += re
                acc[1] += im
    return sums


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear, associative, graded-commutative."""
    if a.is_zero or b.is_zero:
        return Form.zero()
    da, left = _to_ints(a.terms.items())
    db, right = _to_ints(b.terms.items())
    sums = _wedge_sums({_mask(mon): (x, y) for mon, x, y in left},
                       {_mask(mon): (u, v) for mon, u, v in right})
    return _form_of_sums(a.degree + b.degree, sums, da * db)


def substitute(f: Form, table: Dict[int, Form]) -> Form:
    """Replace every generator rank by the 1-form table[rank] and expand."""
    terms: Dict[Monomial, object] = {}
    for mon, c in f.terms.items():
        prod = Form.scalar(1)
        for r in mon:
            prod = wedge(prod, table[r])
            if prod.is_zero:
                break
        for m, v in prod.terms.items():
            v = v * c
            acc = terms.get(m)
            terms[m] = v if acc is None else acc + v
    return Form(f.degree, terms)


def format_form(f: Form, token: Callable = rank_token) -> str:
    """Render a form as DSL-compatible text: 'w1^w2 + (1/2+1/4i)*w2^~w2'."""
    if f.is_zero:
        return "0"
    parts = []
    for mon in sorted(f.terms):
        c = f.terms[mon]
        body = "^".join(token(r) for r in mon) if mon else "1"
        if mon and c == 1:
            parts.append(body)
        elif not mon:
            parts.append(f"({format_complex(c)})")
        else:
            parts.append(f"({format_complex(c)})*{body}")
    return " + ".join(parts)


def format_real_form(f: Form) -> str:
    """Render a form over a real coframe with e-tokens: '(2)*e1^e4'."""
    return format_form(f, token=lambda r: f"e{r}")
