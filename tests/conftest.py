import importlib.util
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import settings

from gauduchon import linalg
from gauduchon.forms import Form, conj_rank, holo_rank, substitute, wedge
from gauduchon.hermitian import top_coefficient
from gauduchon.scalars import I, ZERO, ComplexRational, cr


# the CI's tier-1 steps run pytest --hypothesis-profile=ci, which prints the
# @reproduce_failure line that replays a failing example; the default profile
# stays as it is
settings.register_profile("ci", print_blob=True)


# the golden CLI corpus's script (tests/golden/regen.py), loaded as a module
_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_coeff(rng, span=4):
    return ComplexRational(
        Fraction(rng.randint(-span, span), rng.choice((1, 2))),
        Fraction(rng.randint(-span, span), rng.choice((1, 2))),
    )


def rand_form(rng, n, degree, terms=2):
    out = Form.zero()
    ranks = list(range(1, 2 * n + 1))
    for _ in range(terms):
        out = out + Form.monomial(rng.sample(ranks, degree), rand_coeff(rng))
    return out


def _coframe_table(rows):
    """Rank -> 1-form for w^a = sum_j rows[a][j] w'^j and its conjugate."""
    table = {}
    for a, row in enumerate(rows):
        terms = {(holo_rank(j + 1),): c for j, c in enumerate(row) if c}
        table[holo_rank(a + 1)] = Form(1, terms)
        table[conj_rank(a + 1)] = Form(
            1, {(mon[0] + 1,): c.conjugate() for mon, c in terms.items()}
        )
    return table


class UnitaryFrame:
    """The LDL* unitary coframe of a metric, the reference for L* and d*.

    With -iX = L D L*, the coframe tau' = L^T w has
    Omega = i sum_j d_j tau'^j ^ ~tau'^j, and its monomials are orthogonal
    with weights prod 1/d_j in the metric's inner product on forms.
    """

    def __init__(self, metric):
        n = metric.n
        lower, self.diag = linalg.ldl(metric.minus_i_x())
        lt = [[lower[j][i] for j in range(n)] for i in range(n)]  # L^T
        self._w_to_u = _coframe_table(linalg.mat_inverse(lt))
        self._u_to_w = _coframe_table(lt)
        self.omega = Form(2, {(holo_rank(j + 1), conj_rank(j + 1)): I * cr(d)
                              for j, d in enumerate(self.diag)})
        assert self.to_unitary(metric.fundamental_form()) == self.omega

    def to_unitary(self, f):
        return substitute(f, self._w_to_u)

    def from_unitary(self, f):
        return substitute(f, self._u_to_w)

    def weight(self, mon):
        w = Fraction(1)
        for r in mon:
            w /= self.diag[(r - 1) // 2]
        return cr(w)

    def inner_unitary(self, a, b):
        """<a, b> of two forms already written in the unitary coframe."""
        val = ZERO
        for mon, c in a.terms.items():
            cc = b.terms.get(mon)
            if cc is not None:
                val = val + c * cc.conjugate() * self.weight(mon)
        return val

    def inner(self, a, b):
        """<a, b> of two forms in the structure's own coframe."""
        return self.inner_unitary(self.to_unitary(a), self.to_unitary(b))


class GauduchonForms:
    """Omega powers, ddbar(Omega^k) and the k-th Gauduchon forms of one metric,
    wedged out in the exterior engine: the reference for the compiled maps.

    Each power, ddbar(Omega^k) and form is built once, on first use; for
    k = n-1 the form is ddbar(Omega^{n-1}) itself.
    """

    def __init__(self, metric, se):
        assert metric.n == se.n
        self.metric = metric
        self.se = se
        self.n = se.n
        self._powers = [Form.scalar(1), metric.fundamental_form()]
        self._ddbar = {}
        self._forms = {}

    def power(self, j):
        while len(self._powers) <= j:
            self._powers.append(wedge(self._powers[-1], self._powers[1]))
        return self._powers[j]

    def ddbar(self, k):
        if k not in self._ddbar:
            self._ddbar[k] = self.se.ddbar(self.power(k))
        return self._ddbar[k]

    def form(self, k):
        """The (n,n)-form ddbar(Omega^k) ^ Omega^{n-k-1}."""
        n = self.n
        assert 1 <= k <= n - 1
        if k not in self._forms:
            dd = self.ddbar(k)
            self._forms[k] = dd if k == n - 1 else wedge(dd, self.power(n - k - 1))
        return self._forms[k]

    def top(self, k):
        return top_coefficient(self.form(k), self.n)

    def numerator(self, k):
        """The real scalar (i/2) (-i)^n coeff(ddbar Omega^k ^ Omega^{n-k-1})."""
        return ((I / cr(2)) * (-I) ** self.n * self.top(k)).real_part()

    def gamma(self, k):
        """numerator / (n! det(-iX))."""
        return self.numerator(k) / (factorial(self.n) * self.metric.det_minus_i_x())
