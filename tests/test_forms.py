import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauduchon import catalog
from gauduchon.errors import BadParams
from gauduchon.forms import Form, sort_ranks, wedge
from gauduchon.hermitian import metric_from_form
from gauduchon.sasakian import _skew
from gauduchon.scalars import ComplexRational, cr
from gauduchon.structures import StructureEquations

from conftest import rand_form


def CR(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coeffs = st.builds(ComplexRational, rationals, rationals)


@st.composite
def forms(draw, n=3, max_degree=None, degree=None):
    if degree is None:
        degree = draw(st.integers(0, max_degree if max_degree is not None else 2 * n))
    ranks = list(range(1, 2 * n + 1))
    out = Form.zero()
    for _ in range(draw(st.integers(0, 3))):
        mon = draw(st.permutations(ranks))[:degree]
        out = out + Form.monomial(mon, draw(coeffs))
    return out


class TestMonomials:
    def test_merge_counts_crossings(self):
        def merge(a, b):  # the wedge of two unit monomials
            return wedge(Form(len(a), {a: cr(1)}), Form(len(b), {b: cr(1)}))

        assert merge((1,), (2,)) == Form(2, {(1, 2): cr(1)})
        assert merge((2,), (1,)) == Form(2, {(1, 2): cr(-1)})
        assert merge((1, 3), (2, 4)) == Form(4, {(1, 2, 3, 4): cr(-1)})
        assert merge((1, 2), (2,)).is_zero

    def test_sort_sign(self):
        assert sort_ranks((1, 4, 2, 3)) == (1, (1, 2, 3, 4))
        assert sort_ranks((2, 1)) == (-1, (1, 2))
        assert sort_ranks((1, 1)) is None


class TestWedge:
    def test_canonical_order(self):
        assert wedge(Form.gen(1), Form.gen(2)) == Form(2, {(1, 2): cr(1)})

    def test_antisymmetry(self):
        assert wedge(Form.gen(2), Form.gen(1)) == Form(2, {(1, 2): cr(-1)})

    def test_cross_terms_double(self):
        f = Form(2, {(1, 2): cr(1), (3, 4): cr(1)})
        assert wedge(f, f) == Form(4, {(1, 2, 3, 4): cr(2)})

    @settings(max_examples=60, deadline=None)
    @given(forms(degree=1), forms(degree=2), forms(degree=1))
    def test_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @settings(max_examples=60, deadline=None)
    @given(forms(), forms())
    def test_graded_commutative(self, a, b):
        da, db = a.degree or 0, b.degree or 0
        assert wedge(a, b) == wedge(b, a).scale(cr((-1) ** (da * db)))

    @settings(max_examples=40, deadline=None)
    @given(forms(degree=2), forms(degree=2), forms(degree=1))
    def test_bilinear(self, a, b, c):
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


class TestFormStructure:
    def test_zero_coefficients_dropped(self):
        f = Form(2, {(1, 2): cr(0), (1, 3): cr(1)})
        assert (1, 2) not in f.terms
        assert f.degree == 2

    @pytest.mark.parametrize("degree, terms", [
        (2, {(1, 2): cr(1), (1,): cr(1)}),
        (3, {(1, 2): cr(1)}),
        (0, {(1,): cr(1)}),
        (None, {(1, 2): cr(1)}),
    ], ids=["mixed-lengths", "short-key", "scalar-with-a-rank", "no-degree"])
    def test_keys_must_have_degree_ranks(self, degree, terms):
        with pytest.raises(BadParams, match=f"^a {degree}-form cannot have the key "):
            Form(degree, terms)

    @pytest.mark.parametrize("build, key", [
        (lambda: Form(2, {(2, 1): cr(1)}), "(2, 1)"),
        (lambda: Form(2, {(1, 1): cr(1)}), "(1, 1)"),
        (lambda: Form.gen(0), "(0,)"),
        (lambda: Form(2, {(7, 1): cr(1)}), "(7, 1)"),
        (lambda: catalog.iwasawa().d(Form(1, {(0,): cr(1)})), "(0,)"),
        (lambda: _skew(Form(2, {(2, 1): cr(1)}), 3), "(2, 1)"),
        (lambda: metric_from_form(Form(2, {(2, 1): cr(1)}), 2), "(2, 1)"),
    ], ids=["descending", "repeated", "gen-rank-0", "descending-past-the-frame",
            "d-of-rank-0", "skew-of-descending", "metric-of-descending"])
    def test_keys_must_be_canonical(self, build, key):
        """A key whose ranks do not start at 1 or more and strictly ascend
        is bad input wherever the Form is built."""
        with pytest.raises(BadParams, match=rf"-form cannot have the key {re.escape(key)}$"):
            build()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-1, 7), max_size=4).map(tuple), coeffs.filter(bool))
    def test_key_rule(self, key, c):
        canonical = all(r >= 1 for r in key) and key == tuple(sorted(set(key)))
        try:
            f = Form(len(key), {key: c})
        except BadParams:
            assert not canonical
        else:
            assert canonical and f == Form.monomial(key, c)

    @settings(max_examples=100, deadline=None)
    @given(*[st.sets(st.integers(1, 7), max_size=4).map(sorted).map(tuple)] * 2)
    def test_wedge_of_monomials_sorts_with_the_permutation_sign(self, a, b):
        assert wedge(Form.monomial(a), Form.monomial(b)) == Form.monomial(a + b)

    def test_addition_requires_matching_degree(self):
        with pytest.raises(ValueError):
            Form.gen(1) + Form(2, {(1, 2): cr(1)})
        assert (Form.zero() + Form.gen(1)) == Form.gen(1)

    def test_bidegree_split(self):
        f = Form(2, {(1, 3): cr(1), (1, 2): cr(1)})  # w1^w2 + w1^~w1
        parts = f.bidegree_parts()
        assert set(parts) == {(2, 0), (1, 1)}
        assert parts[(2, 0)] == Form(2, {(1, 3): cr(1)})
        assert parts[(1, 1)] == Form(2, {(1, 2): cr(1)})
        assert parts[(2, 0)] + parts[(1, 1)] == f

    @settings(max_examples=50, deadline=None)
    @given(forms())
    def test_conjugate_involution(self, f):
        assert f.conjugate().conjugate() == f

    def test_conjugate_fixes_real_11(self):
        omega = Form(2, {(1, 2): CR(0, 1), (3, 4): CR(0, 1)})
        assert omega.conjugate() == omega

    @settings(max_examples=50, deadline=None)
    @given(forms(), forms())
    def test_conjugate_distributes_over_wedge(self, a, b):
        if (a.degree or 0) + (b.degree or 0) <= 6:
            assert wedge(a, b).conjugate() == wedge(a.conjugate(), b.conjugate())

    def test_repr_round_trips_through_dsl_tokens(self):
        f = Form(2, {(1, 4): CR(Fraction(1, 2), Fraction(1, 4))})
        assert repr(f) == "(1/2+1/4i)*w1^~w2"


class TestCoefficientsEnterThroughCr:
    """Form coerces every coefficient with cr when it is built, so ints,
    Fractions and rational strings work everywhere and a float fails at once."""

    @pytest.mark.parametrize("c", [2, Fraction(1, 2), "1/2", "-0.5"],
                             ids=["int", "fraction", "string", "decimal"])
    def test_exact_coefficients_flow_through(self, c):
        z = cr(c)
        assert Form(2, {(1, 3): c}) == Form(2, {(1, 3): z})
        assert Form.gen(1, c) == Form(1, {(1,): z})
        assert Form.scalar(c) == Form(0, {(): z})
        assert Form.monomial((3, 1), c) == Form(2, {(1, 3): -z})
        assert repr(Form(2, {(1, 3): c})) == f"({z})*w1^w2"
        assert wedge(Form.gen(1, c), Form.gen(3)) == Form(2, {(1, 3): z})
        assert wedge(Form.scalar(c), Form.gen(2, c)) == Form(1, {(2,): z * z})
        se = StructureEquations(2, [Form.zero(), Form(2, {(1, 2): c})])
        assert se.d_of[1] == Form(2, {(1, 2): z})
        assert se.d(Form.gen(3, c)) == Form(2, {(1, 2): z * z})

    def test_zero_coefficients_are_dropped_after_coercion(self):
        assert Form(2, {(1, 2): 0, (1, 3): "0/5"}).is_zero
        assert Form.scalar(Fraction(0)) == Form.zero()

    @pytest.mark.parametrize("build", [
        lambda: Form(2, {(1, 2): 0.5}),
        lambda: Form.gen(1, 2.0),
        lambda: Form.scalar(0.5),
        lambda: Form.monomial((2, 1), 0.5),
    ], ids=["init", "gen", "scalar", "monomial"])
    def test_float_coefficient_raises_when_built(self, build):
        with pytest.raises(TypeError):
            build()


class TestRandomizedAxioms:
    def test_scale_distributes(self, rng):
        for _ in range(50):
            f = rand_form(rng, 3, 2)
            g = rand_form(rng, 3, 2)
            c = cr(Fraction(rng.randint(-5, 5), 2))
            assert (f + g).scale(c) == f.scale(c) + g.scale(c)
