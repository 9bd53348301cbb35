"""Each collapsed computation path against the slower definition it replaced.

partial/dbar are single derivations over per-structure tables, classify
computes every Gauduchon quantity in one pass, the search screens samples
with the targets' exact predicates, L* and d* are contractions with
(-iX)^-1 in the structure's own coframe, the Lee form is the contraction
Lambda(d Omega) and det(-iX) is the product of the LDL* pivots; the
references here are the direct definitions, written out in the tests, with
the adjoints taken in the LDL* unitary coframe, whose monomials are
orthogonal, the Lee form solved from theta ^ Omega^{n-1} = d(Omega^{n-1})
and the determinant taken by elimination.  The Sasakian product formulas
and the LDL* pivots are plain-int arithmetic; their references are the
Fraction formulas and the Fraction-pivot LDL* they replaced.
"""

import dataclasses
import importlib.util
import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gauduchon import catalog, dsl, forms, hermitian, linalg, sasakian, search, structures
from gauduchon.errors import BadParams, NotPositive, ensure
from gauduchon.forms import Form, wedge
from gauduchon.hermitian import (
    CompiledMaps,
    balanced_defect,
    classify,
    gamma_numerator,
    gamma_scalar,
    gauduchon_form,
    lee_form,
    omega_power,
)
from gauduchon.scalars import I, ONE, ZERO, ComplexRational, cr
from gauduchon.search import Target, find_metric, sample_positive_metric
from gauduchon.structures import StructureEquations
from gauduchon.verify import _standard_entries

from conftest import GauduchonForms, UnitaryFrame, rand_form

BENCH = Path(__file__).resolve().parent.parent / "bench"


def every_entry():
    """One structure per catalog family, plus a circle-bundle extension."""
    entries = list(_standard_entries())
    entries.append(("solvable5-bundle",
                    sasakian.bundle_extend(catalog.solvable5_contact()).structure))
    return entries


def split_by_bidegree(se, f, dp, dq):
    """The definition of partial (dp=1) and dbar (dq=1) through the full d."""
    out = Form.zero()
    for (p, q), part in f.bidegree_parts().items():
        out = out + se.d(part).component(p + dp, q + dq)
    return out


class TestSplitDifferentials:
    @pytest.mark.parametrize("name, se", every_entry())
    def test_partial_and_dbar_match_the_split_of_d(self, name, se, rng):
        for _ in range(25):
            f = rand_form(rng, se.n, rng.randint(0, 2 * se.n - 1), terms=4)
            assert se.partial(f) == split_by_bidegree(se, f, 1, 0), name
            assert se.dbar(f) == split_by_bidegree(se, f, 0, 1), name
            assert se.ddbar(f) == split_by_bidegree(
                se, split_by_bidegree(se, f, 0, 1), 1, 0
            ), name


CLASSIFY_ENTRIES = [
    ("jt(1/2)", catalog.jt(Fraction(1, 2))),
    ("nonnilpotent6(1,-)", catalog.nonnilpotent6(1, -1)),
    ("iwasawa", catalog.iwasawa()),
    ("abelian(3)", catalog.abelian(3)),
    ("family8(1,2)", catalog.family8(1, 2)),
    ("family8(0,0)", catalog.family8(0, 0)),
    ("abelian(4)", catalog.abelian(4)),
]


class TestClassifyOnePass:
    @pytest.mark.parametrize("name, se", CLASSIFY_ENTRIES)
    def test_matches_the_single_quantity_functions(self, name, se):
        rng = random.Random(name)
        n = se.n
        metrics = [hermitian.Metric.diagonal(n)]
        metrics += [sample_positive_metric(rng, n) for _ in range(3)]
        for metric in metrics:
            report = classify(metric, se)
            omega = metric.fundamental_form()
            assert report.kahler == se.d(omega).is_zero
            assert report.skt == se.ddbar(omega).is_zero
            assert report.astheno == se.ddbar(omega_power(omega, n - 2)).is_zero
            assert report.balanced == se.d(omega_power(omega, n - 1)).is_zero
            for k in range(1, n):
                assert report.gauduchon[k] == gauduchon_form(metric, k, se).is_zero
                assert report.gamma[k] == gamma_scalar(metric, k, se)
            assert report.lee == lee_form(metric, se)

    def test_gauduchon_form_is_the_wedge_of_powers(self, rng):
        for se in (catalog.jt(Fraction(1, 3)), catalog.family8(-1, 2)):
            n = se.n
            metric = sample_positive_metric(rng, n)
            omega = metric.fundamental_form()
            for k in range(1, n):
                ref = wedge(se.ddbar(omega_power(omega, k)), omega_power(omega, n - k - 1))
                assert gauduchon_form(metric, k, se) == ref


def non_unimodular3():
    """dw1 = w1^w3: not unimodular, so gamma_{n-1} need not vanish."""
    return StructureEquations(3, [Form(2, {(1, 5): ComplexRational(1)}), Form.zero(), Form.zero()])


SCREEN_ENTRIES = [
    ("jt(1/2)", catalog.jt(Fraction(1, 2))),
    ("nonnilpotent6(0,+)", catalog.nonnilpotent6(0, 1)),
    ("non-unimodular", non_unimodular3()),
    ("family8(1,2)", catalog.family8(1, 2)),
    ("family8(-1,0)", catalog.family8(-1, 0)),
    ("abelian(3)", catalog.abelian(3)),
]


def every_target(n):
    for k in range(1, n):
        yield from (Target("gamma_negative", k), Target("gamma_positive", k),
                    Target("gauduchon_zero", k))
    yield from (Target("skt"), Target("balanced"))


def target_by_definition(se, target, metric):
    """The target's defining condition, through the public functions."""
    omega = metric.fundamental_form()
    if target.kind == "gamma_negative":
        return gamma_scalar(metric, target.k, se) < 0
    if target.kind == "gamma_positive":
        return gamma_scalar(metric, target.k, se) > 0
    if target.kind == "gauduchon_zero":
        return gauduchon_form(metric, target.k, se).is_zero
    if target.kind == "skt":
        return se.ddbar(omega).is_zero
    return se.d(omega_power(omega, se.n - 1)).is_zero


class TestExactScreen:
    @pytest.mark.parametrize("name, se", SCREEN_ENTRIES)
    def test_holds_agrees_with_verify_for_every_target(self, name, se):
        rng = random.Random(name)
        metrics = [hermitian.Metric.diagonal(se.n)]
        metrics += [sample_positive_metric(rng, se.n) for _ in range(3)]
        for metric in metrics:
            for target in every_target(se.n):
                expected = target_by_definition(se, target, metric)
                assert search._holds(se, target, metric) == expected, (name, target)
                assert search._verify(se, target, metric) == expected, (name, target)

    def test_verify_rejects_a_metric_that_is_not_positive(self):
        se = catalog.jt(1)
        metric = hermitian.Metric.diagonal(3, [1, -1, 1])
        assert search._holds(se, Target("gauduchon_zero", 2), metric)
        assert not search._verify(se, Target("gauduchon_zero", 2), metric)

    def test_top_index_is_exercised_off_zero(self):
        se = non_unimodular3()
        metric = sample_positive_metric(random.Random(5), 3)
        assert gamma_numerator(metric, 2, se) != 0

    def test_search_runs_without_coefficient_maps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must stay in exact arithmetic")

        monkeypatch.setattr(Form, "map_coefficients", refuse)
        monkeypatch.setattr(StructureEquations, "map_coefficients", refuse)
        se = catalog.family8(1, 0)
        for kind in ("gamma_negative", "gamma_positive"):
            out = find_metric(se, Target(kind, 1), budget=400, seed=9)
            assert out.status == "witness", kind
        for se, target in ((catalog.iwasawa(), "skt"), (catalog.jt(1), "balanced")):
            out = find_metric(se, Target(target), budget=20, seed=2)
            assert out.status == "exhausted", target


def adjoint_by_sweep(frame, f):
    """The adjoint of L from its definition: <A f, m> = <f, L m> for every monomial m."""
    if f.is_zero or f.degree < 2:
        return Form.zero()
    g = frame.to_unitary(f)
    deg = f.degree - 2
    out = {}
    for mon in itertools.combinations(range(1, 2 * len(frame.diag) + 1), deg):
        val = frame.inner_unitary(g, wedge(frame.omega, Form(deg, {mon: ONE})))
        if val:
            out[mon] = val / frame.weight(mon)
    return frame.from_unitary(Form(deg, out))


def codifferential_in_unitary_frame(metric, se):
    """J(d* Omega) with d* read off orthogonal unitary monomials, one generator at a time."""
    frame = UnitaryFrame(metric)
    omega_u = frame.to_unitary(metric.fundamental_form())
    dstar = {}
    for r in range(1, 2 * se.n + 1):
        dm_u = frame.to_unitary(se.d(frame.from_unitary(Form.gen(r))))
        val = frame.inner_unitary(omega_u, dm_u)
        if val:
            dstar[(r,)] = val / frame.weight((r,))
    dstar = frame.from_unitary(Form(1, dstar))
    return Form(1, {mon: c * (-I if mon[0] & 1 else I) for mon, c in dstar.terms.items()})


class TestLefschetzContraction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_matches_the_sweep(self, n):
        rng = random.Random(n)
        metric = sample_positive_metric(rng, n)
        lef = hermitian.Lefschetz(metric)
        frame = UnitaryFrame(metric)
        forms_seen = [lef.omega, wedge(lef.omega, lef.omega)]
        for degree in range(2 * n + 1):
            forms_seen += [rand_form(rng, n, degree, terms=3) for _ in range(6)]
        for f in forms_seen:
            assert lef.adjoint(f) == adjoint_by_sweep(frame, f), f

    @pytest.mark.parametrize("name, se", list(_standard_entries()))
    def test_codifferential_matches_the_unitary_frame(self, name, se):
        rng = random.Random(name)
        for _ in range(3):
            metric = sample_positive_metric(rng, se.n)
            assert hermitian.lee_form_via_codifferential(metric, se) == (
                codifferential_in_unitary_frame(metric, se)
            ), name


def lee_by_linear_system(metric, se):
    """theta with theta ^ Omega^{n-1} = d(Omega^{n-1}): one exact 2n x 2n solve."""
    n = se.n
    top = omega_power(metric.fundamental_form(), n - 1)
    d_top = se.d(top)
    ranks = range(1, 2 * n + 1)
    holes = [tuple(r for r in ranks if r != hole) for hole in ranks]  # the (2n-1)-monomials
    images = [wedge(Form.gen(r), top) for r in ranks]
    matrix = [[image.terms.get(mon, ZERO) for image in images] for mon in holes]
    rhs = [d_top.terms.get(mon, ZERO) for mon in holes]
    return Form(1, {(r,): c for r, c in zip(ranks, linalg.solve(matrix, rhs))})


def lee_entries():
    """Every standard entry, low and high n, non-unimodular algebras and bundles."""
    entries = list(_standard_entries())
    entries += [("abelian(1)", catalog.abelian(1)), ("abelian(2)", catalog.abelian(2))]
    entries.append(("non-unimodular3", non_unimodular3()))
    entries.append(("non-unimodular1",
                    StructureEquations(1, [Form(2, {(1, 2): ComplexRational(Fraction(1, 2))})])))
    for name, contact in (("solvable5", catalog.solvable5_contact()),
                          ("heisenberg5", catalog.heisenberg5_contact())):
        entries.append((f"{name}-bundle", sasakian.bundle_extend(contact).structure))
    entries.append(("bench/n5.dsl", dsl.parse_structure((BENCH / "n5.dsl").read_text())))
    return entries


class TestLeeContraction:
    @pytest.mark.parametrize("name, se", lee_entries())
    def test_contraction_matches_the_linear_system(self, name, se):
        rng = random.Random(name)
        metrics = [hermitian.Metric.diagonal(se.n)]
        metrics += [sample_positive_metric(rng, se.n) for _ in range(2 if se.n > 4 else 4)]
        for metric in metrics:
            theta = lee_by_linear_system(metric, se)
            assert lee_form(metric, se) == theta, name
            report = classify(metric, se)
            assert report.lee == theta, name
            balanced = se.d(omega_power(metric.fundamental_form(), se.n - 1)).is_zero
            assert report.balanced == balanced == theta.is_zero, name
            assert search._holds(se, Target("balanced"), metric) == balanced, name

    def test_entries_cover_both_verdicts(self):
        verdicts = {lee_form(hermitian.Metric.diagonal(se.n), se).is_zero
                    for _, se in lee_entries()}
        assert verdicts == {True, False}


def compiled_entries():
    """Every catalog family, abelian(1..5), both non-unimodular algebras, both
    circle-bundle extensions and the n = 5 bench structure."""
    return lee_entries() + [("abelian(4)", catalog.abelian(4)), ("abelian(5)", catalog.abelian(5))]


class TestCompiledMaps:
    @pytest.mark.parametrize("name, se", compiled_entries())
    def test_every_predicate_matches_the_wedged_forms(self, name, se):
        rng = random.Random(name)
        n = se.n
        maps = CompiledMaps.of(se)
        metrics = [hermitian.Metric.diagonal(n, range(1, n + 1))]
        metrics += [sample_positive_metric(rng, n) for _ in range(2 if n > 4 else 4)]
        for metric in metrics:
            ref = GauduchonForms(metric, se)
            report = classify(metric, se)
            for k in range(1, n):
                top = maps.top(metric, k)
                assert top == ref.top(k), (name, k)
                ensure(((I / 2) * (-I) ** n * top).im == 0, f"{name}: gamma{k} top is not real")
                assert gauduchon_form(metric, k, se) == ref.form(k), (name, k)
                assert gamma_numerator(metric, k, se) == ref.numerator(k), (name, k)
                assert gamma_scalar(metric, k, se) == report.gamma[k] == ref.gamma(k), (name, k)
                assert report.gauduchon[k] == ref.form(k).is_zero, (name, k)
            for p in range(n):
                assert maps.ddbar_power(metric, p) == ref.ddbar(p), (name, p)
            assert report.astheno == (ref.ddbar(n - 2).is_zero if n >= 3 else True), name
            d_top = se.d(ref.power(n - 1))
            assert maps.d_top(metric) == balanced_defect(metric, se) == d_top, name
            assert report.balanced == d_top.is_zero, name
            for target in every_target(n):
                assert search._holds(se, target, metric) == target_by_reference(
                    se, target, metric, ref), (name, target)

    def test_entries_exercise_nonzero_maps(self):
        sizes = {name: len(CompiledMaps.of(se).top_terms(1))
                 for name, se in compiled_entries() if se.n >= 3}
        assert sizes["abelian(5)"] == 0
        assert sizes["family8(1,0)"] > 0 and sizes["bench/n5.dsl"] > 0

    def test_maps_are_cached_on_the_structure(self):
        se = catalog.family8(1, 2)
        maps = CompiledMaps.of(se)
        gamma_scalar(hermitian.Metric.diagonal(4), 1, se)
        assert CompiledMaps.of(se) is maps
        assert CompiledMaps.of(catalog.family8(1, 2)) is not maps
        assert maps.top_terms(2) is maps.top_terms(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minors_match_elimination(self, n):
        metric = sample_positive_metric(random.Random(n), n)
        for p in range(n + 1):
            for rows in itertools.combinations(range(n), p):
                for cols in itertools.combinations(range(n), p):
                    sub = [[metric.x[r][c] for c in cols] for r in rows]
                    assert metric.minor(rows, cols) == (linalg.mat_det(sub) if p else ONE)


class TestBumpDiagonal:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_carried_minors_match_fresh_ones(self, n):
        metric = sample_positive_metric(random.Random(100 + n), n)
        subsets = [c for p in range(n + 1) for c in itertools.combinations(range(n), p)]
        pairs = [(rows, cols) for rows in subsets for cols in subsets
                 if len(rows) == len(cols)]
        for rows, cols in pairs:  # memoise every minor of the base first
            metric.minor(rows, cols)
        for j in range(n):
            for amount in (1, Fraction(1, 3), Fraction(7, 2)):
                bumped = metric.bump_diagonal(j, amount)
                assert bumped.x[j][j] == metric.x[j][j] + ComplexRational(0, amount)
                fresh = hermitian.Metric(bumped.x)
                for rows, cols in pairs:
                    sub = [[bumped.x[r][c] for c in cols] for r in rows]
                    want = linalg.mat_det(sub) if rows else ONE
                    assert bumped.minor(rows, cols) == fresh.minor(rows, cols) == want


def target_by_reference(se, target, metric, ref):
    """The target's defining condition on the wedged-out reference forms."""
    if target.kind == "gamma_negative":
        return ref.numerator(target.k) < 0
    if target.kind == "gamma_positive":
        return ref.numerator(target.k) > 0
    if target.kind == "gauduchon_zero":
        return ref.form(target.k).is_zero
    if target.kind == "skt":
        return ref.ddbar(1).is_zero
    return se.d(ref.power(se.n - 1)).is_zero


class TestDeterminantFromPivots:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_elimination_on_positive_metrics(self, n):
        rng = random.Random(n)
        for metric in [hermitian.Metric.diagonal(n, range(1, n + 1))] + [
                sample_positive_metric(rng, n) for _ in range(5)]:
            det = linalg.mat_det(metric.minus_i_x())
            assert det.im == 0
            assert metric.det_minus_i_x() == det.re > 0

    @pytest.mark.parametrize("metric", [
        hermitian.Metric.diagonal(3, [1, -1, 1]),
        hermitian.Metric.diagonal(2, [1, 0]),
        hermitian.Metric.diagonal(2, [-1, -1]),  # det(-iX) = 1 > 0, still not positive
        hermitian.Metric([[I, 2 * I], [2 * I, I]]),
    ])
    def test_raises_on_metrics_that_are_not_positive(self, metric):
        with pytest.raises(NotPositive):
            metric.det_minus_i_x()
        with pytest.raises(NotPositive):
            hermitian.volume_coefficient(metric)


class TestExactScalars:
    @pytest.mark.parametrize("other", [0.5, 1j, 2.0 + 1j])
    def test_float_operands_raise(self, other):
        one = ComplexRational(1)
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one
        with pytest.raises(TypeError):
            one + other
        with pytest.raises(TypeError):
            one - other
        with pytest.raises(TypeError):
            other - one
        with pytest.raises(TypeError):
            one / other


# -- the product formulas and the LDL* pivots in Fraction arithmetic ----------


def ref_coefficient_C(n, s, a, b):
    return ref_coefficient_C_sq(n, s, a, Fraction(b) ** 2)


def ref_coefficient_C_sq(n, s, a, b_squared):
    if n < 4:
        raise BadParams("coefficient table needs n >= 4")
    if not 0 <= s <= n - 1:
        raise BadParams(f"s must be in 0..{n - 1}")
    a = Fraction(a)
    m = Fraction(a * a) + Fraction(b_squared)
    c0, c1, c2 = (comb(n - 3, s - j) if s >= j else 0 for j in range(3))
    return Fraction(c0) + 2 * a * c1 + m * c2


def ref_product_obstruction(n1, n2, a, b_squared):
    a = Fraction(a)
    m = a * a + Fraction(b_squared)
    return Fraction(n1 * (n1 - 1)) + 2 * a * n1 * n2 + m * n2 * (n2 - 1)


def ref_check_params(n1, n2, b, t):
    """ProductParams.__post_init__ with t/b > 0 tested by dividing."""
    if n1 < 1 or n2 < 1:
        raise BadParams("factor parameters must be positive integers")
    if b == 0:
        raise BadParams("b must be nonzero")
    if t / b <= 0:
        raise BadParams("need t/b > 0 for a positive metric")


def ref_product_report(params):
    n = params.n1 + params.n2 + 1
    a, b, t = params.a, params.b, params.t
    if n == 3:
        return sasakian.ProductReport(n=n, obstruction=None, first_gauduchon=(a == 0),
                                      astheno=(a == 0), ratio=None, gamma1=a * t / (3 * b),
                                      skt=(a == 0))
    q = ref_product_obstruction(params.n1, params.n2, a, b * b)
    denom = Fraction(params.n1 * (params.n1 - 1) + 2 * params.n1 * params.n2
                     + params.n2 * (params.n2 - 1))
    ratio = Fraction(n - 2) * t / (n * b) * (q / denom)
    return sasakian.ProductReport(n=n, obstruction=q, first_gauduchon=(q == 0),
                                  astheno=(q == 0), ratio=ratio, gamma1=None, skt=None)


def ref_ldl(h):
    """LDL* with every pivot turned into a Fraction and coerced back per use."""
    n = len(h)
    lower = linalg.identity(n)
    diag = []
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


def outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, TypeError, BadParams) as exc:
        return type(exc), str(exc)


def exact(value):
    """value with its type, so that 1 and Fraction(1), or 0.5 and 1/2, differ."""
    return value if isinstance(value, tuple) else (type(value), value)


fractions = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**15)),
)
rationals = st.one_of(st.integers(-30, 30), fractions)
# what Fraction() reads: ints, Fractions and "p/q" strings, reduced or not
rational_inputs = st.one_of(
    rationals,
    rationals.map(str),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 60)),
)


class TestIntegerProductFormulas:
    @given(st.integers(1, 7), st.integers(1, 7), rational_inputs, rational_inputs)
    def test_product_obstruction(self, n1, n2, a, b_squared):
        got = sasakian.product_obstruction(n1, n2, a, b_squared)
        assert exact(got) == exact(ref_product_obstruction(n1, n2, a, b_squared))

    @given(st.integers(2, 10), st.integers(-1, 10), rational_inputs, rational_inputs)
    def test_coefficient_C_sq(self, n, s, a, b_squared):
        got = outcome(sasakian.coefficient_C_sq, n, s, a, b_squared)
        assert exact(got) == exact(outcome(ref_coefficient_C_sq, n, s, a, b_squared))

    @given(st.integers(2, 10), st.integers(-1, 10), rational_inputs, rational_inputs)
    def test_coefficient_C(self, n, s, a, b):
        got = outcome(sasakian.coefficient_C, n, s, a, b)
        assert exact(got) == exact(outcome(ref_coefficient_C, n, s, a, b))

    @pytest.mark.parametrize("bad", ["x", "1/0", "1.5.2", None, 1j, ComplexRational(1, 1)])
    def test_bad_input_raises_as_before(self, bad):
        for fn, ref in ((sasakian.product_obstruction, ref_product_obstruction),
                        (lambda n, s, a, b: sasakian.coefficient_C_sq(n + 3, s, a, b),
                         lambda n, s, a, b: ref_coefficient_C_sq(n + 3, s, a, b))):
            assert outcome(fn, 2, 1, bad, 1) == outcome(ref, 2, 1, bad, 1)
            assert outcome(fn, 2, 1, 1, bad) == outcome(ref, 2, 1, 1, bad)
        assert (outcome(sasakian.coefficient_C, 5, 1, 1, bad)
                == outcome(ref_coefficient_C, 5, 1, 1, bad))

    @pytest.mark.parametrize("a, b_squared", [(0.5, 3), (1, 0.25), ("0.5", "3/4")])
    def test_decimal_and_float_inputs_read_as_fraction_reads_them(self, a, b_squared):
        got = sasakian.product_obstruction(3, 2, a, b_squared)
        assert exact(got) == exact(ref_product_obstruction(3, 2, a, b_squared))

    @given(st.integers(0, 3), st.integers(0, 3), rationals, rationals)
    @example(1, 1, 1, 0)
    @example(1, 1, Fraction(-1, 2), 0)
    @example(2, 2, 0, 3)
    def test_product_params_reject_the_same_pairs(self, n1, n2, b, t):
        expected = outcome(ref_check_params, n1, n2, b, t)
        try:
            sasakian.ProductParams(n1, n2, Fraction(1), b, t)
        except BadParams as exc:
            assert expected == (BadParams, str(exc))
        else:
            assert expected is None

    @given(st.integers(1, 6), st.integers(1, 6), rationals, rationals, rationals)
    def test_product_report_every_field(self, n1, n2, a, b, t):
        if n1 + n2 == 2:
            # the reference's a t / (3 b) is a float on int fields
            a, b, t = Fraction(a), Fraction(b), Fraction(t)
        assume(b != 0 and t / b > 0)
        params = sasakian.ProductParams(n1, n2, a, b, t)
        got, ref = sasakian.product_report(params), ref_product_report(params)
        for field in dataclasses.fields(got):
            name = field.name
            assert exact(getattr(got, name)) == exact(getattr(ref, name)), name

    def test_product_report_is_exact_on_int_fields(self):
        report = sasakian.product_report(sasakian.ProductParams(1, 1, 1, 1, 1))
        assert exact(report.gamma1) == (Fraction, Fraction(1, 3))


def hermitian_matrix(rng, n, span=3):
    """A random Hermitian matrix over the Gaussian rationals, definite or not."""
    h = linalg.zeros(n, n)
    for i in range(n):
        h[i][i] = ComplexRational(Fraction(rng.randint(-span, 4 * span), rng.choice((1, 2))))
        for j in range(i):
            z = ComplexRational(Fraction(rng.randint(-span, span), rng.choice((1, 2))),
                                Fraction(rng.randint(-span, span), rng.choice((1, 2))))
            h[i][j], h[j][i] = z, z.conjugate()
    return h


class TestIntegerPivots:
    @given(st.integers(2, 5), st.integers(0, 2**32))
    def test_same_factors_on_sampled_metrics(self, n, seed):
        h = sample_positive_metric(random.Random(seed), n).minus_i_x()
        lower, diag = linalg.ldl(h)
        ref_lower, ref_diag = ref_ldl(h)
        assert lower == ref_lower
        assert [exact(d) for d in diag] == [exact(d) for d in ref_diag]

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_same_outcome_on_hermitian_matrices(self, n, seed):
        h = hermitian_matrix(random.Random(seed), n)
        assert outcome(linalg.ldl, h) == outcome(ref_ldl, h)

    @pytest.mark.parametrize("rows, message", [
        ([[1, 2], [2, 1]], "matrix is not positive definite"),  # pivot 1 - 4 = -3
        ([[1, 1], [1, 1]], "matrix is not positive definite"),  # pivot 0
        ([[-2]], "matrix is not positive definite"),
        ([[1, 0], [0, ComplexRational(1, 1)]], "1+1i is not real"),
        ([[2, 1], [1, ComplexRational(3, 1)]], "5/2+1i is not real"),  # 3 + i - 1/2
    ])
    def test_same_error_on_a_bad_pivot(self, rows, message):
        h = linalg.mat(rows)
        assert outcome(linalg.ldl, h) == outcome(ref_ldl, h) == (ValueError, message)


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchBindings:
    def test_traced_methods_exist(self):
        spans = load_bench_module("spans")
        modules = {"forms": forms, "structures": structures, "hermitian": hermitian,
                   "search": search}
        for layer, classes in spans.METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"

    def test_scaling_names_exist(self):
        for module, name in [
            (forms, "wedge"), (hermitian, "omega_power"), (hermitian, "gamma_scalar"),
            (hermitian, "gamma_numerator"), (hermitian, "gauduchon_form"),
            (hermitian, "lee_form"), (hermitian, "classify"), (hermitian, "Lefschetz"),
            (linalg, "ldl"), (search, "sample_positive_metric"),
        ]:
            assert callable(getattr(module, name)), name
        assert callable(hermitian.Lefschetz.Lstar)
