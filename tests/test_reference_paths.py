"""Each collapsed computation path against the slower definition it replaced.

partial/dbar are single derivations over per-structure tables, classify
computes every Gauduchon quantity in one pass, and the search's float
screen shares the exact Gauduchon-form path; the references here are the
direct definitions, written out in the tests.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gauduchon import catalog, forms, hermitian, linalg, sasakian, search, structures
from gauduchon.forms import Form, wedge
from gauduchon.hermitian import (
    classify,
    gamma_numerator,
    gamma_scalar,
    gauduchon_form,
    lee_form,
    omega_power,
)
from gauduchon.scalars import ComplexRational
from gauduchon.search import sample_positive_metric
from gauduchon.structures import StructureEquations
from gauduchon.verify import _standard_entries

from conftest import rand_form

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


FLOAT_ENTRIES = [
    ("jt(1/2)", catalog.jt(Fraction(1, 2))),
    ("nonnilpotent6(0,+)", catalog.nonnilpotent6(0, 1)),
    ("non-unimodular", non_unimodular3()),
    ("family8(1,2)", catalog.family8(1, 2)),
    ("family8(-1,0)", catalog.family8(-1, 0)),
]


class TestFloatScreen:
    @pytest.mark.parametrize("name, se", FLOAT_ENTRIES)
    def test_every_k_matches_the_exact_numerator(self, name, se):
        rng = random.Random(name)
        se_float = se.map_coefficients(complex)
        for _ in range(4):
            metric = sample_positive_metric(rng, se.n)
            for k in range(1, se.n):
                exact = float(gamma_numerator(metric, k, se))
                approx = search._gamma_float(metric, k, se_float)
                assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact)), (name, k)

    def test_top_index_is_exercised_off_zero(self):
        se = non_unimodular3()
        metric = sample_positive_metric(random.Random(5), 3)
        assert gamma_numerator(metric, 2, se) != 0


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
