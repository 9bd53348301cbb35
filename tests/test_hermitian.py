import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gauduchon import catalog, hermitian
from gauduchon.errors import (BadK, BadParams, ClaimFailure, DimensionMismatch, NotPositive,
                              NotSkewHermitian)
from gauduchon.forms import Form, wedge
from gauduchon.hermitian import (
    Lefschetz,
    Metric,
    balanced_defect,
    classify,
    gamma_numerator,
    gamma_scalar,
    gauduchon_form,
    gauduchon_reduction_check,
    lee_form,
    lee_form_via_codifferential,
    metric_from_form,
    omega_power,
    top_coefficient,
    volume_coefficient,
)
from gauduchon.scalars import ComplexRational, cr
from gauduchon.search import sample_positive_metric
from gauduchon.structures import _derive

I = ComplexRational(0, 1)


class TestMetric:
    def test_skew_hermitian_enforced(self):
        with pytest.raises(NotSkewHermitian):
            Metric([[I, cr(1)], [cr(1), I]])
        Metric([[I, cr(1)], [cr(-1), I]])  # conj(x21) = -x12 holds
        good = [[I, cr(1), I], [cr(-1), I, cr(2)], [I, cr(-2), I]]
        Metric(good)
        for j, k, value in ((2, 1, cr(2)), (0, 2, cr(1)), (1, 1, I + cr(1))):
            broken = [row[:] for row in good]  # below, above, on the diagonal
            broken[j][k] = value
            with pytest.raises(NotSkewHermitian):
                Metric(broken)

    def test_int_constructor_checks_skew_hermitian(self):
        # x_jk = (a + ib)/2 for num[j][k] = (a, b)
        Metric._of_ints([[(0, 2), (1, 1)], [(-1, 1), (0, 4)]], 2)
        for num in ([[(0, 2), (1, 1)], [(1, 1), (0, 4)]],  # conj(x21) = -x12 fails
                    [[(0, 2), (0, 1)], [(0, -1), (0, 4)]],  # ... on the imaginary part
                    [[(1, 2), (0, 0)], [(0, 0), (0, 4)]]):  # x11 is not imaginary
            with pytest.raises(NotSkewHermitian):
                Metric._of_ints(num, 2)
        with pytest.raises(DimensionMismatch, match=r"^X has 1 rows of lengths \[2\]$"):
            Metric._of_ints([[(0, 2), (0, 0)]], 2)

    @pytest.mark.parametrize("call", [
        lambda: Metric.diagonal(2).minor((0, 0), (0, 1)),
        lambda: Metric.diagonal(3).minor((1, 0), (0, 1)),
        lambda: Metric.diagonal(3).minor((0, 1), (0,)),
        lambda: Metric.diagonal(3).minor((5,), (0,)),
        lambda: Metric.diagonal(3).minor((-1,), (0,)),
        lambda: Metric.diagonal(2, [1]),
        lambda: Metric.diagonal(2, [1, 1, 1]),
        lambda: Metric.diagonal(2).bump_diagonal(5, 1),
        lambda: Metric.diagonal(2).bump_diagonal(-1, 1),
    ], ids=["minor-repeated-row", "minor-unsorted-rows", "minor-unequal-lengths",
            "minor-row-past-n", "minor-negative-row", "diagonal-short", "diagonal-long",
            "bump-past-n", "bump-negative"])
    def test_indices_outside_the_matrix(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    def test_x_is_a_copy(self, rng):
        metric = sample_positive_metric(rng, 3)
        twin = Metric(metric.x)
        rows = metric.x
        rows[0][1] = rows[1][0] = cr(7)
        rows[2] = []
        assert metric.x == twin.x
        assert metric.fundamental_form() == twin.fundamental_form()
        for rows, cols in (((1,), (0,)), ((0, 1), (0, 2)), ((0, 1, 2), (0, 1, 2))):
            assert metric.minor(rows, cols) == twin.minor(rows, cols)

    def test_positivity_examples(self):
        assert Metric.diagonal(3).is_positive()
        assert not Metric.diagonal(3, [-1, 1, 1]).is_positive()
        assert not Metric.diagonal(2, [1, 0]).is_positive()

    def test_fundamental_form_is_real_11(self, rng):
        for _ in range(30):
            m = sample_positive_metric(rng, 3)
            omega = m.fundamental_form()
            assert omega.conjugate() == omega
            assert set(omega.bidegree_parts()) == {(1, 1)}

    def test_fundamental_form_round_trip(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                m = sample_positive_metric(rng, n)
                assert metric_from_form(m.fundamental_form(), n) == m

    @pytest.mark.parametrize("key, error, message", [
        ((1, 6), DimensionMismatch, r"^Omega has the key \(1, 6\), with a rank outside 1\.\.4$"),
        ((0, 1), BadParams, r"^a 2-form cannot have the key \(0, 1\)$"),
        ((1, 3), BadParams, r"^Omega has the key \(1, 3\), which is not of type \(1,1\)$"),
    ], ids=["rank-past-2n", "rank-0", "type-2-0"])
    def test_metric_from_form_names_the_bad_key(self, key, error, message):
        with pytest.raises(error, match=message):
            metric_from_form(Form(2, {key: cr(1)}), 2)

    def test_diagonal_form(self):
        omega = Metric.diagonal(3).fundamental_form()
        assert omega == Form(2, {(1, 2): I, (3, 4): I, (5, 6): I})

    def test_volume_identity(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                m = sample_positive_metric(rng, n)
                fact = 1
                for t in range(2, n + 1):
                    fact *= t
                expected = cr(fact) * I**n * cr(m.det_minus_i_x())
                got = top_coefficient(omega_power(m.fundamental_form(), n), n)
                assert got == expected == volume_coefficient(m)
                assert m.det_minus_i_x() > 0

    def test_omega_power_needs_nonnegative_k(self):
        # k is never user input, so k < 0 is a program fault (CLI exit 1)
        omega = Metric.diagonal(2).fundamental_form()
        assert omega_power(omega, 0) == Form.scalar(1)
        with pytest.raises(ClaimFailure, match="k >= 0"):
            omega_power(omega, -1)


class TestGamma:
    def test_bad_k(self):
        with pytest.raises(BadK):
            gauduchon_form(Metric.diagonal(3), 3, catalog.iwasawa())

    # True and 1.0 used to read as k = 1 (gamma_1 = 1/12 on iwasawa)
    @pytest.mark.parametrize("k", [True, 1.0, Fraction(1)])
    @pytest.mark.parametrize("fn", [gamma_scalar, gamma_numerator, gauduchon_form])
    def test_k_that_is_not_an_int(self, fn, k):
        with pytest.raises(BadK, match=r"^k must be an int, got "):
            fn(Metric.diagonal(3), k, catalog.iwasawa())

    @pytest.mark.parametrize("fn", [
        lambda m, se: gamma_scalar(m, 1, se),
        lambda m, se: gauduchon_form(m, 1, se),
        lambda m, se: gamma_numerator(m, 1, se),
        classify,
        lee_form,
        balanced_defect,
        gauduchon_reduction_check,
        lee_form_via_codifferential,
    ])
    def test_dimension_mismatch(self, fn):
        with pytest.raises(DimensionMismatch):
            fn(Metric.diagonal(2), catalog.iwasawa())
        with pytest.raises(DimensionMismatch):
            fn(Metric.diagonal(4), catalog.iwasawa())

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            gamma_scalar(Metric.diagonal(3, [-1, 1, 1]), 1, catalog.iwasawa())

    def test_iwasawa_positive(self):
        assert gamma_scalar(Metric.diagonal(3), 1, catalog.iwasawa()) > 0

    def test_jt_unit_scalar_zero(self):
        assert gamma_scalar(Metric.diagonal(3), 1, catalog.jt(1)) == 0

    def test_reduced_example_value(self):
        se = catalog.reduced6(0, 0, 1, 0)
        assert gamma_scalar(Metric.diagonal(3), 1, se) == Fraction(-1, 6)

    def test_kahler_pair_vanishes(self):
        se = catalog.abelian(3)
        for k in (1, 2):
            assert gauduchon_form(Metric.diagonal(3), k, se).is_zero

    def test_family8_diagonal_closed_form(self):
        # diag(i l1, ..., i l4): coefficient -4 i l4^2 (p (l2+l3) - l1) on the
        # top monomial, by direct expansion
        lams = (Fraction(2), Fraction(1), Fraction(3), Fraction(1, 2))
        p = Fraction(3, 2)
        se = catalog.family8(p, 0)
        m = Metric.diagonal(4, lams)
        g = gauduchon_form(m, 1, se)
        coeff = cr(-4) * I * cr(lams[3] ** 2) * cr(p * (lams[1] + lams[2]) - lams[0])
        assert g == Form(8, {tuple(range(1, 9)): coeff})

    def test_conformal_scaling(self, rng):
        se = catalog.jt(Fraction(1, 2))
        for _ in range(10):
            m = sample_positive_metric(rng, 3)
            c = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            assert gamma_scalar(m.scale(cr(c)), 1, se) == gamma_scalar(m, 1, se) / c


class TestClassify:
    def test_iwasawa_natural_metric(self):
        report = classify(Metric.diagonal(3), catalog.iwasawa())
        assert report.balanced and not report.skt and not report.kahler
        # balanced forces d(Omega^{n-1}) = 0, hence the standard k = n-1 flag
        assert report.label == "balanced+gauduchon2"
        assert report.gauduchon == {1: False, 2: True}

    def test_abelian_kahler(self, rng):
        report = classify(sample_positive_metric(rng, 3), catalog.abelian(3))
        assert report.kahler and report.skt and report.balanced and report.astheno
        assert all(report.gauduchon.values())
        assert all(v == 0 for v in report.gamma.values())
        assert report.lee.is_zero

    def test_family8_never_skt(self, rng):
        se = catalog.family8(Fraction(1, 2), Fraction(2))
        for _ in range(10):
            report = classify(sample_positive_metric(rng, 4), se)
            assert not report.skt and not report.kahler

    def test_skt_implies_first_gauduchon(self):
        report = classify(Metric.diagonal(3), catalog.jt(1))
        assert report.skt and report.gauduchon[1]
        assert report.gamma[1] == 0

    @pytest.mark.parametrize("se", [catalog.jt(1), catalog.family8(1, 0), catalog.abelian(2)])
    def test_compiles_no_maps(self, rng, se):
        report = classify(sample_positive_metric(rng, se.n), se)
        assert se._compiled is None
        assert len(report.gamma) == se.n - 1

    def test_json_shape(self):
        data = classify(Metric.diagonal(3), catalog.iwasawa()).to_json()
        assert data["balanced"] is True
        assert data["gamma"]["1"] == "1/12"
        assert data["lee_form"] == []


class TestLeeForm:
    def test_iwasawa_balanced_lee_zero(self):
        assert lee_form(Metric.diagonal(3), catalog.iwasawa()).is_zero

    def test_abelian_lee_zero(self):
        assert lee_form(Metric.diagonal(3), catalog.abelian(3)).is_zero

    def test_reduced_family_nonzero_lee(self):
        theta = lee_form(Metric.diagonal(3), catalog.reduced6(0, 0, 1, 0))
        assert theta == Form(1, {(5,): cr(2), (6,): cr(2)})

    def test_solves_defining_equation(self, rng):
        for se in (catalog.jt(Fraction(3, 4)), catalog.nonnilpotent6(0, 1)):
            for _ in range(5):
                m = sample_positive_metric(rng, 3)
                omega2 = omega_power(m.fundamental_form(), 2)
                theta = lee_form(m, se)
                assert wedge(theta, omega2) == se.d(omega2)
                assert theta.conjugate() == theta

    # reduced6(0, 0, 1, 0) at the diagonal metric has theta = 2 w3 + 2 ~w3, real
    # coefficients; jt(3/4) at a sampled metric has non-real ones
    @pytest.mark.parametrize("se, sampled", [(catalog.reduced6(0, 0, 1, 0), False),
                                             (catalog.jt(Fraction(3, 4)), True)])
    def test_non_real_d_sums_fail_the_reality_check(self, rng, se, sampled):
        m = sample_positive_metric(rng, 3) if sampled else Metric.diagonal(3)
        d_sums, dt = _derive(hermitian._omega_sums(m._num), (se._d_rank,))
        theta = hermitian._lee(m, d_sums, dt)
        assert theta == lee_form(m, se) and not theta.is_zero
        assert any(c.im for c in theta.terms.values()) == sampled
        i_d_sums = {mask: (-im, re) for mask, (re, im) in d_sums.items()}  # i d Omega
        with pytest.raises(ClaimFailure, match="Lee form must be real"):
            hermitian._lee(m, i_d_sums, dt)

    def test_non_real_d_sums_fail_under_python_O(self):
        src = str(Path(hermitian.__file__).resolve().parents[1])
        code = ("from gauduchon import catalog, hermitian\n"
                "from gauduchon.errors import ClaimFailure\n"
                "from gauduchon.structures import _derive\n"
                "se, m = catalog.reduced6(0, 0, 1, 0), hermitian.Metric.diagonal(3)\n"
                "d_sums, dt = _derive(hermitian._omega_sums(m._num), (se._d_rank,))\n"
                "try:\n"
                "    hermitian._lee(m, {k: (-y, x) for k, (x, y) in d_sums.items()}, dt)\n"
                "except ClaimFailure:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit('no ClaimFailure for i d Omega')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_balanced_iff_lee_zero(self, rng):
        se = catalog.reduced6(1, 0, 1, 0)
        for _ in range(10):
            m = sample_positive_metric(rng, 3)
            omega2 = omega_power(m.fundamental_form(), 2)
            assert lee_form(m, se).is_zero == se.d(omega2).is_zero

    def test_codifferential_route_agrees(self, rng):
        for se in (catalog.iwasawa(), catalog.reduced6(0, 0, 1, 0),
                   catalog.family8(1, 0)):
            for _ in range(5):
                m = sample_positive_metric(rng, se.n)
                assert lee_form_via_codifferential(m, se) == lee_form(m, se)


class TestLefschetz:
    def test_base_values(self):
        for n in (2, 3, 4):
            lef = Lefschetz(Metric.diagonal(n))
            omega = Metric.diagonal(n).fundamental_form()
            assert lef.Lstar(Form.scalar(1)).is_zero
            assert lef.Lstar(omega) == Form.scalar(cr(4 * n))
            assert lef.Lstar(omega_power(omega, 2)) == omega.scale(cr(8 * (n - 1)))
            assert lef.Lstar_power(lef.L_power(Form.scalar(1), 2), 2) == Form.scalar(
                cr(32 * n * (n - 1))
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_adjoint_sends_omega_to_n(self, n, rng):
        """[Lambda, L] = n on functions: the identity the constructor no longer checks."""
        metrics = [Metric.diagonal(n), Metric.diagonal(n, range(1, n + 1))]
        metrics += [sample_positive_metric(rng, n) for _ in range(3)]
        for m in metrics:
            assert Lefschetz(m).adjoint(m.fundamental_form()) == Form.scalar(n)

    def test_lstar_requires_positive(self):
        with pytest.raises(NotPositive):
            Lefschetz(Metric.diagonal(2, [1, -1]))

    def test_commutation_base_cases(self):
        lef = Lefschetz(Metric.diagonal(3))
        one = Form.scalar(1)
        assert lef.commutation_residual(1, 1, one).is_zero
        assert lef.commutation_residual(2, 2, one).is_zero

    def test_commutation_on_nondiagonal_metric(self, rng):
        m = sample_positive_metric(rng, 3)
        lef = Lefschetz(m)
        from gauduchon.verify import random_pure_form

        for _ in range(4):
            f = random_pure_form(rng, 3, rng.randint(0, 2), rng.randint(0, 2))
            for r in range(1, 3):
                for s in range(r, 4):
                    assert lef.commutation_residual(r, s, f).is_zero

    def test_requires_r_le_s(self):
        lef = Lefschetz(Metric.diagonal(2))
        with pytest.raises(ValueError):
            lef.commutation_residual(2, 1, Form.scalar(1))

    def test_adjoint_is_adjoint(self, rng):
        # <L* f, g> = <f, L g> in the weighted monomial inner product
        from conftest import UnitaryFrame, rand_form

        m = sample_positive_metric(rng, 2)
        lef = Lefschetz(m)
        frame = UnitaryFrame(m)
        for _ in range(10):
            f = rand_form(rng, 2, 3)
            g = rand_form(rng, 2, 1)
            assert frame.inner(lef.adjoint(f), g) == frame.inner(f, lef.L(g))

    def test_reduction_identity_on_dimension_four(self, rng):
        se = catalog.family8(Fraction(1, 2), Fraction(1))
        for m in (Metric.diagonal(4), sample_positive_metric(rng, 4)):
            data = gauduchon_reduction_check(m, se)
            assert not data["residual"]
            assert data["constant_calibrated"] == 16
            assert data["constant_display"] == 1024
