from fractions import Fraction

import pytest

from gauduchon import catalog
from gauduchon.errors import BadParams, DimensionMismatch, NotIntegrable, NotQuasiSasakian
from gauduchon.forms import Form, wedge
from gauduchon.hermitian import gamma_scalar
from gauduchon.sasakian import (
    ContactData,
    ProductParams,
    bundle_extend,
    coefficient_C,
    coefficient_C_sq,
    product_obstruction,
    product_report,
    solve_admissible,
)
from gauduchon.scalars import ComplexRational, cr
from gauduchon.structures import RealLieAlgebra

I = ComplexRational(0, 1)


class TestCoefficients:
    def test_boundary_values(self):
        for n in (4, 5, 6, 7):
            a, b = Fraction(2), Fraction(3)
            m = a * a + b * b
            assert coefficient_C(n, 0, a, b) == 1
            assert coefficient_C(n, 1, a, b) == n - 3 + 2 * a
            assert coefficient_C(n, n - 2, a, b) == 2 * a + m * (n - 3)
            assert coefficient_C(n, n - 1, a, b) == m

    def test_worked_value(self):
        assert coefficient_C(6, 2, 1, 1) == 11  # 3 + 2*3 + 2*1

    def test_table(self):
        # n = 5, a = 1/2, b = 2: C(5,s) = C(2,s) + C(2,s-1) + (17/4) C(2,s-2)
        a, b = Fraction(1, 2), Fraction(2)
        table = [coefficient_C(5, s, a, b) for s in range(5)]
        assert table == [1, 3, Fraction(29, 4), Fraction(19, 2), Fraction(17, 4)]
        assert table == [coefficient_C_sq(5, s, a, b * b) for s in range(5)]

    def test_range_errors(self):
        with pytest.raises(BadParams):
            coefficient_C(3, 0, 1, 1)
        with pytest.raises(BadParams):
            coefficient_C(5, 5, 1, 1)

    def test_obstruction_proportional_to_coefficient(self):
        for n1, n2 in ((2, 1), (1, 2), (2, 2), (3, 2)):
            fact = Fraction(1)
            for t in range(2, n1 + 1):
                fact *= t
            for t in range(2, n2 + 1):
                fact *= t
            for t in range(2, n1 + n2 - 1):
                fact /= t
            for a in (Fraction(-2), Fraction(0), Fraction(1, 2)):
                for b2 in (Fraction(1), Fraction(3), Fraction(1, 4)):
                    q = product_obstruction(n1, n2, a, b2)
                    c = coefficient_C_sq(n1 + n2 + 1, n2, a, b2)
                    assert q == fact * c


class TestProducts:
    def test_first_gauduchon_line(self):
        report = product_report(ProductParams(2, 1, Fraction(-1, 2), Fraction(3), Fraction(3)))
        assert report.obstruction == 0
        assert report.first_gauduchon and report.astheno

    def test_dimension_three_scalar(self):
        report = product_report(ProductParams(1, 1, Fraction(-1), Fraction(1), Fraction(1)))
        assert report.gamma1 == Fraction(-1, 3)
        assert not report.skt
        zero = product_report(ProductParams(1, 1, Fraction(0), Fraction(2), Fraction(1)))
        assert zero.skt and zero.gamma1 == 0

    def test_irrational_b_through_square(self):
        assert product_obstruction(2, 2, Fraction(-2), Fraction(3)) == 0

    def test_ratio_sign_follows_obstruction(self):
        for a in (Fraction(-3), Fraction(0), Fraction(2)):
            report = product_report(ProductParams(2, 2, a, Fraction(1), Fraction(5)))
            q = report.obstruction
            if q:
                assert (report.ratio > 0) == (q > 0)

    def test_params_validated(self):
        with pytest.raises(BadParams):
            ProductParams(0, 1, Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(BadParams):
            ProductParams(1, 1, Fraction(1), Fraction(0), Fraction(1))
        with pytest.raises(BadParams):
            ProductParams(1, 1, Fraction(1), Fraction(1), Fraction(-1))


class TestFactorSizes:
    """product_obstruction, ProductParams and solve_admissible share one check
    on the factor sizes: an int, not a bool, of at least 1."""

    CALLS = {
        "obstruction": lambda n1, n2: product_obstruction(n1, n2, 1, 1),
        "params": lambda n1, n2: ProductParams(n1, n2, Fraction(1), Fraction(1), Fraction(1)),
        "admissible": lambda n1, n2: solve_admissible(n1, n2),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("n1, n2, error", [
        (1.5, 2, TypeError),
        (True, 3, TypeError),
        (2, False, TypeError),
        (Fraction(2), 2, TypeError),
        ("2", 2, TypeError),
        (0, 0, BadParams),
        (0, 2, BadParams),
        (2, -1, BadParams),
    ])
    def test_bad_sizes(self, call, n1, n2, error):
        match = ("^factor parameters must be positive integers$" if error is BadParams
                 else "^factor size .* is not an int$")
        with pytest.raises(error, match=match):
            self.CALLS[call](n1, n2)


class TestAdmissible:
    def test_line_case(self):
        out = solve_admissible(2, 1)
        assert out.kind == "line" and out.a0 == Fraction(-1, 2)

    def test_three_dimensional_case_excluded(self):
        with pytest.raises(BadParams):
            solve_admissible(1, 1)

    def test_quadratic_case(self):
        out = solve_admissible(2, 2)
        assert out.kind == "quadratic"
        assert out.quad == (2, 8, 2)  # b^2 = -(2a^2 + 8a + 2)/2 = -1 - 4a - a^2
        assert out.discriminant == 48
        assert out.rational_roots is None  # endpoints -2 +- sqrt(3)

    def test_rational_root_case(self):
        out = solve_admissible(1, 2)
        assert out.kind == "quadratic"
        assert out.rational_roots is not None
        a_lo, a_hi = out.rational_roots
        assert a_hi == 0 and a_lo == -2
        # interior point gives positive b^2 and an exact admissible pair
        a = Fraction(-1)
        alpha, beta, gamma = out.quad
        b2 = -(alpha * a * a + beta * a + gamma) / alpha
        assert b2 > 0
        assert product_obstruction(1, 2, a, b2) == 0


def abelian_contact(F):
    d_of = [Form.zero()] * 5
    algebra = RealLieAlgebra(5, d_of)
    phi = [[cr(0)] * 5 for _ in range(5)]
    phi[1][0], phi[0][1] = cr(1), cr(-1)
    phi[3][2], phi[2][3] = cr(1), cr(-1)
    eta = Form(1, {(5,): cr(1)})
    xi = [cr(0)] * 4 + [cr(1)]
    Phi = Form(2, {(1, 2): cr(1), (3, 4): cr(1)})
    return ContactData(algebra, eta, xi, phi, Phi, F)


class TestContactValidation:
    def test_abelian_contact_accepts_zero_curvature(self):
        abelian_contact(Form.zero())

    def test_xi_contraction_rejected(self):
        with pytest.raises(NotQuasiSasakian, match="xi"):
            abelian_contact(Form(2, {(4, 5): cr(1)}))

    def test_phi_square_rejected(self):
        c = catalog.solvable5_contact()
        phi = [row[:] for row in c.phi]
        phi[3][0] = -phi[3][0]  # phi(e1) = -e4 breaks phi^2 = -Id + xi (x) eta
        with pytest.raises(NotQuasiSasakian, match=r"phi\^2 != -Id \+ xi ⊗ eta"):
            ContactData(c.algebra, c.eta, c.xi, phi, c.Phi, c.F)

    def test_eta_xi_normalization(self):
        c = catalog.solvable5_contact()
        xi = [cr(0)] * 4 + [cr(2)]
        with pytest.raises(NotQuasiSasakian, match="eta"):
            ContactData(c.algebra, c.eta, xi, c.phi, c.Phi, c.F)

    def test_mismatched_fundamental_form_rejected(self):
        # wrong sign on the e23 block breaks the derived-metric positivity
        c = catalog.solvable5_contact()
        bad_phi_form = Form(2, {(1, 4): cr(1), (2, 3): cr(1)})
        with pytest.raises(NotQuasiSasakian, match="not positive definite"):
            ContactData(c.algebra, c.eta, c.xi, c.phi, bad_phi_form, c.F)

    @pytest.mark.parametrize("Phi", [
        # a complex coefficient makes g complex
        Form(2, {(1, 4): ComplexRational(1, 1), (2, 3): cr(-1)}),
        # an e12 term pairs with phi into an asymmetric g
        Form(2, {(1, 4): cr(1), (2, 3): cr(-1), (1, 2): cr(1)}),
        # Phi(xi, .) != 0 is the only way phi^T g = Phi can fail once g is
        # symmetric, and it already breaks the symmetry of g
        Form(2, {(1, 4): cr(1), (2, 3): cr(-1), (1, 5): cr(1)}),
    ])
    def test_derived_metric_not_symmetric_real(self, Phi):
        c = catalog.solvable5_contact()
        with pytest.raises(NotQuasiSasakian, match="derived metric is not symmetric real"):
            ContactData(c.algebra, c.eta, c.xi, c.phi, Phi, c.F)

    @pytest.mark.parametrize("name, form", [
        ("eta", Form(2, {(1, 5): cr(1)})),
        ("Phi", Form(3, {(1, 2, 3): cr(1)})),
        ("F", Form(1, {(1,): cr(1)})),
    ])
    def test_forms_of_the_wrong_degree_are_bad_params(self, name, form):
        """eta is a 1-form, Phi and F are 2-forms; another degree is bad
        input, not a failed identity."""
        c = catalog.solvable5_contact()
        forms = dict(eta=c.eta, Phi=c.Phi, F=c.F)
        forms[name] = form
        degree = 1 if name == "eta" else 2
        with pytest.raises(BadParams, match=rf"^{name} must be a {degree}-form, "
                                            rf"got degree {form.degree}$"):
            ContactData(c.algebra, xi=c.xi, phi=c.phi, **forms)

    @pytest.mark.parametrize("name, form", [
        ("eta", Form(1, {(6,): cr(1)})),
        ("Phi", Form(2, {(1, 4): cr(1), (2, 3): cr(-1), (1, 6): cr(1)})),
        ("F", Form(2, {(1, 6): cr(1)})),
    ])
    def test_forms_past_the_coframe_are_dimension_mismatch(self, name, form):
        """A rank past e5 is bad input, not a failed identity such as eta(xi) != 1."""
        c = catalog.solvable5_contact()
        forms = dict(eta=c.eta, Phi=c.Phi, F=c.F)
        forms[name] = form
        with pytest.raises(DimensionMismatch, match=rf"^{name} uses ranks beyond the coframe$"):
            ContactData(c.algebra, xi=c.xi, phi=c.phi, **forms)

    def test_non_closed_fundamental_form(self):
        # de4 = e12 makes d(e34) = -e123
        d_of = [Form.zero()] * 3 + [Form(2, {(1, 2): cr(1)}), Form.zero()]
        c = abelian_contact(Form.zero())
        with pytest.raises(NotQuasiSasakian, match="dPhi != 0"):
            ContactData(RealLieAlgebra(5, d_of), c.eta, c.xi, c.phi, c.Phi, c.F)

    def test_d_eta_contracts_with_xi(self):
        # de5 = e15 gives d eta(xi, e1) = -1
        d_of = [Form.zero()] * 4 + [Form(2, {(1, 5): cr(1)})]
        c = abelian_contact(Form.zero())
        with pytest.raises(NotQuasiSasakian, match=r"d eta\(xi, \.\) != 0"):
            ContactData(RealLieAlgebra(5, d_of), c.eta, c.xi, c.phi, c.Phi, c.F)


class TestBundleExtension:
    def test_coframe_rows(self):
        """The (1,0)-rows complex_frame_from_real keeps for both catalog extensions."""
        o, z = cr(1), cr(0)
        expected = {
            "solvable5": [[o, z, z, I, z, z], [z, o, -I, z, z, z], [z, z, z, z, o, -I]],
            "heisenberg5": [[o, I, z, z, z, z], [z, z, o, I, z, z], [z, z, z, z, o, -I]],
        }
        for name, rows in expected.items():
            contact = getattr(catalog, f"{name}_contact")()
            assert bundle_extend(contact).frame.rows == rows


    def test_solvable5_default_curvature(self):
        ext = bundle_extend(catalog.solvable5_contact())
        assert ext.criterion_form == Form(4, {(1, 2, 3, 4): cr(-6)})
        assert ext.criterion_scalar == -6
        assert ext.structure.n == 3
        gamma = gamma_scalar(ext.metric, 1, ext.structure)
        assert gamma == Fraction(-1, 4) < 0

    def test_trivial_bundle_over_sasakian(self):
        ext = bundle_extend(catalog.heisenberg5_contact())
        deta = catalog.heisenberg5_contact().algebra.d(
            catalog.heisenberg5_contact().eta
        )
        assert ext.criterion_form == wedge(deta, deta)
        assert not ext.criterion_form.is_zero
        assert gamma_scalar(ext.metric, 1, ext.structure) != 0

    def test_curvature_equal_to_deta(self):
        base = catalog.heisenberg5_contact()
        deta = base.algebra.d(base.eta)
        for sign in (1, -1):
            ext = bundle_extend(catalog.heisenberg5_contact(F=deta.scale(cr(sign))))
            assert ext.criterion_form == wedge(deta, deta).scale(cr(2))

    def test_tuned_curvature_gives_pluriclosed_metric(self):
        F = Form(2, {(1, 4): cr(1), (2, 3): cr(-1)})
        ext = bundle_extend(catalog.solvable5_contact(F=F))
        assert ext.criterion_form.is_zero
        omega = ext.metric.fundamental_form()
        assert ext.structure.ddbar(omega).is_zero
        assert gamma_scalar(ext.metric, 1, ext.structure) == 0

    def test_broken_normality_surfaces_as_nonintegrable(self):
        with pytest.raises(NotIntegrable):
            bundle_extend(catalog.broken5_contact())

    def test_criterion_sign_matches_gamma(self):
        cases = [
            catalog.solvable5_contact(),
            catalog.heisenberg5_contact(),
            catalog.solvable5_contact(F=Form.zero()),
            catalog.solvable5_contact(
                F=Form(2, {(1, 4): cr(3), (2, 3): cr(-3)})
            ),
        ]
        for contact in cases:
            ext = bundle_extend(contact)
            gamma = gamma_scalar(ext.metric, 1, ext.structure)
            if ext.criterion_scalar == 0:
                assert gamma == 0
            else:
                assert (gamma > 0) == (ext.criterion_scalar > 0)

    def test_three_dimensional_contact_data(self):
        # Heisenberg 3: de3 = e12, eta = e3; the extension has n = 2, where
        # d eta ^ d eta + F ^ F is a 4-form on three generators, so zero
        phi = [[cr(0)] * 3 for _ in range(3)]
        phi[1][0], phi[0][1] = cr(1), cr(-1)
        e12 = Form(2, {(1, 2): cr(1)})
        algebra = RealLieAlgebra(3, [Form.zero(), Form.zero(), e12])
        contact = ContactData(algebra, Form(1, {(3,): cr(1)}), [cr(0), cr(0), cr(1)], phi,
                              e12, e12.scale(cr(2)))
        ext = bundle_extend(contact)
        assert ext.structure.n == 2
        assert ext.criterion_form.is_zero and ext.criterion_scalar == 0
        assert ext.metric.is_positive()

    def test_positive_metric_and_unimodular(self):
        for contact in (catalog.solvable5_contact(), catalog.heisenberg5_contact()):
            ext = bundle_extend(contact)
            assert ext.metric.is_positive()
            assert ext.structure.is_unimodular()
