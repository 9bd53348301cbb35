import random
import re
from fractions import Fraction

import pytest

from gauduchon import catalog
from gauduchon.errors import (
    BadParams,
    DimensionMismatch,
    JacobiViolation,
    NotAlmostComplex,
    NotIntegrable,
)
from gauduchon.forms import Form, conj_rank, holo_rank, substitute, wedge
from gauduchon.hermitian import Metric, gamma_scalar
from gauduchon.scalars import ComplexRational, cr
from gauduchon.search import sample_positive_metric
from gauduchon.structures import (
    RealLieAlgebra,
    StructureEquations,
    complex_frame_from_real,
    complex_structure_from_coframe,
    structure_from_coframe,
)

from conftest import rand_form

I = ComplexRational(0, 1)


def block_J(pairs, m):
    """J sending e_a -> e_b for each (a, b) pair (and e_b -> -e_a)."""
    J = [[cr(0)] * m for _ in range(m)]
    for a, b in pairs:
        J[b - 1][a - 1] = cr(1)
        J[a - 1][b - 1] = cr(-1)
    return J


class TestDifferential:
    def test_d_raises_degree_and_leibniz(self, rng):
        se = catalog.reduced6(1, 1, 1, 0)
        for _ in range(40):
            a = rand_form(rng, 3, 1)
            b = rand_form(rng, 3, 2)
            lhs = se.d(wedge(a, b))
            rhs = wedge(se.d(a), b) - wedge(a, se.d(b))
            assert lhs == rhs

    def test_d_squared_zero(self, rng):
        for se in (catalog.reduced6(1, 1, 1, 0), catalog.nonnilpotent6(1, 1),
                   catalog.family8(2, -1)):
            for deg in range(0, 2 * se.n - 1):
                for _ in range(10):
                    f = rand_form(rng, se.n, deg)
                    assert se.d(se.d(f)).is_zero

    def test_d_of_constant_is_zero(self):
        se = catalog.jt(1)
        assert se.d(Form.scalar(5)).is_zero

    def test_d_commutes_with_conjugation(self, rng):
        se = catalog.nonnilpotent6(0, -1)
        for _ in range(20):
            f = rand_form(rng, 3, 2)
            assert se.d(f.conjugate()) == se.d(f).conjugate()

    def test_spec_leibniz_example(self):
        se = catalog.reduced6(0, 0, 1, 0)  # dw3 = w1~1 + w2~2
        w3, cw3 = Form.gen(5), Form.gen(6)
        got = se.d(wedge(w3, cw3))
        expected = wedge(se.d(w3), cw3) - wedge(w3, se.d(cw3))
        assert got == expected
        assert se.d(w3) == Form(2, {(1, 2): cr(1), (3, 4): cr(1)})

    def test_dimension_mismatch(self):
        se = catalog.abelian(2)
        with pytest.raises(DimensionMismatch):
            se.d(Form.gen(7))

    def test_partial_dbar_sum_to_d(self, rng):
        se = catalog.jt(Fraction(1, 2))
        for _ in range(20):
            f = rand_form(rng, 3, 2)
            assert se.partial(f) + se.dbar(f) == se.d(f)

    def test_dbar_conjugate_intertwine(self, rng):
        se = catalog.nilpotent6(1, 1, 0, 1, 1, 0)
        for _ in range(20):
            f = rand_form(rng, 3, 2).component(1, 1)
            assert se.dbar(f.conjugate()) == se.partial(f).conjugate()


class TestValidation:
    # 1.0 used to build a structure that format_structure wrote as "n: 1.0",
    # which parse_structure rejects; m = 0 built an empty algebra
    @pytest.mark.parametrize("build, error, message", [
        (lambda: StructureEquations(1.0, [Form.zero()]), TypeError, "n must be an int, got 1.0"),
        (lambda: StructureEquations(True, [Form.zero()]), TypeError, "n must be an int, got True"),
        (lambda: catalog.abelian(True), TypeError, "n must be an int, got True"),
        (lambda: StructureEquations(0, []), BadParams, "n must be at least 1, got 0"),
        (lambda: RealLieAlgebra(2.0, [Form.zero()] * 2), TypeError, "m must be an int, got 2.0"),
        (lambda: RealLieAlgebra(True, [Form.zero()]), TypeError, "m must be an int, got True"),
        (lambda: RealLieAlgebra(0, []), BadParams, "m must be at least 1, got 0"),
    ], ids=["n-float", "n-bool", "abelian-bool", "n-zero", "m-float", "m-bool", "m-zero"])
    def test_sizes_are_ints_of_at_least_1(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_jacobi_violation(self):
        # dw2 = w3^~w3 with dw3 = w1^w2 gives d^2 w2 != 0
        dw2 = Form(2, {(5, 6): cr(1)})
        dw3 = Form(2, {(1, 3): cr(1)})
        with pytest.raises(JacobiViolation) as info:
            StructureEquations(3, [Form.zero(), dw2, dw3])
        assert info.value.generator == 2
        assert not info.value.residual.is_zero

    def test_real_algebra_jacobi_violation(self):
        # de1 = e34 with de4 = e12 gives d(de1) = -e3^de4 = -e123
        with pytest.raises(JacobiViolation) as info:
            RealLieAlgebra(4, [Form(2, {(3, 4): cr(1)}), Form.zero(), Form.zero(),
                               Form(2, {(1, 2): cr(1)})])
        assert info.value.generator == 1
        assert info.value.residual == Form(3, {(1, 2, 3): cr(-1)})

    def test_map_coefficients_validates(self):
        # scaling every coefficient by 1+i breaks d^2 = 0 on nonnilpotent6
        se = catalog.nonnilpotent6(0, 1)
        with pytest.raises(JacobiViolation):
            se.map_coefficients(lambda c: c * ComplexRational(1, 1))

    def test_not_integrable_names_generator_and_residual(self):
        dw2 = Form(2, {(2, 4): cr(1)})  # pure (0,2)
        with pytest.raises(NotIntegrable) as info:
            StructureEquations(2, [Form.zero(), dw2])
        assert info.value.generator == 2
        assert info.value.residual == dw2

    @pytest.mark.parametrize("build, key", [
        (lambda: StructureEquations(2, [Form.zero(), Form(2, {(3, 2): cr(1)})]), "(3, 2)"),
        (lambda: StructureEquations(1, [Form(2, {(3, 2): cr(1)})]), "(3, 2)"),
        (lambda: RealLieAlgebra(3, [Form.zero(), Form.zero(), Form(2, {(2, 1): cr(1)})]), "(2, 1)"),
        (lambda: RealLieAlgebra(2, [Form.zero(), Form(2, {(3, 1): cr(1)})]), "(3, 1)"),
        (lambda: StructureEquations(1, [Form(2, {(0, 1): cr(1)})]), "(0, 1)"),
        (lambda: RealLieAlgebra(2, [Form.zero(), Form(2, {(0, 1): cr(1)})]), "(0, 1)"),
    ], ids=["accepted-n2", "index-error-n1", "accepted-m3", "index-error-m2",
            "rank-0-n1", "rank-0-m2"])
    def test_keys_whose_ranks_do_not_increase_are_rejected(self, build, key):
        """Form rejects the key before either constructor reads it."""
        with pytest.raises(BadParams, match=rf"^a 2-form cannot have the key {re.escape(key)}$"):
            build()

    @pytest.mark.parametrize("m, key", [(2, (1,)), (3, (1, 2, 3))], ids=["one-rank", "three-ranks"])
    def test_real_keys_of_other_than_two_ranks_are_rejected(self, m, key):
        d_of = [Form(len(key), {key: cr(1)})] + [Form.zero()] * (m - 1)
        with pytest.raises(BadParams, match=rf"^de1 must be a 2-form, got degree {len(key)}$"):
            RealLieAlgebra(m, d_of)

    def test_two_step_structure_needs_canonical_keys(self):
        # dw4 = dw5 = sum over a, b <= 3 of w_a ^ ~w_b, whose keys (2a-1, 2b) fall for a > b
        pairs = [(2 * a - 1, 2 * b) for a in (1, 2, 3) for b in (1, 2, 3)]
        with pytest.raises(BadParams, match=r"^a 2-form cannot have the key \(3, 2\)$"):
            Form(2, {mon: cr(1) for mon in pairs})
        dw = sum((Form.monomial(mon) for mon in pairs), Form.zero())
        se = StructureEquations(5, [Form.zero()] * 3 + [dw, dw])
        for metric in (Metric.diagonal(5), sample_positive_metric(random.Random(5), 5)):
            assert isinstance(gamma_scalar(metric, 1, se), Fraction)

    @pytest.mark.parametrize("m, J, shape", [
        (3, [[0, -1], [1, 0]], r"got 2 rows of lengths \[2, 2\]"),
        (2, [[0, -1], [1, 0], [0, 0]], r"got 3 rows of lengths \[2, 2, 2\]"),
        (2, [[0, -1], [1]], r"got 2 rows of lengths \[2, 1\]"),
    ], ids=["2x2-on-m3", "3x2-on-m2", "ragged-on-m2"])
    def test_J_must_be_m_by_m(self, m, J, shape):
        with pytest.raises(DimensionMismatch, match=rf"^J must be {m} x {m}, {shape}$"):
            RealLieAlgebra(m, [Form.zero()] * m, J=J)

    def test_unimodular_catalog(self):
        assert catalog.iwasawa().is_unimodular()
        assert catalog.family8(1, 1).is_unimodular()
        assert catalog.nonnilpotent6(0, 1).is_unimodular()

    def test_non_unimodular_affine_toy(self):
        se = StructureEquations(1, [Form(2, {(1, 2): cr(Fraction(1, 2))})])
        assert not se.is_unimodular()

    def test_solvable5_real_algebra_unimodular(self):
        assert catalog.solvable5_contact().algebra.is_unimodular()


class TestRealToComplex:
    def test_abelian_plane(self):
        alg = RealLieAlgebra(2, [Form.zero()] * 2, J=block_J([(1, 2)], 2))
        frame = complex_frame_from_real(alg)
        assert frame.structure.n == 1
        assert frame.structure.d_of[0].is_zero
        # w1 = e1 + i e2
        assert frame.rows[0] == [cr(1), I]

    def test_h5_biinvariant_recovers_iwasawa(self):
        # h5: de5 = e13 + e42, de6 = e14 + e23
        d_of = [Form.zero()] * 4 + [
            Form.monomial((1, 3)) + Form.monomial((4, 2)),
            Form.monomial((1, 4)) + Form.monomial((2, 3)),
        ]
        alg = RealLieAlgebra(6, d_of, J=block_J([(1, 2), (3, 4), (5, 6)], 6))
        frame = complex_frame_from_real(alg)
        assert frame.structure == catalog.iwasawa()

    def test_j_square_checked(self):
        J = [[cr(0), cr(1)], [cr(1), cr(0)]]  # J^2 = +Id
        with pytest.raises(NotAlmostComplex):
            RealLieAlgebra(2, [Form.zero()] * 2, J=J)

    def test_round_trip_forms(self, rng):
        frame = complex_frame_from_real(
            RealLieAlgebra(4, [Form.zero()] * 4, J=block_J([(1, 2), (3, 4)], 4))
        )
        # w^j = sum_a rows[j][a] e^a, and its conjugate, over the real coframe
        to_real = {}
        for j, row in enumerate(frame.rows, start=1):
            terms = {(a,): c for a, c in enumerate(row, start=1) if c}
            to_real[holo_rank(j)] = Form(1, terms)
            to_real[conj_rank(j)] = Form(1, {m: c.conjugate() for m, c in terms.items()})
        for _ in range(20):
            f = rand_form(rng, 2, 2)
            assert frame.to_complex(substitute(f, to_real)) == f

    def test_jt_real_presentation_matches_complex_equations(self):
        for t in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            frame = structure_from_coframe(catalog.jt_real(t), catalog.jt_coframe(t))
            assert frame.structure == catalog.jt(t)

    def test_jt_real_kept_rows(self):
        """The candidates e^a - i e^a∘J that complex_frame_from_real keeps for jt(1/2)."""
        o, z, i = cr(1), cr(0), ComplexRational(0, 1)
        half_i = ComplexRational(0, Fraction(1, 2))
        frame = complex_frame_from_real(catalog.jt_real(Fraction(1, 2)))
        assert frame.rows == [
            [o, z, z, i, z, z],
            [z, o, half_i, -half_i, z, z],
            [z, z, z, z, o, -i],
        ]

    def test_coframe_to_j_round_trip(self):
        rows = catalog.jt_coframe(Fraction(1, 3))
        J = complex_structure_from_coframe(rows, 6)
        JJ = [[sum((J[i][k] * J[k][j] for k in range(6)), cr(0)) for j in range(6)]
              for i in range(6)]
        for i in range(6):
            for j in range(6):
                assert JJ[i][j] == (cr(-1) if i == j else cr(0))

    @pytest.mark.parametrize("call", [
        lambda: structure_from_coframe(catalog.jt_real(1), [
            [1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]),
        lambda: complex_structure_from_coframe([[1, 0]], 2),
    ], ids=["structure_from_coframe", "complex_structure_from_coframe"])
    def test_singular_coframe_is_bad_params(self, call):
        with pytest.raises(BadParams, match="^the coframe rows and their conjugates "
                                            "are not independent$"):
            call()

    @pytest.mark.parametrize("call, error, message", [
        (lambda: complex_structure_from_coframe([[1, I, 0, 0]], 4),
         DimensionMismatch, r"^coframe must be 2 rows of length 4$"),
        (lambda: complex_structure_from_coframe([[1, I], [0, 0, 1, I]], 4),
         DimensionMismatch, r"^coframe must be 2 rows of length 4$"),
        (lambda: complex_structure_from_coframe([[1, I, 0, 0, 0], [0, 0, 1, I, 0]], 5),
         NotAlmostComplex, r"^odd-dimensional algebra \(m=5\) has no coframe$"),
        (lambda: structure_from_coframe(catalog.jt_real(1), [[1, I, 0, 0, 0, 0]] * 2),
         DimensionMismatch, r"^coframe must be 3 rows of length 6$"),
        (lambda: structure_from_coframe(catalog.jt_real(1), [[1, I, 0, 0, 0, 0]] * 2 + [[1, I]]),
         DimensionMismatch, r"^coframe must be 3 rows of length 6$"),
        (lambda: structure_from_coframe(RealLieAlgebra(3, [Form.zero()] * 3), [[1, I, 0]]),
         NotAlmostComplex, r"^odd-dimensional algebra \(m=3\) has no coframe$"),
    ], ids=["short-J", "narrow-row-J", "odd-m-J", "short-frame", "narrow-row-frame",
            "odd-m-frame"])
    def test_coframe_of_the_wrong_shape_is_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_to_complex_checks_the_rank(self):
        frame = complex_frame_from_real(catalog.jt_real(Fraction(1, 2)))
        with pytest.raises(DimensionMismatch, match="^form uses rank 7 but the coframe "
                                                    "has 6 generators$"):
            frame.to_complex(Form(1, {(7,): cr(1)}))

    def test_nonintegrable_real_structure(self):
        # J pairing (1,3) and (2,4) over de5 = e14 leaves a (0,2)-residual
        d_of = [Form.zero()] * 4 + [Form(2, {(1, 4): cr(1)}), Form.zero()]
        alg = RealLieAlgebra(6, d_of, J=block_J([(1, 3), (2, 4), (5, 6)], 6))
        with pytest.raises(NotIntegrable):
            complex_frame_from_real(alg)
