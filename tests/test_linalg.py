import random
from fractions import Fraction

import pytest

from gauduchon import linalg
from gauduchon.scalars import ZERO, ComplexRational


def rand_entry(rng):
    return ComplexRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                           Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


def cofactor_det(a):
    """det a by Laplace expansion along the first row."""
    if not a:
        return ComplexRational(1)
    total = ZERO
    for j, v in enumerate(a[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            term = v * cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
    return total


def rand_matrix(rng, n):
    while True:
        a = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
        if cofactor_det(a):
            return a


def needs_row_swap():
    """Invertible (det 1); both the first and the second pivot need a row swap."""
    return linalg.mat([[0, 0, 1], [1, 2, 3], [2, 5, 7]])


@pytest.fixture
def matrices():
    rng = random.Random(0x11A)
    return [rand_matrix(rng, n) for n in (1, 2, 3, 4, 5) for _ in range(4)] + [needs_row_swap()]


class TestInverse:
    def test_inverse_times_matrix_is_identity(self, matrices):
        for a in matrices:
            inv = linalg.mat_inverse(a)
            n = len(a)
            assert linalg.mat_eq(linalg.mat_mul(a, inv), linalg.identity(n))
            assert linalg.mat_eq(linalg.mat_mul(inv, a), linalg.identity(n))

    def test_row_swap_case_has_zero_pivot(self):
        assert not needs_row_swap()[0][0]

    @pytest.mark.parametrize("rows", [
        [[0, 0], [0, 0]],
        [[1, 2], [2, 4]],
        [[1, 1, 0], [0, 1, 1], [1, 2, 1]],
        [[0, 1, 1], [0, 2, 1], [0, 3, 5]],
    ])
    def test_singular_input_raises(self, rows):
        a = linalg.mat(rows)
        with pytest.raises(ValueError, match="singular system"):
            linalg.mat_inverse(a)
        with pytest.raises(ValueError, match="singular system"):
            linalg.solve(a, [ZERO] * len(a))
        assert cofactor_det(a) == 0


class TestSolve:
    def test_solve_agrees_with_inverse(self, matrices):
        rng = random.Random(7)
        for a in matrices:
            b = [rand_entry(rng) for _ in range(len(a))]
            x = linalg.solve(a, b)
            via_inverse = [row[0] for row in linalg.mat_mul(linalg.mat_inverse(a),
                                                            [[v] for v in b])]
            assert x == via_inverse
            assert [row[0] for row in linalg.mat_mul(a, [[v] for v in x])] == b

    def test_solve_leaves_its_input_alone(self):
        a = needs_row_swap()
        before = [row[:] for row in a]
        linalg.solve(a, [ZERO, ZERO, ZERO])
        linalg.mat_inverse(a)
        assert a == before


class TestDeterminant:
    def test_determinant_of_inverse(self, matrices):
        for a in matrices:
            assert cofactor_det(linalg.mat_inverse(a)) * cofactor_det(a) == 1


def sparse_matrix(rng, rows, cols, zero_frac):
    return [[ZERO if rng.random() < zero_frac else rand_entry(rng) for _ in range(cols)]
            for _ in range(rows)]


def of_rank(rng, rows, cols, rank):
    """rows x cols of exactly the given rank, as coeffs @ basis.

    basis has a unit column per row (so full row rank) and coeffs contains
    the rank x rank identity among its rows (so full column rank).
    """
    if not rank:
        return linalg.zeros(rows, cols)
    basis = sparse_matrix(rng, rank, cols, 0.3)
    for i, col in enumerate(rng.sample(range(cols), rank)):
        for k in range(rank):
            basis[k][col] = ComplexRational(int(k == i))
    coeffs = linalg.identity(rank) + sparse_matrix(rng, rows - rank, rank, 0.3)
    rng.shuffle(coeffs)
    return linalg.mat_mul(coeffs, basis)


def assert_reduced(r):
    """r is in reduced row echelon form: unit pivot columns, zero rows last."""
    leads = []
    for row in r:
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            assert all(not any(later) for later in r[len(leads):])
            break
        assert row[lead] == 1
        assert not leads or lead > leads[-1]
        leads.append(lead)
    for i, col in enumerate(leads):
        assert all(r[k][col] == (1 if k == i else 0) for k in range(len(r)))
    return leads


class TestRref:
    def test_known_reduction(self):
        a = linalg.mat([[0, 2, 4, 2], [0, 0, 0, 0], [1, 1, 1, 1], [2, 4, 6, 4]])
        assert linalg.rref(a) == linalg.mat(
            [[1, 0, -1, 0], [0, 1, 2, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        )

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (3, 3), (4, 6), (1, 4), (4, 1)])
    def test_rectangular_and_rank_deficient(self, shape):
        rows, cols = shape
        rng = random.Random(10 * rows + cols)
        for rank in range(min(rows, cols) + 1):
            for _ in range(3):
                a = of_rank(rng, rows, cols, rank)
                r = linalg.rref(a)
                assert len(assert_reduced(r)) == rank
                assert linalg.rref(r) == r
                # same row space: stacking the input under the rref adds no rank
                assert len(assert_reduced(linalg.rref(r + a))) == rank

    def test_zero_rows_and_zero_matrix(self):
        a = linalg.mat([[0, 0, 0], [0, 1, 2], [0, 0, 0], [0, 2, 4]])
        r = linalg.rref(a)
        assert r == linalg.mat([[0, 1, 2], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert linalg.rref(linalg.zeros(3, 2)) == linalg.zeros(3, 2)

    def test_rref_leaves_its_input_alone(self):
        a = linalg.mat([[0, 1], [2, 3]])
        before = [row[:] for row in a]
        linalg.rref(a)
        assert a == before

