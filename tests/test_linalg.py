import random
from fractions import Fraction

import pytest

from gauduchon import linalg
from gauduchon.scalars import ZERO, ComplexRational


def rand_entry(rng):
    return ComplexRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                           Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


def rand_matrix(rng, n):
    while True:
        a = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
        if linalg.mat_det(a):
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
        assert linalg.mat_det(a) == 0


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
    def test_determinant_is_multiplicative(self, matrices):
        rng = random.Random(3)
        for a in matrices:
            b = [[rand_entry(rng) for _ in range(len(a))] for _ in range(len(a))]
            ab = linalg.mat_mul(a, b)
            assert linalg.mat_det(ab) == linalg.mat_det(a) * linalg.mat_det(b)

    def test_determinant_of_inverse(self, matrices):
        for a in matrices:
            assert linalg.mat_det(linalg.mat_inverse(a)) * linalg.mat_det(a) == 1
