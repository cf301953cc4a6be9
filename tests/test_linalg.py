import copy
import pickle
import random
from fractions import Fraction

import pytest

from injcheck import linalg
from injcheck.linalg import (
    MatrixTextError,
    RationalMatrix,
    Subspace,
    determinant,
    format_matrix_text,
    kernel_basis,
    kernel_rep_of_image,
    parse_matrix_text,
    parse_rational_token,
    rat,
    row_basis,
)

from oracles import fraction_apply, fraction_determinant, fraction_matmul, fraction_rref

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


def reduced_form(A):
    """(reduced row echelon form as Fraction rows, pivot columns) read off
    the fraction-free elimination: rows d * rref divided by d."""
    work, pivots, d = linalg._reduced(A)
    return [[F(v, d) for v in row] for row in work], tuple(pivots)


def rank(A):
    return row_basis(A).rows


class TestRat:
    def test_accepts_int_str_fraction(self):
        assert rat(3) == F(3)
        assert rat("3/4") == F(3, 4)
        assert rat("0.25") == F(1, 4)
        assert rat(F(7, 2)) == F(7, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.1)


class TestMatrixBasics:
    def test_shape_and_access(self):
        A = M([1, 2, 3], [4, 5, 6])
        assert A.shape == (2, 3)
        assert A.at(1, 2) == 6
        assert A.row(0) == (1, 2, 3)
        assert A.col(1) == (2, 5)

    def test_matmul_and_apply(self):
        A = M([1, 2], [3, 4])
        B = M([0, 1], [1, 0])
        assert (A @ B).data == ((2, 1), (4, 3))
        assert A.apply((1, 1)) == (3, 7)

    def test_transpose_vstack(self):
        A = M([1, 2, 3])
        assert A.transpose().shape == (3, 1)
        assert A.vstack(M([4, 5, 6])).data == ((1, 2, 3), (4, 5, 6))

    def test_empty_rows_need_explicit_cols(self):
        Z = RationalMatrix.from_rows([], cols=3)
        assert Z.shape == (0, 3)
        assert Z.vstack(M([1, 2, 3])).shape == (1, 3)

    def test_equality_is_by_value(self):
        assert M([1, 2]) == M([F(2, 2), 2])
        assert M([1, 2]) != M([1, 3])


class TestRrefRankKernel:
    def test_rref_identity(self):
        R, pivots = reduced_form(M([2, 0], [0, 3]))
        assert R == [[1, 0], [0, 1]]
        assert pivots == (0, 1)

    def test_rank(self):
        assert rank(M([1, 2], [2, 4])) == 1
        assert rank(M([1, 2], [3, 4])) == 2

    def test_kernel_of_rank_one(self):
        K = kernel_basis(M([1, 2], [2, 4]))
        assert K.cols == 1
        v = K.col(0)
        assert v[0] + 2 * v[1] == 0 and any(x != 0 for x in v)

    def test_kernel_vectors_are_killed(self):
        A = M([1, -1, 1], [0, 2, 2])
        K = kernel_basis(A)
        assert K.cols == 1
        assert A.apply(K.col(0)) == (0, 0)

    def test_full_rank_kernel_empty(self):
        assert kernel_basis(M([1, 0], [0, 1])).cols == 0

    def test_row_basis_drops_dependent_rows(self):
        B = row_basis(M([1, 2], [2, 4], [0, 1]))
        assert B.rows == 2


class TestKernelRep:
    # independently derived: im (1,1)^T is cut out by x - y = 0
    def test_diagonal_line(self):
        Z = kernel_rep_of_image(RationalMatrix.column([1, 1]))
        assert Z.rows == 1
        a, b = Z.row(0)
        assert a == -b and a != 0

    # im{(1,1,0),(0,1,1)} (columns) is cut out by x - y + z = 0
    def test_plane_in_r3(self):
        V = M([1, 0], [1, 1], [0, 1])
        Z = kernel_rep_of_image(V)
        assert Z.rows == 1
        a, b, c = Z.row(0)
        assert a == c and b == -a and a != 0

    def test_rep_kills_exactly_the_image(self):
        V = M([1, 2], [0, 1], [1, 0])
        Z = kernel_rep_of_image(V)
        for j in range(V.cols):
            assert all(x == 0 for x in Z.apply(V.col(j)))
        assert rank(Z) + rank(V) == 3


class TestDeterminant:
    def test_known_3x3(self):
        assert determinant(M([1, -1, 1], [1, 1, -1], [1, 1, 1])) == 4

    def test_singular(self):
        assert determinant(M([1, 2], [2, 4])) == 0

    def test_rational_entries(self):
        assert determinant(M([F(1, 2), 0], [0, F(2, 3)])) == F(1, 3)

    def test_laplace_cross_check_random(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            A = M(*[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])

            def laplace(rows, cols):
                if not rows:
                    return F(1)
                i = rows[0]
                total = F(0)
                for idx, j in enumerate(cols):
                    a = A.at(i, j)
                    if a:
                        total += (-1) ** idx * a * laplace(rows[1:], cols[:idx] + cols[idx + 1:])
                return total

            assert determinant(A) == laplace(tuple(range(n)), tuple(range(n)))


class TestSubspace:
    def test_full_space(self):
        S = Subspace.full(3)
        assert S.dim == 3
        assert S.kernel_rep().rows == 0
        assert S.contains((1, -2, 3))

    def test_image_and_kernel_views_agree(self):
        S = Subspace.from_image(RationalMatrix.column([1, 1]))
        assert S.dim == 1
        Z = S.kernel_rep()
        assert Z.rows == 1
        assert all(x == 0 for x in Z.apply((2, 2)))
        assert S.contains((5, 5))
        assert not S.contains((1, 2))

    def test_same_space(self):
        S1 = Subspace.from_image(RationalMatrix.column([1, 1]))
        S2 = Subspace.from_kernel_rep(M([1, -1]))
        assert S1.dim == S2.dim == 1
        assert S2.kernel_rep().matmul(S1.image_basis()).is_zero()
        assert S1.kernel_rep().matmul(S2.image_basis()).is_zero()
        assert Subspace.full(2).dim != S1.dim

    def test_zero_subspace(self):
        S = Subspace.from_image(RationalMatrix(2, 0, [[], []]))
        assert S.dim == 0
        assert S.contains((0, 0))
        assert not S.contains((1, 0))


def _random_matrix(rng, rows=None, cols=None):
    """A seeded matrix of 0 to 6 rows and 0 to 7 columns (or of the given
    shape) that exercises the elimination: zero rows and columns, duplicate
    rows and rational row combinations (rank deficiency), large coprime
    denominators and entries of size 10^999."""
    rows = rng.randint(0, 6) if rows is None else rows
    cols = rng.randint(0, 7) if cols is None else cols
    zeros = rng.choice((0.0, 0.2, 0.4, 0.6))
    big = rng.random() < 0.05

    def entry():
        if rng.random() < zeros:
            return F(0)
        kind = rng.random()
        if big and kind < 0.3:
            return F(rng.choice((1, -1)) * 10 ** 999 + rng.randint(-3, 3),
                     rng.choice((1, 3, 10 ** 999 + 7)))
        if kind < 0.15:
            return F(rng.randint(-10 ** 6, 10 ** 6), rng.choice((999_983, 1_000_003, 2 ** 61 - 1)))
        return F(rng.randint(-9, 9), rng.choice((1, 1, 3, 7)))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        shape = rng.random()
        if shape < 0.1:
            data[i] = list(data[rng.randrange(i)])
        elif shape < 0.2:
            a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3), rng.randint(1, 4))
            j, k = rng.randrange(i), rng.randrange(i)
            data[i] = [a * x + b * y for x, y in zip(data[j], data[k])]
        elif shape < 0.25:
            data[i] = [F(0)] * cols
    if cols and rng.random() < 0.15:
        dead = rng.randrange(cols)
        for row in data:
            row[dead] = F(0)
    return RationalMatrix(rows, cols, data)


class TestFractionFreeCore:
    """The fraction-free elimination must give the very reduced form, pivots,
    bases and determinant of the Fraction elimination in tests/oracles.py."""

    def check(self, A):
        ref, ref_pivots = fraction_rref(A.data, A.rows, A.cols)
        got, pivots = reduced_form(A)
        assert pivots == tuple(ref_pivots), A
        assert got == ref, A
        r = len(pivots)
        assert row_basis(A) == RationalMatrix(r, A.cols, ref[:r])
        K = kernel_basis(A)
        assert K.cols == A.cols - r
        for k, free in enumerate(j for j in range(A.cols) if j not in ref_pivots):
            v = K.col(k)
            assert v[free] == 1
            assert all(v[p] == -ref[i][free] for i, p in enumerate(ref_pivots))
        assert all(x == 0 for k in range(K.cols) for x in A.apply(K.col(k)))
        if A.rows == A.cols:
            assert determinant(A) == fraction_determinant(A), A

    def test_matches_fraction_reference_on_seeded_matrices(self):
        rng = random.Random(13)
        shapes = set()
        for _ in range(1200):
            A = _random_matrix(rng)
            shapes.add((A.rows == 0, A.cols == 0, A.rows == A.cols))
            self.check(A)
        assert len(shapes) >= 5

    @pytest.mark.parametrize("A", [
        RationalMatrix.zeros(0, 3),
        RationalMatrix(3, 0, [[], [], []]),
        RationalMatrix.zeros(0, 0),
        RationalMatrix.zeros(3, 3),
        M([0, 1], [1, 0]),
        M([0, 0, 1], [0, 1, 0], [1, 0, 0]),
        M([1, 2, 3], [2, 4, 6], [1, 1, 1]),
        M([F(1, 999_983), F(1, 1_000_003)], [F(1, 2 ** 61 - 1), F(2, 3)]),
        M([10 ** 999, 1], [1, F(1, 10 ** 999)]),
    ])
    def test_edge_shapes(self, A):
        self.check(A)

    def test_swap_sign_and_scales_enter_the_determinant(self):
        assert determinant(M([0, 1], [1, 0])) == -1
        assert determinant(M([0, F(1, 2), 0], [0, 0, F(1, 3)], [5, 0, 0])) == F(5, 6)
        assert determinant(RationalMatrix.zeros(0, 0)) == 1


class TestIntProducts:
    """apply and matmul over the cached int rows must give the very Fractions
    of the Fraction sums in tests/oracles.py."""

    def test_match_fraction_reference_on_seeded_shapes(self):
        rng = random.Random(14)
        shapes = set()
        for _ in range(1200):
            A = _random_matrix(rng)
            v = _random_matrix(rng, 1, A.cols).row(0)
            B = _random_matrix(rng, A.cols)
            shapes.add((A.rows == 0, A.cols == 0, B.cols == 0))
            got = A.apply(v)
            assert got == fraction_apply(A, v), A
            assert all(type(x) is Fraction for x in got)
            assert A.matmul(B) == fraction_matmul(A, B), (A, B)
            assert A.apply(v) == got  # again, from the filled cache
        assert len(shapes) >= 6

    @pytest.mark.parametrize("A, v", [
        (RationalMatrix.zeros(0, 3), (1, 2, 3)),
        (RationalMatrix(2, 0, [[], []]), ()),
        (RationalMatrix.zeros(2, 2), (F(1, 3), 5)),
        (M([F(1, 999_983), F(1, 1_000_003)], [F(1, 2 ** 61 - 1), 0]),
         (F(1, 2 ** 61 - 1), 999_983)),
        (M([10 ** 999, 1], [1, F(1, 10 ** 999)]), (F(1, 10 ** 999), -10 ** 999)),
    ])
    def test_edge_shapes(self, A, v):
        assert A.apply(v) == fraction_apply(A, v)
        for B in (A.transpose(), RationalMatrix.zeros(A.cols, 0), RationalMatrix.column(v)):
            assert A.matmul(B) == fraction_matmul(A, B)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            M([1, 2]).apply((1,))
        with pytest.raises(ValueError):
            M([1, 2]).matmul(M([1, 2]))

    def test_filled_cache_stays_out_of_equality_copies_and_pickles(self):
        rows = ([F(1, 2), -3, 0], [F(22, 7), 10 ** 999, F(1, 999_983)])
        filled, fresh = M(*rows), M(*rows)
        filled.apply((1, 2, 3))
        filled.matmul(fresh.transpose())
        assert filled._int_rows is not None and fresh._int_rows is None
        for twin in (filled, copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))):
            assert twin == fresh and fresh == twin
            assert hash(twin) == hash(fresh)
            assert repr(twin) == repr(fresh)
            assert twin.apply((F(1, 3), 0, -1)) == fresh.apply((F(1, 3), 0, -1))
        assert copy.deepcopy(filled) == filled


class TestTextFormat:
    def test_round_trip(self):
        A = M([F(1, 2), -3], [0, F(22, 7)])
        assert parse_matrix_text(format_matrix_text(A)) == A

    def test_comments_and_blanks(self):
        text = "# exponents\n1 2  # first row\n\n3 4\n"
        assert parse_matrix_text(text) == M([1, 2], [3, 4])

    def test_decimal_tokens_are_exact(self):
        assert parse_rational_token("1.25") == F(5, 4)
        assert parse_matrix_text("0.1").at(0, 0) == F(1, 10)

    def test_ragged_rows_error_with_line(self):
        with pytest.raises(MatrixTextError) as err:
            parse_matrix_text("1 2\n3\n")
        assert err.value.line == 2

    def test_garbage_token(self):
        with pytest.raises(MatrixTextError):
            parse_matrix_text("1 x\n")
