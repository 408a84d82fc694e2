"""Tests for exact linear algebra over finite fields."""

from __future__ import annotations


import numpy as np
import pytest

from prmhull.errors import DimensionMismatch, FieldMismatch
from prmhull import exactla
from prmhull.exactla import (
    MatrixFq,
    SubspaceBasis,
    intersect_rowspaces,
    mat_mul,
    nullspace,
    rank,
    rref,
    transpose,
)
from prmhull.code import code_from_rows, hull
from prmhull.field import field_make
from prmhull.prm import prm_code

from oracles import ref_matmul, ref_orthogonal, ref_rowspace, ref_rref

# 257 and 1024 are prime and binary fields well above the sweep grid; every
# field multiplies through the same discrete-log tables.
KERNEL_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 257, 1024]

# generator of the [4,2,3] self-dual ternary code: evaluations of x0, x1
# at the standard projective representatives (1,0),(1,1),(1,2),(0,1)
TETRA_G = [[1, 1, 1, 0], [0, 1, 2, 1]]


def random_matrix(q, rows, cols, seed, deficient=False):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, q, size=(rows, cols)).astype(np.int32)
    if deficient and rows >= 3:
        M[rows // 2] = M[0]
        M[-1] = 0
    return MatrixFq(field_make(q), M)


def sparse_matrix(q, rows, cols, seed, density=0.15):
    """Random entries, each nonzero with probability about `density`."""
    rng = np.random.default_rng(seed)
    M = rng.integers(1, q, size=(rows, cols))
    M[rng.random((rows, cols)) >= density] = 0
    return M.astype(np.int32)


def known_rref_product(q, rows, rank, cols, seed):
    """(field, M, RREF(M), pivots) with M = X·Y, built without row reduction.

    Y is a random RREF of the given rank. X has full column rank: its
    first `rank` rows are upper triangular with a nonzero diagonal before
    the rows are shuffled. So the RREF of M is Y over rows - rank zero rows.
    """
    f = field_make(q)
    rng = np.random.default_rng(seed)
    pivots = np.sort(rng.choice(cols, rank, replace=False))
    Y = rng.integers(0, q, size=(rank, cols)).astype(np.int32)
    Y[np.arange(cols) < pivots[:, None]] = 0
    Y[:, pivots] = np.eye(rank, dtype=np.int32)
    X = rng.integers(0, q, size=(rows, rank)).astype(np.int32)
    X[:rank] = np.triu(X[:rank])
    X[np.arange(rank), np.arange(rank)] = rng.integers(1, q, size=rank)
    M = exactla._mat_mul_arrays(f, X[rng.permutation(rows)], Y)
    R = np.zeros((rows, cols), dtype=np.int32)
    R[:rank] = Y
    return f, M, R, tuple(int(c) for c in pivots)


def assert_rref_is(f, M, R_expected, pivots_expected):
    R, pivots, r = rref(MatrixFq(f, M))
    assert np.array_equal(R.a, R_expected)
    assert pivots == pivots_expected and r == len(pivots_expected)


def assert_rref_matches_reference(f, M, label=None):
    R, pivots, r = rref(MatrixFq(f, M))
    R_ref, pivots_ref = ref_rref(f, M)
    assert np.array_equal(R.a, R_ref), label
    assert pivots == pivots_ref and r == len(pivots_ref), label


class TestRref:
    def test_identity(self):
        M = MatrixFq(field_make(3), np.eye(3, dtype=np.int32))
        R, pivots, r = rref(M)
        assert R == M and pivots == (0, 1, 2) and r == 3

    def test_zero(self):
        M = MatrixFq(field_make(5), np.zeros((2, 4), dtype=np.int32))
        R, pivots, r = rref(M)
        assert np.array_equal(R.a, M.a) and pivots == () and r == 0

    def test_dependent_rows_f5(self):
        # second row is 2x the first, so elimination leaves a single pivot
        M = MatrixFq(field_make(5), [[1, 2], [2, 4]])
        R, pivots, r = rref(M)
        assert np.array_equal(R.a, [[1, 2], [0, 0]])
        assert r == 1 and pivots == (0,)

    @pytest.mark.parametrize("q", KERNEL_QS)
    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (8, 8), (1, 5), (5, 1)])
    def test_kernels_match_reference(self, q, shape):
        f = field_make(q)
        for seed in range(4):
            for deficient in (False, True):
                M = random_matrix(q, *shape, seed=seed * 101 + q, deficient=deficient)
                R, pivots, r = rref(M)
                R_ref, pivots_ref = ref_rref(f, M.a)
                assert np.array_equal(R.a, R_ref), (q, shape, seed, deficient)
                assert pivots == pivots_ref
                assert r == len(pivots_ref)

    @pytest.mark.parametrize("q", [9, 25, 49])
    def test_products_and_sparse_matrices_match_oracles(self, q):
        # Sizes where ref_rref is slow: a 60x40 by 40x120 product has rank
        # 40, so most columns carry no pivot, and its RREF is known by
        # construction; the 3%-dense 150x200 matrix has few active rows at
        # most pivots and is checked against ref_rref (a few seconds).
        for seed in range(3):
            f, M, R, pivots = known_rref_product(q, 60, 40, 120, seed=q + seed)
            assert_rref_is(f, M, R, pivots)
        f = field_make(q)
        assert_rref_matches_reference(f, sparse_matrix(q, 150, 200, seed=q, density=0.03))

    @pytest.mark.parametrize("q", [113, 113 * 113])
    def test_int16_planes_reduced_periodically(self, q):
        # A digit loses at most p - 1 = 112 per pivot, so int16 planes are
        # reduced every 32767 // 112 = 292 pivots. A dense matrix of rank
        # 600 passes that twice; unreduced, its digits would overflow
        # after about 585 pivots.
        f, M, R, pivots = known_rref_product(q, 610, 600, 640, seed=q)
        assert len(pivots) > 2 * (np.iinfo(np.int16).max // (f.p - 1))
        assert_rref_is(f, M, R, pivots)

    def test_int32_planes(self):
        # p = 257 is the smallest prime whose digits are held as int32.
        assert_rref_is(*known_rref_product(257, 130, 120, 150, seed=257))

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_all_zero_input_returns_at_once(self, q, monkeypatch):
        # No pivot search at all: np.nonzero is never called.
        calls = []
        real_nonzero = np.nonzero

        def spy(x):
            calls.append(np.shape(x))
            return real_nonzero(x)

        zero = MatrixFq(field_make(q), np.zeros((410, 410), dtype=np.int32))
        monkeypatch.setattr(np, "nonzero", spy)
        R, pivots, r = rref(zero)
        monkeypatch.undo()
        assert calls == []
        assert R == zero and pivots == () and r == 0

    # Elimination updates only the rows with a nonzero pivot-column entry,
    # gathered when they are fewer than half the rows. Dense random
    # matrices make almost every row active, so the cases below are
    # sparse or structured, where a wrong skip would show.

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_sparse_matches_reference(self, q):
        f = field_make(q)
        for seed, shape in enumerate([(12, 16), (16, 12), (20, 20)]):
            assert_rref_matches_reference(f, sparse_matrix(q, *shape, seed=seed + q), (q, shape))

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_permuted_block_diagonal_matches_reference(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q + 2)
        M = np.zeros((14, 17), dtype=np.int32)
        r0 = c0 = 0
        for r, c in [(3, 4), (5, 3), (2, 6), (4, 4)]:
            M[r0 : r0 + r, c0 : c0 + c] = rng.integers(0, q, size=(r, c))
            r0, c0 = r0 + r, c0 + c
        M = M[rng.permutation(14)][:, rng.permutation(17)]
        assert_rref_matches_reference(f, M)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_prm_generator_and_gram_match_reference(self, q):
        # A PRM generator and its G G^T are structured, with sparse pivot
        # columns late in the reduction; a Gram matrix is often nearly 0.
        f = field_make(q)
        n, k = (2, q - 1) if q <= 5 else (1, q // 2)
        C = prm_code(f, n, k)
        assert_rref_matches_reference(f, C.G.a, "generator")
        assert_rref_matches_reference(f, C.gram().a, "gram")

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_active_fraction_crossing_one_half(self, q, monkeypatch):
        # Every row is a multiple of the dense row 0 plus a sparse
        # block-diagonal row that is zero in column 0. The first pivot
        # updates every row in place; after it the rows are sparse and
        # gathered, and row 0 is active above the pivot row.
        f = field_make(q)
        rng = np.random.default_rng(q + 9)
        rows, cols = 16, 24
        W = np.zeros((rows, cols), dtype=np.int32)
        for b in range(3):
            W[1 + 5 * b : 6 + 5 * b, 1 + 7 * b : 8 + 7 * b] = rng.integers(0, q, size=(5, 7))
        W[rng.random((rows, cols)) >= 0.5] = 0
        row0 = rng.integers(1, q, size=cols).astype(np.int32)
        scale = rng.integers(1, q, size=rows).astype(np.int32)
        M = f.vadd(f.vmul(scale[:, None], row0[None, :]), W)
        fractions = []
        real_flatnonzero = np.flatnonzero

        def spy(x):
            out = real_flatnonzero(x)
            fractions.append(out.size / rows)
            return out

        monkeypatch.setattr(np, "flatnonzero", spy)
        R, pivots, r = rref(MatrixFq(f, M))
        monkeypatch.undo()
        assert max(fractions) >= 0.5 and 0 < min(fractions) < 0.5
        R_ref, pivots_ref = ref_rref(f, M)
        assert np.array_equal(R.a, R_ref) and pivots == pivots_ref

    @pytest.mark.parametrize("q", [9, 25, 49])
    def test_pivot_columns_of_multiples_of_p(self, q):
        # An entry a*p is the element a*x, whose lo digit is 0: a row is
        # active when either digit of its pivot-column entry is nonzero.
        f = field_make(q)
        p = f.p
        rng = np.random.default_rng(q + 4)
        for seed in range(3):
            M = sparse_matrix(p, 12, 16, seed=q + seed, density=0.3) * p
            M[:, 5:] = f.vadd(M[:, 5:], sparse_matrix(q, 12, 11, seed=q - seed))
            assert_rref_matches_reference(f, M, seed)
            assert_rref_matches_reference(f, M[rng.permutation(12)], seed)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_active_rows_above_the_pivot_row(self, q):
        # An upper-triangular matrix with a nonzero diagonal reduces to
        # the identity, and every update is to a row above the pivot row.
        f = field_make(q)
        rng = np.random.default_rng(q + 6)
        M = np.triu(sparse_matrix(q, 12, 12, seed=q, density=0.4))
        M[np.arange(12), np.arange(12)] = rng.integers(1, q, size=12)
        R, pivots, r = rref(MatrixFq(f, M))
        assert np.array_equal(R.a, np.eye(12, dtype=np.int32)) and pivots == tuple(range(12))
        assert_rref_matches_reference(f, np.hstack([M, sparse_matrix(q, 12, 5, seed=q + 1)]))

    @pytest.mark.parametrize("q", [37 * 37, 41 * 41])
    def test_quadratic_fields_with_p_above_31(self, q):
        # Digits of e = 2 fields with p = 37 and 41, each losing up to
        # p - 1 per pivot in the int16 planes.
        f = field_make(q)
        for seed in range(2):
            assert_rref_matches_reference(f, random_matrix(q, 6, 9, seed=seed).a, seed)
            assert_rref_matches_reference(f, sparse_matrix(q, 9, 6, seed=seed), seed)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_rank_equals_rank_of_transpose(self, q):
        for seed in range(3):
            M = random_matrix(q, 7, 10, seed=seed, deficient=True)
            assert rank(M) == rank(transpose(M))

    def test_input_not_mutated(self):
        M = MatrixFq(field_make(9), [[3, 4], [5, 6]])
        before = M.a.copy()
        rref(M)
        assert np.array_equal(M.a, before)


class TestNullspace:
    def test_all_ones_row_f3(self):
        M = MatrixFq(field_make(3), [[1, 1, 1, 1]])
        ns = nullspace(M)
        assert ns.dim == 3
        # M x = 0 for every basis vector
        assert not mat_mul(M, transpose(ns.matrix)).a.any()

    def test_identity_has_trivial_kernel(self):
        M = MatrixFq(field_make(4), np.eye(5, dtype=np.int32))
        assert nullspace(M).dim == 0

    def test_tetracode_kernel_is_its_own_rowspace(self):
        M = MatrixFq(field_make(3), TETRA_G)
        assert nullspace(M) == SubspaceBasis.from_matrix(M)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_rank_nullity(self, q):
        for seed in range(3):
            M = random_matrix(q, 6, 11, seed=seed + 7, deficient=True)
            ns = nullspace(M)
            assert ns.dim + rank(M) == M.cols
            assert not mat_mul(M, transpose(ns.matrix)).a.any()
            # canonical form: re-canonicalizing is a no-op
            assert SubspaceBasis.from_matrix(ns.matrix) == ns

    def test_zero_row_matrix_kernel_is_everything(self):
        M = MatrixFq(field_make(2), np.zeros((0, 4), dtype=np.int32))
        ns = nullspace(M)
        assert ns.dim == 4


class TestIntersect:
    def test_idempotent(self):
        M = random_matrix(7, 3, 6, seed=5)
        got = intersect_rowspaces(M, M)
        assert got == SubspaceBasis.from_matrix(M)

    def test_disjoint_coordinate_lines(self):
        f = field_make(3)
        A = MatrixFq(f, [[1, 0, 0]])
        B = MatrixFq(f, [[0, 1, 0]])
        assert intersect_rowspaces(A, B).dim == 0

    def test_brute_force_f2(self):
        # all pairs of a 2-dim and a 3-dim subspace of F_2^5, checked
        # against set-level enumeration of both row spaces
        f = field_make(2)
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = MatrixFq(f, rng.integers(0, 2, size=(2, 5)).astype(np.int32))
            B = MatrixFq(f, rng.integers(0, 2, size=(3, 5)).astype(np.int32))
            got = intersect_rowspaces(A, B)
            expected_set = ref_rowspace(f, A.a) & ref_rowspace(f, B.a)
            got_set = ref_rowspace(f, got.matrix.a)
            assert got_set == expected_set

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_brute_force_small_fields(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q * 13)
        for _ in range(6):
            A = MatrixFq(f, rng.integers(0, q, size=(2, 4)).astype(np.int32))
            B = MatrixFq(f, rng.integers(0, q, size=(2, 4)).astype(np.int32))
            got = intersect_rowspaces(A, B)
            expected_set = ref_rowspace(f, A.a) & ref_rowspace(f, B.a)
            assert ref_rowspace(f, got.matrix.a) == expected_set
            comp = SubspaceBasis.from_matrix(A).complement()
            assert ref_rowspace(f, comp.matrix.a) == ref_orthogonal(f, A.a)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_hull_brute_force_small_fields(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q * 17)
        for _ in range(6):
            G = rng.integers(0, q, size=(2, 4)).astype(np.int32)
            C = code_from_rows(f, G)
            expected_set = ref_rowspace(f, G) & ref_orthogonal(f, G)
            assert ref_rowspace(f, hull(C).hull_basis.matrix.a) == expected_set

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_dimension_formula(self, q):
        # dim(A ∩ B) + dim(A + B) = dim A + dim B
        f = field_make(q)
        rng = np.random.default_rng(q + 1)
        for _ in range(3):
            A = MatrixFq(f, rng.integers(0, q, size=(3, 7)).astype(np.int32))
            B = MatrixFq(f, rng.integers(0, q, size=(4, 7)).astype(np.int32))
            inter = intersect_rowspaces(A, B).dim
            stacked = MatrixFq(f, np.vstack([A.a, B.a]))
            assert inter + rank(stacked) == rank(A) + rank(B)

    def test_intersection_is_canonical(self):
        got = intersect_rowspaces(random_matrix(9, 4, 8, 3), random_matrix(9, 5, 8, 4))
        assert SubspaceBasis.from_matrix(got.matrix) == got
        comp = SubspaceBasis.from_matrix(random_matrix(9, 4, 8, 5)).complement()
        assert SubspaceBasis.from_matrix(comp.matrix) == comp

    def test_dimension_mismatch(self):
        f = field_make(3)
        with pytest.raises(DimensionMismatch):
            intersect_rowspaces(MatrixFq(f, [[1, 2]]), MatrixFq(f, [[1, 2, 0]]))

    def test_field_mismatch(self):
        A = MatrixFq(field_make(3), [[1, 2]])
        B = MatrixFq(field_make(5), [[1, 2]])
        with pytest.raises(FieldMismatch):
            intersect_rowspaces(A, B)


class TestMatMul:
    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_against_triple_loop(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q * 3)
        A = MatrixFq(f, rng.integers(0, q, size=(4, 6)).astype(np.int32))
        B = MatrixFq(f, rng.integers(0, q, size=(6, 5)).astype(np.int32))
        assert np.array_equal(mat_mul(A, B).a, ref_matmul(f, A.a, B.a))

    def test_identity(self):
        A = random_matrix(8, 4, 4, seed=9)
        eye = MatrixFq(field_make(8), np.eye(4, dtype=np.int32))
        assert mat_mul(A, eye) == A

    def test_gram_rank_vs_hull_projective_plane_f5(self):
        # code from degree-1 monomials on P^2(F_5): 31 points, dimension 3;
        # hull dimension by explicit intersection should be K - rank(G G^T)
        from oracles import ref_evaluate, ref_projective_points

        q = 5
        pts = ref_projective_points(q, 2)
        assert len(pts) == 31
        rows = [ref_evaluate(exps, pts, q) for exps in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        f = field_make(q)
        G = MatrixFq(f, rows)
        gram = mat_mul(G, transpose(G))
        hull_dim = intersect_rowspaces(G, nullspace(G).matrix).dim
        assert rank(gram) == 1
        assert hull_dim == 2
        assert rank(gram) == rank(G) - hull_dim

    def test_shape_mismatch(self):
        f = field_make(3)
        with pytest.raises(DimensionMismatch):
            mat_mul(MatrixFq(f, [[1, 2]]), MatrixFq(f, [[1, 2]]))

    def test_inner_dimension_beyond_exact_float64_raises(self):
        # inner * (p-1)^2 must stay below 2^52 for the float64 product to be exact
        f = field_make(65521)
        inner = (1 << 52) // (65520 * 65520) + 1
        A = MatrixFq(f, np.zeros((1, inner), dtype=np.int32))
        B = MatrixFq(f, np.zeros((inner, 1), dtype=np.int32))
        with pytest.raises(DimensionMismatch):
            mat_mul(A, B)

    @pytest.mark.parametrize("q", [4, 8, 9, 27, 1024])
    def test_folded_digits_against_triple_loop(self, q):
        # At inner dimension 70 each convolution digit, and each digit the
        # x^d terms (d >= e) fold into, is far above p before its one
        # reduction.
        f = field_make(q)
        rng = np.random.default_rng(q * 5)
        A = MatrixFq(f, rng.integers(0, q, size=(3, 70)).astype(np.int32))
        B = MatrixFq(f, rng.integers(0, q, size=(70, 4)).astype(np.int32))
        assert np.array_equal(mat_mul(A, B).a, ref_matmul(f, A.a, B.a))
        top = MatrixFq(f, np.full((2, 70), q - 1, dtype=np.int32))
        assert np.array_equal(mat_mul(top, transpose(top)).a, ref_matmul(f, top.a, top.a.T))

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_small_inner_dimensions_against_triple_loop(self, q):
        # Each plane is a block of `inner` columns of the stacked
        # operands, as narrow as one; inner dimension 0 slices every
        # block to nothing and gives the zero matrix.
        f = field_make(q)
        rng = np.random.default_rng(q * 11)
        for inner in sorted({0, 1, 2, f.e - 1, f.e, f.e + 1}):
            A = rng.integers(0, q, size=(4, inner)).astype(np.int32)
            B = rng.integers(0, q, size=(inner, 6)).astype(np.int32)
            got = exactla._mat_mul_arrays(f, A, B)
            assert got.dtype == np.int32 and got.shape == (4, 6)
            assert np.array_equal(got, ref_matmul(f, A, B)), (q, inner)

    @pytest.mark.parametrize("q", [7, 8, 9, 1024])
    @pytest.mark.parametrize("step", [1, 5])
    def test_column_blocks_match_the_reference(self, q, step, monkeypatch):
        # Blocks of `step` columns split B's 23 columns, the last block
        # ragged; A's planes are shared by every block.
        f = field_make(q)
        rng = np.random.default_rng(q * 7 + step)
        A = rng.integers(0, q, size=(5, 70)).astype(np.int32)
        B = rng.integers(0, q, size=(70, 23)).astype(np.int32)
        monkeypatch.setattr(exactla, "_PRODUCT_COLUMNS", step)
        assert np.array_equal(exactla._mat_mul_arrays(f, A, B), ref_matmul(f, A, B))

    def test_guard_counts_the_folded_digits(self):
        # Over GF(251^2) a folded digit sums up to
        # inner * 250^2 * 2 * (1 + 250), so this inner dimension is too
        # large although inner * 250^2 alone is far below 2^52. The
        # operands carry only a shape: a guard that let them through would
        # fail on them at once instead of allocating gigabytes.
        class ShapeOnly:
            def __init__(self, shape):
                self.shape = shape

        f = field_make(251 * 251)
        inner = (1 << 52) // (250 * 250 * 2 * 251) + 1
        assert inner * 250 * 250 < 1 << 52
        with pytest.raises(DimensionMismatch):
            exactla._mat_mul_arrays(f, ShapeOnly((1, inner)), ShapeOnly((inner, 1)))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            mat_mul(MatrixFq(field_make(3), [[1]]), MatrixFq(field_make(5), [[1]]))


class TestTransposeAndText:
    def test_double_transpose(self):
        M = random_matrix(4, 3, 5, seed=1)
        assert transpose(transpose(M)) == M

    def test_text_round_trip(self):
        M = random_matrix(9, 3, 4, seed=2)
        again = MatrixFq.from_text(M.to_text())
        assert again == M

    def test_text_format_exact(self):
        M = MatrixFq(field_make(3), [[0, 1], [2, 0]])
        assert M.to_text() == "3 2 2\n0 1\n2 0\n"

    def test_text_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            MatrixFq.from_text("3 2 2\n0 1\n")
        with pytest.raises(ValueError):
            MatrixFq.from_text("3 1 2\n0 1 2\n")


class TestSubspaceBasis:
    def test_contains_own_rows(self):
        M = random_matrix(7, 4, 8, seed=11)
        b = SubspaceBasis.from_matrix(M)
        assert b.contains_rows(M.a)

    def test_rejects_outside_vector(self):
        f = field_make(2)
        b = SubspaceBasis.from_matrix(MatrixFq(f, [[1, 0, 0], [0, 1, 0]]))
        assert not b.contains_rows(np.array([[0, 0, 1]], dtype=np.int32))

    def test_equality_is_rowspace_equality(self):
        f = field_make(5)
        A = MatrixFq(f, [[1, 2, 3], [0, 1, 4]])
        # rows of B are invertible combinations of A's rows (det = 1 mod 5)
        B = MatrixFq(f, ref_matmul(f, np.array([[2, 1], [1, 1]]), A.a))
        assert SubspaceBasis.from_matrix(A) == SubspaceBasis.from_matrix(B)

    def test_zero_space(self):
        f = field_make(3)
        b = SubspaceBasis.from_matrix(MatrixFq(f, np.zeros((2, 4), dtype=np.int32)))
        assert b.dim == 0
        assert b.contains_rows(np.zeros((1, 4), dtype=np.int32))
        assert not b.contains_rows(np.array([[1, 0, 0, 0]], dtype=np.int32))


class TestSum:
    """A + B against the canonical basis of the stacked [A; B]."""

    @staticmethod
    def assert_stacked(A: MatrixFq, B: MatrixFq):
        stacked = SubspaceBasis.from_matrix(MatrixFq(A.field, np.vstack([A.a, B.a])))
        a, b = SubspaceBasis.from_matrix(A), SubspaceBasis.from_matrix(B)
        for got in (a + b, b + a):
            assert got == stacked and got.pivots == stacked.pivots

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_matches_stacked_rref(self, q):
        for seed in range(3):
            for ra, rb in [(3, 2), (4, 4), (1, 6), (5, 3)]:
                for deficient in (False, True):
                    A = random_matrix(q, ra, 9, seed=seed * 31 + q, deficient=deficient)
                    B = random_matrix(q, rb, 9, seed=seed * 37 + q + 1, deficient=deficient)
                    self.assert_stacked(A, B)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_zero_dimensional_operands(self, q):
        f = field_make(q)
        zero = SubspaceBasis.from_matrix(MatrixFq(f, np.zeros((2, 6), dtype=np.int32)))
        a = SubspaceBasis.from_matrix(random_matrix(q, 3, 6, seed=q))
        assert zero + a is a and a + zero is a
        assert (zero + zero).dim == 0

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_contained_operand_returns_the_larger_basis(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q + 3)
        a = SubspaceBasis.from_matrix(random_matrix(q, 4, 8, seed=q + 4))
        coeffs = rng.integers(0, q, size=(3, a.dim)).astype(np.int32)
        b = SubspaceBasis.from_matrix(MatrixFq(f, ref_matmul(f, coeffs, a.matrix.a)))
        assert a + b is a and b + a is a
        assert a + a is a

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_sum_is_whole_space(self, q):
        # The unit vectors of the free columns complete any basis.
        f = field_make(q)
        a = SubspaceBasis.from_matrix(random_matrix(q, 5, 8, seed=q + 5, deficient=True))
        free = [c for c in range(8) if c not in a.pivots]
        units = MatrixFq(f, np.eye(8, dtype=np.int32)[free])
        whole = a + SubspaceBasis.from_matrix(units)
        assert whole.pivots == tuple(range(8))
        assert np.array_equal(whole.matrix.a, np.eye(8, dtype=np.int32))
        self.assert_stacked(a.matrix, units)
        self.assert_stacked(MatrixFq(f, np.eye(8, dtype=np.int32)), a.matrix)

    def test_mismatches_raise(self):
        a = SubspaceBasis.from_matrix(MatrixFq(field_make(3), [[1, 2]]))
        with pytest.raises(FieldMismatch):
            a + SubspaceBasis.from_matrix(MatrixFq(field_make(5), [[1, 2]]))
        with pytest.raises(DimensionMismatch):
            a + SubspaceBasis.from_matrix(MatrixFq(field_make(3), [[1, 2, 0]]))


class TestComplementCache:
    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_canonical_free_column_bases_are_not_reduced(self, q, monkeypatch):
        # The complement of the zero space is the identity and that of the
        # whole space has no rows; both are built without a reduction.
        f = field_make(q)
        calls = []
        real = exactla._rref_array

        def spy(field, A):
            calls.append(A.shape)
            return real(field, A)

        zero = SubspaceBasis.from_matrix(MatrixFq(f, np.zeros((2, 6), dtype=np.int32)))
        whole = SubspaceBasis.from_matrix(MatrixFq(f, np.triu(np.ones((6, 6), dtype=np.int32))))
        assert whole.dim == 6
        monkeypatch.setattr(exactla, "_rref_array", spy)
        everything, nothing = zero.complement(), whole.complement()
        assert calls == []
        monkeypatch.undo()
        assert everything.complement() is zero and nothing.complement() is whole
        for got in (everything, nothing):
            again = SubspaceBasis.from_matrix(got.matrix)
            assert got == again and got.pivots == again.pivots
        assert everything.pivots == tuple(range(6)) and nothing.dim == 0

    @pytest.mark.parametrize("q", [2, 3, 9])
    def test_second_call_returns_the_same_object(self, q):
        a = SubspaceBasis.from_matrix(random_matrix(q, 3, 7, seed=q))
        comp = a.complement()
        assert a.complement() is comp
        # (V^⊥)^⊥ = V, so the complement's complement is the original.
        assert comp.complement() is a
        assert SubspaceBasis.from_matrix(comp.matrix).complement() == a
