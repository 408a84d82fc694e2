"""Tests for exact linear algebra over finite fields."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def plan_boundaries(field, limit: int = 70000) -> list[int]:
    """Both sides of each inner dimension up to `limit` at which
    `_product_plan` changes g, or at which the inner dimension first needs
    a second chunk of L under the g in force there."""
    plans = [exactla._product_plan(field.p, field.e, i) for i in range(1, limit + 2)]
    out = set()
    for i in range(1, limit + 1):
        g, _, L = plans[i - 1]
        if plans[i][0] != g or i == L:
            out.update({i, i + 1})
    return sorted(out)


class ShapeOnly:
    """An operand with a shape and no entries, for guards that must raise
    before anything is allocated."""

    def __init__(self, shape):
        self.shape = shape

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

    @pytest.mark.parametrize("q", [512, 65536])
    def test_characteristic_2_indices_as_uint16(self, q):
        # XOR keeps every index of GF(2^e) below 2^16, so one uint16 array
        # holds any characteristic-2 matrix; at q = 65536 half the indices
        # would be negative as int16.
        f = field_make(q)
        for seed in range(2):
            M = random_matrix(q, 6, 9, seed=seed, deficient=True).a
            assert_rref_matches_reference(f, M, seed)
            assert_rref_matches_reference(f, sparse_matrix(q, 9, 6, seed=seed, density=0.5), seed)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_all_zero_input_returns_at_once(self, q, monkeypatch):
        # No pivot search at all: the matrix is never split into the
        # loop's digits, which comes before the first column is read.
        calls = []
        real_codec = exactla._loop_codec

        def spy(field):
            calls.append(field)
            return real_codec(field)

        zero = MatrixFq(field_make(q), np.zeros((410, 410), dtype=np.int32))
        monkeypatch.setattr(exactla, "_loop_codec", spy)
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
        # Each update subtracts in place from the rows it reads: all of
        # them, or the gathered active rows.
        fractions = []

        def spy(real):
            def sub(block, multiples, out):
                fractions.append(out.shape[0] / rows)
                return real(block, multiples, out=out)

            return sub

        for name in ("subtract", "bitwise_xor"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
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


class TestPivotRowMultiples:
    # A pivot reads all q multiples of its row from the field's product
    # table when q <= 256 and q is at most the number of rows the step
    # updates; otherwise it forms only the distinct ones, the one route
    # that calls np.searchsorted. Both feed the same gather and subtract.

    @staticmethod
    def reduce(f, M, monkeypatch):
        """(R, pivots, steps that formed the distinct multiples, whether the
        product table was fetched)."""
        distinct, fetched = [], []
        real_search, real_tables = np.searchsorted, exactla._product_tables

        def search(a, v, *args, **kwargs):
            distinct.append(len(a))
            return real_search(a, v, *args, **kwargs)

        def tables(field):
            fetched.append(field)
            return real_tables(field)

        monkeypatch.setattr(np, "searchsorted", search)
        monkeypatch.setattr(exactla, "_product_tables", tables)
        R, pivots, _ = rref(MatrixFq(f, M))
        monkeypatch.undo()
        return R.a, pivots, len(distinct), bool(fetched)

    @staticmethod
    def awkward_matrix(q, rows, cols, seed):
        """Random entries, so most pivot rows need normalising, plus a zero
        column, a repeated row and a row that is a multiple of another.
        Rows 0 and 1 both have a nonzero first entry, so the first pivot
        updates a row."""
        f = field_make(q)
        rng = np.random.default_rng(seed)
        M = rng.integers(0, q, size=(rows, cols)).astype(np.int32)
        M[:2, 0] = q - 1, 1
        M[:, 3] = 0
        if rows >= 4:
            M[-1] = M[0]
            M[-2] = f.vmul(max(1, q - 2), M[1])
        return f, M

    @pytest.mark.parametrize("q", KERNEL_QS[1:] + [243, 256])
    def test_few_rows_form_the_distinct_multiples(self, q, monkeypatch):
        # Fewer than q rows: no step updates q rows, so none reads the
        # table. Over GF(2) only a step that gathers one row does so.
        rows = min(q - 1, 12)
        for seed in range(2):
            f, M = self.awkward_matrix(q, rows, 14, seed=q + seed)
            R, pivots, distinct, fetched = self.reduce(f, M, monkeypatch)
            R_ref, pivots_ref = ref_rref(f, M)
            assert np.array_equal(R, R_ref) and pivots == pivots_ref, seed
            assert not fetched and distinct > 0, seed

    @pytest.mark.parametrize("q", KERNEL_QS + [243, 256])
    def test_many_rows_read_the_table(self, q, monkeypatch):
        # q + 4 rows, so a step that updates them all reads the table if
        # q <= 256; above it every step forms the distinct multiples.
        rows = q + 4 if q <= 256 else 40
        for seed in range(2):
            f, M = self.awkward_matrix(q, rows, 12, seed=q + seed)
            R, pivots, distinct, fetched = self.reduce(f, M, monkeypatch)
            R_ref, pivots_ref = ref_rref(f, M)
            assert np.array_equal(R, R_ref) and pivots == pivots_ref, seed
            if q <= 256:
                assert fetched and distinct < len(pivots), seed
            else:
                assert not fetched and distinct > 0, seed

    @pytest.mark.parametrize("q", KERNEL_QS + [243, 256])
    def test_many_rows_few_active_form_the_distinct_multiples(self, q, monkeypatch):
        # q + 4 rows of which two are nonzero: each step gathers at most
        # one row, fewer than q, so it forms the distinct multiples even
        # where the table is at hand.
        f, dense = self.awkward_matrix(q, 2, 12, seed=q)
        M = np.zeros((q + 4, 12), dtype=np.int32)
        M[[1, -2]] = dense
        R, pivots, distinct, fetched = self.reduce(f, M, monkeypatch)
        R_ref, pivots_ref = ref_rref(f, M)
        assert np.array_equal(R, R_ref) and pivots == pivots_ref
        assert fetched == (q <= 256) and distinct > 0

    @pytest.mark.parametrize("rows", [200, 260])
    def test_both_routes_across_the_reduction_interval(self, rows, monkeypatch):
        # Over GF(251) int16 digits are reduced every 32767 // 250 = 131
        # pivots; rank 140 crosses that once, with 200 rows (distinct
        # multiples) and with 260 (the table).
        f, M, R_expected, pivots_expected = known_rref_product(251, rows, 140, 150, seed=rows)
        R, pivots, distinct, fetched = self.reduce(f, M, monkeypatch)
        assert len(pivots) > np.iinfo(np.int16).max // (f.p - 1)
        assert np.array_equal(R, R_expected) and pivots == pivots_expected
        if rows < f.q:
            assert not fetched and distinct > len(pivots) // 2
        else:
            assert fetched and distinct < len(pivots) // 2

    def test_two_reductions_build_the_table_once(self):
        exactla._product_tables.cache_clear()
        f = field_make(7)
        for seed in range(2):
            M = random_matrix(7, 20, 20, seed=seed)
            assert_rref_matches_reference(f, M.a, seed)
        info = exactla._product_tables.cache_info()
        assert info.misses == 1 and info.hits == 1 and info.currsize == 1

    def test_import_builds_no_table(self):
        script = (
            "import prmhull\n"
            "from prmhull import exactla\n"
            "print(exactla._product_tables.cache_info().currsize)\n"
        )
        src = str(Path(exactla.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(x for x in paths if x))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


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
        # The float64 products are exact at any inner dimension, taken L
        # at a time; their lane sums are int64, so inner * (p-1)^2 must
        # stay below 2^63. The operands carry only a shape, so nothing is
        # allocated.
        f = field_make(65521)
        inner = (1 << 63) // (65520 * 65520) + 1
        with pytest.raises(DimensionMismatch):
            exactla._mat_mul_arrays(f, ShapeOnly((1, inner)), ShapeOnly((inner, 1)))

    def test_old_float64_bound_no_longer_binds(self):
        # inner * (p-1)^2 < 2^52 was the bound of one unpacked float64
        # product. One past it, and one past the first chunk of L inner
        # indices, all-(q-1) operands fill every lane to its bound.
        q = 65521
        f = field_make(q)
        L = exactla._product_plan(q, 1, 1)[2]
        for inner in ((1 << 52) // (65520 * 65520) + 1, L + 1):
            A = np.full((1, inner), q - 1, dtype=np.int32)
            B = np.full((inner, 1), q - 1, dtype=np.int32)
            got = exactla._mat_mul_arrays(f, A, B)
            assert got.tolist() == [[inner * (q - 1) ** 2 % q]], inner

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
        # large although each convolution digit, inner * 250^2 * 2, is far
        # below 2^63. The operands carry only a shape: a guard that let
        # them through would fail on them at once instead of allocating.
        f = field_make(251 * 251)
        inner = (1 << 63) // (250 * 250 * 2 * 251) + 1
        assert inner * 250 * 250 * 2 < 1 << 63
        with pytest.raises(DimensionMismatch):
            exactla._mat_mul_arrays(f, ShapeOnly((1, inner)), ShapeOnly((inner, 1)))

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_plan_boundaries_against_triple_loop(self, q):
        # Both sides of each inner dimension at which the packing changes g
        # or needs a second chunk of L. All-(q-1) operands fill every lane
        # to its bound; random ones mix digits across lanes. Over a prime
        # field the first chunk, (2^53 - 1) // (p-1)^2 inner indices, is
        # out of reach, and g is always 1.
        f = field_make(q)
        inners = plan_boundaries(f)
        assert bool(inners) == (f.e > 1)
        rng = np.random.default_rng(q)
        for inner in inners:
            for A, B in [
                (np.full((1, inner), q - 1), np.full((inner, 2), q - 1)),
                (rng.integers(0, q, size=(1, inner)), rng.integers(0, q, size=(inner, 2))),
            ]:
                assert np.array_equal(exactla._mat_mul_arrays(f, A, B), ref_matmul(f, A, B)), inner

    @pytest.mark.parametrize("q", KERNEL_QS)
    @pytest.mark.parametrize("step", [1, 5])
    def test_column_blocks_across_chunks(self, q, step, monkeypatch):
        # Blocks of `step` columns at an inner dimension past the first
        # chunk where one is within reach (two chunks of L), else at 70.
        f = field_make(q)
        L = exactla._product_plan(f.p, f.e, 70)[2]
        inner = L + 1 if L < 1000 else 70
        rng = np.random.default_rng(q * 13 + step)
        A = rng.integers(0, q, size=(3, inner)).astype(np.int32)
        B = rng.integers(0, q, size=(inner, 11)).astype(np.int32)
        monkeypatch.setattr(exactla, "_PRODUCT_COLUMNS", step)
        assert np.array_equal(exactla._mat_mul_arrays(f, A, B), ref_matmul(f, A, B))

    @pytest.mark.parametrize("p, e, inner", [(3, 2, 820), (2, 3, 585)])
    def test_sweep_products_pack_every_digit(self, p, e, inner):
        # The GF(9) and GF(8) products of the n = 3, k = 12 codes are one
        # packed plane per element: g = e.
        assert exactla._product_plan(p, e, inner)[0] == e

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
        with pytest.raises(ValueError, match="empty"):
            MatrixFq.from_text(" \n")
        with pytest.raises(ValueError, match="header"):
            MatrixFq.from_text("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "entry",
        [np.int64(2**32 + 1), 1.5, 2**40, 2**70],
        ids=["int64-2^32+1", "float-1.5", "int-2^40", "int-2^70"],
    )
    def test_matrix_rejects_entries_a_cast_would_change(self, entry):
        # a cast to int32 would wrap, truncate or overflow each of these,
        # so the values are checked as given
        with pytest.raises(ValueError, match="indices in 0..2"):
            MatrixFq(field_make(3), [[entry, 1]])

    def test_matrix_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatch):
            MatrixFq(field_make(3), [0, 1, 2])


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

    def test_vectors_of_another_length_raise(self):
        b = SubspaceBasis.from_matrix(MatrixFq(field_make(2), [[1, 0, 0], [0, 1, 0]]))
        with pytest.raises(DimensionMismatch):
            b.contains_rows(np.array([[1, 0]], dtype=np.int32))


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

    @pytest.mark.parametrize("q", [3, 8])
    def test_a_basis_summed_with_itself_forms_no_product(self, q, monkeypatch):
        a = SubspaceBasis.from_matrix(random_matrix(q, 4, 8, seed=q + 6))
        twin = SubspaceBasis.from_matrix(a.matrix)
        products = []
        real = exactla._mat_mul_arrays

        def spy(field, A, B):
            products.append(A.shape)
            return real(field, A, B)

        monkeypatch.setattr(exactla, "_mat_mul_arrays", spy)
        assert a + a is a and products == []
        assert a + twin is a and len(products) == 1

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
        assert everything.complement() == zero and nothing.complement() == whole
        for got in (everything, nothing):
            again = SubspaceBasis.from_matrix(got.matrix)
            assert got == again and got.pivots == again.pivots
        assert everything.pivots == tuple(range(6)) and nothing.dim == 0

    @pytest.mark.parametrize("q", [2, 3, 9])
    def test_second_call_returns_the_same_object(self, q):
        a = SubspaceBasis.from_matrix(random_matrix(q, 3, 7, seed=q))
        comp = a.complement()
        # No complement is linked, so each call forms an equal one afresh.
        assert a.complement() == comp
        # (V^⊥)^⊥ = V, so the complement's complement is the original.
        assert comp.complement() == a
        assert SubspaceBasis.from_matrix(comp.matrix).complement() == a
