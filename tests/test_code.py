"""Tests for generic linear-code operations (dual, hull, predicates)."""

from __future__ import annotations

import numpy as np
import pytest

from prmhull import code as code_module
from prmhull import exactla, field_make, sweep
from oracles import ref_orthogonal, ref_rowspace
from prmhull.code import (
    LinearCode,
    adopt_dual,
    code_from_rows,
    contains_vector,
    dual,
    equal_codes,
    hull,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
)
from prmhull.errors import DimensionMismatch, FieldMismatch, InternalInconsistency
from prmhull.exactla import MatrixFq, SubspaceBasis, mat_mul, transpose
from prmhull.geometry import evaluate_rows, projective_points
from prmhull.prm import classification_report, prm_code, verify_dual
from prmhull.sweep import SweepSpec, run_sweep


def make_code(field, rows, label=""):
    return LinearCode(MatrixFq(field, np.array(rows, dtype=np.int32)), label=label)


def tetracode():
    # Self-dual [4, 2] code over F_3.
    return make_code(field_make(3), [[1, 1, 1, 0], [0, 1, 2, 1]], label="tetracode")


def random_code(field, K, N, rng):
    # Spanning rows may be dependent; canonicalization fixes the dimension.
    rows = rng.integers(0, field.q, size=(K, N))
    return code_from_rows(field, rows)


# ---------------------------------------------------------------------------
# construction


def test_generator_kept_as_given():
    C = tetracode()
    assert C.G.a.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    assert (C.N, C.K) == (4, 2)


def test_dependent_rows_rejected():
    f3 = field_make(3)
    with pytest.raises(DimensionMismatch):
        make_code(f3, [[1, 2, 0], [2, 1, 0]])  # row 2 = 2 * row 1


def test_code_from_rows_canonicalizes():
    f2 = field_make(2)
    C = code_from_rows(f2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert C.K == 2
    assert C.N == 3


# ---------------------------------------------------------------------------
# dual


def test_dual_dimension_and_orthogonality():
    rng = np.random.default_rng(7)
    for q in [2, 3, 4, 5, 9]:
        f = field_make(q)
        for _ in range(5):
            C = random_code(f, rng.integers(1, 5), rng.integers(4, 9), rng)
            D = dual(C)
            assert D.K == C.N - C.K
            assert not mat_mul(C.G, transpose(D.G)).a.any()


def test_dual_involution():
    rng = np.random.default_rng(11)
    for q in [2, 3, 4, 5, 7, 9]:
        f = field_make(q)
        for _ in range(8):
            C = random_code(f, rng.integers(1, 6), rng.integers(3, 10), rng)
            assert equal_codes(dual(dual(C)), C)


def test_dual_of_full_space_is_zero_code():
    f5 = field_make(5)
    C = make_code(f5, np.eye(4, dtype=np.int32))
    D = dual(C)
    assert D.K == 0
    assert D.N == 4


def test_tetracode_is_its_own_dual():
    C = tetracode()
    assert equal_codes(dual(C), C)


def test_dual_rejects_wrong_complement(monkeypatch):
    # dual() checks the complement it forms; both invariants must raise
    # (not assert), so the checks also run under python -O.
    C = make_code(field_make(5), [[1, 2, 3, 4]])
    not_orthogonal = SubspaceBasis.from_matrix(MatrixFq(C.field, [[1, 0, 0, 0]]))
    monkeypatch.setattr(SubspaceBasis, "complement", lambda self: not_orthogonal)
    with pytest.raises(InternalInconsistency, match="orthogonal"):
        dual(C)
    too_small = SubspaceBasis.from_matrix(MatrixFq(C.field, [[3, 1, 0, 0]]))
    monkeypatch.setattr(SubspaceBasis, "complement", lambda self: too_small)
    with pytest.raises(InternalInconsistency, match="dimension"):
        dual(C)


def test_dual_links_a_complement_only_once_it_is_proven(monkeypatch):
    # A formed complement that fails its proof is linked to nothing: a
    # second dual(C) forms and proves again instead of returning it.
    f5 = field_make(5)
    C = make_code(f5, [[1, 2, 3, 4]])
    not_orthogonal = SubspaceBasis.from_matrix(MatrixFq(f5, np.eye(3, 4, dtype=np.int32)))
    monkeypatch.setattr(SubspaceBasis, "complement", lambda self: not_orthogonal)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="orthogonal"):
            dual(C)
        assert not C.canonical().complement_known()
        assert not not_orthogonal.complement_known()
    monkeypatch.undo()
    D = dual(C)
    assert C.canonical().complement() is D.canonical()
    assert ref_rowspace(f5, D.G.a) == ref_orthogonal(f5, C.G.a)


def test_adopt_dual_rejects_a_basis_that_is_not_the_dual():
    # A candidate must be orthogonal to C and of dimension N - K; one that
    # fails either test is not linked, and dual(C) still forms the
    # complement.
    f5 = field_make(5)
    C = make_code(f5, [[1, 2, 3, 4]])
    not_orthogonal = SubspaceBasis.from_matrix(MatrixFq(f5, [[1, 0, 0, 0]]))
    too_small = SubspaceBasis.from_matrix(MatrixFq(f5, [[3, 1, 0, 0]]))
    for candidate in (not_orthogonal, too_small):
        assert not adopt_dual(C, candidate)
        assert not C.canonical().complement_known() and not candidate.complement_known()
    assert ref_rowspace(f5, dual(C).G.a) == ref_orthogonal(f5, C.G.a)


def test_adopt_dual_caches_a_proven_dual_and_links_complements():
    f5 = field_make(5)
    C = make_code(f5, [[1, 2, 3, 4]], label="c")
    basis = SubspaceBasis.from_matrix(MatrixFq(f5, [[3, 1, 0, 0], [2, 0, 1, 0], [1, 0, 0, 1]]))
    assert adopt_dual(C, basis)
    D = dual(C)
    assert D.canonical() is basis and D.label == "dual(c)"
    assert C.canonical().complement() is basis and basis.complement() is C.canonical()
    # With the dual known, a candidate is compared with it.
    assert adopt_dual(C, SubspaceBasis.from_matrix(basis.matrix))
    assert not adopt_dual(C, SubspaceBasis.from_matrix(MatrixFq(f5, [[3, 1, 0, 0]])))
    assert dual(C).canonical() is basis


def test_adopt_dual_keeps_a_complement_already_formed(monkeypatch):
    # A complement formed by a read is linked to nothing, so it stands in
    # for no proof: adopt_dual proves the candidate by G·B^T = 0 and links
    # the candidate itself.
    f5 = field_make(5)
    C = make_code(f5, [[1, 2, 3, 4]])
    formed = C.canonical().complement()
    assert not C.canonical().complement_known() and not formed.complement_known()
    basis = SubspaceBasis.from_matrix(formed.matrix)
    products = []
    real_mul = exactla._mat_mul_arrays

    def spy(field, A, B):
        products.append((A.shape, B.shape))
        return real_mul(field, A, B)

    monkeypatch.setattr(exactla, "_mat_mul_arrays", spy)
    assert adopt_dual(C, basis)
    assert products == [((1, 4), (4, 3))]
    assert dual(C).canonical() is basis
    assert C.canonical().complement() is basis and basis.complement() is C.canonical()


def test_adopt_dual_of_its_own_basis_reads_the_gram_matrix(monkeypatch):
    # At the self-dual sweep point (3, 12, 9) the described dual is C
    # itself: adopting C's canonical basis reads orthogonality from G G^T,
    # which the hull needs anyway, and the dual code, on the same row space,
    # reads the Gram rank C took, so the point forms one 410 x 820 x 410
    # product (C's Gram matrix), not three.
    shapes = []
    real_mul = exactla._mat_mul_arrays

    def spy(field, A, B):
        shapes.append((A.shape, B.shape))
        return real_mul(field, A, B)

    monkeypatch.setattr(exactla, "_mat_mul_arrays", spy)
    rows, _ = run_sweep(SweepSpec((3,), (9,), (12,)))
    assert rows[0]["agree"] and rows[0]["constructed"]["hull_dim"] == 410
    assert shapes.count(((410, 820), (820, 410))) == 1


def test_mirrored_sweep_point_reads_the_linked_dual(monkeypatch):
    # Over GF(5) on P^2, points k = 3 and k = 5 are each other's described
    # dual. Point 3 proves C(5) to be C(3)^⊥ by G·B^T = 0 and links the two
    # canonical bases; point 5 compares its candidate with that link and
    # forms no second orthogonality product. Each point's dual code is the
    # other point's code, so point 5 forms no Gram matrix either: it reads
    # the Gram ranks point 3 took on the two row spaces.
    shapes = []
    real_mul = exactla._mat_mul_arrays

    def spy(field, A, B):
        shapes.append((A.shape, B.shape))
        return real_mul(field, A, B)

    separate = [run_sweep(SweepSpec((2,), (5,), (k,)))[0][0] for k in (3, 5)]
    monkeypatch.setattr(exactla, "_mat_mul_arrays", spy)
    rows, _ = run_sweep(SweepSpec((2,), (5,), (3, 5)))
    assert rows == separate
    assert len(shapes) == 11
    proofs = [s for s in shapes if s in (((10, 31), (31, 21)), ((21, 31), (31, 10)))]
    assert len(proofs) == 1


def test_dual_proves_a_complement_formed_by_an_earlier_read(monkeypatch):
    # Reading the complement of C's canonical basis links nothing, so a
    # later dual(C) still proves what it forms before taking it as C^⊥.
    C = prm_code(field_make(5), 2, 3)
    C.canonical().complement()
    faults = []
    real_fault = code_module._dual_fault

    def spy(C, basis):
        faults.append(basis)
        return real_fault(C, basis)

    monkeypatch.setattr(code_module, "_dual_fault", spy)
    D = dual(C)
    assert faults == [D.canonical()]
    assert C.canonical().complement() is D.canonical()


def test_mirrored_sweep_point_ranks_no_gram_matrix(monkeypatch):
    # Over GF(5) on P^2, point 5's code and dual code are point 3's dual
    # code and code, on the same two row spaces: it reads both Gram ranks
    # point 3 took, since every generator of a row space gives one rank.
    # Run alone, each point ranks its own two Gram matrices.
    separate = [run_sweep(SweepSpec((2,), (5,), (k,)))[0][0] for k in (3, 5)]
    ranked = []
    real_rank = code_module.rank

    def spy(M):
        ranked.append(M.rows)
        return real_rank(M)

    real_row = sweep._sweep_row
    per_point = []

    def counting_row(*args):
        start = len(ranked)
        row = real_row(*args)
        per_point.append((row["k"], ranked[start:]))
        return row

    monkeypatch.setattr(code_module, "rank", spy)
    monkeypatch.setattr(sweep, "_sweep_row", counting_row)
    rows, _ = run_sweep(SweepSpec((2,), (5,), (3, 5)))
    assert rows == separate and all(row["agree"] for row in rows)
    assert per_point == [(3, [10, 21]), (5, [])]


def test_adopt_dual_of_its_own_basis_needs_a_self_orthogonal_code():
    # C's own canonical basis has N - K rows when 2K = N, but it is C^⊥
    # only if G G^T = 0; otherwise nothing is linked.
    f5 = field_make(5)
    C = make_code(f5, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert C.gram().a.any() and 2 * C.K == C.N
    assert not adopt_dual(C, C.canonical())
    assert not C.canonical().complement_known()
    assert ref_rowspace(f5, dual(C).G.a) == ref_orthogonal(f5, C.G.a)
    T = tetracode()
    assert adopt_dual(T, T.canonical()) and dual(T).canonical() is T.canonical()


# ---------------------------------------------------------------------------
# hull


def test_hull_of_self_dual_code_is_whole_code():
    C = tetracode()
    rep = hull(C)
    assert rep.hull_dim == C.K == 2
    assert rep.gram_rank == 0
    assert rep.hull_basis == C.canonical()


def test_hull_rows_lie_in_code_and_dual():
    rng = np.random.default_rng(23)
    for q in [2, 3, 4, 5]:
        f = field_make(q)
        for _ in range(6):
            C = random_code(f, rng.integers(2, 6), rng.integers(5, 10), rng)
            rep = hull(C)
            if rep.hull_dim:
                assert C.canonical().contains_rows(rep.hull_basis.matrix.a)
                assert dual(C).canonical().contains_rows(rep.hull_basis.matrix.a)
            assert rep.hull_dim == C.K - rep.gram_rank


def test_hull_agrees_with_hull_of_dual():
    # C ∩ C^⊥ is symmetric in C and its dual.
    rng = np.random.default_rng(31)
    for q in [2, 3, 5, 9]:
        f = field_make(q)
        for _ in range(5):
            C = random_code(f, rng.integers(2, 5), rng.integers(5, 9), rng)
            assert hull(C).hull_basis == hull(dual(C)).hull_basis


def test_projective_line_code_hull():
    # Degree-1 functions on the projective plane over F_5: [31, 3] code
    # with a hull strictly between the zero space and the whole code.
    f5 = field_make(5)
    P = projective_points(f5, 2)
    G = evaluate_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], P)
    C = LinearCode(MatrixFq(f5, G))
    rep = hull(C)
    assert (C.N, C.K) == (31, 3)
    assert rep.gram_rank == 1
    assert rep.hull_dim == 2
    assert not is_self_orthogonal(C)
    assert not is_lcd(C)


def test_predicates_on_fresh_codes_row_reduce_nothing(monkeypatch):
    # G G^T is tested for zero, and K against N/2 first; once hull() has
    # ranked G G^T, the predicates read that rank. (3, 5, 9) has 2K != N;
    # (2, 1, 3) is self-orthogonal but not self-dual.
    cases = [(tetracode(), True, True)]
    for n, k, q, self_orth in [(2, 1, 5, False), (2, 1, 3, True), (3, 5, 9, False)]:
        cases.append((prm_code(field_make(q), n, k), self_orth, False))
    calls = []
    real_rref = exactla._rref_array

    def spy(field, A):
        calls.append(A.shape)
        return real_rref(field, A)

    monkeypatch.setattr(exactla, "_rref_array", spy)
    for C, self_orth, self_dual in cases:
        assert (is_self_orthogonal(C), is_self_dual(C)) == (self_orth, self_dual), C
    assert calls == []
    monkeypatch.setattr(exactla, "_rref_array", real_rref)
    for C, _, _ in cases:
        hull(C)
    monkeypatch.setattr(exactla, "_rref_array", spy)
    for C, self_orth, self_dual in cases:
        assert (is_self_orthogonal(C), is_self_dual(C)) == (self_orth, self_dual), C
    assert calls == []


@pytest.mark.parametrize("n,k,q", [(3, 3, 3), (2, 3, 5), (2, 4, 4), (2, 2, 7)])
def test_hull_reduces_no_stacked_block(monkeypatch, n, k, q):
    # C + C^⊥ is summed from the two canonical bases, so no row reduction
    # inside hull() sees more rows than the larger of C and C^⊥; the
    # N x N stack [G; H] would have N rows. (3, 3, 3) is the self-dual
    # [40, 20] code, whose hull needs no reduction beyond its dual and
    # Gram matrix.
    C = prm_code(field_make(q), n, k)
    rows = []
    real_rref = exactla._rref_array

    def spy(field, A):
        rows.append(A.shape[0])
        return real_rref(field, A)

    monkeypatch.setattr(exactla, "_rref_array", spy)
    rep = hull(C)
    assert rows and max(rows) <= max(C.K, C.N - C.K)
    assert rep.hull_dim == C.K - rep.gram_rank
    if (n, k, q) == (3, 3, 3):
        assert (C.N, C.K, rep.hull_dim) == (40, 20, 20)
        assert rep.hull_basis is dual(C).canonical() and len(rows) == 2


def test_hull_of_self_dual_code_after_adopted_dual_reduces_only_gram(monkeypatch):
    # Once the sweep's duality check has adopted the [40, 20, 9] code's
    # own canonical basis as its dual, C + C^⊥ is that basis, and so is
    # its complement: hull() row-reduces only the all-zero G G^T, and
    # reading the hull basis reduces nothing.
    C = prm_code(field_make(3), 3, 3)
    assert verify_dual(C, C) == (True, None)
    assert dual(C).canonical() is C.canonical()
    calls = []
    real_rref = exactla._rref_array

    def spy(field, A):
        calls.append(A.copy())
        return real_rref(field, A)

    monkeypatch.setattr(exactla, "_rref_array", spy)
    rep = hull(C)
    assert len(calls) == 1 and calls[0].shape == (20, 20) and not calls[0].any()
    assert rep.hull_basis is C.canonical() and len(calls) == 1
    assert (rep.hull_dim, rep.gram_rank) == (20, 0)


def test_hull_basis_is_row_reduced_only_when_read(monkeypatch):
    # At (3, 12, 7) neither C ⊆ C^⊥ nor C^⊥ ⊆ C, so the hull basis is the
    # complement of a sum S = C + C^⊥ that is neither canonical basis, and
    # forming it row-reduces S's free-column basis: an identity in the
    # columns outside S's pivots. Classification reads only the hull
    # dimension, N - dim S, and never forms it.
    f = field_make(7)
    seen = []
    real_rref = exactla._rref_array

    def spy(field, A):
        seen.append(A.copy())
        return real_rref(field, A)

    monkeypatch.setattr(exactla, "_rref_array", spy)
    report = classification_report(f, 3, 12)
    classified = len(seen)
    C = prm_code(f, 3, 12)
    S = C.canonical() + dual(C).canonical()
    free = sorted(set(range(C.N)) - set(S.pivots))
    assert 0 < len(free) == report.constructed["hull_dim"] < min(C.K, C.N - C.K)

    def is_free_column_basis(A):
        return A.shape == (len(free), C.N) and np.array_equal(
            A[:, free], np.eye(len(free), dtype=A.dtype)
        )

    assert not any(is_free_column_basis(A) for A in seen[:classified])
    rep = hull(C)
    start = len(seen)
    basis = rep.hull_basis
    assert len(seen) == start + 1 and is_free_column_basis(seen[-1])
    assert basis.dim == rep.hull_dim
    assert rep.hull_basis is basis and len(seen) == start + 1  # cached


def test_hull_raises_when_its_two_routes_disagree(monkeypatch):
    C = tetracode()
    monkeypatch.setattr(LinearCode, "gram_rank", lambda self: 1)
    with pytest.raises(InternalInconsistency, match="hull dim 2 != K - rank"):
        hull(C)


def test_hull_report_json():
    rep = hull(tetracode())
    d = rep.to_json()
    assert d == {"hull_dim": 2, "gram_rank": 0}
    d2 = rep.to_json(basis_monomials=[(1, 0, 2), (0, 1, 1)])
    assert d2["basis_monomials"] == ["1,0,2", "0,1,1"]


# ---------------------------------------------------------------------------
# predicates


def test_tetracode_predicates():
    C = tetracode()
    assert is_self_dual(C)
    assert is_self_orthogonal(C)
    assert not is_lcd(C)


def test_binary_repetition_inside_even_weight():
    f2 = field_make(2)
    rep4 = make_code(f2, [[1, 1, 1, 1]])
    assert is_self_orthogonal(rep4)
    assert not is_self_dual(rep4)  # K = 1 != N/2
    even4 = dual(rep4)
    assert even4.K == 3
    assert contains_vector(even4, [1, 1, 1, 1])


def test_lcd_example():
    # G = [I | I] over F_3 has Gram 2I, which is invertible.
    f3 = field_make(3)
    C = make_code(f3, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert is_lcd(C)
    assert hull(C).hull_dim == 0
    assert not is_self_orthogonal(C)


def test_predicates_match_subspace_definitions():
    rng = np.random.default_rng(41)
    for q in [2, 3, 4, 5, 7]:
        f = field_make(q)
        for _ in range(8):
            C = random_code(f, rng.integers(1, 5), rng.integers(3, 9), rng)
            D = dual(C)
            h = hull(C).hull_dim
            # Self-orthogonal means C is a subspace of its dual.
            assert is_self_orthogonal(C) == D.canonical().contains_rows(C.G.a)
            assert is_self_orthogonal(C) == (h == C.K)
            assert is_lcd(C) == (h == 0)
            assert is_self_dual(C) == equal_codes(C, D)


def test_zero_code_predicates():
    f3 = field_make(3)
    Z = dual(make_code(f3, np.eye(3, dtype=np.int32)))
    assert Z.K == 0
    assert is_self_orthogonal(Z)
    assert is_lcd(Z)
    assert not is_self_dual(Z)


# ---------------------------------------------------------------------------
# membership and equality


def test_contains_vector_on_rows_and_combinations():
    C = tetracode()
    f3 = C.field
    assert contains_vector(C, [1, 1, 1, 0])
    assert contains_vector(C, [0, 1, 2, 1])
    # 2 * row0 + row1
    combo = f3.vadd(f3.vmul(2, C.G.a[0]), C.G.a[1])
    assert contains_vector(C, combo)
    assert contains_vector(C, [0, 0, 0, 0])
    assert not contains_vector(C, [1, 0, 0, 0])


def test_contains_vector_length_check():
    with pytest.raises(DimensionMismatch):
        contains_vector(tetracode(), [1, 0, 0])


def test_contains_vector_rejects_entries_outside_the_field():
    # 4 is not an element index of GF(3); it must not be read as 4 mod 3 = 1.
    with pytest.raises(ValueError):
        contains_vector(tetracode(), [4, 1, 1, 0])
    # nor 2^32 + 1 as its int32 wrap 1, which would make this a codeword
    v = np.array([1, 1, 1, 0], dtype=np.int64)
    assert contains_vector(tetracode(), v)
    v[0] += 2**32
    with pytest.raises(ValueError):
        contains_vector(tetracode(), v)


def test_equal_codes_ignores_basis_choice():
    f3 = field_make(3)
    A = make_code(f3, [[1, 1, 1, 0], [0, 1, 2, 1]])
    B = make_code(f3, [[1, 2, 0, 1], [2, 0, 1, 1]])  # different spanning rows
    assert equal_codes(A, B)
    C = make_code(f3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not equal_codes(A, C)


def test_equal_codes_error_paths():
    f3, f5 = field_make(3), field_make(5)
    A = make_code(f3, [[1, 0, 0]])
    with pytest.raises(FieldMismatch):
        equal_codes(A, make_code(f5, [[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        equal_codes(A, make_code(f3, [[1, 0, 0, 0]]))


def test_gram_matrix_values():
    C = tetracode()
    assert C.gram().a.tolist() == [[0, 0], [0, 0]]
    f3 = field_make(3)
    C2 = make_code(f3, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert C2.gram().a.tolist() == [[2, 0], [0, 2]]
    assert C2.gram_rank() == 2
