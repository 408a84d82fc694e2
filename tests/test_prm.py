"""Tests for projective Reed-Muller construction and closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import ref_weight_distribution
from prmhull import field_make, prm
from prmhull.code import contains_vector, dual, equal_codes, hull
from prmhull.errors import InternalInconsistency, OutOfRange
from prmhull.exactla import SubspaceBasis
from prmhull.geometry import num_projective_points, reduced_basis_monomials
from prmhull.prm import (
    NO_CLOSED_FORM,
    DualDescription,
    PrmParams,
    check_hull_basis,
    classification_report,
    classify_predicted,
    described_dual_code,
    dim_mr,
    dim_sorensen,
    dual_description,
    hull_basis_predicted,
    hull_dim_cases,
    hull_dim_predicted,
    lcd_witness,
    min_dist_formula,
    prm_code,
    rsj_hull_dim,
    verify_dual,
)
from prmhull.sweep import SweepSpec, run_sweep

# Small parameter grid used by several theorem checks: every admissible k.
GRID = [(n, q) for q in (2, 3, 4, 5) for n in (1, 2)] + [(3, 2), (3, 3)]


def all_k(n, q):
    return range(1, n * (q - 1) + 1)


# ---------------------------------------------------------------------------
# dimension formulas


def test_dimension_known_codes():
    assert dim_sorensen(1, 1, 3) == 2  # [4, 2, 3]
    assert dim_sorensen(3, 3, 3) == 20  # [40, 20, 9]
    assert dim_sorensen(2, 2, 5) == 6  # [31, 6, 20]
    assert dim_sorensen(2, 1, 3) == 3  # [13, 3, 9]
    assert dim_sorensen(1, 2, 5) == 3  # [6, 3, 4]


def test_dim_mr_equals_dim_sorensen():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (1, 2, 3):
            for k in all_k(n, q):
                assert dim_mr(n, k, q) == dim_sorensen(n, k, q), (n, k, q)


def test_dim_small_degree_is_binomial():
    # For k < q the correction sum vanishes.
    for q in (4, 5, 9):
        for n in (1, 2, 3):
            for k in range(1, q):
                assert dim_mr(n, k, q) == math.comb(n + k, k)


def test_dim_matches_reduced_monomial_count():
    for n, q in GRID:
        for k in all_k(n, q):
            assert dim_sorensen(n, k, q) == len(reduced_basis_monomials(n, k, q))


def test_dim_strictly_increasing_in_k():
    for n, q in GRID:
        dims = [dim_sorensen(n, k, q) for k in all_k(n, q)]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == num_projective_points(q, n) - 1


def test_dim_out_of_range():
    for bad_k in (0, -1, 7):
        with pytest.raises(OutOfRange):
            dim_sorensen(2, bad_k, 4)  # n(q-1) = 6
        with pytest.raises(OutOfRange):
            dim_mr(2, bad_k, 4)


# ---------------------------------------------------------------------------
# minimum distance formula


def test_min_dist_known_codes():
    assert min_dist_formula(2, 1, 3) == 9
    assert min_dist_formula(3, 3, 3) == 9
    assert min_dist_formula(1, 2, 5) == 4
    assert min_dist_formula(1, 1, 3) == 3


def test_min_dist_small_degree_reduction():
    for q in (3, 5, 8):
        for n in (1, 2):
            for k in range(1, q):
                assert min_dist_formula(n, k, q) == (q - k + 1) * q ** (n - 1)


def test_min_dist_formula_vs_exhaustive_search():
    # Brute-force the minimum weight on codes small enough to enumerate.
    cases = [(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4), (2, 1, 5)]
    for n, k, q in cases:
        f = field_make(q)
        C = prm_code(f, n, k)
        counts = ref_weight_distribution(f, C.G.a)
        measured = next(w for w in range(1, C.N + 1) if counts[w])
        assert measured == min_dist_formula(n, k, q), (n, k, q)


def test_min_dist_lcd_point_is_two():
    # k = n(q-1) gives the dual of the span of 1, distance 2.
    assert min_dist_formula(2, 4, 3) == 2
    assert min_dist_formula(1, 8, 9) == 2


# ---------------------------------------------------------------------------
# construction


def test_projective_line_code_is_tetracode():
    C = prm_code(field_make(3), 1, 1)
    assert (C.N, C.K) == (4, 2)
    assert C.G.a.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    assert C.monomials == ((1, 0), (0, 1))


def test_known_parameters_constructed():
    for n, k, q, N, K in [(3, 3, 3, 40, 20), (2, 2, 5, 31, 6), (2, 1, 3, 13, 3), (1, 2, 5, 6, 3)]:
        C = prm_code(field_make(q), n, k)
        assert (C.N, C.K) == (N, K), (n, k, q)


def test_degree_zero_is_span_of_ones():
    C = prm_code(field_make(4), 2, 0)
    assert C.K == 1
    assert not np.any(C.G.a != 1)
    assert C.monomials == ((0, 0, 0),)


def test_large_degree_gives_full_space():
    for n, k, q in [(1, 3, 3), (1, 9, 4), (2, 5, 2)]:
        C = prm_code(field_make(q), n, k)
        assert C.K == C.N == num_projective_points(q, n)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 16])
def test_degree_zero_evaluates_the_constant_monomial(q):
    for n in (1, 2, 3):
        C = prm_code(field_make(q), n, 0)
        assert C.G.a.dtype == np.int32 and C.G.a.shape == (1, num_projective_points(q, n))
        assert (C.G.a == 1).all() and C.monomials == ((0,) * (n + 1),)


def test_dependent_evaluations_are_an_internal_inconsistency(monkeypatch):
    real = prm.evaluate_rows

    def duplicated(monos, P):
        rows = real(monos, P)
        rows[-1] = rows[0]
        return rows

    monkeypatch.setattr(prm, "evaluate_rows", duplicated)
    with pytest.raises(InternalInconsistency, match="monomial evaluations are dependent"):
        prm_code(field_make(3), 2, 1)


@pytest.mark.parametrize("k,K", [(0, 1), (1, 3), (5, 13)])
def test_rank_is_checked_against_the_closed_form_in_every_regime(monkeypatch, k, K):
    real = prm.PrmParams.KD
    monkeypatch.setattr(prm.PrmParams, "KD", lambda self: (real(self)[0] + 1, real(self)[1]))
    with pytest.raises(
        InternalInconsistency,
        match=rf"constructed rank {K} != formula dimension {K + 1} at n=2, k={k}, q=3",
    ):
        prm_code(field_make(3), 2, k)


def test_construction_rank_matches_formula_on_grid():
    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            C = prm_code(f, n, k)
            assert C.K == dim_sorensen(n, k, q)


def test_prm_code_rejects_bad_parameters():
    f = field_make(3)
    with pytest.raises(OutOfRange):
        prm_code(f, 0, 1)
    with pytest.raises(OutOfRange):
        prm_code(f, 2, -1)


# ---------------------------------------------------------------------------
# duality


def test_dual_description_examples():
    assert dual_description(2, 1, 3) == DualDescription(ell=3, adjoin_ones=False)
    assert dual_description(2, 2, 3) == DualDescription(ell=2, adjoin_ones=True)
    assert dual_description(2, 4, 3) == DualDescription(ell=0, adjoin_ones=True)
    with pytest.raises(OutOfRange):
        dual_description(2, 5, 3)


def test_dual_matches_description_on_grid():
    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            assert equal_codes(dual(prm_code(f, n, k)), described_dual_code(f, n, k)), (n, k, q)


def test_ones_vector_outside_code_in_adjoin_cases():
    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            desc = dual_description(n, k, q)
            if desc.adjoin_ones and desc.ell >= 1:
                base = prm_code(f, n, desc.ell)
                assert not contains_vector(base, np.ones(base.N, dtype=np.int32))


def test_verify_dual_on_grid():
    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            desc = dual_description(n, k, q)
            verified, ones_outside = verify_dual(prm_code(f, n, k), prm_code(f, n, desc.ell))
            assert verified, (n, k, q)
            assert ones_outside is (True if desc.adjoin_ones and desc.ell >= 1 else None)


def test_verify_dual_reads_ones_outside_off_the_adjoin_sum():
    # The all-ones word lies outside base exactly when adjoining it raises
    # the dimension; contains_vector decides the same membership directly.
    points = 0
    for n, q in GRID:
        if n > 2:
            continue
        f = field_make(q)
        for k in all_k(n, q):
            desc = dual_description(n, k, q)
            if not (desc.adjoin_ones and desc.ell >= 1):
                continue
            base = prm_code(f, n, desc.ell)
            _, ones_outside = verify_dual(prm_code(f, n, k), base)
            assert ones_outside == (not contains_vector(base, np.ones(base.N, dtype=np.int32)))
            points += 1
    assert points > 0


def test_verify_dual_forms_no_complement(monkeypatch):
    # The described dual is proven C^⊥ by orthogonality and dimension, so
    # no complement is formed, and dual(C) then returns its basis: every
    # complement read finds one already linked.
    unlinked = []
    real_complement = SubspaceBasis.complement

    def spy(self):
        if not self.complement_known():
            unlinked.append(self)
        return real_complement(self)

    monkeypatch.setattr(SubspaceBasis, "complement", spy)
    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            C = prm_code(f, n, k)
            assert verify_dual(C, prm_code(f, n, n * (q - 1) - k))[0], (n, k, q)
            assert C.canonical().complement_known(), (n, k, q)
            dual(C)  # found linked, so it forms no complement either
    assert unlinked == []


def test_verify_dual_rejects_a_wrong_described_dual(monkeypatch):
    # The degree-(ell + 1) code is not C^⊥; the check fails, links
    # nothing, and dual(C) falls back to the complement.
    f = field_make(5)
    C, base = prm_code(f, 2, 2), prm_code(f, 2, 6)
    monkeypatch.setattr(
        prm, "_described_dual", lambda b, adjoin: prm_code(b.field, b.n, b.k + 1)
    )
    assert verify_dual(C, base)[0] is False
    assert not C.canonical().complement_known()
    assert dual(C).canonical() == base.canonical()


def test_verify_dual_rejects_a_base_of_another_degree():
    f = field_make(3)
    with pytest.raises(OutOfRange):
        verify_dual(prm_code(f, 2, 1), prm_code(f, 2, 1))  # the dual side has degree 3


def test_dual_of_maximal_degree_is_span_of_ones():
    f = field_make(4)
    D = dual(prm_code(f, 2, 6))
    assert equal_codes(D, prm_code(f, 2, 0))


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify_predicted(3, 3, 3) == {
        "self_dual": True,
        "self_orthogonal": True,
        "lcd": False,
    }
    c = classify_predicted(2, 2, 5)
    assert c["self_orthogonal"] and not c["self_dual"] and not c["lcd"]
    c = classify_predicted(2, 4, 3)
    assert c["lcd"] and not c["self_orthogonal"]


def test_classify_matches_constructed_on_grid():
    from prmhull.code import is_lcd, is_self_dual, is_self_orthogonal

    for n, q in GRID:
        f = field_make(q)
        for k in all_k(n, q):
            pred = classify_predicted(n, k, q)
            C = prm_code(f, n, k)
            assert pred["self_dual"] == is_self_dual(C), (n, k, q)
            assert pred["self_orthogonal"] == is_self_orthogonal(C), (n, k, q)
            assert pred["lcd"] == is_lcd(C), (n, k, q)


def test_never_self_dual_over_even_fields():
    for q in (2, 4):
        for n in (1, 2, 3):
            for k in all_k(n, q):
                assert not classify_predicted(n, k, q)["self_dual"]


# ---------------------------------------------------------------------------
# hull dimension closed forms


def test_hull_dim_small_degree():
    # q > 2k+1: one less than the code dimension.
    assert hull_dim_predicted(2, 1, 5) == 2
    assert hull_dim_predicted(3, 1, 4) == 3
    assert hull_dim_predicted(2, 2, 7) == dim_sorensen(2, 2, 7) - 1


def test_hull_dim_self_dual_point_is_whole_code():
    assert hull_dim_predicted(3, 3, 3) == 20
    assert hull_dim_predicted(1, 4, 9) == 5


def test_hull_dim_lcd_point_is_zero():
    assert hull_dim_predicted(2, 4, 3) == 0
    assert hull_dim_predicted(1, 8, 9) == 0


def test_hull_dim_mid_range():
    # (q-1)/2 < k < q-1: K - (2k+1-(q-1)).
    assert hull_dim_predicted(2, 2, 4) == math.comb(4, 2) - 2
    assert hull_dim_predicted(2, 3, 5) == math.comb(5, 3) - 3


def test_disagreeing_hull_cases_are_an_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(prm, "hull_dim_cases", lambda n, k, q: (("a", 1), ("b", 2)))
    with pytest.raises(InternalInconsistency, match="overlapping hull cases disagree"):
        hull_dim_predicted(2, 1, 3)


def test_hull_dim_no_closed_form_gap():
    # q-1 < k < 3(q-1)/2 (and its mirror image) is the first open range.
    assert hull_dim_predicted(3, 4, 4) is NO_CLOSED_FORM
    assert hull_dim_predicted(3, 5, 4) is NO_CLOSED_FORM
    assert hull_dim_predicted(3, 2, 2) is NO_CLOSED_FORM


def test_hull_dim_closed_on_whole_plane_range():
    # For n = 2 the six cases cover every k, so nothing is left open.
    for q in (3, 4, 5, 7, 9):
        for k in range(1, 2 * (q - 1) + 1):
            assert hull_dim_predicted(2, k, q) is not NO_CLOSED_FORM, (k, q)


def test_hull_dim_matches_constructed_on_grid():
    extra = [(2, 7), (2, 8), (2, 9)]
    for n, q in GRID + extra:
        f = field_make(q)
        for k in all_k(n, q):
            predicted = hull_dim_predicted(n, k, q)
            measured = hull(prm_code(f, n, k)).hull_dim
            if predicted is not NO_CLOSED_FORM:
                assert predicted == measured, (n, k, q)


# q = 257 lies above the sweep grid; n = 1 codes have length 258.
BIG_Q_DEGREES = [1, 100, 128, 200]


@pytest.mark.parametrize("k", BIG_Q_DEGREES)
def test_classification_and_hull_both_ways_at_q257(k):
    f = field_make(257)
    assert classification_report(f, 1, k).agree
    predicted = hull_dim_predicted(1, k, 257)
    assert predicted is not NO_CLOSED_FORM
    assert hull(prm_code(f, 1, k)).hull_dim == predicted


@pytest.mark.parametrize("k", BIG_Q_DEGREES)
def test_dual_matches_description_at_q257(k):
    f = field_make(257)
    assert equal_codes(dual(prm_code(f, 1, k)), described_dual_code(f, 1, k))


def test_rsj_matches_measured_hull_on_plane():
    for q in (3, 4, 5, 7):
        f = field_make(q)
        for k in range(1, 2 * (q - 1) + 1):
            assert rsj_hull_dim(k, q) == hull(prm_code(f, 2, k)).hull_dim, (k, q)


def test_rsj_agrees_with_closed_forms():
    for q in (4, 5, 7, 8, 9, 11, 13):
        for k in range(1, 2 * (q - 1) + 1):
            predicted = hull_dim_predicted(2, k, q)
            if predicted is not NO_CLOSED_FORM:
                assert predicted == rsj_hull_dim(k, q), (k, q)


def test_rsj_out_of_range():
    with pytest.raises(OutOfRange):
        rsj_hull_dim(0, 5)
    with pytest.raises(OutOfRange):
        rsj_hull_dim(9, 5)


# ---------------------------------------------------------------------------
# hull basis closed forms


def test_hull_basis_small_degree():
    assert hull_basis_predicted(2, 1, 5) == [(1, 0, 0), (0, 1, 0)]


def test_hull_basis_mid_range():
    basis = hull_basis_predicted(2, 2, 4)
    assert len(basis) == 4
    assert (0, 1, 1) not in basis and (0, 0, 2) not in basis
    assert (0, 2, 0) in basis


def test_hull_basis_no_closed_form():
    assert hull_basis_predicted(2, 3, 4) is NO_CLOSED_FORM  # k = q-1
    assert hull_basis_predicted(2, 2, 3) is NO_CLOSED_FORM  # 2k ≡ 0


def test_hull_basis_spans_measured_hull():
    from prmhull.geometry import evaluate_rows, projective_points

    cases = [(2, 1, 5), (2, 2, 7), (3, 1, 4), (2, 2, 4), (2, 3, 5), (1, 2, 4), (1, 2, 7)]
    for n, k, q in cases:
        basis = hull_basis_predicted(n, k, q)
        assert basis is not NO_CLOSED_FORM
        f = field_make(q)
        C = prm_code(f, n, k)
        rep = hull(C)
        assert len(basis) == rep.hull_dim, (n, k, q)
        rows = evaluate_rows(basis, projective_points(f, n))
        assert rep.hull_basis.contains_rows(rows), (n, k, q)


def test_every_predicted_hull_member_labels_a_generator_row():
    # Both closed basis cases have k < q - 1, where every degree-k monomial
    # is a reduced basis monomial, so check_hull_basis reads rows of G.
    for n in (1, 2, 3):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            for k in range(1, q - 1):
                basis = hull_basis_predicted(n, k, q)
                if basis is not NO_CLOSED_FORM:
                    assert set(basis) <= set(reduced_basis_monomials(n, k, q)), (n, k, q)


def test_check_hull_basis_verifies_each_member():
    for n, k, q in [(2, 1, 5), (2, 2, 7), (3, 1, 4), (2, 2, 4), (2, 3, 5), (1, 2, 7)]:
        members, verified = check_hull_basis(classification_report(field_make(q), n, k))
        assert [m for m, _ in members] == hull_basis_predicted(n, k, q), (n, k, q)
        assert all(ok for _, ok in members) and verified, (n, k, q)
    assert check_hull_basis(classification_report(field_make(4), 2, 3)) == ([], None)


def test_check_hull_basis_needs_as_many_members_as_the_hull_dimension(monkeypatch):
    rep = classification_report(field_make(5), 2, 1)
    monkeypatch.setattr(prm, "hull_basis_predicted", lambda n, k, q: [(1, 0, 0)])
    assert check_hull_basis(rep) == ([((1, 0, 0), True)], False)


def test_check_hull_basis_rejects_a_member_that_is_no_row(monkeypatch):
    rep = classification_report(field_make(5), 2, 1)
    monkeypatch.setattr(prm, "hull_basis_predicted", lambda n, k, q: [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(InternalInconsistency, match="not a row"):
        check_hull_basis(rep)


# ---------------------------------------------------------------------------
# LCD witness


def test_lcd_witness_in_hull():
    for n, q in GRID:
        f = field_make(q)
        for k in range(1, n * (q - 1)):
            w = lcd_witness(f, n, k)
            assert w.any()
            C = prm_code(f, n, k)
            assert contains_vector(C, w), (n, k, q)
            assert contains_vector(dual(C), w), (n, k, q)


def test_lcd_witness_out_of_range_at_lcd_point():
    f = field_make(3)
    with pytest.raises(OutOfRange):
        lcd_witness(f, 2, 4)  # k = n(q-1)
    with pytest.raises(OutOfRange):
        lcd_witness(f, 2, 0)


# ---------------------------------------------------------------------------
# classification reports


def test_report_self_dual_point():
    rep = classification_report(field_make(3), 3, 3)
    assert rep.agree
    assert rep.predicted["self_dual"] and rep.constructed["self_dual"]
    assert rep.predicted["hull_dim"] == rep.constructed["hull_dim"] == 20
    assert rep.hull_dim_source == "closed-form"
    d = rep.to_json()
    assert d["n"] == 3 and d["k"] == 3 and d["q"] == 3
    assert d["N"] == 40 and d["K"] == 20 and d["D_formula"] == 9
    assert d["agree"] is True


@pytest.mark.parametrize("n,k,q", [(2, 1, 5), (3, 3, 3), (3, 4, 4), (2, 3, 4)])
def test_report_keeps_the_hull_it_was_judged_from(n, k, q):
    rep = classification_report(field_make(q), n, k)
    assert rep.code.K == rep.K and (rep.code.n, rep.code.k) == (n, k)
    assert rep.hull.hull_dim == rep.constructed["hull_dim"]
    assert rep.hull_cases == tuple(label for label, _ in hull_dim_cases(n, k, q))
    assert rep.hull_agree and rep.agree


def test_report_hull_rule_alone_can_disagree(monkeypatch):
    monkeypatch.setattr(prm, "hull_dim_predicted", lambda n, k, q: 999)
    rep = classification_report(field_make(5), 2, 1)
    assert rep.hull_dim_source == "closed-form"
    assert not rep.hull_agree and not rep.agree
    assert rep.constructed["hull_dim"] == 2


def test_report_no_closed_form_point():
    rep = classification_report(field_make(4), 3, 4)
    assert rep.hull_dim_source == "constructive"
    assert rep.agree  # boolean predicates still match
    d = rep.to_json()
    assert d["predicted"]["hull_dim"] == "no-closed-form"
    assert isinstance(d["constructed"]["hull_dim"], int)


def test_reports_agree_on_grid():
    for n, q in [(1, 5), (2, 3), (2, 4), (3, 2)]:
        f = field_make(q)
        for k in all_k(n, q):
            assert classification_report(f, n, k).agree, (n, k, q)


def test_sweep_agrees_on_the_line_beyond_the_grid():
    # Every check of a sweep row, both ways, over prime and extension
    # fields the default grid leaves out: the dual proof, the LCD witness
    # and the dual side's Gram rank at every k on P^1.
    qs = (11, 13, 16, 25, 27, 32)
    rows, summary = run_sweep(SweepSpec((1,), qs, "all"))
    assert summary["points"] == sum(q - 1 for q in qs) == 118
    assert summary["disagree"] == 0 and summary["no_closed_form"] == 0
    assert all(r["dual_verified"] and r["dims_match"] for r in rows)


def test_params_helper():
    p = PrmParams(2, 3, 4)
    assert p.N == 21
    assert p.regime() == "proper"
    assert PrmParams(2, 0, 4).regime() == "span-one"
    assert PrmParams(2, 7, 4).regime() == "full-space"
    with pytest.raises(OutOfRange):
        PrmParams(0, 1, 4)


def test_params_closed_form_K_and_D_in_every_regime():
    assert PrmParams(2, 0, 4).KD() == (1, 21)
    assert PrmParams(2, 7, 4).KD() == (21, 1)
    assert PrmParams(2, 3, 4).KD() == (dim_sorensen(2, 3, 4), min_dist_formula(2, 3, 4))
    for n, q in GRID:
        for k in range(0, n * (q - 1) + 3):
            assert PrmParams(n, k, q).KD()[0] == prm_code(field_make(q), n, k).K
