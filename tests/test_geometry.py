"""Tests for points, monomials, reduction, and evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from prmhull import geometry
from prmhull.field import field_make
from prmhull.geometry import (
    evaluate,
    evaluate_rows,
    monomials_of_degree,
    num_projective_points,
    projective_points,
    reduce_monomial,
    reduced_basis_monomials,
)

from oracles import ref_evaluate, ref_projective_points

SWEEP_Q = [2, 3, 4, 5, 7, 8, 9]


def literal_pow(field, a, e):
    """a^e by literal repeated multiplication; the 0^0 = 1 convention holds."""
    acc = 1
    for _ in range(e):
        acc = field.mul(acc, a)
    return acc


class TestProjectivePoints:
    def test_q2_n1_exact(self):
        P = projective_points(field_make(2), 1)
        assert P.pts.tolist() == [[1, 0], [1, 1], [0, 1]]

    def test_known_lengths(self):
        assert projective_points(field_make(3), 1).N == 4
        assert projective_points(field_make(3), 2).N == 13
        assert projective_points(field_make(3), 3).N == 40
        assert projective_points(field_make(5), 2).N == 31

    @pytest.mark.parametrize("q", SWEEP_Q)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_formula(self, q, n):
        P = projective_points(field_make(q), n)
        assert P.N == num_projective_points(q, n) == (q ** (n + 1) - 1) // (q - 1)

    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_order(self, q, n):
        P = projective_points(field_make(q), n)
        assert [tuple(p) for p in P.pts.tolist()] == ref_projective_points(q, n)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_exactly_one_representative_per_point(self, q, n):
        # normalizing every nonzero vector by its leading coefficient must
        # reproduce the point set exactly once each
        f = field_make(q)
        P = projective_points(f, n)
        got = {tuple(p) for p in P.pts.tolist()}
        assert len(got) == P.N
        canon = set()
        for idx in range(1, q ** (n + 1)):
            v = [(idx // q**j) % q for j in range(n, -1, -1)]
            lead = next(x for x in v if x)
            g = f.inv(lead)
            canon.add(tuple(f.mul(g, x) for x in v))
        assert canon == got

    def test_leading_coordinate_is_one(self):
        P = projective_points(field_make(8), 2)
        for p in P.pts.tolist():
            lead = next(x for x in p if x)
            assert lead == 1


class TestMonomials:
    def test_n1_k2_exact(self):
        assert monomials_of_degree(1, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_counts(self):
        assert len(monomials_of_degree(2, 1)) == 3
        assert len(monomials_of_degree(3, 3)) == 20  # C(6,3)
        for n in range(1, 4):
            for k in range(0, 6):
                assert len(monomials_of_degree(n, k)) == math.comb(n + k, k)

    def test_order_endpoints_and_monotone(self):
        ms = monomials_of_degree(3, 4)
        assert ms[0] == (4, 0, 0, 0)
        assert ms[-1] == (0, 0, 0, 4)
        assert all(a > b for a, b in zip(ms, ms[1:]))  # strictly descending lex

    def test_degrees_all_k(self):
        assert all(sum(m) == 5 for m in monomials_of_degree(2, 5))


class TestReduce:
    def test_examples(self):
        assert reduce_monomial((5,), 4) == (2,)  # 5 = 1*3 + 2
        assert reduce_monomial((2, 1, 0), 4) == (2, 1, 0)  # fixed point
        assert reduce_monomial((3,), 4) == (3,)  # q-1 maps to q-1, not 0
        assert reduce_monomial((0, 7), 3) == (0, 1)

    @pytest.mark.parametrize("q", SWEEP_Q)
    def test_range_and_congruence(self, q):
        rng = np.random.default_rng(q)
        for _ in range(50):
            m = tuple(int(x) for x in rng.integers(0, 4 * q, size=3))
            red = reduce_monomial(m, q)
            for orig, r in zip(m, red):
                assert 0 <= r <= q - 1
                if orig == 0:
                    assert r == 0
                else:
                    assert r > 0 and (orig - r) % (q - 1) == 0


class TestReducedBasisMonomials:
    def test_tetracode_basis(self):
        assert reduced_basis_monomials(1, 1, 3) == [(1, 0), (0, 1)]

    def test_n2_k2_q3_count(self):
        # degrees t = 2 (all 6 degree-2 monomials in 3 variables are reduced
        # when q = 3); no smaller t = 2 mod 2 is positive except t = 2 itself
        # minus (q-1) = 0, so the count is exactly 6
        ms = reduced_basis_monomials(2, 2, 3)
        assert len(ms) == 6
        assert all(max(m) <= 2 and sum(m) in (2,) for m in ms)

    def test_low_degree_equals_plain_monomials(self):
        for q in [5, 7]:
            for k in range(1, q):
                assert reduced_basis_monomials(2, k, q) == monomials_of_degree(2, k)

    def test_degree_classes_and_order(self):
        q, n, k = 3, 2, 4
        ms = reduced_basis_monomials(n, k, q)
        degs = [sum(m) for m in ms]
        assert set(degs) <= {4, 2}
        assert degs == sorted(degs, reverse=True)  # degree descending
        assert all(max(m) <= q - 1 for m in ms)

    @pytest.mark.parametrize("q", SWEEP_Q)
    @pytest.mark.parametrize("n", [1, 2])
    def test_strictly_monotone_then_saturates(self, q, n):
        top = n * (q - 1)
        counts = [len(reduced_basis_monomials(n, k, q)) for k in range(1, top + 3)]
        for a, b in zip(counts, counts[1:top]):
            assert a < b
        N = num_projective_points(q, n)
        assert counts[top] == N  # k = n(q-1)+1: code is the whole space
        assert counts[top + 1] == N

    def test_large_degree_starts_at_the_largest_reduced_degree(self, monkeypatch):
        # No reduced monomial on P^1 over F_3 has degree above 4, so degree
        # 10^9 + 1 walks t = 3, 1, as degree 3 does, and not t = 10^9 + 1, ...
        want = reduced_basis_monomials(1, 3, 3)
        real = geometry._bounded_compositions
        calls = []

        def counted(total, slots, bound):
            calls.append(total)
            if len(calls) > 2:
                raise AssertionError(f"walked degrees {calls}")
            return real(total, slots, bound)

        monkeypatch.setattr(geometry, "_bounded_compositions", counted)
        assert reduced_basis_monomials(1, 10**9 + 1, 3) == want
        assert calls == [3, 1]

    @pytest.mark.parametrize("q", SWEEP_Q)
    @pytest.mark.parametrize("n", [1, 2])
    def test_large_degree_matches_its_class_below_the_top(self, q, n):
        top = (n + 1) * (q - 1)
        for k in range(top + 1, top + 3 * (q - 1)):
            below = next(t for t in range(top, 0, -1) if (k - t) % (q - 1) == 0)
            assert reduced_basis_monomials(n, k, q) == reduced_basis_monomials(n, below, q)


class TestEvaluate:
    def test_constant_monomial_is_all_ones(self):
        P = projective_points(field_make(4), 2)
        assert np.array_equal(evaluate((0, 0, 0), P), np.ones(21, dtype=np.int32))

    def test_x0_power_indicator_of_first_stratum(self):
        q, n, k = 3, 2, 2
        P = projective_points(field_make(q), n)
        v = evaluate((k, 0, 0), P)
        assert np.array_equal(v[: q**n], np.ones(q**n, dtype=np.int32))
        assert not v[q**n :].any()

    @pytest.mark.parametrize("q", [5, 7])
    def test_matches_reference_prime(self, q):
        pts = ref_projective_points(q, 2)
        P = projective_points(field_make(q), 2)
        rng = np.random.default_rng(q)
        for _ in range(40):
            m = tuple(int(x) for x in rng.integers(0, 3 * q, size=3))
            assert evaluate(m, P).tolist() == ref_evaluate(m, pts, q)

    @pytest.mark.parametrize("q", SWEEP_Q)
    def test_reduce_invariance_literal(self, q):
        # evaluating the reduced form table-wise must agree with literal
        # repeated multiplication of the raw exponents at every point
        f = field_make(q)
        P = projective_points(f, 2)
        rng = np.random.default_rng(q + 5)
        for _ in range(25):
            m = tuple(int(x) for x in rng.integers(0, 3 * q + 1, size=3))
            got = evaluate(m, P)
            for i, pt in enumerate(P.pts.tolist()):
                val = 1
                for coord, exp in zip(pt, m):
                    val = f.mul(val, literal_pow(f, coord, exp))
                assert got[i] == val

    def test_evaluate_rows_matches_single(self):
        P = projective_points(field_make(9), 1)
        ms = monomials_of_degree(1, 3)
        M = evaluate_rows(ms, P)
        for i, m in enumerate(ms):
            assert np.array_equal(M[i], evaluate(m, P))

    def test_wrong_arity_rejected(self):
        P = projective_points(field_make(3), 2)
        with pytest.raises(ValueError):
            evaluate((1, 0), P)

    @pytest.mark.parametrize("monos", [[(1, 0)], [(1, 0, 0), (1, 0)], [(1, 0, 0, 0)] * 3])
    def test_evaluate_rows_wrong_arity_rejected(self, monos):
        P = projective_points(field_make(3), 2)
        with pytest.raises(ValueError):
            evaluate_rows(monos, P)
