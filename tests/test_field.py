"""Tests for finite-field construction and arithmetic."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from prmhull.errors import DivisionByZero, NotPrimePower
from prmhull.field import Field, field_make, power_sum

from oracles import ref_mul

SWEEP_Q = [2, 3, 4, 5, 7, 8, 9]
PRIME_POWERS_TO_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]
DIGIT_TABLE_QS = PRIME_POWERS_TO_64 + [243, 256, 257, 625, 1024, 59049, 65521, 65536]


def poly_eval(coeffs, x, p):
    """Horner evaluation of a constant-first coefficient list over F_p."""
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


class TestConstruction:
    def test_prime_field(self):
        f = field_make(5)
        assert (f.q, f.p, f.e) == (5, 5, 1)
        assert f.modulus == (0, 1)

    @pytest.mark.parametrize("q", [6, 1, 0, 12, 100, (1 << 16) + 1])
    def test_not_prime_power(self, q):
        with pytest.raises(NotPrimePower):
            Field(q)

    def test_field_make_cached(self):
        assert field_make(9) is field_make(9)

    def test_modulus_q4(self):
        # the 4 monic quadratics over F_2 in lex order (constant first) are
        # x^2, x^2+x, x^2+1, x^2+x+1; the first three have roots 0, 0, 1,
        # so the unique irreducible one is x^2+x+1
        for coeffs in [(0, 0, 1), (0, 1, 1), (1, 0, 1)]:
            assert any(poly_eval(coeffs, x, 2) == 0 for x in range(2))
        assert all(poly_eval((1, 1, 1), x, 2) != 0 for x in range(2))
        assert field_make(4).modulus == (1, 1, 1)

    def test_modulus_q9(self):
        # lex-smaller monic quadratics over F_3 all have roots; x^2+1 does not
        for coeffs in [(0, 0, 1), (0, 1, 1), (0, 2, 1)]:
            assert any(poly_eval(coeffs, x, 3) == 0 for x in range(3))
        assert all(poly_eval((1, 0, 1), x, 3) != 0 for x in range(3))
        assert field_make(9).modulus == (1, 0, 1)

    def test_modulus_q8(self):
        # cubics over F_2 are irreducible iff rootless; enumerate all monic
        # cubics in lex order and take the first rootless one as the oracle
        expected = None
        for c0 in range(2):
            for c1 in range(2):
                for c2 in range(2):
                    coeffs = (c0, c1, c2, 1)
                    if all(poly_eval(coeffs, x, 2) != 0 for x in range(2)):
                        expected = coeffs
                        break
                if expected:
                    break
            if expected:
                break
        assert expected == (1, 0, 1, 1)
        assert field_make(8).modulus == (1, 0, 1, 1)

    def test_large_binary_field(self):
        f = field_make(1 << 16)
        assert (f.p, f.e) == (2, 16)
        assert f.mul(2, 2) == 4  # x * x = x^2, no reduction at this degree
        assert f.pow(3, f.q - 1) == 1


class TestScalarArithmetic:
    def test_f5_product(self):
        assert field_make(5).mul(3, 4) == 2

    def test_f4_x_squared(self):
        # under modulus x^2+x+1: x*x = x+1, i.e. index 2 * index 2 = index 3
        assert field_make(4).mul(2, 2) == 3

    def test_pow_zero_zero(self):
        for q in SWEEP_Q:
            assert field_make(q).pow(0, 0) == 1

    def test_pow_of_zero(self):
        f = field_make(9)
        assert f.pow(0, 1) == 0
        assert f.pow(0, 8) == 0  # 0^(q-1) stays 0

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64])
    def test_field_axioms_full_tables(self, q):
        f = field_make(q)
        idx = np.arange(q, dtype=np.int32)
        a = idx[:, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        add = f.vadd
        mul = f.vmul
        assert np.array_equal(add(idx[:, None], idx[None, :]), add(idx[None, :], idx[:, None]))
        assert np.array_equal(mul(idx[:, None], idx[None, :]), mul(idx[None, :], idx[:, None]))
        assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
        assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
        assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
        # identities and inverses
        assert np.array_equal(add(idx, np.zeros(q, np.int32)), idx)
        assert np.array_equal(mul(idx, np.ones(q, np.int32)), idx)
        for x in range(1, q):
            assert f.mul(x, f.inv(x)) == 1
        for x in range(q):
            assert f.add(x, f.neg(x)) == 0
            assert f.sub(x, x) == 0

    @pytest.mark.parametrize("q", SWEEP_Q + [16, 27, 121])
    def test_fermat(self, q):
        f = field_make(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1
        for a in range(q):
            assert f.pow(a, q) == a

    def test_inv_zero_raises(self):
        with pytest.raises(DivisionByZero):
            field_make(7).inv(0)
        with pytest.raises(DivisionByZero):
            field_make(8).inv(0)


def ref_pow(field, a, m):
    """a^m by square and multiply on schoolbook products, 0^0 = 1."""
    out = 1
    while m:
        if m & 1:
            out = ref_mul(field, out, a)
        a = ref_mul(field, a, a)
        m >>= 1
    return out


class TestAgainstSchoolbook:
    """Every product path against the table-free oracle ``ref_mul``."""

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_exhaustive(self, q):
        f = field_make(q)
        idx = np.arange(q, dtype=np.int32)
        table = [[ref_mul(f, a, b) for b in range(q)] for a in range(q)]
        assert f.vmul(idx[:, None], idx[None, :]).tolist() == table
        assert [[f.mul(a, b) for b in range(q)] for a in range(q)] == table
        assert [f.vmul(a, idx).tolist() for a in range(q)] == table
        for a in range(1, q):
            assert ref_mul(f, a, f.inv(a)) == 1
        powers = np.ones(q, dtype=np.int64)  # a^m for every a, 0^0 = 1
        for m in range(q + 1):
            assert [f.pow(a, m) for a in range(q)] == powers.tolist()
            assert f.vpow(idx, m).tolist() == powers.tolist()
            powers = np.array([ref_mul(f, int(x), a) for a, x in enumerate(powers)])

    @pytest.mark.parametrize("q", [257, 1024, 65521, 65536])
    def test_random_pairs(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        m = rng.integers(0, 4 * q, size=200)
        ref = [ref_mul(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert f.vmul(a, b).tolist() == ref
        assert [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == ref
        s = int(a[0])
        assert f.vmul(s, b).tolist() == [ref_mul(f, s, y) for y in b.tolist()]
        for x in a.tolist():
            if x:
                assert ref_mul(f, x, f.inv(x)) == 1
        assert [f.pow(x, e) for x, e in zip(a.tolist(), m.tolist())] == [
            ref_pow(f, x, e) for x, e in zip(a.tolist(), m.tolist())
        ]


class TestPowerProducts:
    """power_products and vpow against products of schoolbook powers."""

    @pytest.mark.parametrize("q", DIGIT_TABLE_QS)
    def test_matches_schoolbook(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q)
        x = rng.integers(0, q, size=(8, 3))
        x[0] = 0
        x[1, 0] = x[2, 2] = 0
        special = [0, 1, q - 1, q, 10**12]
        pairs = itertools.product(special, repeat=2)
        exps = [[s, t, special[i % 5]] for i, (s, t) in enumerate(pairs)]
        exps += rng.integers(0, 3 * q, size=(5, 3)).tolist()
        powers = {}

        def power(c, t):
            if (c, t) not in powers:
                powers[c, t] = ref_pow(f, c, t)
            return powers[c, t]

        expected = []
        for row in exps:
            vals = []
            for pt in x.tolist():
                v = 1
                for c, t in zip(pt, row):
                    v = ref_mul(f, v, power(c, t))
                vals.append(v)
            expected.append(vals)
        got = f.power_products(exps, x)
        assert got.dtype == np.int32
        assert got.tolist() == expected
        assert f.power_products([], x).shape == (0, 8)

    @pytest.mark.parametrize("q", DIGIT_TABLE_QS)
    def test_vpow_reduces_large_exponents(self, q):
        f = field_make(q)
        a = np.random.default_rng(q).integers(0, q, size=(3, 7))
        a[0, 0] = 0
        for m in (0, q - 1, 2**70):
            got = f.vpow(a, m)
            assert got.shape == a.shape
            assert got.ravel().tolist() == [ref_pow(f, x, m) for x in a.ravel().tolist()]

    @pytest.mark.parametrize("exps", [[(1, 0)], [(1, 0, 0), (1, 0)], [(1, 0, 0, 0)] * 3])
    def test_wrong_exponent_count_rejected(self, exps):
        x = np.zeros((4, 3), dtype=np.int32)
        with pytest.raises(ValueError):
            field_make(5).power_products(exps, x)

    def test_coordinate_count_bound(self):
        # m (q-1)^2 < 2^53 keeps the exponent product exact; no point has
        # that many coordinates, so empty arrays test the bound.
        f = field_make(65536)
        m = -(-(1 << 53) // (f.q - 1) ** 2)
        assert f.power_products([], np.zeros((0, m - 1), dtype=np.int32)).shape == (0, 0)
        with pytest.raises(ValueError, match="too many"):
            f.power_products([], np.zeros((0, m), dtype=np.int32))


class TestVectorized:
    @pytest.mark.parametrize("q", SWEEP_Q + [16, 25, 27, 257, 512, 65521])
    def test_vector_ops_match_scalar(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=200).astype(np.int32)
        b = rng.integers(0, q, size=200).astype(np.int32)
        assert [f.add(int(x), int(y)) for x, y in zip(a, b)] == list(f.vadd(a, b))
        assert [f.sub(int(x), int(y)) for x, y in zip(a, b)] == list(f.vsub(a, b))
        assert [f.mul(int(x), int(y)) for x, y in zip(a, b)] == list(f.vmul(a, b))
        assert [f.neg(int(x)) for x in a] == list(f.vneg(a))
        s = int(b[0])
        if s:
            assert [f.mul(s, int(x)) for x in a] == list(f.vmul(s, a))
        for m in [0, 1, 2, 3, q - 1, q, 2 * q + 1]:
            assert [f.pow(int(x), m) for x in a] == list(f.vpow(a, m))

    @pytest.mark.parametrize("q", SWEEP_Q)
    def test_vsum_matches_scalar_fold(self, q):
        f = field_make(q)
        rng = np.random.default_rng(q + 100)
        a = rng.integers(0, q, size=137).astype(np.int32)
        acc = 0
        for x in a:
            acc = f.add(acc, int(x))
        assert f.vsum(a) == acc


class TestDigitTable:
    @staticmethod
    def indices(q):
        """Every index, or a sample of 10^4 above q = 4096."""
        if q <= 4096:
            return np.arange(q)
        return np.random.default_rng(q).integers(0, q, size=10**4)

    @pytest.mark.parametrize("q", DIGIT_TABLE_QS)
    def test_digits_match_divmod(self, q):
        f = field_make(q)
        x = self.indices(q)
        expected = []
        for v in x.tolist():
            row = []
            for _ in range(f.e):
                v, d = divmod(v, f.p)
                row.append(d)
            expected.append(row)
        d = f.digits(x)
        assert d.shape == x.shape + (f.e,)
        assert d.dtype == (np.int16 if f.p < 256 else np.int32)
        assert d.tolist() == expected

    @pytest.mark.parametrize("q", DIGIT_TABLE_QS)
    def test_from_digits_inverts_digits(self, q):
        f = field_make(q)
        x = self.indices(q)
        assert np.array_equal(f.from_digits(f.digits(x)), x)
        grid = np.resize(x, (6, 10))
        assert np.array_equal(f.from_digits(f.digits(grid)), grid)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 257, 1024, 65536])
    def test_from_digits_joins_any_layout_and_width(self, q):
        # Digits come digit-last from digits(), digit-major from the planes
        # of an exact product, and int64 from its sums; every layout and
        # width joins to the same int32 indices.
        f = field_make(q)
        x = np.random.default_rng(q).integers(0, q, size=(4, 6, 10))
        for arr in (x[0, 0], x[0], x, x[:, ::2, 1::3], x.transpose(2, 0, 1)):
            d = f.digits(arr)
            planes = np.moveaxis(np.ascontiguousarray(np.moveaxis(d, -1, 0)), 0, -1)
            spaced = np.repeat(d, 2, axis=-1)[..., ::2]
            for digits in (d, d.astype(np.int64), planes, planes.astype(np.int64), spaced):
                out = f.from_digits(digits)
                label = (arr.shape, digits.dtype)
                assert out.dtype == np.int32 and np.array_equal(out, arr), label

    @pytest.mark.parametrize("q", DIGIT_TABLE_QS)
    def test_table_is_read_only(self, q):
        f = field_make(q)
        assert f._digit_table.nbytes <= 2 << 20
        with pytest.raises(ValueError):
            f._digit_table[0] = 1


class TestPowerSum:
    def test_known_values(self):
        f5 = field_make(5)
        assert power_sum(f5, 4) == 4  # -1 in F_5
        assert power_sum(f5, 2) == 0
        assert power_sum(field_make(3), 0) == 0  # q copies of 1 in char p

    @pytest.mark.parametrize("q", SWEEP_Q)
    def test_closed_form(self, q):
        # sum of beta^r over F_q is -1 when r > 0 and (q-1) | r, else 0
        f = field_make(q)
        for r in range(2 * q + 1):
            expected = f.neg(1) if r > 0 and r % (q - 1) == 0 else 0
            assert power_sum(f, r) == expected, (q, r)
