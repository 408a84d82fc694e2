"""Exact arithmetic in finite fields F_q for prime powers q up to 2^16.

Elements are plain integer indices 0..q-1: the base-p digits of an index,
least significant first, are the coefficients of a polynomial over F_p,
constant term first. Index 0 is the additive identity and index 1 the
multiplicative identity. Scalar operations live on :class:`Field`;
vectorized counterparts (prefixed ``v``) accept numpy integer arrays of
any shape and are the building blocks for the exact linear algebra and
the codeword enumeration fast paths.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DivisionByZero, NotPrimePower

# Full multiplication tables are only built for small fields; above this
# the memory cost (q^2 entries) outweighs the lookup win.
TABLE_LIMIT = 256

MAX_Q = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePower."""
    if q < 2 or q > MAX_Q:
        raise NotPrimePower(f"q={q} outside supported range 2..{MAX_Q}")
    p = None
    m = q
    for d in range(2, q + 1):
        if d * d > m:
            p = m
            break
        if m % d == 0:
            p = d
            break
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrimePower(f"q={q} has at least two distinct prime factors")
    return p, e


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Polynomial long division over F_p; coefficient lists constant-first."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    quot = [0] * max(len(num) - dd, 1)
    for shift in range(len(num) - dd - 1, -1, -1):
        coeff = num[shift + dd] * inv_lead % p
        if coeff:
            quot[shift] = coeff
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - coeff * c) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    if poly[0] == 0:
        return False  # divisible by x
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Comparison is on coefficient vectors, constant term first. Degree 1
    always yields x itself.
    """
    if e == 1:
        return (0, 1)
    for head in itertools.product(range(p), repeat=e):
        poly = list(head) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise NotPrimePower(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """The finite field F_q with element indices 0..q-1.

    Immutable after construction; safe to share between workers. Obtain
    instances through :func:`field_make`, which caches one per q.
    """

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _canonical_modulus(p, e)
        self._powers_of_p = tuple(p**i for i in range(e))
        self._mul_table: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None
        self._exp_table: np.ndarray | None = None
        self._log_table: np.ndarray | None = None
        if q <= TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        """Dense q x q multiplication table and inverse table, vectorized."""
        q, p, e = self.q, self.p, self.e
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, e), dtype=np.int64)
        for i in range(e):
            digits[:, i] = (idx // self._powers_of_p[i]) % p
        conv = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            for j in range(e):
                conv[:, :, i + j] += np.multiply.outer(digits[:, i], digits[:, j])
        conv %= p
        for d in range(2 * e - 2, e - 1, -1):
            coeff = conv[:, :, d]
            for t in range(e):
                if self.modulus[t]:
                    conv[:, :, d - e + t] = (
                        conv[:, :, d - e + t] - coeff * self.modulus[t]
                    ) % p
            conv[:, :, d] = 0
        table = np.zeros((q, q), dtype=np.int64)
        for i in range(e):
            table += conv[:, :, i] * self._powers_of_p[i]
        self._mul_table = table.astype(np.int32)
        ones = self._mul_table == 1
        assert np.all(ones[1:].any(axis=1)), "every nonzero element must have an inverse"
        inv = np.argmax(ones, axis=1).astype(np.int32)
        inv[0] = 0
        self._inv_table = inv

    @property
    def mul_table(self) -> np.ndarray:
        """q x q multiplication table (only for q <= TABLE_LIMIT)."""
        if self._mul_table is None:
            raise ValueError(f"no dense table for q={self.q} > {TABLE_LIMIT}")
        return self._mul_table

    def _build_exp_log(self) -> None:
        """Discrete-log tables for vectorized products in large extension fields."""
        q = self.q
        # factor q-1, then search for a generator of the multiplicative group
        m = q - 1
        prime_factors = []
        d = 2
        while d * d <= m:
            if m % d == 0:
                prime_factors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            prime_factors.append(m)
        g = None
        for cand in range(2, q):
            if all(self.pow(cand, (q - 1) // r) != 1 for r in prime_factors):
                g = cand
                break
        assert g is not None, "multiplicative group of a finite field is cyclic"
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        t = 1
        for i in range(q - 1):
            exp[i] = t
            exp[i + (q - 1)] = t
            log[t] = i
            t = self.mul(t, g)
        assert t == 1, "generator order must be q-1"
        self._exp_table = exp
        self._log_table = log

    # -- scalar operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if p == 2:
            return a ^ b
        if e == 1:
            return (a + b) % p
        out = 0
        for w in self._powers_of_p:
            out += ((a // w + b // w) % p) * w
        return out

    def neg(self, a: int) -> int:
        p, e = self.p, self.e
        if p == 2:
            return a
        if e == 1:
            return (-a) % p
        out = 0
        for w in self._powers_of_p:
            out += (-(a // w) % p) * w
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        if p == 2:
            # carryless multiply on bit vectors, then reduce by the modulus mask
            acc = 0
            x = a
            while x:
                low = x & -x
                acc ^= b << low.bit_length() - 1
                x ^= low
            mod_mask = 0
            for i, c in enumerate(self.modulus):
                mod_mask |= c << i
            for d in range(acc.bit_length() - 1, e - 1, -1):
                if acc >> d & 1:
                    acc ^= mod_mask << (d - e)
            return acc
        da = [(a // w) % p for w in self._powers_of_p]
        db = [(b // w) % p for w in self._powers_of_p]
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d]
            if c:
                for t in range(e):
                    prod[d - e + t] = (prod[d - e + t] - c * self.modulus[t]) % p
        out = 0
        for i in range(e):
            out += prod[i] * self._powers_of_p[i]
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        if self._inv_table is not None:
            return int(self._inv_table[a])
        return self.pow(a, self.q - 2)

    def pow(self, a: int, m: int) -> int:
        """a^m with the convention 0^0 = 1."""
        if m == 0:
            return 1
        if a == 0:
            return 0
        m %= self.q - 1
        if m == 0:
            return 1
        out = 1
        base = a
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    # -- vectorized operations ------------------------------------------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, e = self.p, self.e
        if p == 2:
            return a ^ b
        if e == 1:
            return (a + b) % p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int32)
        for w in self._powers_of_p:
            out += ((a // w + b // w) % p) * w
        return out

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, e = self.p, self.e
        if p == 2:
            return a ^ b
        if e == 1:
            # entries lie in 0..p-1, so one conditional add of p reduces
            d = a - b
            d += (d < 0) * np.int32(p)
            return d
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int32)
        for w in self._powers_of_p:
            out += ((a // w - b // w) % p) * w
        return out

    def vneg(self, a: np.ndarray) -> np.ndarray:
        p, e = self.p, self.e
        if p == 2:
            return a.copy()
        if e == 1:
            return (-a) % p
        out = np.zeros(a.shape, dtype=np.int32)
        for w in self._powers_of_p:
            out += (-(a // w) % p) * w
        return out

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul_table is not None:
            return self._mul_table[a, b]
        if self.e == 1:
            return (a.astype(np.int64) * b) % self.p
        if self._exp_table is None:
            self._build_exp_log()
        out = self._exp_table[self._log_table[a] + self._log_table[b]]
        return np.where((a == 0) | (b == 0), 0, out).astype(np.int32)

    def vscale(self, f: int, a: np.ndarray) -> np.ndarray:
        """Scalar f times every entry of a."""
        if f == 0:
            return np.zeros(a.shape, dtype=np.int32)
        if f == 1:
            return a.copy()
        if self._mul_table is not None:
            return self._mul_table[f][a]
        if self.e == 1:
            return (f * a.astype(np.int64)) % self.p
        if self._exp_table is None:
            self._build_exp_log()
        out = self._exp_table[self._log_table[f] + self._log_table[a]]
        return np.where(a == 0, 0, out).astype(np.int32)

    def vpow(self, a: np.ndarray, m: int) -> np.ndarray:
        """Elementwise a^m with 0^0 = 1, by square and multiply."""
        if m == 0:
            return np.ones(a.shape, dtype=np.int32)
        m %= self.q - 1
        if m == 0:
            # a^(q-1) is 1 for nonzero entries, 0 for zero entries
            return (a != 0).astype(np.int32)
        out = np.ones(a.shape, dtype=np.int32)
        base = a.astype(np.int32)
        while m:
            if m & 1:
                out = self.vmul(out, base)
            base = self.vmul(base, base)
            m >>= 1
        return np.where(a == 0, 0, out).astype(np.int32)

    def vsum(self, a: np.ndarray) -> int:
        """Field sum of all entries (addition is digitwise mod p)."""
        p, e = self.p, self.e
        if e == 1:
            return int(a.sum(dtype=np.int64) % p)
        out = 0
        for w in self._powers_of_p:
            out += int(((a // w) % p).sum(dtype=np.int64) % p) * w
        return out

    # -- plumbing ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))


@functools.lru_cache(maxsize=None)
def field_make(q: int) -> Field:
    """Return the field F_q with the canonical modulus; cached per q.

    Args:
        q: prime power with 2 <= q <= 2^16.

    Raises:
        NotPrimePower: if q is not a prime power in range.
    """
    return Field(q)


def power_sum(field: Field, r: int) -> int:
    """Sum of beta^r over every element beta of the field.

    Computed by literal summation over all q elements, not by the known
    closed form (-1 when r > 0 and (q-1) | r, else 0); the closed form is
    what tests verify against.
    """
    elems = np.arange(field.q, dtype=np.int32)
    return field.vsum(field.vpow(elems, r))
