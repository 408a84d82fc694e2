"""Exact arithmetic in finite fields F_q for prime powers q up to 2^16.

Elements are plain integer indices 0..q-1: the base-p digits of an index,
least significant first, are the coefficients of a polynomial over F_p,
constant term first. Index 0 is the additive identity and index 1 the
multiplicative identity. Scalar operations live on :class:`Field`;
vectorized counterparts (prefixed ``v``) accept numpy integer arrays of
any shape and are the building blocks for the exact linear algebra and
the codeword enumeration fast paths.

Every split of indices into digits in the package reads one read-only
table per field, through :meth:`Field.digits` and :meth:`Field.from_digits`;
vectorized addition works on those digits (XOR over characteristic 2, mod
p over a prime field), while the scalar ``add`` and ``neg`` keep their own
loops as an independent reference. Multiplication and inversion are
lookups in one pair of discrete-log tables, built at construction for
every q from the powers of a generator of F_q^*, and no other module reads
them: every power, and every monomial evaluated at a set of points, is one
:meth:`Field.power_products` call, one product of exponents with logs and
one lookup.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ._blas import one_thread
from .errors import DivisionByZero, InternalInconsistency, NotPrimePower

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

    Every product goes through two discrete-log tables built here, for a
    generator g of the cyclic group F_q^*: ``_log[a]`` is log_g a, with the
    sentinel 2(q-1) for a = 0, and ``_exp`` holds g^i for i < 2(q-1) and
    zeros up to index 4(q-1). So ``_exp[_log[a] + _log[b]]`` is a*b for
    every a and b, zero included; vectorized lookups use ``take``, 2-3x
    faster than fancy indexing with a 2-D index. ``_digit_table[x]`` holds
    the digits of index x (at most 2 MiB, at q = 2^16).
    """

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _canonical_modulus(p, e)
        self._powers_of_p = tuple(p**i for i in range(e))
        table = np.arange(q)[:, None] // np.array(self._powers_of_p) % p
        self._digit_table = table.astype(np.int16 if p < 256 else np.int32)
        self._digit_table.flags.writeable = False
        powers = self._generator_powers()
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int32)
        exp[: 2 * (q - 1)] = np.tile(powers, 2)
        log = np.empty(q, dtype=np.int32)
        log[powers] = np.arange(q - 1)
        log[0] = 2 * (q - 1)
        exp.flags.writeable = False
        log.flags.writeable = False
        self._exp = exp
        self._log = log

    # -- construction helpers -------------------------------------------------

    def _poly_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of int64 index arrays as polynomials over F_p,
        reduced modulo the field modulus."""
        p, e = self.p, self.e
        da, db = (self.digits(x).astype(np.int64) for x in (a, b))
        prod = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                prod[i + j] += da[..., i] * db[..., j]
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d] % p
            for t in range(e):
                prod[d - e + t] -= c * self.modulus[t]
        return self.from_digits(np.moveaxis(np.stack(prod[:e]) % p, 0, -1))

    def _generator_powers(self) -> np.ndarray:
        """g^0, ..., g^(q-2) for the smallest index g that generates F_q^*.

        The powers of each candidate are built by doubling: the first t
        powers times g^t are the next t. A candidate is dropped as soon as
        a 1 turns up among its first q - 1 powers after g^0.
        """
        q = self.q
        for g in range(1, q):
            powers = np.ones(1, dtype=np.int64)
            step = np.int64(g)  # g^t for t = powers.size
            while powers.size < q - 1:
                more = self._poly_mul(powers, step)
                if (more[: q - 1 - powers.size] == 1).any():
                    break
                powers = np.concatenate([powers, more])
                step = self._poly_mul(step, step)
            else:
                return powers[: q - 1]
        raise InternalInconsistency(f"no generator of the multiplicative group of GF({q})")

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
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return int(self._exp[self.q - 1 - self._log[a]])

    def pow(self, a: int, m: int) -> int:
        """a^m with the convention 0^0 = 1."""
        return int(self.vpow(np.asarray(a), m))

    # -- vectorized operations ------------------------------------------------

    def digits(self, x) -> np.ndarray:
        """Base-p digits of the indices x, least significant first: shape
        x.shape + (e,), int16 for p < 256 and int32 above; a cast when e = 1."""
        if self.e == 1:
            return np.asarray(x)[..., None].astype(self._digit_table.dtype)
        return self._digit_table.take(x, axis=0)

    def from_digits(self, d: np.ndarray) -> np.ndarray:
        """int32 indices of the reduced digits d (last axis), by Horner's rule.

        A Horner step reads one digit of every entry: one contiguous plane
        when the digits are held digit-major, as the int64 sums of an exact
        product and of _poly_mul are, and a strided pass over digits from
        digits(), which are int16 or int32. Over those, every contiguous
        join tried (an integer matmul with the powers of p, a digit-major
        copy, a blocked Horner) was slower.
        """
        out = d[..., -1].astype(np.int32)
        for t in range(self.e - 2, -1, -1):
            out *= self.p
            out += d[..., t]
        return out

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, e = self.p, self.e
        if p == 2:
            return a ^ b
        if e == 1:
            return (a + b) % p
        # digit sums lie in 0..2p-2, so one conditional subtraction reduces
        a, b = np.broadcast_arrays(a, b)
        d = self.digits(a)
        d += self.digits(b)
        d -= (d >= p) * d.dtype.type(p)
        return self.from_digits(d)

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, e = self.p, self.e
        if p == 2:
            return a ^ b
        if e == 1:
            # entries lie in 0..p-1, so one conditional add of p reduces
            d = a - b
            d += (d < 0) * np.int32(p)
            return d
        a, b = np.broadcast_arrays(a, b)
        d = self.digits(a)
        d -= self.digits(b)
        d += (d < 0) * d.dtype.type(p)
        return self.from_digits(d)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a.copy()
        return self.from_digits(-self.digits(a) % self.p)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product; either operand may be a scalar."""
        return self._exp.take(self._log.take(a) + self._log.take(b))

    def vpow(self, a: np.ndarray, m: int) -> np.ndarray:
        """Elementwise a^m with 0^0 = 1."""
        # m may exceed int64, so it is reduced modulo x^q = x here
        m = 0 if m == 0 else (m - 1) % (self.q - 1) + 1
        a = np.asarray(a)
        return self.power_products([[m]], a.reshape(-1, 1)).reshape(a.shape)

    def power_products(self, exps, x: np.ndarray) -> np.ndarray:
        """Entry [r, i] is the product over j of x[i, j]^exps[r, j], with 0^0 = 1.

        exps holds R rows of nonnegative int64 exponents, one per column of
        the (N, m) index array x; a row of another length raises ValueError,
        and so does m >= 2^53 / (q-1)^2, far beyond any point's coordinates.
        """
        # Reducing positive exponents modulo x^q = x keeps every value,
        # 0^t = 0 included, and bounds the exponent product below.
        # Then x^t is exp[(t . log x) mod (q-1)], unless a coordinate with a
        # positive exponent is 0, when the product is 0 (the log sentinel).
        q1 = self.q - 1
        exps = np.array(exps, dtype=np.int64).reshape(len(exps), x.shape[1])
        pos = exps > 0
        exps[pos] = (exps[pos] - 1) % q1 + 1
        logs = self._log.take(x)
        zero = logs == self._log[0]
        # Each exponent is at most q - 1 and each log below it, so every
        # sum of the exponent product is below m(q-1)^2: exact in float64
        # BLAS below 2^53, and held in int32, whose modulo is faster, when
        # below 2^31. The product runs on the calling thread (see _blas).
        bound = x.shape[1] * q1 * q1
        if bound >= 1 << 53:
            raise ValueError(f"{x.shape[1]} coordinates are too many for exact exponents")
        with one_thread():
            t = exps.astype(np.float64) @ np.where(zero, 0, logs).T.astype(np.float64)
        t = t.astype(np.int32 if bound < 1 << 31 else np.int64)
        t %= q1
        t[pos @ zero.T] = self._log[0]
        return self._exp.take(t)

    def vsum(self, a: np.ndarray) -> int:
        """Field sum of all entries (addition is digitwise mod p)."""
        sums = self.digits(a).reshape(-1, self.e).sum(axis=0, dtype=np.int64)
        return int(self.from_digits(sums % self.p))

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
