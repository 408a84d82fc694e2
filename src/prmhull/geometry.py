"""Evaluation geometry: projective points, monomials, and the evaluation map.

A monomial in n+1 variables is represented by its bare exponent tuple
(a_0, ..., a_n). Projective points use the standard representatives whose
leftmost nonzero coordinate is 1, ordered by stratum (position of the
leading 1) and then lexicographically by element index with the last
coordinate varying fastest. This fixed order makes every generator
matrix in the package bit-reproducible. Evaluation itself is the field's
:meth:`~prmhull.field.Field.power_products`: one row per monomial, one
column per point.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInconsistency
from .field import Field

Monomial = tuple[int, ...]

def num_projective_points(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _lex_tuples(q: int, m: int) -> np.ndarray:
    """All q^m tuples over 0..q-1 in index order, last coordinate fastest."""
    count = q**m
    out = np.empty((count, m), dtype=np.int32)
    idx = np.arange(count)
    for j in range(m):
        out[:, j] = (idx // q ** (m - 1 - j)) % q
    return out


class ProjectivePointSet:
    """The standard representatives of the points of P^n(F_q), in order."""

    def __init__(self, field: Field, n: int, pts: np.ndarray):
        self.field = field
        self.n = n
        self.pts = pts

    @property
    def N(self) -> int:
        return self.pts.shape[0]

    def __repr__(self) -> str:
        return f"ProjectivePointSet(GF({self.field.q}), n={self.n}, N={self.N})"


def projective_points(field: Field, n: int) -> ProjectivePointSet:
    """Standard representatives of P^n(F_q) in the package's fixed order.

    Args:
        field: the coordinate field.
        n: projective dimension, n >= 1.

    Returns:
        Point set of size (q^(n+1) - 1)/(q - 1); stratum s contributes the
        points (0,...,0, 1, a_{s+1}, ..., a_n) with the tail enumerated
        lexicographically by element index, last coordinate fastest.
    """
    q = field.q
    blocks = []
    for lead in range(n + 1):
        m = n - lead
        tail = _lex_tuples(q, m)
        block = np.zeros((q**m, n + 1), dtype=np.int32)
        block[:, lead] = 1
        block[:, lead + 1 :] = tail
        blocks.append(block)
    pts = np.vstack(blocks)
    if pts.shape[0] != num_projective_points(q, n):
        raise InternalInconsistency(f"{pts.shape[0]} points built for P^{n}(F_{q})")
    return ProjectivePointSet(field, n, pts)


def monomials_of_degree(n: int, k: int) -> list[Monomial]:
    """All C(n+k, k) exponent tuples of total degree k in n+1 variables.

    Ordered lexicographically with larger a_0 first, so x_0^k is first
    and x_n^k is last.
    """
    return _bounded_compositions(k, n + 1, k)


def reduce_monomial(m: Monomial, q: int) -> Monomial:
    """Reduce each exponent modulo x^q = x: t > 0 maps to b with
    t = a(q-1) + b and 0 < b <= q-1; zero exponents stay zero."""
    return tuple(0 if t == 0 else (t - 1) % (q - 1) + 1 for t in m)


def _bounded_compositions(total: int, slots: int, bound: int) -> list[tuple[int, ...]]:
    """Tuples of length `slots` summing to `total` with entries <= bound,
    in descending lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, left: int) -> None:
        if left == 1:
            if remaining <= bound:
                out.append(prefix + (remaining,))
            return
        for a in range(min(remaining, bound), -1, -1):
            if remaining - a <= bound * (left - 1):
                rec(prefix + (a,), remaining - a, left - 1)

    rec((), total, slots)
    return out


def reduced_basis_monomials(n: int, k: int, q: int) -> list[Monomial]:
    """All reduced monomials of degree t for each t = k mod (q-1), 0 < t <= k.

    Ordered by degree descending, then descending lexicographic. For
    1 <= k <= n(q-1) the count equals the code dimension; beyond that
    range it saturates at the number of projective points. No reduced
    monomial has degree above (n+1)(q-1), so the walk starts at the
    largest such t, and its cost does not grow with k.
    """
    out: list[Monomial] = []
    top = (n + 1) * (q - 1)
    t = min(k, top - (top - k) % (q - 1))
    while t > 0:
        out.extend(_bounded_compositions(t, n + 1, q - 1))
        t -= q - 1
    return out


def evaluate(m: Monomial, P: ProjectivePointSet) -> np.ndarray:
    """Evaluate the monomial at every point, with the convention 0^0 = 1.

    Raises:
        ValueError: if m does not have one exponent per coordinate.
    """
    return P.field.power_products([m], P.pts)[0]


def evaluate_rows(monomials: list[Monomial], P: ProjectivePointSet) -> np.ndarray:
    """Evaluation matrix with one row per monomial, in the given order."""
    return P.field.power_products(monomials, P.pts)
