"""Generic linear-code operations: dual, hull, Gram matrix, predicates.

Everything here is independent of how a code was constructed; the
projective Reed-Muller layer builds on these and cross-checks its
closed-form predictions against them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, InternalInconsistency
from .exactla import MatrixFq, SubspaceBasis, mat_mul, rank, transpose
from .field import Field


class LinearCode:
    """A linear [N, K] code presented by a full-rank generator matrix.

    The generator is stored exactly as given (no auto-canonicalization)
    so that row i keeps its meaning — for Reed-Muller codes, the i-th
    basis monomial. The RREF computed for the rank check is kept as the
    canonical basis, so each code is row-reduced once, and the rank of
    G G^T is kept on that basis, so each row space ranks one Gram matrix.
    """

    def __init__(self, G: MatrixFq, label: str = ""):
        basis = SubspaceBasis.from_matrix(G)
        if basis.dim != G.rows:
            raise DimensionMismatch(
                f"generator rows are dependent: rank {basis.dim} < rows {G.rows}"
            )
        self._set(G, basis, label)

    @classmethod
    def from_basis(cls, basis: SubspaceBasis, label: str = "") -> "LinearCode":
        """The code generated by a canonical basis, which is its own RREF."""
        C = cls.__new__(cls)
        C._set(basis.matrix, basis, label)
        return C

    def _set(self, G: MatrixFq, basis: SubspaceBasis, label: str) -> None:
        self.G = G
        self.label = label
        self._canonical = basis
        self._gram: MatrixFq | None = None

    @property
    def field(self) -> Field:
        return self.G.field

    @property
    def N(self) -> int:
        return self.G.cols

    @property
    def K(self) -> int:
        return self.G.rows

    def canonical(self) -> SubspaceBasis:
        return self._canonical

    def gram(self) -> MatrixFq:
        """The K x K matrix G G^T."""
        if self._gram is None:
            self._gram = mat_mul(self.G, transpose(self.G))
        return self._gram

    def gram_rank(self) -> int:
        """rank(G G^T), read from the canonical basis if a code on the same
        row space has taken it: rank(T G G^T T^T) = rank(G G^T) for any
        invertible T."""
        basis = self._canonical
        if basis.gram_rank is None:
            basis.gram_rank = rank(self.gram())
        return basis.gram_rank

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"LinearCode(GF({self.field.q}), [{self.N},{self.K}]{tag})"


class HullReport:
    """Hull of a code computed two independent ways.

    The hull is (C + C^⊥)^⊥, where C + C^⊥ is the sum of the canonical
    bases of C and its dual, computed or proven (:func:`adopt_dual`):
    hull_dim is its codimension, and hull_basis is the canonical basis of
    its orthogonal complement, formed on first read and kept here, unless
    the sum is C or C^⊥, whose complements are linked to each other.
    gram_rank comes from row-reducing G G^T.
    :func:`hull` raises InternalInconsistency unless
    hull_dim = K - gram_rank.
    """

    def __init__(self, span_sum: SubspaceBasis, gram_rank: int):
        self._sum = span_sum
        self.hull_dim = span_sum.ambient - span_sum.dim
        self.gram_rank = gram_rank

    @functools.cached_property
    def hull_basis(self) -> SubspaceBasis:
        return self._sum.complement()

    def to_json(self, basis_monomials=None) -> dict:
        out = {"hull_dim": self.hull_dim, "gram_rank": self.gram_rank}
        if basis_monomials is not None:
            out["basis_monomials"] = [",".join(str(a) for a in m) for m in basis_monomials]
        return out


def _dual_fault(C: LinearCode, basis: SubspaceBasis) -> str | None:
    """Why span(basis) is not C^⊥, or None if it is.

    G·B^T = 0 puts span(B) inside C^⊥, and dim B = N - K = dim C^⊥ makes
    the two equal: one exact product and one count prove the dual. When B
    is C's own canonical basis, it spans C, so G·B^T = 0 exactly when
    G·G^T = 0, and the code's Gram matrix is the product.
    """
    product = C.gram() if basis is C.canonical() else mat_mul(C.G, transpose(basis.matrix))
    if product.a.any():
        return "dual rows are not orthogonal to the generator rows"
    if basis.dim != C.N - C.K:
        return f"dual dimension {basis.dim} != N - K = {C.N} - {C.K}"
    return None


def _dual_label(C: LinearCode) -> str:
    return f"dual({C.label})" if C.label else "dual"


def dual(C: LinearCode) -> LinearCode:
    """The dual code, generated by the complement of C's canonical basis.

    C^⊥ is held once, as that complement, which only :func:`adopt_dual`
    links, after its proof: either a proven candidate, in which case no
    complement is row-reduced, or the complement formed here on first
    need. A complement that fails its proof is linked to nothing, so the
    next call forms and proves it again.

    Raises:
        InternalInconsistency: if a complement formed here is not
        orthogonal to C or its dimension is not N - K (a linear-algebra
        bug).
    """
    own = C.canonical()
    if not own.complement_known():
        basis = own.complement()
        if not adopt_dual(C, basis):
            raise InternalInconsistency(_dual_fault(C, basis))
    return LinearCode.from_basis(own.complement(), label=_dual_label(C))


def adopt_dual(C: LinearCode, basis: SubspaceBasis) -> bool:
    """Take a canonical basis as C's dual if it is proven to span C^⊥.

    The one place a code's C^⊥ is linked. If C^⊥ is already known,
    linked by an earlier adoption (as the sweep's mirrored point links
    it, or :func:`dual` from the complement it formed), the basis is
    compared with it. Otherwise basis is proven orthogonal to C's
    generator rows and to have N - K rows. When basis is C's own
    canonical basis, as at a self-dual point, the orthogonality is read
    from the Gram matrix G G^T, which hull() needs anyway. On success C's
    canonical basis and basis become each other's orthogonal complement
    wherever that link is unset, so dual(C), and a hull basis that is one
    of the two, cost no row reduction. On failure nothing is linked, and
    dual(C) forms the complement unless C^⊥ is already known.

    Raises:
        FieldMismatch, DimensionMismatch: basis is over another field or
        of another length, and C^⊥ is not yet known.
    """
    own = C.canonical()
    if own.complement_known():
        proven = own.complement() == basis
    else:
        proven = _dual_fault(C, basis) is None
    if proven:
        own.link_complement(basis)
    return proven


def hull(C: LinearCode) -> HullReport:
    """Hull = C ∩ C^⊥ = (C + C^⊥)^⊥, cross-checked against K - rank(G G^T).

    C + C^⊥ is the sum of the two canonical bases the code already holds,
    so only the part of the smaller one outside the larger is row-reduced,
    and the hull dimension is N - dim(C + C^⊥). The hull basis, the
    complement of the sum, is row-reduced only when it is read; when one
    of C, C^⊥ contains the other, the sum is the larger basis itself and
    its complement is the other, linked when the dual was computed or
    adopted. A dual adopted by :func:`adopt_dual` (as the sweep does from
    the duality theorem) costs no row reduction here, so at a self-dual
    point only G G^T is row-reduced.

    Raises:
        InternalInconsistency: if the two computations disagree (a
        linear-algebra bug, not a property of the input).
    """
    rep = HullReport(C.canonical() + dual(C).canonical(), C.gram_rank())
    if rep.hull_dim != C.K - rep.gram_rank:
        raise InternalInconsistency(
            f"hull dim {rep.hull_dim} != K - rank(GG^T) = {C.K} - {rep.gram_rank}"
        )
    return rep


def is_self_orthogonal(C: LinearCode) -> bool:
    """C ⊆ C^⊥, equivalently G G^T = 0: the rank of G G^T is read if a
    code on this row space has taken it, else G G^T is tested for zero."""
    rank_taken = C.canonical().gram_rank
    return rank_taken == 0 if rank_taken is not None else not C.gram().a.any()


def is_lcd(C: LinearCode) -> bool:
    """Hull is the zero space, equivalently G G^T invertible."""
    return C.gram_rank() == C.K


def is_self_dual(C: LinearCode) -> bool:
    """C = C^⊥: self-orthogonal with K exactly half the length."""
    return 2 * C.K == C.N and is_self_orthogonal(C)


def contains_vector(C: LinearCode, v) -> bool:
    """True iff v lies in the row space of G.

    Decided by a rank comparison: v is reduced by the pivot rows of the
    canonical basis, and membership means the residual vanishes (adding
    v does not raise the rank).
    """
    v = MatrixFq(C.field, np.asarray(v).reshape(1, -1)).a
    if v.shape[1] != C.N:
        raise DimensionMismatch(f"vector length {v.shape[1]}, code length {C.N}")
    return C.canonical().contains_rows(v)


def equal_codes(C1: LinearCode, C2: LinearCode) -> bool:
    """Row-space equality via canonical RREF comparison."""
    if C1.field != C2.field:
        raise FieldMismatch(f"{C1.field} vs {C2.field}")
    if C1.N != C2.N:
        raise DimensionMismatch(f"lengths {C1.N} vs {C2.N}")
    return C1.canonical() == C2.canonical()


def code_from_rows(field: Field, rows, label: str = "") -> LinearCode:
    """Build a code from possibly dependent spanning rows.

    The rows are canonicalized first, so the resulting generator is the
    RREF basis of their span.
    """
    M = MatrixFq(field, rows)
    return LinearCode.from_basis(SubspaceBasis.from_matrix(M), label=label)
