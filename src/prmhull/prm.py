"""Projective Reed-Muller codes and their closed-form oracles.

The construction side builds generator matrices by evaluating reduced
monomials at projective points. The oracle side evaluates every closed
form (dimension, distance, dual description, self-duality/orthogonality/
LCD classification, hull dimension and hull basis where known) so the
two can be checked against each other on any parameter point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code import (
    HullReport,
    LinearCode,
    adopt_dual,
    hull,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
)
from .errors import DimensionMismatch, InternalInconsistency, OutOfRange
from .exactla import MatrixFq, SubspaceBasis
from .field import Field
from .geometry import (
    Monomial,
    evaluate,
    evaluate_rows,
    monomials_of_degree,
    num_projective_points,
    projective_points,
    reduced_basis_monomials,
)


class _NoClosedForm:
    """Sentinel: no closed-form value is known for this parameter point."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NoClosedForm"


NO_CLOSED_FORM = _NoClosedForm()


@dataclass(frozen=True)
class PrmParams:
    """Parameter point (n, k, q) for the code of degree k on P^n(F_q)."""

    n: int
    k: int
    q: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.q < 2:
            raise OutOfRange(f"need n >= 1, k >= 0, q >= 2; got {self}")

    @property
    def N(self) -> int:
        return num_projective_points(self.q, self.n)

    def regime(self) -> str:
        if self.k == 0:
            return "span-one"
        if self.k <= self.n * (self.q - 1):
            return "proper"
        return "full-space"

    def KD(self) -> tuple[int, int]:
        """Closed-form (K, D) in every regime: (1, N) for the span of the
        all-ones vector, (N, 1) for the full space, and the dimension and
        distance formulas for the proper codes."""
        regime = self.regime()
        if regime == "span-one":
            return 1, self.N
        if regime == "full-space":
            return self.N, 1
        return dim_sorensen(self.n, self.k, self.q), min_dist_formula(self.n, self.k, self.q)


@dataclass(frozen=True)
class DualDescription:
    """Shape of the dual code: degree ell, with the all-ones row adjoined
    exactly when k is a multiple of q - 1."""

    ell: int
    adjoin_ones: bool


def _require_proper(n: int, k: int, q: int) -> None:
    if n < 1 or q < 2 or not 1 <= k <= n * (q - 1):
        raise OutOfRange(f"need n >= 1, q >= 2, 1 <= k <= n(q-1); got n={n}, k={k}, q={q}")


def _comb0(a: int, b: int) -> int:
    # C(a, b) = 0 whenever b < 0 or a < b; in particular C(a, 0) = 1 for a >= 0.
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def dim_sorensen(n: int, k: int, q: int) -> int:
    """Dimension of the degree-k code on P^n(F_q), 1 <= k <= n(q-1).

    Exact evaluation of the alternating double sum over residues
    t = k, k-(q-1), k-2(q-1), ... > 0.
    """
    _require_proper(n, k, q)
    total = 0
    for t in range(k, 0, -(q - 1)):
        for j in range(n + 2):
            sign = -1 if j & 1 else 1
            total += sign * math.comb(n + 1, j) * _comb0(t - j * q + n, t - j * q)
    return total


def dim_mr(n: int, k: int, q: int) -> int:
    """Same dimension via the alternative closed form C(n+k,k) - correction.

    For k < q the correction vanishes and the value is C(n+k, k).
    """
    _require_proper(n, k, q)
    total = math.comb(n + k, k)
    for j in range(2, n + 2):
        sign = -1 if j & 1 else 1
        inner = 0
        for i in range(j - 1):
            t = k + (i + 1) * (q - 1) - j * q
            inner += _comb0(t + n, t)
        total -= sign * math.comb(n + 1, j) * inner
    return total


def min_dist_formula(n: int, k: int, q: int) -> int:
    """Minimum distance (q-s)q^(n-r-1) where k-1 = r(q-1)+s, 0 <= s < q-1."""
    _require_proper(n, k, q)
    r, s = divmod(k - 1, q - 1)
    D = (q - s) * q ** (n - r - 1)
    if k < q and D != (q - k + 1) * q ** (n - 1):
        raise InternalInconsistency(f"distance {D} != (q-k+1)q^(n-1) at n={n}, k={k}, q={q}")
    return D


def dual_description(n: int, k: int, q: int) -> DualDescription:
    """The dual of the degree-k code: degree ell = n(q-1)-k, with the
    all-ones vector adjoined iff k ≡ 0 (mod q-1)."""
    _require_proper(n, k, q)
    return DualDescription(ell=n * (q - 1) - k, adjoin_ones=k % (q - 1) == 0)


def classify_predicted(n: int, k: int, q: int) -> dict[str, bool]:
    """Closed-form self-dual / self-orthogonal / LCD classification.

    self_dual iff q and n are odd and 2k = n(q-1); self_orthogonal iff
    2k <= n(q-1) and 2k ≡ 0 (mod q-1); lcd iff k = n(q-1).
    """
    _require_proper(n, k, q)
    t = n * (q - 1)
    return {
        "self_dual": q % 2 == 1 and n % 2 == 1 and 2 * k == t,
        "self_orthogonal": 2 * k <= t and (2 * k) % (q - 1) == 0,
        "lcd": k == t,
    }


def hull_dim_cases(n: int, k: int, q: int) -> tuple[tuple[str, int], ...]:
    """Every closed-form hull-dimension case matching (n, k, q).

    Returns (label, value) pairs; empty when no closed form applies. The
    labels state the defining inequality of each case.
    """
    _require_proper(n, k, q)
    t = n * (q - 1)
    ell = t - k
    matches: list[tuple[str, int]] = []
    if 2 * k < q - 1:  # (a)
        matches.append(("q>2k+1", dim_sorensen(n, k, q) - 1))
    if 2 * k > 2 * t - (q - 1):  # (b); k = t gives C(n,0)-1 = 0, the LCD point
        matches.append(("q>2l+1", math.comb(n + ell, ell) - 1))
    if q - 1 < 2 * k < 2 * (q - 1):  # (c)
        matches.append(("q-1<2k<2(q-1)", dim_sorensen(n, k, q) - (2 * k + 1 - (q - 1))))
    if (n - 1) * (q - 1) < k and 2 * k < 2 * t - (q - 1):  # (d)
        matches.append(
            ("q-1<2l<2(q-1)", math.comb(n + ell, ell) - (2 * ell + 1 - (q - 1)))
        )
    if 2 * k <= t and (2 * k) % (q - 1) == 0:  # (e)
        matches.append(("self-orthogonal:hull=C", dim_sorensen(n, k, q)))
    if 2 * k >= t and (2 * k) % (q - 1) == 0 and k % (q - 1) != 0:  # (f)
        matches.append(("dual-self-orthogonal:hull=dual", dim_sorensen(n, ell, q)))
    return tuple(matches)


def hull_dim_predicted(n: int, k: int, q: int):
    """Closed-form hull dimension where one is known, else NO_CLOSED_FORM.

    Cases, with t = n(q-1) and ell = t - k (conditions stated with doubled
    inequalities so everything stays in integers):
      (a) 2k < q-1                       -> K - 1
      (b) 2k > 2t - (q-1)                -> C(n+ell, ell) - 1
      (c) q-1 < 2k < 2(q-1)              -> K - (2k+1-(q-1))
      (d) (n-1)(q-1) < k, 2k < 2t-(q-1)  -> C(n+ell, ell) - (2ell+1-(q-1))
      (e) 2k <= t, 2k ≡ 0 (mod q-1)      -> K            (self-orthogonal)
      (f) 2k >= t, 2k ≡ 0, k ≢ 0         -> dim of the degree-ell code

    Overlapping cases are asserted consistent rather than prioritized.
    """
    matches = hull_dim_cases(n, k, q)
    if not matches:
        return NO_CLOSED_FORM
    values = [v for _, v in matches]
    if any(v != values[0] for v in values):
        raise InternalInconsistency(
            f"overlapping hull cases disagree at n={n}, k={k}, q={q}: {matches}"
        )
    return values[0]


def hull_basis_predicted(n: int, k: int, q: int):
    """Monomial basis of the hull where one is known, else NO_CLOSED_FORM.

    For q > 2k+1: every degree-k monomial except x_n^k. For
    (q-1)/2 < k < q-1: every degree-k monomial except x_{n-1}^{k-a} x_n^a
    with q-1-k <= a <= k.
    """
    _require_proper(n, k, q)
    if 2 * k < q - 1:
        monos = monomials_of_degree(n, k)
        last = monos.pop()
        if last != (0,) * n + (k,):
            raise InternalInconsistency(f"last degree-{k} monomial is {last}, not x_{n}^{k}")
        return monos
    if q - 1 < 2 * k < 2 * (q - 1):
        excluded = set()
        for a in range(q - 1 - k, k + 1):
            m = [0] * (n + 1)
            m[n - 1] = k - a
            m[n] = a
            excluded.add(tuple(m))
        return [m for m in monomials_of_degree(n, k) if m not in excluded]
    return NO_CLOSED_FORM


def rsj_hull_dim(k: int, q: int) -> int:
    """Hull dimension over the projective plane, 1 <= k <= 2(q-1).

    C(k+1,2) + min(k, q-1-k) when 2k ≢ 0 (mod q-1); the whole code when
    2k ≡ 0. Degrees above q-1 reduce through the dual, whose hull is the
    same subspace; k = 2(q-1) is the LCD point.
    """
    if q < 2 or not 1 <= k <= 2 * (q - 1):
        raise OutOfRange(f"need 1 <= k <= 2(q-1); got k={k}, q={q}")
    if k == 2 * (q - 1):
        return 0
    if k > q - 1:
        k = 2 * (q - 1) - k
    if (2 * k) % (q - 1) == 0:
        return dim_sorensen(2, k, q)
    return math.comb(k + 1, 2) + min(k, q - 1 - k)


def lcd_witness(field: Field, n: int, k: int) -> np.ndarray:
    """Evaluation of x_0^k, a nonzero vector in both the code and its dual
    whenever 1 <= k < n(q-1)."""
    q = field.q
    if n < 1 or not 1 <= k < n * (q - 1):
        raise OutOfRange(f"witness needs 1 <= k < n(q-1); got n={n}, k={k}, q={q}")
    P = projective_points(field, n)
    return evaluate((k,) + (0,) * n, P)


class PrmCode(LinearCode):
    """A projective Reed-Muller code whose generator rows are labeled by
    the reduced basis monomials, in order."""

    def __init__(self, G: MatrixFq, n: int, k: int, monomials, label: str):
        super().__init__(G, label=label)
        self.n = n
        self.k = k
        self.monomials: tuple[Monomial, ...] = tuple(monomials)


def prm_code(field: Field, n: int, k: int) -> PrmCode:
    """The degree-k code on P^n(F_q).

    k = 0 gives the span of the all-ones vector, the evaluation of the
    constant monomial; 1 <= k <= n(q-1) the proper codes; larger k the
    full space. The constructed rank is checked against the closed-form
    dimension of :meth:`PrmParams.KD`.
    """
    if n < 1 or k < 0:
        raise OutOfRange(f"need n >= 1, k >= 0; got n={n}, k={k}")
    q = field.q
    P = projective_points(field, n)
    monos = reduced_basis_monomials(n, k, q) or [(0,) * (n + 1)]
    G = evaluate_rows(monos, P)
    try:
        C = PrmCode(MatrixFq(field, G), n, k, monos, label=f"PRM(n={n},k={k},q={q})")
    except DimensionMismatch as exc:
        raise InternalInconsistency(f"monomial evaluations are dependent: {exc}") from exc
    expected = PrmParams(n, k, q).KD()[0]
    if C.K != expected:
        raise InternalInconsistency(
            f"constructed rank {C.K} != formula dimension {expected} at n={n}, k={k}, q={q}"
        )
    return C


def described_dual_code(field: Field, n: int, k: int) -> LinearCode:
    """The dual as the duality theorem names it: the degree-ell code, with
    the all-ones row adjoined when k ≡ 0 (mod q-1).

    ell = 0 collapses to the span of the all-ones vector.
    """
    desc = dual_description(n, k, field.q)
    return _described_dual(prm_code(field, n, desc.ell), desc.adjoin_ones)


def _described_dual(base: PrmCode, adjoin: bool) -> LinearCode:
    """base, or span(1, base) if the all-ones row is adjoined to a positive
    degree: the sum of base's canonical basis and the all-ones row, which
    is its own canonical basis, with pivot 0."""
    if not adjoin or base.k == 0:
        return base
    ones = SubspaceBasis(MatrixFq(base.field, np.ones((1, base.N), dtype=np.int32)), (0,))
    return LinearCode.from_basis(ones + base.canonical(), label=f"span(1, {base.label})")


def verify_dual(C: PrmCode, base: PrmCode) -> tuple[bool, bool | None]:
    """Check the duality theorem on a proper code C(n, k, q), given the
    degree-ell code `base` the caller already holds; nothing is built.

    The described dual is proven to be C^⊥ by orthogonality to C and
    dimension N - K (:func:`adopt_dual`), and its canonical basis is then
    linked as the complement of C's: no complement of C is row-reduced,
    and a later hull(C) or dual(C) finds it. If C^⊥ is already known
    (the sweep's mirrored point links it), the two canonical bases are
    compared instead. If the check fails, nothing is linked, and dual(C)
    forms the complement unless C^⊥ is already known.

    Returns (whether the described dual is C^⊥, whether the all-ones
    word lies outside base); the second is None unless the all-ones row
    is adjoined to a code of positive degree. Raises OutOfRange if base
    is not the degree-ell code on the same space.
    """
    desc = dual_description(C.n, C.k, C.field.q)
    if (base.n, base.k, base.field) != (C.n, desc.ell, C.field):
        raise OutOfRange(f"the dual of {C.label} needs degree {desc.ell}, not {base.label}")
    described = _described_dual(base, desc.adjoin_ones)
    verified = adopt_dual(C, described.canonical())
    # span(1, base) is one dimension larger exactly when 1 is outside base
    ones_outside = described.K > base.K if described is not base else None
    return verified, ones_outside


@dataclass
class ClassificationReport:
    """Predicted vs constructed classification at one parameter point, with
    the code, its HullReport, the labels of every matching closed-form hull
    case, and hull_agree: no closed form, or it equals the hull dimension."""

    params: PrmParams
    N: int
    K: int
    D_formula: int
    predicted: dict
    constructed: dict
    agree: bool
    hull_dim_source: str
    code: PrmCode
    hull: HullReport
    hull_cases: tuple[str, ...]
    hull_agree: bool

    def to_json(self) -> dict:
        pred = dict(self.predicted)
        if pred["hull_dim"] is NO_CLOSED_FORM:
            pred["hull_dim"] = "no-closed-form"
        return {
            "n": self.params.n,
            "k": self.params.k,
            "q": self.params.q,
            "N": self.N,
            "K": self.K,
            "D_formula": self.D_formula,
            "predicted": pred,
            "constructed": dict(self.constructed),
            "agree": self.agree,
            "hull_dim_source": self.hull_dim_source,
        }


def classification_report(field: Field, n: int, k: int) -> ClassificationReport:
    """Build the code, measure its predicates and hull, and compare with
    every closed-form prediction available at (n, k, q)."""
    _require_proper(n, k, field.q)
    return classify_code(prm_code(field, n, k))


def classify_code(C: PrmCode) -> ClassificationReport:
    """Measure the predicates and hull of a proper code C(n, k, q) and
    compare them with every closed-form prediction at its point."""
    n, k, q = C.n, C.k, C.field.q
    flags = classify_predicted(n, k, q)
    pred = dict(flags, hull_dim=hull_dim_predicted(n, k, q))
    rep = hull(C)
    cons = {
        "self_dual": is_self_dual(C),
        "self_orthogonal": is_self_orthogonal(C),
        "lcd": is_lcd(C),
        "hull_dim": rep.hull_dim,
    }
    closed = pred["hull_dim"] is not NO_CLOSED_FORM
    hull_agree = not closed or pred["hull_dim"] == rep.hull_dim
    agree = hull_agree and all(cons[key] == value for key, value in flags.items())
    return ClassificationReport(
        PrmParams(n, k, q),
        C.N,
        C.K,
        min_dist_formula(n, k, q),
        pred,
        cons,
        agree,
        "closed-form" if closed else "constructive",
        C,
        rep,
        tuple(label for label, _ in hull_dim_cases(n, k, q)),
        hull_agree,
    )


def check_hull_basis(report: ClassificationReport):
    """([(monomial, lies in the hull), ...], verified) for the predicted
    hull basis, where verified means every member lies in the hull and
    their count is the hull dimension; ([], None) where none is predicted.

    Both closed basis cases have k < q - 1, so each member is read as its
    generator row of the code; InternalInconsistency if one is not a row.
    """
    C, rep = report.code, report.hull
    basis = hull_basis_predicted(C.n, C.k, C.field.q)
    if basis is NO_CLOSED_FORM:
        return [], None
    rows = dict(zip(C.monomials, C.G.a))
    if any(m not in rows for m in basis):
        raise InternalInconsistency(f"a predicted hull member is not a row of {C.label}")
    members = [(m, bool(rep.hull_basis.contains_rows(rows[m][None]))) for m in basis]
    return members, all(ok for _, ok in members) and len(members) == rep.hull_dim
