"""Exact dense linear algebra over F_q: RREF, rank, complements, sums, intersection.

Matrices are numpy int32 arrays of element indices wrapped with their
field. Row reduction picks pivots deterministically (first nonzero entry
scanning top to bottom in the leftmost unresolved column) and runs one
elimination loop for every field. At each pivot the distinct multiples
of the pivot row are formed once (the one-row case of the M4RI table of
pivot-row multiples), and each active row, with a nonzero
pivot-column entry, is updated by a lookup into them and one
subtraction: the active rows are gathered when they are fewer than half
the rows, and the whole trailing block is updated in place otherwise.

Subtraction is made cheap by how the matrix is held. Over characteristic
2 it stays as indices and subtracts by XOR. Otherwise each entry is held
as its base-p digits, subtracted without reduction and reduced mod p
only when a pivot column or row is read and every so many pivots, before
any digit can leave its int16 (p < 256) or int32 range.

Elimination is avoided wherever a canonical basis is already known. The
sum of two canonical bases reduces only the rows the smaller one adds to
the larger, after one exact product clears the larger's pivot columns,
so the hull (C + C^⊥)^⊥ never stacks the two N-column bases; and a
basis caches its orthogonal complement. Exact products run on float64
BLAS over digit planes, one product per convolution digit, and reduce
each output digit once.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FieldMismatch
from .field import Field, field_make


class MatrixFq:
    """A dense matrix over a finite field.

    Entries are element indices stored as int32. Instances are treated
    as immutable values; operations return new matrices.
    """

    def __init__(self, field: Field, entries):
        a = np.asarray(entries, dtype=np.int32)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= field.q):
            raise ValueError(f"entries must be indices in 0..{field.q - 1}")
        self.field = field
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixFq)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field.q, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixFq(GF({self.field.q}), {self.rows}x{self.cols})"

    def to_text(self) -> str:
        """Serialize as 'q rows cols' followed by one line per row."""
        head = f"{self.field.q} {self.rows} {self.cols}"
        body = "\n".join(" ".join(str(int(x)) for x in row) for row in self.a)
        return head + ("\n" + body if self.rows else "") + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MatrixFq":
        """Parse the text format produced by :meth:`to_text`."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError("header must be 'q rows cols'")
        q, rows, cols = (int(x) for x in head)
        if len(lines) - 1 != rows:
            raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
        data = np.zeros((rows, cols), dtype=np.int32)
        for i, ln in enumerate(lines[1:]):
            vals = ln.split()
            if len(vals) != cols:
                raise ValueError(f"row {i} has {len(vals)} entries, expected {cols}")
            data[i] = [int(v) for v in vals]
        return cls(field_make(q), data)


class SubspaceBasis:
    """Canonical basis of a row space: RREF with zero rows dropped.

    Two SubspaceBasis values compare equal iff the row spaces are equal,
    which makes this the package-wide subspace equality certificate.
    """

    def __init__(self, matrix: MatrixFq, pivots: tuple[int, ...]):
        self.matrix = matrix
        self.pivots = pivots
        self._complement: SubspaceBasis | None = None

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def ambient(self) -> int:
        return self.matrix.cols

    @classmethod
    def from_matrix(cls, M: MatrixFq) -> "SubspaceBasis":
        R, pivots, r = rref(M)
        return cls(MatrixFq(M.field, R.a[:r]), pivots)

    def complement(self) -> "SubspaceBasis":
        """Canonical basis of the orthogonal complement {x : b·x = 0 for all rows b}.

        Row i of the free-column basis has a 1 in the i-th non-pivot
        column, zeros in the other non-pivot columns, and minus that
        column of the RREF in the pivot columns. It is reduced only in
        reversed column order, so it is row-reduced once more, unless it
        is the identity (this basis is 0) or has no rows.

        The result is cached on this instance, and this instance on the
        result, since (V^⊥)^⊥ = V: a second call, or the complement of
        the complement, costs nothing.
        """
        if self._complement is None:
            f = self.matrix.field
            pivots = set(self.pivots)
            free = [c for c in range(self.ambient) if c not in pivots]
            basis = np.zeros((len(free), self.ambient), dtype=np.int32)
            basis[np.arange(len(free)), free] = 1
            if self.dim and free:
                basis[:, list(self.pivots)] = f.vneg(self.matrix.a[:, free].T)
                comp = SubspaceBasis.from_matrix(MatrixFq(f, basis))
            else:
                comp = SubspaceBasis(MatrixFq(f, basis), tuple(free))
            comp._complement = self
            self._complement = comp
        return self._complement

    def __add__(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Canonical basis of the sum of the two row spaces.

        With A the larger basis, B' = B - B[:, pivots(A)]·A is B reduced
        by A's pivot rows, zero in every pivot column of A. If B' = 0 the
        sum is A itself. Otherwise R = RREF(B') brings new pivots, and
        A' = A - A[:, pivots(R)]·R clears them from A; the rows of A' and
        R, merged by pivot, are the RREF of the sum. Only B' is row-reduced,
        never the stacked [A; B].
        """
        if self.matrix.field != other.matrix.field:
            raise FieldMismatch(f"{self.matrix.field} vs {other.matrix.field}")
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")
        A, B = (self, other) if self.dim >= other.dim else (other, self)
        if B.dim == 0:
            return A
        f = A.matrix.field
        B_red = f.vsub(B.matrix.a, _reduce_by(B.matrix.a, A))
        if not B_red.any():
            return A
        R = SubspaceBasis.from_matrix(MatrixFq(f, B_red))
        A_red = f.vsub(A.matrix.a, _reduce_by(A.matrix.a, R))
        pivots = A.pivots + R.pivots
        order = np.argsort(pivots, kind="stable")
        rows = np.vstack([A_red, R.matrix.a])[order]
        return SubspaceBasis(MatrixFq(f, rows), tuple(pivots[i] for i in order))

    def contains_rows(self, V: np.ndarray) -> bool:
        """True iff every row of V lies in the span.

        Equivalent to checking that stacking V onto the basis does not
        increase the rank: each row is reduced by the pivot rows and must
        vanish.
        """
        if V.shape[1] != self.ambient:
            raise DimensionMismatch(f"ambient {self.ambient}, vectors of length {V.shape[1]}")
        if self.dim == 0:
            return not V.any()
        V = V.astype(np.int32)
        return not self.matrix.field.vsub(V, _reduce_by(V, self)).any()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubspaceBasis) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"SubspaceBasis(GF({self.matrix.field.q}), dim {self.dim}, ambient {self.ambient})"


def _reduce_by(V: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """V[:, pivots]·basis: the part of V's rows that the pivot rows account for."""
    coeffs = MatrixFq(basis.matrix.field, V[:, list(basis.pivots)])
    return mat_mul(coeffs, basis.matrix).a


# -- row reduction ------------------------------------------------------------


def _rref_array(field: Field, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-reduce a copy of A; returns (RREF array, pivot columns).

    The one elimination loop of this module. D holds each entry's digits,
    rows x cols x digits; over characteristic 2 its one digit is the
    index itself. A digit loses at most p - 1 per pivot, so the trailing
    block is reduced every `interval` pivots, before any digit can leave
    its dtype: int16 for digits below 256, which keeps the interval at
    least 128 pivots, and int32 otherwise. An all-zero A returns at once.
    """
    M = A.astype(np.int32, copy=True)
    if not M.any():
        return M, ()
    p, rows, cols = field.p, *M.shape
    lazy = p > 2
    base = p if lazy else field.q
    w = np.array(field._powers_of_p if lazy else (1,), dtype=np.int32)
    dtype = np.int16 if base <= 256 else np.int32
    interval = np.iinfo(dtype).max // (p - 1)
    sub = np.subtract if lazy else np.bitwise_xor
    table = (np.arange(field.q, dtype=np.int32)[:, None] // w % base).astype(dtype)

    def digits(x: np.ndarray) -> np.ndarray:
        """Indices as digit vectors; a one-digit index is its own digit."""
        return table.take(x, axis=0) if w.size > 1 else x[..., None].astype(dtype, copy=False)

    D = digits(M)  # rows x cols x digits
    pivots = []
    r = since_reduce = 0
    for c in range(cols):
        if r >= rows:
            break
        if lazy:
            D[:, c] %= p
        f = D[:, c] @ w
        nz = np.nonzero(f[r:])[0]
        if nz.size == 0:
            continue
        i = int(nz[0]) + r
        if i != r:
            D[[r, i]] = D[[i, r]]
            f[[r, i]] = f[[i, r]]
        if lazy:
            D[r, c:] %= p
        row = D[r, c:] @ w
        if row[0] != 1:
            row = field.vscale(field.inv(int(row[0])), row)
            D[r, c:] = digits(row)
        f[r] = 0
        act = np.flatnonzero(f)
        if act.size:
            gather = 2 * act.size < rows
            sel = act if gather else slice(None)
            fs = f[sel]
            # Distinct entries by sort and compare: np.unique(f) (numpy 2.4)
            # imports numpy.ma, about 40 ms, on its first call in a process.
            s = np.sort(fs)
            vals = s[np.concatenate(([True], s[1:] != s[:-1]))]
            mult = digits(field.vmul(vals[:, None], row[None, :]))
            block = D[sel, c:]
            sub(block, mult.take(np.searchsorted(vals, fs), axis=0), out=block)
            if gather:
                D[act, c:] = block
        pivots.append(c)
        r += 1
        since_reduce += 1
        if lazy and since_reduce == interval:
            D[:, c + 1 :] %= p
            since_reduce = 0
    if lazy:
        D %= p
    return D @ w, tuple(pivots)


def rref(M: MatrixFq) -> tuple[MatrixFq, tuple[int, ...], int]:
    """Reduced row-echelon form.

    Returns:
        (R, pivots, rank) where R is row-equivalent to M, each pivot
        column holds a leading 1 with zeros elsewhere, and pivot choice
        is deterministic.
    """
    R, pivots = _rref_array(M.field, M.a)
    return MatrixFq(M.field, R), pivots, len(pivots)


def rank(M: MatrixFq) -> int:
    return rref(M)[2]


def transpose(M: MatrixFq) -> MatrixFq:
    return MatrixFq(M.field, M.a.T.copy())


# B is taken this many columns at a time, so the float64 digit planes and
# digits of a product with many digits and a long output row (the n = 1
# codes at q = 2048 have rows of 2049) are those of one block, not of
# the whole output.
_PRODUCT_COLUMNS = 256


def _mat_mul_arrays(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product over F_q via float64 BLAS on digit planes.

    Digit d of the convolution of the operands' digit planes, the sum of
    a_i @ b_j over i + j = d, is one product: A's planes side by side
    times B's planes stacked in reverse order, both sliced to the pairs
    that meet at d. Digit t of the product is convolution digit t plus
    each x^d (d >= e) term scaled by digit t of x^d modulo the field
    modulus. That folded sum is formed in float64 while it is still an
    exact integer, each high digit folded as soon as it is formed, and
    each output digit is then reduced once, as int64 mod p. A convolution
    digit sums at most e plane products of at most inner*(p-1)^2 each,
    and a folded digit adds e-1 such sums scaled by a digit below p, so
    every intermediate value is at most
    inner*(p-1)^2*e*(1 + (e-1)*(p-1)), kept below 2^52. B is taken in
    blocks of _PRODUCT_COLUMNS columns; A's planes are formed once.
    """
    p, e = field.p, field.e
    inner = A.shape[1]
    if inner * (p - 1) ** 2 * e * (1 + (e - 1) * (p - 1)) >= 1 << 52:
        raise DimensionMismatch(
            f"inner dimension {inner} too large for an exact product over GF({field.q})"
        )
    w = np.array(field._powers_of_p, dtype=np.int32)
    a = _digit_planes(field, A[:, None, :], w[:, None]).reshape(A.shape[0], e * inner)

    def conv(b: np.ndarray, d: int) -> np.ndarray:
        lo, hi = max(0, d - e + 1), min(d, e - 1)
        return a[:, lo * inner : (hi + 1) * inner] @ b[(e - 1 - d + lo) * inner : (e - d + hi) * inner]

    out = np.empty((A.shape[0], B.shape[1]), dtype=np.int32)
    for c in range(0, B.shape[1], _PRODUCT_COLUMNS):
        cols = B[:, c : c + _PRODUCT_COLUMNS]
        b = _digit_planes(field, cols[None], w[::-1, None, None]).reshape(e * inner, cols.shape[1])
        digits = [conv(b, t) for t in range(e)]
        for d in range(e, 2 * e - 1):
            high = conv(b, d)
            for t, x in enumerate(_x_power_digits(field, d)):
                if x:
                    digits[t] += x * high
        block = out[:, c : c + _PRODUCT_COLUMNS]
        block[:] = _reduce_exact(digits[0], p)
        for t in range(1, e):
            block += _reduce_exact(digits[t], p) * field._powers_of_p[t]
    return out


def _digit_planes(field: Field, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The base-p digits X // w % p as float64; X itself over a prime field."""
    if field.e == 1:
        return X.astype(np.float64)
    d = X // w
    d %= field.p
    return d.astype(np.float64)


def _reduce_exact(C: np.ndarray, p: int) -> np.ndarray:
    """A float64 array of exact nonnegative integers, reduced mod p as int32."""
    return (C.astype(np.int64) % p).astype(np.int32)


def _x_power_digits(field: Field, d: int) -> tuple[int, ...]:
    """Digit vector of x^d reduced modulo the field modulus."""
    elem = field.pow(field.p, d)  # index of x is p
    return tuple((elem // w) % field.p for w in field._powers_of_p)


def mat_mul(A: MatrixFq, B: MatrixFq) -> MatrixFq:
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    if A.cols != B.rows:
        raise DimensionMismatch(f"{A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    return MatrixFq(A.field, _mat_mul_arrays(A.field, A.a, B.a))


def nullspace(M: MatrixFq) -> SubspaceBasis:
    """Canonical basis of the right kernel {x : M x^T = 0}."""
    return SubspaceBasis.from_matrix(M).complement()


def intersect_rowspaces(A: MatrixFq, B: MatrixFq) -> SubspaceBasis:
    """Canonical basis of rowspace(A) ∩ rowspace(B), as (A^⊥ + B^⊥)^⊥."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    if A.cols != B.cols:
        raise DimensionMismatch(f"ambient {A.cols} vs {B.cols}")
    perp = np.vstack([nullspace(A).matrix.a, nullspace(B).matrix.a])
    return nullspace(MatrixFq(A.field, perp))
