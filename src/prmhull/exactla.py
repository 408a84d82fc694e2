"""Exact dense linear algebra over F_q: RREF, rank, complements, sums, intersection.

Matrices are numpy int32 arrays of element indices wrapped with their
field. Row reduction picks pivots deterministically (first nonzero entry
scanning top to bottom in the leftmost unresolved column) and runs one
elimination loop for every field. At each pivot the multiples of the
pivot row are formed once (the one-row case of the M4RI table of
pivot-row multiples, Albrecht, Bard and Hart, ACM TOMS 37(1), 2010), and
each active row, with a nonzero pivot-column entry, is updated by a
lookup into them and one subtraction: the active rows are gathered when
they are fewer than half the rows, and the whole trailing block is
updated in place otherwise. Over a field with q <= 256, when the step
updates at least q rows, the multiples are one `take` of the pivot row's
columns from a q x q table of the field's products, built on first use
and cached per field, and the pivot-column entries index them directly;
otherwise the multiples of the distinct entries are formed by one field
product.

Subtraction is made cheap by how the matrix is held. Over characteristic
2 it stays as indices and subtracts by XOR. Otherwise each entry is held
as its base-p digits, split and joined only by the field's `digits` and
`from_digits`, and subtracted without reduction: a pivot column or row
is reduced mod p as it is read, and the trailing block in place every so
many pivots, before any digit can leave its int16 (p < 256) or int32
range.

Elimination is avoided wherever a canonical basis is already known. The
sum of two canonical bases reduces only the rows the smaller one adds to
the larger, after one exact product clears the larger's pivot columns,
so the hull (C + C^⊥)^⊥ never stacks the two N-column bases; and a
basis holds its orthogonal complement once that is proven, and the rank
of its Gram matrix once one code on it has taken it.

Exact products run on float64 BLAS by Kronecker substitution, as in
Dumas, Fousse and Salvy (J. Symb. Comp. 46(7), 2011): g of an element's
base-p digits are packed into one float64 as their digit polynomial
evaluated at 2^b, so one product of packed operands holds every digit of
the convolution in its own b-bit lane. Every term and partial sum is a
nonnegative integer below 2^53, exact in any summation order; a size rule
from (p, e, inner) alone picks g, b and the inner chunk that keep it so.
Over odd p the lanes are cut out with int64 shifts and masks, the x^d
terms (d >= e) folded in, and each output digit reduced once; over
characteristic 2 a digit is the parity of the lanes it folds, one
`bitwise_count` under a mask. OpenBLAS runs each product on the calling
thread: its pool gains these integer sums almost no wall time and spins
a second CPU through them.
"""

from __future__ import annotations

import functools

import numpy as np

from ._blas import one_thread
from .errors import DimensionMismatch, FieldMismatch
from .field import Field, field_make


class MatrixFq:
    """A dense matrix over a finite field.

    Entries are element indices stored as int32. Instances are treated
    as immutable values; operations return new matrices.
    """

    def __init__(self, field: Field, entries):
        a = np.asarray(entries)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
        # checked as given, before a cast to int32 could wrap or truncate
        if a.size and not (a.min() >= 0 and a.max() < field.q):
            raise ValueError(f"entries must be indices in 0..{field.q - 1}")
        if a.dtype != np.int32:
            b = a.astype(np.int32)
            if not np.array_equal(a, b):
                raise ValueError(f"entries must be indices in 0..{field.q - 1}")
            a = b
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
        data = []
        for i, ln in enumerate(lines[1:]):
            vals = ln.split()
            if len(vals) != cols:
                raise ValueError(f"row {i} has {len(vals)} entries, expected {cols}")
            data.append([int(v) for v in vals])
        return cls(field_make(q), np.array(data).reshape(rows, cols))


class SubspaceBasis:
    """Canonical basis of a row space: RREF with zero rows dropped.

    Two SubspaceBasis values compare equal iff the row spaces are equal,
    which makes this the package-wide subspace equality certificate.
    """

    def __init__(self, matrix: MatrixFq, pivots: tuple[int, ...]):
        self.matrix = matrix
        self.pivots = pivots
        self._complement: SubspaceBasis | None = None
        # rank of G G^T, the same for every generator G of this row space;
        # set by the first LinearCode on it that ranks its Gram matrix
        self.gram_rank: int | None = None

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
        """Canonical basis of {x : b·x = 0 for all rows b}.

        The complement linked by :meth:`link_complement` is returned as
        is; otherwise one is formed afresh and linked to nothing. Row i of
        the free-column basis has a 1 in the i-th non-pivot column, zeros
        in the other non-pivot columns, and minus that column of the RREF
        in the pivot columns. It is reduced only in reversed column order,
        so it is row-reduced once more, unless it is the identity (this
        basis is 0) or has no rows.
        """
        if self._complement is not None:
            return self._complement
        f = self.matrix.field
        pivots = set(self.pivots)
        free = [c for c in range(self.ambient) if c not in pivots]
        basis = np.zeros((len(free), self.ambient), dtype=np.int32)
        basis[np.arange(len(free)), free] = 1
        if self.dim and free:
            basis[:, list(self.pivots)] = f.vneg(self.matrix.a[:, free].T)
            return SubspaceBasis.from_matrix(MatrixFq(f, basis))
        return SubspaceBasis(MatrixFq(f, basis), tuple(free))

    def complement_known(self) -> bool:
        """Whether a complement is linked, so complement() forms none."""
        return self._complement is not None

    def link_complement(self, other: "SubspaceBasis") -> None:
        """Record other as this basis's orthogonal complement, and this as
        other's, wherever none is recorded yet. The caller has proven it."""
        if self._complement is None:
            self._complement = other
        if other._complement is None:
            other._complement = self

    def __add__(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Canonical basis of the sum of the two row spaces.

        With A the larger basis, B' = B - B[:, pivots(A)]·A is B reduced
        by A's pivot rows, zero in every pivot column of A. If B' = 0 the
        sum is A itself. Otherwise R = RREF(B') brings new pivots, and
        A' = A - A[:, pivots(R)]·R clears them from A; the rows of A' and
        R, merged by pivot, are the RREF of the sum. Only B' is row-reduced,
        never the stacked [A; B]. A basis summed with itself is the sum, at
        no cost: at a self-dual point C^⊥'s canonical basis is C's own.
        """
        if self.matrix.field != other.matrix.field:
            raise FieldMismatch(f"{self.matrix.field} vs {other.matrix.field}")
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")
        if other is self:
            return self
        A, B = (self, other) if self.dim >= other.dim else (other, self)
        if B.dim == 0:
            return A
        f = A.matrix.field
        B_red = _residual(B.matrix.a, A)
        if not B_red.any():
            return A
        R = SubspaceBasis.from_matrix(MatrixFq(f, B_red))
        A_red = _residual(A.matrix.a, R)
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
        return not _residual(V.astype(np.int32), self).any()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubspaceBasis) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"SubspaceBasis(GF({self.matrix.field.q}), dim {self.dim}, ambient {self.ambient})"


def _residual(V: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """V - V[:, pivots]·basis: V's rows reduced by the pivot rows, zero in
    every pivot column, and zero exactly where a row lies in the span."""
    f = basis.matrix.field
    return f.vsub(V, mat_mul(MatrixFq(f, V[:, list(basis.pivots)]), basis.matrix).a)


# -- row reduction ------------------------------------------------------------


def _rref_array(field: Field, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-reduce a copy of A; returns (RREF array, pivot columns).

    The one elimination loop of this module. D holds each entry's digits,
    rows x cols x digits, as the field splits them; over characteristic 2
    its one digit is the index itself, held as uint16, since XOR keeps
    every index below q <= 2^16. A digit loses at most p - 1 per pivot,
    so the trailing block is reduced every `interval` pivots, before any
    digit can leave its dtype: int16 for digits below 256, which keeps
    the interval at least 128 pivots, and int32 otherwise.
    A column with no nonzero entry in the unresolved rows holds no pivot,
    and the run of such columns after it is skipped at once. An all-zero
    A returns at once.

    A pivot reads its column and its row once each, reduced on the fly,
    and takes the multiples of its row by one of two routes that feed the
    same gather and subtraction. With the product table (q <= 256, and q
    at most the number of rows the step updates) it takes all q multiples
    of the row as read; the normalised row is the multiple by the inverse
    of its leading entry, and the entries, scaled by that inverse, index
    the multiples. Otherwise the row is normalised by one field product,
    and the distinct entries, found by sort and compare, get their
    multiples from one more. The rule keeps the table small (one for
    q = 65536 could not be allocated) and no larger than the rows it
    serves: at q = 243 a table read for few rows was slower than the
    distinct multiples.
    """
    M = A.astype(np.int32, copy=True)
    if not M.any():
        return M, ()
    p, rows, cols = field.p, *M.shape
    lazy = p > 2
    digits, join, read = _loop_codec(field)
    sub = np.subtract if lazy else np.bitwise_xor
    D = digits(M)  # rows x cols x digits
    interval = np.iinfo(D.dtype).max // (p - 1)
    products = table = None
    if field.q <= min(rows, _TABLE_MAX_Q):
        products, table = _product_tables(field)
    pivots = []
    r = since_reduce = c = 0
    while c < cols and r < rows:
        f = read(D[:, c])
        nz = f[r:].nonzero()[0]
        if nz.size == 0:
            c = _next_live_column(D, r, c + 1, p if lazy else 0)
            continue
        i = int(nz[0]) + r
        # Clears the pivot's entry, or after a swap that of the row moved
        # to i; f[r] is 0 already then, as i is the first nonzero.
        f[i] = 0
        if i != r:
            # rows r.. are 0 mod p before column c, so only the rest moves
            swapped = D[i, c:].copy()
            D[i, c:] = D[r, c:]
            D[r, c:] = swapped
        row = read(D[r, c:])
        act = f.nonzero()[0]
        gather = 2 * act.size < rows
        sel = act if gather else slice(None)
        fs = f[sel]
        if table is not None and field.q <= fs.size:
            # the q multiples of the row as read, indexed by the entries
            # scaled by the inverse of its leading entry
            mult = table.take(row, axis=1)
            if row[0] != 1:
                inv = field.inv(int(row[0]))
                D[r, c:] = mult[inv]
                fs = products[inv].take(fs)
        else:
            if row[0] != 1:
                row = field.vmul(field.inv(int(row[0])), row)
                D[r, c:] = digits(row)
            if act.size:
                # Distinct entries by sort and compare: np.unique(f) (numpy
                # 2.4) imports numpy.ma, about 40 ms, on its first call.
                s = np.sort(fs)
                vals = s[np.concatenate(([True], s[1:] != s[:-1]))]
                mult = digits(field.vmul(vals[:, None], row[None, :]))
                fs = np.searchsorted(vals, fs)
        if act.size:
            block = D[sel, c:]
            sub(block, mult.take(fs, axis=0), out=block)
            if gather:
                D[act, c:] = block
        pivots.append(c)
        r += 1
        c += 1
        since_reduce += 1
        if lazy and since_reduce == interval:
            D[:, c:] %= p
            since_reduce = 0
    if lazy:
        D %= p
    return join(D), tuple(pivots)


def _index_digit(x: np.ndarray) -> np.ndarray:
    return x[..., None].astype(np.uint16, copy=False)


def _index_join(d: np.ndarray) -> np.ndarray:
    return d[..., 0].astype(np.int32)


def _loop_codec(field: Field):
    """(digits, join, read) of the elimination loop.

    digits splits indices into the loop's digits and join joins reduced
    digits back: the field's base-p split, or over characteristic 2 the
    index itself as its one uint16 digit. read gives the indices of a
    column or row of the loop's digits, which may be unreduced.
    """
    if field.p == 2:
        return _index_digit, _index_join, _index_join
    p = field.p
    return field.digits, field.from_digits, lambda x: field.from_digits(x % p)


# Fields with a product table: at most 0.6 MiB of digits (q = 243, e = 5)
# beside 256 KiB of int32 indices (q = 256).
_TABLE_MAX_Q = 256


@functools.lru_cache(maxsize=None)
def _product_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(products, table): entry [a, b] holds a*b as an index, q x q, and
    as the loop's digits, q x q x digits.

    Built from Field's public operations on first use and cached per
    field, so importing the package builds none.
    """
    x = np.arange(field.q, dtype=np.int32)
    products = field.vmul(x[:, None], x[None, :])
    table = _loop_codec(field)[0](products)
    products.flags.writeable = table.flags.writeable = False
    return products, table


def _next_live_column(D: np.ndarray, r: int, c: int, p: int) -> int:
    """The first column from c on with a nonzero entry in rows r.., or D's width.

    Windows of columns twice as wide each time are tested at once, so a
    run of columns without a pivot costs a few passes, not a few per
    column. With p > 0 the window's digits are reduced mod p first.
    """
    width = 8
    while c < D.shape[1]:
        window = D[r:, c : c + width]
        if p:
            window %= p
        live = window.any(axis=(0, 2))
        if live.any():
            return c + int(live.argmax())
        c += width
        width *= 2
    return D.shape[1]


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


# B is taken this many columns at a time, so the packed planes and the
# lane sums of a product with many digits and a long output row (the
# n = 1 codes at q = 2048 have rows of 2049) are those of one block, not
# of the whole output.
_PRODUCT_COLUMNS = 256

# An integer float64 sum is exact below 2^53, whatever order BLAS sums in.
_FLOAT_BITS = 53
# The size rule prices a BLAS multiply-add at this fraction of one
# elementwise numpy pass over an output entry.
_FLOPS_PER_PASS = 16


def _product_plan(p: int, e: int, inner: int) -> tuple[int, int, int]:
    """How an exact product over GF(p^e) packs digits: (g, b, L).

    Each float64 operand entry holds g digits of an element in lanes of b
    bits, so a product of two packed values holds 2g - 1 lanes, and
    b = floor(53 / (2g - 1)) keeps the whole of it below 2^53. The e
    digits fill h = ceil(e / g) packed planes; a lane sums at most h*g
    digit products of at most (p-1)^2 per inner index, so L inner indices,
    L*h*g*(p-1)^2 < 2^b, fill a lane without a carry into the next, and
    the inner dimension is taken L at a time. g = 1 is the unpacked
    convolution, one digit per plane, and always fits, since
    e*(p-1)^2 < 2^53.

    Among the g for which one inner index fits, the rule takes the one
    with the least estimated work per output entry: the multiply-adds of
    the h^2 plane pairs over the inner dimension, priced by
    _FLOPS_PER_PASS, plus, per chunk of L, the passes that read the 2h - 1
    products: a cast, then three passes per lane (per output digit over
    characteristic 2).
    """
    best = None
    for g in range(1, e + 1):
        h = -(-e // g)
        b = _FLOAT_BITS // (2 * g - 1)
        L = ((1 << b) - 1) // (h * g * (p - 1) ** 2)
        if L == 0:
            continue
        chunks = max(1, -(-inner // L))
        reads = 3 * (2 * g - 1) if p > 2 else 3 * e
        cost = h * h * inner / _FLOPS_PER_PASS + chunks * (2 * h - 1) * (1 + reads)
        if best is None or cost < best[0]:
            best = (cost, g, b, L)
    return best[1:]


@functools.lru_cache(maxsize=None)
def _packing(field: Field, g: int, b: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(pack, x_powers, masks): the fixed tables of a product over field
    that packs g digits into lanes of b bits.

    pack[x, i] is packed plane i of element x, h = ceil(e/g) planes.
    x_powers[d, t] is digit t of x^d modulo the field modulus, d < 2e - 1;
    x is index p. Over characteristic 2, masks[D] lists (t, the low bits of
    the lanes of packed digit D whose x^d has digit t); otherwise it is
    empty. Built on first use and cached per (field, g, b) as read-only
    arrays, like _product_tables.
    """
    p, e = field.p, field.e
    h = -(-e // g)
    weights = np.zeros((e, h))
    for s in range(e):
        weights[s, s // g] = 2.0 ** (b * (s % g))
    pack = field.digits(np.arange(field.q)) @ weights
    x_powers = np.eye(2 * e - 1, e, dtype=np.int64)
    for d in range(e, 2 * e - 1):
        x_powers[d] = field.digits(field.pow(p, d))
    masks = []
    if p == 2:
        for D in range(2 * h - 1):
            bits = [0] * e
            for lane in range(2 * g - 1):
                if D * g + lane < 2 * e - 1:
                    for t in np.flatnonzero(x_powers[D * g + lane]):
                        bits[t] |= 1 << (b * lane)
            masks.append(tuple((t, m) for t, m in enumerate(bits) if m))
    pack.flags.writeable = x_powers.flags.writeable = False
    return pack, x_powers, tuple(masks)


@one_thread()
def _mat_mul_arrays(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product over F_q via float64 BLAS on packed digits.

    An element with base-p digits a_0, ..., a_{e-1} is its digit
    polynomial; evaluated at x = 2^b, g of its digits make one float64,
    sum_s a_s * 2^(b*s), and an element is h = ceil(e/g) such packed
    planes (see _product_plan for g, b and the chunk L). The product of
    two packed values holds the 2g - 1 coefficients of the product of
    their digit polynomials, each in its own b-bit lane, so one BLAS
    product of packed planes sums the digit convolution of a whole inner
    chunk at once. Packed digit D, the sum of a_i @ b_j over plane pairs
    i + j = D, is one product: A's planes side by side times B's planes
    stacked in reverse order, both sliced to the pairs that meet at D.
    Every term and partial sum is a nonnegative integer below 2^53, so the
    float64 result is exact whatever order BLAS sums in.

    Lane l of packed digit D is convolution digit D*g + l. Over odd p the
    lanes are cut out with int64 shifts and masks and summed over the
    inner chunks in int64; digit t of the product is convolution digit t
    plus each x^d (d >= e) term scaled by digit t of x^d modulo the field
    modulus, reduced once mod p. A convolution digit sums at most e digit
    products per inner index and a folded digit adds e-1 such sums scaled
    by a digit below p, so every int64 value is at most
    inner*(p-1)^2*e*(1 + (e-1)*(p-1)), kept below 2^63. Over
    characteristic 2 only each lane's parity counts: digit t is the
    parity of the low bits of the lanes whose x^d has digit t, one
    `bitwise_count` of the product under a mask, and chunks and packed
    digits combine by XOR. B is taken in blocks of _PRODUCT_COLUMNS
    columns; A's planes are formed once. The packed planes of every
    element, the digits of each x^d and the lane masks come from
    _packing. OpenBLAS runs the whole product on the calling thread.
    """
    p, e = field.p, field.e
    inner = A.shape[1]
    if inner * (p - 1) ** 2 * e * (1 + (e - 1) * (p - 1)) >= 1 << 63:
        raise DimensionMismatch(
            f"inner dimension {inner} too large for an exact product over GF({field.q})"
        )
    g, b, L = _product_plan(p, e, inner)
    h = -(-e // g)
    lanes = 2 * g - 1
    lane_mask = (1 << b) - 1
    # B reads pack's planes in reverse order
    pack, x_powers, masks = _packing(field, g, b)
    a = np.ascontiguousarray(pack.take(A, axis=0).transpose(0, 2, 1))  # rows x h x inner

    def block(cols: np.ndarray) -> np.ndarray:
        """The product of A with the columns cols of B, formed and freed per block."""
        bt = np.ascontiguousarray(pack[:, ::-1].take(cols, axis=0).transpose(2, 0, 1))  # h x inner x n
        shape = (len(A), cols.shape[1])
        # acc[t]: over characteristic 2 the XOR of the parities counted
        # for digit t; otherwise convolution digit t, summed
        acc = np.zeros((e, *shape), np.uint8) if p == 2 else np.zeros((2 * e - 1, *shape), np.int64)
        prod, P, tmp = np.empty(shape), np.empty(shape, np.int64), np.empty(shape, np.int64)
        count = np.empty(shape, np.uint8)
        for k in range(0, max(inner, 1), L):
            ak, bk = a[:, :, k : k + L], bt[:, k : k + L]
            w = ak.shape[2]
            for D in range(2 * h - 1):
                lo, hi = max(0, D - h + 1), min(D, h - 1)
                s = h - 1 - D
                np.matmul(
                    ak[:, lo : hi + 1].reshape(shape[0], (hi - lo + 1) * w),
                    bk[s + lo : s + hi + 1].reshape((hi - lo + 1) * w, shape[1]),
                    out=prod,
                )
                P[...] = prod
                if p == 2:
                    for t, m in masks[D]:
                        np.bitwise_and(P, m, out=tmp)
                        acc[t] ^= np.bitwise_count(tmp, out=count)
                    continue
                for lane in range(min(lanes, 2 * e - 1 - D * g)):
                    x = P
                    if lanes > 1:
                        x = np.right_shift(P, b * lane, out=tmp)
                        if lane < lanes - 1:
                            x &= lane_mask
                    acc[D * g + lane] += x
        if p == 2:
            acc &= 1
        else:
            for d in range(e, 2 * e - 1):
                for t, x in enumerate(x_powers[d]):
                    if x:
                        acc[t] += np.multiply(acc[d], int(x), out=tmp)
            acc = acc[:e]
            acc %= p
        return field.from_digits(np.moveaxis(acc, 0, -1))

    out = np.empty((A.shape[0], B.shape[1]), dtype=np.int32)
    for c in range(0, B.shape[1], _PRODUCT_COLUMNS):
        out[:, c : c + _PRODUCT_COLUMNS] = block(B[:, c : c + _PRODUCT_COLUMNS])
    return out


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
