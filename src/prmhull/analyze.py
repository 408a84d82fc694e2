"""Exhaustive code analysis: weight distributions, minimum distance,
minimum-weight supports, and t-design verification.

Scalar multiples of a codeword share its weight and support, so a scan
visits one word per scalar class: the (q^K - 1)/(q - 1) messages whose
first nonzero symbol is 1. Stratum i holds those whose first nonzero
symbol sits at position i; it is G[i] plus every combination of the rows
after it. The distribution is rebuilt as A_0 = 1 and A_w = (q - 1) times
the count of weight w, and supports are collected once per class. Large
strata are split into pieces of equal size for the worker processes.

Within a stratum, the walk runs over the free message symbols in
reflected mixed-radix order, so each step changes one symbol by one
field step. The last few rows are expanded once per scan into an inner
block of codewords, and each step scores the whole block against the
running offset cur. The support of block + cur is the set of coordinates
where the block differs from -cur, so the walk carries -cur and scores a
step by one comparison and a count, with no field addition over the
block; the per-step buffers are allocated once per walk. Codes over F_3
use a packed representation: two bitplanes per word, where negation
swaps the planes, and population counts for the Hamming weight.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .errors import BudgetExceeded, InternalInconsistency, OutOfRange

DEFAULT_BUDGET = 1 << 33

# Inner-block sizing: packed blocks hold up to 3^10 codewords; generic
# blocks are capped by total cells so memory stays modest.
_PACK_BLOCK_CAP = 1 << 17
_GENERIC_CELL_CAP = 1 << 22

# Workers are only engaged when each has at least this many scalar classes
# to score; below that, starting processes costs more than it saves.
_MIN_WORKER_STEPS = 10**6


class _NotADesign:
    """Sentinel: the block family is not a t-design."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NotADesign"


NOT_A_DESIGN = _NotADesign()


class WeightDistribution:
    """Codeword counts by Hamming weight, A_0 .. A_N, as exact integers."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.ndim != 1 or len(self.counts) == 0 or self.counts[0] != 1:
            raise InternalInconsistency(f"not a weight distribution: {self.counts.tolist()}")

    @property
    def N(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return int(self.counts.sum())

    def min_nonzero_weight(self) -> int:
        nz = np.flatnonzero(self.counts[1:])
        if len(nz) == 0:
            raise OutOfRange("no nonzero codeword")
        return int(nz[0]) + 1

    def to_pairs(self) -> list[list[int]]:
        """[weight, count] pairs with zero counts omitted."""
        return [[w, int(c)] for w, c in enumerate(self.counts) if c]

    def to_polynomial_string(self) -> str:
        """Homogeneous enumerator, e.g. 'x^4 + 8xy^3' for the tetracode."""
        N = self.N
        terms = []
        for w, c in enumerate(self.counts):
            if not c:
                continue
            xs = f"x^{N - w}" if N - w > 1 else ("x" if N - w == 1 else "")
            ys = f"y^{w}" if w > 1 else ("y" if w == 1 else "")
            coef = str(int(c)) if c != 1 or not (xs or ys) else ""
            terms.append(coef + xs + ys)
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightDistribution) and np.array_equal(
            self.counts, other.counts
        )

    def __repr__(self) -> str:
        return f"WeightDistribution({self.to_pairs()})"


@dataclass(frozen=True)
class BlockFamily:
    """Deduplicated coordinate subsets (supports) over {0..ground_size-1}."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if b != tuple(sorted(b)) or b in seen:
                raise ValueError(f"block {b} is unsorted or repeated")
            if not all(0 <= x < self.ground_size for x in b):
                raise ValueError(f"block {b} leaves 0..{self.ground_size - 1}")
            seen.add(b)

    def to_json(self) -> dict:
        return {"ground_size": self.ground_size, "blocks": [list(b) for b in self.blocks]}


# ---------------------------------------------------------------------------
# reflected mixed-radix walk


def _gray_steps(radix: int, ndigits: int):
    """Steps (position, ±1) of a reflected base-`radix` counter.

    Applying the steps in order visits all radix^ndigits digit tuples,
    changing exactly one digit by one unit per step.
    """
    digits = [0] * ndigits
    dirs = [1] * ndigits
    while True:
        pos = ndigits - 1
        while pos >= 0:
            nxt = digits[pos] + dirs[pos]
            if 0 <= nxt < radix:
                digits[pos] = nxt
                yield pos, dirs[pos]
                break
            dirs[pos] = -dirs[pos]
            pos -= 1
        else:
            return


def _inner_depth(q: int, K: int, N: int) -> int:
    if q == 3:
        cap = _PACK_BLOCK_CAP
    else:
        cap = max(q, _GENERIC_CELL_CAP // max(N, 1))
    d = 0
    while d < K and q ** (d + 1) <= cap:
        d += 1
    return d


# ---------------------------------------------------------------------------
# packed engine for F_3
#
# A block is a (2, W, n) uint64 array: the low and high bitplanes of n
# words, 64 coordinates per plane word. Bit j of the low (high) plane is
# set where the coordinate is 1 (2).


def _pack3(v: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack a trit vector into per-64-coordinate (low, high) bitplanes."""
    lo = np.zeros(W, dtype=np.uint64)
    hi = np.zeros(W, dtype=np.uint64)
    for j, t in enumerate(v):
        w, b = divmod(j, 64)
        if t == 1:
            lo[w] |= np.uint64(1) << np.uint64(b)
        elif t == 2:
            hi[w] |= np.uint64(1) << np.uint64(b)
    return lo, hi


def _add3(al, ah, bl, bh):
    """Coordinatewise sum in F_3 on bitplanes (broadcasts)."""
    cl = ((al ^ bl) & ~(ah | bh)) | (ah & bh)
    ch = ((ah ^ bh) & ~(al | bl)) | (al & bl)
    return cl, ch


def _block3(field, rows):
    """All 3^d combinations of the d rows, those of the last j rows first."""
    W = (rows.shape[1] + 63) // 64
    block = np.zeros((2, W, 1), dtype=np.uint64)
    for r in rows[::-1]:
        lo, hi = (x[:, None] for x in _pack3(r, W))
        plus = _add3(block[0], block[1], lo, hi)
        minus = _add3(block[0], block[1], hi, lo)  # -r: the planes swapped
        block = np.concatenate([block, np.stack(plus), np.stack(minus)], axis=2)
    return block


def _walk3(field, block, outer, offset, target_w, stop_at):
    lo, hi = block
    W, n = lo.shape
    N = len(offset)
    steps = [tuple(x[:, None] for x in _pack3(r, W)) for r in outer]
    nlo, nhi = (x[:, None] for x in _pack3(field.vneg(offset), W))

    diff = np.empty((W, n), dtype=np.uint64)
    tmp = np.empty((W, n), dtype=np.uint64)
    pop = np.empty((W, n), dtype=np.uint8)
    weights = np.empty(n, dtype=np.min_scalar_type(64 * W))
    counts = np.zeros(N + 1, dtype=np.int64)
    raw = set() if target_w is not None else None

    def score():
        # Where a word of the block differs from -cur, its sum with cur
        # is nonzero: a trit pair differs exactly where either plane does.
        np.bitwise_xor(lo, nlo, out=diff)
        np.bitwise_xor(hi, nhi, out=tmp)
        np.bitwise_or(diff, tmp, out=diff)
        np.bitwise_count(diff, out=pop)
        np.add.reduce(pop, axis=0, dtype=weights.dtype, out=weights)
        hist = np.bincount(weights, minlength=N + 1)
        counts[:] += hist
        if raw is not None and hist[target_w]:
            for col in diff[:, weights == target_w].T:
                raw.add(tuple(col.tolist()))
        return stop_at is not None and hist[1:stop_at].any()

    aborted = score()
    if not aborted:
        for pos, delta in _gray_steps(3, len(steps)):
            sl, sh = steps[pos]
            # -(cur ± step) = -cur ∓ step, and -step has the planes of step swapped
            nlo, nhi = _add3(nlo, nhi, sh, sl) if delta > 0 else _add3(nlo, nhi, sl, sh)
            if score():
                aborted = True
                break
    sup = {_unpack_support_words(k) for k in raw} if raw is not None else None
    return counts, sup, aborted


def _unpack_support_words(words: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for w, word in enumerate(words):
        j = 0
        while word:
            if word & 1:
                out.append(w * 64 + j)
            word >>= 1
            j += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# generic engine
#
# A block is an (N, n) array of n words, one per column, in the smallest
# unsigned type that holds q - 1.


def _block_generic(field, rows):
    """All q^d combinations of the d rows, those of the last j rows first."""
    dtype = np.min_scalar_type(field.q - 1)
    block = np.zeros((rows.shape[1], 1), dtype=dtype)
    for r in rows[::-1]:
        parts = [
            field.vadd(block, field.vscale(s, r)[:, None]).astype(dtype)
            for s in range(field.q)
        ]
        block = np.concatenate(parts, axis=1)
    return block


def _walk_generic(field, block, outer, offset, target_w, stop_at):
    N, n = block.shape
    # Each outer symbol steps through the additive group F_p^e: row g
    # becomes the e rows x^b * g (element index p^b is x^b), and the walk
    # runs over e digits of radix p per symbol.
    steps = [field.vscale(field.p**b, r) for r in outer for b in range(field.e)]
    neg = field.vneg(offset)

    differs = np.empty((N, n), dtype=bool)
    weights = np.empty(n, dtype=np.min_scalar_type(N))
    counts = np.zeros(N + 1, dtype=np.int64)
    supports = set() if target_w is not None else None

    def score():
        # The support of block + cur is where block differs from -cur.
        np.not_equal(block, neg.astype(block.dtype)[:, None], out=differs)
        np.add.reduce(differs.view(np.uint8), axis=0, dtype=weights.dtype, out=weights)
        hist = np.bincount(weights, minlength=N + 1)
        counts[:] += hist
        if supports is not None and hist[target_w]:
            for col in differs[:, weights == target_w].T:
                supports.add(tuple(np.flatnonzero(col).tolist()))
        return stop_at is not None and hist[1:stop_at].any()

    if score():
        return counts, supports, True
    for pos, delta in _gray_steps(field.p, len(steps)):
        # -(cur ± step) = -cur ∓ step
        neg = field.vsub(neg, steps[pos]) if delta > 0 else field.vadd(neg, steps[pos])
        if score():
            return counts, supports, True
    return counts, supports, False


def _scan_generic(field, G, offset, target_w, stop_at):
    """Walk all q^K words offset + mG with the generic engine.

    Returns (counts, supports, aborted). The class scan reaches the
    generic engine through `_walk_generic`; this full walk is the
    reference the tests hold the packed engine and the class scan to.
    """
    K, N = G.shape
    d = _inner_depth(field.q, K, N)
    block = _block_generic(field, G[K - d :])
    return _walk_generic(field, block, G[: K - d], offset, target_w, stop_at)


# ---------------------------------------------------------------------------
# scalar classes, pieces, workers


class _ClassScan:
    """Walks the scalar classes of the row space of G, a piece at a time.

    A piece (i, digits) is the part of stratum i whose first len(digits)
    free symbols are fixed to `digits`: its words are G[i] plus those
    digits times the next rows, plus every combination of the rest. The
    inner block, shared by all pieces, holds the combinations of the
    trailing rows; a piece with fewer free rows uses a prefix of it.
    """

    def __init__(self, field, G, target_w):
        K, N = G.shape
        self.field, self.G, self.target_w = field, G, target_w
        self.depth = _inner_depth(field.q, K - 1, N)
        build, self.walk = (_block3, _walk3) if field.q == 3 else (_block_generic, _walk_generic)
        self.block = build(field, G[K - self.depth :])

    def run(self, piece, stop_at=None):
        """(counts, supports, aborted) over the words of one piece."""
        i, digits = piece
        field, G = self.field, self.G
        K = len(G)
        offset = G[i]
        for digit, row in zip(digits, G[i + 1 :]):
            offset = field.vadd(offset, field.vscale(digit, row))
        free = K - 1 - i - len(digits)
        d = min(free, self.depth)
        block = self.block[..., : field.q**d]
        return self.walk(field, block, G[K - free : K - d], offset, self.target_w, stop_at)


def _pieces(q: int, K: int, workers: int) -> list[tuple[int, tuple[int, ...]]]:
    """Pieces covering every scalar class once, largest first.

    Stratum i holds the q^(K-1-i) messages whose first nonzero symbol is
    a 1 at position i. A stratum of more than a quarter of one worker's
    share is split by fixing its leading free symbols into pieces of the
    same size, at most that quarter, so workers handed pieces largest
    first finish close together.
    """
    classes = (q**K - 1) // (q - 1)
    size = -(-classes // (4 * workers))
    out = []
    for i in range(K):
        t = 0
        while q ** (K - 1 - i - t) > size:
            t += 1
        out.extend((i, digits) for digits in itertools.product(range(q), repeat=t))
    return out


_worker_scan: _ClassScan | None = None  # set in each pool worker by _init_worker


def _init_worker(scan: _ClassScan) -> None:
    global _worker_scan
    _worker_scan = scan


def _run_piece(piece):
    return _worker_scan.run(piece)


def _check_budget(C: LinearCode, budget: int) -> int:
    total = C.field.q**C.K
    if total > budget:
        raise BudgetExceeded(f"{total} messages exceed budget {budget}")
    return total


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise OutOfRange(f"workers must be >= 1; got {workers}")


def _scan_parallel(C: LinearCode, target_w, workers: int, stop_at=None):
    """(A_0..A_N, weight-target_w supports) from one word per scalar class.

    Scalar multiples share weight and support, so the scan visits the
    (q^K - 1)/(q - 1) messages whose first nonzero symbol is 1 and
    rebuilds A_0 = 1, A_w = (q - 1) * count. `stop_at` (one worker
    only) ends the scan at the first block of words that holds a word of
    weight below it.
    """
    q, K = C.field.q, C.K
    counts = np.zeros(C.N + 1, dtype=np.int64)
    sup = set() if target_w is not None else None
    if K:
        scan = _ClassScan(C.field, C.G.a, target_w)
        if (q**K - 1) // (q - 1) < workers * _MIN_WORKER_STEPS:
            workers = 1
        pieces = _pieces(q, K, workers)
        if workers > 1:
            from multiprocessing import get_context

            with get_context("fork").Pool(workers, _init_worker, (scan,)) as pool:
                parts = list(pool.imap_unordered(_run_piece, pieces))
        else:
            parts = (scan.run(piece, stop_at) for piece in pieces)
        for c, s, aborted in parts:
            counts += c
            if sup is not None:
                sup |= s
            if aborted:
                break
    counts[1:] *= q - 1
    counts[0] = 1
    return counts, sup


# ---------------------------------------------------------------------------
# public operations


def weight_distribution(
    C: LinearCode,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> WeightDistribution:
    """Exact A_0..A_N over all q^K codewords, from one word per scalar class.

    Args:
        C: the code to enumerate.
        budget: maximum number of messages; q^K above it raises.
        workers: split the scalar classes across this many processes by
            fixing leading message symbols; results are identical for any
            worker count.

    Raises:
        OutOfRange: if workers < 1.
        BudgetExceeded: if q^K > budget.
    """
    _check_workers(workers)
    total = _check_budget(C, budget)
    counts, _ = _scan_parallel(C, None, workers)
    if int(counts.sum()) != total:
        raise InternalInconsistency(f"enumerated {int(counts.sum())} of {total} messages")
    return WeightDistribution(counts)


def min_distance(
    C: LinearCode,
    budget: int = DEFAULT_BUDGET,
    stop_at: int | None = None,
) -> int:
    """Minimum nonzero weight by exhaustive scan of one word per scalar class.

    With `stop_at` set to a claimed lower bound on the distance, the scan
    aborts as soon as any codeword of weight strictly below the bound
    appears and returns that witness weight; otherwise the scan completes
    and the result is the exact minimum.

    Raises:
        BudgetExceeded: if q^K > budget.
        OutOfRange: if the code has no nonzero codeword.
    """
    _check_budget(C, budget)
    if C.K == 0:
        raise OutOfRange("zero-dimensional code has no nonzero codeword")
    counts, _ = _scan_parallel(C, None, 1, stop_at)
    nz = np.flatnonzero(counts[1:])
    return int(nz[0]) + 1


def min_weight_supports(
    C: LinearCode,
    w: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> BlockFamily:
    """Deduplicated supports of all weight-w codewords.

    Scalar multiples share a support, so the scan takes the support of one
    word per scalar class and the block count is at most A_w/(q-1);
    whether two classes share a support is measured, not assumed.

    Raises:
        BudgetExceeded: if q^K > budget.
    """
    _, fam = weight_distribution_with_supports(C, w, budget, workers)
    return fam


def weight_distribution_with_supports(
    C: LinearCode,
    w: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
):
    """Distribution and weight-w supports from a single pass.

    Equivalent to calling weight_distribution and min_weight_supports
    separately, at the cost of one scan instead of two.

    Returns:
        (WeightDistribution, BlockFamily) pair.

    Raises:
        OutOfRange: if workers < 1 or w is not in 1..N.
        BudgetExceeded: if q^K > budget.
    """
    _check_workers(workers)
    total = _check_budget(C, budget)
    if not 0 < w <= C.N:
        raise OutOfRange(f"weight must be in 1..{C.N}; got {w}")
    counts, sup = _scan_parallel(C, w, workers)
    if int(counts.sum()) != total:
        raise InternalInconsistency(f"enumerated {int(counts.sum())} of {total} messages")
    return WeightDistribution(counts), BlockFamily(C.N, tuple(sorted(sup)))


def design_lambda(B: BlockFamily, t: int):
    """λ if every t-subset of the ground set lies in exactly λ ≥ 1 blocks.

    Returns NOT_A_DESIGN when blocks have mixed sizes, when some t-subset
    is uncovered, or when coverage is uneven.
    """
    if t < 1:
        raise OutOfRange(f"t must be >= 1; got {t}")
    if not B.blocks:
        return NOT_A_DESIGN
    size = len(B.blocks[0])
    if any(len(b) != size for b in B.blocks) or t > size:
        return NOT_A_DESIGN
    cover = Counter()
    for b in B.blocks:
        cover.update(itertools.combinations(b, t))
    if len(cover) != math.comb(B.ground_size, t):
        return NOT_A_DESIGN
    lam = next(iter(cover.values()))
    if any(v != lam for v in cover.values()):
        return NOT_A_DESIGN
    return lam
