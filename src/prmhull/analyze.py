"""Exhaustive code analysis: weight distributions, minimum distance,
minimum-weight supports, and t-design verification.

The enumeration engine walks the message space in reflected mixed-radix
order, so each step changes one information symbol by one field step and
the running codeword is updated by adding (or subtracting) a single
generator row. For throughput, the last few message symbols are expanded
into a precomputed block of codewords so every walk step scores a whole
block of messages with vectorized operations. Codes over F_3 use a packed
representation: two bitplanes per codeword and population counts for the
Hamming weight.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .errors import BudgetExceeded, InternalInconsistency, OutOfRange
from .field import field_make

DEFAULT_BUDGET = 1 << 33

# Inner-block sizing: packed blocks hold up to 3^10 codewords; generic
# blocks are capped by total cells so memory stays modest.
_PACK_BLOCK_CAP = 1 << 17
_GENERIC_CELL_CAP = 1 << 22

# Workers are only engaged when every sub-enumeration keeps at least this
# many messages; below that, partitioning overhead dominates.
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
        assert self.counts.ndim == 1 and self.counts[0] == 1

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
            assert b == tuple(sorted(b)) and b not in seen
            assert all(0 <= x < self.ground_size for x in b)
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


def _scan_packed3(field, G, offset, target_w, stop_at):
    K, N = G.shape
    W = (N + 63) // 64
    d_in = _inner_depth(3, K, N)
    in_rows, out_rows = G[K - d_in :], G[: K - d_in]

    # Inner block: all 3^d_in combinations of the trailing rows, built by
    # repeatedly adjoining 0/1/2 times the next row.
    lo = np.zeros((1, W), dtype=np.uint64)
    hi = np.zeros((1, W), dtype=np.uint64)
    for r in in_rows:
        r1 = _pack3(r, W)
        r2 = _pack3(field.vneg(r), W)
        a1 = _add3(lo, hi, *r1)
        a2 = _add3(lo, hi, *r2)
        lo = np.concatenate([lo, a1[0], a2[0]])
        hi = np.concatenate([hi, a1[1], a2[1]])

    plus = [_pack3(r, W) for r in out_rows]
    minus = [_pack3(field.vneg(r), W) for r in out_rows]
    cur = _pack3(offset, W)

    counts = np.zeros(N + 1, dtype=np.int64)
    supports = set() if target_w is not None else None

    def process():
        tl, th = _add3(lo, hi, *cur)
        orb = tl | th
        weights = np.bitwise_count(orb).sum(axis=1, dtype=np.int64)
        counts[:] += np.bincount(weights, minlength=N + 1)
        if supports is not None:
            mask = weights == target_w
            if mask.any():
                for row in orb[mask]:
                    supports.add(tuple(int(x) for x in row))

    process()
    if stop_at is not None and counts[1:stop_at].any():
        return counts, supports, True
    for pos, delta in _gray_steps(3, len(out_rows)):
        step = plus[pos] if delta > 0 else minus[pos]
        cur = _add3(*cur, *step)
        process()
        if stop_at is not None and counts[1:stop_at].any():
            return counts, supports, True
    return counts, supports, False


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


def _scan_generic(field, G, offset, target_w, stop_at):
    K, N = G.shape
    d_in = _inner_depth(field.q, K, N)
    in_rows, out_rows = G[K - d_in :], G[: K - d_in]

    block = np.zeros((1, N), dtype=np.int32)
    for r in in_rows:
        parts = [field.vadd(block, field.vscale(s, r)[None, :]) for s in range(field.q)]
        block = np.concatenate(parts)

    # Each outer symbol steps through the additive group F_p^e: row g
    # becomes the e rows x^b * g (element index p^b is x^b), and the walk
    # runs over e digits of radix p per symbol.
    plus = [field.vscale(field.p**b, r) for r in out_rows for b in range(field.e)]
    minus = [field.vneg(r) for r in plus]
    cur = offset.astype(np.int32)

    counts = np.zeros(N + 1, dtype=np.int64)
    supports = set() if target_w is not None else None

    def process():
        words = field.vadd(block, cur[None, :])
        weights = np.count_nonzero(words, axis=1)
        counts[:] += np.bincount(weights, minlength=N + 1)
        if supports is not None:
            mask = weights == target_w
            if mask.any():
                for row in words[mask]:
                    supports.add(tuple(np.flatnonzero(row)))

    process()
    if stop_at is not None and counts[1:stop_at].any():
        return counts, supports, True
    for pos, delta in _gray_steps(field.p, len(plus)):
        step = plus[pos] if delta > 0 else minus[pos]
        cur = field.vadd(cur, step)
        process()
        if stop_at is not None and counts[1:stop_at].any():
            return counts, supports, True
    return counts, supports, False


# ---------------------------------------------------------------------------
# dispatch, partitioning, workers


def _scan(field, G, offset, target_w, stop_at):
    """Run the packed engine over F_3 and the generic engine otherwise."""
    if field.q != 3:
        return _scan_generic(field, G, offset, target_w, stop_at)
    counts, raw, aborted = _scan_packed3(field, G, offset, target_w, stop_at)
    sup = {_unpack_support_words(k) for k in raw} if raw is not None else None
    return counts, sup, aborted


def _check_budget(C: LinearCode, budget: int) -> int:
    total = C.field.q**C.K
    if total > budget:
        raise BudgetExceeded(f"{total} messages exceed budget {budget}")
    return total


def _partition_depth(q: int, K: int, workers: int) -> int:
    d = 0
    while q**d < workers and d < K and q ** (K - d - 1) >= _MIN_WORKER_STEPS:
        d += 1
    return d


def _scan_task(args):
    q, G, digits, target_w = args
    field = field_make(q)
    d = len(digits)
    offset = np.zeros(G.shape[1], dtype=np.int32)
    for digit, row in zip(digits, G[:d]):
        offset = field.vadd(offset, field.vscale(digit, row))
    counts, sup, _ = _scan(field, G[d:], offset, target_w, None)
    return counts, sup


def _scan_parallel(C: LinearCode, target_w, workers: int):
    field = C.field
    G = C.G.a
    d = _partition_depth(field.q, C.K, workers) if workers > 1 else 0
    if d == 0:
        zero = np.zeros(C.N, dtype=np.int32)
        counts, sup, _ = _scan(field, G, zero, target_w, None)
        return counts, sup
    tasks = [
        (field.q, G, digits, target_w)
        for digits in itertools.product(range(field.q), repeat=d)
    ]
    from multiprocessing import get_context

    with get_context("fork").Pool(workers) as pool:
        parts = pool.map(_scan_task, tasks)
    counts = np.zeros(C.N + 1, dtype=np.int64)
    sup = set() if target_w is not None else None
    for c, s in parts:
        counts += c
        if sup is not None:
            sup |= s
    return counts, sup


# ---------------------------------------------------------------------------
# public operations


def weight_distribution(
    C: LinearCode,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> WeightDistribution:
    """Exact A_0..A_N over all q^K codewords.

    Args:
        C: the code to enumerate.
        budget: maximum number of messages; q^K above it raises.
        workers: partition the message space across this many processes by
            fixing leading message symbols; results are identical for any
            worker count.

    Raises:
        BudgetExceeded: if q^K > budget.
    """
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
    """Minimum nonzero weight by exhaustive scan.

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
    zero = np.zeros(C.N, dtype=np.int32)
    counts, _, _ = _scan(C.field, C.G.a, zero, None, stop_at)
    nz = np.flatnonzero(counts[1:])
    return int(nz[0]) + 1


def min_weight_supports(
    C: LinearCode,
    w: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> BlockFamily:
    """Deduplicated supports of all weight-w codewords.

    Scalar multiples share a support, so the block count is at most
    A_w/(q-1); whether other collisions occur is measured, not assumed.

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
        BudgetExceeded: if q^K > budget.
    """
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
