"""Exhaustive code analysis: weight distributions, minimum distance,
minimum-weight supports, and t-design verification.

Scalar multiples of a codeword share its weight and support, so a scan
visits one word per scalar class: the (q^K - 1)/(q - 1) messages whose
first nonzero symbol is 1. Stratum i holds those whose first nonzero
symbol sits at position i; it is G[i] plus every combination of the rows
after it. The distribution is rebuilt as A_0 = 1 and A_w = (q - 1) times
the count of weight w, and supports are collected once per class. One
worker walks each stratum whole; only a scan split over several workers
cuts large strata into pieces of equal size, dealt into shares that
finish close together. The scanning process walks one share itself and
a child forked from it walks each other one. There is no second, full
walk: the tests check counts and supports against brute-force oracles.

Within a stratum, the walk runs over the free message symbols in
reflected mixed-radix order, so each step changes one symbol by one
field step. The last few rows are expanded once per scan into an inner
block of codewords, and each step scores the whole block against the
running offset cur. The support of block + cur is the set of coordinates
where the block differs from -cur, so the walk carries -cur and scores a
step by one comparison and a count, with no field addition over the
block; the per-step buffers are allocated once per walk. The generic
block is allocated once and written in place, a row's q multiples at a
time, each by one add in the block's own type: XOR over characteristic
2, a sum and a conditional subtraction of p over a prime field, and a
lookup in the q x q addition table over an odd extension field. Codes
over F_3 use a packed representation: two bitplanes per word, where
negation swaps the planes, and population counts for the Hamming weight.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
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
# to score; below that, forking a child costs more than it saves. In
# medians of 9-21 alternating weight_distribution calls on random codes
# (2 CPUs, six series), 2 workers against 1 lost or tied at 1.2e6 classes
# per worker over F_3 (10.0-18.2 against 7.5-11.5 ms), were about even at
# 1.05e6-1.22e6 over F_2, F_5 and F_8, and won from 2.1e6 on (F_2, 2.1e6:
# 28.8-35.6 against 39.8-43.1 ms; F_9, 2.7e6: 27.8-36.3 against
# 37.5-40.8 ms), but for F_2 in the one series run while the second CPU
# was busy (48.7 against 41.3 ms).
_MIN_WORKER_STEPS = 2 * 10**6


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
# weight counting


class _WeightTally:
    """Counts of the weights 0..N of a walk's words, one block per step.

    A walk writes each step's n weights into `weights` and calls add().
    Weights that fit a byte (N <= 255) are counted in pairs when the block
    holds at least 128(N + 1) words: they sit at the front of an
    even-length uint8 buffer, padded with one weight 0 when n is odd, whose
    uint16 view holds one pair of weights per element, so one bincount
    over n/2 elements counts a step. The pair counts build up in one array
    of 256(N + 1), and counts() folds them: weight w is the count of pairs
    with w in either byte, a row sum plus a column sum, less the padding.
    Each pair count also fills and adds about 256 bins per unit of the
    step's largest weight, which a narrower block does not repay (the two
    routes cost the same near n = 100..150 (N + 1)), so narrower blocks,
    like weights past one byte, are counted one by one.
    """

    def __init__(self, N: int, n: int):
        self.N = N
        if N < 256 and n >= 128 * (N + 1):
            buf = np.zeros(n + n % 2, dtype=np.uint8)
            self._pairs = buf.view(np.uint16)
            self._tally = np.zeros(256 * (N + 1), dtype=np.int64)
        else:
            buf = np.empty(n, dtype=np.min_scalar_type(N))
            self._pairs = None
            self._tally = np.zeros(N + 1, dtype=np.int64)
        self.weights = buf[:n]
        self._padded = len(buf) - n
        self._steps = 0
        self._below = np.empty_like(self.weights)

    def add(self) -> None:
        """Count the current weights."""
        if self._pairs is None:
            self._tally += np.bincount(self.weights, minlength=self.N + 1)
        else:
            h = np.bincount(self._pairs)
            self._tally[: len(h)] += h
            self._steps += 1

    def any_below(self, stop_at: int) -> bool:
        """Whether a current weight w has 0 < w < stop_at.

        Weight 0 wraps to the type's maximum, at least N, so it never
        counts; every other weight w becomes w - 1.
        """
        np.subtract(self.weights, 1, out=self._below)
        return int(self._below.min()) < min(stop_at, self.N + 1) - 1

    def counts(self) -> np.ndarray:
        """A_0..A_N over every step counted."""
        if self._pairs is None:
            return self._tally
        pairs = self._tally.reshape(self.N + 1, 256)
        out = pairs.sum(axis=1) + pairs[:, : self.N + 1].sum(axis=0)
        out[0] -= self._steps * self._padded
        return out


# ---------------------------------------------------------------------------
# packed engine for F_3
#
# A block is a (2, W, n) uint64 array: the low and high bitplanes of n
# words, 64 coordinates per plane word. Bit j of the low (high) plane is
# set where the coordinate is 1 (2).


def _pack3(v: np.ndarray, W: int) -> np.ndarray:
    """Pack a trit vector into per-64-coordinate (low, high) bitplanes."""
    bits = np.zeros((2, 64 * W), dtype=bool)
    bits[0, : len(v)] = v == 1
    bits[1, : len(v)] = v == 2
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


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
    tally = _WeightTally(N, n)
    weights = tally.weights
    # One plane word's popcounts are the weights themselves.
    pop = weights[None] if W == 1 else np.empty((W, n), dtype=np.uint8)
    raw = set() if target_w is not None else None

    def score():
        # Where a word of the block differs from -cur, its sum with cur
        # is nonzero: a trit pair differs exactly where either plane does.
        np.bitwise_xor(lo, nlo, out=diff)
        np.bitwise_xor(hi, nhi, out=tmp)
        np.bitwise_or(diff, tmp, out=diff)
        np.bitwise_count(diff, out=pop)
        if W > 1:
            np.add.reduce(pop, axis=0, dtype=weights.dtype, out=weights)
        tally.add()
        if raw is not None:
            hits = weights == target_w
            if hits.any():
                for col in diff[:, hits].T:
                    raw.add(tuple(col.tolist()))
        return stop_at is not None and tally.any_below(stop_at)

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
    return tally.counts(), sup, aborted


def _unpack_support_words(words: tuple[int, ...]) -> tuple[int, ...]:
    bits = np.unpackbits(np.array(words, dtype="<u8").view(np.uint8), bitorder="little")
    return tuple(np.flatnonzero(bits).tolist())


# ---------------------------------------------------------------------------
# generic engine
#
# A block is an (N, n) array of n words, one per column, in the smallest
# unsigned type that holds q - 1; over a prime field, 2(q - 1), the largest
# sum of two entries before it is reduced.


def _block_generic(field, rows):
    """All q^d combinations of the d rows, those of the last j rows first.

    The block is allocated once and filled in place. Its first q columns
    are the multiples of the last row; then, with the combinations of the
    last j rows in its first n = q^j columns, columns s*n..(s+1)*n become
    those plus s times the row before them, one add per scalar s in the
    block's own type: XOR over characteristic 2, a sum and one conditional
    subtraction over a prime field, and a lookup in the q x q addition
    table over an odd extension field.
    """
    q, p, e = field.q, field.p, field.e
    N, d = rows.shape[1], len(rows)
    dtype = np.min_scalar_type(2 * (q - 1) if e == 1 else q - 1)
    block = np.zeros((N, q**d), dtype=dtype)
    if d:
        for s in range(1, q):
            block[:, s] = field.vmul(s, rows[-1])
    if p != 2 and e > 1 and d > 1:
        # entry [a*q + b] is a + b; a block of two rows or more has at
        # least its q^2 columns, while one row needs no sums at any q
        i = np.arange(q)
        table = field.vadd(i[:, None], i).astype(dtype).ravel()
    n = q
    for r in rows[-2::-1]:
        done = block[:, :n]
        multiples = field.vmul(np.arange(q)[:, None], r).astype(dtype)
        for s in range(1, q):
            part, sr = block[:, s * n : (s + 1) * n], multiples[s][:, None]
            if p == 2:
                np.bitwise_xor(done, sr, out=part)
            elif e == 1:
                # a sum lies in 0..2p-2; below p, subtracting p wraps
                # above it, so the minimum is the reduced sum
                np.add(done, sr, out=part)
                np.minimum(part, part - dtype.type(p), out=part)
            else:
                np.take(table, done + q * sr.astype(np.intp), out=part)
        n *= q
    return block


def _walk_generic(field, block, outer, offset, target_w, stop_at):
    N, n = block.shape
    # Each outer symbol steps through the additive group F_p^e: row g
    # becomes the e rows x^b * g (element index p^b is x^b), and the walk
    # runs over e digits of radix p per symbol.
    steps = [field.vmul(field.p**b, r) for r in outer for b in range(field.e)]
    neg = field.vneg(offset)

    differs = np.empty((N, n), dtype=bool)
    tally = _WeightTally(N, n)
    weights = tally.weights
    supports = set() if target_w is not None else None

    def score():
        # The support of block + cur is where block differs from -cur.
        np.not_equal(block, neg.astype(block.dtype)[:, None], out=differs)
        np.add.reduce(differs.view(np.uint8), axis=0, dtype=weights.dtype, out=weights)
        tally.add()
        if supports is not None:
            hits = weights == target_w
            if hits.any():
                for col in differs[:, hits].T:
                    supports.add(tuple(np.flatnonzero(col).tolist()))
        return stop_at is not None and tally.any_below(stop_at)

    if score():
        return tally.counts(), supports, True
    for pos, delta in _gray_steps(field.p, len(steps)):
        # -(cur ± step) = -cur ∓ step
        neg = field.vsub(neg, steps[pos]) if delta > 0 else field.vadd(neg, steps[pos])
        if score():
            return tally.counts(), supports, True
    return tally.counts(), supports, False


# ---------------------------------------------------------------------------
# scalar classes, pieces, workers


class _ClassScan:
    """Walks the scalar classes of the row space of G, a piece at a time.

    A piece (i, digits) is the part of stratum i whose first len(digits)
    free symbols are fixed to `digits`: its words are G[i] plus those
    digits times the next rows, plus every combination of the rest; the
    piece (i, ()) is the whole stratum. The inner block, shared by all
    pieces, holds the combinations of the trailing rows; a piece with
    fewer free rows uses a prefix of it.
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
            offset = field.vadd(offset, field.vmul(digit, row))
        free = K - 1 - i - len(digits)
        d = min(free, self.depth)
        block = self.block[..., : field.q**d]
        return self.walk(field, block, G[K - free : K - d], offset, self.target_w, stop_at)


def _pieces(q: int, K: int, workers: int) -> list[tuple[int, tuple[int, ...]]]:
    """Pieces for `workers` shares of a scan, covering every scalar class
    once, largest first.

    Stratum i holds the q^(K-1-i) messages whose first nonzero symbol is
    a 1 at position i. A stratum of more than a quarter of one worker's
    share is split by fixing its leading free symbols into pieces of the
    same size, at most that quarter, so that shares dealt the pieces
    largest first (`_shares`) finish close together.
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


def _shares(q: int, K: int, workers: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The pieces of `_pieces` dealt to `workers` shares: largest first,
    each to the first of the shares holding the fewest classes so far."""
    shares = [[] for _ in range(workers)]
    load = [0] * workers
    for i, digits in _pieces(q, K, workers):
        j = load.index(min(load))
        shares[j].append((i, digits))
        load[j] += q ** (K - 1 - i - len(digits))
    return shares


def _run_shares(scan: _ClassScan, shares) -> list:
    """The parts of every piece of `shares`: share 0 walked in this
    process, each other non-empty share in a child made by os.fork().

    A child inherits the scan, inner block included, and sends back the
    pickled parts, or the exception it raised, through a pipe. This
    process walks share 0, then reads each pipe to its end, reaps each
    child and re-raises a child's exception. If it raises first, the
    children still running are killed and reaped.

    Raises:
        InternalInconsistency: if a child ends without a whole result.
    """
    children = []  # (pid, read end of its pipe)
    sent = None
    try:
        for share in shares[1:]:
            if share:
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _walk_in_child(scan, share, r, w)
                os.close(w)
                children.append((pid, open(r, "rb")))
        parts = [scan.run(piece) for piece in shares[0]]
        sent = [pipe.read() for _, pipe in children]
    finally:
        status = []
        for pid, pipe in children:
            pipe.close()
            if sent is None:
                # imported here only: `signal` adds about 1 ms to every import of prmhull
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            status.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), data, code in zip(children, sent, status):
        try:
            got = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            raise InternalInconsistency(
                f"scan worker {pid} exited with code {code} and no whole result"
            ) from None
        if isinstance(got, BaseException):
            raise got
        parts.extend(got)
    return parts


def _walk_in_child(scan: _ClassScan, share, r: int, w: int):
    """Walk `share` in a forked child, write the pickled parts or exception
    to the pipe end w, and leave by os._exit: the child never returns into
    the caller's stack, runs no atexit handler and flushes no stdio it
    inherited."""
    try:
        os.close(r)
        try:
            data = pickle.dumps([scan.run(piece) for piece in share])
        except BaseException as exc:  # re-raised by the parent
            data = pickle.dumps(exc)
        with open(w, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _scan(C: LinearCode, target_w, budget: int, workers: int = 1, stop_at=None):
    """(A_0..A_N, weight-target_w supports) from one word per scalar class.

    The one entry point of every scan. It checks the worker count, then
    the budget, then the weight. Scalar multiples share weight and
    support, so the scan visits the (q^K - 1)/(q - 1) messages whose
    first nonzero symbol is 1 and rebuilds A_0 = 1, A_w = (q - 1) * count.
    One worker walks each stratum whole. More workers take the pieces of
    `_pieces` in the shares of `_shares`, one share in this process and
    each other in a forked child; where os.fork does not exist, or each
    worker would score fewer than _MIN_WORKER_STEPS classes, the scan
    runs on one worker. `stop_at` (one worker only) ends the scan at the
    first block of words that holds a word of weight below it; a scan it
    does not cut short must count all q^K messages.

    Raises:
        OutOfRange: if workers < 1 or target_w is not in 1..N.
        BudgetExceeded: if q^K > budget.
        InternalInconsistency: if a scan not cut short loses messages,
            or a forked worker ends without a whole result.
    """
    if workers < 1:
        raise OutOfRange(f"workers must be >= 1; got {workers}")
    q, K = C.field.q, C.K
    total = q**K
    if total > budget:
        raise BudgetExceeded(f"{total} messages exceed budget {budget}")
    if target_w is not None and not 0 < target_w <= C.N:
        raise OutOfRange(f"weight must be in 1..{C.N}; got {target_w}")
    counts = np.zeros(C.N + 1, dtype=np.int64)
    sup = set() if target_w is not None else None
    aborted = False
    if K:
        scan = _ClassScan(C.field, C.G.a, target_w)
        if (total - 1) // (q - 1) < workers * _MIN_WORKER_STEPS or not hasattr(os, "fork"):
            workers = 1
        if workers > 1:
            parts = _run_shares(scan, _shares(q, K, workers))
        else:
            parts = (scan.run((i, ()), stop_at) for i in range(K))
        for c, s, aborted in parts:
            counts += c
            if sup is not None:
                sup |= s
            if aborted:
                break
    counts[1:] *= q - 1
    counts[0] = 1
    if not aborted and int(counts.sum()) != total:
        raise InternalInconsistency(f"enumerated {int(counts.sum())} of {total} messages")
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
    return WeightDistribution(_scan(C, None, budget, workers)[0])


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
    counts, _ = _scan(C, None, budget, stop_at=stop_at)
    if C.K == 0:
        raise OutOfRange("zero-dimensional code has no nonzero codeword")
    return int(np.flatnonzero(counts[1:])[0]) + 1


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
    counts, sup = _scan(C, w, budget, workers)
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
