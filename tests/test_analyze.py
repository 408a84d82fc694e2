"""Tests for weight enumeration, supports, and design verification."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prmhull.analyze as analyze
from oracles import ref_supports, ref_weight_distribution, ref_words
from prmhull import field_make
from prmhull.analyze import (
    NOT_A_DESIGN,
    BlockFamily,
    WeightDistribution,
    design_lambda,
    min_distance,
    weight_distribution,
    weight_distribution_with_supports,
)
from prmhull.code import LinearCode, code_from_rows, dual
from prmhull.errors import BudgetExceeded, InternalInconsistency, OutOfRange
from prmhull.exactla import MatrixFq
from prmhull.prm import min_dist_formula, prm_code


def make_code(q, rows):
    return LinearCode(MatrixFq(field_make(q), np.array(rows, dtype=np.int32)))


def tetracode():
    return make_code(3, [[1, 1, 1, 0], [0, 1, 2, 1]])


# ---------------------------------------------------------------------------
# weight counting


def tally_widths(N):
    # Two block widths counted one by one, and the narrowest even and odd
    # widths counted in pairs (for N <= 255).
    return [2, 7, 128 * (N + 1), 128 * (N + 1) + 1]


@pytest.mark.parametrize("width", range(4))
@pytest.mark.parametrize("N", [1, 40, 255, 256])
def test_weight_tally_matches_bincount(N, width):
    # The counts build up over several steps, each holding weights 0 and N.
    n = tally_widths(N)[width]
    rng = np.random.default_rng(1000 * N + n)
    tally = analyze._WeightTally(N, n)
    assert (tally._pairs is not None) == (N < 256 and width >= 2)
    assert tally.weights.shape == (n,)
    assert tally.weights.dtype == (np.uint8 if N < 256 else np.uint16)
    expected = np.zeros(N + 1, dtype=np.int64)
    for _ in range(5):
        w = rng.integers(0, N + 1, size=n)
        w[rng.choice(n, size=2, replace=False)] = 0, N
        tally.weights[:] = w
        tally.add()
        expected += np.bincount(w, minlength=N + 1)
    got = tally.counts()
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# weight distribution


def test_tetracode_distribution():
    dist = weight_distribution(tetracode())
    assert dist.to_pairs() == [[0, 1], [3, 8]]


def test_distribution_matches_exhaustive_oracle():
    cases = [
        make_code(2, [[1, 1, 0, 1, 0], [0, 1, 1, 1, 1]]),
        make_code(3, [[1, 0, 2, 1], [0, 1, 1, 2]]),
        make_code(4, [[1, 0, 2, 3, 1], [0, 1, 1, 0, 2]]),
        make_code(5, [[1, 2, 3, 4, 0], [0, 1, 2, 3, 4], [1, 1, 1, 1, 2]]),
        make_code(9, [[1, 3, 0, 7], [0, 1, 8, 2]]),
        prm_code(field_make(3), 2, 2),
    ]
    for C in cases:
        expected = ref_weight_distribution(C.field, C.G.a)
        got = weight_distribution(C)
        assert got.counts.tolist() == expected, C


@pytest.mark.parametrize("q", [4, 8, 9])
def test_generic_walk_covers_extension_fields(q, monkeypatch):
    # A one-row inner block leaves two symbols to the outer walk, which
    # must step each through all of F_q, not only its prime subfield.
    monkeypatch.setattr(analyze, "_WALK_BYTES", 1)
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    C = prm_code(field_make(q), 1, 2)
    assert analyze._inner_depth(C.field, C.K, C.N) == 1 < C.K
    expected = ref_weight_distribution(C.field, C.G.a)
    for workers in (1, 2):
        got = weight_distribution(C, workers=workers)
        assert got.counts.tolist() == expected, workers


def test_packed_engine_matches_oracle():
    codes = [
        tetracode(),
        prm_code(field_make(3), 2, 1),
        prm_code(field_make(3), 2, 2),
        prm_code(field_make(3), 2, 3),
        prm_code(field_make(3), 1, 2),  # full space
        make_code(3, np.eye(7, dtype=np.int32)),
    ]
    rng = np.random.default_rng(5)
    for _ in range(4):
        rows = rng.integers(0, 3, size=(5, 70))  # multi-word packing
        codes.append(code_from_rows(field_make(3), rows))
    for C in codes:
        expected = ref_weight_distribution(C.field, C.G.a)
        assert weight_distribution(C).counts.tolist() == expected, C


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8, 9, 16, 25, 27, 131, 251, 257])
def test_generic_block_matches_scalar_reference(q):
    # Column j holds the message whose base-q digits are j, the last row
    # least significant. Two rows with no zero entry sum two nonzero
    # multiples at every coordinate, so each pair of field elements is
    # added: over F_131 and F_251 sums reach 2(p - 1), past 255.
    f = field_make(q)
    rng = np.random.default_rng(q)
    rows = rng.integers(1, q, size=(2, 4))
    block = analyze._block_generic(f, rows)
    assert block.shape == (4, q * q)
    times = [[[f.mul(c, int(x)) for x in row] for c in range(q)] for row in rows]
    expected = np.array(
        [
            [f.add(a, b) for a, b in zip(times[0][j // q], times[1][j % q])]
            for j in range(q * q)
        ]
    ).T
    assert np.array_equal(block, expected)


def test_prime_field_sums_past_a_byte_are_exact():
    C = make_code(131, [[1, 2, 130, 77], [0, 1, 129, 5]])
    expected = ref_weight_distribution(C.field, C.G.a)
    assert weight_distribution(C).counts.tolist() == expected
    assert min_distance(C) == next(w for w in range(1, C.N + 1) if expected[w])


@pytest.mark.parametrize(
    "n,k,q,bound", [(3, 2, 5, 1.5), (3, 2, 4, 1.5), (2, 2, 7, 1.5), (2, 2, 8, 1.5), (2, 2, 9, 2.5)]
)
def test_generic_block_is_built_in_place(n, k, q, bound):
    # The block is allocated once; building it needs little beyond it:
    # a part of it per add (1/q of it), or over an odd extension field
    # the part's 8-byte table indices. Blocks of 0.6-2.4 MB, where the
    # fixed costs of a build are small beside the block.
    depth = {5: 6, 4: 7, 7: 5, 8: 5, 9: 4}[q]
    C = prm_code(field_make(q), n, k)
    rows = C.G.a[C.K - depth :]
    tracemalloc.start()
    try:
        block = analyze._block_generic(C.field, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape[1] >= q**2 and peak < bound * block.nbytes


def test_one_row_generic_block_builds_no_addition_table():
    # One row needs no sums, so over GF(3^7) no 2187 x 2187 table is built.
    f = field_make(3**7)
    rows = np.array([[1, 2, 3, 2186]])
    tracemalloc.start()
    try:
        block = analyze._block_generic(f, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(block[:, 1], rows[0]) and peak < 2 * block.nbytes


@pytest.mark.parametrize("d,N", [(9, 40), (10, 40), (7, 200)])
def test_packed_block_is_built_in_place(d, N):
    # Column j holds the message whose base-3 digits are j, the last row
    # least significant, packed; building it needs little beyond the
    # block, one plane word's temporary per add.
    rows = np.random.default_rng(d * N).integers(0, 3, size=(d, N))
    tracemalloc.start()
    try:
        block = analyze._block3(field_make(3), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block.nbytes
    digits = np.array(list(itertools.product(range(3), repeat=d)))
    words = digits @ rows % 3
    W = (N + 63) // 64
    for plane, trit in enumerate((1, 2)):
        bits = np.zeros((3**d, 64 * W), dtype=bool)
        bits[:, :N] = words == trit
        packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        assert np.array_equal(block[plane], packed.T)


@pytest.mark.parametrize("supports", [False, True], ids=["counts", "supports"])
@pytest.mark.parametrize("N", [40, 200], ids=["one-word", "four-words"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 131])
def test_walk_holds_at_most_the_byte_budget(q, N, supports):
    # A code with one free row past the inner block, so that stratum 0,
    # the largest piece, walks q steps over the whole block. What a scan
    # holds beyond the walk (the generator, the packed outer rows, the
    # supports found) is small here, within the slack.
    f = field_make(q)
    K = analyze._inner_depth(f, N, N) + 2
    C = code_from_rows(f, np.random.default_rng(q * N).integers(0, q, size=(K, N)))
    assert C.K == K
    target_w = min_distance(C) if supports else None
    tracemalloc.start()
    try:
        scan = analyze._ClassScan(f, C.G.a, target_w)
        counts, found = scan.run((0, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.depth == K - 2 and counts.sum() == q ** (K - 1)
    assert (found is not None) == supports
    assert peak <= analyze._WALK_BYTES + (64 << 10)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 131, 256])
def test_inner_depth_keeps_one_row_past_the_budget(q):
    # A walk of one row over a million coordinates holds far more than the
    # budget, yet every scan with a free row walks a block of one row;
    # where the budget holds q^2 short words, two free rows are the limit.
    f = field_make(q)
    assert analyze._inner_depth(f, 0, 10**6) == 0
    assert analyze._inner_depth(f, 1, 10**6) == analyze._inner_depth(f, 5, 10**6) == 1
    assert analyze._inner_depth(f, 2, 4) == 2


# One code per field with K >= 4 rows, so that with the inner blocks capped
# at one row the outer walk, split strata and prefix blocks all run.
CLASS_SCAN_CODES = {2: (3, 1), 3: (2, 2), 4: (1, 3), 5: (1, 3), 7: (1, 3), 8: (1, 3), 9: (1, 3)}


def one_row_inner_blocks(monkeypatch):
    monkeypatch.setattr(analyze, "_WALK_BYTES", 1)
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)


@pytest.mark.parametrize("q", sorted(CLASS_SCAN_CODES))
def test_class_scan_matches_oracle(q, monkeypatch):
    one_row_inner_blocks(monkeypatch)
    n, k = CLASS_SCAN_CODES[q]
    C = prm_code(field_make(q), n, k)
    assert analyze._inner_depth(C.field, C.K - 1, C.N) == 1 < C.K - 2
    expected = ref_weight_distribution(C.field, C.G.a)
    w = min_dist_formula(n, k, q)
    reference_blocks = ref_supports(C.field, C.G.a, w)
    for workers in (1, 2, 3):
        dist, fam = analyze.weight_distribution_with_supports(C, w, workers=workers)
        assert dist.counts.tolist() == expected, workers
        assert fam.blocks == reference_blocks, workers
        assert weight_distribution(C, workers=workers).counts.tolist() == expected
        assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Random codes (rows, columns). Those of nine coordinates have q^K at most
# about 1000, and their supports are not every w-subset, as those of
# CLASS_SCAN_CODES at q = 4..9 are, so a support recorded at permuted
# coordinates shows. The longer codes have most of their words weigh
# more than 255, past one byte, so the walks count their weights one by
# one instead of in pairs; at q = 3 they take seven plane words.
ASYMMETRIC_CODES = [
    pytest.param(q, rows, 9, id=str(q))
    for q, rows in {2: 6, 3: 6, 4: 4, 5: 4, 7: 3, 8: 3, 9: 3, 16: 2, 25: 2}.items()
] + [
    pytest.param(2, 8, 600, id="2-wide"),
    pytest.param(3, 5, 400, id="3-wide"),
    pytest.param(5, 4, 330, id="5-wide"),
]


@pytest.mark.parametrize("q,rows,cols", ASYMMETRIC_CODES)
def test_class_scan_supports_on_asymmetric_codes(q, rows, cols, monkeypatch):
    one_row_inner_blocks(monkeypatch)
    rng = np.random.default_rng(q if cols == 9 else cols)
    C = code_from_rows(field_make(q), rng.integers(0, q, size=(rows, cols)))
    counts = ref_weight_distribution(C.field, C.G.a)
    w = next(w for w in range(1, C.N + 1) if counts[w])
    expected = ref_supports(C.field, C.G.a, w)
    assert len(expected) < math.comb(C.N, w)
    for workers in (1, 2):
        fam = weight_distribution_with_supports(C, w, workers=workers)[1]
        assert fam.blocks == expected, workers
        assert weight_distribution(C, workers=workers).counts.tolist() == counts, workers
    for stop_at in (None, w, w + 1):
        assert min_distance(C, stop_at=stop_at) == w, stop_at


@pytest.mark.parametrize("q,n,k", [(3, 2, 2), (3, 1, 1), (4, 1, 3), (5, 1, 2), (2, 3, 1)])
def test_scan_visits_one_word_per_scalar_class(q, n, k, monkeypatch):
    one_row_inner_blocks(monkeypatch)
    visited = []
    for name in ("_walk3", "_walk_generic"):
        walk = getattr(analyze, name)

        def spy(*args, _walk=walk):
            counts, sup = _walk(*args)
            visited.append(int(counts.sum()))
            return counts, sup

        monkeypatch.setattr(analyze, name, spy)
    C = prm_code(field_make(q), n, k)
    classes = (q**C.K - 1) // (q - 1)
    for scan in (
        lambda: weight_distribution(C),
        lambda: min_distance(C),
        lambda: weight_distribution_with_supports(C, min_dist_formula(n, k, q))[1],
    ):
        visited.clear()
        scan()
        assert sum(visited) == classes


@pytest.mark.parametrize(
    "q,K,workers", [(2, 1, 1), (2, 6, 3), (3, 5, 2), (4, 4, 1), (5, 3, 7), (9, 3, 2)]
)
def test_pieces_cover_each_scalar_class_once(q, K, workers):
    seen = []
    for i, digits in analyze._pieces(q, K, workers):
        free = K - 1 - i - len(digits)
        head = (0,) * i + (1,) + digits
        seen.extend(head + tail for tail in itertools.product(range(q), repeat=free))
    leading_one = [
        m for m in itertools.product(range(q), repeat=K) if next((x for x in m if x), 0) == 1
    ]
    assert sorted(seen) == leading_one


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_counts_below_one_raise_before_any_work(workers, monkeypatch):
    # The worker count is checked before the budget and before any scan;
    # -1 once made _pieces loop forever, and 0 divided by zero.
    def scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(analyze, "_ClassScan", scan)
    C = prm_code(field_make(3), 1, 1)
    with pytest.raises(OutOfRange, match="workers"):
        weight_distribution(C, budget=1, workers=workers)
    with pytest.raises(OutOfRange, match="workers"):
        analyze.weight_distribution_with_supports(C, 3, budget=1, workers=workers)
    with pytest.raises(OutOfRange, match="workers"):
        weight_distribution_with_supports(C, 3, workers=workers)[1]


def test_pieces_balance_two_workers():
    # The 17-row F_3 scan on two workers: the shares the scan walks hold
    # every piece once, and the busier one is within 5% of an even split.
    q, K, workers = 3, 17, 2
    pieces = analyze._pieces(q, K, workers)

    def size(piece):
        return q ** (K - 1 - piece[0] - len(piece[1]))

    assert [size(p) for p in pieces] == sorted(map(size, pieces), reverse=True)
    shares = analyze._shares(q, K, workers)
    assert len(shares) == workers
    assert sorted(p for share in shares for p in share) == sorted(pieces)
    load = [sum(map(size, share)) for share in shares]
    assert max(load) <= 1.05 * sum(load) / workers


def test_lost_messages_raise(monkeypatch):
    # A scan whose counts do not sum to q^K is a bug; the check must raise
    # rather than assert, so it also runs under python -O. Dropping the
    # last stratum's run on one worker, or the first piece on a pool,
    # loses one of the tetracode's 4 scalar classes.
    real_run = analyze._ClassScan.run

    def run(self, piece):
        counts, sup = real_run(self, piece)
        if piece == (len(self.G) - 1, ()):
            return np.zeros_like(counts), None if sup is None else set()
        return counts, sup

    with monkeypatch.context() as m:
        m.setattr(analyze._ClassScan, "run", run)
        with pytest.raises(InternalInconsistency, match="enumerated 7 of 9"):
            weight_distribution(tetracode())
        with pytest.raises(InternalInconsistency, match="enumerated 7 of 9"):
            weight_distribution_with_supports(tetracode(), 3)[1]
        # min_distance takes the same check, with no stop_at and with one
        # the scan never reaches: no tetracode word has weight below 3.
        for stop_at in (None, 3):
            with pytest.raises(InternalInconsistency, match="enumerated 7 of 9"):
                min_distance(tetracode(), stop_at=stop_at)
        # A scan that stop_at cuts short counts only part of the classes
        # by design, and does not raise: the witness has weight 3 < 4.
        assert min_distance(tetracode(), stop_at=4) == 3

    real_pieces = analyze._pieces
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(analyze, "_pieces", lambda q, K, workers: real_pieces(q, K, workers)[1:])
    with pytest.raises(InternalInconsistency, match="enumerated 7 of 9"):
        weight_distribution(tetracode(), workers=2)
    with pytest.raises(InternalInconsistency, match="enumerated 7 of 9"):
        weight_distribution_with_supports(tetracode(), 3, workers=2)[1]


@pytest.mark.parametrize("q,n,k", [(3, 2, 2), (4, 1, 3), (2, 3, 1), (7, 1, 2)])
def test_serial_scan_walks_each_stratum_whole(q, n, k, monkeypatch):
    # One worker, or a pool demoted by _MIN_WORKER_STEPS, runs each
    # stratum once and whole; only a pool takes the pieces of _pieces.
    runs, cuts = [], []
    real_run, real_pieces = analyze._ClassScan.run, analyze._pieces

    def run(self, piece):
        runs.append(piece)
        return real_run(self, piece)

    def pieces(*args):
        cuts.append(args)
        return real_pieces(*args)

    monkeypatch.setattr(analyze._ClassScan, "run", run)
    monkeypatch.setattr(analyze, "_pieces", pieces)
    C = prm_code(field_make(q), n, k)
    D = min_dist_formula(n, k, q)
    for scan in (
        lambda: weight_distribution(C),
        lambda: weight_distribution(C, workers=2),
        lambda: min_distance(C),
        lambda: min_distance(C, stop_at=D),
        lambda: weight_distribution_with_supports(C, D, workers=2)[1],
    ):
        runs.clear()
        scan()
        assert runs == [(i, ()) for i in range(C.K)]
    assert cuts == []
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    expected = ref_weight_distribution(C.field, C.G.a)
    assert weight_distribution(C, workers=2).counts.tolist() == expected
    assert cuts == [(q, C.K, 2)]


def in_child_only(monkeypatch, act):
    """Make _ClassScan.run call act() in a forked child, and walk as
    before in the scanning process."""
    parent, real_run = os.getpid(), analyze._ClassScan.run

    def run(self, piece):
        if os.getpid() != parent:
            act()
        return real_run(self, piece)

    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(analyze._ClassScan, "run", run)


def test_child_exception_raises_in_the_scan(monkeypatch):
    def act():
        raise OutOfRange("raised in a child")

    in_child_only(monkeypatch, act)
    with pytest.raises(OutOfRange, match="raised in a child") as info:
        weight_distribution(prm_code(field_make(3), 2, 2), workers=3)
    assert_no_child_left()
    # the child's traceback is kept as the cause, down to the raising line
    cause = str(info.value.__cause__)
    assert ", in act\n" in cause
    assert cause.rstrip().endswith("OutOfRange: raised in a child")


def test_child_ending_without_a_result_raises(monkeypatch):
    in_child_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(InternalInconsistency, match="exited with code 3 and no whole result"):
        weight_distribution(prm_code(field_make(3), 2, 2), workers=2)
    assert_no_child_left()


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_parent_share_raising_kills_every_child(error, monkeypatch):
    # Each child would sleep for 20 s and leave without a result; the scan
    # must kill and reap them as soon as its own share raises.
    parent = os.getpid()

    def run(self, piece):
        if os.getpid() == parent:
            raise error("raised in the scanning process")
        time.sleep(20)
        os._exit(0)

    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(analyze._ClassScan, "run", run)
    t0 = time.monotonic()
    with pytest.raises(error, match="raised in the scanning process"):
        weight_distribution(prm_code(field_make(3), 2, 2), workers=3)
    assert time.monotonic() - t0 < 10
    assert_no_child_left()


def test_forked_scan_walks_a_share_itself_without_multiprocessing():
    # In a fresh interpreter, so no other module has imported it: a
    # two-worker scan imports no multiprocessing, and the scanning
    # process walks share 0 of _shares itself.
    script = """
import os, sys
import prmhull
import prmhull.analyze as analyze

analyze._MIN_WORKER_STEPS = 1
me, seen, real_run = os.getpid(), [], analyze._ClassScan.run

def run(self, piece):
    if os.getpid() == me:
        seen.append(piece)
    return real_run(self, piece)

analyze._ClassScan.run = run
C = prmhull.prm_code(prmhull.field_make(3), 2, 2)
two = prmhull.weight_distribution(C, workers=2)
assert "multiprocessing" not in sys.modules
assert seen and seen == analyze._shares(3, C.K, 2)[0], seen
assert two == prmhull.weight_distribution(C)
print("ok")
"""
    paths = [str(Path(analyze.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(x for x in paths if x))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "ok\n"


def test_scan_without_fork_walks_on_one_worker(monkeypatch):
    # Where os.fork does not exist, a scan asked for more workers walks
    # each stratum whole in the scanning process, as a demoted scan does.
    runs, real_run = [], analyze._ClassScan.run

    def run(self, piece):
        runs.append(piece)
        return real_run(self, piece)

    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(analyze._ClassScan, "run", run)
    monkeypatch.delattr(os, "fork")
    C = prm_code(field_make(3), 2, 2)
    w = min_dist_formula(2, 2, 3)
    dist, fam = analyze.weight_distribution_with_supports(C, w, workers=3)
    assert runs == [(i, ()) for i in range(C.K)]
    assert dist.counts.tolist() == ref_weight_distribution(C.field, C.G.a)
    assert fam.blocks == ref_supports(C.field, C.G.a, w)


def test_distribution_invariants():
    for n, k, q in [(1, 1, 3), (2, 2, 3), (2, 1, 5), (1, 3, 4), (2, 2, 4)]:
        C = prm_code(field_make(q), n, k)
        dist = weight_distribution(C)
        assert dist.total() == q**C.K
        assert dist.counts[0] == 1
        D = min_dist_formula(n, k, q)
        assert not dist.counts[1:D].any()
        assert dist.counts[D] > 0
        # Scalar orbits: q-1 divides every nonzero-weight count.
        assert all(c % (q - 1) == 0 for c in dist.counts[1:])


def test_zero_dimensional_code():
    Z = dual(make_code(3, np.eye(4, dtype=np.int32)))
    dist = weight_distribution(Z)
    assert dist.to_pairs() == [[0, 1]]


def test_budget_enforced():
    C = prm_code(field_make(3), 2, 2)  # 3^6 codewords
    with pytest.raises(BudgetExceeded):
        weight_distribution(C, budget=3**6 - 1)
    assert weight_distribution(C, budget=3**6).total() == 3**6
    with pytest.raises(BudgetExceeded):
        min_distance(C, budget=100)
    with pytest.raises(BudgetExceeded):
        weight_distribution_with_supports(C, 4, budget=100)[1]


def test_worker_count_invariance(monkeypatch):
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    C = prm_code(field_make(3), 2, 2)
    base = weight_distribution(C)
    for workers in (2, 3, 5):
        assert weight_distribution(C, workers=workers) == base
    D = prm_code(field_make(4), 1, 2)
    base4 = weight_distribution(D)
    assert weight_distribution(D, workers=3) == base4


def test_polynomial_string():
    dist = weight_distribution(tetracode())
    assert dist.to_polynomial_string() == "x^4 + 8xy^3"
    zero = WeightDistribution([1])
    assert zero.to_polynomial_string() == "1"
    rep2 = weight_distribution(make_code(2, [[1, 1]]))
    assert rep2.to_polynomial_string() == "x^2 + y^2"


def test_malformed_distribution_raises():
    with pytest.raises(InternalInconsistency):
        WeightDistribution([0, 8])
    with pytest.raises(InternalInconsistency):
        WeightDistribution([[1, 0], [0, 8]])


def test_malformed_block_family_raises():
    with pytest.raises(ValueError):
        BlockFamily(4, ((1, 0),))  # unsorted
    with pytest.raises(ValueError):
        BlockFamily(4, ((0, 1), (0, 1)))  # repeated
    with pytest.raises(ValueError):
        BlockFamily(4, ((2, 4),))  # outside 0..3


def test_result_checks_raise_under_optimize():
    # python -O strips assert statements; the checks must raise regardless.
    script = (
        "from prmhull.analyze import BlockFamily, WeightDistribution\n"
        "from prmhull.errors import InternalInconsistency\n"
        "for make, exc in ((lambda: WeightDistribution([0, 8]), InternalInconsistency),\n"
        "                  (lambda: BlockFamily(4, ((2, 4),)), ValueError)):\n"
        "    try:\n"
        "        make()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    paths = [str(Path(analyze.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(x for x in paths if x))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pairs_roundtrip_and_equality():
    dist = weight_distribution(tetracode())
    assert dist.min_nonzero_weight() == 3
    assert dist == WeightDistribution([1, 0, 0, 8, 0])
    assert dist != WeightDistribution([1, 0, 0, 0, 8])


def test_min_nonzero_weight_of_the_zero_code_is_out_of_range():
    with pytest.raises(OutOfRange, match="no nonzero codeword"):
        WeightDistribution([1, 0, 0]).min_nonzero_weight()


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_known_codes():
    f3, f5 = field_make(3), field_make(5)
    assert min_distance(prm_code(f3, 2, 1)) == 9
    assert min_distance(prm_code(f5, 1, 2)) == 4
    assert min_distance(prm_code(f5, 2, 2)) == 20


def test_min_distance_matches_formula_on_grid():
    for q in (2, 3, 4):
        f = field_make(q)
        for n in (1, 2):
            for k in range(1, n * (q - 1) + 1):
                C = prm_code(f, n, k)
                if q**C.K > 10**6:
                    continue
                assert min_distance(C) == min_dist_formula(n, k, q), (n, k, q)


def test_min_distance_stop_at():
    C = tetracode()
    # A correct lower bound: the scan completes and the result is exact.
    assert min_distance(C, stop_at=3) == 3
    # An overclaimed bound: the scan returns a witness strictly below it.
    assert min_distance(C, stop_at=4) == 3


# Codes for the bound test: packed and generic, prime and extension
# fields, and weights past one byte (N > 255) at q = 2 and 3. In the two
# "heavy-first" codes stratum 0 weighs at least 4 and stratum 1 holds the
# weight-1 word, so a bound of 2..4 stops the scan after two walks, and
# one of 5 or more after the first, at weight 4 > d.
BOUND_CODES = {
    "packed-tetracode": tetracode,
    "packed-heavy-first": lambda: make_code(
        3, [[1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 2]]
    ),
    "generic-q2-heavy-first": lambda: make_code(
        2, [[1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 1]]
    ),
    "packed-prm-2-2": lambda: prm_code(field_make(3), 2, 2),
    "packed-300": lambda: code_from_rows(
        field_make(3), np.random.default_rng(3).integers(0, 3, size=(5, 300))
    ),
    "generic-q2-prm-4-2": lambda: prm_code(field_make(2), 4, 2),
    "generic-q2-260": lambda: code_from_rows(
        field_make(2), np.random.default_rng(2).integers(0, 2, size=(8, 260))
    ),
    "generic-q4-prm-1-3": lambda: prm_code(field_make(4), 1, 3),
    "generic-q5-prm-2-2": lambda: prm_code(field_make(5), 2, 2),
    "generic-q9-prm-1-4": lambda: prm_code(field_make(9), 1, 4),
}


def ref_least_weight_counted(weights, msgs, pieces, bound):
    """(least weight, walks run) of a scan over `pieces` in order that
    stops after the first piece holding a word of weight 0 < w < bound.

    weights[j] is the weight of message msgs[j]; piece (i, digits) holds
    the messages whose first nonzero symbol is a 1 at position i,
    followed by `digits`."""
    least = weights.max()
    for ran, (i, digits) in enumerate(pieces, 1):
        head = (0,) * i + (1,) + digits
        least = min(least, weights[(msgs[:, : len(head)] == head).all(axis=1)].min())
        if 0 < least < bound:
            return least, ran
    return least, len(pieces)


@pytest.mark.parametrize("name", sorted(BOUND_CODES))
def test_min_distance_stops_only_below_the_bound(name, monkeypatch):
    # A bound at or below d never stops a scan, and a bound <= 1 (negative
    # included) stops none; a bound above d stops the scan after the first
    # walk, in the order the walks are summed, that counts a nonzero
    # weight below it, and one above N stops at any nonzero weight. The
    # result is the least weight counted by the walks that ran. The scan
    # on two workers applies the same rule to the parts of its shares.
    C = BOUND_CODES[name]()
    N, K, q = C.N, C.K, C.field.q
    msgs = np.array(list(itertools.product(range(q), repeat=K)))
    weights = np.count_nonzero(ref_words(C.field, C.G.a), axis=1)
    d = weights[weights > 0].min()
    runs, real_run = [], analyze._ClassScan.run

    def run(self, piece):
        runs.append(piece)
        return real_run(self, piece)

    monkeypatch.setattr(analyze._ClassScan, "run", run)
    strata = [(i, ()) for i in range(K)]
    shares = analyze._shares(q, K, 2)
    for bound in [-3, 0, 1, 2, d, d + 1, N, N + 1, N + 2, 300, 70000]:
        least, ran = ref_least_weight_counted(weights, msgs, strata, bound)
        assert least == d if bound <= d else least < bound
        runs.clear()
        assert min_distance(C, stop_at=bound) == least, bound
        assert runs == strata[:ran], bound
        least, _ = ref_least_weight_counted(weights, msgs, shares[0] + shares[1], bound)
        with monkeypatch.context() as m:
            m.setattr(analyze, "_MIN_WORKER_STEPS", 1)
            counts, _ = analyze._scan(C, None, q**K, workers=2, stop_at=bound)
        assert int(np.flatnonzero(counts[1:])[0]) + 1 == least, bound


@pytest.mark.parametrize(
    "q,K,column",
    [(2, 13, 1), (2, 13, 4095), (3, 9, 1), (3, 9, 6560), (5, 6, 3), (5, 6, 3124)],
    ids=["generic-q2-odd", "generic-q2-last", "packed-odd", "packed-padded",
         "generic-q5-odd", "generic-q5-padded"],
)
def test_stop_at_sees_every_column_of_a_pair(q, K, column, monkeypatch):
    # G[1:] spans the inner block, so stratum 0 is one step of q^(K-1)
    # words, enough at N = 20 to be counted in pairs. Column j holds G[0]
    # plus the rows weighted by the base-q digits of j, the last row least
    # significant, and G[0] is chosen so that the given column holds e_0,
    # the code's only word of weight 1 up to scalars. An odd column is the
    # second weight of a pair, and the last column of an odd-width block
    # is paired with the padding. The scan reads the folded pair counts,
    # so it must stop after stratum 0.
    f, N = field_make(q), 20
    assert q ** (K - 1) >= 128 * (N + 1)
    rest = np.random.default_rng(q).integers(0, q, size=(K - 1, N))
    first = np.eye(1, N, dtype=rest.dtype)[0]
    for t, row in enumerate(rest):
        first = f.vsub(first, f.vmul(column // q ** (K - 2 - t) % q, row))
    C = make_code(q, np.vstack([first, rest]))
    expected = ref_weight_distribution(C.field, C.G.a)
    assert expected[1] == q - 1
    runs = []
    real_run = analyze._ClassScan.run

    def run(self, piece):
        runs.append(piece)
        return real_run(self, piece)

    monkeypatch.setattr(analyze._ClassScan, "run", run)
    assert min_distance(C, stop_at=2) == 1
    assert runs == [(0, ())]
    assert weight_distribution(C).counts.tolist() == expected


@pytest.mark.parametrize("q", [3, 5])
def test_weight_zero_word_never_stops_a_walk(q):
    # A block fed by hand: column 0 is -offset, so its word is 0, and
    # column 1 makes a word of full weight N. With no outer rows the walk
    # scores that one block. The zero word is counted at weight 0, which
    # the scan's stop rule never reads.
    f = field_make(q)
    offset = np.array([1, 2, 0, 1, 1, 0, 2])
    N = len(offset)
    columns = [f.vneg(offset), f.vsub(np.ones(N, dtype=offset.dtype), offset)]
    if q == 3:
        walk = analyze._walk3
        block = np.stack([analyze._pack3(v, 1) for v in columns], axis=2)
    else:
        walk = analyze._walk_generic
        block = np.array(columns, dtype=np.uint8).T
    outer = np.zeros((0, N), dtype=offset.dtype)
    for n in (1, 2):
        counts, _ = walk(f, block[..., :n], outer, offset, None)
        assert counts.tolist() == [1] + [0] * (N - 1) + [n - 1], n


def test_min_distance_zero_code():
    Z = dual(make_code(3, np.eye(3, dtype=np.int32)))
    with pytest.raises(OutOfRange):
        min_distance(Z)


# ---------------------------------------------------------------------------
# supports


def test_tetracode_supports():
    fam = weight_distribution_with_supports(tetracode(), 3)[1]
    assert fam.ground_size == 4
    assert len(fam.blocks) == 4  # 8 words / 2 nonzero scalars
    assert all(len(b) == 3 for b in fam.blocks)
    assert fam.blocks == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_ref_supports_by_hand_on_tetracode():
    C = tetracode()
    assert ref_supports(C.field, C.G.a, 3) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert ref_supports(C.field, C.G.a, 2) == ()


def test_supports_below_distance_empty():
    fam = weight_distribution_with_supports(tetracode(), 2)[1]
    assert fam.blocks == ()


def test_supports_paths_and_workers_agree(monkeypatch):
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    C = prm_code(field_make(3), 2, 2)
    w = min_distance(C)
    base = weight_distribution_with_supports(C, w)[1]
    assert ref_supports(C.field, C.G.a, w) == base.blocks
    assert weight_distribution_with_supports(C, w, workers=3)[1] == base
    assert len(base.blocks) >= 1


def test_supports_multiword_packing():
    # 70 columns forces two 64-bit words per bitplane.
    rng = np.random.default_rng(11)
    C = code_from_rows(field_make(3), rng.integers(0, 3, size=(4, 70)))
    w = min_distance(C)
    packed = weight_distribution_with_supports(C, w)[1]
    assert packed.blocks == ref_supports(C.field, C.G.a, w)
    assert all(len(b) == w for b in packed.blocks)


def test_supports_weight_validation():
    with pytest.raises(OutOfRange):
        weight_distribution_with_supports(tetracode(), 0)[1]
    with pytest.raises(OutOfRange):
        weight_distribution_with_supports(tetracode(), 5)[1]


# ---------------------------------------------------------------------------
# designs


def test_tetracode_design():
    fam = weight_distribution_with_supports(tetracode(), 3)[1]
    # All four 3-subsets of a 4-set: complete design at every t.
    assert design_lambda(fam, 1) == 3
    assert design_lambda(fam, 2) == 2
    assert design_lambda(fam, 3) == 1


def test_complete_design_lambda():
    v, s = 6, 3
    fam = BlockFamily(v, tuple(itertools.combinations(range(v), s)))
    assert design_lambda(fam, 2) == math.comb(v - 2, s - 2)


def test_not_a_design_cases():
    assert design_lambda(BlockFamily(3, ((0, 1), (0, 2))), 2) is NOT_A_DESIGN
    assert design_lambda(BlockFamily(4, ((0, 1), (0, 1, 2))), 1) is NOT_A_DESIGN  # mixed sizes
    assert design_lambda(BlockFamily(4, ()), 2) is NOT_A_DESIGN  # empty family
    assert design_lambda(BlockFamily(4, ((0, 1), (2, 3))), 3) is NOT_A_DESIGN  # t > block size
    with pytest.raises(OutOfRange):
        design_lambda(BlockFamily(4, ((0, 1),)), 0)


def test_uneven_coverage_is_not_a_design():
    # Every pair and every point is covered, but unevenly: {0, 1} lies in
    # two blocks and {1, 2} in one; point 0 in three blocks, point 1 in two.
    fam = BlockFamily(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3)))
    assert design_lambda(fam, 2) is NOT_A_DESIGN
    assert design_lambda(fam, 1) is NOT_A_DESIGN


def test_projective_plane_code_gives_design():
    # Weight-9 words of the [13, 3, 9] code over F_3: the 13 lines of the
    # projective plane (complements of point sets of lines), a 2-design.
    C = prm_code(field_make(3), 2, 1)
    fam = weight_distribution_with_supports(C, 9)[1]
    lam = design_lambda(fam, 2)
    assert lam is not NOT_A_DESIGN
    assert len(fam.blocks) == 13
    assert lam == 6  # C(9,2) * 13 / C(13,2)
