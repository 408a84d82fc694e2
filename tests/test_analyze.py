"""Tests for weight enumeration, supports, and design verification."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prmhull.analyze as analyze
from oracles import ref_weight_distribution
from prmhull import field_make
from prmhull.analyze import (
    NOT_A_DESIGN,
    BlockFamily,
    WeightDistribution,
    design_lambda,
    min_distance,
    min_weight_supports,
    weight_distribution,
)
from prmhull.code import LinearCode, code_from_rows, dual
from prmhull.errors import BudgetExceeded, InternalInconsistency, OutOfRange
from prmhull.exactla import MatrixFq
from prmhull.prm import min_dist_formula, prm_code


def make_code(q, rows):
    return LinearCode(MatrixFq(field_make(q), np.array(rows, dtype=np.int32)))


def generic_scan(C, target_w=None):
    """(counts, supports) from the generic engine, the reference for the packed one."""
    zero = np.zeros(C.N, dtype=np.int32)
    counts, sup, _ = analyze._scan_generic(C.field, C.G.a, zero, target_w, None)
    return counts, sup


def tetracode():
    return make_code(3, [[1, 1, 1, 0], [0, 1, 2, 1]])


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
    monkeypatch.setattr(analyze, "_GENERIC_CELL_CAP", 1)
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    C = prm_code(field_make(q), 1, 2)
    assert analyze._inner_depth(q, C.K, C.N) == 1 < C.K
    expected = ref_weight_distribution(C.field, C.G.a)
    for workers in (1, 2):
        got = weight_distribution(C, workers=workers)
        assert got.counts.tolist() == expected, workers


def test_packed_and_generic_paths_agree():
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
        packed = weight_distribution(C)
        generic = generic_scan(C)[0]
        assert packed.counts.tolist() == generic.tolist()


# One code per field with K >= 4 rows, so that with the inner blocks capped
# at one row the outer walk, split strata and prefix blocks all run.
CLASS_SCAN_CODES = {2: (3, 1), 3: (2, 2), 4: (1, 3), 5: (1, 3), 7: (1, 3), 8: (1, 3), 9: (1, 3)}


def one_row_inner_blocks(monkeypatch):
    monkeypatch.setattr(analyze, "_GENERIC_CELL_CAP", 1)
    monkeypatch.setattr(analyze, "_PACK_BLOCK_CAP", 3)
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)


@pytest.mark.parametrize("q", sorted(CLASS_SCAN_CODES))
def test_class_scan_matches_oracle(q, monkeypatch):
    one_row_inner_blocks(monkeypatch)
    n, k = CLASS_SCAN_CODES[q]
    C = prm_code(field_make(q), n, k)
    assert analyze._inner_depth(q, C.K - 1, C.N) == 1 < C.K - 2
    expected = ref_weight_distribution(C.field, C.G.a)
    w = min_dist_formula(n, k, q)
    reference_blocks = tuple(sorted(generic_scan(C, w)[1]))
    for workers in (1, 2, 3):
        dist, fam = analyze.weight_distribution_with_supports(C, w, workers=workers)
        assert dist.counts.tolist() == expected, workers
        assert fam.blocks == reference_blocks, workers
        assert weight_distribution(C, workers=workers).counts.tolist() == expected


@pytest.mark.parametrize("q,n,k", [(3, 2, 2), (3, 1, 1), (4, 1, 3), (5, 1, 2), (2, 3, 1)])
def test_scan_visits_one_word_per_scalar_class(q, n, k, monkeypatch):
    one_row_inner_blocks(monkeypatch)
    visited = []
    for name in ("_walk3", "_walk_generic"):
        walk = getattr(analyze, name)

        def spy(*args, _walk=walk):
            counts, sup, aborted = _walk(*args)
            visited.append(int(counts.sum()))
            return counts, sup, aborted

        monkeypatch.setattr(analyze, name, spy)
    C = prm_code(field_make(q), n, k)
    classes = (q**C.K - 1) // (q - 1)
    for scan in (
        lambda: weight_distribution(C),
        lambda: min_distance(C),
        lambda: min_weight_supports(C, min_dist_formula(n, k, q)),
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

    monkeypatch.setattr(analyze, "_scan_parallel", scan)
    C = prm_code(field_make(3), 1, 1)
    with pytest.raises(OutOfRange, match="workers"):
        weight_distribution(C, budget=1, workers=workers)
    with pytest.raises(OutOfRange, match="workers"):
        analyze.weight_distribution_with_supports(C, 3, budget=1, workers=workers)
    with pytest.raises(OutOfRange, match="workers"):
        min_weight_supports(C, 3, workers=workers)


def test_pieces_balance_two_workers():
    # The 17-row F_3 scan on two workers: pieces handed out largest first
    # keep the busier worker within 5% of an even split.
    q, K, workers = 3, 17, 2
    sizes = [q ** (K - 1 - i - len(d)) for i, d in analyze._pieces(q, K, workers)]
    assert sizes == sorted(sizes, reverse=True)
    load = [0] * workers
    for s in sizes:
        load[load.index(min(load))] += s
    assert max(load) <= 1.05 * sum(sizes) / workers


def test_lost_messages_raise(monkeypatch):
    # A scan whose counts do not sum to q^K is a bug; the check must raise
    # rather than assert, so it also runs under python -O.
    lost = np.array([1, 0, 0, 7, 0], dtype=np.int64)  # tetracode has 9 words
    monkeypatch.setattr(analyze, "_scan_parallel", lambda C, w, workers: (lost, set()))
    with pytest.raises(InternalInconsistency):
        weight_distribution(tetracode())
    with pytest.raises(InternalInconsistency):
        min_weight_supports(tetracode(), 3)


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
        min_weight_supports(C, 4, budget=100)


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


def test_min_distance_zero_code():
    Z = dual(make_code(3, np.eye(3, dtype=np.int32)))
    with pytest.raises(OutOfRange):
        min_distance(Z)


# ---------------------------------------------------------------------------
# supports


def test_tetracode_supports():
    fam = min_weight_supports(tetracode(), 3)
    assert fam.ground_size == 4
    assert len(fam.blocks) == 4  # 8 words / 2 nonzero scalars
    assert all(len(b) == 3 for b in fam.blocks)
    assert fam.blocks == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_supports_below_distance_empty():
    fam = min_weight_supports(tetracode(), 2)
    assert fam.blocks == ()


def test_supports_paths_and_workers_agree(monkeypatch):
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    C = prm_code(field_make(3), 2, 2)
    w = min_distance(C)
    base = min_weight_supports(C, w)
    assert tuple(sorted(generic_scan(C, w)[1])) == base.blocks
    assert min_weight_supports(C, w, workers=3) == base
    assert len(base.blocks) >= 1


def test_supports_multiword_packing():
    # 70 columns forces two 64-bit words per bitplane.
    rng = np.random.default_rng(11)
    C = code_from_rows(field_make(3), rng.integers(0, 3, size=(4, 70)))
    w = min_distance(C)
    packed = min_weight_supports(C, w)
    assert packed.blocks == tuple(sorted(generic_scan(C, w)[1]))
    assert all(len(b) == w for b in packed.blocks)


def test_supports_weight_validation():
    with pytest.raises(OutOfRange):
        min_weight_supports(tetracode(), 0)
    with pytest.raises(OutOfRange):
        min_weight_supports(tetracode(), 5)


# ---------------------------------------------------------------------------
# designs


def test_tetracode_design():
    fam = min_weight_supports(tetracode(), 3)
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


def test_projective_plane_code_gives_design():
    # Weight-9 words of the [13, 3, 9] code over F_3: the 13 lines of the
    # projective plane (complements of point sets of lines), a 2-design.
    C = prm_code(field_make(3), 2, 1)
    fam = min_weight_supports(C, 9)
    lam = design_lambda(fam, 2)
    assert lam is not NOT_A_DESIGN
    assert len(fam.blocks) == 13
    assert lam == 6  # C(9,2) * 13 / C(13,2)
