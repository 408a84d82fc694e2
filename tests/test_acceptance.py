"""Acceptance gate: seven end-to-end criteria, one test per criterion.

Each test finishes by printing one `CRITERION n: PASS` line (visible with
`pytest -s`); the test name itself carries the pass/fail verdict in
`pytest -v` output. Expensive artifacts are shared: one exhaustive scan
of the [40, 20, 9] ternary code (the ``c333_scan`` fixture of
``conftest.py``) feeds criteria 1, 4 and 5, and one full-grid sweep feeds
criteria 2, 3, 6 and 7.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from prmhull.analyze import design_lambda, min_distance
from prmhull.field import field_make, power_sum
from prmhull.geometry import evaluate, projective_points, reduce_monomial
from prmhull.prm import dim_sorensen, prm_code, rsj_hull_dim
from prmhull.sweep import SweepSpec, run_sweep

SWEEP_N = (1, 2, 3)
SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)
DISTANCE_LIMIT = 10**7

# Printed parameters of the five worked examples: (n, k, q) -> [N, K, D].
KNOWN_PARAMETERS = {
    (1, 1, 3): (4, 2, 3),
    (3, 3, 3): (40, 20, 9),
    (1, 2, 5): (6, 3, 4),
    (2, 1, 3): (13, 3, 9),
    (2, 2, 5): (31, 6, 20),
}

# SHA-256 of the 149 173-byte payload that `prmhull sweep --json --distances
# 10000000` prints, recorded at commit 2550b4c with
# `prmhull sweep --json --distances 10000000 | sha256sum`.
SWEEP_PAYLOAD_SHA256 = "ac6dfe71f9beeb2690a64521fec74568c83989cfbb97279dfd520d7e22e027c3"

# Full weight distribution of the [40, 20, 9] code over GF(3).
C333_DISTRIBUTION = {
    0: 1,
    9: 1040,
    12: 18720,
    15: 1100736,
    18: 25761840,
    21: 236377440,
    24: 908079120,
    27: 1388750720,
    30: 783679104,
    33: 137535840,
    36: 5468320,
    39: 11520,
}


@pytest.fixture(scope="session")
def sweep_data():
    """One full-grid sweep: n in {1,2,3}, q in {2,3,4,5,7,8,9}, all valid k,
    with exhaustive distance checks for every code with q^K <= 10^7."""
    spec = SweepSpec(SWEEP_N, SWEEP_Q, "all", distance_budget=DISTANCE_LIMIT)
    t0 = time.monotonic()
    rows, summary = run_sweep(spec)
    return {"rows": rows, "summary": summary, "seconds": time.monotonic() - t0}


def test_criterion_1_parameter_reproduction(c333_scan):
    for (n, k, q), (N, K, D) in KNOWN_PARAMETERS.items():
        if (n, k, q) == (3, 3, 3):
            continue  # handled below from the shared exhaustive scan
        C = prm_code(field_make(q), n, k)
        assert (C.N, C.K) == (N, K), (n, k, q)
        assert min_distance(C) == D, (n, k, q)
    C = c333_scan["C"]
    assert (C.N, C.K) == (40, 20)
    assert c333_scan["dist"].min_nonzero_weight() == 9
    print("CRITERION 1: PASS — all five printed parameter sets reproduced exactly")


def test_criterion_2_formula_cross_validation_sweep(sweep_data):
    rows, summary = sweep_data["rows"], sweep_data["summary"]
    expected_points = sum(n * (q - 1) for n in SWEEP_N for q in SWEEP_Q)
    assert summary["points"] == expected_points == 186
    assert summary["disagree"] == 0
    for row in rows:
        assert row["K_sorensen"] == row["K_mr"] == row["rank_G"] == row["K"], row
        assert row["dual_verified"] is True, row
        for key in ("self_dual", "self_orthogonal", "lcd"):
            assert row["predicted"][key] == row["constructed"][key], row
        if row["predicted"]["hull_dim"] != "no-closed-form":
            # hull() itself equates the Gram-rank and complement routes.
            assert row["predicted"]["hull_dim"] == row["constructed"]["hull_dim"], row
        assert row["agree"] is True, row
    assert sweep_data["seconds"] <= 600
    print(
        f"CRITERION 2: PASS — {summary['points']} points, 0 disagreements "
        f"({sweep_data['seconds']:.0f}s)"
    )


def test_criterion_3_exhaustive_distance_vs_formula(sweep_data):
    measured = 0
    for row in sweep_data["rows"]:
        if row["q"] ** row["K"] <= DISTANCE_LIMIT:
            measured += 1
            assert row["min_distance"] == row["D_formula"], row
            assert row["distance_matches_formula"] is True, row
        else:
            assert row["min_distance"] is None, row
    assert measured == 58
    assert max(
        row["K"] for row in sweep_data["rows"] if row["min_distance"] is not None
    ) == 14  # includes 2^14- and 5^10-codeword enumerations
    assert sweep_data["seconds"] <= 600
    print(f"CRITERION 3: PASS — {measured} codes enumerated, distances match formula")


def test_criterion_4_full_weight_enumerator(c333_scan):
    dist = c333_scan["dist"]
    assert dist.total() == 3**20
    assert {w: c for w, c in dist.to_pairs()} == C333_DISTRIBUTION
    assert c333_scan["seconds"] <= 900
    print(
        f"CRITERION 4: PASS — 3^20 codewords, 12 coefficients exact "
        f"({c333_scan['seconds']:.0f}s)"
    )


def test_criterion_5_design_verification(c333_scan):
    dist, fam = c333_scan["dist"], c333_scan["fam"]
    assert int(dist.counts[9]) == 1040
    assert fam.ground_size == 40
    assert len(fam.blocks) == 520
    assert all(len(b) == 9 for b in fam.blocks)
    # design_lambda recounts every one of the C(40,2) = 780 pairs and
    # demands a uniform count; 24 here certifies the 2-(40, 9, 24) design.
    assert design_lambda(fam, 2) == 24
    assert 520 * math.comb(9, 2) == 24 * math.comb(40, 2)
    print("CRITERION 5: PASS — 1040 words, 520 supports, 2-(40, 9, 24) design")


def test_criterion_6_property_suites(sweep_data):
    # Power sums: sum of beta^r vanishes unless (q-1) | r with r > 0.
    for q in SWEEP_Q:
        field = field_make(q)
        for r in range(2 * q + 1):
            expected = field.neg(1) if r > 0 and r % (q - 1) == 0 else 0
            assert power_sum(field, r) == expected, (q, r)

    # evaluate() reduces exponents mod x^q = x; verify against a literal
    # square-and-multiply oracle that never touches the exponents.
    def literal_pow(field, col, e):
        acc = np.ones_like(col)
        base = col.copy()
        while e:
            if e & 1:
                acc = field.vmul(acc, base)
            base = field.vmul(base, base)
            e >>= 1
        return acc

    rng = np.random.default_rng(20240917)
    for q in SWEEP_Q:
        field = field_make(q)
        P = projective_points(field, 2)
        for m in rng.integers(0, 3 * q + 1, size=(1000, 3)):
            m = tuple(int(e) for e in m)
            got = evaluate(m, P)
            want = np.ones(P.N, dtype=np.int32)
            for i, e in enumerate(m):
                want = field.vmul(want, literal_pow(field, P.pts[:, i], e))
            assert np.array_equal(got, want), (q, m)
            assert reduce_monomial(m, q) == reduce_monomial(reduce_monomial(m, q), q)

    # Dimension is strictly monotone in k and tops out at N - 1.
    for q in SWEEP_Q:
        for n in SWEEP_N:
            dims = [dim_sorensen(n, k, q) for k in range(1, n * (q - 1) + 1)]
            assert all(a < b for a, b in zip(dims, dims[1:])), (n, q)
            assert dims[-1] == (q ** (n + 1) - 1) // (q - 1) - 1, (n, q)

    rows = sweep_data["rows"]
    by_point = {(r["n"], r["k"], r["q"]): r for r in rows}

    # The all-ones vector is outside the base code wherever the duality
    # theorem adjoins it.
    adjoined = [r for r in rows if r["ones_outside_dual_base"] is not None]
    assert adjoined and all(r["ones_outside_dual_base"] is True for r in adjoined)

    # x_0^k witnesses a nonzero hull for every 1 <= k < n(q-1).
    for r in rows:
        if r["k"] < r["n"] * (r["q"] - 1):
            assert r["witness_in_hull"] is True, r
        else:
            assert r["witness_in_hull"] is None, r

    # A code and its dual share the hull, hence the hull dimension.
    assert all(r["constructed"]["hull_dim"] == r["dual_hull_dim"] for r in rows)

    # Two-variable closed form agrees with measurement at every point.
    checked = 0
    for q in (3, 4, 5, 7, 8, 9):
        for k in range(1, 2 * (q - 1) + 1):
            row = by_point[(2, k, q)]
            assert rsj_hull_dim(k, q) == row["constructed"]["hull_dim"], (k, q)
            checked += 1
    assert checked == 60
    print("CRITERION 6: PASS — all property suites exact")


def test_criterion_7_no_closed_form_coverage(sweep_data):
    rows = sweep_data["rows"]
    flagged = [r for r in rows if r["hull_dim_source"] == "constructive"]
    assert flagged, "sweep must surface no-closed-form points"
    in_gap = [
        r for r in flagged if 2 * (r["q"] - 1) < 2 * r["k"] < 3 * (r["q"] - 1)
    ]
    assert in_gap, "need a point with q-1 < k < 3(q-1)/2"
    example = next(r for r in in_gap if (r["n"], r["k"], r["q"]) == (3, 4, 4))
    assert example["predicted"]["hull_dim"] == "no-closed-form"
    assert example["constructed"]["hull_dim"] == 24
    assert example["agree"] is True
    print(
        f"CRITERION 7: PASS — {len(flagged)} no-closed-form points reported "
        f"with constructive hull dimensions"
    )


def test_sweep_payload_bytes_are_pinned(sweep_data):
    # A refactor must leave the CLI's bytes alone: the shared sweep, encoded
    # as `sweep --json` prints it, hashes to the recorded digest.
    payload = {"rows": sweep_data["rows"], "summary": sweep_data["summary"]}
    data = (json.dumps(payload, indent=2) + "\n").encode()
    assert len(data) == 149173
    assert hashlib.sha256(data).hexdigest() == SWEEP_PAYLOAD_SHA256
