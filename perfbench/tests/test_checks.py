"""Output checks: a failed check must raise fail_ratio."""

import itertools
import json

from run import Run
from workloads import WORKLOADS, load_reference


def failures(name, output):
    wl = WORKLOADS[name]
    return [label for label, ok in wl.checks(output, load_reference(wl.reference)) if not ok]


def good_sweep():
    refs = load_reference("sweep_n3")
    rows = []
    for key, want in refs["points"].items():
        n, k, q = map(int, key.split(","))
        rows.append({
            "n": n, "k": k, "q": q, "N": want["N"], "K": want["K"], "agree": True,
            "gram_rank": want["gram_rank"], "dual_hull_dim": want["dual_hull_dim"],
            "constructed": {f: want[f] for f in ("self_dual", "self_orthogonal", "lcd", "hull_dim")},
        })
    return rows


def test_sweep_checks_pass_on_reference_values_and_fail_on_any_change():
    rows = good_sweep()
    assert failures("sweep-n3", {"exit_code": 0, "stdout": json.dumps({"rows": rows})}) == []
    rows[0]["constructed"]["hull_dim"] += 1
    bad = failures("sweep-n3", {"exit_code": 0, "stdout": json.dumps({"rows": rows})})
    assert len(bad) == 1 and bad[0].endswith("hull_dim")
    assert failures("sweep-n3", {"exit_code": 2, "stdout": "not json"}) == [
        "exit code 0", "stdout is the sweep JSON payload",
    ]


def test_enum_checks_catch_a_wrong_count_and_a_foreign_support():
    refs = load_reference("flagship")
    block = refs["supports"][0]
    counts = [0] * 41
    counts[0], counts[9], counts[12] = 1, 2, 3**2 - 3
    good = {"K": 2, "counts": counts, "blocks": [block], "lambda": None}
    assert failures("enum-40-20-9", good) == []
    assert failures("enum-40-20-9", {**good, "counts": counts[:11] + [counts[11] + 1] + counts[12:]})
    known = {tuple(b) for b in refs["supports"]}
    other = next(c for c in itertools.combinations(range(40), 9) if c not in known)
    foreign = {**good, "blocks": [list(other)]}
    assert "supports are [40,20,9] minimum-weight supports" in failures("enum-40-20-9", foreign)


def test_distance_checks_catch_a_wrong_distance_and_a_missing_code():
    codes = load_reference("distances_58")["codes"]
    good = [[n, k, q, K, d, d] for n, k, q, K, d in codes]
    assert failures("distances-58", good) == []
    bad = [row[:] for row in good]
    bad[5][4] += 1
    assert len(failures("distances-58", bad)) == 2
    assert "exactly 58 codes" in failures("distances-58", good[1:])


def test_a_failed_check_raises_fail_ratio():
    run = Run("distances-58", seed=1, seconds=1, trace=False)
    run.check("passes", True)
    assert run.result({"wall_s": 1.0})["failed"] == 0
    run.check("fails", False)
    result = run.result({"wall_s": 1.0})
    assert (result["failed"], result["attempted"], result["correct"]) == (1, 2, False)


def test_inputs_follow_the_seed():
    sweep = WORKLOADS["sweep-n3"]
    assert sweep.setup(4) == sweep.setup(4)
    orders = {tuple(sweep.setup(s)[4].split(",")) for s in range(20)}
    assert len(orders) > 1 and all(sorted(o) == ["7", "8", "9"] for o in orders)
