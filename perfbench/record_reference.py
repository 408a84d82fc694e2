"""Regenerate the reference values the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/reference/*.json``. The [40,20,9] part enumerates all
3^20 codewords (about a minute on two workers), and the recorded
distribution must equal the twelve published coefficients, with 520
weight-9 supports forming a 2-(40, 9, 24) design, before anything is
written. Re-record only when a change of results is intended.
"""

from __future__ import annotations

import json

import prmhull
import prmhull.cli
from workloads import (
    DIST_LIMIT,
    DIST_N,
    DIST_Q,
    FLAGSHIP,
    FLAGSHIP_W,
    REFERENCE_DIR,
    SWEEP_FIELDS,
    SWEEP_K,
    SWEEP_N,
    SWEEP_Q,
    WORKLOADS,
)

# The twelve published coefficients of the [40,20,9] weight enumerator.
PUBLISHED = {
    0: 1, 9: 1040, 12: 18720, 15: 1100736, 18: 25761840, 21: 236377440,
    24: 908079120, 27: 1388750720, 30: 783679104, 33: 137535840,
    36: 5468320, 39: 11520,
}
PUBLISHED_DESIGN = {"t": 2, "blocks": 520, "lambda": 24}


def record_sweep() -> dict:
    out = WORKLOADS["sweep-n3"].run(
        ["sweep", "--n", str(SWEEP_N), "--q", ",".join(map(str, SWEEP_Q)),
         "--k", ",".join(map(str, SWEEP_K)), "--json"]
    )
    if out["exit_code"] != 0:
        raise SystemExit(f"sweep exited {out['exit_code']}")
    points = {}
    for row in json.loads(out["stdout"])["rows"]:
        if not row["agree"]:
            raise SystemExit(f"sweep point disagrees: {row}")
        flat = {**row, **row["constructed"]}
        points[f"{row['n']},{row['k']},{row['q']}"] = {f: flat[f] for f in SWEEP_FIELDS}
    return {"points": points}


def record_flagship() -> dict:
    n, k, q = FLAGSHIP
    C = prmhull.prm_code(prmhull.field_make(q), n, k)
    dist, fam = prmhull.weight_distribution_with_supports(C, FLAGSHIP_W, workers=2)
    got = {w: c for w, c in dist.to_pairs()}
    if got != PUBLISHED:
        raise SystemExit(f"[40,20,9] distribution differs from the published one: {got}")
    lam = prmhull.design_lambda(fam, PUBLISHED_DESIGN["t"])
    if len(fam.blocks) != PUBLISHED_DESIGN["blocks"] or lam != PUBLISHED_DESIGN["lambda"]:
        raise SystemExit(f"{len(fam.blocks)} supports, lambda {lam}")
    return {
        "distribution": {str(w): c for w, c in PUBLISHED.items()},
        "design": PUBLISHED_DESIGN,
        "supports": [list(b) for b in fam.blocks],
    }


def record_distances() -> dict:
    codes = []
    for q in DIST_Q:
        for n in DIST_N:
            for k in range(1, n * (q - 1) + 1):
                K = prmhull.dim_sorensen(n, k, q)
                if q**K > DIST_LIMIT:
                    continue
                C = prmhull.prm_code(prmhull.field_make(q), n, k)
                d = prmhull.min_distance(C, budget=DIST_LIMIT)
                if d != prmhull.min_dist_formula(n, k, q):
                    raise SystemExit(f"distance {d} != formula at {(n, k, q)}")
                codes.append([n, k, q, K, d])
    if len(codes) != 58:
        raise SystemExit(f"{len(codes)} codes, expected 58")
    return {"codes": codes}


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in (
        ("sweep_n3", record_sweep),
        ("distances_58", record_distances),
        ("flagship", record_flagship),
    ):
        data = make()
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
