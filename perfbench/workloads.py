"""The benchmark's workloads: seeded inputs, set-up, the timed call, checks.

Every workload talks to prmhull only through its stable public surface:
the ``prmhull.cli:main`` entry point and the names exported from
``prmhull/__init__.py``. Library functions are looked up on the package at
call time, so the span recorder's rebinding is seen by the workload too.

A workload is a class with four steps, run in a fresh interpreter:

* ``setup(seed)`` builds the inputs (after ``import prmhull``) and returns
  a state object; the same seed always gives the same inputs;
* ``run(state)`` makes the workload's calls and returns a JSON-able output;
* ``checks(output, refs)`` yields ``(name, ok)`` pairs, every one of which
  counts towards ``fail_ratio``;
* ``points(output)`` is the number of codes under test, the base of
  ``exactla.reductions_per_point``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# sweep-n3: one n=3 slice per elimination kernel the default grid uses
# (prime q=7, characteristic-2 q=8, odd e=2 q=9). Degree 12 holds a
# no-closed-form point (q=7, 8), the adjoined all-ones dual (q=7) and a
# self-dual point with the 820x1640 GF(9) Zassenhaus block (q=9).
SWEEP_N = 3
SWEEP_Q = (7, 8, 9)
SWEEP_K = (12,)
SWEEP_FIELDS = (
    "N", "K", "hull_dim", "gram_rank", "dual_hull_dim",
    "self_dual", "self_orthogonal", "lcd",
)

# enum-40-20-9: the packed F_3 scan with weight-9 supports on two workers,
# over a seeded 17-row subcode of the self-dual [40,20,9] code PRM(3,3,3).
FLAGSHIP = (3, 3, 3)  # (n, k, q)
FLAGSHIP_W = 9
ENUM_ROWS = 17
ENUM_WORKERS = 2

# distances-58: every grid code with q^K <= 10^7.
DIST_LIMIT = 10**7
DIST_N = (1, 2, 3)
DIST_Q = (2, 3, 4, 5, 7, 8, 9)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def digest(output) -> str:
    """Stable hash of a workload output, for traced-vs-untraced equality."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class SweepN3:
    name = "sweep-n3"
    reference = "sweep_n3"

    def setup(self, seed: int):
        import prmhull.cli  # noqa: F401 - the sweep builds its own codes

        qs = list(SWEEP_Q)
        random.Random(seed).shuffle(qs)
        return [
            "sweep", "--n", str(SWEEP_N),
            "--q", ",".join(map(str, qs)),
            "--k", ",".join(map(str, SWEEP_K)),
            "--json",
        ]

    def run(self, argv):
        import prmhull.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prmhull.cli.main(argv)
        return {"exit_code": code, "stdout": out.getvalue()}

    def checks(self, output, refs):
        yield "exit code 0", output["exit_code"] == 0
        try:
            rows = json.loads(output["stdout"])["rows"]
        except (ValueError, KeyError, TypeError):
            yield "stdout is the sweep JSON payload", False
            return
        got = {f"{r['n']},{r['k']},{r['q']}": r for r in rows}
        yield "one row per expected point", sorted(got) == sorted(refs["points"])
        for key, want in sorted(refs["points"].items()):
            row = got.get(key)
            yield f"{key} agree", row is not None and row.get("agree") is True
            if row is None:
                continue
            flat = {**row, **row.get("constructed", {})}
            for field in SWEEP_FIELDS:
                yield f"{key} {field}", flat.get(field) == want[field]

    def points(self, output):
        try:
            return len(json.loads(output["stdout"])["rows"])
        except (ValueError, KeyError, TypeError):
            return 0


class Enum402009:
    name = "enum-40-20-9"
    reference = "flagship"

    def setup(self, seed: int):
        import prmhull

        n, k, q = FLAGSHIP
        f = prmhull.field_make(q)
        G = prmhull.prm_code(f, n, k).G.a
        rows = sorted(random.Random(seed).sample(range(G.shape[0]), ENUM_ROWS))
        return prmhull.LinearCode(prmhull.MatrixFq(f, G[rows]), label="flagship subcode")

    def run(self, code):
        import prmhull

        dist, fam = prmhull.weight_distribution_with_supports(
            code, FLAGSHIP_W, workers=ENUM_WORKERS
        )
        lam = prmhull.design_lambda(fam, 2)
        return {
            "K": code.K,
            "counts": [int(c) for c in dist.counts],
            "blocks": [list(b) for b in fam.blocks],
            "lambda": lam if isinstance(lam, int) else None,
        }

    def checks(self, output, refs):
        import prmhull

        counts = output["counts"]
        flagship = {int(w): c for w, c in refs["distribution"].items()}
        yield "A_0 = 1", counts[0] == 1
        yield "sum A_w = 3^K", sum(counts) == 3 ** output["K"]
        yield "length 40", len(counts) == 41
        yield "no word below weight 9", not any(counts[1:FLAGSHIP_W])
        yield "every weight divisible by 3", all(
            c == 0 for w, c in enumerate(counts) if w % 3
        )
        yield "A_w bounded by the [40,20,9] distribution", all(
            c <= flagship.get(w, 0) for w, c in enumerate(counts)
        )
        blocks = {tuple(b) for b in output["blocks"]}
        known = {tuple(b) for b in refs["supports"]}
        yield "two weight-9 words per support", counts[FLAGSHIP_W] == 2 * len(blocks)
        yield "supports are [40,20,9] minimum-weight supports", blocks <= known
        lam = output["lambda"]
        pairs, per_block = math.comb(40, 2), math.comb(FLAGSHIP_W, 2)
        yield "design_lambda consistent with block count", (
            lam is None or lam * pairs == len(blocks) * per_block
        )
        # The full flagship family, recorded from the 3^20 scan: 520 blocks
        # forming a 2-(40, 9, 24) design.
        family = prmhull.BlockFamily(40, tuple(sorted(known)))
        yield "520 flagship supports", len(family.blocks) == refs["design"]["blocks"]
        yield "flagship lambda = 24", prmhull.design_lambda(family, 2) == refs["design"]["lambda"]

    def points(self, output):
        return 1

    def single_worker_scan(self, code, output):
        """Seconds for the same scan on one worker, and whether it agrees."""
        import prmhull

        t = time.perf_counter()
        dist, fam = prmhull.weight_distribution_with_supports(code, FLAGSHIP_W, workers=1)
        seconds = time.perf_counter() - t
        same = (
            [int(c) for c in dist.counts] == output["counts"]
            and [list(b) for b in fam.blocks] == output["blocks"]
        )
        return seconds, same


class Distances58:
    name = "distances-58"
    reference = "distances_58"

    def setup(self, seed: int):
        import prmhull

        grid = [
            (n, k, q)
            for q in DIST_Q
            for n in DIST_N
            for k in range(1, n * (q - 1) + 1)
            if q ** prmhull.dim_sorensen(n, k, q) <= DIST_LIMIT
        ]
        random.Random(seed).shuffle(grid)
        return [((n, k, q), prmhull.prm_code(prmhull.field_make(q), n, k)) for n, k, q in grid]

    def run(self, codes):
        import prmhull

        out = []
        for (n, k, q), C in codes:
            bound = prmhull.min_dist_formula(n, k, q)
            d = prmhull.min_distance(C, budget=DIST_LIMIT, stop_at=bound)
            out.append([n, k, q, C.K, d, bound])
        return out

    def checks(self, output, refs):
        yield "exactly 58 codes", len(output) == 58
        want = {(n, k, q): (K, d) for n, k, q, K, d in refs["codes"]}
        got = {(n, k, q): (K, d) for n, k, q, K, d, _ in output}
        yield "the recorded set of codes", sorted(got) == sorted(want)
        for n, k, q, K, d, bound in output:
            yield f"{n},{k},{q} distance = formula", d == bound
            yield f"{n},{k},{q} distance = recorded", want.get((n, k, q)) == (K, d)

    def points(self, output):
        return len(output)


WORKLOADS = {w.name: w for w in (SweepN3(), Enum402009(), Distances58())}
