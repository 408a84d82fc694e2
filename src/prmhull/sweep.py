"""Formula cross-validation over a grid of parameter points.

Each point builds the code C(n, k, q) and checks every closed form the
package knows against a constructive computation: both dimension
formulas against the rank, the duality description proven to be C^⊥ by
orthogonality and dimension, the classification and hull dimension
(shared with ``classification_report``), hull(C) = hull(C^⊥) in
dimension, the LCD witness, and optionally the minimum distance by
exhaustive search.

The duality check runs first: once it holds, the described dual's
canonical basis is C's dual, and the hull and the dual's own checks use
it, so no complement of C is row-reduced. Where it fails, dual(C) forms
the complement and the point reports the disagreement.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .analyze import min_distance
from .code import contains_vector, dual
from .errors import UsageError
from .field import field_make
from .prm import (
    classify_code,
    dim_mr,
    dim_sorensen,
    lcd_witness,
    prm_code,
    verify_dual,
)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for the cross-validation sweep.

    k_policy is "all" (meaning 1..n(q-1) at each point) or an explicit
    tuple of degrees, filtered to the valid range per (n, q).
    distance_budget > 0 additionally verifies min_distance against the
    formula for every code with q^K <= distance_budget.
    """

    n_list: tuple[int, ...]
    q_list: tuple[int, ...]
    k_policy: str | tuple[int, ...] = "all"
    distance_budget: int = 0


def _sweep_row(field, n: int, k: int, get_code, distance_budget: int = 0) -> dict:
    """One grid point: the classification report plus the sweep's checks,
    including, when q^K <= distance_budget, the exhaustive minimum distance.
    Every key of the row, ``agree`` included, is set here."""
    q = field.q
    C = get_code(k)
    dual_ok, ones_outside = verify_dual(C, get_code(n * (q - 1) - k))
    report = classify_code(C)
    K_s = dim_sorensen(n, k, q)
    K_m = dim_mr(n, k, q)
    dims_ok = K_s == K_m == C.K

    D = dual(C)
    dual_hull_dim = D.K - D.gram_rank()
    witness_ok = None
    if k < n * (q - 1):
        wvec = lcd_witness(field, n, k)
        witness_ok = contains_vector(C, wvec) and contains_vector(D, wvec)

    d = distance_ok = None
    if distance_budget and q**C.K <= distance_budget:
        d = min_distance(C, budget=distance_budget, stop_at=report.D_formula)
        distance_ok = d == report.D_formula

    row = report.to_json()
    row["agree"] = (
        report.agree
        and dims_ok
        and dual_ok
        and ones_outside is not False
        and witness_ok is not False
        and report.constructed["hull_dim"] == dual_hull_dim
        and distance_ok is not False
    )
    row.update(
        K_sorensen=K_s,
        K_mr=K_m,
        rank_G=C.K,
        gram_rank=C.gram_rank(),
        dual_hull_dim=dual_hull_dim,
        dims_match=dims_ok,
        dual_verified=dual_ok,
        ones_outside_dual_base=ones_outside,
        witness_in_hull=witness_ok,
        hull_cases=list(report.hull_cases),
        min_distance=d,
        distance_matches_formula=distance_ok,
    )
    return row


def run_sweep(spec: SweepSpec, log=None) -> tuple[list[dict], dict]:
    """Execute the sweep and return (rows, summary).

    Progress lines, one per (q, n) slice, go to ``log`` when it is given.

    Raises:
        UsageError: empty grid.
        NotPrimePower: some q in ``spec.q_list`` is not a prime power.
    """
    if not spec.n_list or not spec.q_list:
        raise UsageError("sweep needs nonempty --n and --q lists")
    if spec.k_policy != "all" and not spec.k_policy:
        raise UsageError("sweep needs a nonempty --k list (or 'all')")
    if any(n < 1 for n in spec.n_list):
        raise UsageError("sweep needs every n >= 1")
    # A repeated n or q would repeat its rows; the first occurrence keeps
    # its place, since the q order sets the row order. Every slice is
    # resolved before the first point, so a bad q or an empty grid fails
    # before any work or progress line.
    slices = []
    for q in dict.fromkeys(spec.q_list):
        field = field_make(q)
        for n in dict.fromkeys(spec.n_list):
            t = n * (q - 1)
            if spec.k_policy == "all":
                ks = list(range(1, t + 1))
            else:
                ks = sorted(k for k in set(spec.k_policy) if 1 <= k <= t)
            slices.append((field, n, ks))
    if not any(ks for _, _, ks in slices):
        raise UsageError("sweep grid is empty (no valid (n, k, q) points)")
    rows: list[dict] = []
    for field, n, ks in slices:
        t0 = time.monotonic()
        # Point k also needs the code of degree n(q-1) - k, so the
        # codes of one (q, n) slice are built once and shared.
        get_code = functools.cache(functools.partial(prm_code, field, n))
        rows.extend(_sweep_row(field, n, k, get_code, spec.distance_budget) for k in ks)
        if log is not None:
            print(
                f"sweep q={field.q} n={n}: {len(ks)} points "
                f"in {time.monotonic() - t0:.1f}s",
                file=log,
            )
    agree = sum(r["agree"] for r in rows)
    summary = {
        "points": len(rows),
        "agree": agree,
        "disagree": len(rows) - agree,
        "no_closed_form": sum(r["hull_dim_source"] == "constructive" for r in rows),
    }
    return rows, summary
