"""Pinned canonical bases: any change to a row-reduction kernel that alters
a basis, not only one that alters a dimension, fails here.

Each digest is the SHA-256 of a canonical basis's field, shape and pivot
columns followed by its entries as little-endian int32, for C, dual(C)
and the hull basis of the code PRM(n, k, q). The digests were recorded
with the kernels that update every row at every pivot. Since the RREF of
a row space is unique, a correct kernel reproduces them exactly.

The same digests pin both routes to dual(C): the complement of C's
canonical basis, and the described dual of the duality theorem, adopted
by verify_dual as the sweep does.

Points: the three n = 3, k = 12 points of the sweep-n3 benchmark
(q = 7, 8, 9) and every proper point with n <= 2 and q in {2, 3, 4, 5}.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from prmhull.code import dual, hull
from prmhull.field import field_make
from prmhull.prm import prm_code, verify_dual

DIGESTS = json.loads((Path(__file__).parent / "canonical_digests.json").read_text())


def basis_digest(basis) -> str:
    head = f"GF({basis.matrix.field.q}) {basis.dim}x{basis.ambient} pivots {list(basis.pivots)}"
    h = hashlib.sha256(head.encode())
    h.update(basis.matrix.a.astype("<i4").tobytes())
    return h.hexdigest()


def point_digests(n: int, k: int, q: int, adopted: bool = False) -> dict[str, str]:
    f = field_make(q)
    C = prm_code(f, n, k)
    if adopted:
        assert verify_dual(C, prm_code(f, n, n * (q - 1) - k))[0]
    return {
        "code": basis_digest(C.canonical()),
        "dual": basis_digest(dual(C).canonical()),
        "hull": basis_digest(hull(C).hull_basis),
    }


def grid() -> list[tuple[int, int, int]]:
    points = [(3, 12, q) for q in (7, 8, 9)]
    for q in (2, 3, 4, 5):
        for n in (1, 2):
            points += [(n, k, q) for k in range(1, n * (q - 1) + 1)]
    return points


def test_pinned_grid_is_the_documented_one():
    assert sorted(DIGESTS) == sorted(f"{n},{k},{q}" for n, k, q in grid())


@pytest.mark.parametrize("n,k,q", grid())
def test_canonical_bases_are_pinned(n, k, q):
    assert point_digests(n, k, q) == DIGESTS[f"{n},{k},{q}"]


@pytest.mark.parametrize("n,k,q", grid())
def test_adopted_dual_bases_are_pinned(n, k, q):
    assert point_digests(n, k, q, adopted=True) == DIGESTS[f"{n},{k},{q}"]
