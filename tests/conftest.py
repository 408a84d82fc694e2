"""Session fixtures shared by more than one test module."""

from __future__ import annotations

import time

import pytest

from prmhull.analyze import weight_distribution_with_supports
from prmhull.field import field_make
from prmhull.prm import prm_code


@pytest.fixture(scope="session")
def c333_scan():
    """One exhaustive pass over all 3^20 codewords of the [40, 20, 9] code,
    collecting the distribution and the weight-9 supports together."""
    C = prm_code(field_make(3), 3, 3)
    t0 = time.monotonic()
    dist, fam = weight_distribution_with_supports(C, 9)
    return {"C": C, "dist": dist, "fam": fam, "seconds": time.monotonic() - t0}
