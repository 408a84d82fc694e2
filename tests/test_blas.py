"""The exact products run OpenBLAS on the calling thread and restore its count."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from prmhull import _blas, exactla
from prmhull.exactla import MatrixFq, mat_mul
from prmhull.field import field_make

from oracles import ref_matmul, ref_mul
from test_exactla import KERNEL_QS
from test_field import ref_pow


class FakeBlas:
    """A thread count with get and set entries that record every set."""

    def __init__(self, count: int):
        self.count = count
        self.sets = []
        self.lock = threading.Lock()

    def get(self) -> int:
        return self.count

    def set(self, count: int) -> None:
        with self.lock:
            self.sets.append(count)
            self.count = count


@pytest.fixture
def fake(monkeypatch):
    blas = FakeBlas(4)
    monkeypatch.setattr(_blas, "_entry_points", lambda: (blas.get, blas.set))
    return blas


@pytest.fixture
def no_lookup_cache():
    """Forget the cached lookup before and after a test that forces one."""
    _blas._entry_points.cache_clear()
    yield
    _blas._entry_points.cache_clear()


def _operands(q: int, rows: int = 3, inner: int = 5, cols: int = 4):
    rng = np.random.default_rng(q)
    f = field_make(q)
    A = MatrixFq(f, rng.integers(0, q, (rows, inner)))
    B = MatrixFq(f, rng.integers(0, q, (inner, cols)))
    return f, A, B


def _ref_power_products(f, exps, x):
    out = []
    for row in exps:
        vals = []
        for pt in x.tolist():
            v = 1
            for c, t in zip(pt, row):
                v = ref_mul(f, v, ref_pow(f, c, t))
            vals.append(v)
        out.append(vals)
    return out


@pytest.mark.parametrize("q", [7, 9])
def test_mat_mul_sets_one_thread_then_restores(fake, q):
    f, A, B = _operands(q)
    # on first use over GF(9) the product builds its plan, whose x^d digits
    # come from power_products: a nested entry, which sets nothing
    exactla._packing.cache_clear()
    mat_mul(A, B)
    assert fake.sets == [1, 4] and fake.count == 4


def test_power_products_sets_one_thread_then_restores(fake):
    f = field_make(25)
    f.power_products([[1, 2], [3, 0]], np.array([[2, 3], [0, 7]]))
    assert fake.sets == [1, 4] and fake.count == 4


def test_nested_entries_set_nothing(fake):
    f, A, B = _operands(9)
    with _blas.one_thread():
        assert fake.count == 1
        mat_mul(A, B)
        f.vpow(np.arange(9), 5)
        with _blas.one_thread():
            assert fake.sets == [1]
    assert fake.sets == [1, 4]


def test_exception_inside_a_product_restores_the_count(fake, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("inside the product")

    f, A, B = _operands(7)
    monkeypatch.setattr(np, "matmul", broken)
    with pytest.raises(RuntimeError, match="inside the product"):
        mat_mul(A, B)
    assert fake.sets == [1, 4] and fake.count == 4
    with pytest.raises(RuntimeError), _blas.one_thread():
        raise RuntimeError
    assert fake.sets == [1, 4, 1, 4] and fake.count == 4


def test_one_thread_already_makes_no_set_call(fake):
    fake.count = 1
    f, A, B = _operands(9)
    mat_mul(A, B)
    f.vpow(np.arange(9), 5)
    assert fake.sets == []


def test_concurrent_products_restore_the_count(fake):
    # each block that sets 1 restores what it read, so however two
    # threads' blocks interleave the count ends where it began
    cases = [_operands(q, 20, 30, 300) for q in (7, 9)]
    expected = [mat_mul(A, B) for _, A, B in cases]
    wrong = []

    def work(i):
        _, A, B = cases[i]
        for _ in range(20):
            if mat_mul(A, B) != expected[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and fake.count == 4 and set(fake.sets) <= {1, 4}


def _fake_numpy(monkeypatch, root, bundled):
    """Point the lookup at a numpy installed under root, bundling the
    library names in bundled."""
    (root / "numpy").mkdir()
    if bundled:
        (root / "numpy.libs").mkdir()
        for name in bundled:
            (root / "numpy.libs" / name).touch()
    fake_np = types.SimpleNamespace(__file__=str(root / "numpy" / "__init__.py"))
    monkeypatch.setattr(_blas, "np", fake_np)


@pytest.mark.parametrize(
    "bundled, found",
    [
        (["libgfortran.dll", "libscipy_openblas64_-ab.dll"], ["libscipy_openblas64_-ab.dll"]),
        ([], []),
    ],
    ids=["bundled", "none"],
)
def test_windows_lookup_lists_numpy_bundled_dlls(monkeypatch, tmp_path, bundled, found):
    monkeypatch.setattr(_blas, "_WINDOWS", True)
    _fake_numpy(monkeypatch, tmp_path, bundled)
    assert _blas._library_paths() == [str(tmp_path / "numpy.libs" / n) for n in found]


def test_lookup_without_numpy_core_module_finds_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_WINDOWS", False)
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    assert _blas._library_paths() == []


@pytest.mark.parametrize(
    "paths", [[], ["/nonexistent/libopenblas.so"]], ids=["none-found", "cdll-raises"]
)
@pytest.mark.parametrize("q", KERNEL_QS)
def test_products_without_an_entry_point_match_the_oracles(monkeypatch, no_lookup_cache, paths, q):
    monkeypatch.setattr(_blas, "_library_paths", lambda: paths)
    assert _blas._entry_points() is None
    f, A, B = _operands(q)
    assert mat_mul(A, B).a.tolist() == ref_matmul(f, A.a, B.a).tolist()
    exps = [[0, 1], [2, 3], [q - 1, q + 1]]
    x = np.random.default_rng(q).integers(0, q, (6, 2))
    assert f.power_products(exps, x).tolist() == _ref_power_products(f, exps, x)


def _run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports this checkout's prmhull."""
    env = {**os.environ, "PYTHONPATH": str(Path(exactla.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_import_makes_no_lookup():
    code = (
        "import prmhull, prmhull.cli\n"
        "from prmhull import _blas\n"
        "assert _blas._entry_points.cache_info().misses == 0\n"
    )
    _run_python(code)


def test_lookup_finds_numpy_openblas_with_scipy_loaded_first():
    # scipy's wheel maps its own OpenBLAS; the entry found must be numpy's
    bundled = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))
    if not bundled:
        pytest.skip("numpy bundles no OpenBLAS")
    code = (
        "import contextlib, ctypes\n"
        "with contextlib.suppress(ImportError):\n"
        "    import scipy.linalg\n"
        "from prmhull import _blas\n"
        "found = _blas._entry_points()[1]\n"
        f"own = getattr(ctypes.CDLL({str(bundled[0])!r}), found.__name__)\n"
        "address = lambda f: ctypes.cast(f, ctypes.c_void_p).value\n"
        "assert address(found) == address(own), found.__name__\n"
    )
    _run_python(code)


@pytest.fixture
def real_blas(no_lookup_cache):
    entry = _blas._entry_points()
    if entry is None:
        # a numpy on OpenBLAS whose entries are not found would spin its pool
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert "openblas" not in blas, f"numpy links {blas}, but no entry point was found"
        pytest.skip("no OpenBLAS thread-count entry points in this numpy")
    get, set_ = entry
    before = get()
    set_(2)
    yield get
    set_(before)


def test_real_pool_runs_the_product_on_one_thread(real_blas, monkeypatch):
    counts = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        counts.append(real_blas())
        return matmul(*args, **kwargs)

    f, A, B = _operands(9)
    monkeypatch.setattr(np, "matmul", spy)
    assert mat_mul(A, B).a.tolist() == ref_matmul(f, A.a, B.a).tolist()
    assert counts and set(counts) == {1}
    assert real_blas() == 2
    f.vpow(np.arange(9), 5)
    assert real_blas() == 2
