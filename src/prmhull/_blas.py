"""Run prmhull's float64 BLAS products on the calling thread only.

The package's exact products (`exactla._mat_mul_arrays` and the exponent
product of `Field.power_products`) are integer sums. OpenBLAS's thread
pool speeds the larger ones up by a fifth or so, but after every threaded
call its other threads spin for about 0.1 s, so a sweep keeps a second
CPU busy from start to end. `one_thread` sets OpenBLAS to one thread for the
length of a block and then restores the count it read. The entry points
are looked up on first use, never at import: in numpy's bundled
libraries, or else in a mapped library whose file name contains
"openblas" (/proc/self/maps). Where none is found (MKL, Accelerate,
BLIS), it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

# (get, set) entry names, tried in this order in each library
_ENTRY_NAMES = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _library_paths() -> list[str]:
    """The OpenBLAS libraries numpy bundles, or else those mapped into this
    process (numpy's first: another package's OpenBLAS, such as scipy's,
    may be mapped too, and setting its pool would leave numpy's running)."""
    root = os.path.dirname(np.__file__)
    paths = []
    for libs in (os.path.join(os.path.dirname(root), "numpy.libs"), os.path.join(root, ".dylibs")):
        with contextlib.suppress(OSError):
            paths += sorted(os.path.join(libs, n) for n in os.listdir(libs) if "openblas" in n)
    if paths:
        return paths
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                # the path is the sixth field; a line without one ends in an inode
                path = line.split(None, 5)[-1].strip()
                if "openblas" in os.path.basename(path):
                    paths.append(path)
    except OSError:
        pass
    return list(dict.fromkeys(paths))


@functools.lru_cache(maxsize=None)
def _entry_points():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _ENTRY_NAMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """OpenBLAS runs one thread inside the block, then the count read before.

    Usable as a decorator too. A count already at 1 is left alone, so a
    nested block sets nothing; a block that sets 1 restores the count it
    read, on an exception too. BLAS's count is one setting for the whole
    process, and each set to 1 is undone by its own block, so calls from
    several threads also leave the count where it was.
    """
    entry = _entry_points()
    count = entry[0]() if entry else 1
    if count <= 1:
        yield
        return
    entry[1](1)
    try:
        yield
    finally:
        entry[1](count)
