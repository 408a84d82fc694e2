"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps each listed public function of a layer and rebinds
every binding of it, found by object identity, in all loaded modules of
the package. That reaches the ``from .x import y`` copies that ``cli``,
``prm`` and ``code`` hold. Each call records a span (name, start, end,
parent span, attributes); spans stay in memory until the run writes them
out. No file of the package is modified, and a listed name that does not
exist is skipped, so its metrics are absent rather than an error.

``field`` gets no span: its elementwise operations run millions of times
per scan and wrapping them would distort the run. Their cost lands in the
self time of the calling layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function) pairs wrapped in the traced run; the span name is
# "<module without package>.<function>".
TRACED = (
    ("prmhull.exactla", "rref"),
    ("prmhull.exactla", "intersect_rowspaces"),
    ("prmhull.exactla", "nullspace"),
    ("prmhull.exactla", "mat_mul"),
    ("prmhull.code", "dual"),
    ("prmhull.code", "hull"),
    ("prmhull.code", "equal_codes"),
    ("prmhull.code", "contains_vector"),
    ("prmhull.prm", "prm_code"),
    ("prmhull.geometry", "evaluate_rows"),
    ("prmhull.analyze", "weight_distribution_with_supports"),
    ("prmhull.analyze", "min_distance"),
    ("prmhull.analyze", "design_lambda"),
    ("prmhull.cli", "main"),
)

KERNEL_Q = (7, 8, 9)  # one field per RREF kernel the sweep uses
SCAN_Q = (2, 3, 4, 5, 7, 8, 9)
SCANS = ("analyze.weight_distribution_with_supports", "analyze.min_distance")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def describe(args) -> dict:
    """Field size and input shape, read from the first argument carrying them."""
    attrs = {}
    for a in args:
        fld = a if isinstance(getattr(a, "q", None), int) else getattr(a, "field", None)
        if "q" not in attrs and isinstance(getattr(fld, "q", None), int):
            attrs["q"] = fld.q
        mat = getattr(a, "a", None)
        if mat is None:
            mat = getattr(getattr(a, "G", None), "a", None)
        if "shape" not in attrs and getattr(mat, "ndim", 0) == 2:
            attrs["shape"] = [int(x) for x in mat.shape]
    return attrs


class Recorder:
    """Records spans for the functions it wraps while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.clock(), attrs=describe(args))
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced

    def install(self, targets=TRACED, package: str = "prmhull") -> "Recorder":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for modname, fname in targets:
            span_name = f"{modname.rpartition('.')[2]}.{fname}"
            original = getattr(sys.modules.get(modname), fname, None)
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self.wrap(span_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def words(span: Span) -> int:
    """Messages a scan visits: q^K (a completed scan; an early stop visits fewer)."""
    return span.attrs["q"] ** span.attrs["shape"][0]


def layer_metrics(
    spans: list[Span], wall_s: float, points: int, missing=()
) -> dict[str, float]:
    """Per-layer metrics from one traced repetition.

    A metric computed from a span in `missing` (a function the recorder
    could not find) is left out. A wrapped function that was never called
    reports zero work.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, q=None, key=None):
        return sum(
            (selfs[s.id] if key is None else key(s))
            for s in by_name[name]
            if q is None or s.attrs.get("q") == q
        )

    def inclusive(s):
        return s.duration

    def calls(name, q=None):
        return sum(1 for s in by_name[name] if q is None or s.attrs.get("q") == q)

    def cells(s):
        rows, cols = s.attrs.get("shape", (0, 0))
        return rows * cols

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    m["exactla.rref.calls"] = calls("exactla.rref")
    for q in KERNEL_Q:
        t = total("exactla.rref", q)
        m[f"exactla.rref.self_s.q{q}"] = t
        m[f"exactla.rref.cells_per_s.q{q}"] = rate(total("exactla.rref", q, cells), t)
    m["exactla.intersect_rowspaces.calls"] = calls("exactla.intersect_rowspaces")
    m["exactla.intersect_rowspaces.self_s"] = total("exactla.intersect_rowspaces")
    m["exactla.intersect_rowspaces.per_call_s.q9"] = rate(
        total("exactla.intersect_rowspaces", 9), calls("exactla.intersect_rowspaces", 9)
    )
    m["exactla.nullspace.self_s"] = total("exactla.nullspace")
    m["exactla.mat_mul.calls"] = calls("exactla.mat_mul")
    m["exactla.mat_mul.self_s"] = total("exactla.mat_mul")
    m["exactla.reductions_per_point"] = rate(
        calls("exactla.rref") + calls("exactla.intersect_rowspaces"), points
    )
    for name in ("dual", "hull", "equal_codes", "contains_vector"):
        m[f"code.{name}.self_s"] = total(f"code.{name}")
    m["code.hull.share"] = rate(total("code.hull", key=inclusive), wall_s)
    m["prm.prm_code.calls"] = calls("prm.prm_code")
    m["prm.prm_code.self_s"] = total("prm.prm_code")
    m["geometry.evaluate_rows.self_s"] = total("geometry.evaluate_rows")

    scans = [s for name in SCANS for s in by_name[name]]
    m["analyze.words"] = sum(words(s) for s in scans)
    m["analyze.words_per_s"] = rate(m["analyze.words"], sum(s.duration for s in scans))
    for q in SCAN_Q:
        qs = [s for s in scans if s.attrs.get("q") == q]
        m[f"analyze.words_per_s.q{q}"] = rate(
            sum(words(s) for s in qs), sum(s.duration for s in qs)
        )
    m["analyze.min_distance.calls"] = calls("analyze.min_distance")
    m["analyze.design_lambda.self_s"] = total("analyze.design_lambda")
    m["cli.main.self_s"] = total("cli.main")

    return {k: v for k, v in m.items() if not set(_sources(k)) & set(missing)}


def _sources(metric: str) -> tuple[str, ...]:
    """The spans a metric is computed from, e.g. ('exactla.rref',)."""
    if metric == "exactla.reductions_per_point":
        return ("exactla.rref", "exactla.intersect_rowspaces")
    if metric.startswith("analyze.words"):
        return SCANS
    return (".".join(metric.split(".")[:2]),)
