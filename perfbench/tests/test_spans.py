"""The span recorder: self time, rebinding by identity, absent metrics."""

import sys
import types

from spans import TRACED, Recorder, Span, layer_metrics, self_times


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "outer", None, 0.0, 10.0),
        Span(1, "inner", 0, 2.0, 5.0),
        Span(2, "leaf", 1, 3.0, 4.0),
        Span(3, "inner2", 0, 6.0, 7.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_recorder_links_nested_calls_to_their_parent():
    rec = Recorder(clock=scripted_clock(0.0, 1.0, 2.0, 3.0, 4.0, 7.0))
    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())
    outer = rec.wrap("outer", lambda: (inner(), 1)[1])
    assert outer() == 1
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["leaf"].parent == by_name["inner"].id
    selfs = self_times(rec.spans)
    assert selfs[by_name["outer"].id] == 7.0 - 3.0  # outer 0..7, inner 1..4
    assert selfs[by_name["inner"].id] == 3.0 - 1.0  # leaf 2..3


def _fake_package(monkeypatch):
    def f(x):
        return x + 1

    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    other = types.ModuleType("otherpkg")
    a.f = f
    b.f = f  # as `from .a import f` leaves it
    b.alias = f
    pkg.f = f
    other.f = f
    for m in (pkg, a, b, other):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return f, pkg, a, b, other


def test_rebinding_reaches_every_binding_by_identity(monkeypatch):
    f, pkg, a, b, other = _fake_package(monkeypatch)
    rec = Recorder().install([("fakepkg.a", "f")], package="fakepkg")
    try:
        assert a.f is not f
        assert pkg.f is a.f and b.f is a.f and b.alias is a.f
        assert other.f is f  # outside the package: untouched
        assert b.alias(1) == 2
        assert [s.name for s in rec.spans] == ["a.f"]
    finally:
        rec.uninstall()
    assert a.f is f and b.f is f and b.alias is f and pkg.f is f


def test_rebinding_reaches_prmhull_cross_module_imports():
    import prmhull
    import prmhull.cli
    import prmhull.code
    import prmhull.exactla
    import prmhull.prm

    original = prmhull.prm.prm_code
    rec = Recorder().install()
    try:
        wrapped = prmhull.prm.prm_code
        assert wrapped is not original
        assert prmhull.prm_code is wrapped and prmhull.cli.prm_code is wrapped
        assert prmhull.code.rank is prmhull.exactla.rank  # not wrapped, untouched
        assert not rec.missing
    finally:
        rec.uninstall()
    assert prmhull.prm_code is original and prmhull.cli.prm_code is original


def test_missing_function_is_skipped(monkeypatch):
    _fake_package(monkeypatch)
    rec = Recorder().install([("fakepkg.a", "gone"), ("fakepkg.nomodule", "f")], package="fakepkg")
    assert rec.missing == ["a.gone", "nomodule.f"]
    rec.uninstall()


def test_missing_function_yields_absent_metric():
    full = layer_metrics([], wall_s=1.0, points=1)
    assert "exactla.rref.calls" in full and full["exactla.rref.calls"] == 0
    assert len(full) == len(set(full))
    partial = layer_metrics([], wall_s=1.0, points=1, missing=["exactla.rref"])
    gone = set(full) - set(partial)
    assert gone == {
        "exactla.rref.calls",
        "exactla.rref.self_s.q7", "exactla.rref.self_s.q8", "exactla.rref.self_s.q9",
        "exactla.rref.cells_per_s.q7", "exactla.rref.cells_per_s.q8",
        "exactla.rref.cells_per_s.q9",
        "exactla.reductions_per_point",
    }


def test_scan_words_and_rates():
    spans = [
        Span(0, "analyze.weight_distribution_with_supports", None, 0.0, 2.0,
             {"q": 3, "shape": [17, 40]}),
        Span(1, "analyze.min_distance", None, 2.0, 3.0, {"q": 5, "shape": [2, 6]}),
        Span(2, "exactla.rref", 0, 0.5, 1.0, {"q": 7, "shape": [4, 10]}),
    ]
    m = layer_metrics(spans, wall_s=4.0, points=2)
    assert m["analyze.words"] == 3**17 + 25
    assert m["analyze.words_per_s"] == (3**17 + 25) / 3.0
    assert m["analyze.words_per_s.q5"] == 25.0
    assert m["analyze.words_per_s.q2"] == 0.0
    assert m["exactla.rref.cells_per_s.q7"] == 40 / 0.5
    assert m["exactla.reductions_per_point"] == 0.5
    assert m["analyze.min_distance.calls"] == 1


def test_every_traced_function_feeds_a_listed_metric():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(layer_metrics([], wall_s=1.0, points=1))
    produced |= {"analyze.parallel_efficiency", "trace.overhead_s"}
    assert produced == listed
    assert len(TRACED) == len(set(TRACED))


def test_predictions_map_every_listed_layer_metric_once():
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    pred = json.loads((root / "perfbench" / "predictions.json").read_text())
    mapped = [m for layer in pred["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer in pred["layers"].values():
        assert set(layer["moves"]) <= workloads and set(layer["no_change"]) <= workloads
        assert not set(layer["moves"]) & set(layer["no_change"])
        assert all(set(ms) <= end_to_end for ms in layer["moves"].values())
