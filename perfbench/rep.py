"""One repetition of a workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (import and build the inputs only), ``run`` (untraced)
or ``trace`` (with the span recorder installed after import; the spans are
written to SPANS_FILE). A fresh process per repetition keeps module caches
such as ``geometry._POW_TABLES`` from making later repetitions cheaper
than a user's run. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def usage() -> tuple[float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS in MiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def library_info() -> dict:
    import numpy

    info = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv: list[str]) -> dict:
    from workloads import WORKLOADS, digest, load_reference

    name, seed, mode = argv[0], int(argv[1]), argv[2]
    wl = WORKLOADS[name]
    recorder = None

    t0 = time.perf_counter()
    import prmhull  # noqa: F401 - part of the measured set-up

    if mode == "trace":
        import prmhull.cli  # noqa: F401 - loaded so its bindings get wrapped
        from spans import Recorder

        recorder = Recorder().install()
    state = wl.setup(seed)
    result = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        result.update(library_info())
        return result

    refs = load_reference(wl.reference)
    cpu0, _ = usage()
    w0 = time.perf_counter()
    output = wl.run(state)
    checks = list(wl.checks(output, refs))
    wall = time.perf_counter() - w0
    cpu1, rss = usage()
    result.update(
        wall_s=wall,
        cpu_s=cpu1 - cpu0,
        peak_rss_mib=rss,
        attempted=len(checks),
        failed=[label for label, ok in checks if not ok],
        digest=digest(output),
        points=wl.points(output),
    )
    if recorder is not None:
        from spans import layer_metrics

        recorder.uninstall()
        layers = layer_metrics(recorder.spans, wall, result["points"], recorder.missing)
        layers["analyze.parallel_efficiency"] = 0.0
        if hasattr(wl, "single_worker_scan"):
            # The 1-worker scan time over twice the traced 2-worker scan time.
            scans = [s for s in recorder.spans if s.name == "analyze.weight_distribution_with_supports"]
            t1, same = wl.single_worker_scan(state, output)
            result["attempted"] += 1
            if not same:
                result["failed"].append("1-worker scan equals 2-worker scan")
            if scans:
                layers["analyze.parallel_efficiency"] = t1 / (2 * scans[0].duration)
        result["layers"] = layers
        with open(argv[3], "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
