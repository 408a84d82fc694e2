"""prmhull benchmark: three workloads through the public surface, untraced
for end-to-end metrics and traced for per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs every workload untraced and traced and prints every
metric with its unit. Each repetition is a fresh interpreter running
``rep.py``, one at a time. An untraced run repeats the workload for about
``--seconds`` seconds (at least twice) and reports medians; a traced run
spends half that on untraced repetitions, then makes one traced repetition
and checks that its output equals theirs. Set-up is measured in separate
set-up-only processes as well as in every repetition, and reported as the
median. The last line of stdout is one JSON object; the environment, the
raw repetitions and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

RUN_LIMIT_S = 170  # every run ends well inside three minutes
SETUP_PROBES = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run of one workload: repetitions, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.reps: list[dict] = []
        self.library: dict = {}

    def child(self, mode: str, spans_file: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(HERE / "rep.py"), self.workload, str(self.seed), mode]
        if spans_file is not None:
            cmd.append(str(spans_file))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1)
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except (subprocess.TimeoutExpired, ValueError):
            proc, result = None, None
        if result is None:
            self.attempted += 1
            err = proc.stderr.strip().splitlines()[-1:] if proc is not None else ["timeout"]
            self.failures.append(f"{mode} repetition failed: {' '.join(err)}")
            return None
        self.setups.append(result["setup_s"])
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failures += result["failed"]
        return result

    def repeat(self, budget: float, min_reps: int) -> None:
        """Untraced repetitions for about `budget` seconds."""
        start = time.monotonic()
        while time.monotonic() < self.deadline - 30:
            rep = self.child("run")
            if rep is None:
                return
            self.reps.append(rep)
            elapsed = time.monotonic() - start
            typical = statistics.median(r["wall_s"] + r["setup_s"] for r in self.reps)
            if len(self.reps) >= min_reps and elapsed + typical / 2 > budget:
                return

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def execute(self) -> dict:
        first = self.child("setup")  # also warms the file cache and bytecode
        if first is None:
            return self.result({})
        self.library = {k: first[k] for k in ("numpy", "blas") if k in first}
        self.setups.clear()
        for _ in range(SETUP_PROBES):
            self.child("setup")
        self.repeat(self.seconds / 2 if self.trace else self.seconds, 1 if self.trace else 2)
        if not self.reps:
            return self.result({})
        digests = {r["digest"] for r in self.reps}
        self.check("untraced repetitions agree", len(digests) == 1)
        if not self.trace:
            return self.result(self.end_to_end())
        OUT.mkdir(exist_ok=True)
        traced = self.child("trace", OUT / f"{self.workload}-seed{self.seed}.spans.jsonl")
        if traced is None:
            return self.result({})
        self.check("traced output equals untraced output", digests == {traced["digest"]})
        layers = dict(traced["layers"])
        untraced_wall = statistics.median(r["wall_s"] for r in self.reps)
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        return self.result(layers)

    def end_to_end(self) -> dict:
        return {
            "wall_s": statistics.median(r["wall_s"] for r in self.reps),
            "setup_s": statistics.median(self.setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in self.reps),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in self.reps),
        }

    def result(self, values: dict) -> dict:
        units = {}
        if SPEC is not None:
            listed = SPEC["per_layer"] if self.trace else SPEC["end_to_end"]
            units = {m["name"]: m["unit"] for m in listed}
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
        return {
            "correct": not self.failures and bool(values),
            "attempted": max(self.attempted, 1),
            "failed": len(self.failures),
            "metrics": metrics,
        }

    def record(self, result: dict, env: dict) -> dict:
        """Write the run to perfbench/out/ and return its environment."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        env = {**env, **self.library}
        payload = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "environment": env, "fail_ratio":
            result["failed"] / result["attempted"], "failures": self.failures,
            "setup_s": self.setups, "repetitions": self.reps,
            "result": result,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return env


def print_metrics(prefix: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    print(f"{prefix}fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} checks)")


def run_one(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    run = Run(workload, seed, seconds, trace)
    result = run.execute()
    print(json.dumps({"environment": run.record(result, env)}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "prmhull" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no prmhull source tree (src/prmhull) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2

    env = environment()
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), env)
        print_metrics("", result)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(workload, args.seed, args.seconds, trace, env)
            print_metrics(f"{workload} trace={int(trace)} ", result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
