#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload sim-cells --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run repeats the workload's fixed work (a *pass*) for about
``--seconds`` seconds, checks the outputs, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the ``end_to_end`` ones named in
``BENCHMARK.json``, as medians over the passes; with ``--trace 1`` one
untraced pass is followed by one pass with the outside-in tracer of
``tracing.py`` installed, and the metrics are the ``per_layer`` ones.
``--smoke`` runs every workload at a tiny size in both modes and checks
that every named metric is emitted.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import Tracer
from workloads import BENCH_DIR, ROOT, WORKLOADS, LowerBound, SimCells, SpeedMeter

SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up measurements per run for the in-process workloads (each is a
#: fresh interpreter); the others set up once per pass.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload in both modes")
    parser.add_argument("--pin", action="store_true",
                        help="print this seed's per-operation digests")
    parser.add_argument("--probe-setup", metavar="WORKLOAD:SIZE:SEED",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(target: str) -> int:
    """Time imports plus the workload's preparation in this fresh
    interpreter: spec expansion, or building the 12 adversaries."""
    start = time.perf_counter()
    name, size, seed = target.split(":")
    if name == SimCells.name:
        SimCells.spec(int(seed), size).jobs()
    else:
        from repro.gcs.lower_bound import LowerBoundAdversary

        for _ in LowerBound.algorithms():
            for diameter in LowerBound.SIZES[size]:
                LowerBoundAdversary(diameter, rho=0.5, shrink=4, seed=int(seed))
    print(time.perf_counter() - start)
    return 0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(workload, seconds: float) -> tuple[list, list]:
    """Passes of fixed work while another one still fits in ``seconds``."""
    setups = [
        workload.setup(SpeedMeter()) for _ in range(SETUP_REPEATS)
    ] if hasattr(workload, "setup") else []
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(SpeedMeter()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups += [p.setup_s * p.scale for p in passes if p.setup_s is not None]
    return passes, setups


def end_to_end(passes: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.ref(p.wall_s) for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
        "work_per_s": statistics.median(p.work / p.ref(p.work_s) for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(workload) -> tuple[list, dict]:
    """One untraced pass, then one traced pass; per-layer numbers."""
    untraced = workload.run_pass(SpeedMeter())
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(SpeedMeter())
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    # serve and rt are timed from outside, in child processes the tracer
    # does not reach (router shards fork with its wrappers installed),
    # so their numbers come from the untraced pass.
    layers.update(untraced.layers)
    # In reference seconds, like wall_s, so machine-speed swings between
    # the two passes do not read as tracing overhead.
    layers["trace.untraced_wall_s"] = untraced.ref(untraced.wall_s)
    layers["trace.traced_wall_s"] = traced.ref(traced.wall_s)
    layers["trace.overhead_s"] = (
        layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
    )
    return [untraced, traced], layers


def measure(args, spec: dict) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
        if args.pin:
            print(json.dumps(workload.digests(workload.run_pass(SpeedMeter()))))
            return 0
        if args.trace:
            passes, values = run_traced(workload)
            names = spec["per_layer"]
        else:
            passes, setups = run_untraced(workload, args.seconds)
            values = end_to_end(passes, setups)
            names = spec["end_to_end"]
        attempted, failed = workload.check(passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for k, p in enumerate(passes):
        print(f"pass {k}: wall {p.wall_s:.3f} s, cpu {p.cpu_s:.3f} s, "
              f"work {p.work:g} in {p.work_s:.3f} s, speed scale {p.scale:.3f}")
    print(f"{args.workload} seed {args.seed}: {attempted} checked, "
          f"{failed} failed")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def smoke(spec: dict) -> int:
    """Every workload at its tiny size, both modes: every metric named in
    ``BENCHMARK.json`` must be emitted and every check must pass."""
    bad = 0
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload["name"], "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if out.returncode != 0:
                print(f"FAIL {workload['name']} trace={trace}: exit "
                      f"{out.returncode}\n{out.stderr}")
                bad += 1
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            missing = {m["name"] for m in spec[kind]} - set(result["metrics"])
            ok = not missing and result["correct"] and result["attempted"] >= 1
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload['name']} trace={trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked, {result['failed']} failed"
                  + (f", missing {sorted(missing)}" if missing else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args.probe_setup)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC.read_text())
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        print("--workload is required (or --smoke)", file=sys.stderr)
        return 2
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
