"""The four benchmark workloads: fixed work, its checks, its numbers.

Each workload is a class with the same surface:

* ``setup(meter)`` — one set-up measurement in seconds (only for the
  in-process workloads; the others set up inside every pass);
* ``run_pass(meter)`` — one pass of the workload's fixed work, returning
  a :class:`Pass`;
* ``check(passes)`` — the output checks, run after the timed passes, as
  ``(attempted, failed)`` operation counts.

A pass's *work* is counted in the workload's own unit (simulated
messages, simulated time units, cold cells or callback events), and the
seconds that work took give ``work_per_s``.

Machine speed
-------------
The benchmark shares its cores with other tenants, and the speed of a
pure-Python loop swings by half within a minute there.  So every pass
interleaves short :func:`reference_time` probes between its operations
(a :class:`SpeedMeter`), takes their time out of the pass, and reports
compute time scaled to a machine on which the probe takes
:data:`REF_NOMINAL_S`.  Time a pass spends waiting on a schedule (the
live run's scheduled span) is not scaled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Seconds :func:`reference_time` takes on the reference machine (about
#: its time on the 2-core x86 virtual machine the benchmark was defined on).
REF_NOMINAL_S = 0.01

__all__ = ["WORKLOADS", "Pass", "SpeedMeter", "cpu_seconds"]


def reference_time() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


class SpeedMeter:
    """Machine-speed probes interleaved with a pass's operations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds the probes took, to take out of the pass.
        self.spent = 0.0

    def probe(self, n: int = 2) -> None:
        start = time.perf_counter()
        self.samples.extend(reference_time() for _ in range(n))
        self.spent += time.perf_counter() - start

    @property
    def scale(self) -> float:
        """Reference seconds per measured second of compute."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pinned_digests(workload: str, seed: int):
    """Per-operation digests pinned for ``seed``, or ``None`` if unpinned."""
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return pinned.get(workload, {}).get(str(seed))


def percentile(samples: list, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@dataclass
class Pass:
    """What one pass of fixed work measured and produced.

    ``wall_s``, ``cpu_s`` and ``work_s`` are measured seconds with the
    speed probes taken out; :meth:`ref` scales them.
    """

    wall_s: float
    cpu_s: float
    work: float
    #: Seconds the work counted in ``work`` took (the pass wall, or the
    #: cold phase alone on ``served-sweep``).
    work_s: float
    scale: float
    #: Part of ``wall_s`` and ``work_s`` spent waiting on a schedule.
    wait_s: float = 0.0
    setup_s: float | None = None
    #: Per-operation outputs the checks compare (JSON-able).
    outputs: list = field(default_factory=list)
    #: Per-layer numbers the workload measures from outside (traced runs).
    layers: dict = field(default_factory=dict)

    def ref(self, seconds: float) -> float:
        """``seconds`` of this pass in reference seconds."""
        return self.wait_s + (seconds - self.wait_s) * self.scale


def _finite(metrics: dict) -> bool:
    return all(
        math.isfinite(v) for v in metrics.values() if isinstance(v, float)
    )


def _probe_setup(target: str, meter: SpeedMeter) -> float:
    """Run ``run.py --probe-setup`` in a fresh interpreter and return the
    seconds it reports (imports plus the workload's preparation), in
    reference seconds."""
    meter.probe(4)
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup", target],
        env=src_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    meter.probe(4)
    return float(out.stdout.strip().splitlines()[-1]) * meter.scale


# ----------------------------------------------------------------------
# sim-cells


class SimCells:
    """12 ``benign-run`` cells, serially in process, into a fresh cache."""

    name = "sim-cells"
    SIZES = {
        "full": dict(topologies=("line:256", "grid:16,16"), duration=10.0),
        "tiny": dict(topologies=("line:16", "grid:4,4"), duration=5.0),
    }

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.passes_run = 0

    @staticmethod
    def spec(seed: int, size: str):
        from repro.sweep import SweepSpec

        shape = SimCells.SIZES[size]
        return SweepSpec(
            name="perfbench-sim-cells",
            topologies=shape["topologies"],
            algorithms=("max-based", "bounded-catch-up", "averaging"),
            rate_families=("drifted",),
            delay_policies=("uniform", "half"),
            seeds=(seed,),
            duration=shape["duration"],
            rho=0.2,
        )

    def setup(self, meter: SpeedMeter) -> float:
        return _probe_setup(f"{self.name}:{self.size}:{self.seed}", meter)

    def run_pass(self, meter: SpeedMeter) -> Pass:
        from repro.sweep import ResultCache, run_jobs

        cache_dir = self.work_dir / f"cache-{self.passes_run}"
        self.passes_run += 1
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        jobs = self.spec(self.seed, self.size).jobs()
        outcomes = run_jobs(
            jobs,
            workers=1,
            cache=ResultCache(cache_dir),
            progress=lambda done, total, outcome: meter.probe(),
        )
        wall = time.perf_counter() - start - meter.spent
        cpu = cpu_seconds() - cpu0 - meter.spent
        shutil.rmtree(cache_dir)
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            work=sum(o.metrics["messages"] for o in outcomes),
            work_s=wall,
            scale=meter.scale,
            outputs=[o.metrics for o in outcomes],
        )

    def check(self, passes: list) -> tuple[int, int]:
        pinned = pinned_digests(self.name, self.seed) if self.size == "full" else None
        attempted = failed = 0
        for p in passes:
            for k, metrics in enumerate(p.outputs):
                attempted += 1
                ok = (
                    metrics == passes[0].outputs[k]
                    and metrics["messages"] > 0
                    and _finite(metrics)
                    and metrics["max_adjacent_skew"] <= metrics["max_skew"] + 1e-9
                )
                if pinned is not None:
                    ok = ok and digest(metrics) == pinned[k]
                failed += not ok
        return attempted, failed

    def digests(self, p: Pass) -> list:
        return [digest(metrics) for metrics in p.outputs]


# ----------------------------------------------------------------------
# lower-bound


class LowerBound:
    """E02 quick's 12 Theorem 8.1 constructions."""

    name = "lower-bound"
    SIZES = {"full": (8, 16, 32), "tiny": (8,)}

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.size = size

    def setup(self, meter: SpeedMeter) -> float:
        return _probe_setup(f"{self.name}:{self.size}:{self.seed}", meter)

    @staticmethod
    def algorithms():
        from repro.algorithms import (
            AveragingAlgorithm,
            BoundedCatchUpAlgorithm,
            MaxBasedAlgorithm,
            SlewingMaxAlgorithm,
        )

        return [
            MaxBasedAlgorithm(),
            AveragingAlgorithm(),
            BoundedCatchUpAlgorithm(),
            SlewingMaxAlgorithm(),
        ]

    def run_pass(self, meter: SpeedMeter) -> Pass:
        from repro._constants import tau
        from repro.gcs.lower_bound import LowerBoundAdversary

        outputs, units = [], 0.0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for algorithm in self.algorithms():
            for diameter in self.SIZES[self.size]:
                result = LowerBoundAdversary(
                    diameter, rho=0.5, shrink=4, seed=self.seed
                ).run(algorithm)
                # alpha_0 plus one re-simulation per round.
                units += tau(0.5) * diameter + sum(
                    r.duration_after for r in result.rounds
                )
                outputs.append({
                    "algorithm": result.algorithm,
                    "diameter": result.diameter,
                    "rounds": [vars(r) for r in result.rounds],
                    "final_pair": list(result.final_pair),
                    "final_adjacent_skew": result.final_adjacent_skew,
                    "peak_adjacent_skew": result.peak_adjacent_skew,
                    "final_messages": len(result.final_execution.messages),
                })
                meter.probe()
        wall = time.perf_counter() - start - meter.spent
        return Pass(
            wall_s=wall,
            cpu_s=cpu_seconds() - cpu0 - meter.spent,
            work=units,
            work_s=wall,
            scale=meter.scale,
            outputs=outputs,
        )

    def check(self, passes: list) -> tuple[int, int]:
        pinned = pinned_digests(self.name, self.seed) if self.size == "full" else None
        attempted = failed = 0
        for p in passes:
            for k, out in enumerate(p.outputs):
                attempted += 1
                ok = (
                    out == passes[0].outputs[k]
                    and len(out["rounds"]) >= 3
                    and out["final_adjacent_skew"] > 0
                )
                if pinned is not None:
                    ok = ok and digest(out) == pinned[k]
                failed += not ok
        return attempted, failed

    def digests(self, p: Pass) -> list:
        return [digest(out) for out in p.outputs]


# ----------------------------------------------------------------------
# served-sweep


class ServedSweep:
    """A ``repro.serve`` daemon (2 workers) and one client: a cold grid,
    then warm resubmit -> wait -> fetch round trips."""

    name = "served-sweep"
    SIZES = {
        "full": dict(
            topologies=("line:7", "ring:8", "grid:3,3"),
            algorithms=("max-based", "bounded-catch-up", "averaging", "gradient"),
            delays=("uniform", "half"),
            seeds=8,
            warm=100,
        ),
        "tiny": dict(
            topologies=("line:7",),
            algorithms=("max-based", "gradient"),
            delays=("uniform",),
            seeds=2,
            warm=12,
        ),
    }
    #: Warm round trips between two speed probes.
    PROBE_EVERY = 10

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.passes_run = 0
        self.shape = self.SIZES[size]

    def spec(self):
        from repro.sweep import SweepSpec

        n = self.shape["seeds"]
        return SweepSpec(
            name="perfbench-served",
            topologies=self.shape["topologies"],
            algorithms=self.shape["algorithms"],
            rate_families=("drifted",),
            delay_policies=self.shape["delays"],
            seeds=tuple(range(n * self.seed, n * self.seed + n)),
            duration=40.0,
            rho=0.2,
        )

    def run_pass(self, meter: SpeedMeter) -> Pass:
        from repro.serve.client import ServeClient

        spec = self.spec()
        store = self.work_dir / f"store-{self.passes_run}"
        self.passes_run += 1
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "start",
             "--store", str(store), "--workers", "2"],
            env=src_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            with ServeClient(store=store, retry_for=60.0) as client:
                client.ping()
                setup = time.perf_counter() - start
                meter.probe()

                t0 = time.perf_counter()
                receipt = client.submit(spec)
                t1 = time.perf_counter()
                client.wait(receipt["sweep"], timeout=120)
                t2 = time.perf_counter()
                cold = client.fetch(receipt["sweep"])
                t3 = time.perf_counter()
                meter.probe()

                rtts, warm_queued, warm_mismatches, hits = [], 0, 0, 0
                for k in range(self.shape["warm"]):
                    w0 = time.perf_counter()
                    again = client.submit(spec)
                    client.wait(again["sweep"], timeout=60)
                    fetched = client.fetch(again["sweep"])
                    rtts.append(time.perf_counter() - w0)
                    warm_queued += again["queued"]
                    hits += again["hits"]
                    warm_mismatches += fetched != cold
                    if k % self.PROBE_EVERY == self.PROBE_EVERY - 1:
                        meter.probe()
                stats = client.stats()
                client.shutdown()
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
        wall = time.perf_counter() - start - meter.spent
        cpu = cpu_seconds() - cpu0 - meter.spent
        shutil.rmtree(store)
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            work=len(cold),
            work_s=t3 - t0,
            scale=meter.scale,
            setup_s=setup,
            outputs=[cold, len(rtts), warm_mismatches, warm_queued,
                     stats["executed"]],
            layers={
                "serve.submit_ms": (t1 - t0) * 1e3,
                "serve.drain_s": t2 - t1,
                "serve.fetch_ms": (t3 - t2) * 1e3,
                "serve.warm_rtt_ms_p50": percentile(rtts, 50) * 1e3,
                "serve.warm_rtt_ms_p90": percentile(rtts, 90) * 1e3,
                "serve.warm_rtts": len(rtts),
                "serve.executed": stats["executed"],
                # From the receipts: the stats op's own ``hits`` counts
                # only cells recalled from disk, not ones done in memory.
                "serve.hits": receipt["hits"] + hits,
                "serve.deduped": receipt["deduped"],
            },
        )

    def check(self, passes: list) -> tuple[int, int]:
        from repro.sweep import run_jobs

        # Served == in-process run_jobs, computed once, after timing;
        # every warm fetch was compared with its pass's cold fetch.
        expected = [o.metrics for o in run_jobs(self.spec().jobs(), workers=1)]
        attempted = failed = 0
        for p in passes:
            cold, warm, warm_mismatches, warm_queued, executed = p.outputs
            attempted += len(expected) + warm
            failed += sum(
                1 for k, m in enumerate(expected) if k >= len(cold) or cold[k] != m
            )
            failed += warm if cold != expected else warm_mismatches
            if warm_queued or executed != len(expected):
                failed += 1
        return attempted, failed


# ----------------------------------------------------------------------
# live-router


class LiveRouter:
    """Gradient on ``line:512`` over the router transport, 2 workers."""

    name = "live-router"
    SIZES = {
        "full": dict(topology="line:512", duration=20.0, time_scale=0.2),
        "tiny": dict(topology="line:32", duration=4.0, time_scale=0.1),
    }

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.shape = self.SIZES[size]

    def run_pass(self, meter: SpeedMeter) -> Pass:
        from repro.analysis.skew import summarize
        from repro.experiments.e14_live import skew_bound
        from repro.rt.run import LiveRunConfig, run_live

        config = LiveRunConfig(
            topology=self.shape["topology"],
            algorithm="gradient",
            duration=self.shape["duration"],
            rho=0.2,
            seed=self.seed,
            transport="router",
            time_scale=self.shape["time_scale"],
            record_trace=False,
        )
        t = os.times()
        start = time.perf_counter()
        execution = run_live(config)
        wall = time.perf_counter() - start
        u = os.times()
        parent = (u.user - t.user) + (u.system - t.system)
        child = (u.children_user - t.children_user) + (
            u.children_system - t.children_system
        )
        stats = execution.live_stats
        # E14's ladder verdict: final skew within the diameter + 1 budget.
        bounded = summarize(execution).final_skew <= skew_bound(
            execution.topology.diameter
        )
        scheduled = config.duration * config.time_scale
        return Pass(
            wall_s=wall,
            cpu_s=parent + child,
            work=stats["events"],
            work_s=wall,
            # Raw seconds: this run's CPU goes to sockets, select and
            # wake-ups, which the probe loop's speed does not track
            # (probe-scaled CPU varied several times more than raw).
            scale=1.0,
            wait_s=scheduled,
            setup_s=wall - scheduled,
            outputs=[{"bounded": bool(bounded), **stats}],
            layers={
                "rt.events": stats["events"],
                "rt.frames_routed": stats["frames_routed"],
                "rt.frames_dropped": stats["frames_dropped"],
                "rt.parent_cpu_s": parent,
                "rt.child_cpu_s": child,
                "rt.cpu_us_per_event": (parent + child) / stats["events"] * 1e6,
            },
        )

    def check(self, passes: list) -> tuple[int, int]:
        failed = sum(
            1
            for p in passes
            if not (p.outputs[0]["bounded"] and p.outputs[0]["frames_dropped"] == 0)
        )
        return len(passes), failed


WORKLOADS = {
    cls.name: cls for cls in (SimCells, LowerBound, ServedSweep, LiveRouter)
}
