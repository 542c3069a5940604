"""Benchmark: batched simulation engine vs. the scalar event loop.

``Simulator.run`` always executes on the batched engine; the scalar side
is the reference loop, reached through the test oracle
``Simulator._run_reference``.

The workload is the E15 bottleneck shape — periodic max-based gossip on a
256-node line under drifted (per-node constant) rates — which is what
capped realistic scale runs near D≈512 before the batched engine landed.

Two ratios are reported:

* **at-scale** — scalar in its default configuration (``record_trace=True``,
  exactly how every experiment ran before this engine existed) vs. the
  batched engine in its at-scale configuration (``record_trace=False``,
  which lets it skip clock materialization entirely).  This is the
  apples-to-apples "what E15 pays before vs. after" number and the one the
  ``REQUIRED_SPEEDUP`` floor applies to.
* **same-config** — both engines untraced.  Structurally smaller because
  the per-event algorithm callbacks (pure python, identical under both
  engines) dominate once tracing is off.  Recorded in the headline JSON
  un-floored, for honesty.

Equivalence is asserted before any timing: a smaller traced pair must
produce byte-identical digests, identical message lists and bitwise-equal
logical-clock matrices.  Speed means nothing if the numbers moved.

Timing methodology: the cyclic garbage collector is collected-then-disabled
around every timed run (GC pauses land on whichever engine happens to be
running and can double a measurement), engines are interleaved within each
round (shared-host speed drifts by tens of percent over minutes, so the
ratio is taken between runs in the same speed window), and rounds repeat
until the floor is met or ``MAX_ROUNDS`` is exhausted, keeping the
per-engine minimum as the estimate.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np

from conftest import write_headline
from repro.algorithms import MaxBasedAlgorithm
from repro.analysis.reporting import Table
from repro.sim.simulator import SimConfig, Simulator
from repro.sweep.families import drifted_rates
from repro.topology.generators import line

N_NODES = 256
DURATION = 60.0
RHO = 0.3
SEED = 1
REQUIRED_SPEEDUP = 5.0
MIN_ROUNDS = 3
MAX_ROUNDS = 6

EQ_NODES = 64
EQ_DURATION = 30.0


def _run(topology, rates, *, engine: str, record_trace: bool, duration: float):
    """``engine="scalar"`` runs the reference oracle, ``"batched"`` the
    production ``Simulator.run``."""
    algorithm = MaxBasedAlgorithm()
    sim = Simulator(
        topology,
        algorithm.processes(topology),
        SimConfig(
            duration=duration, rho=RHO, seed=SEED, record_trace=record_trace
        ),
        rate_schedules=rates,
    )
    return sim._run_reference() if engine == "scalar" else sim.run()


def _timed(topology, rates, *, engine: str, record_trace: bool) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _run(
            topology, rates, engine=engine, record_trace=record_trace, duration=DURATION
        )
        return time.perf_counter() - start
    finally:
        gc.enable()


def _assert_equivalent() -> None:
    topology = line(EQ_NODES)
    rates = drifted_rates(topology, rho=RHO, seed=SEED)
    scalar = _run(topology, rates, engine="scalar", record_trace=True, duration=EQ_DURATION)
    batched = _run(topology, rates, engine="batched", record_trace=True, duration=EQ_DURATION)
    assert scalar.trace.digest() == batched.trace.digest(), "trace digests diverged"
    assert scalar.messages == batched.messages, "message lists diverged"
    probe = np.linspace(0.0, EQ_DURATION, 121)
    assert np.array_equal(
        scalar.logical_matrix(probe), batched.logical_matrix(probe)
    ), "logical values diverged"


def test_sim_speedup() -> None:
    # Equivalence first: speed means nothing if the numbers moved.
    _assert_equivalent()

    topology = line(N_NODES)
    rates = drifted_rates(topology, rho=RHO, seed=SEED)

    scalar_traced: list[float] = []
    batched_untraced: list[float] = []
    scalar_untraced: list[float] = []
    rounds = 0
    for round_index in range(MAX_ROUNDS):
        rounds = round_index + 1
        scalar_traced.append(_timed(topology, rates, engine="scalar", record_trace=True))
        batched_untraced.append(
            _timed(topology, rates, engine="batched", record_trace=False)
        )
        scalar_untraced.append(
            _timed(topology, rates, engine="scalar", record_trace=False)
        )
        if rounds >= MIN_ROUNDS:
            if min(scalar_traced) / min(batched_untraced) >= REQUIRED_SPEEDUP:
                break

    st = min(scalar_traced)
    su = min(scalar_untraced)
    bu = min(batched_untraced)
    at_scale = st / bu
    same_config = su / bu

    table = Table(
        "simulation engine wall-clock, 256-node line, 60 s horizon",
        ["configuration", "best wall (s)", "speedup vs scalar traced"],
    )
    table.add_row("scalar, traced (pre-engine default)", f"{st:.3f}", "1.00x")
    table.add_row("scalar, untraced", f"{su:.3f}", f"{st / su:.2f}x")
    table.add_row("batched, untraced (at-scale config)", f"{bu:.3f}", f"{at_scale:.2f}x")
    print()
    print(table.render())
    print(f"\nat-scale speedup   {at_scale:.2f}x (floor {REQUIRED_SPEEDUP:.1f}x)")
    print(f"same-config speedup {same_config:.2f}x (recorded, un-floored)")

    write_headline(
        "sim",
        {
            "workload": {
                "topology": f"line({N_NODES})",
                "algorithm": "max-based",
                "rates": f"drifted_rates(rho={RHO}, seed={SEED})",
                "duration": DURATION,
            },
            "wall_seconds": {
                "scalar_traced": st,
                "scalar_untraced": su,
                "batched_untraced": bu,
            },
            "speedup": {
                "at_scale": at_scale,
                "same_config": same_config,
                "required_floor_at_scale": REQUIRED_SPEEDUP,
            },
            "rounds": rounds,
        },
    )

    assert at_scale >= REQUIRED_SPEEDUP, (
        f"batched engine at-scale speedup {at_scale:.2f}x under the "
        f"{REQUIRED_SPEEDUP:.1f}x floor (scalar traced {st:.3f}s, "
        f"batched untraced {bu:.3f}s over {rounds} interleaved rounds)"
    )


if __name__ == "__main__":
    test_sim_speedup()
    print("\nbench_sim: ok")
    sys.exit(0)
