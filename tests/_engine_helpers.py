"""Shared helpers for the engine differential test harness.

The batched engine's contract is not "approximately the same results
faster" — it is *byte identity*: the same trace digest, the same message
list, the same fault counters, the same topology timeline and bitwise
the same logical-clock values as the scalar event loop, for every
scenario the simulator accepts.  ``Simulator.run`` (the production path)
always executes on the batched engine; the scalar loop survives only as
the oracle ``Simulator._run_reference``.  These helpers run one scenario
both ways and assert that whole contract in one place, so every
differential test (``test_engine_equivalence.py``, the fault and replay
regressions) compares the same surfaces.
"""

from __future__ import annotations

import numpy as np

from repro.sim.simulator import SimConfig, Simulator
from repro.topology.dynamic import DynamicTopology

__all__ = ["run_both", "assert_equivalent", "run_engine"]


def run_engine(
    engine,
    topology,
    algorithm,
    *,
    duration=12.0,
    rho=0.3,
    seed=0,
    rate_schedules=None,
    delay_policy=None,
    fault_plan=None,
    record_trace=True,
):
    """One run of ``algorithm`` on ``topology``: ``engine="scalar"`` runs
    the reference oracle, ``"batched"`` the production ``Simulator.run``."""
    if engine not in ("scalar", "batched"):
        raise ValueError(f"unknown engine {engine!r}")
    base = topology.initial if isinstance(topology, DynamicTopology) else topology
    sim = Simulator(
        topology,
        algorithm.processes(base),
        SimConfig(
            duration=duration, rho=rho, seed=seed, record_trace=record_trace
        ),
        rate_schedules=rate_schedules,
        delay_policy=delay_policy,
        fault_plan=fault_plan,
    )
    return sim._run_reference() if engine == "scalar" else sim.run()


def run_both(topology, algorithm_factory, **kwargs):
    """Run the same scenario on the oracle and the production path;
    returns (scalar, batched).

    ``algorithm_factory`` is called once per engine so no algorithm state
    leaks between the runs.
    """
    scalar = run_engine("scalar", topology, algorithm_factory(), **kwargs)
    batched = run_engine("batched", topology, algorithm_factory(), **kwargs)
    return scalar, batched


def assert_equivalent(scalar, batched, *, probe_points=97):
    """Assert the full equivalence contract between two executions.

    Compares the trace digest (byte identity of every recorded step),
    the delivered-message list (``Message`` is a frozen dataclass, so
    equality is field-by-field and float comparison is bitwise), fault
    counters, the topology timeline, and the logical-clock matrix
    sampled on a dense grid with ``array_equal`` — no tolerances
    anywhere.
    """
    assert scalar.duration == batched.duration
    assert scalar.trace.digest() == batched.trace.digest(), "trace digests diverged"
    assert len(scalar.trace) == len(batched.trace)
    assert scalar.messages == batched.messages, "message lists diverged"
    assert scalar.fault_stats == batched.fault_stats, "fault counters diverged"
    scalar_timeline = scalar.topology_timeline
    batched_timeline = batched.topology_timeline
    if scalar_timeline is None or batched_timeline is None:
        assert scalar_timeline == batched_timeline, "topology timelines diverged"
    else:
        assert len(scalar_timeline) == len(batched_timeline)
        for (at_s, topo_s), (at_b, topo_b) in zip(scalar_timeline, batched_timeline):
            assert at_s == at_b
            assert topo_s.nodes == topo_b.nodes
    probe = np.linspace(0.0, scalar.duration, probe_points)
    assert np.array_equal(
        scalar.logical_matrix(probe), batched.logical_matrix(probe)
    ), "logical-clock values diverged"
    assert np.array_equal(
        np.vstack([scalar.hardware[n].values_at(probe) for n in scalar.topology.nodes]),
        np.vstack([batched.hardware[n].values_at(probe) for n in batched.topology.nodes]),
    ), "hardware-clock values diverged"
