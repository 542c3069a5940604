"""Ablation benches for the design choices EXPERIMENTS.md calls out
("Deviations from the proof").

* shrink factor ``B`` of the Theorem 8.1 driver (the proof's
  ``384 tau f(1)``, parameterized here);
* gossip radius of the attacked algorithm (oracle-stacking soundness
  requires ``tau >= radius``);
* the gradient candidate's ``kappa`` budget (local skew vs. global
  tightness trade-off);
* simulator event throughput (substrate cost model).
"""

import pytest

from repro.algorithms import BoundedCatchUpAlgorithm, MaxBasedAlgorithm
from repro.analysis.reporting import Table
from repro.experiments.common import drifted_rates
from repro.gcs.lower_bound import LowerBoundAdversary
from repro.sim.messages import UniformRandomDelay
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line


@pytest.mark.benchmark(group="ablation-shrink")
@pytest.mark.parametrize("shrink", [2, 4, 8])
def test_ablation_shrink_factor(benchmark, shrink):
    """The forced skew is insensitive to B (the proof's asymptotics claim)."""

    def construct():
        return LowerBoundAdversary(16, rho=0.5, shrink=shrink, seed=0).run(
            MaxBasedAlgorithm()
        )

    result = benchmark.pedantic(construct, rounds=1, iterations=1)
    print(
        f"\nshrink B={shrink}: rounds={result.rounds_applied} "
        f"peak adjacent skew={result.peak_adjacent_skew:.3f}"
    )
    assert result.final_adjacent_skew > 0.1


@pytest.mark.benchmark(group="ablation-radius")
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_ablation_comm_radius(benchmark, radius):
    """The construction lands regardless of the gossip radius (rho such
    that tau >= radius keeps the oracle stack sound)."""

    def construct():
        return LowerBoundAdversary(
            16, rho=0.4, shrink=4, comm_radius=radius, seed=0
        ).run(MaxBasedAlgorithm())

    result = benchmark.pedantic(construct, rounds=1, iterations=1)
    print(
        f"\nradius={radius}: peak adjacent skew="
        f"{result.peak_adjacent_skew:.3f}"
    )
    assert result.final_adjacent_skew > 0.05


@pytest.mark.benchmark(group="ablation-kappa")
def test_ablation_kappa(benchmark):
    """kappa trades local smoothness against global tightness."""
    topo = line(13)

    def sweep():
        table = Table(
            title="ablation: bounded-catch-up kappa",
            headers=["kappa", "f(1)", "f(D)"],
        )
        out = {}
        for kappa in (0.5, 1.0, 2.0, 4.0):
            alg = BoundedCatchUpAlgorithm(period=0.5, kappa=kappa, mu=0.5)
            ex = run_simulation(
                topo,
                alg.processes(topo),
                SimConfig(duration=60.0, rho=0.2, seed=3),
                rate_schedules=drifted_rates(topo, rho=0.2, seed=3),
                delay_policy=UniformRandomDelay(),
            )
            profile = ex.gradient_profile()
            table.add_row(kappa, profile[1.0], profile[12.0])
            out[kappa] = profile
        print("\n" + table.render())
        return out

    profiles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Larger kappa -> looser local sync (weak monotonicity, generous slack).
    assert profiles[4.0][1.0] >= profiles[0.5][1.0] - 0.5


@pytest.mark.benchmark(group="ablation-rho")
@pytest.mark.parametrize("rho", [0.125, 0.25, 0.5])
def test_ablation_drift_bound(benchmark, rho):
    """The construction lands for any drift bound; per-round real-time
    shrink is span/(4+2rho), so gains are rho-insensitive while the
    execution length scales with tau = 1/rho."""

    def construct():
        return LowerBoundAdversary(16, rho=rho, shrink=4, seed=0).run(
            MaxBasedAlgorithm()
        )

    result = benchmark.pedantic(construct, rounds=1, iterations=1)
    print(
        f"\nrho={rho}: duration={result.final_execution.duration:.0f} "
        f"peak adjacent skew={result.peak_adjacent_skew:.3f}"
    )
    assert result.final_adjacent_skew > 0.05


@pytest.mark.benchmark(group="substrate-throughput")
def test_simulator_event_throughput(benchmark):
    """Raw substrate cost: events per second on a 33-node line."""
    topo = line(33)
    alg = MaxBasedAlgorithm(period=1.0)

    def run():
        return run_simulation(
            topo,
            alg.processes(topo),
            SimConfig(duration=50.0, rho=0.5, seed=0),
        )

    ex = benchmark(run)
    assert len(ex.trace) > 1000
