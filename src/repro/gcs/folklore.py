"""The folklore ``f(d) = Omega(d)`` lower bound (Section 5, item 1).

    "for every real number d >= 1, there exists a network containing two
     nodes at distance d from each other, such that the two nodes have
     Omega(d) clock skew in some execution" — the paper only sketches
     this via the shifting argument of Lundelius-Welch & Lynch.

We realize it with the machinery we already trust: on the line
``0 .. d`` (so the endpoints sit at distance ``d``), run the quiet
execution and apply **one** Add Skew round to the endpoint pair.  The
two executions are indistinguishable to every node, yet the endpoint
skew grows by at least ``d / 12`` — a concrete ``Omega(d)`` with
constant ``1/12``.  Repeating the round (quiet extension, re-apply)
stacks further gains while the algorithm burns skew off no faster than
Bounded Increase allows, so the sweep in experiment E01 shows forced
skew growing linearly in ``d``.

The drift-free *shift* version of the folklore argument (delays swapped
between two executions, one node's timeline translated) needs clocks
with nonzero initial offsets, which the paper's model (all clocks start
at 0, Section 3) does not provide; the drift-based Add Skew route is the
model-faithful equivalent.  EXPERIMENTS.md ("Deviations from the proof")
records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._constants import tau as tau_of
from repro.algorithms.base import SyncAlgorithm
from repro.errors import ConstructionError
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew
from repro.gcs.schedule import AdversarySchedule
from repro.sim.execution import Execution
from repro.topology.generators import line

__all__ = ["FolkloreResult", "force_distance_skew"]


@dataclass(frozen=True)
class FolkloreResult:
    """Outcome of the Omega(d) construction at one distance."""

    distance: int
    rounds: int
    forced_skew: float
    guaranteed: float
    execution: Execution

    @property
    def skew_per_distance(self) -> float:
        return self.forced_skew / self.distance


def force_distance_skew(
    algorithm: SyncAlgorithm,
    distance: int,
    *,
    rho: float = 0.5,
    rounds: int = 1,
    comm_radius: float = 1.0,
    seed: int = 0,
) -> FolkloreResult:
    """Force ``Omega(distance)`` skew between two nodes at ``distance``.

    Builds the line ``0 .. distance``, runs the quiet ``alpha_0``, then
    applies ``rounds`` Add Skew rounds to the endpoint pair, each
    followed by a quiet extension long enough to restore the next
    round's preconditions.  Returns the measured endpoint skew; the
    single-round guarantee is ``distance / 12`` *per round* minus
    whatever the algorithm manages to burn off during extensions.
    """
    if distance < 1:
        raise ConstructionError("the paper's normalization needs d >= 1")
    if rounds < 1:
        raise ConstructionError("need at least one round")
    tau = tau_of(rho)
    topology = line(distance + 1, comm_radius=comm_radius)
    schedule = AdversarySchedule.quiet(topology.nodes, tau * distance)
    execution = schedule.run(topology, algorithm, rho=rho, seed=seed)

    lo, hi = 0, distance
    for _ in range(rounds):
        skew_now = execution.skew(lo, hi, execution.duration)
        plan = AddSkewPlan(
            i=lo,
            j=hi,
            n=topology.n,
            alpha_duration=schedule.duration,
            rho=rho,
            lead="lo" if skew_now >= 0 else "hi",
        )
        beta_schedule = apply_add_skew(schedule, plan)
        # Quiet extension: restores the window preconditions for the next
        # round (and gives the algorithm its chance to fight back).
        pad = plan.straggler_horizon - plan.beta_end
        schedule = beta_schedule.extended(tau * distance + pad + 1e-6)
        execution = schedule.run(topology, algorithm, rho=rho, seed=seed)

    forced = abs(execution.skew(lo, hi, execution.duration))
    return FolkloreResult(
        distance=distance,
        rounds=rounds,
        forced_skew=forced,
        guaranteed=distance / 12.0,
        execution=execution,
    )
