"""Bounded-slew max synchronization (a second gradient candidate).

The max algorithm's gradient violation (Section 2) comes from *instant*
catch-up: one message can yank a clock ``O(D)`` forward past a
distance-1 neighbor.  A classic systems remedy (NTP calls it *slewing*)
is to amortize corrections: chase the same max estimate, but move at
most ``sigma`` per gossip period.

Slewing bounds how fast two nearby clocks can be torn apart — the
distance-1 spike of the Section 2 scenario shrinks from ``~D`` to
``~sigma`` — at the price of slower global convergence (a ``D``-sized
correction now takes ``D / sigma`` periods to absorb).  Experiment E12
compares this candidate with the blocking candidate
(:class:`~repro.algorithms.gradient.BoundedCatchUpAlgorithm`) against
the conjectured ``O(d + log D)`` envelope of Section 9.

Unlike the blocking candidate, slewing does *not* consult neighbor
distances at all: it is the simplest possible smoothing and makes a
good ablation point (smoothing alone vs. distance-aware blocking).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import NeighborEstimates, PeriodicProcess, SyncAlgorithm
from repro.sim.node import NodeAPI, Process
from repro.topology.base import Topology

__all__ = ["SlewingMaxAlgorithm", "SlewingMaxProcess"]


class SlewingMaxProcess(PeriodicProcess):
    """Chase the max neighbor estimate, at most ``sigma`` per period."""

    def __init__(self, period: float, sigma: float, compensation: float):
        super().__init__(period)
        self.sigma = sigma
        self.estimates = NeighborEstimates(delay_compensation=compensation)

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        kind, value = payload
        if kind != "clock":
            return
        self.estimates.update(api, sender, value)

    def tick(self, api: NodeAPI) -> None:
        target = self.estimates.max_estimate(api)
        if target is None:
            return
        gap = target - api.logical_now()
        if gap > 0:
            api.jump_logical_by(min(gap, self.sigma))

    def recover(self, api: NodeAPI) -> None:
        """Drop estimates that went stale during the outage; slewing
        then chases fresh values only."""
        self.estimates.clear()


@dataclass
class SlewingMaxAlgorithm(SyncAlgorithm):
    """Factory for :class:`SlewingMaxProcess` nodes.

    Parameters
    ----------
    period:
        Hardware-time gossip period.
    sigma:
        Maximum forward correction per period.  Must exceed the drift
        differential accumulated per period (``2 rho * period``) or slow
        nodes can never catch up and the local skew diverges; smaller
        values give tighter local behavior.  The default 1.0 is stable
        for ``rho`` up to ~0.5 at the default period.
    compensation:
        Delay compensation per unit distance for neighbor estimates.
        Defaults to 0: compensation assumes delays near ``d/2``, and an
        adversary that drops a delay to zero turns the credit into a
        ``d/2`` *overshoot* that slewing then chases past the real
        maximum (experiment E12 demonstrates the exploit).  Leave it
        off unless delays are known benign.
    """

    period: float = 1.0
    sigma: float = 1.0
    compensation: float = 0.0
    name: str = "slewing-max"

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def processes(self, topology: Topology) -> dict[int, Process]:
        return {
            node: SlewingMaxProcess(self.period, self.sigma, self.compensation)
            for node in topology.nodes
        }
