"""Averaging-style synchronization (a standard baseline).

Each node keeps dead-reckoned estimates of its neighbors' logical clocks
and periodically jumps *halfway* toward the largest estimate.  Moving
only forward keeps validity; moving halfway (instead of all the way, as
the max algorithm does) smooths corrections but — as experiment E11
shows — still fails the gradient property: a large correction arriving
over a short link produces the same distance-1 spike, just split across
a few periods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import NeighborEstimates, PeriodicProcess, SyncAlgorithm
from repro.sim.node import NodeAPI, Process
from repro.topology.base import Topology

__all__ = ["AveragingAlgorithm", "AveragingProcess"]


class AveragingProcess(PeriodicProcess):
    """Jump halfway toward the max neighbor estimate, once per period."""

    def __init__(self, period: float, pull: float):
        super().__init__(period)
        self.pull = pull
        self.estimates = NeighborEstimates()

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
            api.jump_logical_by(self.pull * gap)

    def recover(self, api: NodeAPI) -> None:
        """Drop estimates that went stale during the outage; the next
        round of gossip rebuilds them (jumps stay forward-only)."""
        self.estimates.clear()


@dataclass
class AveragingAlgorithm(SyncAlgorithm):
    """Factory for :class:`AveragingProcess` nodes.

    Parameters
    ----------
    period:
        Hardware-time gossip period.
    pull:
        Fraction of the gap to the max neighbor estimate closed per
        period (``0 < pull <= 1``; ``1`` degenerates to max-based with a
        one-period lag).
    """

    period: float = 1.0
    pull: float = 0.5
    name: str = "averaging"

    def __post_init__(self) -> None:
        if not 0.0 < self.pull <= 1.0:
            raise ValueError(f"pull must be in (0, 1], got {self.pull}")

    def processes(self, topology: Topology) -> dict[int, Process]:
        return {
            node: AveragingProcess(self.period, self.pull)
            for node in topology.nodes
        }
