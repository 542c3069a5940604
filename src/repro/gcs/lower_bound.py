"""Theorem 8.1's iterated construction, executable.

The theorem drives *any* clock synchronization algorithm into
``Omega(log D / log log D)`` skew between two nodes at distance 1, on
the line network ``d_ij = |i - j|``:

1. ``alpha_0``: quiet execution (rates 1, delays ``d/2``) of duration
   ``tau * (D - 1)``;
2. round ``k``: the current pair ``(i_k, j_k)`` at distance ``n_k`` gets
   Add Skew applied to the final quiet window — skew grows by
   ``n_k / 12``;
3. extend quietly for ``~ n_{k+1} * tau``; the Bounded Increase lemma
   caps how much of the new skew the algorithm can burn off;
4. pigeonhole (Claim 8.5): some sub-pair ``(i_{k+1}, j_{k+1})`` at
   distance ``n_{k+1} = n_k / B`` retains proportional skew; recurse.

After ``k = Theta(log D / log log D)`` rounds, an *adjacent* pair holds
``k / 24`` skew.

This driver performs the construction against a concrete algorithm by
running the deterministic simulator under each round's edited schedule
— the executable counterpart of "indistinguishable execution exists".
A round's edits (Add Skew's rate knees and warped delays) all start at
its window start ``S``, so the edited run shares the previous run's
prefix exactly.  The driver therefore resumes each round from a fork of
the previous round's run (:class:`~repro.sim.engine.EngineCheckpoint`)
taken at ``S - tau``, instead of simulating that prefix again from time
0.  The fork is valid when every event queued at it — in-flight
messages, pending timers — is due before ``S``: then no in-flight
message is warped and no timer moves.  Gossip periods shorter than
``tau`` always satisfy this.  When a longer period breaks it, the round
resumes from an earlier fork, still valid because every later schedule
agrees with it before ``S``; ``alpha_0`` and round 0 run from time 0.
The simulator refuses any resume that is not exact, so the transcript
is the from-zero construction's, byte for byte.

Differences from the proof text, all listed in EXPERIMENTS.md,
"Deviations from the proof":

* the proof's shrink factor ``B = 384 tau f(1)`` uses the unknown
  gradient bound ``f(1)``; the driver takes ``B`` as a parameter
  (asymptotics are ``B``-insensitive);
* each extension is padded past the straggler horizon (see
  :mod:`repro.gcs.oracle`) so the next round's window is exactly quiet;
* the orientation WLOG ("renumber the nodes") is realized by letting
  each round's plan lead from whichever side currently leads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._constants import tau as tau_of
from repro.algorithms.base import SyncAlgorithm
from repro.errors import ConstructionError
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sim.engine import EngineCheckpoint
from repro.sim.execution import Execution
from repro.topology.base import Topology
from repro.topology.generators import line

__all__ = ["RoundRecord", "LowerBoundResult", "LowerBoundAdversary"]


@dataclass(frozen=True)
class RoundRecord:
    """What one Add Skew round did."""

    round_index: int
    i: int
    j: int
    span: int
    lead: str
    skew_before: float
    skew_after_round: float
    duration_after: float
    next_i: int
    next_j: int
    next_span: int
    next_pair_skew: float

    @property
    def gain(self) -> float:
        return self.skew_after_round - self.skew_before


@dataclass
class LowerBoundResult:
    """The full construction transcript against one algorithm."""

    algorithm: str
    diameter: int
    rho: float
    shrink: int
    rounds: list[RoundRecord]
    final_execution: Execution
    final_pair: tuple[int, int]

    @property
    def final_adjacent_skew(self) -> float:
        """|skew| of the final distance-1 pair at the end — the theorem's
        witnessed quantity."""
        i, j = self.final_pair
        return abs(
            self.final_execution.skew(i, j, self.final_execution.duration)
        )

    @property
    def peak_adjacent_skew(self) -> float:
        """Largest distance-1 skew at the final instant, network-wide."""
        return self.final_execution.max_adjacent_skew(
            self.final_execution.duration
        )

    @property
    def rounds_applied(self) -> int:
        return len(self.rounds)


class LowerBoundAdversary:
    """Runs the Theorem 8.1 construction against an algorithm.

    Parameters
    ----------
    diameter:
        ``D``: the line has nodes ``0 .. D`` (``D + 1`` nodes, diameter
        ``D``), so ``n_0 = D`` and round ``k`` works at span
        ``n_k = max(1, n_{k-1} // shrink)``.
    rho:
        Drift bound; ``tau = 1/rho``.  Must satisfy
        ``tau >= comm_radius`` so no message can cross an extension's
        padding (the oracle-stacking soundness condition).
    shrink:
        The per-round span divisor ``B`` (the proof's ``384 tau f(1)``).
    comm_radius:
        Gossip radius of the algorithm under attack (1 = adjacent only).
    """

    def __init__(
        self,
        diameter: int,
        *,
        rho: float = 0.5,
        shrink: int = 4,
        comm_radius: float = 1.0,
        seed: int = 0,
    ):
        if diameter < 2:
            raise ConstructionError("need diameter >= 2")
        if shrink < 2:
            raise ConstructionError("shrink factor must be >= 2")
        if tau_of(rho) < comm_radius:
            raise ConstructionError(
                f"need tau = {tau_of(rho)} >= comm_radius = {comm_radius} "
                "for sound oracle stacking (see gcs.oracle)"
            )
        self.diameter = diameter
        self.rho = rho
        self.shrink = shrink
        self.comm_radius = comm_radius
        self.seed = seed
        self.topology: Topology = line(diameter + 1, comm_radius=comm_radius)

    # ------------------------------------------------------------------

    def _pick_window(
        self, execution: Execution, lo: int, hi: int, width: int
    ) -> tuple[int, int, float]:
        """Claim 8.5's pigeonhole: the width-``width`` sub-pair of
        ``[lo, hi]`` with the largest end-time skew (signed magnitude)."""
        t = execution.duration
        values = {
            k: execution.logical_value(k, t) for k in range(lo, hi + 1)
        }
        best_a, best_skew = lo, 0.0
        for a in range(lo, hi - width + 1):
            skew = values[a] - values[a + width]
            if abs(skew) > abs(best_skew):
                best_a, best_skew = a, skew
        return best_a, best_a + width, best_skew

    def run(
        self, algorithm: SyncAlgorithm, *, verify: bool = False
    ) -> LowerBoundResult:
        """Execute the full construction; returns the transcript.

        Rounds after the first resume from a checkpoint of the previous
        round's run, forked at the next window start minus ``tau`` (see
        the module docstring); the transcript equals the from-zero one.

        With ``verify=True`` every round additionally runs the bare
        ``beta`` schedule (duration ``T'``) from t = 0 and asserts Lemma
        6.1's claims against the previous round's execution — Claim 6.2
        (indistinguishability), 6.3/6.4 (rate and delay bands), 6.5
        (skew gain).  ``beta`` deliberately does not resume from
        ``alpha``'s checkpoint: sharing ``alpha``'s prefix would make
        Claim 6.2 true by construction instead of checking it.  The test
        suite exercises it; experiments run unverified.
        """
        tau = tau_of(self.rho)
        n0 = self.diameter
        schedule = AdversarySchedule.quiet(self.topology.nodes, tau * n0)
        execution = schedule.run(
            self.topology, algorithm, rho=self.rho, seed=self.seed
        )
        checkpoint: EngineCheckpoint | None = None

        lo, hi, span = 0, n0, n0
        rounds: list[RoundRecord] = []
        k = 0
        while span >= 1:
            skew_before = execution.skew(lo, hi, execution.duration)
            lead = "lo" if skew_before >= 0 else "hi"
            plan = AddSkewPlan(
                i=lo,
                j=hi,
                n=self.topology.n,
                alpha_duration=schedule.duration,
                rho=self.rho,
                lead=lead,
            )
            beta_schedule = apply_add_skew(schedule, plan)
            if verify:
                beta_execution = beta_schedule.run(
                    self.topology, algorithm, rho=self.rho, seed=self.seed
                )
                assert_indistinguishable_prefix(execution, beta_execution)
                verify_add_skew_claims(execution, beta_execution, plan)

            next_span = max(1, span // self.shrink)
            pad = plan.straggler_horizon - plan.beta_end
            extension = next_span * tau + pad + 1e-6
            schedule = beta_schedule.extended(extension)
            # The next round's window start; the fork is taken tau before
            # it, so every message sent by then has arrived by it.
            next_start = schedule.duration - tau * next_span
            execution = schedule.run(
                self.topology,
                algorithm,
                rho=self.rho,
                seed=self.seed,
                resume=checkpoint,
                checkpoint_at=next_start - tau if span > 1 else None,
            )
            fork, execution.checkpoint = execution.checkpoint, None
            if fork is not None and fork.horizon < next_start:
                checkpoint = fork

            end = execution.duration
            skew_after = execution.skew(lo, hi, end)
            next_lo, next_hi, next_skew = self._pick_window(
                execution, lo, hi, next_span
            )
            rounds.append(
                RoundRecord(
                    round_index=k,
                    i=lo,
                    j=hi,
                    span=span,
                    lead=lead,
                    skew_before=skew_before,
                    skew_after_round=skew_after,
                    duration_after=end,
                    next_i=next_lo,
                    next_j=next_hi,
                    next_span=next_span,
                    next_pair_skew=next_skew,
                )
            )
            if span == 1:
                # The pair is already adjacent: the construction is done.
                break
            lo, hi, span = next_lo, next_hi, next_span
            k += 1

        return LowerBoundResult(
            algorithm=algorithm.name,
            diameter=self.diameter,
            rho=self.rho,
            shrink=self.shrink,
            rounds=rounds,
            final_execution=execution,
            final_pair=(lo, hi) if span == 1 else (lo, lo + 1),
        )
