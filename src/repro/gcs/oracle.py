"""The warped delay oracle (Claim 6.4, executable).

When the Add Skew construction retimes an execution ``alpha`` into
``beta``, every message ``alpha`` received inside or after the warped
window must arrive at its *retimed* instant in the re-run, or the
executions would be distinguishable.  The oracle computes those retimed
delays on the fly:

given a send at (new-coordinate) time ``s_beta`` from ``k1`` to ``k2``:

1. pull the send back to alpha coordinates: ``s_alpha = psi_k1^{-1}(s_beta)``;
2. alpha's delay for receives past the window start was exactly ``d/2``
   (the lemma's precondition), so the alpha receive is
   ``t_alpha = s_alpha + d/2``;
3. if the receive lands before the window start ``S``, nothing was
   retimed — delegate to the base oracle (the frozen prefix);
4. if it lands inside alpha's window ``(S, T]``, the beta delay is
   ``psi_k2(t_alpha) - s_beta``; Claim 6.4 proves this lies in
   ``[d/4, 3d/4]``.  When ``psi_k2(t_alpha) > T'`` the message is simply
   still in flight when ``beta`` ends and arrives early in the extension
   — still at its retimed instant, never before ``T'``;
5. if alpha never received it (``t_alpha > T``), it gets the quiet
   delay ``d/2`` (arrival is provably after ``T'``).

Note on step 5 vs. the paper: Theorem 8.1 says in-flight messages get
delay ``|i - j| / 2``.  Applied to *every* in-flight message that
assignment can deliver before ``T'`` (fast sender, slow receiver),
contradicting indistinguishability; retimed delivery (step 4) is the
consistent reading, keeps every delay inside Claim 6.4's
``[d/4, 3d/4]`` band, and preserves the theorem's arithmetic.  The
lower-bound driver pads each round's extension so these stragglers land
before the next round's quiet window begins (see
:mod:`repro.gcs.lower_bound`).

Oracles *stack*: each Add Skew round wraps the previous round's oracle,
whose own window lies entirely before this round's ``S`` — so the frozen
prefix of every re-run reproduces all earlier rounds' delays exactly.
The step-2 assumption (delay was ``d/2``) is sound as long as no message
sent under an *earlier* round's warped window can still be in flight at
this round's window start; the driver guarantees that by keeping the
extension padding above the maximum communication distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro._constants import TIME_EPS
from repro.errors import ScheduleError
from repro.gcs.warps import TimeWarp
from repro.sim.messages import DelayPolicy, delays_agree

__all__ = ["WarpedDelayOracle"]


@dataclass(frozen=True)
class WarpedDelayOracle:
    """Delay policy reproducing one Add Skew retiming on top of ``base``.

    Parameters
    ----------
    base:
        The delay policy of the pre-existing (alpha) schedule; consulted
        for messages received before the window.
    warps:
        Per-node retiming maps ``psi_k`` (alpha time -> beta time).
    window_start / window_end:
        The lemma's ``S`` and ``T`` in alpha coordinates.
    beta_end:
        The lemma's ``T'``: beta's duration, in beta coordinates.  Sends
        after it belong to the quiet extension.
    """

    base: DelayPolicy
    warps: Mapping[int, TimeWarp]
    window_start: float
    window_end: float
    beta_end: float

    def __post_init__(self) -> None:
        if not self.window_start < self.window_end:
            raise ScheduleError("window must have positive length")
        if not self.window_start < self.beta_end <= self.window_end + TIME_EPS:
            raise ScheduleError(
                f"beta end {self.beta_end} must lie in "
                f"({self.window_start}, {self.window_end}]"
            )

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        half = distance / 2.0
        if send_time > self.beta_end + TIME_EPS:
            # Sent during the quiet extension.
            return half

        psi_s = self.warps[sender]
        psi_r = self.warps[receiver]
        s_alpha = psi_s.inverse(send_time)
        t_alpha = s_alpha + half
        if t_alpha <= self.window_start + TIME_EPS:
            # Received in the frozen prefix where alpha time == beta time;
            # earlier rounds' oracle decides (it may itself be warped).
            return self.base.delay(sender, receiver, send_time, distance, seq, rng)
        if t_alpha <= self.window_end + TIME_EPS:
            # Received inside alpha's window: deliver at the retimed
            # instant (possibly shortly after beta_end — see module doc).
            return psi_r(t_alpha) - send_time
        # alpha itself never received it (sent within d/2 of the end);
        # quiet delay, provably arriving after beta_end.
        return half

    def agrees_before(
        self, other: DelayPolicy, send_time: float, distance: float
    ) -> bool:
        """Whether this oracle assigns ``other``'s delay to every message
        sent at or before ``send_time`` over at most ``distance``.

        Such a send precedes every knee, so its alpha receive is
        ``send_time + distance / 2`` at the latest; at or before the
        window start the oracle defers to ``base`` (step 3), and the
        question passes down the stack.  This is what lets a resumed run
        (:class:`~repro.sim.engine.EngineCheckpoint`) keep the delays of
        the messages it inherits.
        """
        if self is other:
            return True
        if send_time + distance / 2.0 > self.window_start + TIME_EPS:
            return False
        return delays_agree(self.base, other, send_time, distance)
