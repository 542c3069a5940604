"""The discrete-event simulator: an executable form of the paper's model.

A :class:`Simulator` runs a set of :class:`~repro.sim.node.Process`
behaviors on a :class:`~repro.topology.base.Topology` under an adversary
schedule (per-node hardware rate schedules + a delay policy) for a fixed
real-time duration.

Determinism contract
--------------------
Given identical (topology, processes, schedules, delay policy, fault
plan, seed, duration), two runs produce identical traces.  Consequently,
re-running under a *warped* schedule reproduces exactly the retimed
execution that the paper's indistinguishability arguments construct on
paper — this is the mechanism behind :mod:`repro.gcs.add_skew` and
:mod:`repro.gcs.lower_bound`.  A run can also fork its paused state at
a real time (:class:`~repro.sim.engine.EngineCheckpoint`); a later run
whose schedule agrees with it up to the fork's last queued event
resumes from there and produces the same execution as from t = 0,
which is how the lower-bound adversary skips each round's shared
prefix.  An empty (or absent) fault plan builds no
fault machinery at all, so fault-free runs stay byte-identical to what
the simulator produced before faults existed; likewise a
:class:`~repro.topology.dynamic.DynamicTopology` with no change-points
schedules nothing and stays byte-identical to the plain static run.

:meth:`Simulator.run` executes on the
:class:`~repro.sim.engine.BatchedEngine`.  The scalar heap loop below
(:meth:`Simulator._run_reference`) is the reference semantics, kept
only as the differential-test oracle the engine must match byte for
byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from repro._constants import DEFAULT_RHO, TIME_EPS
from repro.errors import SimulationError
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.engine import BatchedEngine, EngineCheckpoint
from repro.sim.events import (
    CrashNode,
    DeliverMessage,
    EventQueue,
    FireTimer,
    RecoverNode,
    TopologyChange,
)
from repro.sim.execution import Execution
from repro.sim.faults import CrashingProcess, FaultController, FaultPlan
from repro.sim.messages import (
    DelayPolicy,
    HalfDistanceDelay,
    Message,
    validate_delay,
)
from repro.sim.node import NodeAPI, Process
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import (
    CRASH,
    ExecutionTrace,
    RECEIVE,
    RECOVER,
    SEND,
    START,
    TIMER,
    TOPOLOGY,
    TraceEvent,
)
from repro.topology.base import Topology
from repro.topology.dynamic import DynamicTopology

__all__ = ["SimConfig", "Simulator", "run_simulation"]


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    Attributes
    ----------
    duration:
        Real-time length of the execution (``l(alpha)`` in the paper).
    rho:
        Hardware drift bound (Assumption 1).
    seed:
        Seed for all randomness (per-node RNGs and random delay policies).
    record_trace:
        Traces cost memory; long benign runs may disable them.
    """

    duration: float
    rho: float = DEFAULT_RHO
    seed: int = 0
    record_trace: bool = True


class Simulator:
    """One execution of algorithm processes under an adversary schedule."""

    def __init__(
        self,
        topology: Topology | DynamicTopology,
        processes: Optional[Mapping[int, Process]],
        config: SimConfig,
        *,
        rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
        delay_policy: Optional[DelayPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        resume: Optional[EngineCheckpoint] = None,
    ):
        """``resume`` continues a paused run (see
        :class:`~repro.sim.engine.EngineCheckpoint`) under these
        schedules instead of starting at t = 0; the processes then come
        from the checkpoint, so ``processes`` must be ``None``.  Raises
        :class:`SimulationError` if the checkpoint's state is not valid
        under the new schedule."""
        # A DynamicTopology with no change-points is free: nothing is
        # scheduled, and the run stays byte-identical to the same run on
        # the plain static topology (the mobility mirror of the empty
        # FaultPlan contract).
        if isinstance(topology, DynamicTopology):
            self._dynamic: Optional[DynamicTopology] = (
                None if topology.is_static() else topology
            )
            topology = topology.initial
        else:
            self._dynamic = None
        if resume is None:
            if processes is None or set(processes) != set(topology.nodes):
                raise SimulationError(
                    "processes must cover exactly the topology's nodes"
                )
        elif processes is not None:
            raise SimulationError(
                "a resumed run continues the checkpoint's processes; "
                "pass processes=None"
            )
        if config.duration <= 0:
            raise SimulationError("duration must be positive")
        self.topology = topology
        self.config = config
        self.delay_policy: DelayPolicy = delay_policy or HalfDistanceDelay()
        self._processes = dict(processes or {})
        self._finished = False
        self._resume = resume
        self._delay_rng = random.Random(config.seed ^ 0x5EED)
        bind_run = getattr(self.delay_policy, "bind_run", None)
        if bind_run is not None and resume is None:
            bind_run(config.seed)

        schedules = dict(rate_schedules or {})
        self._hardware: dict[int, HardwareClock] = {}
        #: One RNG per node, seeded before any draw; whichever loop runs
        #: adopts these instances, so node randomness is loop-independent.
        self._rngs: dict[int, random.Random] = {}
        for node in topology.nodes:
            schedule = schedules.get(node, PiecewiseConstantRate.constant(1.0))
            self._hardware[node] = HardwareClock(schedule, config.rho)
            self._rngs[node] = random.Random((config.seed * 1_000_003) ^ node)

        # Promote CrashingProcess wrappers to native crash-stop windows:
        # the wrapper names a *hardware* reading, which the node's rate
        # schedule converts to an exact real time.
        plan = fault_plan or FaultPlan()
        for node, process in self._processes.items():
            if isinstance(process, CrashingProcess):
                plan = plan.with_crash(
                    node, self._hardware[node].time_at(process.crash_at_hardware)
                )
        # The empty plan builds no controller at all, keeping fault-free
        # runs byte-identical to a simulator without fault support.
        self._faults: Optional[FaultController] = (
            None if plan.is_empty() else FaultController(plan, topology, config.seed)
        )
        if resume is not None:
            resume.check_resumable(self)

    # ------------------------------------------------------------------
    # services used by NodeAPI

    def record(self, event: TraceEvent) -> None:
        if self.config.record_trace:
            self._trace.append(event)

    def send_message(self, sender: int, receiver: int, payload) -> None:
        if sender == receiver:
            raise SimulationError(f"node {sender} tried to message itself")
        if self._faults is not None and self._faults.node_down(sender):
            # Crashed nodes emit nothing.  Callbacks are already
            # suppressed, so this only catches misbehaving wrappers.
            return
        distance = self.topology.distance(sender, receiver)
        raw = self.delay_policy.delay(
            sender, receiver, self.now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._msg_counter
        self._msg_counter += 1
        self.record(
            TraceEvent(
                real_time=self.now,
                node=sender,
                hardware=self._hardware[sender].value_at(self.now),
                logical=self._logical[sender].read(self.now),
                kind=SEND,
                detail=(receiver, payload),
            )
        )
        if raw == float("inf"):
            # Fault-injection sentinel (sim.faults.DROPPED): the node sent
            # but the network lost the message.  Outside the paper's
            # reliable model.
            return
        delay = validate_delay(raw, distance)
        delays = [delay]
        if self._faults is not None:
            # Link faults may lose the message, redraw its delay
            # (reordering), or add a duplicate copy.  Copies share the
            # send's seq: the network duplicated one message.
            delays = self._faults.outbound_delays(
                sender, receiver, self.now, distance, delay
            )
        for chosen in delays:
            message = Message(
                seq=seq,
                sender=sender,
                receiver=receiver,
                payload=payload,
                send_time=self.now,
                delay=validate_delay(chosen, distance),
            )
            self._messages.append(message)
            self._queue.push(message.receive_time, DeliverMessage(receiver, message))

    def set_timer(self, node: int, delta_hardware: float, name: str) -> None:
        if delta_hardware <= 0:
            raise SimulationError(f"timer delta must be positive, got {delta_hardware}")
        hw = self._hardware[node]
        fire_at = hw.time_at(hw.value_at(self.now) + delta_hardware)
        self._timer_generation += 1
        epoch = 0 if self._faults is None else self._faults.epoch(node)
        self._queue.push(fire_at, FireTimer(node, name, self._timer_generation, epoch))

    # ------------------------------------------------------------------
    # the event loop

    def run(self, *, checkpoint_at: Optional[float] = None) -> Execution:
        """Execute until ``config.duration`` and return the finished execution.

        Hands the validated setup (clocks, fault controller, RNGs,
        processes — all still untouched) to the
        :class:`~repro.sim.engine.BatchedEngine`.  With
        ``checkpoint_at``, the run also forks its paused state at that
        real time onto ``execution.checkpoint``, for a later
        ``Simulator(..., resume=...)``; the execution itself is
        unchanged.
        """
        self._claim_run()
        return BatchedEngine(self, checkpoint_at).run()

    def _claim_run(self) -> None:
        if self._finished:
            raise SimulationError("a Simulator instance runs exactly once")
        self._finished = True

    def _run_reference(self) -> Execution:
        """The scalar heap loop: the reference semantics, test oracle only.

        One heap pop per event, one bisect per clock read, one
        :class:`TraceEvent` per action.  The differential harness
        (``tests/test_engine_equivalence.py``) holds :meth:`run` to
        byte identity with this loop; nothing in production calls it.
        """
        if self._resume is not None:
            raise SimulationError("the reference loop always runs from t = 0")
        self._claim_run()
        self._topology_timeline = [(0.0, self.topology)]
        self._queue = EventQueue()
        self._trace = ExecutionTrace()
        self._messages: list[Message] = []
        self._msg_counter = 0
        self._timer_generation = 0
        self.now = 0.0
        self._logical = {n: LogicalClock(hw) for n, hw in self._hardware.items()}
        self._api = {
            n: NodeAPI(self, n, self._logical[n], self._rngs[n])
            for n in self.topology.nodes
        }
        duration = self.config.duration

        if self._dynamic is not None:
            # Scheduled before everything else, so a swap at time t pops
            # ahead of same-instant deliveries, timers, and fault events:
            # all activity at t already runs on the new network.
            for at, topology in self._dynamic.snapshots[1:]:
                if at <= duration + TIME_EPS:
                    self._queue.push(at, TopologyChange(topology))

        if self._faults is not None:
            # Scheduled before the node activity below (topology swaps
            # are earlier still), so crash/recovery events pop before
            # same-instant deliveries and timers.
            self._faults.schedule(self._queue.push)

        for node in self.topology.nodes:
            self.record(
                TraceEvent(
                    real_time=0.0,
                    node=node,
                    hardware=0.0,
                    logical=self._logical[node].read(0.0),
                    kind=START,
                    detail=None,
                )
            )
        for node in self.topology.nodes:
            if self._faults is not None and self._faults.node_down(node):
                continue  # crashed at time 0: never starts
            self._processes[node].on_start(self._api[node])

        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > duration + TIME_EPS:
                break
            time, event = self._queue.pop()
            self.now = time
            if isinstance(event, DeliverMessage):
                self._deliver(event.message)
            elif isinstance(event, FireTimer):
                self._fire_timer(event)
            elif isinstance(event, CrashNode):
                self._crash(event.node)
            elif isinstance(event, RecoverNode):
                self._recover(event.node)
            elif isinstance(event, TopologyChange):
                self._retopologize(event.topology)
            else:  # pragma: no cover - queue only ever holds these kinds
                raise SimulationError(f"unknown event {event!r}")
        self.now = duration
        return self._build_execution()

    def _deliver(self, message: Message) -> None:
        node = message.receiver
        if self._faults is not None and self._faults.delivery_suppressed(
            message, self.now
        ):
            return
        self.record(
            TraceEvent(
                real_time=self.now,
                node=node,
                hardware=self._hardware[node].value_at(self.now),
                logical=self._logical[node].read(self.now),
                kind=RECEIVE,
                detail=(message.sender, message.payload),
            )
        )
        self._processes[node].on_message(self._api[node], message.sender, message.payload)

    def _fire_timer(self, event: FireTimer) -> None:
        node = event.node
        if self._faults is not None and self._faults.timer_cancelled(
            node, event.epoch
        ):
            return
        self.record(
            TraceEvent(
                real_time=self.now,
                node=node,
                hardware=self._hardware[node].value_at(self.now),
                logical=self._logical[node].read(self.now),
                kind=TIMER,
                detail=event.name,
            )
        )
        self._processes[node].on_timer(self._api[node], event.name)

    def _crash(self, node: int) -> None:
        self._faults.on_crash(node)
        self.record(
            TraceEvent(
                real_time=self.now,
                node=node,
                hardware=self._hardware[node].value_at(self.now),
                logical=self._logical[node].read(self.now),
                kind=CRASH,
                detail=None,
            )
        )

    def _recover(self, node: int) -> None:
        self._faults.on_recover(node)
        self.record(
            TraceEvent(
                real_time=self.now,
                node=node,
                hardware=self._hardware[node].value_at(self.now),
                logical=self._logical[node].read(self.now),
                kind=RECOVER,
                detail=None,
            )
        )
        self._processes[node].on_recover(self._api[node])

    def _retopologize(self, topology: Topology) -> None:
        """Atomically swap the distance/adjacency tables.

        Everything routed through ``self.topology`` — neighbor lists,
        distances, delay validation — sees the new network from this
        instant on.  Messages already in flight keep their assigned
        delays (validated against the distance at *send* time; see
        :meth:`Execution.check_delay_bounds`).  The change is recorded
        with ``node = -1``: it is the adversary's action, invisible to
        every node's local projection.
        """
        self.topology = topology
        self._topology_timeline.append((self.now, topology))
        self.record(
            TraceEvent(
                real_time=self.now,
                node=-1,
                hardware=0.0,
                logical=0.0,
                kind=TOPOLOGY,
                detail=topology.name,
            )
        )

    def _build_execution(self) -> Execution:
        # Execution.topology is the t = 0 network; dynamic runs also
        # carry the full (time, topology) timeline so measurements can
        # evaluate distance-dependent quantities against the network
        # that was actually live at each instant.
        return Execution(
            topology=self._topology_timeline[0][1],
            duration=self.config.duration,
            rho=self.config.rho,
            hardware={n: self._hardware[n] for n in self.topology.nodes},
            logical={n: self._logical[n] for n in self.topology.nodes},
            trace=self._trace,
            messages=list(self._messages),
            fault_stats=None if self._faults is None else dict(self._faults.stats),
            topology_timeline=(
                None if self._dynamic is None else tuple(self._topology_timeline)
            ),
        )


def run_simulation(
    topology: Topology | DynamicTopology,
    processes: Mapping[int, Process],
    config: SimConfig,
    *,
    rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
    delay_policy: Optional[DelayPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Execution:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(
        topology,
        processes,
        config,
        rate_schedules=rate_schedules,
        delay_policy=delay_policy,
        fault_plan=fault_plan,
    )
    return sim.run()
