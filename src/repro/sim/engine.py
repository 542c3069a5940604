"""The batched simulation engine: every :meth:`Simulator.run` executes here.

The scalar event loop in :mod:`repro.sim.simulator` is the *reference
semantics*, reachable only as the test oracle
``Simulator._run_reference``: one heap pop per event, one bisect per
clock read, one :class:`~repro.sim.trace.TraceEvent` per action.  That
loop caps
realistic gossip runs near diameter ~512 (experiment E15) even though
the model makes the workload highly regular — periodic-broadcast gossip
generates dense epochs of timer firings and deliveries whose order is
fully determined by ``(time, seq)``.  This module exploits that
regularity without changing a single observable:

* **vectorized event queue** — a :class:`~repro.sim.events.BatchEventQueue`
  of ``(time, seq)``-sorted spines; epochs of scheduled work merge in
  one numpy pass instead of one heap push per event, and the drain loop
  is a cursor advance instead of heap rebalancing;
* **cursor clocks** — the simulation clock ``now`` is nondecreasing, so
  piecewise schedules are evaluated by *walking* a segment cursor
  instead of bisecting from scratch; the per-segment arithmetic is the
  exact expression of the scalar ``value_at``/``read``, so every reading
  is bitwise identical;
* **precomputed broadcast delivery** — delay policies that depend only
  on the pair distance (:class:`~repro.sim.messages.HalfDistanceDelay`,
  :class:`~repro.sim.messages.FixedFractionDelay`) declare a
  ``broadcast_delays`` hook; the engine validates each node's
  per-neighbor delays once per topology and schedules a whole
  broadcast's deliveries in one pass (vectorized for dense
  neighborhoods);
* **columnar trace and message stores** — the hot loop appends plain
  tuples; :class:`~repro.sim.trace.ColumnarTrace` and the
  :class:`~repro.sim.messages.Message` list materialize once at the end.

Equivalence contract
--------------------
For every configuration, the batched engine must produce the same
execution as the scalar reference loop: identical trace digests, identical
logical-clock segments (hence bitwise-equal logical matrices), identical
message records, identical topology timelines and fault statistics.
This is the same discipline as the empty-FaultPlan and
static-DynamicTopology invariants, enforced by the differential harness
(``tests/test_engine_equivalence.py`` and ``tests/_engine_helpers.py``)
across the full algorithm x topology x fault x mobility grid, plus
hypothesis-generated random scenarios.  All randomness flows through the
same RNG objects in the same draw order: fault decisions, random delay
policies, and node RNGs are untouched by the batching — a policy or
fault plan that draws per send simply keeps the per-send path.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from typing import Any

import numpy as np

from repro._constants import TIME_EPS
from repro.errors import SimulationError, ValidityError
from repro.sim.clock import LogicalClock
from repro.sim.events import BatchEventQueue, CrashNode
from repro.sim.execution import Execution
from repro.sim.messages import Message, delays_agree, validate_delay
from repro.sim.node import NodeAPI
from repro.sim.trace import (
    CRASH,
    ColumnarTrace,
    JUMP,
    RATE,
    RECEIVE,
    RECOVER,
    SEND,
    START,
    TIMER,
    TOPOLOGY,
)

__all__ = ["BatchedEngine", "EngineCheckpoint"]

#: Event kind codes inside the batched queue.  The two hot kinds are
#: encoded as bare ints instead of ``(KIND, ...fields)`` tuples: a
#: delivery is its message-store index (``>= 0``), a fault-free
#: default-named timer is ``-1 - node``.  Tuples are reserved for named
#: or fault-epoch timers and the rare control kinds below.
_TIMER = 1
_CRASH = 2
_RECOVER = 3
_TOPOLOGY = 4

#: Neighborhood size at which broadcast delivery switches from the
#: per-edge python loop to one vectorized ``push_batch``.
_DENSE_FANOUT = 32

#: Sentinel marking a node API's cached broadcast pairs as needing a
#: rebuild (distinct from ``None``, which marks the per-send fallback).
_STALE = object()


class _ScheduleCursor:
    """Exact-walking evaluator for one piecewise-constant rate schedule.

    ``value`` and ``invert`` compute the *same float expressions* as
    :meth:`PiecewiseConstantRate.value_at` / ``invert`` — only the
    segment lookup differs: instead of bisecting on every call, the
    cursor walks from its last position (simulation time only moves
    forward, and timer targets only move a few segments ahead), which
    is O(1) amortized.  The bidirectional walk lands on exactly the
    segment ``bisect_right`` would pick, so readings are bitwise equal
    to the scalar path.
    """

    __slots__ = ("starts", "rates", "cumulative", "n", "k", "_last_t", "_last_h")

    def __init__(self, schedule):
        self.starts = schedule.starts
        self.rates = schedule.rates
        self.cumulative = schedule._cumulative
        self.n = len(schedule.starts)
        self.k = 0
        # One-entry memo: handling a single event reads H(now) several
        # times (logical read, jump record, timer rescheduling), all at
        # the same t.  The schedule never changes mid-run, so caching a
        # pure function's last result is exact.
        self._last_t = float("nan")
        self._last_h = 0.0

    def value(self, t: float) -> float:
        """``H(t)`` — identical to ``schedule.value_at(t)``."""
        if t == self._last_t:
            return self._last_h
        k, starts, n = self.k, self.starts, self.n
        while k + 1 < n and t >= starts[k + 1]:
            k += 1
        while k > 0 and t < starts[k]:
            k -= 1
        self.k = k
        h = self.cumulative[k] + (t - starts[k]) * self.rates[k]
        self._last_t = t
        self._last_h = h
        return h

    def invert(self, value: float) -> float:
        """The real time at which ``H(t) == value`` — identical to
        ``schedule.invert(value)``."""
        k, cumulative, n = self.k, self.cumulative, self.n
        while k + 1 < n and value >= cumulative[k + 1]:
            k += 1
        while k > 0 and value < cumulative[k]:
            k -= 1
        self.k = k
        return self.starts[k] + (value - cumulative[k]) / self.rates[k]


class _CursorLogicalClock(LogicalClock):
    """A :class:`LogicalClock` whose live ``read`` uses a schedule cursor.

    The scalar ``read(t)`` recomputes the hardware reading at the
    current segment's start on every call; here that reading is cached
    when a segment is appended (it is a pure function of the segment
    start, so the cache is exact) and the hardware reading at ``t``
    comes from the cursor.  The returned value is the identical float
    expression — ``value + mult * (H(t) - H(t_seg))`` — so jumps,
    multiplier changes, and every recorded trace value are bitwise equal
    to the scalar engine's.  Post-hoc analysis (``value_at`` /
    ``values_at``) is inherited unchanged.
    """

    def __init__(self, hardware, cursor: _ScheduleCursor, initial_value: float = 0.0):
        super().__init__(hardware, initial_value)
        self._cursor = cursor
        self._h_seg = cursor.value(self._times[-1])

    def read(self, t: float) -> float:
        return self._values[-1] + self._mults[-1] * (
            self._cursor.value(t) - self._h_seg
        )

    def _append_segment(self, t: float, value: float, mult: float) -> None:
        # The scalar implementation, flattened, plus the segment-start
        # hardware cache refresh.
        times = self._times
        last = times[-1]
        if t < last - TIME_EPS:
            raise ValidityError(
                f"clock action at t={t} precedes previous action at {last}"
            )
        if abs(t - last) <= TIME_EPS:
            self._values[-1] = value
            self._mults[-1] = mult
            times[-1] = min(last, t)
        else:
            times.append(t)
            self._values.append(value)
            self._mults.append(mult)
        self._h_seg = self._cursor.value(times[-1])


class _FastNodeAPI(NodeAPI):
    """The standard :class:`NodeAPI` surface on batched-engine internals.

    Algorithms cannot tell the difference: every method returns the same
    values and records the same trace actions as the scalar engine's
    API; only the evaluation strategy (cursor clocks, columnar trace
    rows, batched broadcast) changes.
    """

    def __init__(self, simulator, node, logical, rng):
        super().__init__(simulator, node, logical, rng)
        # Engine internals with run-stable identity (the queue's pending
        # lists are cleared in place on merge, never reassigned), cached
        # to keep the hottest per-event methods free of chained lookups.
        queue = simulator._queue
        self._queue = queue
        self._pend_times = queue._pend_times
        self._pend_events = queue._pend_events
        self._faults = simulator._faults
        #: Validated (neighbor, delay) pairs for the current topology,
        #: ``None`` when broadcasts must take the general per-send path,
        #: or ``_STALE`` until (re)built — the engine marks every API
        #: stale on a topology swap.
        self._pairs: Any = _STALE
        #: Int encoding for this node's fault-free default-named timer.
        self._tick_event = -1 - node
        #: This node's row of the live distance matrix as python floats
        #: (swapped with the topology).
        self._distances = simulator._dist_rows[node]

    def distance(self, other: int) -> float:
        return self._distances[other]

    def hardware_now(self) -> float:
        cursor = self._logical._cursor
        t = self._sim.now
        return cursor._last_h if t == cursor._last_t else cursor.value(t)

    def logical_now(self) -> float:
        lc = self._logical
        cursor = lc._cursor
        t = self._sim.now
        h = cursor._last_h if t == cursor._last_t else cursor.value(t)
        return lc._values[-1] + lc._mults[-1] * (h - lc._h_seg)

    def jump_logical_to(self, target: float) -> float:
        # ``LogicalClock.jump_to`` -> ``jump_by`` and the cursor
        # ``_append_segment`` flattened into the call site (the hottest
        # path of gossip algorithms) — the same floats and segment
        # bookkeeping, with jump_by's redundant second read folded away
        # (it is bitwise ``current``), ending with the JUMP trace row.
        sim = self._sim
        lc = self._logical
        t = sim.now
        cursor = lc._cursor
        h = cursor._last_h if t == cursor._last_t else cursor.value(t)
        values = lc._values
        mults = lc._mults
        mult = mults[-1]
        current = values[-1] + mult * (h - lc._h_seg)
        if target <= current + TIME_EPS:
            return 0.0
        amount = target - current
        value = current + amount
        times = lc._times
        last = times[-1]
        if t < last - TIME_EPS:
            raise ValidityError(
                f"clock action at t={t} precedes previous action at {last}"
            )
        if abs(t - last) <= TIME_EPS:
            values[-1] = value
            mults[-1] = mult
            times[-1] = min(last, t)
        else:
            times.append(t)
            values.append(value)
            mults.append(mult)
        seg = times[-1]
        lc._h_seg = cursor._last_h if seg == cursor._last_t else cursor.value(seg)
        lc._total_jump += amount
        if sim._rows is not None:
            hw = cursor.value(t)
            sim._rows.append(
                (
                    t,
                    self.node,
                    hw,
                    values[-1] + mults[-1] * (hw - lc._h_seg),
                    JUMP,
                    round(amount, 9),
                )
            )
        return amount

    def set_logical_multiplier(self, multiplier: float) -> None:
        lc = self._logical
        if abs(multiplier - lc.multiplier) <= 1e-12:
            return
        sim = self._sim
        lc.set_multiplier(sim.now, multiplier)
        if sim._rows is not None:
            hw = lc._cursor.value(sim.now)
            sim._rows.append(
                (
                    sim.now,
                    self.node,
                    hw,
                    lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg),
                    RATE,
                    round(multiplier, 9),
                )
            )

    def broadcast(self, payload: Any) -> None:
        # The sparse-neighborhood fast path of the engine's
        # ``broadcast_message``, inlined on the API's cached refs; the
        # general cases (RNG/fault fallback, dense vectorized batch)
        # delegate to the engine.  Identical floats and orderings
        # either way — see ``BatchedEngine.broadcast_message``.
        sim = self._sim
        pairs = self._pairs
        if pairs is _STALE:
            if sim._bcast_hook is None:
                pairs = None
            else:
                pairs = sim._bcast_cache.get(self.node)
                if pairs is None:
                    pairs = sim._build_broadcast(self.node)
            self._pairs = pairs
        if pairs is None or len(pairs) >= _DENSE_FANOUT:
            sim.broadcast_message(self.node, payload)
            return
        now = sim.now
        node = self.node
        rows = sim._rows
        if rows is not None:
            lc = self._logical
            hw = lc._cursor.value(now)
            logical = lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg)
        msgs = sim._msgs
        idx = len(msgs)
        seq = sim._msg_counter
        pend_times = self._pend_times
        pend_events = self._pend_events
        queue = self._queue
        pend_min = queue._pend_min
        for dest, delay in pairs:
            if rows is not None:
                rows.append((now, node, hw, logical, SEND, (dest, payload)))
            at = now + delay
            pend_times.append(at)
            pend_events.append(idx)
            if at < pend_min:
                pend_min = at
            msgs.append((seq, node, dest, payload, now, delay))
            seq += 1
            idx += 1
        queue._pend_min = pend_min
        sim._msg_counter = seq

    def set_timer(self, delta_hardware: float, name: str = "tick") -> None:
        # The scalar ``Simulator.set_timer``, with the cursor replacing
        # the ``time_at(value_at(now) + delta)`` bisects; the event goes
        # straight onto the queue's pending batch (``fire_at >= now``,
        # so the push guard cannot fire).
        if delta_hardware <= 0:
            raise SimulationError(
                f"timer delta must be positive, got {delta_hardware}"
            )
        cursor = self._logical._cursor
        t = self._sim.now
        h = cursor._last_h if t == cursor._last_t else cursor.value(t)
        fire_at = cursor.invert(h + delta_hardware)
        faults = self._faults
        if faults is None:
            sim = self._sim
            fast = sim._fast_timer_name
            if fast is None:
                sim._fast_timer_name = fast = name
            if name == fast:
                event: Any = self._tick_event
            else:
                event = (_TIMER, self.node, name, 0)
        else:
            event = (_TIMER, self.node, name, faults.epoch(self.node))
        self._pend_times.append(fire_at)
        self._pend_events.append(event)
        queue = self._queue
        if fire_at < queue._pend_min:
            queue._pend_min = fire_at


def _rates_agree(old, new, horizon: float) -> bool:
    """Whether two rate schedules have the same pieces on ``[0, horizon]``.

    Same breakpoints at or before ``horizon``, same rates from them:
    then every reading and inversion up to ``horizon`` is the same
    float expression over the same floats, so bitwise equal.
    """
    if old is new:
        return True
    m = bisect_right(old.starts, horizon)
    if bisect_right(new.starts, horizon) != m:
        return False
    same = old.starts[:m] == new.starts[:m]  # repro: allow[FLT001] bitwise
    return same and old.rates[:m] == new.rates[:m]


def _check_forkable(run, role: str) -> None:
    """Refuse run state a checkpoint does not carry; ``run`` is a
    :class:`~repro.sim.simulator.Simulator` or a :class:`BatchedEngine`."""
    if run._faults is not None:
        raise SimulationError(f"{role} cannot carry a fault plan")
    if run._dynamic is not None:
        raise SimulationError(f"{role} cannot follow a changing DynamicTopology")
    if hasattr(run.delay_policy, "bind_run"):
        raise SimulationError(
            f"{role} cannot use a delay policy with per-run state (bind_run)"
        )


class EngineCheckpoint:
    """A paused batched run, forked so that both copies can drain on.

    Taken by :meth:`BatchedEngine.run` at real time :attr:`at`: every
    event due at or before ``at`` has been handled, nothing later has.
    The fork holds private copies of the run's mutable state — the
    queue's remaining spine and pending batch, the process objects
    (pickled, so they must pickle), the node and delay RNG states, the
    logical-clock segments and cursor positions, the message counter
    and the fast-timer name.  The trace rows and message rows are
    append-only lists of immutable tuples, so they are copied shallowly.
    A checkpoint is never consumed: every resume forks it again.

    ``Simulator(..., resume=checkpoint)`` drains a fresh engine on from
    this state under a *new* schedule.  The result is the execution a
    from-zero run of the new schedule produces, provided the new
    schedule agrees with the old one on everything the paused state
    already depends on:

    * every node's rate schedule has the same pieces on
      ``[0, horizon]``, where :attr:`horizon` is the latest queued
      event's time (at least ``at``) — the clock readings already taken
      and the timer fire times already queued stay valid;
    * the delay policy assigns the old delay to every message already
      sent (:func:`~repro.sim.messages.delays_agree`, at the latest send
      time and the largest distance a message crossed).

    :meth:`check_resumable` enforces both, and refuses fault plans,
    non-static dynamic topologies, delay policies with per-run state
    (``bind_run``) and a changed topology, ``rho``, seed or trace
    setting, with a :class:`~repro.errors.SimulationError` each.
    """

    def __init__(self, engine: "BatchedEngine", at: float):
        queue = engine._queue
        cursor = queue._cursor
        #: The pause time: events due at or before it have been handled.
        self.at = at
        self.topology = engine.topology
        self.config = engine.config
        self.schedules = {n: hw.schedule for n, hw in engine._hardware.items()}
        self.delay_policy = engine.delay_policy
        self._now = engine.now
        self._spine = (
            queue._spine_times[cursor:],
            queue._spine_events[cursor:],
        )
        self._pending = (list(queue._pend_times), list(queue._pend_events))
        #: The latest queued event's time, at least :attr:`at`: the new
        #: schedule must agree with the old one up to here.
        self.horizon = max([at, *self._spine[0][-1:], *self._pending[0]])
        # Processes are forked by pickling: one C-level round trip is
        # several times cheaper than a deepcopy of the same objects.
        try:
            self._processes = pickle.dumps(
                engine._processes, pickle.HIGHEST_PROTOCOL
            )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SimulationError(
                f"checkpointed processes must pickle: {exc}"
            ) from exc
        self._clocks = {
            node: (
                list(lc._times),
                list(lc._values),
                list(lc._mults),
                lc._total_jump,
                lc._h_seg,
                lc._cursor.k,
            )
            for node, lc in engine._logical.items()
        }
        self._rng_states = {n: api.rng.getstate() for n, api in engine._api.items()}
        self._delay_rng_state = engine._delay_rng.getstate()
        self._msgs = list(engine._msgs)
        self._rows = None if engine._rows is None else list(engine._rows)
        self._msg_counter = engine._msg_counter
        self._fast_timer_name = engine._fast_timer_name

    def check_resumable(self, sim) -> None:
        """Raise :class:`SimulationError` unless ``sim`` (a
        :class:`~repro.sim.simulator.Simulator` built with
        ``resume=self``) can continue from this checkpoint exactly."""
        _check_forkable(sim, "a resumed run")
        topology = sim.topology
        if topology is not self.topology and not (
            topology.nodes == self.topology.nodes
            and topology.comm_edges == self.topology.comm_edges
            and np.array_equal(topology.distances, self.topology.distances)
        ):
            raise SimulationError("a resumed run must keep the checkpoint's topology")
        old, new = self.config, sim.config
        if (old.rho, old.seed, old.record_trace) != (
            new.rho,
            new.seed,
            new.record_trace,
        ):
            raise SimulationError(
                "a resumed run must keep the checkpoint's rho, seed and "
                "record_trace"
            )
        if new.duration <= self.at:
            raise SimulationError(
                f"resumed duration {new.duration} does not pass the "
                f"checkpoint time {self.at}"
            )
        for node, schedule in self.schedules.items():
            if not _rates_agree(schedule, sim._hardware[node].schedule, self.horizon):
                raise SimulationError(
                    f"node {node}'s rate schedule differs from the "
                    f"checkpoint's before its last queued event "
                    f"(t = {self.horizon})"
                )
        dist = sim.topology.distance_rows()
        max_distance = max((dist[m[1]][m[2]] for m in self._msgs), default=0.0)
        if not delays_agree(
            sim.delay_policy, self.delay_policy, self._now, max_distance
        ):
            raise SimulationError(
                "the delay policy differs from the checkpoint's for "
                f"messages already sent (by t = {self._now})"
            )

    def _restore(self, engine: "BatchedEngine") -> None:
        """Fork this state into ``engine``, freshly built on the new
        schedule: its cursors and broadcast caches start clean, its
        node APIs keep their references to the queue lists (filled in
        place)."""
        engine.now = self._now
        queue = engine._queue
        queue._spine_times.extend(self._spine[0])
        queue._spine_events.extend(self._spine[1])
        queue._pend_times.extend(self._pending[0])
        queue._pend_events.extend(self._pending[1])
        queue._pend_min = min(self._pending[0], default=float("inf"))
        queue._last_popped = self._now
        engine._processes = pickle.loads(self._processes)
        for node, lc in engine._logical.items():
            times, values, mults, total_jump, h_seg, k = self._clocks[node]
            lc._times = list(times)
            lc._values = list(values)
            lc._mults = list(mults)
            lc._total_jump = total_jump
            lc._h_seg = h_seg
            lc._cursor.k = min(k, lc._cursor.n - 1)
        for node, api in engine._api.items():
            api.rng.setstate(self._rng_states[node])
        engine._delay_rng.setstate(self._delay_rng_state)
        engine._msgs = list(self._msgs)
        engine._rows = None if self._rows is None else list(self._rows)
        engine._msg_counter = self._msg_counter
        engine._fast_timer_name = self._fast_timer_name


class BatchedEngine:
    """One batched execution, built from a prepared :class:`Simulator`.

    The :class:`~repro.sim.simulator.Simulator` constructor does all the
    validation and fault-plan promotion; this engine takes over its
    hardware clocks, fault controller, delay policy and RNGs (all still
    unused at that point), rebuilds the logical clocks and node APIs on
    cursor-backed fast paths, and runs the event loop on a
    :class:`~repro.sim.events.BatchEventQueue`.
    """

    def __init__(self, sim, checkpoint_at: float | None = None):
        self.config = sim.config
        self.topology = sim.topology
        self.delay_policy = sim.delay_policy
        self._dynamic = sim._dynamic
        self._faults = sim._faults
        self._delay_rng = sim._delay_rng
        self._processes = sim._processes
        self._hardware = sim._hardware
        self._topology_timeline: list[tuple[float, Any]] = [(0.0, sim.topology)]
        self._queue = BatchEventQueue()
        self.now = 0.0
        self._msg_counter = 0
        #: The one timer name that gets the bare-int fast encoding in
        #: fault-free runs (periodic algorithms use a single name for
        #: their gossip tick); interned from the first timer set.
        self._fast_timer_name: str | None = None

        #: Columnar trace rows (``None`` when traces are disabled — then
        #: the engine also skips the clock reads the rows would record).
        self._rows: list[tuple] | None = [] if sim.config.record_trace else None
        #: Columnar message store, one
        #: ``(seq, sender, receiver, payload, send_time, delay)`` row
        #: per network copy; Message objects materialize at the end.
        self._msgs: list[tuple] = []
        #: The live distance matrix as python-float rows (swapped with
        #: the topology): list indexing instead of numpy scalar lookups.
        self._dist_rows = self.topology.distance_rows()

        self._logical: dict[int, _CursorLogicalClock] = {}
        self._api: dict[int, _FastNodeAPI] = {}
        for node in self.topology.nodes:
            hw = self._hardware[node]
            self._logical[node] = _CursorLogicalClock(
                hw, _ScheduleCursor(hw.schedule)
            )
            # The simulator seeded one RNG per node before any draw;
            # adopting those instances keeps the stream identical.
            self._api[node] = _FastNodeAPI(
                self, node, self._logical[node], sim._rngs[node]
            )

        #: node -> validated [(neighbor, delay), ...] for the current
        #: topology, when the policy declares distance-only delays and
        #: no fault machinery is active.  Invalidated on rewiring.
        self._bcast_hook = (
            None
            if self._faults is not None
            else getattr(self.delay_policy, "broadcast_delays", None)
        )
        self._bcast_cache: dict[int, list[tuple[int, float]]] = {}

        #: The checkpoint this run continues from (``None``: from t = 0).
        #: Its state is forked into this engine's fresh clocks, queue and
        #: APIs, which were built on the *new* schedule above.
        self._resume = sim._resume
        if self._resume is not None:
            self._resume._restore(self)
        if checkpoint_at is not None:
            start = 0.0 if self._resume is None else self._resume.at
            if not start <= checkpoint_at < self.config.duration:
                raise SimulationError(
                    f"checkpoint time {checkpoint_at} outside "
                    f"[{start}, {self.config.duration})"
                )
            _check_forkable(self, "a checkpointed run")
        self._checkpoint_at = checkpoint_at

    # ------------------------------------------------------------------
    # services used by the node API (mirror Simulator's surface)

    def record_row(
        self,
        real_time: float,
        node: int,
        hardware: float,
        logical: float,
        kind: str,
        detail: Any = None,
    ) -> None:
        if self._rows is not None:
            self._rows.append((real_time, node, hardware, logical, kind, detail))

    def send_message(self, sender: int, receiver: int, payload: Any) -> None:
        """The general (fault-aware, arbitrary-policy) send path.

        Step for step the scalar ``Simulator.send_message``: same RNG
        draw order, same validation, same trace record — only the
        clock reads and stores are batched-engine fast paths.
        """
        if sender == receiver:
            raise SimulationError(f"node {sender} tried to message itself")
        faults = self._faults
        if faults is not None and faults.node_down(sender):
            return
        distance = self._dist_rows[sender][receiver]
        raw = self.delay_policy.delay(
            sender, receiver, self.now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._msg_counter
        self._msg_counter = seq + 1
        if self._rows is not None:
            lc = self._logical[sender]
            hw = lc._cursor.value(self.now)
            self._rows.append(
                (
                    self.now,
                    sender,
                    hw,
                    lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg),
                    SEND,
                    (receiver, payload),
                )
            )
        if raw == float("inf"):
            return
        delay = validate_delay(raw, distance)
        delays = [delay]
        if faults is not None:
            delays = faults.outbound_delays(
                sender, receiver, self.now, distance, delay
            )
        for chosen in delays:
            chosen = validate_delay(chosen, distance)
            self._queue.push(self.now + chosen, len(self._msgs))
            self._msgs.append((seq, sender, receiver, payload, self.now, chosen))

    def _build_broadcast(self, node: int) -> list[tuple[int, float]]:
        """Validate one node's per-neighbor delays, once per topology."""
        neighbors = self.topology.neighbors(node)
        row = self._dist_rows[node]
        distances = [row[dest] for dest in neighbors]
        raws = self._bcast_hook(node, neighbors, distances)
        pairs = [
            (dest, validate_delay(raw, dist))
            for dest, raw, dist in zip(neighbors, raws, distances)
        ]
        self._bcast_cache[node] = pairs
        return pairs

    def broadcast_message(self, node: int, payload: Any) -> None:
        """One gossip broadcast: every neighbor, batch-scheduled.

        Only distance-dependent deterministic policies (those with a
        ``broadcast_delays`` hook) take this path, and only in
        fault-free runs — anything touching an RNG or the fault
        controller falls back to the per-send path so draw order stays
        identical to the scalar engine.  The sender's clock readings are
        computed once for the whole broadcast: the scalar engine's
        per-send reads are pure, so each would return the same floats.
        """
        if self._bcast_hook is None:
            for dest in self.topology.neighbors(node):
                self.send_message(node, dest, payload)
            return
        pairs = self._bcast_cache.get(node)
        if pairs is None:
            pairs = self._build_broadcast(node)
        if not pairs:
            return
        now = self.now
        rows = self._rows
        if rows is not None:
            lc = self._logical[node]
            hw = lc._cursor.value(now)
            logical = lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg)
        seq = self._msg_counter
        msgs = self._msgs
        idx = len(msgs)
        if len(pairs) >= _DENSE_FANOUT:
            # Dense neighborhood: one vectorized queue insert for the
            # whole epoch of deliveries.
            events = []
            for dest, delay in pairs:
                if rows is not None:
                    rows.append((now, node, hw, logical, SEND, (dest, payload)))
                msgs.append((seq, node, dest, payload, now, delay))
                events.append(idx)
                seq += 1
                idx += 1
            delays = np.fromiter(
                (pair[1] for pair in pairs), dtype=float, count=len(pairs)
            )
            self._queue.push_batch(now + delays, events)
        else:
            # Sparse neighborhood: append straight onto the queue's
            # pending batch.  The delivery time is ``now + delay`` with
            # ``delay >= 0``, so the not-in-the-popped-past guard that
            # ``push`` would run cannot fire.
            queue = self._queue
            pend_times = queue._pend_times
            pend_events = queue._pend_events
            pend_min = queue._pend_min
            for dest, delay in pairs:
                if rows is not None:
                    rows.append((now, node, hw, logical, SEND, (dest, payload)))
                at = now + delay
                pend_times.append(at)
                pend_events.append(idx)
                if at < pend_min:
                    pend_min = at
                msgs.append((seq, node, dest, payload, now, delay))
                seq += 1
                idx += 1
            queue._pend_min = pend_min
        self._msg_counter = seq

    # ------------------------------------------------------------------
    # the event loop

    def run(self) -> Execution:
        """Drain to the configured duration and return the execution.

        A fresh run starts at t = 0; a resumed one (``sim._resume``)
        continues from its checkpoint's paused state.  With
        ``checkpoint_at`` set, the drain first stops after the last
        event due at or before that time, the paused state is forked
        into an :class:`EngineCheckpoint` (attached to the returned
        execution), and the drain carries on to the end.
        """
        if self._resume is None:
            self._start()
        checkpoint = None
        if self._checkpoint_at is not None:
            self._drain(self._checkpoint_at)
            checkpoint = EngineCheckpoint(self, self._checkpoint_at)
        self._drain(self.config.duration + TIME_EPS)
        self.now = self.config.duration
        return self._build_execution(checkpoint)

    def _start(self) -> None:
        """Schedule the control events and run every ``on_start`` (t = 0)."""
        duration = self.config.duration
        queue = self._queue

        if self._dynamic is not None:
            for at, topology in self._dynamic.snapshots[1:]:
                if at <= duration + TIME_EPS:
                    queue.push(at, (_TOPOLOGY, topology))

        if self._faults is not None:
            def push_fault(time: float, event) -> None:
                kind = _CRASH if isinstance(event, CrashNode) else _RECOVER
                queue.push(time, (kind, event.node))

            self._faults.schedule(push_fault)

        rows = self._rows
        for node in self.topology.nodes:
            if rows is not None:
                rows.append(
                    (0.0, node, 0.0, self._logical[node].read(0.0), START, None)
                )
        for node in self.topology.nodes:
            if self._faults is not None and self._faults.node_down(node):
                continue
            self._processes[node].on_start(self._api[node])

    def _drain(self, limit: float) -> None:
        """Handle every queued event due at or before ``limit``.

        Stops in a consistent state (queue cursor written back), so a
        second call with a later limit continues exactly where this one
        stopped: a run paused at ``C`` and drained on is the same event
        sequence as one uninterrupted drain.
        """
        queue = self._queue
        rows = self._rows

        # The drain loop — ``BatchEventQueue.pop_due`` unrolled against
        # the queue's internals, with the two hot event kinds
        # (deliveries and timer firings) handled inline: the per-event
        # method-call and TraceEvent overhead is exactly what this
        # engine exists to remove.  Rare kinds dispatch to methods.
        # The inlined clock reads are ``_CursorLogicalClock.read``
        # expanded with the hardware reading shared between the row's
        # ``hardware`` and ``logical`` fields — bitwise the value the
        # scalar engine computes twice over.
        faults = self._faults
        processes = self._processes
        apis = self._api
        logical = self._logical
        msgs = self._msgs
        # Local drain state.  ``_merge`` swaps the spine lists in place,
        # so the list bindings survive merges; the cursor lives in ``k``
        # and is written back around each merge and at exit (no other
        # queue entry point runs during the drain — engine pushes only
        # append to the pending batch).
        pend_times = queue._pend_times
        spine_times = queue._spine_times
        spine_events = queue._spine_events
        k = queue._cursor
        n_spine = len(spine_times)
        if rows is None and faults is None:
            # The at-scale configuration (no trace, no fault plan) gets
            # its own copy of the loop with the per-event ``rows``/
            # ``faults`` tests compiled out.  Crash/recover events
            # cannot exist here; topology swaps still can.
            fast_name = None
            while True:
                if pend_times and (
                    k >= n_spine or queue._pend_min < spine_times[k]
                ):
                    queue._cursor = k
                    queue._merge()
                    k = 0
                    n_spine = len(spine_times)
                if k >= n_spine:
                    break
                time = spine_times[k]
                if time > limit:
                    break
                event = spine_events[k]
                k += 1
                self.now = time
                if type(event) is int:
                    if event >= 0:
                        msg = msgs[event]
                        receiver = msg[2]
                        processes[receiver].on_message(
                            apis[receiver], msg[1], msg[3]
                        )
                    else:
                        node = -1 - event
                        if fast_name is None:
                            fast_name = self._fast_timer_name
                        processes[node].on_timer(apis[node], fast_name)
                    continue
                kind = event[0]
                if kind == _TIMER:
                    processes[event[1]].on_timer(apis[event[1]], event[2])
                elif kind == _TOPOLOGY:
                    self._retopologize(event[1])
                else:  # pragma: no cover - queue only ever holds these
                    raise SimulationError(f"unknown event kind {kind!r}")
            queue._cursor = k
            queue._last_popped = self.now
            return
        while True:
            if pend_times and (k >= n_spine or queue._pend_min < spine_times[k]):
                queue._cursor = k
                queue._merge()
                k = 0
                n_spine = len(spine_times)
            if k >= n_spine:
                break
            time = spine_times[k]
            if time > limit:
                break
            event = spine_events[k]
            k += 1
            self.now = time
            # The two hot kinds are encoded as plain ints (no per-event
            # tuple): a delivery is its message-store index (>= 0), a
            # fault-free default-named timer is ``-1 - node``.  Named or
            # fault-epoch timers and the rare kinds stay tuples.
            if type(event) is int:
                if event >= 0:
                    msg = msgs[event]
                    receiver = msg[2]
                    if faults is not None and faults.delivery_suppressed_fields(
                        msg[1], receiver, msg[4], time
                    ):
                        continue
                    if rows is not None:
                        lc = logical[receiver]
                        hw = lc._cursor.value(time)
                        rows.append(
                            (
                                time,
                                receiver,
                                hw,
                                lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg),
                                RECEIVE,
                                (msg[1], msg[3]),
                            )
                        )
                    processes[receiver].on_message(apis[receiver], msg[1], msg[3])
                else:
                    # Only scheduled when no fault controller exists, so
                    # there is no cancellation check to run.  The name is
                    # the engine-interned fast timer name (read lazily —
                    # it is set by the first ``set_timer`` call, which
                    # can happen after the drain starts).
                    node = -1 - event
                    name = self._fast_timer_name
                    if rows is not None:
                        lc = logical[node]
                        hw = lc._cursor.value(time)
                        rows.append(
                            (
                                time,
                                node,
                                hw,
                                lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg),
                                TIMER,
                                name,
                            )
                        )
                    processes[node].on_timer(apis[node], name)
                continue
            kind = event[0]
            if kind == _TIMER:
                node = event[1]
                if faults is not None and faults.timer_cancelled(node, event[3]):
                    continue
                if rows is not None:
                    lc = logical[node]
                    hw = lc._cursor.value(time)
                    rows.append(
                        (
                            time,
                            node,
                            hw,
                            lc._values[-1] + lc._mults[-1] * (hw - lc._h_seg),
                            TIMER,
                            event[2],
                        )
                    )
                processes[node].on_timer(apis[node], event[2])
            elif kind == _CRASH:
                self._crash(event[1])
            elif kind == _RECOVER:
                self._recover(event[1])
            elif kind == _TOPOLOGY:
                self._retopologize(event[1])
            else:  # pragma: no cover - queue only ever holds these kinds
                raise SimulationError(f"unknown event kind {kind!r}")
        queue._cursor = k
        queue._last_popped = self.now

    # ------------------------------------------------------------------
    # cold event handlers (identical observable semantics to Simulator's)

    def _crash(self, node: int) -> None:
        self._faults.on_crash(node)
        self.record_row(
            self.now,
            node,
            self._logical[node]._cursor.value(self.now),
            self._logical[node].read(self.now),
            CRASH,
            None,
        )

    def _recover(self, node: int) -> None:
        self._faults.on_recover(node)
        self.record_row(
            self.now,
            node,
            self._logical[node]._cursor.value(self.now),
            self._logical[node].read(self.now),
            RECOVER,
            None,
        )
        self._processes[node].on_recover(self._api[node])

    def _retopologize(self, topology) -> None:
        self.topology = topology
        self._topology_timeline.append((self.now, topology))
        self._bcast_cache = {}
        self._dist_rows = rows = topology.distance_rows()
        for api in self._api.values():
            api._pairs = _STALE
            api._distances = rows[api.node]
        self.record_row(self.now, -1, 0.0, 0.0, TOPOLOGY, topology.name)

    # ------------------------------------------------------------------

    def _build_execution(self, checkpoint=None) -> Execution:
        # The node APIs point back at the engine; dropping them breaks
        # that cycle, so refcounting frees the run's working state
        # (queue, message rows, distance rows) as soon as the caller
        # drops the engine instead of at the next full GC pass.
        self._api = {}
        # Materialize the columnar message store.  Message is a frozen
        # dataclass, whose generated __init__ pays one object.__setattr__
        # per field; filling the instance dict directly builds identical
        # instances (same fields, same __eq__/__hash__/repr) at a
        # fraction of the cost for runs with 10^5+ messages.
        new = Message.__new__
        set_dict = object.__setattr__
        msgs = self._msgs
        messages = [new(Message) for _ in msgs]
        for m, (seq, sender, receiver, payload, send_time, delay) in zip(
            messages, msgs
        ):
            set_dict(
                m,
                "__dict__",
                {
                    "seq": seq,
                    "sender": sender,
                    "receiver": receiver,
                    "payload": payload,
                    "send_time": send_time,
                    "delay": delay,
                },
            )
        return Execution(
            topology=self._topology_timeline[0][1],
            duration=self.config.duration,
            rho=self.config.rho,
            hardware={n: self._hardware[n] for n in self.topology.nodes},
            logical={n: self._logical[n] for n in self.topology.nodes},
            trace=ColumnarTrace(self._rows if self._rows is not None else []),
            messages=messages,
            fault_stats=(
                None if self._faults is None else dict(self._faults.stats)
            ),
            topology_timeline=(
                None if self._dynamic is None else tuple(self._topology_timeline)
            ),
            checkpoint=checkpoint,
        )
