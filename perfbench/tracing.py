"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :class:`Tracer.install`
replaces the public entry points of each layer with wrappers that open a
span around the original call, and :meth:`Tracer.uninstall` puts the
originals back.  Spans nest on one stack: a span's *self* time is its
duration minus the time its child spans cover, so ``sim.engine_s`` is
the ``sim.run`` span with the algorithm callbacks it dispatched taken
out.

Spans are aggregated in memory (total, self and count per name) rather
than kept one record each, because the callback spans run hundreds of
thousands of times per pass.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer"]


class Tracer:
    """Per-name span totals and counters for one traced pass."""

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        # One child-time accumulator per open span.
        self._stack: list[float] = []
        self._open = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def _close(self, name: str, start: float) -> float:
        elapsed = perf_counter() - start
        child = self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span ``name``; ``after(args, result, elapsed)``
        runs once the span has closed.  A call made while a span of the
        same name is open (``summary`` calling another ``SkewField``
        query, a ``super()`` callback chain) opens no second span."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            tracer._open[name] += 1
            tracer._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(name, start)
                tracer._open[name] -= 1
            if after is not None:
                after(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # patching

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` everywhere it was imported by name: every
        loaded ``repro`` module holding the same function object gets the
        wrapper, so ``from x import f`` call sites are traced too."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # the layers

    def install(self) -> None:
        """Wrap the entry points of sweep, sim, algorithms, analysis and
        gcs.  ``serve`` and ``rt`` run their work in child processes, so
        the workloads time those layers from the client side instead."""
        import repro.algorithms  # noqa: F401  (registers Process subclasses)
        from repro.analysis.field import SkewField
        from repro.gcs.lower_bound import LowerBoundAdversary
        from repro.gcs.schedule import AdversarySchedule
        from repro.sim.node import Process
        from repro.sim.simulator import Simulator
        from repro.sweep import families
        from repro.sweep.runner import ResultCache
        from repro.sweep.spec import SweepSpec

        self.patch_method(SweepSpec, "jobs", "sweep.expand")
        for builder in (
            "topology_from_spec",
            "algorithm_from_spec",
            "rates_from_spec",
            "delay_policy_from_spec",
            "fault_plan_from_spec",
            "mobility_from_spec",
        ):
            self.patch_function(families, builder, "sweep.build")
        for op in ("get_hash", "put_hash"):
            self.patch_method(ResultCache, op, "sweep.store")

        def after_sim(args, execution, elapsed):
            sim = args[0]
            self.count("sim.msgs", len(execution.messages))
            kind = sim.topology.name.split("(")[0]
            self.count(f"sim.run_s.{kind}", elapsed)
            delays = {
                "UniformRandomDelay": "uniform",
                "HalfDistanceDelay": "half",
            }.get(type(sim.delay_policy).__name__)
            if delays is not None:
                self.count(f"sim.run_s.{delays}", elapsed)

        self.patch_method(Simulator, "run", "sim.run", after_sim)

        pending = [Process]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("on_message", "on_timer"):
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, "algorithms.callback")

        for attr, value in list(vars(SkewField).items()):
            if inspect.isfunction(value) and (
                attr == "__init__" or not attr.startswith("_")
            ):
                self.patch_method(SkewField, attr, "analysis.field")

        def after_construction(args, result, elapsed):
            self.count("gcs.rounds", result.rounds_applied)

        self.patch_method(
            LowerBoundAdversary, "run", "gcs.construction", after_construction
        )

        def after_schedule(args, result, elapsed):
            self.count("gcs.sim_runs")
            self.count("gcs.sim_units", args[0].duration)

        self.patch_method(AdversarySchedule, "run", "gcs.schedule_run", after_schedule)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer numbers of the in-process layers."""
        return {
            "sweep.expand_s": self.self_time["sweep.expand"],
            "sweep.build_s": self.total["sweep.build"],
            "sweep.store_s": self.total["sweep.store"],
            "sweep.store_ops": self.calls["sweep.store"],
            "sim.run_s": self.total["sim.run"],
            "sim.run_s.line": self.counts["sim.run_s.line"],
            "sim.run_s.grid": self.counts["sim.run_s.grid"],
            "sim.run_s.uniform": self.counts["sim.run_s.uniform"],
            "sim.run_s.half": self.counts["sim.run_s.half"],
            "sim.engine_s": self.self_time["sim.run"],
            "sim.msgs": self.counts["sim.msgs"],
            "algorithms.callback_s": self.total["algorithms.callback"],
            "algorithms.callbacks": self.calls["algorithms.callback"],
            "analysis.field_s": self.total["analysis.field"],
            "gcs.construction_s": self.total["gcs.construction"],
            "gcs.sim_runs": self.counts["gcs.sim_runs"],
            "gcs.sim_units": self.counts["gcs.sim_units"],
            "gcs.rounds": self.counts["gcs.rounds"],
        }
