"""Checkpoint-resume: a paused batched run continues exactly.

Two layers share one contract — a run resumed from an
:class:`~repro.sim.engine.EngineCheckpoint` is byte-identical to the
from-zero run of the same schedule:

* the engine property: pause anywhere, resume under the unchanged
  schedule, get the uninterrupted execution (trace digest, messages,
  bitwise clock values) — any number of times from one checkpoint;
* the adversary gate: every round of the Theorem 8.1 construction,
  which resumes each round from the previous round's checkpoint, equals
  the construction that runs every round from t = 0.

Resumes the engine cannot honor exactly raise ``SimulationError`` by
name.  Select with ``-m engine``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _engine_helpers import assert_equivalent, run_engine
from repro.algorithms import MaxBasedAlgorithm
from repro.errors import SimulationError
from repro.gcs.lower_bound import LowerBoundAdversary
from repro.gcs.schedule import AdversarySchedule
from repro.sim.faults import FaultPlan
from repro.sim.messages import (
    FixedFractionDelay,
    HalfDistanceDelay,
    JitterDelay,
    UniformRandomDelay,
)
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, Simulator
from repro.sweep.families import algorithm_from_spec, wandering_rates
from repro.topology.dynamic import snapshot_sequence
from repro.topology.generators import grid, line, ring

pytestmark = pytest.mark.engine

#: The algorithms the adversary gate covers ("gradient" is the sweep
#: layer's name for the Section 9 candidate).
GATE_ALGORITHMS = [
    "max-based",
    "averaging",
    "bounded-catch-up",
    "slewing-max",
    "gradient",
]


def assert_same_execution(actual, expected):
    """Trace digest, message list and every logical-clock segment."""
    assert actual.duration == expected.duration
    assert actual.trace.digest() == expected.trace.digest(), "trace diverged"
    assert actual.messages == expected.messages, "messages diverged"
    for node in expected.topology.nodes:
        assert (
            actual.logical[node].segments() == expected.logical[node].segments()
        ), f"node {node}'s logical clock diverged"


# ----------------------------------------------------------------------
# engine: pause anywhere, resume, get the uninterrupted run


@st.composite
def paused_runs(draw):
    """A fault-free scenario plus a pause time inside it."""
    n = draw(st.integers(min_value=3, max_value=8))
    topology = draw(
        st.sampled_from([line(n), ring(max(n, 3)), grid(2, max(n // 2, 2))])
    )
    rho = draw(st.sampled_from([0.1, 0.3, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    duration = 10.0
    rng = random.Random(seed)
    rates = draw(
        st.sampled_from(
            [
                None,
                {
                    node: PiecewiseConstantRate.constant(
                        rng.uniform(1 - rho, 1 + rho)
                    )
                    for node in topology.nodes
                },
                wandering_rates(topology, rho=rho, horizon=duration, seed=seed),
            ]
        )
    )
    policy = draw(
        st.sampled_from(
            [None, FixedFractionDelay(0.5), UniformRandomDelay(), JitterDelay()]
        )
    )
    algorithm = draw(st.sampled_from(GATE_ALGORITHMS))
    record_trace = draw(st.booleans())
    first = draw(
        st.floats(min_value=0.0, max_value=duration, exclude_max=True)
    )
    second = draw(
        st.floats(min_value=first, max_value=duration, exclude_max=True)
    )
    return dict(
        topology=topology,
        rho=rho,
        seed=seed,
        duration=duration,
        rates=rates,
        policy=policy,
        algorithm=algorithm,
        record_trace=record_trace,
        pauses=(first, second),
    )


def _simulator(case, *, resume=None):
    topology = case["topology"]
    processes = (
        None
        if resume is not None
        else algorithm_from_spec(case["algorithm"]).processes(topology)
    )
    return Simulator(
        topology,
        processes,
        SimConfig(
            duration=case["duration"],
            rho=case["rho"],
            seed=case["seed"],
            record_trace=case["record_trace"],
        ),
        rate_schedules=case["rates"],
        delay_policy=case["policy"],
        resume=resume,
    )


class TestPauseAndResume:
    @given(paused_runs())
    @settings(max_examples=30, deadline=None)
    def test_resumed_run_is_the_uninterrupted_run(self, case):
        first, second = case["pauses"]
        reference = run_engine(
            "batched",
            case["topology"],
            algorithm_from_spec(case["algorithm"]),
            duration=case["duration"],
            rho=case["rho"],
            seed=case["seed"],
            rate_schedules=case["rates"],
            delay_policy=case["policy"],
            record_trace=case["record_trace"],
        )
        paused = _simulator(case).run(checkpoint_at=first)
        # Pausing and forking leaves the run itself untouched.
        assert_equivalent(reference, paused)
        checkpoint = paused.checkpoint
        assert checkpoint.at == first
        assert checkpoint.horizon >= first
        # A checkpoint is never consumed: every resume forks it again.
        for _ in range(2):
            resumed = _simulator(case, resume=checkpoint).run()
            assert_equivalent(reference, resumed)
            assert resumed.checkpoint is None
        # Checkpoints chain: pause a resumed run again and resume that.
        again = _simulator(case, resume=checkpoint).run(checkpoint_at=second)
        assert_equivalent(reference, again)
        assert_equivalent(
            reference, _simulator(case, resume=again.checkpoint).run()
        )


# ----------------------------------------------------------------------
# adversary: the checkpointed construction equals the from-zero one


class Run(NamedTuple):
    resume: object
    fork: object
    execution: object


@contextmanager
def recorded_runs(*, from_zero: bool = False):
    """Record every ``AdversarySchedule.run`` of a construction.

    With ``from_zero`` the resume and checkpoint arguments are dropped,
    so every round runs from t = 0: the construction's test oracle.
    """
    runs: list[Run] = []
    original = AdversarySchedule.run

    def spy(schedule, topology, algorithm, **kwargs):
        if from_zero:
            kwargs.pop("resume", None)
            kwargs.pop("checkpoint_at", None)
        execution = original(schedule, topology, algorithm, **kwargs)
        runs.append(Run(kwargs.get("resume"), execution.checkpoint, execution))
        return execution

    with mock.patch.object(AdversarySchedule, "run", spy):
        yield runs


def construct(adversary, algorithm_factory, *, from_zero=False, verify=False):
    with recorded_runs(from_zero=from_zero) as runs:
        result = adversary.run(algorithm_factory(), verify=verify)
    return result, runs


def assert_matches_from_zero(adversary, algorithm_factory):
    """Run the construction both ways and compare every round and run;
    returns the checkpointed construction's runs."""
    result, runs = construct(adversary, algorithm_factory)
    oracle, oracle_runs = construct(adversary, algorithm_factory, from_zero=True)
    assert result.rounds == oracle.rounds
    assert result.final_pair == oracle.final_pair
    assert len(runs) == len(oracle_runs)
    for run, reference in zip(runs, oracle_runs):
        assert_same_execution(run.execution, reference.execution)
    assert result.final_execution.checkpoint is None
    return runs


class TestCheckpointedAdversary:
    @given(
        algorithm=st.sampled_from(GATE_ALGORITHMS),
        diameter=st.integers(min_value=2, max_value=40),
        shrink=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_round_equals_its_from_zero_run(
        self, algorithm, diameter, shrink, seed
    ):
        adversary = LowerBoundAdversary(
            diameter, rho=0.5, shrink=shrink, seed=seed
        )
        runs = assert_matches_from_zero(
            adversary, lambda: algorithm_from_spec(algorithm)
        )
        # alpha_0 and round 0 start at t = 0; with a period-1 gossip
        # every later round resumes.
        assert all(run.resume is None for run in runs[:2])
        assert all(run.resume is not None for run in runs[2:])

    def test_long_timer_period_falls_back_to_the_previous_checkpoint(self):
        # A 2.2-unit gossip period outlasts tau = 2: some forks hold a
        # timer due past the next window start, are discarded, and the
        # round after resumes from the older checkpoint instead.
        adversary = LowerBoundAdversary(8, rho=0.5, shrink=2, seed=0)
        runs = assert_matches_from_zero(
            adversary, lambda: MaxBasedAlgorithm(period=2.2)
        )
        resumes = [id(run.resume) for run in runs if run.resume is not None]
        assert len(resumes) > len(set(resumes)), "no checkpoint was reused"
        forks = [run.fork for run in runs if run.fork is not None]
        assert any(id(fork) not in resumes for fork in forks)

    def test_verified_beta_runs_start_from_zero(self):
        # beta must not share alpha's prefix through a checkpoint, or
        # Claim 6.2 would hold by construction.
        adversary = LowerBoundAdversary(8, rho=0.5, shrink=4, seed=0)
        result, runs = construct(adversary, MaxBasedAlgorithm, verify=True)
        # Per round: beta (from zero), then the extended round run.
        betas = runs[1::2]
        assert len(betas) == result.rounds_applied
        assert all(
            beta.resume is None and beta.fork is None for beta in betas
        )
        assert any(run.resume is not None for run in runs[2::2])


# ----------------------------------------------------------------------
# resumes that cannot be exact raise, by name


@pytest.fixture(scope="module")
def paused():
    """A quiet max-based run on line(6), paused at t = 4."""
    topology = line(6)
    schedule = AdversarySchedule.quiet(topology.nodes, 10.0)
    execution = schedule.run(
        topology, MaxBasedAlgorithm(), rho=0.5, checkpoint_at=4.0
    )
    return topology, schedule, execution.checkpoint


def _resume(topology, checkpoint, *, processes=None, config=None, **kwargs):
    """A simulator resuming ``checkpoint``: the fixture's run by default."""
    config = config or SimConfig(duration=10.0, rho=0.5)
    return Simulator(topology, processes, config, resume=checkpoint, **kwargs)


class TestNamedErrors:
    def test_agreeing_resume_is_accepted(self, paused):
        topology, schedule, checkpoint = paused
        resumed = _resume(topology, checkpoint).run()
        reference = schedule.run(topology, MaxBasedAlgorithm(), rho=0.5)
        assert_same_execution(resumed, reference)

    def test_fault_plan_is_refused(self, paused):
        topology, _, checkpoint = paused
        plan = FaultPlan().with_crash(2, 6.0)
        with pytest.raises(SimulationError, match="fault plan"):
            _resume(topology, checkpoint, fault_plan=plan)

    def test_changing_dynamic_topology_is_refused(self, paused):
        topology, _, checkpoint = paused
        dynamic = snapshot_sequence((0.0, topology), (6.0, line(6, comm_radius=2.0)))
        with pytest.raises(SimulationError, match="DynamicTopology"):
            _resume(dynamic, checkpoint)

    def test_rates_differing_before_the_horizon_are_refused(self, paused):
        topology, _, checkpoint = paused
        early = checkpoint.horizon - 0.5
        rates = {
            node: PiecewiseConstantRate.constant(1.0).with_rate(
                early, early + 1.0, 1.2
            )
            for node in topology.nodes
        }
        with pytest.raises(SimulationError, match="rate schedule differs"):
            _resume(topology, checkpoint, rate_schedules=rates)

    def test_rates_differing_after_the_horizon_are_accepted(self, paused):
        topology, schedule, checkpoint = paused
        late = checkpoint.horizon + 0.5
        rates = {
            node: PiecewiseConstantRate.constant(1.0).with_rate(
                late, late + 1.0, 1.2
            )
            for node in topology.nodes
        }
        resumed = _resume(topology, checkpoint, rate_schedules=rates).run()
        reference = schedule.with_rates(rates).run(
            topology, MaxBasedAlgorithm(), rho=0.5
        )
        assert_same_execution(resumed, reference)

    def test_a_different_delay_policy_is_refused(self, paused):
        topology, _, checkpoint = paused
        with pytest.raises(SimulationError, match="delay policy differs"):
            _resume(topology, checkpoint, delay_policy=FixedFractionDelay(0.25))

    def test_an_equal_delay_policy_is_accepted(self, paused):
        topology, _, checkpoint = paused
        _resume(topology, checkpoint, delay_policy=HalfDistanceDelay())

    def test_changed_run_parameters_are_refused(self, paused):
        topology, _, checkpoint = paused
        for config in (
            SimConfig(duration=10.0, rho=0.3),
            SimConfig(duration=10.0, rho=0.5, seed=1),
            SimConfig(duration=10.0, rho=0.5, record_trace=False),
        ):
            with pytest.raises(SimulationError, match="rho, seed"):
                _resume(topology, checkpoint, config=config)

    def test_duration_must_pass_the_checkpoint(self, paused):
        topology, _, checkpoint = paused
        with pytest.raises(SimulationError, match="does not pass"):
            _resume(topology, checkpoint, config=SimConfig(duration=4.0, rho=0.5))

    def test_another_topology_is_refused(self, paused):
        _, _, checkpoint = paused
        with pytest.raises(SimulationError, match="topology"):
            _resume(line(6, comm_radius=2.0), checkpoint)

    def test_processes_cannot_be_passed_with_resume(self, paused):
        topology, _, checkpoint = paused
        processes = MaxBasedAlgorithm().processes(topology)
        with pytest.raises(SimulationError, match="processes=None"):
            _resume(topology, checkpoint, processes=processes)

    def test_reference_loop_never_resumes(self, paused):
        topology, _, checkpoint = paused
        with pytest.raises(SimulationError, match="t = 0"):
            _resume(topology, checkpoint)._run_reference()

    def test_checkpoint_time_must_lie_inside_the_run(self, paused):
        topology, _, checkpoint = paused
        for at in (-1.0, 10.0):
            sim = Simulator(
                topology,
                MaxBasedAlgorithm().processes(topology),
                SimConfig(duration=10.0, rho=0.5),
            )
            with pytest.raises(SimulationError, match="checkpoint time"):
                sim.run(checkpoint_at=at)
        # A resumed run cannot pause before its own starting point.
        with pytest.raises(SimulationError, match="checkpoint time"):
            _resume(topology, checkpoint).run(checkpoint_at=checkpoint.at - 1.0)

    def test_faulty_run_cannot_be_checkpointed(self):
        topology = line(5)
        sim = Simulator(
            topology,
            MaxBasedAlgorithm().processes(topology),
            SimConfig(duration=10.0, rho=0.5),
            fault_plan=FaultPlan().with_crash(1, 3.0),
        )
        with pytest.raises(SimulationError, match="fault plan"):
            sim.run(checkpoint_at=5.0)
