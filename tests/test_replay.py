"""Tests for execution replay (sim.replay)."""

import pytest

from _engine_helpers import run_engine
from repro.algorithms import AveragingAlgorithm, MaxBasedAlgorithm
from repro.experiments.common import drifted_rates
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.sim.messages import SequenceDelay, UniformRandomDelay
from repro.sim.replay import delay_script, replay, verify_replay
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line


def random_run(alg, seed=3, duration=25.0):
    topo = line(6)
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=0.3, seed=seed),
        rate_schedules=drifted_rates(topo, rho=0.3, seed=seed),
        delay_policy=UniformRandomDelay(),
    )


class TestDelayScript:
    def test_covers_all_messages(self):
        ex = random_run(MaxBasedAlgorithm())
        script = delay_script(ex)
        assert len(script) == len(ex.messages)
        for m in ex.messages:
            assert script[m.seq] == m.delay


class TestReplay:
    def test_replay_of_random_run_is_identical(self):
        alg = MaxBasedAlgorithm()
        ex = random_run(alg)
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        # Logical trajectories match at sampled times.
        for node in ex.topology.nodes:
            for t in (5.0, 15.0, 25.0):
                assert replayed.logical_value(node, t) == pytest.approx(
                    ex.logical_value(node, t), abs=1e-6
                )

    def test_replay_keeps_delays_frozen(self):
        alg = MaxBasedAlgorithm()
        ex = random_run(alg)
        replayed = replay(ex, MaxBasedAlgorithm())
        assert [m.delay for m in replayed.messages] == pytest.approx(
            [m.delay for m in ex.messages]
        )

    def test_replay_with_different_seed_is_still_identical(self):
        # Seeds only feed random delay policies and node RNGs; a scripted
        # replay of a deterministic algorithm ignores both.
        alg = MaxBasedAlgorithm()
        ex = random_run(alg, seed=3)
        replayed = verify_replay(ex, MaxBasedAlgorithm(), seed=99)
        assert len(replayed.trace) == len(ex.trace)

    def test_different_algorithm_detected(self):
        from repro.errors import IndistinguishabilityError, SimulationError

        ex = random_run(MaxBasedAlgorithm())
        with pytest.raises((IndistinguishabilityError, SimulationError)):
            verify_replay(ex, AveragingAlgorithm())


@pytest.mark.engine
class TestEngineRoundTrip:
    """Replay across the scalar oracle and the production engine.

    ``replay`` always runs on the production (batched) engine; the
    scalar loop is reachable as the oracle ``Simulator._run_reference``.
    An execution recorded by one must replay — and verify — on the
    other, in both directions.  The byte-identity contract between them
    makes the replayed runs comparable down to the trace digest.
    """

    def scalar_run(self, alg, seed=3, duration=25.0):
        topo = line(6)
        return run_engine(
            "scalar", topo, alg, duration=duration, rho=0.3, seed=seed,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=seed),
            delay_policy=UniformRandomDelay(),
        )

    def scalar_replay(self, ex, alg):
        # ``replay`` on the oracle: the same frozen delays and schedules.
        return run_engine(
            "scalar", ex.topology, alg, duration=ex.duration, rho=ex.rho,
            rate_schedules={n: hw.schedule for n, hw in ex.hardware.items()},
            delay_policy=SequenceDelay(delay_script(ex)),
        )

    def test_scalar_run_replays_under_batched(self):
        ex = self.scalar_run(MaxBasedAlgorithm())
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        assert replayed.trace.digest() == ex.trace.digest()
        assert replayed.messages == ex.messages

    def test_batched_run_replays_under_scalar(self):
        ex = random_run(MaxBasedAlgorithm())
        replayed = self.scalar_replay(ex, MaxBasedAlgorithm())
        assert_indistinguishable_prefix(ex, replayed)
        assert replayed.trace.digest() == ex.trace.digest()
        assert replayed.messages == ex.messages

    def test_batched_run_replays_under_batched(self):
        ex = random_run(MaxBasedAlgorithm())
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        assert replayed.trace.digest() == ex.trace.digest()

    def test_scalar_and_batched_replays_agree(self):
        ex = random_run(MaxBasedAlgorithm())
        via_scalar = self.scalar_replay(ex, MaxBasedAlgorithm())
        via_batched = replay(ex, MaxBasedAlgorithm())
        assert via_scalar.trace.digest() == via_batched.trace.digest()
        assert via_scalar.messages == via_batched.messages
