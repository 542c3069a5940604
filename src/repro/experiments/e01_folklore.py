"""E01 — the folklore lower bound ``f(d) = Omega(d)`` (Section 5, item 1)."""

from __future__ import annotations

from repro.algorithms import BoundedCatchUpAlgorithm, MaxBasedAlgorithm
from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.gcs.folklore import force_distance_skew

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.5, seed: int = 0) -> ExperimentResult:
    """Force skew between nodes at distance ``d`` and sweep ``d``.

    Expected shape: forced skew grows linearly in ``d`` (the paper's
    ``Omega(d)``), with the measured value at or above the per-round
    guarantee ``d/12``.
    """
    distances = pick(scale, [1, 2, 4, 8], [1, 2, 4, 8, 16, 32])
    rounds = 2
    algorithms = [MaxBasedAlgorithm(), BoundedCatchUpAlgorithm()]
    table = Table(
        title="E01: forced skew between nodes at distance d",
        headers=[
            "algorithm",
            "d",
            "rounds",
            "forced skew",
            "peak |skew| over run",
            "guarantee d/12",
            "skew / d",
        ],
        caption="Section 5 item 1: f(d) = Omega(d); skew/d should be flat.",
    )
    series: dict[str, dict[int, float]] = {}
    peaks: dict[str, dict[int, float]] = {}
    for algorithm in algorithms:
        series[algorithm.name] = {}
        peaks[algorithm.name] = {}
        for d in distances:
            result = force_distance_skew(
                algorithm, d, rho=rho, rounds=rounds, seed=seed
            )
            # The endpoint pair's whole trajectory, from one batched
            # field build — not just the closing instant.
            field = SkewField(result.execution, step=1.0)
            peak = float(field.pair_series(0, d).max())
            table.add_row(
                algorithm.name,
                d,
                rounds,
                result.forced_skew,
                peak,
                result.guaranteed,
                result.skew_per_distance,
            )
            series[algorithm.name][d] = result.forced_skew
            peaks[algorithm.name][d] = peak
    return ExperimentResult(
        experiment_id="E01",
        title="folklore Omega(d) lower bound",
        paper_artifact="Section 5, item 1 (folklore bound, proof sketch)",
        tables=[table],
        notes=[
            "Realized via one-sided Add Skew on the line 0..d (EXPERIMENTS.md, "
            "'Deviations from the proof', documents the substitution for "
            "the shift argument).",
        ],
        data={
            "series": series,
            "peaks": peaks,
            "distances": distances,
            "rounds": rounds,
        },
    )
