"""E02 — Theorem 8.1: ``f(1) = Omega(log D / log log D)``."""

from __future__ import annotations

from repro._constants import lower_bound_curve
from repro.algorithms import (
    AveragingAlgorithm,
    BoundedCatchUpAlgorithm,
    MaxBasedAlgorithm,
    SlewingMaxAlgorithm,
)
from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.analysis.timeseries import sparkline
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.gcs.lower_bound import LowerBoundAdversary

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.5, seed: int = 0) -> ExperimentResult:
    """Run the iterated adversary across diameters and algorithms.

    Expected shape: the forced distance-1 skew grows with ``D`` —
    clock synchronization is *not* a local property — tracking the
    ``log D / log log D`` envelope within constants.
    """
    diameters = pick(scale, [8, 16, 32], [8, 16, 32, 64, 128])
    algorithms = [
        MaxBasedAlgorithm(),
        AveragingAlgorithm(),
        BoundedCatchUpAlgorithm(),
        SlewingMaxAlgorithm(),
    ]
    table = Table(
        title="E02: adversarially forced distance-1 skew vs diameter",
        headers=[
            "algorithm",
            "D",
            "rounds",
            "final pair skew",
            "peak adjacent skew",
            "k/24 guarantee",
            "logD/loglogD",
        ],
        caption=(
            "Theorem 8.1: every algorithm concedes growing distance-1 skew; "
            "columns 5 vs 7 compare measured growth to the bound's envelope."
        ),
    )
    rounds_table = Table(
        title="E02 detail: per-round transcript (largest D, max-based)",
        headers=["k", "pair", "span n_k", "lead", "skew before", "skew after", "next pair", "next skew"],
        caption="One construction unrolled: Add Skew gain then pigeonhole.",
    )
    series: dict[str, dict[int, float]] = {}
    adjacent_series: list[float] = []
    detail_done = False
    for algorithm in algorithms:
        series[algorithm.name] = {}
        for diameter in diameters:
            adversary = LowerBoundAdversary(diameter, rho=rho, shrink=4, seed=seed)
            result = adversary.run(algorithm)
            k = result.rounds_applied
            table.add_row(
                algorithm.name,
                diameter,
                k,
                result.final_adjacent_skew,
                result.peak_adjacent_skew,
                k / 24.0,
                lower_bound_curve(diameter),
            )
            series[algorithm.name][diameter] = result.peak_adjacent_skew
            if (
                not detail_done
                and diameter == diameters[-1]
                and algorithm.name == "max-based"
            ):
                for r in result.rounds:
                    rounds_table.add_row(
                        r.round_index,
                        f"({r.i},{r.j})",
                        r.span,
                        r.lead,
                        r.skew_before,
                        r.skew_after_round,
                        f"({r.next_i},{r.next_j})",
                        r.next_pair_skew,
                    )
                # Theorem 8.1's watched series over the whole final
                # execution, from one batched trajectory matrix — the
                # construction is long, so the scalar per-time sweep
                # used to be the expensive part of this detail.
                field = SkewField(result.final_execution, step=1.0)
                adjacent_series = [
                    float(v) for v in field.max_adjacent_series()
                ]
                detail_done = True
    return ExperimentResult(
        experiment_id="E02",
        title="main theorem: Omega(log D / log log D) at distance 1",
        paper_artifact="Theorem 8.1 (the paper's main result)",
        tables=[table, rounds_table],
        notes=[
            "Shrink factor B=4 replaces the proof's 384*tau*f(1) "
            "(asymptotics unchanged; EXPERIMENTS.md, 'Deviations from the "
            "proof').",
            "Growth with D, not absolute values, is the reproduced claim.",
            "adjacent skew over the detailed run: "
            + sparkline(adjacent_series),
        ],
        data={
            "series": series,
            "diameters": diameters,
            "adjacent_series": adjacent_series,
        },
        figures=[
            {
                "table": 0,
                "x": "D",
                "y": ["peak adjacent skew", "logD/loglogD"],
                "kind": "bar",
                "title": "E02: forced distance-1 skew vs the bound's envelope",
            }
        ],
    )
