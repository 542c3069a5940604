"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's evaluation artifacts
(tables E01-E11 as defined in EXPERIMENTS.md), times it via
pytest-benchmark, prints the regenerated table, and writes it under
``benchmarks/results/`` so the harness output is preserved verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def report(result) -> None:
    """Print and persist one experiment's regenerated tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = result.render()
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
    print("\n" + text)


def write_headline(name: str, payload: dict) -> Path:
    """Record a benchmark's headline numbers at the repo root.

    Writes ``BENCH_<name>.json`` next to README.md so the performance
    trajectory is versioned alongside the code it measures (the analysis
    bench writes ``BENCH_analysis.json`` this way).
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
