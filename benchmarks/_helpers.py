"""Helpers shared by the benchmark modules (import-safe, unlike conftest)."""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Seeds fixed so every benchmark run regenerates identical datasets.
REVERB_SEED = 11
RESTAURANT_SEED = 23
BOOK_SEED = 42


def sweep_repetitions() -> int:
    """Repetitions for the synthetic sweeps (paper: 10; default here: 3)."""
    return int(os.environ.get("REPRO_BENCH_REPS", "3"))


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
