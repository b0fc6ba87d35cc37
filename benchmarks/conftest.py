"""Shared infrastructure for the benchmark harness.

Each bench module reproduces one claim of the paper (arXiv:0911.3195; the
abstract is in PAPER.md): it computes the paper-shaped table (round counts, ratios, exponents), prints
it live (bypassing capture), persists it under ``benchmarks/results/``,
asserts the *shape* claims (who wins, scaling exponents, sandwiches), and
wraps a representative computation in pytest-benchmark for wall-clock
tracking.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


class Reporter:
    """Prints experiment tables live and mirrors them to results files."""

    def __init__(self, capsys) -> None:
        self._capsys = capsys
        RESULTS_DIR.mkdir(exist_ok=True)

    def emit(self, name: str, text: str) -> None:
        with self._capsys.disabled():
            print(f"\n{text}\n")
        path = RESULTS_DIR / f"{name}.txt"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n\n")


@pytest.fixture
def reporter(capsys):
    return Reporter(capsys)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    for old in RESULTS_DIR.glob("*.txt"):
        old.unlink()
    yield
