"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure via
:mod:`repro.bench.experiments`, times the run with pytest-benchmark,
prints the rendered table, and writes it to ``benchmarks/results/`` so
EXPERIMENTS.md can be assembled from the same artifacts.

Workload sizing: REPRO_BENCH_DURATION (seconds of simulated market time,
default 60) controls simulation length; the calibration targets in
EXPERIMENTS.md were measured at 300 s.

Observability: set REPRO_TRACE_DIR to make every back-test a benchmark
drives write a per-run JSONL telemetry trace there (rendered with
``python -m repro.telemetry.report <dir>``).
"""

import pathlib
import sys

import pytest

from repro import envcfg
from repro.telemetry import TRACE_DIR_ENV, configure_logging

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# bench_sim_speed times the test-only Algorithm-1 oracle
# (tests/sweep_oracle.py): make the repository root importable however
# pytest was launched.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


@pytest.fixture(scope="session", autouse=True)
def _logging_and_trace_note():
    log = configure_logging()
    trace_dir = envcfg.get_path(TRACE_DIR_ENV)
    if trace_dir:
        log.info("telemetry enabled: JSONL traces land in %s", trace_dir)
    yield


@pytest.fixture
def record_table(request):
    """Return a callable that prints + persists a rendered table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record
