"""Market-generator tapes pinned by golden digests.

Every case below generates one seeded synthetic session and compares it
against ``tests/data/market_golden.json``:

- the tick count, stored verbatim so a length change reads plainly;
- the sha256 of the tape as saved (ndjson, :meth:`TickTape.save`);
- the sha256 of the session's ``MetricRegistry.public_snapshot()``
  (the engine's ``lob.*`` counters and high-water gauges).

The matrix covers the parity seeds on the default bursty session, an
early ``max_ticks`` return, a tiny arrival chunk (checkout/commit
cadence must not perturb the bytes), a calm-preset session and a
non-default :class:`MarketConfig` (symbol, seeded ladder, snapshot
depth).

Regenerating the golden file (only for an intended behaviour change,
never to make a failing run pass)::

    PYTHONPATH=src python -m tests.test_market_golden

rewrites ``tests/data/market_golden.json`` from the current code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

from repro.market import generator
from repro.market.generator import MarketConfig, MarketSimulator
from repro.market.hawkes import CALM
from repro.metrics import MetricRegistry

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "market_golden.json"


@dataclasses.dataclass(frozen=True)
class Case:
    """One pinned session: generator inputs only, so the file stays small."""

    seed: int
    duration_s: float
    max_ticks: int | None = None
    chunk: int | None = None  # overrides generator._ARRIVAL_CHUNK
    config: MarketConfig = dataclasses.field(default_factory=MarketConfig)


CASES: dict[str, Case] = {
    "bursty/seed3/0.8s": Case(3, 0.8),
    "bursty/seed11/0.8s": Case(11, 0.8),
    "bursty/seed27/0.8s": Case(27, 0.8),
    "bursty/seed3/1.5s": Case(3, 1.5),
    "bursty/seed5/1.0s": Case(5, 1.0),
    "bursty/seed3/max_ticks25": Case(3, 0.8, max_ticks=25),
    "bursty/seed11/chunk7": Case(11, 0.8, chunk=7),
    "calm/seed7/1.0s": Case(7, 1.0, config=MarketConfig(hawkes=CALM)),
    "nq/seed13/1.0s": Case(
        13,
        1.0,
        config=MarketConfig(
            symbol="NQU6",
            initial_price=64_000,
            seed_levels=6,
            seed_volume=40,
            snapshot_depth=5,
        ),
    ),
}


def _sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(case: Case) -> dict:
    """Generate one case and reduce it to its golden record."""
    registry = MetricRegistry()
    simulator = MarketSimulator(case.config, seed=case.seed, metrics=registry)
    chunk = generator._ARRIVAL_CHUNK if case.chunk is None else case.chunk
    with mock.patch.object(generator, "_ARRIVAL_CHUNK", chunk):
        tape = simulator.generate(case.duration_s, max_ticks=case.max_ticks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tape.ndjson"
        tape.save(path)
        tape_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    public = registry.public_snapshot()
    assert public["counters"]["lob.orders"] > 0, "registry saw no book traffic"
    return {
        "ticks": len(tape),
        "tape_sha256": tape_sha256,
        "metrics_sha256": _sha256_json(public),
    }


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_tape_matches_golden(name):
    want = _golden()[name]
    got = run_case(CASES[name])
    assert got["ticks"] == want["ticks"], name
    assert got == want, name


def test_max_ticks_case_stops_at_the_cap():
    assert _golden()["bursty/seed3/max_ticks25"]["ticks"] == 25


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


def write_golden() -> None:
    """Rewrite the golden file from the current code (see module doc)."""
    cases = {name: run_case(case) for name, case in CASES.items()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"format": 1, "cases": cases}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    write_golden()
