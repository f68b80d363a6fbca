"""The market generator's RNG stream, atomicity and tape cache.

The generator's agents plan plain-int ops on a
:class:`~repro.lob.array_matching.ReplaySession`; its tapes and metric
registries are pinned byte for byte by ``tests/test_market_golden.py``.
This module covers what the digests rest on and what they cannot see:
the RNG-stream equivalences behind the agents' draw order, crash
atomicity at chunk granularity, input validation, and the two-level
tick-tape cache (memory + npz) that campaign probes reuse.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np
import pytest

from repro.errors import OrderBookError
from repro.lob.array_matching import ArrayMatchingEngine
from repro.market.agents import Agent, AgentMix, default_mix
from repro.market.generator import MarketConfig, MarketSimulator, generate_session
from repro.market.tape_cache import (
    cached_session,
    clear_tape_cache,
    tape_cache_key,
)

@pytest.fixture(autouse=True)
def fresh_tape_cache():
    clear_tape_cache()
    yield
    clear_tape_cache()


def tape_sha256(tmp_path, tape, label: str) -> str:
    path = tmp_path / f"{label}.ndjson"
    tape.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# the RNG-stream equivalences the agents' draw order rests on
# ---------------------------------------------------------------------------


def test_sample_matches_choice_and_stream_state():
    """CDF-bisect agent sampling consumes exactly rng.choice's one draw."""
    mix = default_mix()
    probs = np.asarray(mix.weights, dtype=float)
    probs /= probs.sum()
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(5_000):
        assert mix.agents[int(a.choice(len(mix.agents), p=probs))] is mix.sample(b)
    # Identical downstream draws prove identical generator state.
    assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


def test_random_matches_uniform_and_stream_state():
    """rng.random() is a draw-for-draw substitute for rng.uniform()."""
    a, b = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(5_000):
        assert a.uniform() == b.random()
    assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


def test_mix_cdf_inverts_choice_probabilities():
    mix = default_mix()
    probs = np.asarray(mix.weights, dtype=float)
    probs /= probs.sum()
    rng = np.random.default_rng(29)
    for _ in range(2_000):
        draw = rng.random()
        assert mix.agents[bisect_right(mix._cdf, draw)] is mix.agents[
            int(np.searchsorted(probs.cumsum() / probs.sum(), draw, side="right"))
        ]


# ---------------------------------------------------------------------------
# atomicity: a raising agent op leaves the book at the last commit
# ---------------------------------------------------------------------------


class _BombAgent(Agent):
    """Plans an op the kernel must reject (cancel of an unknown id)."""

    def act(self, ctx, timestamp, rng):
        ctx.session.cancel(999_999_999)
        return True


def test_rejected_agent_op_is_atomic(monkeypatch):
    engine = ArrayMatchingEngine()
    monkeypatch.setattr(
        "repro.market.generator.ArrayMatchingEngine", lambda metrics=None: engine
    )
    config = MarketConfig()
    sim = MarketSimulator(
        config, mix=AgentMix(agents=(_BombAgent(),), weights=(1.0,)), seed=3
    )
    with pytest.raises(OrderBookError):
        sim.generate(1.0)
    # The uncommitted session is discarded: the book still holds exactly
    # the per-op seeded ladder, and the sequence stops at the seed ops.
    book = engine.book(config.symbol)
    assert book.bids.top(config.seed_levels) == [
        (config.initial_price - lvl, config.seed_volume)
        for lvl in range(1, config.seed_levels + 1)
    ]
    assert book.asks.top(config.seed_levels) == [
        (config.initial_price + lvl, config.seed_volume)
        for lvl in range(1, config.seed_levels + 1)
    ]
    assert book.slab.in_use == 2 * config.seed_levels
    assert engine._sequence == 2 * config.seed_levels


# ---------------------------------------------------------------------------
# malformed inputs fail loudly with one-line errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config_kwargs, generate_args, message",
    [
        ({}, (0.5, 0), "max_ticks must be None or >= 1"),
        ({}, (0.5, -3), "max_ticks must be None or >= 1"),
        ({}, (-1.0, None), "duration_s must be finite and >= 0"),
        ({}, (float("nan"), None), "duration_s must be finite and >= 0"),
        ({}, (float("inf"), None), "duration_s must be finite and >= 0"),
        ({"snapshot_depth": 0}, None, "snapshot_depth must be >= 1"),
        ({"seed_levels": -2}, None, "seed_levels must be >= 0"),
        ({"seed_volume": 0}, None, "seed_volume must be >= 1"),
        ({"initial_price": 5}, None, "initial_price must exceed seed_levels"),
    ],
)
def test_malformed_inputs_raise_value_error(config_kwargs, generate_args, message):
    with pytest.raises(ValueError, match=message) as excinfo:
        sim = MarketSimulator(MarketConfig(**config_kwargs), seed=3)
        sim.generate(*generate_args)
    assert "\n" not in str(excinfo.value)


def test_validation_keeps_valid_configs_and_cache_keys():
    # Validation adds no field: the repr of a valid config, and so every
    # tape cache key, is what it was before validation existed.
    assert tape_cache_key(MarketConfig(), 7, 0.6, None) == "a415853f25850bb3bd267622"
    edge = MarketConfig(seed_levels=0, initial_price=1, seed_volume=1, snapshot_depth=1)
    assert len(MarketSimulator(edge, seed=3).generate(0.2, max_ticks=1)) <= 1
    assert len(MarketSimulator(MarketConfig(), seed=3).generate(0.0)) == 0


# ---------------------------------------------------------------------------
# tick-tape cache: hit/miss byte-equality at both levels
# ---------------------------------------------------------------------------


def test_memory_cache_returns_same_tape_object():
    first = cached_session(duration_s=0.6, seed=7)
    assert cached_session(duration_s=0.6, seed=7) is first
    assert cached_session(duration_s=0.6, seed=8) is not first


def test_disk_cache_roundtrips_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TAPE_CACHE", str(tmp_path / "tapes"))
    fresh = generate_session(duration_s=0.6, seed=7)
    stored = cached_session(duration_s=0.6, seed=7)  # miss: generate + store
    clear_tape_cache()
    loaded = cached_session(duration_s=0.6, seed=7)  # hit: npz round-trip
    assert loaded is not stored
    assert tape_sha256(tmp_path, loaded, "loaded") == tape_sha256(
        tmp_path, stored, "stored"
    ) == tape_sha256(tmp_path, fresh, "fresh")
    key = tape_cache_key(MarketConfig(), 7, 0.6, None)
    assert (tmp_path / "tapes" / f"tape-ESU6-{key}.npz").exists()


def test_corrupt_disk_entry_regenerates(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TAPE_CACHE", str(tmp_path / "tapes"))
    good = cached_session(duration_s=0.6, seed=7)
    key = tape_cache_key(MarketConfig(), 7, 0.6, None)
    path = tmp_path / "tapes" / f"tape-ESU6-{key}.npz"
    path.write_bytes(b"not an npz file")
    clear_tape_cache()
    regenerated = cached_session(duration_s=0.6, seed=7)
    assert tape_sha256(tmp_path, regenerated, "regen") == tape_sha256(
        tmp_path, good, "good"
    )


def test_cache_key_separates_parameters():
    config = MarketConfig()
    keys = {
        tape_cache_key(config, 7, 0.6, None),
        tape_cache_key(config, 8, 0.6, None),
        tape_cache_key(config, 7, 0.7, None),
        tape_cache_key(config, 7, 0.6, 100),
        tape_cache_key(MarketConfig(symbol="NQU6"), 7, 0.6, None),
    }
    assert len(keys) == 5


# ---------------------------------------------------------------------------
# campaign probe rides the cache
# ---------------------------------------------------------------------------


def test_book_integrity_probe_uses_tape_cache(monkeypatch):
    from repro.campaign.probes import book_integrity_probe

    calls = []
    original = MarketSimulator.generate

    def counting(self, duration_s, max_ticks=None):
        calls.append(duration_s)
        return original(self, duration_s, max_ticks)

    monkeypatch.setattr(MarketSimulator, "generate", counting)
    report = book_integrity_probe(seed=3, duration_s=0.4)
    assert report["checksum"] == report["checksum_repeat"]
    assert report["violations"] == []
    assert len(calls) == 2  # cold: one cached pass + one fresh pass
    report = book_integrity_probe(seed=3, duration_s=0.4)
    assert report["checksum"] == report["checksum_repeat"]
    assert len(calls) == 3  # warm: cache hit + the always-fresh pass
