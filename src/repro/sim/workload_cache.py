"""Keyed caching for synthetic workloads.

Every figure driver replays the same calibrated traffic: regenerating the
regime-switching arrival process (and its deadline draws) per driver is
pure waste, and at EXPERIMENTS.md durations it costs seconds per call.
This module memoises :func:`~repro.sim.workload.synthetic_workload` by
its full parameterisation:

- **in-memory** (always on): one process builds each distinct workload
  once, however many figures or schemes replay it;
- **on-disk** (opt-in): set ``REPRO_WORKLOAD_CACHE`` to a directory and
  workloads persist across processes as ``.npz`` files — parallel
  experiment workers and repeated benchmark invocations then skip the
  generator entirely.

Keys cover duration, traffic spec, deadline policy, seed and name (all
frozen dataclasses with deterministic reprs), so a cache hit is
guaranteed to be the byte-identical workload the generator would have
produced.  :class:`~repro.sim.workload.QueryWorkload` is immutable, so
sharing one instance between runs is safe.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro import envcfg
from repro.sim.workload import (
    DEFAULT_TRAFFIC,
    DeadlinePolicy,
    OpportunityDeadline,
    QueryWorkload,
    TrafficSpec,
    synthetic_workload,
)

__all__ = [
    "WORKLOAD_CACHE_ENV",
    "cached_synthetic_workload",
    "clear_workload_cache",
    "workload_cache_dir",
    "workload_cache_key",
]

WORKLOAD_CACHE_ENV = envcfg.WORKLOAD_CACHE.name

# Bump whenever a generator's RNG stream changes (e.g. the numpy-batched
# Hawkes thinning loop consumes draws in a different order than the
# scalar sampler did) so stale on-disk entries can never shadow the
# regenerated workload.
_GENERATOR_VERSION = 2

_memory: dict[str, QueryWorkload] = {}


def workload_cache_dir() -> Path | None:
    """The on-disk cache directory, or None when disk caching is off."""
    value = envcfg.get_path(WORKLOAD_CACHE_ENV)
    return Path(value) if value else None


def clear_workload_cache() -> None:
    """Drop the in-memory cache (on-disk files are left alone)."""
    _memory.clear()


def workload_cache_key(
    duration_s: float,
    spec: TrafficSpec,
    policy: DeadlinePolicy,
    seed: int,
    name: str,
) -> str:
    """Stable digest of one synthetic-workload parameterisation."""
    descriptor = repr(
        (_GENERATOR_VERSION, float(duration_s), spec, policy, int(seed), str(name))
    )
    return hashlib.sha256(descriptor.encode()).hexdigest()[:24]


def cached_synthetic_workload(
    duration_s: float,
    spec: TrafficSpec = DEFAULT_TRAFFIC,
    policy: DeadlinePolicy | None = None,
    seed: int = 0,
    name: str = "synthetic",
) -> QueryWorkload:
    """:func:`synthetic_workload` behind the two-level cache."""
    policy = policy or OpportunityDeadline()
    key = workload_cache_key(duration_s, spec, policy, seed, name)
    workload = _memory.get(key)
    if workload is None:
        workload = _load(key, name)
        if workload is None:
            workload = synthetic_workload(duration_s, spec, policy, seed, name)
            _store(key, workload)
        _memory[key] = workload
    return workload


def _path(key: str, name: str) -> Path | None:
    directory = workload_cache_dir()
    if directory is None:
        return None
    return directory / f"{name}-{key}.npz"


def _load(key: str, name: str) -> QueryWorkload | None:
    path = _path(key, name)
    if path is None or not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            regimes = data["regimes"] if "regimes" in data else None
            return QueryWorkload(
                timestamps=data["timestamps"],
                deadlines=data["deadlines"],
                name=name,
                regimes=regimes,
            )
    except (OSError, KeyError, ValueError):
        return None  # corrupt/partial entry: fall back to regeneration


def _store(key: str, workload: QueryWorkload) -> None:
    path = _path(key, workload.name)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {"timestamps": workload.timestamps, "deadlines": workload.deadlines}
    if workload.regimes is not None:
        arrays["regimes"] = workload.regimes
    # Write-then-rename so concurrent workers never observe a torn file.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
