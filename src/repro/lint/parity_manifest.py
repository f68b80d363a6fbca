"""The declared fast/reference parity surface, pinned as data.

Every runtime switch that selects between two implementations of the
same semantics is listed here with the pair of definitions it selects
between.  RL006 (:mod:`repro.lint.project_rules`) checks each pair's
extracted fingerprints — public surfaces, enum-token families, branch
tokens, RNG-draw flows, stats keys, constructor keyword sets — and
fails lint when a refactor touches one side without the other, *before*
any parity test runs.

``tests/test_parity_manifest.py`` asserts the manifest stays complete:
every ``REPRO_*`` switch that selects between implementations (see
:func:`selector_switches`) must appear here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "ClassPair",
    "FunctionPair",
    "PARITY_PAIRS",
    "manifest_switches",
    "selector_switches",
]


@dataclass(frozen=True)
class FunctionPair:
    """Two functions that must keep mirrored behaviour fingerprints.

    ``reference`` and ``fast`` are ``(module, qualname)`` pairs.  The
    ``*_only_tokens`` allowances record *accepted* asymmetries (e.g. the
    fast agents spell out ``OrderType.LIMIT`` where the reference path
    relies on ``Order`` defaults) so anything beyond them is drift.
    """

    name: str
    switch: str | None
    reference: tuple[str, str]
    fast: tuple[str, str]
    compare_tokens: bool = True
    compare_branch_tokens: bool = True
    compare_rng_flow: bool = True
    # Subscripted receiver names whose constant string keys must match
    # (e.g. two loops that both update stats["considered"|...]).
    stats_names: tuple[str, ...] = ()
    # Call-target tails whose keyword-argument name sets must match
    # (e.g. two loops that both construct Decision(point=, ...)).
    ctor_kwargs: tuple[str, ...] = ()
    fast_only_tokens: frozenset[str] = field(default_factory=frozenset)
    reference_only_tokens: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class ClassPair:
    """Two classes that must keep mirrored public surfaces."""

    name: str
    switch: str | None
    reference: tuple[str, str]
    fast: tuple[str, str]
    fast_only_methods: frozenset[str] = field(default_factory=frozenset)
    reference_only_methods: frozenset[str] = field(default_factory=frozenset)


_BACKTEST = "repro.sim.backtest"
_GENERATOR = "repro.market.generator"
_AGENTS = "repro.market.agents"

PARITY_PAIRS: tuple[FunctionPair | ClassPair, ...] = (
    FunctionPair(
        name="backtest-fixed-system-loop",
        # Picked by the run's inputs (fault plan or not), not by a knob.
        switch=None,
        reference=(_BACKTEST, "Backtester._run_fixed_system"),
        fast=(_BACKTEST, "Backtester._run_fixed_system_fast"),
        # The fast fixed-system path is queue-free (array-driven over the
        # arrival stream) and never touches EventKind; token mirroring
        # does not apply, RNG-flow parity still does.
        compare_tokens=False,
        compare_branch_tokens=False,
    ),
    FunctionPair(
        name="market-generator-loop",
        switch="REPRO_MARKET_FAST",
        reference=(_GENERATOR, "MarketSimulator._generate_reference"),
        fast=(_GENERATOR, "MarketSimulator._generate_fast"),
    ),
    ClassPair(
        name="lob-matching-engine",
        switch="REPRO_LOB_ENGINE",
        reference=("repro.lob.matching", "MatchingEngine"),
        fast=("repro.lob.array_matching", "ArrayMatchingEngine"),
        # The batch kernel is the array engine's raison d'être; the
        # generator only uses it when the array engine is active.
        fast_only_methods=frozenset({"replay_ops"}),
    ),
    FunctionPair(
        name="agent-market-maker",
        switch=None,
        reference=(_AGENTS, "MarketMaker.act"),
        fast=(_AGENTS, "MarketMaker.act_fast"),
        # act relies on Order's LIMIT/DAY defaults; act_fast plans
        # plain-int ops and must spell the encodings out.
        fast_only_tokens=frozenset({"OrderType.LIMIT", "TimeInForce.DAY"}),
    ),
    FunctionPair(
        name="agent-liquidity-taker",
        switch=None,
        reference=(_AGENTS, "LiquidityTaker.act"),
        fast=(_AGENTS, "LiquidityTaker.act_fast"),
        fast_only_tokens=frozenset({"OrderType.LIMIT"}),
    ),
    FunctionPair(
        name="agent-momentum-trader",
        switch=None,
        reference=(_AGENTS, "MomentumTrader.act"),
        fast=(_AGENTS, "MomentumTrader.act_fast"),
        fast_only_tokens=frozenset({"TimeInForce.DAY"}),
    ),
    FunctionPair(
        name="agent-mix-sample",
        switch=None,
        reference=(_AGENTS, "AgentMix.sample"),
        fast=(_AGENTS, "AgentMix.sample_fast"),
    ),
)


def manifest_switches() -> frozenset[str]:
    """The ``REPRO_*`` switches covered by the manifest."""
    return frozenset(
        pair.switch for pair in PARITY_PAIRS if pair.switch is not None
    )


_SELECTOR_DOC = re.compile(r"\bfast\b|\breference\b|golden model", re.IGNORECASE)


def selector_switches() -> frozenset[str]:
    """Declared ``REPRO_*`` variables that select between
    implementations, discovered from the envcfg registry itself.

    A variable is a selector when it is a choice between named engines
    (one of them ``reference``/``array``) or a boolean whose doc names a
    fast/reference/golden-model alternative.  The manifest-completeness
    test pins this discovery against :func:`manifest_switches`.
    """
    from repro import envcfg

    found: set[str] = set()
    for var in envcfg.declared():
        if var.kind == "choice" and var.choices is not None:
            if {"reference", "array"} & set(var.choices):
                found.add(var.name)
        elif var.kind == "bool" and _SELECTOR_DOC.search(var.doc):
            found.add(var.name)
    return frozenset(found)
