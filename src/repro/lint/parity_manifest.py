"""The declared fast/reference parity surface, pinned as data.

Every pair of definitions that implement the same semantics is listed
here.  RL006 (:mod:`repro.lint.project_rules`) checks that both sides
of each pair exist and draw from the RNG in the same normalised order,
and fails lint when a refactor renames one side or reorders its draws
without the other, *before* any golden-digest test runs.

No ``REPRO_*`` variable selects between implementations any more;
``tests/test_parity_manifest.py`` keeps it that way through
:func:`selector_switches`, and any switch that did reappear would have
to be listed here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "FunctionPair",
    "PARITY_PAIRS",
    "manifest_switches",
    "selector_switches",
]


@dataclass(frozen=True)
class FunctionPair:
    """Two functions that must keep the same RNG draw flow.

    ``reference`` and ``fast`` are ``(module, qualname)`` pairs;
    ``switch`` names the ``REPRO_*`` variable that picks between them,
    or None when the run's inputs do.
    """

    name: str
    switch: str | None
    reference: tuple[str, str]
    fast: tuple[str, str]


_BACKTEST = "repro.sim.backtest"

PARITY_PAIRS: tuple[FunctionPair, ...] = (
    FunctionPair(
        name="backtest-fixed-system-loop",
        # Picked by the run's inputs (fault plan or not), not by a knob.
        switch=None,
        reference=(_BACKTEST, "Backtester._run_fixed_system"),
        fast=(_BACKTEST, "Backtester._run_fixed_system_fast"),
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
    fast/reference/golden-model alternative.  The manifest tests pin
    this discovery to the empty set: one implementation per behaviour.
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
