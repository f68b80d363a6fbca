"""The parity-pair manifest stays complete and truthful.

Completeness: no ``REPRO_*`` variable selects between implementations
(discovered from the envcfg registry itself), and any that did would
have to appear in the manifest.  Truthfulness: every pair member the
manifest names actually exists in the tree — a rename that orphans a
manifest entry fails here even before RL006 reports the drift.
"""

from __future__ import annotations

from pathlib import Path

from repro import envcfg
from repro.lint import build_context
from repro.lint.facts import extract_facts
from repro.lint.parity_manifest import (
    PARITY_PAIRS,
    manifest_switches,
    selector_switches,
)
from repro.lint.project import build_model

REPO_ROOT = Path(__file__).resolve().parent.parent


def real_model():
    src = REPO_ROOT / "src"
    facts = [
        extract_facts(
            build_context(p.read_text(), p.relative_to(REPO_ROOT).as_posix())
        )
        for p in sorted(src.rglob("*.py"))
    ]
    return build_model(facts)


def test_every_selector_switch_is_in_the_manifest():
    missing = selector_switches() - manifest_switches()
    assert not missing, (
        f"implementation-selecting switches missing from PARITY_PAIRS: "
        f"{sorted(missing)}"
    )


def test_manifest_switches_are_declared_env_vars():
    declared = {var.name for var in envcfg.declared()}
    assert manifest_switches() <= declared


def test_known_selectors_are_discovered():
    # One implementation per behaviour: no environment variable picks
    # between two.  A new selector must extend this set *and* the
    # manifest.
    assert selector_switches() == set()


def test_every_pair_member_exists_in_tree():
    model = real_model()
    for pair in PARITY_PAIRS:
        for module, qualname in (pair.reference, pair.fast):
            assert model.function(module, qualname) is not None, (
                f"{pair.name}: {module}::{qualname} not found"
            )


def test_pair_names_are_unique():
    names = [pair.name for pair in PARITY_PAIRS]
    assert len(names) == len(set(names))

