"""The built-in rule set: RL001–RL005.

Each rule encodes one invariant the test suite cannot express directly;
the rationale strings double as the rule catalogue rendered by
``python -m repro.lint --list-rules`` and the EXPERIMENTS.md docs.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint import Rule, register

__all__ = [
    "NoNondeterminism",
    "EnvConfigRegistry",
    "HotPathHygiene",
    "PublicApiConsistency",
    "UnitSuffixSafety",
]

# ---------------------------------------------------------------------------
# RL001 — no wall-clock or global-RNG reads in simulator code
# ---------------------------------------------------------------------------

# Packages whose determinism the parity/replay suites guarantee.
_SIM_SCOPE = re.compile(
    r"(^|/)repro/(sim|core|pipeline|faults|market|accelerator)/"
)

# Dotted call targets that read wall clocks or process-global RNG state.
_BANNED_EXACT = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}
_BANNED_PREFIXES = ("random.", "numpy.random.", "secrets.")
# Seeded constructors are the *required* alternative, never violations.
_ALLOWED = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.MT19937",
}


@register
class NoNondeterminism(Rule):
    code = "RL001"
    name = "no-nondeterminism"
    rationale = (
        "Simulator packages (sim, core, pipeline, faults, market, "
        "accelerator) must be pure functions of their seeds: wall-clock "
        "reads and process-global RNG calls silently break the "
        "golden-digest and fault-replay guarantees. Plumb a "
        "seeded numpy Generator or the simulation clock instead."
    )

    @classmethod
    def applies(cls, path: str) -> bool:
        return _SIM_SCOPE.search(path) is not None

    def check(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.ImportFrom):
                self._check_import(node)

    def _check_call(self, node: ast.Call) -> None:
        dotted = self.ctx.dotted_name(node.func)
        if dotted is None or dotted in _ALLOWED:
            return
        if dotted in _BANNED_EXACT or dotted.startswith(_BANNED_PREFIXES):
            self.report(
                node,
                f"nondeterministic call {dotted}() in simulator code — "
                "use the sim clock / a seeded Generator",
            )

    def _check_import(self, node: ast.ImportFrom) -> None:
        if node.module not in ("random", "secrets") or node.level:
            return
        for alias in node.names:
            if f"{node.module}.{alias.name}" not in _ALLOWED:
                self.report(
                    node,
                    f"import of global-state RNG {node.module}.{alias.name} "
                    "in simulator code",
                )


# ---------------------------------------------------------------------------
# RL002 — unit-suffix safety
# ---------------------------------------------------------------------------

# Canonical suffix -> unit; 'sec' normalises to 's'.
_UNIT_SUFFIXES = {
    "ns": "ns",
    "us": "us",
    "ms": "ms",
    "s": "s",
    "sec": "s",
    "hz": "hz",
    "khz": "khz",
    "mhz": "mhz",
    "ghz": "ghz",
    "w": "w",
    "mw": "mw",
    "kw": "kw",
    "v": "v",
    "mv": "mv",
    "j": "j",
    "mj": "mj",
}

# First-argument unit of the repro.units helpers (RL002's second clause).
_HELPER_INPUT_UNIT = {
    "us_to_ns": "us",
    "ms_to_ns": "ms",
    "sec_to_ns": "s",
    "ns_to_us": "ns",
    "ns_to_ms": "ns",
    "ns_to_sec": "ns",
    "ns_to_cycles": "ns",
}


def _suffix_of(name: str) -> str | None:
    if "_" not in name:
        return None
    return _UNIT_SUFFIXES.get(name.rsplit("_", 1)[1].lower())


def _operand_unit(node: ast.expr) -> tuple[str, str] | None:
    """(identifier, unit) when ``node`` is a unit-suffixed Name/Attribute."""
    if isinstance(node, ast.Name):
        unit = _suffix_of(node.id)
        return (node.id, unit) if unit else None
    if isinstance(node, ast.Attribute):
        unit = _suffix_of(node.attr)
        return (node.attr, unit) if unit else None
    return None


@register
class UnitSuffixSafety(Rule):
    code = "RL002"
    name = "unit-suffix-safety"
    rationale = (
        "Time is integer nanoseconds, frequencies are hertz, power is "
        "watts (repro.units). Adding, subtracting or comparing "
        "identifiers whose suffixes disagree (deadline_ns < horizon_s) "
        "is a unit error the type system cannot catch; convert through "
        "the repro.units helpers first. Float literals fed to *_ns "
        "helper parameters break the integer-nanosecond convention."
    )

    def check(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.BinOp, ast.Compare)):
                self._check_mix(node)
            elif isinstance(node, ast.Call):
                self._check_helper(node)

    def _pairs(self, node: ast.BinOp | ast.Compare) -> Iterator[
        tuple[ast.expr, ast.expr]
    ]:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                yield node.left, node.right
            return
        prev = node.left
        for comparator in node.comparators:
            yield prev, comparator
            prev = comparator

    def _check_mix(self, node: ast.BinOp | ast.Compare) -> None:
        for left, right in self._pairs(node):
            left_info = _operand_unit(left)
            right_info = _operand_unit(right)
            if left_info is None or right_info is None:
                continue
            if left_info[1] != right_info[1]:
                op = "arithmetic" if isinstance(node, ast.BinOp) else "comparison"
                self.report(
                    node,
                    f"{op} mixes units: {left_info[0]} [{left_info[1]}] vs "
                    f"{right_info[0]} [{right_info[1]}] — convert via "
                    "repro.units first",
                )

    def _check_helper(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        expected = _HELPER_INPUT_UNIT.get(name or "")
        if expected is None or not node.args:
            return
        arg = node.args[0]
        info = _operand_unit(arg)
        if info is not None and info[1] != expected:
            self.report(
                node,
                f"{name}() expects a value in [{expected}] but got "
                f"{info[0]} [{info[1]}]",
            )
        if (
            expected == "ns"
            and isinstance(arg, ast.Constant)
            and isinstance(arg.value, float)
        ):
            self.report(
                node,
                f"{name}() takes integer nanoseconds; float literal "
                f"{arg.value!r} breaks the int-ns convention",
            )


# ---------------------------------------------------------------------------
# RL003 — REPRO_* environment reads go through repro.envcfg
# ---------------------------------------------------------------------------

_ENV_READ_FUNCS = {"os.environ.get", "os.getenv"}
_ENVCFG_FILE = re.compile(r"(^|/)repro/envcfg\.py$")


@register
class EnvConfigRegistry(Rule):
    code = "RL003"
    name = "env-config-registry"
    rationale = (
        "Every REPRO_* environment variable is declared once in "
        "repro.envcfg (name, type, default, doc) and read through its "
        "typed accessors; scattered os.environ reads make the "
        "configuration surface unenumerable and let EXPERIMENTS.md "
        "drift from the code."
    )

    def check(self) -> None:
        if _ENVCFG_FILE.search(self.ctx.path):
            return  # the registry itself is the one sanctioned reader
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.Subscript):
                self._check_subscript(node)

    def _key_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            value = self.ctx.str_constants.get(node.id)
            if value is not None:
                return value
            # This repo's env-key constants are all named *_ENV; a read
            # keyed by one is a REPRO_* read even when the value comes
            # from an import we cannot resolve statically.
            if node.id.endswith("_ENV"):
                return f"REPRO_<{node.id}>"
        return None

    def _flag(self, node: ast.AST, key: str) -> None:
        if not key.startswith("REPRO_"):
            return
        from repro import envcfg

        if key.startswith("REPRO_<"):
            detail = "read it through repro.envcfg"
            key = key[7:-1]  # unwrap the *_ENV constant's name
        elif envcfg.is_declared(key):
            detail = "read it through repro.envcfg"
        else:
            detail = "declare it in repro.envcfg and read it through the registry"
        self.report(node, f"direct environment read of {key} — {detail}")

    def _check_call(self, node: ast.Call) -> None:
        dotted = self.ctx.dotted_name(node.func)
        if dotted not in _ENV_READ_FUNCS or not node.args:
            return
        key = self._key_of(node.args[0])
        if key is not None:
            self._flag(node, key)

    def _check_subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            return  # writes (tests configuring the env) are fine
        dotted = self.ctx.dotted_name(node.value)
        if dotted != "os.environ":
            return
        key = self._key_of(node.slice)
        if key is not None:
            self._flag(node, key)


# ---------------------------------------------------------------------------
# RL004 — hot-path hygiene
# ---------------------------------------------------------------------------

_ALLOC_CALLS = {"dict", "list", "set", "frozenset"}
_LOG_METHODS = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
}


def _is_hot_path_decorator(ctx: FileContext, node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    # Alias-expanded resolution first: catches `from repro.hotpath
    # import hot_path as hp` and `import repro.hotpath as hp` forms the
    # syntactic checks below cannot see.
    dotted = ctx.dotted_name(target)
    if dotted is not None and (
        dotted == "repro.hotpath.hot_path" or dotted.endswith(".hot_path")
    ):
        return True
    if isinstance(target, ast.Name):
        return target.id == "hot_path"
    if isinstance(target, ast.Attribute):
        return target.attr == "hot_path"
    return False


def _test_guards_logging(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "isEnabledFor":
            return True
    return False


@register
class HotPathHygiene(Rule):
    code = "RL004"
    name = "hot-path-hygiene"
    rationale = (
        "Functions marked @hot_path (repro.hotpath) — or listed in "
        "repro.hotpath.MANIFEST — form the allocation-free per-event "
        "loop: comprehensions, dict()/list()/set() construction, "
        "f-strings and unguarded logging calls there reintroduce the "
        "per-event allocations the event-loop overhaul removed."
    )

    def check(self) -> None:
        from repro.hotpath import MANIFEST

        manifest = {
            qualname
            for entry in MANIFEST
            for target, _, qualname in (entry.partition("::"),)
            if self._manifest_targets_file(target)
        }
        self._scan_body(self.ctx.tree.body, prefix="", manifest=manifest)

    def _manifest_targets_file(self, target: str) -> bool:
        """Whether a MANIFEST address names this file.  Entries may use
        a path suffix (``repro/sim/metrics.py``) or a dotted module
        qualified name (``repro.sim.metrics``)."""
        if "/" in target or target.endswith(".py"):
            return self.ctx.path.endswith(target)
        from repro.lint.facts import module_name_for

        return module_name_for(self.ctx.path) == target

    def _scan_body(self, body: list[ast.stmt], prefix: str, manifest: set[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._scan_body(node.body, f"{prefix}{node.name}.", manifest)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                marked = qualname in manifest or any(
                    _is_hot_path_decorator(self.ctx, dec)
                    for dec in node.decorator_list
                )
                if marked:
                    for stmt in node.body:
                        self._check_hot(stmt, qualname, guarded=False)
                else:
                    self._scan_body(node.body, f"{qualname}.", manifest)

    def _check_hot(self, node: ast.AST, qualname: str, guarded: bool) -> None:
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            self.report(
                node, f"comprehension allocates inside hot path {qualname}()"
            )
        elif isinstance(node, ast.JoinedStr):
            self.report(
                node, f"f-string allocates inside hot path {qualname}()"
            )
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _ALLOC_CALLS:
                self.report(
                    node,
                    f"{node.func.id}() construction inside hot path {qualname}()",
                )
            elif (
                not guarded
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LOG_METHODS
                and isinstance(node.func.value, ast.Name)
                and "log" in node.func.value.id.lower()
            ):
                self.report(
                    node,
                    f"unguarded {node.func.value.id}.{node.func.attr}() inside "
                    f"hot path {qualname}() — gate it behind isEnabledFor()",
                )
        if isinstance(node, ast.If) and _test_guards_logging(node.test):
            guarded = True
        for child in ast.iter_child_nodes(node):
            self._check_hot(child, qualname, guarded)


# ---------------------------------------------------------------------------
# RL005 — __all__ matches the module's public definitions
# ---------------------------------------------------------------------------


@register
class PublicApiConsistency(Rule):
    code = "RL005"
    name = "public-api-consistency"
    rationale = (
        "A module that declares __all__ is stating its public API; "
        "phantom entries break star-imports and documentation, and "
        "public defs missing from __all__ silently fall out of the API "
        "surface."
    )

    def check(self) -> None:
        exported = self._exported_names()
        if exported is None:
            return
        bound = self._bound_names()
        if bound is None:
            return  # star-import present: membership is unknowable statically
        names, all_node = exported
        for name in sorted(names - bound):
            self.report(all_node, f"__all__ lists {name!r} which is not defined")
        for node in self.ctx.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                if node.name not in names:
                    self.report(
                        node,
                        f"public {'class' if isinstance(node, ast.ClassDef) else 'def'} "
                        f"{node.name} missing from __all__",
                    )

    def _exported_names(self) -> tuple[set[str], ast.AST] | None:
        for node in self.ctx.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                names = set()
                for element in node.value.elts:
                    if not (
                        isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ):
                        return None  # computed __all__: out of scope
                    names.add(element.value)
                return names, node
        return None

    def _bound_names(self) -> set[str] | None:
        bound: set[str] = set()
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.update(_target_names(target))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bound.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        return None
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.For, ast.While, ast.With)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            bound.update(_target_names(target))
                if isinstance(node, ast.For):
                    bound.update(_target_names(node.target))
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional definitions (TYPE_CHECKING, fallbacks).
                for sub in ast.walk(node):
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            bound.update(_target_names(target))
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add(alias.asname or alias.name)
        return bound


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    return set()
