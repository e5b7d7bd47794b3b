"""``repro.lint`` — determinism & sim-safety static analysis.

The reproduction's guarantees — bit-identical sweeps at any worker
count, golden-trace digest stability, cross-process workload digests —
are runtime-verified by parity and golden tests, which only fail
*after* a stray wall-clock read or unordered ``set`` iteration has
already poisoned a run.  This package checks the invariants
statically: an AST rule engine with per-rule ids, fix hints,
``# repro: lint-ok[RULE] reason`` suppressions (stale ones fail the
run), pyproject-scoped module classification, and a versioned JSON
findings schema, surfaced as ``repro lint`` and a CI gate.

Catalog (see docs/LINTING.md for rationale and blind spots):

==== ==========================================================
D1   no wall-clock reads in sim-path modules
D2   no module-level or un-seeded random / numpy.random use
D3   no unordered set/frozenset/dict.keys() iteration without
     sorted(...) in sim-path code
D4   sweep spec dataclasses picklable by construction
D5   tracer.emit(...) only inside a tracer-enabled guard
E1   every raise uses the repro.errors hierarchy
==== ==========================================================

Programmatic use::

    from repro.lint import lint_paths, load_config

    result = lint_paths(["src/repro"], config=load_config())
    assert result.clean, result.findings
"""

from ..lazy import lazy_exports

__all__ = [
    "CATALOG_VERSION",
    "DEFAULT_SIM_PATH",
    "DEFAULT_WALLCLOCK_ALLOW",
    "Finding",
    "LINT_SCHEMA",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "RULE_CATALOG",
    "Rule",
    "Suppression",
    "UnusedSuppression",
    "build_payload",
    "catalog_description",
    "discover",
    "find_pyproject",
    "in_scope",
    "lint_paths",
    "lint_source",
    "load_config",
    "load_payload",
    "module_name",
    "parse_suppressions",
    "render_statistics",
    "render_text",
    "resolve_rules",
    "rule_ids",
    "validate_payload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_SIM_PATH": "config",
    "DEFAULT_WALLCLOCK_ALLOW": "config",
    "LintConfig": "config",
    "find_pyproject": "config",
    "load_config": "config",
    "Finding": "report",
    "UnusedSuppression": "report",
    "render_statistics": "report",
    "render_text": "report",
    "CATALOG_VERSION": "rules",
    "RULE_CATALOG": "rules",
    "Rule": "rules",
    "catalog_description": "rules",
    "rule_ids": "rules",
    "LintResult": "runner",
    "lint_paths": "runner",
    "lint_source": "runner",
    "resolve_rules": "runner",
    "LINT_SCHEMA": "schema",
    "build_payload": "schema",
    "load_payload": "schema",
    "validate_payload": "schema",
    "Suppression": "suppressions",
    "parse_suppressions": "suppressions",
    "ModuleContext": "walker",
    "discover": "walker",
    "in_scope": "walker",
    "module_name": "walker",
})
