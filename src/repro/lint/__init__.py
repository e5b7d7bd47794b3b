"""``repro.lint`` — determinism & sim-safety static analysis.

The reproduction's guarantees — bit-identical sweeps at any worker
count, golden-trace digest stability, cross-process workload digests —
are runtime-verified by parity and golden tests, which only fail
*after* a stray wall-clock read or unordered ``set`` iteration has
already poisoned a run.  This package checks the invariants
statically: an AST rule engine with per-rule ids, fix hints and
``# repro: lint-ok[RULE] reason`` suppressions (stale ones fail the
run), surfaced as ``repro lint`` and a CI gate.  There is one
configuration: every rule runs, scoped by the module prefixes in
:data:`~repro.lint.rules.SIM_PATH` and
:data:`~repro.lint.rules.SPEC_MODULES`.

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

    from repro.lint import lint_paths

    result = lint_paths(["src/repro"])
    assert result.clean, result.findings
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Finding": "report",
    "UnusedSuppression": "report",
    "render_text": "report",
    "RULE_CATALOG": "rules",
    "Rule": "rules",
    "SIM_PATH": "rules",
    "SPEC_MODULES": "rules",
    "rule_ids": "rules",
    "LintResult": "runner",
    "lint_paths": "runner",
    "lint_source": "runner",
    "Suppression": "suppressions",
    "parse_suppressions": "suppressions",
    "ModuleContext": "walker",
    "discover": "walker",
    "in_scope": "walker",
    "module_name": "walker",
})
