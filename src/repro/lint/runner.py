"""The lint engine: discovery -> rules -> suppressions -> result.

:func:`lint_paths` is the programmatic entry point the CLI, CI gate,
and self-lint test all share; :func:`lint_source` runs the same
pipeline over an in-memory snippet (how the per-rule fixture tests
exercise the catalog without touching disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .report import Finding, UnusedSuppression
from .rules import RULE_CATALOG
from .suppressions import apply_suppressions, parse_suppressions
from .walker import ModuleContext, discover


@dataclass(frozen=True, slots=True)
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: surviving (unsuppressed) findings, location-sorted.
        suppressed: findings silenced by ``lint-ok`` comments.
        unused_suppressions: stale ``lint-ok`` comments.
        modules: number of modules scanned.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused_suppressions: list[UnusedSuppression] = field(
        default_factory=list
    )
    modules: int = 0

    @property
    def clean(self) -> bool:
        """Exit-0 condition: no findings, no stale suppressions."""
        return not self.findings and not self.unused_suppressions


def lint_module(
    ctx: ModuleContext,
) -> tuple[list[Finding], list[Finding], list[UnusedSuppression]]:
    """Run every rule over one parsed module."""
    findings: list[Finding] = []
    for rule_id in sorted(RULE_CATALOG):
        findings.extend(RULE_CATALOG[rule_id].check(ctx))
    suppressions = parse_suppressions(ctx.source, str(ctx.path))
    return apply_suppressions(
        findings, suppressions, known_rules=frozenset(RULE_CATALOG)
    )


def lint_paths(paths: list[str | Path]) -> LintResult:
    """Lint files/directories and aggregate one :class:`LintResult`.

    Args:
        paths: files or directories (directories expand to ``*.py``,
            sorted, so output order is reproducible).

    Raises:
        LintError: missing path, unparseable source, or malformed
            suppression comment.
    """
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    unused: list[UnusedSuppression] = []
    files = discover(paths)
    for file in files:
        kept, silenced, stale = lint_module(ModuleContext.parse(file))
        findings.extend(kept)
        suppressed.extend(silenced)
        unused.extend(stale)
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    unused.sort(key=UnusedSuppression.sort_key)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        unused_suppressions=unused,
        modules=len(files),
    )


def lint_source(
    source: str,
    *,
    module: str = "snippet",
    path: str = "<snippet>",
) -> LintResult:
    """Lint one in-memory source snippet (test/fixture entry point).

    ``module`` controls scope classification: pass a sim-path-shaped
    name (e.g. ``"repro.p2p.fixture"``) to exercise sim-path rules.
    """
    ctx = ModuleContext.parse(path, source=source, module=module)
    kept, silenced, stale = lint_module(ctx)
    return LintResult(
        findings=sorted(kept, key=Finding.sort_key),
        suppressed=sorted(silenced, key=Finding.sort_key),
        unused_suppressions=sorted(
            stale, key=UnusedSuppression.sort_key
        ),
        modules=1,
    )
