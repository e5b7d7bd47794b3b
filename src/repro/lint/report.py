"""Findings and their human-readable rendering.

A :class:`Finding` is one rule violation at one source location; the
text renderer prints them ``path:line:col: RULE message`` (the format
editors and CI log scrapers already parse), sorted by location so
output order is independent of rule-evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule identifier (``"D3"``).
        severity: ``"error"`` (all catalog rules today; the field is
            part of the schema so future advisory rules don't bump it).
        path: source file.
        module: dotted module name.
        line: 1-based source line.
        col: 0-based column.
        message: what is wrong at this site.
        hint: how to fix it (rule-level, actionable).
    """

    rule: str
    severity: str
    path: str
    module: str
    line: int
    col: int
    message: str
    hint: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        """JSON-ready form (schema ``repro.lint/1`` findings entry)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True, slots=True)
class UnusedSuppression:
    """A ``lint-ok`` comment that suppressed nothing.

    Stale suppressions are themselves failures: they hide the next
    real finding at that line, so the CI gate treats them like
    findings rather than letting them rot.
    """

    path: str
    line: int
    rule: str
    reason: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "reason": self.reason,
        }


def render_text(
    findings: list[Finding],
    unused: list[UnusedSuppression],
    *,
    statistics: dict | None = None,
) -> str:
    """The default ``repro lint`` output.

    One line per finding with its fix hint indented beneath, then
    unused suppressions, then (optionally) the statistics block.
    """
    lines: list[str] = []
    for finding in sorted(findings, key=Finding.sort_key):
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}"
        )
        lines.append(f"    hint: {finding.hint}")
    for entry in sorted(unused, key=UnusedSuppression.sort_key):
        detail = f" ({entry.reason})" if entry.reason else ""
        lines.append(
            f"{entry.path}:{entry.line}: unused suppression "
            f"lint-ok[{entry.rule}]{detail}"
        )
    if statistics is not None:
        if lines:
            lines.append("")
        lines.extend(render_statistics(statistics))
    if not findings and not unused:
        summary = "clean"
    else:
        summary = (
            f"{len(findings)} finding(s), "
            f"{len(unused)} unused suppression(s)"
        )
    if lines:
        lines.append("")
    if statistics is None:
        lines.append(summary)
    return "\n".join(lines)


def render_statistics(statistics: dict) -> list[str]:
    """The ``--statistics`` block as output lines."""
    lines = [
        f"modules scanned: {statistics['modules']}",
        f"findings: {statistics['findings']} "
        f"(suppressed: {statistics['suppressed']}, "
        f"unused suppressions: {statistics['unused_suppressions']})",
    ]
    per_rule = statistics.get("per_rule", {})
    for rule_id in sorted(per_rule):
        counts = per_rule[rule_id]
        lines.append(
            f"  {rule_id}: {counts['findings']} finding(s), "
            f"{counts['suppressed']} suppressed"
        )
    return lines
