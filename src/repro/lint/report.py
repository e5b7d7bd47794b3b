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
        path: source file.
        line: 1-based source line.
        col: 0-based column.
        message: what is wrong at this site.
        hint: how to fix it (rule-level, actionable).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


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


def render_text(
    findings: list[Finding], unused: list[UnusedSuppression]
) -> str:
    """The ``repro lint`` output.

    One line per finding with its fix hint indented beneath, then
    unused suppressions, then a one-line summary.
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
    if not findings and not unused:
        summary = "clean"
    else:
        summary = (
            f"{len(findings)} finding(s), "
            f"{len(unused)} unused suppression(s)"
        )
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)
