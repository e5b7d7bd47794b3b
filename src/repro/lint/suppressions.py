"""``# repro: lint-ok[RULE]`` suppression comments.

A deliberate rule violation is annotated at the site::

    for flow in unfrozen:  # repro: lint-ok[D3] commutative update
        flow._rate += delta

The bracket names one or more rule ids (comma-separated); everything
after the bracket is the required human reason.  A suppression on its
own line covers the *next* line, so long statements keep their
annotation adjacent::

    # repro: lint-ok[D1] wall elapsed for the report header only
    started = time.monotonic()

Suppressions are parsed with :mod:`tokenize` rather than a regex over
raw lines, so the marker inside a string literal is never mistaken
for a real annotation.

Every suppression must earn its keep: one that matches no finding of
its rule is reported as *unused* and fails the run — a stale
``lint-ok`` would otherwise silently swallow the next real finding
at that line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

from ..errors import LintError
from .report import Finding, UnusedSuppression

_PATTERN = re.compile(
    r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s]+)\]\s*(.*)\Z"
)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``lint-ok`` comment.

    Attributes:
        path: source file holding the comment.
        line: the comment's own line.
        rules: rule ids it names.
        reason: free text after the bracket.
        standalone: the comment is alone on its line (covers the
            next line instead of its own).
    """

    path: str
    line: int
    rules: tuple[str, ...]
    reason: str
    standalone: bool

    @property
    def target_line(self) -> int:
        """The source line whose findings this comment suppresses."""
        return self.line + 1 if self.standalone else self.line


def parse_suppressions(
    source: str, path: str | Path
) -> list[Suppression]:
    """Every ``lint-ok`` comment in ``source``.

    Raises:
        LintError: a marker has an empty rule list or no reason —
            a suppression without a why is worse than none.
    """
    suppressions: list[Suppression] = []
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, SyntaxError):
        # The AST parse will have reported the real problem.
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PATTERN.match(token.string.strip())
        if match is None:
            continue
        rules = tuple(
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        )
        reason = match.group(2).strip()
        line = token.start[0]
        if not rules:
            raise LintError(
                f"{path}:{line}: lint-ok comment names no rule"
            )
        if not reason:
            raise LintError(
                f"{path}:{line}: lint-ok[{','.join(rules)}] needs a "
                f"reason after the bracket"
            )
        standalone = token.line[: token.start[1]].strip() == ""
        suppressions.append(
            Suppression(
                path=str(path),
                line=line,
                rules=rules,
                reason=reason,
                standalone=standalone,
            )
        )
    return suppressions


def apply_suppressions(
    findings: list[Finding],
    suppressions: list[Suppression],
    known_rules: frozenset[str],
) -> tuple[list[Finding], list[Finding], list[UnusedSuppression]]:
    """Split findings into (kept, suppressed) and report stale comments.

    A suppression is *used* when some finding of a named rule sits on
    its target line.  Every unused one is stale; one naming a rule
    that does not exist is marked as an unknown rule id (likely a
    typo).
    """
    by_site: dict[tuple[str, int, str], list[Suppression]] = {}
    for suppression in suppressions:
        for rule in suppression.rules:
            by_site.setdefault(
                (suppression.path, suppression.target_line, rule), []
            ).append(suppression)

    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[tuple[int, str]] = set()
    for finding in findings:
        matches = by_site.get(
            (finding.path, finding.line, finding.rule), []
        )
        if matches:
            suppressed.append(finding)
            for match in matches:
                used.add((match.line, finding.rule))
        else:
            kept.append(finding)

    unused: list[UnusedSuppression] = []
    for suppression in suppressions:
        for rule in suppression.rules:
            if (suppression.line, rule) in used:
                continue
            note = suppression.reason
            if rule not in known_rules:
                note = f"unknown rule id; {note}" if note else (
                    "unknown rule id"
                )
            unused.append(
                UnusedSuppression(
                    path=suppression.path,
                    line=suppression.line,
                    rule=rule,
                    reason=note,
                )
            )
    return kept, suppressed, unused
