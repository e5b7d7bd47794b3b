"""Self-hosting gate: the linter runs clean on ``src/repro``.

This is the contract the CI lint step enforces; keeping it in tier-1
means a stray wall-clock read, unordered iteration, or bare builtin
raise fails the suite *before* it can poison a golden trace or a
cached sweep cell.
"""

from collections import Counter
from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).parents[2]


def test_src_repro_is_clean():
    result = lint_paths([REPO_ROOT / "src" / "repro"])
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}"
        for f in result.findings
    ]
    assert result.unused_suppressions == [], [
        f"{u.path}:{u.line}: lint-ok[{u.rule}]"
        for u in result.unused_suppressions
    ]
    assert result.modules >= 90


def test_deliberate_exceptions_stay_annotated():
    # The known suppression inventory: the report header's wall
    # elapsed (D1), and the AttributeError PEP 562 requires of the
    # lazy package exports' ``__getattr__`` (E1, once, in
    # repro.lazy).  The flow solver's filling loop iterates no set,
    # so it needs no D3 suppression, and the CLI dispatches through
    # handlers bound on its parser, so it has no unreachable guard
    # (E1) to annotate.  Growing this list is fine — silently losing
    # an annotation is not.
    result = lint_paths([REPO_ROOT / "src" / "repro"])
    per_rule = Counter(finding.rule for finding in result.suppressed)
    assert per_rule["D1"] >= 2
    assert per_rule["E1"] >= 1
