"""Suppression-comment parsing, matching, and staleness detection."""

import textwrap

import pytest

from repro.errors import LintError
from repro.lint import lint_source, parse_suppressions

SIM_MODULE = "repro.p2p.fixture"


def lint(source):
    return lint_source(textwrap.dedent(source), module=SIM_MODULE)


class TestParsing:
    def test_same_line_and_standalone_forms(self):
        suppressions = parse_suppressions(
            textwrap.dedent(
                """
                x = 1  # repro: lint-ok[D3] commutative fold
                # repro: lint-ok[D1] wall elapsed for reports
                y = 2
                """
            ),
            "mod.py",
        )
        assert len(suppressions) == 2
        same_line, standalone = suppressions
        assert same_line.rules == ("D3",)
        assert not same_line.standalone
        assert same_line.target_line == same_line.line
        assert standalone.standalone
        assert standalone.target_line == standalone.line + 1

    def test_comma_separated_rule_list(self):
        (suppression,) = parse_suppressions(
            "x = 1  # repro: lint-ok[D1, D3] host timing fan-out\n",
            "mod.py",
        )
        assert suppression.rules == ("D1", "D3")

    def test_marker_inside_string_literal_ignored(self):
        assert not parse_suppressions(
            'x = "# repro: lint-ok[D3] not a comment"\n', "mod.py"
        )

    def test_reason_is_mandatory(self):
        with pytest.raises(LintError, match="needs a reason"):
            parse_suppressions(
                "x = 1  # repro: lint-ok[D3]\n", "mod.py"
            )


class TestApplication:
    UNGUARDED = """
    import time

    def elapsed():
        return time.monotonic()  # repro: lint-ok[D1] host timing
    """

    def test_suppression_silences_the_finding(self):
        result = lint(self.UNGUARDED)
        assert result.clean
        assert not result.findings
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule == "D1"

    def test_standalone_comment_covers_next_line(self):
        result = lint(
            """
            import time

            # repro: lint-ok[D1] host timing for reports
            def elapsed(clock=time.monotonic):
                return clock()
            """
        )
        assert result.clean

    def test_wrong_rule_id_does_not_suppress(self):
        result = lint(
            """
            import time

            def elapsed():
                return time.monotonic()  # repro: lint-ok[D3] wrong id
            """,
        )
        # The D1 finding survives AND the D3 comment is stale.
        assert [f.rule for f in result.findings] == ["D1"]
        assert [u.rule for u in result.unused_suppressions] == ["D3"]
        assert not result.clean

    def test_unused_suppression_fails_the_run(self):
        result = lint(
            """
            x = 1  # repro: lint-ok[D3] nothing here to suppress
            """
        )
        assert not result.findings
        assert len(result.unused_suppressions) == 1
        assert not result.clean

    def test_unknown_rule_id_is_always_stale(self):
        result = lint(
            """
            x = 1  # repro: lint-ok[D9] no such rule
            """
        )
        assert [u.rule for u in result.unused_suppressions] == ["D9"]
        assert "unknown rule" in result.unused_suppressions[0].reason
