"""``repro lint`` CLI: exit codes, filtering, formats, schema."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import LINT_SCHEMA

CLEAN_SOURCE = """
def add(left, right):
    return left + right
"""

# A file shaped like a sim-path module would be flagged; a bare tmp
# file is outside every configured scope, so the findings here come
# from scope-independent rules (E1).
DIRTY_SOURCE = """
def check(value):
    if value < 0:
        raise ValueError(f"bad {value}")
"""

SUPPRESSED_SOURCE = """
def check(value):
    if value < 0:
        # repro: lint-ok[E1] fixture exercising suppression
        raise ValueError(f"bad {value}")
"""

STALE_SOURCE = """
def check(value):  # repro: lint-ok[E1] nothing to suppress here
    return value
"""


@pytest.fixture
def write(tmp_path):
    def _write(source, name="mod.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return str(path)

    return _write


class TestExitCodes:
    def test_clean_file_exits_0(self, capsys, write):
        assert main(["lint", write(CLEAN_SOURCE)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1(self, capsys, write):
        assert main(["lint", write(DIRTY_SOURCE)]) == 1
        out = capsys.readouterr().out
        assert "E1" in out
        assert "hint:" in out

    def test_suppressed_finding_exits_0(self, capsys, write):
        assert main(["lint", write(SUPPRESSED_SOURCE)]) == 0

    def test_stale_suppression_exits_1(self, capsys, write):
        assert main(["lint", write(STALE_SOURCE)]) == 1
        assert "unused suppression" in capsys.readouterr().out

    def test_missing_path_exits_2(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, capsys, write):
        path = write(CLEAN_SOURCE)
        assert main(["lint", path, "--select", "NOPE"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_unparseable_source_exits_2(self, capsys, write):
        path = write("def broken(:\n")
        assert main(["lint", path]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_bad_format_choice_exits_2(self, write):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", write(CLEAN_SOURCE), "--format", "xml"])
        assert excinfo.value.code == 2


class TestFiltering:
    def test_ignore_silences_the_rule(self, capsys, write):
        path = write(DIRTY_SOURCE)
        assert main(["lint", path, "--ignore", "E1"]) == 0

    def test_select_other_rule_passes(self, capsys, write):
        path = write(DIRTY_SOURCE)
        assert main(["lint", path, "--select", "D1"]) == 0

    def test_comma_separated_select(self, capsys, write):
        path = write(DIRTY_SOURCE)
        assert main(["lint", path, "--select", "D1,E1"]) == 1


class TestJsonFormat:
    def run_json(self, capsys, path, *extra):
        code = main(["lint", path, "--format", "json", *extra])
        payload = json.loads(capsys.readouterr().out)
        return code, payload

    def test_payload_validates_against_schema(self, capsys, write):
        code, payload = self.run_json(capsys, write(DIRTY_SOURCE))
        assert code == 1
        assert payload["schema"] == LINT_SCHEMA
        assert not payload["clean"]
        (finding,) = payload["findings"]
        assert finding["rule"] == "E1"
        assert finding["line"] == 4
        assert finding["hint"]

    def test_clean_payload(self, capsys, write):
        code, payload = self.run_json(capsys, write(CLEAN_SOURCE))
        assert code == 0
        assert payload["clean"]
        assert payload["findings"] == []
        assert payload["statistics"]["modules"] == 1
        assert [r["id"] for r in payload["catalog"]["rules"]] == [
            "D1", "D2", "D3", "D4", "D5", "E1",
        ]

    def test_select_recorded_in_payload(self, capsys, write):
        _, payload = self.run_json(
            capsys, write(CLEAN_SOURCE), "--select", "D1,D2"
        )
        assert payload["select"] == ["D1", "D2"]


class TestStatistics:
    def test_statistics_block_printed(self, capsys, write):
        path = write(SUPPRESSED_SOURCE)
        assert main(["lint", path, "--statistics"]) == 0
        out = capsys.readouterr().out
        assert "modules scanned: 1" in out
        assert "suppressed: 1" in out


class TestVersionIntegration:
    def test_version_lists_rule_catalog(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"lint {LINT_SCHEMA} catalog v1" in out
        assert "D1 D2 D3 D4 D5 E1" in out
        # The environment block stays alongside (PR 6 behaviour).
        assert "python " in out
