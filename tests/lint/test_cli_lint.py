"""``repro lint`` CLI: exit codes, output, and its one configuration."""

import textwrap

import pytest

from repro.cli import main

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

    def test_unparseable_source_exits_2(self, capsys, write):
        path = write("def broken(:\n")
        assert main(["lint", path]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--select", "D1"],
            ["--ignore", "E1"],
            ["--format", "json"],
            ["--statistics"],
        ],
        ids=["select", "ignore", "format", "statistics"],
    )
    def test_removed_options_rejected(self, write, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", write(CLEAN_SOURCE), *option])
        assert excinfo.value.code == 2


class TestSimPathScope:
    def test_wall_clock_read_in_sim_path_package_exits_1(
        self, capsys, tmp_path
    ):
        package = tmp_path / "repro" / "p2p"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "clock.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        assert main(["lint", str(package)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            f"{package / 'clock.py'}:5:11: D1 wall-clock read "
            f"'time.time' in sim-path module repro.p2p.clock"
        )
        assert out[1].startswith("    hint: use the simulated clock")
        assert out[-1] == "1 finding(s), 0 unused suppression(s)"


class TestVersionIntegration:
    def test_version_lists_rule_catalog(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "lint rules: D1 D2 D3 D4 D5 E1" in out
        # The environment block stays alongside (PR 6 behaviour).
        assert "python " in out
