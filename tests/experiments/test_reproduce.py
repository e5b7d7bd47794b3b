"""Tests for the consolidated reproduction run and new ablations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.ablations import run_preroll, run_swarm_scaling
from repro.experiments.reproduce import reproduce_all

ROOT = Path(__file__).resolve().parents[2]
#: ``repro reproduce --quick --jobs 1`` stdout without its wall-clock
#: ``(regenerated in ...)`` line.
QUICK_REPORT = ROOT / "tests" / "data" / "reproduce_quick.txt"


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5,), max_time=600.0)


class TestReproduceAll:
    @pytest.fixture(scope="class")
    def report(self, short_video):
        config = ExperimentConfig(
            n_leechers=3, seeds=(5,), max_time=600.0
        )
        return reproduce_all(
            config, video=short_video, include_ablations=False
        )

    def test_contains_all_four_figures(self, report):
        assert [f.figure for f in report.figures] == [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
        ]

    def test_render_includes_tables(self, report):
        text = report.render()
        assert "## fig2" in text
        assert "## fig5" in text
        assert "overhead" in text
        assert "128 kB/s" in text

    def test_elapsed_recorded(self, report):
        assert report.elapsed > 0

    def test_ablations_appended_when_requested(self, short_video):
        config = ExperimentConfig(
            n_leechers=2, seeds=(5,), max_time=600.0
        )
        report = reproduce_all(
            config, video=short_video, include_ablations=True
        )
        ids = [f.figure for f in report.figures]
        for ablation in ("A1", "A2", "A4", "A7", "A8"):
            assert ablation in ids


class TestNewAblations:
    def test_preroll_series(self, fast_config, short_video):
        result = run_preroll(
            fast_config,
            video=short_video,
            bandwidth_kb=512,
            prerolls=(1, 2),
        )
        assert set(result.series) == {"preroll 1", "preroll 2"}
        p1 = result.series["preroll 1"][0]
        p2 = result.series["preroll 2"][0]
        assert p2.startup_time >= p1.startup_time

    def test_scaling_series(self, fast_config, short_video):
        result = run_swarm_scaling(
            fast_config,
            video=short_video,
            bandwidth_kb=512,
            swarm_sizes=(2, 4),
        )
        assert set(result.series) == {"2 peers", "4 peers"}
        for cells in result.series.values():
            assert cells[0].finished_fraction == 1.0


def test_quick_report_bytes_are_pinned(tmp_path):
    """The standing gate: ``reproduce --quick`` prints the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "--quick", "--jobs", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    report = b"".join(
        line for line in proc.stdout.splitlines(keepends=True)
        if b"regenerated in" not in line
    )
    assert report == QUICK_REPORT.read_bytes()
