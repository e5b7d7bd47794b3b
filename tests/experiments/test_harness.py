"""Tests for the experiment harness (configs, runner, report)."""

import pytest

from repro.core.policy import FixedPoolPolicy
from repro.errors import ExperimentError
from repro.experiments.config import (
    FIG4_BANDWIDTHS_KB,
    PAPER_BANDWIDTHS_KB,
    ExperimentConfig,
    make_swarm_config,
)
from repro.experiments.report import format_figure
from repro.experiments.runner import CellResult, FigureResult
from repro.parallel import SplicerSpec, SweepExecutor, cell_for
from repro.units import kB_per_s


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5,), max_time=600.0)


def one_cell(video, bandwidth_kb, config):
    """One seed-averaged cell, run inline."""
    (cell,) = SweepExecutor(jobs=1).run_cells(
        [cell_for(SplicerSpec("duration", 4.0), bandwidth_kb, config,
                  video=video)]
    )
    return cell


class TestExperimentConfig:
    def test_paper_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_leechers == 19
        assert len(cfg.seeds) == 3  # the paper's "three times" rule
        assert cfg.peer_rtt == pytest.approx(0.05)
        assert cfg.seeder_rtt == pytest.approx(0.5)
        assert cfg.path_loss == pytest.approx(0.05)

    def test_paper_axes(self):
        assert PAPER_BANDWIDTHS_KB == (128, 256, 512, 768)
        assert FIG4_BANDWIDTHS_KB == (128, 256, 512, 1024)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(seeds=())

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(seeder_multiplier=0)


class TestMakeSwarmConfig:
    def test_bandwidth_conversion(self):
        config = make_swarm_config(256, seed=1)
        assert config.bandwidth == pytest.approx(kB_per_s(256))
        assert config.seeder_bandwidth == pytest.approx(
            kB_per_s(256) * 8
        )

    def test_policy_override(self):
        config = make_swarm_config(
            128, seed=1, policy=FixedPoolPolicy(2)
        )
        assert config.policy.name == "fixed-2"

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ExperimentError):
            make_swarm_config(0, seed=1)


class TestRunCell:
    def test_produces_metrics(self, short_video, fast_config):
        cell = one_cell(short_video, 512, fast_config)
        assert cell.bandwidth_kb == 512
        assert cell.startup_time > 0
        assert cell.finished_fraction == 1.0
        assert cell.stall_count >= 0

    def test_deterministic(self, short_video, fast_config):
        a = one_cell(short_video, 512, fast_config)
        b = one_cell(short_video, 512, fast_config)
        assert a == b


class TestReport:
    @pytest.fixture()
    def figure(self):
        def cell(bw, value):
            return CellResult(
                bandwidth_kb=bw,
                stall_count=value,
                stall_duration=value * 2,
                startup_time=1.0,
                seeder_bytes=0,
                peer_bytes=0,
                finished_fraction=1.0,
            )

        return FigureResult(
            figure="figX",
            title="Example",
            metric="stall_count",
            series={
                "gop": [cell(128, 12.0), cell(512, 3.0)],
                "duration-4s": [cell(128, 4.0), cell(512, 1.0)],
            },
        )

    def test_table_contains_series_and_bandwidths(self, figure):
        table = format_figure(figure)
        assert "gop" in table
        assert "duration-4s" in table
        assert "128 kB/s" in table
        assert "512 kB/s" in table
        assert "12.0" in table

    def test_metric_extraction(self, figure):
        cells = figure.series["gop"]
        assert figure.value(cells[0]) == 12.0

    def test_missing_cell_rendered_as_dash(self, figure):
        figure.series["gop"].pop()
        assert "-" in format_figure(figure)
