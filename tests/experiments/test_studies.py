"""Smoke tests for the selection, transport, and ABR studies."""

import random

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.abr_study import AbrStudyRow, format_rows
from repro.experiments.abr_study import run as run_abr
from repro.experiments.selection_study import run as run_selection
from repro.experiments.transport_study import run as run_transport
from repro.errors import ExperimentError
from repro.parallel import SweepExecutor
from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.scene import generate_scene_plan


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5,), max_time=600.0)


@pytest.fixture(scope="module")
def minute_video():
    """A 60-second video: long enough that churn (mean lifetime 45 s)
    departs a peer before its playback ends."""
    rng = random.Random(42)
    plan = generate_scene_plan(60.0, rng)
    return SyntheticEncoder(
        EncoderConfig(bitrate=950_000.0)
    ).encode(plan, rng)


class TestSelectionStudy:
    def test_series_cover_both_selectors(self, fast_config, short_video):
        result = run_selection(
            fast_config, video=short_video, bandwidth_kb=512
        )
        labels = set(result.series)
        assert "sequential" in labels
        assert "sequential +churn" in labels
        assert any("windowed" in label for label in labels)

    def test_churn_cells_count_departed_peers(
        self, fast_config, minute_video
    ):
        result = run_selection(
            fast_config, video=minute_video, bandwidth_kb=512
        )
        for label, cells in result.series.items():
            if label.endswith("+churn"):
                assert cells[0].finished_fraction < 1.0, label
            else:
                assert cells[0].finished_fraction == 1.0, label


class TestStudyParity:
    @pytest.mark.parametrize(
        "study",
        [
            pytest.param(
                lambda config, video, executor: run_selection(
                    config, video=video, bandwidth_kb=512,
                    executor=executor,
                ),
                id="A6",
            ),
            pytest.param(
                lambda config, video, executor: run_transport(
                    config, video=video, bandwidths_kb=(256, 512),
                    executor=executor,
                ),
                id="A9",
            ),
        ],
    )
    def test_serial_and_parallel_results_identical(
        self, fast_config, short_video, study
    ):
        serial = study(fast_config, short_video, SweepExecutor(jobs=1))
        parallel = study(fast_config, short_video, SweepExecutor(jobs=2))
        assert serial == parallel


class TestTransportStudy:
    def test_both_transports_run(self, fast_config, short_video):
        result = run_transport(
            fast_config, video=short_video, bandwidths_kb=(512,)
        )
        assert set(result.series) == {"tcp", "ppspp-udp"}
        for cells in result.series.values():
            assert cells[0].finished_fraction == 1.0


class TestAbrStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_abr(bandwidths_kb=(128,), duration=24.0, seed=3)

    def test_three_strategies_per_bandwidth(self, rows):
        assert len(rows) == 3
        prefixes = {row.strategy.split(" ")[0] for row in rows}
        assert prefixes == {"abr-buffer", "duration-adaptive", "fixed-top"}

    def test_duration_strategies_keep_top_quality(self, rows):
        top = max(row.mean_bitrate for row in rows)
        for row in rows:
            if not row.strategy.startswith("abr"):
                assert row.mean_bitrate == top

    def test_rows_are_typed(self, rows):
        assert all(isinstance(row, AbrStudyRow) for row in rows)

    def test_format_renders_all_rows(self, rows):
        text = format_rows(rows)
        assert len(text.splitlines()) == len(rows) + 1
        assert "quality" in text

    def test_empty_bandwidths_rejected(self):
        with pytest.raises(ExperimentError):
            run_abr(bandwidths_kb=())
