"""Tests for the metrics-based ASCII session timeline."""

import pytest

from repro.core.splicer import DurationSplicer
from repro.errors import ExperimentError
from repro.obs.render import render_timeline
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.units import kB_per_s


class TestTimeline:
    @pytest.fixture(scope="class")
    def result(self, short_video):
        splice = DurationSplicer(4.0).splice(short_video)
        config = SwarmConfig(
            bandwidth=kB_per_s(256),
            seeder_bandwidth=kB_per_s(2048),
            n_leechers=3,
            seed=3,
            join_stagger=1.0,
            max_time=600.0,
        )
        return Swarm(splice, config).run()

    def test_one_row_per_peer(self, result):
        text = render_timeline(result, width=40)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == 3

    def test_rows_have_requested_width(self, result):
        text = render_timeline(result, width=40)
        for line in text.splitlines()[1:]:
            body = line.split("|")[1]
            assert len(body) == 40

    def test_finished_peers_end_with_dollar(self, result):
        # Every peer ends in a terminal state; all but the very last
        # finisher show '$' (the horizon is the last playback end, so
        # that peer's final column sits just before its own finish).
        text = render_timeline(result, width=40)
        endings = [
            line.rstrip("|")[-1] for line in text.splitlines()[1:]
        ]
        assert endings.count("$") >= len(endings) - 1
        assert all(symbol in "=$#" for symbol in endings)

    def test_later_joiners_start_blank(self, result):
        text = render_timeline(result, width=80)
        last_peer_row = text.splitlines()[-1]
        body = last_peer_row.split("|")[1]
        assert body.startswith(" ")

    def test_narrow_width_rejected(self, result):
        with pytest.raises(ExperimentError):
            render_timeline(result, width=5)
