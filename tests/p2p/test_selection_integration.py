"""Selectors and estimators exercised inside full swarm sessions."""

import pytest

from repro.bwest import WindowedThroughputEstimator
from repro.core.splicer import DurationSplicer
from repro.p2p.selection import (
    SequentialSelector,
    WindowedRarestSelector,
)
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.units import kB_per_s


def config(**overrides):
    defaults = dict(
        bandwidth=kB_per_s(512),
        seeder_bandwidth=kB_per_s(2048),
        n_leechers=4,
        seed=21,
        join_stagger=1.0,
        max_time=600.0,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


@pytest.fixture(scope="module")
def splice(short_video):
    return DurationSplicer(2.0).splice(short_video)


class TestSelectorsInSwarm:
    @pytest.mark.parametrize(
        "selector",
        [
            SequentialSelector(),
            # A look-ahead longer than any test video leaves only the
            # one urgent segment in order: BitTorrent rarest-first.
            pytest.param(
                WindowedRarestSelector(urgent_window=1, lookahead=10_000),
                id="rarest-first",
            ),
            WindowedRarestSelector(),
            WindowedRarestSelector(urgent_window=2, lookahead=4),
        ],
        ids=lambda s: s.name,
    )
    def test_every_selector_completes_playback(self, splice, selector):
        result = Swarm(splice, config(selector=selector)).run()
        assert result.all_finished

    def test_windowed_selector_diversifies_inventory(self, splice):
        # Mid-session, windowed-rarest peers should hold a less
        # strictly-prefix-shaped inventory than sequential peers.
        def prefix_fraction(selector):
            swarm = Swarm(splice, config(selector=selector))
            fractions = []

            def sample():
                for leecher in swarm.leechers:
                    owned = leecher.owned
                    if not owned:
                        continue
                    run = 0
                    while run in owned:
                        run += 1
                    fractions.append(run / len(owned))

            swarm.sim.schedule(6.0, sample)
            swarm.run()
            return sum(fractions) / max(1, len(fractions))

        sequential = prefix_fraction(SequentialSelector())
        windowed = prefix_fraction(
            WindowedRarestSelector(urgent_window=1, lookahead=6)
        )
        assert windowed <= sequential + 1e-9


class TestEstimatorInSwarm:
    def test_estimator_factory_feeds_estimators(self, splice):
        swarm = Swarm(
            splice,
            config(estimator_factory=WindowedThroughputEstimator),
        )
        mid_session = []

        def sample():
            for leecher in swarm.leechers:
                mid_session.append(
                    leecher.config.estimator.estimate(swarm.sim.now)
                )

        swarm.sim.schedule(6.0, sample)
        result = swarm.run()
        assert result.all_finished
        for leecher in swarm.leechers:
            assert leecher.config.estimator is not None
        # Mid-session at least one estimator had converged.
        assert any(value is not None for value in mid_session)

    def test_estimate_is_plausible(self, splice):
        swarm = Swarm(
            splice,
            config(estimator_factory=WindowedThroughputEstimator),
        )
        estimates = []

        def sample():
            for leecher in swarm.leechers:
                value = leecher.config.estimator.estimate(swarm.sim.now)
                if value is not None:
                    estimates.append(value)

        swarm.sim.schedule(6.0, sample)
        swarm.run()
        assert estimates
        for value in estimates:
            # Within an order of magnitude of the configured capacity.
            assert kB_per_s(512) / 20 < value < kB_per_s(512) * 20
