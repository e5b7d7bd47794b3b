"""Tests for the hybrid CDN mode (Section IV).

The mode is ``SwarmConfig(origin_one_at_a_time=True)``: the seeder acts
as the origin, and each leecher keeps at most one request in flight to
it.
"""

from repro.core.splicer import DurationSplicer
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.units import kB_per_s


def hybrid_config(**overrides):
    defaults = dict(
        bandwidth=kB_per_s(512),
        seeder_bandwidth=kB_per_s(2048),
        n_leechers=3,
        seed=5,
        join_stagger=1.0,
        max_time=600.0,
        origin_one_at_a_time=True,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


class TestHybridSession:
    def test_at_most_one_inflight_to_cdn(self, short_video):
        splice = DurationSplicer(2.0).splice(short_video)
        swarm = Swarm(splice, hybrid_config())
        probed = []

        def check():
            for leecher in swarm.leechers:
                to_cdn = [
                    s
                    for s in leecher.inflight.values()
                    if s == "seeder"
                ]
                assert len(to_cdn) <= 1
            probed.append(swarm.sim.now)

        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            swarm.sim.schedule(t, check)
        result = swarm.run()
        assert result.all_finished
        assert len(probed) == 5
