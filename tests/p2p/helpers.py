"""Shared builders for P2P-layer tests."""

from __future__ import annotations

import random

from repro.core.policy import AdaptivePoolPolicy, DownloadPolicy
from repro.core.splicer import DurationSplicer
from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.topology import StarTopology
from repro.p2p.leecher import Leecher, LeecherConfig
from repro.p2p.peer import ControlPlane
from repro.p2p.seeder import Seeder
from repro.p2p.tracker import Tracker
from repro.units import kB_per_s
from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.scene import generate_scene_plan


def make_splice(duration=12.0, segment_duration=2.0, seed=3):
    rng = random.Random(seed)
    plan = generate_scene_plan(duration, rng)
    stream = SyntheticEncoder(
        EncoderConfig(bitrate=800_000.0)
    ).encode(plan, rng)
    return DurationSplicer(segment_duration).splice(stream)


class MiniSwarm:
    """A hand-built swarm for protocol-level tests."""

    def __init__(
        self,
        splice=None,
        n_leechers: int = 2,
        bandwidth: float = kB_per_s(512),
        policy: DownloadPolicy | None = None,
        extra_latency=None,
        **leecher_overrides,
    ) -> None:
        self.splice = splice if splice is not None else make_splice()
        self.sim = Simulator()
        self.network = FlowNetwork(self.sim)
        self.topology = StarTopology()
        self.control = ControlPlane(self.sim, self.topology, extra_latency)
        self.tracker = Tracker()
        seeder_node = self.topology.add_node(
            "seeder", bandwidth, latency_to_hub=0.0125
        )
        self.seeder = Seeder(
            "seeder",
            seeder_node,
            self.sim,
            self.network,
            self.topology,
            self.control,
            self.splice,
            self.tracker,
        )
        self.leechers: list[Leecher] = []
        for i in range(n_leechers):
            name = f"peer-{i + 1}"
            node = self.topology.add_node(
                name, bandwidth, latency_to_hub=0.0125
            )
            config = LeecherConfig(
                policy=policy if policy is not None else AdaptivePoolPolicy(),
                bandwidth_hint=bandwidth,
                seed=i,
                **leecher_overrides,
            )
            self.leechers.append(
                Leecher(
                    name,
                    node,
                    self.sim,
                    self.network,
                    self.topology,
                    self.control,
                    "seeder",
                    config,
                )
            )

    def start_all(self, stagger: float = 1.0) -> None:
        for i, leecher in enumerate(self.leechers):
            self.sim.schedule(i * stagger, leecher.start)

    def run(self, until: float = 600.0) -> None:
        self.sim.run(until=until)
