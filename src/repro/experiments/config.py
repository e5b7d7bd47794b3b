"""Shared experimental configuration (paper Section V).

The paper's setup: 20 GENI nodes (1 seeder + 19 peers) in a star, a
2-minute 1 Mbps MPEG-4 video, 50 ms latency among peers, 500 ms to the
seeder, 5 % packet loss, bandwidth varied per run, three runs averaged
("We ran the application three times for each bandwidth and took the
rounded average").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.policy import AdaptivePoolPolicy, DownloadPolicy
from ..errors import ExperimentError
from ..p2p.churn import ChurnConfig
from ..p2p.swarm import FIDELITY_TIERS, SwarmConfig
from ..units import kB_per_s, milliseconds
from ..video.bitstream import Bitstream
from ..video.encoder import encode_paper_video

#: Bandwidths of Figs. 2, 3 and 5, in kB/s.
PAPER_BANDWIDTHS_KB: tuple[int, ...] = (128, 256, 512, 768)

#: Bandwidths of Fig. 4 (startup time), in kB/s.
FIG4_BANDWIDTHS_KB: tuple[int, ...] = (128, 256, 512, 1024)

#: Segment durations evaluated by the paper, seconds.
PAPER_DURATIONS: tuple[float, ...] = (2.0, 4.0, 8.0)

#: Fixed pool sizes of Fig. 5.
PAPER_POOL_SIZES: tuple[int, ...] = (2, 4, 8)

#: The reduced bandwidth axis of every ``--quick`` figure run, kB/s.
QUICK_BANDWIDTHS_KB: tuple[int, ...] = (128, 512)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Knobs shared by every figure reproduction.

    Attributes:
        n_leechers: watching peers (paper: 19 + the seeder = 20 nodes).
        seeds: swarm seeds averaged per cell (paper averages 3 runs).
        video_seed: seed of the synthetic video (fixed across cells so
            every technique slices the same video).
        seeder_multiplier: seeder access bandwidth as a multiple of the
            peer bandwidth (the origin is provisioned above the peers;
            see DESIGN.md section 5).
        peer_rtt: round-trip time between peers, seconds.
        seeder_rtt: control-plane round trip to the seeder, seconds.
        path_loss: end-to-end loss probability.
        join_stagger: seconds between consecutive peer joins.
        churn: optional churn model parameters.
        max_time: per-run simulation cap, seconds.
        fidelity: swarm backend for every run — ``"exact"``,
            ``"cohort"`` or ``"fluid"`` (see ``docs/SCALING.md``).
        max_cohorts: population granularity of the vectorized tiers.
        fluid_dt: integration step of the fluid tier, seconds
            (``None`` derives one from the splice).
    """

    n_leechers: int = 19
    seeds: tuple[int, ...] = (7, 17, 27)
    video_seed: int = 1
    seeder_multiplier: float = 8.0
    peer_rtt: float = milliseconds(50)
    seeder_rtt: float = milliseconds(500)
    path_loss: float = 0.05
    join_stagger: float = 5.0
    churn: ChurnConfig | None = None
    max_time: float = 3600.0
    fidelity: str = "exact"
    max_cohorts: int = 64
    fluid_dt: float | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ExperimentError("seeds must be non-empty")
        if self.seeder_multiplier <= 0:
            raise ExperimentError(
                f"seeder_multiplier must be positive: "
                f"{self.seeder_multiplier}"
            )
        if self.fidelity not in FIDELITY_TIERS:
            raise ExperimentError(
                f"fidelity must be one of {FIDELITY_TIERS}: "
                f"{self.fidelity!r}"
            )


def sweep_config(quick: bool, fidelity: str = "exact") -> ExperimentConfig:
    """The config of a ``[--quick] [--fidelity F]`` run.

    ``--quick`` is 9 peers and one seed; otherwise the paper's setup.
    Every entry point (``repro figN``, ``reproduce``, ``sweep``, the
    bench harness) builds its config here, so a sharded sweep and a
    direct run compute identical cells.
    """
    if quick:
        return ExperimentConfig(
            n_leechers=9, seeds=(7,), fidelity=fidelity
        )
    return ExperimentConfig(fidelity=fidelity)


def figure_axis(quick: bool) -> dict[str, tuple[int, ...]]:
    """Keyword arguments a figure's ``cells``/``run`` takes for a run.

    ``--quick`` narrows the bandwidth axis to
    :data:`QUICK_BANDWIDTHS_KB`; otherwise the figure's own axis.
    """
    return {"bandwidths_kb": QUICK_BANDWIDTHS_KB} if quick else {}


def make_paper_video(config: ExperimentConfig | None = None) -> Bitstream:
    """Encode the experiment's video (2 min, nominal 1 Mbps)."""
    cfg = config or ExperimentConfig()
    return encode_paper_video(seed=cfg.video_seed)


def make_swarm_config(
    bandwidth_kb: float,
    seed: int,
    config: ExperimentConfig | None = None,
    policy: DownloadPolicy | None = None,
) -> SwarmConfig:
    """Build the SwarmConfig for one experimental cell.

    Args:
        bandwidth_kb: peer access bandwidth in kB/s (the x-axis).
        seed: the run's swarm seed.
        config: shared experiment parameters.
        policy: download policy (defaults to the paper's adaptive
            pooling).
    """
    if bandwidth_kb <= 0:
        raise ExperimentError(
            f"bandwidth_kb must be positive: {bandwidth_kb}"
        )
    cfg = config or ExperimentConfig()
    return SwarmConfig(
        bandwidth=kB_per_s(bandwidth_kb),
        seeder_bandwidth=kB_per_s(bandwidth_kb * cfg.seeder_multiplier),
        n_leechers=cfg.n_leechers,
        peer_rtt=cfg.peer_rtt,
        seeder_rtt=cfg.seeder_rtt,
        path_loss=cfg.path_loss,
        policy=policy if policy is not None else AdaptivePoolPolicy(),
        seed=seed,
        join_stagger=cfg.join_stagger,
        churn=cfg.churn,
        max_time=cfg.max_time,
        fidelity=cfg.fidelity,
        max_cohorts=cfg.max_cohorts,
        fluid_dt=cfg.fluid_dt,
    )
