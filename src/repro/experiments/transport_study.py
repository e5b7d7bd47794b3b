"""A9 — transport study: TCP vs a PPSPP/Libswift-style UDP protocol.

The paper streams over TCP and cites the IETF's UDP-based streaming
protocols (Libswift, PPSPP) as the designed-for-streaming alternative.
This study re-runs the splicing comparison on both transports: the
delay-based transport pays no Mathis ceiling and no timeout collapse,
so the low-bandwidth pathologies of small segments should soften.
"""

from __future__ import annotations

from ..net.tcp import TcpParams, ppspp_params
from ..parallel import SplicerSpec, SweepExecutor, cell_for
from ..video.bitstream import Bitstream
from .config import ExperimentConfig
from .runner import FigureResult, run_figure


def run(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidths_kb: tuple[int, ...] = (128, 256, 512),
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """Compare transports across bandwidths.

    Splicing is fixed at 2-second duration, the one TCP punishes
    hardest.

    Args:
        config: shared experiment parameters.
        video: pre-encoded video.
        bandwidths_kb: x-axis points.
        executor: sweep executor; ``None`` runs serially in-process.

    Returns:
        One series per transport.
    """
    cfg = config or ExperimentConfig()
    splicer = SplicerSpec("duration", 2.0)
    transports: dict[str, TcpParams] = {
        "tcp": TcpParams(),
        "ppspp-udp": ppspp_params(),
    }
    series = {
        label: [
            cell_for(
                splicer,
                bw,
                cfg,
                video=video,
                tcp_params=params,
                label=f"A9/{label} @ {bw} kB/s",
            )
            for bw in bandwidths_kb
        ]
        for label, params in transports.items()
    }
    return run_figure(
        "A9",
        f"Transport comparison ({splicer.technique})",
        "stall_count",
        series,
        executor,
    )
