#!/usr/bin/env python3
"""Explore a video's structure and what each splicer makes of it.

Prints the paper video's GOP structure and the segment statistics of
every splicing technique: segment count, mean and largest segment,
and the I-frame overhead duration-based splicing pays.

Usage::

    python examples/splicing_explorer.py
"""

from __future__ import annotations

from repro.core import DurationSplicer, GopSplicer
from repro.video import encode_paper_video


def main() -> None:
    video = encode_paper_video(seed=1)
    stats = video.stats()
    print(
        f"Video: {stats.duration:.0f}s, {stats.size / 1e6:.1f} MB, "
        f"{stats.bitrate / 1e6:.2f} Mbps, {stats.gop_count} GOPs "
        f"({stats.gop_duration_min:.2f}s..{stats.gop_duration_max:.1f}s)"
    )

    print("\nSplicing comparison:")
    print(
        f"  {'technique':12s} {'segments':>8s} {'mean kB':>8s} "
        f"{'max kB':>7s} {'overhead':>9s}"
    )
    for splicer in (
        GopSplicer(),
        DurationSplicer(2.0),
        DurationSplicer(4.0),
        DurationSplicer(8.0),
    ):
        splice = splicer.splice(video)
        sizes = splice.segment_sizes()
        print(
            f"  {splice.technique:12s} {len(splice):8d} "
            f"{splice.mean_segment_size() / 1000:8.0f} "
            f"{max(sizes) / 1000:7.0f} "
            f"{100 * splice.overhead_ratio:8.1f}%"
        )


if __name__ == "__main__":
    main()
