"""Ablation A3 — the byte cost of duration-based splicing.

Quantifies the paper's "the duration based splicing requires much more
data to be transferred than the GOP based splicing": total bytes and
overhead percentage per technique.
"""

from __future__ import annotations

from repro.experiments.ablations import run_overhead
from repro.experiments.report import format_overhead

_DURATIONS = (1.0, 2.0, 4.0, 8.0)


def run_suite(harness, quick=False):
    config, video = harness.paper_setup(quick)
    rows = harness.case(
        "splice_overhead",
        run_overhead,
        kwargs={"video": video, "durations": _DURATIONS},
        params={"durations": list(_DURATIONS)},
        digest_of=("overhead", config.video_seed, _DURATIONS),
    )
    harness.annotate(
        **{
            f"{row.technique}.overhead_pct": row.overhead_percent
            for row in rows
        }
    )
    harness.emit(format_overhead(rows), name="ablation_splicing_overhead")
    _check(rows)
    return rows


def _check(rows):
    by_name = {row.technique: row for row in rows}
    assert by_name["gop"].overhead_bytes == 0
    # Overhead shrinks monotonically as segments grow.
    percents = [
        by_name[f"duration-{d}s"].overhead_percent for d in (1, 2, 4, 8)
    ]
    assert percents == sorted(percents, reverse=True)
    # The 1-second extreme is "much more data": several percent.
    assert percents[0] > 5.0


def test_ablation_splicing_overhead(harness):
    run_suite(harness)
