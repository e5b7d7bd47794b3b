"""Swarm backend scaling: simulated peer-seconds per wall second.

Acceptance gate for the vectorized swarm tiers (``docs/SCALING.md``):
on the same workload the cohort backend must deliver at least 10x the
exact engine's simulated peer-seconds per wall-clock second at 10^3
peers, and the fluid tier must carry a 10^5-peer session comfortably
inside CI's one-minute budget.

The workload is a short (24 s) video so the exact baseline stays
measurable: the exact engine needs about 45 s of wall time for the
10^3-peer session that the cohort backend finishes in well under a
second.  Join stagger shrinks with population so every tier sees the
same ~1000-second join window inside the 1800-second session cap.
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.core.splicer import DurationSplicer
from repro.p2p import build_swarm
from repro.p2p.swarm import SwarmConfig
from repro.units import kB_per_s
from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.scene import generate_scene_plan

MAX_TIME = 1800.0
EXACT_PEERS = 1_000
_QUICK_EXACT_PEERS = 200
SPEEDUP_FLOOR = 10.0
FLUID_WALL_BUDGET_S = 60.0
#: Timed rounds per case at full scale (``--quick`` times one).
FULL_ROUNDS = 5

_SPLICE = None


def _splice():
    """The benchmark's spliced short video (module-memoized)."""
    global _SPLICE
    if _SPLICE is None:
        rng = random.Random(42)
        plan = generate_scene_plan(24.0, rng)
        video = SyntheticEncoder(
            EncoderConfig(bitrate=950_000.0)
        ).encode(plan, rng)
        _SPLICE = DurationSplicer(4.0).splice(video)
    return _SPLICE


def _session(fidelity, n_leechers, join_stagger):
    """Run one session; self-timed over the simulation loop only."""
    config = SwarmConfig(
        bandwidth=kB_per_s(300),
        seeder_bandwidth=kB_per_s(2400),
        n_leechers=n_leechers,
        seed=7,
        join_stagger=join_stagger,
        max_time=MAX_TIME,
        fidelity=fidelity,
    )
    swarm = build_swarm(_splice(), config)
    started = perf_counter()
    result = swarm.run()
    return result, perf_counter() - started


def _measure(harness, case_id, fidelity, n_leechers, join_stagger, rounds):
    result = harness.case(
        case_id,
        _session,
        fidelity,
        n_leechers,
        join_stagger,
        rounds=rounds,
        params={
            "fidelity": fidelity,
            "n_leechers": n_leechers,
            "join_stagger": join_stagger,
        },
        digest_of=("swarm_scale", fidelity, n_leechers, join_stagger),
        self_timed=True,
    )
    wall = harness.cases[-1].timing.best_s
    rate = n_leechers * result.end_time / max(wall, 1e-9)
    finished = len(result.finished_metrics()) / len(result.metrics)
    harness.annotate(
        sim_seconds=result.end_time,
        peer_sim_seconds_per_sec=rate,
        finished_fraction=finished,
        mean_stall_count=result.mean_stall_count(),
        mean_startup_time=result.mean_startup_time(),
    )
    return rate, wall, finished, result


def run_suite(harness, quick=False):
    exact_peers = _QUICK_EXACT_PEERS if quick else EXACT_PEERS
    rounds = 1 if quick else FULL_ROUNDS
    rows = []

    def row(case_id, fidelity, n, stagger):
        rate, wall, finished, _ = _measure(
            harness, case_id, fidelity, n, stagger, rounds
        )
        rows.append(
            f"  {case_id:>14s}: {wall:8.2f}s wall  "
            f"{rate:14,.0f} peer-sim-s/s  fin={100 * finished:5.1f}%"
        )
        return rate, wall, finished

    exact_rate, _, exact_fin = row(
        f"exact@{exact_peers}", "exact", exact_peers, 1.0
    )
    cohort_rate, _, cohort_fin = row(
        f"cohort@{exact_peers}", "cohort", exact_peers, 1.0
    )
    row("cohort@10000", "cohort", 10_000, 0.1)
    fluid_peers = 10_000 if quick else 100_000
    _, fluid_wall, fluid_fin = row(
        f"fluid@{fluid_peers}", "fluid", fluid_peers, 0.01
    )

    speedup = cohort_rate / max(exact_rate, 1e-9)
    harness.annotate(
        f"cohort@{exact_peers}", speedup_vs_exact=speedup
    )
    lines = [
        "swarm backend scaling (same workload, per tier):",
        *rows,
        "",
        f"cohort speedup over exact @ {exact_peers} peers: "
        f"{speedup:,.0f}x (floor: {SPEEDUP_FLOOR:.0f}x)",
    ]
    harness.emit("\n".join(lines), name="swarm_scale")

    assert exact_fin == 1.0 and cohort_fin == 1.0 and fluid_fin == 1.0
    assert speedup >= SPEEDUP_FLOOR
    if not quick:
        assert fluid_wall < FLUID_WALL_BUDGET_S
    return speedup


def test_swarm_scale(harness):
    run_suite(harness)
