"""Golden results of the vectorized tiers: every float pinned.

The cohort and fluid tiers are deterministic, so a change that is
meant to make them faster must leave each session's
:class:`~repro.p2p.swarm.SwarmResult` bit-identical.  Each case below
pins the sha256 of ``repr(result)`` for one session; any moved float,
stall, departure or byte count changes the digest.

The digests live in ``tests/data/scale_golden.json``.  Re-record them
only for a change that is meant to move results, and say so::

    PYTHONPATH=src python -m tests.p2p.test_scale_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.splicer import DurationSplicer
from repro.experiments.config import ExperimentConfig, make_swarm_config
from repro.p2p import SwarmConfig, build_swarm
from repro.p2p.churn import ChurnConfig
from repro.parallel.cache import cached_splice
from repro.parallel.spec import SplicerSpec, VideoSpec
from repro.units import kB_per_s
from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.scene import generate_scene_plan

from ..conftest import requires_numpy

GOLDEN = (
    Path(__file__).resolve().parents[1] / "data" / "scale_golden.json"
)

#: The paper's splicing techniques the 19-leecher cases run.
_SPLICERS = {
    "4s": SplicerSpec("duration", 4.0),
    "gop": SplicerSpec("gop"),
}


def _paper_session(splicer, bandwidth_kb, wave=None, **experiment):
    """A 19-leecher cohort session on the paper's video and defaults."""
    config = ExperimentConfig(fidelity="cohort", **experiment)
    splice = cached_splice(
        VideoSpec(seed=config.video_seed), _SPLICERS[splicer]
    )
    swarm = build_swarm(
        splice, make_swarm_config(bandwidth_kb, 7, config)
    )
    if wave is not None:
        low, high, half = wave
        swarm.sim.schedule(half, _edge, swarm, half, low, high)
    return swarm.run()


def _edge(swarm, half, level, next_level):
    """One square-wave edge through ``set_peer_bandwidth``."""
    swarm.set_peer_bandwidth(level)
    swarm.sim.schedule(half, _edge, swarm, half, next_level, level)


def _short_splice():
    """The 24-second video the CI scale smoke streams, in 4 s segments."""
    rng = random.Random(42)
    plan = generate_scene_plan(24.0, rng)
    video = SyntheticEncoder(EncoderConfig(bitrate=950_000.0)).encode(
        plan, rng
    )
    return DurationSplicer(4.0).splice(video)


def _large_session(fidelity, n, stagger, churn=None):
    """A 64-cohort session at the CI scale smoke's parameters."""
    config = SwarmConfig(
        bandwidth=kB_per_s(300),
        seeder_bandwidth=kB_per_s(2400),
        n_leechers=n,
        seed=7,
        join_stagger=stagger,
        max_time=1800.0,
        fidelity=fidelity,
        churn=churn,
    )
    return build_swarm(_short_splice(), config).run()


_CHURN = ChurnConfig(fraction=0.3)

CASES = {
    "cohort-19-4s@128": lambda: _paper_session("4s", 128),
    "cohort-19-4s@512": lambda: _paper_session("4s", 512),
    "cohort-19-gop@128": lambda: _paper_session("gop", 128),
    "cohort-19-gop@512": lambda: _paper_session("gop", 512),
    "cohort-19-4s@256-churn30": lambda: _paper_session(
        "4s", 256, churn=_CHURN
    ),
    "cohort-19-4s@256-square-wave": lambda: _paper_session(
        "4s", 256, wave=(kB_per_s(128), kB_per_s(384), 10.0)
    ),
    "cohort-1000": lambda: _large_session("cohort", 1_000, 1.0),
    "fluid-10000": lambda: _large_session("fluid", 10_000, 0.01),
    "fluid-10000-churn30": lambda: _large_session(
        "fluid", 10_000, 0.01, churn=_CHURN
    ),
}


def digest(name: str) -> str:
    """The sha256 of ``repr`` of case ``name``'s ``SwarmResult``."""
    result = CASES[name]()
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


@requires_numpy
@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(name) == expected[name]


def test_every_case_has_a_golden_digest():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in sorted(CASES)}, indent=2)
        + "\n",
        encoding="utf-8",
    )
