"""Operational wall-clock telemetry for the sweep orchestration layer.

Two cooperating pieces around the ``repro.ops/1`` heartbeat:

* :class:`ShardHeartbeat` — a single JSON file a running shard
  atomically rewrites (temp file + ``os.replace``) every
  ``interval`` seconds: shard id, run counters, last commit time, and
  an ETA from the observed run rate, all read from one
  :class:`~repro.parallel.progress.SweepTally`.  A reader can never
  see a torn heartbeat, and a killed shard is detectable because its
  heartbeat goes stale while still claiming ``state: running``.
* :func:`fleet_status` / :func:`render_fleet` — the aggregation
  behind ``repro sweep status``: join a plan's per-shard run counts
  with every shard's heartbeat into per-shard progress, flag
  stragglers (rate below a fraction of the fleet median), and flag
  dead shards (stale heartbeat).

A shard's wall time is its terminal heartbeat's ``updated -
started``; each computed run's wall time and pid are in its
``repro.store/1`` entry (:class:`~repro.parallel.store.ResultStore`).

This is the **one orchestration module that reads the wall clock**
(it sits outside the sim-path scope lint rule D1 checks): sim-path
code that wants wall telemetry calls in here instead of touching
``time`` itself.  An absent heartbeat is simply not called.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from statistics import median
from typing import Iterable, Sequence

from .. import schema
from ..errors import OpsError

#: Version tag of the heartbeat document.  Bump the integer on any
#: change to its layout (policy: :mod:`repro.schema`).
OPS_SCHEMA = "repro.ops/1"

#: Directory (under a result-store root) holding the heartbeats of
#: the shards that ran against that store.
OPS_DIR = "repro.ops"

#: Heartbeats older than this (seconds) mark their shard dead.
DEFAULT_STALE_AFTER_S = 30.0

#: A running shard whose rate is below this fraction of the fleet
#: median is flagged as a straggler.
DEFAULT_STRAGGLER_BELOW = 0.5

#: Recognized terminal heartbeat states (plus ``"running"``).
HEARTBEAT_STATES = ("running", "done", "failed")


def ops_root(store_root: str | Path) -> Path:
    """The telemetry directory next to a result store's entries."""
    return Path(store_root) / OPS_DIR


def heartbeat_path(store_root: str | Path, shard: int) -> Path:
    """Heartbeat path for one shard running against a store."""
    return ops_root(store_root) / f"shard-{shard}.heartbeat.json"


class ShardHeartbeat:
    """One shard's atomically-rewritten liveness + progress file.

    A persister of one :class:`~repro.parallel.progress.SweepTally`,
    driven by the executor like the progress sink: :meth:`begin` with
    the shard's run specs, :meth:`update` once per settled run,
    :meth:`finish` at the end.  Every write is a whole new document
    moved into place with ``os.replace``, so concurrent readers
    (``repro sweep status --watch``) never see a torn file.

    Args:
        path: heartbeat file (see :func:`heartbeat_path`).
        shard: this shard's index in its plan.
        shards: total shards in the plan.
        interval: minimum seconds between rewrites; updates arriving
            faster are folded into the next one (begin, finish, and
            the final run always write).
        clock: epoch-seconds time source (tests inject a fake one).
    """

    def __init__(
        self,
        path: str | Path,
        shard: int,
        shards: int,
        interval: float = 1.0,
        clock=time.time,
    ) -> None:
        # Imported here: the parallel package imports this module.
        from ..parallel.progress import SweepTally

        self.path = Path(path)
        self.shard = shard
        self.shards = shards
        self.interval = interval
        self.tally = SweepTally(clock)

    def begin(self, specs: Sequence) -> None:
        """Start the shard: zero the counts, write immediately."""
        self.tally.begin(specs)
        self._write("running", force=True)

    def update(self, outcome) -> None:
        """Record one settled run."""
        self.tally.update(outcome)
        self._write("running", force=not self.tally.in_flight)

    def finish(self) -> None:
        """Write the terminal heartbeat.

        The state is ``done`` only when every run settled and none
        failed; otherwise it is ``failed``: the store holds only the
        successful runs, so the shard is not finished work.
        """
        self._write(
            "done" if self.tally.complete else "failed", force=True
        )

    def _write(self, state: str, force: bool = False) -> None:
        tally = self.tally
        if not tally.due(self.interval, force):
            return
        now = tally.reported
        payload = {
            "schema": OPS_SCHEMA,
            "kind": "heartbeat",
            "shard": self.shard,
            "shards": self.shards,
            "pid": os.getpid(),
            "state": state,
            "started": tally.started,
            "updated": now,
            "runs_total": tally.total,
            "runs_done": tally.done,
            "runs_computed": tally.computed,
            "runs_cached": tally.cached,
            "runs_failed": tally.failed,
            "in_flight": tally.in_flight,
            "last_commit": tally.last_commit,
            "rate_runs_per_s": tally.rate(now),
            "eta_s": tally.eta(now),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f"{self.path.name}.tmp.{os.getpid()}"
        )
        tmp.write_text(
            json.dumps(payload, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)


_HEARTBEAT = schema.table({
    "schema": schema.tag(OPS_SCHEMA),
    "kind": schema.one_of(("heartbeat",)),
    "shard": schema.COUNT,
    "state": schema.one_of(HEARTBEAT_STATES),
    "updated": schema.NUMBER,
    "runs_total": schema.COUNT,
    "runs_done": schema.COUNT,
    "runs_computed": schema.COUNT,
    "runs_cached": schema.COUNT,
    "runs_failed": schema.COUNT,
    "in_flight": schema.COUNT,
    "last_commit": schema.nullable(schema.NUMBER),
    "rate_runs_per_s": schema.nullable(schema.number(0.0)),
    "eta_s": schema.nullable(schema.number(0.0)),
})


def read_heartbeat(path: str | Path) -> dict:
    """Read and validate one heartbeat file.

    Raises:
        OpsError: unreadable file, malformed JSON, or schema drift.
    """
    return schema.load_json(path, _HEARTBEAT, OpsError, "heartbeat")


def find_heartbeats(
    store_roots: Iterable[str | Path],
) -> list[dict]:
    """Every shard heartbeat under the given store directories.

    Later stores win when two carry the same shard (the fleet view
    takes the freshest file per shard anyway).
    """
    payloads: list[dict] = []
    for root in store_roots:
        directory = ops_root(root)
        if not directory.is_dir():
            continue
        for path in sorted(
            directory.glob("shard-*.heartbeat.json")
        ):
            payloads.append(read_heartbeat(path))
    return payloads


class ShardStatus:
    """One shard's row in the fleet view (plain attributes).

    Attributes mirror the heartbeat counters, joined with the plan:
    ``planned`` comes from the plan's shard partition, everything
    else from the freshest heartbeat.  ``state`` is one of
    ``missing`` (no heartbeat yet), ``running``, ``done``,
    ``failed``, or ``dead`` (heartbeat stale while claiming to run);
    ``straggler`` marks a running shard whose rate fell below the
    fleet-median fraction.
    """

    __slots__ = (
        "shard",
        "planned",
        "done",
        "computed",
        "cached",
        "failed",
        "in_flight",
        "rate",
        "eta_s",
        "age_s",
        "state",
        "straggler",
        "note",
    )

    def __init__(self, shard: int, planned: int) -> None:
        self.shard = shard
        self.planned = planned
        self.done = 0
        self.computed = 0
        self.cached = 0
        self.failed = 0
        self.in_flight = 0
        self.rate: float | None = None
        self.eta_s: float | None = None
        self.age_s: float | None = None
        self.state = "missing"
        self.straggler = False
        self.note = ""


def fleet_status(
    plan: dict,
    heartbeats: Sequence[dict],
    now: float,
    stale_after: float = DEFAULT_STALE_AFTER_S,
    straggler_below: float = DEFAULT_STRAGGLER_BELOW,
) -> list[ShardStatus]:
    """Join a plan with shard heartbeats into per-shard statuses.

    Args:
        plan: a validated ``repro.sweep/1`` plan document.
        heartbeats: validated heartbeat payloads (see
            :func:`find_heartbeats`); the freshest per shard wins.
        now: the caller's wall clock (injected so tests — and the
            ``--watch`` loop — control staleness deterministically).
        stale_after: seconds after which a ``running`` heartbeat
            marks its shard dead.
        straggler_below: fraction of the median running rate below
            which a live shard is flagged a straggler.
    """
    shards = plan["shards"]
    planned = [0] * shards
    for run in plan["runs"]:
        planned[run["shard"]] += 1
    freshest: dict[int, dict] = {}
    for payload in heartbeats:
        shard = payload["shard"]
        if not 0 <= shard < shards:
            continue
        held = freshest.get(shard)
        if held is None or payload["updated"] > held["updated"]:
            freshest[shard] = payload
    statuses = [
        ShardStatus(shard, planned[shard]) for shard in range(shards)
    ]
    for status in statuses:
        payload = freshest.get(status.shard)
        if payload is None:
            status.note = "no heartbeat"
            continue
        status.done = payload["runs_done"]
        status.computed = payload["runs_computed"]
        status.cached = payload["runs_cached"]
        status.failed = payload["runs_failed"]
        status.in_flight = payload["in_flight"]
        status.rate = payload["rate_runs_per_s"]
        status.eta_s = payload["eta_s"]
        status.age_s = max(0.0, now - payload["updated"])
        state = payload["state"]
        if state in ("done", "failed"):
            status.state = state
        elif status.age_s > stale_after:
            status.state = "dead"
            status.note = (
                f"heartbeat {status.age_s:.0f}s stale"
            )
        else:
            status.state = "running"
    running = [
        s.rate
        for s in statuses
        if s.state == "running" and s.rate
    ]
    if len(running) >= 2:
        fleet_median = median(running)
        for status in statuses:
            if (
                status.state == "running"
                and status.rate is not None
                and fleet_median > 0
                and status.rate < straggler_below * fleet_median
            ):
                status.straggler = True
                status.note = (
                    f"{status.rate:.2f} runs/s vs fleet median "
                    f"{fleet_median:.2f}"
                )
    return statuses


def _bar(done: int, total: int, width: int = 20) -> str:
    if total <= 0:
        return "·" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "·" * (width - filled)


def render_fleet(
    plan: dict, statuses: Sequence[ShardStatus]
) -> str:
    """The fleet view ``repro sweep status`` prints."""
    total_planned = sum(s.planned for s in statuses)
    total_done = sum(s.done for s in statuses)
    header = (
        f"sweep fleet: figure {plan['figure']}"
        f"{' (quick)' if plan.get('quick') else ''} — "
        f"{len(statuses)} shard(s), "
        f"{total_done}/{total_planned} runs done"
    )
    lines = [header]
    for status in statuses:
        bar = _bar(status.done, status.planned)
        detail = (
            f"{status.computed} computed, {status.cached} cached"
        )
        if status.failed:
            detail += f", {status.failed} FAILED"
        if status.state == "running":
            rate = (
                f"{status.rate:.2f} runs/s"
                if status.rate is not None
                else "rate ?"
            )
            eta = (
                f"ETA {status.eta_s:.0f}s"
                if status.eta_s is not None
                else "ETA ?"
            )
            tail = f"{rate}  {eta}  running"
            if status.straggler:
                tail += f"  STRAGGLER ({status.note})"
        elif status.state == "dead":
            tail = f"DEAD ({status.note})"
        elif status.state == "missing":
            tail = "missing (no heartbeat)"
        elif status.state == "failed":
            tail = "FAILED"
        else:
            tail = "done"
        lines.append(
            f"shard {status.shard}  [{bar}]  "
            f"{status.done}/{status.planned} runs  "
            f"{detail}  {tail}"
        )
    return "\n".join(lines)
