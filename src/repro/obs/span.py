"""Wall-clock operation spans: the data model behind ``repro.ops/1``.

The sim-time tracer (:mod:`repro.obs.tracer`) answers "what happened
inside the simulated swarm"; this module answers "where did the *wall*
time of the orchestration layer go" — planning a sweep, running a
shard, executing one cell, committing a store entry, merging shard
stores.  A :class:`Span` is one timed operation with a parent link, so
a shard's log reconstructs into a tree whose root is the shard run and
whose leaves are individual cell runs and store commits.

This module is deliberately pure: spans are plain data plus tree /
critical-path / rendering helpers, and **nothing here reads the wall
clock** — the clock lives in :mod:`repro.obs.ops`, the one module the
lint D1 allowlist sanctions for orchestration-side wall-clock reads.
Keeping the data model clock-free means renderers and tests never need
a sanctioned module and never depend on the host's clock.

Span names form a small taxonomy mirroring the sweep protocol::

    plan            repro sweep plan expanding + digesting a figure
    shard           one `repro sweep run` shard executing its runs
    merge           repro sweep merge absorbing stores + replaying
    store-absorb    one source store unioned into the target
    cell-run        one (cell, seed) run (attrs: cell, seed, cached,
                    pid; cached hits have zero duration *here* — the
                    original compute cost lives in the store entry)
    store-commit    one atomic result-store write
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import schema
from ..errors import OpsError

#: Version tag of the ops-log and heartbeat documents.  Bump the
#: integer on any change to their layout (policy: :mod:`repro.schema`).
OPS_SCHEMA = "repro.ops/1"

#: Span statuses a well-formed log may contain.
SPAN_STATUSES = ("ok", "failed")


@dataclass(slots=True)
class Span:
    """One timed wall-clock operation in an ops log.

    Attributes:
        id: log-unique span id (allocation order, 1-based).
        parent: enclosing span's id, or ``None`` for a root.
        name: operation name from the module taxonomy above.
        start: wall-clock start (seconds since the Unix epoch).
        end: wall-clock end; ``end >= start`` always.
        status: ``"ok"`` or ``"failed"``.
        attrs: JSON-compatible operation attributes (cell label,
            seed, cached flag, worker pid, ...).  Mutable so code
            holding an open span can attach facts it only learns
            mid-operation.
    """

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds the operation took."""
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        """The span as the JSONL record the log stores."""
        return {
            "kind": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attrs,
        }


_SPAN = schema.table({
    "kind": schema.one_of(("span",)),
    "id": schema.integer(1),
    "parent?": schema.nullable(schema.integer(1)),
    "name": schema.STR,
    "start": schema.NUMBER,
    "end": schema.NUMBER,
    "status": schema.one_of(SPAN_STATUSES),
    "attrs?": schema.nullable(schema.table({})),
})


def span_from_dict(record: object) -> Span:
    """Rebuild a :class:`Span` from a parsed JSONL record.

    Raises:
        OpsError: when the record is not a structurally valid span.
    """
    schema.validate(record, _SPAN, OpsError, "span")
    return Span(
        id=record["id"],
        parent=record.get("parent"),
        name=record["name"],
        start=float(record["start"]),
        end=float(record["end"]),
        status=record["status"],
        attrs=record.get("attrs") or {},
    )


def children_of(spans: list[Span]) -> dict[int | None, list[Span]]:
    """Index spans by parent id; children keep log (start) order."""
    index: dict[int | None, list[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    for group in index.values():
        group.sort(key=lambda s: (s.start, s.id))
    return index


def critical_path(spans: list[Span]) -> list[Span]:
    """The chain of spans that bounded the log's wall time.

    Walks from the longest root down, at each level following the
    child whose *end* is latest — the operation the parent was still
    waiting on when it finished.  For a shard this surfaces the cell
    run (or store commit) that the sweep could not have finished
    without.
    """
    if not spans:
        return []
    index = children_of(spans)
    roots = index.get(None, [])
    if not roots:
        # An orphaned log (parent spans lost mid-crash): treat the
        # earliest span as the root so rendering still works.
        roots = [min(spans, key=lambda s: (s.start, s.id))]
    node = max(roots, key=lambda s: (s.duration, -s.id))
    path = [node]
    while True:
        kids = index.get(node.id, [])
        if not kids:
            return path
        node = max(kids, key=lambda s: (s.end, s.id))
        path.append(node)


def _span_label(span: Span) -> str:
    """``name`` plus the attrs that identify the operation."""
    parts = [span.name]
    cell = span.attrs.get("cell")
    if cell:
        seed = span.attrs.get("seed")
        tag = f"{cell}" if seed is None else f"{cell} seed {seed}"
        parts.append(f"[{tag}]")
    if span.attrs.get("cached"):
        parts.append("(cached)")
    if span.status != "ok":
        parts.append("FAILED")
    return " ".join(parts)


def render_span_tree(spans: list[Span], max_depth: int = 8) -> str:
    """The log as an indented wall-clock tree, one span per line."""
    if not spans:
        return "(empty ops log)"
    index = children_of(spans)
    known = {span.id for span in spans}
    roots = index.get(None, []) + [
        span
        for parent, group in index.items()
        if parent is not None and parent not in known
        for span in group
    ]
    roots.sort(key=lambda s: (s.start, s.id))
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{_span_label(span)}  {span.duration:.3f}s"
        )
        if depth + 1 >= max_depth:
            return
        for child in index.get(span.id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def render_critical_path(spans: list[Span]) -> str:
    """The critical path with each hop's share of total wall time."""
    path = critical_path(spans)
    if not path:
        return "critical path: (empty ops log)"
    total = path[0].duration
    lines = [f"critical path ({total:.3f}s total wall):"]
    for depth, span in enumerate(path):
        share = (
            100.0 * span.duration / total if total > 0 else 100.0
        )
        arrow = "" if depth == 0 else "  " * (depth - 1) + "└ "
        lines.append(
            f"  {arrow}{_span_label(span)}  "
            f"{span.duration:.3f}s  {share:5.1f}%"
        )
    return "\n".join(lines)
