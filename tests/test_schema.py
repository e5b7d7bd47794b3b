"""One mutation property over every ``repro.*`` JSON document.

Each schema starts from a document its real writer produced, suffers
one drawn mutation — a dropped key, a value swapped for another JSON
type, or a bool where an int goes — and is read back through its
loader.  Either the loader rejects it with the schema's typed error,
or the loaded document runs through its downstream consumer without
error.  A ``KeyError``/``TypeError``/``ValueError``/``AttributeError``
escaping from either side is a reader that checked too little.
"""

from __future__ import annotations

import copy
import functools
import json
import tempfile
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ArtifactError, OpsError, StoreError
from repro.experiments import sweep_service
from repro.obs.bench import (
    BenchCase,
    CaseTiming,
    build_artifact,
    load_artifact,
)
from repro.obs.compare import compare_artifacts, render_comparison
from repro.obs.ops import (
    ShardHeartbeat,
    fleet_status,
    read_heartbeat,
    render_fleet,
)

#: One value of each JSON type; a swap draws one of another type.
JSON_VALUES = (None, True, 7, 2.5, "text", [1], {"k": 1})


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def locations(doc, prefix=()):
    """The path of every value nested inside ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from locations(value, prefix + (key,))


def mutate(doc, data):
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(locations(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kinds = ["swap"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(value, int) and not isinstance(value, bool):
        kinds.append("bool")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "bool":
        parent[key] = data.draw(st.booleans())
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from([
            other for other in JSON_VALUES
            if json_type(other) != json_type(value)
        ])))
    return doc


def ticking_clock():
    ticks = count()
    return lambda: 1000.0 + next(ticks)


# -- the schemas: writer, loader, consumer ------------------------


@functools.cache
def artifact_doc():
    cases = [
        BenchCase(
            case_id=f"star/{n}",
            timing=CaseTiming(
                rounds=3, warmup=1, best_s=0.5, mean_s=0.6, stdev_s=0.1
            ),
            params={"n": n},
            digest=f"{n:016x}",
            events_fired=10 * n,
            events_per_sec=20.0 * n,
            sim_seconds=9.5,
            metrics={"stalls": 1.5},
            causes={"startup": n},
        )
        for n in (1, 2)
    ]
    return build_artifact("demo", cases, quick=True)


def consume_artifact(payload):
    valid = artifact_doc()
    for pair in ((valid, payload), (payload, valid)):
        render_comparison(compare_artifacts(*pair))


@functools.cache
def plan_doc():
    return sweep_service.build_plan("2", quick=True, shards=3)


def consume_plan(plan):
    sweep_service._rebuild_specs(plan)
    render_fleet(plan, fleet_status(plan, [], now=0.0))


@functools.cache
def heartbeat_doc():
    with tempfile.TemporaryDirectory() as scratch:
        beat = ShardHeartbeat(
            Path(scratch) / "x.heartbeat.json", shard=0, shards=3,
            interval=0.0, clock=ticking_clock(),
        )
        cell = SimpleNamespace(describe=lambda: "cell")
        beat.begin([SimpleNamespace(cell_index=0, cell=cell)] * 8)
        beat.update(SimpleNamespace(
            ok=True, cached=False, cell_index=0,
            stats=SimpleNamespace(stall_count=0.0),
        ))
        return json.loads(beat.path.read_text(encoding="utf-8"))


def consume_heartbeat(heartbeat):
    plan = plan_doc()
    render_fleet(plan, fleet_status(plan, [heartbeat], now=1010.0))


def write_json(doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")


SCHEMAS = {
    "repro.bench/1": (
        artifact_doc, write_json, load_artifact, ArtifactError,
        consume_artifact,
    ),
    "repro.sweep/1": (
        plan_doc, write_json, sweep_service.load_plan, StoreError,
        consume_plan,
    ),
    "repro.ops/1 heartbeat": (
        heartbeat_doc, write_json, read_heartbeat, OpsError,
        consume_heartbeat,
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_mutation_is_rejected_or_harmless(name, tmp_path, data):
    make, write, load, error, consume = SCHEMAS[name]
    write(mutate(make(), data), tmp_path / "doc")
    try:
        loaded = load(tmp_path / "doc")
    except error:
        return
    consume(loaded)
