"""Self-test of the benchmark: contract format and a minimal run of each
workload.

Checks ``BENCHMARK.json`` against the benchmark contract, runs every
workload ``run.py`` knows (or the ones named) for one second with ``--trace 0`` and
``--trace 1``, validates the result line of each — exact keys, types,
``correct``, zero failures and every named metric present with its
unit — repeats each traced run, for another number of traced passes
where a pass is short enough (``RECOUNT_SECONDS``), to check that the
printed per-layer counts are identical across runs and do not depend on
the number of passes, and checks that the benchmark exits
non-zero, printing no result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.

Usage (from the repository root; about eight minutes for all)::

    python3 perfbench/selftest.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

#: ``--seconds`` of the repeated traced run per workload: dozens of
#: traced passes fewer (warm), at least three against two (cohort,
#: 4-7 s passes), or the same two (cold: three 30 s traced passes and
#: two untraced would outlast a run's time limit).
RECOUNT_SECONDS = {"grid-warm": 0.001, "grid-cohort": 30.0, "grid-cold": 1.0}


def check_spec(spec: dict) -> None:
    """Raise ``AssertionError`` where ``BENCHMARK.json`` breaks the contract."""
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/"), path
        assert ".." not in path.split("/"), path
    command = spec["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}, workload
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec).encode("utf-8")) <= 64 * 1024


def check_result(stdout: str, metrics: list[dict]) -> dict:
    """Validate a run's result line against the named ``metrics``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    for key in ("attempted", "failed"):
        assert type(result[key]) is int, (key, result[key])
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    got = result["metrics"]
    assert set(got) == {m["name"] for m in metrics}, sorted(
        set(got) ^ {m["name"] for m in metrics}
    )
    for metric in metrics:
        entry = got[metric["name"]]
        assert set(entry) == {"value", "unit"}, entry
        assert entry["unit"] == metric["unit"], (metric, entry)
        value = entry["value"]
        assert type(value) in (int, float) and math.isfinite(value), entry
    return result


def run(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def minimal_run(workload: str, trace: int, seconds: float = 1.0) -> dict:
    """Run ``workload`` for ``seconds``; return its stderr record."""
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    done = run(
        SPEC["command"]
        + [
            "--workload", workload,
            "--seed", "0",
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = check_result(done.stdout, metrics)
    print(
        f"{workload} --trace {trace} --seconds {seconds}: ok "
        f"({result['attempted']} runs attempted)"
    )
    return json.loads(done.stderr.strip().splitlines()[-1])


def layer_counts(record: dict) -> dict:
    """The per-layer counts (and hit ratio) a traced run printed."""
    counted = {
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] in ("count", "ratio")
        and m["name"] != "ledger.tracing_overhead"
    }
    return {
        name: entry["value"]
        for name, entry in record["metrics"].items()
        if name in counted
    }


def check_recount(workload: str, first: dict) -> None:
    """Repeat a traced run; its printed counts must equal ``first``'s."""
    seconds = RECOUNT_SECONDS.get(workload, 1.0)
    again = minimal_run(workload, 1, seconds)
    assert again["traced_pass_counts"] == first["traced_pass_counts"], (
        first["traced_pass_counts"],
        again["traced_pass_counts"],
    )
    assert layer_counts(again) == layer_counts(first), (
        layer_counts(first),
        layer_counts(again),
    )
    passes = (first["passes"]["traced"], again["passes"]["traced"])
    if seconds != 1.0:
        assert passes[0] != passes[1], f"both runs traced {passes[0]} passes"
    print(
        f"{workload}: per-layer counts identical across two runs "
        f"of {passes[0]} and {passes[1]} traced passes"
    )


def main(argv: list[str]) -> int:
    check_spec(SPEC)
    print("BENCHMARK.json: ok")
    wanted = argv or list(WORKLOADS)
    for workload in wanted:
        minimal_run(workload, 0)
        check_recount(workload, minimal_run(workload, 1))

    # Without the program beside it the benchmark must fail, quietly.
    bare = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path,
                bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        done = run(
            SPEC["command"]
            + ["--workload", wanted[0], "--seed", "0", "--seconds", "1"],
            bare,
        )
        assert done.returncode != 0, done.stdout
        assert not done.stdout.strip(), done.stdout
        print("bare directory: fails as it should")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run's work directory is still there
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
