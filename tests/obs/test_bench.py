"""BenchHarness and the ``repro.bench/1`` artifact schema."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.errors import ArtifactError, BenchError
from repro.obs.bench import (
    BenchHarness,
    SCHEMA,
    build_artifact,
    discover_suites,
    load_artifact,
    load_suite,
    validate_artifact,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class FakeClock:
    """Monotonic clock advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_harness(tmp_path, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    return BenchHarness("demo", results_dir=tmp_path, **kwargs)


class TestCaseTiming:
    def test_fixed_rounds_keep_minimum(self, tmp_path):
        calls = []
        harness = make_harness(tmp_path)
        result = harness.case(
            "c", lambda: calls.append(1) or len(calls), rounds=3
        )
        assert result == 3  # last round's return value
        case = harness.cases[0]
        assert case.timing.rounds == 3
        # FakeClock steps 1.0 per reading: every round's wall is 1.0.
        assert case.timing.best_s == pytest.approx(1.0)
        assert case.timing.mean_s == pytest.approx(1.0)
        assert case.timing.stdev_s == 0.0

    def test_warmup_rounds_are_discarded(self, tmp_path):
        calls = []
        harness = make_harness(tmp_path)
        harness.case(
            "c", lambda: calls.append(1), rounds=2, warmup=3
        )
        assert len(calls) == 5
        assert harness.cases[0].timing.rounds == 2
        assert harness.cases[0].timing.warmup == 3

    def test_budget_mode_repeats_until_spent(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("c", lambda: None, budget_s=2.5)
        # Each round costs 1.0 fake second; 3 rounds cross 2.5.
        assert harness.cases[0].timing.rounds == 3

    def test_self_timed_uses_reported_wall(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("c", lambda: ("payload", 0.25), self_timed=True)
        assert harness.cases[0].timing.best_s == 0.25

    def test_self_timed_rejects_bad_wall(self, tmp_path):
        harness = make_harness(tmp_path)
        with pytest.raises(BenchError):
            harness.case(
                "c", lambda: ("payload", -1.0), self_timed=True
            )

    def test_duplicate_case_id_rejected(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("c", lambda: None)
        with pytest.raises(BenchError):
            harness.case("c", lambda: None)

    def test_invalid_suite_name_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            BenchHarness("a/b", results_dir=tmp_path)


class TestAnnotate:
    def test_events_per_sec_derived_from_best_wall(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("c", lambda: ("x", 0.5), self_timed=True)
        harness.annotate(events_fired=1000, sim_seconds=60.0)
        case = harness.cases[0]
        assert case.events_fired == 1000
        assert case.events_per_sec == pytest.approx(2000.0)
        assert case.sim_seconds == 60.0

    def test_analysis_object_is_folded_in(self, tmp_path):
        class Analysis:
            causes = {"startup": 3, "seeder-bottleneck": 1}
            stall_count = 4
            mean_transfer_efficiency = 0.82

        harness = make_harness(tmp_path)
        harness.case("c", lambda: None)
        harness.annotate(analysis=Analysis())
        case = harness.cases[0]
        assert case.causes == {"startup": 3, "seeder-bottleneck": 1}
        assert case.metrics["attributed_stalls"] == 4.0
        assert case.metrics["transfer_efficiency"] == 0.82

    def test_annotate_by_case_id(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("first", lambda: None)
        harness.case("second", lambda: None)
        harness.annotate("first", speedup=2.0)
        assert harness.cases[0].metrics == {"speedup": 2.0}
        assert harness.cases[1].metrics == {}

    def test_annotate_unknown_case_rejected(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case("c", lambda: None)
        with pytest.raises(BenchError):
            harness.annotate("nope", x=1.0)

    def test_annotate_before_any_case_rejected(self, tmp_path):
        harness = make_harness(tmp_path)
        with pytest.raises(BenchError):
            harness.annotate(x=1.0)


class TestEmit:
    def test_writes_table_next_to_artifact(self, tmp_path, capsys):
        harness = make_harness(tmp_path)
        harness.emit("a table", name="my_table")
        assert (tmp_path / "my_table.txt").read_text() == "a table\n"
        assert "a table" in capsys.readouterr().out

    def test_quick_run_never_overwrites_tables(self, tmp_path, capsys):
        (tmp_path / "my_table.txt").write_text("committed\n")
        harness = make_harness(tmp_path, quick=True)
        harness.emit("fresh", name="my_table")
        assert (tmp_path / "my_table.txt").read_text() == "committed\n"
        assert "fresh" in capsys.readouterr().out


class TestArtifactRoundTrip:
    def test_write_then_load_validates(self, tmp_path):
        harness = make_harness(tmp_path)
        harness.case(
            "c",
            lambda: None,
            params={"n": 3},
            digest_of=("workload", 3),
        )
        harness.annotate(events_fired=10, stalls=1.5)
        target = harness.write()
        assert target == tmp_path / "BENCH_demo.json"
        payload = load_artifact(target)
        assert payload["schema"] == SCHEMA
        assert payload["suite"] == "demo"
        assert payload["quick"] is False
        case = payload["cases"][0]
        assert case["id"] == "c"
        assert case["params"] == {"n": 3}
        assert len(case["digest"]) == 16
        assert case["metrics"] == {"stalls": 1.5}
        env = payload["manifest"]["env"]
        assert env["python"] and env["platform"]
        assert env["usable_cores"] >= 1

    def test_quick_flag_recorded(self, tmp_path):
        harness = make_harness(tmp_path, quick=True)
        harness.case("c", lambda: None)
        payload = load_artifact(harness.write())
        assert payload["quick"] is True

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(tmp_path / "nope.json")


class TestProvenance:
    def test_manifest_is_taken_before_the_cases_run(self, monkeypatch):
        # A full run rewrites its committed tables, so the git state
        # must describe the tree as it was when the harness started.
        from repro.obs import manifest

        states = iter([{"git": {"dirty": False}}, {"git": {"dirty": True}}])
        monkeypatch.setattr(manifest, "build_manifest", lambda: next(states))
        harness = BenchHarness("demo", clock=FakeClock())
        harness.case("c", lambda: None)
        assert harness.artifact()["manifest"] == {"git": {"dirty": False}}


class TestValidate:
    def _valid(self):
        harness = BenchHarness("demo", clock=FakeClock())
        harness.case("c", lambda: None)
        return harness.artifact()

    def test_round_trip_through_json_stays_valid(self):
        payload = json.loads(json.dumps(self._valid()))
        validate_artifact(payload)

    def test_rejects_unknown_schema(self):
        payload = self._valid()
        payload["schema"] = "repro.bench/999"
        with pytest.raises(ArtifactError, match="expected schema 'repro.bench/1'"):
            validate_artifact(payload)

    def test_rejects_duplicate_case_ids(self):
        payload = self._valid()
        payload["cases"].append(dict(payload["cases"][0]))
        with pytest.raises(ArtifactError, match="duplicate case id"):
            validate_artifact(payload)

    def test_rejects_inconsistent_timing(self):
        payload = self._valid()
        payload["cases"][0]["timing"]["best_s"] = 10.0
        payload["cases"][0]["timing"]["mean_s"] = 1.0
        with pytest.raises(ArtifactError, match="best_s exceeds"):
            validate_artifact(payload)

    def test_rejects_negative_cause_counts(self):
        payload = self._valid()
        payload["cases"][0]["causes"] = {"startup": -1}
        with pytest.raises(ArtifactError, match="causes"):
            validate_artifact(payload)

    def test_rejects_non_numeric_metric(self):
        payload = self._valid()
        payload["cases"][0]["metrics"] = {"stalls": "many"}
        with pytest.raises(ArtifactError, match="expected a number"):
            validate_artifact(payload)

    def test_rejects_missing_env(self):
        payload = self._valid()
        del payload["manifest"]["env"]
        with pytest.raises(ArtifactError, match="manifest.env"):
            validate_artifact(payload)


class TestGoldenFixture:
    """The committed example artifact stays schema-valid forever.

    If a schema change invalidates this fixture, that change is
    backwards-incompatible and the schema tag must be bumped (see
    docs/OBSERVABILITY.md).
    """

    def test_golden_artifact_is_valid(self):
        payload = load_artifact(FIXTURES / "BENCH_golden.json")
        assert payload["schema"] == SCHEMA
        assert [case["id"] for case in payload["cases"]] == [
            "star/20/incremental",
            "star/20/reference",
        ]

    def test_golden_self_compare_is_clean(self):
        from repro.obs.compare import compare_artifacts

        payload = load_artifact(FIXTURES / "BENCH_golden.json")
        comparison = compare_artifacts(payload, payload)
        assert comparison.ok
        assert not comparison.missing and not comparison.added
        for row in comparison.rows:
            assert row.verdict == "neutral"
            assert row.delta_pct == 0.0


class TestSuiteDiscovery:
    def test_discovers_bench_scripts(self, tmp_path):
        (tmp_path / "bench_alpha.py").write_text("x = 1\n")
        (tmp_path / "bench_beta.py").write_text("x = 2\n")
        (tmp_path / "helper.py").write_text("x = 3\n")
        suites = discover_suites(tmp_path)
        assert sorted(suites) == ["alpha", "beta"]

    def test_load_suite_requires_run_suite(self, tmp_path):
        script = tmp_path / "bench_alpha.py"
        script.write_text("x = 1\n")
        with pytest.raises(BenchError, match="run_suite"):
            load_suite("alpha", script)

    def test_load_suite_wraps_import_errors(self, tmp_path):
        script = tmp_path / "bench_alpha.py"
        script.write_text("raise ValueError('boom')\n")
        with pytest.raises(BenchError, match="boom"):
            load_suite("alpha", script)

    def test_load_suite_runs(self, tmp_path):
        script = tmp_path / "bench_alpha.py"
        script.write_text(
            "def run_suite(harness, quick=False):\n"
            "    harness.case('only', lambda: None)\n"
            "    return 'done'\n"
        )
        module = load_suite("alpha", script)
        harness = BenchHarness(
            "alpha", results_dir=tmp_path, clock=FakeClock()
        )
        assert module.run_suite(harness) == "done"
        assert [case.case_id for case in harness.cases] == ["only"]


class TestPaperSuite:
    """``benchmarks/bench_paper.py``: one row per case, one table each."""

    BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

    def test_rows_name_unique_cases_and_committed_tables(self):
        module = load_suite("paper", self.BENCHMARKS / "bench_paper.py")
        ids = [case.id for case in module.CASES]
        assert len(ids) == len(set(ids))
        # Rows sharing a table are adjacent, so each table name names
        # one block of rows.
        grouped = [case for rows in module.TABLES.values() for case in rows]
        assert grouped == list(module.CASES)
        committed = {
            path.stem for path in (self.BENCHMARKS / "results").glob("*.txt")
        }
        assert set(module.TABLES) <= committed


class TestOpsOverheadGate:
    """``bench_sweep_cache.py --check`` fails on a costly heartbeat."""

    BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

    def test_a_slow_heartbeat_trips_the_gate(self, monkeypatch):
        from repro.obs.ops import ShardHeartbeat

        module = load_suite(
            "sweep_cache", self.BENCHMARKS / "bench_sweep_cache.py"
        )
        write = ShardHeartbeat._write

        def slow_write(self, *args, **kwargs):
            time.sleep(0.02)
            write(self, *args, **kwargs)

        monkeypatch.setattr(ShardHeartbeat, "_write", slow_write)
        monkeypatch.setattr(module, "_OPS_CHECK_REPEATS", 1)
        with pytest.raises(SystemExit, match="ops telemetry slows"):
            module.check_ops_overhead(quick=True)


class TestBuildArtifact:
    def test_empty_suite_is_valid(self):
        payload = build_artifact("empty", [])
        validate_artifact(payload)
        assert payload["cases"] == []
