"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def leaf_parsers(parser, path=()):
    """``(command path, parser)`` for every leaf subcommand."""
    groups = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not groups:
        yield path, parser
        return
    for name, child in groups[0].choices.items():
        yield from leaf_parsers(child, path + (name,))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_quick_flag(self):
        args = build_parser().parse_args(["fig2", "--quick"])
        assert args.quick

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_reproduce_trace_flags(self):
        args = build_parser().parse_args(
            ["reproduce", "--figure", "2", "--trace", "/tmp/t.jsonl"]
        )
        assert args.figure == "2"
        assert args.trace == "/tmp/t.jsonl"

    def test_reproduce_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--figure", "9"])

    def test_figure_ids_match_the_figure_table(self):
        from repro import cli
        from repro.experiments.reproduce import FIGURES

        assert cli._FIGURE_IDS == tuple(FIGURES)

    def test_every_leaf_subcommand_has_a_handler(self):
        leaves = dict(leaf_parsers(build_parser()))
        assert ("fig2",) in leaves
        assert ("sweep", "status") in leaves
        for path, leaf in leaves.items():
            assert callable(leaf.get_default("handler")), path

    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    def test_figure_alias_parses_as_reproduce(self, n):
        alias = vars(build_parser().parse_args([f"fig{n}", "--quick"]))
        direct = vars(build_parser().parse_args(
            ["reproduce", "--quick", "--figure", n]
        ))
        assert alias.pop("command") == f"fig{n}"
        assert direct.pop("command") == "reproduce"
        assert alias == direct

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "--no-cache"],
            ["ops", "shard-0.ops.jsonl"],
            ["sweep", "status", "p", "--store", "s", "--interval", "1"],
            ["sweep", "status", "p", "--store", "s", "--stale", "1"],
            ["sweep", "status", "p", "--store", "s", "--straggler", "1"],
        ],
    )
    def test_removed_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "gop" in out
        assert "duration-8s" in out
        assert "%" in out

    def test_rspec(self, capsys):
        assert main(["rspec", "--peers", "2", "--capacity", "1024"]) == 0
        out = capsys.readouterr().out
        assert "<rspec" in out
        assert 'capacity="1024"' in out

    def test_timeline(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--peers",
                    "2",
                    "--bandwidth",
                    "512",
                    "--duration",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "peer-1" in out
        assert "$" in out  # someone finished

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeline", "--peers", "0"],
            ["timeline", "--duration", "0"],
            ["quickstart", "--bandwidth", "0"],
            ["rspec", "--peers", "0"],
            ["reproduce", "--jobs", "0"],
            [
                "sweep", "run", "PLAN", "--shard", "0", "--store", "D",
                "--jobs", "0",
            ],
        ],
    )
    def test_bad_input_is_an_error_not_a_traceback(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.slow
    def test_quickstart(self, capsys):
        assert main(["quickstart", "--bandwidth", "512"]) == 0
        out = capsys.readouterr().out
        assert "gop" in out
        assert "duration-4s" in out

    @pytest.mark.slow
    def test_quick_figure(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive pooling" in out
        assert "128 kB/s" in out


class TestVersionEnvironment:
    def test_version_prints_environment_block(self, capsys):
        import platform

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert platform.python_version() in out
        assert "cpus" in out
        assert "numpy" in out


class TestProgressFlag:
    def test_bare_flag_selects_live(self):
        args = build_parser().parse_args(
            ["reproduce", "--progress"]
        )
        assert args.progress == "live"

    def test_plain_mode(self):
        args = build_parser().parse_args(
            ["reproduce", "--progress", "plain"]
        )
        assert args.progress == "plain"

    def test_default_is_off(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.progress is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["reproduce", "--progress", "fancy"]
            )


class TestBenchCommand:
    def test_list_names_every_suite(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "flownet" in out
        assert "paper" in out
        assert "parallel_speedup" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "no_such_suite"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "repro bench list" in err

    def test_quick_suite_writes_valid_artifact(
        self, capsys, tmp_path
    ):
        from repro.obs.bench import load_artifact

        target = tmp_path / "BENCH_fig1_rspec.json"
        assert (
            main(
                [
                    "bench",
                    "fig1_rspec",
                    "--quick",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "suite fig1_rspec: 1 case(s)" in out
        payload = load_artifact(target)
        assert payload["quick"] is True
        assert payload["cases"][0]["id"] == "build_serialize_parse"


class TestCompareCommand:
    @pytest.fixture()
    def artifact_pair(self, tmp_path):
        """A baseline artifact and a path for a candidate copy."""
        import json

        from repro.obs.bench import BenchHarness

        harness = BenchHarness("demo", results_dir=tmp_path)
        harness.case("c", lambda: None, digest_of=("w", 1))
        harness.annotate(events_fired=1000)
        baseline = harness.write(tmp_path / "baseline.json")
        payload = json.loads(baseline.read_text())
        return baseline, tmp_path / "candidate.json", payload

    def test_self_compare_exits_0(self, capsys, artifact_pair):
        baseline, _, _ = artifact_pair
        assert main(["compare", str(baseline), str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_injected_slowdown_exits_1(self, capsys, artifact_pair):
        import json

        baseline, candidate, payload = artifact_pair
        timing = payload["cases"][0]["timing"]
        for name in ("best_s", "mean_s"):
            timing[name] *= 1.5  # 50% slower, well past any threshold
        payload["cases"][0]["events_per_sec"] = None
        candidate.write_text(json.dumps(payload))
        assert (
            main(
                [
                    "compare",
                    str(baseline),
                    str(candidate),
                    "--threshold",
                    "20",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "1 regression(s)" in out

    def test_malformed_artifact_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.bench/999"}')
        assert main(["compare", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["compare", str(missing), str(missing)]) == 2
        assert "cannot read artifact" in capsys.readouterr().err

    def test_custom_metric_selection(self, capsys, artifact_pair):
        import json

        baseline, candidate, payload = artifact_pair
        payload["cases"][0]["metrics"] = {"stalls": 99.0}
        candidate.write_text(json.dumps(payload))
        base_payload = json.loads(baseline.read_text())
        base_payload["cases"][0]["metrics"] = {"stalls": 10.0}
        baseline.write_text(json.dumps(base_payload))
        assert (
            main(
                [
                    "compare",
                    str(baseline),
                    str(candidate),
                    "--metric",
                    "metrics.stalls",
                ]
            )
            == 1
        )
        assert "metrics.stalls" in capsys.readouterr().out


class TestManifestFlag:
    @pytest.mark.slow
    def test_reproduce_writes_run_manifest(self, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "reproduce",
                    "--quick",
                    "--figure",
                    "2",
                    "--jobs",
                    "2",
                    "--manifest",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"run manifest -> {path}" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.manifest/1"
        assert "--figure 2" in payload["command"]
        assert "--jobs 2" in payload["command"]
        assert payload["env"]["usable_cores"] >= 1
        assert payload["cache"] == {"enabled": False}
        sweep = payload["sweep"]
        assert set(sweep) == {
            "runs",
            "failures",
            "runs_cached",
            "events_fired",
            "sim_seconds",
            "cells_computed",
            "cells_cached",
            "wall_seconds",
            "cells_per_sec",
        }
        assert sweep["runs"] > 0
        assert sweep["events_fired"] > 0
        assert sweep["wall_seconds"] > 0
        assert sweep["cells_per_sec"] == pytest.approx(
            (sweep["cells_cached"] + sweep["cells_computed"])
            / sweep["wall_seconds"]
        )

    @staticmethod
    def assert_unwritable_exits_2(capsys, tmp_path, flag):
        """An unwritable output path fails before any run starts."""
        path = tmp_path / "missing" / "x"
        argv = ["reproduce", "--quick", "--figure", "3", flag, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no sweep ran
        assert captured.err.startswith(f"error: cannot write {flag}")
        assert "Traceback" not in captured.err

    def test_unwritable_manifest_exits_2(self, capsys, tmp_path):
        self.assert_unwritable_exits_2(capsys, tmp_path, "--manifest")

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        self.assert_unwritable_exits_2(capsys, tmp_path, "--output")

    def test_unwritable_trace_exits_2(self, capsys, tmp_path):
        self.assert_unwritable_exits_2(capsys, tmp_path, "--trace")


class TestSweepStatusCommand:
    @pytest.mark.parametrize(
        "field, value", [("runs_done", "lots"), ("updated", "x")]
    )
    def test_corrupt_heartbeat_exits_2(
        self, capsys, tmp_path, field, value
    ):
        import json
        from types import SimpleNamespace

        from repro.experiments.sweep_service import build_plan, dump_plan
        from repro.obs.ops import ShardHeartbeat, heartbeat_path

        plan = tmp_path / "plan.json"
        dump_plan(build_plan("2", quick=True, shards=1), plan)
        beat = ShardHeartbeat(
            heartbeat_path(tmp_path / "store", 0), shard=0, shards=1
        )
        cell = SimpleNamespace(describe=lambda: "cell")
        beat.begin([SimpleNamespace(cell_index=0, cell=cell)] * 8)
        payload = json.loads(beat.path.read_text(encoding="utf-8"))
        payload[field] = value
        beat.path.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "sweep", "status", str(plan), "--store", str(tmp_path / "store")
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert field in err


class TestSweepOpsFlags:
    def test_ops_on_by_default(self):
        # Ops telemetry is always on: no sweep command can turn it off.
        for argv in (
            ["sweep", "plan", "--figure", "2"],
            ["sweep", "run", "plan.json", "--shard", "0", "--store", "s"],
            ["sweep", "merge", "plan.json", "--store", "s"],
        ):
            build_parser().parse_args(argv)
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--no-ops"])

    def test_status_collects_stores(self):
        args = build_parser().parse_args(
            ["sweep", "status", "plan.json",
             "--store", "a", "--store", "b"]
        )
        assert args.stores == ["a", "b"]
        assert not args.watch

    def test_status_requires_a_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "status", "plan.json"]
            )


class TestCacheFlags:
    def test_bare_cache_selects_default_root(self):
        args = build_parser().parse_args(["reproduce", "--cache"])
        assert args.cache == ""  # sentinel: use default_store_root()

    def test_cache_with_directory(self, tmp_path):
        args = build_parser().parse_args(
            ["reproduce", "--cache", str(tmp_path / "store")]
        )
        assert args.cache == str(tmp_path / "store")

    def test_cache_off_by_default(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.cache is None
        assert not args.resume

    @pytest.mark.slow
    def test_warm_rerun_is_pure_cache(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        argv = [
            "reproduce", "--quick", "--figure", "2",
            "--cache", store,
        ]
        assert main(argv + ["--manifest",
                            str(tmp_path / "m1.json")]) == 0
        cold = capsys.readouterr()
        assert main(argv + ["--manifest",
                            str(tmp_path / "m2.json")]) == 0
        warm = capsys.readouterr()
        # The figure table is byte-identical; only the manifest
        # pointer line differs between the two invocations.
        def strip(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("run manifest ->")
            ]
        assert strip(warm.out) == strip(cold.out)
        assert "0 of 8 runs cached" in cold.err
        assert "8 of 8 runs cached" in warm.err
        m1 = json.loads((tmp_path / "m1.json").read_text())
        m2 = json.loads((tmp_path / "m2.json").read_text())
        assert m1["cache"] == {
            "enabled": True,
            "root": store,
            "schema": "repro.store/1",
            "hits": 0,
            "misses": 8,
            "stores": 8,
            "invalidations": 0,
            "runs_cached": 0,
        }
        assert m2["cache"]["hits"] == 8
        assert m2["cache"]["runs_cached"] == 8
        assert m2["sweep"]["events_fired"] == 0

    @pytest.mark.slow
    def test_resume_implies_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert main([
            "reproduce", "--quick", "--figure", "2", "--resume",
        ]) == 0
        assert "runs resumed" in capsys.readouterr().err
        assert (tmp_path / "store").is_dir()


class TestTraceCommand:
    """Trace files, as ``repro analyze`` reads them."""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read trace" in err

    def test_corrupt_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text("this is not json\n")
        code = main(["analyze", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt trace" in err

    def test_unknown_event_exits_2(self, capsys, tmp_path):
        path = tmp_path / "unknown.jsonl"
        path.write_text(
            '{"event": "NoSuchEvent", "time": 0.0, '
            '"category": "x", "severity": "info"}\n'
        )
        code = main(["analyze", str(path)])
        assert code == 2
        assert "NoSuchEvent" in capsys.readouterr().err

    def test_summarizes_a_real_trace(self, capsys, tmp_path):
        from repro.obs import (
            EventTracer,
            PeerJoined,
            PlaybackStarted,
            StallEnded,
            StallStarted,
            dump_jsonl,
        )

        tracer = EventTracer()
        tracer.emit(PeerJoined(time=0.0, peer="peer-1"))
        tracer.emit(PlaybackStarted(
            time=2.0, peer="peer-1", startup_time=2.0
        ))
        tracer.emit(StallStarted(time=5.0, peer="peer-1", segment=3))
        tracer.emit(StallEnded(
            time=6.5, peer="peer-1", segment=3, duration=1.5
        ))
        path = tmp_path / "run.jsonl"
        dump_jsonl(tracer.events(), str(path))

        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Per-peer sessions" in out
        assert "peer-1" in out
        assert "Events by category:" in out
        assert "StallEnded x1, StallStarted x1" in out
        assert "Events by severity:" in out
        # No engine events were traced, so a missing
        # SimulationStarted is not evidence of wraparound.
        assert "truncated" not in out

    @pytest.mark.slow
    def test_reproduce_figure_trace_round_trip(self, capsys, tmp_path):
        """The acceptance flow: reproduce --figure 2 --trace, then
        read the trace back with ``repro analyze``."""
        path = tmp_path / "fig2.jsonl"
        assert (
            main(
                [
                    "reproduce",
                    "--quick",
                    "--figure",
                    "2",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "traced representative run" in out
        assert path.exists()

        from repro.obs import load_jsonl

        events = load_jsonl(str(path))
        layers = {event.category for event in events}
        assert {"engine", "tcp", "player"} <= layers
        assert "leecher" in layers or "swarm" in layers

        assert main(["analyze", str(path)]) == 0
        summary = capsys.readouterr().out
        assert "## Per-peer sessions" in summary
        assert "peer-1" in summary
        assert "finished" in summary or "cut off" in summary
