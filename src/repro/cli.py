"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — splice + stream at one bandwidth, print metrics;
* ``reproduce`` — regenerate every figure, or one with ``--figure N``;
  ``fig2`` / ``fig3`` / ``fig4`` / ``fig5`` are aliases of
  ``reproduce --figure N`` (``--quick`` runs a reduced sweep);
* ``overhead`` — the splicing byte-overhead table (ablation A3);
* ``rspec`` — print the experiment's request RSpec XML (Fig. 1);
* ``timeline`` — run one swarm and render per-peer session timelines;
* ``analyze`` — diagnose a JSONL trace written by ``reproduce
  --trace``: stall root-cause attribution, per-peer sessions, event
  counts, and an optional cause-marked Gantt chart;
* ``bench`` — run a benchmark suite through the shared harness and
  write its versioned ``BENCH_<suite>.json`` artifact;
* ``compare`` — diff two benchmark artifacts and exit non-zero on
  regression (the CI perf gate);
* ``lint`` — determinism & sim-safety static analysis over the
  source tree; exits 1 on findings or stale suppressions (the CI
  lint gate);
* ``sweep`` — shard a figure sweep across machines: ``plan``
  partitions runs by content digest, ``run`` executes one shard into
  a result store, ``merge`` unions shard stores into the final
  figure (byte-identical to a single-machine run), and ``status``
  aggregates shard heartbeats into a live fleet view (progress bars,
  straggler flagging, dead-shard detection).

Every leaf subcommand binds its handler with ``set_defaults``, and
:func:`main` calls it: the parser is the one command table.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .core.splicer import DurationSplicer, GopSplicer
from .errors import ReproError, SweepError
from .testbed.rspec import star_rspec
from .units import kB_per_s
from .video.encoder import encode_paper_video

if TYPE_CHECKING:
    from .experiments.config import ExperimentConfig

#: The keys of :data:`repro.experiments.reproduce.FIGURES`.
_FIGURE_IDS = ("2", "3", "4", "5")

#: Segment duration of the representative run ``--trace`` records.
_TRACE_SEGMENT_DURATION = 4.0

#: ``sweep status --watch`` refresh period, seconds.
_WATCH_INTERVAL_S = 2.0

#: The source checkout enclosing this package (``src/repro/..``).
_CHECKOUT = Path(__file__).resolve().parents[2]


class _VersionAction(argparse.Action):
    """``--version``: the version line plus the environment block.

    The first line stays ``repro <version>`` (scripts parse it); the
    following lines are the same python/platform/git facts every
    benchmark artifact embeds, so pasted reports are self-describing.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        from .lint import rule_ids
        from .obs.manifest import render_environment

        print(f"repro {__version__}")
        print(render_environment())
        print(f"lint rules: {' '.join(rule_ids())}")
        parser.exit()


def _checkout_dir(relative: str) -> Path | None:
    """Locate ``relative`` (a directory): the cwd first, then the checkout.

    ``repro bench`` and ``repro lint`` are usually run from the
    repository root, but the fallback keeps them working from anywhere
    inside a source checkout (the benchmark suites are not installed
    with the package).
    """
    for candidate in (Path(relative), _CHECKOUT / relative):
        if candidate.is_dir():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Video Splicing Techniques for P2P "
            "Video Streaming' (ICDCS 2015)"
        ),
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        nargs=0,
        help=(
            "print the version plus the environment block "
            "(python, platform, cpus, git revision)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser(
        "quickstart", help="splice + stream at one bandwidth"
    )
    quickstart.add_argument(
        "--bandwidth", type=float, default=256.0, help="peer kB/s"
    )
    quickstart.add_argument("--seed", type=int, default=7)
    quickstart.set_defaults(handler=_cmd_quickstart)

    sub.add_parser(
        "overhead", help="splicing byte-overhead table"
    ).set_defaults(handler=_cmd_overhead)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every figure in one run"
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (9 peers, 1 seed), figures only",
    )
    reproduce.add_argument(
        "--output", default=None, help="also write the report here"
    )
    reproduce.add_argument(
        "--figure",
        choices=_FIGURE_IDS,
        default=None,
        help="regenerate only this figure",
    )
    reproduce.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the sweep (default: auto-detect "
            "from the available cores / REPRO_JOBS; 1 = serial "
            "in-process)"
        ),
    )
    reproduce.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "also run one fully-traced representative swarm and write "
            "its JSONL trace here (inspect with 'repro analyze PATH'); "
            "the traced run always executes in-process regardless of "
            "--jobs so its trace stays on a single simulated clock"
        ),
    )
    reproduce.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "trace + diagnose every run and print a stall-cause "
            "breakdown next to the figure table (requires --figure)"
        ),
    )
    reproduce.add_argument(
        "--progress",
        nargs="?",
        const="live",
        choices=("live", "plain"),
        default=None,
        help=(
            "sweep progress on stderr: 'live' (the default when the "
            "flag is given bare) rewrites one status line and is "
            "automatically disabled when stderr is not a TTY; "
            "'plain' appends one rate-limited line per completed "
            "cell, for CI logs and redirected output"
        ),
    )
    reproduce.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help=(
            "also write a JSON run manifest here (schema "
            "repro.manifest/1): command, environment block, git "
            "revision, and sweep totals"
        ),
    )
    reproduce.add_argument(
        "--fidelity",
        choices=("exact", "cohort", "fluid"),
        default="exact",
        help=(
            "swarm backend for every run: 'exact' simulates each "
            "peer, 'cohort' batches statistically-identical peers "
            "(10^3-10^4 peers), 'fluid' integrates mean-field rate "
            "ODEs (10^5+ peers); see docs/SCALING.md"
        ),
    )
    reproduce.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "cache per-run results in a content-addressed store "
            "(default directory: $REPRO_STORE or .repro-store); "
            "re-running an unchanged sweep recomputes nothing, and "
            "completed runs are committed as they finish, so an "
            "interrupted sweep resumes from the store"
        ),
    )
    reproduce.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep from the result store "
            "(implies --cache; prints how many runs were restored)"
        ),
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    # figN = reproduce --figure N, every other option at its default.
    alias_defaults = vars(reproduce.parse_args([]))
    for name in _FIGURE_IDS:
        figure = sub.add_parser(
            f"fig{name}",
            help=f"regenerate fig{name} (= reproduce --figure {name})",
        )
        figure.add_argument(
            "--quick",
            action="store_true",
            help="reduced sweep (1 seed, 2 bandwidths)",
        )
        figure.set_defaults(**{**alias_defaults, "figure": name})

    rspec = sub.add_parser("rspec", help="print the slice RSpec XML")
    rspec.add_argument("--peers", type=int, default=19)
    rspec.add_argument(
        "--capacity", type=int, default=8192, help="kbit/s per link"
    )
    rspec.set_defaults(handler=_cmd_rspec)

    timeline = sub.add_parser(
        "timeline", help="per-peer session timelines for one run"
    )
    timeline.add_argument("--bandwidth", type=float, default=256.0)
    timeline.add_argument("--duration", type=float, default=4.0)
    timeline.add_argument("--peers", type=int, default=9)
    timeline.add_argument("--seed", type=int, default=7)
    timeline.set_defaults(handler=_cmd_timeline)

    analyze = sub.add_parser(
        "analyze",
        help=(
            "diagnose a JSONL trace: stall root causes, per-peer "
            "sessions, event counts"
        ),
    )
    analyze.add_argument(
        "path", help="trace written by reproduce --trace"
    )
    analyze.add_argument(
        "--gantt",
        action="store_true",
        help="also render the cause-marked per-peer Gantt chart",
    )
    analyze.add_argument(
        "--width",
        type=int,
        default=72,
        help="Gantt time-axis width in columns",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    bench = sub.add_parser(
        "bench",
        help=(
            "run a benchmark suite and write its JSON artifact"
        ),
    )
    bench.add_argument(
        "suite",
        help=(
            "suite name (benchmarks/bench_<suite>.py), or 'list' to "
            "enumerate the available suites"
        ),
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help=(
            "reduced-scale run: the artifact is flagged quick and "
            "the committed human-readable tables are left untouched"
        ),
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "artifact path (default: "
            "benchmarks/results/BENCH_<suite>.json)"
        ),
    )
    bench.set_defaults(handler=_cmd_bench)

    lint = sub.add_parser(
        "lint",
        help=(
            "determinism & sim-safety static analysis; exit 1 on "
            "findings or stale suppressions"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to lint (default: the src/repro "
            "tree of the enclosing checkout)"
        ),
    )
    lint.set_defaults(handler=_cmd_lint)

    compare = sub.add_parser(
        "compare",
        help=(
            "diff two benchmark artifacts; exit 1 on regression"
        ),
    )
    compare.add_argument(
        "baseline", help="reference BENCH_*.json (usually committed)"
    )
    compare.add_argument(
        "candidate", help="freshly measured BENCH_*.json"
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help=(
            "minimum percentage change that counts (default 10; "
            "widened per case by 3 relative standard deviations of "
            "the noisier artifact)"
        ),
    )
    compare.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "metric to score (repeatable): a timing name (best_s, "
            "mean_s), a case field (events_per_sec), or "
            "metrics.<name>; default: best_s and events_per_sec"
        ),
    )
    compare.set_defaults(handler=_cmd_compare)

    sweep = sub.add_parser(
        "sweep",
        help=(
            "shard a figure sweep across machines: plan partitions "
            "runs by content digest, run executes one shard into a "
            "result store, merge unions shard stores into the final "
            "figure, status aggregates shard heartbeats into a "
            "fleet view"
        ),
    )
    sweep_sub = sweep.add_subparsers(required=True)

    plan = sweep_sub.add_parser(
        "plan", help="expand a figure sweep and partition it into shards"
    )
    plan.add_argument(
        "--figure", choices=("2", "3", "4", "5"), required=True
    )
    plan.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (9 peers, 1 seed, 2 bandwidths)",
    )
    plan.add_argument(
        "--fidelity",
        choices=("exact", "cohort", "fluid"),
        default="exact",
    )
    plan.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="partition the runs into K digest-addressed shards",
    )
    plan.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="plan path (default: sweep-fig<N>.plan.json)",
    )
    plan.set_defaults(handler=_cmd_sweep_plan)

    shard_run = sweep_sub.add_parser(
        "run", help="execute one shard of a plan into a result store"
    )
    shard_run.add_argument("plan", help="plan written by 'sweep plan'")
    shard_run.add_argument(
        "--shard", type=int, required=True, metavar="I"
    )
    shard_run.add_argument(
        "--store", required=True, metavar="DIR",
        help="result-store directory the shard commits into",
    )
    shard_run.add_argument(
        "--jobs", type=int, default=None, metavar="N"
    )
    shard_run.add_argument(
        "--progress",
        nargs="?",
        const="live",
        choices=("live", "plain"),
        default=None,
    )
    shard_run.set_defaults(handler=_cmd_sweep_run)

    merge = sweep_sub.add_parser(
        "merge",
        help=(
            "union shard stores and produce the final figure "
            "(byte-identical to a single-machine run; missing "
            "entries are computed, so merge doubles as resume)"
        ),
    )
    merge.add_argument("plan", help="plan written by 'sweep plan'")
    merge.add_argument(
        "--store", required=True, metavar="DIR",
        help="target store (absorbs every --from store)",
    )
    merge.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="DIR",
        help="shard store to absorb (repeatable)",
    )
    merge.add_argument(
        "--jobs", type=int, default=None, metavar="N"
    )
    merge.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the figure table here",
    )
    merge.set_defaults(handler=_cmd_sweep_merge)

    status = sweep_sub.add_parser(
        "status",
        help=(
            "aggregate shard heartbeats into a fleet view: "
            "per-shard progress bars, straggler flagging "
            "(rate below a fraction of the fleet median), and "
            "dead-shard detection (stale heartbeat)"
        ),
    )
    status.add_argument("plan", help="plan written by 'sweep plan'")
    status.add_argument(
        "--store",
        dest="stores",
        action="append",
        required=True,
        metavar="DIR",
        help=(
            "shard store directory to scan for heartbeats "
            "(repeatable; heartbeats live under DIR/repro.ops/)"
        ),
    )
    status.add_argument(
        "--watch",
        action="store_true",
        help=(
            "keep re-rendering until every shard reaches a "
            "terminal state (refreshing every "
            f"{_WATCH_INTERVAL_S:g} s)"
        ),
    )
    status.set_defaults(handler=_cmd_sweep_status)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Library errors print as ``error: ...`` on stderr, never as a
    traceback: a failed sweep run exits 1, any other
    :class:`~repro.errors.ReproError` (bad input) or an I/O error
    exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.handler(args)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_swarm(args: argparse.Namespace, splice, n_leechers: int):
    """One swarm over ``splice`` at ``--bandwidth``/``--seed`` (the
    seeder gets 8x the peer bandwidth)."""
    from .p2p.swarm import Swarm, SwarmConfig

    config = SwarmConfig(
        bandwidth=kB_per_s(args.bandwidth),
        seeder_bandwidth=kB_per_s(8 * args.bandwidth),
        n_leechers=n_leechers,
        seed=args.seed,
    )
    return Swarm(splice, config).run()


def _cmd_quickstart(args: argparse.Namespace) -> int:
    video = encode_paper_video(seed=1)
    for splicer in (GopSplicer(), DurationSplicer(4.0)):
        splice = splicer.splice(video)
        result = _run_swarm(args, splice, n_leechers=19)
        print(
            f"{splice.technique:12s} stalls={result.mean_stall_count():6.1f} "
            f"stall-time={result.mean_stall_duration():7.1f}s "
            f"startup={result.mean_startup_time():5.2f}s"
        )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .obs.render import render_timeline

    video = encode_paper_video(seed=1)
    splice = DurationSplicer(args.duration).splice(video)
    print(render_timeline(_run_swarm(args, splice, args.peers)))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from .experiments.ablations import run_overhead
    from .experiments.report import format_overhead

    print(format_overhead(run_overhead()))
    return 0


def _cmd_rspec(args: argparse.Namespace) -> int:
    document = star_rspec(
        n_peers=args.peers, capacity_kbps=args.capacity
    )
    print(document.to_xml())
    return 0


def _check_writable(args: argparse.Namespace, *flags: str) -> None:
    """Fail before any run starts when an output path is unwritable.

    Opens each given path for appending (creating it when missing,
    keeping existing content), so a bad directory or permission shows
    up now rather than as a traceback after the whole sweep.
    """
    for flag in flags:
        path = getattr(args, flag)
        if path is None:
            continue
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ReproError(
                f"cannot write --{flag} {path!r}: {exc.strerror}"
            ) from exc


def _progress(args: argparse.Namespace):
    """The ``--progress`` sink, or None when the flag is absent."""
    from .parallel import SweepProgress

    return SweepProgress(mode=args.progress) if args.progress else None


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.config import figure_axis, sweep_config
    from .experiments.report import format_figure, format_figure_analysis
    from .experiments.reproduce import FIGURES, reproduce_all
    from .parallel import SweepExecutor

    if args.analyze and args.figure is None:
        raise ReproError(
            "--analyze requires --figure "
            "(cause breakdowns are per-figure tables)"
        )
    _check_writable(args, "output", "trace", "manifest")
    config = sweep_config(args.quick, args.fidelity)
    store = None
    if args.cache is not None or args.resume:
        from .parallel import ResultStore, default_store_root

        root = Path(args.cache) if args.cache else default_store_root()
        store = ResultStore(root)
    executor = SweepExecutor(
        jobs=args.jobs, progress=_progress(args), store=store
    )
    sweep_started = time.monotonic()
    if args.figure is not None:
        result = FIGURES[args.figure].run(
            config,
            executor=executor,
            analyze=args.analyze,
            **figure_axis(args.quick),
        )
        text = format_figure(result)
        if args.analyze:
            text += "\n\n" + format_figure_analysis(result)
    else:
        report = reproduce_all(
            config,
            include_ablations=not args.quick,
            executor=executor,
        )
        text = report.render()
    sweep_elapsed = time.monotonic() - sweep_started
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    if store is not None:
        stats = executor.stats
        verb = "resumed" if args.resume else "cached"
        hits = store.stats.hits
        repeats = stats.runs_cached - hits
        print(
            f"result store {store.root}: {hits} of "
            f"{stats.runs} runs {verb}, "
            f"{stats.runs - stats.runs_cached - stats.failures} "
            f"computed"
            + (f", {repeats} repeated" if repeats else "")
            + f" ({len(store)} entries on disk)",
            file=sys.stderr,
        )
    if args.trace is not None:
        _write_representative_trace(args, config)
    if args.manifest is not None:
        _write_run_manifest(args, executor, store, sweep_elapsed)
    return 0


def _write_run_manifest(
    args: argparse.Namespace,
    executor,
    store,
    wall_seconds: float,
) -> None:
    """Record one ``reproduce`` invocation as a JSON manifest."""
    from .obs import dump_json, run_manifest
    from .parallel.store import STORE_SCHEMA

    stats = executor.stats
    if store is not None:
        cache = {
            "enabled": True,
            "root": str(store.root),
            "schema": STORE_SCHEMA,
            **asdict(store.stats),
            "runs_cached": stats.runs_cached,
        }
    else:
        cache = {"enabled": False}
    cells = stats.cells_cached + stats.cells_computed
    payload = run_manifest(
        shlex.join(args.argv),
        quick=args.quick,
        figure=args.figure,
        jobs=executor.jobs,
        sweep={
            **asdict(stats),
            "wall_seconds": wall_seconds,
            "cells_per_sec": (
                cells / wall_seconds if wall_seconds > 0 else None
            ),
        },
        cache=cache,
    )
    dump_json(payload, args.manifest)
    print(f"run manifest -> {args.manifest}")


def _write_representative_trace(
    args: argparse.Namespace, config: ExperimentConfig
) -> None:
    """Run one fully-traced swarm and dump its JSONL trace.

    One run, not the whole sweep: a multi-run trace would interleave
    restarting sim clocks, and the point of ``--trace`` is a file whose
    ``repro analyze`` per-peer table matches one run's
    :class:`SwarmResult` exactly.  The run uses the target figure's
    first bandwidth, the first configured seed, and 4-second duration
    splicing (the paper's middle technique).
    """
    from .experiments.config import (
        FIG4_BANDWIDTHS_KB,
        PAPER_BANDWIDTHS_KB,
        make_swarm_config,
    )
    from .obs import Observability, dump_jsonl
    from .p2p.swarm import Swarm

    bandwidth_kb = (
        FIG4_BANDWIDTHS_KB if args.figure == "4" else PAPER_BANDWIDTHS_KB
    )[0]
    video = encode_paper_video(seed=config.video_seed)
    splice = DurationSplicer(_TRACE_SEGMENT_DURATION).splice(video)
    obs = Observability.tracing()
    swarm_config = make_swarm_config(
        bandwidth_kb, config.seeds[0], config
    )
    Swarm(splice, swarm_config, obs=obs).run()
    dump_jsonl(obs.events(), args.trace)
    print(
        f"traced representative run ({splice.technique}, "
        f"{bandwidth_kb} kB/s, seed {config.seeds[0]}): "
        f"{len(obs.events())} events -> {args.trace}"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .obs import (
        analyze_events,
        attribute_stalls,
        build_timelines,
        load_jsonl,
        render_analysis,
        render_event_counts,
        render_gantt,
    )

    events = load_jsonl(args.path)
    print(render_analysis(analyze_events(events)))
    print("## Events")
    print()
    print(render_event_counts(events))
    if args.gantt:
        timelines = build_timelines(events)
        print()
        print("## Timeline")
        print()
        print(
            render_gantt(
                timelines,
                attribute_stalls(timelines),
                width=max(16, args.width),
            )
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs.bench import BenchHarness, discover_suites, load_suite

    bench_dir = _checkout_dir("benchmarks")
    if bench_dir is None:
        raise ReproError(
            "no benchmarks/ directory found (run from the "
            "repository root)"
        )
    suites = discover_suites(bench_dir)
    if args.suite == "list":
        for name in sorted(suites):
            print(name)
        return 0
    script = suites.get(args.suite)
    if script is None:
        raise ReproError(
            f"unknown suite {args.suite!r} (try 'repro bench list')"
        )
    harness = BenchHarness(
        args.suite,
        results_dir=bench_dir / "results",
        quick=args.quick,
    )
    load_suite(args.suite, script).run_suite(harness, quick=args.quick)
    target = harness.write(args.output)
    print(
        f"suite {args.suite}: {len(harness.cases)} case(s) -> {target}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .obs.bench import load_artifact
    from .obs.compare import (
        DEFAULT_METRICS,
        compare_artifacts,
        render_comparison,
    )

    metrics = (
        tuple(args.metric) if args.metric else DEFAULT_METRICS
    )
    comparison = compare_artifacts(
        load_artifact(args.baseline),
        load_artifact(args.candidate),
        threshold_pct=args.threshold,
        metrics=metrics,
    )
    print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import lint_paths, render_text

    paths = args.paths
    if not paths:
        tree = _checkout_dir("src/repro")
        if tree is None:
            raise ReproError("no paths given and no src/repro tree found")
        paths = [str(tree)]
    result = lint_paths(paths)
    print(render_text(result.findings, result.unused_suppressions))
    return 0 if result.clean else 1


def _cmd_sweep_plan(args: argparse.Namespace) -> int:
    from .experiments import sweep_service

    target = args.output or f"sweep-fig{args.figure}.plan.json"
    plan = sweep_service.build_plan(
        args.figure,
        quick=args.quick,
        fidelity=args.fidelity,
        shards=args.shards,
    )
    sweep_service.dump_plan(plan, target)
    per_shard = ", ".join(
        str(sum(1 for run in plan["runs"] if run["shard"] == shard))
        for shard in range(plan["shards"])
    )
    print(
        f"sweep plan -> {target}: figure {args.figure}, "
        f"{plan['total_runs']} runs over {plan['shards']} "
        f"shard(s) [{per_shard}]"
    )
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from .experiments import sweep_service
    from .parallel import ResultStore

    report = sweep_service.run_shard(
        sweep_service.load_plan(args.plan),
        args.shard,
        ResultStore(args.store),
        jobs=args.jobs,
        progress=_progress(args),
    )
    print(
        f"shard {report.shard}/{report.shards}: "
        f"{report.runs} runs, {report.computed} computed, "
        f"{report.cached} already in {args.store}"
    )
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from .experiments import sweep_service
    from .experiments.report import format_figure
    from .parallel import ResultStore

    report = sweep_service.merge_plan(
        sweep_service.load_plan(args.plan),
        ResultStore(args.store),
        sources=args.sources,
        jobs=args.jobs,
    )
    text = format_figure(report.result)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(
        f"merged {len(args.sources)} shard store(s) "
        f"({report.absorbed} entries absorbed) into "
        f"{args.store}: {report.cached} of {report.runs} "
        f"runs cached, {report.computed} computed",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    """The ``repro sweep status [--watch]`` fleet view."""
    from .experiments import sweep_service
    from .obs.ops import find_heartbeats, fleet_status, render_fleet

    plan = sweep_service.load_plan(args.plan)
    first = True
    while True:
        statuses = fleet_status(
            plan, find_heartbeats(args.stores), now=time.time()
        )
        if not first:
            print()
        print(render_fleet(plan, statuses))
        first = False
        terminal = all(
            status.state in ("done", "failed")
            for status in statuses
        )
        if not args.watch or terminal:
            return 0
        time.sleep(_WATCH_INTERVAL_S)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
