"""The repository benchmark: the paper's fig2–fig5 grid, cold, warm and
on the cohort tier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 5 --trace 0

One process, ``jobs=1``.  The program is imported from ``src/`` of the
checkout this file sits in.  A *pass* regenerates Figures 2–5 through a
fresh :class:`~repro.parallel.SweepExecutor` (see ``grid.py``); passes
repeat until at least ``--seconds`` of passes are measured.  Every
pass's results are checked against the digests in ``reference.json``;
a run that raises or mismatches counts as failed.

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` alternates traced and untraced passes
(traced first, at least two traced) and prints the per-layer ledger of
``ledger.py`` for one set-up round plus one traced pass, and the
tracing overhead.  Per-pass counts (events,
refills, store traffic, digest calls) must repeat exactly; if they do
not, the run is reported as incorrect.

The last line of stdout is the result object.  The last line of stderr
is a JSON record of the run: pass counts, problems found, provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> (fidelity tier, serve every run from a filled store).
WORKLOADS = {
    "grid-cold": ("exact", False),
    "grid-warm": ("cohort", True),
    "grid-cohort": ("cohort", False),
}

#: Set-up (imports, video encode, every splice) is repeated this many
#: times and the median reported, so one slow round does not move
#: ``setup_s``.  Rounds after the first import in a fresh interpreter.
SETUP_ROUNDS = 9

#: What one set-up round imports, timed inside a fresh interpreter.
IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import repro, grid, ledger
print(time.perf_counter() - started)
"""

#: A traced run measures at least this many traced passes, so the
#: ledger's per-pass counts can be compared.
TRACED_PASSES = 2

E2E_UNITS = {
    "runs_per_s": "runs/s",
    "run_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunClock:
    """Executor progress hook: one wall-time sample per settled run.

    ``SweepExecutor(progress=…)`` calls :meth:`update` once per settled
    run; a sample is the gap since the previous run of the same
    ``map_runs`` call (or since its start).
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self._last = 0.0

    def begin(self, specs) -> None:
        self._last = perf_counter()

    def update(self, outcome) -> None:
        now = perf_counter()
        self.samples.append(now - self._last)
        self._last = now

    def finish(self) -> None:
        pass


class RepeatCheck:
    """Counts that must repeat exactly on every pass.

    Keeps the first pass's counts and the first that differ, so memory
    does not grow with the number of passes.
    """

    def __init__(self) -> None:
        self.first: dict[str, int] | None = None
        self.differs: dict[str, int] | None = None

    def add(self, counts: dict[str, int]) -> None:
        if self.first is None:
            self.first = counts
        elif self.differs is None and counts != self.first:
            self.differs = counts


@dataclass
class Tally:
    """Wall times of one kind of pass (traced or untraced)."""

    runs_per_pass: int
    walls: list[float] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.walls)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def runs_per_s(self) -> float:
        """Median over passes of runs per second.

        The median, not the total rate: neighbours on a shared host
        slow single passes, and the median ignores a minority of them.
        """
        return statistics.median(self.runs_per_pass / w for w in self.walls)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import the program from this checkout's ``src``; exit 1 if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SRC}"
        )


def import_seconds() -> float:
    """Import time of the program and the benchmark in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def provenance() -> dict:
    """Code version and host facts recorded with every result."""
    import numpy

    sha, dirty = "unknown", None

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the version stays "unknown"
    return {
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = perf_counter()
    import_program()
    import grid
    from ledger import Ledger, per_round
    from repro.errors import SweepError
    from repro.parallel import ResultStore, SweepExecutor, cache

    imports = [perf_counter() - started]

    fidelity, warm = WORKLOADS[args.workload]
    seed = grid.swarm_seed(args.seed)
    cfg = grid.config(fidelity, seed)
    per_figure = grid.cell_count(cfg)
    runs_per_pass = sum(per_figure) * len(cfg.seeds)
    reference = grid.load_reference()[fidelity][str(seed)]
    # Set-up rounds and traced passes are recorded apart, so each can
    # be reported per round.
    setup_ledger = Ledger() if args.trace else None
    ledger = Ledger() if args.trace else None

    failed = 0
    attempted = 0
    problems: list[str] = []

    def run_pass(store, clock, traced: bool):
        """One grid pass, its results checked; returns (wall, stats)."""
        nonlocal failed, attempted
        with ledger.attached(store) if traced else nullcontext():
            started = perf_counter()
            executor = SweepExecutor(jobs=1, progress=clock, store=store)
            if traced:
                ledger.wrap_executor(executor)
            figures = []
            for figure in grid.FIGURES:
                try:
                    figures.append(figure.run(cfg, executor=executor))
                except SweepError as exc:
                    figures.append(exc)
            wall = perf_counter() - started
        attempted += runs_per_pass
        for index, (result, expected) in enumerate(zip(figures, reference)):
            if isinstance(result, SweepError):
                failed += per_figure[index]
                problems.append(f"{grid.FIGURES[index].__name__}: {result}")
                continue
            got = grid.cell_digests(result)
            bad = sum(1 for a, b in zip(got, expected) if a != b)
            if bad or len(got) != len(expected):
                failed += max(bad, 1)
                problems.append(
                    f"{result.figure}: {bad} of {len(expected)} cells "
                    "differ from the reference"
                )
        return wall, executor.stats

    # -- set-up ---------------------------------------------------------
    video_spec = None
    splicer_specs = []
    for figure in grid.FIGURES:
        for cell in figure.cells(cfg):
            video_spec = cell.video_spec
            if cell.splicer not in splicer_specs:
                splicer_specs.append(cell.splicer)

    def set_up_once() -> float:
        started = perf_counter()
        cache.clear_caches()
        cache.cached_video(video_spec)
        for spec in splicer_specs:
            cache.cached_splice(video_spec, spec)
        return perf_counter() - started

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if setup_ledger is not None:
            with setup_ledger.installed():
                rounds = [set_up_once() for _ in range(SETUP_ROUNDS)]
        else:
            rounds = [set_up_once() for _ in range(SETUP_ROUNDS)]
        imports += [import_seconds() for _ in range(SETUP_ROUNDS - 1)]
        setup_s = statistics.median(i + r for i, r in zip(imports, rounds))
        store = None
        if warm:
            store = ResultStore(work / "store")
            setup_s += run_pass(store, None, traced=False)[0]

        # -- measured passes --------------------------------------------
        clock = RunClock()
        untraced, traced = Tally(runs_per_pass), Tally(runs_per_pass)
        program_counts, ledger_counts = RepeatCheck(), RepeatCheck()
        runs_cached = runs_per_pass
        pass_index = 0
        while True:
            trace_this = ledger is not None and pass_index % 2 == 0
            if not warm:
                shutil.rmtree(work / "store", ignore_errors=True)
                store = ResultStore(work / "store")
            before = _counts(store, ledger)
            if trace_this:
                with ledger.installed():
                    wall, stats = run_pass(store, RunClock(), traced=True)
                tally = traced
            else:
                wall, stats = run_pass(store, clock, traced=False)
                tally = untraced
            tally.walls.append(wall)
            counts = _delta(before, _counts(store, ledger))
            program_counts.add(
                {
                    "sweep.events_fired": stats.events_fired,
                    "sweep.runs_cached": stats.runs_cached,
                    **{k: v for k, v in counts.items() if k.startswith("store.")},
                }
            )
            if trace_this:
                ledger_counts.add(counts)
            runs_cached = min(runs_cached, stats.runs_cached)
            pass_index += 1
            if _done(args, ledger, untraced, traced):
                break
        # Before the report allocates anything of its own.
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    # -- checks ---------------------------------------------------------
    # Program-side counts must not depend on the pass or on tracing;
    # the ledger's finer counts are compared between traced passes.
    for check in (program_counts, ledger_counts):
        if check.differs is not None:
            problems.append(
                f"nondeterministic counts: {check.first} vs {check.differs}"
            )
    if warm and runs_cached != runs_per_pass:
        problems.append(
            f"a warm pass served {runs_cached} of {runs_per_pass} runs "
            "from the store"
        )
    correct = failed == 0 and not problems

    # -- report ---------------------------------------------------------
    if ledger is None:
        samples = sorted(clock.samples)
        metrics = {
            "runs_per_s": untraced.runs_per_s,
            "run_p50_ms": statistics.median(samples) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        result_metrics = {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in metrics.items()
        }
        summary = {
            "run_samples": len(samples),
            "run_p90_ms": statistics.quantiles(
                samples, n=10, method="inclusive"
            )[8]
            * 1e3,
        }
    else:
        layer_metrics = per_round(
            [
                (setup_ledger, sum(rounds), SETUP_ROUNDS),
                (ledger, traced.wall_s, traced.passes),
            ]
        )
        layer_metrics["ledger.traced_runs_per_s"] = (
            traced.runs_per_s,
            "runs/s",
        )
        layer_metrics["ledger.untraced_runs_per_s"] = (
            untraced.runs_per_s,
            "runs/s",
        )
        layer_metrics["ledger.tracing_overhead"] = (
            untraced.runs_per_s / traced.runs_per_s - 1.0,
            "ratio",
        )
        result_metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics.items()
        }
        summary = {"traced_pass_counts": ledger_counts.first}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "swarm_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": untraced.passes, "traced": traced.passes},
        "runs_per_pass": runs_per_pass,
        "problems": problems[:20],
        "provenance": provenance(),
        **summary,
        "metrics": result_metrics,
    }
    print(json.dumps(record), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


def _counts(store, ledger) -> dict[str, int]:
    """Totals that must grow by the same amount on every pass."""
    counts = {
        "store.hits": store.stats.hits,
        "store.misses": store.stats.misses,
        "store.stores": store.stats.stores,
    }
    if ledger is not None:
        counts.update(ledger.pass_counts())
    return counts


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in sorted(after.items())
        if value != before.get(name, 0)
    }


def _done(args, ledger, untraced: Tally, traced: Tally) -> bool:
    if untraced.wall_s + traced.wall_s < args.seconds:
        return False
    if ledger is not None:
        return traced.passes >= TRACED_PASSES and untraced.passes >= 1
    return True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
