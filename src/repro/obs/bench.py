"""Structured benchmark artifacts: the ``BenchHarness`` and its schema.

Every benchmark under ``benchmarks/`` measures through this module:

* :class:`BenchHarness` times each **case** (best-of-N wall time with
  warmup discard, or repeat-until-budget for millisecond-scale cells),
  collects per-case scalars — simulated events/sec, key streaming
  metrics, the stall-cause histogram from the trace analyzer — and
  prints/writes the human-readable tables under ``results/``;
* :func:`build_artifact` wraps the cases in a **versioned JSON
  artifact** (schema ``repro.bench/1``) with a full run manifest: git
  SHA + dirty flag, python/platform/cpu environment block, and stable
  :func:`~repro.parallel.digest.content_digest`\\ s of each case's
  workload;
* :func:`validate_artifact` / :func:`load_artifact` enforce the schema
  on the way back in, so ``repro compare`` never diffs garbage.

A benchmark script participates by exposing::

    def run_suite(harness, quick=False): ...

which both its pytest wrapper (``benchmarks/conftest.py``'s
``harness`` fixture) and ``repro bench <suite>`` drive.  The artifact
lands next to the tables as ``benchmarks/results/BENCH_<suite>.json``
— the machine-readable perf trajectory the ROADMAP's scaling work is
judged against.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .. import schema
from ..errors import ArtifactError, BenchError
from . import manifest as _manifest
from .export import dump_json

#: The schema tag written into and required from every artifact.
SCHEMA = _manifest.ARTIFACT_SCHEMA

#: Upper bound on repeat-until-budget rounds (runaway guard).
MAX_BUDGET_ROUNDS = 400


@dataclass(frozen=True, slots=True)
class CaseTiming:
    """Wall-time statistics of one benchmark case.

    Attributes:
        rounds: timed repetitions (after warmup).
        warmup: discarded untimed repetitions.
        best_s: minimum wall seconds over the rounds — the run least
            disturbed by scheduler noise, and the number regression
            gates compare.
        mean_s: mean wall seconds over the rounds.
        stdev_s: sample standard deviation (0 when rounds == 1);
            ``repro compare`` widens its threshold by this noise.
    """

    rounds: int
    warmup: int
    best_s: float
    mean_s: float
    stdev_s: float

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "warmup": self.warmup,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "stdev_s": self.stdev_s,
        }


@dataclass
class BenchCase:
    """One measured case of a suite (a row of the artifact).

    Attributes:
        case_id: stable identity within the suite (``"star/100/
            incremental"``); ``repro compare`` matches cases on it.
        timing: wall-time statistics.
        params: the case's knobs, recorded verbatim for humans.
        digest: content digest of the workload description, so compare
            can distinguish "same workload, slower" from "different
            workload".
        events_fired: simulated events executed (one timed round).
        events_per_sec: ``events_fired / timing.best_s``.
        sim_seconds: simulated seconds the case covered.
        metrics: free-form scalar metrics (stall counts, startup
            means, speedups ...).
        causes: stall-cause histogram from the analyzer, when the
            suite ran with analysis.
    """

    case_id: str
    timing: CaseTiming
    params: dict = field(default_factory=dict)
    digest: str | None = None
    events_fired: int | None = None
    events_per_sec: float | None = None
    sim_seconds: float | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    causes: dict[str, int] | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.case_id,
            "timing": self.timing.to_dict(),
            "params": dict(self.params),
            "digest": self.digest,
            "events_fired": self.events_fired,
            "events_per_sec": self.events_per_sec,
            "sim_seconds": self.sim_seconds,
            "metrics": dict(self.metrics),
            "causes": None if self.causes is None else dict(self.causes),
        }


class BenchHarness:
    """Times cases, keeps tables, and assembles the JSON artifact.

    Args:
        suite: suite name; the artifact is ``BENCH_<suite>.json``.
        results_dir: where tables and artifacts land (default:
            ``benchmarks/results`` relative to the current directory).
        quick: reduced-scale run.  Quick runs still produce a (quick-
            flagged) artifact but never overwrite the committed
            human-readable tables.
        clock: injectable monotonic clock (tests).
    """

    def __init__(
        self,
        suite: str,
        results_dir: str | Path | None = None,
        quick: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not suite or "/" in suite:
            raise BenchError(f"invalid suite name: {suite!r}")
        self.suite = suite
        self.results_dir = Path(
            results_dir
            if results_dir is not None
            else Path("benchmarks") / "results"
        )
        self.quick = quick
        self._clock = clock
        self.cases: list[BenchCase] = []
        self._case_ids: set[str] = set()
        # Taken before any case runs: a full run rewrites its committed
        # tables, so the tree is always dirty by the time of ``write``.
        self._manifest = _manifest.build_manifest()

    # -- measurement ---------------------------------------------------

    def case(
        self,
        case_id: str,
        fn: Callable[..., Any],
        *args: Any,
        kwargs: Mapping[str, Any] | None = None,
        rounds: int = 1,
        warmup: int = 0,
        budget_s: float | None = None,
        params: Mapping[str, Any] | None = None,
        digest_of: Any = None,
        self_timed: bool = False,
    ) -> Any:
        """Measure one case; returns ``fn``'s (last) return value.

        Timing modes:

        * fixed — ``warmup`` discarded calls, then ``rounds`` timed
          calls; the minimum wall time is the headline number;
        * budget (``budget_s``) — after warmup, repeat until the
          budget is spent (at least once, at most
          :data:`MAX_BUDGET_ROUNDS` rounds) and keep the minimum.
          Right for millisecond-scale cells where a fixed small N is
          all noise.

        Args:
            self_timed: ``fn`` returns ``(result, wall_seconds)``,
                timing only the section it cares about (e.g. the
                simulator loop, excluding topology construction).
            digest_of: any value describing the workload; its
                content digest is recorded on the case.
        """
        if case_id in self._case_ids:
            raise BenchError(
                f"duplicate case id {case_id!r} in suite {self.suite!r}"
            )
        if rounds < 1:
            raise BenchError(f"rounds must be >= 1: {rounds}")
        if warmup < 0:
            raise BenchError(f"warmup must be >= 0: {warmup}")
        call_kwargs = dict(kwargs or {})

        for _ in range(warmup):
            self._call(fn, args, call_kwargs, self_timed)

        walls: list[float] = []
        result: Any = None
        spent = 0.0
        while True:
            result, wall = self._call(fn, args, call_kwargs, self_timed)
            walls.append(wall)
            spent += wall
            if budget_s is not None:
                if spent >= budget_s or len(walls) >= MAX_BUDGET_ROUNDS:
                    break
            elif len(walls) >= rounds:
                break

        timing = CaseTiming(
            rounds=len(walls),
            warmup=warmup,
            best_s=min(walls),
            mean_s=statistics.fmean(walls),
            stdev_s=(
                statistics.stdev(walls) if len(walls) > 1 else 0.0
            ),
        )
        case = BenchCase(
            case_id=case_id,
            timing=timing,
            params=dict(params or {}),
        )
        if digest_of is not None:
            from ..parallel.digest import content_digest

            case.digest = content_digest(digest_of)
        self.cases.append(case)
        self._case_ids.add(case_id)
        return result

    def _call(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        self_timed: bool,
    ) -> tuple[Any, float]:
        if self_timed:
            result, wall = fn(*args, **kwargs)
            if not isinstance(wall, (int, float)) or wall < 0:
                raise BenchError(
                    "self-timed case must return "
                    "(result, wall_seconds >= 0)"
                )
            return result, float(wall)
        start = self._clock()
        result = fn(*args, **kwargs)
        return result, self._clock() - start

    def annotate(
        self,
        case_id: str | None = None,
        *,
        events_fired: int | None = None,
        sim_seconds: float | None = None,
        analysis: Any = None,
        **metrics: float,
    ) -> None:
        """Attach post-measurement facts to a case (default: the last).

        Args:
            events_fired: simulated events the case executed; also
                derives ``events_per_sec`` against the best wall time.
            analysis: a :class:`~repro.obs.analyze.CellAnalysis`-like
                object; its cause histogram, stall count, and transfer
                efficiency are folded in.
            metrics: any scalar worth tracking over time.
        """
        case = self._find(case_id)
        if events_fired is not None:
            case.events_fired = int(events_fired)
            if case.timing.best_s > 0:
                case.events_per_sec = events_fired / case.timing.best_s
        if sim_seconds is not None:
            case.sim_seconds = float(sim_seconds)
        if analysis is not None:
            case.causes = dict(getattr(analysis, "causes", {}) or {})
            stall_count = getattr(analysis, "stall_count", None)
            if stall_count is not None:
                case.metrics.setdefault(
                    "attributed_stalls", float(stall_count)
                )
            efficiency = getattr(
                analysis, "mean_transfer_efficiency", None
            )
            if efficiency is not None:
                case.metrics.setdefault(
                    "transfer_efficiency", float(efficiency)
                )
        for name, value in metrics.items():
            case.metrics[name] = float(value)

    def _find(self, case_id: str | None) -> BenchCase:
        if not self.cases:
            raise BenchError("no case measured yet")
        if case_id is None:
            return self.cases[-1]
        for case in self.cases:
            if case.case_id == case_id:
                return case
        raise BenchError(
            f"unknown case {case_id!r} in suite {self.suite!r}"
        )

    # -- human-readable output -----------------------------------------

    def emit(self, text: str, name: str | None = None) -> None:
        """Print a table and persist it under ``results/<name>.txt``.

        Exactly the contract the old per-script ``emit`` fixture had
        (stdout copy + durable file), except quick runs print only —
        a reduced-scale run must never overwrite a committed
        full-scale table.
        """
        print()
        print(text)
        if self.quick:
            return
        self.results_dir.mkdir(parents=True, exist_ok=True)
        target = self.results_dir / f"{name or self.suite}.txt"
        target.write_text(text + "\n")

    # -- the artifact --------------------------------------------------

    def artifact(self) -> dict:
        """The suite's artifact payload (schema-valid by construction)."""
        return build_artifact(
            self.suite, self.cases, quick=self.quick,
            manifest=self._manifest,
        )

    def write(self, path: str | Path | None = None) -> Path:
        """Write ``BENCH_<suite>.json``; returns the path written."""
        target = Path(
            path
            if path is not None
            else self.results_dir / f"BENCH_{self.suite}.json"
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = self.artifact()
        validate_artifact(payload)
        dump_json(payload, str(target))
        return target

    # -- conveniences for suites ---------------------------------------

    def paper_setup(self, quick: bool | None = None):
        """The paper's experiment config + encoded video, memoized.

        Quick mode mirrors the CLI's ``--quick`` convention (9 peers,
        one seed).  The video comes from the process-wide
        :mod:`repro.parallel.cache`, so every case of every suite in one
        process shares one encode.
        """
        from ..experiments.config import sweep_config
        from ..parallel.cache import cached_video
        from ..parallel.spec import VideoSpec

        config = sweep_config(self.quick if quick is None else quick)
        video = cached_video(VideoSpec(seed=config.video_seed))
        return config, video


def figure_metrics(result: Any) -> dict[str, float]:
    """Flatten a ``FigureResult`` to per-series key metrics.

    For every series the figure's own metric plus the two headline
    streaming metrics (stall count, startup time) are averaged over
    the bandwidth axis — the scalars future PRs get compared on.
    """
    metrics: dict[str, float] = {}
    for label, cells in result.series.items():
        names = {result.metric, "stall_count", "startup_time"}
        for name in sorted(names):
            values = [float(getattr(cell, name)) for cell in cells]
            if values:
                metrics[f"{label}.mean_{name}"] = statistics.fmean(
                    values
                )
    return metrics


# -- artifact build / validate / load ---------------------------------


def build_artifact(
    suite: str,
    cases: Iterable[BenchCase],
    quick: bool = False,
    manifest: dict | None = None,
) -> dict:
    """Assemble the versioned artifact payload for ``cases``.

    ``manifest`` is the provenance block to embed (default: the
    environment and git state now).
    """
    return {
        "schema": SCHEMA,
        "suite": suite,
        "quick": bool(quick),
        "created": _manifest.utc_timestamp(),
        "manifest": (
            manifest if manifest is not None else _manifest.build_manifest()
        ),
        "cases": [case.to_dict() for case in cases],
    }


def _check_cases(payload: dict) -> None:
    """The two cross-field rules the field table cannot express."""
    seen: set[str] = set()
    for index, case in enumerate(payload["cases"]):
        if case["id"] in seen:
            raise schema.Invalid(
                f"cases[{index}].id", f"duplicate case id {case['id']!r}"
            )
        seen.add(case["id"])
        timing = case["timing"]
        if timing["best_s"] > timing["mean_s"] * (1 + 1e-9):
            raise schema.Invalid(
                f"cases[{index}].timing", "best_s exceeds mean_s"
            )


_SECONDS = schema.number(0.0)

_ARTIFACT = schema.table(
    {
        "schema": schema.tag(SCHEMA),
        "suite": schema.STR,
        "quick": schema.BOOL,
        "created": schema.STR,
        "manifest": schema.table({
            "env": schema.table(
                {"python": schema.STR, "platform": schema.STR}
            ),
            "git?": schema.nullable(schema.table(
                {"sha": schema.STR, "dirty": schema.BOOL}
            )),
        }),
        "cases": schema.list_of(schema.table({
            "id": schema.STR,
            "timing": schema.table({
                "rounds": schema.integer(1),
                "warmup": schema.COUNT,
                "best_s": _SECONDS,
                "mean_s": _SECONDS,
                "stdev_s": _SECONDS,
            }),
            "params": schema.table({}),
            "digest?": schema.nullable(schema.STR),
            "events_fired?": schema.nullable(schema.COUNT),
            "events_per_sec?": schema.nullable(_SECONDS),
            "sim_seconds?": schema.nullable(_SECONDS),
            "metrics": schema.map_of(schema.NUMBER),
            "causes?": schema.nullable(schema.map_of(schema.COUNT)),
        })),
    },
    check=_check_cases,
)


def validate_artifact(payload: Any) -> None:
    """Check an artifact against schema ``repro.bench/1``.

    Raises:
        ArtifactError: naming the first offending field.
    """
    schema.validate(payload, _ARTIFACT, ArtifactError, "artifact")


def load_artifact(path: str | Path) -> dict:
    """Read and validate one ``BENCH_*.json`` artifact.

    Raises:
        ArtifactError: unreadable file, bad JSON, or schema violation.
    """
    return schema.load_json(path, _ARTIFACT, ArtifactError, "artifact")


# -- suite discovery (for ``repro bench``) ----------------------------


def discover_suites(bench_dir: str | Path) -> dict[str, Path]:
    """Map suite name -> script path for ``bench_*.py`` files."""
    base = Path(bench_dir)
    return {
        script.stem.removeprefix("bench_"): script
        for script in sorted(base.glob("bench_*.py"))
    }


def load_suite(name: str, script: str | Path):
    """Import a benchmark script by path; returns its module.

    The module must expose ``run_suite(harness, quick=False)``.
    """
    import importlib.util
    import sys

    script = Path(script)
    spec = importlib.util.spec_from_file_location(
        f"repro_bench.{name}", script
    )
    if spec is None or spec.loader is None:
        raise BenchError(f"cannot import benchmark script {script}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise BenchError(
            f"benchmark script {script} failed to import: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not callable(getattr(module, "run_suite", None)):
        raise BenchError(
            f"benchmark script {script} does not define "
            "run_suite(harness, quick=False)"
        )
    return module
