"""``repro compare``: diff two benchmark artifacts, gate on regression.

Given a baseline and a candidate ``BENCH_*.json`` (see
:mod:`repro.obs.bench`), this module matches cases by id, computes
per-metric deltas, and classifies each as **regression**,
**improvement**, or **neutral** against a noise-aware threshold:

* the caller's ``--threshold`` percentage is the floor;
* when a case was timed over several rounds, the threshold widens to
  three relative standard *errors* (stdev / sqrt(rounds)) of whichever
  artifact is noisier — a 12% slowdown inside a measurement whose
  aggregate is only pinned to ±6% is not a verdict.

Direction matters: wall-time metrics regress *upward*; throughput,
cache hit rate and speedup metrics (``events_per_sec``,
``metrics.hit_rate``, ``metrics.warm_speedup``) regress *downward*.
Workload digests are cross-checked so "same case id, different
workload" is reported as incomparable instead of being scored.

The intended CI shape: run a quick suite, ``repro compare`` it against
the committed artifact, and fail the job on exit code 1.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ArtifactError

#: Metrics compared by default, in report order.
DEFAULT_METRICS = ("best_s", "events_per_sec")

#: Metrics that live under ``case["timing"]``.
TIMING_METRICS = frozenset({"best_s", "mean_s", "stdev_s"})

#: Metric-name fragments where a larger candidate value is an
#: improvement (``events_per_sec``, ``metrics.hit_rate``,
#: ``metrics.speedup_vs_exact`` ...); every other metric is
#: lower-is-better.
HIGHER_IS_BETTER = ("per_sec", "hit_rate", "speedup")

#: Noise widening: this many relative standard errors.
NOISE_SIGMAS = 3.0

VERDICT_REGRESSION = "regression"
VERDICT_IMPROVEMENT = "improvement"
VERDICT_NEUTRAL = "neutral"


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """One (case, metric) comparison.

    Attributes:
        case_id: the matched case.
        metric: metric name (``best_s``, ``events_per_sec``, or a
            ``metrics.<name>`` scalar).
        baseline: baseline value.
        candidate: candidate value.
        delta_pct: percentage change, candidate vs baseline.
        threshold_pct: effective (noise-widened) threshold applied.
        verdict: ``regression`` / ``improvement`` / ``neutral``.
    """

    case_id: str
    metric: str
    baseline: float
    candidate: float
    delta_pct: float
    threshold_pct: float
    verdict: str


@dataclass(frozen=True, slots=True)
class Comparison:
    """The full verdict of one artifact pair.

    Attributes:
        baseline_suite: suite of the baseline artifact.
        candidate_suite: suite of the candidate artifact.
        rows: per-(case, metric) deltas, in case order.
        missing: case ids present only in the baseline.
        added: case ids present only in the candidate.
        notes: comparability caveats (suite/quick/env mismatches,
            digest conflicts, unscorable values).
    """

    baseline_suite: str
    candidate_suite: str
    rows: tuple[MetricDelta, ...]
    missing: tuple[str, ...]
    added: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(
            row for row in self.rows if row.verdict == VERDICT_REGRESSION
        )

    @property
    def improvements(self) -> tuple[MetricDelta, ...]:
        return tuple(
            row
            for row in self.rows
            if row.verdict == VERDICT_IMPROVEMENT
        )

    @property
    def ok(self) -> bool:
        """Whether nothing regressed (the CI gate)."""
        return not self.regressions


def _metric_value(case: dict, metric: str) -> float | None:
    if metric in TIMING_METRICS:
        value = case["timing"].get(metric)
    elif metric.startswith("metrics."):
        value = case["metrics"].get(metric[len("metrics."):])
    else:
        value = case.get(metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _noise_pct(case: dict) -> float:
    """Relative timing noise of one case, as a percentage.

    The headline numbers (``best_s``, ``mean_s``) are aggregates over
    ``rounds`` samples, so their uncertainty is the standard *error*,
    not the per-round standard deviation: stdev / sqrt(rounds).  A
    400-round budget case with 40% per-round jitter still pins its
    aggregate to ~2%, and must not get a 120%-wide free pass.
    """
    timing = case["timing"]
    rounds = timing["rounds"]
    if rounds < 2 or timing["mean_s"] <= 0:
        return 0.0
    stderr = timing["stdev_s"] / math.sqrt(rounds)
    return 100.0 * NOISE_SIGMAS * stderr / timing["mean_s"]


def compare_artifacts(
    baseline: dict,
    candidate: dict,
    threshold_pct: float = 10.0,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> Comparison:
    """Compare two validated artifacts (see module docstring).

    Args:
        baseline: the reference artifact (usually committed).
        candidate: the freshly measured artifact.
        threshold_pct: minimum percentage change that counts.
        metrics: which metrics to score; timing names, top-level case
            fields, or ``metrics.<name>`` scalars.

    Raises:
        ArtifactError: non-positive threshold, or no metric given.
    """
    if threshold_pct <= 0:
        raise ArtifactError(
            f"threshold must be positive: {threshold_pct}"
        )
    if not metrics:
        raise ArtifactError("at least one metric is required")

    notes: list[str] = []
    if baseline["suite"] != candidate["suite"]:
        notes.append(
            f"comparing different suites: {baseline['suite']!r} vs "
            f"{candidate['suite']!r}"
        )
    if baseline["quick"] != candidate["quick"]:
        notes.append(
            "quick/full mismatch: baseline "
            f"{'quick' if baseline['quick'] else 'full'}, candidate "
            f"{'quick' if candidate['quick'] else 'full'}"
        )
    base_env = baseline["manifest"]["env"]
    cand_env = candidate["manifest"]["env"]
    for key in ("python", "platform", "usable_cores"):
        if base_env.get(key) != cand_env.get(key):
            notes.append(
                f"environment differs ({key}): "
                f"{base_env.get(key)!r} vs {cand_env.get(key)!r}"
            )

    base_cases = {case["id"]: case for case in baseline["cases"]}
    cand_cases = {case["id"]: case for case in candidate["cases"]}
    missing = tuple(
        case_id for case_id in base_cases if case_id not in cand_cases
    )
    added = tuple(
        case_id for case_id in cand_cases if case_id not in base_cases
    )

    rows: list[MetricDelta] = []
    for case_id, base_case in base_cases.items():
        cand_case = cand_cases.get(case_id)
        if cand_case is None:
            continue
        base_digest = base_case.get("digest")
        cand_digest = cand_case.get("digest")
        if (
            base_digest is not None
            and cand_digest is not None
            and base_digest != cand_digest
        ):
            notes.append(
                f"case {case_id!r}: workload digests differ "
                f"({base_digest} vs {cand_digest}); not scored"
            )
            continue
        noise = max(_noise_pct(base_case), _noise_pct(cand_case))
        effective = max(threshold_pct, noise)
        for metric in metrics:
            base_value = _metric_value(base_case, metric)
            cand_value = _metric_value(cand_case, metric)
            if base_value is None or cand_value is None:
                continue
            if base_value <= 0:
                notes.append(
                    f"case {case_id!r}: {metric} baseline is "
                    f"{base_value:g}; not scored"
                )
                continue
            delta_pct = 100.0 * (cand_value - base_value) / base_value
            higher = any(word in metric for word in HIGHER_IS_BETTER)
            gain = delta_pct if higher else -delta_pct
            verdict = (
                VERDICT_REGRESSION
                if gain < -effective
                else VERDICT_IMPROVEMENT
                if gain > effective
                else VERDICT_NEUTRAL
            )
            rows.append(
                MetricDelta(
                    case_id=case_id,
                    metric=metric,
                    baseline=base_value,
                    candidate=cand_value,
                    delta_pct=delta_pct,
                    threshold_pct=effective,
                    verdict=verdict,
                )
            )

    return Comparison(
        baseline_suite=baseline["suite"],
        candidate_suite=candidate["suite"],
        rows=tuple(rows),
        missing=missing,
        added=added,
        notes=tuple(notes),
    )


def _format_value(value: float) -> str:
    if value >= 1000:
        return f"{value:12.0f}"
    return f"{value:12.4g}"


def render_comparison(comparison: Comparison) -> str:
    """The per-case delta table ``repro compare`` prints."""
    lines = [
        f"{'case':<32} {'metric':<18} {'baseline':>12} "
        f"{'candidate':>12} {'delta':>8}  verdict"
    ]
    for row in comparison.rows:
        verdict = (
            row.verdict.upper()
            if row.verdict == VERDICT_REGRESSION
            else row.verdict
        )
        lines.append(
            f"{row.case_id:<32} {row.metric:<18} "
            f"{_format_value(row.baseline)} "
            f"{_format_value(row.candidate)} "
            f"{row.delta_pct:>+7.1f}%  {verdict}"
        )
    for case_id in comparison.missing:
        lines.append(f"{case_id:<32} (missing from candidate)")
    for case_id in comparison.added:
        lines.append(f"{case_id:<32} (new in candidate)")
    counts = _verdict_counts(comparison.rows)
    lines.append("")
    lines.append(
        f"{counts[VERDICT_REGRESSION]} regression(s), "
        f"{counts[VERDICT_IMPROVEMENT]} improvement(s), "
        f"{counts[VERDICT_NEUTRAL]} neutral"
    )
    for note in comparison.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _verdict_counts(rows: Iterable[MetricDelta]) -> dict[str, int]:
    counts = {
        VERDICT_REGRESSION: 0,
        VERDICT_IMPROVEMENT: 0,
        VERDICT_NEUTRAL: 0,
    }
    for row in rows:
        counts[row.verdict] += 1
    return counts


def mean_delta_pct(rows: Iterable[MetricDelta]) -> float | None:
    """Mean percentage delta over rows (None when empty)."""
    values = [row.delta_pct for row in rows]
    if not values:
        return None
    return statistics.fmean(values)
