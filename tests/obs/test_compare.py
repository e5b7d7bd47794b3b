"""``repro compare``: delta scoring, noise widening, digest guards."""

from __future__ import annotations

import pytest

from repro.errors import ArtifactError
from repro.obs.compare import (
    DEFAULT_METRICS,
    compare_artifacts,
    render_comparison,
)


def make_case(
    case_id,
    best_s=1.0,
    rounds=1,
    stdev_s=0.0,
    events_per_sec=None,
    digest=None,
    metrics=None,
):
    mean_s = max(best_s, best_s + stdev_s)
    return {
        "id": case_id,
        "timing": {
            "rounds": rounds,
            "warmup": 0,
            "best_s": best_s,
            "mean_s": mean_s,
            "stdev_s": stdev_s,
        },
        "params": {},
        "digest": digest,
        "events_fired": None,
        "events_per_sec": events_per_sec,
        "sim_seconds": None,
        "metrics": dict(metrics or {}),
        "causes": None,
    }


def make_artifact(cases, suite="demo", quick=False, cores=4):
    return {
        "schema": "repro.bench/1",
        "suite": suite,
        "quick": quick,
        "created": "2026-08-08T00:00:00+00:00",
        "manifest": {
            "env": {
                "python": "3.12.0",
                "implementation": "CPython",
                "platform": "Linux",
                "machine": "x86_64",
                "cpu_count": cores,
                "usable_cores": cores,
            },
            "git": None,
        },
        "cases": cases,
    }


class TestVerdicts:
    def test_slower_wall_time_is_a_regression(self):
        baseline = make_artifact([make_case("c", best_s=1.0)])
        candidate = make_artifact([make_case("c", best_s=1.3)])
        comparison = compare_artifacts(
            baseline, candidate, threshold_pct=10.0
        )
        assert not comparison.ok
        (row,) = comparison.regressions
        assert row.metric == "best_s"
        assert row.delta_pct == pytest.approx(30.0)

    def test_faster_wall_time_is_an_improvement(self):
        baseline = make_artifact([make_case("c", best_s=1.0)])
        candidate = make_artifact([make_case("c", best_s=0.7)])
        comparison = compare_artifacts(baseline, candidate)
        assert comparison.ok
        (row,) = [
            row for row in comparison.rows if row.verdict == "improvement"
        ]
        assert row.delta_pct == pytest.approx(-30.0)

    def test_throughput_direction_is_inverted(self):
        baseline = make_artifact(
            [make_case("c", events_per_sec=1000.0)]
        )
        candidate = make_artifact(
            [make_case("c", events_per_sec=600.0)]
        )
        comparison = compare_artifacts(baseline, candidate)
        regressed = {row.metric for row in comparison.regressions}
        assert "events_per_sec" in regressed

    def test_within_threshold_is_neutral(self):
        baseline = make_artifact([make_case("c", best_s=1.0)])
        candidate = make_artifact([make_case("c", best_s=1.05)])
        comparison = compare_artifacts(
            baseline, candidate, threshold_pct=10.0
        )
        assert comparison.ok
        assert comparison.rows[0].verdict == "neutral"

    def test_identical_artifacts_are_clean(self):
        artifact = make_artifact(
            [make_case("c", best_s=1.0, events_per_sec=500.0)]
        )
        comparison = compare_artifacts(artifact, artifact)
        assert comparison.ok
        assert all(
            row.delta_pct == 0.0 for row in comparison.rows
        )


class TestNoiseWidening:
    def test_noisy_measurement_widens_the_threshold(self):
        # stderr = 0.12 / sqrt(4) = 0.06 on a 1.12 mean; 3 standard
        # errors = ~16% effective threshold, so a 15% slowdown inside
        # that noise is neutral, not a verdict.
        baseline = make_artifact(
            [make_case("c", best_s=1.0, rounds=4, stdev_s=0.12)]
        )
        candidate = make_artifact([make_case("c", best_s=1.15)])
        comparison = compare_artifacts(
            baseline, candidate, threshold_pct=10.0
        )
        assert comparison.ok
        row = comparison.rows[0]
        assert row.verdict == "neutral"
        assert row.threshold_pct > 10.0

    def test_many_rounds_shrink_the_widening(self):
        # Same 40% per-round jitter, but over 400 rounds the aggregate
        # is pinned to ~4%: a 15% slowdown must still be a regression.
        baseline = make_artifact(
            [make_case("c", best_s=1.0, rounds=400, stdev_s=0.4)]
        )
        candidate = make_artifact([make_case("c", best_s=1.15)])
        comparison = compare_artifacts(
            baseline, candidate, threshold_pct=10.0
        )
        assert not comparison.ok
        assert comparison.rows[0].threshold_pct < 15.0

    def test_single_round_contributes_no_noise(self):
        baseline = make_artifact(
            [make_case("c", best_s=1.0, rounds=1, stdev_s=0.0)]
        )
        candidate = make_artifact([make_case("c", best_s=1.15)])
        comparison = compare_artifacts(
            baseline, candidate, threshold_pct=10.0
        )
        assert not comparison.ok


class TestComparability:
    def test_digest_mismatch_is_noted_not_scored(self):
        baseline = make_artifact(
            [make_case("c", best_s=1.0, digest="aaaa")]
        )
        candidate = make_artifact(
            [make_case("c", best_s=9.0, digest="bbbb")]
        )
        comparison = compare_artifacts(baseline, candidate)
        assert comparison.ok  # not scored, so nothing regressed
        assert not comparison.rows
        assert any("digests differ" in note for note in comparison.notes)

    def test_missing_and_added_cases_reported(self):
        baseline = make_artifact([make_case("old")])
        candidate = make_artifact([make_case("new")])
        comparison = compare_artifacts(baseline, candidate)
        assert comparison.missing == ("old",)
        assert comparison.added == ("new",)

    def test_environment_differences_are_noted(self):
        baseline = make_artifact([make_case("c")], cores=4)
        candidate = make_artifact([make_case("c")], cores=32)
        comparison = compare_artifacts(baseline, candidate)
        assert any(
            "usable_cores" in note for note in comparison.notes
        )

    def test_quick_full_mismatch_is_noted(self):
        baseline = make_artifact([make_case("c")], quick=False)
        candidate = make_artifact([make_case("c")], quick=True)
        comparison = compare_artifacts(baseline, candidate)
        assert any("quick/full" in note for note in comparison.notes)

    def test_zero_baseline_is_noted_not_scored(self):
        baseline = make_artifact([make_case("c", best_s=0.0)])
        candidate = make_artifact([make_case("c", best_s=1.0)])
        comparison = compare_artifacts(baseline, candidate)
        assert not comparison.rows
        assert any("not scored" in note for note in comparison.notes)


class TestMetricSelection:
    def test_custom_scalar_metric_path(self):
        baseline = make_artifact(
            [make_case("c", metrics={"stalls": 10.0})]
        )
        candidate = make_artifact(
            [make_case("c", metrics={"stalls": 20.0})]
        )
        comparison = compare_artifacts(
            baseline, candidate, metrics=("metrics.stalls",)
        )
        (row,) = comparison.rows
        assert row.metric == "metrics.stalls"
        assert row.verdict == "regression"

    @pytest.mark.parametrize(
        "metric", ["hit_rate", "warm_speedup", "speedup_vs_exact"]
    )
    def test_hit_rate_and_speedup_drops_are_regressions(self, metric):
        # The CI sweep-cache gate scores metrics.hit_rate: a warm sweep
        # that stops hitting the store must fail it.
        baseline = make_artifact([make_case("c", metrics={metric: 1.0})])
        candidate = make_artifact(
            [make_case("c", metrics={metric: 0.5})]
        )
        comparison = compare_artifacts(
            baseline, candidate, metrics=(f"metrics.{metric}",)
        )
        (row,) = comparison.rows
        assert row.delta_pct == pytest.approx(-50.0)
        assert row.verdict == "regression"
        assert not comparison.ok

    def test_absent_metric_is_skipped(self):
        baseline = make_artifact([make_case("c")])
        candidate = make_artifact([make_case("c")])
        comparison = compare_artifacts(
            baseline, candidate, metrics=("metrics.nope",)
        )
        assert not comparison.rows

    def test_default_metrics_are_timing_and_throughput(self):
        assert DEFAULT_METRICS == ("best_s", "events_per_sec")

    def test_rejects_bad_threshold(self):
        artifact = make_artifact([make_case("c")])
        with pytest.raises(ArtifactError):
            compare_artifacts(artifact, artifact, threshold_pct=0.0)

    def test_rejects_empty_metric_list(self):
        artifact = make_artifact([make_case("c")])
        with pytest.raises(ArtifactError):
            compare_artifacts(artifact, artifact, metrics=())


class TestRendering:
    def test_regressions_shout_and_counts_line_present(self):
        baseline = make_artifact([make_case("c", best_s=1.0)])
        candidate = make_artifact([make_case("c", best_s=2.0)])
        text = render_comparison(
            compare_artifacts(baseline, candidate)
        )
        assert "REGRESSION" in text
        assert "1 regression(s), 0 improvement(s), 0 neutral" in text

    def test_notes_and_case_churn_rendered(self):
        baseline = make_artifact([make_case("old")], quick=False)
        candidate = make_artifact([make_case("new")], quick=True)
        text = render_comparison(
            compare_artifacts(baseline, candidate)
        )
        assert "(missing from candidate)" in text
        assert "(new in candidate)" in text
        assert "note: quick/full mismatch" in text

