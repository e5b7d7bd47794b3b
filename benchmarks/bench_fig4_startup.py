"""Figure 4 — startup time for different bandwidths.

Regenerates the startup-time series (2/4/8-second segments,
128-1024 kB/s) and asserts the paper's shape: larger segments start
slower, with the gap largest at low bandwidth.
"""

from __future__ import annotations

from repro.experiments import fig4
from repro.experiments.report import format_figure
from repro.obs import Observability, render_run_report
from repro.obs.bench import figure_metrics
from repro.parallel import SweepExecutor


def _by_bw(cells):
    return {cell.bandwidth_kb: cell for cell in cells}


def run_suite(harness, quick=False):
    config, video = harness.paper_setup(quick)
    executor = SweepExecutor(jobs=1)
    # No profile on this obs: profiling publishes engine.* metrics
    # into the registry, and this report must stay byte-identical to
    # the committed table.
    obs = Observability.metrics_only()
    kwargs = {
        "config": config,
        "video": video,
        "obs": obs,
        "executor": executor,
    }
    if quick:
        kwargs["bandwidths_kb"] = (128, 512)
    result = harness.case(
        "fig4/sweep",
        fig4.run,
        kwargs=kwargs,
        params={
            "quick": quick,
            "n_leechers": config.n_leechers,
            "seeds": len(config.seeds),
        },
        digest_of=("fig4", config, kwargs.get("bandwidths_kb")),
    )
    stats = executor.stats
    harness.annotate(
        events_fired=stats.events_fired,
        sim_seconds=stats.sim_seconds,
        **figure_metrics(result),
    )
    harness.emit(
        format_figure(result) + "\n\n" + render_run_report(obs),
        name="fig4_startup_times",
    )
    if not quick:
        _check(result)
    return result


def _check(result):
    two = _by_bw(result.series["2 sec segment"])
    four = _by_bw(result.series["4 sec segment"])
    eight = _by_bw(result.series["8 sec segment"])

    # Larger segments start slower at every bandwidth.
    for bw in (128, 256, 512, 1024):
        assert (
            two[bw].startup_time
            < four[bw].startup_time
            < eight[bw].startup_time
        )

    # "The large segments can result in a very high startup time in a
    # low bandwidth network": the 8 s gap is largest at 128 kB/s.
    gap_low = eight[128].startup_time - two[128].startup_time
    gap_high = eight[1024].startup_time - two[1024].startup_time
    assert gap_low > gap_high

    # Startup falls with bandwidth for every series.
    for series in (two, four, eight):
        assert series[1024].startup_time <= series[128].startup_time


def test_fig4_startup_times(harness):
    run_suite(harness)
