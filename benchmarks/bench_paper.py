"""The paper suite: Figs. 2–5 and ablations A1–A10, one row per case.

Each row of :data:`CASES` names a measured case (``repro compare``
matches on its id), the ``results/<table>.txt`` it renders into, how it
runs a ``repro.experiments`` entry point, the workload its content
digest covers, how it renders, and the paper claim it asserts.
:func:`run_table` drives every row the same way: the paper's config and
video, a fresh serial :class:`~repro.parallel.SweepExecutor`, one timed
``harness.case``, the executor's event totals plus the row's metrics on
the case, the table, then the row's checks.  Rows sharing a table
(fig2's analysed cell, A8's two backends) fill it in row order, one
blank line apart.

``pytest benchmarks/bench_paper.py -k fig2`` regenerates one table;
``pytest benchmarks/bench_paper.py`` or ``repro bench paper [--quick]``
regenerates all of them.  Quick runs narrow the axes, assert only the
``smoke`` checks, and never touch the committed tables.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.experiments import (
    ablations, abr_study, selection_study, transport_study,
)
from repro.experiments.config import ExperimentConfig, figure_axis
from repro.experiments.report import format_figure, format_overhead
from repro.experiments.reproduce import FIGURES
from repro.obs.bench import figure_metrics
from repro.parallel import SweepExecutor

_CHURN_FRACTIONS = (0.0, 0.25, 0.5)
_OVERHEAD_DURATIONS = (1.0, 2.0, 4.0, 8.0)
_PREROLLS = (1, 2, 3)
_ABR_BANDWIDTHS_KB = (96, 128, 192, 256)

#: The axes a quick run narrows: name -> (full scale, quick).
AXES = {
    "durations": ((1.0, 2.0, 4.0, 8.0, 16.0), (1.0, 4.0, 16.0)),
    "sizes": ((5, 10, 19, 38), (5, 10)),
    "cohort_sizes": ((100, 1_000, 10_000), (100, 1_000)),
    "transport_kb": ((128, 256, 512), (128, 256)),
}


def _axis(name: str, quick: bool) -> tuple:
    return AXES[name][1 if quick else 0]


@dataclass(frozen=True)
class Case:
    """One row of the paper suite.

    Attributes:
        id: the case id in the ``BENCH_paper.json`` artifact.
        table: the ``results/<table>.txt`` the row renders into.
        run: ``run(config, video, quick, executor)`` -> the result.
        digest: ``digest(config, quick)`` -> the workload description
            whose content digest is recorded on the case.
        render: the row's part of its table (``None``: no part).
        metrics: scalars recorded on the case.
        check: the paper's claims, asserted at full scale.
        smoke: ``smoke(result, quick)``, asserted at every scale.
    """

    id: str
    table: str
    run: Callable[..., Any]
    digest: Callable[[ExperimentConfig, bool], tuple]
    render: Callable[[Any], str] | None = format_figure
    metrics: Callable[[Any], dict] = figure_metrics
    check: Callable[[Any], None] | None = None
    smoke: Callable[[Any, bool], None] | None = None


def _on_axis(case_id, table, entry, tag, check) -> Case:
    """A row over ``entry``'s own bandwidth axis, narrowed when quick."""
    return Case(
        case_id, table,
        run=lambda config, video, quick, executor: entry(
            config, video, executor=executor, **figure_axis(quick)
        ),
        digest=lambda config, quick: (
            tag, config, figure_axis(quick).get("bandwidths_kb")
        ),
        check=check,
    )


def _by_bw(cells):
    return {cell.bandwidth_kb: cell for cell in cells}


# -- the paper's claims (Figs. 2–5) -----------------------------------------


def _check_fig2(result):
    gop = _by_bw(result.series["gop"])
    two = _by_bw(result.series["duration-2s"])
    four = _by_bw(result.series["duration-4s"])
    eight = _by_bw(result.series["duration-8s"])

    # GOP-based splicing causes more stalls than duration-based
    # splicing (the headline claim) at every bandwidth above the
    # saturated low end.
    for bw in (256, 512, 768):
        assert gop[bw].stall_count > four[bw].stall_count

    # 2-second segments stall more than 4-second segments when
    # bandwidth is small...
    assert two[128].stall_count > four[128].stall_count
    assert two[256].stall_count > four[256].stall_count

    # ...and 8-second segments stall more than 4-second at the low end.
    assert eight[128].stall_count > four[128].stall_count

    # Every series decreases as bandwidth grows.
    for series in (gop, two, four, eight):
        assert series[768].stall_count <= series[128].stall_count


def _check_fig3(result):
    # Stall time collapses as bandwidth grows, for every technique.
    for label, cells in result.series.items():
        series = _by_bw(cells)
        assert series[768].stall_duration < series[128].stall_duration

    # At the top bandwidth every technique is near-smooth (the paper's
    # series all approach zero on the right edge of the figure).
    for cells in result.series.values():
        assert _by_bw(cells)[768].stall_duration < 60.0


def _check_fig4(result):
    two = _by_bw(result.series["2 sec segment"])
    four = _by_bw(result.series["4 sec segment"])
    eight = _by_bw(result.series["8 sec segment"])

    # Larger segments start slower at every bandwidth.
    for bw in (128, 256, 512, 1024):
        assert (
            two[bw].startup_time < four[bw].startup_time
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


def _check_fig5(result):
    adaptive = _by_bw(result.series["Adaptive pooling"])
    fixed = {
        size: _by_bw(result.series[f"Pool size: {size}"])
        for size in (2, 4, 8)
    }

    # Adaptive pooling results in the fewest stalls where bandwidth is
    # scarce (the paper's Section VI-B claim).
    for size in (2, 4, 8):
        assert adaptive[128].stall_count <= fixed[size][128].stall_count

    # Deep fixed pools also delay segment 0 massively at low
    # bandwidth (the prefetches share the downlink with it).
    assert fixed[8][128].startup_time > 3 * adaptive[128].startup_time

    # With sufficient bandwidth a large pool is harmless — all
    # policies converge to (near) zero stalls.
    for size in (2, 4, 8):
        assert fixed[size][768].stall_count <= 1.0
    assert adaptive[768].stall_count <= 2.0


# -- the ablations' claims (A1–A10) -----------------------------------------


def _check_segment_size(result):
    def stalls(duration, bw):
        cells = result.series[f"duration-{int(duration)}s"]
        return next(
            cell.stall_count for cell in cells if cell.bandwidth_kb == bw
        )

    # At 128 kB/s the extremes lose to the middle: 1 s pays overhead +
    # connection churn, 16 s is coarser than the whole buffer.
    assert stalls(1.0, 128) > stalls(4.0, 128)
    assert stalls(16.0, 128) > stalls(4.0, 128)


def _check_churn(result):
    cells = {
        label: cells[0].stall_count for label, cells in result.series.items()
    }
    # Survivors keep finishing even when half the swarm churns; stalls
    # stay within a small factor of the churn-free baseline because
    # the seeder backstops departed sources.
    baseline = max(cells["churn 0%"], 0.5)
    assert cells["churn 50%"] <= 10 * baseline


def _check_overhead(rows, quick):
    by_name = {row.technique: row for row in rows}
    assert by_name["gop"].overhead_bytes == 0
    # Overhead shrinks monotonically as segments grow.
    percents = [
        by_name[f"duration-{d}s"].overhead_percent for d in (1, 2, 4, 8)
    ]
    assert percents == sorted(percents, reverse=True)
    # The 1-second extreme is "much more data": several percent.
    assert percents[0] > 5.0


def _check_variable_bw(result):
    stalls = {
        label: cells[0].stall_count for label, cells in result.series.items()
    }
    # The paper's ordering survives oscillation: GOP-based splicing
    # still stalls more than 4-second duration splicing.
    assert stalls["gop"] > stalls["duration-4s"]


def _check_adaptive_splicing(result):
    adaptive = _by_bw(result.series["adaptive duration"])
    fixed = _by_bw(result.series["fixed 4s"])
    # Where it matters (the scarce end) the planner must not lose to
    # the fixed default it would replace.
    assert adaptive[128].stall_count <= fixed[128].stall_count + 1.0
    # At high bandwidth the planner picks short segments, which buy a
    # faster startup.
    assert adaptive[768].startup_time <= fixed[768].startup_time


def _check_selection(result):
    stalls = {
        label: cells[0].stall_count for label, cells in result.series.items()
    }
    # Both strategies keep the swarm streaming under churn; neither
    # collapses (sequential relies on the seeder backstop, the hybrid
    # on piece diversity).
    for label, value in stalls.items():
        assert value < 30.0, f"{label} collapsed: {value} stalls"


def _check_preroll(result):
    cells = {label: cells[0] for label, cells in result.series.items()}
    # Deeper pre-roll never stalls more...
    assert cells["preroll 3"].stall_count <= cells["preroll 1"].stall_count
    # ...and never starts faster.
    assert (
        cells["preroll 3"].startup_time >= cells["preroll 1"].startup_time
    )


# A8: the exact engine carries the sweep to 38 peers; the vectorized
# cohort backend (``docs/SCALING.md``) continues it to 10^4 peers, where
# the origin's share of the served bytes becomes negligible — minutes of
# exact event time but well under a second vectorized.


def _cohort_config(config):
    return replace(config, join_stagger=0.1)


def _origin_shares(result):
    return {
        label: cells[0].seeder_bytes
        / max(1.0, cells[0].seeder_bytes + cells[0].peer_bytes)
        for label, cells in result.series.items()
    }


def _origin_lines(title, result, width):
    return [title] + [
        f"  {label:>{width}s}: {100 * share:5.1f}%"
        for label, share in _origin_shares(result).items()
    ]


def _scaling_metrics(result):
    shares = _origin_shares(result)
    return {
        **{f"{label}.origin_share": share for label, share in shares.items()},
        **figure_metrics(result),
    }


def _scaling_smoke(result, quick):
    sizes = _axis("sizes", quick)
    shares = _origin_shares(result)
    # The origin's share of the bytes shrinks as the swarm grows (this
    # holds at quick scale too — it is the point of P2P).
    assert shares[f"{sizes[-1]} peers"] < shares[f"{sizes[0]} peers"]


def _cohort_smoke(cohort_result, quick):
    cohort_sizes = _axis("cohort_sizes", quick)
    cohort_shares = _origin_shares(cohort_result)
    assert (
        cohort_shares[f"{cohort_sizes[-1]} peers"]
        < cohort_shares[f"{cohort_sizes[0]} peers"]
    )


def _check_scaling(result):
    for label, cells in result.series.items():
        assert cells[0].finished_fraction == 1.0
        assert cells[0].stall_count < 15.0


def _check_cohort(cohort_result):
    for label, cells in cohort_result.series.items():
        assert cells[0].finished_fraction == 1.0


def _check_transport(result):
    tcp = _by_bw(result.series["tcp"])
    udp = _by_bw(result.series["ppspp-udp"])
    # The delay-based transport never does worse, and wins where TCP's
    # loss ceiling binds (the scarce end).
    for bw in (128, 256):
        assert udp[bw].stall_count <= tcp[bw].stall_count * 1.1
    assert udp[128].stall_count < tcp[128].stall_count


def _abr_metrics(rows):
    return {
        f"{strategy}.mean_stalls": statistics.fmean(
            row.stalls for row in rows if row.strategy == strategy
        )
        for strategy in dict.fromkeys(row.strategy for row in rows)
    }


def _check_abr(rows, quick):
    def cell(strategy_prefix, bw):
        return next(
            row
            for row in rows
            if row.strategy.startswith(strategy_prefix)
            and row.bandwidth_kb == bw
        )

    top_bitrate = max(row.mean_bitrate for row in rows)
    for bw in (96, 128):
        abr = cell("abr", bw)
        adaptive = cell("duration-adaptive", bw)
        fixed = cell("fixed-top", bw)
        # ABR trades quality for smoothness...
        assert abr.stalls == 0
        assert abr.mean_bitrate < top_bitrate * 0.9
        # ...duration adaptation keeps full quality ("without
        # degrading the video quality")...
        assert adaptive.mean_bitrate == top_bitrate
        # ...and stalls less than the non-adaptive client.
        assert adaptive.stalls <= fixed.stalls
    # ABR's instability: it switches renditions, the others never do.
    assert cell("abr", 96).switches > 0
    assert cell("duration-adaptive", 96).switches == 0


# -- the table ---------------------------------------------------------------

CASES: tuple[Case, ...] = (
    _on_axis("fig2/sweep", "fig2_stall_counts", FIGURES["2"].run, "fig2",
             _check_fig2),
    # The scarce end again with the analyzer attached, so the artifact
    # carries a stall-cause histogram.
    Case(
        "fig2/analyzed@128", "fig2_stall_counts",
        run=lambda config, video, quick, executor: FIGURES["2"].run(
            config, video, bandwidths_kb=(128,), executor=executor,
            analyze=True,
        ),
        digest=lambda config, quick: ("fig2-analyzed", config, 128),
        render=None,
        metrics=lambda result: {
            "analysis": result.series["duration-4s"][0].analysis
        },
    ),
    _on_axis("fig3/sweep", "fig3_stall_durations", FIGURES["3"].run,
             "fig3", _check_fig3),
    _on_axis("fig4/sweep", "fig4_startup_times", FIGURES["4"].run, "fig4",
             _check_fig4),
    _on_axis("fig5/sweep", "fig5_pool_policies", FIGURES["5"].run, "fig5",
             _check_fig5),
    Case(
        "duration_sweep", "ablation_segment_size_sweep",
        run=lambda config, video, quick, executor: (
            ablations.run_segment_size_sweep(
                config, video, bandwidths_kb=(128, 512),
                durations=_axis("durations", quick), executor=executor,
            )
        ),
        digest=lambda config, quick: (
            "segment_size", config, (128, 512), _axis("durations", quick)
        ),
        check=_check_segment_size,
    ),
    Case(
        "churn@256", "ablation_churn",
        run=lambda config, video, quick, executor: ablations.run_churn(
            config, video, bandwidth_kb=256, churn_fractions=_CHURN_FRACTIONS,
            executor=executor,
        ),
        digest=lambda config, quick: ("churn", config, 256, _CHURN_FRACTIONS),
        check=_check_churn,
    ),
    Case(
        "splice_overhead", "ablation_splicing_overhead",
        run=lambda config, video, quick, executor: ablations.run_overhead(
            video, durations=_OVERHEAD_DURATIONS
        ),
        digest=lambda config, quick: (
            "overhead", config.video_seed, _OVERHEAD_DURATIONS
        ),
        render=format_overhead,
        metrics=lambda rows: {
            f"{row.technique}.overhead_pct": row.overhead_percent
            for row in rows
        },
        smoke=_check_overhead,
    ),
    Case(
        "square_wave@256", "ablation_variable_bandwidth",
        run=lambda config, video, quick, executor: (
            ablations.run_variable_bandwidth(
                config, video, base_kb=256, amplitude=0.5, period=20.0,
                executor=executor,
            )
        ),
        digest=lambda config, quick: ("variable_bw", config, 256, 0.5, 20.0),
        check=_check_variable_bw,
    ),
    _on_axis("adaptive_vs_fixed4s", "ablation_adaptive_splicing",
             ablations.run_adaptive_splicing, "adaptive_splicing",
             _check_adaptive_splicing),
    Case(
        "selection@256", "ablation_piece_selection",
        run=lambda config, video, quick, executor: selection_study.run(
            config, video, bandwidth_kb=256, churn_fraction=0.5,
            executor=executor,
        ),
        digest=lambda config, quick: ("selection", config, 256, 0.5),
        check=_check_selection,
    ),
    Case(
        "preroll@256", "ablation_preroll",
        run=lambda config, video, quick, executor: ablations.run_preroll(
            config, video, bandwidth_kb=256, prerolls=_PREROLLS,
            executor=executor,
        ),
        digest=lambda config, quick: ("preroll", config, 256, _PREROLLS),
        check=_check_preroll,
    ),
    Case(
        "scaling@256", "ablation_swarm_scaling",
        run=lambda config, video, quick, executor: (
            ablations.run_swarm_scaling(
                config, video, bandwidth_kb=256,
                swarm_sizes=_axis("sizes", quick), executor=executor,
            )
        ),
        digest=lambda config, quick: (
            "swarm_scaling", config, 256, _axis("sizes", quick)
        ),
        render=lambda result: "\n".join(
            [format_figure(result), ""]
            + _origin_lines("origin share of served bytes:", result, 9)
        ),
        metrics=_scaling_metrics,
        check=_check_scaling,
        smoke=_scaling_smoke,
    ),
    Case(
        "scaling-cohort@256", "ablation_swarm_scaling",
        run=lambda config, video, quick, executor: (
            ablations.run_swarm_scaling(
                _cohort_config(config), video, bandwidth_kb=256,
                swarm_sizes=_axis("cohort_sizes", quick),
                executor=executor, fidelity="cohort",
            )
        ),
        digest=lambda config, quick: (
            "swarm_scaling", _cohort_config(config), 256,
            _axis("cohort_sizes", quick), "cohort",
        ),
        render=lambda result: "\n".join(_origin_lines(
            "cohort backend, origin share of served bytes:", result, 11
        )),
        metrics=lambda cohort_result: {
            f"cohort.{key}": value
            for key, value in _scaling_metrics(cohort_result).items()
        },
        check=_check_cohort,
        smoke=_cohort_smoke,
    ),
    Case(
        "tcp_vs_ppspp", "ablation_transport",
        run=lambda config, video, quick, executor: transport_study.run(
            config, video, bandwidths_kb=_axis("transport_kb", quick),
            executor=executor,
        ),
        digest=lambda config, quick: (
            "transport", config, _axis("transport_kb", quick)
        ),
        check=_check_transport,
    ),
    Case(
        "abr_vs_duration", "ablation_abr_vs_duration",
        run=lambda config, video, quick, executor: abr_study.run(
            bandwidths_kb=_ABR_BANDWIDTHS_KB
        ),
        digest=lambda config, quick: ("abr_study", _ABR_BANDWIDTHS_KB),
        render=abr_study.format_rows,
        metrics=_abr_metrics,
        smoke=_check_abr,
    ),
)

#: Table name -> its rows, in :data:`CASES` order.
TABLES: dict[str, list[Case]] = {}
for _case in CASES:
    TABLES.setdefault(_case.table, []).append(_case)


# -- running the rows ---------------------------------------------------------


def run_case(harness, case: Case, quick: bool = False):
    """Measure one row; returns its result."""
    config, video = harness.paper_setup(quick)
    executor = SweepExecutor(jobs=1)
    result = harness.case(
        case.id, case.run, config, video, quick, executor,
        params={"quick": quick, "n_leechers": config.n_leechers,
                "seeds": len(config.seeds)},
        digest_of=case.digest(config, quick),
    )
    stats = executor.stats
    harness.annotate(
        events_fired=stats.events_fired if stats.runs else None,
        sim_seconds=stats.sim_seconds if stats.runs else None,
        **case.metrics(result),
    )
    return result


def run_table(harness, table: str, quick: bool = False) -> None:
    """Measure a table's rows, emit it, then assert their claims."""
    cases = TABLES[table]
    results = [run_case(harness, case, quick) for case in cases]
    harness.emit(
        "\n\n".join(
            case.render(result)
            for case, result in zip(cases, results)
            if case.render is not None
        ),
        name=table,
    )
    for case, result in zip(cases, results):
        if case.smoke is not None:
            case.smoke(result, quick)
        if not quick and case.check is not None:
            case.check(result)


def run_suite(harness, quick=False):
    """Every table, in paper order (``repro bench paper``)."""
    for table in TABLES:
        run_table(harness, table, quick)


def pytest_generate_tests(metafunc):
    """One ``test_paper`` per table, so ``-k fig2`` selects one."""
    if "table" in metafunc.fixturenames:
        metafunc.parametrize("table", list(TABLES))


def test_paper(harness, table):
    run_table(harness, table)
