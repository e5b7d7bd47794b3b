"""Sweep progress: one tally of settled runs, and the meter that shows it.

:class:`SweepTally` is the one place a settled run is classified as
failed, cached or computed and counted, overall and per cell.  Every
consumer reads a tally instead of keeping its own counts: the
:class:`SweepProgress` meter renders one, the shard heartbeat
(:class:`~repro.obs.ops.ShardHeartbeat`) persists one, and the
executor builds its :class:`~repro.parallel.executor.SweepStats` and
store counters from one.

Long sweeps (19 leechers x 4 bandwidths x 3 seeds x several splicing
techniques) run for minutes with no output; the meter makes them
observable while they run — cells completed / running / failed, plus
the per-cell stall totals as workers finish — without touching stdout,
where the figure tables go.  Two modes:

* ``"live"`` (default): one rewriting status line, redrawn after every
  finished run.  **Forced off when the stream is not a TTY**: CI logs
  and redirected output never see control characters, and a disabled
  reporter costs one attribute check per run.
* ``"plain"``: append-only lines for non-TTY consumers (CI logs,
  ``tee``).  One rate-limited summary line per *completed cell* — no
  control characters, no rewriting — plus a header at start and a
  totals line at the end.  Failures always print immediately.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Sequence, TextIO

from ..errors import ExperimentError, SweepError
from .spec import RunSpec
from .worker import RunOutcome

#: Recognized reporter modes.
PROGRESS_MODES = ("live", "plain")


def _merge_order(outcome: RunOutcome) -> tuple[int, int]:
    return outcome.cell_index, outcome.seed_index


@dataclass(slots=True)
class CellTally:
    """One cell's share of a :class:`SweepTally`."""

    label: str
    total: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    stalls: float = 0.0


class SweepTally:
    """Counts of one sweep's settled runs, overall and per cell.

    Driven like every executor sink: :meth:`begin` with the sweep's
    run specs, :meth:`update` once per settled run, in any order.

    Args:
        clock: time source of ``started``, ``last_commit`` and
            :meth:`due`.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.begin(())

    def begin(self, specs: Sequence[RunSpec]) -> None:
        """Zero every count and register the sweep's runs."""
        self.started = self._clock()
        self.last_commit: float | None = None
        self.reported: float | None = None
        self.total = len(specs)
        self.done = self.computed = self.cached = self.failed = 0
        self._failures: list[RunOutcome] = []
        self._computed: list[RunOutcome] = []
        self.cells: dict[int, CellTally] = {}
        for spec in specs:
            cell = self.cells.get(spec.cell_index)
            if cell is None:
                cell = CellTally(spec.cell.describe())
                self.cells[spec.cell_index] = cell
            cell.total += 1

    @staticmethod
    def kind(outcome: RunOutcome) -> str:
        """``"failed"``, ``"cached"`` or ``"computed"``.

        ``"cached"`` means not simulated now: a result-store hit, or a
        repeat of a simulation the executor already ran.
        """
        if not outcome.ok:
            return "failed"
        return "cached" if outcome.cached else "computed"

    def update(self, outcome: RunOutcome) -> str:
        """Count one settled run; returns its :meth:`kind`."""
        kind = self.kind(outcome)
        cell = self.cells[outcome.cell_index]
        self.done += 1
        cell.done += 1
        if kind == "failed":
            self.failed += 1
            cell.failed += 1
            self._failures.append(outcome)
            return kind
        cell.stalls += outcome.stats.stall_count
        if kind == "cached":
            # A store hit or a repeat performed no simulation now; its
            # events belong to the run that originally computed it.
            self.cached += 1
            cell.cached += 1
        else:
            self.computed += 1
            self.last_commit = self._clock()
            self._computed.append(outcome)
        return kind

    @property
    def events_fired(self) -> int:
        """Simulator callbacks the computed runs executed."""
        return sum(o.stats.events_fired for o in self._computed)

    def sim_seconds(self, start: float = 0.0) -> float:
        """``start`` plus the computed runs' simulated seconds.

        Added in (cell, seed) order rather than completion order, so
        the float sum is the same at any worker count.
        """
        for outcome in sorted(self._computed, key=_merge_order):
            start += outcome.stats.end_time
        return start

    @property
    def in_flight(self) -> int:
        """Runs not yet settled."""
        return max(0, self.total - self.done)

    @property
    def complete(self) -> bool:
        """Every run settled and none failed."""
        return not self.failed and self.done >= self.total

    @property
    def cells_done(self) -> int:
        """Cells whose every run settled."""
        return sum(1 for c in self.cells.values() if c.done >= c.total)

    @property
    def cells_running(self) -> int:
        """Cells with some but not all runs settled."""
        return sum(
            1 for c in self.cells.values() if 0 < c.done < c.total
        )

    @property
    def cells_failed(self) -> int:
        """Cells with at least one failed run."""
        return sum(1 for c in self.cells.values() if c.failed)

    @property
    def cells_cached(self) -> int:
        """Cells none of whose runs was simulated now."""
        return sum(
            1 for c in self.cells.values() if c.cached >= c.total
        )

    def rate(self, now: float) -> float | None:
        """Settled runs per second since :meth:`begin`."""
        elapsed = max(0.0, now - self.started)
        return self.done / elapsed if elapsed > 0 else None

    def eta(self, now: float) -> float | None:
        """Seconds until the in-flight runs settle at :meth:`rate`."""
        rate = self.rate(now)
        return self.in_flight / rate if rate else None

    def due(self, interval: float, force: bool = False) -> bool:
        """Whether a report of this tally is due now.

        At most one report per ``interval`` clock seconds; the first
        report and a ``force``-d one (the final run, a failure) are
        always due.  A due report stamps ``reported`` with the time.
        """
        now = self._clock()
        if (
            not force
            and self.reported is not None
            and now - self.reported < interval
        ):
            return False
        self.reported = now
        return True

    def check(self, what: str) -> None:
        """Raise one :class:`SweepError` listing every failed run.

        Raises:
            SweepError: when any run failed; failures are listed in
                (cell, seed) order.
        """
        if not self._failures:
            return
        failures = sorted(self._failures, key=_merge_order)
        detail = "; ".join(
            f"{o.label} (seed {o.seed}): {o.error}" for o in failures
        )
        raise SweepError(
            f"{len(failures)} of {self.done} {what} runs "
            f"failed: {detail}"
        )


class SweepProgress:
    """A sweep meter over a :class:`SweepTally`, live (TTY) or plain.

    The executor drives it: :meth:`begin` with the expanded run specs,
    :meth:`update` once per finished run (in completion order — on the
    pool path that is non-deterministic, which is fine: progress is
    display, never data), :meth:`finish` when the sweep returns.

    Args:
        stream: where to write (default ``sys.stderr``).
        mode: ``"live"`` (rewriting status line, TTY only) or
            ``"plain"`` (append-only cell-completion lines, any
            stream).
        min_interval: minimum seconds between plain-mode lines; cell
            completions arriving faster are folded into the next line.
            Failures and the final cell always print.  Ignored in live
            mode.
        clock: monotonic time source (tests inject a fake one).
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        mode: str = "live",
        min_interval: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if mode not in PROGRESS_MODES:
            raise ExperimentError(
                f"unknown progress mode {mode!r} "
                f"(expected one of {', '.join(PROGRESS_MODES)})"
            )
        if min_interval < 0:
            raise ExperimentError(
                f"min_interval must be >= 0: {min_interval}"
            )
        self._stream = stream if stream is not None else sys.stderr
        self.mode = mode
        self.min_interval = min_interval
        isatty = getattr(self._stream, "isatty", None)
        self.enabled = mode == "plain" or bool(
            isatty() if callable(isatty) else False
        )
        self.tally = SweepTally(clock)
        self._width = 0

    def begin(self, specs: Sequence[RunSpec]) -> None:
        """Register the sweep's run specs before execution starts."""
        if not self.enabled:
            return
        self.tally.begin(specs)
        if self.mode == "plain":
            self._line(
                f"sweep: starting {len(self.tally.cells)} cells"
                f" ({self.tally.total} runs)"
            )
        else:
            self._render("starting")

    def update(self, outcome: RunOutcome) -> None:
        """Record one finished run and report it (mode-dependent)."""
        if not self.enabled:
            return
        kind = self.tally.update(outcome)
        cell = self.tally.cells[outcome.cell_index]
        if self.mode == "plain":
            self._update_plain(outcome, kind, cell)
        elif kind == "failed":
            self._render(f"{cell.label} seed {outcome.seed}: FAILED")
        else:
            suffix = " (cached)" if kind == "cached" else ""
            self._render(
                f"{cell.label} seed {outcome.seed}: "
                f"{cell.stalls / cell.done:.1f} stalls/peer{suffix}"
            )

    def finish(self) -> None:
        """End the sweep: leave the final counts on their own line."""
        if not self.enabled:
            return
        if self.mode == "plain":
            self._line("sweep: " + self._summary())
            return
        self._render("done")
        self._stream.write("\n")
        self._stream.flush()
        self._width = 0

    # ------------------------------------------------------------------

    def _update_plain(
        self, outcome: RunOutcome, kind: str, cell: CellTally
    ) -> None:
        """Plain mode: one line per completed cell, rate-limited.

        Failures print immediately (they are rare and actionable);
        cell completions are folded into at most one line per
        ``min_interval`` seconds, except the final one, which always
        prints so logs end with a complete picture.
        """
        if kind == "failed":
            self._line(
                f"sweep: {cell.label} seed {outcome.seed} FAILED"
                f" ({outcome.error})"
            )
            return
        if cell.done < cell.total:
            return
        final = self.tally.done >= self.tally.total
        if not self.tally.due(self.min_interval, force=final):
            return
        # A fully-cached cell was served from the store or as repeats,
        # not computed; say so instead of presenting it as fresh work.
        how = "cached" if cell.cached >= cell.total else "done"
        self._write(
            f"sweep: {cell.label} {how}"
            f" ({cell.stalls / cell.total:.1f} stalls/peer;"
            f" {self._summary()})"
        )

    def _summary(self) -> str:
        tally = self.tally
        cached = f" {tally.cached} cached," if tally.cached else ""
        return (
            f"{tally.cells_done}/{len(tally.cells)} cells done,"
            f" {tally.cells_failed} failed,{cached}"
            f" {tally.done}/{tally.total} runs"
        )

    def _line(self, line: str) -> None:
        """An unthrottled line; it still starts the next interval."""
        self.tally.due(self.min_interval, force=True)
        self._write(line)

    def _write(self, line: str) -> None:
        self._stream.write(line + "\n")
        self._stream.flush()

    def _render(self, last: str) -> None:
        tally = self.tally
        cached = f", {tally.cached} cached" if tally.cached else ""
        line = (
            f"sweep: {tally.cells_done}/{len(tally.cells)} cells done"
            f" ({tally.cells_running} running,"
            f" {tally.cells_failed} failed{cached};"
            f" {tally.done}/{tally.total} runs) | {last}"
        )
        pad = max(0, self._width - len(line))
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()
        self._width = len(line)
