"""Metrics registry: counters, gauges, and sim-time-weighted series.

Components publish numbers here instead of growing private ad-hoc
lists; exporters (:mod:`repro.obs.export`) then render every metric the
same way.  All time arguments are **simulated** seconds.

Three primitives cover the stack's needs:

* :class:`Counter` — monotonically increasing totals (segments
  received, retries, stalls);
* :class:`Gauge` — a current value (active flows, pool size);
* :class:`TimeWeightedHistogram` — distribution of a value weighted by
  how long it was held.  A pool that sat at ``k=4`` for 60 s and
  ``k=1`` for 2 s has a time-weighted mean near 4, where a
  per-decision mean would mislead.  Multiple independent keys (one per
  peer) may feed one histogram; each key's value is weighted by its
  own holding time, so the result reads as *peer-seconds at value v*.
* :class:`Timeseries` — raw ``(time, value)`` samples for CSV export.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TraceError


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise TraceError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the current value by ``delta``."""
        self.value += delta


@dataclass(frozen=True, slots=True)
class HistogramSummary:
    """Summary statistics of a time-weighted histogram.

    Attributes:
        mean: time-weighted mean value.
        minimum: smallest value held for any time.
        maximum: largest value held for any time.
        total_weight: summed holding time, seconds (peer-seconds when
            several keys feed the histogram).
    """

    mean: float
    minimum: float
    maximum: float
    total_weight: float


class TimeWeightedHistogram:
    """Distribution of a value weighted by sim-time held.

    Call :meth:`observe` whenever the value *changes*; the previous
    value is credited with the elapsed interval.  Independent sources
    (e.g. one per peer) pass distinct ``key`` values.  Call
    :meth:`finalize` at the end of the run to credit each key's last
    value through the end time.
    """

    __slots__ = ("name", "_weights", "_last")

    def __init__(self, name: str) -> None:
        self.name = name
        self._weights: dict[float, float] = {}  # value -> seconds held
        self._last: dict[str, tuple[float, float]] = {}  # key -> (t, v)

    def observe(self, time: float, value: float, key: str = "") -> None:
        """The source ``key`` switched to ``value`` at sim ``time``."""
        previous = self._last.get(key)
        if previous is not None:
            last_time, last_value = previous
            if time < last_time:
                raise TraceError(
                    f"histogram {self.name!r} observed time {time} before "
                    f"{last_time} for key {key!r}"
                )
            held = time - last_time
            if held > 0:
                self._weights[last_value] = (
                    self._weights.get(last_value, 0.0) + held
                )
        self._last[key] = (time, value)

    def finalize(self, time: float) -> None:
        """Credit every key's current value through ``time`` and close
        all open intervals.

        Accumulated weights persist, but per-key tracking resets — so
        one histogram may span several runs whose sim clocks each
        restart at zero (the seed-averaged cells of the experiment
        runner), accumulating cross-run totals.
        """
        for last_time, last_value in self._last.values():
            if time > last_time:
                self._weights[last_value] = (
                    self._weights.get(last_value, 0.0) + (time - last_time)
                )
        self._last.clear()

    @property
    def total_weight(self) -> float:
        """Summed holding time across all observed values."""
        return sum(self._weights.values())

    def weights(self) -> dict[float, float]:
        """Mapping of value -> seconds held (a copy)."""
        return dict(self._weights)

    def summary(self) -> HistogramSummary:
        """Time-weighted summary statistics.

        Raises:
            TraceError: when nothing has accumulated any weight yet.
        """
        if not self._weights:
            raise TraceError(
                f"histogram {self.name!r} has no weighted observations"
            )
        total = self.total_weight
        mean = (
            sum(value * weight for value, weight in self._weights.items())
            / total
        )
        return HistogramSummary(
            mean=mean,
            minimum=min(self._weights),
            maximum=max(self._weights),
            total_weight=total,
        )


class Timeseries:
    """Raw ``(sim_time, value)`` samples, in arrival order."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[tuple[float, float]] = []

    def sample(self, time: float, value: float) -> None:
        """Append one sample."""
        self.samples.append((time, value))

    def values(self) -> list[float]:
        """Just the sampled values, in order."""
        return [value for _, value in self.samples]

    def __len__(self) -> int:
        return len(self.samples)


class MetricsRegistry:
    """Get-or-create home for every metric of a run.

    Names are free-form dotted strings (``"p2p.segments_received"``,
    ``"net.link.hub->peer-1.utilization"``).  A name belongs to exactly
    one metric kind; reusing it across kinds raises.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, TimeWeightedHistogram] = {}
        self._timeseries: dict[str, Timeseries] = {}

    def _claim(self, name: str, kind: dict) -> None:
        for registry in (
            self._counters,
            self._gauges,
            self._histograms,
            self._timeseries,
        ):
            if registry is not kind and name in registry:
                raise TraceError(
                    f"metric name {name!r} already used by another kind"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> TimeWeightedHistogram:
        """The histogram called ``name`` (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, self._histograms)
            metric = self._histograms[name] = TimeWeightedHistogram(name)
        return metric

    def timeseries(self, name: str) -> Timeseries:
        """The timeseries called ``name`` (created on first use)."""
        metric = self._timeseries.get(name)
        if metric is None:
            self._claim(name, self._timeseries)
            metric = self._timeseries[name] = Timeseries(name)
        return metric

    def counters(self) -> dict[str, Counter]:
        """All counters, by name (a copy)."""
        return dict(self._counters)

    def gauges(self) -> dict[str, Gauge]:
        """All gauges, by name (a copy)."""
        return dict(self._gauges)

    def histograms(self) -> dict[str, TimeWeightedHistogram]:
        """All histograms, by name (a copy)."""
        return dict(self._histograms)

    def all_timeseries(self) -> dict[str, Timeseries]:
        """All timeseries, by name (a copy)."""
        return dict(self._timeseries)

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._timeseries)
        )
