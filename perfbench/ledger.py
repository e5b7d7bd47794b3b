"""The traced run's per-layer ledger, recorded from outside the program.

Every number here comes from wrapping public entry points of the
program's layers; nothing inside ``src/`` is edited and the wrappers
never change an argument or a result:

* ``repro.parallel.cache.cached_video`` / ``cached_splice`` (video
  encode, splice; misses counted through ``cache_info``);
* ``repro.parallel.store.run_identity`` (the content digest a store
  lookup or commit computes) and a store instance's ``get``/``put``;
* a :class:`~repro.parallel.SweepExecutor` instance's ``run_cells``
  and the ``merge_cell`` it calls;
* ``repro.parallel.worker.execute_run`` and the ``build_swarm`` it
  calls.  Each built swarm gets an
  :class:`~repro.obs.profile.EngineProfile` through the public
  ``Simulator.profile`` attribute (per-handler-category events and
  wall time), timed barrier callbacks through
  ``Simulator.call_at_timestamp_end``, and timed ``sim.run`` and
  ``swarm.run`` methods.

Spans nest: a layer's *self* time is its wall time minus the time of
the wrapped calls it made, and ``net.engine`` self time is ``sim.run``
minus its handlers and barrier callbacks.  Self times are disjoint, so
they plus the unattributed remainder add up to the traced wall time.

A run records set-up rounds and traced passes in separate ledgers;
:func:`per_round` reports one set-up round plus one traced pass, so the
figures do not grow with the number of passes a run had time for.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Iterator

from repro.obs.profile import EngineProfile, handler_category
from repro.parallel import cache, executor as executor_module
from repro.parallel import store as store_module
from repro.parallel import worker

#: Handler categories reported by name (``<category>.handler_s`` and
#: ``<category>.events``); any other category is summed into
#: ``net.engine.other_handler_s``.
HANDLER_LAYERS = (
    "net.flownet",
    "net.tcp",
    "p2p.peer",
    "p2p.leecher",
    "player.player",
    "p2p.scale",
)

#: Counters that must repeat exactly from one traced pass to the next.
#: Event and refill counts per handler category are added at run time
#: under ``events.<category>`` / ``refills.<category>``.
PASS_COUNTERS = (
    "parallel.store.gets",
    "parallel.store.hits",
    "parallel.store.puts",
    "parallel.digest.calls",
)


class Ledger:
    """Self time per layer and event counts, accumulated across spans.

    The ledger records only between :meth:`installed` entry and exit;
    outside it the program runs unwrapped.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, layer: str, started: float, inner: float = 0.0) -> None:
        """Close a span; ``inner`` is time already credited elsewhere."""
        elapsed = perf_counter() - started
        children = self._stack.pop() + inner
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    def _span(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, started)

        return timed

    # -- wrappers --------------------------------------------------------

    def _memo(self, layer: str, fn, counter: str) -> Callable:
        """Time an ``lru_cache`` entry point; count its misses."""

        def timed(*args):
            misses = fn.cache_info().misses
            started = self._enter()
            try:
                return fn(*args)
            finally:
                self._exit(layer, started)
                self.counts[counter] += fn.cache_info().misses - misses

        # clear_caches()/memo_counts() reach the cache through the
        # module attribute this wrapper replaces.
        timed.cache_info = fn.cache_info
        timed.cache_clear = fn.cache_clear
        return timed

    def _digest(self, fn: Callable) -> Callable:
        timed = self._span("parallel.digest", fn)

        def counted(*args, **kwargs):
            self.counts["parallel.digest.calls"] += 1
            return timed(*args, **kwargs)

        return counted

    def _store_get(self, fn: Callable) -> Callable:
        timed = self._span("parallel.store.get", fn)

        def counted(*args, **kwargs):
            outcome = timed(*args, **kwargs)
            self.counts["parallel.store.gets"] += 1
            if outcome is not None:
                self.counts["parallel.store.hits"] += 1
            return outcome

        return counted

    def _store_put(self, fn: Callable) -> Callable:
        timed = self._span("parallel.store.put", fn)

        def counted(*args, **kwargs):
            self.counts["parallel.store.puts"] += 1
            return timed(*args, **kwargs)

        return counted

    def _build_swarm(self, fn: Callable) -> Callable:
        def built(*args, **kwargs):
            started = self._enter()
            try:
                swarm = fn(*args, **kwargs)
            finally:
                self._exit("p2p.swarm.build", started)
            self._instrument(swarm)
            return swarm

        return built

    def _instrument(self, swarm) -> None:
        """Profile and time one freshly built swarm."""
        sim = swarm.sim
        profile = EngineProfile()
        sim.profile = profile
        register = sim.call_at_timestamp_end

        def call_at_timestamp_end(callback):
            category = handler_category(callback)
            layer = f"{category}.refill"

            def timed_barrier():
                self.counts[f"refills.{category}"] += 1
                started = self._enter()
                try:
                    callback()
                finally:
                    self._exit(layer, started)

            register(timed_barrier)

        sim.call_at_timestamp_end = call_at_timestamp_end
        sim_run = sim.run

        def run_engine(*args, **kwargs):
            counts = dict(profile.counts)
            seconds = dict(profile.wall_seconds)
            started = self._enter()
            handlers = 0.0
            try:
                return sim_run(*args, **kwargs)
            finally:
                for category, total in profile.wall_seconds.items():
                    spent = total - seconds.get(category, 0.0)
                    fired = profile.counts[category] - counts.get(
                        category, 0
                    )
                    self.self_s[f"{category}.handler"] += spent
                    self.counts[f"events.{category}"] += fired
                    handlers += spent
                self._exit("net.engine.dispatch", started, inner=handlers)

        sim.run = run_engine
        swarm.run = self._span("p2p.swarm.run", swarm.run)

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the module-level entry points; restore them on exit."""
        patches = [
            (
                cache,
                "cached_video",
                self._memo("video", cache.cached_video, "video.encodes"),
            ),
            (
                cache,
                "cached_splice",
                self._memo(
                    "core.splicer",
                    cache.cached_splice,
                    "core.splicer.splices",
                ),
            ),
            (
                store_module,
                "run_identity",
                self._digest(store_module.run_identity),
            ),
            (
                worker,
                "execute_run",
                self._span("parallel.worker", worker.execute_run),
            ),
            (worker, "build_swarm", self._build_swarm(worker.build_swarm)),
            (
                executor_module,
                "merge_cell",
                self._span(
                    "experiments.runner.merge", executor_module.merge_cell
                ),
            ),
        ]
        originals = [
            (module, name, getattr(module, name))
            for module, name, _ in patches
        ]
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    @contextlib.contextmanager
    def attached(self, store) -> Iterator[None]:
        """Wrap ``store``'s lookups and commits for one traced pass."""
        store.get = self._store_get(store.get)
        store.put = self._store_put(store.put)
        try:
            yield
        finally:
            del store.get
            del store.put

    def wrap_executor(self, executor) -> None:
        """Time a new executor's ``run_cells`` as the executor layer."""
        executor.run_cells = self._span(
            "parallel.executor", executor.run_cells
        )

    # -- reporting -------------------------------------------------------

    def pass_counts(self) -> dict[str, int]:
        """Current totals of the counters that must repeat per pass."""
        return {
            name: value
            for name, value in self.counts.items()
            if name in PASS_COUNTERS
            or name.startswith(("events.", "refills."))
        }

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        Args:
            wall_s: wall time of the traced sections; the part no
                layer claimed is reported as ``ledger.unattributed_s``.
        """
        self_s = self.self_s
        counts = self.counts
        gets = counts["parallel.store.gets"]
        out: dict[str, tuple[float, str]] = {
            "video.encode_s": (self_s["video"], "s"),
            "video.encodes": (counts["video.encodes"], "count"),
            "core.splicer.splice_s": (self_s["core.splicer"], "s"),
            "core.splicer.splices": (
                counts["core.splicer.splices"],
                "count",
            ),
            "parallel.digest.s": (self_s["parallel.digest"], "s"),
            "parallel.digest.calls": (
                counts["parallel.digest.calls"],
                "count",
            ),
            "parallel.store.get_s": (self_s["parallel.store.get"], "s"),
            "parallel.store.gets": (gets, "count"),
            "parallel.store.hit_ratio": (
                counts["parallel.store.hits"] / gets if gets else 0.0,
                "ratio",
            ),
            "parallel.store.put_s": (self_s["parallel.store.put"], "s"),
            "parallel.store.puts": (counts["parallel.store.puts"], "count"),
            "parallel.executor.self_s": (self_s["parallel.executor"], "s"),
            "parallel.worker.self_s": (self_s["parallel.worker"], "s"),
            "experiments.runner.merge_s": (
                self_s["experiments.runner.merge"],
                "s",
            ),
            "p2p.swarm.build_s": (self_s["p2p.swarm.build"], "s"),
            "p2p.swarm.run_s": (self_s["p2p.swarm.run"], "s"),
            "net.engine.events": (
                sum(
                    value
                    for name, value in counts.items()
                    if name.startswith("events.")
                ),
                "count",
            ),
            "net.engine.dispatch_self_s": (
                self_s["net.engine.dispatch"],
                "s",
            ),
        }
        for layer in HANDLER_LAYERS:
            out[f"{layer}.handler_s"] = (self_s[f"{layer}.handler"], "s")
            out[f"{layer}.events"] = (counts[f"events.{layer}"], "count")
        out["net.flownet.refill_s"] = (self_s["net.flownet.refill"], "s")
        out["net.flownet.refills"] = (counts["refills.net.flownet"], "count")
        named = {f"{layer}.handler" for layer in HANDLER_LAYERS}
        named.add("net.flownet.refill")
        out["net.engine.other_handler_s"] = (
            sum(
                seconds
                for layer, seconds in self_s.items()
                if layer.endswith((".handler", ".refill"))
                and layer not in named
            ),
            "s",
        )
        attributed = sum(self_s.values())
        out["ledger.wall_s"] = (wall_s, "s")
        out["ledger.unattributed_s"] = (wall_s - attributed, "s")
        return out


def per_round(
    parts: Iterable[tuple[Ledger, float, int]],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round of each part, summed.

    Args:
        parts: ``(ledger, wall_s, rounds)`` triples: a ledger that
            recorded ``rounds`` like rounds taking ``wall_s`` in all.
            Its times and counts are divided by ``rounds``.
    """
    mean = Ledger()
    wall_s = 0.0
    for ledger, wall, rounds in parts:
        wall_s += wall / rounds
        for layer, seconds in ledger.self_s.items():
            mean.self_s[layer] += seconds / rounds
        for name, count in ledger.counts.items():
            mean.counts[name] += count / rounds
    return mean.metrics(wall_s)
