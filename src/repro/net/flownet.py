"""Flow-level bandwidth sharing with max-min fairness, solved incrementally.

Concurrent transfers are *fluid flows* over routes of links.  Whenever
the set of flows (or a capacity or per-flow rate cap) changes, rates
are re-solved by progressive filling: all flows' rates rise together
until a link saturates or a flow hits its cap, those flows freeze, and
filling continues — the textbook max-min fair allocation.

This is the standard abstraction for simulating TCP sharing at the
timescale of segment downloads: each flow's cap is supplied by the TCP
model (slow-start ramp, Mathis loss ceiling) and the network solves the
induced sharing exactly instead of simulating packets.

Two structural facts make the solve incremental without changing a
single allocated byte:

* **Max-min decomposes over link-connected components.**  Flows that
  share no link (directly or transitively) cannot influence each
  other's rates, so the network partitions its flows into components
  and re-runs progressive filling only over the component(s) an update
  touched; untouched components keep their cached rates.  A removal may
  split a component — connectivity is re-derived lazily at the next
  solve of that component, and only when a cheap test (a parallel
  flow on the same route, or a flow that was a leaf) cannot prove it
  still connected.

* **Same-timestamp updates coalesce.**  Rates only matter across
  intervals of nonzero simulated time, so a burst of updates landing at
  one instant (window ramps, multi-flow churn) marks components dirty
  and defers the solve to the engine's end-of-timestamp barrier
  (:meth:`~repro.net.engine.Simulator.call_at_timestamp_end`) — one
  re-solve instead of one per call.  Reading :attr:`Flow.rate` flushes
  pending work first, so callers always observe solved rates.

The naive solver this replaces (global re-solve on every update,
per-flow per-link byte accounting, full completion rescans) survives as
``ReferenceFlowNetwork`` in ``tests/net/reference.py`` — the executable
specification the property tests cross-check against.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable

from ..errors import NetworkError
from .engine import EventHandle, Simulator
from .link import Link

#: Bytes below which a flow counts as complete (float-drift guard).
_COMPLETION_EPSILON = 1e-3
#: Rate increments below this are treated as zero in progressive filling.
_RATE_EPSILON = 1e-9
#: Relative slack when deciding whether a component *might* hold a flow
#: within :data:`_COMPLETION_EPSILON` of completion.  The cached
#: estimate extrapolates linearly with the same rates the advance loop
#: uses, so it can drift from the advanced ``remaining`` only by
#: accumulated rounding — orders of magnitude below this slack.  The
#: slack errs toward scanning a component that turns out to have
#: nothing due, which costs time but never changes behaviour.
_SWEEP_SLACK = 1e-6

_rate_limit = attrgetter("rate_limit")


class Flow:
    """One fluid transfer across a route of links.

    Created via :meth:`FlowNetwork.start_flow`; read-only for callers.
    """

    __slots__ = (
        "id",
        "route",
        "size",
        "remaining",
        "_rate",
        "rate_limit",
        "min_efficient_rate",
        "on_complete",
        "started_at",
        "completed_at",
        "cancelled",
        "_network",
    )

    def __init__(
        self,
        flow_id: int,
        route: tuple[Link, ...],
        size: float,
        rate_limit: float | None,
        on_complete: Callable[["Flow"], None] | None,
        started_at: float,
        min_efficient_rate: float = 0.0,
        network: "FlowNetwork | None" = None,
    ) -> None:
        self.id = flow_id
        self.route = route
        self.size = size
        self.remaining = size
        self._rate = 0.0
        self.rate_limit = rate_limit
        self.min_efficient_rate = min_efficient_rate
        self.on_complete = on_complete
        self.started_at = started_at
        self.completed_at: float | None = None
        self.cancelled = False
        self._network = network

    @property
    def rate(self) -> float:
        """Allocated rate in bytes/second.

        Reading flushes any deferred re-solve first, so the value is
        always the solved allocation for the network's current state.
        """
        network = self._network
        if network is not None and network._dirty:
            network._flush()
        return self._rate

    @property
    def transferred(self) -> float:
        """Bytes moved so far."""
        return self.size - self.remaining

    @property
    def active(self) -> bool:
        """Whether the flow is still moving data."""
        return self.completed_at is None and not self.cancelled

    def __repr__(self) -> str:
        return (
            f"Flow(#{self.id}, size={self.size:.0f}, "
            f"remaining={self.remaining:.0f}, rate={self._rate:.0f}B/s)"
        )


class _Component:
    """One link-connected set of flows with cached solve results."""

    __slots__ = (
        "flows",
        "links",
        "members",
        "routes",
        "eta_flow",
        "eps_eta",
        "needs_split",
    )

    def __init__(self) -> None:
        #: member flows, insertion-ordered (dict used as ordered set).
        self.flows: dict[Flow, None] = {}
        #: links traversed by member flows, by name.
        self.links: dict[str, Link] = {}
        #: link name -> the member flows crossing it, in member order.
        self.members: dict[str, dict[Flow, None]] = {}
        #: route -> how many member flows take exactly that route.
        self.routes: dict[tuple[Link, ...], int] = {}
        #: the member with the soonest full-completion ETA at the last
        #: solve (rates are constant between solves, so it stays the
        #: argmin until the next solve).
        self.eta_flow: Flow | None = None
        #: absolute sim time when the earliest member may come within
        #: the completion epsilon of done (+inf when none can).
        self.eps_eta: float = float("inf")
        #: a member was removed since the last solve — connectivity
        #: must be re-derived before solving.
        self.needs_split = False


class FlowNetwork:
    """The set of links and currently-active flows.

    Args:
        sim: the simulator supplying the clock and event queue.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._flows: dict[Flow, None] = {}
        self._flow_ids = itertools.count(1)
        self._last_update = 0.0
        self._completion_event: EventHandle | None = None
        # Bytes carried per link by flows that have left the network;
        # active flows' progress is added on read.
        self._link_bytes: dict[str, float] = {}
        self._comps: dict[_Component, None] = {}
        self._comp_of: dict[Flow, _Component] = {}
        self._link_comp: dict[str, _Component] = {}
        self._dirty: dict[_Component, None] = {}
        self._barrier_pending = False
        self._completion_stale = False
        self._capacity_generation = 0

    @property
    def sim(self) -> Simulator:
        """The simulator driving this network."""
        return self._sim

    @property
    def active_flows(self) -> list[Flow]:
        """Currently-active flows (snapshot copy)."""
        return list(self._flows)

    @property
    def capacity_generation(self) -> int:
        """Bumped on every :meth:`set_capacity`.

        Lets callers cache path properties derived from capacities
        (e.g. the TCP model's bottleneck rate) and invalidate in O(1).
        """
        return self._capacity_generation

    def flows_on(self, link: Link) -> int:
        """Number of active flows traversing ``link``."""
        return sum(1 for flow in self._flows if link in flow.route)

    def bytes_carried(self, link: Link) -> float:
        """Cumulative bytes this link has carried (for utilization)."""
        self._advance()
        name = link.name
        carried = self._link_bytes.get(name, 0.0)
        comp = self._link_comp.get(name)
        if comp is not None:
            for flow in comp.members[name]:
                carried += flow.size - flow.remaining
        return carried

    def start_flow(
        self,
        route: list[Link] | tuple[Link, ...],
        size: float,
        rate_limit: float | None = None,
        on_complete: Callable[[Flow], None] | None = None,
        min_efficient_rate: float = 0.0,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes over ``route``.

        Args:
            route: ordered links the flow traverses (non-empty).
            size: bytes to move (> 0).
            rate_limit: optional cap in bytes/second (e.g. a TCP
                congestion window); ``None`` means link-limited only.
            on_complete: called with the flow when the last byte lands.
            min_efficient_rate: the TCP window floor in bytes/second
                (≈ MSS/RTT).  A fair share below this puts a real TCP
                connection in the retransmission-timeout regime, so
                goodput degrades quadratically below the floor; 0
                disables the penalty.

        Returns:
            The new :class:`Flow`.
        """
        route = tuple(route)
        if not route:
            raise NetworkError("flow route must contain at least one link")
        if len({link.name for link in route}) != len(route):
            raise NetworkError("flow route must not cross a link twice")
        if size <= 0:
            raise NetworkError(f"flow size must be positive, got {size}")
        if rate_limit is not None and not rate_limit > 0:
            raise NetworkError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if min_efficient_rate < 0:
            raise NetworkError(
                f"min_efficient_rate must be >= 0, got {min_efficient_rate}"
            )
        self._advance()
        flow = Flow(
            next(self._flow_ids),
            route,
            size,
            rate_limit,
            on_complete,
            self._sim.now,
            min_efficient_rate,
            network=self,
        )
        self._flows[flow] = None
        comp = self._adopt(flow)
        self._mark_dirty(comp)
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an active flow (no completion callback fires)."""
        if not flow.active or flow not in self._flows:
            return
        self._advance()
        flow.cancelled = True
        flow.on_complete = None
        self._remove_flow(flow)

    def set_rate_limit(self, flow: Flow, rate_limit: float | None) -> None:
        """Change a flow's rate cap (TCP window ramp); triggers resharing."""
        if rate_limit is not None and not rate_limit > 0:
            raise NetworkError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if not flow.active:
            return
        self._advance()
        flow.rate_limit = rate_limit
        comp = self._comp_of.get(flow)
        if comp is not None:
            self._mark_dirty(comp)

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity at runtime (variable-bandwidth runs)."""
        self._advance()
        link.capacity = capacity
        self._capacity_generation += 1
        comp = self._link_comp.get(link.name)
        if comp is not None:
            self._mark_dirty(comp)

    def release(self) -> None:
        """Drop the flows still active when a session ends.

        No callback fires.  Each active flow's ``on_complete`` holds
        its owner, which holds the flow; releasing breaks those cycles
        and the flow ↔ network references, so reference counting frees
        an abandoned session.  The network must not be used afterwards.
        """
        for flow in self._flows:
            flow.on_complete = None
            flow._network = None
        self._flows.clear()
        self._comps.clear()
        self._comp_of.clear()
        self._link_comp.clear()
        self._dirty.clear()
        self._completion_event = None

    # ------------------------------------------------------------------
    # component bookkeeping

    def _adopt(self, flow: Flow) -> _Component:
        """Place a new flow, merging every component its route touches."""
        touched: list[_Component] = []
        for link in flow.route:
            comp = self._link_comp.get(link.name)
            if comp is not None and comp not in touched:
                touched.append(comp)
        if not touched:
            home = _Component()
            self._comps[home] = None
        else:
            home = max(touched, key=lambda c: len(c.flows))
            for other in touched:
                if other is home:
                    continue
                for member in other.flows:
                    home.flows[member] = None
                    self._comp_of[member] = home
                for name, link in other.links.items():
                    home.links[name] = link
                    self._link_comp[name] = home
                # Components own disjoint links, hence disjoint routes.
                home.members.update(other.members)
                home.routes.update(other.routes)
                home.needs_split |= other.needs_split
                if other in self._dirty:
                    del self._dirty[other]
                del self._comps[other]
        home.flows[flow] = None
        self._comp_of[flow] = home
        members = home.members
        for link in flow.route:
            name = link.name
            home.links[name] = link
            self._link_comp[name] = home
            crossing = members.get(name)
            if crossing is None:
                members[name] = {flow: None}
            else:
                crossing[flow] = None
        route = flow.route
        home.routes[route] = home.routes.get(route, 0) + 1
        return home

    def _remove_flow(self, flow: Flow) -> None:
        """Detach a finished/cancelled flow and dirty its component.

        A link the flow leaves idle is released at once.  The component
        is flagged for a connectivity check only when it may have come
        apart: it provably stays connected when another member takes
        the same route (a parallel edge) or when the flow shared at
        most one link with the rest (a leaf).
        """
        del self._flows[flow]
        flow._network = None
        comp = self._comp_of.pop(flow)
        del comp.flows[flow]
        route = flow.route
        parallel = comp.routes[route] - 1
        if parallel:
            comp.routes[route] = parallel
        else:
            del comp.routes[route]
        moved = flow.size - flow.remaining
        link_bytes = self._link_bytes
        idle = 0
        for link in route:
            name = link.name
            link_bytes[name] = link_bytes.get(name, 0.0) + moved
            crossing = comp.members[name]
            del crossing[flow]
            if not crossing:
                idle += 1
                del comp.members[name]
                del comp.links[name]
                del self._link_comp[name]
        if not comp.flows:
            self._dissolve(comp)
            return
        if not parallel and idle < len(route) - 1:
            comp.needs_split = True
        self._mark_dirty(comp)

    def _dissolve(self, comp: _Component) -> None:
        self._dirty.pop(comp, None)
        del self._comps[comp]
        # The pending completion event may target this component.
        self._schedule_flush()

    def _mark_dirty(self, comp: _Component) -> None:
        self._dirty[comp] = None
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        self._completion_stale = True
        if not self._barrier_pending:
            self._barrier_pending = True
            self._sim.call_at_timestamp_end(self._on_barrier)

    def _on_barrier(self) -> None:
        self._barrier_pending = False
        self._flush()

    def _flush(self) -> None:
        """Solve every dirty component and refresh the completion event."""
        if self._dirty:
            dirty = self._dirty
            self._dirty = {}
            for comp in dirty:
                if comp in self._comps:
                    self._solve(comp)
        if self._completion_stale:
            self._completion_stale = False
            self._reschedule_completion()

    # ------------------------------------------------------------------
    # solving

    def _solve(self, comp: _Component) -> None:
        """Re-solve one dirty component (splitting it first if needed)."""
        if comp.needs_split:
            parts = self._split(comp)
        else:
            parts = (comp,)
        for part in parts:
            self._fill(part)

    def _split(self, comp: _Component) -> list[_Component]:
        """Re-derive link-connectivity after removals.

        Returns the component itself when still connected, else fresh
        components (member order preserved) replacing it.
        """
        comp.needs_split = False
        members = comp.members
        group_of: dict[Flow, int] = {}
        link_group: dict[str, int] = {}
        groups = 0
        for flow in comp.flows:
            if flow in group_of:
                continue
            group_of[flow] = groups
            stack = [flow]
            while stack:
                for link in stack.pop().route:
                    name = link.name
                    if name in link_group:
                        continue
                    link_group[name] = groups
                    for other in members[name]:
                        if other not in group_of:
                            group_of[other] = groups
                            stack.append(other)
            groups += 1
        if groups == 1:
            return [comp]

        del self._comps[comp]
        parts = [_Component() for _ in range(groups)]
        for flow in comp.flows:
            part = parts[group_of[flow]]
            part.flows[flow] = None
            self._comp_of[flow] = part
        for name, group in link_group.items():
            part = parts[group]
            part.links[name] = comp.links[name]
            part.members[name] = members[name]
            self._link_comp[name] = part
        for route, count in comp.routes.items():
            parts[link_group[route[0].name]].routes[route] = count
        for part in parts:
            self._comps[part] = None
        return parts

    def _fill(self, comp: _Component) -> None:
        """Progressive-filling max-min fair allocation with rate caps.

        Arithmetic is the exact restriction of the global reference
        solve to this component's flows: the delta sequence is a pure
        function of the member flows' links and caps, so solving a
        component in isolation reproduces the joint solve bit-for-bit
        (components share no links by construction).

        Every unfrozen flow's rate is one water ``level``: all start at
        0.0 and receive the same ``+= delta`` sequence, and a flow
        keeps the level it froze at.  So the fill tracks the level,
        per-link counts of unfrozen flows, and the capped flows sorted
        by cap.  Float subtraction rounds monotonically, so the
        smallest unfrozen cap gives the same ``cap - level`` bound and
        the same freeze test as a scan of every flow.
        """
        flows = comp.flows
        members = comp.members
        links = comp.links
        remaining: dict[str, float] = {}
        # Link load: how many unfrozen flows cross each link.
        loads: dict[str, int] = {}
        full: dict[str, float] = {}
        for name, crossing in members.items():
            capacity = links[name].capacity
            remaining[name] = capacity
            loads[name] = len(crossing)
            full[name] = _RATE_EPSILON * max(1.0, capacity)
        capped = sorted(
            (flow for flow in flows if flow.rate_limit is not None),
            key=_rate_limit,
        )
        n_capped = len(capped)
        head = 0
        frozen: set[Flow] = set()
        level = 0.0

        while loads:
            # Largest uniform rate increment that stays feasible.
            delta = float("inf")
            for name, count in loads.items():
                share = remaining[name] / count
                if share < delta:
                    delta = share
            while head < n_capped and capped[head] in frozen:
                head += 1
            if head < n_capped:
                room = capped[head].rate_limit - level
                if room < delta:
                    delta = room
            if delta == float("inf"):
                for flow in flows:
                    if flow not in frozen:
                        flow._rate = level
                break
            if delta < 0.0:
                delta = 0.0

            if delta > 0:
                level += delta
                for name, count in loads.items():
                    remaining[name] -= delta * count

            # Freeze flows that hit their cap or sit on a full link.
            newly_frozen: dict[Flow, None] = {}
            for index in range(head, n_capped):
                flow = capped[index]
                if flow in frozen:
                    continue
                if level < flow.rate_limit - _RATE_EPSILON:
                    break
                newly_frozen[flow] = None
            for name in loads:
                if remaining[name] <= full[name]:
                    for flow in members[name]:
                        if flow not in frozen:
                            newly_frozen[flow] = None
            if not newly_frozen:
                # delta == 0 without anything freezing would loop
                # forever; freeze everything as a defensive stop.
                if delta <= 0:
                    newly_frozen = {
                        flow: None for flow in flows if flow not in frozen
                    }
                else:
                    continue
            for flow in newly_frozen:
                flow._rate = level
                frozen.add(flow)
                for link in flow.route:
                    name = link.name
                    count = loads[name] - 1
                    if count:
                        loads[name] = count
                    else:
                        del loads[name]

        # Cache the ETA bounds the completion machinery consults.
        now = self._sim.now
        eps = _COMPLETION_EPSILON
        eta_flow: Flow | None = None
        best_eta = float("inf")
        eps_eta = float("inf")
        for flow in flows:
            rate = flow._rate
            # TCP window floor: a share below ~MSS/RTT leaves a real
            # connection timeout-bound; goodput falls off quadratically.
            floor = flow.min_efficient_rate
            if floor > 0 and 0 < rate < floor:
                rate = flow._rate = rate * rate / floor
            remaining_bytes = flow.remaining
            if remaining_bytes <= eps:
                eps_eta = now
            if rate <= 0:
                continue
            eta = remaining_bytes / rate
            if eta < best_eta:
                best_eta = eta
                eta_flow = flow
            if remaining_bytes > eps:
                crossing_at = now + (remaining_bytes - eps) / rate
                if crossing_at < eps_eta:
                    eps_eta = crossing_at
        comp.eta_flow = eta_flow
        comp.eps_eta = eps_eta

    # ------------------------------------------------------------------
    # time advance and completions

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update.

        Rates are constant across the advanced interval: dirty
        components can only exist within the current timestamp (the
        engine barrier flushes them before the clock moves), so the
        cached ``_rate`` values are exactly the rates that applied
        since ``_last_update``.
        """
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                left = flow.remaining - flow._rate * elapsed
                flow.remaining = left if left > 0.0 else 0.0
        self._last_update = now

    def _reschedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest: float | None = None
        for comp in self._comps:
            flow = comp.eta_flow
            if flow is None:
                continue
            eta = flow.remaining / flow._rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is not None:
            self._completion_event = self._sim.schedule(
                soonest, self._on_completion_due
            )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._advance()
        if self._completion_stale:
            # An update landed at this instant after the event was
            # armed.  A global re-solve would have re-derived the ETA
            # from the advanced ``remaining`` at that update (one ULP
            # later when a few bytes' worth of rounding is left), so
            # solve and re-arm instead of completing on the stale ETA.
            self._flush()
            return
        now = self._sim.now
        horizon = now + _SWEEP_SLACK * (1.0 + now)
        done = [
            flow
            for comp in self._comps
            if comp.eps_eta <= horizon
            for flow in comp.flows
            if flow.remaining <= _COMPLETION_EPSILON
        ]
        if not done:
            # Scheduled ETA drifted past the actual crossing by a few
            # ULPs; re-arm and let the next firing catch it.
            self._reschedule_completion()
            return
        done.sort(key=lambda flow: flow.id)
        for flow in done:
            flow.remaining = 0.0
            flow.completed_at = now
            self._remove_flow(flow)
        self._flush()
        for flow in done:
            # The callback is usually a method of the flow's owner (a
            # TCP transfer holding this flow), so keeping it once fired
            # would leave every finished transfer a reference cycle.
            on_complete = flow.on_complete
            if on_complete is not None:
                flow.on_complete = None
                on_complete(flow)
