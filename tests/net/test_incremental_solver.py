"""Incremental solver vs the brute-force global reference.

:class:`~repro.net.flownet.FlowNetwork` re-solves only dirty
link-connected components and coalesces same-timestamp updates;
:class:`~tests.net.reference.ReferenceFlowNetwork` re-solves the whole
network on every update.  For randomized topologies, caps, and update
schedules (including same-instant bursts), both must agree on every
observable: allocated rates, completion sets and times, and per-link
byte accounting.

Agreement is asserted to a tight relative tolerance rather than
bit-for-bit: progressive filling over a component in isolation can
round differently in the last ULP than the same component interleaved
with unrelated components' filling rounds.  (On the repository's real
workloads the two are bit-identical — the golden-trace digest test
pins that — but randomized cross-component configurations may land on
either side of a rounding.)  When every flow crosses one shared link
there is a single component, and rates and completion times must match
bit-for-bit.

The component structure the solver keeps between solves (per-link
member lists, per-route counts, the partition itself) is checked
against a recount from scratch after every event.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.link import Link

from .reference import ReferenceFlowNetwork

_REL = 1e-9


_UPDATE_KINDS = ("start", "start", "start", "cancel", "limit", "capacity")


@st.composite
def update_schedules(draw, max_ops=12, kinds=_UPDATE_KINDS):
    """Random links plus a timed schedule of up to ``max_ops`` updates.

    Delays are drawn from a small set that includes zero so several
    updates frequently land on the same simulated instant — the
    coalescing path must behave identically to back-to-back global
    re-solves.
    """
    n_links = draw(st.integers(min_value=1, max_value=5))
    capacities = [
        draw(st.floats(min_value=10.0, max_value=10_000.0))
        for _ in range(n_links)
    ]
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    time = 0.0
    for _ in range(n_ops):
        time += draw(st.sampled_from([0.0, 0.0, 0.01, 0.5, 1.7]))
        kind = draw(st.sampled_from(kinds))
        if kind == "start":
            route = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_links - 1),
                    min_size=1,
                    max_size=n_links,
                    unique=True,
                )
            )
            size = draw(st.floats(min_value=10.0, max_value=5_000.0))
            limit = draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=1.0, max_value=20_000.0),
                )
            )
            floor = draw(
                st.sampled_from([0.0, 0.0, 50.0, 400.0])
            )
            ops.append((time, "start", (route, size, limit, floor)))
        elif kind == "cancel":
            ops.append(
                (time, "cancel", draw(st.integers(0, max_ops - 1)))
            )
        elif kind == "limit":
            limit = draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=1.0, max_value=20_000.0),
                )
            )
            index = draw(st.integers(0, max_ops - 1))
            ops.append((time, "limit", (index, limit)))
        else:
            value = draw(st.floats(min_value=10.0, max_value=10_000.0))
            ops.append(
                (time, "capacity", (draw(st.integers(0, n_links - 1)), value))
            )
    return capacities, ops


def _execute(network_cls, capacities, ops, inspect=None):
    """Run one schedule against a network class; return observables.

    The observables are the completion time of each started flow (by
    start index), the rates of every started flow at the end of each
    instant an update landed on and once more after the run (``None``
    once a flow is inactive), and the bytes each link carried.
    ``inspect(network, settled)`` is called after every update with
    ``settled=False``, and with ``settled=True`` once that instant's
    re-solve has run and after every completion.
    """
    sim = Simulator()
    network = network_cls(sim)
    links = [
        Link(f"l{i}", capacity) for i, capacity in enumerate(capacities)
    ]
    started: list = []
    completions: dict[int, float] = {}
    rates: list[list] = []

    def snapshot() -> None:
        rates.append(
            [flow.rate if flow.active else None for flow in started]
        )

    def settle() -> None:
        snapshot()
        if inspect is not None:
            inspect(network, settled=True)

    def complete(index: int) -> None:
        completions.setdefault(index, sim.now)
        if inspect is not None:
            inspect(network, settled=True)

    def apply(kind, payload) -> None:
        if kind == "start":
            route, size, limit, floor = payload
            index = len(started)
            started.append(
                network.start_flow(
                    [links[i] for i in route],
                    size,
                    rate_limit=limit,
                    on_complete=lambda f, i=index: complete(i),
                    min_efficient_rate=floor,
                )
            )
        elif kind == "cancel":
            if payload < len(started):
                network.cancel_flow(started[payload])
        elif kind == "limit":
            index, limit = payload
            if index < len(started) and started[index].active:
                network.set_rate_limit(started[index], limit)
        else:
            index, value = payload
            network.set_capacity(links[index], value)
        if inspect is not None:
            inspect(network, settled=False)
        sim.call_at_timestamp_end(settle)

    for time, kind, payload in ops:
        sim.schedule_at(time, apply, kind, payload)
    sim.run()
    snapshot()
    carried = [network.bytes_carried(link) for link in links]
    return completions, rates, carried


# A flow's completion is due at the very instant (2.01) an unrelated
# cap update lands, with ~1e-15 bytes of rounding left.  The global
# re-solve re-derives its ETA one ULP later, so the incremental solver
# must not complete it on the ETA armed before the update.
_UPDATE_AT_DUE_COMPLETION = (
    [97.0, 10.0, 10.0, 10.0, 10.0],
    [
        (0.0, "start", ([0], 10.0, None, 0.0)),
        (0.01, "capacity", (1, 11.0)),
        (0.51, "start", ([0, 1], 11.0, None, 0.0)),
        (0.51, "cancel", 0),
        (1.01, "start", ([0, 1], 11.0, None, 0.0)),
        (1.01, "limit", (0, None)),
        (1.51, "start", ([0, 1], 10.0, None, 0.0)),
        (1.51, "cancel", 0),
        (1.51, "start", ([0], 10.0, None, 0.0)),
        (1.51, "cancel", 2),
        (2.01, "limit", (1, None)),
    ],
)


class TestIncrementalMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    @example(schedule=_UPDATE_AT_DUE_COMPLETION)
    def test_same_completions_rates_and_accounting(self, schedule):
        capacities, ops = schedule
        ref_done, ref_rates, ref_carried = _execute(
            ReferenceFlowNetwork, capacities, ops
        )
        inc_done, inc_rates, inc_carried = _execute(
            FlowNetwork, capacities, ops
        )

        assert inc_done.keys() == ref_done.keys()
        for index, time in ref_done.items():
            assert inc_done[index] == pytest.approx(time, rel=_REL)
        assert len(inc_rates) == len(ref_rates)
        for inc_row, ref_row in zip(inc_rates, ref_rates):
            for incremental, reference in zip(inc_row, ref_row):
                if reference is None:
                    assert incremental is None
                else:
                    assert incremental == pytest.approx(reference, rel=_REL)
        for incremental, reference in zip(inc_carried, ref_carried):
            assert incremental == pytest.approx(
                reference, rel=1e-6, abs=1e-3
            )

    @settings(max_examples=100, deadline=None)
    @given(schedule=update_schedules())
    def test_incremental_solver_is_deterministic(self, schedule):
        capacities, ops = schedule
        first = _execute(FlowNetwork, capacities, ops)
        second = _execute(FlowNetwork, capacities, ops)
        assert first == second


class TestStaticAllocationParity:
    """Pure-allocation cross-check: rates right after a burst of starts."""

    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    def test_rates_match_before_any_time_passes(self, schedule):
        capacities, ops = schedule
        starts = [op for op in ops if op[1] == "start"]

        def allocate(network_cls):
            sim = Simulator()
            network = network_cls(sim)
            links = [
                Link(f"l{i}", capacity)
                for i, capacity in enumerate(capacities)
            ]
            flows = [
                network.start_flow(
                    [links[i] for i in route],
                    size,
                    rate_limit=limit,
                    min_efficient_rate=floor,
                )
                for _, _, (route, size, limit, floor) in starts
            ]
            return [flow.rate for flow in flows]

        reference = allocate(ReferenceFlowNetwork)
        incremental = allocate(FlowNetwork)
        for got, want in zip(incremental, reference):
            assert got == pytest.approx(want, rel=_REL)


@st.composite
def shared_link_schedules(draw):
    """:func:`update_schedules` with link ``l0`` on every route.

    Every flow crosses one shared link, so the network is always a
    single component and the incremental fill runs the same float
    operations as the reference's global fill.  Capacity changes land
    on ``l0`` too: on a link no flow crosses, the incremental solver
    rightly re-solves nothing, while the reference re-solves and
    re-bases its completion ETA on the advanced remaining bytes, which
    can move the completion time by an ULP.
    """
    capacities, ops = draw(update_schedules())
    shared = []
    for time, kind, payload in ops:
        if kind == "start":
            route, size, limit, floor = payload
            route = [0] + [index for index in route if index != 0]
            payload = (route, size, limit, floor)
        elif kind == "capacity":
            payload = (0, payload[1])
        shared.append((time, kind, payload))
    return capacities, shared


class TestSingleComponentBitExact:
    @settings(max_examples=200, deadline=None)
    @given(schedule=shared_link_schedules())
    def test_rates_and_completions_are_bit_identical(self, schedule):
        capacities, ops = schedule
        ref_done, ref_rates, ref_carried = _execute(
            ReferenceFlowNetwork, capacities, ops
        )
        inc_done, inc_rates, inc_carried = _execute(
            FlowNetwork, capacities, ops
        )
        assert inc_done == ref_done
        assert inc_rates == ref_rates
        # Not bit-exact by design: the incremental solver credits each
        # link rate_sum × elapsed, the reference rate × elapsed per
        # flow, and float multiplication does not distribute.
        for incremental, reference in zip(inc_carried, ref_carried):
            assert incremental == pytest.approx(
                reference, rel=1e-6, abs=1e-3
            )


def _rates(network_cls, capacity, flows):
    """Rates right after starting ``(rate_limit, floor)`` flows on one
    link of ``capacity``."""
    sim = Simulator()
    network = network_cls(sim)
    link = Link("l0", capacity)
    started = [
        network.start_flow(
            [link], 1_000.0, rate_limit=limit, min_efficient_rate=floor
        )
        for limit, floor in flows
    ]
    return [flow.rate for flow in started]


class TestFillEdgeCases:
    """Progressive-filling corners, bit-for-bit against the reference."""

    @pytest.mark.parametrize(
        "capacity, flows, expected",
        [
            # equal caps freeze together, the rest share the leftover
            (100.0, [(30.0, 0.0), (30.0, 0.0), (None, 0.0)],
             [30.0, 30.0, 40.0]),
            # a cap exactly at the fair share: cap and link freeze in
            # the same round
            (90.0, [(30.0, 0.0), (None, 0.0), (None, 0.0)],
             [30.0, 30.0, 30.0]),
            # TCP-floor post-pass: a 100 B/s share under a 400 B/s
            # floor drops to 100² / 400; shares above their floor and
            # flows without one are untouched
            (300.0, [(None, 400.0), (None, 50.0), (None, 0.0)],
             [25.0, 100.0, 100.0]),
        ],
        ids=["equal-caps", "cap-at-fair-share", "tcp-floor"],
    )
    def test_matches_reference_exactly(self, capacity, flows, expected):
        assert _rates(FlowNetwork, capacity, flows) == expected
        assert _rates(ReferenceFlowNetwork, capacity, flows) == expected

    def test_zero_delta_freezes_everything(self, monkeypatch):
        # A negative epsilon makes neither the cap nor the link test
        # fire: after the first round lifts both flows to the cap of
        # 10, the next delta is 0 with nothing frozen, and only the
        # defensive stop ends the fill (at the current level).
        from repro.net import flownet

        from . import reference

        monkeypatch.setattr(flownet, "_RATE_EPSILON", -1.0)
        monkeypatch.setattr(reference, "_RATE_EPSILON", -1.0)
        flows = [(10.0, 0.0), (None, 0.0)]
        assert _rates(FlowNetwork, 100.0, flows) == [10.0, 10.0]
        assert _rates(ReferenceFlowNetwork, 100.0, flows) == [10.0, 10.0]


def _link_components(flows) -> set[frozenset]:
    """Connected components of the flow–link graph, from scratch."""
    group_of: dict = {}
    on_link: dict[str, list] = {}
    for flow in flows:
        for link in flow.route:
            on_link.setdefault(link.name, []).append(flow)
    components = set()
    for flow in flows:
        if flow in group_of:
            continue
        component = {flow}
        stack = [flow]
        while stack:
            for link in stack.pop().route:
                for other in on_link[link.name]:
                    if other not in component:
                        component.add(other)
                        stack.append(other)
        for member in component:
            group_of[member] = component
        components.add(frozenset(component))
    return components


def _assert_partition(network, settled) -> None:
    """The component structure equals a recount from scratch.

    Every active flow sits in exactly one component; no two
    components share a link; each component's per-link member lists
    (in member order) and route counts equal a fresh recount.  Once
    the instant's re-solve has run (``settled``), the components are
    exactly the connected components of the flow–link graph; before
    it, a component not flagged for a connectivity check must already
    be one.
    """
    active = list(network._flows)
    truth = _link_components(active)
    members_seen = []
    owner: dict[str, object] = {}
    for comp in network._comps:
        members_seen.extend(comp.flows)
        crossing: dict[str, list] = {}
        routes: dict[tuple, int] = {}
        for flow in comp.flows:
            assert network._comp_of[flow] is comp
            routes[flow.route] = routes.get(flow.route, 0) + 1
            for link in flow.route:
                crossing.setdefault(link.name, []).append(flow)
        assert {
            name: list(flows) for name, flows in comp.members.items()
        } == crossing
        assert comp.routes == routes
        assert comp.links.keys() == crossing.keys()
        for name in comp.links:
            assert name not in owner
            owner[name] = comp
            assert network._link_comp[name] is comp
        if settled or not comp.needs_split:
            assert frozenset(comp.flows) in truth
    assert sorted(flow.id for flow in members_seen) == sorted(
        flow.id for flow in active
    )
    assert network._link_comp.keys() == owner.keys()
    if settled:
        assert len(network._comps) == len(truth)


class TestComponentPartition:
    """Guards the connectivity gate against a missed split."""

    # Longer schedules, mostly starts and cancels: removals that cut a
    # bridging flow out of a component are what the gate must catch.
    @settings(max_examples=300, deadline=None)
    @given(
        schedule=update_schedules(
            max_ops=24, kinds=("start", "start", "cancel", "limit")
        )
    )
    def test_components_match_a_recount_after_every_event(self, schedule):
        capacities, ops = schedule
        _execute(FlowNetwork, capacities, ops, inspect=_assert_partition)
