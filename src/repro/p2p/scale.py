"""Vectorized cohort / fluid swarm backends (the scale tiers).

The exact engine (:class:`~repro.p2p.swarm.Swarm`) simulates every
peer, every control message, and every TCP transfer; per-event work is
cheap (PR 4) but per-*peer* work is not — a 10³-peer session schedules
tens of millions of events (the Have fan-out alone is O(N²·S)).  This
module trades per-peer fidelity for scale: peer state lives in
struct-of-arrays (numpy) and statistically-identical peers advance
together, so a session's cost depends on the number of *cohorts*
(bounded by :attr:`~repro.p2p.swarm.SwarmConfig.max_cohorts`), not the
number of peers.

Two tiers, selected by ``SwarmConfig.fidelity``:

* ``cohort`` — peers are batched into cohorts by join epoch (same
  bandwidth class and policy throughout a ``SwarmConfig``).  Each
  cohort runs the paper's batch-mode client loop exactly — Eq. 1 pool
  sizing, sequential selection, whole-batch refills — but transfers
  are fluid flows shared between cohorts by a deterministic
  proportional-filling allocator instead of per-connection flow-network
  events.  Segment availability is the cohort prefix vector; pool and
  source decisions are vectorized masks; ties break by cohort index
  (stable, reproducible at any granularity).  Event-driven on the
  existing :class:`~repro.net.engine.Simulator`: one event per state
  change (batch completion, handshake expiry, join, departure).
* ``fluid`` — the mean-field tier for 10⁵–10⁶-peer populations.
  Discrete batches are replaced by per-cohort download-rate ODEs
  (demand capped by Eq. 1's pool times the per-connection Mathis
  ceiling, supply shared by the same allocator) integrated with a
  fixed step on the sim clock.  Stall boundaries are quantized to the
  step; accuracy envelopes are documented in docs/SCALING.md.

Both tiers model the transport first-order effects that decide the
paper's figures — the per-connection Mathis ceiling
``MSS/(RTT·sqrt(2p/3))`` (why pooling matters), the lossy handshake
delay, and request latency — and deliberately drop slow-start ramps,
upload-slot queueing, request timeouts, and per-peer tie-breaking
noise.  They produce the same :class:`~repro.p2p.swarm.SwarmResult` /
:class:`~repro.player.metrics.StreamingMetrics` surface as the exact
engine, so runners, sweeps, benchmarks, and ``repro.obs`` aggregation
work unchanged.
"""

from __future__ import annotations

from ..core.segments import SpliceResult
from ..errors import ConfigurationError
from ..net.engine import Simulator
from ..obs.context import Observability
from ..obs.events import (
    PeerJoined,
    PlaybackFinished,
    PlaybackStarted,
    StallEnded,
    StallStarted,
)
from ..player.metrics import StallEvent, StreamingMetrics
from .selection import SequentialSelector

try:  # gated: the exact engine must work without numpy installed
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a baked-in dep
    _np = None

#: Allocator convergence rounds.  Proportional filling redistributes
#: supplier leftovers geometrically; eight rounds put the residual far
#: below every tolerance documented in docs/SCALING.md.
_FILL_ROUNDS = 8

#: Distinct allocations one session keeps before the memo starts over.
#: At 19 cohorts nearly every repeat recurs within this many entries;
#: a 64-cohort entry is about 7 KB, so the memo stays under 2 MB.
_MEMO_ENTRIES = 256

#: Bytes below which an in-flight batch counts as complete.
_EPS_BYTES = 1e-3

#: Seconds below which a pending phase change counts as due.
_EPS_TIME = 1e-9

# Cohort phases (int8 array values).
_PRE = 0  # joined, manifest not yet received
_LATENCY = 1  # batch requested, request/handshake latency draining
_DATA = 2  # batch bytes flowing
_DONE = 3  # buffer complete (or cohort emptied by churn)


def require_numpy() -> None:
    """Raise if the vectorized backends' numpy dependency is absent."""
    if _np is None:
        raise ConfigurationError(
            "fidelity 'cohort'/'fluid' requires numpy; install it or "
            "use fidelity='exact'"
        )


class _VectorSwarm:
    """State and machinery shared by the cohort and fluid tiers.

    Subclasses drive :meth:`_on_trigger` differently (event-driven vs
    fixed-step) but share cohort construction, the rate allocator,
    playback bookkeeping, and result materialization.
    """

    def __init__(
        self,
        splice: SpliceResult,
        config,
        obs: Observability | None = None,
    ) -> None:
        require_numpy()
        self._validate_support(config)
        self._splice = splice
        self._config = config
        self.obs = obs
        self.sim = Simulator(
            tracer=obs.tracer if obs is not None else None,
            profile=obs.profile if obs is not None else None,
        )
        np = _np

        # -- segment geometry ------------------------------------------
        sizes = np.asarray(splice.segment_sizes(), dtype=np.float64)
        durations = np.asarray(
            splice.segment_durations(), dtype=np.float64
        )
        self._n_segments = len(sizes)
        # Prefix sums with a leading zero: bytes/seconds of the first
        # ``k`` segments are ``self._wsum[k]`` / ``self._dsum[k]``.
        self._wsum = np.concatenate(([0.0], np.cumsum(sizes)))
        self._dsum = np.concatenate(([0.0], np.cumsum(durations)))
        self._mean_size = float(sizes.mean())

        # -- transport first-order constants ---------------------------
        params = config.tcp_params
        rtt = max(config.peer_rtt, 1e-4)
        self._conn_cap = params.mathis_cap(rtt, config.path_loss)
        if self._conn_cap is None:
            self._conn_cap = float("inf")
        # Per-batch fixed latency: one-way request plus the lossy
        # handshake (every segment download opens a fresh connection).
        self._batch_latency = config.peer_rtt / 2.0 + (
            params.handshake_delay(rtt, config.path_loss)
        )

        # -- cohorts ---------------------------------------------------
        n = config.n_leechers
        count = min(config.max_cohorts, n)
        bounds = np.linspace(0, n, count + 1).astype(np.int64)
        self._lo = bounds[:-1]
        self._hi = bounds[1:]
        self._size = (self._hi - self._lo).astype(np.float64)
        self._count = count
        indices = np.arange(n, dtype=np.float64)
        join_by_peer = indices * config.join_stagger
        # Cohort join epoch: the mean join time of its members.
        self._join = np.array(
            [
                join_by_peer[self._lo[c]: self._hi[c]].mean()
                for c in range(count)
            ]
        )
        # Manifest exchange costs the paper's control round trip to
        # the seeder; availability knowledge is instantaneous after
        # that (the Have fan-out is not simulated).
        self._manifest_at = self._join + config.seeder_rtt

        # -- mutable cohort state --------------------------------------
        self._phase = np.full(count, _PRE, dtype=np.int8)
        self._alive = self._size.copy()
        self._prefix = np.zeros(count, dtype=np.int64)
        self._batch_k = np.zeros(count, dtype=np.int64)
        self._latency_left = np.zeros(count)
        self._bytes_left = np.zeros(count)  # per-peer bytes of batch
        self._bytes_down = np.zeros(count)  # per-peer lifetime bytes
        self._rate = np.zeros(count)  # cohort-total download rate
        self._seeder_rate = np.zeros(count)
        self._memo: dict[bytes, tuple] = {}
        self._seeder_bytes = 0.0
        self._bw_down = np.full(count, float(config.bandwidth))
        self._bw_up = np.full(count, float(config.bandwidth))
        seeder_bw = (
            config.seeder_bandwidth
            if config.seeder_bandwidth is not None
            else config.bandwidth
        )
        self._seeder_cap = float(seeder_bw)
        hint = (
            config.bandwidth_hint
            if config.bandwidth_hint is not None
            else config.bandwidth
        )
        self._hint = float(hint)

        # -- playback state --------------------------------------------
        nan = float("nan")
        self._pb_start = np.full(count, nan)
        self._play_end = np.full(count, nan)
        self._pb_end = np.full(count, nan)
        self._stall_open = np.zeros(count, dtype=bool)
        self._stall_start = np.full(count, nan)
        self._stalls: list[list[StallEvent]] = [
            [] for _ in range(count)
        ]
        self._preroll = min(
            config.preroll_segments, self._n_segments
        )

        # -- churn -----------------------------------------------------
        # Departures are assigned to the highest peer indices of each
        # cohort first (deterministic naming).  Lifetimes follow the
        # same law as :class:`~repro.p2p.churn.ChurnModel` but are
        # sampled in bulk from one seeded numpy Generator — a per-peer
        # python loop would dominate setup at 10⁵⁺ peers.  Only churn
        # draws from it, so a churn-free run never builds it (nor
        # imports ``numpy.random``).
        self._departures: list[list[tuple[float, int]]] = [
            [] for _ in range(count)
        ]
        self._departed: list[tuple[float, int, dict]] = []
        if config.churn is not None and config.churn.fraction > 0.0:
            churn = config.churn
            rng = np.random.default_rng(config.seed)
            leaves = rng.random(n) < churn.fraction
            lifetimes = np.maximum(
                churn.min_lifetime,
                rng.exponential(churn.mean_lifetime, size=n),
            )
            depart_at = join_by_peer + lifetimes
            for c in range(count):
                deps = [
                    (float(depart_at[peer]), peer)
                    for peer in range(int(self._lo[c]), int(self._hi[c]))
                    if leaves[peer]
                ]
                deps.sort()
                self._departures[c] = deps

        self._last_t = 0.0
        self._pending = None
        self._ran = False

    # -- configuration gates -------------------------------------------

    @staticmethod
    def _validate_support(config) -> None:
        if not isinstance(config.selector, SequentialSelector):
            raise ConfigurationError(
                "vectorized fidelity tiers model the paper's "
                "sequential selection only; use fidelity='exact' for "
                f"selector {type(config.selector).__name__}"
            )
        if config.estimator_factory is not None:
            raise ConfigurationError(
                "vectorized fidelity tiers use the configured "
                "bandwidth hint; per-peer live estimators need "
                "fidelity='exact'"
            )

    @property
    def config(self):
        """This session's :class:`~repro.p2p.swarm.SwarmConfig`."""
        return self._config

    # -- shared dynamics -----------------------------------------------

    def _buffered_playtime(self, c: int, now: float) -> float:
        """Eq. 1's ``T`` for cohort ``c`` at ``now``."""
        if _np.isnan(self._pb_start[c]) or self._stall_open[c]:
            return 0.0
        return max(0.0, float(self._play_end[c]) - now)

    def _pool_size(self, c: int, now: float) -> int:
        size = self._config.policy.pool_size(
            self._hint,
            self._buffered_playtime(c, now),
            self._mean_size,
        )
        return max(1, min(size, self._n_segments - int(self._prefix[c])))

    def _demand_cap(self, k: _np.ndarray, seeder_fed: _np.ndarray):
        """Per-peer download-rate ceiling for pool size ``k``.

        The pool's connections share the access downlink but each is
        individually bounded by the Mathis ceiling; a CDN-disciplined
        origin (``origin_one_at_a_time``) serves one connection.
        """
        np = _np
        conns = np.maximum(k.astype(np.float64), 1.0)
        if self._config.origin_one_at_a_time:
            conns = np.where(seeder_fed, 1.0, conns)
        if self._conn_cap == float("inf"):
            return self._bw_down.copy()
        return np.minimum(self._bw_down, conns * self._conn_cap)

    def _allocate(self, demander, k, reach) -> None:
        """Share upload supply among demanding cohorts.

        ``reach[c, j]`` says cohort ``j`` holds what cohort ``c`` is
        downloading.  Cohorts some peer can serve split peer uplink
        capacity by deterministic proportional filling (every supplier
        divides its residual capacity among unsatisfied eligible
        downloaders in proportion to residual demand, for
        :data:`_FILL_ROUNDS` rounds).  Cohorts only the seeder can
        serve drain its capacity in strict join order — the continuous
        analogue of the exact engine's discrete completion ordering,
        and the tie-break that keeps same-prefix cohorts from locking
        step (equal proportional shares would advance them in unison
        forever, so none could ever pull ahead and become a supplier).

        Results land in ``_rate`` / ``_seeder_rate``.  The allocation
        is a pure function of its inputs and of the session's
        capacities, so each distinct one is computed once per session
        (:data:`_MEMO_ENTRIES`); a hit copies the stored rates back,
        because callers may scale ``_rate`` in place.
        """
        key = b"".join(
            (
                demander.tobytes(),
                (k * demander).tobytes(),
                reach.tobytes(),
                self._alive.tobytes(),
                self._bw_down.tobytes(),
                self._bw_up.tobytes(),
            )
        )
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            self._rate[:] = hit[0]
            self._seeder_rate[:] = hit[1]
            return
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        self._fill(demander, k, reach)
        memo[key] = (self._rate.copy(), self._seeder_rate.copy())

    def _fill(self, demander, k, reach) -> None:
        """Compute :meth:`_allocate`'s rates into ``_rate``/``_seeder_rate``.

        Only peer-fed rows enter the fill rounds: every other row of
        the share matrices is zero, so dropping it removes only
        ``+0.0`` terms from the column sums and leaves each row sum
        as it was.
        """
        np = _np
        rate = self._rate
        seeder_rate = self._seeder_rate
        rate.fill(0.0)
        seeder_rate.fill(0.0)
        if not demander.any():
            return
        has_peer = reach.any(axis=1)
        # The exact client prefers peers: the seeder only serves
        # cohorts no peer cohort can reach.
        seeder_fed = demander & ~has_peer
        cap_pp = self._demand_cap(k, seeder_fed)
        alive = self._alive
        cap_left = self._seeder_cap
        if seeder_fed.any():
            alive_l = alive.tolist()
            cap_l = cap_pp.tolist()
            for c in seeder_fed.nonzero()[0].tolist():
                got = min(alive_l[c] * cap_l[c], cap_left)
                rate[c] = got
                seeder_rate[c] = got
                cap_left -= got
                if cap_left <= _EPS_BYTES:
                    break
        rows = (demander & has_peer).nonzero()[0]
        if not rows.size:
            return
        sub = reach[rows]
        res_d = (alive * cap_pp)[rows]
        res_s = alive * self._bw_up
        share = np.empty(sub.shape)
        taken = np.zeros(sub.shape)
        add = np.add.reduce
        for _ in range(_FILL_ROUNDS):
            # Boolean matmul: some reachable supplier has capacity left.
            active = sub @ (res_s > _EPS_BYTES)
            active &= res_d > _EPS_BYTES
            if not active.any():
                break
            # weight -> offer -> actual, all in one buffer.  A column
            # nobody weighs is all zeros, so skipping its division
            # leaves what dividing by inf would.
            np.multiply(sub, (res_d * active)[:, None], out=share)
            col = add(share, axis=0)
            np.divide(share, col, out=share, where=col > 0.0)
            np.multiply(share, res_s, out=share)
            give = add(share, axis=1)
            take = np.minimum(res_d, give)
            scale = np.divide(
                take, give, out=np.zeros(len(give)), where=give > 0.0
            )
            np.multiply(share, scale[:, None], out=share)
            taken += share
            res_s -= add(share, axis=0)
            res_d -= take
        rate[rows] += add(taken, axis=1)
        # Peer supply does not idle the seeder: in the exact engine the
        # seeder stays in every client's supplier pool, so whatever
        # capacity the waterfall left over tops up peer-fed cohorts
        # whose demand the peer uplinks could not cover — again in
        # strict join order, which keeps equal-prefix cohorts from
        # advancing in lockstep behind a single early supplier.
        if cap_left > _EPS_BYTES:
            for c, want in zip(rows.tolist(), res_d.tolist()):
                if want <= _EPS_BYTES:
                    continue
                got = min(want, cap_left)
                rate[c] += got
                seeder_rate[c] += got
                cap_left -= got
                if cap_left <= _EPS_BYTES:
                    break

    def _integrate(self, dt: float) -> None:
        """Account ``dt`` seconds of the current allocation."""
        if dt <= 0.0:
            return
        phases = self._phase.tolist()
        alive = self._alive.tolist()
        flowing = [
            c
            for c, phase in enumerate(phases)
            if phase == _DATA and alive[c] > 0.0
        ]
        if flowing:
            rate = self._rate.tolist()
            left = self._bytes_left.tolist()
            down = self._bytes_down.tolist()
            for c in flowing:
                gained = rate[c] / max(alive[c], 1.0) * dt
                left[c] -= gained
                down[c] += gained
            self._bytes_left[:] = left
            self._bytes_down[:] = down
            self._seeder_bytes += float(
                self._seeder_rate[flowing].sum() * dt
            )
        if _LATENCY in phases:
            latency = self._latency_left
            for c, phase in enumerate(phases):
                if phase == _LATENCY:
                    latency[c] = max(latency[c] - dt, 0.0)

    # -- playback bookkeeping ------------------------------------------

    def _extend_prefix(self, c: int, new_prefix: int, now: float) -> None:
        """Advance cohort ``c``'s contiguous prefix and its player."""
        old = int(self._prefix[c])
        if new_prefix <= old:
            return
        self._prefix[c] = new_prefix
        gained = float(self._dsum[new_prefix] - self._dsum[old])
        if _np.isnan(self._pb_start[c]):
            if new_prefix >= self._preroll:
                self._pb_start[c] = now
                self._play_end[c] = now + float(self._dsum[new_prefix])
        elif self._stall_open[c] or now > self._play_end[c] + _EPS_TIME:
            # The playhead exhausted the old prefix before this
            # arrival: one stall from the exhaustion point to now.
            start = (
                float(self._stall_start[c])
                if self._stall_open[c]
                else float(self._play_end[c])
            )
            self._stalls[c].append(
                StallEvent(start=start, end=now, next_segment=old)
            )
            self._stall_open[c] = False
            self._play_end[c] = now + gained
        else:
            self._play_end[c] += gained
        if new_prefix == self._n_segments and _np.isnan(self._pb_end[c]):
            if not _np.isnan(self._pb_start[c]):
                self._pb_end[c] = self._play_end[c]

    def _open_stalls(self, now: float) -> None:
        """Mark cohorts whose playhead ran dry by ``now`` as stalled."""
        np = _np
        for c in range(self._count):
            if (
                self._stall_open[c]
                or np.isnan(self._pb_start[c])
                or self._prefix[c] >= self._n_segments
            ):
                continue
            if now > self._play_end[c] + _EPS_TIME:
                self._stall_open[c] = True
                self._stall_start[c] = self._play_end[c]

    # -- churn ----------------------------------------------------------

    def _process_departures(self, now: float) -> None:
        for c in range(self._count):
            deps = self._departures[c]
            while deps and deps[0][0] <= now + _EPS_TIME:
                when, peer = deps.pop(0)
                if self._alive[c] <= 0.0:
                    continue
                self._alive[c] -= 1.0
                self._departed.append(
                    (when, peer, self._peer_snapshot(c, when))
                )
                if self._alive[c] <= 0.0 and self._phase[c] != _DONE:
                    self._phase[c] = _DONE

    def _peer_snapshot(self, c: int, when: float) -> dict:
        """A departing peer's metrics, frozen at departure time."""
        pb_start = self._pb_start[c]
        stalls = [s for s in self._stalls[c] if s.end <= when]
        return {
            "session_start": float(self._join[c]),
            "playback_start": (
                float(pb_start)
                if not _np.isnan(pb_start) and pb_start <= when
                else None
            ),
            "playback_end": None,
            "stalls": stalls,
            "bytes_downloaded": float(self._bytes_down[c]),
            "segments_downloaded": int(self._prefix[c]),
        }

    # -- result materialization ----------------------------------------

    def _control_message_estimate(self) -> int:
        """Analytic stand-in for the exact control-plane count.

        Manifest exchange (2 per peer), pairwise handshake+bitfield
        (2 per ordered pair at join), one request per segment per
        peer, and the Have fan-out (every received segment announced
        to every other peer) — the exact engine's dominant terms.
        """
        n = self._config.n_leechers
        s = self._n_segments
        return int(2 * n + n * (n - 1) + n * s + s * n * (n - 1))

    def _departed_names(self) -> tuple[str, ...]:
        ordered = sorted(self._departed, key=lambda d: (d[0], d[1]))
        return tuple(f"peer-{peer + 1}" for _, peer, _ in ordered)

    def _build_result(self):
        from .swarm import SwarmResult

        np = _np
        metrics: dict[str, StreamingMetrics] = {}
        for c in range(self._count):
            pb_start = self._pb_start[c]
            pb_end = self._pb_end[c]
            stalls = self._stalls[c]
            for peer in range(int(self._lo[c]), int(self._hi[c])):
                metrics[f"peer-{peer + 1}"] = StreamingMetrics(
                    session_start=float(self._join[c]),
                    playback_start=(
                        float(pb_start) if not np.isnan(pb_start) else None
                    ),
                    playback_end=(
                        float(pb_end) if not np.isnan(pb_end) else None
                    ),
                    stalls=list(stalls),
                    bytes_downloaded=float(self._bytes_down[c]),
                    segments_downloaded=int(self._prefix[c]),
                )
        for when, peer, snapshot in self._departed:
            name = f"peer-{peer + 1}"
            metrics[name] = StreamingMetrics(
                session_start=snapshot["session_start"],
                playback_start=snapshot["playback_start"],
                playback_end=snapshot["playback_end"],
                stalls=snapshot["stalls"],
                bytes_downloaded=snapshot["bytes_downloaded"],
                segments_downloaded=snapshot["segments_downloaded"],
            )
        peer_bytes = float(self._bytes_down @ self._size) - float(
            self._seeder_bytes
        )
        return SwarmResult(
            metrics=metrics,
            seeder_bytes_uploaded=float(self._seeder_bytes),
            peer_bytes_uploaded=max(0.0, peer_bytes),
            control_messages=self._control_message_estimate(),
            departed=self._departed_names(),
            end_time=self.sim.now,
        )

    def _emit_lifecycle_events(self) -> None:
        """Replay one representative peer's lifecycle per cohort.

        Traced scale runs keep the ``repro trace`` / ``repro analyze``
        surface loadable without emitting O(N) events: the cohort's
        first peer stands in for its members (docs/SCALING.md).
        """
        assert self.obs is not None
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        np = _np
        events: list = []
        for c in range(self._count):
            name = f"peer-{int(self._lo[c]) + 1}"
            events.append(
                PeerJoined(time=float(self._join[c]), peer=name)
            )
            pb_start = self._pb_start[c]
            if np.isnan(pb_start):
                continue
            events.append(
                PlaybackStarted(
                    time=float(pb_start),
                    peer=name,
                    startup_time=float(pb_start - self._join[c]),
                )
            )
            total = 0.0
            for stall in self._stalls[c]:
                total += stall.duration
                events.append(
                    StallStarted(
                        time=stall.start,
                        peer=name,
                        segment=stall.next_segment,
                        expected_size=float(
                            self._wsum[stall.next_segment + 1]
                            - self._wsum[stall.next_segment]
                        ),
                    )
                )
                events.append(
                    StallEnded(
                        time=stall.end,
                        peer=name,
                        segment=stall.next_segment,
                        duration=stall.duration,
                        expected_size=float(
                            self._wsum[stall.next_segment + 1]
                            - self._wsum[stall.next_segment]
                        ),
                    )
                )
            pb_end = self._pb_end[c]
            if not np.isnan(pb_end):
                events.append(
                    PlaybackFinished(
                        time=float(pb_end),
                        peer=name,
                        stalls=len(self._stalls[c]),
                        total_stall_duration=total,
                    )
                )
        events.sort(key=lambda e: e.time)
        for event in events:
            if tracer.enabled:
                tracer.emit(event)

    # -- external control ----------------------------------------------

    def set_peer_bandwidth(self, bandwidth: float) -> None:
        """Change every leecher's access bandwidth mid-run.

        The square-wave / variable-bandwidth experiments call this
        from scheduled sim events; the allocation is rebuilt from the
        new capacities immediately.
        """
        if bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {bandwidth}"
            )
        self._catch_up()
        self._bw_down[:] = float(bandwidth)
        self._bw_up[:] = float(bandwidth)
        self._reschedule()

    # Subclass hooks -----------------------------------------------------

    def _catch_up(self) -> None:
        """Integrate state up to ``sim.now`` (before external change)."""
        raise NotImplementedError

    def _reschedule(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def release(self) -> None:
        """End the session (see :meth:`repro.p2p.swarm.Swarm.release`).

        A pending step or trigger event holds this swarm; the
        simulator's release drops it.
        """
        self.sim.release()


class CohortSwarm(_VectorSwarm):
    """The event-driven cohort tier (``fidelity='cohort'``).

    Runs the paper's batch-mode client loop per cohort: Eq. 1 sizes a
    batch of the next ``k`` sequential segments, the batch waits out
    request+handshake latency, drains at the allocator's rate, and
    refills on completion.  One sim event per state change.
    """

    def __init__(self, splice, config, obs=None) -> None:
        super().__init__(splice, config, obs)

    # -- batch lifecycle -----------------------------------------------

    def _start_batch(self, c: int, now: float) -> None:
        prefix = int(self._prefix[c])
        if prefix >= self._n_segments or self._alive[c] <= 0.0:
            self._phase[c] = _DONE
            return
        k = self._pool_size(c, now)
        self._batch_k[c] = k
        self._bytes_left[c] = float(
            self._wsum[prefix + k] - self._wsum[prefix]
        )
        self._latency_left[c] = self._batch_latency
        self._phase[c] = _LATENCY

    def _complete_batch(self, c: int, now: float) -> None:
        new_prefix = int(self._prefix[c]) + int(self._batch_k[c])
        self._batch_k[c] = 0
        self._bytes_left[c] = 0.0
        self._extend_prefix(c, new_prefix, now)
        self._start_batch(c, now)

    # -- event loop ------------------------------------------------------

    def _reallocate(self) -> None:
        np = _np
        live = self._alive > 0.0
        demander = (self._phase == _DATA) & live
        # reach[c, j]: cohort j holds cohort c's whole current batch.
        # A demander's batch is never empty, so the diagonal is false.
        prefix = self._prefix
        reach = np.less_equal.outer(prefix + self._batch_k, prefix)
        reach &= demander[:, None]
        reach &= live & (self._phase != _PRE)
        self._allocate(demander, self._batch_k, reach)

    def _next_trigger(self, now: float) -> float:
        inf = float("inf")
        first_manifest = first_latency = first_eta = inf
        alive = self._alive.tolist()
        rate = self._rate.tolist()
        left = self._bytes_left.tolist()
        latency = self._latency_left.tolist()
        manifest = self._manifest_at.tolist()
        for c, phase in enumerate(self._phase.tolist()):
            if phase == _PRE:
                if manifest[c] < first_manifest:
                    first_manifest = manifest[c]
            elif phase == _LATENCY:
                if latency[c] < first_latency:
                    first_latency = latency[c]
            elif phase == _DATA and rate[c] > _EPS_BYTES:
                eta = left[c] / (rate[c] / max(alive[c], 1.0))
                if eta < first_eta:
                    first_eta = eta
        # ``now + min(x) == min(now + x)``: rounded addition is
        # monotone, so the minima can be taken first.
        target = min(first_manifest, now + first_latency, now + first_eta)
        for deps in self._departures:
            if deps:
                target = min(target, deps[0][0])
        return target

    def _process(self, now: float) -> None:
        """Fire every transition due at ``now``, in cohort order."""
        self._process_departures(now)
        # Each cohort's transitions touch only its own state, so one
        # snapshot serves the whole pass.
        latency = self._latency_left.tolist()
        left = self._bytes_left.tolist()
        manifest = self._manifest_at.tolist()
        for c, phase in enumerate(self._phase.tolist()):
            waited = latency[c]
            if phase == _PRE and now + _EPS_TIME >= manifest[c]:
                self._start_batch(c, now)
                # A fresh batch still waits its latency; fall through
                # so a zero-latency config advances in one event.
                phase = self._phase[c]
                waited = self._latency_left[c]
            if phase == _LATENCY and waited <= _EPS_TIME:
                self._latency_left[c] = 0.0
                self._phase[c] = _DATA
            elif phase == _DATA and left[c] <= _EPS_BYTES:
                self._complete_batch(c, now)
                if self._phase[c] == _LATENCY and (
                    self._latency_left[c] <= _EPS_TIME
                ):
                    self._phase[c] = _DATA

    def _on_trigger(self) -> None:
        now = self.sim.now
        self._integrate(now - self._last_t)
        self._last_t = now
        self._process(now)
        self._reallocate()
        self._schedule(now)

    def _schedule(self, now: float) -> None:
        self._pending = None
        target = self._next_trigger(now)
        if target == float("inf") or target > self._config.max_time:
            return
        delay = max(target - now, _EPS_TIME)
        self._pending = self.sim.schedule(delay, self._on_trigger)

    def _catch_up(self) -> None:
        now = self.sim.now
        self._integrate(now - self._last_t)
        self._last_t = now

    def _reschedule(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        now = self.sim.now
        self._process(now)
        self._reallocate()
        self._schedule(now)

    def run(self):
        """Run the session and materialize a ``SwarmResult``."""
        if self._ran:
            from ..errors import SwarmError

            raise SwarmError("a swarm session can only run once")
        self._ran = True
        self._schedule(0.0)
        self.sim.run(until=self._config.max_time)
        # Stalls still open at the cap stay unrecorded, exactly like
        # the exact player (StallEvents are recorded on resume).
        if self.obs is not None:
            self._emit_lifecycle_events()
        return self._build_result()


class FluidSwarm(_VectorSwarm):
    """The mean-field tier (``fidelity='fluid'``).

    Per-cohort download progress follows a rate ODE integrated with a
    fixed step on the sim clock: demand is Eq. 1's pool times the
    Mathis per-connection ceiling, derated by the per-batch handshake
    overhead; supply is shared by the proportional-filling allocator
    with cohorts strictly ahead (by contiguous prefix) serving those
    behind and the seeder feeding the front.  Stall boundaries are
    quantized to the step (default: a quarter of the shortest segment
    duration, clamped to [50 ms, 1 s]).
    """

    def __init__(self, splice, config, obs=None) -> None:
        super().__init__(splice, config, obs)
        np = _np
        if config.fluid_dt is not None:
            self._dt = float(config.fluid_dt)
        else:
            shortest = float(
                np.diff(self._dsum).min()
            )
            self._dt = min(1.0, max(0.05, shortest / 4.0))
        # Continuous per-peer byte progress (prefix derives from it).
        self._progress = np.zeros(self._count)
        self._total_bytes = float(self._wsum[-1])

    def _fluid_rates(self, now: float) -> None:
        np = _np
        active = (
            (self._manifest_at <= now)
            & (self._alive > 0.0)
            & (self._progress < self._total_bytes - _EPS_BYTES)
        )
        done = (self._progress >= self._total_bytes - _EPS_BYTES) | (
            self._alive <= 0.0
        )
        self._phase[:] = np.where(
            active, _DATA, np.where(done, _DONE, _PRE)
        ).astype(np.int8)
        k = np.array(
            [
                self._pool_size(c, now) if active[c] else 1
                for c in range(self._count)
            ],
            dtype=np.int64,
        )
        # reach[c, j]: cohort j is strictly ahead of cohort c.
        reach = (
            (self._prefix[None, :] > self._prefix[:, None])
            & active[:, None]
            & (self._alive > 0.0)[None, :]
            & (self._manifest_at <= now)[None, :]
        )
        # Mean-field self-supply (Kumar–Ross): a cohort's members are
        # internally staggered, so once any copy of the data exists in
        # the cohort its own uplink spreads it epidemically — the
        # seeder only bootstraps the first copy.  Without this the
        # front cohort would be seeder-bound and per-peer throughput
        # would collapse as 1/N instead of staying flat.
        diag = np.arange(self._count)
        reach[diag, diag] = active & (self._progress > _EPS_BYTES)
        self._allocate(active, k, reach)
        # Derate for per-batch request+handshake latency: a batch of
        # k mean-size segments at rate r pays `latency` dead seconds.
        cap = np.maximum(self._rate / np.maximum(self._alive, 1.0), 0.0)
        batch_bytes = k * self._mean_size
        eta = batch_bytes / (
            batch_bytes + self._batch_latency * np.maximum(cap, 1.0)
        )
        self._rate *= eta
        self._seeder_rate *= eta

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        np = _np
        if dt > 0.0:
            flowing = self._phase == _DATA
            per_peer = np.where(
                flowing, self._rate / np.maximum(self._alive, 1.0), 0.0
            )
            gained = per_peer * dt
            self._progress = np.minimum(
                self._progress + gained, self._total_bytes
            )
            self._bytes_down += gained
            self._bytes_left[:] = 0.0
            self._seeder_bytes += float(
                (self._seeder_rate * dt)[flowing].sum()
            )
        self._last_t = now
        self._process_departures(now)
        new_prefix = np.searchsorted(
            self._wsum[1:], self._progress + _EPS_BYTES, side="right"
        )
        for c in range(self._count):
            self._extend_prefix(c, int(new_prefix[c]), now)
        self._open_stalls(now)
        self._fluid_rates(now)
        if (self._phase != _DONE).any() and now < self._config.max_time:
            self._pending = self.sim.schedule(self._dt, self._step)
        else:
            self._pending = None

    def _catch_up(self) -> None:
        # Fluid state advances only on step boundaries; nothing to do
        # between them (rates are piecewise constant per step).
        pass

    def _reschedule(self) -> None:
        self._fluid_rates(self.sim.now)

    def run(self):
        """Run the session and materialize a ``SwarmResult``."""
        if self._ran:
            from ..errors import SwarmError

            raise SwarmError("a swarm session can only run once")
        self._ran = True
        self._pending = self.sim.schedule(0.0, self._step)
        self.sim.run(until=self._config.max_time)
        if self.obs is not None:
            self._emit_lifecycle_events()
        return self._build_result()
