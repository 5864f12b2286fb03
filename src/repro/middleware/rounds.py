"""Event-driven aggregation rounds: resumable broker state machines.

The synchronous path (:meth:`repro.middleware.broker.Broker.run_round`)
completes a whole command → collect → solve round inside one function
call — fine when the transport is instantaneous, wrong when WiFi/BT/GSM
links impose real latency.  This module reworks the round into a state
machine driven by the discrete-event clock:

    IDLE → COMMANDING → COLLECTING → SOLVING → FINALIZED

- **COMMANDING**: the broker draws its plan (same RNG sequence as the
  synchronous path, via :meth:`Broker.plan_round`) and transmits one
  SENSE_COMMAND per planned cell; deliveries arrive after link latency.
- **COLLECTING**: reports arrive as bus events; per-command timeouts
  re-transmit (the PR-1 retry/backoff policy, now as scheduled events)
  or rotate to the next co-located candidate; a *report deadline* event
  bounds the wait — when it fires, the round solves with whatever
  arrived (partial-report solve) after infrastructure fallback.
- **SOLVING/FINALIZED**: the pure-numeric solve and the serial state
  adaptation, then a round-completed callback.

One :class:`ZoneRoundDriver` runs one zone (LocalCloud) on its own
period and phase offset, so zones desynchronise instead of marching
under a global barrier.  With the bus in ``latency_mode="zero"`` the
driver collapses COMMANDING/COLLECTING into the synchronous collect —
every exchange completes within the round instant — which is
property-tested bit-identical to the lockstep path.
"""

from __future__ import annotations

# Wall-clock convention: simulation logic must read the SimClock; the
# only sanctioned wall-clock reads are the perf-timing spans below that
# measure *solver compute cost* (RoundRecord.round_wall_s and
# ZoneRoundOutcome.wall_s).  Each carries a
# `# reprolint: allow[wall-clock]` pragma — see docs/invariants.md.
import dataclasses
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from ..analysis import contracts
from ..network.message import Message, MessageKind
from ..sensors.base import Environment
from .broker import Broker, _Collected, _RoundPlan, _RoundTelemetry
from .localcloud import LocalCloud, LocalCloudResult
from .nanocloud import NanoCloud
from .node import MobileNode
from .overload import OverloadController, RoundDirectives

if TYPE_CHECKING:
    from ..sim.clock import PeriodicHandle, SimClock

__all__ = [
    "RoundState",
    "ZoneSchedule",
    "ZoneRoundOutcome",
    "ZoneRoundDriver",
]


class RoundState(Enum):
    """Lifecycle of one zone's aggregation round."""

    IDLE = "idle"
    COMMANDING = "commanding"
    COLLECTING = "collecting"
    SOLVING = "solving"
    FINALIZED = "finalized"


@dataclass(frozen=True)
class ZoneSchedule:
    """Per-zone cadence: sensing period and phase offset.

    ``offset_s`` is the sim time of the zone's *first* round (default:
    one period in), so zones can interleave instead of synchronising.
    """

    period_s: float
    offset_s: float | None = None

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.offset_s is not None and self.offset_s < 0:
            raise ValueError("offset_s must be non-negative")


@dataclass(frozen=True)
class ZoneRoundOutcome:
    """One completed zone round, with its command-to-estimate latency.

    ``stale`` marks an overload outcome that re-serves the previous
    round's field (breaker OPEN or ladder LEVEL_STALE) instead of
    sensing — its estimates carry ``staleness_rounds`` > 0.
    """

    zone_id: int
    result: LocalCloudResult
    started_at: float
    completed_at: float
    index: int
    partial: bool = False
    wall_s: float = 0.0
    stale: bool = False

    @property
    def latency_s(self) -> float:
        """Sim time from the first command to the finalized estimate."""
        return self.completed_at - self.started_at


@dataclass
class _CellAttempt:
    """Per-cell command progress: which candidate, which retry."""

    cell: int
    candidates: list[str]
    candidate_idx: int = 0
    attempt: int = 0
    awaiting: str | None = None
    satisfied: bool = False
    exhausted: bool = False


@dataclass
class _NcCollection:
    """One NanoCloud's in-flight collection state for one round."""

    nc: NanoCloud
    broker: Broker
    plan: _RoundPlan | None
    collected: _Collected = field(default_factory=_Collected)
    telemetry: _RoundTelemetry = field(default_factory=_RoundTelemetry)
    cells: dict[int, _CellAttempt] = field(default_factory=dict)
    commanded: dict[str, int] = field(default_factory=dict)
    baseline_out: int = 0
    baseline_in: int = 0


class ZoneRoundDriver:
    """Drives one zone's rounds on the event clock.

    Parameters
    ----------
    zone_id / localcloud:
        The zone and its LocalCloud (brokers + nodes already on a bus).
    env:
        Ground truth the member sensors read.
    clock:
        The :class:`repro.sim.clock.SimClock` everything is scheduled on.
    period_s / offset_s:
        Round cadence; the first round fires at ``offset_s`` (default:
        one period in).
    report_deadline_s:
        COLLECTING deadline; defaults to the broker config's
        ``report_deadline_s``, clamped below the period so a round
        always closes before the next one is due.
    cloud_address:
        When set, every finalized round reports upward to this address
        (the public-cloud uplink of the lockstep path).
    measurements_per_nc:
        Optional fixed per-NanoCloud measurement budgets.
    on_complete:
        Callback receiving each :class:`ZoneRoundOutcome` — the
        round-completed event the simulation layer subscribes to.
    """

    def __init__(
        self,
        zone_id: int,
        localcloud: LocalCloud,
        env: Environment,
        clock: "SimClock",
        *,
        period_s: float,
        offset_s: float | None = None,
        report_deadline_s: float | None = None,
        cloud_address: str | None = None,
        measurements_per_nc: list[int] | None = None,
        on_complete: Callable[["ZoneRoundOutcome"], None] | None = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.zone_id = zone_id
        self.lc = localcloud
        self.env = env
        self.clock = clock
        self.bus = localcloud.bus
        self.period_s = period_s
        self.offset_s = offset_s
        deadline = (
            report_deadline_s
            if report_deadline_s is not None
            else localcloud.config.report_deadline_s
        )
        # A round must close before the next is due or every firing
        # after the first would be skipped as busy.
        self.report_deadline_s = min(deadline, 0.9 * period_s)
        self.cloud_address = cloud_address
        self.measurements_per_nc = measurements_per_nc
        self.on_complete = on_complete
        self.state = RoundState.IDLE
        self.rounds_completed = 0
        self.rounds_skipped = 0
        self.rounds_failed = 0
        self.late_reports = 0
        # Overload accounting: busy firings that were rescheduled by
        # admission control, and round slots served from the last good
        # estimate (breaker OPEN / ladder LEVEL_STALE).
        self.rounds_rescheduled = 0
        self.rounds_stale_served = 0
        self.last_outcome: ZoneRoundOutcome | None = None
        self._generation = 0
        self._started_at = 0.0
        self._collections: list[_NcCollection] = []
        self._handle: "PeriodicHandle | None" = None
        self._directives = RoundDirectives()
        self._busy_streak = 0
        self._retry_pending = False
        # The driver's state machine belongs to the thread that built it
        # (the event loop); only the inner solve may use workers.  The
        # sanitizer asserts this on every state transition.
        self._owner_ident = threading.get_ident()

    # -- scheduling ----------------------------------------------------

    def start(self, until: float | None = None) -> None:
        """Arm the periodic round schedule on the clock."""
        first = self.offset_s if self.offset_s is not None else self.period_s
        self._handle = self.clock.schedule_periodic(
            self.period_s, self._begin_round, start=first, until=until
        )
        if self.bus.deferred:
            # AGGREGATE traffic to the head/cloud tiers is metered on
            # arrival and then discarded (the lockstep path drains those
            # inboxes explicitly; event mode has no drain point).
            self.bus.set_handler(self.lc.head_address, lambda message: None)
            if self.cloud_address is not None:
                self.bus.set_handler(self.cloud_address, lambda message: None)

    def stop(self) -> None:
        if self._handle is not None:
            self.clock.cancel(self._handle)

    # -- round lifecycle -----------------------------------------------

    # -- overload protection -------------------------------------------

    @property
    def overload(self) -> OverloadController:
        """The zone's overload controller (lead NC broker's state).

        Read through the broker each time so a heartbeat failover —
        which carries the controller onto the promoted acting broker —
        keeps feeding the same detector/breaker/ladder state.
        """
        return self.lc.nanoclouds[0].broker.overload

    def _queue_depth(self) -> int:
        """Pending bus traffic at the zone's broker endpoints."""
        depth = 0
        for nc in self.lc.nanoclouds:
            try:
                depth += self.bus.endpoint(nc.broker.broker_id).pending()
            except KeyError:
                pass  # broker endpoint churned; it holds no queue
        return depth

    def _nc_budget(
        self, broker: Broker, idx: int, directives: RoundDirectives
    ) -> int | None:
        """This NC's measurement budget after the ladder's M scaling."""
        budget = (
            self.measurements_per_nc[idx]
            if self.measurements_per_nc is not None
            else None
        )
        if directives.m_scale >= 1.0:
            return budget
        if budget is None:
            k_est = broker._sparsity_estimate()
            if directives.sparsity_cap is not None:
                k_est = min(k_est, directives.sparsity_cap)
            budget = broker.config.policy.measurements(broker.n, k_est)
        return max(1, int(round(directives.m_scale * budget)))

    def _handle_busy(self, now: float) -> None:
        """A firing found the previous round still in flight."""
        self.rounds_skipped += 1
        cfg = self.overload.config
        if not cfg.admission_control:
            return
        self._busy_streak += 1
        over_budget = self._busy_streak > cfg.busy_skip_budget
        self.overload.record_busy_skip(over_budget)
        if over_budget or self._retry_pending:
            return
        # Admission control: rather than waiting a whole period, retry
        # a fraction of it later — the in-flight round may close soon.
        self._retry_pending = True
        self.rounds_rescheduled += 1
        self.clock.schedule_in(
            cfg.admission_retry_frac * self.period_s, self._admission_retry
        )

    def _admission_retry(self, now: float) -> None:
        self._retry_pending = False
        self._begin_round(now)

    def _serve_stale(self, now: float, directives: RoundDirectives) -> None:
        """Serve the last good estimate instead of running a round."""
        self.rounds_stale_served += 1
        last = self.last_outcome
        if last is None:
            return  # nothing good to serve yet; the slot is simply lost
        estimates = [
            dataclasses.replace(
                e,
                timestamp=now,
                degraded=True,
                staleness_rounds=e.staleness_rounds + 1,
                degraded_level=max(directives.level, e.degraded_level),
            )
            for e in last.result.nc_estimates
        ]
        result = LocalCloudResult(
            field=last.result.field, nc_estimates=estimates, timestamp=now
        )
        outcome = ZoneRoundOutcome(
            zone_id=self.zone_id,
            result=result,
            started_at=now,
            completed_at=now,
            index=self.rounds_completed,
            stale=True,
        )
        self.last_outcome = outcome
        if self.on_complete is not None:
            self.on_complete(outcome)

    # -- round lifecycle (continued) -----------------------------------

    def _begin_round(self, now: float) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._begin_round"
            )
        if self.state not in (RoundState.IDLE, RoundState.FINALIZED):
            # The previous round is still collecting/solving: skip this
            # firing rather than pile up overlapping rounds (and, with
            # admission control armed, retry a fraction of a period in).
            self._handle_busy(now)
            return
        self._busy_streak = 0
        directives = self.overload.begin_round(self._queue_depth())
        if directives.serve_stale:
            self._serve_stale(now, directives)
            return
        self._directives = directives
        self._generation += 1
        self._started_at = now
        if not self.bus.deferred:
            self._run_synchronous(now, directives)
            return
        gen = self._generation
        self.state = RoundState.COMMANDING
        self._collections = []
        for idx, nc in enumerate(self.lc.nanoclouds):
            broker = nc.prepare_round(now)
            budget = self._nc_budget(broker, idx, directives)
            try:
                plan = broker.plan_round(
                    measurements=budget,
                    sparsity_cap=directives.sparsity_cap,
                )
            except RuntimeError:
                self._collections.append(
                    _NcCollection(nc=nc, broker=broker, plan=None)
                )
                continue
            endpoint = self.bus.endpoint(broker.broker_id)
            col = _NcCollection(
                nc=nc,
                broker=broker,
                plan=plan,
                baseline_out=endpoint.outbound_lost,
                baseline_in=endpoint.inbound_lost,
            )
            for cell in plan.plan.locations.tolist():
                col.cells[cell] = _CellAttempt(
                    cell=cell,
                    candidates=broker._cell_order(
                        cell, plan.members_by_cell, nc.nodes, plan.probes
                    ),
                )
            self._collections.append(col)
            self._install_handlers(col, gen)
        for col in self._collections:
            for cell in sorted(col.cells):
                self._dispatch(col, col.cells[cell], gen, now)
        self.state = RoundState.COLLECTING
        self.clock.schedule_in(
            self.report_deadline_s,
            lambda t, g=gen: self._deadline(g, t),
        )
        self._maybe_complete()

    def _install_handlers(self, col: _NcCollection, gen: int) -> None:
        self.bus.set_handler(
            col.broker.broker_id,
            lambda message, c=col, g=gen: self._on_broker_message(
                c, g, message
            ),
        )
        for node in col.nc.nodes.values():
            try:
                self.bus.set_handler(
                    node.node_id,
                    lambda message, n=node: self._on_node_message(n, message),
                )
            except KeyError:
                pass  # churned off the bus; sends to it drop-and-count

    # -- commanding / collecting ---------------------------------------

    def _dispatch(
        self, col: _NcCollection, ca: _CellAttempt, gen: int, now: float
    ) -> None:
        """Command the cell's current candidate (or fall back to infra)."""
        broker = col.broker
        while True:
            if ca.satisfied:
                return
            if ca.candidate_idx >= len(ca.candidates):
                self._exhaust_cell(col, ca, now)
                return
            node_id = ca.candidates[ca.candidate_idx]
            if node_id not in col.nc.nodes:
                ca.candidate_idx += 1
                ca.attempt = 0
                continue
            command = Message(
                kind=MessageKind.SENSE_COMMAND,
                source=broker.broker_id,
                destination=node_id,
                payload={
                    "sensor": broker.sensor_name,
                    "grid_index": ca.cell,
                },
                payload_values=2,
                timestamp=now,
            )
            col.commanded[node_id] = ca.cell
            ca.awaiting = node_id
            if not self.bus.send(command, strict=False):
                # Endpoint gone at transmit time; rotate immediately.
                ca.candidate_idx += 1
                ca.attempt = 0
                continue
            timeout = broker.config.report_timeout_s * 2 ** min(ca.attempt, 5)
            self.clock.schedule_in(
                timeout,
                lambda t, c=col, a=ca, n=node_id, k=ca.attempt, g=gen: (
                    self._report_timeout(c, a, n, k, g, t)
                ),
            )
            return

    def _exhaust_cell(
        self, col: _NcCollection, ca: _CellAttempt, now: float
    ) -> None:
        """Every candidate failed/refused: try the fixed sensor, else
        mark the cell unrealisable so the round can close early."""
        broker = col.broker
        if ca.cell in broker.infrastructure:
            value, noise_std = broker._read_infrastructure(
                ca.cell, self.env, now
            )
            col.telemetry.infra_reads += 1
            self._record_measurement(col, ca, value, noise_std, ())
            return
        ca.exhausted = True
        self._maybe_complete()

    def _record_measurement(
        self,
        col: _NcCollection,
        ca: _CellAttempt,
        value: float,
        noise_std: float | None,
        sources: tuple[str, ...],
    ) -> None:
        ca.satisfied = True
        col.collected.locations.append(ca.cell)
        col.collected.values.append(value)
        col.collected.noise_stds.append(noise_std or 0.0)
        col.collected.sources.append(sources)
        self._maybe_complete()

    def _report_timeout(
        self,
        col: _NcCollection,
        ca: _CellAttempt,
        node_id: str,
        attempt: int,
        gen: int,
        now: float,
    ) -> None:
        if gen != self._generation or self.state is not RoundState.COLLECTING:
            return
        if ca.satisfied or ca.awaiting != node_id or ca.attempt != attempt:
            return  # stale timer: the cell moved on without us
        if ca.attempt < col.broker.config.command_retries:
            ca.attempt += 1
            col.telemetry.retries_used += 1
        else:
            ca.candidate_idx += 1
            ca.attempt = 0
        self._dispatch(col, ca, gen, now)

    def _on_broker_message(
        self, col: _NcCollection, gen: int, message: Message
    ) -> None:
        if message.kind is not MessageKind.SENSE_REPORT:
            # Context shares etc. keep their inbox path for the usual
            # consumers (Broker.process_inbox) — re-enqueued through the
            # bounded bus API so a saturated broker sheds them instead
            # of queueing without limit (RPR008).
            self.bus.requeue(message)
            return
        if gen != self._generation or self.state is not RoundState.COLLECTING:
            self.late_reports += 1
            return
        cell = col.commanded.get(message.source)
        if cell is None:
            self.late_reports += 1
            return
        ca = col.cells.get(cell)
        if ca is None or ca.satisfied:
            return
        if message.payload.get("ok"):
            self._record_measurement(
                col,
                ca,
                float(message.payload["value"]),
                float(message.payload.get("noise_std", 0.0)),
                (message.source,),
            )
        else:
            col.telemetry.refused += 1
            if ca.awaiting == message.source:
                ca.candidate_idx += 1
                ca.attempt = 0
                self._dispatch(col, ca, gen, float(self.clock.now))

    def _on_node_message(self, node: MobileNode, message: Message) -> None:
        if message.kind is MessageKind.SENSE_COMMAND:
            node.handle_command(message, self.env, self.bus)
        else:
            self.bus.requeue(message)

    def _maybe_complete(self) -> None:
        if self.state is not RoundState.COLLECTING:
            return
        for col in self._collections:
            for ca in col.cells.values():
                if not ca.satisfied and not ca.exhausted:
                    return
        self._close_collection(float(self.clock.now))

    def _deadline(self, gen: int, now: float) -> None:
        if gen != self._generation or self.state is not RoundState.COLLECTING:
            return
        self._close_collection(now)

    # -- solving / finalizing ------------------------------------------

    def _close_collection(self, now: float) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._close_collection"
            )
        self.state = RoundState.SOLVING
        started_wall = time.perf_counter()  # reprolint: allow[wall-clock]
        pairs = []
        partial = False
        for col in self._collections:
            broker = col.broker
            if col.plan is None:
                self.rounds_failed += 1
                self.state = RoundState.IDLE
                return
            # Deadline fallback: cells whose node exchange was still in
            # flight read their fixed sensor now (the synchronous path's
            # per-cell infra fallback, deferred to the deadline).
            for cell in sorted(col.cells):
                ca = col.cells[cell]
                if not ca.satisfied and cell in broker.infrastructure:
                    value, noise_std = broker._read_infrastructure(
                        cell, self.env, now
                    )
                    col.telemetry.infra_reads += 1
                    ca.satisfied = True
                    col.collected.locations.append(cell)
                    col.collected.values.append(value)
                    col.collected.noise_stds.append(noise_std or 0.0)
                    col.collected.sources.append(())
            if not col.collected.locations and broker.infrastructure:
                broker._infra_sweep(col.collected, col.telemetry, self.env, now)
            if any(not ca.satisfied for ca in col.cells.values()):
                partial = True
            endpoint = self.bus.endpoint(broker.broker_id)
            col.telemetry.commands_lost += (
                endpoint.outbound_lost - col.baseline_out
            )
            col.telemetry.reports_lost += (
                endpoint.inbound_lost - col.baseline_in
            )
            try:
                pending = broker._freeze_round(
                    col.collected,
                    col.telemetry,
                    col.plan.k_est,
                    col.plan.planned_m,
                    self._started_at,
                )
            except RuntimeError:
                self.rounds_failed += 1
                self.state = RoundState.IDLE
                return
            pairs.append((broker, pending))
        solved = [broker.solve_round(pending) for broker, pending in pairs]
        result = self.lc.finish_round(pairs, solved, self._started_at)
        if self.cloud_address is not None:
            self.lc.report_upward(self.cloud_address, result, now)
        wall = time.perf_counter() - started_wall  # reprolint: allow[wall-clock]
        self._finish(result, now, partial, wall)

    def _run_synchronous(
        self, now: float, directives: RoundDirectives
    ) -> None:
        """Zero-latency collapse: the whole round completes at ``now``.

        Bit-identical to the lockstep path — same collect/solve/finalize
        calls on the same broker state — because with instantaneous
        links there is nothing to wait for.
        """
        self.state = RoundState.SOLVING
        started_wall = time.perf_counter()  # reprolint: allow[wall-clock]
        if directives.m_scale < 1.0:
            budgets = [
                self._nc_budget(nc.broker, idx, directives)
                for idx, nc in enumerate(self.lc.nanoclouds)
            ]
        else:
            budgets = self.measurements_per_nc
        try:
            result = self.lc.run_round(
                self.env, now,
                measurements_per_nc=budgets,
                sparsity_cap=directives.sparsity_cap,
            )
        except RuntimeError:
            self.rounds_failed += 1
            self.state = RoundState.IDLE
            return
        if self.cloud_address is not None:
            self.lc.report_upward(self.cloud_address, result, now)
            self.bus.endpoint(self.cloud_address).drain()
        wall = time.perf_counter() - started_wall  # reprolint: allow[wall-clock]
        self._finish(result, now, False, wall)

    def _finish(
        self,
        result: LocalCloudResult,
        now: float,
        partial: bool,
        wall_s: float,
    ) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._finish"
            )
        self.state = RoundState.FINALIZED
        self.rounds_completed += 1
        directives = self._directives
        if directives.level > 0:
            # A degraded (reduced-M / coarse) round: stamp the ladder
            # level on the estimates so consumers can weight them.
            for estimate in result.nc_estimates:
                estimate.degraded = True
                estimate.degraded_level = directives.level
        latency = now - self._started_at
        # A round the report deadline had to close is the breaker's
        # "failure" signal — sim-time, so replays reproduce every trip.
        self.overload.finish_round(
            latency_s=latency,
            deadline_s=self.report_deadline_s,
            timed_out=latency >= self.report_deadline_s,
        )
        outcome = ZoneRoundOutcome(
            zone_id=self.zone_id,
            result=result,
            started_at=self._started_at,
            # Read the clock after the solve: on a WallClock ``now`` was
            # taken before the (synchronous) solve ran; on a SimClock the
            # two are the same event time.
            completed_at=float(self.clock.now),
            index=self.rounds_completed,
            partial=partial,
            wall_s=wall_s,
        )
        self.last_outcome = outcome
        if self.on_complete is not None:
            self.on_complete(outcome)
