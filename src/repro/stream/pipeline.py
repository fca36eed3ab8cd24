"""The online detection pipeline and the event-pump engine.

:class:`OnlinePipeline` is the repo's one per-slot monitoring loop,
run an event at a time: each :class:`~repro.stream.events.PriceUpdate`
binds the single-event detector to the new day, each
:class:`~repro.stream.events.MeterReading` produces per-meter flags, a
POMDP observation, a belief update and a monitor/repair action — one
:class:`SlotDetection` per slot, appended to the pipeline's timeline.

:class:`StreamEngine` couples a source with a pipeline and pumps events
through it, routing repair decisions back to the source (the feedback
edge of the paper's Figure 2 loop) and exposing whole-run state capture
for the checkpoint layer.  :func:`replay_engine` wires a monitored world
(:func:`repro.simulation.world.build_world`) into an engine — the batch
scenario is that engine pumped to exhaustion, and
:func:`build_replay_engine` is its checkpointable form;
:func:`build_synthetic_engine` yields a lightweight scripted engine for
the service layer and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from numpy.typing import NDArray

from repro.core.config import CommunityConfig, RetryPolicy, config_to_dict
from repro.data.community import build_community
from repro.detection.single_event import CommunityResponseSimulator
from repro.obs.trace import TRACER
from repro.perf.counters import PERF
from repro.simulation.cache import GameSolutionCache, global_game_cache
from repro.simulation.scenario import DetectorKind, ScenarioResult
from repro.simulation.world import (
    ReplayWorld,
    build_world,
    is_aware,
    long_term_detector,
    response_simulators,
)
from repro.stream.detectors import IncrementalMonitor, IncrementalSingleEvent
from repro.stream.events import (
    AttackOccurrence,
    DayBoundary,
    MeterReading,
    PriceUpdate,
    StreamEvent,
    event_from_dict,
    event_to_dict,
)
from repro.stream.source import (
    EventSource,
    ReplaySource,
    ScriptedOccurrence,
    synthetic_attack_script,
)

if TYPE_CHECKING:  # runtime import stays lazy to keep faults optional
    from repro.detection.single_event import SingleEventDetection
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.audit import AuditTrail
    from repro.obs.scoreboard import ResilienceScoreboard


@dataclass(frozen=True)
class SlotDetection:
    """The pipeline's verdict for one monitoring slot.

    ``action``/``belief_mean`` are ``None`` when no long-term monitor is
    configured (Table 1's ``detector="none"`` column);
    ``realized_grid`` is ``None`` when the reading carried no ground
    truth to simulate against.

    A ``gap`` entry is an explicit placeholder for a slot whose reading
    never arrived usable (dropped, corrupted, or lost across a day
    boundary): flags are all-False, the observation is 0, and no belief
    update happened — the monitor simply held its posterior.
    ``gap_reason`` says why (``"dropped"`` or ``"corrupt"``).
    """

    slot: int
    day: int
    flags: NDArray[np.bool_]
    observation: int
    action: int | None
    belief_mean: float | None
    repaired: bool
    repaired_count: int
    realized_grid: float | None
    truth: NDArray[np.bool_] | None
    gap: bool = False
    gap_reason: str | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "slot": self.slot,
            "day": self.day,
            "flags": self.flags.astype(int).tolist(),
            "observation": self.observation,
            "action": self.action,
            "belief_mean": self.belief_mean,
            "repaired": self.repaired,
            "repaired_count": self.repaired_count,
            "realized_grid": self.realized_grid,
        }
        if self.truth is not None:
            payload["truth"] = self.truth.astype(int).tolist()
        if self.gap:
            payload["gap"] = True
            payload["gap_reason"] = self.gap_reason
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SlotDetection":
        truth = payload.get("truth")
        return cls(
            slot=int(payload["slot"]),
            day=int(payload["day"]),
            flags=np.asarray(payload["flags"], dtype=bool),
            observation=int(payload["observation"]),
            action=None if payload["action"] is None else int(payload["action"]),
            belief_mean=(
                None if payload["belief_mean"] is None else float(payload["belief_mean"])
            ),
            repaired=bool(payload["repaired"]),
            repaired_count=int(payload["repaired_count"]),
            realized_grid=(
                None
                if payload["realized_grid"] is None
                else float(payload["realized_grid"])
            ),
            truth=None if truth is None else np.asarray(truth, dtype=bool),
            gap=bool(payload.get("gap", False)),
            gap_reason=payload.get("gap_reason"),
        )


class OnlinePipeline:
    """Incremental detector stack: one event in, at most one verdict out.

    Parameters
    ----------
    single_event:
        The per-day single-event detector state machine.
    monitor:
        The POMDP monitor, or ``None`` for flag-only operation.
    rng:
        Measurement-noise stream for the per-meter checks.  For replay
        engines this is the *shared* world generator (interleaved with
        the source's hacking-process draws slot by slot).
    slots_per_day:
        Day length, for slot/day bookkeeping.
    grid_simulator:
        Ground-truth community simulator used to account the realized
        grid demand of readings that carry a truth mask; ``None`` skips
        the accounting.
    repair_hook:
        Called when the monitor dispatches a repair; returns the number
        of meters actually fixed.  The engine wires this to the source's
        ``apply_repair``.
    audit:
        Optional :class:`~repro.obs.audit.AuditTrail` receiving one
        explainable record per verdict (per-meter PAR margins, belief
        before/after, gap reasons).  ``None`` — the default — runs the
        exact historical code path; attaching a trail consumes the
        measurement-noise stream in the identical order, so verdicts
        never change.
    scoreboard:
        Optional :class:`~repro.obs.scoreboard.ResilienceScoreboard`
        folding each verdict and occurrence into MTTD/MTTR/availability
        metrics.  Pure observer: it never touches the RNG stream and is
        rebuilt from the restored timeline on resume, so attaching one
        changes no verdict and no checkpoint byte.
    """

    def __init__(
        self,
        *,
        single_event: IncrementalSingleEvent,
        monitor: IncrementalMonitor | None,
        rng: np.random.Generator | None,
        slots_per_day: int,
        grid_simulator: CommunityResponseSimulator | None = None,
        repair_hook: Callable[[], int] | None = None,
        audit: "AuditTrail | None" = None,
        scoreboard: "ResilienceScoreboard | None" = None,
    ) -> None:
        if slots_per_day < 1:
            raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day}")
        self.single_event = single_event
        self.monitor = monitor
        self.rng = rng
        self.slots_per_day = slots_per_day
        self.grid_simulator = grid_simulator
        self.repair_hook = repair_hook
        self.audit = audit
        self.scoreboard = scoreboard
        self.trace_tags: dict[str, Any] = {}  # repro: noqa[CKPT001] trace bookkeeping, not simulation state
        self._current_update: PriceUpdate | None = None
        self._days_completed = 0
        self._timeline: list[SlotDetection] = []
        self._next_slot = 0
        self._pending: dict[int, MeterReading] = {}
        self._occurrences: list[dict[str, Any]] = []
        self._n_meters: int | None = None
        self._day_span: int | None = None  # repro: noqa[CKPT001] trace bookkeeping, not simulation state

    # ------------------------------------------------------------------
    @property
    def timeline(self) -> tuple[SlotDetection, ...]:
        """Every verdict so far, in slot order."""
        return tuple(self._timeline)

    @property
    def current_day(self) -> int | None:
        """Day of the active price update (None before the first)."""
        return None if self._current_update is None else self._current_update.day

    @property
    def days_completed(self) -> int:
        return self._days_completed

    @property
    def n_slots_processed(self) -> int:
        return len(self._timeline)

    @property
    def n_repairs(self) -> int:
        return sum(1 for det in self._timeline if det.repaired)

    @property
    def n_gaps(self) -> int:
        """Slots covered by an explicit gap marker instead of a verdict."""
        return sum(1 for det in self._timeline if det.gap)

    @property
    def occurrences(self) -> tuple[dict[str, Any], ...]:
        """Ground-truth attack occurrences seen on the stream, in order.

        Each entry is the event's JSON payload (slot, kind, meter ids,
        kind-tagged attack).  Detection never consumes these; they are
        the run's attack ledger for scoring and audit.
        """
        return tuple(self._occurrences)

    def detection_stats(self) -> dict[str, Any]:
        """Aggregate detection statistics for the monitoring API."""
        timeline = self._timeline
        stats: dict[str, Any] = {
            "slots_processed": len(timeline),
            "days_completed": self._days_completed,
            "current_day": self.current_day,
            "flags_total": int(sum(det.observation for det in timeline)),
            "repairs": self.n_repairs,
            "meters_repaired": int(sum(det.repaired_count for det in timeline)),
            "gaps": self.n_gaps,
            "occurrences": len(self._occurrences),
        }
        if self.monitor is not None:
            stats["belief_mean"] = self.monitor.belief_mean
        scored = [det for det in timeline if det.truth is not None]
        if scored:
            correct = sum(
                int(np.sum(det.truth == det.flags)) for det in scored
            )
            total = sum(det.flags.size for det in scored)
            stats["observation_accuracy"] = correct / total
        return stats

    # ------------------------------------------------------------------
    def check_event(self, event: StreamEvent, *, bound: bool = False) -> None:
        """Raise what :meth:`handle` would raise for ``event``, changing
        nothing; :meth:`handle` runs it before anything else.

        ``bound`` says an earlier event of the same batch binds a day, so
        a reading is acceptable before this pipeline's first update.
        """
        if isinstance(event, (PriceUpdate, DayBoundary)):
            self.single_event.check_day(event)
        elif isinstance(event, MeterReading):
            if self._current_update is None and not bound:
                raise RuntimeError(
                    "no active day: a PriceUpdate must precede the first MeterReading"
                )
        elif not isinstance(event, AttackOccurrence):
            raise TypeError(f"not a stream event: {type(event).__name__}")

    def handle(self, event: StreamEvent) -> SlotDetection | None:
        """Fold one event into the pipeline state.

        Robustness contract: an event is either refused before it changes
        any state, or folded in without raising.  Four kinds are refused
        (see :meth:`check_event`): a price update the day's detector
        cannot bind (``ValueError``: prices of the wrong horizon or not
        finite), a price update or day boundary whose day lies outside
        the world's days (``ValueError``: a replay's prebuilt range, a
        synthetic world's ``n_days``; accepting a far-future day would
        gap-fill every slot before it), a reading before the first price
        update (``RuntimeError``) and a non-event (``TypeError``).  Every
        other event — stale, early, duplicated or field-corrupted — is
        folded in: unusable slots become explicit gap markers in the
        timeline, so a faulted stream degrades without ever crashing the
        pump loop.
        """
        self.check_event(event)
        PERF.add("stream.events")
        if isinstance(event, PriceUpdate):
            current = self.current_day
            if current is not None and event.day < current:
                PERF.add("stream.stale_updates")
                return None
            if current is None:
                # First binding: slots before the first bound day were
                # never observable, so fast-forward rather than gap-fill.
                self._next_slot = max(self._next_slot, event.day * self.slots_per_day)
            elif event.day > current:
                # Readings of skipped/incomplete days can no longer be
                # processed under their own day's detector.
                self._flush_through(event.day * self.slots_per_day, reason="dropped")
            self.single_event.start_day(event)
            self._current_update = event
            if TRACER.enabled:
                TRACER.end(self._day_span)
                self._day_span = TRACER.begin(
                    "stream.day", category="stream", day=event.day, **self.trace_tags
                )
            return None
        if isinstance(event, DayBoundary):
            if self.current_day is not None and event.day == self.current_day:
                self._flush_through(
                    (event.day + 1) * self.slots_per_day, reason="dropped"
                )
            self._days_completed = max(self._days_completed, event.day + 1)
            if TRACER.enabled and self._day_span is not None:
                TRACER.end(self._day_span)
                self._day_span = None
            return None
        if isinstance(event, AttackOccurrence):
            # Ground-truth metadata: record it, never feed it to the
            # detectors (the detector must not peek at ground truth).
            self._occurrences.append(event_to_dict(event))
            PERF.add("stream.occurrences")
            if self.scoreboard is not None:
                self.scoreboard.record_occurrence(self._occurrences[-1])
            return None
        assert isinstance(event, MeterReading)
        return self._handle_reading(event)

    def _handle_reading(self, reading: MeterReading) -> SlotDetection | None:
        assert self._current_update is not None
        day_start = self._current_update.day * self.slots_per_day
        day_end = day_start + self.slots_per_day
        error = reading.validation_error(
            horizon=int(self._current_update.clean_prices.size),
            max_meters=None if self.monitor is None else self.monitor.n_meters,
        )
        if error is not None:
            PERF.add("stream.faults.rejected")
            if reading.slot == self._next_slot and day_start <= reading.slot < day_end:
                # The slot's only reading is unusable: mark it lost.
                return self._emit_gap(reading.slot, reason="corrupt")
            return None
        if reading.slot < self._next_slot:
            # Duplicate or late straggler for an already-settled slot.
            PERF.add("stream.stale_readings")
            return None
        if reading.slot != self._next_slot:
            # Early arrival (reordered/delayed): park it until its turn.
            self._pending[reading.slot] = reading
            PERF.add("stream.pending_readings")
            return None
        detection = self._process_reading(reading)
        self._drain_pending()
        return detection

    def _process_reading(self, reading: MeterReading) -> SlotDetection:
        assert self._current_update is not None
        with TRACER.span(
            "stream.slot",
            category="stream",
            slot=reading.slot,
            day=self._current_update.day,
            **self.trace_tags,
        ):
            slot_span = TRACER.current_span_id
            # The audit path collects per-meter evidence on the *same*
            # noise draws observe() would consume; flags are identical.
            checks: "list[SingleEventDetection] | None" = None
            if self.audit is None:
                flags = self.single_event.observe(reading, rng=self.rng)
            else:
                checks = self.single_event.observe_checks(reading, rng=self.rng)
                flags = np.zeros(len(checks), dtype=bool)
                for i, single_check in enumerate(checks):
                    flags[i] = single_check.flagged
            observation = int(flags.sum())
            realized = self._realized_grid(reading)

            action: int | None = None
            belief_mean: float | None = None
            belief_before: float | None = None
            repaired = False
            repaired_count = 0
            if self.monitor is not None:
                if self.audit is not None:
                    belief_before = self.monitor.belief_mean
                with TRACER.span(
                    "detector.update", category="stream", observation=observation
                ):
                    step = self.monitor.observe(observation)
                action = step.action
                belief_mean = step.belief_mean
                PERF.set_gauge("stream.belief_mean", step.belief_mean)
                repaired = step.repaired
                if repaired:
                    PERF.add("stream.repairs")
                    if self.repair_hook is not None:
                        repaired_count = self.repair_hook()

            detection = SlotDetection(
                slot=reading.slot,
                day=self._current_update.day,
                flags=flags,
                observation=observation,
                action=action,
                belief_mean=belief_mean,
                repaired=repaired,
                repaired_count=repaired_count,
                realized_grid=realized,
                truth=reading.truth,
            )
            self._timeline.append(detection)
            self._next_slot = reading.slot + 1
            self._n_meters = reading.n_meters
            PERF.add("stream.readings")
            PERF.add("stream.flags", observation)
            if self.audit is not None:
                self.audit.record_detection(
                    detection,
                    checks=checks,
                    update=self._current_update,
                    belief_before=belief_before,
                    span_id=slot_span,
                )
            if self.scoreboard is not None:
                self.scoreboard.record(detection)
            return detection

    def _drain_pending(self) -> None:
        """Process parked early arrivals that are now in order."""
        while self._next_slot in self._pending:
            self._process_reading(self._pending.pop(self._next_slot))

    def _emit_gap(self, slot: int, *, reason: str) -> SlotDetection:
        """Record an explicit placeholder for a slot with no usable reading.

        The monitor's belief is deliberately *not* updated — a missing
        observation carries no evidence, so the posterior holds.
        """
        width = self._n_meters
        if width is None:
            width = self.monitor.n_meters if self.monitor is not None else 0
        detection = SlotDetection(
            slot=slot,
            day=slot // self.slots_per_day,
            flags=np.zeros(width, dtype=bool),
            observation=0,
            action=None,
            belief_mean=None,
            repaired=False,
            repaired_count=0,
            realized_grid=None,
            truth=None,
            gap=True,
            gap_reason=reason,
        )
        self._timeline.append(detection)
        self._next_slot = slot + 1
        PERF.add("stream.gaps")
        if self.audit is not None:
            self.audit.record_gap(detection, span_id=TRACER.current_span_id)
        if self.scoreboard is not None:
            self.scoreboard.record(detection)
        return detection

    def _flush_through(self, end_slot: int, *, reason: str) -> None:
        """Settle every slot below ``end_slot``: parked readings are
        processed, the rest become gap markers."""
        while self._next_slot < end_slot:
            parked = self._pending.pop(self._next_slot, None)
            if parked is not None:
                self._process_reading(parked)
                self._drain_pending()
            else:
                self._emit_gap(self._next_slot, reason=reason)
        if self._pending:
            self._pending = {
                slot: reading
                for slot, reading in sorted(self._pending.items())
                if slot >= end_slot
            }

    def _realized_grid(self, reading: MeterReading) -> float | None:
        """Realized grid demand: benign response plus hacked-share deltas.

        Each monitored meter stands for ``1/n`` of the community;
        hacked shares add their manipulated response's delta, summed in
        ascending meter id.
        """
        if (
            reading.truth is None
            or self.grid_simulator is None
            or self._current_update is None
        ):
            return None
        clean = self._current_update.clean_prices
        slot_in_day = reading.slot % self.slots_per_day
        benign = self.grid_simulator.response(clean).grid_demand
        demand = benign[slot_in_day]
        # Homes respond to the prices they *received*, not the spoofed
        # report — ``responded`` is ``received`` unless a telemetry
        # attack decoupled the two.
        responded = reading.responded
        for meter_id in np.flatnonzero(reading.truth):
            attacked = self.grid_simulator.response(responded[meter_id]).grid_demand
            demand += (attacked[slot_in_day] - benign[slot_in_day]) / reading.n_meters
        return max(demand, 0.0)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable runtime state (day binding, monitor, timeline,
        slot cursor and parked readings)."""
        return {
            "current_update": (
                None
                if self._current_update is None
                else event_to_dict(self._current_update)
            ),
            "days_completed": self._days_completed,
            "monitor": None if self.monitor is None else self.monitor.state_dict(),
            "timeline": [det.to_dict() for det in self._timeline],
            "next_slot": self._next_slot,
            "pending": [
                event_to_dict(reading)
                for _, reading in sorted(self._pending.items())
            ],
            "occurrences": [dict(payload) for payload in self._occurrences],
            "n_meters": self._n_meters,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore runtime state captured by :meth:`state_dict`."""
        update = state["current_update"]
        if update is None:
            self._current_update = None
        else:
            event = event_from_dict(update)
            if not isinstance(event, PriceUpdate):
                raise ValueError("current_update must be a price_update event")
            self.single_event.start_day(event)
            self._current_update = event
        self._days_completed = int(state["days_completed"])
        if self.monitor is not None and state["monitor"] is not None:
            self.monitor.load_state(state["monitor"])
        self._timeline = [SlotDetection.from_dict(det) for det in state["timeline"]]
        # Pre-robustness checkpoints lack the cursor fields; derive them.
        self._next_slot = int(state.get("next_slot", len(self._timeline)))
        pending: dict[int, MeterReading] = {}
        for payload in state.get("pending", []):
            event = event_from_dict(payload)
            if not isinstance(event, MeterReading):
                raise ValueError("pending entries must be meter_reading events")
            pending[event.slot] = event
        self._pending = pending
        # Pre-taxonomy checkpoints carry no occurrence ledger.
        self._occurrences = [dict(p) for p in state.get("occurrences", [])]
        n_meters = state.get("n_meters")
        if n_meters is None and self._timeline:
            n_meters = int(self._timeline[-1].flags.size)
        self._n_meters = None if n_meters is None else int(n_meters)
        if self.audit is not None:
            self.audit.backfill(self._timeline)
        # Scoreboard state is derived, not checkpointed: refold the
        # restored history so a resumed board equals an uncut one.
        if self.scoreboard is not None:
            self.scoreboard.rebuild(self._timeline, self._occurrences)


class StreamEngine:
    """Pump loop: source events in, detection timeline out.

    The engine owns the wiring between source and pipeline (the repair
    feedback edge), counts processed events (the checkpoint cut point),
    and captures/restores whole-run state.  ``build_spec`` describes how
    to rebuild this engine from scratch — the checkpoint layer persists
    it so ``resume_engine`` works from nothing but the file.
    """

    def __init__(
        self,
        source: EventSource,
        pipeline: OnlinePipeline,
        *,
        rng: np.random.Generator | None = None,
        build_spec: dict[str, Any] | None = None,
        tp_rate: float = 0.0,
        fp_rate: float = 0.0,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.source = source
        self.pipeline = pipeline
        self.rng = rng
        self.build_spec = build_spec  # repro: noqa[CKPT001] persisted as the checkpoint's build section
        self.tp_rate = tp_rate
        self.fp_rate = fp_rate
        # Backoff sleeping is injected (the service passes time.sleep);
        # by default a stalled poll retries immediately, which keeps the
        # engine wall-clock-free and chaos tests instant.
        self.retry = retry  # repro: noqa[CKPT001] re-derived from the build spec's fault plan on resume
        self._sleep = sleep
        self._events_processed = 0
        if pipeline.repair_hook is None:
            pipeline.repair_hook = source.apply_repair

    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def timeline(self) -> tuple[SlotDetection, ...]:
        return self.pipeline.timeline

    def step(self) -> SlotDetection | None:
        """Process one event; returns its verdict (None for non-readings
        and for an exhausted source — check :meth:`exhausted`)."""
        event = self.source.next_event()
        if event is None:
            return None
        self._events_processed += 1
        with PERF.timer("stream.pump", hist=True):
            return self.pipeline.handle(event)

    @property
    def exhausted(self) -> bool:
        exhausted = getattr(self.source, "exhausted", None)
        if exhausted is None:
            return False
        return bool(exhausted)

    def run(
        self,
        *,
        max_events: int | None = None,
        until_day: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> list[SlotDetection]:
        """Pump events until the source dries up (or a bound is hit).

        A poll that yields no event from a non-exhausted source (a
        stalled feed) is retried under the engine's
        :class:`~repro.core.config.RetryPolicy` — per-call ``retry``
        overrides the engine default.  The retry budget resets on every
        successful delivery; when it runs out the run stops cleanly
        (``stream.stalls_aborted`` perf counter) rather than raising.

        Parameters
        ----------
        max_events:
            Stop after this many additional events (checkpoint cut
            points in tests).
        until_day:
            Stop once ``until_day`` full days have been completed.
        retry:
            Stall policy for this call only.

        Returns
        -------
        The verdicts appended by *this* call, gap markers included (the
        full history stays on :attr:`timeline`).
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        policy = retry if retry is not None else self.retry
        run_span = TRACER.begin(
            "stream.run",
            category="stream",
            max_events=max_events,
            until_day=until_day,
        )
        start = self.pipeline.n_slots_processed
        pumped = 0
        stalls = 0
        while True:
            if max_events is not None and pumped >= max_events:
                break
            if until_day is not None and self.pipeline.days_completed >= until_day:
                break
            before = self._events_processed
            self.step()
            if self._events_processed == before:
                if self.exhausted or policy is None:
                    break
                stalls += 1
                PERF.add("stream.stalls")
                if stalls > policy.max_retries:
                    PERF.add("stream.stalls_aborted")
                    break
                if self._sleep is not None:
                    delay = policy.delay(stalls)
                    if delay > 0.0:
                        self._sleep(delay)
                continue
            stalls = 0
            pumped += 1
        TRACER.end(run_span)
        return list(self.pipeline.timeline[start:])

    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Wrap the engine's source in a seeded fault injector.

        Re-installing replaces any previous injector (the clean source
        is unwrapped first, never stacked).  The repair feedback edge is
        rewired through the injector, the plan is recorded in
        ``build_spec`` so checkpoints resume faulted, and — when the
        plan can stall the feed and no policy is set — a default retry
        policy sized to ``max_stall`` is installed.
        """
        from repro.faults.injector import FaultInjector

        source = self.source
        if isinstance(source, FaultInjector):
            source = source.source
        injector = FaultInjector(source, plan)
        self.source = injector
        self.pipeline.repair_hook = injector.apply_repair
        if self.build_spec is not None:
            self.build_spec["faults"] = plan.to_dict()
        if self.retry is None and plan.stall_prob > 0.0:
            self.retry = RetryPolicy(max_retries=plan.max_stall + 4)
        return injector

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The active injector, or ``None`` when the source is clean."""
        from repro.faults.injector import FaultInjector

        return self.source if isinstance(self.source, FaultInjector) else None

    # ------------------------------------------------------------------
    def result(self, *, slots_per_day: int | None = None) -> ScenarioResult:
        """Assemble the timeline into a batch-compatible ScenarioResult.

        Requires a complete, truth-scored timeline (replay engines).
        """
        timeline = self.pipeline.timeline
        if not timeline:
            raise RuntimeError("empty timeline: run the engine first")
        spd = slots_per_day if slots_per_day is not None else self.pipeline.slots_per_day
        for i, det in enumerate(timeline):
            if det.slot != i:
                raise RuntimeError(f"timeline gap: expected slot {i}, got {det.slot}")
            if det.gap:
                raise RuntimeError(
                    f"slot {i} is a gap marker ({det.gap_reason}); a degraded "
                    "timeline cannot be assembled into a ScenarioResult"
                )
            if det.truth is None or det.realized_grid is None:
                raise RuntimeError(
                    "timeline is not truth-scored; ScenarioResult needs a replay engine"
                )
        detector: DetectorKind = "none"
        if self.build_spec is not None:
            detector = self.build_spec.get("detector", detector)
        return ScenarioResult(
            detector=detector,
            truth=np.stack([det.truth for det in timeline]),
            flags=np.stack([det.flags for det in timeline]),
            observations=np.array([det.observation for det in timeline], dtype=int),
            repairs=np.array([det.repaired for det in timeline], dtype=bool),
            repaired_counts=np.array(
                [det.repaired_count for det in timeline], dtype=int
            ),
            realized_grid=np.array([det.realized_grid for det in timeline]),
            slots_per_day=spd,
            tp_rate=self.tp_rate,
            fp_rate=self.fp_rate,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Full resumable state: cursors, detectors, timeline, RNG."""
        rng_state = None
        if self.rng is not None:
            rng_state = self.rng.bit_generator.state
        return {
            "events_processed": self._events_processed,
            "source": self.source.state_dict(),
            "pipeline": self.pipeline.state_dict(),
            "rng": rng_state,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` on a freshly
        built engine (same build spec)."""
        self._events_processed = int(state["events_processed"])
        self.source.load_state(state["source"])
        self.pipeline.load_state(state["pipeline"])
        if state["rng"] is not None:
            if self.rng is None:
                raise ValueError("checkpoint carries RNG state but engine has no RNG")
            self.rng.bit_generator.state = state["rng"]


# ----------------------------------------------------------------------
def replay_engine(world: ReplayWorld, *, retry: RetryPolicy | None = None) -> StreamEngine:
    """A world's replay source wired to its detector stack.

    The pipeline draws measurement noise from the world's shared RNG
    between the source's hacking-process draws, slot by slot.
    """
    config = world.config
    single_event = IncrementalSingleEvent(
        world.truth_simulator,
        predicted_simulator=world.predicted_simulator,
        threshold=config.detection.par_threshold,
        margin_noise_std=config.detection.margin_noise_std,
        prebuilt=world.day_detectors,
    )
    monitor = (
        IncrementalMonitor(world.long_term) if world.long_term is not None else None
    )
    pipeline = OnlinePipeline(
        single_event=single_event,
        monitor=monitor,
        rng=world.rng,
        slots_per_day=world.slots_per_day,
        grid_simulator=world.truth_simulator,
    )
    return StreamEngine(
        ReplaySource(world),
        pipeline,
        rng=world.rng,
        build_spec=dict(world.build_spec),
        tp_rate=world.tp_rate,
        fp_rate=world.fp_rate,
        retry=retry,
    )


def build_replay_engine(
    config: CommunityConfig,
    *,
    detector: DetectorKind = "aware",
    n_slots: int = 48,
    policy: str = "qmdp",
    calibration_trials: int = 30,
    seed: int | None = None,
    cache: GameSolutionCache | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    attack_family: str = "peak_increase",
) -> StreamEngine:
    """Scenario engine: the batch scenario's world as a checkpointable stream.

    Pumping this engine to exhaustion and calling :meth:`StreamEngine.result`
    is :func:`~repro.simulation.scenario.run_long_term_scenario` (which
    does exactly that).  Passing ``faults`` wraps the source in a seeded
    :class:`~repro.faults.injector.FaultInjector` (see
    :meth:`StreamEngine.install_faults`).
    """
    world = build_world(
        config,
        detector=detector,
        n_slots=n_slots,
        policy=policy,
        calibration_trials=calibration_trials,
        seed=seed,
        cache=cache,
        attack_family=attack_family,
    )
    engine = replay_engine(world, retry=retry)
    if faults is not None:
        engine.install_faults(faults)
    return engine


def build_synthetic_engine(
    config: CommunityConfig,
    *,
    n_days: int = 30,
    attack_days: tuple[int, int] = (10, 19),
    hacked_meters: tuple[int, ...] | None = None,
    attack_strength: float = 0.6,
    tp_rate: float = 0.75,
    fp_rate: float = 0.05,
    detector: DetectorKind = "aware",
    seed: int = 0,
    cache: GameSolutionCache | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    occurrences: tuple["ScriptedOccurrence", ...] = (),
) -> StreamEngine:
    """Lightweight scripted engine for the service layer and examples.

    The source is fully deterministic (:class:`SyntheticSource`); the
    pipeline runs *live* — per-day detectors are built on the fly from
    the community model, and the POMDP observation model uses the given
    (assumed rather than Monte-Carlo-calibrated) TP/FP rates, keeping
    start-up to a couple of game solves.
    """
    aware = is_aware(detector)
    script = synthetic_attack_script(
        config,
        attack_days=attack_days,
        hacked_meters=hacked_meters,
        attack_strength=attack_strength,
    )
    rng = np.random.default_rng(config.seed)
    day_config = config.with_updates(time=replace(config.time, n_days=1))
    community = build_community(day_config, rng=rng)
    truth_simulator, predicted_simulator = response_simulators(
        community,
        config,
        aware=aware,
        cache=cache if cache is not None else global_game_cache(),
    )
    single_event = IncrementalSingleEvent(
        truth_simulator,
        predicted_simulator=predicted_simulator,
        threshold=config.detection.par_threshold,
        margin_noise_std=config.detection.margin_noise_std,
        n_days=n_days,
    )
    monitor: IncrementalMonitor | None = None
    if detector != "none":
        monitor = IncrementalMonitor(
            long_term_detector(config, tp_rate=tp_rate, fp_rate=fp_rate)
        )
    pipeline = OnlinePipeline(
        single_event=single_event,
        monitor=monitor,
        rng=np.random.default_rng(seed),
        slots_per_day=config.time.slots_per_day,
        grid_simulator=truth_simulator,
    )
    build_spec = {
        "kind": "synthetic",
        "config": config_to_dict(config),
        "n_days": n_days,
        "attack_days": list(attack_days),
        "hacked_meters": list(script.hacked_meters),
        "attack_strength": attack_strength,
        "tp_rate": tp_rate,
        "fp_rate": fp_rate,
        "detector": detector,
        "seed": seed,
    }
    if occurrences:
        build_spec["occurrences"] = [occ.to_dict() for occ in occurrences]
    engine = StreamEngine(
        script.source(config, n_days=n_days, occurrences=occurrences),
        pipeline,
        rng=pipeline.rng,
        build_spec=build_spec,
        tp_rate=tp_rate if detector != "none" else 0.0,
        fp_rate=fp_rate if detector != "none" else 0.0,
        retry=retry,
    )
    if faults is not None:
        engine.install_faults(faults)
    return engine
