"""HTTP monitoring service over a streaming detection engine.

The service is the paper's Figure 2 loop with a wire protocol around it:
meter readings and price updates arrive as JSON events, the online
pipeline folds them into flags, beliefs and repair dispatches, and
operators poll the detection timeline and performance counters over
HTTP.  Everything is Python stdlib — ``http.server`` threads over one
lock-guarded engine.

Endpoints
---------
- ``POST /events`` — push one event (``event_to_dict`` JSON) straight
  into the pipeline; returns the slot verdict for meter readings.
- ``POST /advance`` — pump events from the engine's own source
  (``{"max_events": N}`` and/or ``{"until_day": D}``).
- ``POST /checkpoint`` — persist full engine state now.
- ``GET /status`` — run progress, belief, repair totals.
- ``GET /detections?since=S&limit=L`` — the slot-by-slot timeline.
- ``GET /metrics`` — perf-counter *deltas since the previous scrape*
  plus process-lifetime totals; ``?format=prometheus`` returns the
  text exposition format (lifetime totals, gauges and histogram
  summaries) for scrape-based collectors instead.
- ``GET /trace`` — the detection audit trail: one explainable record
  per slot verdict (per-meter PAR evidence, belief before/after) and
  per gap, filterable by ``since``/``day``/``kind``/``limit``.
- ``GET /scoreboard`` — resilience metrics (MTTD/MTTR/availability/
  false-alarm rate/per-family confusion) folded from the timeline and
  the attack-occurrence ledger.
- ``GET /faults`` / ``POST /faults`` — inspect or install a seeded
  fault-injection plan on the engine's source (chaos drills against a
  live service).
- ``GET /healthz`` — liveness.

One handler, two route tables: this module is the facade and its route
table; the handler, the shared routes, the JSON error taxonomy (no
client input gets a 5xx) and the serve loop are :mod:`repro.service.http`.

On SIGTERM/SIGINT the service checkpoints the engine (atomic rename, see
:mod:`repro.stream.checkpoint`) before shutting down, so a killed
service resumes bitwise-identically with ``--resume``.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.core.config import RetryPolicy
from repro.faults.plan import FaultPlan, FaultPlanError, builtin_plan
from repro.obs.audit import AuditTrail
from repro.obs.logs import configure_logging, get_logger
from repro.obs.manifest import build_manifest
from repro.obs.prometheus import render_prometheus
from repro.obs.scoreboard import ScoreboardPublisher, attach_scoreboard
from repro.perf.counters import PERF
from repro.service.http import (
    COMMON_ROUTES,
    Query,
    Route,
    ServiceError,
    check_fields,
    int_field,
    int_param,
    make_server,
    serve,
    str_param,
)
from repro.stream.checkpoint import save_checkpoint
from repro.stream.events import MeterReading, event_from_dict
from repro.stream.pipeline import StreamEngine


class DetectionService:
    """Thread-safe facade over one streaming engine.

    All mutation happens under one lock: the HTTP layer is threaded, and
    the pipeline (belief filter, RNG, timeline) is not re-entrant.

    Parameters
    ----------
    engine:
        The engine to serve.
    checkpoint_path:
        Where :meth:`checkpoint` (and the SIGTERM handler) persists
        state; ``None`` disables checkpointing.
    retry:
        Stall policy applied to every :meth:`advance`; ``None`` uses the
        engine's own policy (if any).
    audit:
        Attach an in-memory :class:`~repro.obs.audit.AuditTrail` to the
        pipeline when it has none (default), so ``GET /trace`` always
        has a record for every served detection.  ``False`` leaves the
        pipeline as built.
    scoreboard:
        Attach a :class:`~repro.obs.scoreboard.ResilienceScoreboard`
        (default), backfilled from any pre-served history, so ``GET
        /scoreboard`` reports MTTD/MTTR/availability.  ``False`` leaves
        the pipeline as built.
    """

    def __init__(
        self,
        engine: StreamEngine,
        *,
        checkpoint_path: str | Path | None = None,
        retry: RetryPolicy | None = None,
        audit: bool = True,
        scoreboard: bool = True,
    ) -> None:
        self.engine = engine
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.retry = retry
        self._lock = threading.Lock()
        self._metrics_baseline = PERF.snapshot()
        self._scoreboard_publisher = ScoreboardPublisher(
            PERF, prefix="stream.scoreboard"
        )
        if audit and engine.pipeline.audit is None:
            engine.pipeline.audit = AuditTrail()
        if engine.pipeline.audit is not None:
            # Detections served before the trail existed (a resumed
            # checkpoint, a pre-attached timeline) still get records.
            engine.pipeline.audit.backfill(engine.timeline)
        if scoreboard:
            # Idempotent: rebuilds (= backfills) from the timeline.
            attach_scoreboard(engine.pipeline)

    # ------------------------------------------------------------------
    def push_event(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Feed one wire-format event straight into the pipeline."""
        try:
            event = event_from_dict(payload)
        except (KeyError, ValueError, TypeError) as exc:
            raise ServiceError(f"bad event: {exc}") from exc
        with self._lock:
            try:
                detection = self.engine.pipeline.handle(event)
            except (ValueError, RuntimeError) as exc:
                raise ServiceError(str(exc)) from exc
        accepted: dict[str, Any] = {"accepted": True, "event": payload.get("type")}
        if isinstance(event, MeterReading):
            accepted["detection"] = None if detection is None else detection.to_dict()
        return accepted

    def advance(
        self, *, max_events: int | None = None, until_day: int | None = None
    ) -> dict[str, Any]:
        """Pump events from the engine's own source."""
        if max_events is not None and max_events < 0:
            raise ServiceError(f"max_events must be >= 0, got {max_events}")
        if until_day is not None and until_day < 0:
            raise ServiceError(f"until_day must be >= 0, got {until_day}")
        with self._lock:
            before = self.engine.events_processed
            produced = self.engine.run(
                max_events=max_events, until_day=until_day, retry=self.retry
            )
            return {
                "events_pumped": self.engine.events_processed - before,
                "detections": len(produced),
                "gaps": sum(1 for det in produced if det.gap),
                "exhausted": self.engine.exhausted,
            }

    def status(self) -> dict[str, Any]:
        with self._lock:
            stats = self.engine.pipeline.detection_stats()
            stats["events_processed"] = self.engine.events_processed
            stats["exhausted"] = self.engine.exhausted
            stats["checkpoint_path"] = (
                None if self.checkpoint_path is None else str(self.checkpoint_path)
            )
            stats["manifest"] = self._manifest()
            return stats

    def _manifest(self) -> dict[str, Any]:
        """Run manifest for the engine under service (caller holds the lock)."""
        spec = self.engine.build_spec or {}
        return build_manifest(
            spec.get("config"),
            seeds=None if "seed" not in spec else {"stream": spec["seed"]},
            command=spec.get("kind"),
        )

    def detections(
        self, *, since: int = 0, limit: int | None = None
    ) -> dict[str, Any]:
        """Timeline slice: verdicts with ``slot >= since``."""
        if since < 0:
            raise ServiceError(f"since must be >= 0, got {since}")
        if limit is not None and limit < 1:
            raise ServiceError(f"limit must be >= 1, got {limit}")
        with self._lock:
            # Snapshot under the lock: the engine appends to the live
            # list, so iterating an alias outside would race /advance.
            timeline = list(self.engine.timeline)
        selected = [det.to_dict() for det in timeline if det.slot >= since]
        truncated = limit is not None and len(selected) > limit
        if truncated:
            selected = selected[:limit]
        return {
            "detections": selected,
            "total_slots": len(timeline),
            "truncated": truncated,
        }

    def metrics(self) -> dict[str, Any]:
        """Perf counters: interval deltas plus lifetime totals.

        Each scrape re-baselines, so successive calls report what
        happened *between* them — rates, not accumulations.
        """
        with self._lock:
            delta = PERF.delta_since(self._metrics_baseline)
            totals = PERF.snapshot()
            self._metrics_baseline = totals
            return {
                "interval": delta,
                "totals": totals,
                "faults": PERF.prefixed("stream.faults."),
                "events_processed": self.engine.events_processed,
            }

    def metrics_prometheus(self) -> str:
        """Prometheus text-format exposition of the perf registry.

        Unlike :meth:`metrics` this does *not* re-baseline: the format
        exports lifetime totals and collectors compute rates themselves,
        so JSON delta scrapes and Prometheus scrapes can interleave.
        Each scrape republishes the scoreboard (when attached):
        availability/false-alarm/episode gauges plus
        ``stream.scoreboard.mttd_slots``/``mttr_slots`` histogram
        samples for episodes new since the previous scrape.
        """
        with self._lock:
            board = self.engine.pipeline.scoreboard
            if board is not None:
                report = board.report()
                self._scoreboard_publisher.publish(report, {"stream": report})
            return render_prometheus(PERF)

    def scoreboard(self) -> dict[str, Any]:
        """The resilience scoreboard report for this engine."""
        with self._lock:
            board = self.engine.pipeline.scoreboard
            if board is None:
                raise ServiceError(
                    "scoreboard disabled on this service", code="scoreboard_disabled"
                )
            return board.report()

    def trace(
        self,
        *,
        since: int = 0,
        day: int | None = None,
        kind: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """Audit-trail slice: explainable records with ``slot >= since``."""
        if since < 0:
            raise ServiceError(f"since must be >= 0, got {since}")
        if limit is not None and limit < 1:
            raise ServiceError(f"limit must be >= 1, got {limit}")
        if kind is not None and kind not in ("detection", "gap"):
            raise ServiceError(
                f"kind must be 'detection' or 'gap', got {kind!r}"
            )
        with self._lock:
            trail = self.engine.pipeline.audit
            if trail is None:
                raise ServiceError(
                    "audit trail disabled on this service", code="audit_disabled"
                )
            records = trail.records(since=since, day=day, kind=kind)
            total = trail.total_records
        truncated = limit is not None and len(records) > limit
        if truncated:
            records = records[:limit]
        return {"records": records, "total_records": total, "truncated": truncated}

    def faults(self) -> dict[str, Any]:
        """The engine's active fault plan and per-kind injection counts."""
        with self._lock:
            injector = self.engine.fault_injector
            if injector is None:
                return {"active": False, "plan": None, "counts": {}}
            return {
                "active": True,
                "plan": injector.plan.to_dict(),
                "counts": dict(injector.counts),
            }

    def install_faults(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Install a fault plan (builtin name or plan object) on the source."""
        check_fields(payload, "plan", "seed")
        if "plan" not in payload:
            raise ServiceError("missing required field 'plan'")
        seed = int_field(payload, "seed")
        spec = payload["plan"]
        try:
            if isinstance(spec, str):
                plan = builtin_plan(spec, seed=seed)
            elif isinstance(spec, dict):
                plan = FaultPlan.from_dict(
                    spec if seed is None else {**spec, "seed": seed}
                )
            else:
                raise FaultPlanError(
                    "field 'plan' must be a builtin plan name or a plan object"
                )
        except FaultPlanError as exc:
            raise ServiceError(str(exc)) from exc
        with self._lock:
            injector = self.engine.install_faults(plan)
        return {"active": True, "plan": injector.plan.to_dict()}

    def checkpoint(self) -> dict[str, Any]:
        if self.checkpoint_path is None:
            raise ServiceError("service started without a checkpoint path")
        with self._lock:
            path = save_checkpoint(self.engine, self.checkpoint_path)
            events_processed = self.engine.events_processed
        return {"checkpoint": str(path), "events_processed": events_processed}


def _advance(service: DetectionService, query: Query, body: dict[str, Any]) -> Any:
    check_fields(body, "max_events", "until_day")
    return service.advance(
        max_events=int_field(body, "max_events"),
        until_day=int_field(body, "until_day"),
    )


_ROUTES: dict[tuple[str, str], Route] = {
    **COMMON_ROUTES,
    ("GET", "/detections"): lambda service, query, body: service.detections(
        since=int_param(query, "since") or 0, limit=int_param(query, "limit")
    ),
    ("GET", "/trace"): lambda service, query, body: service.trace(
        since=int_param(query, "since") or 0,
        day=int_param(query, "day"),
        kind=str_param(query, "kind"),
        limit=int_param(query, "limit"),
    ),
    ("GET", "/faults"): lambda service, query, body: service.faults(),
    ("POST", "/events"): lambda service, query, body: service.push_event(body),
    ("POST", "/advance"): _advance,
    ("POST", "/faults"): lambda service, query, body: service.install_faults(body),
}


def create_server(
    service: DetectionService, *, host: str = "127.0.0.1", port: int = 8008
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server to the service (port 0 = ephemeral)."""
    return make_server(service, _ROUTES, host=host, port=port)


def run_service(
    service: DetectionService,
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    install_signals: bool = True,
) -> None:
    """Serve forever; checkpoint and exit cleanly on SIGTERM/SIGINT."""
    server = create_server(service, host=host, port=port)
    configure_logging()
    logger = get_logger("service")
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    logger.info("serving detection API on http://%s:%s", bound_host, bound_port)
    saved = service.checkpoint_path
    serve(
        server,
        checkpoint=None if saved is None else service.checkpoint,
        install_signals=install_signals,
    )
    if saved is not None:
        logger.info("checkpoint saved to %s", saved)
