"""Fleet-wide HTTP front door: status, detections, metrics, ingestion.

The :class:`FleetAggregator` is the multi-tenant twin of
:class:`repro.service.app.DetectionService`: one lock-guarded fleet
engine behind the same HTTP front door.  One handler, two route tables:
this module is the facade and its route table; the handler, the shared
routes, the JSON error taxonomy and the checkpoint-on-SIGTERM serve loop
are :mod:`repro.service.http`.

Endpoints
---------
- ``GET /status`` — fleet totals, per-shard/per-community stats, ring
  assignments.
- ``GET /shards`` — the consistent-hash ring layout.
- ``GET /detections?community=ID&since=S&limit=L`` — merged fleet
  timeline (tagged with community + shard) or one community's slice.
- ``GET /metrics`` — perf-counter deltas since the previous scrape;
  ``?format=prometheus`` publishes per-shard gauges plus the fleet
  scoreboard series and returns the text exposition (fleet histograms
  included) instead.
- ``GET /scoreboard`` — resilience metrics (MTTD/MTTR/availability/
  false alarms/per-family confusion) per community, per shard (exact
  merge) and fleet-wide.
- ``GET /trace`` — the merged fleet Chrome trace (deterministic
  pid/tid per shard/community); 400 ``trace_disabled`` unless the
  tracer is on.
- ``GET /healthz`` — liveness.
- ``POST /advance`` — lockstep ticks (``{"ticks": N}`` and/or
  ``{"until_day": D}``).
- ``POST /envelope`` — batched multi-community event ingestion.
- ``POST /checkpoint`` — persist per-shard checkpoints now.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.fleet.checkpoint import save_fleet_checkpoint
from repro.fleet.engine import FleetEngine
from repro.obs.fleettrace import to_fleet_chrome_trace
from repro.obs.logs import configure_logging, get_logger
from repro.obs.prometheus import render_prometheus
from repro.obs.scoreboard import ScoreboardPublisher
from repro.obs.trace import TRACER
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


class FleetAggregator:
    """Thread-safe facade over one fleet engine.

    Parameters
    ----------
    fleet:
        The fleet to serve.
    checkpoint_dir:
        Directory :meth:`checkpoint` (and the SIGTERM handler) writes
        per-shard checkpoints into; ``None`` disables checkpointing.
    """

    def __init__(
        self,
        fleet: FleetEngine,
        *,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        self.fleet = fleet
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self._lock = threading.Lock()
        self._metrics_baseline = PERF.snapshot()
        self._scoreboard_publisher = ScoreboardPublisher(
            PERF, prefix="fleet.scoreboard"
        )

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        with self._lock:
            status = self.fleet.status()
            status["checkpoint_dir"] = (
                None if self.checkpoint_dir is None else str(self.checkpoint_dir)
            )
            return status

    def shards(self) -> dict[str, Any]:
        with self._lock:
            return {
                "vnodes": self.fleet.ring.vnodes,
                "shards": list(self.fleet.shard_ids),
                "assignments": self.fleet.ring.assignments(
                    self.fleet.community_ids
                ),
            }

    def detections(
        self,
        *,
        community: str | None = None,
        since: int = 0,
        limit: int | None = None,
    ) -> dict[str, Any]:
        with self._lock:
            try:
                return self.fleet.detections(
                    community=community, since=since, limit=limit
                )
            except ValueError as exc:
                raise ServiceError(str(exc)) from exc

    def advance(
        self, *, ticks: int | None = None, until_day: int | None = None
    ) -> dict[str, Any]:
        if ticks is not None and ticks < 0:
            raise ServiceError(f"ticks must be >= 0, got {ticks}")
        if until_day is not None and until_day < 0:
            raise ServiceError(f"until_day must be >= 0, got {until_day}")
        with self._lock:
            stats = self.fleet.advance(max_ticks=ticks, until_day=until_day)
            return stats.to_dict()

    def ingest_envelope(self, payload: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            try:
                return self.fleet.ingest_envelope(payload)
            except (ValueError, RuntimeError) as exc:
                raise ServiceError(str(exc)) from exc

    def metrics(self) -> dict[str, Any]:
        """JSON deltas since the previous scrape plus lifetime totals."""
        with self._lock:
            delta = PERF.delta_since(self._metrics_baseline)
            totals = PERF.snapshot()
            self._metrics_baseline = totals
            return {
                "interval": delta,
                "totals": totals,
                "fleet": PERF.prefixed("fleet."),
                "events_processed": self.fleet.events_processed,
            }

    def metrics_prometheus(self) -> str:
        """Prometheus exposition with fresh per-shard gauges.

        Lifetime totals only (no JSON-delta re-baseline), so Prometheus
        scrapes and JSON scrapes can interleave, exactly like the
        single-community service.  Each scrape also republishes the
        fleet scoreboard: availability/false-alarm/episode gauges plus
        ``fleet.scoreboard.mttd_slots``/``mttr_slots`` histogram
        samples (only the episodes new since the previous scrape).
        """
        with self._lock:
            self.fleet.publish_shard_gauges()
            scoreboard = self.fleet.scoreboard()
            self._scoreboard_publisher.publish(
                scoreboard["fleet"], scoreboard["communities"]
            )
            return render_prometheus(PERF)

    def scoreboard(self) -> dict[str, Any]:
        """Resilience metrics: per community, per shard, fleet-wide."""
        with self._lock:
            return self.fleet.scoreboard()

    def trace_chrome(self) -> dict[str, Any]:
        """The merged fleet Chrome trace (Perfetto-loadable JSON)."""
        with self._lock:
            if not TRACER.enabled and not TRACER.spans():
                raise ServiceError(
                    "tracing is disabled (start with --trace)",
                    code="trace_disabled",
                )
            return to_fleet_chrome_trace(TRACER, self.fleet.trace_layout())

    def checkpoint(self) -> dict[str, Any]:
        if self.checkpoint_dir is None:
            raise ServiceError("aggregator started without a checkpoint directory")
        with self._lock:
            manifest = save_fleet_checkpoint(self.fleet, self.checkpoint_dir)
            shards = list(self.fleet.shard_ids)
            events_processed = self.fleet.events_processed
        return {
            "checkpoint": str(manifest),
            "shards": shards,
            "events_processed": events_processed,
        }


def _advance(aggregator: FleetAggregator, query: Query, body: dict[str, Any]) -> Any:
    check_fields(body, "ticks", "until_day")
    return aggregator.advance(
        ticks=int_field(body, "ticks"), until_day=int_field(body, "until_day")
    )


_ROUTES: dict[tuple[str, str], Route] = {
    **COMMON_ROUTES,
    ("GET", "/shards"): lambda aggregator, query, body: aggregator.shards(),
    ("GET", "/detections"): lambda aggregator, query, body: aggregator.detections(
        community=str_param(query, "community"),
        since=int_param(query, "since") or 0,
        limit=int_param(query, "limit"),
    ),
    ("GET", "/trace"): lambda aggregator, query, body: aggregator.trace_chrome(),
    ("POST", "/advance"): _advance,
    ("POST", "/envelope"): lambda aggregator, query, body: (
        aggregator.ingest_envelope(body)
    ),
}


def create_fleet_server(
    aggregator: FleetAggregator, *, host: str = "127.0.0.1", port: int = 8010
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server to the aggregator (port 0 = ephemeral)."""
    return make_server(aggregator, _ROUTES, host=host, port=port)


def run_fleet_service(
    aggregator: FleetAggregator,
    *,
    host: str = "127.0.0.1",
    port: int = 8010,
    install_signals: bool = True,
) -> None:
    """Serve forever; checkpoint and exit cleanly on SIGTERM/SIGINT."""
    server = create_fleet_server(aggregator, host=host, port=port)
    configure_logging()
    logger = get_logger("fleet.service")
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    logger.info(
        "serving fleet aggregator on http://%s:%s (%d communities, %d shards)",
        bound_host,
        bound_port,
        aggregator.fleet.n_communities,
        len(aggregator.fleet.shard_ids),
    )
    saved = aggregator.checkpoint_dir
    serve(
        server,
        checkpoint=None if saved is None else aggregator.checkpoint,
        install_signals=install_signals,
    )
    if saved is not None:
        logger.info("fleet checkpoint saved to %s", saved)
