"""Observability layer: tracing, structured logging, audit, exposition.

Four cooperating pieces, all off (or free) by default so the simulation
core stays deterministic and golden-master digests bitwise stable:

- :data:`~repro.obs.trace.TRACER` — hierarchical span tracer with
  deterministic ids and Chrome trace-event (Perfetto) JSON export;
- :func:`~repro.obs.logs.configure_logging` /
  :func:`~repro.obs.logs.get_logger` — structured JSON logging with
  run-id/span-id correlation, replacing ad-hoc prints;
- :class:`~repro.obs.audit.AuditTrail` — per-slot explainable detection
  records (PAR margins vs. ``δ_P``, belief before/after, fault gaps),
  JSONL-persisted and served by ``GET /trace`` / ``repro trace``;
- :func:`~repro.obs.prometheus.render_prometheus` — Prometheus
  text-format exposition of the perf registry (counters, gauges,
  p50/p95/p99 summaries) for ``GET /metrics?format=prometheus``;
- :class:`~repro.obs.scoreboard.ResilienceScoreboard` — online
  MTTD/MTTR/availability/false-alarm fold over the detection timeline
  and the attack-occurrence ledger, with exact integer-sum merging
  across a fleet (``GET /scoreboard``);
- :func:`~repro.obs.fleettrace.to_fleet_chrome_trace` — fleet-wide
  Chrome-trace merge onto a deterministic pid/tid grid (one process
  per shard, one thread lane per community).

Run manifests (:func:`~repro.obs.manifest.build_manifest`) stamp every
artifact — checkpoints, traces, ``GET /status`` — with the package
version, config hash, seeds and platform.

See ``docs/OBSERVABILITY.md`` for the span model, the audit record
schema, and scrape examples.
"""

from repro.obs.audit import AuditTrail, load_audit_jsonl
from repro.obs.fleettrace import (
    fleet_trace_layout,
    to_fleet_chrome_trace,
    write_fleet_trace,
)
from repro.obs.logs import (
    ContextFilter,
    JsonFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.manifest import build_manifest, config_digest
from repro.obs.prometheus import (
    metric_name,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.scoreboard import (
    ResilienceScoreboard,
    ScoreboardPublisher,
    attach_scoreboard,
    merge_reports,
)
from repro.obs.trace import Span, TRACER, TraceContext, Tracer

__all__ = [
    "AuditTrail",
    "ContextFilter",
    "JsonFormatter",
    "ResilienceScoreboard",
    "ScoreboardPublisher",
    "Span",
    "TRACER",
    "TraceContext",
    "Tracer",
    "attach_scoreboard",
    "build_manifest",
    "config_digest",
    "configure_logging",
    "fleet_trace_layout",
    "get_logger",
    "load_audit_jsonl",
    "merge_reports",
    "metric_name",
    "parse_prometheus_text",
    "render_prometheus",
    "to_fleet_chrome_trace",
    "write_fleet_trace",
]
