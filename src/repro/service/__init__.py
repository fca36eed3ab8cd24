"""Monitoring service: an HTTP front-end over the streaming pipeline.

Stdlib-only (``http.server``) so the reproduction stays dependency-free:
:class:`~repro.service.app.DetectionService` owns a
:class:`~repro.stream.pipeline.StreamEngine` behind a lock, and
:func:`~repro.service.app.create_server` exposes it as a small JSON API
(``POST /events``, ``POST /advance``, ``GET /status``,
``GET /detections``, ``GET /metrics``) with checkpoint-on-SIGTERM.

One handler, two route tables: :mod:`repro.service.http` is the one
HTTP front door — handler, shared routes, error taxonomy and serve
loop — for this service and for the fleet aggregator
(:mod:`repro.fleet.aggregator`), each of which is a facade plus its own
route table.
"""

from repro.service.app import (
    DetectionService,
    ServiceError,
    create_server,
    run_service,
)

__all__ = [
    "DetectionService",
    "ServiceError",
    "create_server",
    "run_service",
]
