"""Span wrappers for the traced run and the per-layer ledger built from them.

The traced run records one span around each public call into a layer.
The wrappers live here, in the benchmark, and are installed on the
classes and on every module that imported a wrapped function by name;
nothing under ``src/`` is edited.  Spans go to a private
``repro.obs.trace.Tracer`` held in memory; the program's global
``TRACER`` and its own spans stay off.

A span's self time is its duration minus its child spans.  Every span
carries the id of the benchmark op it ran in, so the ledger can divide
each layer's self time by the number of timed ops of each kind.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
from collections import defaultdict
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.trace import Tracer

# (module, class or None, attribute, span name).  Functions are patched in
# their defining module and in every ``repro`` module that imported them.
WRAPPED: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.prediction.price", "AwarePricePredictor", "fit", "prediction.fit"),
    ("repro.scheduling.game", "SchedulingGame", "solve", "scheduling.solve1"),
    ("repro.scheduling.batch", None, "solve_games", "scheduling.batch"),
    ("repro.scheduling.game", "GameResult", "grid_demand", "scheduling.grid_demand"),
    ("repro.optimization.battery", "BatteryOptimizer", "optimize", "optimization.ce"),
    ("repro.netmetering.cost", "NetMeteringCostModel", "community_cost", "netmetering.cost"),
    ("repro.netmetering.cost", "NetMeteringCostModel", "customer_cost", "netmetering.cost"),
    ("repro.netmetering.cost", "NetMeteringCostModel", "customer_cost_per_slot", "netmetering.cost"),
    ("repro.netmetering.cost", "NetMeteringCostModel", "marginal_cost_table", "netmetering.cost"),
    ("repro.simulation.calibration", None, "measure_single_event_rates", "simulation.calibration"),
    ("repro.detection.single_event", "CommunityResponseSimulator", "prefetch", "simulation.prefetch"),
    ("repro.detection.single_event", "SingleEventDetector", "check_meters", "detection.check"),
    ("repro.detection.long_term", "LongTermDetector", "step", "detection.pomdp"),
    ("repro.stream.pipeline", "OnlinePipeline", "handle", "stream.handle"),
    ("repro.stream.source", "SyntheticSource", "next_event", "stream.source"),
    ("repro.stream.checkpoint", None, "checkpoint_payload", "stream.ckpt_state"),
    ("repro.obs.scoreboard", "ResilienceScoreboard", "record", "obs.scoreboard"),
    ("repro.obs.audit", "AuditTrail", "record_detection", "obs.audit"),
    ("repro.fleet.engine", "FleetEngine", "tick", "fleet.tick"),
    ("repro.fleet.worker", "ShardWorker", "tick", "fleet.shard_tick"),
    ("repro.fleet.engine", "FleetEngine", "ingest_envelope", "fleet.envelope"),
    ("repro.fleet.engine", "FleetEngine", "detections", "fleet.detections"),
    ("repro.fleet.checkpoint", None, "save_fleet_checkpoint", "fleet.ckpt_write"),
    ("repro.fleet.checkpoint", None, "resume_fleet", "fleet.resume"),
)

# HTTP facade methods: each call is one op of the served workload.
FACADES: tuple[tuple[str, str, str, str], ...] = (
    ("repro.fleet.aggregator", "FleetAggregator", "ingest_envelope", "envelope"),
    ("repro.fleet.aggregator", "FleetAggregator", "detections", "poll"),
    ("repro.service.app", "DetectionService", "push_event", "event"),
)

KERNELS = (
    ("clamp_decisions", "kernels.clamp"),
    ("battery_costs", "kernels.cost"),
    ("dp_backward", "kernels.dp"),
    ("dp_backward_batch", "kernels.dp"),
)


# One ledger row: self time, calls, summed sizes (``n``) and total time.
FIELDS = ("self_us", "calls", "n", "total_us")


def _array_bytes(*values: Any) -> int:
    total = 0
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += _array_bytes(*value)
    return total


def _dir_bytes(directory: Any) -> int:
    with os.scandir(directory) as entries:
        return sum(entry.stat().st_size for entry in entries if entry.is_file())


# Optional per-call size recorded as the span's ``n`` attribute.
_SIZES: dict[str, Callable[[tuple[Any, ...], dict[str, Any], Any], int]] = {
    "scheduling.batch": lambda args, kwargs, result: len(result),
    "stream.ckpt_state": lambda args, kwargs, result: len(args[0].timeline),
    "fleet.ckpt_write": lambda args, kwargs, result: _dir_bytes(args[1]),
    "kernels.clamp": lambda args, kwargs, result: _array_bytes(*args, result),
    "kernels.cost": lambda args, kwargs, result: _array_bytes(*args, *kwargs.values(), result),
    "kernels.dp": lambda args, kwargs, result: _array_bytes(*args, result),
}


class Ledger:
    """Installs the wrappers and turns the recorded spans into a ledger."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.tracer.enable(run_id="perfbench")
        self.op_kinds: dict[int, str] = {}
        self._local = threading.local()
        self._op_lock = threading.Lock()
        self._next_op = 1

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def op(self, kind: str, span_name: str) -> Iterator[None]:
        """One benchmark op: the next op id, current on this thread, under a
        root span whose self time is the op's unattributed time."""
        with self._op_lock:
            op = self._next_op
            self._next_op += 1
        self.op_kinds[op] = kind
        self._local.op = op
        try:
            with self.tracer.span(span_name, category="bench", op=op):
                yield
        finally:
            self._local.op = None

    # ------------------------------------------------------------------
    def _wrapper(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self.tracer
        local = self._local
        size = _SIZES.get(name)
        category = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, category=category, op=getattr(local, "op", None)) as span:
                result = fn(*args, **kwargs)
                if size is not None:
                    span.attrs["n"] = size(args, kwargs, result)
                return result

        return wrapper

    def _facade(self, fn: Callable[..., Any], kind: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.op(kind, "service.facade"):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point (imports the modules it needs)."""
        from repro.kernels import get_backend

        for module_name, cls_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if cls_name is None:
                original = getattr(module, attr)
                wrapped = self._wrapper(original, name)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, attr, None) is original
                    ):
                        setattr(loaded, attr, wrapped)
                continue
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrapper(raw.fget, name)))
            else:
                setattr(owner, attr, self._wrapper(raw, name))
        backend_cls = type(get_backend(None))
        for attr, name in KERNELS:
            setattr(backend_cls, attr, self._wrapper(backend_cls.__dict__[attr], name))
        for module_name, cls_name, attr, kind in FACADES:
            owner = getattr(importlib.import_module(module_name), cls_name)
            setattr(owner, attr, self._facade(owner.__dict__[attr], kind))

    # ------------------------------------------------------------------
    def summary(self, skip_ops: int = 0) -> dict[str, Any]:
        """One row of ``FIELDS`` per (layer, op kind) over timed ops.

        Ops with ids up to ``skip_ops`` (warm-up) and spans outside any
        op are left out, except ``fleet.resume``, which runs once after
        the timed phase.
        """
        spans = [s for s in self.tracer.spans() if s.end_us is not None]
        child_us: dict[int, int] = defaultdict(int)
        shard_us: dict[int, list[int]] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                child_us[span.parent_id] += span.duration_us
                if span.name == "fleet.shard_tick":
                    shard_us[span.parent_id].append(span.duration_us)
        layers: dict[str, dict[str, dict[str, float]]] = defaultdict(dict)
        op_class: dict[int, str] = {}
        for span in spans:
            op = span.attrs.get("op")
            if op is not None and span.name in ("scheduling.solve1", "scheduling.batch"):
                op_class[op] = "solve"
        skews: list[float] = []
        for span in spans:
            op = span.attrs.get("op")
            if span.name == "fleet.resume":
                kind = "resume"
            elif op is None or op <= skip_ops or op not in self.op_kinds:
                continue
            else:
                kind = self.op_kinds[op]
                if kind == "tick":
                    kind = "tick." + op_class.get(op, "warm")
            row = layers[span.name].setdefault(kind, dict.fromkeys(FIELDS, 0.0))
            row["self_us"] += span.duration_us - child_us[span.span_id]
            row["calls"] += 1
            row["n"] += span.attrs.get("n", 0)
            row["total_us"] += span.duration_us
            shards = shard_us.get(span.span_id)
            if span.name == "fleet.tick" and kind.startswith("tick.") and shards and sum(shards):
                skews.append(max(shards) * len(shards) / sum(shards))
        counts: dict[str, int] = defaultdict(int)
        for op, kind in self.op_kinds.items():
            if op > skip_ops:
                if kind == "tick":
                    kind = "tick." + op_class.get(op, "warm")
                counts[kind] += 1
        return {
            "layers": {name: dict(rows) for name, rows in layers.items()},
            "ops": dict(counts),
            "shard_skew": {"sum": sum(skews), "ticks": len(skews)},
        }

    def write_chrome_trace(self, path: str) -> None:
        self.tracer.write(path)


class Totals:
    """The ledger summaries of several traced chunks, merged and queried by
    layer, op kind and field.  The kind ``tick`` covers both tick classes,
    ``tick.warm`` and ``tick.solve``; any other kind stands for itself."""

    def __init__(self, summaries: list[dict[str, Any]]) -> None:
        self.layers: dict[str, dict[str, dict[str, float]]] = defaultdict(dict)
        self.ops: dict[str, int] = defaultdict(int)
        skew_sum, skew_ticks = 0.0, 0
        for summary in summaries:
            for layer, rows in summary["layers"].items():
                for kind, row in rows.items():
                    acc = self.layers[layer].setdefault(kind, dict.fromkeys(FIELDS, 0.0))
                    for field in FIELDS:
                        acc[field] += row[field]
            for kind, n in summary["ops"].items():
                self.ops[kind] += n
            skew_sum += summary["shard_skew"]["sum"]
            skew_ticks += summary["shard_skew"]["ticks"]
        self.shard_skew = skew_sum / skew_ticks if skew_ticks else 0.0

    @staticmethod
    def _kinds(kind: str) -> tuple[str, ...]:
        return ("tick.warm", "tick.solve") if kind == "tick" else (kind,)

    def n_ops(self, kind: str) -> int:
        return sum(self.ops.get(k, 0) for k in self._kinds(kind))

    def total(self, layer: str, kind: str, field: str = "self_us") -> float:
        rows = self.layers.get(layer, {})
        return sum(rows[k][field] for k in self._kinds(kind) if k in rows)

    def per_op(self, layer: str, kind: str, field: str = "self_us") -> float:
        n = self.n_ops(kind)
        return self.total(layer, kind, field) / n if n else 0.0

    def per_call(self, layer: str, kind: str, field: str = "total_us") -> float:
        calls = self.total(layer, kind, "calls")
        return self.total(layer, kind, field) / calls if calls else 0.0
