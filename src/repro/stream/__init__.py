"""Event-sourced online detection engine (the streaming front of the repo).

This package runs the monitoring loop as a long-running *stream* (the
batch scenario of :mod:`repro.simulation.scenario` is one such stream,
replayed to exhaustion): an event source emits
ordered :class:`~repro.stream.events.PriceUpdate` /
:class:`~repro.stream.events.MeterReading` /
:class:`~repro.stream.events.DayBoundary` events, an incremental
detector pipeline folds each event into per-slot detection decisions,
and the full pipeline state checkpoints to disk so a killed stream
resumes bitwise-identically.

The stack is fault-tolerant by construction: a seeded
:class:`~repro.faults.injector.FaultInjector` (see :mod:`repro.faults`)
can drop, duplicate, reorder, delay or corrupt events, and the pipeline
absorbs the damage — unusable slots become explicit gap markers in the
timeline, stalled feeds are retried under a
:class:`~repro.core.config.RetryPolicy`, and damaged checkpoint files
fail loudly with :class:`~repro.stream.checkpoint.CheckpointError`.
``docs/ROBUSTNESS.md`` documents the taxonomy and degradation
semantics.

- :mod:`repro.stream.events` -- the wire-format event model.
- :mod:`repro.stream.source` -- replay (the scenario world) and
  deterministic synthetic event sources.
- :mod:`repro.stream.detectors` -- the SVR single-event detector and the
  POMDP monitor wrapped as incremental state machines.
- :mod:`repro.stream.pipeline` -- the online pipeline, the pump engine
  and the replay/synthetic engine builders.
- :mod:`repro.stream.checkpoint` -- save / load / resume.
"""

from repro.stream.events import (
    AttackOccurrence,
    DayBoundary,
    MeterReading,
    PriceUpdate,
    StreamEvent,
    event_from_dict,
    event_to_dict,
)
from repro.stream.pipeline import (
    OnlinePipeline,
    SlotDetection,
    StreamEngine,
    build_replay_engine,
    build_synthetic_engine,
)
from repro.stream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.stream.source import ReplaySource, ScriptedOccurrence, SyntheticSource

__all__ = [
    "AttackOccurrence",
    "CheckpointError",
    "DayBoundary",
    "MeterReading",
    "OnlinePipeline",
    "PriceUpdate",
    "ReplaySource",
    "ScriptedOccurrence",
    "SlotDetection",
    "StreamEngine",
    "StreamEvent",
    "SyntheticSource",
    "build_replay_engine",
    "build_synthetic_engine",
    "event_from_dict",
    "event_to_dict",
    "load_checkpoint",
    "resume_engine",
    "save_checkpoint",
]
