"""Performance layer: counters and deterministic parallel execution.

Two small, dependency-free building blocks the simulation stack shares:

- :data:`~repro.perf.counters.PERF` — process-global counters/timers the
  hot paths increment (CE evaluations, DP cells, game rounds, cache
  hits/misses);
- :class:`~repro.perf.parallel.ParallelMap` — serial / process-pool map
  with a determinism contract (self-seeding tasks, order-preserving).
"""

from repro.perf.counters import PERF, BoundedHistogram, PerfRegistry
from repro.perf.parallel import SERIAL_MAP, ParallelMap, spawn_seeds

__all__ = [
    "BoundedHistogram",
    "PERF",
    "ParallelMap",
    "PerfRegistry",
    "SERIAL_MAP",
    "spawn_seeds",
]
