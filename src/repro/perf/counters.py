"""Lightweight global performance counters and timers.

The hot paths of the reproduction (CE sampling, DP cell relaxation, game
rounds, game-solution caching) increment a process-global registry so
that any entry point — the CLI's ``--perf``, the services' ``/metrics``
or the ``perfbench/`` ledger — can report how much work a run actually
did.  Counter updates are a dict lookup plus an add; the overhead is
negligible next to the work being counted.

The registry is process-local by design: parallel workers accumulate
their own counters, and the parent's registry only reflects work done in
the parent process.  This keeps the counters race-free without locks.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator


class BoundedHistogram:
    """Reservoir of the most recent ``max_samples`` observations.

    Keeps exact ``count``/``total``/``min``/``max`` over the full lifetime
    and a bounded sample window for quantile estimates — enough for
    p50/p95/p99 scrapes without unbounded memory on long service runs.
    Quantiles use the nearest-rank method over the sorted window; an
    empty histogram reports ``nan``.
    """

    def __init__(self, max_samples: int = 1024) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._cursor = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            # Ring buffer: overwrite the oldest sample.
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.max_samples

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained window (nan if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return math.nan
        ordered = sorted(self._samples)
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        """Count/sum/min/max plus the standard p50/p95/p99 quantiles."""
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class PerfRegistry:
    """Named monotonic counters, wall-clock timers, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._timers: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, BoundedHistogram] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def get(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins)."""
        self._gauges[name] = float(value)

    def gauges(self) -> dict[str, float]:
        """Every gauge's current value (copy)."""
        return dict(self._gauges)

    def observe(self, name: str, value: float, *, max_samples: int = 1024) -> None:
        """Fold one sample into the named bounded histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = BoundedHistogram(max_samples)
        hist.observe(value)

    def histogram(self, name: str) -> BoundedHistogram | None:
        """The named histogram, or ``None`` if never observed."""
        return self._histograms.get(name)

    def histograms(self) -> dict[str, dict[str, float]]:
        """Per-histogram summaries (count/sum/min/max/p50/p95/p99)."""
        return {name: hist.summary() for name, hist in self._histograms.items()}

    @contextmanager
    def timer(self, name: str, *, hist: bool = False) -> Iterator[None]:
        """Accumulate wall-clock seconds spent inside the block.

        With ``hist=True`` each block's duration is also folded into the
        histogram of the same name, so scrapes can report latency
        quantiles alongside the accumulated total.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._timers[name] = self._timers.get(name, 0.0) + elapsed
            if hist:
                self.observe(name, elapsed)

    def snapshot(self) -> dict[str, float]:
        """Counters and timers as one flat dict (timers suffixed ``_s``)."""
        out = dict(self._counters)
        for name, seconds in self._timers.items():
            out[f"{name}_s"] = seconds
        return out

    def delta_since(
        self, baseline: dict[str, float], *, include_zero: bool = False
    ) -> dict[str, float]:
        """Per-counter change since a :meth:`snapshot` baseline.

        The monitoring service pairs this with :meth:`snapshot` to report
        per-interval rates (events pumped, cache hits, seconds in the hot
        paths *since the last scrape*) instead of process-lifetime
        totals.  Counters absent from the baseline count from zero.

        By default zero-change entries are dropped so the report only
        shows what moved.  Scrapers that must distinguish "idle counter"
        from "counter absent" (the Prometheus exposition path) pass
        ``include_zero=True`` to keep every known counter in the result.
        """
        current = self.snapshot()
        delta = {
            name: value - baseline.get(name, 0.0) for name, value in current.items()
        }
        if include_zero:
            return delta
        # Exact zero: drop counters that did not move at all between snapshots.
        return {k: v for k, v in delta.items() if v != 0.0}  # repro: noqa[FLT001]

    def prefixed(self, prefix: str) -> dict[str, float]:
        """Counters and timers whose name starts with ``prefix``, sorted.

        The monitoring service uses this to report e.g. every
        ``stream.faults.*`` counter without enumerating fault kinds.
        """
        return {
            name: value
            for name, value in sorted(self.snapshot().items())
            if name.startswith(prefix)
        }

    def reset(self) -> None:
        """Zero every counter, timer, gauge and histogram."""
        self._counters.clear()
        self._timers.clear()
        self._gauges.clear()
        self._histograms.clear()

    def report(self) -> str:
        """Human-readable multi-line report, sorted by name."""
        snap = self.snapshot()
        if not snap:
            return "perf: no activity recorded"
        width = max(len(k) for k in snap)
        lines = ["perf counters:"]
        for name in sorted(snap):
            value = snap[name]
            rendered = f"{value:.4f}" if name.endswith("_s") else f"{value:,.0f}"
            lines.append(f"  {name:<{width}}  {rendered}")
        hits, misses = snap.get("cache.hits", 0.0), snap.get("cache.misses", 0.0)
        if hits + misses > 0:
            lines.append(
                f"  {'cache.hit_rate':<{width}}  {hits / (hits + misses):.3f}"
            )
        return "\n".join(lines)


PERF = PerfRegistry()
"""The process-global registry used by the instrumented hot paths."""
