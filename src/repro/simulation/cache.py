"""Content-addressed cache of scheduling-game solutions.

The detection pipeline solves the same game over and over: a 48-hour
scenario replays each day's clean and attacked price vectors every slot,
calibration Monte-Carlo re-checks the same prices, and the benchmark
harness runs three detector variants over identical communities.  The
game solver is deterministic given ``(community, prices, config,
sellback divisor, solver seed)``, so solutions can be shared across
simulators and scenario runs within a process.

Keys are SHA-256 digests over the full solve input; two simulators with
different communities or configs can therefore share one cache with no
risk of collision.  The store is a bounded in-memory LRU.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.typing import NDArray

from repro.core.config import GameConfig
from repro.perf.counters import PERF
from repro.scheduling.game import Community, GameResult

if TYPE_CHECKING:
    from repro.tariffs.base import Tariff

PRICE_DECIMALS = 9
"""Prices are rounded to this many decimals before hashing, matching the
historical memoization key of ``CommunityResponseSimulator``."""


def community_fingerprint(community: Community) -> str:
    """Stable content digest of a community's full static description."""
    hasher = hashlib.sha256()
    hasher.update(repr(community.counts).encode())
    for customer in community.customers:
        battery = customer.battery
        hasher.update(
            repr(
                (
                    customer.customer_id,
                    battery.capacity_kwh,
                    battery.initial_kwh,
                    battery.max_charge_kw,
                    battery.max_discharge_kw,
                    customer.pv,
                    customer.base_load,
                )
            ).encode()
        )
        for task in customer.tasks:
            hasher.update(
                repr(
                    (
                        task.name,
                        task.power_levels,
                        task.energy_kwh,
                        task.earliest_start,
                        task.deadline,
                    )
                ).encode()
            )
    return hasher.hexdigest()


def game_config_fingerprint(config: GameConfig) -> str:
    """Digest of every convergence control that shapes a solve."""
    payload = repr(
        (
            config.max_rounds,
            config.inner_iterations,
            config.convergence_tol,
            config.hysteresis,
            config.ce_samples,
            config.ce_elites,
            config.ce_iterations,
            config.ce_smoothing,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def solve_context_key(
    community: Community,
    config: GameConfig,
    *,
    sellback_divisor: float,
    seed: int,
    tariff: "Tariff | None" = None,
) -> str:
    """Digest of everything except the price vector.

    Simulators compute this once and extend it per price with
    :func:`solution_key`, so the per-solve hashing cost is one SHA-256
    over ~200 bytes.

    ``tariff=None`` (the legacy flat net-metering billing) hashes the
    exact historical payload, so every pre-tariff cache key is
    unchanged; a non-default tariff appends its content fingerprint,
    giving each billing structure its own key space.
    """
    parts = [
        community_fingerprint(community),
        game_config_fingerprint(config),
        repr(float(sellback_divisor)),
        repr(int(seed)),
    ]
    if tariff is not None:
        from repro.tariffs.base import tariff_fingerprint

        parts.append(tariff_fingerprint(tariff))
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode()).hexdigest()


def solution_key(context_key: str, prices: NDArray[np.float64]) -> str:
    """Full cache key for one (solve context, price vector) pair."""
    hasher = hashlib.sha256(context_key.encode())
    hasher.update(np.round(np.asarray(prices, dtype=float), PRICE_DECIMALS).tobytes())
    return hasher.hexdigest()


class GameSolutionCache:
    """Bounded LRU of game solutions.

    Parameters
    ----------
    max_entries:
        LRU bound; the least recently used solution is evicted past it.
        Solutions are small (per-archetype strategy arrays), so the
        default comfortably covers a multi-day scenario.
    """

    def __init__(self, *, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, GameResult] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of solutions currently held."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_solve(self, key: str, solve: Callable[[], GameResult]) -> GameResult:
        """Return the cached solution for ``key``, solving on a miss.

        The caller is responsible for ``key`` covering everything
        ``solve`` depends on (use :func:`solution_key`).
        """
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            PERF.add("cache.hits")
            return cached
        self.misses += 1
        PERF.add("cache.misses")
        result = solve()
        self._store(key, result)
        return result

    def peek(self, key: str) -> GameResult | None:
        """Return the solution for ``key`` if available, without counting.

        Unlike :meth:`get_or_solve` this neither solves nor touches the
        hit/miss counters; prefetchers use it to decide which keys still
        need solving.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, result: GameResult) -> None:
        """Insert an externally computed solution for ``key``.

        Counts as a miss — the solution *was* computed rather than served
        — so a prefetch-then-lookup sequence reports the same hit/miss
        totals as the lookup-solves-on-miss sequence it replaces.
        """
        self.misses += 1
        PERF.add("cache.misses")
        self._store(key, result)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def _store(self, key: str, result: GameResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


_GLOBAL_CACHE: GameSolutionCache | None = None


def global_game_cache() -> GameSolutionCache:
    """The process-wide shared cache used by the scenario engine.

    Created lazily so importing this module costs nothing; parallel
    workers each get their own instance (caches are process-local).
    """
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = GameSolutionCache()
    return _GLOBAL_CACHE
