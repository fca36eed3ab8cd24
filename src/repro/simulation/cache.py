"""Content-addressed cache of scheduling-game solutions.

The detection pipeline solves the same game over and over: a 48-hour
scenario replays each day's clean and attacked price vectors every slot,
calibration Monte-Carlo re-checks the same prices, and the benchmark
harness runs three detector variants over identical communities.  The
game solver is deterministic given ``(community, prices, config,
sellback divisor, solver seed)``, so solutions can be shared across
simulators, scenario runs and — with the on-disk layer — across
processes and sessions.

Keys are SHA-256 digests over the full solve input; two simulators with
different communities or configs can therefore share one cache with no
risk of collision.  The in-memory tier is a bounded LRU; the optional
on-disk tier persists each solution as an ``.npz`` of the strategy
arrays (plus a JSON manifest) and reconstructs the full
:class:`~repro.scheduling.game.GameResult` against the live community.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.typing import NDArray

from repro.core.config import GameConfig
from repro.perf.counters import PERF
from repro.scheduling.appliance import ApplianceSchedule
from repro.scheduling.customer import CustomerState
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
    exact historical payload, so every pre-tariff cache entry — in
    memory or on disk — remains addressable; a non-default tariff
    appends its content fingerprint, giving each billing structure its
    own key space.
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


def warm_context_key(
    context_key: str,
    *,
    ce_std_scale: float,
    max_distance: float,
) -> str:
    """Context digest for warm-started solving.

    Warm-started solutions depend on the cache state they were seeded
    from, so they are *not* interchangeable with cold solutions of the
    same context.  Namespacing the context key keeps the two populations
    separate: a warm-starting simulator never reads (or pollutes) the
    cold entries that golden-master runs rely on.  Both warm-start knobs
    enter the digest because either changes which equilibrium a solve
    lands on.
    """
    payload = "|".join(
        (
            context_key,
            "warm",
            repr(float(ce_std_scale)),
            repr(float(max_distance)),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class NearHit:
    """A cached solution for the nearest previously solved price vector."""

    key: str
    result: GameResult
    distance: float


def _result_to_arrays(result: GameResult) -> dict[str, np.ndarray]:
    """Flatten a GameResult into the arrays an ``.npz`` can hold."""
    arrays: dict[str, np.ndarray] = {
        "counts": np.asarray(result.counts, dtype=np.int64),
        "rounds": np.asarray(result.rounds, dtype=np.int64),
        "converged": np.asarray(result.converged, dtype=bool),
        "residuals": np.asarray(result.residuals, dtype=float),
    }
    for i, state in enumerate(result.states):
        arrays[f"a{i}_battery"] = np.asarray(state.battery_decision, dtype=float)
        for j, schedule in enumerate(state.schedules):
            arrays[f"a{i}_t{j}_power"] = np.asarray(schedule.power, dtype=float)
    return arrays


def _result_from_arrays(
    arrays: dict[str, np.ndarray], community: Community
) -> GameResult:
    """Rebuild a GameResult from persisted arrays and the live community."""
    states = []
    for i, customer in enumerate(community.customers):
        schedules = tuple(
            ApplianceSchedule(task=task, power=tuple(arrays[f"a{i}_t{j}_power"]))
            for j, task in enumerate(customer.tasks)
        )
        states.append(
            CustomerState(
                customer=customer,
                schedules=schedules,
                battery_decision=tuple(arrays[f"a{i}_battery"]),
            )
        )
    return GameResult(
        states=tuple(states),
        counts=tuple(int(c) for c in arrays["counts"]),
        rounds=int(arrays["rounds"]),
        converged=bool(arrays["converged"]),
        residuals=tuple(float(r) for r in arrays["residuals"]),
    )


class GameSolutionCache:
    """Bounded LRU of game solutions with optional on-disk persistence.

    Parameters
    ----------
    max_entries:
        In-memory LRU bound; the least recently used solution is evicted
        past it.  Solutions are small (per-archetype strategy arrays),
        so the default comfortably covers a multi-day scenario.
    directory:
        Optional persistence directory.  Solutions are written as
        ``<key>.npz`` plus a ``manifest.json`` index; a later process
        (or a cold in-memory tier) reloads them instead of re-solving.
    """

    def __init__(
        self,
        *,
        max_entries: int = 512,
        directory: str | Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, GameResult] = OrderedDict()
        # Per-context index of solved price vectors, for near-hit lookup
        # (equilibrium warm-starting): context key -> key -> prices.
        self._price_index: dict[str, OrderedDict[str, NDArray[np.float64]]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of solutions currently held in memory."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_solve(
        self,
        key: str,
        solve: Callable[[], GameResult],
        *,
        community: Community | None = None,
    ) -> GameResult:
        """Return the cached solution for ``key``, solving on a miss.

        ``community`` enables the on-disk tier: persisted strategy arrays
        are reconstructed against it, and fresh solutions are written
        back.  The caller is responsible for ``key`` covering everything
        ``solve`` depends on (use :func:`solution_key`).
        """
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            PERF.add("cache.hits")
            return cached
        if self.directory is not None and community is not None:
            loaded = self._load(key, community)
            if loaded is not None:
                self.hits += 1
                PERF.add("cache.hits")
                self._store(key, loaded)
                return loaded
        self.misses += 1
        PERF.add("cache.misses")
        result = solve()
        self._store(key, result)
        if self.directory is not None:
            self._persist(key, result)
        return result

    def peek(
        self, key: str, *, community: Community | None = None
    ) -> GameResult | None:
        """Return the solution for ``key`` if available, without counting.

        Unlike :meth:`get_or_solve` this neither solves nor touches the
        hit/miss counters; prefetchers use it to decide which keys still
        need solving.  With ``community`` the on-disk tier is consulted
        (and a found solution promoted into memory).
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self.directory is not None and community is not None:
            loaded = self._load(key, community)
            if loaded is not None:
                self._store(key, loaded)
                return loaded
        return None

    def put(
        self,
        key: str,
        result: GameResult,
        *,
        community: Community | None = None,
    ) -> None:
        """Insert an externally computed solution for ``key``.

        Counts as a miss — the solution *was* computed rather than served
        — so a prefetch-then-lookup sequence reports the same hit/miss
        totals as the lookup-solves-on-miss sequence it replaces.
        """
        self.misses += 1
        PERF.add("cache.misses")
        self._store(key, result)
        if self.directory is not None and community is not None:
            self._persist(key, result)

    # ------------------------------------------------------------------
    # Near-hit lookup (equilibrium warm-starting)
    # ------------------------------------------------------------------
    def register_prices(
        self,
        context_key: str,
        prices: NDArray[np.float64],
        key: str,
    ) -> None:
        """Record that ``key`` solves ``prices`` within ``context_key``.

        Builds the per-context price index that :meth:`nearest` scans.
        Prices are rounded exactly as :func:`solution_key` rounds them,
        so one registration per distinct key suffices.  Entries outlive
        LRU eviction until :meth:`nearest` prunes them, so register only
        in a context that :meth:`nearest` is queried in.
        """
        index = self._price_index.setdefault(context_key, OrderedDict())
        if key not in index:
            index[key] = np.round(
                np.asarray(prices, dtype=float), PRICE_DECIMALS
            )

    def nearest(
        self,
        context_key: str,
        prices: NDArray[np.float64],
        *,
        max_distance: float = np.inf,
    ) -> NearHit | None:
        """Closest previously solved price vector in the same context.

        Distance is the max-abs (Chebyshev) gap between rounded price
        vectors — the same geometry as the game's convergence residual.
        Returns ``None`` when nothing registered lies within
        ``max_distance`` or the best candidate was evicted.  The scan is
        deterministic given the cache state: insertion order, strict
        improvement, first-registered wins ties.
        """
        index = self._price_index.get(context_key)
        if not index:
            return None
        target = np.round(np.asarray(prices, dtype=float), PRICE_DECIMALS)
        best_key: str | None = None
        best_distance = np.inf
        stale: list[str] = []
        for key, candidate in index.items():
            if key not in self._entries:
                stale.append(key)
                continue
            distance = float(np.max(np.abs(candidate - target)))
            if distance < best_distance:
                best_key = key
                best_distance = distance
        for key in stale:
            del index[key]
        if best_key is None or best_distance > max_distance:
            return None
        return NearHit(
            key=best_key,
            result=self._entries[best_key],
            distance=best_distance,
        )

    def clear(self) -> None:
        """Drop every in-memory entry and reset the hit/miss counters."""
        self._entries.clear()
        self._price_index.clear()
        self.hits = 0
        self.misses = 0

    def _store(self, key: str, result: GameResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # On-disk tier
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.npz"

    def _persist(self, key: str, result: GameResult) -> None:
        path = self._path(key)
        if path.exists():
            return
        np.savez(path, **_result_to_arrays(result))
        manifest_path = self.directory / "manifest.json"  # type: ignore[operator]
        manifest: dict[str, dict[str, object]] = {}
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
        manifest[key] = {
            "archetypes": len(result.states),
            "rounds": result.rounds,
            "converged": result.converged,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def _load(self, key: str, community: Community) -> GameResult | None:
        path = self._path(key)
        if not path.exists():
            return None
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        return _result_from_arrays(arrays, community)


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
