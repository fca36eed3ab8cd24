"""SVR-based single-event detection (Section 4.1 of the paper).

The detection rule, per meter and time slot:

1. predict the guideline price (net-metering aware or unaware);
2. simulate smart home scheduling under the *predicted* and the
   *received* price vectors;
3. compare the peak-to-average ratios ``P_p`` and ``P_r``;
4. report a cyberattack when ``P_r - P_p > delta_P``.

The scheduling simulation is the full community game (Algorithm 1): the
quadratic tariff spreads load smoothly, so the PAR responds to the
*shape* of the posted prices rather than to winner-take-all slot flips.
Game solutions are memoized by price vector — over a long monitoring run
the same clean or attacked price recurs every slot, so each distinct
price is solved exactly once.

Per-meter checks add zero-mean Gaussian *measurement noise* to the PAR
margin: the utility estimates each household's response from noisy load
telemetry, which is what makes individual meter observations imperfect
and (conditionally) independent — the structure the POMDP observation
model assumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig, SolverConfig
from repro.kernels import KernelBackend
from repro.metrics.par import par_increase
from repro.scheduling.batch import solve_games
from repro.scheduling.game import Community, GameResult
from repro.simulation.cache import (
    GameSolutionCache,
    solution_key,
    solve_context_key,
)

if TYPE_CHECKING:
    from repro.tariffs import Tariff


def draw_margin_noise(rng: np.random.Generator | None, std: float) -> float:
    """One check's measurement noise: ``N(0, std)``, or 0 without an rng
    or without noise (which then draws nothing)."""
    if rng is not None and std > 0:
        return float(rng.normal(0.0, std))
    return 0.0


class CommunityResponseSimulator:
    """Memoized community-game responses to posted guideline prices.

    Parameters
    ----------
    community:
        The community model used for detection-side simulation.  The
        net-metering-*unaware* detector passes the stripped community
        (``community.without_net_metering()``) — the prior art's model.
    config:
        Game convergence controls.
    sellback_divisor:
        The paper's ``W``.
    seed:
        Seed for the game's (deterministic per-customer) stochastic
        components; two simulators with the same seed and community give
        identical responses.
    cache:
        Game-solution store.  Defaults to a private
        :class:`~repro.simulation.cache.GameSolutionCache`; pass a shared
        instance (e.g. :func:`~repro.simulation.cache.global_game_cache`)
        to reuse solutions across simulators and scenario runs — keys are
        content-addressed over the full solve context, so sharing is
        always safe.
    solver:
        Execution strategy: the kernel backend.  Every backend gives
        the same bits.  Every solve, a cache miss's one game or a
        :meth:`prefetch` batch, runs through
        :func:`repro.scheduling.batch.solve_games`.
    tariff:
        Optional pricing rule from :mod:`repro.tariffs`.  ``None`` (the
        default) is the paper's flat net-metering tariff through the
        historical code path; a non-``None`` tariff reprices every game
        and is fingerprinted into the cache context key.
    """

    def __init__(
        self,
        community: Community,
        *,
        config: GameConfig | None = None,
        sellback_divisor: float = 2.0,
        seed: int = 0,
        cache: GameSolutionCache | None = None,
        solver: SolverConfig | None = None,
        tariff: "Tariff | None" = None,
    ) -> None:
        self.community = community
        self.config = config if config is not None else GameConfig()
        self.sellback_divisor = sellback_divisor
        self.seed = seed
        self.cache = cache if cache is not None else GameSolutionCache()
        self.solver = solver if solver is not None else SolverConfig()
        self.tariff = tariff
        self._context_key = solve_context_key(
            community,
            self.config,
            sellback_divisor=sellback_divisor,
            seed=seed,
            tariff=tariff,
        )

    @property
    def horizon(self) -> int:
        return self.community.horizon

    @property
    def cache_size(self) -> int:
        """Solutions held by this simulator's cache; a shared cache counts
        every simulator's entries."""
        return self.cache.size

    @property
    def backend(self) -> KernelBackend | str | None:
        """Kernel backend name forwarded to every solve."""
        return self.solver.backend

    def response(self, prices: ArrayLike) -> GameResult:
        """Game solution for a posted price vector (memoized)."""
        p = self._validated(prices)
        return self._lookup(solution_key(self._context_key, p), p)

    def responses(self, price_vectors: Iterable[ArrayLike]) -> list[GameResult]:
        """Game solutions for many price vectors, one per vector, in order.

        Equivalent to :meth:`prefetch` of the vectors followed by one
        :meth:`response` per vector, with the same cache traffic: the
        vectors without a cached solution are solved as one lockstep
        batch, and every vector then books one lookup.  Byte-identical
        vectors share one key hash.
        """
        keyed = self._keyed(price_vectors)
        # Only the unsolved vectors go to prefetch, so on a warm cache it
        # hashes nothing; their re-check there finds them still unsolved.
        self.prefetch(self._unsolved(keyed).values())
        return [self._lookup(key, p) for key, p in keyed]

    def prefetch(self, price_vectors: Iterable[ArrayLike]) -> int:
        """Solve every not-yet-cached price vector in one lockstep batch.

        Returns the number of games solved.  The pending solves run
        through :func:`repro.scheduling.batch.solve_games`, which is
        bitwise-identical to solving them one at a time — prefetching is
        purely a wall-clock optimization, and the cache's hit/miss totals
        match one lookup per vector (each batched solve books one miss,
        the later lookup one hit).
        """
        pending = self._unsolved(self._keyed(price_vectors))
        if pending:
            for key, result in zip(pending, self._solve(list(pending.values()))):
                self.cache.put(key, result)
        return len(pending)

    def _validated(self, prices: ArrayLike) -> NDArray[np.float64]:
        p = np.asarray(prices, dtype=float)
        if p.shape != (self.horizon,):
            raise ValueError(f"prices must have shape ({self.horizon},), got {p.shape}")
        return p

    def _keyed(
        self, price_vectors: Iterable[ArrayLike]
    ) -> list[tuple[str, NDArray[np.float64]]]:
        """Each validated vector with its solution key; byte-identical
        vectors share one hash."""
        keys: dict[bytes, str] = {}
        keyed = []
        for prices in price_vectors:
            p = self._validated(prices)
            raw = p.tobytes()
            key = keys.get(raw)
            if key is None:
                key = keys[raw] = solution_key(self._context_key, p)
            keyed.append((key, p))
        return keyed

    def _unsolved(
        self, keyed: Iterable[tuple[str, NDArray[np.float64]]]
    ) -> OrderedDict[str, NDArray[np.float64]]:
        """The keyed vectors with no cached solution, by first occurrence.

        Peeks every other vector in input order, which refreshes its LRU
        position without booking a lookup.
        """
        pending: OrderedDict[str, NDArray[np.float64]] = OrderedDict()
        for key, p in keyed:
            if key not in pending and self.cache.peek(key) is None:
                pending[key] = p
        return pending

    def _lookup(self, key: str, p: NDArray[np.float64]) -> GameResult:
        return self.cache.get_or_solve(key, lambda: self._solve([p])[0])

    def _solve(self, price_vectors: list[NDArray[np.float64]]) -> list[GameResult]:
        """One lockstep batch over the vectors, negative prices floored at 0."""
        return solve_games(
            self.community,
            [np.maximum(p, 0.0) for p in price_vectors],
            sellback_divisor=self.sellback_divisor,
            config=self.config,
            seed=self.seed,
            backend=self.solver.backend,
            tariff=self.tariff,
        )

    def grid_par(self, prices: ArrayLike) -> float:
        """PAR of the grid demand the community would draw under ``prices``."""
        return self.response(prices).grid_par


@dataclass(frozen=True)
class SingleEventDetection:
    """Outcome of one PAR-comparison check."""

    received_par: float
    predicted_par: float
    threshold: float
    noise: float = 0.0

    @property
    def margin(self) -> float:
        """``P_r - P_p`` plus the check's measurement noise."""
        return par_increase(self.received_par, self.predicted_par) + self.noise

    @property
    def flagged(self) -> bool:
        """True when the check reports a cyberattack."""
        return self.margin > self.threshold


class SingleEventDetector:
    """PAR-threshold detector bound to one predicted-price vector.

    The check compares two quantities with different provenance:

    - ``P_r`` — the PAR the *real* community (always net-metering
      equipped) would produce under the received price.  The utility can
      forecast this from measured behaviour, so it is simulated with the
      ground-truth community model.
    - ``P_p`` — the PAR the *detector's own model* expects under its
      predicted price.  The net-metering-unaware baseline both predicts
      the price without renewable features and simulates on a community
      model without PV or batteries (the paper's ref. [8]); the resulting
      systematic offset between ``P_p`` and the benign ``P_r`` is exactly
      how ignoring net metering compromises detection (Section 4).

    Parameters
    ----------
    received_simulator:
        Ground-truth community response simulator (net metering included).
    predicted_prices:
        The predictor's guideline-price forecast for the day.
    predicted_simulator:
        The detector's own community model; defaults to
        ``received_simulator`` (the aware detector).  ``P_p`` is computed
        once at construction.
    threshold:
        The paper's ``delta_P``.
    margin_noise_std:
        Standard deviation of the per-check measurement noise.
    """

    def __init__(
        self,
        received_simulator: CommunityResponseSimulator,
        predicted_prices: ArrayLike,
        *,
        predicted_simulator: CommunityResponseSimulator | None = None,
        threshold: float = 0.08,
        margin_noise_std: float = 0.03,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if margin_noise_std < 0:
            raise ValueError(f"margin_noise_std must be >= 0, got {margin_noise_std}")
        self.simulator = received_simulator
        predicted_sim = (
            predicted_simulator if predicted_simulator is not None else received_simulator
        )
        if predicted_sim.horizon != received_simulator.horizon:
            raise ValueError(
                "received and predicted simulators disagree on horizon: "
                f"{received_simulator.horizon} vs {predicted_sim.horizon}"
            )
        self.predicted_prices = np.asarray(predicted_prices, dtype=float)
        if self.predicted_prices.shape != (received_simulator.horizon,):
            raise ValueError(
                f"predicted_prices must have shape ({received_simulator.horizon},), "
                f"got {self.predicted_prices.shape}"
            )
        self.threshold = threshold
        self.margin_noise_std = margin_noise_std
        self.predicted_par = predicted_sim.grid_par(self.predicted_prices)

    def draw_noise(self, rng: np.random.Generator | None) -> float:
        """Draw one check's measurement noise (0 without an rng).

        Exposed so callers can split a check into its two halves — draw
        the noise now, evaluate the (cache-heavy) PAR comparison later —
        without perturbing the shared rng's draw sequence.  ``check`` is
        exactly ``evaluate(received, noise=draw_noise(rng))``.
        """
        return draw_margin_noise(rng, self.margin_noise_std)

    def evaluate(
        self,
        received_prices: ArrayLike,
        *,
        noise: float = 0.0,
    ) -> SingleEventDetection:
        """Run the PAR comparison with an externally drawn noise term."""
        received = np.asarray(received_prices, dtype=float)
        if received.shape != self.predicted_prices.shape:
            raise ValueError(
                f"received prices shape {received.shape} != predicted "
                f"{self.predicted_prices.shape}"
            )
        return self._detection(self.simulator.response(received), noise)

    def _detection(self, received: GameResult, noise: float) -> SingleEventDetection:
        return SingleEventDetection(
            received_par=received.grid_par,
            predicted_par=self.predicted_par,
            threshold=self.threshold,
            noise=noise,
        )

    def check(
        self,
        received_prices: ArrayLike,
        *,
        rng: np.random.Generator | None = None,
    ) -> SingleEventDetection:
        """Run the PAR comparison for one received-price vector."""
        received = np.asarray(received_prices, dtype=float)
        if received.shape != self.predicted_prices.shape:
            raise ValueError(
                f"received prices shape {received.shape} != predicted "
                f"{self.predicted_prices.shape}"
            )
        return self.evaluate(received, noise=self.draw_noise(rng))

    def check_meters(
        self,
        received_per_meter: NDArray[np.float64],
        *,
        rng: np.random.Generator | None = None,
    ) -> list[SingleEventDetection]:
        """Full per-meter check outcomes (the audit trail's evidence).

        ``received_per_meter`` has shape ``(n_meters, horizon)``: row ``i``
        is the guideline-price vector meter ``i`` received.  Identical
        rows reuse one cached game solution and its memoized PAR; the
        measurement noise is drawn independently per meter, in ascending
        meter order — the exact draw sequence of :meth:`observe_meters`,
        so collecting the evidence never changes a verdict.  The outcome
        equals ``[check(row, rng=rng) for row in received_per_meter]``.
        """
        received = np.asarray(received_per_meter, dtype=float)
        if received.ndim != 2 or received.shape[1] != self.predicted_prices.size:
            raise ValueError(
                f"received_per_meter must have shape (n_meters, "
                f"{self.predicted_prices.size}), got {received.shape}"
            )
        # The distinct unsolved rows are solved as one lockstep batch
        # before any noise is drawn; the batch is bitwise-identical to
        # solving inside the loop and consumes nothing from ``rng``.
        return [
            self._detection(result, self.draw_noise(rng))
            for result in self.simulator.responses(received)
        ]

    def observe_meters(
        self,
        received_per_meter: NDArray[np.float64],
        *,
        rng: np.random.Generator | None = None,
    ) -> NDArray[np.bool_]:
        """Flag each monitored meter; returns a boolean mask.

        Delegates to :meth:`check_meters` and keeps only the flags.
        """
        checks = self.check_meters(received_per_meter, rng=rng)
        flags = np.zeros(len(checks), dtype=bool)
        for i, detection in enumerate(checks):
            flags[i] = detection.flagged
        return flags
