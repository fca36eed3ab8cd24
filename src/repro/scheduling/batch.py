"""Lockstep batched solver for independent scheduling games.

The detection pipeline repeatedly solves the *same community* under
*different guideline-price vectors* with the *same solver seed*: the
calibration Monte-Carlo checks ~30 attacked prices against one day, the
scenario loop simulates every meter's received price, and sweeps scan
whole price grids.  Algorithm 1 is Gauss-Seidel within one game — each
customer best-responds against totals already updated this round — so
customers cannot be batched inside a round without changing results.
Independent *games*, however, march through identical control flow:
per-customer CE seeds are fixed functions of customer identity, and the
round-order generator draws the same permutations for every game sharing
a seed.  This module therefore advances ``G`` games in lockstep, fusing
every array operation across a leading game axis while keeping all
accept/reject decisions per game.

Bitwise contract: ``solve_games(community, [p1, ..., pG], ...)[g]`` is
identical — every schedule, battery trajectory, round count and residual
— to ``SchedulingGame(community, pg, ...).solve(rng=default_rng(seed))``.
The batched reductions used (row-wise ``sum``/``mean``/``std``/
``argsort`` and elementwise broadcasting) are exact per-row matches of
their one-game counterparts; ``tests/test_batched_game.py`` enforces the
contract end to end.

Population layout: CE populations are ``(games, K, H)`` (population x
games x slots collapsed onto kernels as ``(games * K, H)``); DP tables
are ``(games, H, levels)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.kernels import KernelBackend, get_backend
from repro.netmetering.cost import cost_terms, marginal_cost_terms
from repro.obs.trace import TRACER
from repro.optimization.cross_entropy import STD_FLOOR
from repro.perf.counters import PERF
from repro.scheduling.appliance import ApplianceSchedule, ApplianceTask
from repro.scheduling.customer import Customer, CustomerState
from repro.scheduling.dp import schedule_appliance_tables
from repro.scheduling.game import Community, GameResult
from repro.tariffs import Tariff, cost_model_for

FloatArray = NDArray[np.float64]


class _LockstepState:
    """Strategy arrays for one archetype across all games in the batch."""

    def __init__(self, customer: Customer, n_games: int) -> None:
        self.customer = customer
        horizon = customer.horizon
        self.power = np.zeros((n_games, len(customer.tasks), horizon))
        self.battery = np.zeros((n_games, horizon))

    def loads(self, rows: NDArray[np.int_]) -> FloatArray:
        """Per-game household load, mirroring ``CustomerState.load``."""
        total = np.broadcast_to(
            self.customer.base_load_array, (rows.size, self.customer.horizon)
        ).copy()
        for t in range(len(self.customer.tasks)):
            total += self.power[rows, t, :]
        return total

    def tradings(self, rows: NDArray[np.int_]) -> FloatArray:
        """Per-game trading amounts, mirroring ``CustomerState.trading``."""
        load = self.loads(rows)
        b0 = np.full(
            (rows.size, 1), self.customer.battery.initial_kwh
        )
        full = np.concatenate([b0, self.battery[rows]], axis=1)
        return np.asarray(
            load + np.diff(full, axis=1) - self.customer.pv_array
        )

    def state_for(self, game: int) -> CustomerState:
        """Materialize one game's strategy as a ``CustomerState``."""
        schedules = tuple(
            ApplianceSchedule(task=task, power=tuple(self.power[game, t]))
            for t, task in enumerate(self.customer.tasks)
        )
        return CustomerState(
            customer=self.customer,
            schedules=schedules,
            battery_decision=tuple(self.battery[game]),
        )


class LockstepGameSolver:
    """Solve ``G`` independent games over one community in lockstep.

    See the module docstring for the batching argument; construction
    mirrors :class:`~repro.scheduling.game.SchedulingGame` per game.
    """

    def __init__(
        self,
        community: Community,
        price_vectors: Sequence[ArrayLike],
        *,
        sellback_divisor: float = 2.0,
        config: GameConfig | None = None,
        backend: KernelBackend | str | None = None,
        tariff: Tariff | None = None,
    ) -> None:
        if not price_vectors:
            raise ValueError("need at least one price vector")
        self.community = community
        self.config = config if config is not None else GameConfig()
        self.backend = get_backend(backend)
        self.slot_hours = 1.0
        horizon = community.horizon
        prices = np.stack(
            [np.asarray(p, dtype=float) for p in price_vectors]
        )
        if prices.shape != (len(price_vectors), horizon):
            raise ValueError(
                f"price vectors must each have shape ({horizon},), "
                f"got stacked shape {prices.shape}"
            )
        # Per-game cost models run the same validation as the one-game
        # solver (finite, non-negative prices); their rates, stacked one
        # row per game, price every costing site below.  One tariff
        # prices the whole batch, so the export cap is shared.
        rates = [
            cost_model_for(tariff, p, sellback_divisor=sellback_divisor).rates
            for p in prices
        ]
        self.buy_rates = np.stack([buy for buy, _, _ in rates])
        self.sell_rates = np.stack([sell for _, sell, _ in rates])
        self.export_cap_kwh = rates[0][2]
        self.n_games = prices.shape[0]
        self._jitter_tables: dict[tuple[int, int], FloatArray] = {}
        self._level_arrays: dict[tuple[int, int], FloatArray] = {}
        self._slot_index = np.arange(horizon)

    # ------------------------------------------------------------------
    # Cached static tables (identical to SchedulingGame._task_tables)
    # ------------------------------------------------------------------
    def _task_tables(
        self, customer: Customer, index: int
    ) -> tuple[FloatArray, FloatArray]:
        key = (customer.customer_id, index)
        jitter = self._jitter_tables.get(key)
        if jitter is None:
            task = customer.tasks[index]
            levels = np.asarray(task.power_levels)
            jitter_rng = np.random.default_rng(
                (customer.customer_id * 1_000_003 + index) % (2**32)
            )
            jitter = jitter_rng.uniform(
                0.0, 1e-6, size=(self.community.horizon, levels.size)
            )
            self._jitter_tables[key] = jitter
            self._level_arrays[key] = levels
        return jitter, self._level_arrays[key]

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _initial_states(self) -> list[_LockstepState]:
        """Every game's greedy ``SchedulingGame.initial_state``."""
        states = []
        for customer in self.community.customers:
            state = _LockstepState(customer, self.n_games)
            for t, task in enumerate(customer.tasks):
                levels = np.asarray(task.power_levels)
                tables = (
                    self.buy_rates[:, :, None]
                    * levels[None, None, :]
                    * self.slot_hours
                )
                schedules, _ = schedule_appliance_tables(
                    task,
                    tables,
                    slot_hours=self.slot_hours,
                    backend=self.backend,
                )
                for g, schedule in enumerate(schedules):
                    state.power[g, t, :] = schedule.load
            state.battery[:] = customer.battery.initial_kwh
            states.append(state)
        return states

    # ------------------------------------------------------------------
    # Batched CE battery step
    # ------------------------------------------------------------------
    def _ce_battery(
        self,
        customer: Customer,
        load: FloatArray,
        others: FloatArray,
        buy_rates: FloatArray,
        sell_rates: FloatArray,
        x0: FloatArray,
        multiplicity: int,
    ) -> tuple[FloatArray, FloatArray]:
        """Batched CE over battery trajectories; one game per row.

        Mirrors :meth:`CrossEntropyOptimizer.minimize` exactly per row;
        each game draws from its own freshly seeded generator (the same
        per-customer deterministic seed the one-game path uses), so the
        draw streams are identical to ``G`` sequential optimizations.
        Returns ``(best_x, best_f)``.
        """
        spec = customer.battery
        cfg = self.config
        n_games, horizon = x0.shape
        backend = self.backend
        lower = np.zeros(horizon)
        upper = np.full(horizon, spec.capacity_kwh)
        span = upper - lower
        pv = customer.pv_array
        max_charge = spec.max_charge_kw * self.slot_hours
        max_discharge = spec.max_discharge_kw * self.slot_hours

        def project(decisions: FloatArray) -> FloatArray:
            flat = decisions.reshape(-1, horizon)
            out = backend.clamp_decisions(
                flat,
                initial=spec.initial_kwh,
                capacity=spec.capacity_kwh,
                max_charge=max_charge,
                max_discharge=max_discharge,
            )
            return np.asarray(out.reshape(decisions.shape))

        def score(decisions: FloatArray, rows: NDArray[np.int_]) -> FloatArray:
            grouped = decisions.ndim == 3
            expand = (lambda v: v[:, None, :]) if grouped else (lambda v: v)
            return backend.battery_costs(
                decisions,
                initial=spec.initial_kwh,
                load=expand(load[rows]),
                pv=pv,
                others=expand(others[rows]),
                buy_rates=expand(buy_rates[rows]),
                sell_rates=expand(sell_rates[rows]),
                export_cap_kwh=self.export_cap_kwh,
                multiplicity=multiplicity,
            )

        mean = np.clip(x0, lower, upper)
        std = np.tile(np.maximum(span / 4.0, STD_FLOOR), (n_games, 1))
        all_rows = np.arange(n_games)
        start = project(mean.copy())
        start_scores = score(start, all_rows)
        best_x = start.copy()
        best_f = np.where(np.isfinite(start_scores), start_scores, np.inf)

        rngs = [
            # Lockstep contract: every game replays the standalone
            # per-customer CE stream bit-for-bit.
            np.random.default_rng(customer.customer_id + 7919)  # repro: noqa[SEED003]
            for _ in range(n_games)
        ]
        n_iterations = np.zeros(n_games, dtype=int)
        alive = all_rows
        span_id = TRACER.begin(
            "ce.minimize",
            category="optimization",
            parent_id=TRACER.current_span_id,
            dimension=horizon,
            n_samples=cfg.ce_samples,
            games=n_games,
        )
        for _ in range(cfg.ce_iterations):
            if not alive.size:
                break
            samples = np.empty((alive.size, cfg.ce_samples, horizon))
            for i, g in enumerate(alive):
                samples[i] = rngs[g].normal(
                    mean[g], std[g], size=(cfg.ce_samples, horizon)
                )
            np.clip(samples, lower, upper, out=samples)
            samples = project(samples)
            scores = score(samples, alive)
            PERF.add("ce.evaluations", cfg.ce_samples * alive.size)
            scores = np.where(np.isfinite(scores), scores, np.inf)

            elite_idx = np.argsort(scores, axis=1)[:, : cfg.ce_elites]
            elites = np.take_along_axis(samples, elite_idx[:, :, None], axis=1)
            first = elite_idx[:, 0]
            first_scores = scores[np.arange(alive.size), first]
            for i, g in enumerate(alive):
                if first_scores[i] < best_f[g]:
                    best_f[g] = float(first_scores[i])
                    best_x[g] = samples[i, first[i]].copy()
            n_iterations[alive] += 1

            new_mean = elites.mean(axis=1)
            new_std = elites.std(axis=1)
            mean[alive] = cfg.ce_smoothing * new_mean + (1 - cfg.ce_smoothing) * mean[alive]
            std[alive] = cfg.ce_smoothing * new_std + (1 - cfg.ce_smoothing) * std[alive]
            done = np.all(std[alive] < STD_FLOOR, axis=1)
            alive = alive[~done]
        TRACER.end(span_id)
        for n in n_iterations:
            PERF.observe("ce.iterations", int(n))
        if not np.all(np.isfinite(best_f)):
            raise RuntimeError(
                "cross-entropy optimization never found a finite objective value"
            )
        return best_x, best_f

    # ------------------------------------------------------------------
    # Batched best response
    # ------------------------------------------------------------------
    def _schedule_costs(
        self, tables: FloatArray, levels: FloatArray, power: FloatArray
    ) -> FloatArray:
        """Batched ``SchedulingGame._schedule_cost``: per-game sequential sum."""
        idx = np.searchsorted(levels, power.reshape(-1)).reshape(power.shape)
        picked = np.take_along_axis(tables, idx[:, :, None], axis=2)[:, :, 0]
        costs = np.empty(power.shape[0])
        for i in range(power.shape[0]):
            total = 0.0
            for value in picked[i].tolist():
                total += value
            costs[i] = total
        return costs

    def _best_response(
        self,
        state: _LockstepState,
        rows: NDArray[np.int_],
        others: FloatArray,
        *,
        multiplicity: int,
        hysteresis_scale: float,
    ) -> None:
        """One batched inner-loop pass; updates ``state`` rows in place."""
        threshold_rate = self.config.hysteresis * hysteresis_scale
        customer = state.customer
        buy = self.buy_rates[rows]
        sell = self.sell_rates[rows]
        pricing = dict(
            buy_rates=buy,
            sell_rates=sell,
            export_cap_kwh=self.export_cap_kwh,
            multiplicity=multiplicity,
        )
        for _ in range(self.config.inner_iterations):
            trading = state.tradings(rows)
            per_slot = cost_terms(trading, others, **pricing)
            reference = np.abs(per_slot.sum(axis=1)) + 1e-9
            threshold = threshold_rate * reference
            for index, task in enumerate(customer.tasks):
                jitter, levels = self._task_tables(customer, index)
                trading = state.tradings(rows)
                base_trading = (
                    trading - state.power[rows, index, :] * self.slot_hours
                )
                tables = marginal_cost_terms(
                    base_trading, others, levels * self.slot_hours, **pricing
                )
                tables = tables + jitter[None, :, :]
                tables[:, :, 0] = 0.0  # idling stays exactly free
                schedules, optimal_costs = schedule_appliance_tables(
                    task, tables, slot_hours=self.slot_hours, backend=self.backend
                )
                current_costs = self._schedule_costs(
                    tables, levels, state.power[rows, index, :]
                )
                improvements = current_costs - optimal_costs
                for i, g in enumerate(rows):
                    if improvements[i] > threshold[i]:
                        state.power[g, index, :] = schedules[i].load
            if customer.battery.capacity_kwh > 0:
                load = state.loads(rows)
                x0 = state.battery[rows]
                best_x, best_f = self._ce_battery(
                    customer, load, others, buy, sell, x0, multiplicity
                )
                current_trading = state.tradings(rows)
                current_costs = cost_terms(
                    current_trading, others, **pricing
                ).sum(axis=1)
                improvements = current_costs - best_f
                for i, g in enumerate(rows):
                    if improvements[i] > threshold[i]:
                        state.battery[g] = best_x[i]

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(self, *, seed: int = 0) -> list[GameResult]:
        """Run Algorithm 1 for every game of the batch."""
        n_games = self.n_games
        states = self._initial_states()
        counts = self.community.counts
        tradings = [
            s.tradings(np.arange(n_games)) for s in states
        ]
        total = np.zeros((n_games, self.community.horizon))
        for y, count in zip(tradings, counts):
            total += count * y

        rngs = [np.random.default_rng(seed) for _ in range(n_games)]  # repro: noqa[SEED003] lockstep contract: identical per-game streams by design
        residuals: list[list[float]] = [[] for _ in range(n_games)]
        rounds = np.zeros(n_games, dtype=int)
        converged = np.zeros(n_games, dtype=bool)
        active = np.arange(n_games)

        for round_no in range(1, self.config.max_rounds + 1):
            if not active.size:
                break
            orders = [rngs[g].permutation(len(states)) for g in active]
            order = orders[0]
            for other in orders[1:]:
                if not np.array_equal(order, other):
                    raise AssertionError(
                        "lockstep games disagree on round order; "
                        "all games must share one solver seed"
                    )
            max_delta = np.zeros(active.size)
            with TRACER.span(
                "game.round", round=round_no, games=int(active.size)
            ):
                for index in order:
                    state, count = states[index], counts[index]
                    old_trading = tradings[index][active]
                    others = total[active] - count * old_trading
                    with TRACER.span(
                        "game.customer",
                        customer=int(index),
                        multiplicity=int(count),
                    ):
                        self._best_response(
                            state,
                            active,
                            others,
                            multiplicity=count,
                            hysteresis_scale=float(round_no),
                        )
                    new_trading = state.tradings(active)
                    delta = np.max(np.abs(new_trading - old_trading), axis=1)
                    max_delta = np.maximum(max_delta, delta)
                    total[active] = total[active] + count * (
                        new_trading - old_trading
                    )
                    tradings[index][active] = new_trading
            for i, g in enumerate(active):
                residuals[g].append(float(max_delta[i]))
                rounds[g] = round_no
            done = max_delta < self.config.convergence_tol
            converged[active[done]] = True
            active = active[~done]

        results = []
        for g in range(n_games):
            PERF.add("game.solves")
            PERF.add("game.rounds", int(rounds[g]))
            PERF.observe("game.rounds", int(rounds[g]))
            results.append(
                GameResult(
                    states=tuple(s.state_for(g) for s in states),
                    counts=counts,
                    rounds=int(rounds[g]),
                    converged=bool(converged[g]),
                    residuals=tuple(residuals[g]),
                )
            )
        return results


def solve_games(
    community: Community,
    price_vectors: Sequence[ArrayLike],
    *,
    sellback_divisor: float = 2.0,
    config: GameConfig | None = None,
    seed: int = 0,
    backend: KernelBackend | str | None = None,
    tariff: Tariff | None = None,
) -> list[GameResult]:
    """Solve independent games over one community in a lockstep batch.

    Entry ``g`` of the result is bitwise-identical to::

        SchedulingGame(
            community, price_vectors[g],
            sellback_divisor=sellback_divisor, config=config,
            tariff=tariff,
        ).solve(rng=np.random.default_rng(seed))

    while sharing every array operation across the batch.
    """
    solver = LockstepGameSolver(
        community,
        price_vectors,
        sellback_divisor=sellback_divisor,
        config=config,
        backend=backend,
        tariff=tariff,
    )
    return solver.solve(seed=seed)
