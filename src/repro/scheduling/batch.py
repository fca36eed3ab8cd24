"""Algorithm 1, the scheduling game's best-response loop, for many games at once.

This is the package's one implementation of Algorithm 1;
:class:`~repro.scheduling.game.SchedulingGame` is its one-game case.

The detection pipeline repeatedly solves the *same community* under
*different guideline-price vectors* with the *same solver seed*: the
calibration Monte-Carlo checks ~30 attacked prices against one day, the
scenario loop simulates every meter's received price, and sweeps scan
whole price grids.  Algorithm 1 is Gauss-Seidel within one game — each
customer best-responds against totals already updated this round — so
customers cannot be batched inside a round without changing results.
Independent *games*, however, march through identical control flow:
per-customer CE seeds are fixed functions of customer identity, and the
round order is one permutation per round, drawn from one generator
shared by every game still active.  This module therefore advances
``G`` games in lockstep, fusing every array operation across a leading
game axis while keeping all accept/reject decisions per game.

Bitwise contract: ``solve_games(community, [p1, ..., pG], ...)[g]`` is
identical — every schedule, battery trajectory, round count and residual
— to game ``g`` solved alone,
``SchedulingGame(community, pg, ...).solve(rng=default_rng(seed))``.
The batched reductions used (row-wise ``sum``/``mean``/``std``/
``argsort`` and elementwise broadcasting) are exact per-row matches of
their one-game counterparts; ``tests/test_batched_game.py`` enforces the
contract end to end and pins the bits of a game solved alone.

Population layout: CE populations are ``(games, K, H)`` (population x
games x slots collapsed onto kernels as ``(games * K, H)``); DP tables
are ``(games, H, levels)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.kernels import KernelBackend, get_backend
from repro.netmetering.cost import CostModel, cost_terms, marginal_cost_terms
from repro.obs.trace import TRACER
from repro.optimization.cross_entropy import STD_FLOOR, elite_statistics
from repro.perf.counters import PERF
from repro.scheduling.appliance import ApplianceSchedule
from repro.scheduling.customer import Customer, CustomerState
from repro.scheduling.dp import schedule_appliance_powers
from repro.scheduling.game import Community, GameResult
from repro.tariffs import Tariff, cost_model_for

FloatArray = NDArray[np.float64]


@lru_cache(maxsize=4096)
def _jitter_table(task_id: tuple[int, int], horizon: int, n_levels: int) -> FloatArray:
    """The DP tie-break jitter of task ``task_id = (customer_id, index)``.

    A pure function of static identity: it comes from a generator seeded
    by (customer, task), so every solver shares one read-only copy.
    """
    customer_id, index = task_id
    jitter_rng = np.random.default_rng((customer_id * 1_000_003 + index) % (2**32))
    jitter = jitter_rng.uniform(0.0, 1e-6, size=(horizon, n_levels))
    jitter.flags.writeable = False
    return jitter


class _CeSetup(NamedTuple):
    """One customer's static CE inputs: the initial sampling std, the
    clamp's arguments (the box is ``[0, capacity]``), and its generator
    with the generator's seeded state, which every CE step restarts
    from."""

    std: float
    clamp: dict[str, float]
    rng: np.random.Generator
    seeded: dict[str, object]


class LockstepState:
    """Strategy arrays for one archetype across all games in the batch.

    ``projected`` says that every battery row is a projection output (a
    bitwise fixed point of the backend's clamp), so a CE step can start
    from it as it is.  The solver's own states are: they start flat at
    the initial charge and take only accepted CE bests.  A state built
    from a caller's strategy (:meth:`of`) is not known to be.
    """

    def __init__(self, customer: Customer, n_games: int) -> None:
        self.customer = customer
        horizon = customer.horizon
        self.power = np.zeros((n_games, len(customer.tasks), horizon))
        self.battery = np.zeros((n_games, horizon))
        self.projected = False

    @classmethod
    def of(cls, state: CustomerState) -> "LockstepState":
        """A one-game state holding ``state``'s strategy."""
        lockstep = cls(state.customer, 1)
        for t, schedule in enumerate(state.schedules):
            lockstep.power[0, t] = schedule.power
        lockstep.battery[0] = state.battery_decision
        return lockstep

    def loads(self, rows: NDArray[np.int_]) -> FloatArray:
        """Per-game household load, mirroring ``CustomerState.load``."""
        power = self.power[rows]
        total = np.add(self.customer.base_load_array, power[:, 0])
        for t in range(1, power.shape[1]):
            total += power[:, t]
        return total

    def tradings(self, rows: NDArray[np.int_]) -> FloatArray:
        """Per-game trading amounts, mirroring ``CustomerState.trading``."""
        battery = self.battery[rows]
        # ``np.diff`` of the full trajectory, without building it.
        delta = np.empty_like(battery)
        np.subtract(battery[:, 0], self.customer.battery.initial_kwh, out=delta[:, 0])
        np.subtract(battery[:, 1:], battery[:, :-1], out=delta[:, 1:])
        return self.loads(rows) + delta - self.customer.pv_array

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

    See the module docstring for the batching argument; every price
    vector gets its own cost model, exposed as :attr:`cost_models`.
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
        # Hourly slots: a kW power level consumes that many kWh per slot,
        # which keeps appliance loads, PV and trading in the same unit.
        self.slot_hours = 1.0
        horizon = community.horizon
        prices = np.stack(
            [np.asarray(p, dtype=float) for p in price_vectors]
        )
        if prices.shape != (len(price_vectors), horizon):
            raise ValueError(
                f"prices must have shape ({horizon},) per game, "
                f"got stacked shape {prices.shape}"
            )
        # The cost models validate each game's prices (finite,
        # non-negative); their rates, stacked one row per game, price
        # every costing site below.  One tariff prices the whole batch,
        # so the export cap is shared.
        self.cost_models: tuple[CostModel, ...] = tuple(
            cost_model_for(tariff, p, sellback_divisor=sellback_divisor)
            for p in prices
        )
        rates = [model.rates for model in self.cost_models]
        self.buy_rates = np.stack([buy for buy, _, _ in rates])
        self.sell_rates = np.stack([sell for _, sell, _ in rates])
        self.export_cap_kwh = rates[0][2]
        self.n_games = prices.shape[0]
        self._level_arrays: dict[tuple[int, int], FloatArray] = {}
        self._ce_setups: dict[int, _CeSetup] = {}
        self._slot_index = np.arange(horizon)

    # ------------------------------------------------------------------
    # Cached static tables
    # ------------------------------------------------------------------
    def _task_tables(
        self, customer: Customer, index: int
    ) -> tuple[FloatArray, FloatArray]:
        """Cached (jitter table, power-level array) for one task."""
        key = (customer.customer_id, index)
        levels = self._level_arrays.get(key)
        if levels is None:
            levels = self._level_arrays[key] = np.asarray(
                customer.tasks[index].power_levels
            )
        return _jitter_table(key, self.community.horizon, levels.size), levels

    def _ce_setup(self, customer: Customer) -> _CeSetup:
        """One customer's :class:`_CeSetup`, built on first use."""
        setup = self._ce_setups.get(customer.customer_id)
        if setup is None:
            spec = customer.battery
            clamp = dict(
                initial=spec.initial_kwh,
                capacity=spec.capacity_kwh,
                max_charge=spec.max_charge_kw * self.slot_hours,
                max_discharge=spec.max_discharge_kw * self.slot_hours,
            )
            # Every game's standalone CE draws from a fresh
            # default_rng(customer_id + 7919); restoring the seeded state
            # restarts that stream without re-seeding.
            rng = np.random.default_rng(customer.customer_id + 7919)
            setup = self._ce_setups[customer.customer_id] = _CeSetup(
                max(spec.capacity_kwh / 4.0, STD_FLOOR),
                clamp,
                rng,
                rng.bit_generator.state,
            )
        return setup

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initial_state(self, customer: Customer) -> LockstepState:
        """Every game's greedy initial state: price-only scheduling, idle
        battery."""
        state = LockstepState(customer, self.n_games)
        for t, task in enumerate(customer.tasks):
            levels = np.asarray(task.power_levels)
            tables = (
                self.buy_rates[:, :, None]
                * levels[None, None, :]
                * self.slot_hours
            )
            state.power[:, t, :], _ = schedule_appliance_powers(
                task,
                tables,
                slot_hours=self.slot_hours,
                backend=self.backend,
            )
        state.battery[:] = customer.battery.initial_kwh
        state.projected = True
        return state

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
        x0_costs: FloatArray | None = None,
    ) -> tuple[FloatArray, FloatArray]:
        """Batched CE over battery trajectories; one game per row.

        Mirrors :meth:`CrossEntropyOptimizer.minimize` exactly per row,
        each game drawing the stream of a freshly seeded per-customer
        generator (a deterministic seed makes the CE step a function of
        its inputs, so the best-response map has fixed points the outer
        loop can reach).  Returns ``(best_x, best_f)``.

        The search starts from ``x0`` clipped to the box, and its best
        so far is that start projected and scored.  With ``x0_costs`` the
        caller vouches that every row of ``x0`` is a projection output
        and gives the rows' costs: clipping and projecting such a row
        return its own bits (both are idempotent on their outputs), so
        the start is ``x0`` itself and is neither projected nor scored
        again.  The solver's own states are such rows; see
        :class:`LockstepState`.
        """
        cfg = self.config
        n_games, horizon = x0.shape
        backend = self.backend
        std0, clamp, rng, seeded = self._ce_setup(customer)
        capacity = clamp["capacity"]
        pv = customer.pv_array
        # Per-game inputs, and the same with a population axis.
        flat = (load, others, buy_rates, sell_rates)
        grouped = tuple(v[:, None, :] for v in flat)

        def project(decisions: FloatArray) -> FloatArray:
            out = backend.clamp_decisions(decisions.reshape(-1, horizon), **clamp)
            return np.asarray(out.reshape(decisions.shape))

        def score(
            decisions: FloatArray,
            inputs: tuple[FloatArray, ...],
            rows: NDArray[np.int_] | slice,
        ) -> FloatArray:
            load_r, others_r, buy_r, sell_r = (v[rows] for v in inputs)
            return backend.battery_costs(
                decisions,
                initial=customer.battery.initial_kwh,
                load=load_r,
                pv=pv,
                others=others_r,
                buy_rates=buy_r,
                sell_rates=sell_r,
                export_cap_kwh=self.export_cap_kwh,
                multiplicity=multiplicity,
            )

        if x0_costs is None:
            mean = np.clip(x0, 0.0, capacity)
            start = project(mean.copy())
            start_scores = score(start, flat, slice(None))
        else:
            mean = np.array(x0)
            start, start_scores = mean, x0_costs
        std = np.full((n_games, horizon), std0)
        best_x = start.copy()
        best_f = np.where(np.isfinite(start_scores), start_scores, np.inf)

        # Every game's standalone CE draws from its own
        # default_rng(customer_id + 7919), and every live game draws one
        # (K, H) block per iteration, so all their streams are one stream:
        # one generator serves them all.
        rng.bit_generator.state = seeded
        n_iterations = np.zeros(n_games, dtype=int)
        alive = alive_index = np.arange(n_games)
        span_id = TRACER.begin(
            "ce.minimize",
            category="optimization",
            parent_id=TRACER.current_span_id,
            dimension=horizon,
            n_samples=cfg.ce_samples,
            games=n_games,
        )
        iteration = 0
        for iteration in range(1, cfg.ce_iterations + 1):
            if not alive.size:
                break
            # A slice while every game is alive: views, not gathers.
            rows = slice(None) if alive.size == n_games else alive
            # normal(mean, std) is mean + std * standard_normal(), so each
            # game's rows are its own generator's draw, bit for bit.
            z = rng.standard_normal((cfg.ce_samples, horizon))
            samples = np.multiply(std[rows][:, None, :], z)
            samples += mean[rows][:, None, :]
            samples.clip(0.0, capacity, out=samples)
            samples = project(samples)
            scores = score(samples, grouped, rows)
            PERF.add("ce.evaluations", cfg.ce_samples * alive.size)
            scores = np.where(np.isfinite(scores), scores, np.inf)

            elite_idx = scores.argsort(axis=1)[:, : cfg.ce_elites]
            elites = samples[alive_index[:, None], elite_idx]
            first = elite_idx[:, 0]
            first_scores = scores[alive_index, first]
            better = (first_scores < best_f[rows]).nonzero()[0]
            if better.size:
                best_f[alive[better]] = first_scores[better]
                best_x[alive[better]] = samples[better, first[better]]

            new_mean, new_std = elite_statistics(elites, axis=1)
            mean[rows] = cfg.ce_smoothing * new_mean + (1 - cfg.ce_smoothing) * mean[rows]
            std[rows] = cfg.ce_smoothing * new_std + (1 - cfg.ce_smoothing) * std[rows]
            done = np.logical_and.reduce(std[rows] < STD_FLOOR, axis=1)
            if done.any():
                n_iterations[alive[done]] = iteration
                alive = alive[~done]
                alive_index = np.arange(alive.size)
        n_iterations[alive] = iteration
        TRACER.end(span_id)
        for n in n_iterations.tolist():
            PERF.observe("ce.iterations", n)
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
        """Cost of each game's current schedule under its fresh table.

        Schedule powers are exact members of the task's (strictly
        increasing) levels, so ``searchsorted`` recovers each slot's level
        index.  Each game's entries are summed left to right, the
        rounding of the historical per-slot accumulation loop.
        """
        idx = np.searchsorted(levels, power)
        rows = np.arange(power.shape[0])[:, None]
        picked = tables[rows, self._slot_index, idx]
        costs = np.empty(power.shape[0])
        for i, values in enumerate(picked.tolist()):
            total = 0.0
            for value in values:
                total += value
            costs[i] = total
        return costs

    def best_response(
        self,
        state: LockstepState,
        rows: NDArray[np.int_],
        others: FloatArray,
        *,
        multiplicity: int,
        hysteresis_scale: float,
    ) -> FloatArray:
        """One inner-loop pass of Algorithm 1 for one archetype in the
        games ``rows``; updates ``state`` rows in place and returns their
        new trading.

        Alternates DP appliance scheduling (battery fixed) and CE battery
        optimization (appliances fixed) ``config.inner_iterations`` times.
        ``others`` (one row per game) must exclude all ``multiplicity``
        instances of the archetype; the herd move of identical instances
        is priced inside the marginal tables.  ``hysteresis_scale``
        anneals the acceptance threshold: the outer loop raises it round
        by round, so best-response cycling between near-equal strategies
        dies out and the dynamics terminate at an epsilon-equilibrium
        (the scheduling game has no exact potential, so plain best
        response may cycle forever).
        """
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
        # Trading is recomputed from the strategy only after a game
        # accepts a move: a recomputation from the same strategy gives
        # the same bits.
        trading = state.tradings(rows)
        for _ in range(self.config.inner_iterations):
            # The acceptance threshold is a fraction of the customer's
            # whole daily bill: relative-to-move thresholds fail when a
            # move's own marginal cost is near zero (flat cost valleys
            # created by battery arbitrage), which is exactly where
            # best-response cycling lives.
            costs: FloatArray | None = cost_terms(trading, others, **pricing).sum(axis=1)
            threshold = threshold_rate * (np.abs(costs) + 1e-9)
            # Line 4: appliance schedules via DP, one task at a time.
            for index, task in enumerate(customer.tasks):
                # Deterministic per-(customer, task) jitter breaks cost
                # ties: a zero-price attack makes whole windows exactly
                # free, and without it every customer's DP would herd
                # into the same slot of the window.
                jitter, levels = self._task_tables(customer, index)
                power = state.power[rows, index, :]
                base_trading = trading - power * self.slot_hours
                tables = marginal_cost_terms(
                    base_trading, others, levels * self.slot_hours, **pricing
                )
                tables += jitter
                tables[:, :, 0] = 0.0  # idling stays exactly free
                powers, optimal_costs = schedule_appliance_powers(
                    task, tables, slot_hours=self.slot_hours, backend=self.backend
                )
                improvements = self._schedule_costs(tables, levels, power) - optimal_costs
                accepted = (improvements > threshold).nonzero()[0]
                if accepted.size:
                    state.power[rows[accepted], index, :] = powers[accepted]
                    trading = state.tradings(rows)
                    costs = None
            # Line 5: battery trajectory via cross-entropy optimization.
            if customer.battery.capacity_kwh > 0:
                # The bill of the current strategy, which is also the CE
                # start's score: the same trading priced by the same
                # formula (the kernels are bitwise cost_terms).
                if costs is None:
                    costs = cost_terms(trading, others, **pricing).sum(axis=1)
                best_x, best_f = self._ce_battery(
                    customer,
                    state.loads(rows),
                    others,
                    buy,
                    sell,
                    state.battery[rows],
                    multiplicity,
                    costs if state.projected else None,
                )
                # Accept only clear improvements: chasing CE sampling
                # noise keeps the outer loop from converging.
                accepted = (costs - best_f > threshold).nonzero()[0]
                if accepted.size:
                    state.battery[rows[accepted]] = best_x[accepted]
                    trading = state.tradings(rows)
        return trading

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(self, *, rng: np.random.Generator) -> list[GameResult]:
        """Run Algorithm 1 for every game of the batch from the greedy
        :meth:`initial_state` of every customer.

        Each round's customer order is one permutation drawn from
        ``rng`` while any game is still active, so a one-game solve
        draws exactly one per round.
        """
        n_games = self.n_games
        states = [self.initial_state(c) for c in self.community.customers]
        counts = self.community.counts
        all_rows = np.arange(n_games)
        tradings = [s.tradings(all_rows) for s in states]
        total = np.zeros((n_games, self.community.horizon))
        for y, count in zip(tradings, counts):
            total += count * y

        residuals: list[list[float]] = [[] for _ in range(n_games)]
        rounds = np.zeros(n_games, dtype=int)
        converged = np.zeros(n_games, dtype=bool)
        active = all_rows

        for round_no in range(1, self.config.max_rounds + 1):
            if not active.size:
                break
            order = rng.permutation(len(states))
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
                        new_trading = self.best_response(
                            state,
                            active,
                            others,
                            multiplicity=count,
                            hysteresis_scale=float(round_no),
                        )
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
    return solver.solve(rng=np.random.default_rng(seed))
