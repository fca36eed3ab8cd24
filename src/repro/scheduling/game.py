"""The net-metering-aware energy consumption scheduling game (Section 3.1).

Every customer minimizes their own monetary cost (Problem **P1**) given
everyone else's trading totals; the solution concept is the iterative
best-response loop of Algorithm 1:

- outer loop: cycle over customers until the community trading vector
  stops changing;
- per customer, inner loop: alternate the dynamic-programming appliance
  scheduler (power levels ``x_m^h`` with the battery fixed) and the
  cross-entropy battery optimizer (trajectory ``b_n^h`` with appliances
  fixed).

Communities are described as weighted *archetypes*: ``counts[a]`` identical
instances share the strategy of ``customers[a]``.  Instances of the same
archetype best-respond against the whole community minus one instance,
exactly as independent players would, but the fixed point is computed once
per archetype — this is what makes the paper's 500-customer community
tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.kernels import KernelBackend, get_backend
from repro.metrics.par import par
from repro.obs.trace import TRACER
from repro.optimization.battery import BatteryOptimizer, BatteryProblem
from repro.perf.counters import PERF
from repro.scheduling.customer import Customer, CustomerState
from repro.scheduling.dp import schedule_appliance_table
from repro.tariffs import Tariff, cost_model_for


@dataclass(frozen=True)
class Community:
    """A weighted collection of customer archetypes."""

    customers: tuple[Customer, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "customers", tuple(self.customers))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not self.customers:
            raise ValueError("community must have at least one customer archetype")
        if len(self.counts) != len(self.customers):
            raise ValueError(
                f"{len(self.counts)} counts for {len(self.customers)} archetypes"
            )
        if any(c < 1 for c in self.counts):
            raise ValueError("archetype counts must be >= 1")
        horizons = {c.horizon for c in self.customers}
        if len(horizons) != 1:
            raise ValueError(f"customers disagree on horizon: {sorted(horizons)}")

    @property
    def horizon(self) -> int:
        return self.customers[0].horizon

    @property
    def n_customers(self) -> int:
        return sum(self.counts)

    @property
    def total_pv(self) -> NDArray[np.float64]:
        """Community renewable generation ``Theta_h`` per slot."""
        total = np.zeros(self.horizon)
        for customer, count in zip(self.customers, self.counts):
            total += count * customer.pv_array
        return total

    def without_net_metering(self) -> "Community":
        """The same community with PV and batteries stripped."""
        return Community(
            customers=tuple(c.without_net_metering() for c in self.customers),
            counts=self.counts,
        )


@dataclass(frozen=True)
class GameResult:
    """Converged (or truncated) outcome of the scheduling game.

    A solved game is a frozen value that the solution cache hands to
    every caller.  Its community aggregates are summed once, at
    construction, and served as read-only arrays: copy one before
    mutating it.  The PAR of the grid demand is computed on first read.
    """

    states: tuple[CustomerState, ...]
    counts: tuple[int, ...]
    rounds: int
    converged: bool
    residuals: tuple[float, ...] = field(default=())
    _load: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _trading: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _demand: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _par: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        load = np.zeros(self.horizon)
        trading = np.zeros(self.horizon)
        for state, count in zip(self.states, self.counts):
            load += count * state.load
            trading += count * state.trading
        demand = np.maximum(trading, 0.0)
        for name, array in (("_load", load), ("_trading", trading), ("_demand", demand)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def horizon(self) -> int:
        return self.states[0].customer.horizon

    @property
    def community_load(self) -> NDArray[np.float64]:
        """Total consumption ``L_h = sum_n l_n^h`` per slot (read-only)."""
        return self._load

    @property
    def community_trading(self) -> NDArray[np.float64]:
        """Total grid trading ``Y_h = sum_n y_n^h`` per slot (read-only)."""
        return self._trading

    # A plain property, not ``functools.cached_property``: the benchmark
    # ledger (perfbench/ledger.py) re-wraps ``property.fget`` to time it.
    @property
    def grid_demand(self) -> NDArray[np.float64]:
        """Energy purchased from the utility per slot (clamped at zero,
        read-only)."""
        return self._demand

    @property
    def grid_par(self) -> float:
        """PAR of :attr:`grid_demand`, computed on first read.

        Raises ``ValueError`` on every read where :func:`par` does (a
        zero-mean demand), so an invalid profile is never memoized.
        """
        value = self._par
        if value is None:
            value = par(self.grid_demand)
            object.__setattr__(self, "_par", value)
        return value


class SchedulingGame:
    """Iterative best-response solver for one guideline-price vector."""

    def __init__(
        self,
        community: Community,
        prices: ArrayLike,
        *,
        sellback_divisor: float = 2.0,
        config: GameConfig | None = None,
        backend: KernelBackend | str | None = None,
        tariff: Tariff | None = None,
    ) -> None:
        prices_arr = np.asarray(prices, dtype=float)
        if prices_arr.shape != (community.horizon,):
            raise ValueError(
                f"prices must have shape ({community.horizon},), got {prices_arr.shape}"
            )
        self.community = community
        self.config = config if config is not None else GameConfig()
        self.backend = get_backend(backend)
        # Hourly slots: a kW power level consumes that many kWh per slot,
        # which keeps appliance loads, PV and trading in the same unit.
        self.slot_hours = 1.0
        self.cost_model = cost_model_for(
            tariff, prices_arr, sellback_divisor=sellback_divisor
        )
        self._battery_optimizer = BatteryOptimizer(
            n_samples=self.config.ce_samples,
            n_elites=self.config.ce_elites,
            n_iterations=self.config.ce_iterations,
            smoothing=self.config.ce_smoothing,
            backend=self.backend,
        )
        # Per-(customer, task) tables that are pure functions of static
        # identity: the DP tie-break jitter (a fresh seeded generator
        # reproduces the same table every call, so caching it is exact)
        # and the power-level array used for vectorized schedule costing.
        self._jitter_tables: dict[tuple[int, int], NDArray[np.float64]] = {}
        self._level_arrays: dict[tuple[int, int], NDArray[np.float64]] = {}
        self._slot_index = np.arange(community.horizon)

    def _task_tables(
        self, customer: Customer, index: int
    ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Cached (jitter table, power-level array) for one task."""
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
    def initial_state(self, customer: Customer) -> CustomerState:
        """Greedy initial state: price-only scheduling, idle battery."""
        horizon = customer.horizon
        prices = self.cost_model.price_array
        schedules = []
        for task in customer.tasks:
            levels = np.asarray(task.power_levels)
            table = prices[:, None] * levels[None, :] * self.slot_hours
            schedule, _ = schedule_appliance_table(
                task, table, slot_hours=self.slot_hours
            )
            schedules.append(schedule)
        decision = np.full(horizon, customer.battery.initial_kwh)
        return CustomerState(
            customer=customer,
            schedules=tuple(schedules),
            battery_decision=tuple(decision),
        )

    # ------------------------------------------------------------------
    # Best response
    # ------------------------------------------------------------------
    def best_response(
        self,
        state: CustomerState,
        others_trading: NDArray[np.float64],
        rng: np.random.Generator,
        *,
        multiplicity: int = 1,
        hysteresis_scale: float = 1.0,
    ) -> CustomerState:
        """One inner-loop pass of Algorithm 1 for a single customer.

        Alternates DP appliance scheduling (battery fixed) and CE battery
        optimization (appliances fixed) ``config.inner_iterations`` times.

        ``others_trading`` must exclude all ``multiplicity`` instances of
        the archetype; the herd move of identical instances is priced
        inside the marginal tables (see
        :meth:`~repro.netmetering.cost.CostModel.marginal_cost_table`).

        ``hysteresis_scale`` anneals the acceptance threshold: the outer
        loop raises it round by round, so best-response cycling between
        near-equal strategies dies out and the dynamics terminate at an
        epsilon-equilibrium (the scheduling game has no exact potential,
        so plain best response may cycle forever).
        """
        threshold_rate = self.config.hysteresis * hysteresis_scale
        customer = state.customer
        for _ in range(self.config.inner_iterations):
            # The acceptance threshold is a fraction of the customer's
            # whole daily bill: relative-to-move thresholds fail when a
            # move's own marginal cost is near zero (flat cost valleys
            # created by battery arbitrage), which is exactly where
            # best-response cycling lives.
            reference = abs(
                float(
                    self.cost_model.customer_cost_per_slot(
                        state.trading, others_trading, multiplicity=multiplicity
                    ).sum()
                )
            ) + 1e-9
            threshold = threshold_rate * reference
            # Line 4: appliance schedules via DP, one task at a time.
            for index, task in enumerate(customer.tasks):
                # Deterministic per-(customer, task) jitter breaks cost
                # ties: a zero-price attack makes whole windows exactly
                # free, and without it every customer's DP would herd into
                # the same slot of the window.
                jitter, levels = self._task_tables(customer, index)
                base_trading = state.trading - state.schedules[index].load * self.slot_hours
                table = self.cost_model.marginal_cost_table(
                    base_trading,
                    others_trading,
                    levels,
                    multiplicity=multiplicity,
                    slot_hours=self.slot_hours,
                )
                table = table + jitter
                table[:, 0] = 0.0  # idling stays exactly free
                schedule, diagnostics = schedule_appliance_table(
                    task, table, slot_hours=self.slot_hours, backend=self.backend
                )
                current_cost = self._schedule_cost(
                    table, levels, state.schedules[index]
                )
                improvement = current_cost - diagnostics.optimal_cost
                if improvement > threshold:
                    state = state.with_schedule(index, schedule)
            # Line 5: battery trajectory via cross-entropy optimization.
            if customer.battery.capacity_kwh > 0:
                problem = BatteryProblem(
                    load=tuple(state.load),
                    pv=customer.pv,
                    others_trading=tuple(others_trading),
                    spec=customer.battery,
                    cost_model=self.cost_model,
                    slot_hours=self.slot_hours,
                    multiplicity=multiplicity,
                )
                # A per-customer deterministic seed makes the CE step a
                # function of its inputs, so the best-response map has
                # fixed points the outer loop can actually reach.
                ce_rng = np.random.default_rng(customer.customer_id + 7919)  # repro: noqa[SEED003] fixed-point contract: the CE step must replay the same stream each inner iteration
                result = self._battery_optimizer.optimize(
                    problem, x0=np.asarray(state.battery_decision), rng=ce_rng
                )
                current_cost = problem.cost(np.asarray(state.battery_decision))
                # Accept only clear improvements: chasing CE sampling noise
                # keeps the outer loop from converging.
                improvement = current_cost - result.fun
                if improvement > threshold:
                    state = state.with_battery(result.x)
        return state

    def _schedule_cost(
        self,
        table: NDArray[np.float64],
        levels: NDArray[np.float64],
        schedule,
    ) -> float:
        """Cost of an existing schedule under a fresh marginal table.

        ``levels`` is the task's (strictly increasing) power-level array;
        schedule powers are exact members of it, so ``searchsorted``
        recovers each slot's level index without rebuilding a dict.  The
        gathered entries are summed sequentially to reproduce the exact
        rounding of the historical per-slot accumulation loop.
        """
        idx = np.searchsorted(levels, schedule.load)
        picked = table[self._slot_index, idx]
        total = 0.0
        for value in picked.tolist():
            total += value
        return total

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(self, *, rng: np.random.Generator | None = None) -> GameResult:
        """Run Algorithm 1 to (approximate) convergence from the greedy
        :meth:`initial_state` of every customer."""
        rng = rng if rng is not None else np.random.default_rng(0)
        states = [self.initial_state(c) for c in self.community.customers]
        counts = self.community.counts
        tradings = [s.trading for s in states]
        total = np.zeros(self.community.horizon)
        for y, count in zip(tradings, counts):
            total += count * y

        residuals: list[float] = []
        converged = False
        rounds = 0
        for rounds in range(1, self.config.max_rounds + 1):
            max_delta = 0.0
            order = rng.permutation(len(states))
            with TRACER.span("game.round", round=rounds):
                for index in order:
                    state, count = states[index], counts[index]
                    others = total - count * tradings[index]
                    with TRACER.span(
                        "game.customer", customer=int(index), multiplicity=int(count)
                    ):
                        new_state = self.best_response(
                            state,
                            others,
                            rng,
                            multiplicity=count,
                            hysteresis_scale=float(rounds),
                        )
                    new_trading = new_state.trading
                    delta = float(np.max(np.abs(new_trading - tradings[index])))
                    max_delta = max(max_delta, delta)
                    total = total + count * (new_trading - tradings[index])
                    states[index] = new_state
                    tradings[index] = new_trading
            residuals.append(max_delta)
            if max_delta < self.config.convergence_tol:
                converged = True
                break

        PERF.add("game.solves")
        PERF.add("game.rounds", rounds)
        PERF.observe("game.rounds", rounds)
        return GameResult(
            states=tuple(states),
            counts=counts,
            rounds=rounds,
            converged=converged,
            residuals=tuple(residuals),
        )
