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

The loop is written once, for any number of independent games, in
:mod:`repro.scheduling.batch`; :class:`SchedulingGame` is its one-game
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.kernels import KernelBackend
from repro.metrics.par import par
from repro.scheduling.customer import Customer, CustomerState
from repro.tariffs import Tariff


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
    """Algorithm 1 for one guideline-price vector.

    A view over a one-game
    :class:`~repro.scheduling.batch.LockstepGameSolver`, the package's
    one implementation of the best-response loop.
    """

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
        # The lockstep solver imports this module for Community and
        # GameResult, so it is imported on first use.
        from repro.scheduling.batch import LockstepGameSolver

        self._solver = LockstepGameSolver(
            community,
            [prices],
            sellback_divisor=sellback_divisor,
            config=config,
            backend=backend,
            tariff=tariff,
        )
        self.community = community
        self.config = self._solver.config
        self.backend = self._solver.backend
        self.cost_model = self._solver.cost_models[0]

    def initial_state(self, customer: Customer) -> CustomerState:
        """Greedy initial state: price-only scheduling, idle battery."""
        return self._solver.initial_state(customer).state_for(0)

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

        See :meth:`~repro.scheduling.batch.LockstepGameSolver.best_response`.
        ``rng`` is not drawn from: the CE step seeds its own generator
        per customer.
        """
        from repro.scheduling.batch import LockstepState

        lockstep = LockstepState.of(state)
        self._solver.best_response(
            lockstep,
            np.zeros(1, dtype=int),
            np.asarray(others_trading, dtype=float)[None, :],
            multiplicity=multiplicity,
            hysteresis_scale=hysteresis_scale,
        )
        return lockstep.state_for(0)

    def solve(self, *, rng: np.random.Generator | None = None) -> GameResult:
        """Run Algorithm 1 to (approximate) convergence from the greedy
        :meth:`initial_state` of every customer, drawing one round-order
        permutation per round from ``rng``."""
        rng = rng if rng is not None else np.random.default_rng(0)
        [result] = self._solver.solve(rng=rng)
        return result
