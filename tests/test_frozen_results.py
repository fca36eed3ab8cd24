"""A solved game is a frozen value.

``GameResult`` sums its community aggregates once, at construction, and
serves them as read-only arrays; the PAR of its grid demand is computed
on first read.  Both ways a result comes into being — a sequential
solve and a lockstep batch entry — must give aggregates bitwise equal
to the historical per-access sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BatteryConfig, GameConfig
from repro.metrics.par import par
from repro.scheduling import game as game_module
from repro.scheduling.appliance import ApplianceSchedule
from repro.scheduling.batch import solve_games
from repro.scheduling.customer import CustomerState
from repro.scheduling.game import Community, GameResult, SchedulingGame
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=3,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
)

AGGREGATES = ("community_load", "community_trading", "grid_demand")


@pytest.fixture(scope="module")
def community() -> Community:
    battery = BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    )
    return Community(
        customers=(make_customer(0), make_customer(1, battery=battery, pv_peak=0.8)),
        counts=(3, 2),
    )


@pytest.fixture(scope="module")
def prices() -> np.ndarray:
    return np.linspace(0.01, 0.05, HORIZON)


def _solved(community, prices):
    game = SchedulingGame(community, prices, config=FAST)
    return game.solve(rng=np.random.default_rng(3))


def _from_solve_games(community, prices):
    return solve_games(community, [prices * 1.1, prices], config=FAST, seed=3)[1]


SOURCES = {
    "solve": _solved,
    "solve_games": _from_solve_games,
}


@pytest.fixture(params=sorted(SOURCES))
def result(request, community, prices) -> GameResult:
    return SOURCES[request.param](community, prices)


def _recomputed(result: GameResult) -> dict[str, np.ndarray]:
    """The historical per-access sums over the per-archetype states."""
    load = np.zeros(result.horizon)
    for state, count in zip(result.states, result.counts):
        load += count * state.load
    trading = np.zeros(result.horizon)
    for state, count in zip(result.states, result.counts):
        trading += count * state.trading
    return {
        "community_load": load,
        "community_trading": trading,
        "grid_demand": np.maximum(trading, 0.0),
    }


class TestFrozenAggregates:
    def test_bitwise_equal_to_per_state_recomputation(self, result):
        for name, expected in _recomputed(result).items():
            got = getattr(result, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), name

    def test_repeated_access_returns_same_object(self, result):
        for name in AGGREGATES:
            assert getattr(result, name) is getattr(result, name)

    @pytest.mark.parametrize("name", AGGREGATES)
    def test_in_place_write_raises(self, result, name):
        array = getattr(result, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
        np.testing.assert_array_equal(getattr(result, name), before)

    def test_par_memoized_and_equal_to_par_of_demand(self, result, monkeypatch):
        calls = []

        def counting_par(load):
            calls.append(1)
            return par(load)

        monkeypatch.setattr(game_module, "par", counting_par)
        first = result.grid_par
        assert first == par(result.grid_demand)
        assert result.grid_par == first
        assert len(calls) == 1

    def test_aggregates_are_not_fields(self, result):
        """Equality and repr stay over the solve outcome alone."""
        assert result == GameResult(
            states=result.states,
            counts=result.counts,
            rounds=result.rounds,
            converged=result.converged,
            residuals=result.residuals,
        )
        assert "_demand" not in repr(result)


class TestZeroDemand:
    @pytest.fixture
    def idle(self) -> GameResult:
        """A community drawing nothing from the grid in any slot."""
        customer = make_customer(0, base=0.0)
        state = CustomerState(
            customer=customer,
            schedules=tuple(
                ApplianceSchedule(task=task, power=(0.0,) * HORIZON)
                for task in customer.tasks
            ),
            battery_decision=(0.0,) * HORIZON,
        )
        return GameResult(states=(state,), counts=(4,), rounds=1, converged=True)

    def test_construction_does_not_compute_par(self, idle):
        assert not idle.grid_demand.any()

    def test_par_raises_on_every_read(self, idle):
        for _ in range(2):
            with pytest.raises(ValueError, match="mean must be positive"):
                idle.grid_par


def test_grid_demand_stays_a_plain_property():
    # perfbench/ledger.py times GameResult.grid_demand by re-wrapping
    # ``property.fget``; a ``functools.cached_property`` (or any other
    # descriptor) makes every traced benchmark run abort.
    assert isinstance(GameResult.__dict__["grid_demand"], property)
