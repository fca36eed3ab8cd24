"""Lockstep batched game solving vs each game solved alone.

``solve_games`` advances many independent games (same community and
seed, different price vectors) in lockstep so the CE population, DP
tables and cost kernels run once per batch instead of once per game.
The contract is bitwise: entry ``g`` must equal the result of solving
game ``g`` alone through :class:`SchedulingGame`.  These tests pin that
contract for every named tariff and both kernel backends, and pin the
bits of a game solved alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import BatteryConfig, GameConfig
from repro.kernels import available_backends
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryOptimizer, BatteryProblem
from repro.scheduling.batch import solve_games
from repro.scheduling.game import Community, GameResult, SchedulingGame
from repro.tariffs import NAMED_TARIFFS
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=3,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
)


@pytest.fixture(scope="module")
def community() -> Community:
    spec = BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    )
    return Community(
        customers=(
            make_customer(0),
            make_customer(1, battery=spec, pv_peak=0.8),
        ),
        counts=(3, 2),
    )


def _prices(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    return [rng.uniform(0.01, 0.06, HORIZON) for _ in range(n)]


def _solved_alone(
    community: Community,
    price_vectors,
    *,
    seed: int = 0,
    backend: str | None = None,
    tariff=None,
) -> list[GameResult]:
    return [
        SchedulingGame(
            community,
            prices,
            sellback_divisor=2.0,
            config=FAST,
            backend=backend,
            tariff=tariff,
        ).solve(
            rng=np.random.default_rng(seed),  # repro: noqa[SEED003] lockstep oracle: same stream per game on purpose
        )
        for prices in price_vectors
    ]


def assert_results_equal(batched: GameResult, single: GameResult) -> None:
    assert batched.rounds == single.rounds
    assert batched.converged == single.converged
    assert batched.counts == single.counts
    assert batched.residuals == single.residuals
    for state_b, state_s in zip(batched.states, single.states):
        assert state_b.battery_decision == state_s.battery_decision
        for sched_b, sched_s in zip(state_b.schedules, state_s.schedules):
            assert sched_b.power == sched_s.power
    np.testing.assert_array_equal(
        batched.community_trading, single.community_trading
    )


class TestColdBatch:
    @pytest.mark.parametrize("tariff_name", sorted(NAMED_TARIFFS))
    @pytest.mark.parametrize("backend", available_backends())
    def test_batch_matches_sequential_loop(self, community, backend, tariff_name):
        """Each game of a batch equals the same game solved alone, under
        every named tariff."""
        tariff = NAMED_TARIFFS[tariff_name]
        prices = _prices(4)
        batched = solve_games(
            community, prices, config=FAST, seed=0, backend=backend, tariff=tariff
        )
        alone = _solved_alone(community, prices, backend=backend, tariff=tariff)
        for b, s in zip(batched, alone):
            assert_results_equal(b, s)

    def test_single_game_batch_matches_direct_solve(self, community):
        prices = _prices(1)
        [batched] = solve_games(community, prices, config=FAST, seed=5)
        [single] = _solved_alone(community, prices, seed=5)
        assert_results_equal(batched, single)

    def test_backend_invariant(self, community):
        prices = _prices(3)
        per_backend = [
            solve_games(community, prices, config=FAST, backend=name)
            for name in available_backends()
        ]
        for results in per_backend[1:]:
            for a, b in zip(per_backend[0], results):
                assert_results_equal(a, b)

    def test_empty_batch_rejected(self, community):
        with pytest.raises(ValueError, match="at least one price vector"):
            solve_games(community, [], config=FAST)

    def test_wrong_horizon_rejected(self, community):
        with pytest.raises(ValueError):
            solve_games(
                community, [np.full(HORIZON + 1, 0.03)], config=FAST
            )


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.asarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _game_arrays(result: GameResult) -> list:
    arrays = [[result.rounds, result.converged], result.residuals]
    for state in result.states:
        arrays.append(state.battery_decision)
        arrays += [schedule.power for schedule in state.schedules]
    return arrays


def _games_digest(results: list[GameResult]) -> str:
    return _sha256(*(array for result in results for array in _game_arrays(result)))


def _solve_alone_digest(community: Community, tariff, backend: str) -> str:
    """One game solved alone, and the draw its generator makes next."""
    rng = np.random.default_rng(2)
    result = SchedulingGame(
        community,
        _prices(1)[0],
        sellback_divisor=1.5,
        config=FAST,
        tariff=tariff,
        backend=backend,
    ).solve(rng=rng)
    return _sha256(*_game_arrays(result), [rng.random()])


def _optimize_digest(tariff, backend: str) -> str:
    """One CE battery optimization that exports past the 2 kWh cap."""
    rng = np.random.default_rng(17)
    prices = rng.uniform(0.01, 0.06, HORIZON)
    model = (
        NetMeteringCostModel(prices=tuple(prices), sellback_divisor=1.5)
        if tariff is None
        else tariff.cost_model(prices, sellback_divisor=1.5)
    )
    hours = np.arange(HORIZON) + 0.5
    pv = 3.0 * np.clip(np.sin(np.pi * (hours - 6.0) / 13.0), 0.0, None)
    problem = BatteryProblem(
        load=tuple(rng.uniform(0.3, 1.0, HORIZON)),
        pv=tuple(pv),
        others_trading=tuple(rng.uniform(4.0, 12.0, HORIZON)),
        spec=BatteryConfig(
            capacity_kwh=3.0, initial_kwh=1.0, max_charge_kw=1.0, max_discharge_kw=1.0
        ),
        cost_model=model,
        multiplicity=2,
    )
    result = BatteryOptimizer(
        n_samples=16, n_elites=4, n_iterations=4, backend=backend
    ).optimize(problem, rng=np.random.default_rng(5))
    return _sha256(
        result.x,
        [result.fun, result.n_evaluations, result.n_iterations, result.converged],
    )


# SHA-256 of (3-game ``solve_games`` batch, one ``BatteryOptimizer.optimize``)
# per named tariff.  Kernel backends are bitwise-equal, so both share a row.
# This community's equilibria never export, so the spread tariffs' games
# match flat's; the optimizer column tells their sell sides apart.
TARIFF_DIGESTS: dict[str, tuple[str, str]] = {
    "flat": (
        "48eca63e0f38b9ab9dc828b026262d223d28151fa452c4f6369f81580b4f23d8",
        "cf4d1e1432ddb09ab71570bf8cfa656e2aaca323aff865749458b0ba66a9c895",
    ),
    "flat_paper_literal": (
        "333d598be9cf4246a7de498df248a41de86da2ae0d53fc4b7aa76f5f207c6f47",
        "499e6be795164a295b2cdbb73eb2a62243d9104326550e39587989fb57a43cc8",
    ),
    "monthly_netting": (
        "48eca63e0f38b9ab9dc828b026262d223d28151fa452c4f6369f81580b4f23d8",
        "cf4d1e1432ddb09ab71570bf8cfa656e2aaca323aff865749458b0ba66a9c895",
    ),
    "nem3_spread": (
        "48eca63e0f38b9ab9dc828b026262d223d28151fa452c4f6369f81580b4f23d8",
        "a0f116fceeed1ad8a152c2b6a66c1e0b6e900a94e3a3f3c5106e288fc8243553",
    ),
    "spread_capped": (
        "48eca63e0f38b9ab9dc828b026262d223d28151fa452c4f6369f81580b4f23d8",
        "8cb9d6aab114a75c5d4d826a7a6a9937ccd54f01a5db8e9039137523c0dae2c3",
    ),
    "tou": (
        "cbfea2ef482aaa3ea8708529b0a7ef9f386f4cad911ff1b710f263f28b4efd99",
        "3b7ef165274027aa9896dc8a57abb4e4599dfd0a4b1c3c80974801b58234290b",
    ),
}


# SHA-256 of one game solved alone through ``SchedulingGame.solve`` per
# named tariff: rounds, residuals, schedules and battery decisions, then
# the generator's next draw, which pins one round-order permutation per
# round.  Both backends share a row.
SOLVE_ALONE_DIGESTS: dict[str, str] = {
    "flat": "805f07e796ee1a8b30fb8f034a72ba95a7c9c6e0bb9fd9869fe4186e39d50597",
    "flat_paper_literal": "50594216f7afbe84c7f585f7096a6ac4b41f7a050e55c9da7ae3aac773209490",
    "monthly_netting": "805f07e796ee1a8b30fb8f034a72ba95a7c9c6e0bb9fd9869fe4186e39d50597",
    "nem3_spread": "805f07e796ee1a8b30fb8f034a72ba95a7c9c6e0bb9fd9869fe4186e39d50597",
    "spread_capped": "805f07e796ee1a8b30fb8f034a72ba95a7c9c6e0bb9fd9869fe4186e39d50597",
    "tou": "5fa9b58eac0962a41096bc991c85d01b8828ec970d4ce188727be1191aa5d2d8",
}


class TestTariffDigests:
    """Bit pins for the tariffs no golden file covers.

    The golden digests hold only ``flat`` and ``nem3_spread``.  These pin
    every named tariff -- the export cap (``spread_capped``), the
    selling-branch sign (``flat_paper_literal``) and time-of-use rates --
    through the lockstep solver and the CE battery optimizer on both
    backends.
    """

    @pytest.mark.parametrize("tariff_name", sorted(NAMED_TARIFFS))
    @pytest.mark.parametrize("backend", available_backends())
    def test_digests(self, community, backend, tariff_name):
        tariff = NAMED_TARIFFS[tariff_name]
        games = solve_games(
            community,
            _prices(3),
            sellback_divisor=1.5,
            config=FAST,
            seed=2,
            backend=backend,
            tariff=tariff,
        )
        assert (
            _games_digest(games),
            _optimize_digest(tariff, backend),
        ) == TARIFF_DIGESTS[tariff_name]

    @pytest.mark.parametrize("tariff_name", sorted(NAMED_TARIFFS))
    @pytest.mark.parametrize("backend", available_backends())
    def test_solve_alone_digests(self, community, backend, tariff_name):
        digest = _solve_alone_digest(community, NAMED_TARIFFS[tariff_name], backend)
        assert digest == SOLVE_ALONE_DIGESTS[tariff_name]
