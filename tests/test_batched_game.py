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
from repro.scheduling.customer import CustomerState
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


class TestCeMatchesStandalone:
    """The game's batched CE step is the standalone CE, row for row.

    ``LockstepGameSolver._ce_battery`` draws each game's population from
    ``default_rng(customer_id + 7919)``; ``BatteryOptimizer.optimize``
    (``CrossEntropyOptimizer.minimize``) with that generator must find the
    same trajectory and cost, bit for bit, whether the game runs alone or
    in a batch whose games stop at different iterations.
    """

    CONFIG = GameConfig(ce_samples=16, ce_elites=4, ce_iterations=40)

    @pytest.mark.parametrize("tariff_name", ["flat", "tou", "spread_capped"])
    @pytest.mark.parametrize("n_games", [1, 3])
    def test_rows_equal_battery_optimizer(self, community, tariff_name, n_games):
        """A caller's start: in the box but past the rate limits, so the
        step projects and scores it."""
        self._check(community, tariff_name, n_games, projected_start=False)

    @pytest.mark.parametrize("tariff_name", ["flat", "tou", "spread_capped"])
    @pytest.mark.parametrize("n_games", [1, 3])
    def test_projected_start_rows_equal_battery_optimizer(
        self, community, tariff_name, n_games
    ):
        """The solver's own start: a projection output handed over with
        its costs (``x0_costs``), which the step takes as it is."""
        self._check(community, tariff_name, n_games, projected_start=True)

    @pytest.mark.parametrize("tariff_name", ["flat", "tou", "spread_capped"])
    @pytest.mark.parametrize("n_games", [1, 3])
    def test_kept_start_equals_battery_optimizer(
        self, community, tariff_name, n_games
    ):
        """A start good enough to keep, against a two-sample search: a
        searched trajectory with two slots pushed past the rate limits (a
        caller's), and its projection with its costs (the solver's own).
        Both CEs keep the projection, at the same score."""
        solver, customer, load, others, x0, _ = self._inputs(
            community, tariff_name, n_games, self.CONFIG
        )
        start, _ = solver._ce_battery(
            customer, load, others, solver.buy_rates, solver.sell_rates, x0, 2
        )
        start[:, 3] = customer.battery.capacity_kwh
        start[:, 4] = 0.0
        tiny = GameConfig(ce_samples=2, ce_elites=1, ce_iterations=1)
        solver, *_, projected = self._inputs(
            community, tariff_name, n_games, tiny, x0=start
        )
        projected_costs = self._costs(solver, customer, load, others, projected)
        for x0, x0_costs in ((start, None), (projected, projected_costs)):
            best_x, best_f = solver._ce_battery(
                customer,
                load,
                others,
                solver.buy_rates,
                solver.sell_rates,
                x0,
                2,
                x0_costs,
            )
            kept = 0
            for g in range(n_games):
                result = self._optimize_alone(
                    solver.cost_models[g], customer, load[g], others[g], x0[g], tiny
                )
                assert best_x[g].tobytes() == result.x.tobytes()
                assert best_f[g] == result.fun
                kept += best_x[g].tobytes() == projected[g].tobytes()
            assert kept

    def _inputs(self, community, tariff_name, n_games, config, x0=None):
        """A solver, the battery customer, per-game load and others, a
        start (random in the box unless given) and its projection, which
        must differ from it."""
        from repro.scheduling.batch import LockstepGameSolver

        solver = LockstepGameSolver(
            community,
            _prices(n_games),
            sellback_divisor=1.5,
            config=config,
            tariff=NAMED_TARIFFS[tariff_name],
        )
        customer = community.customers[1]
        rng = np.random.default_rng(8)
        load = customer.base_load_array + rng.uniform(0.0, 1.0, (n_games, HORIZON))
        others = rng.uniform(-1.0, 6.0, (n_games, HORIZON))
        spec = customer.battery
        if x0 is None:
            x0 = rng.uniform(0.0, spec.capacity_kwh, (n_games, HORIZON))
        projected = solver.backend.clamp_decisions(
            x0,
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        assert projected.tobytes() != x0.tobytes()
        return solver, customer, load, others, x0, projected

    @staticmethod
    def _costs(solver, customer, load, others, x0):
        """The per-game bills of battery trajectories ``x0``."""
        return solver.backend.battery_costs(
            x0,
            initial=customer.battery.initial_kwh,
            load=load,
            pv=customer.pv_array,
            others=others,
            buy_rates=solver.buy_rates,
            sell_rates=solver.sell_rates,
            export_cap_kwh=solver.export_cap_kwh,
            multiplicity=2,
        )

    def _check(self, community, tariff_name, n_games, projected_start):
        solver, customer, load, others, x0, projected = self._inputs(
            community, tariff_name, n_games, self.CONFIG
        )
        x0_costs = None
        if projected_start:
            x0 = projected
            x0_costs = self._costs(solver, customer, load, others, x0)
        best_x, best_f = solver._ce_battery(
            customer, load, others, solver.buy_rates, solver.sell_rates, x0, 2, x0_costs
        )
        iterations = set()
        for g in range(n_games):
            result = self._optimize_alone(
                solver.cost_models[g], customer, load[g], others[g], x0[g]
            )
            assert best_x[g].tobytes() == result.x.tobytes()
            assert best_f[g] == result.fun
            iterations.add(result.n_iterations)
        # The batch is only a real test if games leave it at different times.
        assert n_games == 1 or len(iterations) > 1

    def _optimize_alone(self, cost_model, customer, load, others, x0, config=None):
        """One game's CE step through the standalone optimizer, on the
        per-customer generator the game solver seeds."""
        config = config or self.CONFIG
        problem = BatteryProblem(
            load=tuple(load),
            pv=customer.pv,
            others_trading=tuple(others),
            spec=customer.battery,
            cost_model=cost_model,
            multiplicity=2,
        )
        return BatteryOptimizer(
            n_samples=config.ce_samples,
            n_elites=config.ce_elites,
            n_iterations=config.ce_iterations,
            smoothing=config.ce_smoothing,
        ).optimize(
            problem, x0=x0, rng=np.random.default_rng(customer.customer_id + 7919)
        )


class TestCeStart:
    """Each CE step starts from the customer's current battery trajectory.

    The solver's own trajectories are projection outputs: the flat one
    at the initial charge, or a CE best that was accepted.  Projecting
    one again gives the same bits, so the step takes it as it is.  A
    caller's state (``SchedulingGame.best_response``) may leave the box
    or break a rate limit; its start is projected.
    """

    @pytest.mark.parametrize("backend", available_backends())
    def test_smoke_solve_starts_are_fixed_points(self, backend, monkeypatch):
        """Every start a smoke solve hands the CE step is a bitwise fixed
        point of the clamp, and the bill it comes with is the backend's
        cost of that start."""
        from repro.core.presets import smoke_preset
        from repro.data.community import build_community
        from repro.kernels import get_backend
        from repro.scheduling.batch import LockstepGameSolver

        config = smoke_preset()
        community = build_community(config)
        starts = []
        ce_battery = LockstepGameSolver._ce_battery

        def spy(self, customer, load, others, buy, sell, x0, multiplicity, x0_costs=None):
            starts.append(
                (customer, load, others, buy, sell, x0.copy(), multiplicity, x0_costs)
            )
            return ce_battery(
                self, customer, load, others, buy, sell, x0, multiplicity, x0_costs
            )

        monkeypatch.setattr(LockstepGameSolver, "_ce_battery", spy)
        hours = np.arange(HORIZON)
        prices = 0.02 + 0.03 * np.exp(-(((hours - 18) / 3.0) ** 2))
        prices[10:14] = 0.0  # an attack's free window
        solve_games(community, [prices], config=config.game, seed=3, backend=backend)
        # Both kinds of start: the flat initial one and accepted moves.
        assert not all(np.ptp(start[5]) for start in starts)
        assert any(np.ptp(start[5]) for start in starts)
        kernel = get_backend(backend)
        for customer, load, others, buy, sell, x0, multiplicity, x0_costs in starts:
            spec = customer.battery
            projected = kernel.clamp_decisions(
                x0,
                initial=spec.initial_kwh,
                capacity=spec.capacity_kwh,
                max_charge=spec.max_charge_kw,
                max_discharge=spec.max_discharge_kw,
            )
            assert projected.tobytes() == x0.tobytes()
            assert np.clip(x0, 0.0, spec.capacity_kwh).tobytes() == x0.tobytes()
            costs = kernel.battery_costs(
                x0,
                initial=spec.initial_kwh,
                load=load,
                pv=customer.pv_array,
                others=others,
                buy_rates=buy,
                sell_rates=sell,
                export_cap_kwh=None,
                multiplicity=multiplicity,
            )
            assert x0_costs is not None
            assert np.asarray(costs).tobytes() == x0_costs.tobytes()


SEARCH = GameConfig(inner_iterations=2, ce_samples=12, ce_elites=3, ce_iterations=3)
# So few samples that a good start beats every one of them.
TINY = GameConfig(inner_iterations=2, ce_samples=2, ce_elites=1, ce_iterations=1)


def _infeasible_responses(community: Community, backend: str | None):
    """Best responses of the battery customer from made-up trajectories:
    out of the box, past both rate limits, and a good trajectory with two
    slots broken.  Returns ``[(input battery, response)]``."""
    prices = _prices(1)[0]
    customer = community.customers[1]
    others = np.random.default_rng(4).uniform(0.0, 6.0, HORIZON)
    game = SchedulingGame(
        community, prices, sellback_divisor=1.5, config=SEARCH, backend=backend
    )
    schedules = game.initial_state(customer).schedules

    def respond(game, battery, schedules):
        state = CustomerState(
            customer=customer, schedules=schedules, battery_decision=tuple(battery)
        )
        return game.best_response(
            state, others, np.random.default_rng(0), multiplicity=2
        )

    cases = []
    for battery in (
        np.resize([-0.5, 2.5, 0.0, 2.0, 1.0], HORIZON),
        np.resize([1.9, 0.1], HORIZON),
    ):
        cases.append((battery, respond(game, battery, schedules)))
    good = cases[-1][1]
    for _ in range(5):
        good = respond(game, good.battery_decision, good.schedules)
    broken = np.array(good.battery_decision)
    broken[5], broken[11] = 2.5, -0.2
    tiny = SchedulingGame(
        community, prices, sellback_divisor=1.5, config=TINY, backend=backend
    )
    cases.append((broken, respond(tiny, broken, good.schedules)))
    return cases


# SHA-256 of the three responses of ``_infeasible_responses``: battery
# decisions and schedule powers.  Both backends share it.
INFEASIBLE_RESPONSE_DIGEST = (
    "da901aa3cc69ff5eff78fe42f111a6e98382395d75f8d2385d6aa80af5c22789"
)


class TestInfeasibleCallerState:
    @pytest.mark.parametrize("backend", available_backends())
    def test_digest(self, community, backend):
        arrays = []
        for _, response in _infeasible_responses(community, backend):
            arrays.append(response.battery_decision)
            arrays += [schedule.power for schedule in response.schedules]
        assert _sha256(*arrays) == INFEASIBLE_RESPONSE_DIGEST

    def test_winning_start_is_the_projection(self, community):
        """With a near-optimal but broken trajectory the start beats every
        sample, and the accepted move is the start projected."""
        from repro.kernels import get_backend

        battery, response = _infeasible_responses(community, None)[-1]
        spec = community.customers[1].battery
        projected = get_backend(None).clamp_decisions(
            np.clip(battery, 0.0, spec.capacity_kwh),
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        assert np.asarray(response.battery_decision).tobytes() == projected.tobytes()
        assert projected.tobytes() != battery.tobytes()
