"""Tests for the game equilibrium diagnostics."""

import numpy as np
import pytest

from repro.core.config import GameConfig
from repro.scheduling.diagnostics import (
    NashGapReport,
    cost_breakdown,
    equilibrium_quality,
    nash_gap,
)
from repro.scheduling.game import Community, SchedulingGame
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=4,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
    convergence_tol=0.05,
)


@pytest.fixture(scope="module")
def solved_game():
    community = Community(
        customers=(make_customer(0), make_customer(1)), counts=(4, 4)
    )
    game = SchedulingGame(community, np.full(HORIZON, 0.03), config=FAST)
    return game, game.solve(rng=np.random.default_rng(0))


class TestNashGapReport:
    def test_max_gap(self):
        report = NashGapReport(
            per_customer_gap=(0.1, 0.5, 0.0), per_customer_cost=(10.0, 5.0, 1.0)
        )
        assert report.max_gap == pytest.approx(0.5)
        assert report.max_relative_gap == pytest.approx(0.1)


class TestNashGap:
    def test_gaps_nonnegative(self, solved_game):
        game, result = solved_game
        report = nash_gap(game, result)
        assert len(report.per_customer_gap) == len(result.states)
        assert all(g >= 0.0 for g in report.per_customer_gap)

    def test_converged_solution_has_small_relative_gap(self, solved_game):
        """The annealed loop terminates at an epsilon-equilibrium with
        epsilon a small fraction of each customer's bill."""
        game, result = solved_game
        report = nash_gap(game, result)
        assert report.max_relative_gap < 0.2

    def test_initial_state_has_larger_gap(self, solved_game):
        """The greedy initial state is further from equilibrium than the
        solution."""
        game, result = solved_game
        from repro.scheduling.game import GameResult

        initial = GameResult(
            states=tuple(
                game.initial_state(c) for c in game.community.customers
            ),
            counts=result.counts,
            rounds=0,
            converged=False,
        )
        gap_initial = nash_gap(game, initial).max_gap
        gap_solved = nash_gap(game, result).max_gap
        assert gap_solved <= gap_initial + 1e-9


class TestCostBreakdown:
    def test_one_cost_per_archetype(self, solved_game):
        game, result = solved_game
        costs = cost_breakdown(game, result)
        assert len(costs) == len(result.states)
        # all customers buy energy at positive prices
        assert all(c > 0 for c in costs)


class TestEquilibriumQuality:
    def test_solved_game_passes(self, solved_game):
        game, result = solved_game
        assert equilibrium_quality(game, result)
