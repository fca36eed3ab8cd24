"""Tests for the content-addressed game-solution cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.counters import PERF
from repro.simulation.cache import (
    GameSolutionCache,
    community_fingerprint,
    game_config_fingerprint,
    solution_key,
    solve_context_key,
)
from repro.detection.single_event import CommunityResponseSimulator
from repro.scheduling.game import SchedulingGame
from repro.simulation.scenario import run_long_term_scenario


@pytest.fixture
def prices(small_community):
    return np.linspace(0.01, 0.05, small_community.horizon)


def _solve(community, prices, *, seed=3):
    game = SchedulingGame(community, np.maximum(prices, 0.0))
    return game.solve(rng=np.random.default_rng(seed))


class TestKeys:
    def test_community_fingerprint_stable(self, small_community):
        assert community_fingerprint(small_community) == community_fingerprint(
            small_community
        )

    def test_fingerprint_sees_net_metering(self, small_community):
        stripped = small_community.without_net_metering()
        assert community_fingerprint(stripped) != community_fingerprint(
            small_community
        )

    def test_config_fingerprint_sees_ce_knobs(self, tiny_config):
        base = tiny_config.game
        changed = type(base)(
            max_rounds=base.max_rounds,
            inner_iterations=base.inner_iterations,
            convergence_tol=base.convergence_tol,
            hysteresis=base.hysteresis,
            ce_samples=base.ce_samples + 1,
            ce_elites=base.ce_elites,
            ce_iterations=base.ce_iterations,
            ce_smoothing=base.ce_smoothing,
        )
        assert game_config_fingerprint(base) != game_config_fingerprint(changed)

    def test_context_key_sees_seed_and_divisor(self, small_community, tiny_config):
        base = solve_context_key(
            small_community, tiny_config.game, sellback_divisor=2.0, seed=3
        )
        assert base != solve_context_key(
            small_community, tiny_config.game, sellback_divisor=3.0, seed=3
        )
        assert base != solve_context_key(
            small_community, tiny_config.game, sellback_divisor=2.0, seed=4
        )

    def test_solution_key_rounds_prices(self, prices):
        # Sub-nano-dollar perturbations collapse onto one key, matching
        # the historical per-simulator memoization granularity.
        assert solution_key("ctx", prices) == solution_key("ctx", prices + 1e-12)
        assert solution_key("ctx", prices) != solution_key("ctx", prices + 1e-6)


class TestGameSolutionCache:
    def test_hit_returns_same_object(self, small_community, prices):
        cache = GameSolutionCache()
        first = cache.get_or_solve("k", lambda: _solve(small_community, prices))
        second = cache.get_or_solve(
            "k", lambda: pytest.fail("must not re-solve")
        )
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_perf_counters_exercised(self, small_community, prices):
        cache = GameSolutionCache()
        before_miss = PERF.get("cache.misses")
        before_hit = PERF.get("cache.hits")
        cache.get_or_solve("k", lambda: _solve(small_community, prices))
        cache.get_or_solve("k", lambda: _solve(small_community, prices))
        assert PERF.get("cache.misses") == before_miss + 1
        assert PERF.get("cache.hits") == before_hit + 1

    def test_lru_eviction(self, small_community, prices):
        cache = GameSolutionCache(max_entries=2)
        result = _solve(small_community, prices)
        cache.get_or_solve("a", lambda: result)
        cache.get_or_solve("b", lambda: result)
        cache.get_or_solve("a", lambda: result)  # refresh "a"
        cache.get_or_solve("c", lambda: result)  # evicts "b"
        assert cache.size == 2
        solved = []
        cache.get_or_solve("b", lambda: solved.append(1) or result)
        assert solved  # "b" was evicted and re-solved

    def test_clear_resets(self, small_community, prices):
        cache = GameSolutionCache()
        cache.get_or_solve("k", lambda: _solve(small_community, prices))
        cache.clear()
        assert (cache.size, cache.hits, cache.misses) == (0, 0, 0)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            GameSolutionCache(max_entries=0)


class TestSimulatorSharing:
    def test_two_simulators_share_solutions(self, small_community, prices):
        shared = GameSolutionCache()
        sim_a = CommunityResponseSimulator(small_community, seed=3, cache=shared)
        sim_b = CommunityResponseSimulator(small_community, seed=3, cache=shared)
        first = sim_a.response(prices)
        second = sim_b.response(prices)
        assert second is first
        assert shared.hits == 1
        assert sim_a.cache_size == sim_b.cache_size == 1

    def test_different_seed_does_not_collide(self, small_community, prices):
        shared = GameSolutionCache()
        sim_a = CommunityResponseSimulator(small_community, seed=3, cache=shared)
        sim_b = CommunityResponseSimulator(small_community, seed=4, cache=shared)
        sim_a.response(prices)
        sim_b.response(prices)
        assert shared.misses == 2


class TestScenarioWithCache:
    def test_cached_run_identical_to_cold(self, tiny_config):
        kwargs = dict(detector="aware", n_slots=24, calibration_trials=3, seed=5)
        cold = run_long_term_scenario(tiny_config, cache=GameSolutionCache(), **kwargs)

        warm_cache = GameSolutionCache()
        run_long_term_scenario(tiny_config, cache=warm_cache, **kwargs)
        assert warm_cache.misses > 0
        warm = run_long_term_scenario(tiny_config, cache=warm_cache, **kwargs)
        assert warm_cache.hits > 0

        np.testing.assert_array_equal(cold.truth, warm.truth)
        np.testing.assert_array_equal(cold.flags, warm.flags)
        np.testing.assert_array_equal(cold.realized_grid, warm.realized_grid)
        assert cold.tp_rate == warm.tp_rate
        assert cold.fp_rate == warm.fp_rate
