"""The one world builder: every construction path honours the config.

Every entry point that simulates community responses — the scenario
world, the replay and synthetic engines, fleet specs, checkpoint
resume, the CLI figure environment and the framework facade — builds
its simulators through :func:`repro.simulation.world.response_simulators`.
These tests pin that ``config.solver`` reaches each of them, that the
replay world solves its day-level games in one lockstep prefetch, and
that misspelt detector/policy names fail instead of falling through to
a default.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    SolarConfig,
    SolverConfig,
    TimeGrid,
)
from repro.detection import single_event
from repro.detection.single_event import CommunityResponseSimulator
from repro.simulation.cache import GameSolutionCache

SOLVER = SolverConfig(backend="reference")


@pytest.fixture(scope="module")
def tiny_config() -> CommunityConfig:
    return CommunityConfig(
        n_customers=8,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=24, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        game=GameConfig(
            max_rounds=2,
            inner_iterations=1,
            ce_samples=8,
            ce_elites=2,
            ce_iterations=2,
            convergence_tol=0.1,
        ),
        detection=DetectionConfig(n_monitored_meters=4, hack_probability=0.15),
        seed=11,
    )


@pytest.fixture(scope="module")
def solver_config(tiny_config) -> CommunityConfig:
    return replace(tiny_config, solver=SOLVER)


@pytest.fixture()
def built(monkeypatch) -> list[CommunityResponseSimulator]:
    """Every simulator constructed while the test runs."""
    simulators: list[CommunityResponseSimulator] = []
    original = CommunityResponseSimulator.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        simulators.append(self)

    monkeypatch.setattr(CommunityResponseSimulator, "__init__", spy)
    return simulators


def _world(config):
    from repro.simulation.world import build_world

    build_world(
        config, detector="unaware", n_slots=24, calibration_trials=2,
        cache=GameSolutionCache(),
    )


def _scenario(config):
    from repro.simulation.scenario import run_long_term_scenario

    run_long_term_scenario(
        config, detector="unaware", n_slots=24, calibration_trials=2,
        cache=GameSolutionCache(),
    )


def _replay_engine(config):
    from repro.stream.pipeline import build_replay_engine

    build_replay_engine(
        config, detector="unaware", n_slots=24, calibration_trials=2,
        cache=GameSolutionCache(),
    )


def _synthetic_engine(config):
    from repro.stream.pipeline import build_synthetic_engine

    build_synthetic_engine(
        config, detector="unaware", n_days=1, cache=GameSolutionCache()
    )


def _community_spec(config):
    from repro.fleet.engine import CommunitySpec

    CommunitySpec(
        community_id="c0", config=config, n_days=1, detector="unaware",
        announce_attacks=True,
    ).build_engine(cache=GameSolutionCache())


def _resume(config, built, tmp_path):
    from repro.stream.checkpoint import resume_engine, save_checkpoint
    from repro.stream.pipeline import build_synthetic_engine

    cache = GameSolutionCache()
    engine = build_synthetic_engine(config, detector="unaware", n_days=1, cache=cache)
    engine.run(max_events=3)
    save_checkpoint(engine, tmp_path / "ck.json")
    built.clear()
    resume_engine(tmp_path / "ck.json", cache=cache)


def _cli_environment(config):
    from repro.cli import _Environment

    _Environment(config)


def _framework(config):
    from repro.core.framework import DetectionFramework

    framework = DetectionFramework(config, aware=False).train()
    framework.single_event_detector(framework.sample_day().predicted_prices)


PATHS = {
    "world": _world,
    "scenario": _scenario,
    "replay_engine": _replay_engine,
    "synthetic_engine": _synthetic_engine,
    "community_spec": _community_spec,
    "cli_environment": _cli_environment,
    "framework": _framework,
}


class TestSolverReachesEverySimulator:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_config_solver_reaches_simulators(self, solver_config, built, path):
        PATHS[path](solver_config)
        # The unaware detector's paths build the truth model and the
        # stripped prediction model; both must run the configured solver.
        assert len(built) >= 2
        assert all(sim.solver == SOLVER for sim in built)

    def test_resumed_checkpoint_keeps_solver(self, solver_config, built, tmp_path):
        _resume(solver_config, built, tmp_path)
        assert len(built) >= 2
        assert all(sim.solver == SOLVER for sim in built)


class TestReplayWorldPrefetch:
    def test_day_prices_solved_in_one_lockstep_batch(self, tiny_config, monkeypatch):
        from repro.simulation.world import build_world

        prefetched: list[list[np.ndarray]] = []
        batches: list[int] = []
        prefetch = CommunityResponseSimulator.prefetch
        solve_games = single_event.solve_games

        def spy_prefetch(self, price_vectors):
            vectors = [np.asarray(p, dtype=float) for p in price_vectors]
            prefetched.append(vectors)
            return prefetch(self, vectors)

        def spy_solve_games(community, prices, **kwargs):
            batches.append(len(prices))
            return solve_games(community, prices, **kwargs)

        monkeypatch.setattr(CommunityResponseSimulator, "prefetch", spy_prefetch)
        monkeypatch.setattr(single_event, "solve_games", spy_solve_games)
        world = build_world(
            tiny_config, detector="aware", n_slots=48, calibration_trials=2,
            cache=GameSolutionCache(),
        )
        day_prices = world.day_predicted + world.day_clean_prices
        assert len(prefetched[0]) == len(day_prices) == 4
        for sent, expected in zip(prefetched[0], day_prices):
            assert sent.tobytes() == expected.tobytes()
        # One lockstep solve covers every distinct day-level game.
        assert batches[0] == len({p.tobytes() for p in day_prices})


def test_unknown_detector_or_policy_names_fail_loudly(tiny_config):
    from repro.simulation.scenario import run_long_term_scenario
    from repro.stream.pipeline import build_synthetic_engine

    cases = (
        (
            lambda: run_long_term_scenario(tiny_config, detector="unawre", n_slots=24),
            "unknown detector kind 'unawre'",
        ),
        (
            lambda: run_long_term_scenario(
                tiny_config, detector="none", n_slots=24, policy="pbv1"
            ),
            "unknown policy 'pbv1'",
        ),
        (
            lambda: build_synthetic_engine(tiny_config, detector="Aware", n_days=1),
            "unknown detector kind 'Aware'",
        ),
    )
    for build, match in cases:
        with pytest.raises(ValueError, match=match):
            build()
