"""Stream-vs-batch equivalence: the replay engine must reproduce
``run_long_term_scenario`` bit for bit.

The batch scenario is the replay engine pumped to exhaustion, so this
holds by construction; the tests pin that the checkpointable engine
(``build_replay_engine``) and the batch entry point stay one world and
one loop — one shared RNG interleaved between the hacking process and
the single-event detector's measurement noise.
"""

import numpy as np
import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    SolarConfig,
    TimeGrid,
)
from repro.simulation.cache import GameSolutionCache
from repro.simulation.scenario import run_long_term_scenario
from repro.stream.pipeline import build_replay_engine


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
def cache() -> GameSolutionCache:
    """One cache for the whole module: batch and stream share solves."""
    return GameSolutionCache()


def _assert_bitwise_equal(batch, streamed):
    np.testing.assert_array_equal(batch.truth, streamed.truth)
    np.testing.assert_array_equal(batch.flags, streamed.flags)
    np.testing.assert_array_equal(batch.observations, streamed.observations)
    np.testing.assert_array_equal(batch.repairs, streamed.repairs)
    np.testing.assert_array_equal(batch.repaired_counts, streamed.repaired_counts)
    assert batch.realized_grid.tobytes() == streamed.realized_grid.tobytes()
    assert batch.tp_rate == streamed.tp_rate
    assert batch.fp_rate == streamed.fp_rate


@pytest.mark.parametrize("detector", ["aware", "unaware", "none"])
def test_replay_matches_batch(tiny_config, cache, detector):
    batch = run_long_term_scenario(
        tiny_config, detector=detector, n_slots=48, calibration_trials=5, cache=cache
    )
    engine = build_replay_engine(
        tiny_config, detector=detector, n_slots=48, calibration_trials=5, cache=cache
    )
    engine.run()
    assert engine.exhausted
    _assert_bitwise_equal(batch, engine.result())


def test_replay_matches_batch_pbvi(tiny_config, cache):
    """The PBVI policy path seeds its own generator from the shared one;
    the interleaving must still line up."""
    batch = run_long_term_scenario(
        tiny_config,
        detector="aware",
        n_slots=24,
        policy="pbvi",
        calibration_trials=4,
        cache=cache,
    )
    engine = build_replay_engine(
        tiny_config,
        detector="aware",
        n_slots=24,
        policy="pbvi",
        calibration_trials=4,
        cache=cache,
    )
    engine.run()
    _assert_bitwise_equal(batch, engine.result())


def test_replay_seed_override(tiny_config, cache):
    """An explicit seed flows through identically on both paths."""
    batch = run_long_term_scenario(
        tiny_config, detector="none", n_slots=24, seed=5, cache=cache
    )
    engine = build_replay_engine(
        tiny_config, detector="none", n_slots=24, seed=5, cache=cache
    )
    engine.run()
    _assert_bitwise_equal(batch, engine.result())


def test_stepwise_pumping_equals_bulk_run(tiny_config, cache):
    """Pumping one event at a time is the same stream as run()."""
    bulk = build_replay_engine(
        tiny_config, detector="none", n_slots=24, cache=cache
    )
    bulk.run()
    stepped = build_replay_engine(
        tiny_config, detector="none", n_slots=24, cache=cache
    )
    while not stepped.exhausted:
        stepped.step()
    assert [d.to_dict() for d in bulk.timeline] == [
        d.to_dict() for d in stepped.timeline
    ]
