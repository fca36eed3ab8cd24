"""The per-slot check in one pass: ``check_meters`` ≡ the per-meter loop.

``SingleEventDetector.check_meters`` hashes each distinct meter row once
and reads each solution's memoized PAR.  It must stay indistinguishable
from the historical composition of public calls — ``prefetch(rows)``
then ``check(row, rng=rng)`` per meter — in its verdicts, in the noise
draws it consumes and in the cache traffic it books.  Prefetching itself
is bitwise-neutral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BatteryConfig, GameConfig, SolverConfig
from repro.detection.single_event import (
    CommunityResponseSimulator,
    SingleEventDetector,
)
from repro.metrics.par import par
from repro.scheduling.game import Community
from repro.simulation.cache import PRICE_DECIMALS, GameSolutionCache
from repro.stream.detectors import IncrementalSingleEvent
from repro.stream.events import MeterReading, PriceUpdate
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=3,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
    convergence_tol=0.05,
)

SOLVERS = {
    "default": SolverConfig(),
}

PREDICTED = np.linspace(0.02, 0.04, HORIZON)
CLEAN = PREDICTED + 0.002
ATTACKED = CLEAN.copy()
ATTACKED[16:18] = 0.0
# Differs from CLEAN only below the solution key's price rounding: other
# bytes, same cache key.
NUDGED = CLEAN.copy()
NUDGED[5] += 10.0 ** -(PRICE_DECIMALS + 3)
SECOND_ATTACK = CLEAN.copy()
SECOND_ATTACK[3:5] = 0.0


@pytest.fixture(scope="module")
def community() -> Community:
    battery = BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    )
    return Community(
        customers=(make_customer(0), make_customer(1, battery=battery, pv_peak=0.8)),
        counts=(3, 3),
    )


def _reading() -> np.ndarray:
    """Repeated rows, a sub-rounding twin, two rows that still need a
    solve (one repeated), and the cached predicted vector."""
    assert NUDGED.tobytes() != CLEAN.tobytes()
    return np.stack(
        [CLEAN, ATTACKED, CLEAN, NUDGED, ATTACKED, SECOND_ATTACK, PREDICTED, CLEAN]
    )


def _detector(community, solver) -> SingleEventDetector:
    """A detector over a fresh cache holding the predicted and clean
    solutions, as a running monitor's would."""
    simulator = CommunityResponseSimulator(
        community, config=FAST, seed=1, cache=GameSolutionCache(), solver=solver
    )
    simulator.response(CLEAN)
    return SingleEventDetector(
        simulator, PREDICTED, threshold=0.05, margin_noise_std=0.03
    )


def _historical(detector, rows, rng):
    detector.simulator.prefetch(rows)
    return [detector.check(row, rng=rng) for row in rows]


def _traffic(detector, run):
    cache = detector.simulator.cache
    hits, misses = cache.hits, cache.misses
    out = run()
    return out, (cache.hits - hits, cache.misses - misses)


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_check_meters_equals_per_meter_loop(community, solver_name):
    solver = SOLVERS[solver_name]
    rows = _reading()
    reference, reference_rng = _detector(community, solver), np.random.default_rng(5)
    expected, expected_traffic = _traffic(
        reference, lambda: _historical(reference, rows, reference_rng)
    )
    detector, rng = _detector(community, solver), np.random.default_rng(5)
    got, traffic = _traffic(detector, lambda: detector.check_meters(rows, rng=rng))

    assert got == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert traffic == expected_traffic
    assert traffic == (len(rows), 2)  # one hit per meter; two new solutions
    assert detector.simulator.cache_size == reference.simulator.cache_size
    for check, row in zip(got, rows):
        demand = detector.simulator.response(row).grid_demand
        assert check.received_par == par(demand)
    assert got[3].received_par == got[0].received_par  # NUDGED shares CLEAN's key


def test_audit_path_observe_checks_matches_the_loop(community):
    """The stream pipeline's audit path collects the same evidence."""
    rows = _reading()
    reference, reference_rng = _detector(community, None), np.random.default_rng(11)
    expected, expected_traffic = _traffic(
        reference, lambda: _historical(reference, rows, reference_rng)
    )

    detector = _detector(community, None)
    stage = IncrementalSingleEvent(
        detector.simulator, threshold=detector.threshold, margin_noise_std=0.03
    )
    stage.start_day(PriceUpdate(day=0, clean_prices=CLEAN, predicted_prices=PREDICTED))
    rng = np.random.default_rng(11)
    reading = MeterReading(slot=3, received=rows)
    checks, traffic = _traffic(detector, lambda: stage.observe_checks(reading, rng=rng))

    assert checks == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert traffic == expected_traffic


def test_prefetch_then_response_matches_unprefetched(community):
    """Batched lockstep prefetching reproduces the sequential solves."""
    vectors = [CLEAN, CLEAN * 1.05, CLEAN * 0.9]
    prefetched = CommunityResponseSimulator(community, config=FAST, seed=3)
    prefetched.prefetch(vectors)
    direct = CommunityResponseSimulator(community, config=FAST, seed=3)
    for p in vectors:
        assert prefetched.response(p) == direct.response(p)
