"""Bitwise backend-equivalence suite for the kernel layer.

Every backend registered in :mod:`repro.kernels` must reproduce the
reference backend bit for bit on the inputs the pipeline produces —
that is the contract that lets ``SolverConfig.backend`` switch
implementations without perturbing golden-master results.  These tests
drive each registered backend over CE-style battery populations and
appliance DP tables and assert exact equality, both against the
reference backend and against the pre-kernel historical implementations
(``clamp_trajectory_batch``, ``BatteryProblem.cost_batch``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BatteryConfig
from repro.kernels import (
    ENV_VAR,
    KernelBackend,
    available_backends,
    get_backend,
)
from repro.kernels.fused import _SWEEP_MAX_ROWS, _sweep_clamp
from repro.netmetering.battery import clamp_trajectory_batch
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryProblem
from repro.tariffs import TariffCostModel
from repro.scheduling.dp import (
    _task_units,
    schedule_appliance_table,
    schedule_appliance_tables,
)
from tests.conftest import HORIZON, make_customer

REFERENCE = get_backend("reference")

SPECS = [
    BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    ),
    BatteryConfig(
        capacity_kwh=1.5, initial_kwh=0.2, max_charge_kw=0.4, max_discharge_kw=0.6
    ),
]


# A battery that can neither charge nor discharge: every projection
# output is the flat trajectory at the initial charge.
ZERO_RATES = BatteryConfig(
    capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=0.0, max_discharge_kw=0.0
)


def _population(spec: BatteryConfig, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A CE-style population: finite and clipped to the battery box."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, spec.capacity_kwh + 1.0, size=shape + (HORIZON,))
    return np.clip(raw, 0.0, spec.capacity_kwh)


def _clamp_kwargs(spec: BatteryConfig) -> dict:
    return dict(
        initial=spec.initial_kwh,
        capacity=spec.capacity_kwh,
        max_charge=spec.max_charge_kw,
        max_discharge=spec.max_discharge_kw,
    )


def _edge_rows(spec: BatteryConfig) -> np.ndarray:
    """Rows on the projection's bounds: 0, the capacity, a charge from
    the initial level at exactly ``prev + rate`` up to the capacity and a
    discharge at exactly ``prev - rate`` down to 0, and signed zeros."""
    cap, up, down = spec.capacity_kwh, spec.max_charge_kw, spec.max_discharge_kw
    charge, discharge = [spec.initial_kwh], [spec.initial_kwh]
    for _ in range(HORIZON):
        charge.append(min(charge[-1] + up, cap))
        discharge.append(max(discharge[-1] - down, 0.0))
    alternating = np.resize([0.0, -0.0, cap], HORIZON)
    return np.array(
        [
            np.zeros(HORIZON),
            np.full(HORIZON, -0.0),
            np.full(HORIZON, cap),
            charge[1:],
            discharge[1:],
            alternating,
            np.resize([-0.0, cap], HORIZON),
        ]
    )


def _signed_zero_population(
    rng: np.random.Generator, n_rows: int
) -> tuple[np.ndarray, dict]:
    """Rows within the clamp's precondition but dense in both zeros: each
    entry is 0.0, -0.0, the capacity or a uniform draw, on a random
    battery whose initial charge and rates are zero half the time."""
    capacity = float(rng.uniform(0.5, 3.0))
    picks = rng.choice(4, p=[0.3, 0.3, 0.1, 0.3], size=(n_rows, HORIZON))
    draws = rng.uniform(0.0, capacity, size=(n_rows, HORIZON))
    rows = np.choose(
        picks, [np.zeros_like(draws), np.full_like(draws, -0.0), np.full_like(draws, capacity), draws]
    )
    kwargs = dict(
        initial=float(rng.choice([0.0, rng.uniform(0.0, capacity)])),
        capacity=capacity,
        max_charge=float(rng.choice([0.0, rng.uniform(0.1, capacity)])),
        max_discharge=float(rng.choice([0.0, rng.uniform(0.1, capacity)])),
    )
    return rows, kwargs


def _saw_tooth(n_rows: int) -> tuple[BatteryConfig, np.ndarray]:
    """Rows alternating between full and empty under slow rates, so the
    projection binds at every slot and its chain spans the horizon."""
    spec = BatteryConfig(
        capacity_kwh=2.0, initial_kwh=1.0, max_charge_kw=0.1, max_discharge_kw=0.15
    )
    # The trajectory stays within 0.4-1.1 kWh, so every high value in
    # [1.5, 2] and every low one in [0, 0.5] binds; rows alternate phase.
    high = np.linspace(1.5, spec.capacity_kwh, n_rows)[:, None]
    low = np.linspace(0.0, 0.5, n_rows)[:, None]
    phase = (np.arange(n_rows)[:, None] + np.arange(HORIZON)[None, :]) % 2
    return spec, np.where(phase == 0, high, low)


@pytest.fixture(params=available_backends())
def backend(request) -> KernelBackend:
    return get_backend(request.param)


class TestRegistry:
    def test_reference_and_fused_always_registered(self):
        names = available_backends()
        assert "reference" in names
        assert "fused" in names

    def test_backends_satisfy_protocol(self, backend):
        assert isinstance(backend, KernelBackend)

    def test_get_backend_passes_instances_through(self, backend):
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("not-a-backend")

    def test_auto_honours_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert get_backend("auto").name == "reference"
        assert get_backend(None).name == "reference"

    def test_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("auto")


class TestClampDecisions:
    @pytest.mark.parametrize("spec", SPECS + [ZERO_RATES])
    @pytest.mark.parametrize(
        "shape",
        [(48,), (5, 48), (3, 16), (16, 1), (40, 2), (64, 3), (65, 4), (544, 5)],
    )
    def test_matches_reference_bitwise(self, backend, spec, shape):
        """Populations of any size: one-game CE steps (16 and 40 rows),
        lockstep batches (544), and both sides of the fused clamp's
        64-row switch.  The last entry of ``shape`` seeds the draw."""
        decisions = _population(spec, shape[:-1], seed=shape[-1])[
            ..., : HORIZON
        ]
        kwargs = _clamp_kwargs(spec)
        ours = backend.clamp_decisions(decisions.copy(), **kwargs)
        ref = REFERENCE.clamp_decisions(decisions.copy(), **kwargs)
        assert ours.tobytes() == ref.tobytes()

    def test_negative_zero_input_clamps_to_zero(self, backend):
        """An input ``-0.0`` comes out ``0.0``, as the reference's
        ``max(0, prev - d)`` bound makes it."""
        got = backend.clamp_decisions(
            np.array([[0.2, -0.0, 0.3]]),
            initial=0.5,
            capacity=1.0,
            max_charge=1.0,
            max_discharge=1.0,
        )
        assert got.tobytes() == np.array([[0.2, 0.0, 0.3]]).tobytes()

    @pytest.mark.parametrize("n_rows", [1, 16, 64, 65, 544])
    def test_signed_zero_populations_match_reference_bitwise(self, backend, n_rows):
        """Fifty populations dense in ``±0.0`` per size, on both sides of
        the fused clamp's 64-row switch."""
        rng = np.random.default_rng(n_rows)
        for _ in range(50):
            rows, kwargs = _signed_zero_population(rng, n_rows)
            assert np.any(np.signbit(rows) & (rows >= 0.0))
            ours = backend.clamp_decisions(rows.copy(), **kwargs)
            ref = REFERENCE.clamp_decisions(rows.copy(), **kwargs)
            assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_historical_clamp(self, backend, spec):
        decisions = _population(spec, (32,), seed=7)
        ours = backend.clamp_decisions(
            decisions.copy(),
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        b0 = np.full((decisions.shape[0], 1), spec.initial_kwh)
        historical = clamp_trajectory_batch(
            np.hstack([b0, decisions]), spec, slot_hours=1.0
        )[:, 1:]
        np.testing.assert_array_equal(ours, historical)

    def test_projection_is_idempotent(self, backend):
        """A projection output is a bitwise fixed point: the game solver
        starts each CE step from one without projecting it again."""
        for spec in SPECS + [ZERO_RATES]:
            decisions = np.vstack(
                [_population(spec, (16,), seed=3), _edge_rows(spec)]
            )
            kwargs = _clamp_kwargs(spec)
            once = backend.clamp_decisions(decisions, **kwargs)
            twice = backend.clamp_decisions(once.copy(), **kwargs)
            assert twice.tobytes() == once.tobytes()
            # The CE start clips before projecting: a no-op on an output.
            clipped = np.clip(once, 0.0, spec.capacity_kwh)
            assert clipped.tobytes() == once.tobytes()

    def test_edge_rows_reach_every_bound(self):
        """The idempotence inputs sit on 0, the capacity and both rate
        bounds, and carry both zeros."""
        spec = SPECS[0]
        rows = _edge_rows(spec)
        once = REFERENCE.clamp_decisions(rows, **_clamp_kwargs(spec))
        full = np.hstack([np.full((rows.shape[0], 1), spec.initial_kwh), once])
        step = np.diff(full, axis=1)
        assert not once.all() and np.any(once == spec.capacity_kwh)
        assert np.any(step == spec.max_charge_kw)
        assert np.any(step == -spec.max_discharge_kw)
        negative_zero = np.signbit(rows) & (rows >= 0.0)
        assert np.any(negative_zero)

    @pytest.mark.parametrize("n_rows", [1, 16, 40, 65, 544])
    def test_saw_tooth_needs_every_sweep(self, n_rows):
        """A chain that binds a rate limit at every slot: the fused clamp
        still equals the reference, and its sweeps, which fix one more
        slot each, take all ``H`` plus the one that changes nothing."""
        spec, rows = _saw_tooth(n_rows)
        kwargs = _clamp_kwargs(spec)
        ref = REFERENCE.clamp_decisions(rows.copy(), **kwargs)
        full = np.hstack([np.full((n_rows, 1), spec.initial_kwh), ref])
        assert np.all(np.abs(np.diff(full, axis=1)) > 0.0)
        fused = get_backend("fused").clamp_decisions(rows.copy(), **kwargs)
        assert fused.tobytes() == ref.tobytes()
        swept, sweeps = _sweep_clamp(
            rows, spec.initial_kwh, spec.max_charge_kw, spec.max_discharge_kw
        )
        assert swept.tobytes() == ref.tobytes()
        assert sweeps == HORIZON + 1

    @pytest.mark.parametrize("n_rows", [1, 16, 65])
    def test_sweeps_match_slot_steps_on_any_input(self, n_rows):
        """The two ways of the fused clamp agree bit for bit beyond the
        pipeline's inputs too: signed zeros, values outside the box,
        infinities and NaN, on a battery with zero rates as well."""
        rng = np.random.default_rng(n_rows)
        rows = rng.choice(
            [0.0, -0.0, 0.5, 2.0, -1.0, 3.0, np.inf, -np.inf, np.nan],
            size=(n_rows, HORIZON),
        )
        fused = get_backend("fused")
        for spec in SPECS + [ZERO_RATES]:
            swept, sweeps = _sweep_clamp(
                rows, spec.initial_kwh, spec.max_charge_kw, spec.max_discharge_kw
            )
            # A population above the switch steps slot by slot.
            stacked = np.vstack([rows] * (_SWEEP_MAX_ROWS // n_rows + 1))
            stepped = fused.clamp_decisions(stacked, **_clamp_kwargs(spec))
            assert stepped.shape[0] > _SWEEP_MAX_ROWS
            assert swept.tobytes() == stepped[:n_rows].tobytes()
            assert sweeps <= HORIZON + 1


# Cost models whose rates exercise the sell branch's sign and the
# export cap; each maps the guideline prices to one model.
RATE_MODELS = {
    "paper_literal": lambda p: NetMeteringCostModel(
        prices=p, sellback_divisor=2.0, paper_literal=True
    ),
    "capped": lambda p: TariffCostModel(
        buy_rates=p, sell_rates=tuple(0.75 * v for v in p), export_cap_kwh=0.25
    ),
    "capped_paper_literal": lambda p: TariffCostModel(
        buy_rates=p,
        sell_rates=tuple(0.75 * v for v in p),
        export_cap_kwh=0.25,
        paper_literal=True,
    ),
}


class TestBatteryCosts:
    def _problem(
        self, spec: BatteryConfig, seed: int, model=None
    ) -> BatteryProblem:
        rng = np.random.default_rng(seed)
        prices = tuple(rng.uniform(0.01, 0.05, HORIZON))
        return BatteryProblem(
            load=tuple(rng.uniform(0.2, 1.2, HORIZON)),
            pv=tuple(rng.uniform(0.0, 0.6, HORIZON)),
            others_trading=tuple(rng.uniform(-0.5, 2.0, HORIZON)),
            spec=spec,
            cost_model=(
                NetMeteringCostModel(prices=prices, sellback_divisor=2.0)
                if model is None
                else model(prices)
            ),
            multiplicity=3,
        )

    @staticmethod
    def _kwargs(problem: BatteryProblem) -> dict:
        buy, sell, cap = problem.cost_model.rates
        return dict(
            initial=problem.spec.initial_kwh,
            load=np.asarray(problem.load),
            pv=np.asarray(problem.pv),
            others=np.asarray(problem.others_trading),
            buy_rates=buy,
            sell_rates=sell,
            export_cap_kwh=cap,
            multiplicity=problem.multiplicity,
        )

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_reference_bitwise(self, backend, spec):
        problem = self._problem(spec, seed=11)
        decisions = problem.project_batch(_population(spec, (24,), seed=5))
        kwargs = self._kwargs(problem)
        np.testing.assert_array_equal(
            backend.battery_costs(decisions, **kwargs),
            REFERENCE.battery_costs(decisions, **kwargs),
        )

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_historical_cost_batch(self, backend, spec):
        problem = self._problem(spec, seed=13)
        decisions = problem.project_batch(_population(spec, (24,), seed=9))
        ours = backend.battery_costs(decisions, **self._kwargs(problem))
        np.testing.assert_array_equal(ours, problem.cost_batch(decisions))

    @pytest.mark.parametrize("model", sorted(RATE_MODELS))
    @pytest.mark.parametrize("spec", SPECS)
    def test_signed_and_capped_rates_match_reference(self, backend, spec, model):
        """Negative sell rates and a binding export cap, grouped rows too."""
        problem = self._problem(spec, seed=17, model=RATE_MODELS[model])
        decisions = problem.project_batch(_population(spec, (24,), seed=3))
        kwargs = self._kwargs(problem)
        ours = backend.battery_costs(decisions, **kwargs)
        reference = REFERENCE.battery_costs(decisions, **kwargs)
        np.testing.assert_array_equal(ours, reference)
        np.testing.assert_array_equal(ours, problem.cost_batch(decisions))
        grouped = decisions.reshape(4, 6, HORIZON)
        np.testing.assert_array_equal(
            backend.battery_costs(grouped, **kwargs), ours.reshape(4, 6)
        )


def _adversarial_case(kind: str, n_games: int) -> tuple:
    """``(tables, level_units, n_states, mask)`` built to break a
    vectorized recursion that is only approximately the reference one."""
    rng = np.random.default_rng(len(kind) * 10 + n_games)
    level_units = np.array([0, 1, 2, 4])
    n_states = 9
    mask = np.zeros(HORIZON, dtype=bool)
    mask[2:6] = mask[9:13] = mask[18:] = True  # a gapped window
    shape = (n_games, HORIZON, level_units.size)
    if kind == "ties":
        # Few distinct values: exact ties across levels everywhere.
        tables = rng.integers(0, 3, size=shape).astype(float)
    elif kind == "signed_zeros":
        tables = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
    elif kind == "zero_idle":
        # The game's tables: idling is exactly free.
        tables = rng.integers(0, 4, size=shape) * 0.25
        tables[:, :, 0] = 0.0
    elif kind == "unreachable":
        # Two slots of levels 2 and 3 units: states 1 and 7-8 stay at inf.
        level_units = np.array([0, 2, 3])
        mask = np.zeros(HORIZON, dtype=bool)
        mask[[4, 11]] = True
        tables = rng.choice([0.0, -0.0, 1.0], size=shape[:2] + (3,))
    elif kind == "wide_level":
        # Level units at and beyond the state count reach no state.
        level_units = np.array([0, 1, 3, n_states, n_states + 2])
        tables = rng.choice([0.0, -0.0, 0.5], size=shape[:2] + (5,))
    else:
        # Slots of all-equal costs, signed zeros mixed in.
        tables = np.repeat(
            rng.choice([0.0, -0.0, 2.0], size=shape[:2] + (1,)), 4, axis=2
        )
    return tables, level_units, n_states, mask


class TestApplianceDp:
    def _table(self, task, n_games: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(
            0.0, 1.0, size=(n_games, HORIZON, len(task.power_levels))
        )

    def test_dp_backward_matches_reference(self, backend, simple_task):
        """One game's table through the batch kernel, against the
        reference recursion."""
        tables = self._table(simple_task, 1, seed=21)
        level_units, required_units, mask, _, _ = _task_units(
            simple_task, HORIZON, 1.0
        )
        n_states = required_units + 1
        values, choices = backend.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        ref_values, ref_choices = REFERENCE.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(choices, ref_choices)

    def test_dp_backward_batch_rows_match_single(self, backend, simple_task):
        tables = self._table(simple_task, 4, seed=22)
        level_units, required_units, mask, _, _ = _task_units(
            simple_task, HORIZON, 1.0
        )
        n_states = required_units + 1
        values, choices = backend.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        for g in range(tables.shape[0]):
            [value], [choice] = backend.dp_backward_batch(
                tables[g : g + 1], level_units, n_states, mask
            )
            np.testing.assert_array_equal(values[g], value)
            np.testing.assert_array_equal(choices[g], choice)

    def test_schedule_identical_across_backends(self, backend, simple_task):
        table = self._table(simple_task, 1, seed=23)[0]
        ours, ours_diag = schedule_appliance_table(
            simple_task, table, backend=backend
        )
        ref, ref_diag = schedule_appliance_table(
            simple_task, table, backend=REFERENCE
        )
        assert ours.power == ref.power
        assert ours_diag.optimal_cost == ref_diag.optimal_cost

    def test_batched_schedules_match_loop(self, backend, simple_task):
        tables = self._table(simple_task, 3, seed=24)
        schedules, costs = schedule_appliance_tables(
            simple_task, tables, backend=backend
        )
        for g, (schedule, cost) in enumerate(zip(schedules, costs)):
            single, diag = schedule_appliance_table(
                simple_task, tables[g], backend=backend
            )
            assert schedule.power == single.power
            assert cost == diag.optimal_cost

    @pytest.mark.parametrize("n_games", [1, 5])
    @pytest.mark.parametrize(
        "kind",
        ["ties", "signed_zeros", "zero_idle", "unreachable", "wide_level", "flat_slots"],
    )
    def test_adversarial_tables_match_reference_bytes(
        self, backend, kind, n_games
    ):
        """Where a rewrite of the recursion would slip: exact ties (the
        first level wins), signed zeros (``-0.0 < 0.0`` is false),
        unreachable states and levels wider than the state space."""
        tables, level_units, n_states, mask = _adversarial_case(kind, n_games)
        values, choices = backend.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        ref_values, ref_choices = REFERENCE.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        assert values.tobytes() == ref_values.tobytes()
        assert choices.dtype == ref_choices.dtype
        np.testing.assert_array_equal(choices, ref_choices)

    def test_unreachable_states_keep_choice_zero(self, backend):
        tables, level_units, n_states, mask = _adversarial_case("unreachable", 5)
        values, choices = backend.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        assert np.isinf(values).any() and np.isfinite(values).any()
        np.testing.assert_array_equal(choices[:, :, 1], 0)


class TestEndToEndGameEquivalence:
    """A full game solve must not depend on the backend choice."""

    def test_game_solve_backend_invariant(self):
        from repro.core.config import GameConfig
        from repro.scheduling.game import Community, SchedulingGame

        community = Community(
            customers=(
                make_customer(0),
                make_customer(1, battery=SPECS[0], pv_peak=0.8),
            ),
            counts=(2, 2),
        )
        prices = np.linspace(0.01, 0.05, HORIZON)
        config = GameConfig(
            max_rounds=3, inner_iterations=1, ce_samples=12, ce_elites=3,
            ce_iterations=3,
        )
        results = [
            SchedulingGame(
                community, prices, sellback_divisor=2.0, config=config,
                backend=name,
            ).solve(rng=np.random.default_rng(0))  # repro: noqa[SEED003] same stream per backend: the equivalence oracle
            for name in available_backends()
        ]
        first = results[0]
        for other in results[1:]:
            assert other.rounds == first.rounds
            assert other.residuals == first.residuals
            for state_a, state_b in zip(first.states, other.states):
                assert state_a.battery_decision == state_b.battery_decision
                for sched_a, sched_b in zip(state_a.schedules, state_b.schedules):
                    assert sched_a.power == sched_b.power
