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


def _population(spec: BatteryConfig, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A CE-style population: finite and clipped to the battery box."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, spec.capacity_kwh + 1.0, size=shape + (HORIZON,))
    return np.clip(raw, 0.0, spec.capacity_kwh)


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
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("shape", [(48,), (5, 48), (3, 16)])
    def test_matches_reference_bitwise(self, backend, spec, shape):
        decisions = _population(spec, shape[:-1], seed=shape[-1])[
            ..., : HORIZON
        ]
        kwargs = dict(
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        ours = backend.clamp_decisions(decisions.copy(), **kwargs)
        ref = REFERENCE.clamp_decisions(decisions.copy(), **kwargs)
        np.testing.assert_array_equal(ours, ref)

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
        spec = SPECS[0]
        decisions = _population(spec, (16,), seed=3)
        kwargs = dict(
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        once = backend.clamp_decisions(decisions, **kwargs)
        twice = backend.clamp_decisions(once.copy(), **kwargs)
        np.testing.assert_array_equal(once, twice)


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
        level_units, required_units, mask = _task_units(
            simple_task, HORIZON, slot_hours=1.0
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
        level_units, required_units, mask = _task_units(
            simple_task, HORIZON, slot_hours=1.0
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
