"""Unit tests for the fault-plan model and its parsing grammar."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    BUILTIN_PLANS,
    MAX_HOLD_TICKS,
    FaultPlan,
    FaultPlanError,
    builtin_plan,
    parse_fault_spec,
)


class TestFaultPlanValidation:
    def test_defaults_are_noop(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert plan.is_lossless

    @pytest.mark.parametrize(
        "field",
        [
            "drop_prob",
            "duplicate_prob",
            "reorder_prob",
            "delay_prob",
            "corrupt_prob",
            "stall_prob",
        ],
    )
    def test_probabilities_must_be_in_unit_interval(self, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan(**{field: 1.5})
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan(**{field: -0.1})

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan(seed=-1)

    @pytest.mark.parametrize("field", ["max_delay", "max_stall"])
    def test_hold_bounds_must_be_positive(self, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan(**{field: 0})

    def test_lossless_classification(self):
        assert FaultPlan(duplicate_prob=0.3, stall_prob=0.2).is_lossless
        for lossy in ("drop_prob", "corrupt_prob", "delay_prob", "reorder_prob"):
            assert not FaultPlan(**{lossy: 0.1}).is_lossless

    def test_with_updates_returns_new_validated_plan(self):
        plan = FaultPlan(drop_prob=0.1)
        reseeded = plan.with_updates(seed=7)
        assert reseeded.seed == 7
        assert reseeded.drop_prob == plan.drop_prob
        assert plan.seed == 0  # original untouched
        with pytest.raises(FaultPlanError):
            plan.with_updates(drop_prob=2.0)


class TestFaultPlanSerialization:
    def test_round_trip(self):
        plan = BUILTIN_PLANS["chaos"].with_updates(seed=42)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="drop_probability"):
            FaultPlan.from_dict({"drop_probability": 0.5})

    def test_from_dict_rejects_uncastable_values(self):
        with pytest.raises(FaultPlanError, match="bad fault-plan payload"):
            FaultPlan.from_dict({"drop_prob": "often"})

    @pytest.mark.parametrize("payload", [[], None, "chaos", 3, [{"seed": 1}]])
    def test_from_dict_refuses_non_objects(self, payload):
        with pytest.raises(FaultPlanError, match="expected an object"):
            FaultPlan.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", True),
            ("seed", 2.7),
            ("seed", "3"),
            ("seed", 1e400),
            ("max_delay", 2.0),
            ("max_stall", float("inf")),
            ("max_stall", MAX_HOLD_TICKS + 1),
            ("drop_prob", True),
            ("stall_prob", 10**400),
            ("stall_prob", float("nan")),
            ("corrupt_prob", None),
        ],
    )
    def test_from_dict_coerces_nothing(self, field, value):
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan.from_dict({field: value})

    def test_from_dict_applies_defaults(self):
        plan = FaultPlan.from_dict({"drop_prob": 0.25})
        assert plan == FaultPlan(drop_prob=0.25)


class TestBuiltinPlans:
    def test_every_builtin_is_valid_and_named_consistently(self):
        assert BUILTIN_PLANS["none"].is_noop
        for name, plan in BUILTIN_PLANS.items():
            if name in ("none", "duplicate", "stall"):
                assert plan.is_lossless, name
            else:
                assert not plan.is_lossless, name

    def test_builtin_plan_lookup_and_reseed(self):
        assert builtin_plan("drop") == BUILTIN_PLANS["drop"]
        assert builtin_plan("drop", seed=9).seed == 9

    def test_unknown_builtin_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown builtin"):
            builtin_plan("earthquake")


class TestParseFaultSpec:
    def test_builtin_name(self):
        assert parse_fault_spec("chaos") == BUILTIN_PLANS["chaos"]

    def test_inline_json(self):
        plan = parse_fault_spec('{"drop_prob": 0.2, "seed": 3}')
        assert plan == FaultPlan(drop_prob=0.2, seed=3)

    def test_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"stall_prob": 0.5, "max_stall": 2}))
        assert parse_fault_spec(str(path)) == FaultPlan(stall_prob=0.5, max_stall=2)

    def test_seed_override_wins(self, tmp_path):
        assert parse_fault_spec("chaos", seed=5).seed == 5
        assert parse_fault_spec('{"seed": 1}', seed=5).seed == 5

    def test_rejects_empty_and_unresolvable_specs(self, tmp_path):
        with pytest.raises(FaultPlanError, match="empty"):
            parse_fault_spec("   ")
        with pytest.raises(FaultPlanError, match="neither a builtin"):
            parse_fault_spec(str(tmp_path / "missing.json"))

    def test_rejects_invalid_inline_json(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            parse_fault_spec("{drop_prob: 0.2}")

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(FaultPlanError, match="JSON object"):
            parse_fault_spec(str(path))


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
#: Values a retyped field takes besides random JSON.
nasty = st.sampled_from(
    [float("inf"), float("nan"), -1, 0, 2**64, 10**400, 1e300, 2.7, True, "3", [], {}, None]
)
FIELDS = [spec.name for spec in fields(FaultPlan)]


@st.composite
def payloads(draw):
    """Random JSON, or a builtin plan's dict with fields retyped."""
    if draw(st.booleans()):
        return draw(json_values)
    payload = BUILTIN_PLANS[draw(st.sampled_from(sorted(BUILTIN_PLANS)))].to_dict()
    for name in draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3)):
        payload[name] = draw(st.one_of(nasty, json_values))
    return payload


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=payloads())
def test_from_dict_yields_a_usable_plan_or_fault_plan_error(payload):
    """Fuzzed directly (not only as a ``POST /faults`` body): the only
    outcomes are a plan whose generator draws work, or FaultPlanError."""
    try:
        plan = FaultPlan.from_dict(payload)
    except FaultPlanError:
        return
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    assert 1 <= rng.integers(1, plan.max_delay + 1) <= MAX_HOLD_TICKS
    assert 1 <= rng.integers(1, plan.max_stall + 1) <= MAX_HOLD_TICKS
