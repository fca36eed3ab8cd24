"""Tests for the configuration dataclasses."""

import dataclasses
import re

import pytest

from repro.core import config as config_module
from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    ConfigError,
    DetectionConfig,
    GameConfig,
    PricingConfig,
    SolarConfig,
    TimeGrid,
    config_from_dict,
    config_to_dict,
)


class TestTimeGrid:
    def test_defaults(self):
        grid = TimeGrid()
        assert grid.horizon == 24
        assert grid.hours_per_slot == pytest.approx(1.0)

    def test_multi_day(self):
        grid = TimeGrid(slots_per_day=24, n_days=2)
        assert grid.horizon == 48

    def test_subhourly(self):
        grid = TimeGrid(slots_per_day=48)
        assert grid.hours_per_slot == pytest.approx(0.5)

    def test_slot_of_hour(self):
        grid = TimeGrid(slots_per_day=24, n_days=2)
        assert grid.slot_of_hour(0.0) == 0
        assert grid.slot_of_hour(13.5) == 13
        assert grid.slot_of_hour(24.0) == 23  # clamped to last slot
        assert grid.slot_of_hour(1.0, day=1) == 25

    def test_hour_of_slot_roundtrip(self):
        grid = TimeGrid(slots_per_day=24, n_days=2)
        assert grid.hour_of_slot(30) == pytest.approx(6.0)
        assert grid.day_of_slot(30) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(slots_per_day=0)
        with pytest.raises(ConfigError):
            TimeGrid(n_days=0)
        grid = TimeGrid()
        with pytest.raises(ConfigError):
            grid.slot_of_hour(25.0)
        with pytest.raises(ConfigError):
            grid.hour_of_slot(24)
        with pytest.raises(ConfigError):
            grid.slot_of_hour(1.0, day=1)


class TestBatteryConfig:
    def test_defaults_valid(self):
        BatteryConfig()

    def test_initial_within_capacity(self):
        with pytest.raises(ConfigError):
            BatteryConfig(capacity_kwh=1.0, initial_kwh=2.0)

    def test_negative_rates(self):
        with pytest.raises(ConfigError):
            BatteryConfig(max_charge_kw=-1.0)

    def test_zero_capacity_allowed(self):
        spec = BatteryConfig(capacity_kwh=0.0, initial_kwh=0.0)
        assert spec.capacity_kwh == pytest.approx(0.0)


class TestSolarConfig:
    def test_sun_ordering(self):
        with pytest.raises(ConfigError):
            SolarConfig(sunrise_hour=20.0, sunset_hour=6.0)

    def test_negative_peak(self):
        with pytest.raises(ConfigError):
            SolarConfig(peak_kw=-0.5)


class TestPricingConfig:
    def test_w_at_least_one(self):
        with pytest.raises(ConfigError, match="W"):
            PricingConfig(sellback_divisor=0.9)

    def test_nonnegative_fields(self):
        with pytest.raises(ConfigError):
            PricingConfig(base_price=-0.1)
        with pytest.raises(ConfigError):
            PricingConfig(noise_std=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name", ["base_price", "demand_slope", "noise_std", "sellback_divisor"]
    )
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            PricingConfig(**{name: value})
        payload = config_to_dict(CommunityConfig())
        payload["pricing"][name] = value
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            config_from_dict(payload)


class TestGameConfig:
    def test_elite_bound(self):
        with pytest.raises(ConfigError):
            GameConfig(ce_samples=8, ce_elites=9)

    def test_positive_rounds(self):
        with pytest.raises(ConfigError):
            GameConfig(max_rounds=0)

    def test_hysteresis_nonnegative(self):
        with pytest.raises(ConfigError):
            GameConfig(hysteresis=-0.1)


class TestDetectionConfig:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            DetectionConfig(hack_probability=1.5)

    def test_discount_open_interval(self):
        with pytest.raises(ConfigError):
            DetectionConfig(discount=1.0)

    def test_meters_positive(self):
        with pytest.raises(ConfigError):
            DetectionConfig(n_monitored_meters=0)


class TestCommunityConfig:
    def test_defaults(self):
        config = CommunityConfig()
        assert config.n_customers == 500

    def test_appliance_range(self):
        with pytest.raises(ConfigError):
            CommunityConfig(appliances_per_customer=(3, 2))
        with pytest.raises(ConfigError):
            CommunityConfig(appliances_per_customer=(0, 2))

    def test_adoption_bounds(self):
        with pytest.raises(ConfigError):
            CommunityConfig(pv_adoption=1.5)

    def test_with_updates(self):
        config = CommunityConfig()
        updated = config.with_updates(n_customers=10, seed=1)
        assert updated.n_customers == 10
        assert updated.seed == 1
        assert config.n_customers == 500  # original untouched


CONFIG_CLASSES = [
    obj
    for obj in vars(config_module).values()
    if dataclasses.is_dataclass(obj) and obj.__module__ == config_module.__name__
]


# (value, refusal, id) per field type.  Float fields refuse NaN, the
# infinities, strings, ``None`` and integers too large for a float; int
# fields refuse everything that is not an integer.
FIELD_REFUSALS = {
    "float": [
        (float("nan"), "must be finite, got nan", "nan"),
        (float("inf"), "must be finite, got inf", "inf"),
        (float("-inf"), "must be finite, got -inf", "-inf"),
        ("0.1", "must be a real number, got '0.1'", "str"),
        (None, "must be a real number, got None", "None"),
        (10**400, "must be finite, got a number too large for a float", "10**400"),
    ],
    "int": [
        (float("nan"), "must be an integer, got nan", "nan"),
        (float("inf"), "must be an integer, got inf", "inf"),
        (2.5, "must be an integer, got 2.5", "2.5"),
        (True, "must be an integer, got True", "True"),
        ("3", "must be an integer, got '3'", "str"),
        (None, "must be an integer, got None", "None"),
    ],
    "tuple[int, int]": [
        ((4, 8.5), "must be a pair of integers, got (4, 8.5)", "float-pair"),
        ((4,), "must be a pair of integers, got (4,)", "one-int"),
        ("48", "must be a pair of integers, got '48'", "str"),
        (None, "must be a pair of integers, got None", "None"),
    ],
}


@pytest.mark.parametrize(
    "cls, name, value, refusal",
    [
        pytest.param(cls, spec.name, value, refusal, id=f"{cls.__name__}.{spec.name}-{case}")
        for cls in CONFIG_CLASSES
        for spec in dataclasses.fields(cls)
        for value, refusal, case in FIELD_REFUSALS.get(spec.type, ())
    ],
)
def test_non_finite_fields_rejected(cls, name, value, refusal):
    """NaN passes the ordered range checks, and a checkpoint's JSON can
    carry a string, ``null``, a fraction or an integer too large for a
    float, so every float and integer field is checked first."""
    with pytest.raises(ConfigError, match=re.escape(f"{name} {refusal}")):
        cls(**{name: value})


@pytest.mark.parametrize(
    "key, value, refusal",
    [
        pytest.param("game", 5, "GameConfig section must be an object", id="game-int"),
        pytest.param("game", None, "GameConfig section must be an object", id="game-null"),
        pytest.param("n_customers", None, "n_customers must be an integer", id="n_customers-null"),
        pytest.param("n_customers", "12", "n_customers must be an integer", id="n_customers-str"),
        pytest.param("seed", 7.5, "seed must be an integer", id="seed-float"),
        pytest.param(
            "appliances_per_customer", 4, "must be a pair of integers", id="appliances-int"
        ),
    ],
)
def test_config_from_dict_refuses_malformed_values(key, value, refusal):
    """A checkpoint's config is refused with ``ConfigError``, never
    coerced or failed with a bare ``TypeError``."""
    payload = config_to_dict(CommunityConfig())
    payload[key] = value
    with pytest.raises(ConfigError, match=refusal):
        config_from_dict(payload)
