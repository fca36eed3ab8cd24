"""Tests for the configuration dataclasses."""

import dataclasses

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


@pytest.mark.parametrize(
    "value, refusal",
    [
        pytest.param(float("nan"), "must be finite, got nan", id="nan"),
        pytest.param(float("inf"), "must be finite, got inf", id="inf"),
        pytest.param(float("-inf"), "must be finite, got -inf", id="-inf"),
        pytest.param("0.1", "must be a real number, got '0.1'", id="str"),
        pytest.param(None, "must be a real number, got None", id="None"),
        pytest.param(
            10**400, "must be finite, got a number too large for a float", id="10**400"
        ),
    ],
)
@pytest.mark.parametrize(
    "cls, name",
    [
        pytest.param(cls, spec.name, id=f"{cls.__name__}.{spec.name}")
        for cls in CONFIG_CLASSES
        for spec in dataclasses.fields(cls)
        if isinstance(spec.default, float)
    ],
)
def test_non_finite_fields_rejected(cls, name, value, refusal):
    """NaN passes the ordered range checks, and a checkpoint's JSON can
    carry a string, ``null`` or an integer too large for a float, so
    every float field is checked first."""
    with pytest.raises(ConfigError, match=f"{name} {refusal}"):
        cls(**{name: value})
