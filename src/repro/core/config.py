"""Configuration dataclasses shared across the package.

All simulation-scale knobs live here so that the paper's experiments, the
test suite and the benchmark harness can share one validated vocabulary.
Every dataclass is immutable; derived quantities are exposed as properties.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, TypeVar

if TYPE_CHECKING:
    from _typeshed import DataclassInstance

    from repro.tariffs.base import Tariff


class ConfigError(ValueError):
    """Raised when a configuration dataclass is constructed inconsistently."""


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_typed(config: Any) -> None:
    """Refuse anything but a finite real number in every ``float`` field
    and anything but an integer in every ``int`` field.

    NaN passes every ordered comparison in the range checks, and JSON
    checkpoints can carry NaN and Infinity literals, strings, ``null``,
    booleans, fractions and integers too large for a float.  Field types
    are compared as strings: this module's annotations are postponed.
    """
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.type == "int" and not _is_integer(value):
            raise ConfigError(f"{spec.name} must be an integer, got {value!r}")
        if spec.type == "tuple[int, int]" and not (
            isinstance(value, tuple) and len(value) == 2 and all(map(_is_integer, value))
        ):
            raise ConfigError(
                f"{spec.name} must be a pair of integers, got {value!r}"
            )
        if spec.type == "float":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(
                    f"{spec.name} must be a real number, got {value!r}"
                )
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ConfigError(
                    f"{spec.name} must be finite, got a number too large for a float"
                ) from None
            if not finite:
                raise ConfigError(f"{spec.name} must be finite, got {value}")


_Section = TypeVar("_Section", bound="DataclassInstance")


def _section(cls: type[_Section], data: Any) -> _Section:
    """Build one config section, refusing a section that is not an
    object and keys its dataclass lacks."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} section must be an object, got {data!r}")
    known = {spec.name for spec in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{cls.__name__} has no field {key!r}")
    return cls(**data)


@dataclass(frozen=True)
class TimeGrid:
    """Discretization of the scheduling horizon.

    The paper divides each day into ``H`` time slots (H = 24, hourly) and
    runs the long-term detector over multiple days (48 slots in Fig. 6).

    Parameters
    ----------
    slots_per_day:
        Number of scheduling slots per day (the paper's ``H``).
    n_days:
        Number of days in the simulated horizon.
    """

    slots_per_day: int = 24
    n_days: int = 1

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.slots_per_day < 1:
            raise ConfigError(f"slots_per_day must be >= 1, got {self.slots_per_day}")
        if self.n_days < 1:
            raise ConfigError(f"n_days must be >= 1, got {self.n_days}")

    @property
    def horizon(self) -> int:
        """Total number of slots across the whole horizon."""
        return self.slots_per_day * self.n_days

    @property
    def hours_per_slot(self) -> float:
        """Duration of one slot in hours (slots are assumed to tile a day)."""
        return 24.0 / self.slots_per_day

    def slot_of_hour(self, hour: float, day: int = 0) -> int:
        """Map an hour-of-day (0-24) on ``day`` to a global slot index."""
        if not 0.0 <= hour <= 24.0:
            raise ConfigError(f"hour must be in [0, 24], got {hour}")
        if not 0 <= day < self.n_days:
            raise ConfigError(f"day must be in [0, {self.n_days}), got {day}")
        slot = int(hour / self.hours_per_slot)
        slot = min(slot, self.slots_per_day - 1)
        return day * self.slots_per_day + slot

    def hour_of_slot(self, slot: int) -> float:
        """Hour-of-day (start of slot) for a global slot index."""
        if not 0 <= slot < self.horizon:
            raise ConfigError(f"slot must be in [0, {self.horizon}), got {slot}")
        return (slot % self.slots_per_day) * self.hours_per_slot

    def day_of_slot(self, slot: int) -> int:
        """Day index of a global slot index."""
        if not 0 <= slot < self.horizon:
            raise ConfigError(f"slot must be in [0, {self.horizon}), got {slot}")
        return slot // self.slots_per_day


@dataclass(frozen=True)
class BatteryConfig:
    """Home battery parameters (Section 2.2 of the paper).

    The battery stores residual PV energy for later use or sale.  Storage at
    slot ``h`` is bounded by ``0 <= b <= capacity_kwh`` and evolves by the
    paper's Eqn. (1).
    """

    capacity_kwh: float = 4.0
    initial_kwh: float = 0.0
    max_charge_kw: float = 1.0
    max_discharge_kw: float = 1.0

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.capacity_kwh < 0:
            raise ConfigError(f"capacity_kwh must be >= 0, got {self.capacity_kwh}")
        if not 0 <= self.initial_kwh <= max(self.capacity_kwh, 0):
            raise ConfigError(
                f"initial_kwh must be in [0, {self.capacity_kwh}], got {self.initial_kwh}"
            )
        if self.max_charge_kw < 0 or self.max_discharge_kw < 0:
            raise ConfigError("charge/discharge rates must be >= 0")


@dataclass(frozen=True)
class SolarConfig:
    """Per-customer PV generation model parameters.

    Generation follows a clear-sky bell curve scaled by ``peak_kw`` with
    multiplicative cloud attenuation (mean-reverting noise).
    """

    peak_kw: float = 0.5
    sunrise_hour: float = 6.0
    sunset_hour: float = 19.0
    cloud_volatility: float = 0.15
    cloud_reversion: float = 0.5

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.peak_kw < 0:
            raise ConfigError(f"peak_kw must be >= 0, got {self.peak_kw}")
        if not 0 <= self.sunrise_hour < self.sunset_hour <= 24:
            raise ConfigError(
                "need 0 <= sunrise_hour < sunset_hour <= 24, got "
                f"({self.sunrise_hour}, {self.sunset_hour})"
            )
        if self.cloud_volatility < 0:
            raise ConfigError("cloud_volatility must be >= 0")
        if not 0 <= self.cloud_reversion <= 1:
            raise ConfigError("cloud_reversion must be in [0, 1]")


@dataclass(frozen=True)
class PricingConfig:
    """Utility guideline-pricing model.

    The utility designs the guideline price from the anticipated *net*
    community demand: ``p_h = base + slope * net_demand_h + noise``.  The
    quadratic billing model of Eqn. (2) then charges the community
    ``p_h * (sum_n y_n)^2`` and pays ``p_h / sellback_divisor`` for energy
    sold back to the grid (the paper's ``W``).
    """

    base_price: float = 0.010
    demand_slope: float = 0.038
    noise_std: float = 0.0015
    sellback_divisor: float = 1.5

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.base_price < 0:
            raise ConfigError(f"base_price must be >= 0, got {self.base_price}")
        if self.demand_slope < 0:
            raise ConfigError(f"demand_slope must be >= 0, got {self.demand_slope}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.sellback_divisor < 1:
            raise ConfigError(
                f"sellback_divisor (the paper's W) must be >= 1, got {self.sellback_divisor}"
            )


@dataclass(frozen=True)
class GameConfig:
    """Convergence controls for the energy-consumption scheduling game.

    ``hysteresis`` is the cost improvement -- as a fraction of the
    customer's total daily bill -- a best response must offer before a
    customer abandons its current schedule; the game loop anneals it
    upward round by round.  It suppresses tie-flipping between near-equal
    slots, the classic limit-cycle mode of discrete best-response
    dynamics.
    """

    max_rounds: int = 8
    inner_iterations: int = 2
    convergence_tol: float = 1e-2
    hysteresis: float = 0.002
    ce_samples: int = 48
    ce_elites: int = 8
    ce_iterations: int = 12
    ce_smoothing: float = 0.7

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.inner_iterations < 1:
            raise ConfigError("inner_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ConfigError("convergence_tol must be > 0")
        if self.hysteresis < 0:
            raise ConfigError("hysteresis must be >= 0")
        if self.ce_samples < 2:
            raise ConfigError("ce_samples must be >= 2")
        if not 1 <= self.ce_elites <= self.ce_samples:
            raise ConfigError("need 1 <= ce_elites <= ce_samples")
        if self.ce_iterations < 1:
            raise ConfigError("ce_iterations must be >= 1")
        if not 0 < self.ce_smoothing <= 1:
            raise ConfigError("ce_smoothing must be in (0, 1]")


@dataclass(frozen=True)
class DetectionConfig:
    """Detection-layer parameters.

    ``par_threshold`` is the paper's ``delta_P``: a cyberattack is reported
    when the received-price PAR exceeds the predicted-price PAR by more than
    this margin.  The POMDP layer parameters describe meter hacking dynamics
    and repair economics.
    """

    par_threshold: float = 0.10
    margin_noise_std: float = 0.03
    hack_probability: float = 0.08
    damage_per_meter: float = 1.0
    repair_fixed_cost: float = 2.0
    repair_cost_per_meter: float = 1.0
    discount: float = 0.92
    n_monitored_meters: int = 12

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.par_threshold < 0:
            raise ConfigError("par_threshold must be >= 0")
        if self.margin_noise_std < 0:
            raise ConfigError("margin_noise_std must be >= 0")
        if not 0 <= self.hack_probability <= 1:
            raise ConfigError("hack_probability must be in [0, 1]")
        if self.damage_per_meter < 0:
            raise ConfigError("damage_per_meter must be >= 0")
        if self.repair_fixed_cost < 0 or self.repair_cost_per_meter < 0:
            raise ConfigError("repair costs must be >= 0")
        if not 0 < self.discount < 1:
            raise ConfigError("discount must be in (0, 1)")
        if self.n_monitored_meters < 1:
            raise ConfigError("n_monitored_meters must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    """Execution strategy for the scheduling-game solver.

    Nothing here changes *what* is solved — only how fast.  ``backend``
    picks the kernel implementation (all registered backends are
    bitwise-identical; see :mod:`repro.kernels`).
    """

    backend: str = "auto"

    def __post_init__(self) -> None:
        _require_typed(self)
        if not self.backend:
            raise ConfigError("backend must be a non-empty name or 'auto'")


@dataclass(frozen=True)
class RetryPolicy:
    """Stall tolerance for the streaming engine's pump loop.

    A fault-injected (or real) telemetry feed can return "nothing yet"
    while it is stalled rather than exhausted.  The engine retries up to
    ``max_retries`` consecutive empty polls before giving up on the
    current :meth:`~repro.stream.pipeline.StreamEngine.run` call; the
    exponential backoff schedule (:meth:`delay`) is honoured wherever a
    sleeper is wired in (the deterministic test path never sleeps).

    The schedule is **jitter-free by design**: :meth:`delay` is a pure
    function of the attempt number and the policy's fields, with no RNG
    anywhere, so the total time a run spends backing off is exactly
    reproducible — for a given policy and a given seeded fault plan, two
    runs sleep for the same attempts and the same cumulative seconds
    (:meth:`total_backoff`).  Randomness belongs to the fault plan's
    seeded RNG, never to the retry clock.

    Parameters
    ----------
    max_retries:
        Consecutive empty polls tolerated before ``run`` returns early.
    backoff_base_s:
        First retry's backoff in seconds; each further retry doubles it.
        Zero (the default) disables sleeping entirely.
    backoff_max_s:
        Ceiling of the exponential schedule.
    """

    max_retries: int = 8
    backoff_base_s: float = 0.0
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ConfigError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ConfigError(
                f"backoff_max_s must be >= backoff_base_s, got "
                f"{self.backoff_max_s} < {self.backoff_base_s}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff in seconds before retry ``attempt`` (1-based).

        Deterministic: no jitter is ever applied, so the full schedule
        is knowable up front (see :meth:`total_backoff`).
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        if self.backoff_base_s <= 0.0:
            return 0.0
        return min(self.backoff_base_s * 2.0 ** (attempt - 1), self.backoff_max_s)

    def total_backoff(self, retries: int) -> float:
        """Exact cumulative sleep for ``retries`` consecutive stalls.

        ``sum(delay(a) for a in 1..retries)`` — because the schedule is
        jitter-free this is not an estimate but the precise wall-clock
        budget a stall burst costs, reproducible run to run.
        """
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        return sum(self.delay(attempt) for attempt in range(1, retries + 1))


@dataclass(frozen=True)
class CommunityConfig:
    """Top-level description of the simulated community.

    The paper simulates 500 customers; scale the count down for fast tests.
    ``appliances_per_customer`` bounds the synthetic task fleet per home.

    ``tariff`` selects the billing structure the scheduling game prices
    decisions through (:mod:`repro.tariffs`).  ``None`` — the default —
    is the paper's implicit flat net-metering tariff via the legacy code
    path: bitwise-identical results, identical cache keys, identical
    config fingerprints (serialization omits the field entirely).
    """

    n_customers: int = 500
    appliances_per_customer: tuple[int, int] = (4, 8)
    pv_adoption: float = 1.0
    time: TimeGrid = field(default_factory=TimeGrid)
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    solar: SolarConfig = field(default_factory=SolarConfig)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    game: GameConfig = field(default_factory=GameConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    tariff: "Tariff | None" = None
    seed: int = 2015

    def __post_init__(self) -> None:
        _require_typed(self)
        if self.n_customers < 1:
            raise ConfigError("n_customers must be >= 1")
        lo, hi = self.appliances_per_customer
        if not 1 <= lo <= hi:
            raise ConfigError(
                f"appliances_per_customer must satisfy 1 <= lo <= hi, got ({lo}, {hi})"
            )
        if not 0 <= self.pv_adoption <= 1:
            raise ConfigError("pv_adoption must be in [0, 1]")

    def with_updates(self, **changes: Any) -> "CommunityConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def config_to_dict(config: CommunityConfig) -> dict[str, Any]:
    """JSON-serializable representation of a community configuration.

    Used by the streaming checkpoint format: a checkpoint must be
    self-contained, so the config rides along and
    :func:`config_from_dict` rebuilds the identical (validated)
    dataclass tree on resume.

    ``tariff=None`` (the paper's implicit flat net metering) is omitted
    from the payload rather than serialized as ``null``: every config
    fingerprint computed before the tariff layer existed — golden-master
    ``config_sha256`` digests, checkpoint manifests — stays byte-stable.
    """
    data = asdict(config)
    if config.tariff is None:
        del data["tariff"]
    else:
        from repro.tariffs.base import tariff_to_dict

        data["tariff"] = tariff_to_dict(config.tariff)
    return data


def config_from_dict(payload: dict[str, Any]) -> CommunityConfig:
    """Rebuild a :class:`CommunityConfig` from :func:`config_to_dict` output."""
    data = dict(payload)
    tariff: "Tariff | None" = None
    if data.get("tariff") is not None:
        from repro.tariffs.base import tariff_from_dict

        tariff = tariff_from_dict(data["tariff"])
    # Scalars pass through uncoerced, so the dataclass checks refuse a
    # value of the wrong type; only a JSON array becomes a tuple.
    appliances = data["appliances_per_customer"]
    return CommunityConfig(
        n_customers=data["n_customers"],
        appliances_per_customer=(
            tuple(appliances) if isinstance(appliances, list) else appliances
        ),
        pv_adoption=data["pv_adoption"],
        time=_section(TimeGrid, data["time"]),
        battery=_section(BatteryConfig, data["battery"]),
        solar=_section(SolarConfig, data["solar"]),
        pricing=_section(PricingConfig, data["pricing"]),
        game=_section(GameConfig, data["game"]),
        detection=_section(DetectionConfig, data["detection"]),
        # Checkpoints written before the solver layer existed carry no
        # "solver" section; defaults reproduce the historical behaviour.
        solver=_section(SolverConfig, data.get("solver", {})),
        tariff=tariff,
        seed=data["seed"],
    )
