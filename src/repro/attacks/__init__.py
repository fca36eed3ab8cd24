"""Pricing cyberattack models and the stochastic meter-hacking process."""

from repro.attacks.hacking import ATTACK_FAMILIES, HackedMeter, MeterHackingProcess
from repro.attacks.registry import (
    attack_from_dict,
    attack_kind,
    attack_kinds,
    attack_to_dict,
)
from repro.attacks.pricing import (
    BillIncreaseAttack,
    CoordinatedRampAttack,
    MeterOutageAttack,
    PeakIncreaseAttack,
    PricingAttack,
    ScalingAttack,
    TelemetrySpoofAttack,
    ZeroPriceAttack,
)

__all__ = [
    "ATTACK_FAMILIES",
    "BillIncreaseAttack",
    "CoordinatedRampAttack",
    "HackedMeter",
    "MeterHackingProcess",
    "MeterOutageAttack",
    "PeakIncreaseAttack",
    "PricingAttack",
    "ScalingAttack",
    "TelemetrySpoofAttack",
    "ZeroPriceAttack",
    "attack_from_dict",
    "attack_kind",
    "attack_kinds",
    "attack_to_dict",
]
