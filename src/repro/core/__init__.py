"""Core configuration and the integrated detection framework facade.

:class:`DetectionFramework` and :class:`FrameworkResult` resolve on first
use (PEP 562): the framework imports the whole detection stack and
numpy, which tools that never run a detector, such as ``repro-lint``,
do not need.
"""

from typing import TYPE_CHECKING

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    PricingConfig,
    RetryPolicy,
    SolarConfig,
    TimeGrid,
)
from repro.core.presets import (
    bench_preset,
    paper_preset,
    smoke_preset,
)

if TYPE_CHECKING:
    from repro.core.framework import DetectionFramework, FrameworkResult

__all__ = [
    "BatteryConfig",
    "CommunityConfig",
    "DetectionConfig",
    "DetectionFramework",
    "FrameworkResult",
    "GameConfig",
    "PricingConfig",
    "RetryPolicy",
    "SolarConfig",
    "TimeGrid",
    "bench_preset",
    "paper_preset",
    "smoke_preset",
]


def __getattr__(name: str) -> object:
    if name in ("DetectionFramework", "FrameworkResult"):
        from repro.core import framework

        return getattr(framework, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
