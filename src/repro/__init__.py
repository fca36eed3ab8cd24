"""Net-metering-aware smart home pricing cyberattack detection.

Reproduction of Liu, Hu, Jin, Wu, Shi, Hu and Li, "Impact Assessment of
Net Metering on Smart Home Cyberattack Detection", DAC 2015.

The package is organized as one subpackage per subsystem:

- :mod:`repro.core` -- configuration, presets and the integrated
  :class:`~repro.core.framework.DetectionFramework` facade.
- :mod:`repro.scheduling` -- appliance task model, the dynamic-programming
  appliance scheduler and the community energy-consumption scheduling game.
- :mod:`repro.netmetering` -- battery dynamics, energy trading and the
  quadratic net-metering cost model (Eqns. 1-3 of the paper).
- :mod:`repro.optimization` -- the cross-entropy stochastic optimizer used
  for battery-storage trajectories, plus ablation baselines.
- :mod:`repro.prediction` -- an epsilon-SVR implemented from scratch, the
  guideline-price predictors (net-metering aware and unaware) and the
  game-based community load prediction.
- :mod:`repro.attacks` -- pricing cyberattack models and the stochastic
  meter-hacking process.
- :mod:`repro.detection` -- PAR-threshold single-event detection and the
  POMDP-based long-term detector.
- :mod:`repro.simulation` -- the multi-day community scenario engine.
- :mod:`repro.stream` -- the online twin of the scenario engine: event
  sources, incremental detectors and checkpoint/resume.
- :mod:`repro.service` -- a stdlib HTTP monitoring API over a stream.
- :mod:`repro.obs` -- observability: hierarchical span tracing,
  structured logging, run manifests and the detection audit trail.
- :mod:`repro.data` -- synthetic pricing, solar and appliance generators.
- :mod:`repro.metrics` -- PAR, accuracy, labor-cost and error metrics.

:class:`DetectionFramework` and :class:`FrameworkResult` resolve on first
use, as in :mod:`repro.core`, so importing the package loads no numpy.
"""

from typing import TYPE_CHECKING

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    PricingConfig,
    SolarConfig,
    TimeGrid,
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
    "SolarConfig",
    "TimeGrid",
]

__version__ = "1.1.0"


def __getattr__(name: str) -> object:
    if name in ("DetectionFramework", "FrameworkResult"):
        from repro.core import framework

        return getattr(framework, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
