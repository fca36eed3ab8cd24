"""Multi-day monitored-community scenario (Figure 6 and Table 1).

One scenario run couples every subsystem:

1. a guideline-price **history** is generated and the chosen price
   predictor (net-metering aware or unaware) is trained on it;
2. a **community** is built; the monitored smart meters stand for equal
   shares of it;
3. the single-event detector is **calibrated** (Monte-Carlo TP/FP rates)
   and the **POMDP** observation model built from the measured rates;
4. per slot, the ground-truth **hacking process** steps, the
   single-event flags feed the **long-term detector**, and its repair
   decisions feed back into the hacking process;
5. the realized **grid demand** mixes the benign community response with
   the hacked shares' manipulated responses (all cached game solutions),
   giving the PAR column of Table 1.

Steps 1–3 are :func:`repro.simulation.world.build_world`; steps 4–5 are
the streaming pipeline.  :func:`run_long_term_scenario` replays the
world through :class:`~repro.stream.pipeline.OnlinePipeline` and reads
the result off the detection timeline, so the batch scenario and the
stream replay are one code path.

The ``detector="none"`` variant skips the policy (attacks are never
repaired), reproducing Table 1's "No Detection" column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from repro.core.config import CommunityConfig
from repro.data.pricing import PriceHistory
from repro.metrics.accuracy import confusion_counts, per_meter_accuracy
from repro.metrics.cost import LaborCostModel
from repro.metrics.par import par
from repro.obs.trace import TRACER
from repro.simulation.cache import GameSolutionCache

DetectorKind = Literal["aware", "unaware", "none"]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the Figure 6 / Table 1 analyses need from one run."""

    detector: DetectorKind
    truth: NDArray[np.bool_]
    flags: NDArray[np.bool_]
    observations: NDArray[np.int_]
    repairs: NDArray[np.bool_]
    repaired_counts: NDArray[np.int_]
    realized_grid: NDArray[np.float64]
    slots_per_day: int
    tp_rate: float
    fp_rate: float

    @property
    def n_slots(self) -> int:
        return self.truth.shape[0]

    @property
    def observation_accuracy(self) -> float:
        """Per-meter classification accuracy (the Figure 6 metric)."""
        return per_meter_accuracy(self.truth, self.flags)

    @property
    def accuracy_per_slot(self) -> NDArray[np.float64]:
        """Per-slot fraction of correctly classified meters (Fig. 6 series)."""
        correct = self.truth == self.flags
        return correct.mean(axis=1)

    @property
    def mean_par(self) -> float:
        """Mean daily PAR of the realized grid demand (Table 1)."""
        days = self.realized_grid.reshape(-1, self.slots_per_day)
        return float(np.mean([par(day) for day in days]))

    @property
    def n_repairs(self) -> int:
        return int(self.repairs.sum())

    @property
    def mean_hacked(self) -> float:
        """Average number of simultaneously hacked meters."""
        return float(self.truth.sum(axis=1).mean())

    def labor_cost(self, model: LaborCostModel) -> float:
        """Total labor cost of the run's repair dispatches."""
        counts = self.repaired_counts[self.repairs]
        return model.total_cost(counts)

    def rates_summary(self) -> tuple[float, float]:
        """Realized (TP, FP) rates over the run (not the calibration)."""
        counts = confusion_counts(self.truth, self.flags)
        has_pos = counts.true_positives + counts.false_negatives > 0
        has_neg = counts.false_positives + counts.true_negatives > 0
        tp = counts.true_positive_rate if has_pos else 0.0
        fp = counts.false_positive_rate if has_neg else 0.0
        return tp, fp


def run_long_term_scenario(
    config: CommunityConfig,
    *,
    detector: DetectorKind,
    n_slots: int = 48,
    history: PriceHistory | None = None,
    policy: Literal["qmdp", "pbvi"] = "qmdp",
    calibration_trials: int = 30,
    seed: int | None = None,
    cache: GameSolutionCache | None = None,
    attack_family: str = "peak_increase",
) -> ScenarioResult:
    """Run the 48-hour monitored scenario of Section 5.

    Parameters
    ----------
    config:
        Community and detection parameters.  ``config.time`` must be a
        one-day grid; the scenario spans ``n_slots`` slots across
        consecutive days.
    detector:
        ``"aware"``, ``"unaware"`` or ``"none"`` (Table 1's three columns;
        the "none" column keeps monitoring but never repairs).
    n_slots:
        Length of the monitoring horizon (48 in the paper's Fig. 6).
    history:
        Price history for predictor training; generated when omitted.
    policy:
        POMDP policy for the long-term layer.
    calibration_trials:
        Monte-Carlo trials per class when measuring the single-event
        TP/FP rates.
    seed:
        Overrides ``config.seed``.
    cache:
        Game-solution cache shared by the run's simulators; defaults to
        the process-global cache, so repeated runs (aggregation seeds,
        detector variants over the same community, benchmark sessions)
        solve each distinct game exactly once.  Solutions are
        content-addressed over the full solve input, so cached runs are
        numerically identical to cold ones.
    attack_family:
        What each compromise campaign installs (see
        :data:`repro.attacks.hacking.ATTACK_FAMILIES`).  The default is
        the paper's cheap-window attack through the historical code
        path; the telemetry families additionally decouple the reading
        the detector sees from the price the home responded to.
    """
    # Function-local: the stream and world modules import this one.
    from repro.simulation.world import build_world
    from repro.stream.pipeline import replay_engine

    with TRACER.span("scenario.run", detector=str(detector), n_slots=n_slots):
        with TRACER.span("scenario.setup"):
            world = build_world(
                config,
                detector=detector,
                n_slots=n_slots,
                history=history,
                policy=policy,
                calibration_trials=calibration_trials,
                seed=seed,
                cache=cache,
                attack_family=attack_family,
            )
        engine = replay_engine(world)
        engine.run()
    return engine.result()
