"""The integrated detection framework facade (Figure 2 of the paper).

:class:`DetectionFramework` wires the whole pipeline behind a small API:

>>> from repro.core import DetectionFramework, smoke_preset
>>> framework = DetectionFramework(smoke_preset(), aware=True)
>>> framework.train()
>>> day = framework.sample_day()
>>> prediction = framework.predict_load(day.predicted_prices)
>>> check = framework.detect_single_event(day.clean_prices)
>>> check.flagged
False

The ``aware`` flag switches every stage between the paper's net-metering-
aware framework and the prior-art unaware baseline (its ref. [8]) — the
comparison the whole evaluation section is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import CommunityConfig
from repro.data.community import build_community
from repro.data.pricing import (
    GuidelinePriceModel,
    PriceHistory,
    baseline_demand_profile,
    generate_history,
)
from repro.detection.single_event import (
    CommunityResponseSimulator,
    SingleEventDetection,
    SingleEventDetector,
)
from repro.metrics.cost import LaborCostModel
from repro.prediction.load import LoadPrediction, predict_community_load
from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
from repro.scheduling.game import Community
from repro.simulation.scenario import ScenarioResult, run_long_term_scenario
from repro.simulation.world import response_simulators


@dataclass(frozen=True)
class SampledDay:
    """One evaluation day: the environment plus both price vectors."""

    demand_forecast: NDArray[np.float64]
    renewable_forecast: NDArray[np.float64]
    clean_prices: NDArray[np.float64]
    predicted_prices: NDArray[np.float64]


@dataclass(frozen=True)
class FrameworkResult:
    """Summary of a long-term monitoring run."""

    scenario: ScenarioResult
    labor_cost: float

    @property
    def observation_accuracy(self) -> float:
        return self.scenario.observation_accuracy

    @property
    def mean_par(self) -> float:
        return self.scenario.mean_par

    @property
    def n_repairs(self) -> int:
        return self.scenario.n_repairs


class DetectionFramework:
    """End-to-end smart home pricing cyberattack detection.

    Parameters
    ----------
    config:
        Community, pricing, game and detection parameters.
    aware:
        True for the paper's net-metering-aware framework, False for the
        unaware baseline of ref. [8].
    """

    def __init__(self, config: CommunityConfig, *, aware: bool = True) -> None:
        self.config = config
        self.aware = aware
        self._rng = np.random.default_rng(config.seed)
        self._community: Community | None = None
        self._history: PriceHistory | None = None
        self._predictor: AwarePricePredictor | UnawarePricePredictor | None = None
        self._simulators: (
            tuple[CommunityResponseSimulator, CommunityResponseSimulator] | None
        ) = None
        self._price_model = GuidelinePriceModel(
            config=config.pricing, n_customers=config.n_customers
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def community(self) -> Community:
        """The (lazily built) community model."""
        if self._community is None:
            self._community = build_community(self.config, rng=self._rng)
        return self._community

    @property
    def history(self) -> PriceHistory:
        if self._history is None:
            raise RuntimeError("call train() first")
        return self._history

    def train(self, history: PriceHistory | None = None) -> "DetectionFramework":
        """Fit the price predictor on a (given or generated) history."""
        if history is None:
            history = generate_history(
                self._rng,
                n_customers=self.config.n_customers,
                pricing=self.config.pricing,
                solar=self.config.solar,
                slots_per_day=self.config.time.slots_per_day,
                mean_pv_per_customer_kw=self.config.solar.peak_kw
                * self.config.pv_adoption,
            )
        self._history = history
        predictor = AwarePricePredictor() if self.aware else UnawarePricePredictor()
        predictor.fit(history)
        self._predictor = predictor
        return self

    # ------------------------------------------------------------------
    # Per-day pipeline
    # ------------------------------------------------------------------
    def sample_day(self, *, weather: float | None = None) -> SampledDay:
        """Draw one evaluation day and predict its guideline price."""
        if self._predictor is None:
            raise RuntimeError("call train() first")
        if weather is None:
            weather = float(np.clip(self._rng.beta(5.0, 2.0), 0.0, 1.0))
        elif not 0.0 <= weather <= 1.0:
            raise ValueError(f"weather must be in [0, 1], got {weather}")
        demand = baseline_demand_profile(self.config.time) * self.config.n_customers
        renewable = self.community.total_pv * weather
        clean = self._price_model.price(demand, renewable, rng=self._rng)
        predicted = self.predict_price(
            demand_forecast=demand, renewable_forecast=renewable
        )
        return SampledDay(
            demand_forecast=demand,
            renewable_forecast=renewable,
            clean_prices=clean,
            predicted_prices=predicted,
        )

    def predict_price(
        self,
        *,
        demand_forecast: ArrayLike | None = None,
        renewable_forecast: ArrayLike | None = None,
    ) -> NDArray[np.float64]:
        """Day-ahead guideline-price prediction."""
        if self._predictor is None:
            raise RuntimeError("call train() first")
        if self.aware:
            return self._predictor.predict_day(
                demand_forecast=demand_forecast,
                renewable_forecast=renewable_forecast,
            )
        return self._predictor.predict_day()

    def predict_load(
        self,
        prices: ArrayLike,
        *,
        rng: np.random.Generator | None = None,
    ) -> LoadPrediction:
        """Game-based community load prediction for a price vector."""
        return predict_community_load(
            self.community,
            prices,
            aware=self.aware,
            sellback_divisor=self.config.pricing.sellback_divisor,
            config=self.config.game,
            rng=rng if rng is not None else self._rng,
        )

    def single_event_detector(
        self,
        predicted_prices: ArrayLike,
    ) -> SingleEventDetector:
        """Build the PAR-threshold detector for one predicted-price vector."""
        if self._simulators is None:
            self._simulators = response_simulators(
                self.community, self.config, aware=self.aware
            )
        simulator, predicted_simulator = self._simulators
        return SingleEventDetector(
            simulator,
            predicted_prices,
            predicted_simulator=predicted_simulator,
            threshold=self.config.detection.par_threshold,
            margin_noise_std=self.config.detection.margin_noise_std,
        )

    def detect_single_event(
        self,
        received_prices: ArrayLike,
        *,
        predicted_prices: ArrayLike | None = None,
    ) -> SingleEventDetection:
        """One-shot single-event check against a freshly sampled day."""
        if predicted_prices is None:
            predicted_prices = self.sample_day().predicted_prices
        detector = self.single_event_detector(predicted_prices)
        return detector.check(received_prices, rng=self._rng)

    # ------------------------------------------------------------------
    # Long-term monitoring
    # ------------------------------------------------------------------
    def run_long_term(
        self,
        *,
        n_slots: int = 48,
        seed: int | None = None,
    ) -> FrameworkResult:
        """Run the full Section 5 monitoring scenario."""
        scenario = run_long_term_scenario(
            self.config,
            detector="aware" if self.aware else "unaware",
            n_slots=n_slots,
            history=self._history,
            seed=seed,
        )
        labor = LaborCostModel(
            fixed_cost=self.config.detection.repair_fixed_cost,
            per_meter_cost=self.config.detection.repair_cost_per_meter,
        )
        return FrameworkResult(
            scenario=scenario,
            labor_cost=scenario.labor_cost(labor),
        )
