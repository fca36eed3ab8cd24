"""The monitored-community world, built in one place.

The paper's Table 1 / Figure 6 loop runs in one world: a community, a
price predictor trained on a guideline-price history, one day-level
environment (clean and predicted guideline prices) per monitored day,
the ground-truth and detector-side community simulators, the calibrated
single-event detector and the POMDP monitor.  Every entry point builds
its pieces here:

- :func:`response_simulators` — the ground-truth simulator (configured
  tariff and solver) and the detector's own expectation model (the
  net-metering-unaware community with legacy flat pricing for the
  ``"unaware"`` detector);
- :func:`long_term_detector` — the POMDP monitor for measured
  single-event rates;
- :func:`build_world` — the whole replay world, every RNG draw in the
  order the golden digests pin.

The batch scenario (:func:`~repro.simulation.scenario.run_long_term_scenario`)
is a replay of this world through the streaming pipeline
(:func:`~repro.stream.pipeline.replay_engine`), so stream ≡ batch holds
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.attacks.hacking import MeterHackingProcess
from repro.core.config import CommunityConfig, config_to_dict
from repro.data.community import build_community
from repro.data.pricing import (
    GuidelinePriceModel,
    PriceHistory,
    baseline_demand_profile,
    generate_history,
)
from repro.data.weather import DEFAULT_WEATHER
from repro.detection.long_term import LongTermDetector
from repro.detection.pomdp import build_detection_pomdp
from repro.detection.single_event import (
    CommunityResponseSimulator,
    SingleEventDetector,
)
from repro.detection.solvers import PbviPolicy, QmdpPolicy
from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
from repro.scheduling.game import Community
from repro.simulation.cache import GameSolutionCache, global_game_cache
from repro.simulation.calibration import (
    draw_calibration_trials,
    evaluate_calibration_trials,
)
from repro.simulation.scenario import DetectorKind

DETECTOR_KINDS = ("aware", "unaware", "none")
POLICIES = ("qmdp", "pbvi")


def is_aware(detector: str) -> bool:
    """Whether ``detector`` models net metering; unknown names raise.

    Every builder interprets its detector name through this check, so a
    misspelt name fails instead of silently building the aware stack.
    """
    if detector not in DETECTOR_KINDS:
        raise ValueError(
            f"unknown detector kind {detector!r} "
            f"(expected one of {', '.join(DETECTOR_KINDS)})"
        )
    return detector != "unaware"


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r} (expected one of {', '.join(POLICIES)})"
        )


def response_simulators(
    community: Community,
    config: CommunityConfig,
    *,
    aware: bool,
    cache: GameSolutionCache | None = None,
) -> tuple[CommunityResponseSimulator, CommunityResponseSimulator]:
    """The ground-truth simulator and the detector's predicted-response one.

    Ground truth always includes net metering under ``config.tariff``.
    The aware detector predicts on that same model (the pair shares one
    simulator); the unaware detector does not model net metering at all
    (ref. [8]) and predates tariffs, so its model is the stripped
    community under legacy flat pricing — the systematic offset the
    paper analyzes.  Both run ``config.solver``.  ``cache=None`` gives
    each simulator a private cache.
    """
    truth = CommunityResponseSimulator(
        community,
        config=config.game,
        sellback_divisor=config.pricing.sellback_divisor,
        seed=3,
        cache=cache,
        solver=config.solver,
        tariff=config.tariff,
    )
    if aware:
        return truth, truth
    predicted = CommunityResponseSimulator(
        community.without_net_metering(),
        config=config.game,
        sellback_divisor=config.pricing.sellback_divisor,
        seed=3,
        cache=cache,
        solver=config.solver,
    )
    return truth, predicted


def long_term_detector(
    config: CommunityConfig,
    *,
    tp_rate: float,
    fp_rate: float,
    policy: str = "qmdp",
    rng: np.random.Generator | None = None,
) -> LongTermDetector:
    """The POMDP monitor for single-event rates ``tp_rate``/``fp_rate``.

    ``"pbvi"`` seeds its belief points with one draw from ``rng``;
    ``"qmdp"`` draws nothing.
    """
    _check_policy(policy)
    detection = config.detection
    model = build_detection_pomdp(
        detection.n_monitored_meters,
        hack_probability=detection.hack_probability,
        tp_rate=tp_rate,
        fp_rate=fp_rate,
        damage_per_meter=detection.damage_per_meter,
        repair_fixed_cost=detection.repair_fixed_cost,
        repair_cost_per_meter=detection.repair_cost_per_meter,
        discount=detection.discount,
    )
    if policy == "qmdp":
        return LongTermDetector(model, policy=QmdpPolicy(model))
    if rng is None:
        raise ValueError("the pbvi policy needs an rng to seed its belief points")
    seeded = np.random.default_rng(int(rng.integers(2**31 - 1)))
    return LongTermDetector(model, policy=PbviPolicy(model, rng=seeded))


@dataclass
class ReplayWorld:
    """Everything one monitored run needs, built in the pinned draw order.

    The ``rng`` is the *shared* generator: the replay source draws
    compromise dynamics from it and the pipeline draws measurement noise
    from it, interleaved slot by slot.  ``build_spec`` is how to rebuild
    the world from nothing (the checkpoint's build section).
    """

    config: CommunityConfig
    n_slots: int
    day_clean_prices: list[NDArray[np.float64]]
    day_predicted: list[NDArray[np.float64]]
    day_detectors: list[SingleEventDetector]
    truth_simulator: CommunityResponseSimulator
    predicted_simulator: CommunityResponseSimulator
    hacking: MeterHackingProcess
    long_term: LongTermDetector | None
    tp_rate: float
    fp_rate: float
    rng: np.random.Generator
    build_spec: dict[str, Any]

    @property
    def slots_per_day(self) -> int:
        return self.config.time.slots_per_day

    @property
    def n_days(self) -> int:
        return self.n_slots // self.slots_per_day

    @property
    def n_meters(self) -> int:
        return self.config.detection.n_monitored_meters


def build_world(
    config: CommunityConfig,
    *,
    detector: DetectorKind,
    n_slots: int = 48,
    history: PriceHistory | None = None,
    policy: str = "qmdp",
    calibration_trials: int = 30,
    seed: int | None = None,
    cache: GameSolutionCache | None = None,
    attack_family: str = "peak_increase",
) -> ReplayWorld:
    """Build the monitored world of Section 5 (parameters as
    :func:`~repro.simulation.scenario.run_long_term_scenario`).

    RNG draws happen in a fixed order — community build, history
    generation, per-day environment, detector calibration trials,
    policy seeding — so the generator handed to the per-slot replay is
    in the state the golden digests were recorded from.  The day-level
    and calibration games are solved up front in one lockstep batch per
    simulator (:meth:`CommunityResponseSimulator.prefetch`), which draws
    nothing and is bitwise-identical to solving them lazily.

    A caller-supplied ``history`` is not recorded in ``build_spec``;
    only the batch scenario passes one, and it never checkpoints.
    """
    aware = is_aware(detector)
    _check_policy(policy)
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    spd = config.time.slots_per_day
    if n_slots % spd != 0:
        raise ValueError(f"n_slots {n_slots} must be a multiple of {spd}")
    n_days = n_slots // spd
    rng = np.random.default_rng(config.seed if seed is None else seed)
    cache = cache if cache is not None else global_game_cache()

    day_config = config.with_updates(time=replace(config.time, n_days=1))
    community = build_community(day_config, rng=rng)
    price_model = GuidelinePriceModel(
        config=config.pricing, n_customers=config.n_customers
    )
    if history is None:
        history = generate_history(
            rng,
            n_customers=config.n_customers,
            pricing=config.pricing,
            solar=config.solar,
            slots_per_day=spd,
            mean_pv_per_customer_kw=config.solar.peak_kw * config.pv_adoption,
        )

    predictor: AwarePricePredictor | UnawarePricePredictor = (
        AwarePricePredictor() if aware else UnawarePricePredictor()
    )
    predictor.fit(history)

    base_demand = baseline_demand_profile(day_config.time) * config.n_customers
    day_clean_prices: list[NDArray[np.float64]] = []
    day_predicted: list[NDArray[np.float64]] = []
    for _ in range(n_days):
        weather = DEFAULT_WEATHER.daily_factor(rng)
        pv = community.total_pv * weather
        demand = base_demand * float(np.clip(rng.normal(1.0, 0.03), 0.8, 1.2))
        clean = price_model.price(demand, pv, rng=rng)
        day_clean_prices.append(clean)
        if aware:
            predicted = predictor.predict_day(
                demand_forecast=demand, renewable_forecast=pv
            )
        else:
            predicted = predictor.predict_day()
        day_predicted.append(predicted)
        # Roll the history forward so the next day's lags see this day.
        history = PriceHistory(
            prices=np.concatenate([history.prices, clean]),
            demand=np.concatenate([history.demand, demand]),
            renewable=np.concatenate([history.renewable, pv]),
            nm_active=np.concatenate([history.nm_active, np.ones(spd, dtype=bool)]),
            slots_per_day=spd,
        )

    truth_simulator, predicted_simulator = response_simulators(
        community, config, aware=aware, cache=cache
    )
    hacking = MeterHackingProcess(
        config.detection.n_monitored_meters,
        config.detection.hack_probability,
        slots_per_day=spd,
        attack_family=attack_family,
        rng=rng,
    )
    trials = (
        None
        if detector == "none"
        else draw_calibration_trials(
            day_clean_prices[0],
            hacking,
            n_trials=calibration_trials,
            rng=rng,
            margin_noise_std=config.detection.margin_noise_std,
        )
    )
    # One lockstep batch per simulator solves every day-level and
    # calibration game; the detector constructions below (predicted PAR),
    # the calibration checks and every slot's clean response then hit the
    # cache.
    truth_prices = day_clean_prices + ([] if trials is None else list(trials.attacked))
    if predicted_simulator is truth_simulator:
        truth_simulator.prefetch(day_predicted + truth_prices)
    else:
        predicted_simulator.prefetch(day_predicted)
        truth_simulator.prefetch(truth_prices)
    day_detectors = [
        SingleEventDetector(
            truth_simulator,
            day_predicted[d],
            predicted_simulator=predicted_simulator,
            threshold=config.detection.par_threshold,
            margin_noise_std=config.detection.margin_noise_std,
        )
        for d in range(n_days)
    ]

    long_term: LongTermDetector | None = None
    tp_rate = fp_rate = 0.0
    if trials is not None:
        rates = evaluate_calibration_trials(day_detectors[0], trials).clipped()
        tp_rate, fp_rate = rates.tp_rate, rates.fp_rate
        long_term = long_term_detector(
            config, tp_rate=tp_rate, fp_rate=fp_rate, policy=policy, rng=rng
        )

    build_spec: dict[str, Any] = {
        "kind": "replay",
        "config": config_to_dict(config),
        "detector": detector,
        "n_slots": n_slots,
        "policy": policy,
        "calibration_trials": calibration_trials,
        "seed": seed,
    }
    if attack_family != "peak_increase":
        build_spec["attack_family"] = attack_family
    return ReplayWorld(
        config=config,
        n_slots=n_slots,
        day_clean_prices=day_clean_prices,
        day_predicted=day_predicted,
        day_detectors=day_detectors,
        truth_simulator=truth_simulator,
        predicted_simulator=predicted_simulator,
        hacking=hacking,
        long_term=long_term,
        tp_rate=tp_rate,
        fp_rate=fp_rate,
        rng=rng,
        build_spec=build_spec,
    )
