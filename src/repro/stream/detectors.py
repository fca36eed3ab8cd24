"""Incremental (per-event) wrappers around the detection stack.

The pipeline advances one event at a time, so these state machines hold
exactly the state one event needs to advance:

- :class:`IncrementalSingleEvent` — binds the SVR/PAR single-event
  detector to the current day on each
  :class:`~repro.stream.events.PriceUpdate` and flags meters per
  :class:`~repro.stream.events.MeterReading`.
- :class:`IncrementalMonitor` — folds per-slot flag counts into the
  POMDP belief and emits monitor/repair actions, one observation at a
  time.
- :class:`SlidingHistoryPredictor` — maintains a rolling ``(p, V, D)``
  history window and refits the SVR price predictor once per day, so a
  long-running stream keeps forecasting from recent data instead of a
  frozen training set.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.data.pricing import PriceHistory
from repro.detection.long_term import LongTermDetector, MonitoringStep
from repro.detection.single_event import (
    CommunityResponseSimulator,
    SingleEventDetection,
    SingleEventDetector,
)
from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
from repro.stream.events import DayBoundary, MeterReading, PriceUpdate


class IncrementalSingleEvent:
    """Per-day binding of the PAR single-event detector.

    Two operating modes:

    - **replay** — ``prebuilt`` holds one :class:`SingleEventDetector`
      per day (constructed by the replay world exactly as the batch
      scenario does), and ``start_day`` just selects the day's instance;
    - **live** — detectors are constructed on the fly from the day's
      predicted prices against the provided community simulators, which
      is what the synthetic source and the HTTP push path use.

    ``n_days`` bounds the days a live stream may bind (the world's
    configured days); a replay's bound is its prebuilt range.  ``None``
    leaves a live stream unbounded.
    """

    def __init__(
        self,
        truth_simulator: CommunityResponseSimulator,
        *,
        predicted_simulator: CommunityResponseSimulator | None = None,
        threshold: float = 0.10,
        margin_noise_std: float = 0.03,
        prebuilt: Sequence[SingleEventDetector] | None = None,
        n_days: int | None = None,
    ) -> None:
        self.truth_simulator = truth_simulator
        self.predicted_simulator = predicted_simulator
        self.threshold = threshold
        self.margin_noise_std = margin_noise_std
        self.prebuilt = tuple(prebuilt) if prebuilt is not None else None
        self.n_days = len(self.prebuilt) if self.prebuilt is not None else n_days
        self._detector: SingleEventDetector | None = None
        self._day: int | None = None

    @property
    def day(self) -> int | None:
        """Day the detector is currently bound to (None before the first
        price update)."""
        return self._day

    def check_day(self, event: PriceUpdate | DayBoundary) -> None:
        """Raise the ``ValueError`` binding ``event`` would, binding
        nothing: a day outside the stream's days (the prebuilt range, or
        ``n_days``), or prices of the wrong horizon or not finite (the
        day's games cannot be solved).  A day boundary is checked for its
        day alone."""
        if self.n_days is not None and not 0 <= event.day < self.n_days:
            days = "prebuilt range" if self.prebuilt is not None else "configured days"
            raise ValueError(f"day {event.day} outside {days} [0, {self.n_days})")
        if isinstance(event, DayBoundary):
            return
        horizon = self.truth_simulator.horizon
        if event.predicted_prices.shape != (horizon,):
            raise ValueError(
                f"predicted_prices must have shape ({horizon},), "
                f"got {event.predicted_prices.shape}"
            )
        if not (
            np.isfinite(event.clean_prices).all()
            and np.isfinite(event.predicted_prices).all()
        ):
            raise ValueError("price_update prices must be finite")

    def start_day(self, update: PriceUpdate) -> None:
        """Bind to a new day's predicted prices."""
        self.check_day(update)
        if self.prebuilt is not None:
            self._detector = self.prebuilt[update.day]
        else:
            self._detector = SingleEventDetector(
                self.truth_simulator,
                update.predicted_prices,
                predicted_simulator=self.predicted_simulator,
                threshold=self.threshold,
                margin_noise_std=self.margin_noise_std,
            )
        self._day = update.day

    def observe(
        self, reading: MeterReading, *, rng: np.random.Generator | None = None
    ) -> NDArray[np.bool_]:
        """Flag each meter of one reading; requires a bound day."""
        if self._detector is None:
            raise RuntimeError(
                "no active day: a PriceUpdate must precede the first MeterReading"
            )
        return self._detector.observe_meters(reading.received, rng=rng)

    def observe_checks(
        self, reading: MeterReading, *, rng: np.random.Generator | None = None
    ) -> "list[SingleEventDetection]":
        """Per-meter check detail for one reading (audit-trail evidence).

        Consumes the measurement-noise stream in the exact order
        :meth:`observe` would, so an auditing pipeline stays bitwise
        equivalent to a non-auditing one.
        """
        if self._detector is None:
            raise RuntimeError(
                "no active day: a PriceUpdate must precede the first MeterReading"
            )
        return self._detector.check_meters(reading.received, rng=rng)


class IncrementalMonitor:
    """One-observation-at-a-time POMDP monitoring.

    A thin stateful shell over :class:`LongTermDetector` so the pipeline
    and the checkpoint layer talk to one object: ``observe`` folds a
    flag count into the belief and returns the chosen action, and the
    runtime state (belief, last action, trace) round-trips through
    ``state_dict``/``load_state``.
    """

    def __init__(self, detector: LongTermDetector) -> None:
        self.detector = detector

    @property
    def belief_mean(self) -> float:
        """Posterior mean number of hacked meters."""
        return float(self.detector.belief @ np.arange(self.detector.model.n_states))

    @property
    def n_meters(self) -> int:
        """Monitored fleet size (POMDP states count 0..n hacked meters)."""
        return self.detector.model.n_states - 1

    @property
    def n_repairs(self) -> int:
        return self.detector.n_repairs

    def observe(self, flag_count: int) -> MonitoringStep:
        """Belief update + action selection for one slot's flag count."""
        return self.detector.step(flag_count)

    def state_dict(self) -> dict[str, Any]:
        return self.detector.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.detector.load_state(state)


class SlidingHistoryPredictor:
    """Rolling-window price predictor with per-day SVR refits.

    The batch scenario trains its predictor once on a fixed history; a
    service that runs for months must keep learning.  This wrapper keeps
    the most recent ``max_days`` days of ``(price, renewable, demand)``
    observations, refits the underlying SVR at most once per appended
    day, and predicts the next day from the refreshed model.

    Parameters
    ----------
    history:
        Initial training history (e.g. the synthetic two-era record).
    aware:
        Net-metering-aware featurization when True, the price-lags-only
        baseline otherwise.
    max_days:
        Sliding-window length in days; older days are dropped.
    """

    def __init__(
        self, history: PriceHistory, *, aware: bool = True, max_days: int = 28
    ) -> None:
        if max_days < 2:
            raise ValueError(f"max_days must be >= 2, got {max_days}")
        self.aware = aware
        self.max_days = max_days
        self._history = self._trimmed(history)
        # Derived cache, deliberately absent from state_dict/from_state:
        # restore refits the SVR from the serialized window instead.
        self._dirty = True  # repro: noqa[CKPT001] rebuilt on restore
        self._n_refits = 0  # repro: noqa[CKPT001] diagnostic counter, resets on restore
        self._predictor: AwarePricePredictor | UnawarePricePredictor | None = None  # repro: noqa[CKPT001] lazy refit

    @property
    def history(self) -> PriceHistory:
        """The current sliding window."""
        return self._history

    @property
    def n_refits(self) -> int:
        """How many times the SVR has been retrained."""
        return self._n_refits

    def _trimmed(self, history: PriceHistory) -> PriceHistory:
        if history.n_days <= self.max_days:
            return history
        start = (history.n_days - self.max_days) * history.slots_per_day
        return PriceHistory(
            prices=history.prices[start:],
            demand=history.demand[start:],
            renewable=history.renewable[start:],
            nm_active=history.nm_active[start:],
            slots_per_day=history.slots_per_day,
        )

    def observe_day(
        self,
        prices: NDArray[np.float64],
        demand: NDArray[np.float64],
        renewable: NDArray[np.float64],
    ) -> None:
        """Append one realized day and schedule a refit."""
        spd = self._history.slots_per_day
        for name, arr in (("prices", prices), ("demand", demand), ("renewable", renewable)):
            if np.asarray(arr).shape != (spd,):
                raise ValueError(f"{name} must have shape ({spd},)")
        self._history = self._trimmed(
            PriceHistory(
                prices=np.concatenate([self._history.prices, prices]),
                demand=np.concatenate([self._history.demand, demand]),
                renewable=np.concatenate([self._history.renewable, renewable]),
                nm_active=np.concatenate(
                    [self._history.nm_active, np.ones(spd, dtype=bool)]
                ),
                slots_per_day=spd,
            )
        )
        self._dirty = True

    def predict_day(
        self,
        *,
        demand_forecast: NDArray[np.float64] | None = None,
        renewable_forecast: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Forecast the next day's guideline price, refitting if stale."""
        if self._dirty or self._predictor is None:
            predictor: AwarePricePredictor | UnawarePricePredictor = (
                AwarePricePredictor() if self.aware else UnawarePricePredictor()
            )
            predictor.fit(self._history)
            self._predictor = predictor
            self._dirty = False
            self._n_refits += 1
        if self.aware:
            return self._predictor.predict_day(
                demand_forecast=demand_forecast, renewable_forecast=renewable_forecast
            )
        return self._predictor.predict_day()

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable window state (the SVR refits on restore)."""
        h = self._history
        return {
            "aware": self.aware,
            "max_days": self.max_days,
            "slots_per_day": h.slots_per_day,
            "prices": h.prices.tolist(),
            "demand": h.demand.tolist(),
            "renewable": h.renewable.tolist(),
            "nm_active": h.nm_active.astype(int).tolist(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "SlidingHistoryPredictor":
        history = PriceHistory(
            prices=np.asarray(state["prices"], dtype=float),
            demand=np.asarray(state["demand"], dtype=float),
            renewable=np.asarray(state["renewable"], dtype=float),
            nm_active=np.asarray(state["nm_active"], dtype=bool),
            slots_per_day=int(state["slots_per_day"]),
        )
        return cls(history, aware=bool(state["aware"]), max_days=int(state["max_days"]))
