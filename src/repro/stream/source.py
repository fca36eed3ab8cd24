"""Event sources: scenario replay and a deterministic synthetic generator.

Two sources feed the online pipeline:

- :class:`ReplaySource` replays a monitored world
  (:func:`repro.simulation.world.build_world`) as an ordered event
  stream.  It shares the world's one RNG with the detection pipeline
  (hacking dynamics here, measurement noise there), and the batch
  scenario (:func:`repro.simulation.scenario.run_long_term_scenario`)
  *is* this replay pumped to exhaustion.
- :class:`SyntheticSource` is a fully deterministic generator (no RNG at
  all): smooth double-peak guideline prices with a weekly modulation and
  a scripted compromise window.  It exists so the service layer and the
  examples can exercise the pipeline without building the heavy world.
  :func:`synthetic_attack_script` is the one derivation of what a
  synthetic community attacks (window, meters, payload, announced
  campaign).

Both satisfy the :class:`EventSource` protocol the engine pumps:
``next_event`` advances the stream one event, ``apply_repair`` is the
feedback edge for the monitor's repair dispatches, and
``state_dict``/``load_state`` round-trip the source's cursor for
checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.attacks.pricing import PeakIncreaseAttack, PricingAttack
from repro.attacks.registry import attack_from_dict, attack_kind, attack_to_dict
from repro.core.config import CommunityConfig
from repro.simulation.world import ReplayWorld
from repro.stream.events import (
    AttackOccurrence,
    DayBoundary,
    MeterReading,
    PriceUpdate,
    StreamEvent,
)


class EventSource(Protocol):
    """What the stream engine pumps: an ordered, resumable event feed.

    ``next_event`` may return ``None`` for a *non*-exhausted source (a
    stalled feed — see :class:`repro.faults.injector.FaultInjector`);
    the engine distinguishes the two via ``exhausted`` and retries
    stalls under its :class:`~repro.core.config.RetryPolicy`.
    """

    def next_event(self) -> StreamEvent | None: ...

    def apply_repair(self) -> int: ...

    def state_dict(self) -> dict[str, Any]: ...

    def load_state(self, state: dict[str, Any]) -> None: ...

    @property
    def exhausted(self) -> bool: ...


class ReplaySource:
    """Ordered event feed over a :class:`ReplayWorld`.

    Per day the source emits ``PriceUpdate``, then one ``MeterReading``
    per slot, then ``DayBoundary``.  A day-boundary ``PriceUpdate``
    (day > 0) rolls a fresh attack campaign, and every reading advances
    the ground-truth hacking process by one slot *before* building the
    per-meter received prices.
    """

    def __init__(self, world: ReplayWorld) -> None:
        self.world = world
        self._next_index = 0

    @property
    def events_per_day(self) -> int:
        return self.world.slots_per_day + 2

    @property
    def n_events(self) -> int:
        """Total stream length in events."""
        return self.world.n_days * self.events_per_day

    @property
    def exhausted(self) -> bool:
        return self._next_index >= self.n_events

    def next_event(self) -> StreamEvent | None:
        world = self.world
        spd = world.slots_per_day
        day, pos = divmod(self._next_index, self.events_per_day)
        if day >= world.n_days:
            return None
        self._next_index += 1
        if pos == 0:
            if day > 0:
                # New day, new guideline-price vector: the attacker
                # rolls a fresh manipulation of it.
                world.hacking.new_campaign()
            return PriceUpdate(
                day=day,
                clean_prices=world.day_clean_prices[day],
                predicted_prices=world.day_predicted[day],
            )
        if pos <= spd:
            slot = day * spd + (pos - 1)
            world.hacking.step()
            truth = world.hacking.hacked_mask
            clean = world.day_clean_prices[day]
            # ``received`` is the reported reading (what detection sees);
            # ``actual`` the responded-to prices.  Honest families keep
            # them bitwise-identical and the event omits ``actual``.
            received = np.tile(clean, (world.n_meters, 1))
            actual = np.tile(clean, (world.n_meters, 1))
            for meter in world.hacking.hacked_meters:
                attacked = meter.attack.apply(clean)
                actual[meter.meter_id] = attacked
                received[meter.meter_id] = meter.attack.report(clean, attacked)
            return MeterReading(
                slot=slot,
                received=received,
                truth=truth,
                actual=None if np.array_equal(actual, received) else actual,
            )
        return DayBoundary(day=day)

    def apply_repair(self) -> int:
        """Repair dispatch feedback: fix the whole fleet."""
        return self.world.hacking.repair_all()

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": "replay",
            "next_index": self._next_index,
            "hacking": self.world.hacking.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "replay":
            raise ValueError(f"not a replay-source state: {state.get('kind')!r}")
        self._next_index = int(state["next_index"])
        self.world.hacking.load_state(state["hacking"])


def synthetic_price_profile(
    slots_per_day: int, *, base_price: float = 0.03, amplitude: float = 0.35
) -> NDArray[np.float64]:
    """Smooth double-peak (morning/evening) daily guideline-price shape."""
    if slots_per_day < 1:
        raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day}")
    hours = (np.arange(slots_per_day) + 0.5) * 24.0 / slots_per_day
    shape = (
        1.0
        + amplitude * np.exp(-((hours - 8.0) ** 2) / 6.0)
        + 1.6 * amplitude * np.exp(-((hours - 19.0) ** 2) / 8.0)
    )
    return base_price * shape


@dataclass(frozen=True)
class ScriptedOccurrence:
    """One scripted attack occurrence for :class:`SyntheticSource`.

    During ``days`` (start-inclusive, end-exclusive) the ``attack`` is
    installed on ``meter_ids``; the source announces it going live with
    an :class:`~repro.stream.events.AttackOccurrence` event right after
    each affected day's price update.  A repair dispatch clears it for
    the rest of the day; it re-arms at the next affected day.
    """

    days: tuple[int, int]
    meter_ids: tuple[int, ...]
    attack: PricingAttack

    def __post_init__(self) -> None:
        lo, hi = self.days
        if lo < 0 or hi < lo:
            raise ValueError(f"days must satisfy 0 <= lo <= hi, got {self.days}")
        object.__setattr__(self, "days", (int(lo), int(hi)))
        meter_ids = tuple(sorted(set(int(m) for m in self.meter_ids)))
        if not meter_ids:
            raise ValueError("meter_ids must be non-empty")
        if meter_ids[0] < 0:
            raise ValueError(f"meter_ids must be >= 0, got {self.meter_ids}")
        object.__setattr__(self, "meter_ids", meter_ids)

    @property
    def kind(self) -> str:
        return attack_kind(self.attack)

    def active_on(self, day: int) -> bool:
        lo, hi = self.days
        return lo <= day < hi

    def to_dict(self) -> dict[str, Any]:
        return {
            "days": list(self.days),
            "meter_ids": list(self.meter_ids),
            "attack": attack_to_dict(self.attack),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScriptedOccurrence":
        days = payload["days"]
        return cls(
            days=(int(days[0]), int(days[1])),
            meter_ids=tuple(int(m) for m in payload["meter_ids"]),
            attack=attack_from_dict(payload["attack"]),
        )


class SyntheticSource:
    """Deterministic scripted event generator (no RNG anywhere).

    Guideline prices follow a fixed double-peak profile with a weekly
    sinusoidal modulation; the forecast is the unmodulated profile, so
    benign days produce small PAR margins.  During the scripted attack
    window (``attack_days``, start-inclusive / end-exclusive) the meters
    in ``hacked_meters`` receive the ``attack``-manipulated price from
    the start of each day until a repair dispatch clears them; they are
    re-compromised at the next attack day's price update.

    Parameters
    ----------
    n_meters:
        Monitored fleet size.
    n_days:
        Stream length in days.
    slots_per_day:
        Slots per day (must match the pipeline's community horizon).
    attack_days:
        ``(first_day, end_day)`` of the compromise window.
    hacked_meters:
        Meter ids compromised during the window.
    attack:
        The manipulation installed on compromised meters.
    occurrences:
        Additional scripted :class:`ScriptedOccurrence` entries — each
        is announced on the stream with an
        :class:`~repro.stream.events.AttackOccurrence` event when it
        goes live and manipulates its meters' readings while active.
    base_price, modulation:
        Price scale and weekly modulation depth.
    """

    def __init__(
        self,
        *,
        n_meters: int,
        n_days: int,
        slots_per_day: int = 24,
        attack_days: tuple[int, int] = (0, 0),
        hacked_meters: Sequence[int] = (),
        attack: PeakIncreaseAttack | None = None,
        occurrences: Sequence[ScriptedOccurrence] = (),
        base_price: float = 0.03,
        modulation: float = 0.05,
    ) -> None:
        if n_meters < 1:
            raise ValueError(f"n_meters must be >= 1, got {n_meters}")
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {n_days}")
        lo, hi = attack_days
        if lo < 0 or hi < lo:
            raise ValueError(f"attack_days must satisfy 0 <= lo <= hi, got {attack_days}")
        for meter_id in hacked_meters:
            if not 0 <= meter_id < n_meters:
                raise ValueError(
                    f"hacked meter id {meter_id} out of range [0, {n_meters})"
                )
        for occurrence in occurrences:
            if occurrence.meter_ids[-1] >= n_meters:
                raise ValueError(
                    f"occurrence meter id {occurrence.meter_ids[-1]} out of "
                    f"range [0, {n_meters})"
                )
        self.n_meters = n_meters
        self.n_days = n_days
        self.slots_per_day = slots_per_day
        self.attack_days = (int(lo), int(hi))
        self.hacked_meters = tuple(sorted(set(int(m) for m in hacked_meters)))
        self.attack = (
            attack
            if attack is not None
            else PeakIncreaseAttack(
                start_slot=int(slots_per_day * 0.7),
                end_slot=min(int(slots_per_day * 0.7) + 1, slots_per_day - 1),
                strength=0.6,
            )
        )
        self.base_price = base_price
        self.modulation = modulation
        self.occurrences = tuple(occurrences)
        self.profile = synthetic_price_profile(slots_per_day, base_price=base_price)
        self._next_index = 0
        self._active: set[int] = set()
        self._active_occurrences: set[int] = set()
        self._due: list[StreamEvent] = []

    # ------------------------------------------------------------------
    @property
    def events_per_day(self) -> int:
        """Grid events per day (occurrence announcements ride on top)."""
        return self.slots_per_day + 2

    @property
    def n_events(self) -> int:
        return self.n_days * self.events_per_day

    @property
    def exhausted(self) -> bool:
        return not self._due and self._next_index >= self.n_events

    def clean_prices(self, day: int) -> NDArray[np.float64]:
        """The posted guideline price of one day (deterministic)."""
        return self.profile * (1.0 + self.modulation * np.sin(2.0 * np.pi * day / 7.0))

    def predicted_prices(self, day: int) -> NDArray[np.float64]:
        """The forecast: the unmodulated profile (small benign margin)."""
        return self.profile.copy()

    def _in_attack_window(self, day: int) -> bool:
        lo, hi = self.attack_days
        return lo <= day < hi

    def next_event(self) -> StreamEvent | None:
        if self._due:
            return self._due.pop(0)
        day, pos = divmod(self._next_index, self.events_per_day)
        if day >= self.n_days:
            return None
        self._next_index += 1
        if pos == 0:
            if self._in_attack_window(day):
                self._active = set(self.hacked_meters)
            else:
                self._active = set()
            previously_active = self._active_occurrences
            self._active_occurrences = {
                index
                for index, occurrence in enumerate(self.occurrences)
                if occurrence.active_on(day)
            }
            # Announce occurrences going live this day (newly active, or
            # re-arming after a repair) right after the price update.
            for index in sorted(self._active_occurrences - previously_active):
                occurrence = self.occurrences[index]
                self._due.append(
                    AttackOccurrence(
                        slot=day * self.slots_per_day,
                        kind=occurrence.kind,
                        meter_ids=occurrence.meter_ids,
                        attack=attack_to_dict(occurrence.attack),
                    )
                )
            return PriceUpdate(
                day=day,
                clean_prices=self.clean_prices(day),
                predicted_prices=self.predicted_prices(day),
            )
        if pos <= self.slots_per_day:
            slot = day * self.slots_per_day + (pos - 1)
            clean = self.clean_prices(day)
            received = np.tile(clean, (self.n_meters, 1))
            actual = np.tile(clean, (self.n_meters, 1))
            truth = np.zeros(self.n_meters, dtype=bool)
            for meter_id in sorted(self._active):
                attacked = self.attack.apply(clean)
                actual[meter_id] = attacked
                received[meter_id] = self.attack.report(clean, attacked)
                truth[meter_id] = True
            for index in sorted(self._active_occurrences):
                occurrence = self.occurrences[index]
                attacked = occurrence.attack.apply(clean)
                reported = occurrence.attack.report(clean, attacked)
                # A zero-intensity payload perturbs nothing — physically
                # and observationally a clean meter — so it must not
                # overlay rows or flip ground-truth labels (inertness
                # pin in tests/test_attack_taxonomy.py).
                if np.array_equal(attacked, clean) and np.array_equal(
                    reported, clean
                ):
                    continue
                for meter_id in occurrence.meter_ids:
                    actual[meter_id] = attacked
                    received[meter_id] = reported
                    truth[meter_id] = True
            return MeterReading(
                slot=slot,
                received=received,
                truth=truth,
                actual=None if np.array_equal(actual, received) else actual,
            )
        return DayBoundary(day=day)

    def _occurrence_perturbs(self, occurrence: ScriptedOccurrence, day: int) -> bool:
        """Whether the occurrence actually changes the day's readings."""
        clean = self.clean_prices(day)
        attacked = occurrence.attack.apply(clean)
        reported = occurrence.attack.report(clean, attacked)
        return not (
            np.array_equal(attacked, clean) and np.array_equal(reported, clean)
        )

    def apply_repair(self) -> int:
        """Clear the compromised set until the next scripted attack day.

        Inert (zero-intensity) occurrences are cleared too but never
        counted: their meters were indistinguishable from clean ones, so
        a repair dispatch cannot have fixed anything there.
        """
        day = min(
            max(self._next_index - 1, 0) // self.events_per_day,
            self.n_days - 1,
        )
        repaired_meters = set(self._active)
        for index in self._active_occurrences:
            occurrence = self.occurrences[index]
            if self._occurrence_perturbs(occurrence, day):
                repaired_meters.update(occurrence.meter_ids)
        self._active.clear()
        self._active_occurrences.clear()
        return len(repaired_meters)

    def state_dict(self) -> dict[str, Any]:
        from repro.stream.events import event_to_dict

        return {
            "kind": "synthetic",
            "next_index": self._next_index,
            "active": sorted(self._active),
            "active_occurrences": sorted(self._active_occurrences),
            "due": [event_to_dict(event) for event in self._due],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        from repro.stream.events import event_from_dict

        if state.get("kind") != "synthetic":
            raise ValueError(f"not a synthetic-source state: {state.get('kind')!r}")
        self._next_index = int(state["next_index"])
        self._active = set(int(m) for m in state["active"])
        # Pre-taxonomy checkpoints carry neither field; both default empty.
        self._active_occurrences = set(
            int(i) for i in state.get("active_occurrences", [])
        )
        self._due = [event_from_dict(payload) for payload in state.get("due", [])]


def default_synthetic_attack(slots_per_day: int, strength: float) -> PeakIncreaseAttack:
    """Evening cheap-window attack sized to the day grid.

    A checkpoint resume reconstructs the identical attack from the
    persisted ``attack_strength``.
    """
    start = int(slots_per_day * 0.75)
    return PeakIncreaseAttack(
        start_slot=start,
        end_slot=min(start + 1, slots_per_day - 1),
        strength=strength,
    )


@dataclass(frozen=True)
class AttackScript:
    """What a synthetic community is scripted to attack.

    ``attack_days``/``hacked_meters``/``attack`` are the unannounced
    window of :class:`SyntheticSource`; ``occurrences`` the announced
    campaign.
    """

    attack_days: tuple[int, int]
    hacked_meters: tuple[int, ...]
    attack: PeakIncreaseAttack
    occurrences: tuple[ScriptedOccurrence, ...]

    def source(
        self,
        config: CommunityConfig,
        *,
        n_days: int,
        occurrences: Sequence[ScriptedOccurrence] = (),
    ) -> SyntheticSource:
        """The scripted source over ``n_days`` of ``config``'s day grid."""
        return SyntheticSource(
            n_meters=config.detection.n_monitored_meters,
            n_days=n_days,
            slots_per_day=config.time.slots_per_day,
            attack_days=self.attack_days,
            hacked_meters=self.hacked_meters,
            attack=self.attack,
            occurrences=self.occurrences + tuple(occurrences),
        )


def synthetic_attack_script(
    config: CommunityConfig,
    *,
    attack_days: tuple[int, int],
    hacked_meters: Sequence[int] | None,
    attack_strength: float,
    announce: bool = False,
) -> AttackScript:
    """The one derivation of a synthetic community's attack script.

    ``hacked_meters=None`` compromises the first half of the monitored
    fleet (at least one meter).  With ``announce`` the window runs as a
    scripted campaign: the same attack on the same meters over the same
    days, installed as a :class:`ScriptedOccurrence` so the source
    announces it on the ground-truth ledger, and the unannounced window
    stays empty.
    """
    if hacked_meters is None:
        hacked_meters = range(max(1, config.detection.n_monitored_meters // 2))
    hacked = tuple(hacked_meters)
    attack = default_synthetic_attack(config.time.slots_per_day, attack_strength)
    if not announce:
        return AttackScript(attack_days, hacked, attack, ())
    campaign = ScriptedOccurrence(days=attack_days, meter_ids=hacked, attack=attack)
    return AttackScript((0, 0), hacked, attack, (campaign,))
