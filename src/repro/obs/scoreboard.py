"""Resilience scoreboard: MTTD, MTTR, availability, false-alarm rate.

The paper scores detection with a single offline accuracy number; an
operator cares about *resilience* — how long an intrusion lives before
anyone notices, how long from notice to repair, and how often the
monitoring plane itself was blind.  :class:`ResilienceScoreboard` folds
the per-slot detection timeline (:class:`~repro.stream.pipeline
.SlotDetection` verdicts, including fault-gap placeholders) together
with the attack-occurrence ground-truth ledger
(:class:`~repro.stream.events.AttackOccurrence` announcements) into the
operations metrics of ROADMAP item 5:

- **MTTD** — mean slots from attack onset (first truth-positive scored
  slot) to the first true detection (a flag intersecting the truth
  mask, or a repair dispatched while under attack);
- **MTTR** — mean slots from that detection to the attack clearing
  (first scored all-clean slot, i.e. the repair taking effect);
- **availability** — fraction of attacked slots that were observed
  through a usable reading rather than a fault gap;
- **false-alarm rate** — fraction of scored clean slots that raised any
  flag or dispatched a repair;
- **per-attack-family confusion** — episodes/detected/missed per
  registered attack kind, attributed via the occurrence ledger.

Determinism contract (the :class:`~repro.obs.audit.AuditTrail`
discipline): the scoreboard is a pure observer.  It never touches an
RNG stream, never feeds back into detector state, and is *rebuilt* from
the restored timeline + ledger on resume rather than serialized into
checkpoints — so attaching one leaves every verdict and golden digest
bitwise unchanged, and a cut/resumed scoreboard equals the uncut one
exactly.

Exactness under merge: every accumulator is an integer sum (slots,
episodes, sample lists); derived means and fractions are computed *from
the sums* at report time.  :func:`merge_reports` therefore makes the
fleet-merged report bitwise-equal to the same fold over the
concatenated solo timelines — never an average of averages.

An *episode* is a maximal run of truth-positive scored slots.  Slots
with no truth mask (externally pushed readings) score availability but
cannot open, detect, or close episodes; gap slots during an open
episode count as attacked-but-unobserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.counters import PerfRegistry
    from repro.stream.pipeline import OnlinePipeline, SlotDetection

SCOREBOARD_FORMAT = "repro-scoreboard"
SCOREBOARD_VERSION = 1

DEFAULT_FAMILY = "unattributed"


def _family_bucket() -> dict[str, int]:
    return {"occurrences": 0, "episodes": 0, "detected": 0, "missed": 0}


class ResilienceScoreboard:
    """Online fold of detection verdicts into resilience metrics.

    Parameters
    ----------
    default_family:
        Attack-family label for episodes that no occurrence-ledger entry
        explains (e.g. the legacy ``attack_days`` window, which is never
        announced, or a scenario replay, which announces none).
    """

    def __init__(self, *, default_family: str = DEFAULT_FAMILY) -> None:
        self.default_family = default_family
        self._reset()

    def _reset(self) -> None:
        self._slots_total = 0
        self._scored_slots = 0
        self._unscored_slots = 0
        self._gap_slots = 0
        self._tp = 0
        self._fp = 0
        self._fn = 0
        self._tn = 0
        self._clean_slots = 0
        self._false_alarm_slots = 0
        self._attacked_slots = 0
        self._attacked_observed_slots = 0
        self._attacked_gap_slots = 0
        self._episodes = 0
        self._detected_episodes = 0
        self._missed_episodes = 0
        self._resolved_episodes = 0
        self._resolved_detected_episodes = 0
        self._mttd_total_slots = 0
        self._mttr_total_slots = 0
        self._ttd_samples: list[int] = []
        self._ttr_samples: list[int] = []
        self._families: dict[str, dict[str, int]] = {}
        self._occurrence_marks: list[tuple[int, str]] = []
        self._open = False
        self._open_start = -1
        self._open_family = ""
        self._open_detected = False
        self._open_detect_slot = -1

    # ------------------------------------------------------------------
    # online fold
    def record_occurrence(self, occurrence: Mapping[str, Any]) -> None:
        """Fold one ground-truth ledger entry (``event_to_dict`` payload)."""
        slot = int(occurrence["slot"])
        kind = str(occurrence["kind"])
        self._occurrence_marks.append((slot, kind))
        self._families.setdefault(kind, _family_bucket())["occurrences"] += 1

    def record(self, detection: "SlotDetection") -> None:
        """Fold one timeline verdict (called once per slot, in order)."""
        self._slots_total += 1
        if detection.gap:
            self._gap_slots += 1
            if self._open:
                self._attacked_slots += 1
                self._attacked_gap_slots += 1
            return
        truth = detection.truth
        if truth is None:
            self._unscored_slots += 1
            if self._open:
                self._attacked_slots += 1
                self._attacked_observed_slots += 1
            return
        self._scored_slots += 1
        flags = detection.flags
        self._tp += int(np.logical_and(flags, truth).sum())
        self._fp += int(np.logical_and(flags, ~truth).sum())
        self._fn += int(np.logical_and(~flags, truth).sum())
        self._tn += int(np.logical_and(~flags, ~truth).sum())
        if bool(truth.any()):
            hit = bool(np.logical_and(flags, truth).any())
            self._fold_attacked(detection.slot, hit=hit, repaired=detection.repaired)
        else:
            self._fold_clean(
                detection.slot, flagged=bool(flags.any()), repaired=detection.repaired
            )

    def _fold_attacked(self, slot: int, *, hit: bool, repaired: bool) -> None:
        if not self._open:
            self._open = True
            self._open_start = slot
            self._open_detected = False
            self._open_detect_slot = -1
            self._open_family = self._family_for(slot)
            self._episodes += 1
            self._families.setdefault(self._open_family, _family_bucket())[
                "episodes"
            ] += 1
        self._attacked_slots += 1
        self._attacked_observed_slots += 1
        if not self._open_detected and (hit or repaired):
            self._open_detected = True
            self._open_detect_slot = slot
            self._detected_episodes += 1
            ttd = slot - self._open_start
            self._mttd_total_slots += ttd
            self._ttd_samples.append(ttd)
            self._families.setdefault(self._open_family, _family_bucket())[
                "detected"
            ] += 1

    def _fold_clean(self, slot: int, *, flagged: bool, repaired: bool) -> None:
        if self._open:
            self._resolved_episodes += 1
            if self._open_detected:
                self._resolved_detected_episodes += 1
                ttr = slot - self._open_detect_slot
                self._mttr_total_slots += ttr
                self._ttr_samples.append(ttr)
            else:
                self._missed_episodes += 1
                self._families.setdefault(self._open_family, _family_bucket())[
                    "missed"
                ] += 1
            self._open = False
            self._open_start = -1
            self._open_family = ""
            self._open_detected = False
            self._open_detect_slot = -1
        self._clean_slots += 1
        if flagged or repaired:
            self._false_alarm_slots += 1

    def _family_for(self, slot: int) -> str:
        """Latest ledger entry at or before ``slot`` names the family."""
        family = self.default_family
        best = -1
        for occ_slot, kind in self._occurrence_marks:
            if best <= occ_slot <= slot:
                best = occ_slot
                family = kind
        return family

    # ------------------------------------------------------------------
    # rebuild / checkpoint
    def rebuild(
        self,
        timeline: Iterable["SlotDetection"],
        occurrences: Iterable[Mapping[str, Any]] = (),
    ) -> None:
        """Reset and refold a restored history.

        Equivalent to the online fold: family attribution looks the
        ledger up *by slot*, and live streams announce an occurrence
        before any reading it manipulates, so folding the whole ledger
        first is indistinguishable from the interleaved order.
        """
        self._reset()
        for occurrence in occurrences:
            self.record_occurrence(occurrence)
        for detection in timeline:
            self.record(detection)

    def state_dict(self) -> dict[str, Any]:
        """Complete fold state (round-trips via :meth:`load_state`)."""
        open_episode: dict[str, Any] | None = None
        if self._open:
            open_episode = {
                "start": self._open_start,
                "family": self._open_family,
                "detected": self._open_detected,
                "detect_slot": self._open_detect_slot,
            }
        return {
            "default_family": self.default_family,
            "slots_total": self._slots_total,
            "scored_slots": self._scored_slots,
            "unscored_slots": self._unscored_slots,
            "gap_slots": self._gap_slots,
            "tp": self._tp,
            "fp": self._fp,
            "fn": self._fn,
            "tn": self._tn,
            "clean_slots": self._clean_slots,
            "false_alarm_slots": self._false_alarm_slots,
            "attacked_slots": self._attacked_slots,
            "attacked_observed_slots": self._attacked_observed_slots,
            "attacked_gap_slots": self._attacked_gap_slots,
            "episodes": self._episodes,
            "detected_episodes": self._detected_episodes,
            "missed_episodes": self._missed_episodes,
            "resolved_episodes": self._resolved_episodes,
            "resolved_detected_episodes": self._resolved_detected_episodes,
            "mttd_total_slots": self._mttd_total_slots,
            "mttr_total_slots": self._mttr_total_slots,
            "ttd_samples": list(self._ttd_samples),
            "ttr_samples": list(self._ttr_samples),
            "families": {k: dict(v) for k, v in self._families.items()},
            "occurrence_marks": [[s, k] for s, k in self._occurrence_marks],
            "open_episode": open_episode,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.default_family = str(state["default_family"])
        self._slots_total = int(state["slots_total"])
        self._scored_slots = int(state["scored_slots"])
        self._unscored_slots = int(state["unscored_slots"])
        self._gap_slots = int(state["gap_slots"])
        self._tp = int(state["tp"])
        self._fp = int(state["fp"])
        self._fn = int(state["fn"])
        self._tn = int(state["tn"])
        self._clean_slots = int(state["clean_slots"])
        self._false_alarm_slots = int(state["false_alarm_slots"])
        self._attacked_slots = int(state["attacked_slots"])
        self._attacked_observed_slots = int(state["attacked_observed_slots"])
        self._attacked_gap_slots = int(state["attacked_gap_slots"])
        self._episodes = int(state["episodes"])
        self._detected_episodes = int(state["detected_episodes"])
        self._missed_episodes = int(state["missed_episodes"])
        self._resolved_episodes = int(state["resolved_episodes"])
        self._resolved_detected_episodes = int(state["resolved_detected_episodes"])
        self._mttd_total_slots = int(state["mttd_total_slots"])
        self._mttr_total_slots = int(state["mttr_total_slots"])
        self._ttd_samples = [int(v) for v in state["ttd_samples"]]
        self._ttr_samples = [int(v) for v in state["ttr_samples"]]
        self._families = {
            str(k): {str(f): int(n) for f, n in v.items()}
            for k, v in state["families"].items()
        }
        self._occurrence_marks = [
            (int(s), str(k)) for s, k in state["occurrence_marks"]
        ]
        open_episode = state["open_episode"]
        if open_episode is None:
            self._open = False
            self._open_start = -1
            self._open_family = ""
            self._open_detected = False
            self._open_detect_slot = -1
        else:
            self._open = True
            self._open_start = int(open_episode["start"])
            self._open_family = str(open_episode["family"])
            self._open_detected = bool(open_episode["detected"])
            self._open_detect_slot = int(open_episode["detect_slot"])

    # ------------------------------------------------------------------
    # reporting
    def report(self) -> dict[str, Any]:
        """The scoreboard block: integer sums + derived means/fractions."""
        return _finalize(
            {
                "format": SCOREBOARD_FORMAT,
                "version": SCOREBOARD_VERSION,
                "slots": {
                    "total": self._slots_total,
                    "scored": self._scored_slots,
                    "unscored": self._unscored_slots,
                    "gaps": self._gap_slots,
                },
                "confusion": {
                    "tp": self._tp,
                    "fp": self._fp,
                    "fn": self._fn,
                    "tn": self._tn,
                },
                "episodes": {
                    "total": self._episodes,
                    "detected": self._detected_episodes,
                    "missed": self._missed_episodes,
                    "resolved": self._resolved_episodes,
                    "open": 1 if self._open else 0,
                },
                "mttd": {
                    "total_slots": self._mttd_total_slots,
                    "episodes": self._detected_episodes,
                    "samples": list(self._ttd_samples),
                },
                "mttr": {
                    "total_slots": self._mttr_total_slots,
                    "episodes": self._resolved_detected_episodes,
                    "samples": list(self._ttr_samples),
                },
                "availability": {
                    "attacked_slots": self._attacked_slots,
                    "observed_slots": self._attacked_observed_slots,
                    "gap_slots": self._attacked_gap_slots,
                },
                "false_alarms": {
                    "clean_slots": self._clean_slots,
                    "alarm_slots": self._false_alarm_slots,
                },
                "families": {k: dict(v) for k, v in sorted(self._families.items())},
            }
        )


def _finalize(report: dict[str, Any]) -> dict[str, Any]:
    """Fill the derived leaves from the integer sums, in place."""
    mttd = report["mttd"]
    mttd["mean_slots"] = (
        mttd["total_slots"] / mttd["episodes"] if mttd["episodes"] else None
    )
    mttr = report["mttr"]
    mttr["mean_slots"] = (
        mttr["total_slots"] / mttr["episodes"] if mttr["episodes"] else None
    )
    availability = report["availability"]
    availability["fraction"] = (
        availability["observed_slots"] / availability["attacked_slots"]
        if availability["attacked_slots"]
        else None
    )
    false_alarms = report["false_alarms"]
    false_alarms["rate"] = (
        false_alarms["alarm_slots"] / false_alarms["clean_slots"]
        if false_alarms["clean_slots"]
        else None
    )
    return report


def merge_reports(reports: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Exact merge of scoreboard reports: sum the integers, refinalize.

    Derived leaves (means, fractions) are recomputed from the summed
    totals, so merging K per-community reports is bitwise-equal to one
    scoreboard folded over the concatenated timelines — the fleet ≡
    K-solo contract.  Sample lists concatenate in iteration order; pass
    reports sorted by a stable id for a deterministic merged report.
    """
    merged: dict[str, Any] = {
        "format": SCOREBOARD_FORMAT,
        "version": SCOREBOARD_VERSION,
        "slots": {"total": 0, "scored": 0, "unscored": 0, "gaps": 0},
        "confusion": {"tp": 0, "fp": 0, "fn": 0, "tn": 0},
        "episodes": {
            "total": 0,
            "detected": 0,
            "missed": 0,
            "resolved": 0,
            "open": 0,
        },
        "mttd": {"total_slots": 0, "episodes": 0, "samples": []},
        "mttr": {"total_slots": 0, "episodes": 0, "samples": []},
        "availability": {"attacked_slots": 0, "observed_slots": 0, "gap_slots": 0},
        "false_alarms": {"clean_slots": 0, "alarm_slots": 0},
        "families": {},
    }
    for report in reports:
        if report.get("format") != SCOREBOARD_FORMAT:
            raise ValueError(f"not a scoreboard report: {report.get('format')!r}")
        if report.get("version") != SCOREBOARD_VERSION:
            raise ValueError(
                f"unsupported scoreboard version {report.get('version')!r}"
            )
        for section in ("slots", "confusion", "episodes", "availability", "false_alarms"):
            for key in merged[section]:
                merged[section][key] += int(report[section][key])
        for section in ("mttd", "mttr"):
            merged[section]["total_slots"] += int(report[section]["total_slots"])
            merged[section]["episodes"] += int(report[section]["episodes"])
            merged[section]["samples"].extend(
                int(v) for v in report[section]["samples"]
            )
        for family, bucket in report["families"].items():
            target = merged["families"].setdefault(str(family), _family_bucket())
            for key in target:
                target[key] += int(bucket[key])
    merged["families"] = dict(sorted(merged["families"].items()))
    return _finalize(merged)


def attach_scoreboard(pipeline: "OnlinePipeline") -> ResilienceScoreboard:
    """Attach (or refresh) a scoreboard on a pipeline, backfilling history.

    Idempotent: an already-attached board is rebuilt in place.  The
    rebuild is a pure function of the pipeline's timeline + ledger, so
    a board attached after a resume reports exactly what an
    attached-from-the-start board would.
    """
    board = pipeline.scoreboard
    if board is None:
        board = ResilienceScoreboard()
        pipeline.scoreboard = board
    board.rebuild(pipeline.timeline, pipeline.occurrences)
    return board


class ScoreboardPublisher:
    """Publish scoreboard reports into a :class:`PerfRegistry`.

    Gauges are idempotent (set to the merged totals every publish);
    MTTD/MTTR ride bounded histograms, so each publish observes only
    the samples that appeared since the previous one, tracked with a
    per-source cursor keyed by the caller's stable ids (community ids
    for the fleet, a single key for the solo service).
    """

    def __init__(self, registry: "PerfRegistry", *, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix
        self._cursors: dict[str, tuple[int, int]] = {}

    def publish(
        self,
        merged: Mapping[str, Any],
        sources: Mapping[str, Mapping[str, Any]],
    ) -> None:
        prefix = self._prefix
        registry = self._registry
        episodes = merged["episodes"]
        registry.set_gauge(f"{prefix}.episodes", float(episodes["total"]))
        registry.set_gauge(f"{prefix}.episodes_detected", float(episodes["detected"]))
        registry.set_gauge(f"{prefix}.episodes_missed", float(episodes["missed"]))
        availability = merged["availability"]
        registry.set_gauge(
            f"{prefix}.attacked_slots", float(availability["attacked_slots"])
        )
        fraction = availability["fraction"]
        registry.set_gauge(
            f"{prefix}.availability", 1.0 if fraction is None else float(fraction)
        )
        rate = merged["false_alarms"]["rate"]
        registry.set_gauge(
            f"{prefix}.false_alarm_rate", 0.0 if rate is None else float(rate)
        )
        for source in sorted(sources):
            report = sources[source]
            seen_ttd, seen_ttr = self._cursors.get(source, (0, 0))
            ttd = report["mttd"]["samples"]
            ttr = report["mttr"]["samples"]
            for value in ttd[seen_ttd:]:
                registry.observe(f"{prefix}.mttd_slots", float(value))
            for value in ttr[seen_ttr:]:
                registry.observe(f"{prefix}.mttr_slots", float(value))
            self._cursors[source] = (len(ttd), len(ttr))
