"""The fleet engine: N communities behind one front door.

:class:`CommunitySpec` is the declarative description of one tenant —
enough to build its :class:`~repro.stream.pipeline.StreamEngine` from
scratch (and therefore enough for checkpoints, benchmarks and the load
generator to share one vocabulary).  :func:`build_fleet` hashes every
spec's community id onto a shard via the consistent-hash ring and hands
each shard's engines to a :class:`~repro.fleet.worker.ShardWorker`;
:class:`FleetEngine` advances all workers in lockstep ticks and exposes
fleet-wide status, merged detections, batched envelope ingestion and
per-shard gauge publication for the Prometheus exposition.

Determinism contract: communities are fully independent, so a fleet run
is bitwise-equal to the same communities run one at a time — pinned by
``tests/test_fleet_equivalence.py`` across community × shard counts,
cut/resume, and fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.config import CommunityConfig, config_from_dict, config_to_dict
from repro.faults.plan import FaultPlan
from repro.fleet.ring import HashRing
from repro.fleet.worker import ShardWorker
from repro.obs.fleettrace import fleet_trace_layout
from repro.obs.scoreboard import merge_reports
from repro.obs.trace import TRACER, TraceContext
from repro.perf.counters import PERF
from repro.simulation.cache import GameSolutionCache
from repro.simulation.scenario import DetectorKind
from repro.stream.events import PriceUpdate, event_from_dict
from repro.stream.pipeline import StreamEngine, build_synthetic_engine
from repro.stream.source import synthetic_attack_script


@dataclass(frozen=True)
class CommunitySpec:
    """Everything needed to build one community's streaming engine.

    Mirrors :func:`~repro.stream.pipeline.build_synthetic_engine`'s
    surface; the engine's own ``build_spec`` (and therefore the existing
    checkpoint machinery) carries the same information, so a fleet built
    from specs and a fleet resumed from per-shard checkpoints are the
    same kind of object.
    """

    community_id: str
    config: CommunityConfig
    n_days: int = 4
    attack_days: tuple[int, int] = (1, 3)
    attack_strength: float = 0.6
    hacked_meters: tuple[int, ...] | None = None
    tp_rate: float = 0.75
    fp_rate: float = 0.05
    detector: DetectorKind = "aware"
    seed: int = 0
    faults: FaultPlan | None = None
    announce_attacks: bool = False

    def __post_init__(self) -> None:
        if not self.community_id:
            raise ValueError("community_id must be a non-empty string")
        if self.n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {self.n_days}")

    def build_engine(self, *, cache: GameSolutionCache | None = None) -> StreamEngine:
        """The community's engine, identical to a standalone build.

        With ``announce_attacks`` the window runs as a *scripted
        campaign* (:func:`~repro.stream.source.synthetic_attack_script`):
        the source announces it on the ground-truth ledger
        (:class:`~repro.stream.events.AttackOccurrence`) and the
        resilience scoreboard can attribute episodes to a family.
        """
        script = synthetic_attack_script(
            self.config,
            attack_days=self.attack_days,
            hacked_meters=self.hacked_meters,
            attack_strength=self.attack_strength,
            announce=self.announce_attacks,
        )
        return build_synthetic_engine(
            self.config,
            n_days=self.n_days,
            attack_days=script.attack_days,
            hacked_meters=script.hacked_meters,
            attack_strength=self.attack_strength,
            tp_rate=self.tp_rate,
            fp_rate=self.fp_rate,
            detector=self.detector,
            seed=self.seed,
            cache=cache,
            faults=self.faults,
            occurrences=script.occurrences,
        )

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "community_id": self.community_id,
            "config": config_to_dict(self.config),
            "n_days": self.n_days,
            "attack_days": list(self.attack_days),
            "attack_strength": self.attack_strength,
            "hacked_meters": (
                None if self.hacked_meters is None else list(self.hacked_meters)
            ),
            "tp_rate": self.tp_rate,
            "fp_rate": self.fp_rate,
            "detector": self.detector,
            "seed": self.seed,
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        # Omitted when False so pre-campaign payloads stay byte-stable.
        if self.announce_attacks:
            payload["announce_attacks"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CommunitySpec":
        hacked = payload.get("hacked_meters")
        faults = payload.get("faults")
        return cls(
            community_id=str(payload["community_id"]),
            config=config_from_dict(payload["config"]),
            n_days=int(payload["n_days"]),
            attack_days=(
                int(payload["attack_days"][0]),
                int(payload["attack_days"][1]),
            ),
            attack_strength=float(payload["attack_strength"]),
            hacked_meters=None if hacked is None else tuple(int(m) for m in hacked),
            tp_rate=float(payload["tp_rate"]),
            fp_rate=float(payload["fp_rate"]),
            detector=payload["detector"],
            seed=int(payload["seed"]),
            faults=None if faults is None else FaultPlan.from_dict(faults),
            announce_attacks=bool(payload.get("announce_attacks", False)),
        )


@dataclass(frozen=True)
class AdvanceStats:
    """What one :meth:`FleetEngine.advance` call accomplished."""

    ticks: int = 0
    events: int = 0
    detections: int = 0
    gaps: int = 0
    stalled_ticks: int = 0
    exhausted: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "ticks": self.ticks,
            "events": self.events,
            "detections": self.detections,
            "gaps": self.gaps,
            "stalled_ticks": self.stalled_ticks,
            "exhausted": self.exhausted,
        }


class FleetEngine:
    """Lockstep multi-community front door over sharded workers.

    Parameters
    ----------
    ring:
        The consistent-hash ring; its shard set must match ``workers``'
        keys, and every worker community must hash to its own shard
        (checked eagerly so a mis-assembled fleet fails at construction,
        not at first request).
    workers:
        Shard id → worker.
    stall_budget:
        Consecutive all-stalled ticks (no event delivered fleet-wide,
        sources not exhausted) tolerated before :meth:`advance` gives up
        — the fleet analogue of the stream engine's
        :class:`~repro.core.config.RetryPolicy`.  Sized to outlast any
        builtin fault plan's ``max_stall``.
    """

    def __init__(
        self,
        ring: HashRing,
        workers: Mapping[str, ShardWorker],
        *,
        stall_budget: int = 32,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one shard worker")
        if stall_budget < 1:
            raise ValueError(f"stall_budget must be >= 1, got {stall_budget}")
        if set(workers) != set(ring.shards):
            raise ValueError(
                f"worker shards {sorted(workers)} do not match "
                f"ring shards {list(ring.shards)}"
            )
        for shard_id, worker in workers.items():
            if worker.shard_id != shard_id:
                raise ValueError(
                    f"worker keyed {shard_id!r} reports shard "
                    f"{worker.shard_id!r}"
                )
            for cid in worker.community_ids:
                owner = ring.assign(cid)
                if owner != shard_id:
                    raise ValueError(
                        f"community {cid!r} is owned by ring shard {owner!r} "
                        f"but was given to worker {shard_id!r}"
                    )
        self.ring = ring
        self.stall_budget = stall_budget
        self._workers: dict[str, ShardWorker] = {
            sid: workers[sid] for sid in sorted(workers)
        }

    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self._workers)

    @property
    def workers(self) -> tuple[ShardWorker, ...]:
        return tuple(self._workers.values())

    @property
    def community_ids(self) -> tuple[str, ...]:
        ids: list[str] = []
        for worker in self._workers.values():
            ids.extend(worker.community_ids)
        return tuple(sorted(ids))

    @property
    def n_communities(self) -> int:
        return sum(worker.n_communities for worker in self._workers.values())

    @property
    def exhausted(self) -> bool:
        return all(worker.exhausted for worker in self._workers.values())

    @property
    def events_processed(self) -> int:
        return sum(worker.events_processed for worker in self._workers.values())

    def worker_of(self, community_id: str) -> ShardWorker:
        """The worker whose shard the ring assigns this community to."""
        shard_id = self.ring.assign(community_id)
        worker = self._workers[shard_id]
        # Membership check doubles as the unknown-community error path.
        worker.engine(community_id)
        return worker

    def engine_of(self, community_id: str) -> StreamEngine:
        return self.worker_of(community_id).engine(community_id)

    # ------------------------------------------------------------------
    def tick(self) -> int:
        """One lockstep advance: every shard pumps one event per
        non-exhausted community (one implicit envelope fleet-wide)."""
        pumped = 0
        with PERF.timer("fleet.advance", hist=True):
            with TRACER.span("fleet.tick", category="fleet"):
                for worker in self._workers.values():
                    pumped += worker.tick()
        PERF.add("fleet.ticks")
        PERF.add("fleet.events", pumped)
        return pumped

    def _min_days_completed(self) -> int:
        days = [
            worker.engine(cid).pipeline.days_completed
            for worker in self._workers.values()
            for cid in worker.community_ids
        ]
        return min(days) if days else 0

    def advance(
        self, *, max_ticks: int | None = None, until_day: int | None = None
    ) -> AdvanceStats:
        """Pump lockstep ticks until the fleet drains (or a bound hits).

        ``until_day`` stops once *every* community has completed that
        many days; ``max_ticks`` bounds this call (checkpoint cut points
        in tests).  A fleet-wide stalled tick (fault-injected feeds, no
        event delivered anywhere) is retried up to ``stall_budget``
        consecutive times before giving up cleanly.
        """
        if max_ticks is not None and max_ticks < 0:
            raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")
        if until_day is not None and until_day < 0:
            raise ValueError(f"until_day must be >= 0, got {until_day}")
        before_slots = sum(
            worker.engine(cid).pipeline.n_slots_processed
            for worker in self._workers.values()
            for cid in worker.community_ids
        )
        before_gaps = sum(
            worker.engine(cid).pipeline.n_gaps
            for worker in self._workers.values()
            for cid in worker.community_ids
        )
        ticks = 0
        events = 0
        stalled = 0
        consecutive_stalls = 0
        while True:
            if max_ticks is not None and ticks >= max_ticks:
                break
            if until_day is not None and self._min_days_completed() >= until_day:
                break
            if self.exhausted:
                break
            pumped = self.tick()
            ticks += 1
            events += pumped
            if pumped == 0:
                stalled += 1
                consecutive_stalls += 1
                PERF.add("fleet.stalled_ticks")
                if consecutive_stalls > self.stall_budget:
                    PERF.add("fleet.stalls_aborted")
                    break
            else:
                consecutive_stalls = 0
        after_slots = sum(
            worker.engine(cid).pipeline.n_slots_processed
            for worker in self._workers.values()
            for cid in worker.community_ids
        )
        after_gaps = sum(
            worker.engine(cid).pipeline.n_gaps
            for worker in self._workers.values()
            for cid in worker.community_ids
        )
        return AdvanceStats(
            ticks=ticks,
            events=events,
            detections=after_slots - before_slots,
            gaps=after_gaps - before_gaps,
            stalled_ticks=stalled,
            exhausted=self.exhausted,
        )

    # ------------------------------------------------------------------
    def ingest_envelope(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Fold one batched envelope of many communities' events in.

        Wire format::

            {"entries": [{"community": "c0001", "event": {...}}, ...],
             "trace": {"run_id": "...", "span_id": 7}}

        Entries are processed in list order; each event is routed via
        the ring to its community's pipeline (the external-feed analogue
        of a lockstep tick).  The whole envelope is validated before any
        entry is applied, so an envelope with any entry its pipeline would
        refuse (:meth:`~repro.stream.pipeline.OnlinePipeline.check_event`)
        is rejected atomically.  A reading is acceptable when its
        community is already bound to a day, or an earlier entry of the
        same envelope binds it.

        The optional ``trace`` field is a propagated
        :class:`~repro.obs.trace.TraceContext`: when the sender's run id
        matches the local tracer's, the envelope's processing span is
        spliced under the sender's parent span, stitching cross-shard
        work into one fleet trace.
        """
        unknown = set(payload) - {"entries", "trace"}
        if unknown:
            raise ValueError(f"unknown envelope fields: {sorted(unknown)}")
        trace_payload = payload.get("trace")
        context: TraceContext | None = None
        if trace_payload is not None:
            if not isinstance(trace_payload, Mapping):
                raise ValueError("envelope field 'trace' must be an object")
            context = TraceContext.from_dict(dict(trace_payload))
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ValueError("envelope must carry a list field 'entries'")
        parsed = []
        binding: set[str] = set()  # communities an earlier entry binds
        for index, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise ValueError(f"entry {index} is not an object")
            extra = set(entry) - {"community", "event"}
            if extra:
                raise ValueError(f"entry {index} has unknown fields: {sorted(extra)}")
            cid = entry.get("community")
            if not isinstance(cid, str) or not cid:
                raise ValueError(f"entry {index} needs a community id string")
            event_payload = entry.get("event")
            if not isinstance(event_payload, Mapping):
                raise ValueError(f"entry {index} needs an event object")
            try:
                event = event_from_dict(dict(event_payload))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"entry {index}: bad event: {exc}") from exc
            worker = self.worker_of(cid)
            try:
                worker.engine(cid).pipeline.check_event(event, bound=cid in binding)
            except (ValueError, RuntimeError) as exc:
                raise ValueError(f"entry {index}: {exc}") from exc
            if isinstance(event, PriceUpdate):
                binding.add(cid)
            parsed.append((cid, worker, event))
        parent_id = (
            context.span_id
            if context is not None and context.run_id == TRACER.run_id
            else None
        )
        results: list[dict[str, Any]] = []
        with TRACER.span(
            "fleet.envelope",
            category="fleet",
            parent_id=parent_id,
            entries=len(parsed),
        ):
            for cid, worker, event in parsed:
                detection = worker.ingest(cid, event)
                results.append(
                    {
                        "community": cid,
                        "shard": worker.shard_id,
                        "detection": None if detection is None else detection.to_dict(),
                    }
                )
        PERF.add("fleet.envelopes")
        PERF.add("fleet.envelope_events", len(parsed))
        return {"accepted": len(parsed), "results": results}

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Fleet-wide progress: ring layout, per-shard stats, totals."""
        shards = {sid: worker.stats() for sid, worker in self._workers.items()}
        totals = {
            "communities": self.n_communities,
            "shards": len(self._workers),
            "events_processed": self.events_processed,
            "slots_processed": sum(
                int(stats["totals"]["slots_processed"]) for stats in shards.values()
            ),
            "flags_total": sum(
                int(stats["totals"]["flags_total"]) for stats in shards.values()
            ),
            "repairs": sum(
                int(stats["totals"]["repairs"]) for stats in shards.values()
            ),
            "gaps": sum(int(stats["totals"]["gaps"]) for stats in shards.values()),
        }
        return {
            "exhausted": self.exhausted,
            "totals": totals,
            "shards": shards,
            "ring": {
                "vnodes": self.ring.vnodes,
                "assignments": self.ring.assignments(self.community_ids),
            },
        }

    def detections(
        self,
        *,
        community: str | None = None,
        since: int = 0,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """Merged (or per-community) timeline slice with ``slot >= since``.

        The merged view interleaves communities sorted by ``(slot,
        community_id)`` and tags each verdict with its community and
        shard, so one scrape can follow the whole fleet.
        """
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        selected: list[dict[str, Any]] = []
        total = 0
        if community is not None:
            worker = self.worker_of(community)
            targets = [(community, worker)]
        else:
            targets = [
                (cid, self._workers[self.ring.assign(cid)])
                for cid in self.community_ids
            ]
        for cid, worker in targets:
            timeline = worker.engine(cid).timeline
            total += len(timeline)
            for det in timeline:
                if det.slot >= since:
                    tagged = det.to_dict()
                    tagged["community"] = cid
                    tagged["shard"] = worker.shard_id
                    selected.append(tagged)
        selected.sort(key=lambda det: (det["slot"], det["community"]))
        truncated = limit is not None and len(selected) > limit
        if truncated:
            selected = selected[:limit]
        return {
            "detections": selected,
            "total_slots": total,
            "truncated": truncated,
        }

    # ------------------------------------------------------------------
    def scoreboard(self) -> dict[str, Any]:
        """Resilience metrics at every granularity: community → fleet.

        Every accumulator is an integer sum, so the shard and fleet
        blocks are *exact* merges of the community reports — bitwise
        what K solo runs would compute (``tests/test_fleet_scoreboard``
        pins this, cut/resume and fault injection included).
        """
        communities: dict[str, dict[str, Any]] = {}
        shards: dict[str, dict[str, Any]] = {}
        for sid in sorted(self._workers):
            reports = self._workers[sid].scoreboards()
            shards[sid] = merge_reports(reports[cid] for cid in sorted(reports))
            communities.update(reports)
        fleet = merge_reports(communities[cid] for cid in sorted(communities))
        return {
            "fleet": fleet,
            "shards": shards,
            "communities": {cid: communities[cid] for cid in sorted(communities)},
        }

    def trace_layout(self) -> dict[str, Any]:
        """The fleet's deterministic Chrome-trace pid/tid grid."""
        return fleet_trace_layout(
            {
                sid: worker.community_ids
                for sid, worker in self._workers.items()
            }
        )

    # ------------------------------------------------------------------
    def publish_shard_gauges(self) -> None:
        """Export per-shard progress as PERF gauges.

        Called before every Prometheus render so scrapes see
        ``repro_fleet_shard_<id>_*`` gauges next to the fleet-wide
        ``repro_fleet_*`` counters and the ``fleet.advance`` latency
        summary the lockstep timer accumulates.
        """
        for sid, worker in self._workers.items():
            stats = worker.stats()["totals"]
            prefix = f"fleet.shard.{sid}"
            PERF.set_gauge(f"{prefix}.communities", float(stats["communities"]))
            PERF.set_gauge(
                f"{prefix}.events_processed", float(stats["events_processed"])
            )
            PERF.set_gauge(
                f"{prefix}.slots_processed", float(stats["slots_processed"])
            )
            PERF.set_gauge(f"{prefix}.flags_total", float(stats["flags_total"]))
            PERF.set_gauge(f"{prefix}.repairs", float(stats["repairs"]))
            PERF.set_gauge(f"{prefix}.gaps", float(stats["gaps"]))
            PERF.set_gauge(
                f"{prefix}.exhausted", 1.0 if worker.exhausted else 0.0
            )


def build_fleet(
    specs: Sequence[CommunitySpec],
    *,
    n_shards: int = 1,
    vnodes: int = 64,
    cache: GameSolutionCache | None = None,
    shard_ids: Sequence[str] | None = None,
    stall_budget: int = 32,
) -> FleetEngine:
    """Assemble a fleet: ring the shards, hash the specs, build engines.

    Communities are built in ascending community-id order so expensive
    construction work (game solves) lands in the shared ``cache`` in a
    deterministic order regardless of shard layout.
    """
    if not specs:
        raise ValueError("a fleet needs at least one community spec")
    ids = [spec.community_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("community ids must be unique across the fleet")
    if shard_ids is None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        shard_ids = [f"s{k}" for k in range(n_shards)]
    elif len(set(shard_ids)) != len(shard_ids):
        raise ValueError("shard ids must be unique")
    ring = HashRing(shard_ids, vnodes=vnodes)
    engines_by_shard: dict[str, dict[str, StreamEngine]] = {
        sid: {} for sid in ring.shards
    }
    for spec in sorted(specs, key=lambda s: s.community_id):
        shard_id = ring.assign(spec.community_id)
        engines_by_shard[shard_id][spec.community_id] = spec.build_engine(cache=cache)
    workers = {
        sid: ShardWorker(sid, engines) for sid, engines in engines_by_shard.items()
    }
    return FleetEngine(ring, workers, stall_budget=stall_budget)
