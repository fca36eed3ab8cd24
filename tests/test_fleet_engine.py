"""Fleet engine wiring: build, advance, envelopes, checkpoint damage."""

import json

import pytest

from repro.fleet.checkpoint import (
    FLEET_MANIFEST_NAME,
    load_fleet_manifest,
    resume_fleet,
    save_fleet_checkpoint,
)
from repro.fleet.engine import CommunitySpec, FleetEngine, build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.fleet.ring import HashRing
from repro.fleet.worker import ShardWorker
from repro.perf.counters import PERF
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import CheckpointError
from repro.stream.events import event_to_dict


def _drain(source):
    events = []
    while not source.exhausted:
        event = source.next_event()
        if event is not None:
            events.append(event_to_dict(event))
    return events


@pytest.fixture(scope="module")
def fleet_cache():
    """Module-wide solve cache: every test's communities share one world."""
    return GameSolutionCache()


@pytest.fixture(scope="module")
def specs(fleet_config):
    generator = LoadGenerator(fleet_config, n_communities=3, n_days=2, seed=5)
    return generator.specs()


@pytest.fixture()
def fleet(specs, fleet_cache):
    return build_fleet(specs, n_shards=2, cache=fleet_cache)


class TestCommunitySpec:
    def test_round_trip(self, specs):
        for spec in specs:
            clone = CommunitySpec.from_dict(spec.to_dict())
            assert clone == spec

    def test_json_serializable(self, specs):
        json.dumps([spec.to_dict() for spec in specs])

    def test_validation(self, fleet_config):
        with pytest.raises(ValueError, match="community_id"):
            CommunitySpec(community_id="", config=fleet_config)
        with pytest.raises(ValueError, match="n_days"):
            CommunitySpec(community_id="c0", config=fleet_config, n_days=0)

    @pytest.mark.parametrize("announce", [False, True], ids=["window", "campaign"])
    def test_source_for_matches_engine_source(self, fleet_config, fleet_cache, announce):
        """Envelopes and ticks replay one attack script, event for event."""
        generator = LoadGenerator(
            fleet_config, n_communities=2, n_days=3, seed=5, announce_attacks=announce
        )
        default_hacked = CommunitySpec(
            community_id="cdefault",
            config=fleet_config,
            n_days=3,
            announce_attacks=announce,
        )
        for spec in generator.specs() + (default_hacked,):
            detached = generator.source_for(spec)
            attached = spec.build_engine(cache=fleet_cache).source
            events = _drain(detached)
            assert events == _drain(attached)
            has_occurrence = any(e["type"] == "attack_occurrence" for e in events)
            assert has_occurrence == announce


class TestBuildFleet:
    def test_ring_owns_every_community(self, fleet):
        for worker in fleet.workers:
            for cid in worker.community_ids:
                assert fleet.ring.assign(cid) == worker.shard_id

    def test_community_ids_sorted_and_complete(self, fleet, specs):
        assert fleet.community_ids == tuple(
            sorted(s.community_id for s in specs)
        )
        assert fleet.n_communities == len(specs)

    def test_duplicate_ids_rejected(self, specs):
        with pytest.raises(ValueError, match="unique"):
            build_fleet(list(specs) + [specs[0]], n_shards=1)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="at least one community"):
            build_fleet([], n_shards=1)

    def test_explicit_shard_ids(self, specs, fleet_cache):
        fleet = build_fleet(
            specs, shard_ids=["east", "west"], cache=fleet_cache
        )
        assert fleet.shard_ids == ("east", "west")


class TestFleetEngineValidation:
    def test_worker_on_wrong_shard_rejected(self, specs, fleet_cache):
        ring = HashRing(["s0", "s1"])
        engines = {
            spec.community_id: spec.build_engine(cache=fleet_cache)
            for spec in specs
        }
        # Deliberately hand every community to s0, defying the ring.
        workers = {
            "s0": ShardWorker("s0", engines),
            "s1": ShardWorker("s1", {}),
        }
        with pytest.raises(ValueError, match="owned by ring shard"):
            FleetEngine(ring, workers)

    def test_shard_set_mismatch_rejected(self):
        ring = HashRing(["s0", "s1"])
        with pytest.raises(ValueError, match="do not match"):
            FleetEngine(ring, {"s0": ShardWorker("s0", {})})

    def test_mis_keyed_worker_rejected(self):
        ring = HashRing(["s0"])
        with pytest.raises(ValueError, match="reports shard"):
            FleetEngine(ring, {"s0": ShardWorker("sX", {})})

    def test_unknown_community_lookup(self, fleet):
        with pytest.raises(ValueError, match="not owned by shard"):
            fleet.engine_of("c9999")


class TestAdvance:
    def test_until_day_stops_every_community(self, fleet):
        stats = fleet.advance(until_day=1)
        assert not stats.exhausted
        for cid in fleet.community_ids:
            assert fleet.engine_of(cid).pipeline.days_completed >= 1

    def test_max_ticks_bounds_the_call(self, fleet):
        stats = fleet.advance(max_ticks=3)
        assert stats.ticks == 3
        assert stats.events == 3 * fleet.n_communities

    def test_drain_to_exhaustion(self, fleet):
        stats = fleet.advance()
        assert stats.exhausted
        assert fleet.exhausted
        assert stats.detections == sum(
            fleet.engine_of(cid).pipeline.n_slots_processed
            for cid in fleet.community_ids
        )
        # A drained fleet advances no further.
        again = fleet.advance()
        assert again.ticks == 0

    def test_argument_validation(self, fleet):
        with pytest.raises(ValueError, match="max_ticks"):
            fleet.advance(max_ticks=-1)
        with pytest.raises(ValueError, match="until_day"):
            fleet.advance(until_day=-1)


class TestStatusAndDetections:
    def test_status_totals_are_consistent(self, fleet):
        fleet.advance(until_day=1)
        status = fleet.status()
        assert status["totals"]["communities"] == fleet.n_communities
        assert status["totals"]["shards"] == len(fleet.shard_ids)
        per_shard_slots = sum(
            shard["totals"]["slots_processed"]
            for shard in status["shards"].values()
        )
        assert status["totals"]["slots_processed"] == per_shard_slots
        assert set(status["ring"]["assignments"]) == set(fleet.community_ids)

    def test_detections_merged_and_tagged(self, fleet):
        fleet.advance(until_day=1)
        payload = fleet.detections()
        assert payload["total_slots"] == 24 * fleet.n_communities
        keys = [(d["slot"], d["community"]) for d in payload["detections"]]
        assert keys == sorted(keys)
        for det in payload["detections"]:
            assert fleet.ring.assign(det["community"]) == det["shard"]

    def test_detections_filtered_sliced(self, fleet):
        fleet.advance(until_day=1)
        cid = fleet.community_ids[0]
        payload = fleet.detections(community=cid, since=10, limit=5)
        assert payload["truncated"]
        assert len(payload["detections"]) == 5
        assert all(d["community"] == cid for d in payload["detections"])
        assert payload["detections"][0]["slot"] == 10

    def test_detections_validation(self, fleet):
        with pytest.raises(ValueError, match="since"):
            fleet.detections(since=-1)
        with pytest.raises(ValueError, match="limit"):
            fleet.detections(limit=0)
        with pytest.raises(ValueError, match="not owned"):
            fleet.detections(community="nope")

    def test_publish_shard_gauges(self, fleet):
        fleet.advance(max_ticks=2)
        fleet.publish_shard_gauges()
        gauges = PERF.gauges()
        for sid in fleet.shard_ids:
            assert f"fleet.shard.{sid}.communities" in gauges
            assert f"fleet.shard.{sid}.events_processed" in gauges


class TestEnvelope:
    def _one_envelope(self, fleet_config, specs):
        generator = LoadGenerator(fleet_config, n_communities=3, n_days=2, seed=5)
        return next(generator.envelopes(specs))

    def test_ingest_routes_and_reports(self, fleet, fleet_config, specs):
        envelope = self._one_envelope(fleet_config, specs)
        result = fleet.ingest_envelope(envelope)
        assert result["accepted"] == len(envelope["entries"])
        for item in result["results"]:
            assert fleet.ring.assign(item["community"]) == item["shard"]

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"entries": None}, "list field 'entries'"),
            ({"entries": [], "extra": 1}, "unknown envelope fields"),
            ({"entries": ["nope"]}, "not an object"),
            ({"entries": [{"community": "", "event": {}}]}, "community id"),
            ({"entries": [{"community": "c0000"}]}, "needs an event"),
            (
                {"entries": [{"community": "c0000", "event": {}, "x": 1}]},
                "unknown fields",
            ),
            (
                {"entries": [{"community": "c0000", "event": {"type": "?"}}]},
                "bad event",
            ),
            (
                {
                    "entries": [
                        {
                            "community": "c9999",
                            "event": {"type": "day_boundary", "day": 0},
                        }
                    ]
                },
                "not owned",
            ),
        ],
    )
    def test_malformed_envelopes_rejected(self, fleet, payload, match):
        with pytest.raises(ValueError, match=match):
            fleet.ingest_envelope(payload)

    def test_rejection_is_atomic(self, fleet, fleet_config, specs):
        envelope = self._one_envelope(fleet_config, specs)
        bad = {
            "entries": envelope["entries"][:1]
            + [{"community": "c9999", "event": {"type": "day_boundary", "day": 0}}]
        }
        before = {
            cid: fleet.engine_of(cid).pipeline.n_slots_processed
            for cid in fleet.community_ids
        }
        with pytest.raises(ValueError):
            fleet.ingest_envelope(bad)
        after = {
            cid: fleet.engine_of(cid).pipeline.n_slots_processed
            for cid in fleet.community_ids
        }
        assert after == before


class TestCheckpointDamage:
    def _checkpointed(self, fleet, tmp_path):
        fleet.advance(max_ticks=5)
        save_fleet_checkpoint(fleet, tmp_path)
        return tmp_path

    def test_manifest_round_trip(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        manifest = load_fleet_manifest(directory)
        assert set(manifest["shards"]) == set(fleet.shard_ids)
        assert set(manifest["communities"]) == set(fleet.community_ids)

    def test_corrupt_manifest(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        (directory / FLEET_MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="invalid JSON"):
            resume_fleet(directory)

    def test_wrong_manifest_format(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        (directory / FLEET_MANIFEST_NAME).write_text(json.dumps({"format": "x"}))
        with pytest.raises(CheckpointError, match="not a fleet checkpoint"):
            resume_fleet(directory)

    def test_missing_shard_file(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        victim = f"shard-{fleet.shard_ids[0]}.json"
        (directory / victim).unlink()
        with pytest.raises(CheckpointError, match="cannot read"):
            resume_fleet(directory)

    def test_shard_claiming_wrong_id(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        victim = directory / f"shard-{fleet.shard_ids[0]}.json"
        payload = json.loads(victim.read_text())
        payload["shard"] = "imposter"
        victim.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="claims shard"):
            resume_fleet(directory)

    def test_assignment_drift_detected(self, fleet, tmp_path):
        directory = self._checkpointed(fleet, tmp_path)
        manifest_path = directory / FLEET_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        # Pretend the ring had an extra shard: re-hashing must notice
        # that the shard files no longer match the manifest's ring.
        manifest["ring"]["shards"] = list(manifest["ring"]["shards"]) + ["ghost"]
        manifest["shards"]["ghost"] = "shard-ghost.json"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            resume_fleet(directory)
