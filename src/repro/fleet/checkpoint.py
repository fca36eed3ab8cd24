"""Per-shard fleet checkpoints riding the stream checkpoint machinery.

A fleet checkpoint is a directory: one ``fleet.json`` manifest (ring
layout, shard → file map, community → shard assignment) plus one
``shard-<id>.json`` document per shard.  Each shard document holds the
*unmodified* :func:`repro.stream.checkpoint.checkpoint_payload` of every
community engine the shard owns, so a community's slice of a fleet
checkpoint is indistinguishable from a standalone engine checkpoint —
resume goes through :func:`repro.stream.checkpoint.resume_engine`
verbatim, inheriting its bitwise resume guarantee.

Every file is written atomically (temp + rename) and the manifest is
written *last*: a crash mid-save leaves either a complete new
checkpoint or a complete old one, never a torn mix that loads.
Damage — missing files, bad JSON, wrong markers, assignment drift,
sections of the wrong type, community payloads that do not resume — is
reported as :class:`repro.stream.checkpoint.CheckpointError`, chained
to the failure it caused, and no fleet is returned.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.fleet.ring import HashRing
from repro.fleet.worker import ShardWorker
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import (
    CheckpointError,
    checkpoint_payload,
    read_json_object,
    refused_as_damage,
    resume_engine,
)

if TYPE_CHECKING:
    from repro.fleet.engine import FleetEngine

FLEET_MANIFEST_NAME = "fleet.json"
FLEET_FORMAT = "repro-fleet-checkpoint"
SHARD_FORMAT = "repro-fleet-shard-checkpoint"
FLEET_VERSION = 1


def _shard_filename(shard_id: str) -> str:
    return f"shard-{shard_id}.json"


def _atomic_write(path: Path, payload: dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def save_fleet_checkpoint(fleet: "FleetEngine", directory: str | Path) -> Path:
    """Persist the whole fleet; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    assignments: dict[str, str] = {}
    for worker in fleet.workers:
        shard_payload = {
            "format": SHARD_FORMAT,
            "version": FLEET_VERSION,
            "shard": worker.shard_id,
            "communities": {
                cid: checkpoint_payload(worker.engine(cid))
                for cid in worker.community_ids
            },
        }
        for cid in worker.community_ids:
            assignments[cid] = worker.shard_id
        _atomic_write(directory / _shard_filename(worker.shard_id), shard_payload)
    manifest = {
        "format": FLEET_FORMAT,
        "version": FLEET_VERSION,
        "ring": fleet.ring.to_dict(),
        "shards": {
            worker.shard_id: _shard_filename(worker.shard_id)
            for worker in fleet.workers
        },
        "communities": {cid: assignments[cid] for cid in sorted(assignments)},
    }
    manifest_path = directory / FLEET_MANIFEST_NAME
    _atomic_write(manifest_path, manifest)
    return manifest_path


def load_fleet_manifest(directory: str | Path) -> dict[str, Any]:
    """Read and validate a fleet checkpoint's manifest."""
    path = Path(directory) / FLEET_MANIFEST_NAME
    payload = read_json_object(path, what="fleet manifest")
    if payload.get("format") != FLEET_FORMAT:
        raise CheckpointError(f"not a fleet checkpoint manifest: {path}")
    if payload.get("version") != FLEET_VERSION:
        raise CheckpointError(
            f"unsupported fleet checkpoint version {payload.get('version')!r} "
            f"(expected {FLEET_VERSION})"
        )
    for key in ("ring", "shards", "communities"):
        if key not in payload:
            raise CheckpointError(f"fleet manifest missing {key!r} section: {path}")
    return payload


def resume_fleet(
    directory: str | Path,
    *,
    cache: GameSolutionCache | None = None,
    stall_budget: int = 32,
) -> "FleetEngine":
    """Rebuild a fleet from a checkpoint directory.

    Every community engine is reconstructed and restored by the existing
    single-engine machinery, so the resumed fleet continues
    bitwise-identically to one that never stopped.  Any damage raises
    :class:`~repro.stream.checkpoint.CheckpointError`.
    """
    directory = Path(directory)
    with refused_as_damage(f"fleet checkpoint {directory} does not resume"):
        fleet = _resume_fleet(directory, cache, stall_budget)
    return fleet


def _resume_fleet(
    directory: Path, cache: GameSolutionCache | None, stall_budget: int
) -> "FleetEngine":
    from repro.fleet.engine import FleetEngine

    manifest = load_fleet_manifest(directory)
    ring = HashRing.from_dict(manifest["ring"])
    expected = {
        str(cid): str(sid) for cid, sid in manifest["communities"].items()
    }
    workers: dict[str, ShardWorker] = {}
    for shard_id in ring.shards:
        filename = manifest["shards"].get(shard_id)
        if filename is None:
            raise CheckpointError(
                f"fleet manifest lists no checkpoint file for shard {shard_id!r}"
            )
        shard_payload = read_json_object(
            directory / str(filename), what="shard checkpoint"
        )
        if shard_payload.get("format") != SHARD_FORMAT:
            raise CheckpointError(
                f"not a shard checkpoint: {directory / str(filename)}"
            )
        if shard_payload.get("shard") != shard_id:
            raise CheckpointError(
                f"shard checkpoint {filename!r} claims shard "
                f"{shard_payload.get('shard')!r}, manifest expected {shard_id!r}"
            )
        communities = shard_payload.get("communities")
        if not isinstance(communities, dict):
            raise CheckpointError(
                f"shard checkpoint {filename!r} missing 'communities' section"
            )
        engines = {}
        for cid in sorted(communities):
            if expected.get(cid) != shard_id:
                raise CheckpointError(
                    f"community {cid!r} found in shard {shard_id!r} but the "
                    f"manifest assigns it to {expected.get(cid)!r}"
                )
            if ring.assign(cid) != shard_id:
                raise CheckpointError(
                    f"community {cid!r} no longer hashes to shard {shard_id!r}; "
                    "the ring in the manifest does not match the shard files"
                )
            engines[cid] = resume_engine(communities[cid], cache=cache)
        workers[shard_id] = ShardWorker(shard_id, engines)
    restored = {
        cid for worker in workers.values() for cid in worker.community_ids
    }
    missing = sorted(set(expected) - restored)
    if missing:
        raise CheckpointError(
            f"fleet manifest lists communities with no shard payload: {missing}"
        )
    return FleetEngine(ring, workers, stall_budget=stall_budget)
