"""Multi-community fleet engine: one front door over N sharded communities.

The fleet layer scales the single-community streaming twin
(:mod:`repro.stream`) to many tenants: a deterministic consistent-hash
ring (:mod:`repro.fleet.ring`) maps community ids onto shards, each
:class:`~repro.fleet.worker.ShardWorker` owns the
:class:`~repro.stream.pipeline.StreamEngine` instances of its shard's
communities, and the :class:`~repro.fleet.engine.FleetEngine` advances
every shard in lockstep ticks — one batched envelope's worth of events
per tick.  The :class:`~repro.fleet.aggregator.FleetAggregator` exposes
fleet-wide ``/status``, ``/detections`` and Prometheus ``/metrics`` over
HTTP, per-shard checkpoints round-trip through the existing stream
checkpoint machinery (:mod:`repro.fleet.checkpoint`), and the seeded
:class:`~repro.fleet.loadgen.LoadGenerator` builds reproducible fleets
and lockstep envelope streams for ``repro fleet serve`` and the
``perfbench/`` fleet workloads.

Determinism contract: every community's engine is fully independent
(its own source, pipeline and RNG), so a fleet run over K communities
produces *bitwise-identical* detections to K independent
single-community runs with the same specs — including cut/resume
across per-shard checkpoints and under seeded fault injection.  The
equivalence suite in ``tests/test_fleet_equivalence.py`` pins exactly
that.  See ``docs/FLEET.md``.
"""

from repro.fleet.checkpoint import resume_fleet, save_fleet_checkpoint
from repro.fleet.engine import CommunitySpec, FleetEngine, build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.fleet.ring import HashRing
from repro.fleet.worker import ShardWorker

__all__ = [
    "CommunitySpec",
    "FleetEngine",
    "HashRing",
    "LoadGenerator",
    "ShardWorker",
    "build_fleet",
    "resume_fleet",
    "save_fleet_checkpoint",
]
