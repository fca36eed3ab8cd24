"""Seeded fleet workload generator: community specs and event envelopes.

The :class:`LoadGenerator` turns one base community configuration into a
fleet of N tenant specs that share the expensive world (same
``config.seed`` → same community build → shared game-solution cache
entries) while differing in everything stream-visible: per-community
attack windows, strengths, compromised-meter sets and pipeline seeds,
all drawn from :class:`numpy.random.SeedSequence`-spawned child streams
so the workload is exactly reproducible for a given fleet seed.

Two consumption modes:

- :meth:`specs` feeds :func:`~repro.fleet.engine.build_fleet` (the
  ``advance`` path — each engine pumps its own attached source, repair
  feedback included);
- :meth:`envelopes` materializes the same communities' event streams as
  batched fleet envelopes for the ``POST /envelope`` ingestion path
  (external feeds carry no repair feedback edge, exactly like the
  single-community service's ``POST /events``).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.core.config import CommunityConfig
from repro.faults.plan import FaultPlan
from repro.fleet.engine import CommunitySpec
from repro.simulation.scenario import DetectorKind
from repro.stream.events import event_to_dict
from repro.stream.source import SyntheticSource, synthetic_attack_script


class LoadGenerator:
    """Deterministic generator of multi-community workloads.

    Parameters
    ----------
    base_config:
        Shared community configuration (one world, cached solves).
    n_communities:
        Fleet size.
    n_days:
        Stream length per community.
    seed:
        Fleet seed; every per-community draw comes from a spawned child
        of this seed, so ``LoadGenerator(cfg, n_communities=5, seed=3)``
        always produces the same five specs — and the first K of them
        match ``n_communities=K`` with the same seed (spawn keys are
        positional).
    detector:
        Detector kind for every community.
    attack_strength_range:
        Uniform range the per-community attack strength is drawn from.
    faults:
        Optional fault plan template; each community gets a copy
        re-seeded from its own child stream so chaos differs per tenant
        but replays identically run to run.
    announce_attacks:
        Run every community's attack window as a *scripted campaign*:
        the source announces it on the ground-truth ledger
        (:class:`~repro.stream.events.AttackOccurrence`) so resilience
        scoreboards attribute episodes to attack families.  The attack
        itself — days, meters, strength — is unchanged.
    """

    def __init__(
        self,
        base_config: CommunityConfig,
        *,
        n_communities: int,
        n_days: int = 4,
        seed: int = 0,
        detector: DetectorKind = "aware",
        attack_strength_range: tuple[float, float] = (0.4, 0.8),
        faults: FaultPlan | None = None,
        announce_attacks: bool = False,
    ) -> None:
        if n_communities < 1:
            raise ValueError(f"n_communities must be >= 1, got {n_communities}")
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {n_days}")
        lo, hi = attack_strength_range
        if not 0.0 <= lo <= hi:
            raise ValueError(
                f"attack_strength_range must satisfy 0 <= lo <= hi, got "
                f"{attack_strength_range}"
            )
        self.base_config = base_config
        self.n_communities = n_communities
        self.n_days = n_days
        self.seed = seed
        self.detector: DetectorKind = detector
        self.attack_strength_range = (float(lo), float(hi))
        self.faults = faults
        self.announce_attacks = announce_attacks

    # ------------------------------------------------------------------
    def specs(self) -> tuple[CommunitySpec, ...]:
        """The fleet's community specs, reproducible for the seed."""
        children = np.random.SeedSequence(self.seed).spawn(self.n_communities)
        n_meters = self.base_config.detection.n_monitored_meters
        lo, hi = self.attack_strength_range
        out: list[CommunitySpec] = []
        for index, child in enumerate(children):
            rng = np.random.default_rng(child)
            if self.n_days >= 2:
                start = int(rng.integers(0, self.n_days - 1))
                end = int(rng.integers(start + 1, self.n_days + 1))
            else:
                start, end = 0, 1
            strength = float(rng.uniform(lo, hi))
            n_hacked = max(1, n_meters // 2)
            hacked = tuple(
                sorted(int(m) for m in rng.choice(n_meters, size=n_hacked, replace=False))
            )
            stream_seed = int(rng.integers(0, 2**31 - 1))
            faults = None
            if self.faults is not None:
                fault_seed = int(rng.integers(0, 2**31 - 1))
                faults = FaultPlan.from_dict(
                    {**self.faults.to_dict(), "seed": fault_seed}
                )
            out.append(
                CommunitySpec(
                    community_id=f"c{index:04d}",
                    config=self.base_config,
                    n_days=self.n_days,
                    attack_days=(start, end),
                    attack_strength=strength,
                    hacked_meters=hacked,
                    detector=self.detector,
                    seed=stream_seed,
                    faults=faults,
                    announce_attacks=self.announce_attacks,
                )
            )
        return tuple(out)

    # ------------------------------------------------------------------
    def source_for(self, spec: CommunitySpec) -> SyntheticSource:
        """The detached synthetic source one spec's engine would pump.

        Sources are cheap (no game solves), so envelope generation never
        builds detector stacks.
        """
        script = synthetic_attack_script(
            spec.config,
            attack_days=spec.attack_days,
            hacked_meters=spec.hacked_meters,
            attack_strength=spec.attack_strength,
            announce=spec.announce_attacks,
        )
        return script.source(spec.config, n_days=spec.n_days)

    def envelopes(
        self, specs: tuple[CommunitySpec, ...] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Lockstep envelope stream over the fleet's communities.

        Envelope *t* carries event *t* of every community whose stream
        is still live, in ascending community-id order — the wire-format
        twin of one :meth:`~repro.fleet.engine.FleetEngine.tick`.
        """
        if specs is None:
            specs = self.specs()
        sources = {
            spec.community_id: self.source_for(spec)
            for spec in sorted(specs, key=lambda s: s.community_id)
        }
        while True:
            entries: list[dict[str, Any]] = []
            for cid, source in sources.items():
                if source.exhausted:
                    continue
                event = source.next_event()
                if event is None:
                    continue
                entries.append({"community": cid, "event": event_to_dict(event)})
            if not entries:
                return
            yield {"entries": entries}
