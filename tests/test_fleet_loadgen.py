"""Load generator determinism: seeded specs, prefix property, envelopes."""

import pytest

from repro.faults.plan import builtin_plan
from repro.fleet.loadgen import LoadGenerator


class TestLoadGenerator:
    def test_specs_reproducible(self, fleet_config):
        a = LoadGenerator(fleet_config, n_communities=4, seed=3).specs()
        b = LoadGenerator(fleet_config, n_communities=4, seed=3).specs()
        assert a == b

    def test_seed_changes_the_workload(self, fleet_config):
        a = LoadGenerator(fleet_config, n_communities=4, seed=3).specs()
        b = LoadGenerator(fleet_config, n_communities=4, seed=4).specs()
        assert a != b

    def test_prefix_property(self, fleet_config):
        small = LoadGenerator(fleet_config, n_communities=2, seed=3).specs()
        large = LoadGenerator(fleet_config, n_communities=6, seed=3).specs()
        assert large[:2] == small

    def test_specs_vary_per_community(self, fleet_config):
        specs = LoadGenerator(fleet_config, n_communities=6, seed=3).specs()
        assert len({s.community_id for s in specs}) == 6
        assert len({s.seed for s in specs}) == 6
        # Attack windows stay inside the stream.
        for spec in specs:
            start, end = spec.attack_days
            assert 0 <= start < end <= spec.n_days
            lo, hi = 0.4, 0.8
            assert lo <= spec.attack_strength <= hi

    def test_fault_template_reseeded_per_community(self, fleet_config):
        template = builtin_plan("chaos")
        specs = LoadGenerator(
            fleet_config, n_communities=4, seed=3, faults=template
        ).specs()
        seeds = [spec.faults.seed for spec in specs]
        assert len(set(seeds)) == 4
        # Template fields survive the re-seeding.
        assert all(
            spec.faults.stall_prob == template.stall_prob for spec in specs
        )

    def test_validation(self, fleet_config):
        with pytest.raises(ValueError, match="n_communities"):
            LoadGenerator(fleet_config, n_communities=0)
        with pytest.raises(ValueError, match="n_days"):
            LoadGenerator(fleet_config, n_communities=1, n_days=0)
        with pytest.raises(ValueError, match="attack_strength_range"):
            LoadGenerator(
                fleet_config, n_communities=1, attack_strength_range=(0.8, 0.2)
            )

    def test_envelopes_are_lockstep(self, fleet_config):
        generator = LoadGenerator(
            fleet_config, n_communities=3, n_days=1, seed=3
        )
        envelopes = list(generator.envelopes())
        # events_per_day per community; every envelope carries each live
        # community exactly once, in ascending community-id order.
        source = generator.source_for(generator.specs()[0])
        assert len(envelopes) == source.events_per_day
        for envelope in envelopes:
            cids = [entry["community"] for entry in envelope["entries"]]
            assert cids == sorted(cids)
            assert len(cids) == 3
        first_types = [e["event"]["type"] for e in envelopes[0]["entries"]]
        assert first_types == ["price_update"] * 3
        last_types = [e["event"]["type"] for e in envelopes[-1]["entries"]]
        assert last_types == ["day_boundary"] * 3
