"""Checkpoint/resume property tests: a killed stream must continue
bitwise-identically to one that never stopped, from any cut point."""

import json

import numpy as np
import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    SolarConfig,
    TimeGrid,
)
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import (
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.stream.pipeline import build_replay_engine, build_synthetic_engine


@pytest.fixture(scope="module")
def tiny_config() -> CommunityConfig:
    return CommunityConfig(
        n_customers=8,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=24, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        game=GameConfig(
            max_rounds=2,
            inner_iterations=1,
            ce_samples=8,
            ce_elites=2,
            ce_iterations=2,
            convergence_tol=0.1,
        ),
        detection=DetectionConfig(n_monitored_meters=4, hack_probability=0.15),
        seed=11,
    )


@pytest.fixture(scope="module")
def cache() -> GameSolutionCache:
    return GameSolutionCache()


@pytest.fixture(scope="module")
def reference_timeline(tiny_config, cache):
    """The uninterrupted replay run every resumed run must match."""
    engine = build_replay_engine(
        tiny_config, detector="aware", n_slots=48, calibration_trials=5, cache=cache
    )
    engine.run()
    return [det.to_dict() for det in engine.timeline]


class TestReplayCheckpointProperty:
    def test_resume_is_bitwise_identical_over_random_cuts(
        self, tiny_config, cache, reference_timeline, tmp_path
    ):
        """Kill the stream at random event counts; the resumed engine's
        completed timeline must equal the uninterrupted one exactly —
        including RNG-dependent flags and repair-feedback dynamics."""
        rng = np.random.default_rng(123)
        total_events = 2 * (24 + 2)
        cuts = sorted(set(rng.integers(1, total_events, size=6).tolist()))
        for cut in cuts:
            engine = build_replay_engine(
                tiny_config,
                detector="aware",
                n_slots=48,
                calibration_trials=5,
                cache=cache,
            )
            engine.run(max_events=cut)
            path = tmp_path / f"cut{cut}.json"
            save_checkpoint(engine, path)
            resumed = resume_engine(path, cache=cache)
            assert resumed.events_processed == cut
            resumed.run()
            assert [
                det.to_dict() for det in resumed.timeline
            ] == reference_timeline, f"divergence after resume at event {cut}"

    def test_checkpoint_mid_run_does_not_perturb_stream(
        self, tiny_config, cache, reference_timeline, tmp_path
    ):
        """Saving a checkpoint is read-only: the checkpointing engine
        itself must still finish identically."""
        engine = build_replay_engine(
            tiny_config, detector="aware", n_slots=48, calibration_trials=5, cache=cache
        )
        engine.run(max_events=30)
        save_checkpoint(engine, tmp_path / "mid.json")
        engine.run()
        assert [det.to_dict() for det in engine.timeline] == reference_timeline


class TestSyntheticCheckpoint:
    def test_round_trip(self, tiny_config, cache, tmp_path):
        engine = build_synthetic_engine(
            tiny_config, n_days=4, attack_days=(1, 3), cache=cache
        )
        engine.run(max_events=40)
        path = save_checkpoint(engine, tmp_path / "syn.json")
        resumed = resume_engine(path, cache=cache)
        engine.run()
        resumed.run()
        assert [det.to_dict() for det in engine.timeline] == [
            det.to_dict() for det in resumed.timeline
        ]


class TestCheckpointFormat:
    def test_file_is_json_with_sections(self, tiny_config, cache, tmp_path):
        engine = build_synthetic_engine(tiny_config, n_days=1, cache=cache)
        engine.run(max_events=3)
        path = save_checkpoint(engine, tmp_path / "ck.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-stream-checkpoint"
        assert payload["build"]["kind"] == "synthetic"
        assert payload["state"]["events_processed"] == 3
        assert payload["state"]["rng"] is not None

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a stream checkpoint"):
            load_checkpoint(path)

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"format": "repro-stream-checkpoint", "version": 99, "build": {}, "state": {}}
            )
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_resume_rejects_unknown_kind(self, tiny_config, cache):
        from repro.core.config import config_to_dict
        from repro.stream.checkpoint import checkpoint_payload

        bogus_kind = {
            "build": {"kind": "bogus", "config": config_to_dict(tiny_config)},
            "state": {},
        }
        # A misspelt detector must not resume as the aware default.
        tampered = checkpoint_payload(
            build_synthetic_engine(tiny_config, detector="unaware", n_days=1, cache=cache)
        )
        tampered["build"]["detector"] = "unawre"
        for payload, match in (
            (bogus_kind, "unknown checkpoint build kind"),
            (tampered, "unknown detector kind 'unawre'"),
        ):
            with pytest.raises(ValueError, match=match):
                resume_engine(payload)

    @pytest.mark.parametrize(
        "section, name, value, refusal",
        [
            pytest.param("pricing", "sellback_divisor", float("nan"), None, id="nan"),
            pytest.param("pricing", "sellback_divisor", float("inf"), None, id="inf"),
            pytest.param("game", "hysteresis", float("nan"), None, id="game-nan"),
            pytest.param(
                "detection", "damage_per_meter", float("inf"), None, id="detection-inf"
            ),
            pytest.param(
                "battery", "max_charge_kw", float("nan"), None, id="battery-nan"
            ),
            pytest.param("solar", "peak_kw", float("inf"), None, id="solar-inf"),
            pytest.param(
                "game",
                "hysteresis",
                "0.1",
                "hysteresis must be a real number",
                id="game-str",
            ),
            pytest.param(
                "game",
                "hysteresis",
                10**400,
                "hysteresis must be finite",
                id="game-401-digit-int",
            ),
            # A checkpoint written while the solver had warm-start
            # settings: its retired key is refused, not ignored.
            pytest.param(
                "solver",
                "warm_start",
                False,
                "SolverConfig has no field 'warm_start'",
                id="solver-retired-key",
            ),
            pytest.param(
                "game",
                "max_rounds",
                float("inf"),
                "max_rounds must be an integer, got inf",
                id="game-int-infinity",
            ),
            # ``name=None`` replaces the whole section.
            pytest.param(
                "game", None, 5, "GameConfig section must be an object", id="game-not-object"
            ),
            # The lockstep-batching switch, retired when every solve
            # became a lockstep batch.
            pytest.param(
                "solver",
                "batch_games",
                True,
                "SolverConfig has no field 'batch_games'",
                id="solver-retired-batch-key",
            ),
        ],
    )
    def test_resume_rejects_non_finite_pricing(
        self, tiny_config, cache, tmp_path, monkeypatch, section, name, value, refusal
    ):
        """JSON reads NaN and Infinity literals, strings, huge integers
        and unknown keys; the config refuses them before any engine is
        built, in every config section."""
        import repro.stream.pipeline as pipeline
        from repro.core.config import ConfigError

        engine = build_synthetic_engine(tiny_config, n_days=1, cache=cache)
        path = save_checkpoint(engine, tmp_path / "ck.json")
        payload = json.loads(path.read_text())
        config = payload["build"]["config"]
        if name is None:
            config[section] = value
        else:
            config[section][name] = value
        path.write_text(json.dumps(payload))

        def no_build(*args, **kwargs):
            raise AssertionError("engine built from a non-finite config")

        monkeypatch.setattr(pipeline, "build_synthetic_engine", no_build)
        monkeypatch.setattr(pipeline, "build_replay_engine", no_build)
        with pytest.raises(ConfigError, match=refusal or f"{name} must be finite"):
            resume_engine(path, cache=cache)

    def test_no_tmp_file_left_behind(self, tiny_config, cache, tmp_path):
        engine = build_synthetic_engine(tiny_config, n_days=1, cache=cache)
        engine.run(max_events=2)
        save_checkpoint(engine, tmp_path / "ck.json")
        assert list(tmp_path.glob("*.tmp")) == []
