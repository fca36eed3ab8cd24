"""Golden-master regression for the tariff × attack scenario matrix.

``tests/golden/matrix_digests.json`` pins a small corner of the full
matrix (``docs/SCENARIOS.md``) at the smoke preset: flat vs NEM-3.0
spread tariffs × peak-increase vs meter-outage campaigns × all three
detector variants, at the golden 48-slot horizon.  Two contracts:

1. A fresh :func:`~repro.reporting.golden.compute_matrix_digests` run
   matches the committed fixture leaf for leaf (metrics verbatim, array
   digests bitwise) — on every kernel backend (CI reruns this file
   under ``REPRO_BACKEND=reference`` and ``REPRO_BACKEND=fused``).
2. The matrix *contains* the paper's Table 1 run as cells: the
   ``("flat", "peak_increase")`` column is digest-identical to the
   scenario entries already pinned by ``smoke_digests.json``, because
   the flat tariff resolves to ``tariff=None`` — the exact pre-tariff
   code path.

After an intentional change, regenerate with ``make refresh-golden``
(or ``python scripts/refresh_golden.py --matrix``) and commit the diff.
"""

import json
from pathlib import Path

from repro.core.presets import smoke_preset
from repro.reporting.golden import (
    MATRIX_GOLDEN_DETECTORS,
    MATRIX_GOLDEN_FAMILIES,
    MATRIX_GOLDEN_TARIFFS,
    compute_matrix_digests,
    diff_digests,
    load_golden_digests,
)
from repro.simulation.sweep import MATRIX_FORMAT, MATRIX_VERSION

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_matrix_fixture() -> dict:
    payload = json.loads(
        (GOLDEN_DIR / "matrix_digests.json").read_text(encoding="utf-8")
    )
    assert payload["format"] == MATRIX_FORMAT
    assert payload["version"] == MATRIX_VERSION
    return payload


class TestMatrixFixture:
    def test_fixture_is_committed_and_well_formed(self):
        fixture = _load_matrix_fixture()
        axes = fixture["axes"]
        assert tuple(axes["tariff"]) == MATRIX_GOLDEN_TARIFFS
        assert tuple(axes["attack_family"]) == MATRIX_GOLDEN_FAMILIES
        assert tuple(axes["detector"]) == MATRIX_GOLDEN_DETECTORS
        n_expected = (
            len(axes["tariff"])
            * len(axes["attack_family"])
            * len(axes["pv_adoption"])
            * len(axes["detector"])
        )
        assert len(fixture["cells"]) == n_expected
        for cell in fixture["cells"]:
            assert len(cell["truth_sha256"]) == 64
            assert len(cell["flags_sha256"]) == 64
            assert len(cell["realized_grid_sha256"]) == 64

    def test_fixture_passes_the_artifact_validator(self):
        """The committed fixture is itself a valid sweep-matrix artifact."""
        import importlib.util

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "validate_matrix.py"
        )
        spec = importlib.util.spec_from_file_location("validate_matrix", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        fixture = _load_matrix_fixture()
        assert module.validate_matrix(fixture) == len(fixture["cells"])

    def test_fresh_matrix_matches_committed_digests(self):
        """The matrix regression gate: recompute the grid, diff every leaf."""
        expected = _load_matrix_fixture()
        actual = compute_matrix_digests(smoke_preset())
        # diff_digests walks dicts; index the cell list by coordinate so a
        # drifted cell is named rather than positional.
        def by_coord(doc: dict) -> dict:
            return {
                "axes": doc["axes"],
                "n_slots": doc["n_slots"],
                "config_sha256": doc["config_sha256"],
                "cells": {
                    f"{c['tariff']}/{c['attack_family']}"
                    f"/pv{c['pv_adoption']}/{c['detector']}": c
                    for c in doc["cells"]
                },
            }

        diffs = diff_digests(by_coord(expected), by_coord(actual))
        assert not diffs, (
            "matrix drift (run `make refresh-golden` only if intentional):\n"
            + "\n".join(diffs)
        )


class TestTableOneCell:
    def test_flat_column_is_the_pinned_table1_run(self):
        """The flat/peak-increase cells ARE the seed Table 1 scenarios.

        ``smoke_digests.json`` predates the tariff layer; the matrix's
        flat column must reproduce its scenario digests bitwise — this
        is the net-metering-vs-flat acceptance contract.
        """
        matrix = _load_matrix_fixture()
        legacy = load_golden_digests(GOLDEN_DIR / "smoke_digests.json")
        assert matrix["n_slots"] == legacy["n_slots"]
        # Same community fingerprint: tariff=None is omitted from the
        # config payload, so pre-tariff and matrix hashes coincide.
        assert matrix["config_sha256"] == legacy["config_sha256"]
        pv = matrix["axes"]["pv_adoption"][0]
        for detector in ("none", "unaware", "aware"):
            (cell,) = [
                c
                for c in matrix["cells"]
                if c["tariff"] == "flat"
                and c["attack_family"] == "peak_increase"
                and c["pv_adoption"] == pv
                and c["detector"] == detector
            ]
            pinned = legacy["scenarios"][detector]
            assert cell["truth_sha256"] == pinned["truth_sha256"]
            assert cell["flags_sha256"] == pinned["flags_sha256"]
            assert cell["realized_grid_sha256"] == pinned["realized_grid_sha256"]
            assert cell["mean_par"] == pinned["mean_par"]
            assert cell["observation_accuracy"] == pinned["observation_accuracy"]
            assert cell["n_repairs"] == pinned["n_repairs"]


class TestCellScoreboards:
    """Every matrix cell carries an internally consistent scoreboard."""

    def test_every_cell_scoreboard_is_consistent(self):
        matrix = _load_matrix_fixture()
        for cell in matrix["cells"]:
            board = cell["scoreboard"]
            assert board["format"] == "repro-scoreboard"
            episodes = board["episodes"]
            assert episodes["resolved"] + episodes["open"] == episodes["total"]
            # A still-open episode may be neither detected nor missed yet.
            assert episodes["detected"] + episodes["missed"] <= episodes["total"]
            undecided = (
                episodes["total"] - episodes["detected"] - episodes["missed"]
            )
            assert undecided <= episodes["open"]
            slots = board["slots"]
            assert (
                slots["scored"] + slots["unscored"] + slots["gaps"]
                == slots["total"]
            )
            assert slots["total"] == matrix["n_slots"]
            # A fault-free replay has no telemetry gaps or unscored slots.
            assert slots["gaps"] == 0 and slots["unscored"] == 0
            assert len(board["mttd"]["samples"]) == episodes["detected"]
            assert board["mttd"]["total_slots"] == sum(board["mttd"]["samples"])

    def test_family_attribution_is_the_cell_axis(self):
        """The scenario replay attributes every episode to the cell's family."""
        matrix = _load_matrix_fixture()
        for cell in matrix["cells"]:
            board = cell["scoreboard"]
            families = board["families"]
            if board["episodes"]["total"]:
                assert set(families) == {cell["attack_family"]}
                block = families[cell["attack_family"]]
                assert block["episodes"] == board["episodes"]["total"]
                assert block["detected"] == board["episodes"]["detected"]
            else:
                assert families == {}

    def test_none_detector_monitors_but_never_repairs(self):
        """Table 1's "none" column: flags fire, nothing ever resolves.

        The "none" detector keeps monitoring but never repairs, so every
        compromise persists to the horizon — one perpetual open episode,
        zero resolutions, an empty MTTR ledger.
        """
        matrix = _load_matrix_fixture()
        none_cells = [c for c in matrix["cells"] if c["detector"] == "none"]
        assert none_cells
        for cell in none_cells:
            board = cell["scoreboard"]
            assert cell["n_repairs"] == 0
            assert board["episodes"]["resolved"] == 0
            assert board["episodes"]["open"] == board["episodes"]["total"]
            assert board["mttr"]["samples"] == []

    def test_fresh_cell_scoreboard_matches_its_arrays(self):
        """A committed cell's block equals a live board on its replay.

        Closes the loop between the fixture (pinned bitwise by
        ``test_fresh_matrix_matches_committed_digests``) and the
        scoreboard semantics: the block is the live scoreboard folded
        slot by slot over the cell's own scenario replay.
        """
        from repro.obs.scoreboard import ResilienceScoreboard
        from repro.stream.pipeline import build_replay_engine

        matrix = _load_matrix_fixture()
        pv = matrix["axes"]["pv_adoption"][0]
        (cell,) = [
            c
            for c in matrix["cells"]
            if c["tariff"] == "flat"
            and c["attack_family"] == "peak_increase"
            and c["pv_adoption"] == pv
            and c["detector"] == "aware"
        ]
        engine = build_replay_engine(
            smoke_preset(),
            detector="aware",
            n_slots=matrix["n_slots"],
            attack_family="peak_increase",
        )
        board = ResilienceScoreboard(default_family="peak_increase")
        engine.pipeline.scoreboard = board
        engine.run()
        assert board.report() == cell["scoreboard"]
