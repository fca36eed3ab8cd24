"""Generic parameter sweeps over the long-term scenario.

Powers the sensitivity studies: vary one configuration knob (PV
adoption, sell-back divisor, hack probability, detector threshold, ...)
across a grid and collect the detection metrics at each point.  Sweeps
express the paper's "impact assessment" framing as a first-class
operation: *how does the detection advantage move as net metering
penetration grows?*

:func:`sweep_matrix` generalizes the one-knob sweep into the scenario
matrix of ``docs/SCENARIOS.md``: a full tariff × attack-family ×
PV-penetration × detector grid.  Every cell is one scenario replay
(:func:`~repro.stream.pipeline.build_replay_engine`, the engine behind
:func:`~repro.simulation.scenario.run_long_term_scenario`) scored on a
live resilience scoreboard, and the ``("flat", "peak_increase")`` column at the config's own PV adoption is
*bitwise* the paper's Table 1 run — the flat tariff resolves to
``tariff=None``, so those cells take the exact pre-tariff code path the
golden-master fixtures pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from repro.core.config import CommunityConfig, config_to_dict
from repro.metrics.cost import LaborCostModel
from repro.obs.scoreboard import ResilienceScoreboard
from repro.perf.parallel import SERIAL_MAP, ParallelMap
from repro.simulation.scenario import DetectorKind, run_long_term_scenario
from repro.stream.pipeline import build_replay_engine

ConfigTransform = Callable[[CommunityConfig, Any], CommunityConfig]

MATRIX_FORMAT = "repro-sweep-matrix"
MATRIX_VERSION = 1


@dataclass(frozen=True)
class SweepPoint:
    """Metrics of one (parameter value, detector) cell."""

    value: Any
    detector: DetectorKind
    observation_accuracy: float
    mean_par: float
    labor_cost: float
    n_repairs: int


@dataclass(frozen=True)
class SweepResult:
    """A full grid of sweep points."""

    parameter: str
    points: tuple[SweepPoint, ...]

    def series(self, detector: DetectorKind, metric: str) -> list[tuple[Any, float]]:
        """Extract one (value, metric) series for a detector variant."""
        if metric not in (
            "observation_accuracy",
            "mean_par",
            "labor_cost",
            "n_repairs",
        ):
            raise ValueError(f"unknown metric {metric!r}")
        return [
            (point.value, float(getattr(point, metric)))
            for point in self.points
            if point.detector == detector
        ]


def _set_dotted(config: CommunityConfig, dotted: str, value: Any) -> CommunityConfig:
    """Replace a (possibly nested) config field addressed as ``a.b``."""
    parts = dotted.split(".")
    if len(parts) == 1:
        return config.with_updates(**{parts[0]: value})
    if len(parts) == 2:
        section_name, field_name = parts
        section = getattr(config, section_name)
        return config.with_updates(
            **{section_name: replace(section, **{field_name: value})}
        )
    raise ValueError(f"at most one level of nesting supported, got {dotted!r}")


def _run_one_cell(
    item: tuple[Any, DetectorKind, CommunityConfig, int, int | None, int],
) -> SweepPoint:
    """One self-contained sweep cell (module-level for pickling)."""
    value, detector, cell_config, n_slots, seed, calibration_trials = item
    labor_model = LaborCostModel(
        fixed_cost=cell_config.detection.repair_fixed_cost,
        per_meter_cost=cell_config.detection.repair_cost_per_meter,
    )
    result = run_long_term_scenario(
        cell_config,
        detector=detector,
        n_slots=n_slots,
        seed=seed,
        calibration_trials=calibration_trials,
    )
    return SweepPoint(
        value=value,
        detector=detector,
        observation_accuracy=result.observation_accuracy,
        mean_par=result.mean_par,
        labor_cost=result.labor_cost(labor_model),
        n_repairs=result.n_repairs,
    )


def sweep_scenario(
    config: CommunityConfig,
    *,
    parameter: str,
    values: tuple[Any, ...],
    detectors: tuple[DetectorKind, ...] = ("aware", "unaware"),
    n_slots: int = 24,
    seed: int | None = None,
    calibration_trials: int = 15,
    parallel: ParallelMap | None = None,
) -> SweepResult:
    """Run the scenario across a parameter grid.

    Parameters
    ----------
    parameter:
        Dotted config address, e.g. ``"pv_adoption"``,
        ``"pricing.sellback_divisor"``, ``"detection.par_threshold"`` or
        ``"detection.hack_probability"``.
    values:
        Grid of values assigned to the parameter.
    detectors:
        Which detector variants to evaluate at each point.
    n_slots:
        Scenario length per cell (a single day by default — sweeps trade
        horizon for grid coverage).
    parallel:
        Execution backend for the grid cells.  Every cell is a pure
        function of its (value, detector) pair, so results are identical
        across backends; the process backend spreads cells over cores.
    """
    if not values:
        raise ValueError("need at least one sweep value")
    if not detectors:
        raise ValueError("need at least one detector variant")
    pmap = parallel if parallel is not None else SERIAL_MAP
    items = [
        (value, detector, _set_dotted(config, parameter, value), n_slots, seed,
         calibration_trials)
        for value in values
        for detector in detectors
    ]
    points = pmap.map(_run_one_cell, items)
    return SweepResult(parameter=parameter, points=tuple(points))


# ----------------------------------------------------------------------
# Tariff × attack × PV-penetration scenario matrix (docs/SCENARIOS.md)


def _array_sha256(array: NDArray[Any]) -> str:
    """Content digest of an array's raw bytes (C order)."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@dataclass(frozen=True)
class MatrixCell:
    """Metrics and artifact digests of one matrix cell.

    The SHA-256 fields digest the scenario's boolean truth/flag rasters
    and the realized grid-demand trace, so a committed matrix fixture
    pins cell behaviour bitwise — the same convention the golden-master
    files under ``tests/golden/`` use.

    ``scoreboard`` is the cell's resilience block
    (:meth:`~repro.obs.scoreboard.ResilienceScoreboard.report`): MTTD,
    MTTR, availability and false-alarm rate folded from the same
    truth/flags/repairs arrays the digests pin, with every episode
    attributed to the cell's attack family.
    """

    tariff: str
    attack_family: str
    pv_adoption: float
    detector: DetectorKind
    observation_accuracy: float
    mean_par: float
    labor_cost: float
    n_repairs: int
    truth_sha256: str
    flags_sha256: str
    realized_grid_sha256: str
    scoreboard: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON payload of this cell (one entry of the artifact's list)."""
        return {
            "tariff": self.tariff,
            "attack_family": self.attack_family,
            "pv_adoption": self.pv_adoption,
            "detector": self.detector,
            "observation_accuracy": self.observation_accuracy,
            "mean_par": self.mean_par,
            "labor_cost": self.labor_cost,
            "n_repairs": self.n_repairs,
            "truth_sha256": self.truth_sha256,
            "flags_sha256": self.flags_sha256,
            "realized_grid_sha256": self.realized_grid_sha256,
            "scoreboard": self.scoreboard,
        }


@dataclass(frozen=True)
class MatrixResult:
    """A full tariff × attack × PV × detector grid."""

    tariffs: tuple[str, ...]
    attack_families: tuple[str, ...]
    pv_adoptions: tuple[float, ...]
    detectors: tuple[DetectorKind, ...]
    n_slots: int
    config_sha256: str
    cells: tuple[MatrixCell, ...]

    def cell(
        self,
        *,
        tariff: str,
        attack_family: str,
        pv_adoption: float,
        detector: DetectorKind,
    ) -> MatrixCell:
        """Look up one cell by its full coordinate."""
        for candidate in self.cells:
            if (
                candidate.tariff == tariff
                and candidate.attack_family == attack_family
                and candidate.pv_adoption == pv_adoption
                and candidate.detector == detector
            ):
                return candidate
        raise KeyError(
            f"no cell at tariff={tariff!r} attack_family={attack_family!r} "
            f"pv_adoption={pv_adoption!r} detector={detector!r}"
        )

    def to_dict(self) -> dict[str, Any]:
        """The ``repro-sweep-matrix`` JSON artifact."""
        return {
            "format": MATRIX_FORMAT,
            "version": MATRIX_VERSION,
            "axes": {
                "tariff": list(self.tariffs),
                "attack_family": list(self.attack_families),
                "pv_adoption": list(self.pv_adoptions),
                "detector": list(self.detectors),
            },
            "n_slots": self.n_slots,
            "config_sha256": self.config_sha256,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _run_matrix_cell(
    item: tuple[str, str, float, DetectorKind, CommunityConfig, int, int | None, int],
) -> MatrixCell:
    """One self-contained matrix cell (module-level for pickling)."""
    from repro.tariffs import named_tariff

    tariff_name, family, pv, detector, config, n_slots, seed, trials = item
    cell_config = config.with_updates(
        pv_adoption=pv, tariff=named_tariff(tariff_name)
    )
    labor_model = LaborCostModel(
        fixed_cost=cell_config.detection.repair_fixed_cost,
        per_meter_cost=cell_config.detection.repair_cost_per_meter,
    )
    engine = build_replay_engine(
        cell_config,
        detector=detector,
        n_slots=n_slots,
        seed=seed,
        calibration_trials=trials,
        attack_family=family,
    )
    # The replay announces no occurrences: every episode is the cell's family.
    scoreboard = ResilienceScoreboard(default_family=family)
    engine.pipeline.scoreboard = scoreboard
    engine.run()
    result = engine.result()
    return MatrixCell(
        tariff=tariff_name,
        attack_family=family,
        pv_adoption=pv,
        detector=detector,
        observation_accuracy=result.observation_accuracy,
        mean_par=result.mean_par,
        labor_cost=result.labor_cost(labor_model),
        n_repairs=result.n_repairs,
        truth_sha256=_array_sha256(result.truth),
        flags_sha256=_array_sha256(result.flags),
        realized_grid_sha256=_array_sha256(result.realized_grid),
        scoreboard=scoreboard.report(),
    )


def sweep_matrix(
    config: CommunityConfig,
    *,
    tariffs: tuple[str, ...] = ("flat", "nem3_spread"),
    attack_families: tuple[str, ...] = ("peak_increase", "meter_outage"),
    pv_adoptions: tuple[float, ...] | None = None,
    detectors: tuple[DetectorKind, ...] = ("aware", "unaware", "none"),
    n_slots: int = 48,
    seed: int | None = None,
    calibration_trials: int = 30,
    parallel: ParallelMap | None = None,
) -> MatrixResult:
    """Run the scenario across a tariff × attack × PV × detector grid.

    Parameters
    ----------
    tariffs:
        Named tariffs from :data:`repro.tariffs.NAMED_TARIFFS`.
        ``"flat"`` resolves to ``tariff=None`` — the legacy flat
        net-metering path — so its cells are bitwise-identical to the
        pre-tariff Table 1 pipeline.
    attack_families:
        Entries of :data:`repro.attacks.ATTACK_FAMILIES` driving the
        meter-hacking campaigns.
    pv_adoptions:
        PV-penetration grid; defaults to the config's own adoption (one
        point), which keeps the flat column golden-comparable.
    detectors:
        Detector variants per grid point (Table 1's three columns by
        default).
    n_slots / seed / calibration_trials:
        Forwarded to every cell's scenario replay; the defaults match
        the golden-master fixtures.
    parallel:
        Execution backend for the cells.  Every cell is a pure function
        of its coordinate, so the serial and process backends produce
        identical matrices.
    """
    if not tariffs:
        raise ValueError("need at least one tariff")
    if not attack_families:
        raise ValueError("need at least one attack family")
    if not detectors:
        raise ValueError("need at least one detector variant")
    if pv_adoptions is None:
        pv_adoptions = (config.pv_adoption,)
    if not pv_adoptions:
        raise ValueError("need at least one PV adoption level")
    pmap = parallel if parallel is not None else SERIAL_MAP
    items = [
        (tariff, family, pv, detector, config, n_slots, seed, calibration_trials)
        for tariff in tariffs
        for family in attack_families
        for pv in pv_adoptions
        for detector in detectors
    ]
    cells = pmap.map(_run_matrix_cell, items)
    return MatrixResult(
        tariffs=tuple(tariffs),
        attack_families=tuple(attack_families),
        pv_adoptions=tuple(pv_adoptions),
        detectors=tuple(detectors),
        n_slots=n_slots,
        config_sha256=hashlib.sha256(
            json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
        ).hexdigest(),
        cells=tuple(cells),
    )


def render_matrix_table(result: MatrixResult) -> str:
    """ASCII table of the matrix: one row per (tariff, attack, PV) point.

    Columns pair observation accuracy and mean PAR per detector; the
    ``flat``/``peak_increase`` row at the config's PV adoption is the
    paper's net-metering-vs-flat Table 1 comparison.
    """
    from repro.reporting.tables import fixed_table

    header = ["tariff", "attack", "pv"]
    for detector in result.detectors:
        header.extend([f"acc({detector})", f"par({detector})"])
    rows = []
    for tariff in result.tariffs:
        for family in result.attack_families:
            for pv in result.pv_adoptions:
                row = [tariff, family, f"{pv:.2f}"]
                for detector in result.detectors:
                    cell = result.cell(
                        tariff=tariff,
                        attack_family=family,
                        pv_adoption=pv,
                        detector=detector,
                    )
                    row.extend(
                        [f"{cell.observation_accuracy:.4f}", f"{cell.mean_par:.4f}"]
                    )
                rows.append(row)
    return fixed_table(header, rows)
