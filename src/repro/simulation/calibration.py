"""Monte-Carlo calibration of the single-event detector.

The POMDP observation function requires the per-meter true-positive and
false-positive rates of the single-event layer ("trained based on the
historical data" in the paper).  This module measures them the honest
way: by running the actual PAR-comparison detector against clean and
attacked price vectors drawn from the same distributions the long-term
scenario uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.attacks.hacking import MeterHackingProcess
from repro.detection.single_event import SingleEventDetector, draw_margin_noise
from repro.perf.parallel import ParallelMap, spawn_seeds


@dataclass(frozen=True)
class SingleEventRates:
    """Measured detector quality over a calibration run."""

    tp_rate: float
    fp_rate: float
    n_attacked_trials: int
    n_clean_trials: int

    def __post_init__(self) -> None:
        for name, rate in (("tp_rate", self.tp_rate), ("fp_rate", self.fp_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.n_attacked_trials < 1 or self.n_clean_trials < 1:
            raise ValueError("calibration needs at least one trial of each kind")

    def clipped(self, *, floor: float = 0.02, ceil: float = 0.98) -> "SingleEventRates":
        """Rates clipped away from 0/1 so the POMDP stays well-conditioned.

        A measured rate of exactly 0 or 1 makes some observations
        impossible under the model; any model-reality mismatch then breaks
        the belief update.  Clipping encodes the usual Laplace caution.
        """
        return SingleEventRates(
            tp_rate=float(np.clip(self.tp_rate, floor, ceil)),
            fp_rate=float(np.clip(self.fp_rate, floor, ceil)),
            n_attacked_trials=self.n_attacked_trials,
            n_clean_trials=self.n_clean_trials,
        )


def _count_flags(
    item: tuple[SingleEventDetector, tuple[NDArray[np.float64], ...], int],
) -> int:
    """Flag count for one chunk of price vectors (module-level for pickling)."""
    detector, price_vectors, seed = item
    chunk_rng = np.random.default_rng(seed)
    hits = 0
    for prices in price_vectors:
        if detector.check(prices, rng=chunk_rng).flagged:
            hits += 1
    return hits


def measure_single_event_rates(
    detector: SingleEventDetector,
    clean_prices: NDArray[np.float64],
    hacking: MeterHackingProcess,
    *,
    n_trials: int = 60,
    rng: np.random.Generator | None = None,
    parallel: ParallelMap | None = None,
) -> SingleEventRates:
    """Estimate per-meter TP/FP rates of a single-event detector.

    Parameters
    ----------
    detector:
        The detector under calibration (already bound to its predicted
        prices).
    clean_prices:
        The genuine guideline-price vector for the calibration day.
    hacking:
        Used only as an attack *sampler* (its ``draw_attack``
        distribution defines attack difficulty); its state is untouched.
    n_trials:
        Number of attacked and clean checks each.
    parallel:
        Optional process-pool backend for the Monte-Carlo trials.  The
        attacks are drawn up front (consuming the sampler exactly as the
        serial path does) and the checks are split into per-worker chunks
        with measurement-noise streams spawned from ``rng``; the
        estimates are statistically equivalent to — but not draw-for-draw
        identical with — the serial path, which remains the default.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = rng if rng is not None else np.random.default_rng(0)
    prices = np.asarray(clean_prices, dtype=float)

    if parallel is not None and parallel.backend != "serial":
        attacked = tuple(
            hacking.draw_attack().apply(prices) for _ in range(n_trials)
        )
        clean = tuple(prices for _ in range(n_trials))
        n_chunks = min(parallel.effective_workers, n_trials)
        seeds = spawn_seeds(int(rng.integers(2**63 - 1)), 2 * n_chunks)
        items = [
            (detector, chunk, seed)
            for vectors, chunk_seeds in (
                (attacked, seeds[:n_chunks]),
                (clean, seeds[n_chunks:]),
            )
            for chunk, seed in zip(_chunks(vectors, n_chunks), chunk_seeds)
        ]
        counts = parallel.map(_count_flags, items)
        tp_hits = sum(counts[:n_chunks])
        fp_hits = sum(counts[n_chunks:])
    else:
        trials = draw_calibration_trials(
            prices,
            hacking,
            n_trials=n_trials,
            rng=rng,
            margin_noise_std=detector.margin_noise_std,
        )
        return evaluate_calibration_trials(detector, trials)

    return SingleEventRates(
        tp_rate=tp_hits / n_trials,
        fp_rate=fp_hits / n_trials,
        n_attacked_trials=n_trials,
        n_clean_trials=n_trials,
    )


@dataclass(frozen=True)
class CalibrationTrials:
    """Every random draw of one serial calibration run.

    ``attacked[i]`` is checked with ``attack_noises[i]`` and the clean
    ``prices`` once per entry of ``clean_noises``.
    """

    prices: NDArray[np.float64]
    attacked: tuple[NDArray[np.float64], ...]
    attack_noises: tuple[float, ...]
    clean_noises: tuple[float, ...]


def draw_calibration_trials(
    clean_prices: NDArray[np.float64],
    hacking: MeterHackingProcess,
    *,
    n_trials: int,
    rng: np.random.Generator,
    margin_noise_std: float,
) -> CalibrationTrials:
    """The draw half of the serial calibration: solves nothing.

    Consumes the generators exactly as checking inline would: (attack,
    noise) per attacked trial, then one noise per clean trial.  The
    attacks come from ``hacking``'s sampler, whose state is untouched.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    prices = np.asarray(clean_prices, dtype=float)
    attacked: list[NDArray[np.float64]] = []
    attack_noises: list[float] = []
    for _ in range(n_trials):
        attacked.append(hacking.draw_attack().apply(prices))
        attack_noises.append(draw_margin_noise(rng, margin_noise_std))
    clean_noises = [draw_margin_noise(rng, margin_noise_std) for _ in range(n_trials)]
    return CalibrationTrials(
        prices=prices,
        attacked=tuple(attacked),
        attack_noises=tuple(attack_noises),
        clean_noises=tuple(clean_noises),
    )


def evaluate_calibration_trials(
    detector: SingleEventDetector, trials: CalibrationTrials
) -> SingleEventRates:
    """The evaluate half: rates of ``detector`` over drawn trials.

    Every distinct game not yet in the simulator's cache is solved in
    one lockstep prefetch first, so the flags are those of checking
    inline, draw for draw.  Draws nothing.
    """
    detector.simulator.prefetch([*trials.attacked, trials.prices])
    tp_hits = sum(
        1
        for vector, noise in zip(trials.attacked, trials.attack_noises)
        if detector.evaluate(vector, noise=noise).flagged
    )
    fp_hits = sum(
        1
        for noise in trials.clean_noises
        if detector.evaluate(trials.prices, noise=noise).flagged
    )
    return SingleEventRates(
        tp_rate=tp_hits / len(trials.attacked),
        fp_rate=fp_hits / len(trials.clean_noises),
        n_attacked_trials=len(trials.attacked),
        n_clean_trials=len(trials.clean_noises),
    )


def _chunks(
    vectors: tuple[NDArray[np.float64], ...], n_chunks: int
) -> list[tuple[NDArray[np.float64], ...]]:
    """Split price vectors into ``n_chunks`` near-equal contiguous runs."""
    bounds = np.linspace(0, len(vectors), n_chunks + 1).astype(int)
    return [tuple(vectors[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
