"""POMDP model for long-term cyberattack monitoring (Section 4.2).

The decision problem ``<S, O, A, T, R, Omega>``:

- **States** ``s_i``: exactly ``i`` of the ``N`` monitored smart meters
  are hacked, ``i = 0..N``.
- **Observations** ``o_i``: the single-event layer flags ``i`` meters.
- **Actions**: ``a_0`` (keep monitoring) and ``a_1`` (dispatch a crew to
  check and fix every hacked meter).
- **Transitions**: under monitoring, each clean meter is compromised with
  probability ``q`` per slot (binomial growth); a repair resets the fleet
  and fresh compromises then accrue from zero.
- **Observation function**: each hacked meter is flagged with the
  single-event true-positive rate ``d`` and each clean meter with the
  false-positive rate ``f``; the flag count is the convolution of the two
  binomials.  ``d`` and ``f`` are *trained on historical data* — in this
  reproduction they are measured from Monte-Carlo runs of the actual
  single-event detector (see :mod:`repro.simulation.calibration`).
- **Rewards**: every hacked meter costs ``damage_per_meter`` per slot; a
  repair costs a fixed dispatch fee plus a per-meter labor fee.
"""

from __future__ import annotations

import _imp
import importlib.machinery
import os
import sys
import types
from dataclasses import dataclass
from functools import cache
from typing import Any

import numpy as np
from numpy.typing import NDArray

MONITOR = 0
"""Action index: ignore the alarm and keep monitoring (the paper's a_0)."""

REPAIR = 1
"""Action index: check and fix the hacked meters (the paper's a_1)."""


@dataclass(frozen=True)
class PomdpModel:
    """A finite POMDP in dense-array form.

    Attributes
    ----------
    transitions:
        ``T[a, s, s']``, rows over ``s'`` summing to 1.
    observations:
        ``Omega[a, s', o]``: probability of observing ``o`` after action
        ``a`` lands in state ``s'``; rows over ``o`` summing to 1.
    rewards:
        ``R[a, s]``: expected immediate reward of taking ``a`` in ``s``.
    discount:
        Discount factor in (0, 1).
    """

    transitions: NDArray[np.float64]
    observations: NDArray[np.float64]
    rewards: NDArray[np.float64]
    discount: float

    def __post_init__(self) -> None:
        t, omega, r = self.transitions, self.observations, self.rewards
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"transitions must be (A, S, S), got {t.shape}")
        n_actions, n_states, _ = t.shape
        if omega.ndim != 3 or omega.shape[0] != n_actions or omega.shape[1] != n_states:
            raise ValueError(
                f"observations must be ({n_actions}, {n_states}, O), got {omega.shape}"
            )
        if r.shape != (n_actions, n_states):
            raise ValueError(
                f"rewards must be ({n_actions}, {n_states}), got {r.shape}"
            )
        if not 0 < self.discount < 1:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")
        if np.any(t < -1e-12) or np.any(omega < -1e-12):
            raise ValueError("probabilities must be non-negative")
        if not np.allclose(t.sum(axis=2), 1.0, atol=1e-8):
            raise ValueError("transition rows must sum to 1")
        if not np.allclose(omega.sum(axis=2), 1.0, atol=1e-8):
            raise ValueError("observation rows must sum to 1")

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_observations(self) -> int:
        return self.observations.shape[2]

    def initial_belief(self) -> NDArray[np.float64]:
        """Point mass on the all-clean state ``s_0``."""
        belief = np.zeros(self.n_states)
        belief[0] = 1.0
        return belief


def _snap_probability(p: float) -> float:
    """Snap subnormal-magnitude probabilities to exact 0/1.

    Boost's binomial PMF (the ufunc ``scipy.special._ufuncs._binom_pmf``
    behind :func:`_binomial_pmf`) overflows internally on denormalized
    probabilities (e.g. 1e-309); rates that close to the boundary are
    indistinguishable from the boundary anyway.
    """
    if p < 1e-12:
        return 0.0
    if p > 1.0 - 1e-12:
        return 1.0
    return p


def _bare_binom_pmf() -> Any | None:
    """``_binom_pmf`` from ``scipy.special._ufuncs``, imported without
    running the ``scipy.special`` package ``__init__``; ``None`` if that
    fails, with no ``scipy.special`` module left in ``sys.modules``.

    A bare package module stands in for ``scipy.special`` while the
    extension loads, so the package's array-API layer (and the
    ``numpy.testing`` and ``numpy.f2py`` it pulls in) never runs.  The
    extension and the sibling extensions it imports stay registered
    under their real names, so a later ``import scipy.special`` runs the
    real ``__init__`` on top of them and binds the same ufunc object.
    """
    try:
        import scipy
    except ImportError:
        return None
    bare = types.ModuleType("scipy.special")
    bare.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
    # Marked mid-import, as the import system marks a module it is
    # loading, so that another thread's import of scipy.special waits on
    # the import lock held below instead of returning the bare module.
    bare.__spec__ = importlib.machinery.ModuleSpec("scipy.special", None, is_package=True)
    bare.__spec__._initializing = True  # type: ignore[attr-defined]
    known = set(sys.modules)
    _imp.acquire_lock()
    try:
        if "scipy.special" in sys.modules:  # another thread imported it
            return None
        sys.modules["scipy.special"] = bare
        try:
            from scipy.special._ufuncs import _binom_pmf
        except Exception:
            # Drop whatever the attempt registered, so that the public
            # import starts clean.
            for name in [m for m in sys.modules if m not in known]:
                if name.startswith("scipy.special."):
                    del sys.modules[name]
            return None
        finally:
            if sys.modules.get("scipy.special") is bare:
                del sys.modules["scipy.special"]
    finally:
        _imp.release_lock()
    return _binom_pmf


@cache
def _binom_pmf_ufunc() -> Any | None:
    """SciPy's private ufunc ``_binom_pmf``, loaded once per process, or
    ``None`` where it cannot be imported (the binomials then come from
    ``scipy.stats``).

    A process that has not imported ``scipy.special`` loads the ufunc
    through :func:`_bare_binom_pmf`, which costs a tenth of the package
    import in time and a fifth in memory (docs/PERFORMANCE.md, "Start-up
    and resident memory").  A process that has, or one where the bare
    load fails, imports it publicly.
    """
    if "scipy.special" not in sys.modules:
        ufunc = _bare_binom_pmf()
        if ufunc is not None:
            return ufunc
    try:
        from scipy.special._ufuncs import _binom_pmf
    except ImportError:
        return None
    return _binom_pmf


def _binomial_pmf(n: int, p: float) -> NDArray[np.float64]:
    """``Binom(n, p)`` probabilities of ``0..n``, bit for bit
    ``scipy.stats.binom.pmf(arange(n + 1), n, p)``.

    That function evaluates Boost's binomial PMF through the private
    ufunc ``scipy.special._ufuncs._binom_pmf`` and clips the result to
    [0, 1].  Calling the ufunc directly keeps those bits without
    importing ``scipy.stats``, the largest import of a cold process; a
    hand-written ``comb(n, k) p^k (1-p)^(n-k)`` would move bits.  The
    ufunc is loaded at the first POMDP build, never at module import,
    and without ``scipy.special``'s package ``__init__`` where the
    process has not imported it yet (:func:`_binom_pmf_ufunc`).  A SciPy
    without the private ufunc falls back to ``scipy.stats``.
    """
    k = np.arange(n + 1)
    ufunc = _binom_pmf_ufunc()
    if ufunc is None:  # the ufunc is private: fall back to the public API
        from scipy import stats

        return stats.binom.pmf(k, n, p)
    return np.clip(ufunc(k, n, p), 0, 1)


def _flag_count_pmf(
    n_hacked: int,
    n_clean: int,
    tp_rate: float,
    fp_rate: float,
) -> NDArray[np.float64]:
    """PMF of the flagged-meter count: Binom(s, d) + Binom(n - s, f)."""
    tp = _snap_probability(tp_rate)
    fp = _snap_probability(fp_rate)
    return np.convolve(_binomial_pmf(n_hacked, tp), _binomial_pmf(n_clean, fp))


def build_detection_pomdp(
    n_meters: int,
    *,
    hack_probability: float,
    tp_rate: float,
    fp_rate: float,
    damage_per_meter: float = 1.0,
    repair_fixed_cost: float = 2.0,
    repair_cost_per_meter: float = 1.0,
    discount: float = 0.92,
) -> PomdpModel:
    """Assemble the monitoring POMDP for a fleet of ``n_meters`` meters.

    Parameters
    ----------
    n_meters:
        Fleet size; states and observations run ``0..n_meters``.
    hack_probability:
        Per-slot compromise probability of each clean meter.
    tp_rate, fp_rate:
        Single-event detector quality: per-meter flag probabilities for
        hacked and clean meters respectively.
    damage_per_meter:
        Per-slot loss caused by each hacked meter (mis-scheduled load,
        billing damage).
    repair_fixed_cost, repair_cost_per_meter:
        Labor economics of a repair dispatch.
    discount:
        POMDP discount factor.
    """
    if n_meters < 1:
        raise ValueError(f"n_meters must be >= 1, got {n_meters}")
    if not 0 <= hack_probability <= 1:
        raise ValueError(f"hack_probability must be in [0, 1], got {hack_probability}")
    for name, rate in (("tp_rate", tp_rate), ("fp_rate", fp_rate)):
        if not 0 <= rate <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    if damage_per_meter < 0 or repair_fixed_cost < 0 or repair_cost_per_meter < 0:
        raise ValueError("costs must be >= 0")

    n_states = n_meters + 1
    states = np.arange(n_states)
    hack_probability = _snap_probability(hack_probability)

    transitions = np.zeros((2, n_states, n_states))
    for s in range(n_states):
        transitions[MONITOR, s, s:] = _binomial_pmf(n_meters - s, hack_probability)
    # Repair fixes everything, then fresh compromises accrue from zero.
    transitions[REPAIR] = _binomial_pmf(n_meters, hack_probability)

    observations = np.zeros((2, n_states, n_states))
    for s in range(n_states):
        pmf = _flag_count_pmf(s, n_meters - s, tp_rate, fp_rate)[:n_states]
        # Guard against numeric truncation of the convolution tail.
        observations[:, s, :] = pmf / pmf.sum()

    rewards = np.zeros((2, n_states))
    rewards[MONITOR] = -damage_per_meter * states
    rewards[REPAIR] = (
        -damage_per_meter * states
        - repair_fixed_cost
        - repair_cost_per_meter * states
    )

    return PomdpModel(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        discount=discount,
    )
