"""Checkpoint/resume for streaming engines.

A checkpoint is one self-contained JSON document: the engine's *build
spec* (how to reconstruct the world from nothing — configuration,
detector kind, policy, seeds) plus its *runtime state* (source cursor,
hacking-process compromises, detector beliefs, detection timeline, and
the bit-generator state of the shared RNG).

Resume rebuilds the world deterministically from the build spec — every
setup-time draw replays identically because construction is seeded, and
the expensive game solves come from the content-addressed solution
cache — then overwrites the mutable runtime state.  Floats survive the
JSON round trip exactly (``repr`` shortest-round-trip), and the RNG
resumes from its serialized bit-generator state, so a killed stream
continues *bitwise-identically* to one that never stopped.  The property
test in ``tests/test_stream_checkpoint.py`` asserts this over random cut
points.

The error contract: resume either returns a fully restored engine or
raises :class:`CheckpointError`, whatever the damage.  A payload passed
as a dict is validated exactly as one read from a file, and any failure
to rebuild the engine from ``build`` or to restore ``state`` (a refused
configuration, a missing or retyped key, an out-of-range value) is
raised as a :class:`CheckpointError` chained to its cause.  The engine
under restoration is discarded, so no half-restored state escapes.
:func:`repro.fleet.checkpoint.resume_fleet` keeps the same contract.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import config_from_dict
from repro.faults.plan import FaultPlan
from repro.obs.manifest import build_manifest
from repro.simulation.cache import GameSolutionCache

if TYPE_CHECKING:
    from repro.stream.pipeline import StreamEngine

CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint cannot be resumed: it is unreadable, torn, not a
    checkpoint at all, or its sections do not rebuild and restore an
    engine.

    Raised for missing files, truncated/bit-flipped JSON, wrong format
    markers, unsupported versions, missing sections, and build specs or
    states that fail to rebuild or restore (chained to that failure) —
    every way a crash, a bad disk or a hand edit can damage a
    checkpoint.  Resume fails loudly with this instead of resuming from
    corrupt state; the chaos suite drives each damage mode through
    :mod:`repro.faults.chaos`.
    """


@contextmanager
def refused_as_damage(what: str) -> Iterator[None]:
    """Re-raise any failure of the block but a :class:`CheckpointError`
    as one, chained to it and prefixed with ``what``."""
    try:
        yield
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{what}: {type(exc).__name__}: {exc}") from exc


def checkpoint_payload(engine: Any) -> dict[str, Any]:
    """The JSON document for one engine (build spec + runtime state)."""
    if engine.build_spec is None:
        raise ValueError(
            "engine has no build spec; only engines created by "
            "build_replay_engine/build_synthetic_engine can be checkpointed"
        )
    spec = engine.build_spec
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        # Provenance only — the loader ignores it, and it carries no
        # timestamps, so identical runs still produce identical files.
        "manifest": build_manifest(
            spec.get("config"),
            seeds=None if "seed" not in spec else {"stream": spec["seed"]},
            command=spec.get("kind"),
        ),
        "build": spec,
        "state": engine.state_dict(),
    }


def save_checkpoint(engine: Any, path: str | Path) -> Path:
    """Atomically persist an engine's full resumable state.

    Writes to a sibling temp file and renames into place, so a crash (or
    the service's SIGTERM handler racing a kill) never leaves a torn
    checkpoint behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = checkpoint_payload(engine)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_json_object(path: str | Path, *, what: str) -> dict[str, Any]:
    """The JSON object stored at ``path``.

    Raises :class:`CheckpointError` if the file cannot be read, is not
    UTF-8, is not JSON or holds something other than an object; ``what``
    names the file in the message.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"corrupt {what} {path}: not UTF-8 ({exc})") from exc
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"corrupt {what} {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt {what} {path}: not a JSON object")
    return payload


def _validated(payload: dict[str, Any], *, origin: str | Path) -> dict[str, Any]:
    """``payload`` if it is a checkpoint document this version reads.

    Raises :class:`CheckpointError` unless it has the format marker,
    this version and ``build`` and ``state`` objects; ``origin`` names
    the payload's source in the message.
    """
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a stream checkpoint: {origin}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    for key in ("build", "state"):
        if key not in payload:
            raise CheckpointError(f"checkpoint missing {key!r} section: {origin}")
        if not isinstance(payload[key], dict):
            raise CheckpointError(f"checkpoint {key!r} section is not an object: {origin}")
    return payload


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint document.

    Raises :class:`CheckpointError` on any damage: unreadable file,
    invalid JSON, wrong format marker, unsupported version, missing
    sections.
    """
    return _validated(read_json_object(path, what="checkpoint"), origin=path)


def resume_engine(
    source: str | Path | dict[str, Any],
    *,
    cache: GameSolutionCache | None = None,
) -> "StreamEngine":
    """Rebuild an engine from a checkpoint and restore its runtime state.

    Parameters
    ----------
    source:
        Checkpoint file path, or an already-loaded payload dict.
    cache:
        Game-solution cache for the rebuild (defaults to the process
        global); a warm cache makes replay-world reconstruction cheap.

    Returns
    -------
    A :class:`~repro.stream.pipeline.StreamEngine` whose next event —
    and every event after it — matches what the original engine would
    have produced had it never stopped.

    Raises
    ------
    CheckpointError
        For any damage to the file or the payload, chained to the
        failure it caused (see the module docstring).
    """
    if isinstance(source, dict):
        payload = _validated(source, origin="payload")
    else:
        payload = load_checkpoint(source)
    with refused_as_damage("checkpoint does not resume"):
        engine = _rebuild(payload["build"], cache)
        engine.restore(payload["state"])
    return engine


def _rebuild(build: dict[str, Any], cache: GameSolutionCache | None) -> "StreamEngine":
    """A fresh engine from a checkpoint's build spec."""
    from repro.stream.pipeline import build_replay_engine, build_synthetic_engine

    kind = build.get("kind")
    config = config_from_dict(build["config"])
    faults = build.get("faults")
    plan = None if faults is None else FaultPlan.from_dict(faults)
    if kind == "replay":
        engine = build_replay_engine(
            config,
            detector=build["detector"],
            n_slots=int(build["n_slots"]),
            policy=build["policy"],
            calibration_trials=int(build["calibration_trials"]),
            seed=build["seed"],
            cache=cache,
            faults=plan,
            # Pre-taxonomy checkpoints predate attack families.
            attack_family=build.get("attack_family", "peak_increase"),
        )
    elif kind == "synthetic":
        from repro.stream.source import ScriptedOccurrence

        engine = build_synthetic_engine(
            config,
            n_days=int(build["n_days"]),
            attack_days=tuple(build["attack_days"]),
            hacked_meters=tuple(build["hacked_meters"]),
            attack_strength=float(build["attack_strength"]),
            tp_rate=float(build["tp_rate"]),
            fp_rate=float(build["fp_rate"]),
            detector=build["detector"],
            seed=int(build["seed"]),
            cache=cache,
            faults=plan,
            # Pre-taxonomy checkpoints carry no occurrence script.
            occurrences=tuple(
                ScriptedOccurrence.from_dict(payload)
                for payload in build.get("occurrences", [])
            ),
        )
    else:
        raise CheckpointError(f"unknown checkpoint build kind: {kind!r}")
    return engine
