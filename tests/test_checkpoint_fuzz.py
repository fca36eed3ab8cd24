"""Property fuzzer over checkpoint payloads.

Resume either returns a restored engine or raises ``CheckpointError``:
never another exception, and never a half-restored engine.  Each example
damages one real synthetic checkpoint one way:

- a structural mutation of its ``build`` or ``state`` section: one key
  or list item, at any depth, dropped or replaced by a value of another
  JSON type or out of range.  Inside ``build.config`` only the section
  as a whole is mutated; its fields are the configuration's own
  refusals (tests/test_config.py);
- a :mod:`repro.faults.chaos` damager on the written file: truncation
  or a bit flip anywhere in it.

The mutations reach :func:`resume_engine` as payload dicts and
:func:`resume_fleet` through one community of a two-community fleet
checkpoint; the damagers hit the engine's file, and a shard file or the
manifest of the fleet's.  The example budget is fixed and derandomized.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import bitflip_file, builtin_plan, truncate_file
from repro.fleet.checkpoint import FLEET_MANIFEST_NAME, resume_fleet, save_fleet_checkpoint
from repro.fleet.engine import FleetEngine, build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import (
    CheckpointError,
    checkpoint_payload,
    resume_engine,
)
from repro.stream.pipeline import StreamEngine, build_synthetic_engine

# Values of every JSON type, plus out-of-range numbers.
REPLACEMENTS = (
    None,
    True,
    0,
    -1,
    2**63,
    10**400,
    0.5,
    -2.5,
    float("nan"),
    float("inf"),
    "",
    "x",
    [],
    [None],
    [0, 1],
    {},
    {"x": 0},
)


def _paths(node: Any, prefix: tuple = ()) -> Iterator[tuple]:
    """Every key or index path into ``node``, outside ``build.config``."""
    if prefix == ("build", "config"):
        return
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(payload: dict, path: tuple, replacement: Any, drop: bool) -> dict:
    damaged = copy.deepcopy(payload)
    parent = damaged
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return damaged


@pytest.fixture(scope="module")
def cache() -> GameSolutionCache:
    return GameSolutionCache()


@pytest.fixture(scope="module")
def engine_payload(fleet_config, cache) -> dict:
    """A mid-run synthetic checkpoint with a fault plan installed, so its
    build and state carry the fault injector's sections too."""
    engine = build_synthetic_engine(
        fleet_config,
        n_days=3,
        attack_days=(1, 2),
        cache=cache,
        faults=builtin_plan("chaos", seed=33),
    )
    engine.run(max_events=40)
    return checkpoint_payload(engine)


@pytest.fixture(scope="module")
def fleet_dir(fleet_config, cache, tmp_path_factory) -> Path:
    generator = LoadGenerator(fleet_config, n_communities=2, n_days=2, seed=5)
    fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
    fleet.advance(max_ticks=5)
    directory = tmp_path_factory.mktemp("fleet")
    save_fleet_checkpoint(fleet, directory)
    return directory


def _resumes_or_refuses(resume, *args, **kwargs) -> None:
    try:
        resumed = resume(*args, **kwargs)
    except CheckpointError:
        return
    assert isinstance(resumed, (StreamEngine, FleetEngine))


@st.composite
def mutations(draw, payload: dict) -> tuple[tuple, Any, bool]:
    paths = [path for path in _paths(payload) if path[0] in ("build", "state")]
    path = draw(st.sampled_from(paths))
    return path, draw(st.sampled_from(REPLACEMENTS)), draw(st.booleans())


def test_payloads_carry_every_section(engine_payload):
    """The fuzzed payload reaches every section resume reads."""
    assert engine_payload["build"]["faults"] is not None
    assert engine_payload["state"]["source"]["kind"] == "faults"
    assert engine_payload["state"]["pipeline"]["timeline"] != []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_payload_resumes_or_refuses(engine_payload, cache, data):
    path, replacement, drop = data.draw(mutations(engine_payload))
    damaged = _mutated(engine_payload, path, replacement, drop)
    _resumes_or_refuses(resume_engine, damaged, cache=cache)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_community_resumes_or_refuses(fleet_dir, cache, data):
    owners = [
        (shard_file, cid)
        for shard_file in sorted(fleet_dir.glob("shard-*.json"))
        for cid in sorted(json.loads(shard_file.read_text())["communities"])
    ]
    shard_file, cid = data.draw(st.sampled_from(owners))
    shard = json.loads(shard_file.read_text())
    path, replacement, drop = data.draw(mutations(shard["communities"][cid]))
    shard["communities"][cid] = _mutated(shard["communities"][cid], path, replacement, drop)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(shutil.copytree(fleet_dir, Path(scratch) / "fleet"))
        (directory / shard_file.name).write_text(json.dumps(shard))
        _resumes_or_refuses(resume_fleet, directory, cache=cache)


damages = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("bitflip"), st.integers(0, 2**32 - 1)),
)


def _damage(path: Path, damage: tuple[str, Any]) -> None:
    kind, value = damage
    if kind == "truncate":
        truncate_file(path, keep_fraction=value)
    else:
        bitflip_file(path, np.random.default_rng(value))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(damage=damages)
def test_damaged_file_resumes_or_refuses(engine_payload, cache, damage):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "ck.json"
        path.write_text(json.dumps(engine_payload))
        _damage(path, damage)
        _resumes_or_refuses(resume_engine, path, cache=cache)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), damage=damages)
def test_damaged_fleet_file_resumes_or_refuses(fleet_dir, cache, data, damage):
    names = sorted(path.name for path in fleet_dir.glob("*.json"))
    assert FLEET_MANIFEST_NAME in names
    victim = data.draw(st.sampled_from(names))
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(shutil.copytree(fleet_dir, Path(scratch) / "fleet"))
        _damage(directory / victim, damage)
        _resumes_or_refuses(resume_fleet, directory, cache=cache)


def test_deeply_nested_file_is_refused(tmp_path):
    """JSON nested deeper than the parser's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(CheckpointError, match="invalid JSON"):
        resume_engine(path)


def test_saved_checkpoint_resumes(engine_payload, cache, tmp_path):
    """The control: the undamaged checkpoint resumes, from a dict and a file."""
    assert isinstance(resume_engine(copy.deepcopy(engine_payload), cache=cache), StreamEngine)
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(engine_payload))
    assert resume_engine(path, cache=cache).events_processed == 40
