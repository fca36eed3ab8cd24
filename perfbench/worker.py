"""One chunk of an in-process workload, run in a fresh interpreter.

Started by ``run.py``: builds the workload, runs one untimed warm-up op,
prints ``ready`` (the coordinator stops its set-up clock there), runs a
fixed amount of timed work, checks the outputs untimed and prints one
JSON line with the samples, counters, checks and (traced) ledger.

Usage: python perfbench/worker.py <workload> <seed> <traced 0|1> <check 0|1> <tmpdir> [chrome.json]
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from shape import COUNTERS, FLEET, SCENARIO_OPS  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "smoke_digests.json"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timeline_dicts(engine: Any) -> list[dict[str, Any]]:
    return [det.to_dict() for det in engine.timeline]


class Chunk:
    """Samples, check results and (traced) ledger of one chunk."""

    def __init__(self, seed: int, traced: bool, tmpdir: Path) -> None:
        self.ledger = None
        if traced:
            from ledger import Ledger

            self.ledger = Ledger()
            self.ledger.install()
        self.seed = seed
        self.tmpdir = tmpdir
        self.samples: dict[str, list[float]] = {}
        self.failed = 0

    def _scope(self, kind: str) -> Any:
        if self.ledger is None:
            return contextlib.nullcontext()
        return self.ledger.op(kind, "op." + kind)

    def timed(self, kind: str, fn: Any, *args: Any) -> Any:
        """Run one op, append its wall time in ms under ``kind``."""
        with self._scope(kind):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.samples.setdefault(kind, []).append(elapsed * 1e3)
        return result

    def warmup(self, fn: Any, *args: Any) -> Any:
        with self._scope("warmup"):
            return fn(*args)


def scenario_cold(chunk: Chunk, check: bool) -> dict[str, Any]:
    from repro.core.presets import smoke_preset
    from repro.perf.counters import PERF
    from repro.reporting.golden import _scenario_digest
    from repro.simulation.cache import GameSolutionCache
    from repro.simulation.scenario import run_long_term_scenario

    config = smoke_preset()

    def op() -> Any:
        return run_long_term_scenario(
            config, detector="aware", n_slots=48, cache=GameSolutionCache()
        )

    chunk.warmup(op)
    print("ready", flush=True)
    baseline = PERF.snapshot()
    results = [chunk.timed("scenario", op) for _ in range(SCENARIO_OPS)]
    counts = PERF.delta_since(baseline)
    rss = _peak_rss_mb()
    expected = json.loads(GOLDEN.read_text())["scenarios"]["aware"]
    digests = [_scenario_digest(result) for result in results]
    chunk.failed = sum(1 for digest in digests if digest != expected)
    return {
        "rss_mb": rss,
        "counts": counts,
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
    }


def fleet_drain(chunk: Chunk, check: bool) -> dict[str, Any]:
    from repro.core.presets import smoke_preset
    from repro.fleet import checkpoint as fleet_checkpoint
    from repro.fleet.engine import build_fleet
    from repro.fleet.loadgen import LoadGenerator
    from repro.perf.counters import PERF
    from repro.simulation.cache import GameSolutionCache

    generator = LoadGenerator(
        smoke_preset(seed=chunk.seed),
        n_communities=FLEET["communities"],
        n_days=FLEET["drain_days"],
        seed=chunk.seed,
    )
    specs = generator.specs()
    fleet = build_fleet(specs, n_shards=FLEET["shards"], cache=GameSolutionCache())
    engines = [fleet.engine_of(cid) for cid in fleet.community_ids]
    chunk.warmup(fleet.tick)
    print("ready", flush=True)
    baseline = PERF.snapshot()
    days_saved = 0
    saved_totals: dict[str, Any] = {}
    while not fleet.exhausted:
        chunk.timed("tick", fleet.tick)
        days = min(engine.pipeline.days_completed for engine in engines)
        if days > days_saved:
            chunk.timed(
                "checkpoint", fleet_checkpoint.save_fleet_checkpoint, fleet, chunk.tmpdir
            )
            days_saved = days
            saved_totals = fleet.status()["totals"]
    counts = PERF.delta_since(baseline)
    rss = _peak_rss_mb()
    timelines = {cid: _timeline_dicts(engine) for cid, engine in zip(fleet.community_ids, engines)}
    if check:
        by_id = {spec.community_id: spec for spec in specs}
        for cid in fleet.community_ids[: FLEET["solo_checks"]]:
            solo = by_id[cid].build_engine(cache=GameSolutionCache())
            solo.run()
            chunk.failed += _timeline_dicts(solo) != timelines[cid]
        resumed = fleet_checkpoint.resume_fleet(chunk.tmpdir, cache=GameSolutionCache())
        chunk.failed += resumed.status()["totals"] != saved_totals
    return {
        "rss_mb": rss,
        "counts": counts,
        "digest": hashlib.sha256(json.dumps(timelines, sort_keys=True).encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    workload, seed, traced, check, tmpdir = argv[:5]
    chunk = Chunk(int(seed), traced == "1", Path(tmpdir))
    body = {"scenario_cold": scenario_cold, "fleet_drain": fleet_drain}[workload](
        chunk, check == "1"
    )
    body["counts"] = {name: body["counts"].get(name, 0.0) for name in COUNTERS}
    body.update(samples=chunk.samples, failed=chunk.failed)
    if chunk.ledger is not None:
        body["ledger"] = chunk.ledger.summary()
        if len(argv) > 5:
            chunk.ledger.write_chrome_trace(argv[5])
    print(json.dumps(body), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
