"""The repository's benchmark: four workloads through public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_drain --seed 1 --seconds 20 --trace 0

A run repeats *chunks* until ``--seconds`` have passed (at least three).
A chunk is one fresh process under test doing a fixed amount of work:
set-up with one untimed warm-up op, then the timed ops.  The in-process
workloads (``scenario_cold``, ``fleet_drain``) run in ``worker.py``; the
HTTP workloads (``fleet_http``, ``service_events``) start the program's
server under ``launcher.py`` and this process is the closed-loop client,
one request at a time.  The gated timing is the 10th percentile of the
primary op over the ops pooled from all chunks; ``setup_s`` and
``rss_mb`` are medians over chunks.  Outputs are checked untimed after
the timed phases.

With ``--trace 1`` the chunks alternate untraced and traced; the traced
chunks install the span wrappers of ``ledger.py`` and the run prints the
per-layer ledger instead of the end-to-end metrics.  Human-readable
lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"

# Workload -> (primary op kind, secondary op kind or None).
OPS = {
    "scenario_cold": ("scenario", None),
    "fleet_drain": ("tick", "checkpoint"),
    "fleet_http": ("envelope", "poll"),
    "service_events": ("event", None),
}
MIN_CHUNKS = 3
CHUNK_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """Environment of every process under test: fixed hashing and BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


# ----------------------------------------------------------------------
# In-process workloads
def worker_chunk(workload: str, seed: int, traced: bool, check: bool, tmp: Path,
                 chrome: Path | None) -> dict[str, Any]:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(int(traced)), str(int(check)), str(tmp)]
    if chrome is not None:
        cmd.append(str(chrome))
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        if not select.select([proc.stdout], [], [], CHUNK_TIMEOUT_S)[0]:
            raise RuntimeError(f"{workload} worker set-up timed out")
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - start
        out, _ = proc.communicate(timeout=CHUNK_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed (exit {proc.returncode})")
    body = json.loads(out.strip().splitlines()[-1])
    body["setup_s"] = setup_s
    return body


# ----------------------------------------------------------------------
# HTTP workloads
class Client:
    """Closed-loop client: one request, and so one connection, at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sent_bytes = 0
        self.received_bytes = 0

    def call(self, method: str, path: str, body: bytes | None = None) -> Any:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        self.sent_bytes += len(body or b"")
        self.received_bytes += len(data)
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data)

    def counters(self, names: tuple[str, ...]) -> dict[str, float]:
        totals = self.call("GET", "/metrics")["totals"]
        return {name: totals.get(name, 0.0) for name in names}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(client: Client, proc: subprocess.Popen, deadline: float) -> None:
    """Retry the health check every few milliseconds until it answers."""
    while True:
        try:
            client.call("GET", "/healthz")
            return
        except OSError:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not come up (exit {proc.poll()})")
            time.sleep(0.003)


def stop(proc: subprocess.Popen, grace_s: float = 30.0) -> Any:
    """SIGTERM the server, reap it (SIGKILL after the grace period) and
    return its resource usage, whose ``ru_maxrss`` is the server's peak RSS."""
    if proc.poll() is not None:
        return None
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    while True:
        pid, _, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


def server_chunk(workload: str, seed: int, traced: bool, payloads: list[bytes], tmp: Path,
                 chrome: Path | None, cpus: list[int]) -> dict[str, Any]:
    """One server process under test, driven closed loop from this process.

    ``cpus`` is the coordinator's CPU set, read once per run.  With two or
    more, the server gets ``cpus[1]`` and the client ``cpus[0]`` for the
    chunk, so neither migrates onto the other; the client's set is restored
    afterwards, so every chunk starts from the same layout."""
    from shape import COUNTERS, FLEET, POLL_EVERY, SERVICE_DAYS

    port = free_port()
    if workload == "fleet_http":
        args = ["fleet", "serve", "--preset", "smoke", "--seed", str(seed),
                "--communities", str(FLEET["communities"]), "--shards", str(FLEET["shards"]),
                "--days", str(FLEET["drain_days"])]
        path = "/envelope"
    else:
        args = ["serve", "--stream-source", "synthetic", "--preset", "smoke",
                "--seed", str(seed), "--days", str(SERVICE_DAYS)]
        path = "/events"
    ledger_path = tmp / "ledger.json"
    cmd = [sys.executable, str(BENCH / "launcher.py"),
           str(ledger_path) if traced else "-", str(chrome) if chrome else "-",
           "--", *args, "--port", str(port)]
    log = open(tmp / "server.log", "wb")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=child_env(), cwd=ROOT)
    if len(cpus) >= 2:
        os.sched_setaffinity(proc.pid, {cpus[1]})
        os.sched_setaffinity(0, {cpus[0]})
    client = Client(port)
    samples: dict[str, list[float]] = {}
    responses: list[Any] = []
    latency_ms = 0.0
    try:
        wait_ready(client, proc, start + CHUNK_TIMEOUT_S)
        responses.append(client.call("POST", path, payloads[0]))
        setup_s = time.monotonic() - start
        before = client.counters(COUNTERS)
        client.sent_bytes = client.received_bytes = 0
        cursor = 0
        for index, payload in enumerate(payloads[1:], start=1):
            requests = [("POST", path, payload, "envelope" if workload == "fleet_http" else "event")]
            if workload == "fleet_http" and index % POLL_EVERY == 0:
                requests.append(("GET", f"/detections?since={cursor}", None, "poll"))
            for method, target, body, kind in requests:
                t0 = time.perf_counter()
                try:
                    reply = client.call(method, target, body)
                except (OSError, RuntimeError, ValueError) as exc:
                    # Counted as failed when compared with the reference.
                    reply = {"error": str(exc)}
                elapsed = (time.perf_counter() - t0) * 1e3
                latency_ms += elapsed
                samples.setdefault(kind, []).append(elapsed)
                responses.append(reply)
                if kind == "poll" and reply.get("detections"):
                    cursor = reply["detections"][-1]["slot"] + 1
        io_bytes = [client.sent_bytes, client.received_bytes]
        after = client.counters(COUNTERS)
    finally:
        usage = stop(proc)
        log.close()
        os.sched_setaffinity(0, cpus)
    body: dict[str, Any] = {
        "setup_s": setup_s,
        "rss_mb": (usage.ru_maxrss if usage else 0) / 1024.0,
        "samples": samples,
        "counts": {name: after[name] - before[name] for name in COUNTERS},
        "responses": responses,
        "client": {"latency_ms": latency_ms, "bytes": io_bytes},
    }
    if traced:
        body["ledger"] = json.loads(ledger_path.read_text())
    return body


def make_payloads(workload: str, seed: int) -> tuple[list[bytes], Any]:
    """The generated request bodies, plus what the reference run needs."""
    from shape import FLEET, SERVICE_DAYS

    from repro.core.presets import smoke_preset

    config = smoke_preset(seed=seed)
    if workload == "fleet_http":
        from repro.fleet.loadgen import LoadGenerator

        generator = LoadGenerator(config, n_communities=FLEET["communities"],
                                  n_days=FLEET["drain_days"], seed=seed)
        specs = generator.specs()
        return [json.dumps(env).encode() for env in generator.envelopes(specs)], specs
    from repro.stream.events import event_to_dict
    from repro.stream.pipeline import build_synthetic_engine

    engine = build_synthetic_engine(config, n_days=SERVICE_DAYS,
                                    attack_days=(SERVICE_DAYS // 3, 2 * SERVICE_DAYS // 3),
                                    detector="aware")
    events = []
    while (event := engine.source.next_event()) is not None:
        events.append(json.dumps(event_to_dict(event)).encode())
    return events, engine


def reference_responses(workload: str, payloads: list[bytes], basis: Any) -> list[Any]:
    """The same request sequence through the same builder, in-process."""
    from shape import FLEET, POLL_EVERY

    if workload == "service_events":
        from repro.service.app import DetectionService

        service = DetectionService(basis)
        return [json.loads(json.dumps(service.push_event(json.loads(p)))) for p in payloads]
    from repro.fleet.aggregator import FleetAggregator
    from repro.fleet.engine import build_fleet
    from repro.simulation.cache import GameSolutionCache

    aggregator = FleetAggregator(build_fleet(basis, n_shards=FLEET["shards"],
                                             cache=GameSolutionCache()))
    out: list[Any] = []
    cursor = 0
    for index, payload in enumerate(payloads):
        out.append(aggregator.ingest_envelope(json.loads(payload)))
        if index and index % POLL_EVERY == 0:
            reply = aggregator.detections(since=cursor)
            out.append(reply)
            if reply["detections"]:
                cursor = reply["detections"][-1]["slot"] + 1
    return [json.loads(json.dumps(item)) for item in out]


# ----------------------------------------------------------------------
# Reporting
def p10(values: list[float]) -> float:
    """The gated statistic, by nearest rank, so always a measured op time:
    slow phases of the host move it least."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) / 10) - 1)]


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}, too few samples for a tail"
    pct = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    index = min(n - 1, int(pct / 100 * n))
    return f"p{pct} {ordered[index]:.3f} ({n - index - 1} beyond)"


def per_layer(workload: str, chunks: list[dict[str, Any]]) -> tuple[dict[str, float], list[str]]:
    """The traced run's ledger: self ms and counts per op of each kind."""
    from ledger import Totals
    from shape import COUNTERS

    primary, _ = OPS[workload]
    traced = [c for c in chunks if "ledger" in c]
    plain = [c for c in chunks if "ledger" not in c]
    ledger = Totals([c["ledger"] for c in traced])
    requests = ("envelope", "poll", "event")
    n_requests = sum(ledger.n_ops(k) for k in requests)
    n_primary = ledger.n_ops(primary)
    counts = {name: sum(c["counts"][name] for c in traced) for name in COUNTERS}
    lookups = counts["cache.hits"] + counts["cache.misses"]

    def ms(layer: str, kind: str = primary) -> float:
        return ledger.per_op(layer, kind) / 1e3

    def per_op(layer: str, field: str, kind: str = primary) -> float:
        return ledger.per_op(layer, kind, field)

    def count(name: str) -> float:
        return counts[name] / n_primary if n_primary else 0.0

    def per_request(value: float) -> float:
        return value / n_requests if n_requests else 0.0

    def pooled_p10(group: list[dict[str, Any]]) -> float:
        return p10([v for c in group for v in c["samples"][primary]])

    facade_ms = sum(ledger.total("service.facade", k, "total_us") for k in requests) / 1e3
    facade_self_ms = sum(ledger.total("service.facade", k) for k in requests) / 1e3
    client_ms = sum(c["client"]["latency_ms"] for c in traced if "client" in c)
    sent, received = (sum(c["client"]["bytes"][i] for c in traced if "client" in c) for i in (0, 1))
    root = "service.facade" if workload in ("fleet_http", "service_events") else "op." + primary
    metrics = {
        "prediction.fit_ms": ms("prediction.fit"),
        "scheduling.solve1_ms": ms("scheduling.solve1"),
        "scheduling.solve1_calls": per_op("scheduling.solve1", "calls"),
        "scheduling.batch_ms": ms("scheduling.batch"),
        "scheduling.batch_games": per_op("scheduling.batch", "n"),
        "scheduling.rounds": count("game.rounds"),
        "scheduling.dp_cells": count("dp.cells"),
        "scheduling.grid_demand_ms": ms("scheduling.grid_demand"),
        "scheduling.grid_demand_calls": per_op("scheduling.grid_demand", "calls"),
        "optimization.ce_ms": ms("optimization.ce"),
        "optimization.ce_evaluations": count("ce.evaluations"),
        "kernels.clamp_ms": ms("kernels.clamp"),
        "kernels.cost_ms": ms("kernels.cost"),
        "kernels.dp_ms": ms("kernels.dp"),
        "kernels.bytes": sum(per_op(k, "n") for k in ("kernels.clamp", "kernels.cost", "kernels.dp")),
        "netmetering.cost_ms": ms("netmetering.cost"),
        "simulation.calibration_ms": ms("simulation.calibration"),
        "simulation.prefetch_ms": ms("simulation.prefetch"),
        "simulation.cache_lookups": count("cache.hits") + count("cache.misses"),
        "simulation.cache_misses": count("cache.misses"),
        "simulation.cache_hit_rate": counts["cache.hits"] / lookups if lookups else 0.0,
        "detection.check_ms": ms("detection.check"),
        "detection.checks": per_op("detection.check", "calls"),
        "detection.pomdp_ms": ms("detection.pomdp"),
        "stream.handle_ms": ms("stream.handle"),
        "stream.events": count("stream.events"),
        "stream.source_ms": ms("stream.source"),
        "stream.ckpt_state_ms": ms("stream.ckpt_state", "checkpoint"),
        "stream.timeline_slots": per_op("stream.ckpt_state", "n", "checkpoint"),
        "obs.scoreboard_ms": ms("obs.scoreboard"),
        "obs.audit_ms": ms("obs.audit"),
        "fleet.events": count("fleet.events"),
        "fleet.tick_self_ms": ms("fleet.tick"),
        "fleet.shard_skew": ledger.shard_skew,
        "fleet.envelope_self_ms": ms("fleet.envelope"),
        "fleet.ckpt_write_ms": ms("fleet.ckpt_write", "checkpoint"),
        "fleet.ckpt_bytes": per_op("fleet.ckpt_write", "n", "checkpoint"),
        "fleet.detections_ms": ms("fleet.detections", "poll"),
        "fleet.resume_ms": ledger.per_call("fleet.resume", "resume") / 1e3,
        "service.facade_ms": per_request(facade_ms),
        "service.lock_wait_ms": per_request(facade_self_ms),
        "service.transport_ms": per_request(client_ms - facade_ms),
        "service.request_bytes": per_request(sent),
        "service.response_bytes": per_request(received),
        "bench.trace_overhead_pct": 100.0 * (pooled_p10(traced) / pooled_p10(plain) - 1.0),
        "bench.unattributed_ms": ms(root),
    }
    lines = [f"traced chunks {len(traced)}, untraced {len(plain)}; ops "
             + ", ".join(f"{k} {n}" for k, n in sorted(ledger.ops.items())),
             f"cache hit rate {metrics['simulation.cache_hit_rate']:.4f} "
             f"of {int(lookups)} lookups"]
    # Self ms per op of each op class, e.g. warm ticks against day-start ticks.
    classes = sorted(ledger.ops)
    lines.append("self ms per op   " + "".join(f"{k:>14}" for k in classes))
    for layer in sorted(ledger.layers):
        row = [ms(layer, k) for k in classes]
        if any(v >= 0.0005 for v in row):
            lines.append(f"  {layer:<28}" + "".join(f"{v:14.3f}" for v in row))
    return metrics, lines


# ----------------------------------------------------------------------
def run(args: argparse.Namespace) -> int:
    from shape import COUNTERS

    workload, seed, traced_run = args.workload, args.seed, bool(args.trace)
    primary, secondary = OPS[workload]
    for stale in WORK.glob("tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    http_workload = workload in ("fleet_http", "service_events")
    payloads, basis = make_payloads(workload, seed) if http_workload else ([], None)
    chrome = WORK / f"trace-{workload}.json" if traced_run else None
    cpus = sorted(os.sched_getaffinity(0))
    chunks: list[dict[str, Any]] = []
    start = time.monotonic()
    try:
        while len(chunks) < MIN_CHUNKS or time.monotonic() - start < args.seconds:
            index = len(chunks)
            traced = traced_run and index % 2 == 1
            chunk_tmp = tmp / f"chunk-{index}"
            chunk_tmp.mkdir()
            first_traced = chrome if traced and index == 1 else None
            if http_workload:
                chunks.append(server_chunk(workload, seed, traced, payloads, chunk_tmp,
                                           first_traced, cpus))
            else:
                chunks.append(worker_chunk(workload, seed, traced, index == 0 or traced,
                                           chunk_tmp, first_traced))
            shutil.rmtree(chunk_tmp, ignore_errors=True)
        measured_s = time.monotonic() - start

        attempted = sum(len(v) for c in chunks for v in c["samples"].values())
        failed = sum(c.get("failed", 0) for c in chunks)
        problems: list[str] = []
        if http_workload:
            expected = reference_responses(workload, payloads, basis)
            for i, chunk in enumerate(chunks):
                bad = sum(a != b for a, b in zip(chunk["responses"], expected))
                bad += abs(len(chunk["responses"]) - len(expected))
                failed += bad
                if bad:
                    problems.append(f"chunk {i}: {bad} responses differ from the reference")
        else:
            if len({c["digest"] for c in chunks}) != 1:
                failed += 1
                problems.append("chunks produced different outputs")
        if any(c["counts"] != chunks[0]["counts"] for c in chunks):
            failed += 1
            problems.append("PERF counters differ between chunks of identical work")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = failed == 0
    print(f"perfbench {workload} seed={seed} trace={int(traced_run)}: {len(chunks)} chunks "
          f"in {measured_s:.1f} s; python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    for kind in (primary, secondary):
        if kind:
            values = [v for c in chunks for v in c["samples"].get(kind, [])]
            q = statistics.quantiles(values, n=4, method="inclusive")
            print(f"  {kind}_ms median {statistics.median(values):.3f} ms (n={len(values)}), "
                  f"p25 {q[0]:.3f}, p10 {p10(values):.3f}, {tail(values)}")
    setups = [c["setup_s"] for c in chunks]
    print(f"  setup_s median {statistics.median(setups):.3f} s over {len(setups)} chunks "
          f"({', '.join(f'{s:.2f}' for s in setups)})")
    print(f"  rss_mb median {statistics.median(c['rss_mb'] for c in chunks):.1f} MB (peak per chunk)")
    print(f"  error_rate {failed / max(attempted, 1):.4f} ({failed} failed of {attempted} ops)")
    print("  counts per chunk: " + ", ".join(
        f"{name} {int(chunks[0]['counts'][name])}" for name in COUNTERS))
    for problem in problems:
        print(f"  FAILED: {problem}")

    if traced_run:
        metrics, lines = per_layer(workload, chunks)
        for line in lines:
            print("  " + line)
        units = {spec["name"]: spec["unit"] for spec in load_spec()["per_layer"]}
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        values = [v for c in chunks for v in c["samples"][primary]]
        out = {
            "op_p10_ms": {"value": p10(values), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "rss_mb": {"value": statistics.median(c["rss_mb"] for c in chunks), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
