"""``repro fleet`` — serve a multi-community fleet.

``repro fleet serve`` builds a seeded fleet with the load generator (or
resumes one from a per-shard checkpoint directory) and runs the
:class:`~repro.fleet.aggregator.FleetAggregator` HTTP service.

Examples::

    python -m repro fleet serve --communities 8 --shards 2 --port 8010
    python -m repro fleet serve --checkpoint-dir /tmp/fleet --resume
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.presets import bench_preset, paper_preset, smoke_preset

PRESETS = {
    "smoke": smoke_preset,
    "bench": bench_preset,
    "paper": paper_preset,
}


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlanError, parse_fault_spec
    from repro.fleet.aggregator import FleetAggregator, run_fleet_service
    from repro.fleet.checkpoint import FLEET_MANIFEST_NAME, resume_fleet
    from repro.fleet.engine import build_fleet
    from repro.fleet.loadgen import LoadGenerator
    from repro.obs.fleettrace import write_fleet_trace
    from repro.obs.trace import TRACER
    from repro.simulation.cache import GameSolutionCache

    cache = GameSolutionCache()
    if args.resume:
        if args.checkpoint_dir is None:
            raise SystemExit("--resume needs --checkpoint-dir")
        manifest = args.checkpoint_dir / FLEET_MANIFEST_NAME
        if not manifest.exists():
            raise SystemExit(f"no fleet checkpoint manifest at {manifest}")
        fleet = resume_fleet(args.checkpoint_dir, cache=cache)
    else:
        faults = None
        if args.faults is not None:
            try:
                faults = parse_fault_spec(args.faults, seed=args.fault_seed)
            except FaultPlanError as exc:
                raise SystemExit(f"bad --faults spec: {exc}") from exc
        elif args.fault_seed is not None:
            raise SystemExit("--fault-seed requires --faults")
        base = PRESETS[args.preset]()
        if args.seed is not None:
            base = base.with_updates(seed=args.seed)
        generator = LoadGenerator(
            base,
            n_communities=args.communities,
            n_days=args.days,
            seed=base.seed,
            faults=faults,
            announce_attacks=args.campaign,
        )
        fleet = build_fleet(
            generator.specs(), n_shards=args.shards, cache=cache
        )
    if args.trace or args.trace_out is not None:
        from repro.obs.manifest import build_manifest

        metadata = None
        if not args.resume:
            metadata = build_manifest(base, command="fleet-serve")
        TRACER.enable(
            run_id=f"fleet-{args.preset}-c{args.communities}s{args.shards}",
            metadata=metadata,
        )
    if args.checkpoint_dir is not None:
        args.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    aggregator = FleetAggregator(fleet, checkpoint_dir=args.checkpoint_dir)
    run_fleet_service(aggregator, host=args.host, port=args.port)
    if TRACER.enabled and args.trace_out is not None:
        write_fleet_trace(TRACER, fleet.trace_layout(), args.trace_out)
        print(f"fleet trace written to {args.trace_out}")
    if TRACER.enabled:
        TRACER.disable()
    return 0


def fleet_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Multi-community fleet: consistent-hash sharded "
        "detection service.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    serve = sub.add_parser(
        "serve", help="run the fleet aggregator HTTP service"
    )
    serve.add_argument("--preset", choices=sorted(PRESETS), default="smoke")
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--communities", type=int, default=4)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--days", type=int, default=4)
    serve.add_argument(
        "--faults",
        default=None,
        help="fault-injection plan template applied per community "
        "(builtin name, JSON file, or inline JSON)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None,
        help="override the fault template's RNG seed (requires --faults)",
    )
    serve.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for per-shard checkpoints (POST /checkpoint, SIGTERM)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume the fleet from --checkpoint-dir instead of building one",
    )
    serve.add_argument(
        "--campaign", action="store_true",
        help="announce every community's attack window on the ground-truth "
        "ledger (scripted campaign) so /scoreboard attributes episodes "
        "to attack families",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="enable the fleet-wide span tracer (GET /trace serves the "
        "merged Chrome trace)",
    )
    serve.add_argument(
        "--trace-out", type=Path, default=None,
        help="write the merged fleet Chrome trace here on shutdown "
        "(implies --trace)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8010)

    args = parser.parse_args(argv)
    for name in ("communities", "shards", "days"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    return _cmd_serve(args)


if __name__ == "__main__":
    sys.exit(fleet_main())
