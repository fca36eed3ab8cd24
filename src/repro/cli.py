"""Command-line experiment runner.

Regenerates each of the paper's evaluation artifacts from the terminal:

    python -m repro fig3            # unaware prediction + PAR
    python -m repro fig4            # aware prediction + PAR
    python -m repro fig5            # zero-price attack impact
    python -m repro fig6            # observation-accuracy comparison
    python -m repro table1          # three-policy comparison
    python -m repro all             # everything above
    python -m repro sweep-matrix    # tariff x attack scenario matrix

and drives the streaming subsystem:

    python -m repro stream          # pump an event stream, print timeline
    python -m repro serve           # HTTP monitoring API over a stream

plus the static-analysis gate (see ``docs/STATIC_ANALYSIS.md``) and the
audit-trail inspector (see ``docs/OBSERVABILITY.md``):

    python -m repro lint            # == repro-lint src tests
    python -m repro trace FILE      # query an audit-trail JSONL file

and the multi-community fleet layer (see ``docs/FLEET.md``):

    python -m repro fleet serve     # sharded fleet aggregator service

Common options: ``--preset {smoke,bench,paper}``, ``--seed N``,
``--slots H`` (fig6/table1 horizon), ``--json PATH`` (dump scenario
results), ``--perf`` (print hot-path counters — CE evaluations, DP
cells, game rounds, cache hit rate — after the command).

Matrix options (``docs/SCENARIOS.md``): ``--quick`` (2x2 grid, aware
detector only), ``--out PATH`` (JSON artifact), ``--workers N``
(process-parallel grid cells).

Stream options: ``--stream-source {synthetic,replay}``, ``--detector``,
``--days N`` / ``--until-day D``, ``--checkpoint-dir PATH`` (checkpoint
on completion; with ``--resume``, continue from it), ``--faults PLAN``
(seeded fault injection: builtin name, JSON file, or inline JSON; see
``docs/ROBUSTNESS.md``) with ``--fault-seed N`` and ``--retries N``,
``--format {ascii,json}``; ``serve`` adds ``--host``/``--port``.

Observability options (``docs/OBSERVABILITY.md``): ``--trace`` /
``--trace-out PATH`` (or the ``REPRO_TRACE`` environment variable)
export a Chrome-trace-event span timeline viewable in Perfetto;
``--audit PATH`` appends the detection audit trail to a JSONL file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.attacks.pricing import ZeroPriceAttack
from repro.core.config import CommunityConfig
from repro.core.presets import bench_preset, paper_preset, smoke_preset
from repro.data.community import build_community
from repro.data.pricing import (
    GuidelinePriceModel,
    baseline_demand_profile,
    generate_history,
)
from repro.metrics.cost import LaborCostModel, normalized_labor_cost
from repro.metrics.errors import rmse
from repro.perf.counters import PERF
from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
from repro.reporting.ascii import render_profile
from repro.reporting.tables import ComparisonRow, comparison_table
from repro.simulation.results import save_scenario
from repro.simulation.scenario import run_long_term_scenario
from repro.simulation.world import response_simulators

PRESETS = {
    "smoke": smoke_preset,
    "bench": bench_preset,
    "paper": paper_preset,
}


class _Environment:
    """Lazily built shared artifacts for the figure commands."""

    def __init__(self, config: CommunityConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.community = build_community(config, rng=rng)
        self.demand = baseline_demand_profile(config.time) * config.n_customers
        self.renewable = self.community.total_pv
        price_model = GuidelinePriceModel(
            config=config.pricing, n_customers=config.n_customers
        )
        self.history = generate_history(
            rng,
            n_customers=config.n_customers,
            pricing=config.pricing,
            solar=config.solar,
            mean_pv_per_customer_kw=config.solar.peak_kw * config.pv_adoption,
        )
        self.clean_prices = price_model.price(self.demand, self.renewable, rng=rng)
        self.unaware_prices = UnawarePricePredictor().fit(self.history).predict_day()
        self.aware_prices = (
            AwarePricePredictor()
            .fit(self.history)
            .predict_day(
                demand_forecast=self.demand, renewable_forecast=self.renewable
            )
        )
        self.truth_sim, self.unaware_sim = response_simulators(
            self.community, config, aware=False
        )


def _cmd_fig3(env: _Environment) -> None:
    print(render_profile(env.clean_prices, label="received"))
    print(render_profile(env.unaware_prices, label="predicted"))
    rows = [
        ComparisonRow(
            "price RMSE (unaware)",
            None,
            rmse(env.clean_prices, env.unaware_prices),
        ),
        ComparisonRow(
            "Fig3b predicted PAR", 1.4700, env.unaware_sim.grid_par(env.unaware_prices)
        ),
    ]
    print(comparison_table(rows, title="Figure 3 — unaware prediction"))


def _cmd_fig4(env: _Environment) -> None:
    print(render_profile(env.clean_prices, label="received"))
    print(render_profile(env.aware_prices, label="predicted"))
    rows = [
        ComparisonRow(
            "price RMSE (aware)", None, rmse(env.clean_prices, env.aware_prices)
        ),
        ComparisonRow(
            "Fig4b predicted PAR", 1.3986, env.truth_sim.grid_par(env.aware_prices)
        ),
        ComparisonRow(
            "actual benign PAR", None, env.truth_sim.grid_par(env.clean_prices)
        ),
    ]
    print(comparison_table(rows, title="Figure 4 — aware prediction"))


def _cmd_fig5(env: _Environment) -> None:
    attack = ZeroPriceAttack(start_slot=16, end_slot=17)
    attacked = env.truth_sim.response(attack.apply(env.clean_prices))
    print(render_profile(attacked.grid_demand, label="attacked"))
    print(
        render_profile(
            env.truth_sim.response(env.clean_prices).grid_demand, label="benign"
        )
    )
    par_value = float(attacked.grid_demand.max() / attacked.grid_demand.mean())
    rows = [ComparisonRow("Fig5b attacked PAR", 1.9037, par_value)]
    print(comparison_table(rows, title="Figure 5 — zero-price attack"))


def _cmd_fig6(env: _Environment, *, slots: int, json_dir: Path | None) -> None:
    rows = []
    paper = {"aware": 0.9514, "unaware": 0.6595}
    for kind in ("aware", "unaware"):
        result = run_long_term_scenario(env.config, detector=kind, n_slots=slots)
        rows.append(
            ComparisonRow(
                f"observation accuracy ({kind})",
                paper[kind],
                result.observation_accuracy,
            )
        )
        if json_dir is not None:
            save_scenario(result, json_dir / f"fig6_{kind}.json")
    print(comparison_table(rows, title="Figure 6 — observation accuracy"))


def _cmd_table1(env: _Environment, *, slots: int, json_dir: Path | None) -> None:
    paper = {"none": 1.6509, "unaware": 1.5422, "aware": 1.4112}
    labor = LaborCostModel(
        fixed_cost=env.config.detection.repair_fixed_cost,
        per_meter_cost=env.config.detection.repair_cost_per_meter,
    )
    results = {}
    rows = []
    for kind in ("none", "unaware", "aware"):
        result = run_long_term_scenario(env.config, detector=kind, n_slots=slots)
        results[kind] = result
        rows.append(ComparisonRow(f"PAR ({kind})", paper[kind], result.mean_par))
        if json_dir is not None:
            save_scenario(result, json_dir / f"table1_{kind}.json")
    unaware_cost = results["unaware"].labor_cost(labor)
    if unaware_cost > 0:
        rows.append(
            ComparisonRow(
                "normalized labor (aware)",
                1.0067,
                normalized_labor_cost(results["aware"].labor_cost(labor), unaware_cost),
            )
        )
    print(comparison_table(rows, title="Table 1 — detection comparison"))


def _cmd_sweep_matrix(config: CommunityConfig, args: argparse.Namespace) -> None:
    """Run the tariff x attack x PV scenario matrix (docs/SCENARIOS.md)."""
    import json as _json

    from repro.attacks import ATTACK_FAMILIES
    from repro.perf.parallel import ParallelMap
    from repro.simulation.sweep import render_matrix_table, sweep_matrix

    if args.quick:
        tariffs: tuple[str, ...] = ("flat", "nem3_spread")
        families: tuple[str, ...] = ("peak_increase", "meter_outage")
        detectors: tuple[Any, ...] = ("aware",)
    else:
        tariffs = ("flat", "nem3_spread", "tou", "monthly_netting")
        families = ATTACK_FAMILIES
        detectors = ("aware", "unaware", "none")
    parallel = (
        None
        if args.workers is None
        else ParallelMap(backend="process", max_workers=args.workers)
    )
    result = sweep_matrix(
        config,
        tariffs=tariffs,
        attack_families=families,
        detectors=detectors,
        n_slots=args.slots,
        parallel=parallel,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        _json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(render_matrix_table(result))
    print(f"matrix artifact written to {args.out} ({len(result.cells)} cells)")


def _parse_stream_faults(args: argparse.Namespace):
    """Resolve ``--faults``/``--fault-seed`` into a FaultPlan (or None)."""
    if args.faults is None:
        if args.fault_seed is not None:
            raise SystemExit("--fault-seed requires --faults")
        return None
    from repro.faults.plan import FaultPlanError, parse_fault_spec

    try:
        return parse_fault_spec(args.faults, seed=args.fault_seed)
    except FaultPlanError as exc:
        raise SystemExit(f"bad --faults spec: {exc}") from exc


def _build_stream_engine(config: CommunityConfig, args: argparse.Namespace):
    """Build (or resume) the engine the stream/serve commands drive."""
    from repro.core.config import RetryPolicy
    from repro.stream.checkpoint import resume_engine
    from repro.stream.pipeline import build_replay_engine, build_synthetic_engine

    from repro.obs.audit import AuditTrail

    faults = _parse_stream_faults(args)
    retry = None if args.retries is None else RetryPolicy(max_retries=args.retries)
    checkpoint_path = None
    if args.checkpoint_dir is not None:
        args.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = args.checkpoint_dir / f"stream-{args.stream_source}.json"
    if args.resume:
        if faults is not None:
            raise SystemExit(
                "--resume restores the checkpointed fault plan; "
                "--faults cannot be combined with it"
            )
        if checkpoint_path is None or not checkpoint_path.exists():
            raise SystemExit(
                "--resume needs --checkpoint-dir with an existing checkpoint "
                f"({'no directory given' if checkpoint_path is None else checkpoint_path})"
            )
        engine = resume_engine(checkpoint_path)
        if retry is not None:
            engine.retry = retry
        if args.audit is not None:
            engine.pipeline.audit = AuditTrail(args.audit)
            engine.pipeline.audit.backfill(engine.timeline)
        return engine, checkpoint_path
    if args.stream_source == "replay":
        engine = build_replay_engine(
            config,
            detector=args.detector,
            n_slots=args.days * config.time.slots_per_day,
            faults=faults,
            retry=retry,
        )
    else:
        engine = build_synthetic_engine(
            config,
            n_days=args.days,
            attack_days=(args.days // 3, 2 * args.days // 3),
            detector=args.detector,
            faults=faults,
            retry=retry,
        )
    if args.audit is not None:
        engine.pipeline.audit = AuditTrail(args.audit)
    return engine, checkpoint_path


def _cmd_stream(config: CommunityConfig, args: argparse.Namespace) -> None:
    import json as _json

    from repro.reporting.ascii import render_stream_timeline
    from repro.stream.checkpoint import save_checkpoint

    engine, checkpoint_path = _build_stream_engine(config, args)
    produced = engine.run(until_day=args.until_day)
    timeline = engine.timeline
    if args.format == "json":
        for det in timeline:
            print(_json.dumps(det.to_dict()))
    else:
        print(
            render_stream_timeline(
                timeline, slots_per_day=engine.pipeline.slots_per_day
            )
        )
        stats = engine.pipeline.detection_stats()
        print(
            f"slots {stats['slots_processed']}  flags {stats['flags_total']}  "
            f"repairs {stats['repairs']}  gaps {stats['gaps']}  "
            f"events {engine.events_processed} (+{len(produced)} this run)"
        )
        injector = engine.fault_injector
        if injector is not None:
            counts = ", ".join(
                f"{kind} {count}" for kind, count in sorted(injector.counts.items())
            )
            print(f"faults injected: {counts if counts else 'none fired'}")
    if checkpoint_path is not None:
        save_checkpoint(engine, checkpoint_path)
        print(f"checkpoint saved to {checkpoint_path}")
    if args.audit is not None and args.format != "json":
        print(f"audit trail appended to {args.audit}")


def _cmd_serve(config: CommunityConfig, args: argparse.Namespace) -> None:
    from repro.service.app import DetectionService, run_service

    engine, checkpoint_path = _build_stream_engine(config, args)
    service = DetectionService(engine, checkpoint_path=checkpoint_path)
    run_service(service, host=args.host, port=args.port)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint gate has its own option surface; hand over wholesale.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # So does the audit-trail inspector.
        from repro.obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "fleet":
        # And the multi-community fleet layer.
        from repro.fleet.cli import fleet_main

        return fleet_main(argv[1:])
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="DAC'15 net-metering detection reproduction"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "command",
        choices=(
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "table1",
            "all",
            "sweep-matrix",
            "stream",
            "serve",
        ),
        help="which artifact to regenerate (or sweep-matrix/stream/serve)",
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), default="bench")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--slots", type=int, default=48)
    parser.add_argument(
        "--json", type=Path, default=None, help="directory for JSON result dumps"
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="print hot-path perf counters after the command",
    )
    solver_opts = parser.add_argument_group("solver options")
    solver_opts.add_argument(
        "--backend",
        default=None,
        help="kernel backend for the game solver (auto/reference/fused/...; "
        "defaults to the REPRO_BACKEND environment variable, then auto)",
    )
    stream_opts = parser.add_argument_group("stream/serve options")
    stream_opts.add_argument(
        "--stream-source",
        choices=("synthetic", "replay"),
        default="synthetic",
        help="event source: scripted synthetic stream or scenario replay",
    )
    stream_opts.add_argument(
        "--detector", choices=("aware", "unaware", "none"), default="aware"
    )
    stream_opts.add_argument(
        "--days", type=int, default=6, help="stream length in days"
    )
    stream_opts.add_argument(
        "--until-day", type=int, default=None, help="stop after this many full days"
    )
    stream_opts.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="save a resumable checkpoint here when the run ends",
    )
    stream_opts.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir",
    )
    stream_opts.add_argument(
        "--faults",
        default=None,
        help=(
            "fault-injection plan: a builtin name (none/drop/duplicate/"
            "reorder/delay/corrupt/stall/chaos), a JSON plan file, or an "
            "inline JSON object"
        ),
    )
    stream_opts.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the fault plan's RNG seed (requires --faults)",
    )
    stream_opts.add_argument(
        "--retries",
        type=int,
        default=None,
        help="max consecutive stalled polls before the run gives up",
    )
    stream_opts.add_argument("--format", choices=("ascii", "json"), default="ascii")
    stream_opts.add_argument("--host", default="127.0.0.1")
    stream_opts.add_argument("--port", type=int, default=8008)
    matrix_opts = parser.add_argument_group("sweep-matrix options")
    matrix_opts.add_argument(
        "--quick",
        action="store_true",
        help="sweep-matrix: 2x2 tariff x attack grid, aware detector only",
    )
    matrix_opts.add_argument(
        "--out",
        type=Path,
        default=Path("matrix.json"),
        help="sweep-matrix: JSON artifact output path",
    )
    matrix_opts.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep-matrix: spread grid cells over N worker processes",
    )
    obs_opts = parser.add_argument_group("observability options")
    obs_opts.add_argument(
        "--trace",
        action="store_true",
        help="record a hierarchical span trace of the run "
        "(also enabled by REPRO_TRACE=1 or --trace-out)",
    )
    obs_opts.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="Chrome-trace-event JSON output path "
        "(default trace-<command>.json; implies --trace)",
    )
    obs_opts.add_argument(
        "--audit",
        type=Path,
        default=None,
        help="append the stream's detection audit trail to this JSONL file",
    )
    args = parser.parse_args(argv)

    config = PRESETS[args.preset]()
    if args.seed is not None:
        config = config.with_updates(seed=args.seed)
    if args.backend is not None:
        from repro.kernels import get_backend

        try:
            get_backend(args.backend)
        except ValueError as exc:
            parser.error(str(exc))
        config = config.with_updates(
            solver=replace(config.solver, backend=args.backend)
        )
    if args.json is not None:
        args.json.mkdir(parents=True, exist_ok=True)

    trace_out = args.trace_out
    trace_enabled = (
        args.trace
        or trace_out is not None
        or os.environ.get("REPRO_TRACE", "") not in ("", "0")
    )
    if trace_enabled:
        from repro.obs.manifest import build_manifest
        from repro.obs.trace import TRACER

        if trace_out is None:
            trace_out = Path(f"trace-{args.command}.json")
        TRACER.enable(
            run_id=f"{args.command}-{args.preset}-seed{config.seed}",
            metadata=build_manifest(config, command=args.command),
        )

    if args.command == "sweep-matrix":
        _cmd_sweep_matrix(config, args)
        if args.perf:
            print()
            print(PERF.report())
        _finish_trace(trace_out)
        return 0

    if args.command in ("stream", "serve"):
        if args.days < 1:
            parser.error(f"--days must be >= 1, got {args.days}")
        if args.command == "stream":
            _cmd_stream(config, args)
        else:
            _cmd_serve(config, args)
        if args.perf:
            print()
            print(PERF.report())
        _finish_trace(trace_out)
        return 0

    env = _Environment(config)
    commands = {
        "fig3": lambda: _cmd_fig3(env),
        "fig4": lambda: _cmd_fig4(env),
        "fig5": lambda: _cmd_fig5(env),
        "fig6": lambda: _cmd_fig6(env, slots=args.slots, json_dir=args.json),
        "table1": lambda: _cmd_table1(env, slots=args.slots, json_dir=args.json),
    }
    if args.command == "all":
        for name, command in commands.items():
            print(f"\n===== {name} =====")
            command()
    else:
        commands[args.command]()

    if args.perf:
        print()
        print(PERF.report())
    _finish_trace(trace_out)
    return 0


def _finish_trace(trace_out: Path | None) -> None:
    """Export and disable the span tracer if this run enabled it."""
    from repro.obs.trace import TRACER

    if not TRACER.enabled or trace_out is None:
        return
    TRACER.write(trace_out)
    TRACER.disable()
    print(f"trace written to {trace_out}")


if __name__ == "__main__":
    sys.exit(main())
