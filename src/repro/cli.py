"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one query session with chosen mode/seed/duration; prints the
  per-period summary and an ASCII fidelity strip.
* ``scenario`` — run a named declarative scenario from the registry (or a
  JSON file) through the service façade; ``--list`` shows the catalogue.
* ``sweep`` — fan a scenario across users x shards x fault-intensity x
  arrival axes, write ``SWEEP_<name>.json`` + a markdown table, and fail
  loudly when a metamorphic invariant breaks.
* ``fuzz`` — draw seeded randomized scenarios from strictly bounded
  ranges and run each through the sweep's metamorphic invariants.
* ``fig`` — regenerate one of the paper's figures (4-8) as a table.
* ``profile`` — run one canonical scenario under cProfile, dump the raw
  profile, and print the top-N hot functions (the ROADMAP profiling
  recipe as one command).
* ``analysis`` — print the Section 5 closed-form tables (paper vs ours).
* ``topology`` — render the sensor field, backbone and user path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api.requests import ACCURACY_LEVELS
from .experiments.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
    QueryParams,
    paper_section62_config,
)
from .experiments.figures import (
    contention_analysis_table,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    storage_analysis_table,
)
from .experiments.reporting import format_table
from .experiments.runner import run_experiment
from .net.network import NetworkConfig
from .workload.arrivals import ARRIVAL_PROCESSES, ARRIVAL_STAGGERED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiQuery reproduction (Lu et al., ICDCS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one query session")
    run_p.add_argument(
        "--mode",
        choices=[MODE_JIT, MODE_GREEDY, MODE_NP, MODE_IDLE],
        default=MODE_JIT,
    )
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--duration", type=float, default=120.0)
    run_p.add_argument("--sleep-period", type=float, default=9.0)
    run_p.add_argument(
        "--users",
        type=int,
        default=1,
        help="concurrent mobile users sharing the network (default 1)",
    )
    run_p.add_argument(
        "--arrival",
        choices=list(ARRIVAL_PROCESSES),
        default=ARRIVAL_STAGGERED,
        help="how multi-user session starts are spread (default staggered)",
    )
    run_p.add_argument(
        "--spacing",
        type=float,
        default=2.5,
        help="arrival spacing / mean interarrival in seconds (default 2.5)",
    )
    run_p.add_argument(
        "--radius",
        type=float,
        default=150.0,
        help="query-area radius Rq in metres (default 150)",
    )
    run_p.add_argument(
        "--period",
        type=float,
        default=2.0,
        help="result period Tperiod in seconds (default 2)",
    )
    run_p.add_argument(
        "--freshness",
        type=float,
        default=1.0,
        help="data-freshness bound Tfresh in seconds (default 1; must "
        "not exceed the period)",
    )
    run_p.add_argument(
        "--accuracy",
        choices=list(ACCURACY_LEVELS),
        default="exact",
        help="answer accuracy: exact (full collection protocol, the "
        "default) or medium/coarse (bounded-error answers from the "
        "in-network summary plane)",
    )
    run_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="regional shards serving the fleet (default 1 = one world)",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the sharded batch path (default 0)",
    )
    run_p.add_argument(
        "--faults",
        default=None,
        metavar="FILE",
        help="inject a fault plan from a JSON file (crashes, blackouts, "
        "radio degradations, worker kills); omitted = fault-free",
    )

    scen_p = sub.add_parser(
        "scenario", help="run a named declarative scenario via the service API"
    )
    scen_p.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registry name (see --list) — omit with --list or --file",
    )
    scen_p.add_argument(
        "--list", action="store_true", help="show the scenario catalogue"
    )
    scen_p.add_argument(
        "--file", default=None, help="load a ScenarioSpec from a JSON file"
    )
    scen_p.add_argument(
        "--duration", type=float, default=None, help="override the duration (s)"
    )
    scen_p.add_argument(
        "--seed", type=int, default=None, help="override the seed"
    )
    scen_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override the shard count (1 = single world, N = cluster)",
    )
    scen_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the cluster worker-process count",
    )
    scen_p.add_argument(
        "--accuracy",
        choices=list(ACCURACY_LEVELS),
        default=None,
        help="rewrite every request template's accuracy (exact / medium "
        "/ coarse) — how a scenario's exact twin runs",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="adversarial robustness sweep over users x shards x faults x arrivals",
    )
    sweep_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="base scenario registry name (see `repro scenario --list`)",
    )
    sweep_p.add_argument(
        "--file", default=None, help="load the base ScenarioSpec from a JSON file"
    )
    sweep_p.add_argument(
        "--axes",
        default=None,
        metavar="FILE",
        help="JSON file with the sweep axes "
        '({"users": [...], "shards": [...], "intensities": [...], '
        '"arrivals": [...]}); CLI axis flags override its entries',
    )
    sweep_p.add_argument(
        "--users", default=None, help="comma-separated fleet sizes, e.g. 4,8"
    )
    sweep_p.add_argument(
        "--shards", default=None, help="comma-separated shard counts, e.g. 1,2"
    )
    sweep_p.add_argument(
        "--intensities",
        default=None,
        help="comma-separated fault intensities in [0,1], e.g. 0,0.5,1",
    )
    sweep_p.add_argument(
        "--arrivals",
        default=None,
        help="comma-separated arrival processes (staggered, burst)",
    )
    sweep_p.add_argument(
        "--admissions",
        default=None,
        help="comma-separated admission policies "
        "(accept-all, per-area-cap, phase-assign)",
    )
    sweep_p.add_argument(
        "--accuracies",
        default=None,
        help="comma-separated accuracy levels (exact, medium, coarse) — "
        "covers the summary-served path in the fault grid",
    )
    sweep_p.add_argument(
        "--densities",
        default=None,
        help="comma-separated node counts, e.g. 150,200,300 "
        "(0 = the scenario's own density)",
    )
    sweep_p.add_argument(
        "--radio-ranges",
        default=None,
        help="comma-separated comm ranges in metres, e.g. 90,105,120 "
        "(0 = the scenario's own range)",
    )
    sweep_p.add_argument(
        "--duration", type=float, default=None, help="override the duration (s)"
    )
    sweep_p.add_argument(
        "--seed", type=int, default=None, help="override the seed"
    )
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the grid (cells run serially by default)",
    )
    sweep_p.add_argument(
        "--out-dir",
        default=".",
        help="directory for SWEEP_<name>.json (default current directory)",
    )
    sweep_p.add_argument(
        "--name",
        default=None,
        help="report name (default: the base scenario's name)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on query daemon (HTTP/JSON wire API)",
    )
    serve_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario registry name the daemon's backend runs "
        "(see `repro scenario --list`)",
    )
    serve_p.add_argument(
        "--file", default=None, help="load the ScenarioSpec from a JSON file"
    )
    serve_p.add_argument(
        "--duration", type=float, default=None, help="override the duration (s)"
    )
    serve_p.add_argument(
        "--seed", type=int, default=None, help="override the seed"
    )
    serve_p.add_argument(
        "--shards", type=int, default=None, help="override the shard count"
    )
    serve_p.add_argument(
        "--workers", type=int, default=None, help="override the worker count"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8600)
    serve_p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let live sessions finish on SIGTERM before "
        "force-cancelling (default 30)",
    )
    serve_p.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="simulated seconds per wall second (default 8; 0 = free-run)",
    )
    serve_p.add_argument(
        "--ring-capacity",
        type=int,
        default=256,
        help="per-session result buffer size (default 256)",
    )
    serve_p.add_argument(
        "--out-dir",
        default=".",
        help="directory for SERVE_<name>.json (default current directory)",
    )
    serve_p.add_argument(
        "--name",
        default=None,
        help="log/report name (default: the scenario's name)",
    )
    serve_p.add_argument(
        "--edge-rate",
        type=float,
        default=None,
        help="per-tenant admitted submissions per second "
        "(default: the scenario's edge_rate key, else 0 = edge off)",
    )
    serve_p.add_argument(
        "--edge-burst",
        type=float,
        default=None,
        help="per-tenant token-bucket burst (default: the scenario's "
        "edge_burst key; 0 = 2x the rate)",
    )
    serve_p.add_argument(
        "--max-live-sessions",
        type=int,
        default=None,
        help="shed new submissions (503 overloaded) above this many live "
        "sessions (default: the scenario's max_live_sessions key; "
        "0 = no ceiling)",
    )
    serve_p.add_argument(
        "--max-pump-lag",
        type=float,
        default=0.0,
        help="shed new submissions when the pacing pump lags this many "
        "wall seconds (0 = no ceiling)",
    )
    serve_p.add_argument(
        "--wal-flush",
        type=int,
        default=None,
        help="fsync the crash-safe op log every N ops (default: the "
        "scenario's wal_flush key, else 8; 1 = every op)",
    )

    slam_p = sub.add_parser(
        "slam",
        help="load-generate against a live `repro serve` daemon",
    )
    slam_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario whose arrival process to replay over the wire",
    )
    slam_p.add_argument(
        "--file", default=None, help="load the ScenarioSpec from a JSON file"
    )
    slam_p.add_argument(
        "--sim-duration",
        type=float,
        default=None,
        help="the daemon's scenario duration override — must match what "
        "`repro serve` was started with, so request starts clamp the same",
    )
    slam_p.add_argument(
        "--url",
        default="http://127.0.0.1:8600",
        help="daemon base URL (default http://127.0.0.1:8600)",
    )
    slam_p.add_argument(
        "--rate", type=float, default=8.0, help="submissions per second"
    )
    slam_p.add_argument(
        "--clients", type=int, default=2, help="concurrent client identities"
    )
    slam_p.add_argument(
        "--duration",
        type=float,
        default=120.0,
        help="wall-clock budget in seconds (default 120)",
    )
    slam_p.add_argument(
        "--wait",
        type=float,
        default=0.5,
        help="long-poll wait per results call (default 0.5s)",
    )
    slam_p.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request HTTP timeout in seconds (default 10)",
    )
    slam_p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="bounded retries per request with decorrelated-jitter "
        "backoff (default 3; 0 = fail fast)",
    )
    slam_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed of the clients' backoff jitter streams (default 0)",
    )
    slam_p.add_argument(
        "--out-dir",
        default=".",
        help="directory for SLAM_<name>.json (default current directory)",
    )
    slam_p.add_argument(
        "--name",
        default=None,
        help="report name (default: the scenario's name)",
    )

    replay_p = sub.add_parser(
        "replay",
        help="re-execute a SERVE_<name>.json submission log in-process and "
        "verify it reproduces the daemon's result fingerprints",
    )
    replay_p.add_argument(
        "log",
        help="path to a SERVE_<name>.json log (or a SERVE_<name>.wal "
        "with --partial)",
    )
    replay_p.add_argument(
        "--partial",
        action="store_true",
        help="treat the input as a crash-safe WAL (SERVE_<name>.wal) from "
        "a killed daemon: replay its flushed prefix twice and verify the "
        "two executions agree bit for bit",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="draw seeded randomized scenarios (strictly bounded) and run "
        "each through the sweep's metamorphic invariants",
    )
    fuzz_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="base scenario registry name (see `repro scenario --list`)",
    )
    fuzz_p.add_argument(
        "--file", default=None, help="load the base ScenarioSpec from a JSON file"
    )
    fuzz_p.add_argument(
        "--runs", type=int, default=3, help="cases to draw (default 3)"
    )
    fuzz_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzz stream seed — same seed, same cases (default 0)",
    )
    fuzz_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes per case's sweep grid (default serial)",
    )
    fuzz_p.add_argument(
        "--out-dir",
        default=".",
        help="directory for FUZZ_<name>.json (default current directory)",
    )
    fuzz_p.add_argument(
        "--name",
        default=None,
        help="report name (default: <base>-fuzz)",
    )

    fig_p = sub.add_parser("fig", help="regenerate a paper figure")
    fig_p.add_argument("number", type=int, choices=[4, 5, 6, 7, 8])
    fig_p.add_argument("--scale", choices=["quick", "paper"], default="quick")

    prof_p = sub.add_parser(
        "profile",
        help="profile a canonical scenario with cProfile",
        epilog="The per-layer ledger is bench/README.md.",
    )
    prof_p.add_argument(
        "scenario",
        help="canonical scenario name, e.g. fig4_jit (an unknown name lists them)",
    )
    prof_p.add_argument("--scale", choices=["quick", "paper"], default="quick")
    prof_p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the scenario duration in seconds (quick looks)",
    )
    prof_p.add_argument(
        "--sort",
        default="tottime",
        help="pstats sort key (default tottime; e.g. cumtime, ncalls)",
    )
    prof_p.add_argument(
        "--top",
        type=int,
        default=25,
        help="how many functions to print (default 25)",
    )
    prof_p.add_argument(
        "--out",
        default=None,
        help="where to dump the raw profile (default /tmp/repro_prof.out)",
    )

    sub.add_parser("analysis", help="Section 5 closed-form tables")

    topo_p = sub.add_parser("topology", help="render the sensor field")
    topo_p.add_argument("--seed", type=int, default=1)
    topo_p.add_argument("--width", type=int, default=72)
    return parser


def _cmd_run_cluster(
    args: argparse.Namespace, config: ExperimentConfig, faults=None
) -> int:
    """``repro run --shards N``: the same fleet on a regional cluster."""
    from .api.requests import QueryRequest
    from .cluster.service import ClusterService
    from .sim.rng import RandomStreams
    from .workload.arrivals import arrival_times

    cluster = ClusterService(
        config, shards=args.shards, workers=max(args.workers, 0), faults=faults
    )
    starts = arrival_times(
        config.num_users,
        process=config.arrival_process,
        spacing_s=config.arrival_spacing_s,
        rng=RandomStreams(config.seed).stream("arrivals"),
    )
    for start in starts:
        cluster.submit(
            QueryRequest(
                radius_m=config.query.radius_m,
                period_s=config.query.period_s,
                freshness_s=config.query.freshness_s,
                start_s=start,
                accuracy=config.query.accuracy,
            )
        )
    workload = cluster.close()
    stats = cluster.stats()
    print(
        f"mode={args.mode} seed={args.seed} duration={args.duration:.0f}s "
        f"shards={cluster.num_shards} partitioner={cluster.partitioner.name} "
        f"users={config.num_users} backbone={stats.backbone_size}"
        + (" (parallel workers)" if cluster.parallel_used else "")
    )
    print("\n user  shard  start  periods  success  fidelity")
    print(" ----  -----  -----  -------  -------  --------")
    for handle in cluster.admitted_handles():
        session = handle.result()
        m = session.metrics
        print(f" {session.user_id:>4}  {cluster.shard_of(handle):>5}  "
              f"{session.start_s:4.1f}s  {m.num_periods:>7}  "
              f"{m.success_ratio():6.1%}  {m.mean_fidelity():7.1%}")
    print(f"\nfleet mean success: {workload.mean_success_ratio():.1%}")
    print(f"fleet worst user  : {workload.min_success_ratio():.1%}")
    if faults is not None and not faults.empty:
        degraded = sum(s.degraded_periods for s in workload.sessions)
        print(f"degraded periods  : {degraded} "
              f"(collector re-election / recovery windows)")
    print(f"frames on air: {stats.frames_sent}, collided receptions: "
          f"{stats.frames_collided}, events: {stats.events_executed}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.shards < 1:
            raise ValueError(f"--shards must be >= 1, got {args.shards}")
        config = ExperimentConfig(
            mode=args.mode,
            seed=args.seed,
            duration_s=args.duration,
            network=NetworkConfig(sleep_period_s=args.sleep_period),
            query=QueryParams(
                radius_m=args.radius,
                period_s=args.period,
                freshness_s=args.freshness,
                accuracy=args.accuracy,
            ),
            num_users=args.users,
            arrival_process=args.arrival,
            arrival_spacing_s=args.spacing,
        )
        faults = None
        if args.faults:
            from .faults.plan import load_fault_file

            faults = load_fault_file(args.faults)
        if args.shards > 1:
            return _cmd_run_cluster(args, config, faults)
        if args.workers > 0:
            print(
                "repro run: note: --workers only applies with --shards >= 2; "
                "running one world in-process",
                file=sys.stderr,
            )
        result = run_experiment(config, faults=faults)
    except (OSError, ValueError) as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    print(f"mode={args.mode} seed={args.seed} duration={args.duration:.0f}s "
          f"sleep={args.sleep_period:.0f}s backbone={result.backbone_size}"
          + (f" users={args.users} arrival={args.arrival}" if args.users > 1 else ""))
    if result.metrics is None:
        print(f"idle run: mean sleeper power "
              f"{result.power.mean_sleeper_power_w * 1000:.0f} mW")
        return 0
    if len(result.sessions) > 1:
        print("\n user  start  periods  success  fidelity")
        print(" ----  -----  -------  -------  --------")
        for session in result.sessions:
            m = session.metrics
            print(f" {session.user_id:>4}  {session.start_s:4.1f}s  "
                  f"{m.num_periods:>7}  {m.success_ratio():6.1%}  "
                  f"{m.mean_fidelity():7.1%}")
        print(f"\nfleet mean success: {result.mean_user_success_ratio:.1%}")
        print(f"fleet worst user  : {result.min_user_success_ratio:.1%}")
        if faults is not None and not faults.empty:
            degraded = sum(s.degraded_periods for s in result.sessions)
            print(f"degraded periods  : {degraded} "
                  f"(collector re-election / recovery windows)")
        # network-wide numbers, not per-user
        print(f"prefetch len  : {result.max_prefetch_length} (worst chain)")
        print(f"sleeper power : {result.power.mean_sleeper_power_w * 1000:.0f} mW")
        print("\nuser 0 (baseline-aligned session):")
    metrics = result.metrics
    print(f"success ratio : {metrics.success_ratio():.1%}")
    print(f"mean fidelity : {metrics.mean_fidelity():.1%}")
    print(f"warmup periods: {metrics.warmup_periods_observed()}")
    if len(result.sessions) == 1:
        print(f"prefetch len  : {result.max_prefetch_length}")
        print(f"sleeper power : {result.power.mean_sleeper_power_w * 1000:.0f} mW")
        if faults is not None and not faults.empty:
            print(f"degraded periods: {result.sessions[0].degraded_periods} "
                  f"(collector re-election / recovery windows)")
    from .experiments.viz import render_fidelity_strip

    print("\nfidelity per period:")
    print(render_fidelity_strip(metrics.fidelity_series()))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .api.scenarios import (
        get_scenario,
        list_scenarios,
        load_scenario_file,
        run_scenario,
    )

    if args.list:
        print("available scenarios:\n")
        for spec in list_scenarios():
            print(f"  {spec.name:<20} {len(spec.requests):>2} request "
                  f"template(s), {spec.duration_s:.0f}s")
            print(f"  {'':<20} {spec.description}")
        return 0
    try:
        if args.file:
            spec = load_scenario_file(args.file)
        elif args.name:
            spec = get_scenario(args.name)
        else:
            print(
                "repro scenario: error: give a scenario name, --file, or --list",
                file=sys.stderr,
            )
            return 2
        effective_shards = args.shards if args.shards is not None else spec.shards
        effective_workers = (
            args.workers if args.workers is not None else spec.workers
        )
        if effective_workers > 0 and effective_shards <= 1:
            print(
                "repro scenario: note: workers only apply to a sharded "
                "cluster (--shards >= 2); running one world in-process",
                file=sys.stderr,
            )
        result = run_scenario(
            spec,
            duration_s=args.duration,
            seed=args.seed,
            shards=args.shards,
            workers=args.workers,
            accuracy=args.accuracy,
        )
    except (KeyError, OSError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro scenario: error: {message}", file=sys.stderr)
        return 2
    spec = result.scenario
    print(f"scenario={spec.name} mode={spec.mode} seed={spec.seed} "
          f"duration={spec.duration_s:.0f}s backbone={result.backbone_size}"
          + (f" shards={result.shards}" if result.shards > 1 else ""))
    if spec.description:
        print(spec.description)
    print("\n user  status    start  period  radius  agg    success  fidelity")
    print(" ----  --------  -----  ------  ------  -----  -------  --------")
    scored = {s.user_id: s for s in result.workload.sessions}
    for handle in result.handles:
        if not handle.accepted:
            reason = handle.reason or "rejected"
            print(f"    -  rejected  {'-':>5}  {'-':>6}  {'-':>6}  {'-':<5}"
                  f"  {reason}")
            continue
        spec_u = handle.spec
        session = scored.get(spec_u.user_id)
        m = session.metrics if session else None
        print(f" {spec_u.user_id:>4}  {handle.status:<8}  "
              f"{spec_u.start_s:4.1f}s  {spec_u.period_s:5.1f}s  "
              f"{spec_u.radius_m:5.0f}m  {spec_u.aggregation.value:<5}  "
              f"{m.success_ratio():6.1%}  {m.mean_fidelity():7.1%}"
              if m else f" {spec_u.user_id:>4}  {handle.status:<8}")
    print(f"\nadmitted {result.admitted} / {len(result.handles)} sessions"
          + (f" ({result.rejected} rejected by admission control)"
             if result.rejected else ""))
    if result.workload.sessions:
        print(f"fleet mean success: {result.mean_success:.1%}")
        print(f"fleet worst user  : {result.min_success:.1%}")
    print(f"frames on air: {result.frames_sent}, collided receptions: "
          f"{result.frames_collided}, events: {result.events_executed}")
    return 0


def _parse_axis_list(text: str, cast, flag: str) -> tuple:
    """Parse a ``--users 4,8``-style comma list into a tuple of ``cast``."""
    try:
        values = tuple(cast(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(
            f"{flag} expects a comma-separated list of "
            f"{cast.__name__}s, got {text!r}"
        )
    if not values:
        raise ValueError(f"{flag} expects at least one value, got {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .api.scenarios import get_scenario, load_scenario_file
    from .faults.sweep import SweepAxes, run_sweep, write_sweep_outputs

    try:
        if args.file:
            base = load_scenario_file(args.file)
        elif args.scenario:
            base = get_scenario(args.scenario)
        else:
            raise ValueError(
                "give a base scenario name or --file "
                "(see `repro scenario --list`)"
            )
        overrides = {}
        if args.duration is not None:
            overrides["duration_s"] = args.duration
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            base = base.with_overrides(**overrides)
        axes_data: dict = {}
        if args.axes:
            with open(args.axes, "r", encoding="utf-8") as fh:
                axes_data = json.load(fh)
            if not isinstance(axes_data, dict):
                raise ValueError(
                    f"{args.axes} must hold a JSON object of sweep axes"
                )
        if args.users:
            axes_data["users"] = _parse_axis_list(args.users, int, "--users")
        if args.shards:
            axes_data["shards"] = _parse_axis_list(args.shards, int, "--shards")
        if args.intensities:
            axes_data["intensities"] = _parse_axis_list(
                args.intensities, float, "--intensities"
            )
        if args.arrivals:
            axes_data["arrivals"] = tuple(
                tok.strip() for tok in args.arrivals.split(",") if tok.strip()
            )
        if args.admissions:
            axes_data["admissions"] = tuple(
                tok.strip() for tok in args.admissions.split(",") if tok.strip()
            )
        if args.accuracies:
            axes_data["accuracies"] = tuple(
                tok.strip() for tok in args.accuracies.split(",") if tok.strip()
            )
        if args.densities:
            axes_data["densities"] = _parse_axis_list(
                args.densities, int, "--densities"
            )
        if args.radio_ranges:
            axes_data["radio_ranges"] = _parse_axis_list(
                args.radio_ranges, float, "--radio-ranges"
            )
        axes = SweepAxes.from_dict(axes_data) if axes_data else SweepAxes()
        print(
            f"sweep base={base.name} cells={axes.cell_count()} "
            f"workers={max(args.workers, 0)}",
            file=sys.stderr,
        )
        result = run_sweep(
            base, axes, workers=max(args.workers, 0), name=args.name
        )
    except (KeyError, OSError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro sweep: error: {message}", file=sys.stderr)
        return 2
    print(result.markdown_table())
    path = write_sweep_outputs(result, args.out_dir)
    print(f"\nsweep report written to {path} ({len(result.rows)} cells)")
    if result.violations:
        for violation in result.violations:
            print(f"repro sweep: INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 3
    print("metamorphic invariants hold: fault-monotonicity, "
          "shards1-identity, churn-no-leak, admission-no-harm, "
          "density-monotonicity")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .api.scenarios import get_scenario, load_scenario_file
    from .faults.fuzz import markdown_summary, run_fuzz, write_fuzz_outputs

    try:
        if args.file:
            base = load_scenario_file(args.file)
        elif args.scenario:
            base = get_scenario(args.scenario)
        else:
            raise ValueError(
                "give a base scenario name or --file "
                "(see `repro scenario --list`)"
            )
        print(
            f"fuzz base={base.name} runs={args.runs} seed={args.seed}",
            file=sys.stderr,
        )
        result = run_fuzz(
            base,
            runs=args.runs,
            seed=args.seed,
            workers=max(args.workers, 0),
            name=args.name,
        )
    except (KeyError, OSError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro fuzz: error: {message}", file=sys.stderr)
        return 2
    print(markdown_summary(result))
    path = write_fuzz_outputs(result, args.out_dir)
    cells = sum(case["cells"] for case in result.cases)
    print(f"\nfuzz report written to {path} ({result.runs} cases, "
          f"{cells} sweep cells)")
    if result.violations:
        for violation in result.violations:
            print(
                f"repro fuzz: INVARIANT VIOLATED: {violation}", file=sys.stderr
            )
        return 3
    print(f"metamorphic invariants hold across all {result.runs} drawn "
          f"cases (replay with --seed {result.seed})")
    return 0


def _load_spec_for_daemon(args: argparse.Namespace, command: str):
    """Resolve the scenario a serve/slam command names, with overrides."""
    from .api.scenarios import get_scenario, load_scenario_file

    if args.file:
        spec = load_scenario_file(args.file)
    elif args.scenario:
        spec = get_scenario(args.scenario)
    else:
        raise ValueError(
            "give a scenario name or --file (see `repro scenario --list`)"
        )
    overrides = {}
    duration = getattr(args, "duration", None)
    if command == "slam":
        duration = args.sim_duration
    if duration is not None:
        overrides["duration_s"] = duration
    for key, attr in (("seed", "seed"), ("shards", "shards"),
                      ("workers", "workers")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    return spec.with_overrides(**overrides) if overrides else spec


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import DEFAULT_TIME_SCALE, run_serve
    from .serve.edge import EdgeConfig

    try:
        spec = _load_spec_for_daemon(args, "serve")
        if args.drain_timeout < 0:
            raise ValueError(
                f"--drain-timeout must be >= 0, got {args.drain_timeout}"
            )
        time_scale = (
            args.time_scale if args.time_scale is not None else DEFAULT_TIME_SCALE
        )
        # Flags override the scenario's daemon-posture keys; unset flags
        # fall back to whatever the spec declares.
        edge = EdgeConfig(
            rate=args.edge_rate if args.edge_rate is not None else spec.edge_rate,
            burst=(
                args.edge_burst if args.edge_burst is not None else spec.edge_burst
            ),
            max_live_sessions=(
                args.max_live_sessions
                if args.max_live_sessions is not None
                else spec.max_live_sessions
            ),
            max_pump_lag_s=args.max_pump_lag,
        )
        wal_flush = (
            args.wal_flush if args.wal_flush is not None else spec.wal_flush
        )
        return run_serve(
            spec,
            host=args.host,
            port=args.port,
            drain_timeout_s=args.drain_timeout,
            time_scale=time_scale,
            ring_capacity=args.ring_capacity,
            out_dir=args.out_dir,
            name=args.name,
            edge=edge,
            wal_flush_every=wal_flush,
        )
    except (KeyError, OSError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro serve: error: {message}", file=sys.stderr)
        return 2


def _cmd_slam(args: argparse.Namespace) -> int:
    from .serve.errors import EXIT_FAILURE, WireError
    from .serve.slam import (
        SlamConfig,
        markdown_table,
        run_slam,
        write_slam_outputs,
    )

    try:
        spec = _load_spec_for_daemon(args, "slam")
        config = SlamConfig(
            url=args.url,
            rate=args.rate,
            clients=args.clients,
            duration_s=args.duration,
            wait_s=args.wait,
            timeout_s=args.timeout,
            retries=args.retries,
            seed=args.seed,
        )
    except (KeyError, OSError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro slam: error: {message}", file=sys.stderr)
        return 2
    try:
        report = run_slam(spec, config)
    except WireError as exc:
        print(f"repro slam: error: {exc.code}: {exc.message}", file=sys.stderr)
        return exc.exit_code
    print(markdown_table(report))
    path = write_slam_outputs(report, args.out_dir, name=args.name)
    print(f"\nslam report written to {path}")
    counts = report["counts"]
    if counts["errors"]:
        for entry in report["errors"][:10]:
            print(f"repro slam: error entry: {entry}", file=sys.stderr)
        return EXIT_FAILURE
    if counts["admitted"] == 0:
        print(
            "repro slam: error: the daemon admitted no sessions",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return 0


def _cmd_replay_partial(args: argparse.Namespace) -> int:
    """``repro replay --partial``: verify a killed daemon's WAL prefix."""
    from .serve.log import load_partial_log, verify_partial_log

    try:
        data = load_partial_log(args.log)
    except (OSError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro replay: error: {message}", file=sys.stderr)
        return 2
    try:
        ok, first, second = verify_partial_log(data)
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro replay: error: {message}", file=sys.stderr)
        return 2
    ops = data["ops"]
    submits = sum(1 for op in ops if op.get("op") == "submit")
    if not ok:
        print(
            "repro replay: REPLAY MISMATCH: two executions of the flushed "
            "WAL prefix diverged — the log is not deterministic",
            file=sys.stderr,
        )
        print(f"  first : {first}", file=sys.stderr)
        print(f"  second: {second}", file=sys.stderr)
        return 3
    tail = (
        " (an unflushed tail line was truncated by the crash, as designed)"
        if data["wal_truncated_tail"]
        else ""
    )
    print(
        f"partial replay ok: flushed prefix of {submits} submissions, "
        f"{len(ops) - submits} cancels replays bit-identically — "
        f"{len(first['sessions'])} scored sessions, frame counters "
        f"(sent={first['frames_sent']}, collided={first['frames_collided']}, "
        f"delivered={first['frames_delivered']}){tail}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from .serve.log import verify_submission_log

    if args.partial:
        return _cmd_replay_partial(args)
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.log} must hold a JSON object")
    except (OSError, ValueError) as exc:
        print(f"repro replay: error: {exc}", file=sys.stderr)
        return 2
    try:
        ok, recorded, replayed = verify_submission_log(data)
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro replay: error: {message}", file=sys.stderr)
        return 2
    if recorded is None:
        print(
            f"repro replay: error: {args.log} carries no fingerprints to "
            "verify against",
            file=sys.stderr,
        )
        return 2
    ops = data.get("ops", [])
    submits = sum(1 for op in ops if op.get("op") == "submit")
    if not ok:
        print(
            "repro replay: REPLAY MISMATCH: the in-process replay diverged "
            "from the live run",
            file=sys.stderr,
        )
        print(f"  recorded: {recorded}", file=sys.stderr)
        print(f"  replayed: {replayed}", file=sys.stderr)
        return 3
    print(
        f"replay ok: {submits} submissions, {len(ops) - submits} cancels — "
        f"{len(replayed['sessions'])} scored sessions and frame counters "
        f"(sent={replayed['frames_sent']}, "
        f"collided={replayed['frames_collided']}, "
        f"delivered={replayed['frames_delivered']}) reproduced bit-identically"
    )
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    number = args.number
    scale = args.scale
    if number == 4:
        rows = run_fig4(scale)
        print(format_table(
            "Figure 4 — success ratio",
            ["mode", "Tsleep", "speed", "success", "fidelity"],
            [(r.mode, r.sleep_period_s, f"{r.speed_range}", r.success_ratio,
              r.mean_fidelity) for r in rows],
        ))
    elif number == 5:
        from .experiments.viz import render_fidelity_strip

        for trace in run_fig5(scale):
            print(f"\nFigure 5 — {trace.mode} "
                  f"(warmup {trace.warmup_periods} periods)")
            print(render_fidelity_strip(trace.series))
    elif number == 6:
        rows = run_fig6(scale)
        print(format_table(
            "Figure 6 — success vs advance time",
            ["Tsleep", "Ta", "success"],
            [(r.sleep_period_s, r.advance_time_s, r.success_ratio) for r in rows],
        ))
    elif number == 7:
        rows = run_fig7(scale)
        print(format_table(
            "Figure 7 — motion changes / location error",
            ["curve", "interval", "success"],
            [(r.curve, r.change_interval_s, r.success_ratio) for r in rows],
        ))
    else:
        rows = run_fig8(scale)
        print(format_table(
            "Figure 8 — sleeper power",
            ["variant", "Tsleep", "power (W)"],
            [(r.variant, r.sleep_period_s, r.sleeper_power_w) for r in rows],
        ))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import pstats

    from .experiments.perf import DEFAULT_PROFILE_PATH, profile_scenario

    out_path = args.out or DEFAULT_PROFILE_PATH
    if args.top < 1:
        print("repro profile: error: --top must be >= 1", file=sys.stderr)
        return 2
    try:
        # Validate the sort key on an empty Stats BEFORE the (multi-second
        # to multi-minute) profiled run, so a typo fails instantly.
        pstats.Stats().sort_stats(args.sort)
    except KeyError:
        print(
            f"repro profile: error: invalid --sort key {args.sort!r} "
            "(try tottime, cumtime, ncalls)",
            file=sys.stderr,
        )
        return 2
    try:
        stats = profile_scenario(
            args.scenario,
            scale=args.scale,
            duration_s=args.duration,
            out_path=out_path,
        )
    except (KeyError, ValueError) as exc:
        # KeyError: unknown scenario; ValueError: a --duration the
        # scenario's config rejects (negative, shorter than one period).
        message = exc.args[0] if exc.args else exc
        print(f"repro profile: error: {message}", file=sys.stderr)
        return 2
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    print(f"raw profile written to {out_path} "
          f"(inspect with python -m pstats {out_path})")
    return 0


def _cmd_analysis() -> int:
    print(format_table(
        "Section 5.2 — storage cost",
        ["quantity", "paper", "ours"],
        [(r.quantity, r.paper_value, r.our_value) for r in storage_analysis_table()],
    ))
    print()
    print(format_table(
        "Section 5.4 — network contention",
        ["quantity", "paper", "ours"],
        [(r.quantity, r.paper_value, r.our_value) for r in contention_analysis_table()],
    ))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from .api.service import make_user_path
    from .experiments.viz import render_field
    from .power.ccp import CcpProtocol
    from .sim.kernel import Simulator
    from .sim.rng import RandomStreams
    from .net.network import build_network

    config = ExperimentConfig(seed=args.seed, duration_s=200.0)
    sim = Simulator()
    streams = RandomStreams(args.seed)
    network = build_network(sim, config.network, streams)
    CcpProtocol().apply(network, streams)
    path = make_user_path(config, streams)
    area = config_spec_area(config, path)
    print(render_field(network, width=args.width, path=path, area=area,
                       user=path.position_at(0.0)))
    print(f"\nbackbone: {len(network.active_nodes)}/{config.network.n_nodes} nodes")
    return 0


def config_spec_area(config: ExperimentConfig, path):
    """The query area at the session start (for the topology view)."""
    from .core.query import QuerySpec

    spec = QuerySpec(
        radius_m=config.query.radius_m,
        period_s=config.query.period_s,
        freshness_s=config.query.freshness_s,
        lifetime_s=config.duration_s,
    )
    return spec.area_at(path.position_at(0.0), path.velocity_at(0.0))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "slam":
        return _cmd_slam(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "fig":
        return _cmd_fig(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "analysis":
        return _cmd_analysis()
    if args.command == "topology":
        return _cmd_topology(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
