"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one user or a homogeneous fleet (``--users``, ``--arrival``)
  with chosen mode/seed/duration, on one world or ``--shards`` regional
  ones; prints the per-period summary and an ASCII fidelity strip, or a
  per-user table.
* ``scenario`` — run a named declarative scenario from the registry (or a
  JSON file) through the service façade; ``--list`` shows the catalogue.
* ``sweep`` — fan a scenario across the axes
  :class:`~repro.faults.sweep.SweepAxes` declares (one flag each), write
  ``SWEEP_<name>.json`` + a markdown table, and fail loudly when a
  metamorphic invariant breaks.
* ``fuzz`` — draw seeded randomized scenarios from strictly bounded
  ranges and run each through the sweep's metamorphic invariants.
* ``serve`` / ``slam`` / ``replay`` — the always-on query daemon, its
  load generator, and the in-process replay that proves a daemon's log.
* ``fig`` — regenerate one of the paper's figures (4-8) as a table.
* ``profile`` — run one canonical scenario under cProfile, dump the raw
  profile, and print the top-N hot functions (the ROADMAP profiling
  recipe as one command).
* ``analysis`` — print the Section 5 closed-form tables (paper vs ours).
* ``topology`` — render the sensor field, backbone and user path.

Every command that takes a scenario resolves it through
:func:`_resolve_spec`; every handler raises on bad input and :func:`main`
is the one place an exception becomes ``repro <command>: error: ...`` and
an exit code from :mod:`repro.serve.errors`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .api.config import MODE_GREEDY, MODE_IDLE, MODE_JIT, MODE_NP, ExperimentConfig
from .api.requests import ACCURACY_LEVELS
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
from .experiments.viz import render_fidelity_strip
from .faults.sweep import (
    AXES as SWEEP_AXES,
    SweepAxes,
    run_sweep,
    write_sweep_outputs,
)
from .serve.errors import EXIT_FAILURE, EXIT_USAGE, WireError
from .workload.arrivals import ARRIVAL_PROCESSES, ARRIVAL_STAGGERED, arrival_times

#: the ``ScenarioSpec.with_overrides`` keys a command line may set
_SPEC_OVERRIDES = ("duration_s", "seed", "shards", "workers")

#: ``repro fig``'s tables: number -> (runner, title, headers, row of one result)
_FIGURE_TABLES = {
    4: (
        run_fig4,
        "Figure 4 — success ratio",
        ["mode", "Tsleep", "speed", "success", "fidelity"],
        lambda r: (r.mode, r.sleep_period_s, f"{r.speed_range}", r.success_ratio,
                   r.mean_fidelity),
    ),
    6: (
        run_fig6,
        "Figure 6 — success vs advance time",
        ["Tsleep", "Ta", "success"],
        lambda r: (r.sleep_period_s, r.advance_time_s, r.success_ratio),
    ),
    7: (
        run_fig7,
        "Figure 7 — motion changes / location error",
        ["curve", "interval", "success"],
        lambda r: (r.curve, r.change_interval_s, r.success_ratio),
    ),
    8: (
        run_fig8,
        "Figure 8 — sleeper power",
        ["variant", "Tsleep", "power (W)"],
        lambda r: (r.variant, r.sleep_period_s, r.sleeper_power_w),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiQuery reproduction (Lu et al., ICDCS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flag groups several subcommands share, declared once.  A flag that
    # means "override the spec" parses into ``args.spec_<key>``.
    spec_args = argparse.ArgumentParser(add_help=False)
    spec_args.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario registry name (see `repro scenario --list`)",
    )
    spec_args.add_argument(
        "--file", default=None, help="load the ScenarioSpec from a JSON file"
    )
    horizon_args = argparse.ArgumentParser(add_help=False)
    horizon_args.add_argument(
        "--duration",
        type=float,
        dest="spec_duration_s",
        metavar="DURATION",
        help="override the duration (s)",
    )
    horizon_args.add_argument(
        "--seed",
        type=int,
        dest="spec_seed",
        metavar="SEED",
        help="override the seed",
    )
    cluster_args = argparse.ArgumentParser(add_help=False)
    cluster_args.add_argument(
        "--shards",
        type=int,
        dest="spec_shards",
        metavar="SHARDS",
        help="override the shard count (1 = single world, N = cluster)",
    )
    cluster_args.add_argument(
        "--workers",
        type=int,
        dest="spec_workers",
        metavar="WORKERS",
        help="override the cluster worker-process count",
    )
    report_args = argparse.ArgumentParser(add_help=False)
    report_args.add_argument(
        "--out-dir",
        default=".",
        help="directory for the report file (default current directory)",
    )
    report_args.add_argument(
        "--name",
        default=None,
        help="report name (default: derived from the scenario's name)",
    )

    run_p = sub.add_parser("run", help="run one query session")
    run_p.set_defaults(handler=_cmd_run)
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
        "scenario",
        help="run a named declarative scenario via the service API",
        parents=[spec_args, horizon_args, cluster_args],
    )
    scen_p.set_defaults(handler=_cmd_scenario)
    scen_p.add_argument(
        "--list", action="store_true", help="show the scenario catalogue"
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
        help="adversarial robustness sweep over " + " x ".join(SWEEP_AXES),
        parents=[spec_args, horizon_args, report_args],
    )
    sweep_p.set_defaults(handler=_cmd_sweep)
    sweep_p.add_argument(
        "--axes",
        default=None,
        metavar="FILE",
        help="JSON file with the sweep axes (an object of lists keyed by "
        + ", ".join(SWEEP_AXES) + "); CLI axis flags override its entries",
    )
    for axis, declared in SWEEP_AXES.items():
        sweep_p.add_argument(_axis_flag(axis), default=None, help=declared.flag_help)
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the grid (cells run serially by default)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on query daemon (HTTP/JSON wire API)",
        parents=[spec_args, horizon_args, cluster_args, report_args],
    )
    serve_p.set_defaults(handler=_cmd_serve)
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
        parents=[spec_args, report_args],
    )
    slam_p.set_defaults(handler=_cmd_slam)
    slam_p.add_argument(
        "--sim-duration",
        type=float,
        dest="spec_duration_s",
        metavar="SIM_DURATION",
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

    replay_p = sub.add_parser(
        "replay",
        help="re-execute a daemon's op log in-process: a drained "
        "SERVE_<name>.json must reproduce its result fingerprints, a "
        "SERVE_<name>.wal (a killed daemon's flushed prefix) must replay "
        "twice bit for bit",
    )
    replay_p.set_defaults(handler=_cmd_replay)
    replay_p.add_argument(
        "log", help="path to a SERVE_<name>.json or SERVE_<name>.wal log"
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="draw seeded randomized scenarios (strictly bounded) and run "
        "each through the sweep's metamorphic invariants",
        parents=[spec_args, report_args],
    )
    fuzz_p.set_defaults(handler=_cmd_fuzz)
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

    fig_p = sub.add_parser("fig", help="regenerate a paper figure")
    fig_p.set_defaults(handler=_cmd_fig)
    fig_p.add_argument("number", type=int, choices=[4, 5, 6, 7, 8])
    fig_p.add_argument("--scale", choices=["quick", "paper"], default="quick")

    prof_p = sub.add_parser(
        "profile",
        help="profile a canonical scenario with cProfile",
        epilog="The per-layer ledger is bench/README.md.",
    )
    prof_p.set_defaults(handler=_cmd_profile)
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

    analysis_p = sub.add_parser("analysis", help="Section 5 closed-form tables")
    analysis_p.set_defaults(handler=_cmd_analysis)

    topo_p = sub.add_parser("topology", help="render the sensor field")
    topo_p.set_defaults(handler=_cmd_topology)
    topo_p.add_argument("--seed", type=int, default=1)
    topo_p.add_argument("--width", type=int, default=72)
    return parser


def _resolve_spec(args: argparse.Namespace, what: str = "scenario"):
    """The scenario a command names, with its spec-override flags applied."""
    from .api.scenarios import get_scenario, load_scenario_file

    if args.file:
        spec = load_scenario_file(args.file)
    elif args.scenario:
        spec = get_scenario(args.scenario)
    else:
        raise ValueError(
            f"give a {what} name or --file (see `repro scenario --list`)"
        )
    return spec.with_overrides(
        **{key: getattr(args, f"spec_{key}", None) for key in _SPEC_OVERRIDES}
    )


def _load_json_object(path: str, holds: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold {holds}")
    return data


def _print_table(titles, rows) -> None:
    """A per-user table: titles (padded to their column), then cell rows."""
    print("\n " + "  ".join(titles))
    print(" " + "  ".join("-" * len(title) for title in titles))
    for cells in rows:
        print(" " + "  ".join(cells))


def _print_fleet(workload, faults) -> None:
    """Per-user table and fleet summary of a homogeneous ``repro run`` fleet."""
    _print_table(
        ("user", "start", "periods", "success", "fidelity"),
        (
            (
                f"{s.user_id:>4}",
                f"{s.start_s:4.1f}s",
                f"{s.metrics.num_periods:>7}",
                f"{s.metrics.success_ratio():6.1%}",
                f"{s.metrics.mean_fidelity():7.1%}",
            )
            for s in workload.sessions
        ),
    )
    print()
    _print_fleet_summary(workload)
    _print_degraded("degraded periods  ", workload.sessions, faults)


def _print_fleet_summary(workload) -> None:
    print(f"fleet mean success: {workload.mean_success_ratio():.1%}")
    print(f"fleet worst user  : {workload.min_success_ratio():.1%}")


def _print_degraded(label: str, sessions, faults) -> None:
    if not faults.empty:
        degraded = sum(s.degraded_periods for s in sessions)
        print(f"{label}: {degraded} (collector re-election / recovery windows)")


def _print_frames(counters) -> None:
    """The physics counters of a run (``BackendStats`` or ``ScenarioResult``)."""
    print(f"frames on air: {counters.frames_sent}, collided receptions: "
          f"{counters.frames_collided}, events: {counters.events_executed}")


def _run_spec(args: argparse.Namespace):
    """The one spec ``repro run``'s flags describe, whatever ``--shards``.

    The spec checks every flag it carries, with the message of the code
    that builds the value.  The late-arrival refusal is the CLI's own (a
    spec's expansion clamps a late start instead): it draws the starts the
    expansion will, from a fresh ``arrivals`` stream of the seed.
    """
    from .api.scenarios import ScenarioSpec
    from .sim.rng import RandomStreams

    users = () if args.mode == MODE_IDLE and args.users == 1 else (
        {
            "radius_m": args.radius,
            "period_s": args.period,
            "freshness_s": args.freshness,
            "accuracy": args.accuracy,
            "count": args.users,
            "arrival": args.arrival,
            "spacing_s": args.spacing,
        },
    )
    spec = ScenarioSpec(
        name="run",
        mode=args.mode,
        seed=args.seed,
        duration_s=args.duration,
        network={"sleep_period_s": args.sleep_period},
        requests=users,
        shards=args.shards,
        workers=args.workers,
    )
    if args.faults:
        from .faults.plan import load_fault_file

        spec = spec.with_overrides(faults=load_fault_file(args.faults).to_dict())
    if users:
        starts = arrival_times(
            args.users,
            process=args.arrival,
            spacing_s=args.spacing,
            rng=RandomStreams(args.seed).stream("arrivals"),
        )
        for user_id, start in enumerate(starts):
            if start > args.duration - args.period:
                raise ValueError(
                    f"user {user_id} arrives at {start:.1f}s but the run ends at "
                    f"{args.duration:.1f}s — no serviceable period left; "
                    f"shorten the arrival spacing or lengthen the run"
                )
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    from .api.scenarios import build_backend, run_scenario
    from .core.metrics import StorageTracker

    spec = _run_spec(args)
    faults = spec.fault_plan()
    backend = build_backend(spec)
    if spec.shards > 1:
        # The same fleet on a regional cluster, scored from what close()
        # returns.
        result = run_scenario(spec, backend=backend)
        print(
            f"mode={args.mode} seed={args.seed} duration={args.duration:.0f}s "
            f"shards={backend.num_shards} partitioner={backend.partitioner.name} "
            f"users={args.users} backbone={result.backbone_size}"
            + (" (parallel workers)" if backend.parallel_used else "")
        )
        _print_fleet(result.workload, faults)
        _print_frames(result)
        return 0
    if args.workers > 0:
        print(
            "repro run: note: --workers only applies with --shards >= 2; "
            "running one world in-process",
            file=sys.stderr,
        )
    storage = StorageTracker(backend.tracer)
    result = run_scenario(spec, backend=backend)
    sessions = result.workload.sessions
    print(f"mode={args.mode} seed={args.seed} duration={args.duration:.0f}s "
          f"sleep={args.sleep_period:.0f}s backbone={result.backbone_size}"
          + (f" users={args.users} arrival={args.arrival}" if args.users > 1 else ""))
    if not sessions:
        print(f"idle run: mean sleeper power "
              f"{result.power.mean_sleeper_power_w * 1000:.0f} mW")
        return 0
    if len(sessions) > 1:
        _print_fleet(result.workload, faults)
        # network-wide numbers, not per-user
        print(f"prefetch len  : {storage.max_prefetch_length} (worst chain)")
        print(f"sleeper power : {result.power.mean_sleeper_power_w * 1000:.0f} mW")
        print("\nuser 0 (baseline-aligned session):")
    metrics = sessions[0].metrics
    print(f"success ratio : {metrics.success_ratio():.1%}")
    print(f"mean fidelity : {metrics.mean_fidelity():.1%}")
    print(f"warmup periods: {metrics.warmup_periods_observed()}")
    if len(sessions) == 1:
        print(f"prefetch len  : {storage.max_prefetch_length}")
        print(f"sleeper power : {result.power.mean_sleeper_power_w * 1000:.0f} mW")
        _print_degraded("degraded periods", sessions, faults)
    print("\nfidelity per period:")
    print(render_fidelity_strip(metrics.fidelity_series()))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .api.scenarios import list_scenarios, run_scenario

    if args.list:
        print("available scenarios:\n")
        for spec in list_scenarios():
            print(f"  {spec.name:<20} {len(spec.requests):>2} request "
                  f"template(s), {spec.duration_s:.0f}s")
            print(f"  {'':<20} {spec.description}")
        return 0
    if not (args.file or args.scenario):
        raise ValueError("give a scenario name, --file, or --list")
    spec = _resolve_spec(args)
    if spec.workers > 0 and spec.shards <= 1:
        print(
            "repro scenario: note: workers only apply to a sharded "
            "cluster (--shards >= 2); running one world in-process",
            file=sys.stderr,
        )
    result = run_scenario(spec, accuracy=args.accuracy)
    spec = result.scenario
    print(f"scenario={spec.name} mode={spec.mode} seed={spec.seed} "
          f"duration={spec.duration_s:.0f}s backbone={result.backbone_size}"
          + (f" shards={result.shards}" if result.shards > 1 else ""))
    if spec.description:
        print(spec.description)
    scored = {s.user_id: s.metrics for s in result.workload.sessions}
    rows = []
    for handle in result.handles:
        if not handle.accepted:
            rows.append(("   -", "rejected", "    -", "     -", "     -",
                         "-    ", handle.reason or "rejected"))
            continue
        query = handle.spec
        row = [f"{query.user_id:>4}", f"{handle.status:<8}"]
        m = scored.get(query.user_id)
        if m:
            row += [
                f"{query.start_s:4.1f}s",
                f"{query.period_s:5.1f}s",
                f"{query.radius_m:5.0f}m",
                f"{query.aggregation.value:<5}",
                f"{m.success_ratio():6.1%}",
                f"{m.mean_fidelity():7.1%}",
            ]
        rows.append(row)
    _print_table(
        ("user", "status  ", "start", "period", "radius", "agg  ", "success",
         "fidelity"),
        rows,
    )
    print(f"\nadmitted {result.admitted} / {len(result.handles)} sessions"
          + (f" ({result.rejected} rejected by admission control)"
             if result.rejected else ""))
    if result.workload.sessions:
        _print_fleet_summary(result.workload)
    _print_frames(result)
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


def _axis_flag(axis: str) -> str:
    """``repro sweep``'s flag for one :class:`SweepAxes` field."""
    return "--" + axis.replace("_", "-")


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _resolve_spec(args, "base scenario")
    axes_data = (
        _load_json_object(args.axes, "a JSON object of sweep axes")
        if args.axes
        else {}
    )
    for axis, declared in SWEEP_AXES.items():
        # argparse's dest for ``--radio-ranges`` is the SweepAxes field
        if getattr(args, axis):
            axes_data[axis] = _parse_axis_list(
                getattr(args, axis), declared.cast, _axis_flag(axis)
            )
    axes = SweepAxes.from_dict(axes_data)
    print(
        f"sweep base={base.name} cells={axes.cell_count()} "
        f"workers={max(args.workers, 0)}",
        file=sys.stderr,
    )
    result = run_sweep(base, axes, workers=max(args.workers, 0), name=args.name)
    print(result.markdown_table())
    path = write_sweep_outputs(result, args.out_dir)
    print(f"\nsweep report written to {path} ({len(result.rows)} cells)")
    return _invariant_verdict(
        "sweep",
        result.violations,
        "metamorphic invariants hold: fault-monotonicity, shards1-identity, "
        "churn-no-leak, admission-no-harm, density-monotonicity",
    )


def _invariant_verdict(command: str, violations, holds: str) -> int:
    """Each violation on stderr and the failure exit, or ``holds``."""
    for violation in violations:
        print(f"repro {command}: INVARIANT VIOLATED: {violation}", file=sys.stderr)
    if violations:
        return EXIT_FAILURE
    print(holds)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .faults.fuzz import markdown_summary, run_fuzz, write_fuzz_outputs

    base = _resolve_spec(args, "base scenario")
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
    print(markdown_summary(result))
    path = write_fuzz_outputs(result, args.out_dir)
    cells = sum(case["cells"] for case in result.cases)
    print(f"\nfuzz report written to {path} ({result.runs} cases, "
          f"{cells} sweep cells)")
    return _invariant_verdict(
        "fuzz",
        result.violations,
        f"metamorphic invariants hold across all {result.runs} drawn "
        f"cases (replay with --seed {result.seed})",
    )


def _flag_or(value, fallback):
    """A flag's value, or ``fallback`` (a default, or the scenario's
    daemon-posture key the flag overrides) when the flag was not given."""
    return value if value is not None else fallback


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import DEFAULT_TIME_SCALE, run_serve
    from .serve.edge import EdgeConfig

    spec = _resolve_spec(args)
    if args.drain_timeout < 0:
        raise ValueError(
            f"--drain-timeout must be >= 0, got {args.drain_timeout}"
        )
    return run_serve(
        spec,
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout,
        time_scale=_flag_or(args.time_scale, DEFAULT_TIME_SCALE),
        ring_capacity=args.ring_capacity,
        out_dir=args.out_dir,
        name=args.name,
        edge=EdgeConfig(
            rate=_flag_or(args.edge_rate, spec.edge_rate),
            burst=_flag_or(args.edge_burst, spec.edge_burst),
            max_live_sessions=_flag_or(
                args.max_live_sessions, spec.max_live_sessions
            ),
            max_pump_lag_s=args.max_pump_lag,
        ),
        wal_flush_every=_flag_or(args.wal_flush, spec.wal_flush),
    )


def _cmd_slam(args: argparse.Namespace) -> int:
    from .serve.slam import (
        SlamConfig,
        markdown_table,
        run_slam,
        write_slam_outputs,
    )

    spec = _resolve_spec(args)
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
    report = run_slam(spec, config)
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


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a daemon's log: a drained one against its fingerprints, a
    killed daemon's WAL, which carries none, against a second replay."""
    from .serve.log import read_log, verify_log

    log = read_log(args.log)
    ok, before, after = verify_log(log)
    partial = log["fingerprints"] is None
    if not ok:
        if partial:
            names = ("first ", "second")
            mismatch = ("two executions of the flushed WAL prefix diverged — "
                        "the log is not deterministic")
        else:
            names = ("recorded", "replayed")
            mismatch = "the in-process replay diverged from the live run"
        print(f"repro replay: REPLAY MISMATCH: {mismatch}", file=sys.stderr)
        print(f"  {names[0]}: {before}", file=sys.stderr)
        print(f"  {names[1]}: {after}", file=sys.stderr)
        return EXIT_FAILURE
    kinds = [op.get("op") for op in log["ops"]]
    counts = f"{kinds.count('submit')} submissions, {kinds.count('cancel')} cancels"
    if "retire" in kinds:  # absent from logs older than the retire op
        counts += f", {kinds.count('retire')} retires"
    scored = f"{len(after['sessions'])} scored sessions"
    frames = (f"(sent={after['frames_sent']}, "
              f"collided={after['frames_collided']}, "
              f"delivered={after['frames_delivered']})")
    if partial:
        tail = (
            " (an unflushed tail line was truncated by the crash, as designed)"
            if log["torn"]
            else ""
        )
        print(f"partial replay ok: flushed prefix of {counts} replays "
              f"bit-identically — {scored}, frame counters {frames}{tail}")
    else:
        print(f"replay ok: {counts} — {scored} and frame counters {frames} "
              f"reproduced bit-identically")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    if args.number == 5:
        for trace in run_fig5(args.scale):
            print(f"\nFigure 5 — {trace.mode} "
                  f"(warmup {trace.warmup_periods} periods)")
            print(render_fidelity_strip(trace.series))
        return 0
    runner, title, headers, row = _FIGURE_TABLES[args.number]
    print(format_table(title, headers, [row(r) for r in runner(args.scale)]))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import pstats

    from .experiments.perf import DEFAULT_PROFILE_PATH, profile_scenario

    out_path = args.out or DEFAULT_PROFILE_PATH
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    # Validate the sort key BEFORE the (multi-second to multi-minute)
    # profiled run, so a typo fails instantly.
    if args.sort not in pstats.Stats().get_sort_arg_defs():
        raise ValueError(
            f"invalid --sort key {args.sort!r} (try tottime, cumtime, ncalls)"
        )
    # An unknown scenario raises KeyError; a --duration the scenario's
    # config rejects (negative, shorter than one period) ValueError.
    stats = profile_scenario(
        args.scenario,
        scale=args.scale,
        duration_s=args.duration,
        out_path=out_path,
    )
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    print(f"raw profile written to {out_path} "
          f"(inspect with python -m pstats {out_path})")
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
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
    from .core.query import QuerySpec
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
    # the default request's query area at the session start
    area = QuerySpec(lifetime_s=config.duration_s).area_at(path.position_at(0.0))
    print(render_field(network, width=args.width, path=path, area=area,
                       user=path.position_at(0.0)))
    print(f"\nbackbone: {len(network.active_nodes)}/{config.network.n_nodes} nodes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: handlers raise on bad input (an unknown
    scenario, a spec or flag that fails validation, an unreadable file the
    user named) and this prints ``repro <command>: error: ...`` and exits
    with the usage status; a typed :class:`WireError` carries its own.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except WireError as exc:
        code, message = exc.exit_code, exc
    except (KeyError, OSError, TypeError, ValueError) as exc:
        # str() of a KeyError is the repr of its argument; the registry
        # misses that get here carry a sentence as that argument.
        code = EXIT_USAGE
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
