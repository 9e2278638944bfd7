"""Command line of the benchmark.

One run (the ``BENCHMARK.json`` contract; the last stdout line is the result)::

    python3 -m bench --workload fleet16 --seed 3 --seconds 12 --trace 0

Everything (each workload in its own fresh process, results in ``bench/out``)::

    python3 -m bench [--trace] [--runs N] [--seed S] [--verify]
    python3 -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import compare as compare_mod
from .workloads import BATCH, NAMES, SERVE

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def host_record(seed: int) -> Dict:
    """Where and on what the numbers were taken."""
    from repro.net.vectorized import accelerator_name

    commit = None  # the driver's checkout is plain files, not a repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:  # no git on this host
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    loadavg = os.getloadavg()[0]
    if loadavg > 0.5:
        print(
            f"bench: warning: 1-min load average is {loadavg:.2f}; "
            f"timings will be noisy",
            file=sys.stderr,
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "accelerator": accelerator_name(),
        "REPRO_VECTORIZE": os.environ.get("REPRO_VECTORIZE"),
        "platform": platform.platform(),
        "loadavg_1min": loadavg,
        "git_commit": commit,
        "seed": seed,
    }


def run_one(args: argparse.Namespace) -> int:
    """One run of one workload in this process; prints the result line."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"bench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from . import batch, serve

    bench = load_benchmark()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}
    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_record(args.seed)
    started = time.perf_counter()
    if args.workload == SERVE:
        if args.trace:
            result = serve.run_traced(args.seed, args.seconds, OUT_DIR)
        else:
            result = serve.run_untraced(args.seed, args.seconds, OUT_DIR, args.verify)
    else:
        result = batch.run_batch(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            smoke=args.smoke,
            update_pins=args.update_pins,
            out_dir=OUT_DIR,
        )
        if args.trace:  # no daemon in a batch run
            for name in units:
                if name.startswith("serve."):
                    result["metrics"].setdefault(name, 0.0)
    host["wall_s"] = time.perf_counter() - started

    metrics = result["metrics"]
    problems = list(result["problems"])
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json {group}: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    samples = result["details"].get("samples", {})
    for name in units:
        if name in metrics:
            count = f"  n={samples[name]}" if name in samples else ""
            print(f"{args.workload:12s} {name:36s} {metrics[name]:14.6g} {units[name]}{count}")
    for note in result["details"].get("pin_notes", []):
        print(f"bench: {args.workload}: note: {note}", file=sys.stderr)
    for problem in problems:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    record = dict(
        line,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=int(args.trace),
        smoke=args.smoke,
        host=host,
        details=result["details"],
        problems=problems,
    )
    record_path = os.path.join(OUT_DIR, f"run_{args.workload}_trace{int(args.trace)}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(line))
    return 0 if not problems else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one fresh process per run; writes one results file."""
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = [SERVE] if args.verify else [w["name"] for w in bench["workloads"]]
    if args.update_pins:
        workloads = list(BATCH)
    runs: List[Dict] = []
    status = 0
    # a workload's runs are adjacent in time, so the host's slow drift moves
    # them together and the spread of a set reads the benchmark, not the hour
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            for trace in ([1] if args.update_pins else [0, 1] if args.trace else [0]):
                command = [
                    sys.executable, "-m", "bench",
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(trace),
                ]
                for flag in ("smoke", "verify", "update_pins"):
                    if getattr(args, flag):
                        command.append("--" + flag.replace("_", "-"))
                done = subprocess.run(command, cwd=ROOT)
                status = status or done.returncode
                record = os.path.join(OUT_DIR, f"run_{workload}_trace{trace}.json")
                with open(record, "r", encoding="utf-8") as fh:
                    runs.append(json.load(fh))
    out = args.out or os.path.join(OUT_DIR, f"results_{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=2)
        fh.write("\n")
    print(f"bench: {len(runs)} runs -> {out}" + ("" if status == 0 else "  (FAILED)"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_mod.main(argv[1:], load_benchmark())
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=NAMES, help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="the traced pass: per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, no pins")
    parser.add_argument(
        "--verify", action="store_true",
        help="serve-paced only, and `repro replay` its log (untimed check)",
    )
    parser.add_argument(
        "--update-pins", action="store_true",
        help="re-record bench/pins.json from traced seed-1 runs",
    )
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all mode)")
    parser.add_argument("--out", default=None, help="results file (all mode)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
