"""The serving workload: a paced ``repro serve`` daemon under open-loop load.

Untraced, the daemon is a child process (``python -m repro serve --file
<spec> --time-scale 8``) and this process is the one client: thread A
submits short sessions open-loop (one at a uniform instant of every slot,
each timed from the instant it was *due*), thread B runs back-to-back probe
sessions and long-polls every outcome.  Traced, the same load runs against an in-process ``ServeApp``
whose instances are wrapped with spans, with ``cProfile`` around every
second pump slice and every other backend call.
"""

from __future__ import annotations

import cProfile
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from .stats import percentile
from .trace import LAYERS, Spans, bucket_profile
from .workloads import (
    SERVE,
    TIME_SCALE,
    probe_payload,
    serve_arrivals,
    serve_spec,
)

#: daemon spawns per untraced run (the last one serves the load)
SETUP_SAMPLES = 3
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class _Daemon:
    """One ``repro serve`` child: spawn, wait healthy, SIGTERM, reap."""

    def __init__(self, spec_path: str, out_dir: str, name: str) -> None:
        from repro.serve.client import ServeClient

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--file", spec_path,
                "--time-scale", f"{TIME_SCALE:g}",
                "--port", "0",
                "--out-dir", out_dir,
                "--name", name,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            if match is None:
                raise RuntimeError(
                    f"repro serve printed no address: {banner!r} "
                    f"{self.proc.stderr.read()!r}"
                )
            self.url = match.group(0)
            health = ServeClient(self.url, "bench-health")
            while not health.healthz().get("ok"):
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, self.stderr = self.proc.communicate(timeout=90.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class _Load:
    """The two client threads and everything they observed."""

    def __init__(self, url: str, seed: int, seconds: float) -> None:
        from repro.serve.client import ServeClient

        self.arrivals = serve_arrivals(seed, seconds)
        self.submitter = ServeClient(url, "bench-open")
        self.prober = ServeClient(url, "bench-probe")
        self.submit_ms: List[float] = []
        self.late_ms: List[float] = []
        #: per probe outcome, receive wall minus deadline / TIME_SCALE: the
        #: outcome's lag plus the (unknown, constant) offset of the two clocks
        self.behind_s: List[float] = []
        self.gap_ms: List[float] = []
        #: open-loop sessions: (session id, num_periods)
        self.sessions: List[Tuple[int, int]] = []
        #: sessions each thread tried to open (one writer per counter)
        self.opened = {"open": 0, "probe": 0}
        #: period outcomes received, over every session, and the on-time ones
        self.periods = 0
        self.on_time = 0
        self.errors: List[str] = []
        self.wall_s = 0.0
        self._stop = threading.Event()

    @property
    def attempted(self) -> int:
        return sum(self.opened.values())

    def _submit(self, who: str, payload: Dict) -> Optional[Dict]:
        client = self.submitter if who == "open" else self.prober
        self.opened[who] += 1
        try:
            status, resp = client.submit(payload)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            self.errors.append(f"submit: {type(exc).__name__}: {exc}")
            return None
        if status != 201:
            self.errors.append(f"submit: HTTP {status}: {resp}")
            return None
        return resp

    def _open_loop(self) -> None:
        start = time.perf_counter()
        for offset, payload in self.arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.late_ms.append((time.perf_counter() - due) * 1e3)
            resp = self._submit("open", payload)
            self.submit_ms.append((time.perf_counter() - due) * 1e3)
            if resp is not None:
                self.sessions.append((resp["session"], resp["num_periods"]))
        self._stop.set()

    def _probe(self) -> None:
        """Back-to-back probe sessions; the one in flight at the end is cancelled."""
        while not self._stop.is_set():
            resp = self._submit("probe", probe_payload())
            if resp is None:
                return
            sid, after, last = resp["session"], 0, None
            try:
                while True:
                    reply = self.prober.results(sid, after=after, wait_s=2.0)
                    now = time.perf_counter()
                    if "error" in reply or reply.get("missed"):
                        self.errors.append(f"probe {sid}: {reply}")
                        break
                    for outcome in reply["outcomes"]:
                        self.on_time += bool(outcome["on_time"])
                        self.behind_s.append(now - outcome["deadline"] / TIME_SCALE)
                        if last is not None:
                            self.gap_ms.append((now - last) * 1e3)
                        last = now
                        after = outcome["k"]
                    self.periods += len(reply["outcomes"])
                    if reply["done"]:
                        if after != resp["num_periods"] and not self._stop.is_set():
                            self.errors.append(
                                f"probe {sid}: done after {after} of "
                                f"{resp['num_periods']} periods"
                            )
                        break
                    if self._stop.is_set():
                        self.prober.cancel(sid)
            except Exception as exc:  # noqa: BLE001
                self.errors.append(f"probe {sid}: {type(exc).__name__}: {exc}")
                return

    def _collect(self) -> None:
        """One pass over the open-loop sessions: every period, none missed."""
        for sid, num_periods in self.sessions:
            outcomes: List[Dict] = []
            try:
                while True:
                    reply = self.submitter.results(
                        sid, after=len(outcomes), wait_s=5.0
                    )
                    if "error" in reply or reply.get("missed"):
                        self.errors.append(f"session {sid}: {reply}")
                        break
                    outcomes += reply["outcomes"]
                    if reply["done"]:
                        break
            except Exception as exc:  # noqa: BLE001
                self.errors.append(f"session {sid}: {type(exc).__name__}: {exc}")
                continue
            self.periods += len(outcomes)
            self.on_time += sum(bool(o["on_time"]) for o in outcomes)
            if len(outcomes) != num_periods:
                self.errors.append(
                    f"session {sid}: {len(outcomes)} outcomes, {num_periods} due"
                )

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._open_loop, name="bench-open"),
            threading.Thread(target=self._probe, name="bench-probe"),
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - start
        self._collect()

    def client_details(self) -> Dict:
        # Delay of every probe outcome beyond the run's best case.  A paced
        # daemon maps simulated to wall time once, when its first session
        # arrives, and the load keeps it from idling until the end, so every
        # ``behind_s`` carries the same clock offset and the smallest one
        # stands for it: no clock agreement needed.
        best = min(self.behind_s, default=0.0)
        lag_ms = [(b - best) * 1e3 for b in self.behind_s]
        return {
            "samples": {
                "submit_p50_ms": len(self.submit_ms),
                "serve.client.lag_p50_ms": len(lag_ms),
                "serve.client.gap_p90_ms": len(self.gap_ms),
            },
            "late_p95_ms": percentile(self.late_ms, 95),
            "submit_p50_ms": percentile(self.submit_ms, 50),
            "submit_p90_ms": percentile(self.submit_ms, 90),
            "submit_p99_ms": percentile(self.submit_ms, 99),
            "lag_p50_ms": percentile(lag_ms, 50),
            "lag_p95_ms": percentile(lag_ms, 95),
            "gap_p90_ms": percentile(self.gap_ms, 90),
            "load_wall_s": self.wall_s,
            "errors": self.errors[:20],
        }


def _write_spec(seed: int, seconds: float, out_dir: str) -> Tuple[Dict, str]:
    spec = serve_spec(seed, seconds)
    path = os.path.join(out_dir, f"{SERVE}.spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return spec, path


def _check_log(log_path: str, load: _Load, problems: List[str]) -> None:
    """The daemon's own summary must agree: nothing leaked, nothing forced."""
    with open(log_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    if summary["leak_total"]:
        problems.append(f"leak census: {summary['leaks']}")
    if summary["sessions"]["submitted"] != load.attempted:
        problems.append(
            f"daemon saw {summary['sessions']['submitted']} submits, "
            f"client made {load.attempted}"
        )


def run_untraced(seed: int, seconds: float, out_dir: str, verify: bool) -> Dict:
    _, spec_path = _write_spec(seed, seconds, out_dir)
    problems: List[str] = []
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        spare = _Daemon(spec_path, out_dir, "setup")
        setups.append(spare.setup_s)
        if spare.stop() != 0:
            problems.append(f"idle daemon exited {spare.proc.returncode}")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    daemon = _Daemon(spec_path, out_dir, "bench")
    setups.append(daemon.setup_s)
    try:
        load = _Load(daemon.url, seed, seconds)
        load.run()
        stats = load.submitter.stats()
    except BaseException:
        daemon.kill()
        raise
    code = daemon.stop()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if code != 0:
        problems.append(f"daemon exited {code} after SIGTERM: {daemon.stderr.strip()}")
    log_path = os.path.join(out_dir, "SERVE_bench.json")
    if code == 0:
        _check_log(log_path, load, problems)
    if verify and code == 0:
        replay = subprocess.run(
            [sys.executable, "-m", "repro", "replay", log_path],
            env=_child_env(),
            capture_output=True,
            text=True,
        )
        if replay.returncode != 0:
            problems.append(
                f"repro replay exited {replay.returncode}: {replay.stderr.strip()}"
            )
    problems += load.errors

    pump = stats["server"]["pump"]
    details = load.client_details()
    metrics = {
        # spawns cannot be normalised to a host speed from here; noise on
        # this host only adds time, so the fastest of the few
        "setup_s": min(setups),
        "sim_s_per_busy_s": pump["sim_now"] / cpu_s,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "success_ratio": load.on_time / max(1, load.periods),
        "frames_per_period": stats["frames_sent"] / max(1, load.periods),
        "submit_p50_ms": details["submit_p50_ms"],
    }
    details["samples"].update({"setup_s": len(setups), "sim_s_per_busy_s": 1})
    details.update(
        {
            "setup_s": setups,
            "daemon_cpu_s": cpu_s,
            "sim_s_served": pump["sim_now"],
            "pump_busy_frac": pump["advance_wall_s"] / load.wall_s,
            "pump_slices": pump["slices"],
            "server_latency_ms": stats["server"]["latency_ms"],
            "replayed": bool(verify and code == 0),
        }
    )
    return {
        "metrics": metrics,
        "attempted": load.attempted,
        "failed": len(load.errors),
        "problems": problems,
        "details": details,
    }


class _Wrapper:
    """Spans (and, for the backend, the profiler) around instance methods."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.profile = cProfile.Profile()
        self._local = threading.local()
        self._slices = 0
        #: wall of pump slices, split by whether the profiler was on
        self.slice_s: Dict[bool, List[float]] = {True: [], False: []}
        #: frames sent / receptions delivered while the profiler was on
        self.profiled_frames = 0
        self.profiled_deliveries = 0
        #: (ring id, k) -> perf_counter at append
        self._appended: Dict[Tuple[int, int], float] = {}
        self.wake_ms: List[float] = []

    def _call(self, name: str, inner: Callable, profiled: bool, args, kwargs):
        """Run ``inner`` inside a span (child of this thread's open span)."""
        parent = getattr(self._local, "span", None)
        span = self.spans.begin(name, parent)
        self._local.span = span
        if profiled:
            self.profile.enable()
        try:
            return inner(*args, **kwargs)
        finally:
            if profiled:
                self.profile.disable()
            self.spans.end(span)
            self._local.span = parent

    def wrap(self, obj: object, attr: str, name: str, profiled: bool = False) -> None:
        inner: Callable = getattr(obj, attr)
        setattr(
            obj, attr, lambda *a, **kw: self._call(name, inner, profiled, a, kw)
        )

    def wrap_slices(self, backend) -> None:
        """``backend.advance``: the profiler sees every second pump slice.

        The same pass then yields profiled and plain slice walls on identical
        load — their ratio is the tracing overhead — and the frames counted
        over the profiled slices are the base of the per-frame call ratios.
        """
        inner: Callable = backend.advance
        stats: Callable = backend.stats

        def advance(*args, **kwargs):
            self._slices += 1
            profiled = self._slices % 2 == 0
            before = stats() if profiled else None
            start = time.perf_counter()
            try:
                return self._call("backend.advance", inner, profiled, args, kwargs)
            finally:
                self.slice_s[profiled].append(time.perf_counter() - start)
                if before is not None:
                    after = stats()
                    self.profiled_frames += after.frames_sent - before.frames_sent
                    self.profiled_deliveries += (
                        after.frames_delivered - before.frames_delivered
                    )

        backend.advance = advance

    def wrap_ring(self, ring: object) -> None:
        append, read = ring.append, ring.read  # type: ignore[attr-defined]
        key = id(ring)

        def traced_append(item: Dict) -> None:
            self._appended[(key, item["k"])] = time.perf_counter()
            append(item)

        def traced_read(after_k: int = 0, wait_s: float = 0.0):
            asked = time.perf_counter()
            items, missed, done = read(after_k=after_k, wait_s=wait_s)
            now = time.perf_counter()
            for item in items:
                at = self._appended.get((key, item["k"]))
                if at is not None and at > asked:  # the reader was waiting
                    self.wake_ms.append((now - at) * 1e3)
            return items, missed, done

        ring.append, ring.read = traced_append, traced_read  # type: ignore[attr-defined]


def run_traced(seed: int, seconds: float, out_dir: str) -> Dict:
    from repro.api.scenarios import ScenarioSpec
    from repro.serve import ServeApp, make_server

    spec, _ = _write_spec(seed, seconds, out_dir)
    app = ServeApp(
        ScenarioSpec.from_dict(spec),
        time_scale=TIME_SCALE,
        wal_path=os.path.join(out_dir, "SERVE_traced.wal"),
    )
    tracer = _Wrapper()
    tracer.wrap(app, "results", "serve.results")
    tracer.wrap(app, "cancel", "serve.cancel")
    for verb in ("submit", "cancel", "close"):
        tracer.wrap(app.backend, verb, f"backend.{verb}", profiled=True)
    tracer.wrap_slices(app.backend)
    tracer.wrap(app.log, "record_submit", "log.record_submit")
    tracer.wrap(app, "submit", "serve.submit")
    traced_submit = app.submit

    def submit_and_wrap_ring(*args, **kwargs):
        resp = traced_submit(*args, **kwargs)
        tracer.wrap_ring(app.sessions[resp["session"]].ring)
        return resp

    app.submit = submit_and_wrap_ring  # type: ignore[method-assign]

    server = make_server(app, port=0)
    app.start()
    http = threading.Thread(target=server.serve_forever, name="bench-http")
    http.start()
    try:
        load = _Load(f"http://127.0.0.1:{server.server_address[1]}", seed, seconds)
        load.run()
        stats = app.stats_payload()
        app.begin_drain()
        drained = app.wait_drained(30.0)
        if not drained:
            app.cancel_remaining()
        summary = app.finish()
        app.write_log(out_dir=out_dir, name="traced")
    finally:
        server.shutdown()
        server.server_close()
        http.join()

    problems = list(load.errors)
    if not drained:
        problems.append("in-process daemon did not drain in 30 s")
    if summary["leak_total"]:
        problems.append(f"leak census: {summary['leaks']}")

    spans = tracer.spans
    by_id = {s["id"]: s for s in spans.spans}
    lock_wait_ms = [
        (s["start"] - by_id[s["parent"]]["start"]) * 1e3
        for s in spans.spans
        if s["name"] == "backend.submit" and s["parent"] is not None
    ]
    walls = {
        verb: spans.durations(f"backend.{verb}")
        for verb in ("submit", "advance", "cancel", "close")
    }
    backend_s = sum(sum(v) for v in walls.values())
    control_s = backend_s - sum(walls["advance"])
    self_s, calls, named = bucket_profile(tracer.profile)
    counters = summary["stats"]
    frames = max(1, counters["frames_sent"])
    pump = stats["server"]["pump"]
    latency = stats["server"]["latency_ms"]
    edge = stats["server"]["edge"]
    client = load.client_details()
    on, off = tracer.slice_s[True], tracer.slice_s[False]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    metrics.update(
        {
            "net.channel.listeners_per_frame": counters["frames_delivered"] / frames,
            "net.channel.collided_frac": counters["frames_collided"]
            / max(1, counters["frames_collided"] + counters["frames_delivered"]),
            # the profiler saw every second slice: ratios over what it saw
            "mobility.position_at_per_frame": named["position_at"]
            / max(1, tracer.profiled_frames),
            "net.mac.on_frame_per_delivery": named["on_frame"]
            / max(1, tracer.profiled_deliveries),
            "sim.kernel.events_per_frame": counters["events_executed"] / frames,
            "api.service.submit.mean_us": 1e6 * mean(walls["submit"]),
            "api.service.cancel.mean_us": 1e6 * mean(walls["cancel"]),
            "api.service.advance.busy_s": sum(walls["advance"]),
            "api.service.close.busy_s": sum(walls["close"]),
            "api.service.control_frac": control_s / backend_s if backend_s else 0.0,
            "api.admission.rejected_frac": counters["rejected"]
            / max(1, counters["submitted"]),
            "trace.overhead_x": mean(on) / mean(off) if off and on else 0.0,
            "serve.daemon.pump.busy_frac": pump["advance_wall_s"] / load.wall_s,
            "serve.daemon.pump.slice_p50_ms": 1e3 * percentile(off or on or [0.0], 50),
            "serve.daemon.pump.slices": pump["slices"],
            "serve.daemon.post_sessions.p50_ms": latency["POST /sessions"]["p50"],
            "serve.daemon.get_results.p50_ms": latency["GET /sessions/{id}/results"][
                "p50"
            ],
            "serve.daemon.submit.wait_p90_ms": percentile(lock_wait_ms or [0.0], 90),
            "serve.log.record.mean_us": 1e6
            * mean(spans.durations("log.record_submit")),
            "serve.ring.read.wake_p50_ms": percentile(tracer.wake_ms or [0.0], 50),
            "serve.edge.shed": edge["rate_limited"] + edge["overloaded"],
            "serve.client.late_p95_ms": client["late_p95_ms"],
            "serve.client.submit_p90_ms": client["submit_p90_ms"],
            "serve.client.submit_p99_ms": client["submit_p99_ms"],
            "serve.client.lag_p50_ms": client["lag_p50_ms"],
            "serve.client.lag_p95_ms": client["lag_p95_ms"],
            "serve.client.gap_p90_ms": client["gap_p90_ms"],
        }
    )
    spans.write(os.path.join(out_dir, f"trace_{SERVE}.json"))
    client["samples"].update(
        {
            "serve.daemon.submit.wait_p90_ms": len(lock_wait_ms),
            "serve.ring.read.wake_p50_ms": len(tracer.wake_ms),
            "serve.daemon.pump.slice_p50_ms": len(off),
        }
    )
    return {
        "metrics": metrics,
        "attempted": load.attempted,
        "failed": len(load.errors),
        "problems": problems,
        "details": client,
    }
