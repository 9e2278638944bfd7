# MobiQuery reproduction — common developer entry points.
#
#   make test            tier-1 unit/integration tests + the bench contract
#   make bench-smoke     the three CI benchmark smokes (fig4, multi-user
#                        scaling, fig8 power)
#   make bench           every benchmark (regenerates all paper figures, slow)
#   make ledger          ten seeds of every bench/ workload into
#                        bench/out/ledger.json (input of `bench compare`)
#   make bench-ab        alternating parent/change pairs of bench/ workloads
#                        against one clone of a commit, an acceptance table
#                        per workload (REF=<commit> WORKLOAD="<name> ..."
#                        [PAIRS=10] [LAYERS=1]: then the per-layer metrics
#                        that moved, from one traced run per side)
#   make loc             raw and `tokenize` code lines of src/, per package
#                        and total ([REF=<commit>]: and the delta against it,
#                        the two numbers a CHANGES.md entry reports)
#   make census          defaulted parameters and dataclass fields under src/
#                        that no file outside tests/ sets (not a gate)
#   make profile         cProfile one canonical scenario (SCENARIO=..., ARGS=...)
#   make examples-smoke  run every examples/ script at quick scale
#   make sweep-smoke     quick adversarial robustness sweep (invariant gate)
#   make fuzz-smoke      seeded randomized scenarios through the invariants
#   make serve-smoke     daemon + slam + SIGTERM drain + bit-identical replay
#   make soak-smoke      2 000 short sessions through a stepped daemon:
#                        world, cost per session and registered mobiles
#                        flat after warm-up, retained KB per session under
#                        its bound, replay bit-identical (~20 s)
#   make chaos-smoke     wire-fault daemon + retrying slam + SIGKILL +
#                        bit-identical partial WAL replay
#   make approx-smoke    uav-survey at coarse + exact accuracy, then the
#                        accuracy/energy frontier gate
#   make drills          the blackout- and chaos-recovery benchmark drills
#   make dense48-pin     the 600-node world's seed-1 fingerprint against
#                        bench/pins.json
#   make check           what CI runs on every push, every job's steps

PY ?= python

#: quick-scale duration (seconds) the examples smoke runs at
EXAMPLE_SMOKE_DURATION ?= 30

#: default scenario for `make profile`
SCENARIO ?= scale_16users

#: port the serve smoke binds (ephemeral-ish, off the default 8600)
SERVE_SMOKE_PORT ?= 8641

#: port the chaos smoke binds (distinct so both smokes can run in parallel)
CHAOS_SMOKE_PORT ?= 8652

#: pairs `make bench-ab` runs (seeds 1..PAIRS)
PAIRS ?= 10

.PHONY: test bench bench-smoke ledger bench-ab loc census profile examples-smoke sweep-smoke fuzz-smoke serve-smoke soak-smoke chaos-smoke approx-smoke drills dense48-pin check

test:
	PYTHONPATH=src $(PY) -m pytest -q tests/ bench/

examples-smoke:
	@for script in examples/*.py; do \
		echo "== $$script (REPRO_EXAMPLE_DURATION=$(EXAMPLE_SMOKE_DURATION))"; \
		PYTHONPATH=src REPRO_EXAMPLE_DURATION=$(EXAMPLE_SMOKE_DURATION) \
			$(PY) $$script > /dev/null || exit 1; \
	done; echo "all examples OK"

bench-smoke:
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/test_fig4_success_ratio.py benchmarks/test_multiuser_scaling.py benchmarks/test_fig8_power.py

bench:
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/

# The perf ledger (bench/README.md): every workload at ten seeds, one
# fresh process each.  Compare two of these with
#   python3 -m bench compare A.json B.json
ledger:
	python3 -m bench --runs 10 --out bench/out/ledger.json

# A/B a working tree against its parent the way CHANGES.md reports it:
#   make bench-ab REF=HEAD~1 WORKLOAD="churn-mix dense48"
# clones REF into a temporary directory and alternates 15-second runs of
# each workload in turn between the clone and this checkout.
bench-ab:
	@test -n "$(REF)" -a -n "$(WORKLOAD)" || \
		{ echo 'usage: make bench-ab REF=<commit> WORKLOAD="<name> ..." [PAIRS=10] [LAYERS=1]'; exit 2; }
	python3 scripts/ab_pairs.py --ref $(REF) --workload $(WORKLOAD) --pairs $(PAIRS) $(if $(LAYERS),--layers)

# What a deletion is reported with: lines of src/ raw and as code (no
# comments, docstrings or blanks), and against REF through `git show`.
loc:
	python3 scripts/loc.py $(if $(REF),--ref $(REF))

# The settable-value census (scripts/census.py): each defaulted parameter
# and dataclass field under src/ that nothing outside tests/ sets, with
# its setters; the last line is the count a diet reports before and after.
census:
	python3 scripts/census.py

# A quick adversarial sweep over the blackout drill: a 2x2x2 grid
# (users x shards x fault intensity) with every metamorphic invariant
# enforced — fault-monotonicity, density-monotonicity, admission-no-harm,
# shards1-identity (faults included), churn-no-leak; the grid holds one
# density and one admission policy, so those two have nothing to compare
# here.  Exits 3 naming the invariant and the row on any violation; the
# report lands in SWEEP_robustness-smoke.json.
sweep-smoke:
	PYTHONPATH=src $(PY) -m repro sweep blackout-recovery-16users \
		--duration 36 --users 2,4 --shards 1,2 --intensities 0,1 \
		--arrivals staggered --name robustness-smoke

# Seeded randomized scenarios (strictly bounded draws) through the same
# metamorphic invariants the sweep enforces.  Same seed, same cases —
# any violation replays with `repro fuzz --seed 0 --runs 2`.  The report
# lands in FUZZ_fuzz-smoke.json.
fuzz-smoke:
	PYTHONPATH=src $(PY) -m repro fuzz paper-default --runs 2 --seed 0 \
		--name fuzz-smoke

# The serving-layer smoke: boot the daemon, slam it with the rush-hour
# burst from 4 concurrent clients, drain it with SIGTERM, then prove the
# drained log replays bit-identically, and so does the WAL it was
# rendered from, whose ops must equal the JSON's — and that the daemon
# retired every session that ran out (one `retire` op each) and had no
# proxy left on a channel once drained — and that the slam kept its
# connections alive: at most two per client identity, one for its
# submit loop and one for its stream thread.  Artifacts land in
# SERVE_serve-smoke.json + SERVE_serve-smoke.wal + SLAM_serve-smoke.json.
serve-smoke:
	@rm -f SERVE_serve-smoke.json SERVE_serve-smoke.wal SLAM_serve-smoke.json; \
	PYTHONPATH=src $(PY) -m repro serve rush-hour-burst --duration 30 \
		--port $(SERVE_SMOKE_PORT) --time-scale 6 --drain-timeout 120 \
		--name serve-smoke & \
	SERVE_PID=$$!; \
	ready=0; \
	for i in $$(seq 1 100); do \
		if $(PY) -c "import urllib.request; urllib.request.urlopen('http://127.0.0.1:$(SERVE_SMOKE_PORT)/healthz', timeout=1)" 2>/dev/null; then \
			ready=1; break; \
		fi; \
		sleep 0.2; \
	done; \
	if [ $$ready -ne 1 ]; then \
		echo "serve-smoke: daemon never answered /healthz"; \
		kill $$SERVE_PID 2>/dev/null; exit 1; \
	fi; \
	PYTHONPATH=src $(PY) -m repro slam rush-hour-burst --sim-duration 30 \
		--url http://127.0.0.1:$(SERVE_SMOKE_PORT) --rate 16 --clients 4 \
		--duration 90 --name serve-smoke \
		|| { kill $$SERVE_PID 2>/dev/null; exit 1; }; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID || exit 1; \
	PYTHONPATH=src $(PY) -m repro replay SERVE_serve-smoke.json || exit 1; \
	PYTHONPATH=src $(PY) -m repro replay SERVE_serve-smoke.wal || exit 1; \
	PYTHONPATH=src $(PY) -c "import json; from repro.serve.log import read_log; w = read_log('SERVE_serve-smoke.wal'); d = json.load(open('SERVE_serve-smoke.json')); assert not w['torn'] and w['scenario'] == d['scenario'], 'WAL header or tail'; assert w['ops'] == d['ops'], 'the WAL and the JSON carry different ops'; print('serve-smoke: the WAL and the JSON carry the same %d ops' % len(d['ops']))" || exit 1; \
	$(PY) -c "import json; d = json.load(open('SERVE_serve-smoke.json')); s = d['summary']; retires = [op['op'] for op in d['ops']].count('retire'); done = s['sessions']['admitted'] - s['sessions']['cancelled']; assert retires == done > 0, (retires, done); assert s['registered_mobiles'] == 0, s['registered_mobiles']; print('serve-smoke: %d retire ops, one per completed session; 0 registered mobiles after drain' % retires)"; \
	$(PY) -c "import json; h = json.load(open('SLAM_serve-smoke.json'))['http']; assert max(h['connections_per_client']) <= 2, h; print('serve-smoke: %d requests over %d connections (%s per client)' % (h['requests'], h['connections'], h['connections_per_client']))"

# The long form of tests/test_serve_steady_state.py (scripts/soak.py):
# 2 000 eight-second sessions through a stepped in-process daemon;
# fails if the world, the wall time per 100 sessions or the registered
# mobiles grow after warm-up, if a retired session retains more than
# RSS_KB_PER_SESSION, or if the log does not replay.  Artifacts:
# SERVE_soak-smoke.json + SERVE_soak-smoke.wal.
soak-smoke:
	PYTHONPATH=src $(PY) scripts/soak.py

# The chaos drill as a shell pipeline: a daemon whose wire actively
# fails (resets, injected 5xx, truncated bodies, delays), a slam client
# that absorbs it all with bounded retries + idempotency keys, a SIGKILL
# mid-flight (no drain, no report), and the proof that the crash-safe
# WAL's flushed prefix still replays bit-identically.  Artifacts:
# SERVE_chaos-smoke.scenario.json (the scenario both processes read) +
# SLAM_chaos-smoke.json + SERVE_chaos-smoke.wal.
CHAOS_SCENARIO = SERVE_chaos-smoke.scenario.json
chaos-smoke:
	@rm -f SERVE_chaos-smoke.wal SLAM_chaos-smoke.json $(CHAOS_SCENARIO); \
	PYTHONPATH=src $(PY) -c "import json; from repro.api.scenarios import get_scenario; spec = get_scenario('rush-hour-burst').with_overrides(duration_s=24.0, faults={'wire': {'reset_prob': 0.06, 'delay_prob': 0.1, 'delay_s': 0.05, 'error_prob': 0.06, 'truncate_prob': 0.06}}); json.dump(spec.to_dict(), open('$(CHAOS_SCENARIO)', 'w'))"; \
	PYTHONPATH=src $(PY) -m repro serve --file $(CHAOS_SCENARIO) \
		--port $(CHAOS_SMOKE_PORT) --time-scale 4 --wal-flush 2 \
		--name chaos-smoke & \
	SERVE_PID=$$!; \
	ready=0; \
	for i in $$(seq 1 150); do \
		if $(PY) -c "import urllib.request; urllib.request.urlopen('http://127.0.0.1:$(CHAOS_SMOKE_PORT)/healthz', timeout=1)" 2>/dev/null; then \
			ready=1; break; \
		fi; \
		sleep 0.2; \
	done; \
	if [ $$ready -ne 1 ]; then \
		echo "chaos-smoke: daemon never answered /healthz"; \
		kill $$SERVE_PID 2>/dev/null; exit 1; \
	fi; \
	PYTHONPATH=src $(PY) -m repro slam --file $(CHAOS_SCENARIO) \
		--url http://127.0.0.1:$(CHAOS_SMOKE_PORT) --rate 16 --clients 4 \
		--duration 90 --retries 8 --name chaos-smoke \
		|| { kill -KILL $$SERVE_PID 2>/dev/null; exit 1; }; \
	kill -KILL $$SERVE_PID; \
	wait $$SERVE_PID 2>/dev/null; \
	PYTHONPATH=src $(PY) -m repro replay SERVE_chaos-smoke.wal

# The approximate-query smoke: run the pinned frontier scenario at both
# accuracy levels (coarse answers from in-network summaries, exact runs
# the full collection protocol), then gate the frontier — coarse must
# cut frames >= 2x while every answer stays within its declared
# error_bound of the exact twin's.
approx-smoke:
	PYTHONPATH=src $(PY) -m repro scenario uav-survey --accuracy coarse
	PYTHONPATH=src $(PY) -m repro scenario uav-survey --accuracy exact
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/test_approx_frontier.py

# One-command cProfile of a canonical scenario (the ROADMAP recipe):
#   make profile SCENARIO=fig4_jit ARGS="--sort cumtime --top 40"
profile:
	PYTHONPATH=src $(PY) -m repro profile $(SCENARIO) $(ARGS)

# The benchmark drills CI runs beside the smokes: the blackout-recovery
# gate (5 pp post-recovery) and the chaos-recovery gate (retry
# completeness, dedup, WAL).
drills:
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/test_blackout_recovery.py benchmarks/test_chaos_recovery.py

# No tier-1 pin covers a 600-node field: dense48 at seed 1 (~10 s) exits 1
# if its seed-1 fingerprint moved against bench/pins.json.
dense48-pin:
	python3 -m bench --workload dense48 --seed 1 --seconds 1 --trace 0

check: test dense48-pin bench-smoke examples-smoke drills sweep-smoke fuzz-smoke serve-smoke soak-smoke chaos-smoke approx-smoke
