"""The repo's one benchmark: five named workloads, end-to-end and per-layer.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is one
run (the contract ``BENCHMARK.json`` describes); ``PYTHONPATH=src python -m
bench`` runs every workload in its own fresh process and prints every metric
by name.  See ``bench/README.md`` for why each workload exists.

The package drives the system only through its public entry points and
changes nothing under ``src/``.
"""
