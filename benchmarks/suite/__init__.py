"""The repo's one benchmark suite (see README.md in this directory).

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
is the contract entry point named in ``BENCHMARK.json``: one workload,
one run, one JSON line.  ``python -m benchmarks.suite run|probes|compare``
is the human front end that repeats it, aggregates and compares.
"""
