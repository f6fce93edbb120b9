"""Benchmark harness for diracline: workloads, checks and an outside-in tracer.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout; see ``perfbench/README.md``.
"""
