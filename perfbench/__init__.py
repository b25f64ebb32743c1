"""Benchmark of the ``nqh`` command: seeded workloads, output checks and a
per-module traced run.  Run it with ``python3 perfbench/run.py --help``."""
