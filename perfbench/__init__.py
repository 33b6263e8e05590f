"""Benchmark of the ontoshape file-to-graph pipeline; run it with ``python3 perfbench/run.py``."""
