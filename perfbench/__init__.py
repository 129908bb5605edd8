"""Benchmark harness for tspkit; run ``python3 perfbench/run.py --help``."""
