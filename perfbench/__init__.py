"""Benchmark for smoothbench: experiment-mix workloads run in fresh child
processes, an output check against stored reference rows, and an
outside-in tracer for per-layer numbers. Entry point: perfbench/run.py."""
