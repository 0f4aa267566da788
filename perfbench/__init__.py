"""Benchmark of the tricurves CLI chains; see run.py."""
