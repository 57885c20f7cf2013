"""Benchmark of the frachp solver; see README.md in this directory."""
