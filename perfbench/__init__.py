"""Benchmark of the checkpointed extraction pipeline (see README.md)."""
