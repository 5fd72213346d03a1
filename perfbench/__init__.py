"""Benchmark of esap end to end and per layer; entry point: run.py."""
