"""Benchmark of redcalc: seeded request workloads, checks, tracing, compare."""
