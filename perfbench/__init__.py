"""Benchmark of lieforge: workloads, drift-corrected timing, tracing and oracles."""
