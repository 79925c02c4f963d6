"""Offline benchmark for the `sain` library: seeded synthetic workloads, an
untraced end-to-end run and a traced per-layer run. See README.md."""
