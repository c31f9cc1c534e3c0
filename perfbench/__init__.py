"""ringcasimir benchmark: seeded workloads, oracles and a span recorder."""
