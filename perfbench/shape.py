"""Workload sizes shared by the coordinator and the processes it starts.

Every chunk of a workload does exactly this much timed work, so the
pooled samples of a run do not depend on how many chunks fit in it.
"""

# Chunks are kept short so that a run sets up several times: ``setup_s`` is
# the median over a run's chunks.

# scenario_cold: timed ops per chunk (one op is about 1.5 s).
SCENARIO_OPS = 1

# fleet_drain and fleet_http: the repro-fleet-bench fleet, drained for a
# fixed number of simulated days per chunk.
FLEET = {"communities": 12, "shards": 4, "drain_days": 3, "solo_checks": 2}

# fleet_http: one detections poll after every this many envelopes.
POLL_EVERY = 2

# service_events: simulated days of synthetic stream posted per chunk.
SERVICE_DAYS = 20

# The program's own PERF counters, read as deltas over each timed phase.
COUNTERS = (
    "game.rounds",
    "ce.evaluations",
    "dp.cells",
    "cache.hits",
    "cache.misses",
    "stream.events",
    "fleet.events",
)
