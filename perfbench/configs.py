"""Workload configurations, shared by the runner and the set-up probe.

Plain data only: the set-up probe imports this module before it starts
timing the import of ogm.
"""

# The acceptance gate's configuration (tests/test_acceptance.py).
CERTIFY = dict(t0_depth=2, hex_depth=4, fiber_range=3.0, wall_comp_depth=0, tol=1e-6)
# The whole-chain solver's payoff configuration, chains of up to 6 walls;
# the micro-timings solve one pair per chain length 1-6 on it.
DEEP = dict(t0_depth=3, hex_depth=6, fiber_range=3.0, wall_comp_depth=0)

# (spec name under specs/, configuration) per set-up, in set-up order: one
# per workload, and "deep", whose set-up probes time the cold depth-6 model.
SETUPS = {
    "certify": (("flip_n3", CERTIFY), ("cycle_n4", CERTIFY), ("two_vertex_n5", CERTIFY)),
    "covering": (("two_vertex_n5", CERTIFY),),
    "deep": (("flip_n3", DEEP),),
}

CERTIFY_PAIRS = 12        # pairs per spec (one unit each)
COVERING_REPORTS = 2      # units, each with its own seed
COVERING_SAMPLES = 120
COVERING_SCALE = 8.0
COVERING_BINDING_PAIRS = 1
ORACLE_MAX_WALLS = 2      # brute_force_distance handles chains of <= 2 walls
ORACLE_RTOL = 1e-3        # acceptance criterion 2
ORACLE_GRID_STEP = 0.002  # acceptance criterion 2
