"""Workload parameters and seeded input generation.

Shared by the round process (``workload.py``), which passes these inputs
to flowdim, and by the correctness checks (``checks.py``), which recompute
the expected properties from the same numbers.  Imports only numpy, so the
round process pays nothing extra for it at start-up.
"""

import numpy as np

# certified_pipeline: kernel-report and embed-pipeline at their README example.
RHO = 1
TAU = 0.5
BAND = (0.0, 2.0)
DELTA = 0.2
LATTICE_N = 2
BASE_SIZE = 12
N_HEIGHTS = 10

# solenoid_roundtrip: solenoid-demo at its README example.
SOLENOID_DEPTH = 4
SOLENOID_T = 2e4
SOLENOID_POINTS = 5

# suspension_metrics: bw-metric on a seeded system, then the rotation torus.
BW_STATES = 24
BW_HEIGHT_GRID = 8
TORUS_STATES = 96
TORUS_HEIGHT_GRID = 16
TORUS_HORIZON = 24.0
TORUS_STEP = 1.0 / 16.0
TORUS_EPS = 3.0


def make_system(seed):
    """The seeded bw-metric input: sup-metric points in [0, 1]^2, a random
    permutation as step map and a random roof in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    return {
        "points": rng.uniform(0.0, 1.0, size=(BW_STATES, 2)).tolist(),
        "metric": "sup",
        "step": rng.permutation(BW_STATES).tolist(),
        "roof": rng.uniform(0.5, 1.5, size=BW_STATES).tolist(),
    }
