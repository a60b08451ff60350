# Suspension flows and the Bowen-Walters metric.
#
# Flowing up a roof function over a finite base system produces a flow
# one can measure with a path metric built from horizontal segments
# (interpolated base distance) and vertical segments (flow time).

import numpy as np

from flowdim import (
    BowenWaltersMetric,
    OrbitMetricSpec,
    RoofFunction,
    SuspensionPoint,
    bw_distance,
    mapping_torus,
    orbit_metric_R,
    orbit_metric_Z,
    suspend,
    widim_upper,
)
from flowdim.instances import rotation_system

base = rotation_system(12)
roof = RoofFunction.constant(1.0, len(base))

# ## Flowing through the roof

p = SuspensionPoint(3, 0.25)
for t in (0.5, 1.0, 2.75, -1.5):
    [q] = suspend(base, roof, [p], t)
    print(f"psi_{t:+.2f}(3, 0.25) = (state {q.state}, height {q.height:.2f})")

# ## Distances: a fiber segment, a base segment, a mixed pair

print("\nsame fiber, heights .2 vs .5:",
      bw_distance(SuspensionPoint(4, 0.2), SuspensionPoint(4, 0.5), base, roof, height_grid=20))
print("base points 0 and 3:",
      bw_distance(SuspensionPoint(0, 0.0), SuspensionPoint(3, 0.0), base, roof))
print("mixed (1, .25) vs (7, .75):",
      bw_distance(SuspensionPoint(1, 0.25), SuspensionPoint(7, 0.75), base, roof))

# Chains may hold any number of segments; refining the height grid only
# improves the upper bound:
p1, q1 = SuspensionPoint(1, 0.25), SuspensionPoint(7, 0.75)
for grid in (4, 8, 16):
    print(f"height_grid={grid:2d}:",
          bw_distance(p1, q1, base, roof, height_grid=grid))

# ## The mapping torus and its window metrics
#
# The roof-1 suspension of a rotation moves isometrically, so the
# gridded window metric equals the base metric and the width estimate
# is flat in the horizon.

torus = mapping_torus(base, height_grid=10)
spec = OrbitMetricSpec("R-window", horizon=3.0, time_step=0.1)
window = orbit_metric_R(torus, spec)
base_mat = BowenWaltersMetric(base, roof, 10).matrix(torus.values)
print("\nisometric flow: d_R == d ?", np.allclose(window.dist, base_mat))

# The flow's window metric at integer horizons matches the time-1 map's
# orbit metric on the height-0 slice (the time-1 map there is the base
# step map).
d3_flow = orbit_metric_R(torus, OrbitMetricSpec("R-window", 3.0, 0.5))
d3_map = orbit_metric_Z(base, 3)
print("widim at eps=3.0, flow window vs time-1 window:",
      widim_upper(d3_flow, 3.0), widim_upper(d3_map, 3.0))
