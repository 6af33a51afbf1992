"""
Two routes to the discrete embedding norm
=========================================
"""

# The operator that averages a function over each dyadic cell has an
# exactly computable norm against any matrix measure: the square root
# of the largest normalized cell mass.  A seeded Lanczos recurrence on
# the stacked cell blocks must land on the same number without ever
# looking at the closed form.  (Its result field is still called
# power_iteration, the name the report schema keeps.)  Their agreement is the workbench's main
# cross-check, and the ratio between the norm squared and the square
# intensity is pinned to the window [1, 4].

import numpy as np

from bergman_carleson.dyadic import dimension_sweep, dyadic_norm, equivalence_report
from bergman_carleson.measures import atom_measure, random_measure

print("route comparison on seeded measures (depth 7)")
print("seed  dim   closed form      Lanczos          rel. gap   iters")
for seed in range(5):
    mu = random_measure(dim=4, seed=seed)
    r = dyadic_norm(mu, 7, seed=seed)
    print(
        f"{seed:4d}  {mu.dimension:3d}   {r.closed_form:.12f}   "
        f"{r.power_iteration:.12f}   {r.relative_gap:.1e}   {r.iterations:5d}"
    )

# Extremes of the norm-to-intensity window.  An atom at the origin fills
# its cell but only a quarter of its square, giving exactly 4; pushing
# the atom to the inner edge of a deep cell gives 2.016.
for label, point in (("origin", 0.0), ("deep", 1.0 - 2.0**-5)):
    rep = equivalence_report(atom_measure(point, np.eye(1)), 6)
    print(
        f"\n{label} atom: norm^2 {rep.norm_b_squared:.6f}, "
        f"square intensity {rep.intensity:.6f}, ratio {rep.ratio_upper:.6f}"
    )
    print(f"  covering slack (nonnegative): {rep.covering_slack:.3e}")

# Lifting a scalar measure into d dimensions along a random direction
# must not move the ratio at all; the bound is dimension-free.
sweep = dimension_sweep({"kind": "radial_power_density", "exponent": 1.0}, (1, 2, 4, 8, 16), 6, seed=1)
print("\ndimension sweep, radial density template")
for row in sweep.rows:
    print(f"  d={row.dimension:3d}: ratio {row.ratio:.15f}")
print(f"  spread: {sweep.ratio_spread:.2e}")
