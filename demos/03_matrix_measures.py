"""
Matrix-valued measures and their intensities
============================================

A measure here is a finite list of positive matrix atoms plus a
positive matrix density.  Partitioning it over the dyadic cells gives
one small Hermitian block per cell; the intensity is the largest
block norm relative to cell (or square) area.
"""

import numpy as np

from bergman_carleson.disc_geometry import row_index
from bergman_carleson.measures import (
    atom_measure,
    carleson_intensity,
    identity_density_measure,
    partition_masses,
    random_measure,
)

# A point mass at the origin: all mass lands in the root cell, and the
# intensity against the containing square is 1 / area = 1.
origin = atom_measure(0.0, np.eye(2))
masses = partition_masses(origin, 4)
report = carleson_intensity(origin, 4, masses=masses)
print("origin atom, depth 4")
# masses.cells is one array with a row per cell; row_index names the cell
held = [str(row_index(row)) for row, m in enumerate(masses.cells) if np.any(m)]
print(f"  cells holding mass: {held}")
print(f"  square intensity:   {report.intensity:.6f}  at {report.intensity_cell}")
print(f"  cell intensity:     {report.tophalf_intensity:.6f}  at {report.tophalf_cell}")

# The flat density: every cell receives exactly its own area, so both
# intensities are 1 and the measure is as spread out as possible.
flat = carleson_intensity(identity_density_measure(1), 5)
print("\nflat density, depth 5")
print(f"  square intensity: {flat.intensity:.12f}")
print(f"  cell intensity:   {flat.tophalf_intensity:.12f}")

# Random measures mix a few atoms with a smooth radial density.  The
# cell intensity always dominates the square intensity, and never by
# more than the geometric factor 4.
print("\nseeded random measures, depth 6")
print("seed  dim  square int.  cell int.   cell/square")
for seed in range(4):
    mu = random_measure(dim=3, seed=seed)
    r = carleson_intensity(mu, 6)
    print(
        f"{seed:4d}  {mu.dimension:3d}  {r.intensity:10.6f}  "
        f"{r.tophalf_intensity:10.6f}  {r.tophalf_intensity / r.intensity:10.6f}"
    )
