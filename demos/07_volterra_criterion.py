"""
Integration operators with operator symbols
===========================================
"""

# Criterion values for the operator f -> integral of G' f along rays.
# The pointwise form weighs the symbol derivative between square roots
# of the local weight average; the integral form averages the full
# sandwich over the hyperbolic disc.  Subharmonicity ties the two
# together with an explicit aperture-dependent constant.

import numpy as np

from bergman_carleson.analytic import OperatorPoly
from bergman_carleson.volterra import (
    LogSymbol,
    apply_volterra,
    volterra_condition,
    volterra_consistency,
    volterra_integral_condition,
)
from bergman_carleson.weights import IdentityWeight

radial = tuple(1.0 - 2.0**-j + 0j for j in range(9))

# The linear symbol G(z) = z I has derivative I, so the criterion value
# is exactly the distance to the boundary: largest at the origin.
linear = OperatorPoly.linear_identity(1)
flat = volterra_condition(linear, IdentityWeight(1), lambda_grid=radial)
print(f"linear symbol: sup {flat.sup_value} at {flat.argmax_point}")

# The logarithmic symbol is the classical boundary case: the derivative
# grows exactly as fast as the gap shrinks, values pinned at 1.
log_report = volterra_condition(LogSymbol(), IdentityWeight(1), lambda_grid=radial)
print("\nlog symbol pointwise values")
for lam, value in log_report.values:
    print(f"  center {lam.real:.6f}: {value:.12f}")

# Integral form for the linear symbol: the average of |z'|^2 over a
# disc of relative aperture 1/2 is (gap/2)^2.  Polynomial and log
# symbols have their disc moments in closed form, so these values are
# exact up to roundoff; the quadrature remains the second route.
integral = volterra_integral_condition(linear, IdentityWeight(1), lambda_grid=radial)
print("\nlinear symbol integral values (expect gap^2/4)")
for lam, value in integral.values[:4]:
    gap = 1.0 - abs(lam)
    print(f"  center {lam.real:.4f}: {value:.3e}  vs  {gap * gap / 4.0:.3e}")

# The consistency report combines both reports over a shared grid and
# checks (gap * pointwise)^2 <= C * integral with C = 1/ratio^2 = 4.
for symbol, name in ((linear, "linear"), (LogSymbol(), "log")):
    c = volterra_consistency(symbol, IdentityWeight(1), lambda_grid=radial)
    print(
        f"\n{name}: max observed ratio {c.max_ratio:.4f} "
        f"against bound {c.theoretical_bound:.1f} -> satisfied={c.satisfied}"
    )

# Applying the operator itself: with G = z I the image of the constant
# function is z, and the image of z is z^2 / 2.
print("\naction on test functions at z = 0.6+0.2j")
z = 0.6 + 0.2j
print(f"  (B 1)(z) = {apply_volterra(linear, lambda w: np.ones((w.shape[0], 1)), z)[0]:.6f}  vs  z = {z:.6f}")
print(f"  (B z)(z) = {apply_volterra(linear, lambda w: w[:, None], z)[0]:.6f}  vs  z^2/2 = {0.5 * z * z:.6f}")
