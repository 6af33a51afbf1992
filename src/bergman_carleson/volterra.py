"""Integration operators of Volterra type and their boundedness test.

The criterion never touches the operator itself: it conjugates the
symbol derivative by the square root of the locally averaged weight
and watches the norm against the distance to the boundary.  The
companion integral form replaces the pointwise norm by a disc average;
mean-value subharmonicity makes the pointwise form controlled by the
integral one with constant 1/ratio**2, and that inequality is checked,
not assumed.  Both forms read the same weight average at each grid
point, and the consistency check computes each average once.

The disc integral of the integral form has a closed form for the log
symbol and for polynomial symbols: the monomials (z - c)**k are
orthogonal on a disc about c, so it is a sum of Taylor coefficient
moments.  Any other symbol goes through the adaptive quadrature, which
also stays as the second route: the consistency check recomputes the
integral sup by quadrature and reports the relative gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import GridReport, OperatorPoly, default_lambda_grid
from .disc_geometry import HyperbolicDisc
from .linalg import op_norm, psd_inv_sqrt, psd_sqrt, sandwich
from .quadrature import DEFAULT_TOL, PLAIN, integrate_values
from .weights import averaged_weight


class LogSymbol:
    """log(1/(1-z)) times the identity: the standard unbounded symbol
    with bounded criterion value."""

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dim

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return (-np.log(1.0 - z))[:, None, None] * np.eye(self.dimension)

    def derivative_at(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return (1.0 / (1.0 - z))[:, None, None] * np.eye(self.dimension)


def _derivative_fn(symbol) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    if hasattr(symbol, "derivative_at"):
        return symbol.dimension, symbol.derivative_at
    if hasattr(symbol, "derivative"):
        d = symbol.derivative()
        return symbol.dimension, lambda z: d(np.asarray(z, dtype=complex))
    raise TypeError(f"cannot differentiate {type(symbol).__name__}")


def _prepare(symbol, weight, ratio, lambda_grid, tol):
    """The grid (default for the ratio), the symbol dimension and its
    derivative, and the weight average at each grid point, after the
    checks every form of the criterion shares."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(ratio)
    if not lambda_grid:
        raise ValueError("lambda grid must be nonempty")
    dim, deriv = _derivative_fn(symbol)
    if getattr(weight, "dim", dim) != dim:
        raise ValueError("weight and symbol dimensions differ")
    avgs = [averaged_weight(weight, lam, ratio, tol=tol) for lam in lambda_grid]
    return lambda_grid, dim, deriv, avgs


def _pointwise_value(deriv, lam, avg) -> float:
    conjugated = psd_sqrt(avg) @ deriv(np.array([lam]))[0] @ psd_inv_sqrt(avg)
    return (1.0 - abs(lam)) * op_norm(conjugated)


def _closed_moment(symbol, lam, avg, ratio) -> np.ndarray | None:
    """The disc moment of ``_quadrature_moment`` in closed form, or None
    for a symbol without one.

    With g'(z) = sum_k G_k (z - lam)**k about the centre, orthogonality
    of the monomials on D(lam, rho) gives
    sum_k G_k^H A G_k rho**(2k+2) / (k+1).
    """
    rho = ratio * (1.0 - abs(lam))
    if isinstance(symbol, LogSymbol):
        # G_k = I / (1 - lam)**(k+1): the series sums to a logarithm
        q = rho / abs(1.0 - lam)
        return -math.log1p(-q * q) * avg
    if isinstance(symbol, OperatorPoly):
        coeffs = symbol.derivative().coefficients
        n = coeffs.shape[0]
        # G_k = sum_{j >= k} C(j, k) lam**(j-k) D_j, the Taylor shift
        shift = np.array(
            [
                [math.comb(j, k) * lam ** (j - k) if j >= k else 0.0 for j in range(n)]
                for k in range(n)
            ]
        )
        taylor = np.einsum("kj,jab->kab", shift, coeffs)
        k = np.arange(n)
        mass = rho ** (2 * k + 2) / (k + 1)
        return np.einsum("k,kji,jl,klm->im", mass, taylor.conj(), avg, taylor)
    return None


def _quadrature_moment(deriv, dim, lam, avg, ratio, tol) -> np.ndarray:
    """The integral of g'^H A g' dA/pi over D(lam, ratio*(1-|lam|)) by
    adaptive quadrature."""

    def fn(z):
        g = deriv(z)
        return np.einsum("mji,jk,mkl->mil", np.conj(g), avg, g)

    disc = HyperbolicDisc(center=lam, ratio=ratio)
    return integrate_values(fn, (dim, dim), disc, PLAIN, tol=tol)


def _integral_value(inner, avg) -> float:
    inner = 0.5 * (inner + inner.conj().T)
    return op_norm(sandwich(psd_inv_sqrt(avg), inner))


def _grid_report(values) -> GridReport:
    """Supremum of (lambda, value) pairs; ties go to the earliest point."""
    best = (-math.inf, None)
    for lam, value in values:
        if value > best[0]:
            best = (value, lam)
    return GridReport(sup_value=best[0], argmax_point=best[1], values=tuple(values))


def _pointwise_report(deriv, grid, avgs) -> GridReport:
    return _grid_report(
        [(lam, _pointwise_value(deriv, lam, avg)) for lam, avg in zip(grid, avgs)]
    )


def _integral_report(symbol, deriv, dim, grid, avgs, ratio, tol) -> GridReport:
    """The closed form where the symbol has one, else the quadrature."""
    values = []
    for lam, avg in zip(grid, avgs):
        inner = _closed_moment(symbol, lam, avg, ratio)
        if inner is None:
            inner = _quadrature_moment(deriv, dim, lam, avg, ratio, tol)
        values.append((lam, _integral_value(inner, avg)))
    return _grid_report(values)


def volterra_condition(
    symbol,
    weight,
    ratio: float = 0.5,
    lambda_grid: Sequence[complex] | None = None,
    tol: float = DEFAULT_TOL,
) -> GridReport:
    """Pointwise criterion: gap times the averaged-weight conjugated
    norm of the symbol derivative, sup over the grid.

    The weight average is taken against plain area, per the definition
    of the local mean, so the criterion does not depend on the eta of
    the ambient space.
    """
    grid, _, deriv, avgs = _prepare(symbol, weight, ratio, lambda_grid, tol)
    return _pointwise_report(deriv, grid, avgs)


def volterra_integral_condition(
    symbol,
    weight,
    ratio: float = 0.5,
    lambda_grid: Sequence[complex] | None = None,
    tol: float = DEFAULT_TOL,
) -> GridReport:
    """Integral form: disc average of the conjugated symbol derivative
    in the square mean, sup over the grid."""
    grid, dim, deriv, avgs = _prepare(symbol, weight, ratio, lambda_grid, tol)
    return _integral_report(symbol, deriv, dim, grid, avgs, ratio, tol)


@dataclass(frozen=True)
class ConsistencyReport:
    """Pointwise-vs-integral comparison on a common grid.

    ``max_ratio`` is the largest observed gap**2 * pointwise**2 over
    integral; subharmonicity caps it by ``theoretical_bound`` =
    1/ratio**2.  ``integral_route_gap`` is the relative gap between the
    integral sup and the quadrature route at its argmax point.
    """

    pointwise: GridReport
    integral: GridReport
    max_ratio: float
    theoretical_bound: float
    ratio_parameter: float
    integral_route_gap: float

    @property
    def satisfied(self) -> bool:
        return self.max_ratio <= self.theoretical_bound * (1.0 + 1e-9)


def volterra_consistency(
    symbol,
    weight,
    ratio: float = 0.5,
    lambda_grid: Sequence[complex] | None = None,
    tol: float = DEFAULT_TOL,
) -> ConsistencyReport:
    """Both forms on one grid, from one weight average per grid point,
    and the integral sup again by quadrature."""
    grid, dim, deriv, avgs = _prepare(symbol, weight, ratio, lambda_grid, tol)
    pointwise = _pointwise_report(deriv, grid, avgs)
    integral = _integral_report(symbol, deriv, dim, grid, avgs, ratio, tol)
    worst = 0.0
    for (lam, s), (_, i) in zip(pointwise.values, integral.values):
        gap = 1.0 - abs(lam)
        if i == 0.0:
            if s != 0.0:
                raise ArithmeticError("pointwise value without integral mass")
            continue
        worst = max(worst, gap * gap * s * s / i)
    lam = integral.argmax_point
    avg = avgs[grid.index(lam)]
    second = _integral_value(_quadrature_moment(deriv, dim, lam, avg, ratio, tol), avg)
    top = integral.sup_value
    route_gap = abs(top - second) / max(abs(top), abs(second)) if top != second else 0.0
    return ConsistencyReport(
        pointwise=pointwise,
        integral=integral,
        max_ratio=worst,
        theoretical_bound=1.0 / (ratio * ratio),
        ratio_parameter=ratio,
        integral_route_gap=route_gap,
    )


def apply_volterra(symbol, f, z: complex, steps: int = 32) -> np.ndarray:
    """Volterra image at one point: the symbol derivative against the
    function along the radial segment from the origin.

    Gauss quadrature with ``steps`` nodes; exact up to roundoff when
    the integrand is a polynomial of degree below 2*steps.
    """
    if steps < 8:
        raise ValueError("need at least 8 quadrature nodes")
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must lie inside the open disc")
    _, deriv = _derivative_fn(symbol)
    nodes, weights = np.polynomial.legendre.leggauss(steps)
    t = 0.5 * (nodes + 1.0)
    zeta = t * z
    g = deriv(zeta)
    fv = np.atleast_2d(np.asarray(f(zeta)))
    integrand = np.einsum("mij,mj->mi", g, fv)
    return 0.5 * z * np.einsum("m,mi->i", weights, integrand)
