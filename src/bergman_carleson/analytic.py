"""Analytic test functions and the two-sided embedding diagnostics.

Polynomials and reproducing-type kernels carry exact derivatives, so
the only approximation anywhere in this module is the final quadrature.
Against weights whose terms are radial powers (1-|z|)**s M, the angular
integral kills all cross terms, which turns polynomial norms into short
sums of beta moments and kernel norms into rapidly convergent
coefficient series, one per term; both routes hold machine accuracy
arbitrarily close to the boundary.  Everything else falls back to the
adaptive two-dimensional engine with refinement hints around the
kernel focus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .disc_geometry import HyperbolicDisc, TWO_PI, WholeDisc
from .linalg import op_norm, psd_inv_sqrt, sandwich
from .quadrature import (
    DEFAULT_TOL,
    MatrixField,
    MeasureSpec,
    integrate,
    integrate_values,
)

MAX_DEGREE = 256

#: Relative tail threshold for kernel coefficient series.
_SERIES_EPS = 1e-17


@dataclass(frozen=True)
class VectorPoly:
    """Polynomial with vector coefficients; evaluation and
    differentiation are exact."""

    dimension: int
    coefficients: np.ndarray  # (degree+1, dimension) complex

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coefficients, dtype=complex))
        if coeffs.shape[0] > MAX_DEGREE + 1:
            raise ValueError(f"degree above {MAX_DEGREE} not supported")
        if coeffs.shape[1] != self.dimension:
            raise ValueError("coefficient vectors have the wrong dimension")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def monomial(cls, degree: int, direction: np.ndarray) -> "VectorPoly":
        direction = np.asarray(direction, dtype=complex)
        coeffs = np.zeros((degree + 1, direction.shape[0]), dtype=complex)
        coeffs[degree] = direction
        return cls(dimension=direction.shape[0], coefficients=coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        powers = np.stack([z**k for k in range(self.degree + 1)], axis=-1)
        return powers @ self.coefficients

    def derivative(self, n: int = 1) -> "VectorPoly":
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coefficients
        for _ in range(n):
            if coeffs.shape[0] == 1:
                coeffs = np.zeros_like(coeffs[:1])
                break
            ks = np.arange(1, coeffs.shape[0])
            coeffs = coeffs[1:] * ks[:, None]
        return VectorPoly(dimension=self.dimension, coefficients=coeffs)


@dataclass(frozen=True)
class KernelFunction:
    """Reproducing-type kernel ray e / (1 - conj(center) z)**(exponent+2).

    ``order`` tracks how many times the base kernel has been
    differentiated; the class is closed under differentiation, with the
    scalar prefactor (exponent+2)(exponent+3)... accumulating exactly.
    """

    center: complex
    exponent: float
    direction: np.ndarray
    order: int = 0

    def __post_init__(self):
        if abs(self.center) >= 1.0:
            raise ValueError("kernel center must lie inside the open disc")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        direction = np.asarray(self.direction, dtype=complex)
        if direction.ndim != 1 or not np.any(direction):
            raise ValueError("direction must be a nonzero vector")
        object.__setattr__(self, "direction", direction)

    @property
    def dimension(self) -> int:
        return self.direction.shape[0]

    @property
    def power(self) -> float:
        """Exponent of the denominator after ``order`` derivatives."""
        return self.exponent + self.order + 2.0

    @property
    def scalar_coefficient(self) -> complex:
        c = 1.0
        for j in range(self.order):
            c *= self.exponent + 2.0 + j
        return c * np.conj(self.center) ** self.order

    def scalar_part(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return self.scalar_coefficient * (1.0 - np.conj(self.center) * z) ** (
            -self.power
        )

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.scalar_part(z)[..., None] * self.direction

    def derivative(self, n: int = 1) -> "KernelFunction":
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        return replace(self, order=self.order + n)


@dataclass(frozen=True)
class OperatorPoly:
    """Matrix-coefficient polynomial; the Volterra symbols live here."""

    dimension: int
    coefficients: np.ndarray  # (degree+1, d, d) complex

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (self.dimension, self.dimension):
            raise ValueError("coefficients must be a stack of square matrices")
        if coeffs.shape[0] > MAX_DEGREE + 1:
            raise ValueError(f"degree above {MAX_DEGREE} not supported")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def linear_identity(cls, dim: int) -> "OperatorPoly":
        coeffs = np.stack([np.zeros((dim, dim)), np.eye(dim)]).astype(complex)
        return cls(dimension=dim, coefficients=coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        powers = np.stack([z**k for k in range(self.degree + 1)], axis=-1)
        return np.einsum("mk,kij->mij", powers, self.coefficients)

    def derivative(self, n: int = 1) -> "OperatorPoly":
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coefficients
        for _ in range(n):
            if coeffs.shape[0] == 1:
                coeffs = np.zeros_like(coeffs[:1])
                break
            ks = np.arange(1, coeffs.shape[0])
            coeffs = coeffs[1:] * ks[:, None, None]
        return OperatorPoly(dimension=self.dimension, coefficients=coeffs)


def derivative(f, n: int = 1):
    """Exact n-th derivative of any analytic representation here."""
    return f.derivative(n)


def _field_of(weight, dim: int) -> MatrixField:
    if isinstance(weight, MatrixField):
        field = weight
    elif hasattr(weight, "field"):
        field = weight.field()
    else:
        raise TypeError(f"cannot interpret {type(weight).__name__} as a weight")
    if field.dim != dim:
        raise ValueError(f"weight dimension {field.dim} != function dimension {dim}")
    return field


@dataclass(frozen=True)
class EmbeddingProblem:
    """Derivative-side symbol, weight, and the tuning parameters of the
    embedding condition."""

    symbol: MatrixField
    weight: object
    eta: float = 0.0
    order: int = 0
    ratio: float = 0.5

    def __post_init__(self):
        if self.eta <= -1.0:
            raise ValueError("eta must exceed -1")
        if self.order < 0 or self.order != int(self.order):
            raise ValueError("derivative order must be a nonnegative integer")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        _field_of(self.weight, self.symbol.dim)

    @property
    def dimension(self) -> int:
        return self.symbol.dim

    @property
    def weight_field(self) -> MatrixField:
        return _field_of(self.weight, self.symbol.dim)


def _kernel_series(power: float, lam_abs: float, q: float) -> float:
    """sum_k binom-type(power)_k^2 lam^(2k) * 2*B(2k+2, q+1).

    This is the squared disc norm of (1-conj(lam) z)**(-power) against
    2(1-r)^q r dr, with the angular integral already done.  Moment and
    coefficient both advance by rational recurrences, so nothing is
    ever formed near the boundary.
    """
    if q <= -1.0:
        raise ValueError("radial power must exceed -1 to be integrable")
    lam2 = lam_abs * lam_abs
    coeff = 1.0
    lampow = 1.0
    moment = 2.0 / ((q + 1.0) * (q + 2.0))
    total = 0.0
    k = 0
    while True:
        term = coeff * coeff * lampow * moment
        total += term
        if k > 8 and term <= total * _SERIES_EPS:
            return total
        coeff *= (power + k) / (k + 1.0)
        lampow *= lam2
        x = 2.0 * k + 2.0
        moment *= (x * (x + 1.0)) / ((x + q + 1.0) * (x + q + 2.0))
        k += 1


def _is_power_sum(field: MatrixField) -> bool:
    """Whether every term of a field is a radial power (1-|z|)**s M."""
    return not any(callable(s) for s, _ in field.terms)


def _poly_quadratic_norm(
    f: VectorPoly, field: MatrixField, eta: float, tol: float
) -> float:
    if not _is_power_sum(field):
        return _generic_quadratic_norm(f, field, eta, tol)
    coeffs = f.coefficients

    def power_norm(s, matrix):
        # cross terms vanish against a radial weight; 2*Beta(2k+2, q+1)
        # via a rational recurrence, since quadrature would lose absolute
        # accuracy on the sharply peaked high-k integrands
        q = eta + s
        if q <= -1.0:
            raise ValueError(f"radial power {q} is not integrable on the disc")
        moment = 2.0 / ((q + 1.0) * (q + 2.0))
        total = 0.0
        for k in range(coeffs.shape[0]):
            c = coeffs[k]
            form = float(np.real(np.vdot(c, matrix @ c)))
            if form != 0.0:
                total += (eta + 1.0) * form * moment
            x = 2.0 * k + 2.0
            moment *= x * (x + 1.0) / ((x + q + 1.0) * (x + q + 2.0))
        return total

    return reduce(add, (power_norm(s, matrix) for s, matrix in field.terms))


def _kernel_quadratic_norm(
    f: KernelFunction, field: MatrixField, eta: float, tol: float
) -> float:
    if not _is_power_sum(field):
        return _generic_quadratic_norm(f, field, eta, tol)
    e = f.direction
    return float(np.real(np.vdot(e, _scalar_envelope_matrix(f, field, eta) @ e)))


def _generic_quadratic_norm(f, field: MatrixField, eta, tol) -> float:
    def fn(z):
        fv = np.atleast_2d(np.asarray(f(z)))
        wv = field.evaluator(z)
        return np.real(np.einsum("mi,mij,mj->m", np.conj(fv), wv, fv))

    radial_breaks: tuple = ()
    angular_breaks: tuple = ()
    if isinstance(f, KernelFunction) and abs(f.center) > 0.1:
        # refinement hints at the kernel focus
        rho = abs(f.center)
        radial_breaks = (rho, 0.5 * (1.0 + rho))
        angular_breaks = (cmath.phase(f.center) % TWO_PI,)
    value = integrate_values(
        fn,
        (),
        WholeDisc(),
        MeasureSpec(eta),
        tol=tol,
        singular_exponent=field.singular_exponent,
        radial_breaks=radial_breaks,
        angular_breaks=angular_breaks,
    )
    return float(np.real(value))


def weighted_norm2(
    f,
    weight,
    eta: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Squared norm of an analytic function against the weight and the
    radial-power probability measure of parameter eta."""
    if eta <= -1.0:
        raise ValueError("eta must exceed -1")
    field = _field_of(weight, _dimension_of(f))
    if isinstance(f, VectorPoly):
        return _poly_quadratic_norm(f, field, eta, tol)
    if isinstance(f, KernelFunction):
        return _kernel_quadratic_norm(f, field, eta, tol)
    return _generic_quadratic_norm(f, field, eta, tol)


def seminorm2(
    f,
    symbol,
    n: int,
    tol: float = DEFAULT_TOL,
) -> float:
    """Squared derivative seminorm: the n-th derivative tested against
    the symbol, with plain area measure."""
    return weighted_norm2(derivative(f, n), symbol, eta=0.0, tol=tol)


def _dimension_of(f) -> int:
    if isinstance(f, (VectorPoly, OperatorPoly)):
        return f.dimension
    if isinstance(f, KernelFunction):
        return f.dimension
    probe = np.atleast_2d(np.asarray(f(np.array([0.1 + 0.0j]))))
    return probe.shape[-1]


@dataclass(frozen=True)
class GridReport:
    """A scalar diagnostic evaluated over a grid of centers."""

    sup_value: float
    argmax_point: complex
    values: tuple[tuple[complex, float], ...]

    def radial_section(self) -> tuple[tuple[complex, float], ...]:
        """Entries with centers on the nonnegative real axis."""
        return tuple(
            (lam, v) for lam, v in self.values if lam.imag == 0.0 and lam.real >= 0.0
        )


def _grid_report(values) -> GridReport:
    """Supremum of (lambda, value) pairs.  A value replaces the best only
    if it is strictly greater, so ties go to the earliest grid point."""
    best = (-math.inf, None)
    for lam, value in values:
        if value > best[0]:
            best = (value, lam)
    return GridReport(sup_value=best[0], argmax_point=best[1], values=tuple(values))


def default_lambda_grid(
    ratio: float = 0.5, max_level: int = 10, angles: int = 16
) -> tuple[complex, ...]:
    """Geometric radial grid crossed with angles, plus a coarse sample
    of the small-center region where the condition is automatic."""
    points: list[complex] = [0j]
    for j in range(1, max_level + 1):
        radius = 1.0 - 2.0**-j
        for k in range(angles):
            points.append(radius * cmath.exp(2j * math.pi * k / angles))
    delta = ratio / (ratio + 2.0)
    for radius in (0.25 * delta, 0.5 * delta, 0.75 * delta):
        for k in range(4):
            points.append(radius * cmath.exp(2j * math.pi * k / 4))
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def condition_constant(
    problem: EmbeddingProblem,
    lambda_grid: Sequence[complex] | None = None,
    tol: float = DEFAULT_TOL,
) -> GridReport:
    """Embedding condition over a grid of hyperbolic discs.

    At each center the two region integrals, symbol against plain area
    and weight against the eta measure, meet in a generalized operator
    ratio; the derivative order contributes the scaling power of the
    distance to the boundary.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(problem.ratio)
    if not lambda_grid:
        raise ValueError("lambda grid must be nonempty")
    spec = MeasureSpec(problem.eta)
    weight_field = problem.weight_field
    values = []
    for lam in lambda_grid:
        disc = HyperbolicDisc(center=lam, ratio=problem.ratio)
        m_symbol = integrate(problem.symbol, disc, tol=tol)
        m_weight = integrate(weight_field, disc, spec, tol=tol)
        ratio = op_norm(sandwich(psd_inv_sqrt(m_weight), m_symbol))
        values.append((lam, ratio / (1.0 - abs(lam)) ** (2 * problem.order)))
    return _grid_report(values)


def embedding_ratio(
    f,
    problem: EmbeddingProblem,
    tol: float = DEFAULT_TOL,
) -> float:
    """Derivative seminorm over weighted norm for one test function; a
    certified lower bound for the best embedding constant."""
    denom = weighted_norm2(f, problem.weight, problem.eta, tol=tol)
    if denom <= 0.0:
        raise ValueError("test function has zero weighted norm")
    numer = seminorm2(f, problem.symbol, problem.order, tol=tol)
    return numer / denom


def default_dictionary(
    dimension: int,
    gamma: float,
    lambda_grid: Sequence[complex] | None = None,
    max_degree: int = 64,
    num_random_directions: int = 8,
    ratio: float = 0.5,
    seed: int = 0,
) -> tuple:
    """Versioned family of probes: monomials in coordinate and seeded
    random directions, kernels over the center grid."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(ratio)
    rng = np.random.default_rng(seed)
    directions = [np.eye(dimension, dtype=complex)[i] for i in range(dimension)]
    for _ in range(num_random_directions):
        v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
        directions.append(v / np.linalg.norm(v))
    entries: list = []
    for e in directions:
        for m in range(max_degree + 1):
            entries.append(VectorPoly.monomial(m, e))
        for lam in lambda_grid:
            entries.append(KernelFunction(center=lam, exponent=gamma, direction=e))
    return tuple(entries)


def dictionary_sup(
    problem: EmbeddingProblem,
    dictionary: Sequence | None = None,
    gamma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Best embedding ratio over a fixed family of test functions."""
    if dictionary is None:
        if gamma is None:
            gamma = problem.eta + 1.0
        dictionary = default_dictionary(problem.dimension, gamma, ratio=problem.ratio)
    best = -math.inf
    for f in dictionary:
        best = max(best, embedding_ratio(f, problem, tol=tol))
    return best


def necessity_lower_bound(
    problem: EmbeddingProblem,
    gamma: float,
    lam: complex,
    tol: float = DEFAULT_TOL,
) -> float:
    """Best kernel-ray embedding ratio at one center.

    Both sides are quadratic forms in the direction vector with a
    common scalar envelope, so the maximization is a generalized
    eigenvalue problem between two small matrices.  Symbol and weight
    must be sums of radial power terms, as every shipped one is.  Both
    matrices are closed-form coefficient series, so ``tol`` is not read.
    """
    if gamma <= problem.eta:
        raise ValueError("kernel exponent must exceed eta")
    delta = problem.ratio / (problem.ratio + 2.0)
    if abs(lam) < delta:
        raise ValueError("center too close to the origin for the kernel probe")
    dim = problem.dimension
    base = KernelFunction(center=lam, exponent=gamma, direction=np.eye(dim)[0])
    deriv = base.derivative(problem.order)
    numer = _scalar_envelope_matrix(deriv, problem.symbol, eta=0.0)
    denom = _scalar_envelope_matrix(base, problem.weight_field, eta=problem.eta)
    return op_norm(sandwich(psd_inv_sqrt(denom), numer))


def _scalar_envelope_matrix(
    kernel: KernelFunction, field: MatrixField, eta: float
) -> np.ndarray:
    """Matrix of the quadratic form e -> squared norm of the kernel ray
    in direction e; the direction factors out of the scalar envelope,
    one coefficient series per power term of the field."""
    if not _is_power_sum(field):
        raise ValueError("the kernel probe needs fields of radial power terms")
    coefficient = abs(kernel.scalar_coefficient) ** 2 * (eta + 1.0)
    return reduce(
        add,
        (
            coefficient * _kernel_series(kernel.power, abs(kernel.center), eta + s)
            * matrix
            for s, matrix in field.terms
        ),
    )


def growth_exponent(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(gap), gap being
    the distance of the center to the boundary.  A weight diverging
    like gap**(-1/2) reads as slope -0.5."""
    gaps = np.array([p[0] for p in points], dtype=float)
    vals = np.array([p[1] for p in points], dtype=float)
    if gaps.size < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(gaps <= 0.0) or np.any(vals <= 0.0):
        raise ValueError("growth fit needs positive gaps and values")
    return float(np.polyfit(np.log(gaps), np.log(vals), 1)[0])
