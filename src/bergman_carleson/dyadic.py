"""The dyadic embedding operator and its exact norm.

The operator replaces a vector field on the disc by its average over
each top-half cell, producing a step function.  Against a matrix
measure the squared norm of the step function is a block-diagonal
quadratic form over the cells, so the operator norm has a closed form:
the largest cell ratio lambda_max(mass(T_I)) / A(T_I).

``dyadic_norm`` reads that closed form from the cell norms that
``PartitionMasses`` solves once per table, and then recomputes it by a
seeded Lanczos recurrence on the assembled block operator.  The
agreement of the two routes is the point, not a convenience: it is the
verifiable content of the norm identity, so neither route is allowed to
peek at the other.

The second route was a power iteration before it was Lanczos.  The
result field ``power_iteration``, the report key of the same name,
``iterations`` and ``PowerIterationError`` keep their names, because
the report schema and the benchmark read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .disc_geometry import (
    DyadicIndex,
    TopHalf,
    carleson_square_area,
    level_rows,
    row_areas,
    row_index,
    top_half_area,
    top_half_partition,
)
from .errors import PowerIterationError
from .measures import (
    MatrixMeasure,
    PartitionMasses,
    carleson_intensity,
    lift_scalar_measure,
    measure_from_descriptor,
    partition_masses,
)
from .quadrature import DEFAULT_TOL, PLAIN, integrate_values

#: Stop when the Ritz residual falls to this fraction of the Ritz value.
LANCZOS_TOL = 1e-13
#: Each step solves the growing tridiagonal, so a run that reaches this
#: cap and raises PowerIterationError takes about a second.
LANCZOS_BUDGET = 300


@dataclass(frozen=True)
class CellFunction:
    """Step function constant on top-half cells down to a depth.

    Cells absent from ``values`` are zero.  The squared plain-area norm
    is exactly the weighted coefficient sum, no quadrature involved.
    """

    dimension: int
    depth: int
    values: Mapping[DyadicIndex, np.ndarray]

    def __post_init__(self):
        for idx, v in self.values.items():
            if idx.level > self.depth:
                raise ValueError(f"cell {idx} deeper than declared depth {self.depth}")
            if np.asarray(v).shape != (self.dimension,):
                raise ValueError(f"value at {idx} has wrong shape")

    def value(self, idx: DyadicIndex) -> np.ndarray:
        v = self.values.get(idx)
        if v is None:
            return np.zeros(self.dimension, dtype=complex)
        return np.asarray(v, dtype=complex)

    def norm_squared(self) -> float:
        total = 0.0
        for idx in sorted(self.values):
            v = np.asarray(self.values[idx])
            total += top_half_area(idx.level) * float(np.real(np.vdot(v, v)))
        return total


def apply_B(
    f: "CellFunction | Callable[[np.ndarray], np.ndarray]",
    depth: int,
    tol: float = DEFAULT_TOL,
) -> CellFunction:
    """Average a vector field over every top-half cell to a depth.

    Step functions are fixed points, so a CellFunction input is
    returned unchanged.  Callables must be vectorized: complex (m,)
    in, (m, d) out.
    """
    if isinstance(f, CellFunction):
        return f
    probe = np.atleast_2d(np.asarray(f(np.array([0.1 + 0.05j]))))
    dim = probe.shape[-1]
    values: dict[DyadicIndex, np.ndarray] = {}
    for idx in top_half_partition(depth).cells:
        mean = integrate_values(f, (dim,), TopHalf(idx), PLAIN, tol=tol)
        values[idx] = np.asarray(mean / top_half_area(idx.level), dtype=complex)
    return CellFunction(dimension=dim, depth=depth, values=values)


def norm_squared_mu(
    f: CellFunction,
    mu: "MatrixMeasure | PartitionMasses",
    tol: float = DEFAULT_TOL,
) -> float:
    """Squared measure-norm of a step function: sum of cell quadratic
    forms <mass(T_I) a_I, a_I>."""
    if isinstance(mu, PartitionMasses):
        masses = mu
        if masses.depth < f.depth:
            raise ValueError("measure masses shallower than the step function")
    else:
        masses = partition_masses(mu, f.depth, tol=tol)
    total = 0.0
    for idx in sorted(f.values):
        a = f.value(idx)
        total += float(np.real(np.vdot(a, masses.cells[idx.row] @ a)))
    return total


@dataclass(frozen=True)
class DyadicNormResult:
    """Embedding norm by the closed form and by the second route.

    ``power_iteration`` and ``iterations`` hold the value and the step
    count of the Lanczos recurrence; the names predate it and are kept
    for the report schema.
    """

    closed_form: float
    power_iteration: float
    argmax_cell: DyadicIndex
    depth: int
    residual_norm: float
    iterations: int

    @property
    def relative_gap(self) -> float:
        scale = max(self.closed_form, self.power_iteration, 1e-300)
        return abs(self.closed_form - self.power_iteration) / scale


def _lanczos(blocks: np.ndarray, seed: int) -> tuple[float, int]:
    """Largest eigenvalue of a stack of Hermitian PSD blocks, treated as
    one block-diagonal operator.

    Three-term Lanczos recurrence from a seeded start vector.  Only the
    tridiagonal matrix is kept, not the Krylov basis: the top Ritz value
    theta needs no basis, and its residual is beta_k |s_k|, with s the
    top eigenvector of the tridiagonal.  Stops when that residual falls
    to LANCZOS_TOL * theta, or when the Krylov space closes (beta = 0).
    """
    count, dim = blocks.shape[0], blocks.shape[1]
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    vec /= np.linalg.norm(vec)
    previous = np.zeros_like(vec)
    alphas: list[float] = []
    betas: list[float] = []
    beta = theta = 0.0
    for iteration in range(1, LANCZOS_BUDGET + 1):
        image = np.einsum("cij,cj->ci", blocks, vec)
        alpha = float(np.real(np.vdot(vec, image)))
        image -= alpha * vec
        image -= beta * previous
        beta = float(np.linalg.norm(image))
        alphas.append(alpha)
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz_values, ritz_vectors = np.linalg.eigh(tridiagonal)
        theta = float(ritz_values[-1])
        if beta == 0.0 or beta * abs(ritz_vectors[-1, -1]) <= LANCZOS_TOL * theta:
            return theta, iteration
        betas.append(beta)
        previous, vec = vec, image / beta
    raise PowerIterationError(
        f"Lanczos did not converge after {LANCZOS_BUDGET} iterations",
        last_value=theta,
        iterations=LANCZOS_BUDGET,
    )


def dyadic_norm(
    mu: MatrixMeasure,
    depth: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    masses: PartitionMasses | None = None,
) -> DyadicNormResult:
    """Norm of the truncated embedding operator, two ways.

    closed_form: sqrt of the best cell ratio, exact up to the cell
    masses themselves.  power_iteration: the same number recomputed by
    a seeded Lanczos recurrence on the assembled block operator, which
    never reads the per-cell eigenvalues (the field keeps its old name).
    """
    if masses is None:
        masses = partition_masses(mu, depth, tol=tol)
    elif masses.depth != depth:
        raise ValueError("precomputed masses were built for a different depth")
    areas = row_areas(depth)
    ratios = masses.cell_norms / areas
    best = int(np.argmax(ratios))
    blocks = masses.cells / areas[:, None, None]
    top_eigen, iterations = _lanczos(blocks, seed)
    return DyadicNormResult(
        closed_form=math.sqrt(ratios[best]),
        power_iteration=math.sqrt(max(top_eigen, 0.0)),
        argmax_cell=row_index(best),
        depth=depth,
        residual_norm=masses.residual_norm,
        iterations=iterations,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sided comparison of the embedding norm with the intensity.

    ``ratio_upper`` is norm**2 / intensity; for measures resolved by the
    partition it sits in [1, 4], the extremes being attained by square
    against top-half area ratios.  ``covering_slack`` is the smallest
    margin in the certificate ||mass(Q)|| <= alpha A(Q) + residual over
    shallow squares; nonnegative means the covering argument checks out.
    """

    norm_b_squared: float
    alpha: float
    intensity: float
    ratio_upper: float
    covering_slack: float
    depth: int
    residual_norm: float


def equivalence_report(
    mu: MatrixMeasure,
    depth: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    masses: PartitionMasses | None = None,
) -> EquivalenceReport:
    """Embedding norm against intensity; precomputed ``masses`` must have this depth."""
    if depth < 1:
        raise ValueError("need depth >= 1")
    if masses is None:
        masses = partition_masses(mu, depth, tol=tol)
    elif masses.depth != depth:
        raise ValueError("precomputed masses were built for a different depth")
    norm = dyadic_norm(mu, depth, tol=tol, seed=seed, masses=masses)
    report = carleson_intensity(mu, depth, tol=tol, masses=masses)
    alpha = report.tophalf_intensity
    shallow = min(4, depth)
    norms = masses.square_norms[: level_rows(shallow).stop]
    areas = row_areas(shallow, carleson_square_area)
    margins = alpha * areas + report.residual_norm - norms
    return EquivalenceReport(
        norm_b_squared=norm.closed_form ** 2,
        alpha=alpha,
        intensity=report.intensity,
        ratio_upper=norm.closed_form ** 2 / report.intensity,
        covering_slack=float(margins[np.argmin(margins)]),
        depth=depth,
        residual_norm=report.residual_norm,
    )


@dataclass(frozen=True)
class SweepRow:
    dimension: int
    norm_b_squared: float
    intensity: float
    ratio: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    depth: int
    seed: int
    template: dict

    @property
    def ratio_spread(self) -> float:
        ratios = [r.ratio for r in self.rows]
        return max(ratios) - min(ratios)


def dimension_sweep(
    template: Mapping,
    dims: Sequence[int],
    depth: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Embedding-norm-to-intensity ratios across value dimensions.

    The template describes a one-dimensional measure; each row lifts it
    into dimension d by a seeded rank-one unitary conjugation, which
    preserves every operator norm.  Flat ratios across rows are the
    numerical face of dimension-freeness.
    """
    if not dims:
        raise ValueError("dims must be nonempty")
    scalar = measure_from_descriptor(template)
    if scalar.dimension != 1:
        raise ValueError("sweep template must be one-dimensional")
    rows = []
    for d in sorted(dims):
        mu = scalar if d == 1 else lift_scalar_measure(scalar, d, seed)
        masses = partition_masses(mu, depth, tol=tol)
        norm = dyadic_norm(mu, depth, tol=tol, seed=seed, masses=masses)
        intensity = carleson_intensity(mu, depth, tol=tol, masses=masses).intensity
        rows.append(
            SweepRow(
                dimension=d,
                norm_b_squared=norm.closed_form ** 2,
                intensity=intensity,
                ratio=norm.closed_form ** 2 / intensity,
            )
        )
    return SweepResult(
        rows=tuple(rows), depth=depth, seed=seed, template=dict(template)
    )
