"""Positive matrix-valued measures on the disc.

A measure is a finite list of PSD atoms plus an optional PSD density
integrated against the plain normalized area.  The module computes
region masses, the exact masses of all dyadic top halves and Carleson
squares down to a chosen depth, and the two Carleson-type intensities
(over squares, and over top halves).

Tables are level-major arrays: top half (n, k) sits at row
``DyadicIndex(n, k).row``.  Square masses are assembled bottom-up from
the top-half partition plus one boundary sliver per deepest arc, so they
are exact relative to the computed cell masses: no region is ever
integrated twice and the partition additivity identity holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Mapping

import numpy as np

from .disc_geometry import (
    DyadicIndex,
    Region,
    TopHalf,
    carleson_square_area,
    contains,
    level_rows,
    locate_top_half,
    row_areas,
    row_index,
)
from .linalg import assert_psd, hermitize, op_norm, op_norms
from .quadrature import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    MatrixField,
    PLAIN,
    constant_field,
    integrate,
    integrate_annulus,
    integrate_polar_rect,
    radial_power_field,
)


@dataclass(frozen=True)
class MatrixMeasure:
    """Finite PSD atoms plus an optional PSD density field.

    ``descriptor`` is an optional serializable record of how the
    measure was constructed; it travels into experiment reports but
    does not participate in equality.
    """

    dimension: int
    atoms: tuple[tuple[complex, np.ndarray], ...] = ()
    density: MatrixField | None = None
    descriptor: dict | None = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        cleaned = []
        for point, matrix in self.atoms:
            z = complex(point)
            if not abs(z) < 1.0:
                raise ValueError(f"atom point {z} is not in the open disc")
            m = np.array(matrix, dtype=complex)
            if m.shape != (self.dimension, self.dimension):
                raise ValueError(
                    f"atom matrix shape {m.shape} does not match dimension "
                    f"{self.dimension}"
                )
            assert_psd(m, label="atom matrix")
            cleaned.append((z, hermitize(m)))
        object.__setattr__(self, "atoms", tuple(cleaned))
        if self.density is not None and self.density.dim != self.dimension:
            raise ValueError("density dimension does not match the measure")

    @property
    def has_density(self) -> bool:
        return self.density is not None


def atom_measure(point: complex, matrix: np.ndarray) -> MatrixMeasure:
    m = np.asarray(matrix, dtype=complex)
    return MatrixMeasure(
        dimension=m.shape[0],
        atoms=((point, m),),
        descriptor={
            "kind": "atom",
            "point": [float(np.real(point)), float(np.imag(point))],
            "dim": int(m.shape[0]),
        },
    )


def density_measure(field: MatrixField, descriptor: dict | None = None) -> MatrixMeasure:
    return MatrixMeasure(dimension=field.dim, density=field, descriptor=descriptor)


def identity_density_measure(dim: int) -> MatrixMeasure:
    return density_measure(
        constant_field(np.eye(dim)), {"kind": "identity_density", "dim": dim}
    )


def conjugate_measure(mu: MatrixMeasure, unitary: np.ndarray) -> MatrixMeasure:
    """Push a measure through a constant unitary: atoms and density map
    M -> U M U*."""
    u = np.asarray(unitary, dtype=complex)
    atoms = tuple((z, u @ m @ u.conj().T) for z, m in mu.atoms)
    density = None
    if mu.density is not None:
        inner = mu.density

        def evaluator(z: np.ndarray) -> np.ndarray:
            return np.einsum("ab,mbc,dc->mad", u, inner.evaluator(z), u.conj())

        density = MatrixField(
            dim=inner.dim,
            evaluator=evaluator,
            singular_exponent=inner.singular_exponent,
            radial=inner.radial,
        )
    return MatrixMeasure(dimension=mu.dimension, atoms=atoms, density=density)


def measure_of(
    mu: MatrixMeasure,
    region: Region,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Mass of a region: atoms by half-open membership plus the density
    integral."""
    total = np.zeros((mu.dimension, mu.dimension), dtype=complex)
    for point, matrix in mu.atoms:
        if contains(region, point):
            total = total + matrix
    if mu.density is not None:
        total = total + integrate(mu.density, region, PLAIN, tol=tol, budget=budget)
    return hermitize(total)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PartitionMasses:
    """Masses of every top-half cell to a depth, plus boundary slivers.

    ``cells[T.row]`` holds the mass of top half T, shape
    (2**(depth+1) - 1, d, d); ``slivers[k]`` holds the mass of the annulus
    1 - 2**-(depth+1) <= |z| < 1 over the level-``depth`` arc k, shape
    (2**depth, d, d).  Cells and slivers together tile the disc, so their
    total is the full mass of the measure.

    Both arrays are read-only, so the spectral norms derived from them
    (``cell_norms``, ``square_norms``, ``residual_norm``) are solved once
    per table and cached, read-only as well.
    """

    dimension: int
    depth: int
    cells: np.ndarray
    slivers: np.ndarray

    def __post_init__(self):
        _read_only(self.cells)
        _read_only(self.slivers)

    @property
    def residual_matrix(self) -> np.ndarray:
        total = np.zeros((self.dimension, self.dimension), dtype=complex)
        for sliver in self.slivers:
            total = total + sliver
        return total

    @cached_property
    def residual_norm(self) -> float:
        return op_norm(self.residual_matrix)

    @cached_property
    def cell_norms(self) -> np.ndarray:
        """Spectral norm of every cell mass, in the rows of ``cells``."""
        return _read_only(op_norms(self.cells))

    @cached_property
    def square_norms(self) -> np.ndarray:
        """Spectral norm of every Carleson square mass, in the rows of ``cells``."""
        return _read_only(op_norms(self.square_masses()))

    def square_masses(self) -> np.ndarray:
        """Exact mass of every Carleson square with level <= depth, in the
        rows of ``cells``.

        Assembled bottom-up: a deepest square is its top half plus its
        sliver; shallower squares add their left, then right child square.
        """
        squares = np.empty_like(self.cells)
        deepest = level_rows(self.depth)
        np.add(self.cells[deepest], self.slivers, out=squares[deepest])
        for level in range(self.depth - 1, -1, -1):
            rows, below = level_rows(level), squares[level_rows(level + 1)]
            np.add(self.cells[rows], below[0::2], out=squares[rows])
            np.add(squares[rows], below[1::2], out=squares[rows])
        return squares


def partition_masses(
    mu: MatrixMeasure,
    depth: int,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> PartitionMasses:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    d = mu.dimension
    cells = np.zeros((level_rows(depth).stop, d, d), dtype=complex)
    slivers = np.zeros((2 ** depth, d, d), dtype=complex)

    for point, matrix in mu.atoms:
        idx = locate_top_half(point)
        if idx.level <= depth:
            cells[idx.row] += matrix
        else:
            # atom beyond the partition: charge the sliver under its arc
            slivers[idx.position >> (idx.level - depth)] += matrix

    if mu.density is not None:
        inner_radius = 1.0 - 2.0 ** -(depth + 1)
        if mu.density.radial:
            # one band integral per level, shared by all cells of the level
            for level in range(depth + 1):
                cells[level_rows(level)] += integrate(
                    mu.density, TopHalf(DyadicIndex(level, 0)), PLAIN,
                    tol=tol, budget=budget,
                )
            slivers += integrate_annulus(
                mu.density, inner_radius, 1.0, PLAIN, tol=tol, budget=budget
            ) * 2.0 ** -depth
        else:
            for row in range(len(cells)):
                cells[row] += integrate(
                    mu.density, TopHalf(row_index(row)), PLAIN, tol=tol, budget=budget
                )
            for k in range(len(slivers)):
                lo, hi = DyadicIndex(depth, k).theta_bounds()
                slivers[k] += integrate_polar_rect(
                    mu.density, inner_radius, 1.0, lo, hi, PLAIN,
                    tol=tol, budget=budget,
                )

    return PartitionMasses(dimension=d, depth=depth, cells=cells, slivers=slivers)


@dataclass(frozen=True)
class IntensityReport:
    """Carleson intensity over squares and its top-half counterpart.

    ``intensity`` is the max over squares with level <= depth of
    ||mass(Q)|| / A(Q); ``tophalf_intensity`` is the same over cells.
    Argmax ties go to the smallest (level, position).
    """

    intensity: float
    tophalf_intensity: float
    intensity_cell: DyadicIndex
    tophalf_cell: DyadicIndex
    depth: int
    residual_norm: float


def carleson_intensity(
    mu: MatrixMeasure,
    max_depth: int,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    masses: PartitionMasses | None = None,
) -> IntensityReport:
    """Sup of normalized square masses over all levels up to max_depth.

    A precomputed ``masses`` table may be passed to share work with the
    dyadic norm computation; it must have depth == max_depth.
    """
    if masses is None:
        masses = partition_masses(mu, max_depth, tol=tol, budget=budget)
    elif masses.depth != max_depth:
        raise ValueError("precomputed masses were built for a different depth")

    squares = masses.square_norms / row_areas(max_depth, carleson_square_area)
    cells = masses.cell_norms / row_areas(max_depth)
    best_q, best_t = int(np.argmax(squares)), int(np.argmax(cells))
    return IntensityReport(
        intensity=float(squares[best_q]),
        tophalf_intensity=float(cells[best_t]),
        intensity_cell=row_index(best_q),
        tophalf_cell=row_index(best_t),
        depth=max_depth,
        residual_norm=masses.residual_norm,
    )


# ---------------------------------------------------------------------------
# seeded generators


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish unitary via QR with a fixed phase convention."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()


def random_psd(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(g @ g.conj().T) * (scale / (2.0 * dim))


def random_measure(
    dim: int,
    seed: int = 0,
    num_atoms: int = 3,
    annulus: tuple[float, float] = (0.2, 0.9),
    with_density: bool = True,
    atom_scale: float = 1.0,
) -> MatrixMeasure:
    """Seeded measure: atoms uniform in an annulus, matrices G G*.

    The optional density is const + const*(1-|z|)**p times a constant
    PSD matrix, with nonnegative coefficients.  Its radial profile is
    non-increasing toward the boundary, which keeps the finite-depth
    square masses faithful to the full ones and makes the two-sided
    intensity bracket testable at moderate depth.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    lo, hi = annulus
    if not 0.0 <= lo < hi < 1.0:
        raise ValueError("annulus must satisfy 0 <= lo < hi < 1")
    rng = np.random.default_rng(seed)
    atoms = []
    for _ in range(num_atoms):
        radius = rng.uniform(lo, hi)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        point = radius * complex(math.cos(angle), math.sin(angle))
        atoms.append((point, random_psd(dim, rng, scale=atom_scale)))
    density = None
    if with_density:
        c0 = rng.uniform(0.1, 1.0)
        c1 = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 3.0)
        base = random_psd(dim, rng)

        def evaluator(z: np.ndarray) -> np.ndarray:
            prof = c0 + c1 * (1.0 - np.abs(z)) ** p
            return prof[:, None, None] * base

        density = MatrixField(dim=dim, evaluator=evaluator, radial=True)
    return MatrixMeasure(
        dimension=dim,
        atoms=tuple(atoms),
        density=density,
        descriptor={
            "kind": "random",
            "dim": dim,
            "seed": seed,
            "num_atoms": num_atoms,
            "annulus": [lo, hi],
            "with_density": with_density,
            "atom_scale": atom_scale,
        },
    )


def lift_scalar_measure(scalar: MatrixMeasure, dim: int, seed: int) -> MatrixMeasure:
    """Embed a one-dimensional measure into dimension ``dim``.

    Every scalar coefficient c becomes c * u u*, with u the first column
    of a seeded unitary.  Operator norms of all masses are unchanged, so
    intensities and embedding norms are exactly dimension-independent;
    the matrices themselves are genuinely non-diagonal.
    """
    if scalar.dimension != 1:
        raise ValueError("lift expects a one-dimensional template measure")
    u = random_unitary(dim, seed)[:, :1]
    projector = u @ u.conj().T
    atoms = tuple(
        (z, complex(m[0, 0]).real * projector) for z, m in scalar.atoms
    )
    density = None
    if scalar.density is not None:
        inner = scalar.density

        def evaluator(z: np.ndarray) -> np.ndarray:
            prof = inner.evaluator(z)[:, 0, 0]
            return prof[:, None, None] * projector

        density = MatrixField(
            dim=dim,
            evaluator=evaluator,
            singular_exponent=inner.singular_exponent,
            radial=inner.radial,
        )
    return MatrixMeasure(
        dimension=dim,
        atoms=atoms,
        density=density,
        descriptor={
            "kind": "lifted",
            "dim": dim,
            "seed": seed,
            "template": scalar.descriptor,
        },
    )


def measure_from_descriptor(desc: Mapping) -> MatrixMeasure:
    """Rebuild a measure from a serializable record.

    Known kinds: identity_density, atom (optionally scaled identity or
    an explicit matrix), radial_power_density, random.
    """
    kind = desc.get("kind")
    if kind == "identity_density":
        return identity_density_measure(int(desc["dim"]))
    if kind == "atom":
        re_part, im_part = desc["point"]
        point = complex(float(re_part), float(im_part))
        dim = int(desc.get("dim", 1))
        if "matrix" in desc:
            matrix = np.array(desc["matrix"], dtype=complex)
        else:
            matrix = np.eye(dim) * float(desc.get("scale", 1.0))
        return atom_measure(point, matrix)
    if kind == "radial_power_density":
        dim = int(desc.get("dim", 1))
        exponent = float(desc["exponent"])
        scale = float(desc.get("scale", 1.0))
        field = radial_power_field(exponent, scale * np.eye(dim))
        return density_measure(field, descriptor=dict(desc))
    if kind == "random":
        return random_measure(
            dim=int(desc["dim"]),
            seed=int(desc.get("seed", 0)),
            num_atoms=int(desc.get("num_atoms", 3)),
            annulus=tuple(desc.get("annulus", (0.2, 0.9))),
            with_density=bool(desc.get("with_density", True)),
            atom_scale=float(desc.get("atom_scale", 1.0)),
        )
    raise ValueError(f"unknown measure descriptor kind: {kind!r}")
