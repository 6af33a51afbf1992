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
import numbers
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from typing import Mapping, Sequence

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
    DEFAULT_TOL,
    MatrixField,
    PLAIN,
    constant_field,
    integrate,
    integrate_band,
    radial_power_field,
)


#: The largest dimension a descriptor, a weight or a sweep may ask for.
MAX_DIM = 128
#: The most atoms a ``random`` measure descriptor may ask for.
MAX_ATOMS = 1000
#: The default of a descriptor key that must be given.
REQUIRED = object()


def _encode_matrix(m: np.ndarray) -> list:
    """JSON-safe encoding: nested [real, imag] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix(value, key: str) -> np.ndarray:
    """A square matrix of finite entries and side at most ``MAX_DIM``,
    as nested real lists or as the [real, imag] pairs of
    ``_encode_matrix``."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{key} entries must be finite")
    if arr.ndim == 3 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2 or not 0 < len(arr) == arr.shape[1] <= MAX_DIM:
        raise ValueError(f"{key} must be a square matrix of side 1 to {MAX_DIM}")
    return arr.astype(complex)


def _integer(value, key: str, lo: int, hi: int) -> int:
    """An integer in [lo, hi]; a float or bool raises ValueError instead
    of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{key} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _number(value, key: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A real number in the open interval (lo, hi), so never NaN or
    infinite; a bool or a non-number raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo < value < hi:
        raise ValueError(f"{key} must be a finite number in ({lo:g}, {hi:g}), got {value!r}")
    return float(value)


def _flag(value, key: str) -> bool:
    """A YAML true or false; no other value is read as a truth value."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _list(value, key: str, read, lo: int = 1, hi: int = MAX_DIM) -> list:
    """A list of lo to hi items, each read by ``read(item, key)``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or not lo <= len(value) <= hi:
        size = lo if lo == hi else f"{lo} to {hi}"
        raise ValueError(f"{key} must be a list of {size} items, got {value!r}")
    return [read(item, key) for item in value]


_dim = partial(_integer, lo=1, hi=MAX_DIM)
_seed = partial(_integer, lo=0, hi=2**64 - 1)
_pair = partial(_list, read=_number, lo=2, hi=2)


def _read(value, keys: Mapping, label: str) -> dict:
    """The values of a mapping read by ``keys``, which maps each key it
    may hold to ``(reader, default)``: a present key is read by
    ``reader(value, key)``, an absent one takes its default, is left out
    if that is None, and is missing if it is REQUIRED.  A key not in
    ``keys`` raises ValueError, so a misspelt option never falls back to
    its default silently."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{label} must be a mapping")
    unknown = sorted(str(key) for key in value.keys() - keys.keys())
    if unknown:
        raise ValueError(f"unknown {label} keys: {', '.join(unknown)}")
    values = {}
    for key, (reader, default) in keys.items():
        if key in value:
            values[key] = reader(value[key], key)
        elif default is REQUIRED:
            raise ValueError(f"missing {label} key: {key}")
        elif default is not None:
            values[key] = default
    return values


def _descriptor(desc, table: Mapping, label: str) -> tuple[str, dict]:
    """The kind of a descriptor, a key of ``table``, and its values, read
    by ``_read`` with the keys ``table[kind]``; ``kind`` is among them."""
    kind = desc.get("kind") if isinstance(desc, Mapping) else None
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {label} kind: {kind!r}")
    keys = {"kind": (lambda value, key: value, None), **table[kind]}
    return kind, _read(desc, keys, f"{kind} {label}")


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
        if self.density is not None:
            if self.density.dim != self.dimension:
                raise ValueError("density dimension does not match the measure")
            # a power profile (1-r)**s is >= 0, so a power term is PSD
            # exactly when its matrix is
            for profile, m in self.density.terms:
                if not callable(profile):
                    assert_psd(m, label="density term matrix")

    @property
    def has_density(self) -> bool:
        return self.density is not None


def atom_measure(point: complex, matrix: np.ndarray) -> MatrixMeasure:
    m = np.asarray(matrix, dtype=complex)
    descriptor = {
        "kind": "atom",
        "point": [float(np.real(point)), float(np.imag(point))],
        "dim": int(m.shape[0]),
    }
    if not np.array_equal(m, np.eye(m.shape[0])):
        descriptor["matrix"] = _encode_matrix(m)
    return MatrixMeasure(dimension=m.shape[0], atoms=((point, m),), descriptor=descriptor)


def density_measure(field: MatrixField, descriptor: dict | None = None) -> MatrixMeasure:
    return MatrixMeasure(dimension=field.dim, density=field, descriptor=descriptor)


def identity_density_measure(dim: int) -> MatrixMeasure:
    return density_measure(
        constant_field(np.eye(dim)), {"kind": "identity_density", "dim": dim}
    )


def _mapped_field(inner: MatrixField, dim: int, fn) -> MatrixField:
    """The field of dimension ``dim`` whose terms are those of ``inner``
    with every matrix M replaced by fn(M); its evaluator is derived from
    the mapped terms."""
    terms = tuple((profile, fn(m)) for profile, m in inner.terms)
    return MatrixField(dim, singular_exponent=inner.singular_exponent, terms=terms)


def conjugate_measure(mu: MatrixMeasure, unitary: np.ndarray) -> MatrixMeasure:
    """Push a measure through a constant unitary: atoms, density and its
    terms map M -> U M U*."""
    u = np.asarray(unitary, dtype=complex)
    atoms = tuple((z, u @ m @ u.conj().T) for z, m in mu.atoms)
    density = None
    if mu.density is not None:
        density = _mapped_field(mu.density, mu.dimension, lambda m: u @ m @ u.conj().T)
    return MatrixMeasure(dimension=mu.dimension, atoms=atoms, density=density)


def measure_of(
    mu: MatrixMeasure,
    region: Region,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Mass of a region: atoms by half-open membership plus the density
    integral."""
    total = np.zeros((mu.dimension, mu.dimension), dtype=complex)
    for point, matrix in mu.atoms:
        if contains(region, point):
            total = total + matrix
    if mu.density is not None:
        total = total + integrate(mu.density, region, PLAIN, tol=tol)
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
        # Row after row from 0.0, the order of a plain loop.  numpy sums
        # pairwise only along the fast axis; as (re, im) float pairs that
        # is never the sliver axis, not even for d = 1.
        pairs = self.slivers.view(float).reshape(len(self.slivers), -1)
        total = np.add.reduce(pairs, axis=0, initial=0.0)
        return total.view(complex).reshape(self.dimension, self.dimension)

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
        # a density is radial: one band integral per level, shared by all
        # cells of the level, and one for all slivers
        for level in range(depth + 1):
            cells[level_rows(level)] += integrate(
                mu.density, TopHalf(DyadicIndex(level, 0)), PLAIN, tol=tol
            )
        slivers += integrate_band(mu.density, 2.0 ** -(depth + 1), 0.0, PLAIN, tol) * 2.0 ** -depth

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
    masses: PartitionMasses | None = None,
) -> IntensityReport:
    """Sup of normalized square masses over all levels up to max_depth.

    A precomputed ``masses`` table may be passed to share work with the
    dyadic norm computation; it must have depth == max_depth.
    """
    if masses is None:
        masses = partition_masses(mu, max_depth, tol=tol)
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
    if num_atoms < 0:
        raise ValueError("num_atoms must be nonnegative")
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

        def profile(r: np.ndarray) -> np.ndarray:
            return c0 + c1 * (1.0 - r) ** p

        density = MatrixField(dim=dim, terms=((profile, base),))
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
        density = _mapped_field(scalar.density, dim, lambda m: m[0, 0].real * projector)
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


#: Each measure descriptor kind's keys besides ``kind``: key -> (reader, default).
MEASURE_KEYS = {
    "identity_density": {"dim": (_dim, REQUIRED)},
    "atom": {"point": (_pair, REQUIRED), "dim": (_dim, None), "matrix": (_matrix, None),
             "scale": (_number, None)},
    "radial_power_density": {"dim": (_dim, 1), "exponent": (_number, REQUIRED),
                             "scale": (_number, 1.0)},
    "random": {
        "dim": (_dim, REQUIRED), "seed": (_seed, 0),
        "num_atoms": (partial(_integer, lo=0, hi=MAX_ATOMS), 3), "annulus": (_pair, (0.2, 0.9)),
        "with_density": (_flag, True), "atom_scale": (_number, 1.0),
    },
    "lifted": {"dim": (_dim, REQUIRED), "seed": (_seed, REQUIRED),
               "template": (lambda value, key: measure_from_descriptor(value), REQUIRED)},
}


def measure_from_descriptor(desc: Mapping) -> MatrixMeasure:
    """Rebuild a measure from a serializable record.

    Known kinds and their keys: ``MEASURE_KEYS``.  An atom takes an
    explicit matrix or a scaled identity; a lifted measure rebuilds its
    one-dimensional template first.
    """
    kind, v = _descriptor(desc, MEASURE_KEYS, "measure")
    if kind == "identity_density":
        return identity_density_measure(v["dim"])
    if kind == "atom":
        if "matrix" in v:
            matrix = v["matrix"]
            if "scale" in v or v.get("dim", len(matrix)) != len(matrix):
                raise ValueError("an atom matrix takes no scale and sets the dim")
        else:
            matrix = np.eye(v.get("dim", 1)) * v.get("scale", 1.0)
        return atom_measure(complex(*v["point"]), matrix)
    if kind == "radial_power_density":
        field = radial_power_field(v["exponent"], v["scale"] * np.eye(v["dim"]))
        return density_measure(field, descriptor=dict(desc))
    if kind == "lifted":
        return lift_scalar_measure(v["template"], v["dim"], v["seed"])
    return random_measure(
        v["dim"], v["seed"], v["num_atoms"], v["annulus"], v["with_density"], v["atom_scale"]
    )
