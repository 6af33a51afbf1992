"""Dyadic decomposition of the unit disc.

Dyadic arcs of the circle, the Carleson squares sitting over them, the
top halves of those squares, and hyperbolic discs.  All areas are
normalized so the full disc has area one.  The top halves tile the disc,
which makes them the cells of every truncated sum in this package; any
truncation to a finite depth leaves a boundary annulus whose size is
reported explicitly rather than silently dropped.

Conventions are half open throughout: an arc at level n, position k
spans angles [2*pi*k/2**n, 2*pi*(k+1)/2**n); a Carleson square is half
open at its inner radius, a top half at its outer radius.  Every point
of the open disc therefore lies in exactly one top half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

TWO_PI = 2.0 * math.pi

#: Deepest dyadic level.  Areas are closed forms in h = 2**-n and
#: quadrature takes a region's band in exact u = 1 - |z|, so both hold in
#: double precision at every level up to this one.
MAX_LEVEL = 60


@dataclass(frozen=True, order=True)
class DyadicIndex:
    """Address (level, position) of a dyadic arc of the unit circle."""

    level: int
    position: int

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {self.level}")
        if not 0 <= self.position < 2 ** self.level:
            raise ValueError(
                f"position {self.position} out of range at level {self.level}"
            )

    @property
    def row(self) -> int:
        """Row 2**level - 1 + position of the cell in a level-major table."""
        return 2 ** self.level - 1 + self.position

    def theta_bounds(self) -> tuple[float, float]:
        """Half-open angular interval [lo, hi) spanned by the arc."""
        w = TWO_PI * 2.0 ** -self.level
        return self.position * w, (self.position + 1) * w

    def children(self) -> tuple["DyadicIndex", "DyadicIndex"]:
        """The two arcs of the next level whose union is this arc."""
        return (
            DyadicIndex(self.level + 1, 2 * self.position),
            DyadicIndex(self.level + 1, 2 * self.position + 1),
        )

    def parent(self) -> "DyadicIndex | None":
        if self.level == 0:
            return None
        return DyadicIndex(self.level - 1, self.position // 2)


def row_index(row: int) -> DyadicIndex:
    """The cell at a row of a level-major table; inverse of ``DyadicIndex.row``."""
    level = (int(row) + 1).bit_length() - 1
    return DyadicIndex(level, int(row) + 1 - 2 ** level)


def level_rows(level: int) -> slice:
    """The rows of one level in a level-major table, position increasing."""
    return slice(2 ** level - 1, 2 ** (level + 1) - 1)


@dataclass(frozen=True)
class WholeDisc:
    """The open unit disc."""


@dataclass(frozen=True)
class CarlesonSquare:
    """Points whose argument lies in the arc and whose modulus is >= 1 - 2**-level."""

    index: DyadicIndex


@dataclass(frozen=True)
class TopHalf:
    """The inner band of a Carleson square: 1 - 2**-n <= |z| < 1 - 2**-(n+1)."""

    index: DyadicIndex


def _check_center_and_ratio(region) -> None:
    if abs(region.center) >= 1.0:
        raise ValueError("center must lie in the open unit disc")
    if not 0.0 < region.ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {region.ratio}")


@dataclass(frozen=True)
class HyperbolicDisc:
    """Euclidean disc about ``center`` of radius ``ratio * (1 - |center|)``.

    Always contained in the unit disc because ratio < 1.
    """

    center: complex
    ratio: float

    __post_init__ = _check_center_and_ratio

    @property
    def euclidean_radius(self) -> float:
        return self.ratio * (1.0 - abs(self.center))


@dataclass(frozen=True)
class TildeDisc:
    """Region |z - center| < ratio * (1 - |z|); the point-adapted variant.

    Not a Euclidean disc.  It has no closed-form area; membership testing
    and quadrature are the supported operations.
    """

    center: complex
    ratio: float

    __post_init__ = _check_center_and_ratio

    @property
    def bounding_radius(self) -> float:
        """Radius of the smallest Euclidean disc about center containing the region."""
        return self.ratio * (1.0 - abs(self.center)) / (1.0 - self.ratio)


Region = Union[WholeDisc, CarlesonSquare, TopHalf, HyperbolicDisc, TildeDisc]


def carleson_square_area(level: int) -> float:
    """Normalized area 4**-n * (2 - 2**-n) of any level-n Carleson square."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    h = 2.0 ** -level
    return h * h * (2.0 - h)


def top_half_area(level: int) -> float:
    """Normalized area of any level-n top half.

    Equals 2**-n * 2**-(n+1) * (2 - 3*2**-(n+1)); one quarter of the
    square's area at level 0, approaching one half from below as the
    level grows.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    h = 2.0 ** -level
    return h * 0.5 * h * (2.0 - 1.5 * h)


def square_to_top_half_ratio(level: int) -> float:
    """Area ratio square/top-half at a level; lies in (2, 4], equal to 4 only at level 0."""
    h = 2.0 ** -level
    return 2.0 * (2.0 - h) / (2.0 - 1.5 * h)


def row_areas(depth: int, area: Callable[[int], float] = top_half_area) -> np.ndarray:
    """Per-row top-half areas of a level-major table (or ``area`` per level)."""
    return np.concatenate([np.full(2 ** n, area(n)) for n in range(depth + 1)])


def region_area(region: Region) -> float:
    """Exact normalized area of a region.

    TildeDisc is rejected: it has no closed form; integrate over it with
    the quadrature engine, which maps its exact boundary.
    """
    if isinstance(region, WholeDisc):
        return 1.0
    if isinstance(region, CarlesonSquare):
        return carleson_square_area(region.index.level)
    if isinstance(region, TopHalf):
        return top_half_area(region.index.level)
    if isinstance(region, HyperbolicDisc):
        rho = region.ratio * (1.0 - abs(region.center))
        return rho * rho
    if isinstance(region, TildeDisc):
        raise ValueError("TildeDisc has no closed-form area; use quadrature")
    raise TypeError(f"not a region: {region!r}")


def _angle(z: complex) -> float:
    """Argument of z folded into [0, 2*pi)."""
    t = math.atan2(z.imag, z.real)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # guard the wrap when atan2 rounds to -0
        t -= TWO_PI
    return t


def _arc_position(theta: float, level: int) -> int:
    k = int(theta * (2 ** level) / TWO_PI)
    return k % (2 ** level)


def contains(region: Region, z: complex) -> bool:
    """Membership test honoring the half-open boundary conventions."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open unit disc")
    if isinstance(region, WholeDisc):
        return True
    if isinstance(region, (CarlesonSquare, TopHalf)):
        n = region.index.level
        outer = 1.0 - 2.0 ** -(n + 1) if isinstance(region, TopHalf) else 1.0
        if not 1.0 - 2.0 ** -n <= abs(z) < outer:
            return False
        return _arc_position(_angle(z), n) == region.index.position
    if isinstance(region, HyperbolicDisc):
        return abs(z - region.center) < region.euclidean_radius
    if isinstance(region, TildeDisc):
        return abs(z - region.center) < region.ratio * (1.0 - abs(z))
    raise TypeError(f"not a region: {region!r}")


def locate_top_half(z: complex) -> DyadicIndex:
    """The unique top half containing a point of the open disc."""
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("point must lie in the open unit disc")
    n = 0
    while not r < 1.0 - 2.0 ** -(n + 1):
        n += 1
        if n > MAX_LEVEL:
            raise ValueError("point too close to the boundary to locate")
    return DyadicIndex(n, _arc_position(_angle(z), n))


@dataclass(frozen=True)
class TopHalfPartition:
    """All top halves of level <= max_depth plus the leftover boundary annulus."""

    max_depth: int
    cells: tuple[DyadicIndex, ...]
    residual_inner_radius: float

    @property
    def residual_area(self) -> float:
        return 1.0 - self.residual_inner_radius ** 2

    @property
    def covered_area(self) -> float:
        return self.residual_inner_radius ** 2


def top_half_partition(max_depth: int) -> TopHalfPartition:
    """Tiling of the disc minus a boundary annulus by top halves.

    Cells are listed in level-major order, cell i at row i, 2**(N+1) - 1
    of them in total; the residual annulus starts at radius 1 - 2**-(N+1).
    """
    if not 0 <= max_depth <= MAX_LEVEL:
        raise ValueError(f"max_depth must be in [0, {MAX_LEVEL}]")
    return TopHalfPartition(
        max_depth=max_depth,
        cells=tuple(map(row_index, range(2 ** (max_depth + 1) - 1))),
        residual_inner_radius=1.0 - 2.0 ** -(max_depth + 1),
    )


def top_half_cover(disc: HyperbolicDisc) -> list[DyadicIndex]:
    """A finite family of top halves covering a hyperbolic disc.

    Every point of the disc has modulus within [|c| - rho, |c| + rho] and,
    when the disc avoids the origin, argument within an explicit wedge, so
    the cover collects the arcs meeting that wedge on each level the
    modulus range touches.  Both the number of cells and the spread of
    their levels are bounded in terms of the ratio alone, which keeps the
    cell diameters comparable to the disc diameter.
    """
    c = abs(disc.center)
    rho = disc.euclidean_radius
    r_lo = max(0.0, c - rho)
    r_hi = c + rho  # < 1 since ratio < 1
    n_lo = locate_top_half(complex(r_lo, 0.0)).level
    n_hi = locate_top_half(complex(r_hi, 0.0)).level
    out: set[DyadicIndex] = set()
    for n in range(n_lo, n_hi + 1):
        size = 2 ** n
        if c <= rho:
            out.update(DyadicIndex(n, k) for k in range(size))
            continue
        half_width = math.asin(min(1.0, rho / c))
        theta = _angle(disc.center)
        k_lo = math.floor((theta - half_width) * size / TWO_PI)
        k_hi = math.floor((theta + half_width) * size / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            out.add(DyadicIndex(n, k % size))
    return sorted(out)
