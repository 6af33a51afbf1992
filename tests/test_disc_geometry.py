"""Dyadic decomposition of the disc: indices, regions, areas, membership."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bergman_carleson.disc_geometry import (
    CarlesonSquare,
    DyadicIndex,
    HyperbolicDisc,
    TildeDisc,
    TopHalf,
    WholeDisc,
    carleson_square_area,
    contains,
    level_rows,
    locate_top_half,
    region_area,
    row_areas,
    row_index,
    square_to_top_half_ratio,
    top_half_area,
    top_half_cover,
    top_half_partition,
)

TWO_PI = 2.0 * math.pi


class TestDyadicIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicIndex(-1, 0)
        with pytest.raises(ValueError):
            DyadicIndex(2, 4)
        with pytest.raises(ValueError):
            DyadicIndex(0, 1)

    def test_arc_bounds(self):
        lo, hi = DyadicIndex(2, 3).theta_bounds()
        assert lo == pytest.approx(3 * math.pi / 2)
        assert hi == pytest.approx(TWO_PI)

    def test_children_cover_parent_arc(self):
        parent = DyadicIndex(3, 5)
        kids = parent.children()
        assert [k.position for k in kids] == [10, 11]
        assert kids[0].theta_bounds()[0] == parent.theta_bounds()[0]
        assert kids[1].theta_bounds()[1] == pytest.approx(parent.theta_bounds()[1])
        assert all(k.parent() == parent for k in kids)

    def test_root_has_no_parent(self):
        assert DyadicIndex(0, 0).parent() is None


class TestAreas:
    # Closed forms checked against exact rational arithmetic.
    def test_square_area_values(self):
        assert carleson_square_area(0) == 1.0
        assert carleson_square_area(1) == float(Fraction(3, 8))
        assert carleson_square_area(5) == float(Fraction(63, 32768))

    def test_top_half_area_values(self):
        assert top_half_area(0) == 0.25
        assert top_half_area(1) == float(Fraction(5, 32))
        assert top_half_area(5) == float(Fraction(125, 131072))

    def test_ratio_range(self):
        assert square_to_top_half_ratio(0) == 4.0
        for n in range(1, 40):
            ratio = square_to_top_half_ratio(n)
            assert 2.0 < ratio < 4.0
        # ratio decreases toward 2 as the cells shrink
        assert square_to_top_half_ratio(30) == pytest.approx(2.0, abs=1e-8)

    def test_ratio_consistent_with_areas(self):
        for n in range(12):
            assert square_to_top_half_ratio(n) == pytest.approx(
                carleson_square_area(n) / top_half_area(n), rel=1e-14
            )

    def test_level_telescoping(self):
        # cells down to level n tile the disc of radius 1 - 2**-(n+1),
        # so the cumulative area telescopes to that disc's area
        total = 0.0
        for n in range(13):
            total += 2 ** n * top_half_area(n)
            expect = (1.0 - 2.0 ** -(n + 1)) ** 2
            assert total == pytest.approx(expect, abs=1e-15)

    def test_region_area_dispatch(self):
        assert region_area(WholeDisc()) == 1.0
        assert region_area(CarlesonSquare(DyadicIndex(1, 0))) == 0.375
        assert region_area(TopHalf(DyadicIndex(0, 0))) == 0.25
        assert region_area(HyperbolicDisc(0.5 + 0j, 0.5)) == pytest.approx(1 / 16)
        with pytest.raises(ValueError):
            region_area(TildeDisc(0.5 + 0j, 0.5))


class TestMembership:
    def test_origin(self):
        assert contains(TopHalf(DyadicIndex(0, 0)), 0j)
        assert contains(CarlesonSquare(DyadicIndex(0, 0)), 0j)

    def test_negative_real_axis_lands_in_second_arc(self):
        # exactly -0.6: angle pi belongs to the arc [pi, 2 pi)
        z = complex(-0.6, 0.0)
        assert contains(CarlesonSquare(DyadicIndex(1, 1)), z)
        assert not contains(CarlesonSquare(DyadicIndex(1, 0)), z)
        assert contains(TopHalf(DyadicIndex(1, 1)), z)

    def test_half_open_radius(self):
        # |z| = 1/2 sits in the level-1 band, not the level-0 one
        z = 0.5 + 0j
        assert contains(TopHalf(DyadicIndex(1, 0)), z)
        assert not contains(TopHalf(DyadicIndex(0, 0)), z)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            contains(WholeDisc(), 1.0 + 0j)
        with pytest.raises(ValueError):
            locate_top_half(math.cos(0.3) + 1j * math.sin(0.3))

    def test_locate_examples(self):
        assert locate_top_half(0j) == DyadicIndex(0, 0)
        assert locate_top_half(0.5 + 0j) == DyadicIndex(1, 0)
        z = 0.96875 * np.exp(0.1j)
        assert locate_top_half(complex(z)) == DyadicIndex(5, 0)

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    )
    def test_locate_agrees_with_contains(self, r, theta):
        z = r * complex(math.cos(theta), math.sin(theta))
        cell = locate_top_half(z)
        assert contains(TopHalf(cell), z)
        assert contains(CarlesonSquare(cell), z)

    def test_hyperbolic_membership(self):
        d = HyperbolicDisc(0.5 + 0j, 0.5)
        assert contains(d, 0.5 + 0j)
        assert contains(d, 0.6 + 0.2j)
        assert not contains(d, 0.5 + 0.26j)

    def test_tilde_membership_shrinks_toward_boundary(self):
        t = TildeDisc(0.5 + 0j, 0.5)
        # tolerance at the center scales with 1 - |z|
        assert contains(t, 0.55 + 0j)
        assert not contains(t, 0.85 + 0j)


class TestPartition:
    def test_counts(self):
        assert len(top_half_partition(2).cells) == 7
        assert len(top_half_partition(8).cells) == 511

    def test_depth8_residual(self):
        part = top_half_partition(8)
        assert part.residual_inner_radius == 1.0 - 2.0 ** -9
        assert part.residual_area == pytest.approx(3.902435302734375e-3, abs=1e-18)
        assert part.covered_area + part.residual_area == pytest.approx(1.0, abs=1e-15)

    def test_cells_are_level_ordered_and_unique(self):
        part = top_half_partition(4)
        cells = part.cells
        assert cells == tuple(sorted(cells))
        assert len(set(cells)) == len(cells)

    def test_partition_is_disjoint_on_samples(self):
        part = top_half_partition(3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(200, 2))
        for x, y in pts:
            z = complex(x, y)
            if abs(z) >= part.residual_inner_radius:
                continue
            hits = [c for c in part.cells if contains(TopHalf(c), z)]
            assert len(hits) == 1

    def test_level_cells(self):
        # the children of one level, in order, are the next level
        cells = [DyadicIndex(3, k) for k in range(2 ** 3)]
        parents = [DyadicIndex(2, k) for k in range(2 ** 2)]
        assert [kid for idx in parents for kid in idx.children()] == cells
        assert len(cells) == 8
        assert cells[0] == DyadicIndex(3, 0)
        assert cells[-1] == DyadicIndex(3, 7)


class TestLevelMajorRows:
    def test_rows_follow_the_partition_order(self):
        cells = top_half_partition(5).cells
        assert [idx.row for idx in cells] == list(range(len(cells)))
        assert [row_index(row) for row in range(len(cells))] == list(cells)
        assert DyadicIndex(3, 5).row == 12
        assert row_index(np.int64(12)) == DyadicIndex(3, 5)
        assert type(row_index(np.int64(12)).position) is int

    def test_level_rows_slice_one_level(self):
        cells = top_half_partition(4).cells
        for level in range(5):
            whole_level = [DyadicIndex(level, k) for k in range(2 ** level)]
            assert list(cells[level_rows(level)]) == whole_level
        assert level_rows(4).stop == len(cells)

    def test_row_areas(self):
        cells = top_half_partition(6).cells
        tops = row_areas(6)
        squares = row_areas(6, carleson_square_area)
        assert tops.shape == squares.shape == (len(cells),)
        for idx, top, square in zip(cells, tops, squares):
            assert top == top_half_area(idx.level)
            assert square == carleson_square_area(idx.level)


class TestCover:
    def test_central_disc_cover(self):
        cover = top_half_cover(HyperbolicDisc(0j, 0.5))
        assert DyadicIndex(0, 0) in cover
        assert set(cover) <= {
            DyadicIndex(0, 0),
            DyadicIndex(1, 0),
            DyadicIndex(1, 1),
        }

    def test_cover_contains_sampled_points(self):
        disc = HyperbolicDisc(0.9 + 0j, 0.5)
        cover = set(top_half_cover(disc))
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(500):
            s = disc.euclidean_radius * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, TWO_PI)
            z = disc.center + s * complex(math.cos(phi), math.sin(phi))
            if abs(z) >= 1.0:
                continue
            hits += 1
            assert locate_top_half(z) in cover
        assert hits > 400

    def test_cover_is_sorted(self):
        cover = top_half_cover(HyperbolicDisc(0.7j, 0.4))
        assert list(cover) == sorted(cover)
