"""Operator weights: averages over discs and squares, B2-type constants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergman_carleson.errors import DegenerateWeightError
from bergman_carleson.measures import random_unitary
from bergman_carleson.weights import (
    BlockWeight,
    DiagonalPowerWeight,
    IdentityWeight,
    ScalarPowerWeight,
    averaged_weight,
    b2_constant,
    default_h_grid,
    weight_from_descriptor,
)


class TestAveragedWeight:
    def test_identity_is_exact(self):
        avg = averaged_weight(IdentityWeight(3), 0.3 + 0.2j, 0.5)
        assert np.array_equal(avg, np.eye(3, dtype=complex))

    def test_linear_profile_at_origin(self):
        # mean of (1-|z|) over the centered disc of radius 1/2 is 2/3
        avg = averaged_weight(ScalarPowerWeight(1.0), 0j, 0.5)
        assert avg[0, 0].real == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_degenerate_average_rejected(self):
        w = ScalarPowerWeight(0.0, np.diag([1.0, 1e-15]))
        with pytest.raises(DegenerateWeightError):
            averaged_weight(w, 0j, 0.5)

    def test_comparability_within_moving_disc(self):
        # averages at nearby centers agree up to moderate constants
        w = ScalarPowerWeight(0.5)
        base = averaged_weight(w, 0.7 + 0j, 0.5)[0, 0].real
        for z in (0.75 + 0j, 0.7 + 0.1j, 0.62 - 0.05j):
            other = averaged_weight(w, z, 0.5)[0, 0].real
            assert 0.1 < other / base < 10.0


class TestB2Constant:
    def test_identity_exactly_one(self):
        assert b2_constant(IdentityWeight(2)) == 1.0

    def test_half_power_closed_form(self):
        # the default grid includes h=1, where the two whole-disc
        # averages are beta integrals: (8/15)*(8/3) = 64/45
        v = b2_constant(ScalarPowerWeight(0.5))
        assert v == pytest.approx(64.0 / 45.0, rel=1e-12)
        assert v >= 1.1547 - 1e-3

    def test_half_power_eta_one(self):
        v = b2_constant(ScalarPowerWeight(0.5), eta=1.0)
        assert v == pytest.approx(192.0 / 175.0, rel=1e-12)

    def test_near_critical_power_blows_up(self):
        v99 = b2_constant(ScalarPowerWeight(0.99))
        v50 = b2_constant(ScalarPowerWeight(0.5))
        assert v99 == pytest.approx(66.56015931839724, rel=1e-9)
        assert v99 > 10.0 * v50

    def test_diagonal_matches_scalar_and_unitary_invariance(self):
        plain = b2_constant(DiagonalPowerWeight([0.5, -0.5]))
        conj = b2_constant(
            DiagonalPowerWeight([0.5, -0.5], unitary=random_unitary(2, seed=7))
        )
        assert plain == pytest.approx(64.0 / 45.0, rel=1e-12)
        assert conj == pytest.approx(plain, rel=1e-12)

    def test_block_takes_worst_component(self):
        v = b2_constant(BlockWeight([ScalarPowerWeight(0.5), IdentityWeight(2)]))
        assert v == pytest.approx(64.0 / 45.0, rel=1e-12)

    def test_explicit_grids(self):
        w = ScalarPowerWeight(0.5)
        small = b2_constant(w, h_grid=[0.5, 0.25])
        assert 1.0 <= small < b2_constant(w)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            b2_constant(IdentityWeight(1), h_grid=[])
        with pytest.raises(ValueError):
            b2_constant(IdentityWeight(1), h_grid=[1.5])

    def test_heights_below_the_float_spacing_at_one(self):
        # the band 0 < 1-|z| < h is taken in exact u = 1-|z|: for
        # (1-|z|)**a the two averages multiply to 1/((1+a)(1-a)) + O(h),
        # 4/3 at a = 1/2, also where 1 - h rounds to 1
        w = ScalarPowerWeight(0.5)
        for h in (1e-14, 1e-17, 1e-200):
            assert b2_constant(w, h_grid=[h]) == pytest.approx(4.0 / 3.0, rel=1e-12)
        # the mass of (1-|z|)**0.5 underflows to zero: a degenerate average
        with pytest.raises(DegenerateWeightError, match="average of W over"):
            b2_constant(w, h_grid=[1e-300])

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=0.9))
    def test_always_at_least_one(self, a):
        # slack must cover the quadrature tolerance: near a=0 the true
        # value sits within 1e-8 of the lower bound 1 itself
        v = b2_constant(ScalarPowerWeight(a), h_grid=[1.0, 0.5, 0.25])
        assert v >= 1.0 - 1e-7


class TestMembership:
    def test_scalar_power_window(self):
        assert ScalarPowerWeight(0.5).b2_membership(0.0)
        assert not ScalarPowerWeight(1.5).b2_membership(0.0)
        assert ScalarPowerWeight(1.5).b2_membership(1.0)

    def test_diagonal_componentwise(self):
        assert DiagonalPowerWeight([0.5, -0.5]).b2_membership(0.0)
        assert not DiagonalPowerWeight([0.5, -1.2]).b2_membership(0.0)

    def test_field_without_terms_rejected(self):
        # a weight field is its terms: one without them cannot be built
        class Opaque(IdentityWeight):
            def field(self):
                return dataclasses.replace(super().field(), terms=None)

        with pytest.raises(ValueError, match="a field needs terms"):
            b2_constant(Opaque(1))

    def test_non_member_inverse_fails_integrability(self):
        # exponent 1.5 makes the inverse power non-integrable at eta=0
        with pytest.raises(ValueError):
            b2_constant(ScalarPowerWeight(1.5))


class TestDescriptors:
    def test_roundtrip(self):
        for w in (
            IdentityWeight(2),
            ScalarPowerWeight(0.5, np.diag([1.0, 2.0])),
            DiagonalPowerWeight([0.3, -0.3], unitary=random_unitary(2, seed=5)),
            BlockWeight([IdentityWeight(1), ScalarPowerWeight(-0.25)]),
        ):
            desc = w.descriptor
            rebuilt = weight_from_descriptor(desc)
            assert rebuilt.dim == w.dim and rebuilt.descriptor == desc
            z = np.array([0.2 + 0.1j, -0.5j])
            assert np.allclose(
                rebuilt.field().evaluator(z), w.field().evaluator(z), atol=1e-12
            )

    def test_scalar_power_matrix_survives(self):
        w = ScalarPowerWeight(0.5, np.array([[2.0, 0.5], [0.5, 1.0]]))
        rebuilt = weight_from_descriptor(
            {**w.descriptor, "matrix": [[2.0, 0.5], [0.5, 1.0]]}
        )
        z = np.array([0.1 + 0.1j])
        assert np.allclose(rebuilt.field().evaluator(z), w.field().evaluator(z))

    def test_seeded_unitary_descriptor(self):
        w = weight_from_descriptor(
            {"kind": "diagonal_power", "exponents": [0.4, -0.4], "seed": 11}
        )
        assert w.unitary is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            weight_from_descriptor({"kind": "nope"})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="exponnent"):
            weight_from_descriptor({"kind": "scalar_power", "exponent": 0.5, "exponnent": 2})


class TestGridDefaults:
    def test_h_grid_contents(self):
        grid = default_h_grid()
        assert grid[0] == 1.0
        assert 2.0 ** -10 in grid
        assert 0.9 in grid and 0.75 in grid
        assert all(0.0 < h <= 1.0 for h in grid)
        # each h is exact as a radius too, so the band in u and the annulus
        # 1-h < |z| < 1 have the same bounds
        assert all(1.0 - (1.0 - h) == h for h in grid)
