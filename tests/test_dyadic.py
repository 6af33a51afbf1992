"""Exact-norm identities for the cell-averaging operator."""

import math

import numpy as np
import pytest

from bergman_carleson import dyadic
from bergman_carleson.disc_geometry import DyadicIndex, top_half_area, top_half_partition
from bergman_carleson.dyadic import (
    CellFunction,
    DyadicNormResult,
    apply_B,
    dimension_sweep,
    dyadic_norm,
    equivalence_report,
    norm_squared_mu,
)
from bergman_carleson.errors import PowerIterationError
from bergman_carleson.measures import (
    MatrixMeasure,
    atom_measure,
    identity_density_measure,
    partition_masses,
    random_measure,
)


def _single_cell(idx, vec):
    vec = np.asarray(vec, dtype=complex)
    return CellFunction(dimension=vec.shape[0], depth=idx.level, values={idx: vec})


class TestCellFunction:
    def test_norm_squared_is_weighted_sum(self):
        idx = DyadicIndex(2, 3)
        f = _single_cell(idx, [3.0, 4.0])
        assert f.norm_squared() == pytest.approx(25.0 * top_half_area(2), rel=1e-15)

    def test_missing_cells_are_zero(self):
        f = _single_cell(DyadicIndex(1, 0), [1.0])
        assert np.all(f.value(DyadicIndex(1, 1)) == 0.0)

    def test_depth_and_shape_validation(self):
        with pytest.raises(ValueError):
            CellFunction(1, 1, {DyadicIndex(3, 0): np.ones(1)})
        with pytest.raises(ValueError):
            CellFunction(2, 3, {DyadicIndex(3, 0): np.ones(3)})


class TestApplyB:
    def test_step_functions_are_fixed_points(self):
        f = _single_cell(DyadicIndex(2, 1), [1.0, 2.0])
        assert apply_B(f, 5) is f

    def test_constant_field_averages_to_itself(self):
        g = apply_B(lambda z: np.stack([np.ones_like(z), 2j * np.ones_like(z)], -1), 3)
        for idx in top_half_partition(3).cells:
            assert g.value(idx) == pytest.approx(np.array([1.0, 2j]), abs=1e-10)

    def test_contraction_on_seeded_polynomials(self):
        # Averaging never increases the plain-area norm.  The field norm
        # comes from monomial orthogonality, so only one side is quadrature.
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))

            def poly(z, c=coeffs):
                powers = np.stack([z**k for k in range(c.shape[0])], axis=-1)
                return powers @ c

            f = apply_B(poly, 3, tol=1e-9)
            field_norm2 = sum(
                float(np.vdot(coeffs[k], coeffs[k]).real) / (k + 1)
                for k in range(coeffs.shape[0])
            )
            assert f.norm_squared() <= field_norm2 + 1e-8


class TestNormSquaredMu:
    def test_single_cell_quadratic_form(self):
        mu = atom_measure(0.0, np.eye(1))
        idx = DyadicIndex(0, 0)
        f = _single_cell(idx, [2.0])
        # atom sits in the root cell, mass there is the full matrix
        assert norm_squared_mu(f, mu) == pytest.approx(4.0, abs=1e-12)

    def test_accepts_precomputed_masses(self):
        mu = identity_density_measure(2)
        masses = partition_masses(mu, 3)
        f = _single_cell(DyadicIndex(2, 0), [1.0, 1.0])
        direct = norm_squared_mu(f, mu)
        reused = norm_squared_mu(f, masses)
        assert reused == direct

    def test_rejects_shallow_masses(self):
        mu = identity_density_measure(1)
        masses = partition_masses(mu, 2)
        f = _single_cell(DyadicIndex(4, 0), [1.0])
        with pytest.raises(ValueError):
            norm_squared_mu(f, masses)


class TestDyadicNorm:
    def test_identity_density_has_unit_norm(self):
        result = dyadic_norm(identity_density_measure(2), 5)
        assert result.closed_form == pytest.approx(1.0, abs=1e-9)
        assert result.power_iteration == pytest.approx(1.0, abs=1e-9)

    def test_origin_atom_norm_two(self):
        result = dyadic_norm(atom_measure(0.0, np.eye(3)), 4)
        assert result.closed_form == pytest.approx(2.0, abs=1e-12)
        assert result.power_iteration == pytest.approx(2.0, abs=1e-12)
        assert result.argmax_cell == DyadicIndex(0, 0)

    def test_deep_atom_cell_ratio(self):
        # unit mass at radius 1 - 2^-5 lands in the level-5 band
        result = dyadic_norm(atom_measure(1.0 - 2.0**-5, np.eye(1)), 6)
        assert result.closed_form**2 == pytest.approx(131072.0 / 125.0, rel=1e-14)
        assert result.argmax_cell == DyadicIndex(5, 0)

    def test_routes_agree_on_random_measures(self):
        for seed in range(6):
            mu = random_measure(dim=3, seed=seed)
            result = dyadic_norm(mu, 5, seed=seed)
            assert result.relative_gap < 1e-6

    def test_result_carries_iteration_count(self):
        result = dyadic_norm(atom_measure(0.0, np.eye(1)), 2)
        assert isinstance(result, DyadicNormResult)
        assert 1 <= result.iterations <= 10_000

    def test_depth_mismatch_rejected(self):
        mu = identity_density_measure(1)
        masses = partition_masses(mu, 3)
        with pytest.raises(ValueError):
            dyadic_norm(mu, 4, masses=masses)

    def test_argmax_tie_goes_to_smallest_cell(self):
        # equal atoms in the level-2 arcs 3 and 1
        mu = MatrixMeasure(
            dimension=2,
            atoms=((0.5 - 0.6j, np.eye(2)), (-0.5 + 0.6j, np.eye(2))),
        )
        result = dyadic_norm(mu, 4)
        assert result.argmax_cell == DyadicIndex(2, 1)
        assert result.closed_form == math.sqrt(1.0 / top_half_area(2))

    def test_zero_norms_are_positive_zero(self):
        # an atom in a cell leaves the slivers empty; an atom beyond the
        # partition leaves every cell empty
        inner = dyadic_norm(atom_measure(0.5, np.eye(1)), 6)
        assert inner.residual_norm == 0.0
        assert math.copysign(1.0, inner.residual_norm) == 1.0
        outer = dyadic_norm(atom_measure(0.9999j, np.eye(1)), 6)
        assert outer.closed_form == 0.0
        assert math.copysign(1.0, outer.closed_form) == 1.0
        assert outer.residual_norm == 1.0


class TestSecondRoute:
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_near_tie_between_cells(self, eps):
        # top eigenvalues 1/A(T_1) and (1 - eps)/A(T_1) in two level-1 cells
        mu = MatrixMeasure(
            dimension=2,
            atoms=((0.6, np.eye(2)), (-0.6, np.diag([1.0, 1.0 - eps]))),
        )
        result = dyadic_norm(mu, 6)
        assert result.relative_gap < 1e-12
        assert result.closed_form == math.sqrt(1.0 / top_half_area(1))

    def test_zero_table_gives_positive_zero(self):
        result = dyadic_norm(MatrixMeasure(dimension=2), 4)
        assert result.power_iteration == 0.0
        assert math.copysign(1.0, result.power_iteration) == 1.0
        assert result.relative_gap == 0.0

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(dyadic, "LANCZOS_BUDGET", 2)
        with pytest.raises(PowerIterationError) as info:
            dyadic_norm(random_measure(dim=3, seed=1), 5)
        assert info.value.iterations == 2
        assert info.value.last_value > 0.0


class TestEquivalenceReport:
    def test_origin_atom_ratio_four(self):
        report = equivalence_report(atom_measure(0.0, np.eye(2)), 4)
        assert report.ratio_upper == pytest.approx(4.0, abs=1e-12)
        assert report.norm_b_squared == pytest.approx(4.0, abs=1e-12)
        assert report.intensity == pytest.approx(1.0, abs=1e-12)
        assert report.covering_slack >= -1e-12

    def test_deep_atom_ratio(self):
        report = equivalence_report(atom_measure(1.0 - 2.0**-5, np.eye(1)), 6)
        assert report.ratio_upper == pytest.approx(252.0 / 125.0, rel=1e-13)

    def test_identity_density_ratio_in_window(self):
        report = equivalence_report(identity_density_measure(2), 6)
        assert 1.0 - 1e-9 <= report.ratio_upper <= 4.0 + 1e-9
        assert report.covering_slack >= -1e-9

    def test_random_measures_stay_in_window(self):
        for seed in (3, 11, 29):
            mu = random_measure(dim=2, seed=seed)
            report = equivalence_report(mu, 6, seed=seed)
            assert report.ratio_upper >= 1.0 - 1e-9
            assert report.ratio_upper <= 4.0 + 1e-9
            assert report.covering_slack >= -1e-9

    def test_accepts_precomputed_masses(self):
        mu = random_measure(dim=2, seed=7)
        masses = partition_masses(mu, 5)
        assert equivalence_report(mu, 5, masses=masses) == equivalence_report(mu, 5)
        with pytest.raises(ValueError):
            equivalence_report(mu, 6, masses=masses)

    def test_alpha_matches_norm_squared(self):
        # the closed form IS the top-half intensity, exactly
        report = equivalence_report(random_measure(dim=2, seed=5), 5)
        assert report.alpha == pytest.approx(report.norm_b_squared, rel=1e-12)


class TestDimensionSweep:
    def test_lifted_atom_is_dimension_free(self):
        sweep = dimension_sweep(
            {"kind": "atom", "point": [0.5, 0.0], "scale": 1.0},
            dims=(1, 2, 4, 8, 16),
            depth=5,
            seed=1,
        )
        assert sweep.ratio_spread < 1e-12
        assert [row.dimension for row in sweep.rows] == [1, 2, 4, 8, 16]

    def test_lifted_density_is_dimension_free(self):
        sweep = dimension_sweep(
            {"kind": "radial_power_density", "exponent": 2.0, "scale": 0.7},
            dims=(1, 3, 9),
            depth=4,
            seed=2,
        )
        assert sweep.ratio_spread < 1e-10

    def test_template_must_be_scalar(self):
        with pytest.raises(ValueError):
            dimension_sweep({"kind": "identity_density", "dim": 2}, (1, 2), 3)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            dimension_sweep({"kind": "atom", "point": [0.0, 0.0], "scale": 1.0}, (), 3)
