"""Matrix measures: region masses, partition tables, intensities."""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bergman_carleson import linalg
from bergman_carleson.dyadic import equivalence_report

from bergman_carleson.disc_geometry import (
    CarlesonSquare,
    DyadicIndex,
    TopHalf,
    WholeDisc,
    carleson_square_area,
    level_rows,
    row_index,
    top_half_area,
)
from bergman_carleson.errors import NotPSDError
from bergman_carleson.experiments import _level_curve
from bergman_carleson.linalg import op_norm, op_norms
from bergman_carleson.measures import (
    MatrixMeasure,
    PartitionMasses,
    atom_measure,
    carleson_intensity,
    conjugate_measure,
    identity_density_measure,
    lift_scalar_measure,
    measure_from_descriptor,
    measure_of,
    partition_masses,
    random_measure,
    random_unitary,
)
from bergman_carleson.quadrature import integrate_values


class TestConstruction:
    def test_rejects_atom_outside_disc(self):
        with pytest.raises(ValueError):
            atom_measure(1.0 + 0j, np.eye(2))

    def test_rejects_non_psd_atom(self):
        with pytest.raises(NotPSDError):
            atom_measure(0.3 + 0j, np.diag([1.0, -1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MatrixMeasure(dimension=3, atoms=((0.1 + 0j, np.eye(2)),))


class TestMeasureOf:
    def test_identity_density_on_square(self):
        mu = identity_density_measure(2)
        got = measure_of(mu, CarlesonSquare(DyadicIndex(1, 0)))
        assert np.allclose(got, 0.375 * np.eye(2), atol=1e-10)

    def test_atom_in_top_half(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        mu = atom_measure(0j, p)
        got = measure_of(mu, TopHalf(DyadicIndex(0, 0)))
        assert np.array_equal(got, p.astype(complex))

    def test_atom_on_angle_pi_boundary(self):
        # the point at angle exactly pi belongs to the arc [pi, 2 pi);
        # build it as complex(-0.6, 0) so the angle is exact
        p = np.array([[1.0]])
        mu = atom_measure(complex(-0.6, 0.0), p)
        assert measure_of(mu, CarlesonSquare(DyadicIndex(1, 0)))[0, 0] == 0.0
        assert measure_of(mu, CarlesonSquare(DyadicIndex(1, 1)))[0, 0] == 1.0

    def test_atoms_plus_density_sum(self):
        mu = random_measure(2, seed=11)
        total = measure_of(mu, WholeDisc())
        atom_part = sum(m for _, m in mu.atoms)
        assert op_norm(total - atom_part) > 0  # density contributes
        for _, m in mu.atoms:
            # each atom is dominated by the total in the PSD order
            evals = np.linalg.eigvalsh(total - m)
            assert evals[0] > -1e-10


class TestPartitionMasses:
    def test_additivity_to_whole_disc(self):
        mu = random_measure(2, seed=5)
        masses = partition_masses(mu, depth=5)
        total = np.zeros((2, 2), dtype=complex)
        for v in masses.cells:
            total = total + v
        total = total + masses.residual_matrix
        direct = measure_of(mu, WholeDisc())
        assert np.allclose(total, direct, atol=1e-8)

    def test_root_square_is_whole_disc(self):
        mu = random_measure(3, seed=9, num_atoms=2)
        masses = partition_masses(mu, depth=4)
        squares = masses.square_masses()
        direct = measure_of(mu, WholeDisc())
        assert np.allclose(squares[DyadicIndex(0, 0).row], direct, atol=1e-8)

    def test_square_assembly_matches_direct_integral(self):
        # cross-check the bottom-up assembly against a direct region
        # integral for one mid-level square
        mu = random_measure(2, seed=21, num_atoms=4)
        masses = partition_masses(mu, depth=6)
        squares = masses.square_masses()
        idx = DyadicIndex(2, 1)
        direct = measure_of(mu, CarlesonSquare(idx))
        assert np.allclose(squares[idx.row], direct, atol=1e-7)

    def test_deep_atom_lands_in_sliver(self):
        mu = atom_measure(0.999 + 0j, np.eye(1))
        masses = partition_masses(mu, depth=4)
        assert all(op_norm(v) == 0.0 for v in masses.cells)
        assert masses.residual_norm == 1.0

    def test_radial_and_generic_density_routes_agree(self):
        # the 2-D engine on the density's evaluator, cell by cell; a
        # sliver under a level-3 arc is two level-4 Carleson squares
        mu = random_measure(2, seed=3, num_atoms=0)
        a = partition_masses(mu, depth=3)

        def engine(region):
            return integrate_values(mu.density.evaluator, (2, 2), region)

        for row in range(len(a.cells)):
            assert np.allclose(a.cells[row], engine(TopHalf(row_index(row))), atol=1e-7)
        for k in range(len(a.slivers)):
            halves = [engine(CarlesonSquare(DyadicIndex(4, j))) for j in (2 * k, 2 * k + 1)]
            assert np.allclose(a.slivers[k], halves[0] + halves[1], atol=1e-7)

    def test_deep_power_density_masses_are_exact(self):
        # (1-|z|)**2.87 to depth 9 against the closed form of a band,
        # 2[u**(q+1)/(q+1) - u**(q+2)/(q+2)] between its ends in u = 1-|z|;
        # a band quadrature with an absolute tolerance of 1e-8 missed the
        # sliver by 0.48 and so the level-9 squares by 3.3e-2, relative
        q, depth = 2.87, 9
        mu = measure_from_descriptor({"kind": "radial_power_density", "exponent": q})
        masses = partition_masses(mu, depth)

        def primitive(u):
            return u ** (q + 1.0) / (q + 1.0) - u ** (q + 2.0) / (q + 2.0)

        squares = masses.square_masses()
        for level in range(depth + 1):
            u = 2.0**-level
            cell = 2.0 * (primitive(u) - primitive(0.5 * u)) * u
            rows = level_rows(level)
            np.testing.assert_allclose(masses.cells[rows, 0, 0].real, cell, rtol=1e-13)
            square = 2.0 * primitive(u) * u
            np.testing.assert_allclose(squares[rows, 0, 0].real, square, rtol=1e-13)
        sliver = 2.0 * primitive(2.0 ** -(depth + 1)) * 2.0**-depth
        np.testing.assert_allclose(masses.slivers[:, 0, 0].real, sliver, rtol=1e-13)

    @pytest.mark.parametrize(
        "template",
        [
            {"kind": "radial_power_density", "exponent": 1.5},
            {"kind": "random", "dim": 1, "seed": 2},
        ],
        ids=["power-term", "function-term"],
    )
    def test_lifted_masses_never_evaluate_the_density(self, template):
        # d = 64: the masses come from the terms, the scalar masses times
        # the projector u u*, without one 64x64 value at a node
        scalar = measure_from_descriptor(template)
        lifted = lift_scalar_measure(scalar, 64, seed=3)

        def refuse(z):
            raise AssertionError("the density evaluator was called")

        blind = MatrixMeasure(
            dimension=64,
            atoms=lifted.atoms,
            density=dataclasses.replace(lifted.density, evaluator=refuse),
        )
        masses = partition_masses(blind, depth=6)
        base = partition_masses(scalar, depth=6)
        u = random_unitary(64, seed=3)[:, :1]
        projector = u @ u.conj().T
        if scalar.atoms:
            # atoms and density add in another order in d = 1
            np.testing.assert_allclose(masses.cells, base.cells * projector, rtol=1e-14)
            np.testing.assert_allclose(masses.slivers, base.slivers * projector, rtol=1e-14)
        else:
            assert np.array_equal(masses.cells, base.cells * projector)
            assert np.array_equal(masses.slivers, base.slivers * projector)


class TestCachedNorms:
    def test_cached_norms_match_direct_solves(self):
        masses = partition_masses(random_measure(3, seed=8), depth=5)
        for cached, direct in (
            (masses.cell_norms, op_norms(masses.cells)),
            (masses.square_norms, op_norms(masses.square_masses())),
        ):
            assert [float.hex(v) for v in cached] == [float.hex(v) for v in direct]
        assert float.hex(masses.residual_norm) == float.hex(op_norm(masses.residual_matrix))

    @pytest.mark.parametrize("d", [4, 1])
    def test_residual_matrix_is_the_sequential_sum(self, d):
        # d = 1 leaves the sliver axis as the only long one, where a plain
        # np.add.reduce would sum pairwise and move the last bits
        rng = np.random.default_rng(12)
        depth = 12
        slivers = rng.normal(size=(2**depth, d, d)) + 1j * rng.normal(size=(2**depth, d, d))
        cells = np.zeros((level_rows(depth).stop, d, d), dtype=complex)
        masses = PartitionMasses(dimension=d, depth=depth, cells=cells, slivers=slivers)
        total = np.zeros((d, d), dtype=complex)
        for sliver in slivers:
            total = total + sliver
        residual = masses.residual_matrix
        assert residual.dtype == total.dtype and residual.shape == total.shape
        assert [float.hex(v) for v in residual.view(float).ravel()] == [
            float.hex(v) for v in total.view(float).ravel()
        ]

    def test_one_solve_per_table_matrix(self, monkeypatch):
        mu = random_measure(2, seed=5)
        masses = partition_masses(mu, depth=5)
        calls = []

        def counted(stack):
            calls.append(("cells" if stack is masses.cells else "other", len(stack)))
            return op_norms(stack)

        # every module-level binding, so op_norm's own call is counted too
        for name, module in list(sys.modules.items()):
            if name.startswith("bergman_carleson") and hasattr(module, "op_norms"):
                monkeypatch.setattr(module, "op_norms", counted)
        assert linalg.op_norms is counted
        equivalence_report(mu, 5, masses=masses)
        _level_curve(masses)
        rows = len(masses.cells)
        assert sorted(calls) == [("cells", rows), ("other", 1), ("other", rows)]

    def test_tables_are_read_only(self):
        masses = partition_masses(random_measure(2, seed=5), depth=3)
        with pytest.raises(ValueError):
            masses.cells[0] += np.eye(2)
        with pytest.raises(ValueError):
            masses.slivers[0] += np.eye(2)
        with pytest.raises(ValueError):
            masses.cell_norms[0] = 0.0


class TestIntensity:
    def test_identity_density(self):
        report = carleson_intensity(identity_density_measure(2), 6)
        assert report.intensity == pytest.approx(1.0, abs=1e-9)
        assert report.tophalf_intensity == pytest.approx(1.0, abs=1e-9)
        assert report.residual_norm == pytest.approx(
            1.0 - (1.0 - 2.0 ** -7) ** 2, abs=1e-9
        )

    def test_origin_atom(self):
        report = carleson_intensity(atom_measure(0j, np.eye(3)), 4)
        assert report.intensity == 1.0
        assert report.tophalf_intensity == 4.0
        assert report.intensity_cell == DyadicIndex(0, 0)
        assert report.tophalf_cell == DyadicIndex(0, 0)

    def test_deep_atom_closed_forms(self):
        # atom at radius 1 - 2**-5 on the positive real axis; the
        # deepest containing square has level 5
        mu = atom_measure(1.0 - 2.0 ** -5 + 0j, np.eye(1))
        report = carleson_intensity(mu, 6)
        assert report.intensity == pytest.approx(float(Fraction(32768, 63)), rel=1e-14)
        assert report.tophalf_intensity == pytest.approx(1048.576, rel=1e-14)
        assert report.intensity_cell == DyadicIndex(5, 0)

    def test_monotone_in_depth(self):
        mu = random_measure(2, seed=13)
        values = [carleson_intensity(mu, n).intensity for n in (2, 4, 6)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_intensity_stabilizes_for_bounded_density(self):
        mu = identity_density_measure(1)
        a = carleson_intensity(mu, 6).intensity
        b = carleson_intensity(mu, 8).intensity
        assert a == pytest.approx(b, abs=1e-6)

    def test_argmax_ties_go_to_smallest_cell(self):
        # equal atoms in the level-2 arcs 1 and 3, listed in reverse order:
        # every maximum is attained twice and must resolve to (2, 1)
        mu = MatrixMeasure(
            dimension=1,
            atoms=((0.5 - 0.6j, np.eye(1)), (-0.5 + 0.6j, np.eye(1))),
        )
        report = carleson_intensity(mu, 4)
        assert report.intensity_cell == DyadicIndex(2, 1)
        assert report.tophalf_cell == DyadicIndex(2, 1)
        assert report.intensity == 1.0 / carleson_square_area(2)
        assert report.tophalf_intensity == 1.0 / top_half_area(2)

    def test_subadditivity_over_partition(self):
        # triangle inequality across the exact square assembly
        mu = random_measure(2, seed=17, num_atoms=5)
        masses = partition_masses(mu, depth=6)
        squares = masses.square_masses()
        for level in range(7):
            for k in range(2 ** level):
                idx = DyadicIndex(level, k)
                bound = 0.0
                stack = [idx]
                while stack:
                    cur = stack.pop()
                    bound += op_norm(masses.cells[cur.row])
                    if cur.level < 6:
                        stack.extend(cur.children())
                    else:
                        bound += op_norm(masses.slivers[cur.position])
                assert op_norm(squares[idx.row]) <= bound + 1e-10


class TestUnitaryInvariance:
    def test_conjugation_preserves_intensities(self):
        mu = random_measure(3, seed=23)
        u = random_unitary(3, seed=29)
        a = carleson_intensity(mu, 5)
        b = carleson_intensity(conjugate_measure(mu, u), 5)
        assert a.intensity == pytest.approx(b.intensity, rel=1e-10)
        assert a.tophalf_intensity == pytest.approx(b.tophalf_intensity, rel=1e-10)

    def test_lift_preserves_intensities(self):
        scalar = random_measure(1, seed=31)
        lifted = lift_scalar_measure(scalar, 8, seed=37)
        a = carleson_intensity(scalar, 5)
        b = carleson_intensity(lifted, 5)
        assert a.intensity == pytest.approx(b.intensity, rel=1e-12)
        assert a.tophalf_intensity == pytest.approx(b.tophalf_intensity, rel=1e-12)

    def test_random_unitary_is_unitary_and_deterministic(self):
        u = random_unitary(4, seed=1)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert np.array_equal(u, random_unitary(4, seed=1))


class TestDescriptors:
    def test_random_roundtrip(self):
        mu = random_measure(2, seed=41, num_atoms=2)
        rebuilt = measure_from_descriptor(mu.descriptor)
        assert rebuilt.dimension == 2
        for (z1, m1), (z2, m2) in zip(mu.atoms, rebuilt.atoms):
            assert z1 == z2
            assert np.array_equal(m1, m2)

    def test_named_kinds(self):
        mu = measure_from_descriptor({"kind": "identity_density", "dim": 3})
        assert mu.dimension == 3 and mu.has_density
        mu = measure_from_descriptor({"kind": "atom", "point": [0.5, 0.0], "dim": 2})
        assert mu.atoms[0][0] == 0.5 + 0j
        mu = measure_from_descriptor(
            {"kind": "radial_power_density", "exponent": 1.0, "dim": 1}
        )
        got = measure_of(mu, WholeDisc())
        assert got[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize(
        "desc, reason",
        [
            ({"kind": "radial_power_density", "exponent": True}, "exponent must be a finite number"),
            ({"kind": "radial_power_density", "exponent": "0.5"}, "exponent must be a finite number"),
            ({"kind": "radial_power_density", "exponent": -math.inf}, "exponent must be a finite number"),
            ({"kind": "atom", "point": [0.5, math.nan]}, "point must be a finite number"),
            ({"kind": "random", "dim": 1, "annulus": [0.2, math.nan]}, "annulus must be a finite number"),
            ({"kind": "random", "dim": 1, "atom_scale": math.inf}, "atom_scale must be a finite number"),
            ({"kind": "atom", "point": [0.5, 0.0], "matrix": [[math.nan]]}, "entries must be finite"),
            ({"kind": "atom", "point": [0.5, 0.0], "matrix": [[[1.0, math.inf]]]}, "entries must be finite"),
        ],
        ids=[
            "bool-exponent", "string-exponent", "infinite-exponent", "nan-point",
            "nan-annulus", "infinite-atom-scale", "nan-matrix", "infinite-imaginary-part",
        ],
    )
    def test_non_finite_or_non_numeric_values_rejected(self, desc, reason):
        with pytest.raises(ValueError, match=reason):
            measure_from_descriptor(desc)

    def test_library_descriptors_roundtrip(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        power = measure_from_descriptor({"kind": "radial_power_density", "exponent": 1.5})
        z = np.array([0.2 + 0.1j, -0.5j, 0.9])
        for mu in (
            atom_measure(0.5 - 0.25j, np.eye(2)),
            atom_measure(0.5 - 0.25j, g @ g.conj().T),
            identity_density_measure(3),
            power,
            random_measure(2, seed=41, num_atoms=2),
            lift_scalar_measure(power, 4, seed=7),
            lift_scalar_measure(random_measure(1, seed=5), 3, seed=2),
        ):
            rebuilt = measure_from_descriptor(mu.descriptor)
            assert rebuilt.descriptor == mu.descriptor
            assert len(rebuilt.atoms) == len(mu.atoms)
            for (z1, m1), (z2, m2) in zip(mu.atoms, rebuilt.atoms):
                assert z1 == z2 and np.array_equal(m1, m2)
            if mu.density is not None:
                assert np.array_equal(rebuilt.density.evaluator(z), mu.density.evaluator(z))

    def test_random_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            random_measure(0, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            measure_from_descriptor({"kind": "mystery"})
