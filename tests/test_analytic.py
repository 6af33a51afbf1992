"""Closed-form norms, derivative exactness, and the grid diagnostics."""

import math

import numpy as np
import pytest

from bergman_carleson.analytic import (
    EmbeddingProblem,
    GridReport,
    KernelFunction,
    OperatorPoly,
    VectorPoly,
    condition_constant,
    default_dictionary,
    default_lambda_grid,
    derivative,
    dictionary_sup,
    embedding_ratio,
    growth_exponent,
    necessity_lower_bound,
    seminorm2,
    weighted_norm2,
    _generic_quadratic_norm,
    _grid_report,
    _scalar_envelope_matrix,
)
from bergman_carleson.errors import DegenerateWeightError
from bergman_carleson.quadrature import (
    MatrixField,
    constant_field,
    identity_field,
    radial_power_field,
)
from bergman_carleson.weights import IdentityWeight, ScalarPowerWeight, weight_from_descriptor


def _e(dim, i=0):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


class TestDerivatives:
    def test_monomial_derivative(self):
        f = VectorPoly.monomial(2, _e(1))
        g = f.derivative()
        z = np.array([0.3 + 0.1j, -0.2j])
        assert np.allclose(g(z), 2.0 * z[:, None] * _e(1))

    def test_kernel_derivative_at_origin(self):
        lam = 0.4 + 0.3j
        k = KernelFunction(center=lam, exponent=0.0, direction=_e(2, 1))
        value = k.derivative()(np.array([0.0 + 0.0j]))[0]
        assert np.allclose(value, 2.0 * np.conj(lam) * _e(2, 1), atol=1e-15)

    def test_kernel_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        k = KernelFunction(center=0.5 - 0.2j, exponent=1.5, direction=_e(1))
        h = 1e-5
        for n in (1, 2):
            dk = k.derivative(n)
            base = k.derivative(n - 1)
            z = 0.8 * np.sqrt(rng.uniform(size=50)) * np.exp(
                2j * np.pi * rng.uniform(size=50)
            )
            numeric = (base(z + h) - base(z - h)) / (2.0 * h)
            exact = dk(z)
            assert np.max(np.abs(numeric - exact) / np.abs(exact)) < 1e-6

    def test_derivative_order_composes(self):
        k = KernelFunction(center=0.3, exponent=1.0, direction=_e(1))
        assert k.derivative(2) == k.derivative().derivative()

    def test_operator_poly_derivative(self):
        sym = OperatorPoly.linear_identity(2)
        dsym = sym.derivative()
        z = np.array([0.1 + 0.2j])
        assert np.allclose(dsym(z)[0], np.eye(2))

    def test_constant_poly_derivative_is_zero(self):
        f = VectorPoly(1, np.array([[3.0 + 0j]]))
        assert not np.any(f.derivative()(np.array([0.5 + 0j])))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            VectorPoly(1, np.ones((300, 1), dtype=complex))

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            KernelFunction(center=1.0, exponent=0.0, direction=_e(1))
        with pytest.raises(ValueError):
            KernelFunction(center=0.0, exponent=0.0, direction=np.zeros(2))


class TestWeightedNorm:
    def test_constant_function(self):
        f = VectorPoly(2, np.array([[1.0, 2.0]], dtype=complex))
        assert weighted_norm2(f, IdentityWeight(2)) == pytest.approx(5.0, rel=1e-12)

    def test_monomials_against_identity(self):
        for m in (0, 1, 5, 64):
            f = VectorPoly.monomial(m, _e(1))
            assert weighted_norm2(f, IdentityWeight(1)) == pytest.approx(
                1.0 / (m + 1), rel=1e-12
            )

    def test_monomial_with_measure_parameter(self):
        # degree 1, eta 1: (eta+1) 2 B(4, 2) = 4/20
        f = VectorPoly.monomial(1, _e(1))
        assert weighted_norm2(f, IdentityWeight(1), eta=1.0) == pytest.approx(
            0.2, rel=1e-12
        )

    def test_kernel_closed_form(self):
        # exponent 0 makes the squared norm 1/(1-|lam|^2)^2
        k = KernelFunction(center=0.5, exponent=0.0, direction=_e(1))
        assert weighted_norm2(k, IdentityWeight(1)) == pytest.approx(
            16.0 / 9.0, rel=1e-13
        )

    def test_kernel_series_against_generic_quadrature(self):
        k = KernelFunction(center=0.6 + 0.2j, exponent=1.0, direction=_e(1))
        series = weighted_norm2(k, IdentityWeight(1))
        # a function term takes the generic 2-D route
        opaque = MatrixField(1, terms=((np.ones_like, np.eye(1)),))
        two_dim = weighted_norm2(k, opaque, tol=1e-9)
        assert two_dim == pytest.approx(series, rel=1e-7)

    def test_kernel_norm_growth_rate(self):
        # identity weight, exponent gamma: squared norm ~ gap^(-2 gamma - 2)
        gamma = 1.0
        pairs = []
        for j in range(4, 10):
            gap = 2.0**-j
            k = KernelFunction(center=1.0 - gap, exponent=gamma, direction=_e(1))
            pairs.append((gap, weighted_norm2(k, IdentityWeight(1))))
        assert growth_exponent(pairs) == pytest.approx(-(2 * gamma + 2), abs=0.1)

    def test_polynomial_cross_terms_cancel(self):
        # radial weights keep monomial components orthogonal
        f = VectorPoly(1, np.array([[1.0], [2.0], [0.5j]], dtype=complex))
        expected = 1.0 / 1 + 4.0 / 2 + 0.25 / 3
        assert weighted_norm2(f, IdentityWeight(1)) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        f = VectorPoly.monomial(1, _e(2))
        with pytest.raises(ValueError):
            weighted_norm2(f, IdentityWeight(3))

    @staticmethod
    def power_moment(k, s, eta):
        # ||z**k||**2 against (1-|z|)**s dA_eta: (eta+1) * 2 B(2k+2, eta+s+1)
        q = eta + s
        beta = math.gamma(2 * k + 2) * math.gamma(q + 1.0) / math.gamma(2 * k + q + 3.0)
        return (eta + 1.0) * 2.0 * beta

    def test_plain_callable_takes_the_engine(self):
        # neither a VectorPoly nor a kernel: the 2-D engine on the evaluator
        field = radial_power_field(0.5, np.eye(1))
        value = weighted_norm2(lambda z: z[:, None] ** 2, field, eta=0.5, tol=1e-12)
        assert value == pytest.approx(self.power_moment(2, 0.5, 0.5), rel=1e-10)

    def test_function_term_falls_back_to_the_engine(self):
        # the moment recurrence needs power terms; the same profile written
        # as a function term goes through the 2-D engine
        profile = lambda r: (1.0 - r) ** 0.5  # noqa: E731
        field = MatrixField(1, singular_exponent=0.5, terms=((profile, np.eye(1)),))
        f = VectorPoly.monomial(3, _e(1))
        expected = self.power_moment(3, 0.5, 0.0)
        assert weighted_norm2(f, field, tol=1e-12) == pytest.approx(expected, rel=1e-10)
        power = radial_power_field(0.5, np.eye(1))
        assert weighted_norm2(f, power) == pytest.approx(expected, rel=1e-13)


TILTED = {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11}


class TestTiltedWeight:
    """A weight of two power terms takes the closed forms term by term."""

    def test_deep_kernel_norm(self):
        # the 2-D route ran out of budget here
        k = KernelFunction(center=1.0 - 2.0**-10, exponent=1.0, direction=np.array([0.6, 0.8j]))
        value = weighted_norm2(k, weight_from_descriptor(TILTED))
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize(
        "f",
        [
            KernelFunction(center=0.5 + 0.2j, exponent=1.0, direction=np.array([0.6, 0.8j])),
            VectorPoly(2, np.array([[1.0, 0.5j], [0.3, 2.0], [0.0, 1.0]])),
        ],
        ids=["kernel", "poly"],
    )
    def test_closed_forms_match_the_generic_route(self, f):
        field = weight_from_descriptor(TILTED).field()
        generic = _generic_quadratic_norm(f, field, 0.0, 1e-12)
        assert weighted_norm2(f, field) == pytest.approx(generic, rel=1e-10)

    def test_envelope_matrix_matches_kernel_rays(self):
        field = weight_from_descriptor(TILTED).field()
        base = KernelFunction(center=0.5 + 0.2j, exponent=1.0, direction=_e(2))
        envelope = _scalar_envelope_matrix(base, field, 0.0)
        for e in (_e(2), _e(2, 1), np.array([0.6, 0.8j])):
            ray = KernelFunction(center=base.center, exponent=1.0, direction=e)
            generic = _generic_quadratic_norm(ray, field, 0.0, 1e-12)
            assert np.real(np.vdot(e, envelope @ e)) == pytest.approx(generic, rel=1e-10)

    def test_small_dictionary_sup(self):
        problem = EmbeddingProblem(symbol=identity_field(2), weight=weight_from_descriptor(TILTED))
        dictionary = default_dictionary(
            2, 1.0, lambda_grid=[0.5, 1.0 - 2.0**-10], max_degree=4, num_random_directions=1
        )
        assert math.isfinite(dictionary_sup(problem, dictionary))


class TestSeminorm:
    def test_monomial_against_squared_gap_weight(self):
        field = radial_power_field(2.0, np.eye(1))
        for m in (1, 2, 8):
            f = VectorPoly.monomial(m, _e(1))
            expected = 2.0 * m / ((2 * m + 1) * (2 * m + 2))
            assert seminorm2(f, field, 1) == pytest.approx(expected, rel=1e-12)

    def test_constants_have_zero_seminorm(self):
        f = VectorPoly(1, np.array([[1.0 + 0j]]))
        assert seminorm2(f, identity_field(1), 1) == 0.0

    def test_order_zero_is_plain_norm(self):
        f = VectorPoly.monomial(1, _e(1))
        assert seminorm2(f, identity_field(1), 0) == pytest.approx(0.5, rel=1e-12)


class TestConditionConstant:
    def test_identity_problem_is_flat(self):
        problem = EmbeddingProblem(symbol=identity_field(2), weight=IdentityWeight(2))
        grid = [0j, 0.5 + 0j, 0.9j, -0.75 + 0.1j]
        report = condition_constant(problem, grid)
        assert isinstance(report, GridReport)
        for _, value in report.values:
            assert value == pytest.approx(1.0, abs=1e-12)
        assert report.sup_value == pytest.approx(1.0, abs=1e-12)

    def test_derivative_order_problem_is_bounded(self):
        problem = EmbeddingProblem(
            symbol=radial_power_field(2.0, np.eye(1)),
            weight=IdentityWeight(1),
            order=1,
        )
        grid = [1.0 - 2.0**-j + 0j for j in range(1, 8)]
        report = condition_constant(problem, grid)
        values = [v for _, v in report.values]
        assert max(values) / min(values) < 3.0

    def test_singular_symbol_growth_rate(self):
        problem = EmbeddingProblem(
            symbol=radial_power_field(-0.5, np.eye(1)), weight=IdentityWeight(1)
        )
        grid = [1.0 - 2.0**-j + 0j for j in range(3, 9)]
        report = condition_constant(problem, grid)
        pairs = [(1.0 - abs(lam), v) for lam, v in report.values]
        assert growth_exponent(pairs) == pytest.approx(-0.5, abs=0.1)

    def test_degenerate_weight_raises(self):
        rank_deficient = constant_field(np.diag([1.0, 0.0]))
        problem = EmbeddingProblem(symbol=identity_field(2), weight=rank_deficient)
        with pytest.raises(DegenerateWeightError):
            condition_constant(problem, [0.3 + 0j])

    def test_empty_grid_rejected(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        with pytest.raises(ValueError):
            condition_constant(problem, [])

    def test_grid_ties_go_to_the_earliest_point(self):
        grid = [0.1 + 0j, 0.5 + 0j, 0.2j, 0j]
        report = _grid_report(list(zip(grid, [2.0, 3.0, 3.0, 1.0])))
        assert report.sup_value == 3.0 and report.argmax_point == 0.5 + 0j
        assert [lam for lam, _ in report.values] == grid


class TestEmbeddingRatio:
    def test_linear_monomial_identity_problem(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        f = VectorPoly.monomial(1, _e(1))
        assert embedding_ratio(f, problem) == pytest.approx(1.0, rel=1e-12)

    def test_monomial_family_closed_form(self):
        problem = EmbeddingProblem(
            symbol=radial_power_field(2.0, np.eye(1)),
            weight=IdentityWeight(1),
            order=1,
        )
        for m, expected in ((1, 1.0 / 3.0), (2, 2.0 / 5.0)):
            f = VectorPoly.monomial(m, _e(1))
            assert embedding_ratio(f, problem) == pytest.approx(expected, rel=1e-12)
            assert embedding_ratio(f, problem) <= 0.5

    def test_zero_function_rejected(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        f = VectorPoly(1, np.zeros((1, 1), dtype=complex))
        with pytest.raises(ValueError):
            embedding_ratio(f, problem)

    def test_dictionary_sup_identity_problem(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        dictionary = default_dictionary(
            1, gamma=1.0, lambda_grid=[0.3 + 0j, 0.5j], max_degree=5
        )
        assert dictionary_sup(problem, dictionary) == pytest.approx(1.0, rel=1e-10)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        symbol_matrix = g @ g.conj().T + 0.5 * np.eye(2)
        w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        weight_matrix = w @ w.conj().T + 0.5 * np.eye(2)
        unitary = np.linalg.qr(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        )[0]
        coeffs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))

        plain = embedding_ratio(
            VectorPoly(2, coeffs),
            EmbeddingProblem(
                symbol=constant_field(symbol_matrix),
                weight=constant_field(weight_matrix),
                order=1,
            ),
        )
        rotated = embedding_ratio(
            VectorPoly(2, coeffs @ unitary.T),
            EmbeddingProblem(
                symbol=constant_field(unitary @ symbol_matrix @ unitary.conj().T),
                weight=constant_field(unitary @ weight_matrix @ unitary.conj().T),
                order=1,
            ),
        )
        assert rotated == pytest.approx(plain, rel=1e-10)


class TestNecessityLowerBound:
    def test_identity_problem_gives_one(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        value = necessity_lower_bound(problem, gamma=1.0, lam=0.5)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_growth_exponents_agree(self):
        problem = EmbeddingProblem(
            symbol=radial_power_field(-0.5, np.eye(1)), weight=IdentityWeight(1)
        )
        grid = [1.0 - 2.0**-j + 0j for j in range(3, 9)]
        condition_slope = growth_exponent(
            [(1.0 - abs(lam), v) for lam, v in condition_constant(problem, grid).values]
        )
        necessity_slope = growth_exponent(
            [
                (1.0 - abs(lam), necessity_lower_bound(problem, 1.0, lam))
                for lam in grid
            ]
        )
        assert abs(condition_slope - necessity_slope) < 0.2

    def test_small_center_rejected(self):
        problem = EmbeddingProblem(symbol=identity_field(1), weight=IdentityWeight(1))
        with pytest.raises(ValueError):
            necessity_lower_bound(problem, gamma=1.0, lam=0.05)

    def test_gamma_below_eta_rejected(self):
        problem = EmbeddingProblem(
            symbol=identity_field(1), weight=IdentityWeight(1), eta=1.0
        )
        with pytest.raises(ValueError):
            necessity_lower_bound(problem, gamma=0.5, lam=0.5)

    def test_field_without_power_terms_rejected(self):
        opaque = MatrixField(1, terms=((np.ones_like, np.eye(1)),))
        problem = EmbeddingProblem(symbol=identity_field(1), weight=opaque)
        with pytest.raises(ValueError, match="power terms"):
            necessity_lower_bound(problem, gamma=1.0, lam=0.5)

    def test_matrix_weight_reduces_to_eigenproblem(self):
        weight = ScalarPowerWeight(0.0, np.diag([1.0, 4.0]))
        problem = EmbeddingProblem(symbol=identity_field(2), weight=weight)
        value = necessity_lower_bound(problem, gamma=1.0, lam=0.5)
        # best direction is the small-weight axis
        assert value == pytest.approx(1.0, rel=1e-12)


class TestLambdaGrid:
    def test_grid_contents(self):
        grid = default_lambda_grid(ratio=0.5)
        assert grid[0] == 0j
        assert complex(1.0 - 2.0**-10) in grid
        assert len(grid) == len(set(grid))

    def test_radial_section_is_real(self):
        grid = default_lambda_grid()
        section = [lam for lam in grid if lam.imag == 0.0 and lam.real >= 0.0]
        assert len(section) >= 11


class TestGrowthExponent:
    def test_pure_power_recovered(self):
        pairs = [(2.0**-j, (2.0**-j) ** -0.5) for j in range(1, 8)]
        assert growth_exponent(pairs) == pytest.approx(-0.5, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            growth_exponent([(0.5, 1.0)])
