"""Boundedness criterion for the integration operators."""

import numpy as np
import pytest

from bergman_carleson import volterra
from bergman_carleson.analytic import OperatorPoly, default_lambda_grid
from bergman_carleson.volterra import (
    ConsistencyReport,
    LogSymbol,
    apply_volterra,
    volterra_condition,
    volterra_consistency,
    volterra_integral_condition,
)
from bergman_carleson.weights import (
    DiagonalPowerWeight,
    IdentityWeight,
    averaged_weight,
    weight_from_descriptor,
)

RADIAL_GRID = tuple(1.0 - 2.0**-j + 0j for j in range(11))
# the grid and the tilted weight of scenarios/volterra_log.yaml
LOG_SCENARIO_GRID = default_lambda_grid(0.5, max_level=9, angles=8)


def _tilted_weight():
    return weight_from_descriptor(
        {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11}
    )


def _seeded_cubic() -> OperatorPoly:
    rng = np.random.default_rng(3)
    return OperatorPoly(2, rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))


@pytest.fixture(scope="module")
def tilted_averages():
    weight = _tilted_weight()
    return [averaged_weight(weight, lam, 0.5) for lam in LOG_SCENARIO_GRID]


class TestPointwiseCondition:
    def test_linear_symbol_identity_weight(self):
        report = volterra_condition(
            OperatorPoly.linear_identity(1), IdentityWeight(1), lambda_grid=RADIAL_GRID
        )
        # derivative is the identity, so the value is exactly the gap
        assert report.sup_value == 1.0
        assert report.argmax_point == 0j
        for lam, value in report.values:
            assert value == 1.0 - abs(lam)

    def test_log_symbol_on_the_radial_grid(self):
        report = volterra_condition(
            LogSymbol(), IdentityWeight(1), lambda_grid=RADIAL_GRID
        )
        # (1-lam)/|1-lam| is exactly 1 at dyadic real centers
        for _, value in report.values:
            assert 0.9 <= value <= 1.0
        assert report.sup_value == 1.0

    def test_weight_conjugation_changes_the_value(self):
        symbol = OperatorPoly(
            2, np.stack([np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])])
        )
        grid = (0.9 + 0j,)
        flat = volterra_condition(symbol, IdentityWeight(2), lambda_grid=grid)
        tilted = volterra_condition(
            symbol, DiagonalPowerWeight((0.5, -0.5)), lambda_grid=grid
        )
        assert np.isfinite(tilted.sup_value)
        assert abs(tilted.sup_value - flat.sup_value) > 0.05 * flat.sup_value

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(5)
        unitary = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        coeff = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        symbol = OperatorPoly(2, np.stack([np.zeros((2, 2), dtype=complex), coeff]))
        rotated = OperatorPoly(
            2,
            np.stack(
                [np.zeros((2, 2), dtype=complex), unitary @ coeff @ unitary.conj().T]
            ),
        )
        grid = (0.5 + 0j, 0.3j)
        plain = volterra_condition(symbol, IdentityWeight(2), lambda_grid=grid)
        conj = volterra_condition(rotated, IdentityWeight(2), lambda_grid=grid)
        for (_, a), (_, b) in zip(plain.values, conj.values):
            assert b == pytest.approx(a, rel=1e-10)

    def test_log_symbol_values_and_derivative(self):
        z = np.array([0.0, 0.5, -0.3 + 0.4j, 0.9j, 0.99 - 0.01j])
        values = LogSymbol(2)(z)
        expected = np.log(1.0 / (1.0 - z))
        assert values.shape == (5, 2, 2)
        np.testing.assert_allclose(values[:, 0, 0], expected, rtol=1e-14, atol=1e-16)
        np.testing.assert_array_equal(values[:, 0, 1], 0.0)
        np.testing.assert_array_equal(values[:, 1, 1], values[:, 0, 0])
        # central difference along the real and imaginary axes
        symbol, h = LogSymbol(1), 1e-6
        for step in (h, 1j * h):
            diff = (symbol(z + step) - symbol(z - step))[:, 0, 0] / (2.0 * step)
            np.testing.assert_allclose(symbol.derivative_at(z)[:, 0, 0], diff, rtol=1e-7)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            volterra_condition(LogSymbol(), IdentityWeight(1), lambda_grid=())


class TestIntegralCondition:
    def test_linear_symbol_measures_disc_area(self):
        report = volterra_integral_condition(
            OperatorPoly.linear_identity(1),
            IdentityWeight(1),
            ratio=0.5,
            lambda_grid=RADIAL_GRID,
        )
        assert report.sup_value == pytest.approx(0.25, rel=1e-10)
        assert report.argmax_point == 0j
        for lam, value in report.values:
            expected = 0.25 * (1.0 - abs(lam)) ** 2
            assert value == pytest.approx(expected, rel=1e-9)

    def test_log_symbol_finite_and_comparable(self):
        grid = RADIAL_GRID[:8]
        pointwise = volterra_condition(LogSymbol(), IdentityWeight(1), lambda_grid=grid)
        integral = volterra_integral_condition(
            LogSymbol(), IdentityWeight(1), lambda_grid=grid
        )
        assert np.isfinite(integral.sup_value)
        assert integral.sup_value <= 10.0 * pointwise.sup_value**2
        assert pointwise.sup_value**2 <= 10.0 * integral.sup_value / 0.25


class TestClosedForm:
    @pytest.mark.parametrize(
        "symbol, tilted",
        [
            (LogSymbol(1), False),
            (LogSymbol(2), True),
            (OperatorPoly.linear_identity(2), False),
            (_seeded_cubic(), True),
        ],
        ids=["log-d1-identity", "log-d2-tilted", "linear-d2-identity", "cubic-d2-tilted"],
    )
    def test_matches_the_quadrature_route(self, symbol, tilted, tilted_averages):
        dim, deriv = volterra._derivative_fn(symbol)
        if tilted:
            avgs = tilted_averages
        else:
            avgs = [averaged_weight(IdentityWeight(dim), lam, 0.5) for lam in LOG_SCENARIO_GRID]
        for lam, avg in zip(LOG_SCENARIO_GRID, avgs):
            closed = volterra._closed_moment(symbol, lam, avg, 0.5)
            quad = volterra._quadrature_moment(deriv, dim, lam, avg, 0.5, volterra.DEFAULT_TOL)
            assert np.abs(closed - quad).max() <= 1e-12 * np.abs(quad).max(), lam
            assert volterra._integral_value(closed, avg) == pytest.approx(
                volterra._integral_value(quad, avg), rel=1e-12
            ), lam

    @pytest.mark.parametrize("ratio", [0.5, 0.25])
    def test_log_symbol_on_the_positive_real_axis(self, ratio):
        # rho / |1 - lam| equals the ratio there, so every value is the same
        report = volterra_integral_condition(
            LogSymbol(), IdentityWeight(1), ratio=ratio, lambda_grid=RADIAL_GRID
        )
        for _, value in report.values:
            assert abs(value + np.log(1.0 - ratio * ratio)) <= 1e-14

    def test_constant_polynomial_has_zero_integral(self):
        symbol = OperatorPoly(2, np.array([[[2.0, 1.0j], [-1.0j, 3.0]]]))
        report = volterra_consistency(symbol, _tilted_weight(), lambda_grid=RADIAL_GRID[:4])
        assert all(value == 0.0 for _, value in report.integral.values)
        assert report.integral_route_gap == 0.0

    def test_route_gap_on_the_log_scenario(self):
        report = volterra_consistency(
            LogSymbol(2), _tilted_weight(), ratio=0.5, lambda_grid=LOG_SCENARIO_GRID
        )
        assert report.integral.argmax_point == 0.1 + 0j
        assert 0.0 <= report.integral_route_gap < 1e-12

    def test_symbol_without_closed_form_uses_the_quadrature(self):
        class OpaqueLog:
            """The log symbol behind an interface the closed form does not know."""

            dimension = 1

            def derivative_at(self, z):
                return LogSymbol(1).derivative_at(z)

        grid = RADIAL_GRID[:4]
        plain = volterra_integral_condition(LogSymbol(), IdentityWeight(1), lambda_grid=grid)
        generic = volterra_integral_condition(OpaqueLog(), IdentityWeight(1), lambda_grid=grid)
        for (_, a), (_, b) in zip(plain.values, generic.values):
            assert b == pytest.approx(a, rel=1e-12)


class TestConsistency:
    def test_subharmonic_bound_linear_symbol(self):
        report = volterra_consistency(
            OperatorPoly.linear_identity(1),
            IdentityWeight(1),
            ratio=0.5,
            lambda_grid=RADIAL_GRID,
        )
        assert isinstance(report, ConsistencyReport)
        assert report.theoretical_bound == 4.0
        assert report.max_ratio <= 4.0 + 1e-9
        assert report.satisfied

    def test_subharmonic_bound_log_symbol(self):
        report = volterra_consistency(
            LogSymbol(), IdentityWeight(1), ratio=0.5, lambda_grid=RADIAL_GRID[:8]
        )
        assert report.satisfied

    def test_bound_scales_with_ratio(self):
        report = volterra_consistency(
            OperatorPoly.linear_identity(1),
            IdentityWeight(1),
            ratio=0.25,
            lambda_grid=(0j, 0.5 + 0j),
        )
        assert report.theoretical_bound == 16.0
        assert report.satisfied


    def test_one_average_per_grid_point(self, monkeypatch):
        calls = []
        original = volterra.averaged_weight

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        weight = DiagonalPowerWeight((0.5, -0.5))
        grid = (0j, 0.5 + 0j, 0.3j, -0.75 + 0.1j)
        monkeypatch.setattr(volterra, "averaged_weight", counted)
        report = volterra_consistency(LogSymbol(2), weight, lambda_grid=grid)
        assert calls == list(grid)
        pointwise = volterra_condition(LogSymbol(2), weight, lambda_grid=grid)
        integral = volterra_integral_condition(LogSymbol(2), weight, lambda_grid=grid)
        assert report.pointwise == pointwise
        assert report.integral == integral

    def test_dimension_mismatch_rejected_by_every_form(self):
        for form in (volterra_condition, volterra_integral_condition, volterra_consistency):
            with pytest.raises(ValueError, match="dimensions differ"):
                form(LogSymbol(2), IdentityWeight(1), lambda_grid=(0.5 + 0j,))


class TestApplyVolterra:
    def test_linear_symbol_constant_function(self):
        out = apply_volterra(
            OperatorPoly.linear_identity(1),
            lambda z: np.ones((z.shape[0], 1), dtype=complex),
            0.3 + 0.4j,
        )
        assert out[0] == pytest.approx(0.3 + 0.4j, abs=1e-15)

    def test_linear_symbol_linear_function(self):
        z0 = 0.5 - 0.2j
        out = apply_volterra(
            OperatorPoly.linear_identity(1), lambda z: z[:, None], z0
        )
        assert out[0] == pytest.approx(0.5 * z0 * z0, abs=1e-15)

    def test_quadratic_scalar_symbol(self):
        coeffs = np.zeros((3, 1, 1), dtype=complex)
        coeffs[2, 0, 0] = 1.0
        symbol = OperatorPoly(1, coeffs)
        z0 = 0.6 + 0.1j
        out = apply_volterra(
            symbol, lambda z: np.ones((z.shape[0], 1), dtype=complex), z0
        )
        assert out[0] == pytest.approx(z0 * z0, abs=1e-15)

    def test_log_symbol_primitive(self):
        # d/dz log(1/(1-z)) integrated back gives the log itself
        z0 = 0.4 + 0.3j
        out = apply_volterra(
            LogSymbol(), lambda z: np.ones((z.shape[0], 1), dtype=complex), z0, steps=64
        )
        assert out[0] == pytest.approx(-np.log(1.0 - z0), abs=1e-12)

    def test_step_floor(self):
        with pytest.raises(ValueError):
            apply_volterra(LogSymbol(), lambda z: z[:, None], 0.1, steps=4)

    def test_point_inside_disc(self):
        with pytest.raises(ValueError):
            apply_volterra(LogSymbol(), lambda z: z[:, None], 1.2)
