"""Adaptive polar quadrature against closed-form integrals.

Expected values below are classical: the dA_eta mass of the disc is
2/(eta+2), the square-integral of |z| is 1/2, and power integrals on
[0, 1] are beta functions.
"""

import cmath
import dataclasses
import decimal
import math

import numpy as np
import pytest

from bergman_carleson.disc_geometry import (
    MAX_LEVEL,
    CarlesonSquare,
    DyadicIndex,
    HyperbolicDisc,
    TildeDisc,
    TopHalf,
    TWO_PI,
    WholeDisc,
    top_half_area,
)
from bergman_carleson import quadrature
from bergman_carleson.errors import ToleranceNotReached
from bergman_carleson.quadrature import (
    BATCH_ENTRIES,
    GAUSS_ORDER,
    MatrixField,
    MeasureSpec,
    PLAIN,
    _line,
    _local_polar,
    _local_polar_integrate,
    _polar,
    _polar_rect_integrate,
    _rule,
    _tilde_edge,
    constant_field,
    identity_field,
    integrate,
    integrate_band,
    integrate_scalar,
    integrate_values,
    radial_integral,
    radial_power_field,
)
from bergman_carleson.measures import (
    conjugate_measure,
    lift_scalar_measure,
    measure_from_descriptor,
    random_measure,
    random_unitary,
)
from bergman_carleson.weights import (
    BlockWeight,
    DiagonalPowerWeight,
    IdentityWeight,
    ScalarPowerWeight,
    weight_from_descriptor,
)

DISC = WholeDisc()


def flat_values(dim=1):
    """The constant identity as a plain function of z, for the 2-D engine."""
    return lambda z: np.broadcast_to(np.eye(dim, dtype=complex), (z.shape[0], dim, dim)).copy()


class TestDiscMasses:
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0, -0.5, -0.99])
    def test_weighted_mass_radial_route(self, eta):
        v = integrate(identity_field(2), DISC, MeasureSpec(eta))
        assert v[0, 0].real == pytest.approx(2.0 / (eta + 2.0), abs=1e-10)
        assert v[1, 1].real == v[0, 0].real
        assert v[0, 1] == 0.0

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_weighted_mass_full_engine(self, eta):
        v = integrate_values(flat_values(), (1, 1), DISC, MeasureSpec(eta))
        assert v[0, 0].real == pytest.approx(2.0 / (eta + 2.0), abs=1e-8)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            MeasureSpec(-1.0)


class TestSingularIntegrands:
    # integral of (1-|z|)**(-1/2) dA = int_0^1 (1-r)**(-1/2) 2r dr = 8/3
    def test_inverse_sqrt_full_engine(self):
        v = integrate_values(
            lambda z: ((1.0 - np.abs(z)) ** -0.5)[:, None, None].astype(complex),
            (1, 1),
            DISC,
            singular_exponent=-0.5,
        )
        assert v[0, 0].real == pytest.approx(8.0 / 3.0, abs=1e-8)

    def test_inverse_sqrt_radial_route(self):
        # one function term: the band route integrates the scalar profile
        f = MatrixField(
            dim=1,
            evaluator=lambda z: ((1.0 - np.abs(z)) ** -0.5)[:, None, None].astype(
                complex
            ),
            singular_exponent=-0.5,
            terms=((lambda r: (1.0 - r) ** -0.5, np.eye(1)),),
        )
        v = integrate(f, DISC)
        assert v[0, 0].real == pytest.approx(8.0 / 3.0, abs=1e-10)


class TestBandRoute:
    """Fields with terms on full bands of radii: closed-form power masses."""

    M = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])

    @staticmethod
    def power_mass(s, eta, r0, r1):
        # (eta+1) * 2[u**(q+1)/(q+1) - u**(q+2)/(q+2)] from u = 1-r1 to 1-r0
        q = eta + s

        def primitive(u):
            return u ** (q + 1.0) / (q + 1.0) - u ** (q + 2.0) / (q + 2.0)

        return (eta + 1.0) * 2.0 * (primitive(1.0 - r0) - primitive(1.0 - r1))

    @pytest.mark.parametrize("s, eta", [(0.0, 0.0), (-0.5, 0.0), (2.87, 0.0), (0.5, -0.5), (-0.99, 1.0)])
    def test_power_masses_match_the_formula(self, s, eta):
        field = radial_power_field(s, self.M)
        spec = MeasureSpec(eta)
        for n in (0, 3, 9, 30):
            got = integrate(field, TopHalf(DyadicIndex(n, n % 2)), spec)
            mass = self.power_mass(s, eta, 1.0 - 2.0**-n, 1.0 - 2.0 ** -(n + 1))
            np.testing.assert_allclose(got, mass * 2.0**-n * self.M, rtol=1e-14)
            got = integrate(field, CarlesonSquare(DyadicIndex(n, n % 2)), spec)
            mass = self.power_mass(s, eta, 1.0 - 2.0**-n, 1.0)
            np.testing.assert_allclose(got, mass * 2.0**-n * self.M, rtol=1e-14)
        got = integrate_band(field, 0.75, 0.25, spec)
        np.testing.assert_allclose(got, self.power_mass(s, eta, 0.25, 0.75) * self.M, rtol=1e-14)

    @pytest.mark.parametrize("s, eta", [(0.0, 0.0), (-0.5, 0.0), (2.87, 0.0), (0.5, -0.5), (-0.99, 1.0)])
    def test_power_masses_match_radial_integral_on_the_disc(self, s, eta):
        got = integrate(radial_power_field(s, self.M), DISC, MeasureSpec(eta))
        mass = (eta + 1.0) * radial_integral(lambda r: 2.0 * r, 0.0, 1.0, q=eta + s, tol=1e-13)
        np.testing.assert_allclose(got, mass * self.M, rtol=1e-12)

    def test_power_masses_match_the_adaptive_engine(self):
        # the 2-D engine on the evaluator of the same field
        field = radial_power_field(-0.5, self.M)
        for region in (CarlesonSquare(DyadicIndex(3, 5)), TopHalf(DyadicIndex(2, 1)), DISC):
            engine = integrate_values(
                field.evaluator, (2, 2), region, tol=1e-11, singular_exponent=-0.5
            )
            np.testing.assert_allclose(integrate(field, region), engine, rtol=1e-9)
        engine, _, _ = _polar_rect_integrate(
            field.evaluator, (2, 2), 0.0, -0.5, 0.75, 0.0, 0.0, TWO_PI, 1e-11
        )
        np.testing.assert_allclose(integrate_band(field, 0.75, 0.0), engine, rtol=1e-9)

    def test_non_integrable_power_rejected(self):
        field = radial_power_field(-0.75, np.eye(1))
        with pytest.raises(ValueError):
            integrate(field, DISC, MeasureSpec(-0.5))

    def test_terms_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="square matrices of the field dimension"):
            MatrixField(dim=2, evaluator=lambda z: z, terms=((0.0, np.eye(3)),))
        with pytest.raises(ValueError, match="needs terms"):
            MatrixField(dim=2, evaluator=lambda z: z, terms=())

    @pytest.mark.parametrize("name", ["tilted-weight", "random-density"])
    def test_evaluator_swap_keeps_terms_and_values(self, name):
        # an instrumented copy, dataclasses.replace(field, evaluator=...),
        # keeps the terms and so every integral bit for bit
        if name == "tilted-weight":
            field = weight_from_descriptor(
                {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11}
            ).field()
        else:
            field = random_measure(2, seed=5).density
        calls = []

        def counted(z):
            calls.append(z.shape[0])
            return field.evaluator(z)

        copy = dataclasses.replace(field, evaluator=counted)
        for (p, m), (q, n) in zip(copy.terms, field.terms, strict=True):
            assert p == q and m is n
        for region in (DISC, TopHalf(DyadicIndex(4, 3)), CarlesonSquare(DyadicIndex(2, 0))):
            assert np.array_equal(integrate(copy, region), integrate(field, region))
        for band in ((0.5, 0.0), (0.7, 0.1)):
            assert np.array_equal(integrate_band(copy, *band), integrate_band(field, *band))
        assert not calls
        region = HyperbolicDisc(0.5 + 0.25j, 0.5)
        assert np.array_equal(integrate(copy, region), integrate(field, region))
        assert calls


def _exact_band_mass(s, u_in, u_out):
    """dA mass of (1-|z|)**s over the band u_out < 1-|z| <= u_in, at 40
    digits: 2[u**(q+1)/(q+1) - u**(q+2)/(q+2)] with q = s."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b = decimal.Decimal(s) + 1, decimal.Decimal(s) + 2

        def primitive(u):
            return u ** a / a - u ** b / b if u else 0

        return 2 * (primitive(u_in) - primitive(u_out))


def _exact_linear_mass(u_in, u_out):
    """dA mass of 2 + |z| over the same band: with r = 1 - u the integrand
    (3 - u) 2(1 - u) has the primitive 2[3u - 2u**2 + u**3/3]."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def primitive(u):
            return 2 * (3 * u - 2 * u ** 2 + u ** 3 / 3)

        return primitive(u_in) - primitive(u_out)


class TestEveryLevel:
    """Top halves and Carleson squares at every level the API accepts,
    against the band primitives in 40-digit decimal arithmetic.

    A level-n top half is the band 2**-(n+1) < 1-|z| <= 2**-n and a
    square the band 0 < 1-|z| <= 2**-n; both are exact in u = 1-|z| at
    every level, although 1 - 2**-n rounds to 1 from level 54 on.
    """

    M = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    FIELDS = {
        "power-0.5": (((-0.5, M),), lambda u_in, u_out: _exact_band_mass(-0.5, u_in, u_out)),
        "power0": (((0.0, M),), lambda u_in, u_out: _exact_band_mass(0.0, u_in, u_out)),
        "power2.87": (((2.87, M),), lambda u_in, u_out: _exact_band_mass(2.87, u_in, u_out)),
        # a lone function term has q = 0
        "function": (((lambda r: 2.0 + r, M),), _exact_linear_mass),
        "function-and-power": (
            ((lambda r: 2.0 + r, M), (-0.5, M)),
            lambda u_in, u_out: _exact_linear_mass(u_in, u_out)
            + _exact_band_mass(-0.5, u_in, u_out),
        ),
    }

    def _check_levels(self, name, region, position):
        terms, exact = self.FIELDS[name]
        field = MatrixField(dim=2, terms=terms)
        for n in range(MAX_LEVEL + 1):
            u_in = decimal.Decimal(2) ** -n
            u_out = u_in / 2 if region is TopHalf else decimal.Decimal(0)
            # every arc of level n spans the fraction 2**-n of the circle
            want = float(exact(u_in, u_out) * u_in) * self.M
            got = integrate(field, region(DyadicIndex(n, position(n))))
            gap = np.linalg.norm(got - want)
            assert gap <= 1e-13 * np.linalg.norm(want), (n, gap / np.linalg.norm(want))

    @pytest.mark.parametrize("region", [TopHalf, CarlesonSquare])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_levels_0_to_60(self, name, region):
        self._check_levels(name, region, lambda n: 0)

    @pytest.mark.parametrize("region", [TopHalf, CarlesonSquare])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_last_arc_at_levels_0_to_60(self, name, region):
        # the arc at position 2**n - 1 has angles that round near 2 pi;
        # its fraction of the circle is still exactly 2**-n
        self._check_levels(name, region, lambda n: 2 ** n - 1)


class TestScalarAndVector:
    def test_square_modulus(self):
        v = integrate_scalar(lambda z: np.abs(z) ** 2, DISC)
        assert v == pytest.approx(0.5, abs=1e-10)

    def test_odd_integrand_cancels(self):
        v = integrate_values(lambda z: z, (), DISC)
        assert abs(complex(v)) < 1e-10

    def test_vector_values(self):
        v = integrate_values(
            lambda z: np.stack([np.ones_like(z), z * z.conj()], axis=-1),
            (2,),
            DISC,
        )
        assert v[0].real == pytest.approx(1.0, abs=1e-10)
        assert v[1].real == pytest.approx(0.5, abs=1e-10)


class TestRegionMasses:
    def test_carleson_square(self):
        q = CarlesonSquare(DyadicIndex(1, 0))
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), q)
        assert v == pytest.approx(0.375, abs=1e-12)

    def test_top_half_cells(self):
        for idx in (DyadicIndex(1, 0), DyadicIndex(5, 3)):
            t = TopHalf(idx)
            v = integrate_scalar(lambda z: np.ones(z.shape[0]), t)
            assert v == pytest.approx(top_half_area(idx.level), rel=1e-12)

    def test_hyperbolic_disc_area(self):
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), HyperbolicDisc(0.5 + 0j, 0.5))
        assert v == pytest.approx(1.0 / 16.0, abs=1e-10)
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), HyperbolicDisc(0.9j, 0.3))
        assert v == pytest.approx(9.0e-4, rel=1e-8)

    def test_tilde_disc_at_origin_is_a_disc(self):
        # |z| < r (1-|z|) is the disc of radius r/(1+r); area (r/(1+r))**2.
        # The boundary circle is a seed line here, so this converges fast.
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), TildeDisc(0j, 0.5))
        assert v == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_tilde_disc_off_center_bounds(self):
        # a geometric bracket, independent of the quadrature's accuracy:
        # the mass lands between the inscribed and bounding discs at any
        # tolerance (accuracy is checked by test_tilde_disc_default_tol)
        region = TildeDisc(0.4 + 0j, 0.5)
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), region, tol=2e-4)
        inner = (0.5 * 0.6 / 1.5) ** 2
        outer = region.bounding_radius ** 2
        assert inner < v < outer

    @pytest.mark.parametrize("center", [0.5, 0.9])
    def test_tilde_disc_default_tol(self, center):
        # second route: the area is (1/2pi) * integral of s*(phi)**2, with
        # s* the distance from the center to the edge |z-c| = r (1-|z|)
        c, r = complex(center), 0.5
        x, w = np.polynomial.legendre.leggauss(200)
        phi = cmath.phase(-c) + math.pi * (x + 1.0)
        a = 1.0 / r**2 - 1.0
        b = 1.0 / r + np.real(np.conj(c) * np.exp(1j * phi))
        cc = 1.0 - abs(c) ** 2
        edge = cc / (b + np.sqrt(np.maximum(b * b - a * cc, 0.0)))
        expect = float(np.dot(w, edge * edge)) / 2.0
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), TildeDisc(c, r))
        assert abs(v - expect) <= 10.0 * 1e-8 * (1.0 + expect)

    def test_tilde_disc_weighted_mass(self):
        # at the origin the region is the disc of radius R = r/(1+r); its
        # dA_eta mass is 2[u**(eta+1) - (eta+1)/(eta+2) u**(eta+2)] from
        # u = 1-R to u = 1
        eta, r = 1.5, 0.5
        big_r = r / (1.0 + r)

        def mass(u):
            return 2.0 * (u ** (eta + 1.0) - (eta + 1.0) / (eta + 2.0) * u ** (eta + 2.0))

        expect = mass(1.0) - mass(1.0 - big_r)
        v = integrate_scalar(lambda z: np.ones(z.shape[0]), TildeDisc(0j, r), MeasureSpec(eta))
        assert abs(v - expect) <= 10.0 * 1e-8 * (1.0 + expect)


class TestRadialIntegral:
    def test_beta_values(self):
        assert radial_integral(lambda r: 2.0 * r, 0.0, 1.0, q=-0.5) == pytest.approx(
            8.0 / 3.0, abs=1e-12
        )
        assert radial_integral(lambda r: 2.0 * r, 0.0, 1.0, q=0.5) == pytest.approx(
            8.0 / 15.0, abs=1e-12
        )
        assert radial_integral(lambda r: 2.0 * r, 0.0, 1.0, q=2.0) == pytest.approx(
            1.0 / 6.0, abs=1e-12
        )

    def test_near_critical_power(self):
        got = radial_integral(lambda r: 2.0 * r, 0.0, 1.0, q=-0.99)
        expect = 2.0 * math.gamma(2.0) * math.gamma(0.01) / math.gamma(2.01)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_high_degree_monomial(self):
        m = 64
        got = radial_integral(lambda r: 2.0 * r ** (2 * m + 1), 0.0, 1.0)
        assert got == pytest.approx(1.0 / (m + 1), rel=1e-12)

    def test_vector_valued(self):
        got = radial_integral(
            lambda r: np.stack([2.0 * r, np.ones_like(r)], axis=-1), 0.0, 1.0, q=1.0
        )
        assert got[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got[1] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_integrable_power(self):
        with pytest.raises(ValueError):
            radial_integral(lambda r: r, 0.0, 1.0, q=-1.0)


class TestPolarRect:
    def test_sector_mass(self):
        # the sector 0.3 < |z| <= 0.9, 0.2 <= arg z < 1.1: its arc fraction
        # of the circle times the band 0.1 < 1-|z| <= 0.7
        got = 0.9 / TWO_PI * integrate_band(identity_field(1), 0.7, 0.1)[0, 0].real
        expect = (0.81 - 0.09) * 0.9 / (2.0 * math.pi)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_empty_band_has_zero_mass(self):
        for field in (radial_power_field(-0.5, np.eye(2)), identity_field(2)):
            for u in (0.5, 0.0):
                assert not np.any(integrate_band(field, u, u))
        for u in (0.5, 0.0):
            # the 2-D engine on the same empty band
            value, _, _ = _polar_rect_integrate(
                flat_values(2), (2, 2), 0.0, 0.0, u, u, 0.0, 1.0, 1e-8
            )
            assert not np.any(value)
        for u_in, u_out in ((0.4, 0.5), (1.5, 0.0), (0.5, -0.1)):
            with pytest.raises(ValueError):
                integrate_band(identity_field(1), u_in, u_out)
        # the deepest top half is a band in exact u, not an empty one:
        # 2[u**0.5/0.5 - u**1.5/1.5] from 2**-61 to 2**-60, over 2**60 arcs
        got = integrate(radial_power_field(-0.5, np.eye(2)), TopHalf(DyadicIndex(60, 7)))
        expect = 4.0 * (2.0 ** -30 - 2.0 ** -30.5) * 2.0 ** -60
        assert got[0, 0].real == pytest.approx(expect, rel=1e-14)
        assert got[0, 0] == got[1, 1] and got[0, 1] == 0.0

    def test_identity_average_is_exact(self):
        # the matrix and scalar runs of the 2-D engine share panels, so the
        # ratio is exact
        square = CarlesonSquare(DyadicIndex(2, 1))
        num = integrate_values(flat_values(3), (3, 3), square, MeasureSpec(0.5))
        den = integrate_values(flat_values(1), (1, 1), square, MeasureSpec(0.5))
        avg = num / den[0, 0].real
        assert np.array_equal(avg, np.eye(3, dtype=complex))


class TestEngineBehavior:
    @pytest.mark.parametrize("path", ["disc", "radial"])
    def test_budget_exhaustion_carries_partial_result(self, path, monkeypatch):
        def f(z):
            return (np.cos(40.0 * np.angle(z)) + 2.0)[:, None, None].astype(complex)

        monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 4000)
        with pytest.raises(ToleranceNotReached) as exc:
            if path == "disc":
                integrate_values(f, (1, 1), DISC, tol=1e-14)
            else:
                radial_integral(lambda r: np.cos(4000.0 * r) + 2.0, 0.0, 1.0, tol=1e-14)
        err = exc.value
        assert err.value is not None
        assert err.evaluations >= 4000
        assert err.achieved > 1e-14
        message = str(err)
        assert f"{err.achieved:.3e}" in message
        assert "1.000e-14" in message
        assert f"after {err.evaluations} evaluations" in message

    def test_repeat_calls_bit_identical(self):
        def f(z):
            return np.stack(
                [
                    np.stack([np.abs(z) ** 2, z], axis=-1),
                    np.stack([np.conj(z), np.ones_like(z)], axis=-1),
                ],
                axis=-2,
            )

        square = CarlesonSquare(DyadicIndex(2, 1))
        a = integrate_values(f, (2, 2), square, MeasureSpec(1.0))
        b = integrate_values(f, (2, 2), square, MeasureSpec(1.0))
        assert np.array_equal(a, b)

    def test_hermitized_output(self):
        # terms with non-Hermitian matrices: both the band route and the
        # evaluator route return a Hermitian matrix
        f = MatrixField(
            dim=2,
            terms=(
                (0.0, np.array([[1.0, 2.0j], [0.5, 1.0]])),
                (lambda r: r, np.array([[0.0, 0.0], [1.0 - 1.0j, 0.0]])),
            ),
        )
        for region in (DISC, TopHalf(DyadicIndex(3, 2)), HyperbolicDisc(0.5 + 0.25j, 0.5)):
            v = integrate(f, region)
            assert np.array_equal(v, v.conj().T)
            assert v[0, 1] != 0.0


M2 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
TILTED = {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11}
TERM_FIELDS = {
    "constant": lambda: constant_field(M2),
    "radial-power": lambda: radial_power_field(-0.5, M2),
    "identity-weight": lambda: IdentityWeight(3).field(),
    "scalar-power-weight": lambda: ScalarPowerWeight(0.5, M2).field(),
    "diagonal-power-weight": lambda: DiagonalPowerWeight([0.5, -0.5, 1.5]).field(),
    "tilted-diagonal-power-weight": lambda: weight_from_descriptor(TILTED).field(),
    "block-weight": lambda: BlockWeight(
        [ScalarPowerWeight(0.3, M2), weight_from_descriptor(TILTED)]
    ).field(),
    "random-density": lambda: random_measure(3, seed=5).density,
    "lifted-density": lambda: lift_scalar_measure(random_measure(1, seed=2), 4, seed=3).density,
    "lifted-power-density": lambda: lift_scalar_measure(
        measure_from_descriptor({"kind": "radial_power_density", "exponent": 1.5, "scale": 2.0}),
        3,
        seed=1,
    ).density,
    "conjugated-density": lambda: conjugate_measure(
        random_measure(2, seed=7), random_unitary(2, seed=9)
    ).density,
}


class TestFieldConstructors:
    def test_constant_field_shape(self):
        f = constant_field(np.diag([2.0, 3.0]))
        out = f.evaluator(np.zeros(5, dtype=complex))
        assert out.shape == (5, 2, 2)
        ((s, m),) = f.terms
        assert s == 0.0 and np.array_equal(m, np.diag([2.0, 3.0]))

    def test_constant_field_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            constant_field(np.ones((2, 3)))

    def test_matrix_field_validation(self):
        one = ((0.0, np.eye(1)),)
        with pytest.raises(ValueError, match="dimension must be positive"):
            MatrixField(dim=0, terms=one)
        with pytest.raises(ValueError, match="exceed -1"):
            MatrixField(dim=1, singular_exponent=-1.5, terms=one)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"terms": None}, {"evaluator": lambda z: z}, {"evaluator": lambda z: z, "terms": ()}],
        ids=["bare", "terms-none", "evaluator-only", "empty-terms"],
    )
    def test_field_without_terms_rejected(self, kwargs):
        with pytest.raises(ValueError, match="a field needs terms"):
            MatrixField(dim=1, **kwargs)
        with pytest.raises(ValueError, match="a field needs terms"):
            dataclasses.replace(identity_field(1), **{"terms": None, **kwargs})

    @pytest.mark.parametrize(
        "s, reason",
        [(math.nan, "must be finite"), (math.inf, "must be finite"),
         (-math.inf, "must be finite"), (-1.0, "must exceed -1")],
    )
    def test_each_power_exponent_is_checked(self, s, reason):
        # a NaN beside a finite exponent must not hide behind min()
        with pytest.raises(ValueError, match=reason):
            MatrixField(dim=1, terms=((0.0, np.eye(1)), (s, np.eye(1))))
        with pytest.raises(ValueError, match=reason):
            MatrixField(dim=1, singular_exponent=s, terms=((lambda r: r, np.eye(1)),))

    def test_singular_exponent_comes_from_the_power_terms(self):
        assert radial_power_field(2.0, np.eye(1)).singular_exponent == 0.0
        assert radial_power_field(-0.5, np.eye(1)).singular_exponent == -0.5
        field = DiagonalPowerWeight([0.5, -0.25, -0.75]).field()
        assert field.singular_exponent == -0.75
        # a function term keeps the declared value
        profile = lambda r: (1.0 - r) ** -0.5  # noqa: E731
        field = MatrixField(1, singular_exponent=-0.5, terms=((profile, np.eye(1)), (0.5, np.eye(1))))
        assert field.singular_exponent == -0.5
        with pytest.raises(ValueError):
            radial_power_field(-1.0, np.eye(1))

    @pytest.mark.parametrize("name", sorted(TERM_FIELDS))
    def test_evaluator_is_the_sum_of_the_terms(self, name):
        # one representation: the evaluator every non-rectangle region
        # reads equals sum_j phi_j(|z|) M_j, the sum the band route reads;
        # only the tilted weight still writes its evaluator by hand
        field = TERM_FIELDS[name]()
        rng = np.random.default_rng(3)
        z = rng.uniform(0.0, 0.99, 64) * np.exp(1j * rng.uniform(0.0, TWO_PI, 64))
        r = np.abs(z)
        want = sum(
            np.multiply.outer(p(r) if callable(p) else (1.0 - r) ** p, m)
            for p, m in field.terms
        )
        got = field.evaluator(z)
        assert got.shape == want.shape == (64, field.dim, field.dim)
        gap = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(gap <= 1e-14 * np.linalg.norm(want, axis=(1, 2)))


def _smooth_matrix(z):
    """A 2x2 complex matrix per point; no entry is a polynomial in z."""
    z = np.asarray(z, dtype=complex)
    rows = [[np.exp(z), np.sin(3.0 * z)], [np.conj(z) ** 3, np.abs(z) ** 2 + 1.0]]
    return np.moveaxis(np.array(rows), -1, 0)


RECTS = [(0.1, 0.3, 0.0, 0.5), (0.3, 0.55, 0.5, 1.7), (0.55, 0.9, 2.0, 3.1), (0.2, 0.4, 4.0, 6.2)]
LOCAL_RECTS = [(0.0, 0.2, 0.0, 1.5), (0.2, 0.4, 1.5, 3.1), (0.1, 0.3, 3.1, 6.2)]
BATCH_MAPS = {
    "line": (_line, [(0.0, 0.25), (0.25, 0.6), (0.6, 0.95), (-0.5, 0.1)]),
    "polar": (_polar(0.5, 1), RECTS),
    "substituted_polar": (_polar(-0.5, 2), RECTS),
    "hyperbolic_local_polar": (_local_polar(0.0, 0.3 + 0.2j, np.ones_like), LOCAL_RECTS),
    "tilde_local_polar": (
        _local_polar(1.5, 0.5 + 0j, _tilde_edge(0.5 + 0j, 0.5)),
        [(0.0, 0.5, 0.0, 1.5), (0.5, 1.0, 1.5, 3.1), (0.25, 1.0, 3.1, 6.2)],
    ),
}


class TestBatchedPanels:
    @pytest.mark.parametrize("name", sorted(BATCH_MAPS))
    def test_stack_equals_each_box_alone(self, name):
        nodes, boxes = BATCH_MAPS[name]
        estimate = _rule(_smooth_matrix, (2, 2), nodes)
        stacked, n = estimate(boxes)
        assert stacked.shape == (len(boxes), 2, 2)
        per_panel = GAUSS_ORDER ** (len(boxes[0]) // 2)
        assert n == len(boxes) * per_panel
        for k, box in enumerate(boxes):
            alone, m = estimate([box])
            assert m == per_panel
            assert np.array_equal(stacked[k], alone[0])
            for a, b in zip(stacked[k].ravel(), alone[0].ravel()):
                assert float(a.real).hex() == float(b.real).hex()
                assert float(a.imag).hex() == float(b.imag).hex()

    def test_hyperbolic_disc_evaluation_counts(self):
        # counts of the panel-at-a-time engine: the area converges on the
        # 8 seeds (8 x 5 panels of 100 nodes), the Cauchy kernel after two
        # refinements of 4 children with 4 children each
        ones = lambda z: np.ones(z.shape[0])  # noqa: E731
        region = HyperbolicDisc(0.5 + 0j, 0.5)
        _, _, evals = _local_polar_integrate(ones, (), 0.0, region, 1e-8)
        assert evals == 4000
        cauchy = lambda z: 1.0 / (1.0 - z)  # noqa: E731
        region = HyperbolicDisc(0.3 + 0j, 0.8)
        value, _, evals = _local_polar_integrate(cauchy, (), 0.0, region, 1e-8)
        assert evals == 8000
        assert complex(value).real.hex() == "0x1.cac08312697b2p-2"

    def _recorded_rows(self, dim):
        rows = []

        def evaluator(z):
            rows.append(z.shape[0])
            return np.broadcast_to(np.eye(dim, dtype=complex), (z.shape[0], dim, dim)).copy()

        field = dataclasses.replace(identity_field(dim), evaluator=evaluator)
        value = integrate(field, HyperbolicDisc(0.5 + 0j, 0.5))
        assert np.array_equal(value, np.eye(dim) * value[0, 0])
        return rows

    def test_wide_field_is_evaluated_one_panel_at_a_time(self):
        rows = self._recorded_rows(64)
        # one panel (100 nodes) already exceeds the cap at d = 64
        assert 100 * 64 * 64 > BATCH_ENTRIES
        assert rows == [100] * 40

    def test_chunks_stay_under_the_cap(self):
        rows = self._recorded_rows(8)
        assert max(rows) * 8 * 8 <= BATCH_ENTRIES
        assert sum(rows) == 4000 and len(rows) > 1

    def test_converged_seeds_take_one_call_at_d2(self):
        assert self._recorded_rows(2) == [4000]
