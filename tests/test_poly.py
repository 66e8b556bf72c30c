"""Poly type: evaluation, basis conversion, interpolation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xjulia.poly import (CHEBYSHEV, MONOMIAL, Poly, chebyshev_grid,
                         chebyshev_transform, horner_with_derivative,
                         interpolate_to_poly)


class TestBasics:
    def test_degree_truncation_rule(self):
        p = Poly([1.0, 2.0, 1e-20])
        assert p.degree == 1
        assert Poly([0.0]).degree == 0
        assert Poly([0.0, 0.0, 3.0]).degree == 2

    def test_eval_monomial_matches_numpy(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        p = Poly(c)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert_allclose(p(z), np.polynomial.polynomial.polyval(z, c), rtol=1e-13)

    def test_eval_chebyshev_matches_numpy(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(9)
        p = Poly(c, CHEBYSHEV)
        z = np.linspace(-1, 1, 7) + 0.2j
        assert_allclose(p(z), np.polynomial.chebyshev.chebval(z, c), rtol=1e-12)

    def test_scalar_call_returns_scalar(self):
        assert isinstance(Poly([1.0, 1.0])(2.0), complex)

    def test_deriv(self):
        p = Poly([5.0, 3.0, 2.0])          # 5 + 3x + 2x^2
        assert_allclose(p.deriv().coeffs, [3.0, 4.0])
        t = Poly([0.0, 0.0, 1.0], CHEBYSHEV)  # T_2
        assert_allclose(t.deriv()(0.3), 4 * 0.3, rtol=1e-14)

    def test_fused_horner_matches_value_and_deriv(self):
        rng = np.random.default_rng(30)
        c = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        p = Poly(c)
        z = 1.2 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        pv, dv = horner_with_derivative(c, z)
        # Horner rounding: a few eps per step on the scale sum |a_k| |z|^k
        k = np.arange(31)
        powers = np.abs(z)[:, None] ** k[None, :]
        val_scale = powers @ np.abs(c)
        der_scale = powers[:, :-1] @ (k[1:] * np.abs(c[1:]))
        tol = 4 * 31 * np.finfo(float).eps
        assert np.max(np.abs(pv - p(z)) / val_scale) <= tol
        assert np.max(np.abs(dv - p.deriv()(z)) / der_scale) <= tol

    def test_from_roots(self):
        p = Poly.from_roots([1.0, -1.0])
        assert_allclose(p.coeffs, [-1.0, 0.0, 1.0])
        assert p.is_monic()

    def test_scaled_argument(self):
        p = Poly([1.0, 2.0, 3.0])
        q = p.scaled_argument(2.0)
        assert_allclose(q(0.5), p(1.0), rtol=1e-14)

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            Poly([1.0], "legendre")


class TestConversion:
    @pytest.mark.parametrize("deg", [5, 20, 40, 50])
    def test_monomial_roundtrip(self, deg):
        rng = np.random.default_rng(deg)
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = Poly(c)
        back = p.to_basis(CHEBYSHEV).to_basis(MONOMIAL)
        err = np.max(np.abs(back.coeffs - c)) / np.max(np.abs(c))
        assert err <= 1e-10

    def test_monomial_roundtrip_at_cap(self):
        # storing the Chebyshev intermediate in doubles floors the round trip
        # near 1e-9 at degree 60, however precisely the conversion itself runs
        rng = np.random.default_rng(60)
        c = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        back = Poly(c).to_basis(CHEBYSHEV).to_basis(MONOMIAL)
        assert np.max(np.abs(back.coeffs - c)) / np.max(np.abs(c)) <= 5e-9

    @pytest.mark.parametrize("deg", [5, 10, 15])
    def test_chebyshev_roundtrip_low_degree(self, deg):
        # the reverse direction is limited by double-rounding the monomial
        # intermediate, whose coefficients grow like (1+sqrt(2))^deg; past
        # degree ~20 no conversion algorithm can round-trip in doubles
        rng = np.random.default_rng(deg + 100)
        c = rng.standard_normal(deg + 1)
        p = Poly(c, CHEBYSHEV)
        back = p.to_basis(MONOMIAL).to_basis(CHEBYSHEV)
        err = np.max(np.abs(back.coeffs - c)) / np.max(np.abs(c))
        assert err <= 1e-10

    def test_known_conversion(self):
        # T_3 = 4x^3 - 3x
        t3 = Poly([0, 0, 0, 1.0], CHEBYSHEV).to_basis(MONOMIAL)
        assert_allclose(t3.coeffs.real, [0, -3, 0, 4], atol=1e-14)

    def test_values_preserved(self):
        # agreement is capped by the monomial form's own evaluation noise,
        # ~eps * sum |a_k| near the interval
        rng = np.random.default_rng(11)
        c = rng.standard_normal(31)
        p = Poly(c, CHEBYSHEV)
        q = p.to_basis(MONOMIAL)
        z = rng.uniform(-1, 1, 20)
        floor = 8 * np.finfo(float).eps * np.sum(np.abs(q.coeffs))
        assert_allclose(q(z), p(z), atol=floor)


class TestTransform:
    def test_transform_recovers_chebyshev_coeffs(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(18)
        xs = chebyshev_grid(17)
        vals = np.polynomial.chebyshev.chebval(xs, c)
        assert_allclose(chebyshev_transform(vals).real, c, atol=1e-13)

    def test_interpolate_known_polynomial(self):
        p = Poly([1.0, -2.0, 0.0, 4.0])
        q = interpolate_to_poly(p, 3)
        assert_allclose(q.coeffs, p.coeffs, atol=1e-13)

    def test_interpolate_scaled(self):
        p = Poly([0.5, 1.5, -0.5, 2.0, 1.0])
        q = interpolate_to_poly(p, 4, scale=3.0)
        assert_allclose(q.coeffs, p.coeffs, atol=1e-12)
