"""Poly type: evaluation, interpolation with extended-precision conversion."""

import numpy as np
from numpy.testing import assert_allclose

from xjulia.poly import (Poly, chebyshev_grid, chebyshev_transform,
                         horner_with_derivative, interpolate_to_poly)


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

    def test_scalar_call_returns_scalar(self):
        assert isinstance(Poly([1.0, 1.0])(2.0), complex)

    def test_deriv(self):
        p = Poly([5.0, 3.0, 2.0])          # 5 + 3x + 2x^2
        assert_allclose(p.deriv().coeffs, [3.0, 4.0])

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


class TestConversion:
    # interpolate_to_poly's Chebyshev-to-monomial step runs in extended precision
    def test_known_conversion(self):
        # T_3 = 4x^3 - 3x
        t3 = interpolate_to_poly(lambda x: np.polynomial.chebyshev.chebval(x, [0, 0, 0, 1.0]), 3)
        assert_allclose(t3.coeffs.real, [0, -3, 0, 4], atol=1e-14)

    def test_values_preserved(self):
        # agreement is capped by the monomial form's own evaluation noise,
        # ~eps * sum |a_k| near the interval
        rng = np.random.default_rng(11)
        c = rng.standard_normal(31)
        q = interpolate_to_poly(lambda x: np.polynomial.chebyshev.chebval(x, c), 30)
        z = rng.uniform(-1, 1, 20)
        floor = 8 * np.finfo(float).eps * np.sum(np.abs(q.coeffs))
        assert_allclose(q(z), np.polynomial.chebyshev.chebval(z, c), atol=floor)


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
