"""Poly type: Horner on coefficients, and the root-product form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xjulia.poly import Poly, horner, horner_with_derivative


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


class TestProductForm:
    ROOTS = [0.3, -0.7 + 0.2j, -0.7 - 0.2j, 1.1, -0.05j]

    def test_values_match_expanded_coefficients(self):
        p = Poly.product_form(self.ROOTS, leading=2.0)
        rng = np.random.default_rng(5)
        z = 1.5 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        pv, dv = p.values(z)
        hv, hd = horner_with_derivative(p.coeffs, z)
        assert_allclose(pv, hv, rtol=1e-13)
        assert_allclose(dv, hd, rtol=1e-13)
        assert_allclose(p(z), pv, rtol=0)

    @pytest.mark.filterwarnings("error")
    def test_exact_zero(self):
        # there 1/(z - zeta_i) is infinite, so p' is taken as the product of
        # the other factors, with no division and no warning
        p = Poly.product_form(self.ROOTS, leading=2.0)
        pv, dv = p.values(np.array([0.3 + 0j]))
        others = np.array(self.ROOTS[1:])
        assert pv[0] == 0.0
        assert_allclose(dv[0], 2.0 * np.prod(0.3 - others), rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_exact_simple_and_double_zero(self):
        zeros = [0.3, 0.3, -1.0, 0.5j]
        p = Poly.product_form(zeros, leading=2.0)
        pv, dv = p.values(np.array([0.3, -1.0, 0.7], dtype=complex))
        assert pv[0] == pv[1] == 0.0
        assert dv[0] == 0.0
        assert_allclose(dv[1], 2.0 * np.prod(-1.0 - np.array([0.3, 0.3, 0.5j])), rtol=1e-15)
        # a point off the zeros in the same call keeps the reciprocal sum
        assert dv[2] == p.values(np.array([0.7 + 0j]))[1][0]
        assert_allclose(dv[2], horner_with_derivative(p.coeffs, np.array([0.7 + 0j]))[1][0],
                        rtol=1e-14)

    def test_value_is_the_row_product(self):
        # p is [a_d, z - zeta_1, ...] multiplied along the row, byte for byte,
        # with or without p'
        zeros = np.cos(np.pi * (np.arange(41) + 0.5) / 41) + 0.01j
        p = Poly.product_form(zeros, leading=3.0)
        z = np.linspace(-1.2, 1.2, 300) + 0.02j
        rows = np.column_stack([np.full(z.shape, 3.0 + 0j), z[:, None] - p.zeros])
        expected = np.multiply.reduce(rows, axis=1).tobytes()
        assert p(z).tobytes() == expected
        assert p.values(z)[0].tobytes() == expected

    def test_blocked_evaluation(self):
        # more points than one block of the difference matrix holds
        zeros = np.cos(np.pi * (np.arange(41) + 0.5) / 41)
        p = Poly.product_form(zeros, leading=3.0)
        z = np.linspace(-1.2, 1.2, 5000) + 0.01j
        pv, dv = p.values(z)
        assert np.array_equal(p(z), pv)
        for i in (0, 1597, 1598, 4999):
            one, done = p.values(z[i:i + 1])
            assert pv[i] == one[0] and dv[i] == done[0]
        assert p.values(z.reshape(50, 100))[0].shape == (50, 100)

    def test_leading_coefficient_and_trim_keep_the_form(self):
        p = Poly.product_form(self.ROOTS, leading=2.0)
        assert p.coeffs[-1] == 2.0
        assert p.trimmed() is p
        assert Poly.product_form([]).zeros is None

    @pytest.mark.parametrize("make", [lambda: Poly([-2.0, 0.0, 1.0]),
                                      lambda: Poly.from_roots([2.0 ** 0.5, -2.0 ** 0.5])],
                             ids=["coeffs", "from_roots"])
    def test_coefficients_keep_horner(self, make):
        # a Poly given by coefficients, or by from_roots, is evaluated by
        # Horner on them, bit for bit; values(z, w) runs it on those of p - w
        z = np.array([0.3 + 0.1j, 2.0, -1.7j])
        p = make()
        assert p.zeros is None
        shifted = p.coeffs - np.array([0.7, 0.0, 0.0])
        assert np.array_equal(p(z), horner(p.coeffs, z))
        assert all(np.array_equal(a, b)
                   for a, b in zip(p.values(z, 0.7), horner_with_derivative(shifted, z)))

    def test_noise_floor(self):
        # 4 (d+1) eps (|p| + |w|) on the product form, and 4 (d+1) eps times
        # the magnitude sum sum |c_k| |z|^k of p - w on the coefficients
        z = np.array([0.3 + 0.1j, 2.0, -1.7j])
        level = 16.0 * np.finfo(float).eps
        q = Poly.product_form([0.5, -1.0, 2.0j], leading=2.0)
        pv = q.values(z, 0.7)[0]
        assert_allclose(q.noise_floor(z, pv, 0.7),
                        level * (np.abs(q(z)) + 0.7), rtol=1e-15)
        p = Poly(q.coeffs)
        mags = np.abs(p.coeffs - np.array([0.7, 0, 0, 0]))
        assert_allclose(p.noise_floor(z, pv, 0.7),
                        level * np.polynomial.polynomial.polyval(np.abs(z), mags), rtol=1e-15)
