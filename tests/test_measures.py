"""Potential-theory layer: arcsine references, Green function, energies,
weak-star diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import xjulia as xj
from xjulia.errors import ValidationError
from xjulia.measures import EmpiricalMeasure

import oracles

LOG2 = np.log(2.0)


def arcsine_cloud(n):
    return EmpiricalMeasure(oracles.arcsine_quantiles(n).astype(complex))


class TestArcsine:
    def test_symmetry_point(self):
        assert xj.arcsine_cdf(0.0) == 0.5

    def test_quarter(self):
        assert_allclose(xj.arcsine_cdf(np.sqrt(2) / 2), 0.75, rtol=1e-14)

    def test_clamps(self):
        assert xj.arcsine_cdf(-1.0) == 0.0
        assert xj.arcsine_cdf(1.0) == 1.0
        assert xj.arcsine_cdf(-5.0) == 0.0

    def test_quantiles_hit_levels(self):
        q = oracles.arcsine_quantiles(64)
        levels = (np.arange(1, 65) - 0.5) / 64
        assert_allclose([xj.arcsine_cdf(x) for x in q], levels, atol=1e-14)


class TestGreen:
    def test_at_two(self):
        assert_allclose(xj.green_complement_interval(2.0),
                        np.log(2 + np.sqrt(3)), rtol=1e-14)

    def test_vanishes_on_interval(self):
        assert xj.green_complement_interval(0.5) == 0.0
        assert np.all(xj.green_complement_interval(np.linspace(-1, 1, 33)) == 0.0)

    def test_at_i(self):
        assert_allclose(xj.green_complement_interval(1j),
                        np.log(1 + np.sqrt(2)), rtol=1e-14)

    def test_continuity_across_cut(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.99, 0.99, 100)
        eps = 1e-9
        above = xj.green_complement_interval(x + 1j * eps)
        below = xj.green_complement_interval(x - 1j * eps)
        assert np.max(np.abs(above - below)) <= 1e-8
        assert np.max(above) <= 1e-4

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(200) * 2 + 2j * rng.standard_normal(200)
        assert np.all(xj.green_complement_interval(z) >= 0.0)


class TestPotential:
    def test_point_mass_at_e(self):
        mu = EmpiricalMeasure([0.0])
        assert_allclose(oracles.log_potential(mu, np.e), -1.0, rtol=1e-14)

    def test_uniform_circle_center(self):
        z = np.exp(2j * np.pi * np.arange(1024) / 1024)
        mu = EmpiricalMeasure(z)
        assert abs(oracles.log_potential(mu, 0.0)) <= 1e-3

    def test_arcsine_matches_green_identity(self):
        # U(z) = log 2 - g(z) for the arcsine measure
        mu = arcsine_cloud(512)
        got = oracles.log_potential(mu, 2.0)
        want = LOG2 - xj.green_complement_interval(2.0)
        assert abs(got - want) <= 5e-3

    def test_identity_at_twenty_points(self):
        mu = arcsine_cloud(512)
        rng = np.random.default_rng(21)
        count = 0
        while count < 20:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            x = min(max(z.real, -1.0), 1.0)
            if abs(z - x) < 0.5:
                continue
            count += 1
            want = LOG2 - xj.green_complement_interval(z)
            assert abs(oracles.log_potential(mu, z) - want) <= 5e-3

    def test_on_support_is_infinite(self):
        mu = EmpiricalMeasure([1.0 + 1j, 2.0])
        assert oracles.log_potential(mu, 1.0 + 1j) == np.inf


class TestEnergy:
    def test_arcsine_cloud_energy(self):
        assert abs(oracles.energy(arcsine_cloud(512)) - LOG2) <= 2e-2

    def test_two_points_at_unit_distance(self):
        mu = EmpiricalMeasure([0.0, 1.0])
        assert oracles.energy(mu) == 0.0

    def test_random_circle_cloud(self):
        # capacity of the circle is 1; the off-diagonal pair sum over
        # independent uniform points estimates the energy 0 without bias
        rng = np.random.default_rng(5)
        z = np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        assert abs(oracles.energy(EmpiricalMeasure(z))) <= 2e-2

    def test_duplicate_points_infinite(self):
        mu = EmpiricalMeasure([0.5, 0.5, 1.0])
        assert oracles.energy(mu) == np.inf

    def test_refinement_does_not_worsen(self):
        # lower-semicontinuity proxy: doubling the cloud never moves the
        # energy further from log 2
        prev = abs(oracles.energy(arcsine_cloud(128)) - LOG2)
        for n in (256, 512, 1024):
            cur = abs(oracles.energy(arcsine_cloud(n)) - LOG2)
            assert cur <= prev + 1e-3
            prev = cur

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            oracles.energy(EmpiricalMeasure([1.0]))


class TestKolmogorovSmirnov:
    def test_quantile_cloud_is_tight(self):
        n = 200
        mu = arcsine_cloud(n)
        assert xj.ks_distance_real(mu, xj.arcsine_cdf) <= 1 / (2 * n) + 1e-12

    def test_point_mass_against_arcsine(self):
        mu = EmpiricalMeasure([0.0])
        assert_allclose(xj.ks_distance_real(mu, xj.arcsine_cdf), 0.5, rtol=1e-12)

    def test_complex_support_rejected(self):
        mu = EmpiricalMeasure([1j])
        with pytest.raises(ValidationError, match="moments"):
            xj.ks_distance_real(mu, xj.arcsine_cdf)


class TestChebyshevMoments:
    def test_arcsine_moments_vanish(self):
        mu = arcsine_cloud(4096)
        m = xj.chebyshev_moments(mu, 6)
        assert np.max(np.abs(m[1:])) <= 2e-3

    def test_point_mass_at_one(self):
        mu = EmpiricalMeasure([1.0])
        assert_allclose(xj.chebyshev_moments(mu, 8).real, np.ones(9), rtol=1e-12)

    def test_zeroth_moment_exact(self):
        mu = EmpiricalMeasure(np.linspace(-1, 1, 7))
        assert xj.chebyshev_moments(mu, 3)[0] == 1.0

    def test_k_max_capped(self):
        mu = EmpiricalMeasure([0.0])
        with pytest.raises(ValueError):
            xj.chebyshev_moments(mu, 33)

    def test_negative_k_max_refused(self):
        with pytest.raises(ValueError, match=r"k_max must be >= 0.*got -1"):
            xj.chebyshev_moments(EmpiricalMeasure([0.0]), -1)

    def test_k_max_zero_is_the_mass(self):
        assert xj.chebyshev_moments(EmpiricalMeasure([0.3, 2.0j]), 0).tolist() == [1.0]


class TestEmpiricalMeasure:
    def test_from_no_points_rejected(self):
        with pytest.raises(ValidationError):
            EmpiricalMeasure([])

    def test_csv_roundtrip(self):
        mu = EmpiricalMeasure([0.25 + 1j, -2.0])
        back = EmpiricalMeasure.from_csv(mu.to_csv())
        assert_allclose(back.points, mu.points, rtol=0)
        assert_allclose(back.weights, mu.weights, rtol=0)

    def test_csv_header_checked(self):
        with pytest.raises(ValidationError):
            EmpiricalMeasure.from_csv("x,y\n1,2\n")
