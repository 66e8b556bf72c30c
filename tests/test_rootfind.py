"""Root finder and zero classification."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import xjulia as xj
from xjulia import exceptional as ex
from xjulia import poly as pl
from xjulia.config import from_json
from xjulia.errors import ConvergenceError
from xjulia.exceptional import classification_to_csv
from xjulia.poly import Poly, aberth, initial_circle

import oracles


def match_roots(found, expected):
    """Greedy nearest matching; returns worst pairing distance."""
    found = list(found)
    worst = 0.0
    for e in expected:
        i = int(np.argmin([abs(f - e) for f in found]))
        worst = max(worst, abs(found.pop(i) - e))
    return worst


class TestAberth:
    # ending on the sweep limit, and on the noise-floor test in either form
    @pytest.mark.parametrize("poly, w, sweeps", [
        (Poly.product_form([0.5, -1.0, 2.0j, 0.1 + 0.3j], leading=2.0), 0.7, 3),
        (Poly.product_form([0.3, 0.3, -1.0]), 1e-3, 300),
        (Poly([0.0, -3.0, 0.0, 1.0]), 2.0, 300),
    ])
    def test_returned_derivatives_are_the_last_evaluation(self, monkeypatch, poly, w, sweeps):
        def values(z):
            return poly.values(z, w)

        # aberth reads the sweep limit at call time
        monkeypatch.setattr(pl, "MAX_SWEEPS", sweeps)
        z, _, pv, dv = aberth(values, lambda z, pv: poly.noise_floor(z, pv, w),
                              initial_circle(poly.shifted(w)))
        assert pv is not None
        assert np.array_equal(pv, values(z)[0]) and np.array_equal(dv, values(z)[1])


class TestRoots:
    def test_difference_of_squares(self):
        r = np.sort_complex(xj.roots(Poly([-1.0, 0.0, 1.0])))
        assert_allclose(r, [-1.0, 1.0], atol=1e-13)

    def test_linear(self):
        assert_allclose(xj.roots(Poly([3.0, -2.0])), [1.5], rtol=1e-14)

    def test_chebyshev_20_closed_form_zeros(self):
        t20 = Poly(np.polynomial.chebyshev.cheb2poly(np.eye(21)[20]))
        expected = np.cos((2 * np.arange(1, 21) - 1) * np.pi / 40)
        assert match_roots(xj.roots(t20), expected) <= 1e-10

    def test_synthesized_degree_30(self):
        rng = np.random.default_rng(77)
        expected = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        # from coefficients, and from a Poly that evaluates its own zeros
        for p in (Poly.from_roots(expected), Poly.product_form(expected)):
            assert match_roots(xj.roots(p), expected) <= 1e-8

    def test_double_root(self):
        r = xj.roots(Poly([0.0, 0.0, 1.0]))
        assert np.max(np.abs(r)) <= 1e-6

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        p = Poly(rng.standard_normal(18))
        size, k = np.abs(p.coeffs), np.arange(len(p.coeffs))
        for r in xj.roots(p):
            # against sum |c_k| (1 + |r|)^k, the size of p near |z| = 1 + |r|
            assert abs(p(r)) <= 1e-8 * np.sum(size * (1.0 + abs(r)) ** k)

    def test_sweep_budget_exhaustion(self, monkeypatch):
        # the solver reads MAX_SWEEPS at call time
        rng = np.random.default_rng(1)
        p = Poly(rng.standard_normal(13))
        monkeypatch.setattr(pl, "MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError):
            xj.roots(p)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            xj.roots(Poly([2.0]))

    def test_negligible_top_coefficient_is_trimmed(self):
        # a trailing coefficient at or below TRUNCATION_REL of the largest does
        # not count toward the degree, so it neither raises nor adds a root
        z = xj.roots(Poly([1.0, 1.0, 1e-15]))
        assert len(z) == 1 and z[0] == -1.0


class TestClassification:
    def test_counts_and_location(self, stock_family, stock_classifications, stock_pole):
        zc = stock_classifications[50]
        assert len(zc.regular) == 50
        assert len(zc.exceptional) == 1
        assert np.all(np.abs(zc.regular) < 1)
        assert np.all(np.diff(zc.regular) > 1e-10)
        assert abs(zc.exceptional[0] - stock_pole) <= 1e-2

    def test_exceptional_zero_attracted_to_pole(self, stock_classifications, stock_pole):
        dists = [abs(stock_classifications[n].exceptional[0] - stock_pole)
                 for n in (10, 20, 30, 40, 50)]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_exceptional_distances_kept(self, stock_family, stock_classifications):
        # the distances the exceptional zeros are sorted by, which `zeros`
        # writes out as exc_dist, stay with them
        for zc in stock_classifications.values():
            want = np.min(np.abs(zc.exceptional[:, None] - stock_family.b_tilde_roots), axis=1)
            assert np.array_equal(zc.exceptional_dist, want)

    def test_regular_counts_across_n(self, stock_classifications):
        for n, zc in stock_classifications.items():
            assert len(zc.regular) == n
            assert len(zc.exceptional) == 1
            assert len(zc.regular) + len(zc.exceptional) == n + 1

    def test_roots_satisfy_evaluation(self, stock_family, stock_classifications):
        from xjulia.exceptional import eval_exceptional
        zc = stock_classifications[30]
        vals = eval_exceptional(stock_family, 30, zc.regular.astype(complex))
        # interior slope is at least O(1), so residual ~1e-10 pins the roots
        assert np.max(np.abs(vals)) <= 1e-8

    def test_degree_one_member(self, stock_family):
        # n = 0: the member is a multiple of bw, one zero, off the interval
        zc = xj.classify_zeros(stock_family, 0)
        assert len(zc.regular) == 0
        assert len(zc.exceptional) == 1
        assert abs(zc.exceptional[0].real) > 1
        # the zero is exact, so the residual and the size of its terms are
        # both 0: the contract must pass it, not read 0/0
        f, _, size = ex.exceptional_values(stock_family, 0, zc.exceptional)
        assert f[0] == 0 and size[0] == 0

    @pytest.mark.parametrize("alpha,beta", [(0.2411501343380934, 1.3615219434124648),
                                            (0.04169591552740745, 1.2146599053667033)])
    def test_degree_fifty_zeros_solve_the_equation(self, alpha, beta):
        # through the Chebyshev interpolant these gave 49 + 2 and 50 + 1 zeros,
        # each with one "zero" of residual 1.0 of the scale
        data = xj.make_x1_preset(xj.JacobiParams(alpha, beta))
        zc = xj.classify_zeros(data, 50)
        assert len(zc.regular) == 50 and len(zc.exceptional) == 1
        z = np.concatenate([zc.regular.astype(complex), zc.exceptional])
        f, _, size = ex.exceptional_values(data, 50, z)
        assert np.all(np.abs(f) <= 1e-8 * size)

    @pytest.mark.parametrize("n", [10, 50])
    def test_overstated_degree_raises(self, stock_family, monkeypatch, n):
        # one start too many has no zero to settle on
        degree = ex.exceptional_degree
        monkeypatch.setattr(ex, "exceptional_degree", lambda data, n: degree(data, n) + 1)
        # the spare start runs off to overflow; the warnings say nothing here
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            xj.classify_zeros(stock_family, n)

    @pytest.mark.parametrize("n", [10, 50])
    def test_contract_refuses_a_moved_zero(self, stock_family, monkeypatch, n):
        # the contract reads the values aberth returns with the zeros, so a
        # zero moved by 0.1 together with its values must fail it
        aberth = ex.aberth

        def moved(values, noise_floor, z0, *args):
            z = aberth(values, noise_floor, z0, *args)[0]
            z[0] += 0.1
            return (z, True, *values(z))

        monkeypatch.setattr(ex, "aberth", moved)
        with pytest.raises(ConvergenceError):
            xj.classify_zeros(stock_family, n)

    @pytest.mark.parametrize("n", [10, 50])
    def test_contract_refuses_a_doubled_zero(self, stock_family, monkeypatch, n):
        # one zero replaced by its neighbour: every residual stays tiny, and
        # only the sum against Vieta's closed form can tell
        aberth = ex.aberth

        def doubled(values, noise_floor, z0, *args):
            z = aberth(values, noise_floor, z0, *args)[0]
            z = z[np.argsort(z.real)]
            z[len(z) // 2] = z[len(z) // 2 + 1]
            return (z, True, *values(z))

        monkeypatch.setattr(ex, "aberth", doubled)
        with pytest.raises(ConvergenceError, match="Vieta"):
            xj.classify_zeros(stock_family, n)

    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_zero_sum_with_short_bw(self, n):
        # deg bw = 1 < deg b - 1: B = 0, and P_0 has bw's single zero
        data = oracles.ungated_family(xj.JacobiParams(0.3, 0.7),
                                      Poly.from_roots([2.0, -3.0, 1.5]), Poly([0.5, 1.0]),
                                      1, 1, 0.0)
        zc = xj.classify_zeros(data, n)
        found = np.concatenate([zc.regular, zc.exceptional])
        assert len(found) == (1 if n == 0 else n + 2)
        assert abs(found.sum() - ex.zero_sum(data, n)) <= 1e-12 * (1.0 + np.abs(found).sum())

    def test_classical_degenerate_config(self):
        # b = 1, bw = 0 turns the transform into plain differentiation: the
        # resulting family is the shifted classical one, all zeros regular;
        # with bw = 0 the size of the terms is |P_n| itself, so the residual
        # contract passes these zeros on its Newton-step term
        params = xj.JacobiParams(0.5, 0.5)
        data_cfg = {"alpha": 0.5, "beta": 0.5, "eps1": 1, "eps2": 1,
                    "b": [1.0], "bw": [0.0], "lambda_tilde": 0.0}
        data = from_json(data_cfg)
        zc = xj.classify_zeros(data, 12)
        assert len(zc.exceptional) == 0
        assert len(zc.regular) == 11
        oracle = xj.gauss_jacobi_rule(xj.JacobiParams(1.5, 1.5), 11).nodes
        assert match_roots(zc.regular, oracle) <= 1e-9


def _scan_window_families(seed=13):
    """The 8 x1 families a scan round of the benchmark draws for one seed:
    (alpha, beta) uniform in [0.01, 0.3] x [0.8, 2.0]."""
    rng = np.random.default_rng([seed, 0])
    return [xj.make_x1_preset(xj.JacobiParams(float(rng.uniform(0.01, 0.3)),
                                              float(rng.uniform(0.8, 2.0))))
            for _ in range(8)]


class TestClassificationStarts:
    def test_few_aberth_evaluations(self, stock_family, monkeypatch):
        # started next to the regular zeros, every call settles in 3-4
        # evaluations of P_n; starts far from them take 6 or more here
        evals = []
        aberth = ex.aberth

        def counted(values, noise_floor, z0, *args):
            def counted_values(z):
                evals[-1] += 1
                return values(z)

            evals.append(0)
            return aberth(counted_values, noise_floor, z0, *args)

        monkeypatch.setattr(ex, "aberth", counted)
        for data in [stock_family] + _scan_window_families():
            for n in (10, 20, 30, 40, 50):
                evals.clear()
                zc = xj.classify_zeros(data, n)
                assert len(zc.regular) == n and len(zc.exceptional) == 1
                assert evals[-1] <= 6, (data.params, n, evals)

    @pytest.mark.parametrize("alpha,beta", [
        (a, b) for a in (0.01, 0.2, 1.0, 4.0) for b in (0.01, 0.2, 1.0, 4.0) if a != b
    ] + [(1.0, 3.0), (3.0, 1.0), (1.0, 1.1)])
    def test_wide_parameter_range(self, alpha, beta):
        # n regular and m exceptional zeros, each solving P_n = 0 against the
        # recurrence to a backward error of 1e-8 of the size of its terms
        data = xj.make_x1_preset(xj.JacobiParams(alpha, beta))
        for n in list(range(1, 12)) + list(range(15, 56)):
            zc = xj.classify_zeros(data, n)
            assert len(zc.regular) == n and len(zc.exceptional) == data.m, n
            z = np.concatenate([zc.regular.astype(complex), zc.exceptional])
            f, _, size = ex.exceptional_values(data, n, z)
            assert np.all(np.abs(f) <= 1e-8 * size), n


class TestZeroCountingMeasure:
    def test_uniform_weights(self, stock_classifications):
        mu = xj.zero_counting_measure(stock_classifications[20])
        assert mu.size == 20
        assert_allclose(mu.weights, 1 / 20, rtol=0)

    def test_single_zero(self):
        zc = ex.ZeroClassification(regular=np.array([0.0]),
                                exceptional=np.array([], dtype=complex), n=1)
        mu = xj.zero_counting_measure(zc)
        assert mu.size == 1 and mu.weights[0] == 1.0

    def test_ks_against_arcsine(self, stock_classifications):
        ks10 = xj.ks_distance_real(xj.zero_counting_measure(stock_classifications[10]),
                                   xj.arcsine_cdf)
        ks50 = xj.ks_distance_real(xj.zero_counting_measure(stock_classifications[50]),
                                   xj.arcsine_cdf)
        assert ks50 <= 0.05
        assert ks50 < ks10


class TestCsv:
    def test_classification_csv(self, stock_classifications):
        text = classification_to_csv(stock_classifications[10])
        lines = text.strip().splitlines()
        assert lines[0] == "kind,re,im"
        assert sum(ln.startswith("regular,") for ln in lines) == 10
        assert sum(ln.startswith("exceptional,") for ln in lines) == 1
