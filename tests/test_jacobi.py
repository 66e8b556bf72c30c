"""Classical Jacobi layer: closed forms, finite-difference oracles, quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

import xjulia as xj
from xjulia import jacobi
from xjulia.errors import NodeConvergenceError
from xjulia.jacobi import cached_rule, jacobi_table, log_leading_coeff_jacobi

LEGENDRE = xj.JacobiParams(0.0, 0.0)
CHEB = xj.JacobiParams(-0.5, -0.5)


def beta_integral_oracle(alpha, beta, k):
    """Exact integral of x^k (1-x)^alpha (1+x)^beta over [-1, 1].

    Binomial expansion of x = (1+x) - 1 into shifted beta functions; the
    alternating sum cancels catastrophically in doubles, so it is carried out
    in 50-digit arithmetic and rounded at the end.
    """
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        total = mp.mpf(0)
        for j in range(k + 1):
            total += (math.comb(k, j) * mp.mpf(-1) ** (k - j)
                      * mp.mpf(2) ** (a + b + 1 + j) * mp.beta(a + 1, b + j + 1))
        return float(total)


def mp_gauss_jacobi_oracle(alpha, beta, order, dps=40):
    """Gauss-Jacobi nodes and weights carried out in dps-digit arithmetic.

    The recurrence coefficients are formed from the exact binary values of
    alpha and beta; each node is Newton-iterated on the orthonormal recurrence
    (value and derivative in one sweep) from scipy's roots_jacobi start until
    the step is below 10^(5-dps), and its weight is the Christoffel sum
    1 / sum_{k<order} p_k(x)^2 at the converged node.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        s = a + b
        diag = [(b - a) / (s + 2)]
        off = [mp.sqrt(2 ** (s + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(s + 2)),
               mp.sqrt(4 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s)))]
        for k in range(1, order):
            diag.append((b * b - a * a) / ((2 * k + s) * (2 * k + s + 2)))
            off.append(mp.sqrt(4 * (k + 1) * (k + 1 + a) * (k + 1 + b) * (k + 1 + s)
                               / ((2 * k + 2 + s) ** 2 * (2 * k + 3 + s) * (2 * k + 1 + s))))

        def sweep(x):
            p_prev, p = mp.mpf(0), 1 / off[0]
            d_prev, d = mp.mpf(0), mp.mpf(0)
            christoffel = mp.mpf(0)
            for k in range(order):
                christoffel += p * p
                p_prev, p, d_prev, d = (
                    p, ((x - diag[k]) * p - off[k] * p_prev) / off[k + 1],
                    d, (p + (x - diag[k]) * d - off[k] * d_prev) / off[k + 1])
            return p, d, christoffel

        tol = mp.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for start in roots_jacobi(order, alpha, beta)[0]:
            x = mp.mpf(float(start))
            for _ in range(10):
                p, d, _ = sweep(x)
                step = p / d
                x -= step
                if abs(step) < tol:
                    break
            else:
                raise AssertionError(f"oracle Newton did not converge from {start}")
            nodes.append(x)
            weights.append(1 / sweep(x)[2])
        assert all(u < v for u, v in zip(nodes, nodes[1:]))
        return (np.array([float(v) for v in nodes]),
                np.array([float(v) for v in weights]))


class TestParams:
    def test_rejects_alpha_at_minus_one(self):
        with pytest.raises(ValueError, match="alpha"):
            xj.JacobiParams(-1.0, 0.0)

    def test_rejects_beta_below_minus_one(self):
        with pytest.raises(ValueError, match="beta"):
            xj.JacobiParams(0.0, -1.5)

    @pytest.mark.parametrize("alpha,beta,ulps", [
        (0.0, 0.0, 8), (-0.5, -0.5, 8), (0.02, 1.2, 8), (-0.9, 4.0, 8), (3.7, 2.1, 8),
        (7.5, 7.9, 32), (200.0, 1.0, 5000)])    # Gamma(203) overflows: lgamma's exp
    def test_weight_mass_against_mpmath(self, alpha, beta, ulps):
        # 2^(a+b+1) B(a+1, b+1) in 40 digits
        with mp.workdps(40):
            exact = float(mp.mpf(2) ** (alpha + beta + 1) * mp.beta(alpha + 1, beta + 1))
        assert abs(xj.JacobiParams(alpha, beta).weight_mass / exact - 1.0) <= ulps * 2.0 ** -52

    @pytest.mark.parametrize("alpha,beta", [(0.02, 1.2), (-0.5, -0.5), (0.7, -0.3), (4.0, 0.1)])
    def test_recurrence_table_matches_scalar_formula(self, alpha, beta):
        # the vectorized table against the closed forms on Python floats, bit
        # for bit, past the first rebuild at 256 rows
        a, b = jacobi._recurrence(alpha, beta, 300)
        s = alpha + beta
        assert a[0] == (beta - alpha) / (s + 2) and b[0] == xj.JacobiParams(alpha, beta).weight_mass
        assert b[1] == 4 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s))
        for k in range(1, 301):
            assert a[k] == (beta * beta - alpha * alpha) / ((2 * k + s) * (2 * k + s + 2))
            if k > 1:
                assert b[k] == (4 * k * (k + alpha) * (k + beta) * (k + s)
                                / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
        short = jacobi._recurrence(alpha, beta, 40)
        assert np.array_equal(short[0], a[:41]) and np.array_equal(short[1], b[:41])


class TestEvaluation:
    def test_legendre_degree_one(self):
        assert_allclose(xj.eval_orthonormal_jacobi(LEGENDRE, 1, 1.0),
                        np.sqrt(1.5), rtol=1e-14)
        for x in (-0.7, 0.12, 0.99):
            assert_allclose(xj.eval_orthonormal_jacobi(LEGENDRE, 1, x),
                            np.sqrt(1.5) * x, rtol=1e-13)

    def test_constant_normalization(self):
        assert_allclose(xj.eval_orthonormal_jacobi(LEGENDRE, 0, 123.0 + 4j),
                        1.0 / np.sqrt(2.0), rtol=1e-14)

    def test_chebyshev_closed_form(self):
        # orthonormal Chebyshev is sqrt(2/pi) T_n; T_3(0.5) = -1
        assert_allclose(xj.eval_orthonormal_jacobi(CHEB, 3, 0.5),
                        np.sqrt(2.0 / np.pi) * (-1.0), rtol=1e-13)

    def test_complex_argument_matches_chebyshev_recurrence(self):
        z = 0.3 + 1.7j
        t = [1.0, z]
        for _ in range(8):
            t.append(2 * z * t[-1] - t[-2])
        assert_allclose(xj.eval_orthonormal_jacobi(CHEB, 9, z),
                        np.sqrt(2.0 / np.pi) * t[9], rtol=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            xj.eval_orthonormal_jacobi(LEGENDRE, -1, 0.0)


class TestDerivative:
    def test_legendre_degree_one_slope(self):
        assert_allclose(xj.eval_jacobi_derivative(LEGENDRE, 1, 0.3),
                        np.sqrt(1.5), rtol=1e-14)

    def test_constant_has_zero_slope(self):
        assert xj.eval_jacobi_derivative(LEGENDRE, 0, 0.4) == 0.0

    def test_against_central_differences(self):
        # finite-difference oracle, h = 1e-6
        params = xj.JacobiParams(-0.5, -0.5)
        h = 1e-6
        f = lambda x: xj.eval_orthonormal_jacobi(params, 5, x)
        fd = (f(0.2 + h) - f(0.2 - h)) / (2 * h)
        assert_allclose(xj.eval_jacobi_derivative(params, 5, 0.2), fd, rtol=1e-6)

    @pytest.mark.parametrize("n", [3, 10, 30])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.7, -0.3), (2.5, 1.0)])
    def test_derivative_grid_consistency(self, n, alpha, beta):
        params = xj.JacobiParams(alpha, beta)
        grid = np.linspace(-0.9, 0.9, 100)
        h = 1e-6
        hi = jacobi_table(params, n, grid + h)[n].real
        lo = jacobi_table(params, n, grid - h)[n].real
        fd = (hi - lo) / (2 * h)
        exact = xj.eval_jacobi_derivative(params, n, grid).real
        assert_allclose(exact, fd, rtol=1e-6, atol=1e-8)

    def test_second_derivative_against_differences(self):
        params = xj.JacobiParams(1.0, 0.5)
        h = 1e-5
        f = lambda x: xj.eval_orthonormal_jacobi(params, 8, x)
        fd = (f(0.3 + h) - 2 * f(0.3) + f(0.3 - h)) / h ** 2
        assert_allclose(jacobi.orthonormal_values(params, 8, 0.3)[2], fd, rtol=1e-5)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, -0.5), (0.7, -0.3),
                                            (-0.98, 1.2), (2.5, 1.0), (1.02, 0.2)])
    def test_fused_derivatives_match_shifted_families(self, alpha, beta):
        # p_n' = sqrt(n(n+s+1)) p_{n-1}^(alpha+1,beta+1), s = alpha + beta, and
        # p_n'' = sqrt(n(n+s+1)) sqrt((n-1)(n+s+2)) p_{n-2}^(alpha+2,beta+2)
        # The real points also run in float64, which must give the complex
        # pass's values bit for bit, and a call for fewer derivatives must
        # return the leading arrays of the full call.
        params = xj.JacobiParams(alpha, beta)
        x = np.linspace(-1.0, 1.0, 101)
        grid = np.concatenate([x + 0j, 1.1 * x + 0.4j * np.sin(3 * x)])
        s = alpha + beta
        one = jacobi_table(xj.JacobiParams(alpha + 1, beta + 1), 59, grid)
        two = jacobi_table(xj.JacobiParams(alpha + 2, beta + 2), 58, grid)
        for n in range(61):
            full = jacobi.orthonormal_values(params, n, grid)
            real = jacobi.orthonormal_values(params, n, x)
            for order in range(3):
                assert real[order].dtype == np.float64
                assert np.array_equal(real[order], full[order][:len(x)])
                lower = jacobi.orthonormal_values(params, n, grid, order)
                assert len(lower) == order + 1
                assert all(np.array_equal(u, v) for u, v in zip(lower, full))
            assert np.array_equal(real[0], jacobi_table(params, n, x)[n])
            if n == 0:
                continue
            p, dp, ddp = full
            assert np.array_equal(p, jacobi_table(params, n, grid)[n])
            want = np.sqrt(n * (n + s + 1)) * one[n - 1]
            assert np.max(np.abs(dp - want)) <= 1e-13 * np.max(np.abs(want))
            if n >= 2:
                want = np.sqrt(n * (n + s + 1) * (n - 1) * (n + s + 2)) * two[n - 2]
                assert np.max(np.abs(ddp - want)) <= 1e-13 * np.max(np.abs(want))
            else:
                assert np.all(ddp == 0)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.7, -0.3), (-0.98, 1.2), (2.5, 1.0)])
    def test_table_matches_single_degree_passes(self, alpha, beta):
        # jacobi_table is the stacked pass keeping the rows of every degree: each
        # order's table row k is the single-degree pass to k bit for bit, on real
        # and complex points, for every count of derivatives
        params = xj.JacobiParams(alpha, beta)
        x = np.linspace(-1.0, 1.0, 101)
        for z in (x, 1.1 * x + 0.4j * np.sin(3 * x)):
            assert jacobi_table(params, 59, z).shape == (60, 101)
            for order in range(3):
                table = jacobi_table(params, 59, z, order)
                if order == 0:
                    table = table[None]
                assert table.shape == (order + 1, 60, 101)
                assert table.dtype == z.dtype
                for n in range(60):
                    single = jacobi.orthonormal_values(params, n, z, order)
                    assert all(np.array_equal(t[n], v) for t, v in zip(table, single))

    def test_scalar_matches_array(self):
        # Python scalars run the plain loop below bit for bit, in Python
        # arithmetic; arrays agree with it to rounding
        params = xj.JacobiParams(0.7, -0.3)
        a, b = jacobi._recurrence(0.7, -0.3, 38)
        sb = np.sqrt(b).tolist()

        def loop(z):
            q_prev, q = 0.0, 1.0 / sb[0]
            dq_prev = dq = ddq_prev = ddq = 0.0
            for k in range(37):
                t = z - float(a[k])
                ddq_prev, ddq = ddq, (t * ddq + 2.0 * dq - sb[k] * ddq_prev) / sb[k + 1]
                dq_prev, dq = dq, (t * dq + q - sb[k] * dq_prev) / sb[k + 1]
                q_prev, q = q, (t * q - sb[k] * q_prev) / sb[k + 1]
            return q, dq, ddq

        z = np.array([0.3 + 0.0j, -0.95 + 0.1j, 1.4 - 0.2j])
        arr = jacobi.orthonormal_values(params, 37, z)
        for i, zi in enumerate(z):
            want = loop(complex(zi))
            got = jacobi.orthonormal_values(params, 37, complex(zi))
            assert all(isinstance(v, complex) for v in got)
            assert got == want
            assert jacobi.orthonormal_values(params, 37, complex(zi), 1) == want[:2]
            assert_allclose(got, [v[i] for v in arr], rtol=1e-14)

    @pytest.mark.parametrize("n", [0, 10, 40])
    def test_point_evaluators_run_python_arithmetic(self, n):
        # a Python complex, a numpy complex and a 0-d array are one point, so
        # they give the bits of the plain loop at the Python number, as complex
        params = xj.JacobiParams(0.7, -0.3)
        for z in (1.0 + 1.0j, 0.3 + 0.0j, -0.95 + 0.1j, 1.4 - 0.2j):
            want = jacobi.orthonormal_values(params, n, z, 1)
            for point in (z, np.complex128(z), np.asarray(z)):
                got = (xj.eval_orthonormal_jacobi(params, n, point),
                       xj.eval_jacobi_derivative(params, n, point))
                assert all(type(v) is complex for v in got)
                assert got == want


class TestLeadingCoefficient:
    def test_legendre(self):
        assert_allclose(xj.leading_coeff_jacobi(LEGENDRE, 1), np.sqrt(1.5), rtol=1e-14)

    def test_chebyshev_power_of_two(self):
        # orthonormal T_4 has leading coefficient sqrt(2/pi) * 2^3
        assert_allclose(xj.leading_coeff_jacobi(CHEB, 4),
                        np.sqrt(2.0 / np.pi) * 8.0, rtol=1e-13)

    def test_nth_root_approaches_two(self):
        params = xj.JacobiParams(0.5, 0.3)
        root = np.exp(log_leading_coeff_jacobi(params, 40) / 40)
        assert abs(root - 2.0) < 0.15

    def test_ratio_trend(self):
        # |gamma_{n+1}/gamma_n - 2| keeps shrinking through n in [20, 60]
        params = xj.JacobiParams(0.7, 1.3)
        def ratio_gap(n):
            return abs(np.exp(log_leading_coeff_jacobi(params, n + 1)
                              - log_leading_coeff_jacobi(params, n)) - 2.0)
        for n in range(20, 61):
            assert ratio_gap(n) < ratio_gap(n // 2) + 0.05

    def test_matches_explicit_product(self):
        # independent oracle: gamma_n = lead(P_n) / ||P_n|| via gamma functions
        from scipy.special import gammaln
        a, b = 0.3, 1.7
        n = 17
        lg_lead = (gammaln(2 * n + a + b + 1) - n * np.log(2.0)
                   - gammaln(n + 1) - gammaln(n + a + b + 1))
        lg_norm_sq = ((a + b + 1) * np.log(2.0) - np.log(2 * n + a + b + 1)
                      + gammaln(n + a + 1) + gammaln(n + b + 1)
                      - gammaln(n + a + b + 1) - gammaln(n + 1))
        oracle = np.exp(lg_lead - 0.5 * lg_norm_sq)
        assert_allclose(xj.leading_coeff_jacobi(xj.JacobiParams(a, b), n),
                        oracle, rtol=1e-11)


class TestQuadrature:
    def test_chebyshev_weight_sum(self):
        for order in (1, 2, 7, 40):
            rule = xj.gauss_jacobi_rule(CHEB, order)
            assert_allclose(rule.weights.sum(), np.pi, rtol=1e-13)

    def test_legendre_weight_sum(self):
        rule = xj.gauss_jacobi_rule(LEGENDRE, 13)
        assert_allclose(rule.weights.sum(), 2.0, rtol=1e-14)

    def test_x_squared_against_beta_closed_form(self):
        rule = xj.gauss_jacobi_rule(xj.JacobiParams(1.0, 1.0), 2)
        assert_allclose(rule.integrate_values(rule.nodes ** 2), 4.0 / 15.0, rtol=1e-13)

    def test_order_one(self):
        params = xj.JacobiParams(2.0, 0.5)
        rule = xj.gauss_jacobi_rule(params, 1)
        assert len(rule.nodes) == 1
        assert_allclose(rule.weights.sum(), params.weight_mass, rtol=1e-14)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, -0.5), (1.5, 0.25),
                                            (3.0, 3.0), (-0.9, 4.0)])
    def test_exactness_against_beta_integrals(self, alpha, beta):
        order = 9
        params = xj.JacobiParams(alpha, beta)
        rule = xj.gauss_jacobi_rule(params, order)
        scale = params.weight_mass
        for k in range(2 * order):
            exact = beta_integral_oracle(alpha, beta, k)
            got = rule.integrate_values(rule.nodes ** k)
            # odd moments of symmetric weights vanish; compare those absolutely
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-3 * scale)

    @pytest.mark.parametrize("order", [5, 24, 60])
    def test_against_golub_welsch_oracle(self, order):
        # scipy computes the same rule by eigenvalue methods
        rule = xj.gauss_jacobi_rule(xj.JacobiParams(0.7, -0.3), order)
        x, w = roots_jacobi(order, 0.7, -0.3)
        assert_allclose(rule.nodes, x, atol=1e-13)
        assert_allclose(rule.weights, w, rtol=1e-10)

    def test_production_order_against_mpmath_oracle(self):
        # order 200 is what every family's normalization, norms and
        # orthonormality gate use, at the stock exceptional weight
        rule = xj.gauss_jacobi_rule(xj.JacobiParams(0.02, 1.2), 200)
        x, w = mp_gauss_jacobi_oracle(0.02, 1.2, 200)
        assert np.max(np.abs(rule.nodes - x)) <= 4e-16
        assert np.max(np.abs(rule.weights / w - 1.0)) <= 1e-11

    def test_cached_rule_arrays_are_read_only(self):
        # cached_rule hands the same arrays to every caller
        rule = cached_rule(0.02, 1.2, 8)
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_nodes_strictly_increasing(self):
        rule = xj.gauss_jacobi_rule(xj.JacobiParams(4.0, 0.1), 50)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.abs(rule.nodes) < 1)

    def test_orthonormality_matrix(self):
        params = xj.JacobiParams(0.25, 2.0)
        rule = xj.gauss_jacobi_rule(params, 40)
        table = jacobi_table(params, 20, rule.nodes).real
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(21))) <= 1e-10

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            xj.gauss_jacobi_rule(LEGENDRE, 0)

    def test_node_check_rejects_coincident_nodes(self, monkeypatch):
        # a failed eigensolve must raise, not return a degenerate rule
        monkeypatch.setattr(jacobi, "eigvalsh", lambda m: np.full(len(m), 0.1))
        with pytest.raises(NodeConvergenceError):
            xj.gauss_jacobi_rule(LEGENDRE, 4)

    def test_node_error_type_carries_index(self):
        err = NodeConvergenceError(3, "stalled")
        assert err.index == 3
