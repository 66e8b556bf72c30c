"""Construction and structural oracles of the transformed families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import xjulia as xj
from xjulia import exceptional as ex
from xjulia import jacobi
from xjulia.config import from_json
from xjulia.errors import ConfigError, ValidationError
from xjulia.poly import Poly, horner

import oracles


def _fresh_family(kind):
    """A family with nothing cached: the stock preset, the preset (3.0, 1.0),
    where b_tilde is negative, or the pure derivative b = 1, bw = 0."""
    if kind == "pure":
        data = ex.make_darboux_data(xj.JacobiParams(0.5, 0.5), Poly([1.0]), Poly([0.0]),
                                    1, 1, 0.0)
    else:
        data = xj.make_x1_preset(
            xj.JacobiParams(*{"stock": (0.02, 1.2), "negative": (3.0, 1.0)}[kind]))
    data._cache.clear()
    return data


# b = x^2 - 1 with both interval factors divided out: b_tilde = -1, m = 0, and
# bw = 0, so P_n is a multiple of (x^2 - 1) p_n' and deg bw < deg b - 1
SQUARE_DERIVATIVE = {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": -1,
                     "b": [-1.0, 0.0, 1.0], "bw": [0.0], "lambda_tilde": 0.0}


def _synthetic_division(coeffs, root):
    """(quotient, remainder) of ascending coeffs by (1 - root x), root = +-1,
    by the synthetic-division loop b_tilde was once built with."""
    out = np.empty(len(coeffs) - 1, dtype=complex)
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = acc
        acc = coeffs[k] + root * acc
    # (1 - x) = -(x - 1): the loop divides by (x - root)
    return (-out if root == 1.0 else out), acc


def _transform_single_degree(data, k, x):
    """b p_k' - bw p_k at real nodes x from the pass to degree k alone."""
    p, dp = jacobi.orthonormal_values(data.params, k, x, 1)
    bc, _, bwc, _ = data.multipliers
    return horner(bc, x).real * dp - horner(bwc, x).real * p


def _sigma_single_degree(data, k):
    rule = data.quad_rule(ex.quad_order(data, k))
    vals = _transform_single_degree(data, k, rule.nodes)
    bt = data.b_tilde(rule.nodes).real
    c0 = ex.normalization_constant(data)
    return float(np.sqrt(c0 * float(rule.integrate_values(vals * vals / bt ** 2))))


def _count_passes(data, monkeypatch):
    """A list that records each recurrence pass from here on (True for a table
    pass), with data's order-200 rule, which makes passes of its own, built."""
    data.quad_rule(ex.BASE_QUAD_ORDER)
    passes = []
    stacked_pass = jacobi._stacked_pass

    def counted(*args, **kwargs):
        passes.append(kwargs.get("table", False))
        return stacked_pass(*args, **kwargs)

    monkeypatch.setattr(jacobi, "_stacked_pass", counted)
    return passes


class TestPreset:
    def test_spec_instance_pole_two(self):
        data = xj.make_x1_preset(xj.JacobiParams(1.0, 3.0))
        assert data.m == 1
        # b_tilde is b with the (1-x) factor divided out: c - x, pole at 2
        r = np.real(xj.roots(data.b_tilde))
        assert_allclose(r, [2.0], atol=1e-12)
        assert data.params.alpha == 2.0 and data.params.beta == 2.0

    def test_equal_exponents_rejected(self):
        with pytest.raises(ConfigError, match="pole"):
            xj.make_x1_preset(xj.JacobiParams(1.0, 1.0))

    def test_far_pole_instance(self):
        data = xj.make_x1_preset(xj.JacobiParams(1.0, 1.1))
        r = np.real(xj.roots(data.b_tilde))
        assert_allclose(r, [21.0], rtol=1e-10)

    def test_pole_inside_interval_rejected(self):
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            xj.make_x1_preset(xj.JacobiParams(0.5, -0.3))

    def test_negative_exponents_rejected(self):
        with pytest.raises(ConfigError, match="> 0"):
            xj.make_x1_preset(xj.JacobiParams(-0.5, -0.2))

    def test_mirror_route(self):
        # alpha > beta puts the pole left of -1, and b_tilde = c - x is negative
        data = xj.make_x1_preset(xj.JacobiParams(3.0, 1.0))
        r = np.real(xj.roots(data.b_tilde))
        assert_allclose(r, [-2.0], atol=1e-12)
        assert np.all(data.b_tilde(np.linspace(-1, 1, 101)).real < 0)
        dev, _ = ex.orthonormality_deviation(data, 8)
        assert dev <= 1e-8

    @pytest.mark.parametrize("alpha,beta", [(3.0, 1.0), (1.5, 0.2), (1.2, 0.02)])
    def test_mirror_symmetry(self, alpha, beta):
        # x -> -x swaps the weight's exponents, so the orthonormal families obey
        # P_n^(alpha,beta)(z) = (-1)^(n+1) P_n^(beta,alpha)(-z) (degree n + 1, positive
        # leading coefficients); an oracle independent of either construction's algebra.
        # Both sides are measured against the sum of their term sizes s: the two
        # families start from differently rounded inputs (1.2 - 1 = 0.19999999999999996),
        # which next to -1 moves P_50 of (1.2, 0.02) by 2e-12 of that sum
        data = xj.make_x1_preset(xj.JacobiParams(alpha, beta))
        mirror = xj.make_x1_preset(xj.JacobiParams(beta, alpha))
        g = np.linspace(-1.6, 1.6, 17)
        z = np.concatenate([np.linspace(-1.0, 1.0, 401), (g[None, :] + 1j * g[:, None]).ravel()])
        for n in range(1, 51):
            f, _, s = ex.exceptional_values(data, n, z)
            f_mirror, _, s_mirror = ex.exceptional_values(mirror, n, -z)
            assert np.all(np.abs(f - (-1) ** (n + 1) * f_mirror) <= 1e-11 * (s + s_mirror))

    @pytest.mark.parametrize("alpha,beta", [(0.02, 1.2), (1.0, 3.0), (2.0, 4.0),
                                            (1.0, 1.1), (3.0, 1.0)])
    def test_gate_passes_across_instances(self, alpha, beta):
        data = xj.make_x1_preset(xj.JacobiParams(alpha, beta))
        assert data.m == 1

    @pytest.mark.parametrize("zeros", [(1.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 1.0, 2.0)])
    def test_double_zero_on_interval_rejected(self, zeros):
        # with eps1 = -1, b_tilde = b / (1 - x) keeps b's double zero at 0.5 or 0,
        # which Aberth splits off the axis, or a zero at 1 from b's double zero
        # there, with one sign on the open interval; refused before the gate runs
        b = Poly(np.polynomial.polynomial.polyfromroots(zeros))
        with pytest.raises(ValidationError, match="vanishes on"):
            ex.make_darboux_data(xj.JacobiParams(2.0, 2.0), b, Poly([3.0, -1.0]), -1, 1, 4.0)

    @pytest.mark.parametrize("alpha,beta", [(0.02, 1.2), (1.2, 0.02), (3.0, 1.0)])
    def test_presets_clear_structural_check(self, alpha, beta):
        # the stock family and its mirrors: b_tilde = c - x is |c| - 1 from zero at
        # the end of [-1, 1] nearest the pole
        data = xj.make_x1_preset(xj.JacobiParams(alpha, beta))
        c = (alpha + beta) / (beta - alpha)
        x = np.clip(data.b_tilde_roots.real, -1.0, 1.0)
        assert_allclose(np.abs(data.b_tilde(x)), abs(c) - 1.0, rtol=1e-12)

    def test_b_positive_on_interval(self, stock_family):
        grid = np.linspace(-0.999, 0.999, 101)
        assert np.all(stock_family.b(grid).real > 0)
        assert np.all(stock_family.b_tilde(np.linspace(-1, 1, 101)).real > 0)

    def test_monic_and_degree_gap(self, stock_family):
        assert stock_family.b.is_monic()
        assert stock_family.b.degree >= stock_family.bw.degree + 1


class TestIntervalFactors:
    def test_polydiv_matches_synthetic_division(self):
        # b_tilde's coefficients, and the remainder the 1e-9 refusal reads,
        # are the loop's bit for bit in their real parts, for either factor
        # alone or both, on divisible b and on b with a remainder
        rng = np.random.default_rng(20)
        for _ in range(40):
            free = rng.uniform(-3.0, 3.0, rng.integers(0, 6))
            for eps1 in (1, -1):
                for eps2 in (1, -1):
                    roots = [*free, *[1.0] * (eps1 == -1), *[-1.0] * (eps2 == -1)]
                    b = Poly.from_roots(roots)
                    ref = b.coeffs.astype(complex)
                    for eps, root in ((eps1, 1.0), (eps2, -1.0)):
                        if eps == -1:
                            ref, _ = _synthetic_division(ref, root)
                    got = ex._divide_out_interval_factors(b, eps1, eps2).coeffs
                    assert np.array_equal(got, ref)
                    assert got.real.tobytes() == ref.real.tobytes()
            coeffs = np.append(rng.uniform(-3.0, 3.0, rng.integers(1, 6)), 1.0).astype(complex)
            for root in (1.0, -1.0):
                quotient, rem = np.polydiv(coeffs[::-1], (-root, 1.0))
                quotient = quotient[::-1]
                ref_quotient, ref_rem = _synthetic_division(coeffs, root)
                assert quotient.real.tobytes() == ref_quotient.real.tobytes()
                assert rem[-1].real == ref_rem.real and np.array_equal(quotient, ref_quotient)

    def test_indivisible_b_refused(self):
        # x^2 + 1 has no (1 - x) factor: the remainder 2 is refused
        with pytest.raises(ValidationError, match=r"\(x - 1\).*remainder 2.00e\+00"):
            ex.make_darboux_data(xj.JacobiParams(2.0, 1.0), Poly([1.0, 0.0, 1.0]),
                                 Poly([0.0]), -1, 1, 0.0)


class TestWeight:
    # W = c0 * w / b_tilde^2, with w the Jacobi weight at the shifted exponents
    def test_normalized_mass(self, stock_family):
        rule = stock_family.quad_rule(2 * ex.BASE_QUAD_ORDER)
        mass = ex.normalization_constant(stock_family) * rule.integrate_values(
            1.0 / stock_family.b_tilde(rule.nodes).real ** 2)
        assert abs(mass - 1.0) <= 1e-10

    def test_positive_on_interval(self, stock_family):
        x = np.linspace(-0.99, 0.99, 201)
        wp = stock_family.weight_params
        w = (ex.normalization_constant(stock_family) * (1.0 - x) ** wp.alpha * (1.0 + x) ** wp.beta
             / stock_family.b_tilde(x).real ** 2)
        assert np.all(w > 0)

    def test_c0_cached_and_positive(self, stock_family):
        c0 = ex.normalization_constant(stock_family)
        assert c0 > 0
        assert ex.normalization_constant(stock_family) == c0


class TestOrthonormality:
    def test_gram_matrix_to_15(self, stock_family):
        dev, _ = ex.orthonormality_deviation(stock_family, 15)
        assert dev <= 1e-8

    def test_gate_takes_one_pass(self, stock_family, monkeypatch):
        # the gate's Gram rows and sigma_0..sigma_10 are slices of the order-200
        # rule's one table pass; the rule, with passes of its own, is built beforehand
        passes = _count_passes(stock_family, monkeypatch)
        xj.make_x1_preset(xj.JacobiParams(0.02, 1.2))
        assert passes == [True]

    @pytest.mark.parametrize("kind", ["stock", "negative", "pure"])
    def test_gram_matrix_matches_single_degree_rows(self, kind):
        data = _fresh_family(kind)
        rule = data.quad_rule(ex.quad_order(data, 15))
        x = rule.nodes
        rows = np.array([_transform_single_degree(data, k, x) / _sigma_single_degree(data, k)
                         for k in range(ex.first_index(data), 16)])
        want = ex.normalization_constant(data) * (rows * (rule.weights / data.b_tilde(x).real ** 2)) @ rows.T
        assert np.array_equal(ex.inner_product_matrix(data, 15), want)

    def test_gate_rejects_wrong_bw(self):
        # perturbing bw destroys orthogonality; the construction must notice
        good = xj.make_x1_preset(xj.JacobiParams(1.0, 3.0))
        bad_bw = Poly(good.bw.coeffs + np.array([0.3, 0.0]))
        with pytest.raises(ValidationError, match="orthonormality"):
            ex.make_darboux_data(good.params, good.b, bad_bw,
                                 good.eps1, good.eps2, good.lambda_tilde)


class TestSigma:
    def test_quadrature_matches_closed_form(self, stock_family):
        worst = max(ex.sigma_discrepancy(stock_family, n) for n in range(51))
        assert worst <= 1e-6

    def test_sigma_zero_positive(self, stock_family):
        assert ex.sigma_n(stock_family, 0) > 0

    def test_negative_index_refused(self, stock_family):
        # the record's norms are a list: -1 must not read its last entry
        with pytest.raises(ValueError, match="degree >= 0"):
            ex.sigma_n(stock_family, -1)

    @pytest.mark.parametrize("kind", ["stock", "negative", "pure"])
    def test_one_pass_caches_single_degree_sigmas(self, kind):
        # sigma_59 reads the order-200 rule's pass, which runs to 70 - m, the top
        # degree on that rule: sigma_k for every k up to it is the single-degree
        # pass's bit for bit, and the next degree takes a larger rule; the pure
        # derivative's sigma_0 vanishes, so it raises when asked for
        data = _fresh_family(kind)
        lo, top = ex.first_index(data), 70 - data.m
        ex.sigma_n(data, 59)
        assert list(data._cache) == ["c0", ("pass", ex.BASE_QUAD_ORDER)]
        assert len(data._cache[("pass", ex.BASE_QUAD_ORDER)].rows) == top + 1
        assert ex.quad_order(data, top) == ex.BASE_QUAD_ORDER < ex.quad_order(data, top + 1)
        for k in range(lo, top + 1):
            assert ex.sigma_n(data, k) == _sigma_single_degree(data, k)
        if lo:
            with pytest.raises(ValidationError, match="degenerate"):
                ex.sigma_n(data, 0)

    def test_sigmas_to_fifty_take_one_pass(self, monkeypatch):
        # sigma_0..sigma_50 all lie on the order-200 rule, read from its one pass
        data = _fresh_family("stock")
        passes = _count_passes(data, monkeypatch)
        [ex.sigma_n(data, n) for n in range(51)]
        assert passes == [True]

    def test_degenerate_transform_rejected(self):
        # b = 1, bw = 0 differentiates: the n = 0 member vanishes identically
        data = ex.make_darboux_data(xj.JacobiParams(0.5, 0.5), Poly([1.0]),
                                    Poly([0.0]), 1, 1, 0.0)
        with pytest.raises(ValidationError, match="degenerate"):
            ex.sigma_n(data, 0)
        assert ex.first_index(data) == 1
        assert ex.sigma_n(data, 1) > 0

    def test_scaling_homogeneity(self, stock_family):
        # doubling c0 (so W -> 2W) scales every norm by sqrt(2)
        clone = ex.make_darboux_data(stock_family.params, stock_family.b,
                                     stock_family.bw, stock_family.eps1,
                                     stock_family.eps2, stock_family.lambda_tilde)
        clone._cache.clear()
        clone._cache["c0"] = 2.0 * ex.normalization_constant(stock_family)
        for n in (0, 3, 11):
            assert_allclose(ex.sigma_n(clone, n),
                            np.sqrt(2.0) * ex.sigma_n(stock_family, n), rtol=1e-12)


class TestEvaluation:
    def test_n_zero_is_scaled_bw(self, stock_family):
        z = np.array([0.3 + 0.1j, -0.8, 2.5])
        p0 = xj.eval_orthonormal_jacobi(stock_family.params, 0, 0.0)
        want = -stock_family.bw(z) * p0 / ex.sigma_n(stock_family, 0)
        assert_allclose(ex.eval_exceptional(stock_family, 0, z), want, rtol=1e-12)

    def test_derivative_against_differences(self, stock_family):
        h = 1e-6
        for z in (0.4, -0.2 + 0.5j, 1.8):
            fd = (ex.eval_exceptional(stock_family, 9, z + h)
                  - ex.eval_exceptional(stock_family, 9, z - h)) / (2 * h)
            assert_allclose(ex.exceptional_values(stock_family, 9, np.array([z]))[1],
                            [fd], rtol=1e-6)

    @pytest.mark.parametrize("n", [0, 10, 40])
    def test_point_evaluation_runs_python_arithmetic(self, stock_family, n):
        # eval_exceptional at a Python complex, a numpy complex or a 0-d array
        # gives the bits of exceptional_values at the Python number, which the
        # refiner evaluates, as complex
        for z in (1.0 + 1.0j, 0.4 + 0.0j, -2.5 + 0.3j, 1.2 - 0.7j):
            want = ex.exceptional_values(stock_family, n, z)[0]
            for point in (z, np.complex128(z), np.asarray(z)):
                got = ex.eval_exceptional(stock_family, n, point)
                assert type(got) is complex
                assert got == want

    def test_refiner_agrees_with_vector_eval(self, stock_family):
        refine = ex.newton_refiner(stock_family, 15)
        # refining an already-exact preimage is a no-op
        z0 = 0.37 + 0.02j
        w = complex(ex.eval_exceptional(stock_family, 15, z0))
        assert abs(refine(z0, w) - z0) <= 1e-12

    @staticmethod
    def refined_residual(family, n, z0, w):
        """|P_n(z) - w| of the refined z, relative to |w| + the evaluation scale."""
        z = ex.newton_refiner(family, n)(z0, w)
        f, _, scale = ex.exceptional_values(family, n, np.array([z]))
        return abs(f[0] - w) / (abs(w) + scale[0])

    def test_refiner_converges_from_monomial_root(self, stock_family):
        # one step of a degree-41 sampler orbit: the monomial-basis preimage z0
        # is off by about 2e-3, and two Newton steps left |P_40(z) - w| at
        # 4.6e-5 of the evaluation scale
        z0 = complex(0.9779537786776813, -5.538449344665533e-19)
        w = complex(0.2164086508034827, -1.4707778899850403e-27)
        assert self.refined_residual(stock_family, 40, z0, w) <= 1e-8


class TestDegreesAndLeadingCoeffs:
    def test_degree_law(self, stock_family):
        for n in (0, 1, 7, 30):
            assert ex.exceptional_degree(stock_family, n) == n + stock_family.m

    def test_formula_matches_estimate(self, stock_family):
        for n in (10, 30, 50):
            lead = xj.leading_coeff_exceptional(stock_family, n)
            est = oracles.leading_coeff_estimate(stock_family, n)
            assert abs(lead - est) <= 1e-6 * abs(est)

    def test_nth_root_trend(self, stock_family):
        g25 = abs(xj.leading_coeff_exceptional(stock_family, 25) ** (1 / 25) - 2.0)
        g50 = abs(xj.leading_coeff_exceptional(stock_family, 50) ** (1 / 50) - 2.0)
        assert g50 <= 0.15
        assert g50 < g25

    def test_degenerate_degree_errors(self):
        # bw p_n reaches the top degree of b p_n' only when deg bw = deg b - 1;
        # otherwise B, bw's coefficient at x^(deg b - 1), is 0
        params = xj.JacobiParams(2.0, 2.0)
        b = Poly([2.0, -3.0, 1.0])            # (x-1)(x-2)
        for bw in (Poly([3.0]), Poly([1.0, 5.0])):    # B = 0, B = 5
            data = oracles.ungated_family(params, b, bw, -1, 1, 4.0)
            for n in (4, 10, 20):
                lead = xj.leading_coeff_exceptional(data, n)
                est = oracles.leading_coeff_estimate(data, n)
                assert abs(lead - est) <= 1e-12 * abs(est)
        # bw's leading coefficient 5 = n kills the top coefficient at n = 5;
        # the degree logic must refuse
        for f in (ex.exceptional_degree, xj.leading_coeff_exceptional):
            with pytest.raises(ValidationError, match="degenerate"):
                f(data, 5)

    def test_top_coefficients_pinned(self, stock_family):
        # the stock family has deg bw = deg b - 1, so B = -alpha, C = bw's
        # constant term and b_1 = -(1 + c); the square-derivative one has
        # deg bw < deg b - 1, so B = C = b_1 = 0, P_n leads with n gamma_n /
        # sigma_n and its zeros, symmetric for alpha = beta, sum to 0
        c = 1.22 / 1.18
        assert_allclose(np.real(stock_family.top), [-0.02, 1.02 * c - 1.0, -(1.0 + c)],
                        rtol=1e-15)
        square = from_json(SQUARE_DERIVATIVE)
        assert square.top == (0.0, 0.0, 0.0)
        pinned = {
            "stock": (stock_family, 1, {
                1: (2, 6.925309419361875, 2.0425307927150227),
                10: (11, 6015.700309440311, 1.6874231217751083),
                40: (41, 7007329374921.14, 1.6404951606642761)}),
            "square": (square, 0, {
                1: (2, 1.20761472884912, 0.0),
                10: (11, 1874.1390547436424, 0.0),
                40: (41, 2584706907148.893, 0.0)}),
        }
        for data, degree_at_0, rows in pinned.values():
            assert ex.exceptional_degree(data, 0) == degree_at_0
            for n, (degree, lead, total) in rows.items():
                assert ex.exceptional_degree(data, n) == degree
                assert_allclose(xj.leading_coeff_exceptional(data, n), lead, rtol=1e-12)
                assert_allclose(ex.zero_sum(data, n), total, rtol=1e-13)

    def test_exceptional_zeros_without_b_tilde_zeros(self):
        # m = 0 leaves no b_tilde zero to sort exceptional zeros by, yet P_4,
        # a multiple of (x^2 - 1) p_4', has the exceptional zeros +-1
        zc = xj.classify_zeros(from_json(SQUARE_DERIVATIVE), 4)
        assert_allclose(zc.regular, [-np.sqrt(3 / 11), 0.0, np.sqrt(3 / 11)], atol=1e-13)
        assert_allclose(np.sort_complex(zc.exceptional), [-1.0, 1.0], atol=1e-13)
        assert zc.exceptional_dist.size == 0

    def test_degree_zero_member_refused(self):
        # P_0 is a multiple of bw, of degree 0 when bw is 0 or a constant: no
        # zero to sum, refused as classify_zeros refuses it
        constant = oracles.ungated_family(xj.JacobiParams(2.0, 2.0), Poly([2.0, -3.0, 1.0]),
                                          Poly([3.0]), -1, 1, 4.0)
        for data in (from_json(SQUARE_DERIVATIVE), constant):
            for f in (ex.zero_sum, xj.classify_zeros):
                with pytest.raises(ValueError, match="degree must be >= 1"):
                    f(data, 0)


class TestMonomialCoeffs:
    def test_reproduces_evaluation_in_disk(self, stock_family):
        p = xj.monomial_coeffs(stock_family, 5)
        rng = np.random.default_rng(2)
        z = 2 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        ref = ex.eval_exceptional(stock_family, 5, z)
        assert np.max(np.abs(p(z) - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_n_zero_coefficients(self, stock_family):
        p = xj.monomial_coeffs(stock_family, 0)
        assert p.degree == stock_family.bw.degree

    def test_leading_matches_formula(self, stock_family):
        for n in (8, 25, 40):
            p = xj.monomial_coeffs(stock_family, n)
            lead = xj.leading_coeff_exceptional(stock_family, n)
            assert abs(p.leading_coeff().real - lead) <= 1e-6 * abs(lead)

    def test_degree_cap(self, stock_family):
        with pytest.raises(ValueError):
            xj.monomial_coeffs(stock_family, 60)

    @pytest.mark.parametrize("n", [10, 20, 40, 50])
    def test_product_form_matches_recurrence(self, stock_family, n):
        # within 1e-11 of the recurrence's term size s on [-1, 1] and on the
        # square |Re|, |Im| <= 1.6.  The zeros are stored in double precision,
        # |d zeta| <= u |zeta|, which moves P_n by u |z| |P_n'| at a point z
        # next to a zero: at n = 50, x = -0.8045 lies 4.1e-6 from one and reads
        # 1.6e-11 of s from that alone.  Horner on monomial coefficients, even
        # correctly rounded ones, reads about 2 of s at n = 40.
        p = xj.monomial_coeffs(stock_family, n)
        u = np.finfo(float).eps / 2
        g = np.linspace(-1.6, 1.6, 201)
        for z in (np.linspace(-1.0, 1.0, 4001).astype(complex),
                  (g[None, :] + 1j * g[:, None]).ravel()):
            f, df, s = ex.exceptional_values(stock_family, n, z)
            assert np.all(np.abs(p(z) - f) <= 1e-11 * s + u * np.abs(z) * np.abs(df))

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_moments_of_zeros_match_coefficients(self, stock_family, n):
        # for k < d the power sums of the roots of P_n(z) - w do not depend on w
        # (Brolin 1965), so the balanced measure's Chebyshev moments are the
        # means of T_k over the zeros; exact_chebyshev_moments takes them by
        # the T recurrence on the product form's zeros, checked here against
        # numpy's chebval on the classified zeros
        zc = xj.classify_zeros(stock_family, n)
        zeros = np.concatenate([zc.regular, zc.exceptional])
        by_chebval = np.polynomial.chebyshev.chebval(zeros, np.eye(7)).mean(axis=1)
        p = xj.monomial_coeffs(stock_family, n)
        exact = xj.exact_chebyshev_moments(p, 6)
        assert np.max(np.abs(by_chebval - exact)) <= 1e-12
        assert np.array_equal(exact, xj.chebyshev_moments(xj.EmpiricalMeasure(p.zeros), 6))


def _p7(params):
    """p_7 from its zeros, the order-7 Gauss-Jacobi nodes, and its leading coefficient."""
    return Poly.from_roots(xj.gauss_jacobi_rule(params, 7).nodes,
                           xj.leading_coeff_jacobi(params, 7))


class TestSpanProperty:
    def test_classical_multiplier(self, stock_family):
        s_obs, residuals = oracles.verify_span_property(stock_family, _p7(stock_family.params))
        # one first-order transformation gives expansions of length deg b + 1
        assert s_obs <= stock_family.b.degree + 1
        tail = residuals[7 + s_obs + 1:]
        assert np.all(tail <= 1e-8 * residuals.max())

    def test_constant_multiplier(self, stock_family):
        s_obs, _ = oracles.verify_span_property(stock_family, Poly([1.0]))
        assert s_obs <= stock_family.b.degree + 1

    def test_zero_polynomial(self, stock_family):
        s_obs, residuals = oracles.verify_span_property(stock_family, Poly([0.0]))
        assert s_obs == 0
        assert np.all(residuals == 0.0)

    @pytest.mark.parametrize("multiplier", ["p7", "constant", "zero"])
    def test_residuals_match_single_degree_rows(self, multiplier):
        # the coefficients <b^2 p, P_l>_W, l <= deg p + 2 deg b + 5, read rows
        # sliced from the cached pass: bit for bit those of single-degree passes
        # on the rule quad_order gives l_max
        data = _fresh_family("stock")
        p = {"p7": _p7(data.params), "constant": Poly([1.0]), "zero": Poly([0.0])}[multiplier]
        l_max = p.degree + 2 * data.b.degree + 5
        rule = data.quad_rule(ex.quad_order(data, l_max))
        x = rule.nodes
        rows = np.array([_transform_single_degree(data, k, x) / _sigma_single_degree(data, k)
                         for k in range(l_max + 1)])
        b2p = data.b(x).real ** 2 * p(x).real
        want = np.abs(ex.normalization_constant(data)
                      * rule.integrate_values(b2p * rows / data.b_tilde(x).real ** 2))
        assert np.array_equal(oracles.verify_span_property(data, p)[1], want)


class TestJson:
    def test_preset_roundtrip_structure(self, stock_family):
        # the stock preset's source family, spelled out in the wire format
        a, bb = 0.02, 1.2
        c = (a + bb) / (bb - a)
        manual = from_json({"alpha": a + 1.0, "beta": bb - 1.0, "eps1": -1, "eps2": 1,
                            "b": [c, -(1.0 + c), 1.0], "bw": [(a + 1.0) * c - 1.0, -a],
                            "lambda_tilde": a * (bb + 1.0)})
        assert manual.m == stock_family.m
        assert_allclose(manual.b.coeffs, stock_family.b.coeffs, rtol=0)
        assert manual.lambda_tilde == stock_family.lambda_tilde
        assert_allclose(ex.sigma_n(manual, 7), ex.sigma_n(stock_family, 7), rtol=1e-12)

    def test_preset_key(self):
        data = from_json({"preset": "x1", "alpha": 1.0, "beta": 3.0,
                             "b": [999.0], "bw": [999.0]})
        assert data.params.alpha == 2.0  # polynomial fields ignored

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            from_json({"preset": "x2", "alpha": 1.0, "beta": 3.0})

    def test_missing_field_named(self):
        with pytest.raises(ConfigError) as err:
            from_json({"alpha": 1.0, "beta": 3.0, "eps1": 1, "eps2": 1,
                          "b": [1.0]})
        assert err.value.field in ("bw", "lambda_tilde")

    def test_bad_eps(self):
        with pytest.raises(ConfigError, match="eps"):
            from_json({"alpha": 1.0, "beta": 3.0, "eps1": 2, "eps2": 1,
                          "b": [1.0], "bw": [0.0], "lambda_tilde": 0.0})

    def test_wrong_lambda_tilde_rejected(self):
        # the pole-2 instance passes the orthonormality gate whatever lambda_tilde
        # says; the closed-form norm check refuses a wrong one
        with pytest.raises(ValidationError, match="lambda_tilde"):
            from_json({"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1,
                          "b": [2.0, -3.0, 1.0], "bw": [3.0, -1.0],
                          "lambda_tilde": 99.0})

    def test_non_monic_b_rejected(self):
        with pytest.raises(ValidationError, match="monic"):
            from_json({"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1,
                          "b": [2.0, -3.0, 2.0], "bw": [3.0, -1.0],
                          "lambda_tilde": 4.0})

    def test_interior_root_rejected(self):
        # b = x^2 - 0.25 vanishes at +-0.5
        with pytest.raises(ValidationError):
            from_json({"alpha": 2.0, "beta": 2.0, "eps1": 1, "eps2": 1,
                          "b": [-0.25, 0.0, 1.0], "bw": [0.0, 1.0],
                          "lambda_tilde": 1.0})

    def test_manual_spec_instance_matches_preset(self):
        for spec, weight in (
                # the pole-2 instance written out longhand: source family (2, 2),
                # b = (x-1)(x-2), bw = 3 - x
                ({"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1,
                  "b": [2.0, -3.0, 1.0], "bw": [3.0, -1.0], "lambda_tilde": 4.0}, (1.0, 3.0)),
                # the pole at -2: source family (4, 0), b = (x-1)(x+2) < 0 on (-1, 1),
                # bw = -9 - 3x
                ({"alpha": 4.0, "beta": 0.0, "eps1": -1, "eps2": 1,
                  "b": [-2.0, 1.0, 1.0], "bw": [-9.0, -3.0], "lambda_tilde": 6.0}, (3.0, 1.0))):
            manual = from_json(spec)
            preset = xj.make_x1_preset(xj.JacobiParams(*weight))
            assert_allclose(ex.sigma_n(manual, 9), ex.sigma_n(preset, 9), rtol=1e-12)
            z = np.array([0.3, 1.4 + 0.2j])
            assert_allclose(ex.eval_exceptional(manual, 6, z),
                            ex.eval_exceptional(preset, 6, z), rtol=1e-10)
