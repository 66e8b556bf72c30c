"""Escape dynamics and the inverse-iteration sampler, checked against the two
closed-form Julia sets (circle for z^2, segment [-2,2] for z^2 - 2)."""

import numpy as np
import pytest

import xjulia as xj
from xjulia import dynamics as dyn
from xjulia.poly import Poly, horner


class TestEscapeRadius:
    def test_pure_square(self, square_escape):
        assert square_escape.r_escape == 2.0

    def test_conjugated_chebyshev(self, cheb_escape):
        assert cheb_escape.r_escape == 4.0

    def test_doubling_inequality_sampled(self, square_escape):
        rng = np.random.default_rng(0)
        z = rng.uniform(2.02, 20.0, 200) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        assert np.all(np.abs(square_escape.poly(z)) > 2 * np.abs(z))

    def test_family_member_passes_check(self, stock_escape):
        # construction itself runs the 200-point sampling gate
        assert stock_escape[50].r_escape >= 1.0

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            dyn.escape_radius(Poly([1.0, 2.0]))

    @pytest.mark.parametrize("n", [53, 57])
    def test_product_form_checked_in_logs(self, stock_family, n):
        # the spot check samples |z| up to 10 r, r ~ 3e4..7e4 here, where
        # a_d prod (z - zeta_i) overflows and inf * inf is NaN
        p = xj.monomial_coeffs(stock_family, n)
        e = dyn.escape_radius(p)
        mono = np.abs(p.coeffs)
        assert e.degree == n + 1
        assert e.r_escape == (2.0 + mono[:-1].sum()) / mono[-1] > 1e4

    def test_batch_shares_uniform_bound(self, stock_escape):
        bounds = {e.r_uniform for e in stock_escape.values()}
        assert len(bounds) == 1
        assert all(e.r_uniform >= e.r_escape for e in stock_escape.values())


class TestRaster:
    def test_square_filled_set_is_unit_disk(self, square_escape):
        r = dyn.escape_raster(square_escape, half_width=1.5, resolution=512,
                              max_iter=100)
        xs, ys = r.pixel_centers()
        zz = np.abs(xs[None, :] + 1j * ys[:, None])
        pix = r.pixel_width
        inside = zz <= 1.0 - pix
        outside = zz >= 1.0 + pix
        bounded = r.counts == r.max_iter
        assert np.all(bounded[inside])
        assert not np.any(bounded[outside])

    def test_square_negation_symmetry(self, square_escape):
        r = dyn.escape_raster(square_escape, half_width=1.5, resolution=256,
                              max_iter=60)
        assert np.array_equal(r.counts, r.counts[::-1, ::-1])

    def test_chebyshev_segment(self, cheb_escape):
        # odd resolution puts one pixel row exactly on the real axis; there the
        # bounded set is [-2, 2] sharp
        r = dyn.escape_raster(cheb_escape, half_width=3.0, resolution=513,
                              max_iter=200)
        xs, ys = r.pixel_centers()
        row = int(np.argmin(np.abs(ys)))
        assert abs(ys[row]) < 1e-12
        bounded = r.counts[row] == r.max_iter
        # non-escaped cells only within one pixel of [-2, 2], all of [-2, 2] kept
        assert np.all(np.abs(xs[bounded]) <= 2.0 + r.pixel_width)
        assert np.all(bounded[np.abs(xs) <= 2.0])
        # every other row escapes eventually
        others = np.delete(np.arange(513), row)
        assert np.all(r.counts[others] < r.max_iter)

    def test_counts_zero_outside_escape_disk(self, square_escape):
        r = dyn.escape_raster(square_escape, half_width=8.0, resolution=64,
                              max_iter=10)
        xs, ys = r.pixel_centers()
        zz = np.abs(xs[None, :] + 1j * ys[:, None])
        assert np.all(r.counts[zz > 2.0] == 0)

    def test_family_raster_inside_uniform_bound(self, stock_escape):
        e = stock_escape[20]
        r = dyn.escape_raster(e, half_width=2.0, resolution=256, max_iter=60)
        xs, ys = r.pixel_centers()
        zz = np.abs(xs[None, :] + 1j * ys[:, None])
        assert np.all(zz[r.counts == r.max_iter] <= e.r_uniform + 1e-6)

    def test_resolution_cap(self, square_escape):
        with pytest.raises(ValueError):
            dyn.escape_raster(square_escape, resolution=0)

    @pytest.mark.parametrize("window", [
        {"center": complex(np.nan, 0.0)}, {"center": complex(0.0, np.inf)},
        {"half_width": np.nan}, {"half_width": np.inf}, {"half_width": 0.0},
        {"half_width": -1.0},
    ])
    def test_window_must_be_finite(self, square_escape, window):
        with pytest.raises(ValueError, match="half_width"):
            dyn.escape_raster(square_escape, resolution=8, **window)

    def test_pgm_bytes(self, square_escape):
        r = dyn.escape_raster(square_escape, half_width=1.5, resolution=32,
                              max_iter=50)
        blob = dyn.raster_to_pgm(r)
        assert blob.startswith(b"P5\n32 32\n255\n")
        assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32
        body = np.frombuffer(blob[len(b"P5\n32 32\n255\n"):], dtype=np.uint8)
        assert body.max() == 255  # non-escaped pixels map to maxval


def _reference_counts(e, center=0j, half_width=2.0, resolution=512, max_iter=100):
    """The escape loop before tiling and retirement: the whole grid at once,
    every live orbit stepped until it escapes or max_iter is spent."""
    raster = dyn.RasterGrid(complex(center), float(half_width), resolution, max_iter,
                            np.full((resolution, resolution), max_iter, dtype=np.int32))
    xs, ys = raster.pixel_centers()
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    counts = raster.counts.ravel()
    coeffs = e.poly.monomial_coeffs()
    r_sq = e.r_escape * e.r_escape
    idx = np.arange(grid.size)
    cur = grid.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter):
            mag_sq = cur.real * cur.real + cur.imag * cur.imag
            esc = (mag_sq > r_sq) | ~np.isfinite(mag_sq)
            if esc.any():
                counts[idx[esc]] = k
                keep = ~esc
                idx = idx[keep]
                cur = cur[keep]
            if idx.size == 0:
                break
            out = np.full(cur.shape, coeffs[-1], dtype=complex)
            for ck in coeffs[-2::-1]:
                out = out * cur + ck
            cur = out
            bad = ~np.isfinite(cur) | (np.abs(cur.real) > dyn.OVERFLOW_GUARD) \
                | (np.abs(cur.imag) > dyn.OVERFLOW_GUARD)
            if bad.any():
                cur[bad] = 2.0 * dyn.OVERFLOW_GUARD
    return raster.counts


RABBIT = -0.12256116687665362 + 0.7448617666197442j


class TestRasterMatchesReference:
    """The tiled raster with cycle retirement returns the reference loop's
    counts bit for bit."""

    @pytest.mark.parametrize("coeffs, window", [
        ([0.0, 0.0, 1.0], {}),
        ([-1.0, 0.0, 1.0], {}),
        ([RABBIT, 0.0, 1.0], {"half_width": 1.6}),
        ([0.0, -3.0, 0.0, 1.0], {"half_width": 2.5}),
        ([-0.75 + 0.1j, 0.0, 1.0], {"max_iter": 300}),
        ([0.0, 0.0, 1.0], {"resolution": 513, "half_width": 1.5, "max_iter": 200}),
        ([-1.0, 0.0, 1.0], {"resolution": 513, "max_iter": 1}),
        ([-2.0, 0.0, 1.0], {"resolution": 513, "half_width": 3.0, "max_iter": 200}),
    ], ids=["z2", "z2-1", "rabbit", "z3-3z", "slow", "res513", "max_iter1", "cheb"])
    def test_closed_forms(self, coeffs, window):
        e = dyn.escape_radius(Poly(coeffs))
        assert np.array_equal(dyn.escape_raster(e, **window).counts,
                              _reference_counts(e, **window))

    def test_family_member(self, stock_escape):
        e = stock_escape[40]
        assert np.array_equal(dyn.escape_raster(e).counts, _reference_counts(e))

    @pytest.mark.parametrize("e, window", [
        # 1.7e308 z^2 overflows to inf and NaN inside its escape disk
        (dyn.EscapeData(Poly([0.0, 0.0, 1.7e308]), 1.2, 1.2),
         {"half_width": 1.2, "resolution": 64}),
        # pixel centers near the largest double: finite, but every squared
        # modulus is inf at the start
        (dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 2.0, 2.0),
         {"center": complex(1e308, 1e308), "half_width": 7e307, "resolution": 64}),
        # r_escape^2 overflows: the corners start at an infinite modulus, and
        # guarded orbits inside never escape
        (dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 1e200, 1e200),
         {"half_width": 1e154, "resolution": 64}),
    ], ids=["inf-nan", "inf-start", "huge-radius"])
    def test_overflow_windows(self, e, window):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(dyn.escape_raster(e, **window).counts,
                                  _reference_counts(e, **window))

    def test_window_whose_pixel_centers_overflow_rejected(self):
        e = dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 2.0, 2.0)
        with pytest.raises(ValueError, match="overflow"):
            dyn.escape_raster(e, center=1.7e308, half_width=1e308, resolution=64)

    def test_window_whose_pixel_width_overflows_rejected(self):
        # the centers are finite, but 2 half_width / resolution is inf, and
        # pixel_index would divide by it
        e = dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 2.0, 2.0)
        with pytest.raises(ValueError, match="overflow"):
            dyn.escape_raster(e, center=0j, half_width=1e308, resolution=4)

    def test_overflow_window_reaches_nan(self):
        # two pixels of the inf-nan window above, both inside |z| <= 1.2
        with np.errstate(over="ignore", invalid="ignore"):
            step = horner(np.array([0.0, 0.0, 1.7e308], dtype=complex),
                          np.array([1.1 + 0j, 0.8 + 0.8j]))
        assert np.isnan(step[0].imag) and np.isinf(step[1].imag)

    def test_period_two_orbits_retire(self, monkeypatch):
        # every orbit of this window lands on the cycle 0 -> -1 -> 0 of z^2 - 1
        e = dyn.escape_radius(Poly([-1.0, 0.0, 1.0]))
        window = {"half_width": 0.1, "resolution": 64, "max_iter": 1000}
        stepped = [0]

        def counted(coeffs, z):
            stepped[0] += z.size
            return horner(coeffs, z)

        monkeypatch.setattr(dyn, "horner", counted)
        counts = dyn.escape_raster(e, **window).counts
        assert np.all(counts == 1000)
        assert stepped[0] < 0.1 * 64 * 64 * 1000
        monkeypatch.undo()
        assert np.array_equal(counts, _reference_counts(e, **window))


class TestBrolinSampler:
    def test_square_lands_on_circle(self, square_sample):
        assert np.max(np.abs(np.abs(square_sample.points) - 1.0)) <= 1e-9

    def test_square_means_vanish(self, square_sample):
        z = square_sample.points
        assert abs(z.mean()) <= 0.02
        assert abs((z ** 2).mean()) <= 0.02

    def test_chebyshev_real_support(self, cheb_sample):
        assert np.max(np.abs(cheb_sample.points.imag)) <= 1e-9

    def test_chebyshev_rescaled_arcsine(self, cheb_sample):
        mu = xj.EmpiricalMeasure(cheb_sample.points / 2.0)
        assert xj.ks_distance_real(mu, xj.arcsine_cdf) <= 0.02

    def test_samples_within_uniform_bound(self, stock_escape, stock_samples):
        for n, s in stock_samples.items():
            assert np.max(np.abs(s.points)) <= stock_escape[n].r_uniform + 1e-6

    def test_determinism_bit_identical(self, square_escape):
        a = dyn.brolin_sample(square_escape, 500, burn_in=20, seed=42)
        b = dyn.brolin_sample(square_escape, 500, burn_in=20, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_stream(self, square_escape):
        a = dyn.brolin_sample(square_escape, 200, burn_in=20, seed=1)
        b = dyn.brolin_sample(square_escape, 200, burn_in=20, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_stream_pinned(self):
        # recorded values: the seed -> Philox stream mapping must not move
        e = dyn.escape_radius(Poly([0.0, -3.0, 0.0, 1.0]))
        s = dyn.brolin_sample(e, 3, burn_in=20, seed=42)
        expected = np.array([-1.3912903496567095 - 6.647395062966383e-68j,
                             0.5072756163010373 + 2.983551282317667e-68j,
                             1.8111024728098724 + 4.3617407598331663e-69j])
        assert np.array_equal(s.points, expected)

    def test_refiner_applied_to_each_point(self, stock_family, stock_escape):
        # an EscapeData refiner gets each drawn point with its target, and the
        # orbit continues from what it returns; newton_refiner moves a point
        # that already solves P_n(z) = w by rounding only
        refine = xj.exceptional.newton_refiner(stock_family, 10)
        steps = []

        def recorded(z, w):
            steps.append((z, refine(z, w)))
            return steps[-1][1]

        e = stock_escape[10]
        s = dyn.brolin_sample(dyn.EscapeData(e.poly, e.r_escape, e.r_uniform, recorded),
                              30, burn_in=10, seed=3)
        assert len(steps) == 40
        assert np.array_equal(s.points, [out for _, out in steps[10:]])
        assert all(abs(out - z) <= 1e-10 * (1.0 + abs(z)) for z, out in steps)

    def test_sample_count_cap(self, square_escape):
        with pytest.raises(ValueError):
            dyn.brolin_sample(square_escape, 10 ** 6 + 1, seed=0)

    def test_csv_format(self, square_escape):
        s = dyn.brolin_sample(square_escape, 3, burn_in=5, seed=0)
        lines = s.to_measure().to_csv().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 4

    def test_csv_reads_back_bit_for_bit(self, stock_samples):
        # the report reads back the CSV brolin writes; on the real axis the
        # orbit's imaginary parts are +0 or below an ulp of the real part, and
        # its conjugate's are -0
        s = stock_samples[10]
        tiny = np.abs(s.points.imag) <= 4 * np.finfo(float).eps * np.abs(s.points.real)
        assert np.any(s.points.imag == 0.0) and np.any(tiny & (s.points.imag != 0.0))
        back = xj.EmpiricalMeasure.from_csv(s.to_measure().to_csv()).points
        assert back.tobytes() == s.points.tobytes()
        conj = xj.EmpiricalMeasure(s.points.conj())
        back = xj.EmpiricalMeasure.from_csv(conj.to_csv()).points
        assert back.tobytes() == conj.points.tobytes()


class TestExactMoments:
    def test_closed_forms(self):
        # z^3 - 3z has the arcsine law on [-2, 2]: E z = 0, E T_2 = 2 E z^2 - 1 = 3
        m = dyn.exact_chebyshev_moments(Poly([0.0, -3.0, 0.0, 1.0]), 2)
        assert np.allclose(m, [1.0, 0.0, 3.0], rtol=0, atol=1e-15)
        m = dyn.exact_chebyshev_moments(Poly([0.0, 0.0, 1.0]), 1)
        assert np.allclose(m, [1.0, 0.0], rtol=0, atol=1e-15)

    def test_matches_roots_of_any_target(self):
        # for k < d the mean of T_k over the roots of p(z) - w is the same for every w
        p = Poly.from_roots([0.3, -0.7 + 0.2j, -0.7 - 0.2j, 1.1, -0.05j], leading=2.0)
        m = dyn.exact_chebyshev_moments(p, 4)
        cheb = np.polynomial.chebyshev.chebval
        for w in (0.0, 1.5 - 0.4j, -3.0 + 2.0j):
            shifted = p.coeffs.copy()
            shifted[0] -= w
            z = np.roots(shifted[::-1])
            want = [np.mean(cheb(z, np.eye(5)[k])) for k in range(5)]
            assert np.allclose(m, want, rtol=0, atol=1e-12)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            dyn.exact_chebyshev_moments(Poly([0.0, 0.0, 1.0]), 2)

    def test_stock_values(self, stock_escape):
        worst = [float(np.max(np.abs(dyn.exact_chebyshev_moments(stock_escape[n].poly, 6)[1:])))
                 for n in (10, 20, 40)]
        assert np.allclose(worst, [0.314678, 0.142213, 0.067457], rtol=0, atol=5e-7)

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_sampler_within_batch_means_error(self, stock_escape, stock_samples, n):
        # 20 batches of 1000 consecutive orbit points; the batch means absorb the
        # orbit's serial correlation
        exact = dyn.exact_chebyshev_moments(stock_escape[n].poly, 6)
        batches = stock_samples[n].points[:20000].reshape(20, 1000)
        t_prev, t_cur = np.ones_like(batches), batches
        for k in range(1, 7):
            means = t_cur.mean(axis=1)
            se = np.sqrt(np.sum(np.abs(means - means.mean()) ** 2) / 19 / 20)
            assert abs(means.mean() - exact[k]) <= 6 * se, f"T_{k}"
            t_prev, t_cur = t_cur, 2.0 * batches * t_cur - t_prev


class TestInvariance:
    def test_square_forward_invariance(self, square_escape, square_sample):
        assert dyn.forward_invariance_check(square_escape, square_sample, 0.01) == 1.0

    def test_chebyshev_forward_invariance(self, cheb_escape, cheb_sample):
        eps = 3 * dyn.median_nn_spacing(cheb_sample.points)
        assert dyn.forward_invariance_check(cheb_escape, cheb_sample, eps) >= 0.99

    def test_family_forward_invariance(self, stock_escape, stock_samples):
        s = stock_samples[20]
        eps = 3 * dyn.median_nn_spacing(s.points)
        assert dyn.forward_invariance_check(stock_escape[20], s, eps) >= 0.99

    def test_pullback_identity(self, stock_escape, stock_samples):
        gap = dyn.pullback_refinement_gap(stock_escape[20], stock_samples[20],
                                          n_sub=500, seed=7)
        assert gap <= 0.02

    def test_raster_sample_consistency_square(self, square_escape, square_sample):
        # depth 8 makes the non-escaped region the disk plus a one-pixel smear,
        # so boundary samples stay inside it
        r = dyn.escape_raster(square_escape, half_width=1.5, resolution=1024,
                              max_iter=8)
        hits = sum(1 for z in square_sample.points[:20000]
                   if (ij := r.pixel_index(complex(z))) is not None
                   and r.counts[ij] == r.max_iter)
        assert hits / 20000 >= 0.99

    def test_raster_sample_consistency_family(self, stock_escape, stock_samples):
        e = stock_escape[20]
        r = dyn.escape_raster(e, half_width=1.6, resolution=1024, max_iter=2)
        pts = stock_samples[20].points
        hits = sum(1 for z in pts
                   if (ij := r.pixel_index(complex(z))) is not None
                   and r.counts[ij] == r.max_iter)
        assert hits / len(pts) >= 0.99


class TestPreimages:
    def test_square_one_in_box(self, square_escape):
        assert dyn.preimage_count_in_set(square_escape, 4.0,
                                         (1.9, 2.1, -0.1, 0.1)) == 1

    def test_square_none_in_offset_box(self, square_escape):
        # preimages of -1 are +-i; a right-half-plane box away from them is empty
        assert dyn.preimage_count_in_set(square_escape, -1.0,
                                         (1.5, 2.5, -0.5, 0.5)) == 0

    @pytest.mark.parametrize("poly, w", [
        (Poly([0.0, -3.0, 0.0, 1.0]), 2.0),                # 2 = p(-1), p'(-1) = 0
        (Poly.from_roots([0.3, 0.3, -1.0, 0.5j]), 0.0),    # 0.3 is inexact in binary
        (Poly.product_form([0.3, 0.3, -1.0, 0.5j]), 0.0),
    ])
    def test_critical_value_solve(self, poly, w):
        # at a critical value two preimages coincide and the Newton ratio there
        # is noise over noise; the double root at 0.3 settles only through the
        # noise-floor endgame
        e = dyn.escape_radius(poly)
        z = dyn.solve_preimages(e, w)
        assert len(z) == poly.degree
        assert np.max(np.abs(poly(z) - w)) <= 1e-12

    def test_solver_memory_matches_cold_solves(self, stock_escape, stock_samples):
        # 300 targets of one degree-21 orbit through one solver: every warm start
        # from a remembered root set lands on the cold solve's roots, which
        # start from the zeros
        e = stock_escape[20]
        solver = dyn._PreimageSolver(e.poly)
        for w in stock_samples[20].points[:300]:
            warm = solver.solve(complex(w))
            cold = dyn.solve_preimages(e, w)
            assert len(warm) == len(cold) == e.degree
            # matching by nearest root, so a dropped or doubled root shows up as
            # an index that is hit twice
            match = np.argmin(np.abs(warm[:, None] - cold[None, :]), axis=1)
            assert len(set(match.tolist())) == e.degree
            assert np.all(np.abs(warm - cold[match]) <= 1e-8 * np.abs(cold[match]))
        assert solver.targets.shape == (dyn.SOLVER_MEMORY,)
        assert solver.solved.shape == (dyn.SOLVER_MEMORY, e.degree)
        assert dyn.SOLVER_MEMORY == 256

    @pytest.mark.parametrize("n", [10, 40])
    def test_preimages_of_zero_are_the_zeros(self, stock_family, stock_escape, n):
        zc = xj.classify_zeros(stock_family, n)
        zeros = np.concatenate([zc.regular, zc.exceptional])
        zeros = zeros[np.lexsort((zeros.imag, zeros.real))]
        z = dyn.solve_preimages(stock_escape[n], 0.0)
        assert np.all(np.abs(z - zeros) <= 1e-13 * (1.0 + np.abs(zeros)))

    def test_cold_start_from_zeros_leaves_the_real_line(self, stock_family, monkeypatch):
        # P_4 peaks at 13.9 on [-1, 1], so 4 of the 5 preimages of w = 20.9 are
        # complex; from the exact real zeros Aberth would stay real and fail,
        # so this passes only through the nudged zeros, with no Cauchy circle
        def no_circle(*args):
            raise AssertionError("fell back to the Cauchy circle")

        monkeypatch.setattr(dyn.rootfind, "initial_circle", no_circle)
        e = dyn.escape_radius(xj.monomial_coeffs(stock_family, 4))
        z = dyn.solve_preimages(e, 20.9)
        assert np.count_nonzero(np.abs(z.imag) > 1e-8) == 4
        assert np.max(np.abs(e.poly(z) - 20.9)) <= 1e-10 * 20.9

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_derivative_on_the_orbit(self, stock_family, stock_escape, stock_samples, n):
        # p' as p sum 1/(z - zeta_i) against the recurrence's P_n'
        z = stock_samples[n].points[:200]
        dv = stock_escape[n].poly.values(z)[1]
        ref = xj.exceptional.eval_exceptional_derivative(stock_family, n, z)
        assert np.max(np.abs(dv - ref) / np.abs(ref)) <= 1e-11

    def test_rectangle_touching_interval_rejected(self, square_escape):
        with pytest.raises(ValueError):
            dyn.preimage_count_in_set(square_escape, 4.0, (-0.5, 0.5, -0.5, 0.5))

    def test_family_counts_do_not_grow(self, stock_escape, stock_samples):
        region = (1.5, 2.5, -0.5, 0.5)
        rng = np.random.Generator(np.random.Philox(key=11))
        counts = {}
        for n in (10, 20, 30, 40, 50):
            pts = stock_samples[n].points
            targets = rng.choice(pts, size=20, replace=False)
            counts[n] = max(dyn.preimage_count_in_set(stock_escape[n], w, region)
                            for w in targets)
        late = max(counts[40], counts[50])
        early = max(counts[10], counts[20])
        assert late <= early + 1

    def test_boundary_preimage_containment(self, square_escape, stock_escape):
        ok, worst = dyn.boundary_preimage_containment(square_escape)
        assert ok and worst <= 1.0
        for n in (10, 30, 50):
            ok, worst = dyn.boundary_preimage_containment(stock_escape[n])
            assert ok, f"containment failed at n={n} (worst {worst})"
