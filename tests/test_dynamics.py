"""Escape dynamics and the inverse-iteration sampler, checked against the two
closed-form Julia sets (circle for z^2, segment [-2,2] for z^2 - 2)."""

from functools import partial

import numpy as np
import pytest
from scipy.spatial import cKDTree

import xjulia as xj
from xjulia import dynamics as dyn
from xjulia import poly as pl
from xjulia.errors import ConvergenceError
from xjulia.poly import Poly, horner

import oracles


def nearest_distances(points, queries=None):
    """Distance from each query to its nearest point, by scipy's KD-tree;
    without queries, from each point to its nearest other point."""
    tree = cKDTree(np.column_stack([points.real, points.imag]))
    if queries is None:
        return tree.query(tree.data, k=2)[0][:, 1]
    return tree.query(np.column_stack([queries.real, queries.imag]))[0]


def evaluations_per_solve(monkeypatch):
    """A list that gains one entry per PreimageSolver.solve, the number of
    Poly.values calls that solve makes."""
    counts = []
    values, solve = Poly.values, pl.PreimageSolver.solve

    def counted_values(self, z, w=0.0):
        counts[-1] += 1
        return values(self, z, w)

    def counted_solve(self, w):
        counts.append(0)
        return solve(self, w)

    monkeypatch.setattr(Poly, "values", counted_values)
    monkeypatch.setattr(pl.PreimageSolver, "solve", counted_solve)
    return counts


def forward_invariance(e, sample, eps):
    """Fraction of one-step forward images within eps of some sample point."""
    return float(np.mean(nearest_distances(sample.points, e.poly(sample.points)) <= eps))


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
        # the bisection starts from the coefficient radius, 3.3e4 and 7.0e4
        # here, where a_d prod (r + |zeta_i|) reaches 1e261 and 1e299, next to
        # the overflow, so it and the spot check run in logs; both stay finite
        # and hold
        p = xj.monomial_coeffs(stock_family, n)
        e = dyn.escape_radius(p)
        mono = np.abs(p.coeffs)
        assert e.degree == n + 1
        assert (2.0 + mono[:-1].sum()) / mono[-1] > 1e4
        assert np.isfinite(e.r_escape) and 1.0 < e.r_escape < 3.0
        z = 1.001 * e.r_escape * np.exp(2j * np.pi * np.arange(64) / 64)
        logs = np.log(np.abs(z[:, None] - p.zeros)).sum(axis=1) + np.log(mono[-1])
        assert np.all(np.isfinite(logs)) and np.all(logs >= np.log(2.0 * np.abs(z)))

    def test_batch_shares_uniform_bound(self, stock_escape):
        bounds = {e.r_uniform for e in stock_escape.values()}
        assert len(bounds) == 1
        assert all(e.r_uniform >= e.r_escape for e in stock_escape.values())

    def test_uniform_bound_can_fail(self, stock_escape):
        # c08 bounds the samples, of size 1.068, by r_uniform: from the zeros it
        # is 1.900, where the coefficient radius read 18651
        assert stock_escape[10].r_uniform < 2.0

    @pytest.mark.parametrize("zeros, want", [([0.0, 0.0], 2.0),
                                             ([np.sqrt(2.0), -np.sqrt(2.0)], 4.0)],
                             ids=["z2", "z2-2"])
    def test_product_form_keeps_closed_form_radius(self, zeros, want):
        # from the zeros: (r - sqrt 2)^2 - eps (r + sqrt 2)^2 >= 2 r needs
        # r >= 4.37 for z^2 - 2, and r^2 (1 - eps) >= 2 r a hair over 2 for z^2,
        # so the coefficient radius, as for the raw polynomials, is the smaller
        p = Poly.product_form(zeros)
        assert dyn.escape_radius(p).r_escape == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_radius_from_zeros_certified(self, stock_escape, n):
        # no larger than the coefficient radius, and |P(z)| >= 2 |z| just past
        # it, both in the product form the sampler solves and on the expanded
        # coefficients the raster steps, z = +-1.001 R included
        e = stock_escape[n]
        mono = np.abs(e.poly.coeffs)
        assert e.r_escape <= (2.0 + mono[:-1].sum()) / mono[-1]
        r = 1.001 * e.r_escape
        z = np.concatenate([[r, -r], r * np.exp(2j * np.pi * (np.arange(256) + 0.5) / 256)])
        assert np.all(np.abs(e.poly(z)) >= 2.0 * np.abs(z))
        assert np.all(np.abs(horner(e.poly.coeffs, z)) >= 2.0 * np.abs(z))


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
        # real, but rows at resolution 513 do not mirror: the full loop runs
        ([0.3, -1.0, 0.5, 1.0], {"resolution": 513, "max_iter": 150}),
        # odd with a complex coefficient: -z mirrors, conj(z) does not
        ([0.0, 0.9 + 0.2j, 0.0, 1.0], {"half_width": 1.5}),
        # odd and real: both mirror, a quarter is iterated
        ([0.0, -0.5, 0.0, 0.0, 0.0, 1.0], {"half_width": 1.3}),
        # even with complex coefficients
        ([0.2 - 0.6j, 0.0, -1.0, 0.0, 1.0], {"half_width": 1.6}),
        # rows mirror, columns do not: conj(z) only
        ([-1.0, 0.0, 1.0], {"center": 0.1}),
    ], ids=["z2", "z2-1", "rabbit", "z3-3z", "slow", "res513", "max_iter1", "cheb",
            "cubic513", "odd-complex", "odd-quintic", "even-quartic", "z2-1-shifted"])
    def test_closed_forms(self, coeffs, window):
        e = dyn.escape_radius(Poly(coeffs))
        assert np.array_equal(dyn.escape_raster(e, **window).counts,
                              _reference_counts(e, **window))

    def test_family_member(self, stock_escape):
        e = stock_escape[40]
        assert np.array_equal(dyn.escape_raster(e).counts, _reference_counts(e))

    def test_family_member_off_axis(self, stock_escape):
        e = stock_escape[20]
        window = {"center": 0.3 + 0.2j}
        assert np.array_equal(dyn.escape_raster(e, **window).counts,
                              _reference_counts(e, **window))

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
        # the guard runs from r_escape^2 = OVERFLOW_GUARD^2 up, and not below
        (dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 1e150, 1e150),
         {"half_width": 2e150, "resolution": 64}),
        (dyn.EscapeData(Poly([0.0, 0.0, 1.0]), np.nextafter(1e150, 0), 1e150),
         {"half_width": 2e150, "resolution": 64}),
    ], ids=["inf-nan", "inf-start", "huge-radius", "guard-bound", "below-guard-bound"])
    def test_overflow_windows(self, e, window):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(dyn.escape_raster(e, **window).counts,
                                  _reference_counts(e, **window))

    def test_pixel_on_the_escape_circle(self):
        # the pixel center 1.5 + 2i has x * x + y * y == r_escape^2 exactly, so
        # it passes the step-0 test and leaves at step 1
        e = dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 2.5, 2.5)
        window = {"center": 0.25 + 0.25j, "half_width": 4.0, "resolution": 16}
        r = dyn.escape_raster(e, **window)
        assert r.counts[oracles.pixel_index(r, 1.5 + 2j)] == 1
        assert np.array_equal(r.counts, _reference_counts(e, **window))

    def test_window_whose_pixel_centers_overflow_rejected(self):
        e = dyn.EscapeData(Poly([0.0, 0.0, 1.0]), 2.0, 2.0)
        with pytest.raises(ValueError, match="overflow"):
            dyn.escape_raster(e, center=1.7e308, half_width=1e308, resolution=64)

    def test_window_whose_pixel_width_overflows_rejected(self):
        # the centers are finite, but 2 half_width / resolution is inf, and
        # oracles.pixel_index would divide by it
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

        def counted(coeffs, z, out=None):
            stepped[0] += z.size
            return horner(coeffs, z, out=out)

        monkeypatch.setattr(dyn, "horner", counted)
        counts = dyn.escape_raster(e, **window).counts
        assert np.all(counts == 1000)
        # a raster that stopped calling horner would step nothing and pass the bound
        assert 0 < stepped[0] < 0.1 * 64 * 64 * 1000
        monkeypatch.undo()
        assert np.array_equal(counts, _reference_counts(e, **window))


class TestRasterMirror:
    """Only the block of pixels that no symmetry copies is iterated, and of it
    only the pixels that pass the step-0 test x * x + y * y <= r_escape^2:
    the top-left quarter for a real even or odd polynomial, the top half of
    the rows for any other real or even or odd one, and the whole grid when
    the rows do not mirror."""

    @staticmethod
    def _tiled_pixels(monkeypatch, e, **window):
        pixels = [0]
        tile = dyn._escape_tile

        def spy(coeffs, r_sq, cur, max_iter):
            assert 0 < cur.size <= dyn.RASTER_TILE
            pixels[0] += cur.size
            return tile(coeffs, r_sq, cur, max_iter)

        monkeypatch.setattr(dyn, "_escape_tile", spy)
        dyn.escape_raster(e, **window)
        return pixels[0]

    @staticmethod
    def _inside(e, n_rows, n_cols, center=0j, resolution=512):
        """Pixels of the top-left n_rows x n_cols block inside the escape disk."""
        xs, ys = dyn.pixel_centers(center, 2.0, resolution)
        x_sq, y_sq = xs[:n_cols] * xs[:n_cols], ys[:n_rows] * ys[:n_rows]
        return np.count_nonzero(x_sq[None, :] + y_sq[:, None] <= e.r_escape * e.r_escape)

    @pytest.mark.parametrize("resolution", [64, 512])
    def test_real_polynomials_step_half(self, monkeypatch, stock_escape, resolution):
        # of the upper half, only the pixels inside the disk: about 29% of it
        # for n = 20 (radius 1.217, half-width 2)
        half = (resolution + 1) // 2
        for e in (dyn.escape_radius(Poly([0.3, -1.0, 0.5, 1.0])), stock_escape[20]):
            stepped = self._tiled_pixels(monkeypatch, e, resolution=resolution)
            assert stepped == self._inside(e, half, resolution, resolution=resolution)
        assert stepped < 0.3 * half * resolution

    @pytest.mark.parametrize("coeffs", [
        [-1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, -3.0, 0.0, 1.0], [0.0, -0.5, 0.0, 0.0, 0.0, 1.0],
    ], ids=["z2-1", "z2", "z3-3z", "odd-quintic"])
    @pytest.mark.parametrize("resolution", [64, 512])
    def test_real_even_or_odd_step_a_quarter(self, monkeypatch, coeffs, resolution):
        e = dyn.escape_radius(Poly(coeffs))
        half = (resolution + 1) // 2
        stepped = self._tiled_pixels(monkeypatch, e, resolution=resolution)
        assert stepped == self._inside(e, half, half, resolution=resolution)
        assert stepped <= half * half

    @pytest.mark.parametrize("coeffs", [
        [RABBIT, 0.0, 1.0], [0.0, 0.9 + 0.2j, 0.0, 1.0], [0.2 - 0.6j, 0.0, -1.0, 0.0, 1.0],
    ], ids=["rabbit", "odd-complex", "even-quartic"])
    @pytest.mark.parametrize("resolution", [64, 512])
    def test_complex_even_or_odd_step_half_the_rows(self, monkeypatch, coeffs, resolution):
        e = dyn.escape_radius(Poly(coeffs))
        half = (resolution + 1) // 2
        stepped = self._tiled_pixels(monkeypatch, e, resolution=resolution)
        assert stepped == self._inside(e, half, resolution, resolution=resolution)

    def test_rows_outside_the_disk_skipped_off_axis(self, monkeypatch, stock_escape):
        # the window of test_family_member_off_axis: rows outside |y| <= 1.217
        # lie both above and below the iterated band, and neither is stepped
        e, center = stock_escape[20], 0.3 + 0.2j
        stepped = self._tiled_pixels(monkeypatch, e, center=center, resolution=64)
        ys = dyn.pixel_centers(center, 2.0, 64)[1]
        inside = ys * ys <= e.r_escape * e.r_escape
        assert not inside[0] and not inside[-1]
        assert stepped == self._inside(e, 64, 64, center=center, resolution=64)
        assert stepped < np.count_nonzero(inside) * 64

    @pytest.mark.parametrize("coeffs, center", [
        ([-1.0, 0.0, 1.0], 0.1j),
    ], ids=["off-axis"])
    @pytest.mark.parametrize("resolution", [64, 512])
    def test_others_step_all(self, monkeypatch, coeffs, center, resolution):
        # every pixel of this window lies inside z^2 - 1's escape disk (radius 3)
        e = dyn.escape_radius(Poly(coeffs))
        stepped = self._tiled_pixels(monkeypatch, e, center=center, resolution=resolution)
        assert stepped == resolution * resolution

    @pytest.mark.parametrize("coeffs", [
        [-1.0, 0.0, 1.0], [RABBIT, 0.0, 1.0], [0.0, -0.5, 0.0, 0.0, 0.0, 1.0],
    ], ids=["z2-1", "rabbit", "odd-quintic"])
    def test_odd_resolution_steps_the_whole_grid(self, monkeypatch, coeffs):
        # at resolution 513 the pixel rows and columns do not mirror exactly
        e = dyn.escape_radius(Poly(coeffs))
        stepped = self._tiled_pixels(monkeypatch, e, resolution=513)
        assert stepped == self._inside(e, 513, 513, resolution=513)


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
        expected = np.array([-1.3912903496567097 + 7.126434501860118e-38j,
                             0.5072756163010373 - 3.2142423655296924e-38j,
                             1.8111024728098724 + 1.262177448353619e-29j])
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

    def test_moment_cap(self, stock_escape):
        # the moments are chebyshev_moments of the zeros, capped at k = 32
        # below the degree 41 of n = 40
        with pytest.raises(ValueError, match="capped at 32"):
            dyn.exact_chebyshev_moments(stock_escape[40].poly, 33)

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
        assert forward_invariance(square_escape, square_sample, 0.01) == 1.0

    def test_chebyshev_forward_invariance(self, cheb_escape, cheb_sample):
        eps = 3 * np.median(nearest_distances(cheb_sample.points))
        assert forward_invariance(cheb_escape, cheb_sample, eps) >= 0.99

    def test_family_forward_invariance(self, stock_escape, stock_samples):
        s = stock_samples[20]
        eps = 3 * np.median(nearest_distances(s.points))
        assert forward_invariance(stock_escape[20], s, eps) >= 0.99

    def test_raster_sample_consistency_square(self, square_escape, square_sample):
        # depth 8 makes the non-escaped region the disk plus a one-pixel smear,
        # so boundary samples stay inside it
        r = dyn.escape_raster(square_escape, half_width=1.5, resolution=1024,
                              max_iter=8)
        hits = sum(1 for z in square_sample.points[:20000]
                   if (ij := oracles.pixel_index(r, complex(z))) is not None
                   and r.counts[ij] == r.max_iter)
        assert hits / 20000 >= 0.99

    def test_raster_sample_consistency_family(self, stock_escape, stock_samples):
        # J(P_20) is a Cantor set, so a pixel center 2e-3 from it mostly leaves
        # the certified disk (radius 1.217) within two steps: 2 iterations read
        # 68%, where at the coefficient radius 67.3 they read 100%.  One
        # iteration asks that every sample's pixel lie in that disk
        e = stock_escape[20]
        r = dyn.escape_raster(e, half_width=1.6, resolution=1024, max_iter=1)
        pts = stock_samples[20].points
        hits = sum(1 for z in pts
                   if (ij := oracles.pixel_index(r, complex(z))) is not None
                   and r.counts[ij] == r.max_iter)
        assert hits / len(pts) >= 0.99


class TestNearestDistances:
    def test_image_at_exactly_eps_counts(self):
        # under z^2 the images of 1, 2, -0.5 are 1, 4, 0.25, at 0, 2 and exactly
        # 0.75 from the nearest point
        e = dyn.escape_radius(Poly([0.0, 0.0, 1.0]))
        sample = dyn.BrolinSample(np.array([1.0, 2.0, -0.5], dtype=complex))
        assert forward_invariance(e, sample, 0.75) == 2 / 3
        assert forward_invariance(e, sample, np.nextafter(0.75, 0.0)) == 1 / 3


class TestPreimages:
    @pytest.mark.parametrize("n", [10, 40, None, "roots"])
    def test_gate_refuses_a_moved_and_a_doubled_root(self, stock_escape, monkeypatch, n):
        # a root moved by 0.1 fails the Newton test; a root found twice solves
        # p(z) = w but fails Vieta's sum; the true roots pass.  "roots" solves
        # a raw polynomial at w = 0 through poly.roots, which shares the gate
        if n == "roots":
            p, w = Poly.from_roots([0.3, -1.0, 2.0j, 0.5 + 0.5j]), 0.0
            solve = partial(pl.roots, p)
        else:
            e = stock_escape[n] if n else dyn.escape_radius(Poly([0.0, -3.0, 0.0, 1.0]))
            p, w = e.poly, 0.3 + 0.01j
            solve = partial(dyn.solve_preimages, e, w)
        solver = pl.PreimageSolver(p)
        z = solver.solve(w)
        assert solver.accepts(z, *p.values(z, w), w)
        moved, doubled = z.copy(), z.copy()
        moved[0] += 0.1
        doubled[1] = doubled[0]
        for bad in (moved, doubled):
            assert not solver.accepts(bad, *p.values(bad, w), w)
            monkeypatch.setattr(pl, "aberth", lambda values, floor, z0, bad=bad:
                                (bad, True, *values(bad)))
            with pytest.raises(ConvergenceError):
                solve()

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
        # rounding spreads a triple root's cluster by about 1e-6, so its sum is
        # off Vieta's by 1e-6 and 4e-7 here
        (Poly.from_roots([0.3, 0.3, 0.3, -1.0]), 0.0),
        (Poly.from_roots([0.3 + 0.1j] * 3 + [-1.0, 2.0j]), 0.0),
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
        solver = pl.PreimageSolver(e.poly)
        for w in stock_samples[20].points[:300]:
            warm = solver.solve(complex(w))
            cold = dyn.solve_preimages(e, w)
            assert len(warm) == len(cold) == e.degree
            # matching by nearest root, so a dropped or doubled root shows up as
            # an index that is hit twice
            match = np.argmin(np.abs(warm[:, None] - cold[None, :]), axis=1)
            assert len(set(match.tolist())) == e.degree
            assert np.all(np.abs(warm - cold[match]) <= 1e-8 * np.abs(cold[match]))
        assert solver.targets.shape == (pl.SOLVER_MEMORY,)
        assert solver.solved.shape == (pl.SOLVER_MEMORY, e.degree)
        assert pl.SOLVER_MEMORY == 256

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

        monkeypatch.setattr(pl, "initial_circle", no_circle)
        e = dyn.escape_radius(xj.monomial_coeffs(stock_family, 4))
        z = dyn.solve_preimages(e, 20.9)
        assert np.count_nonzero(np.abs(z.imag) > 1e-8) == 4
        assert np.max(np.abs(e.poly(z) - 20.9)) <= 1e-10 * 20.9

    @pytest.mark.parametrize("n", [10, 40])
    def test_last_start_circle_from_the_zeros(self, stock_escape, monkeypatch, n):
        # every preimage of w lies in |z| <= rho + (|w| / |a_d|)^(1/d), so a
        # product form's last start is a circle there, about 1.5 here, where
        # the Cauchy circle of p - w is about 4.4 (n = 10) and 450
        # (n = 40); it is forced by refusing the start from the zeros
        e = stock_escape[n]
        p, w = e.poly, 0.3 + 0.01j
        starts, aberth = [], pl.aberth

        def refuse_first(values, floor, z0):
            starts.append(z0)
            z, ok, *vals = aberth(values, floor, z0)
            return (z, ok and len(starts) > 1, *vals)

        monkeypatch.setattr(pl, "aberth", refuse_first)
        z = pl.PreimageSolver(p).solve(w)
        assert len(starts) == 2
        radius = np.max(np.abs(p.zeros)) + (abs(w) / abs(p.coeffs[-1])) ** (1.0 / e.degree)
        assert np.allclose(np.abs(starts[1]), radius, rtol=0.011, atol=0)
        assert np.max(np.abs(z)) <= radius
        monkeypatch.undo()
        assert np.allclose(z, dyn.solve_preimages(e, w), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("coeffs, w", [([-1.0, 0.0, 1.0], -1.554),
                                           ([0.0, -3.0, 0.0, 1.0], 2.5)])
    def test_raw_warm_start_leaves_the_real_line(self, monkeypatch, coeffs, w):
        # the preimages of w are complex, and the warm start comes from the real
        # roots of p = 0: with the fold start off, the tangent start nudged off
        # the real line settles in 17 and 18 evaluations, where un-nudged it
        # stayed real and took 507 and 48 (the fold start takes 2 and 4)
        monkeypatch.setattr(pl, "_fold_pair", lambda *args: None)
        solver = pl.PreimageSolver(Poly(coeffs))
        solver.solve(0.0)
        counts = evaluations_per_solve(monkeypatch)
        z = solver.solve(w)
        assert counts[0] <= 25
        assert np.count_nonzero(np.abs(z.imag) > 1e-8) == 2

    def test_few_aberth_evaluations_per_solve(self, stock_escape, monkeypatch):
        # a warm start from the nearest stored roots, moved by the tangent
        # predictor and with each fold pair started from its quadratic,
        # settles in 2.39 evaluations per solve on this orbit; without the
        # fold starts it took 2.9, from the stored roots alone 3.45
        counts = evaluations_per_solve(monkeypatch)
        dyn.brolin_sample(stock_escape[40], 100, burn_in=100, seed=0)
        assert len(counts) == 201
        assert sum(counts) / len(counts) <= 3.2

    @pytest.mark.parametrize("coeffs, w0, w, most", [([0.0, 0.0, 1.0], 1.0, -1.0, 3),
                                                     ([0.0, -3.0, 0.0, 1.0], 0.0, 2.5, 6)])
    def test_fold_pair_starts_from_its_quadratic(self, monkeypatch, coeffs, w0, w, most):
        # between w0 and w lies a critical value (0 of z^2, 2 of z^3 - 3z), so
        # a real root pair turns into a conjugate pair; the tangent steps drive
        # both onto each other, and from there the solve took 17 and 18
        # evaluations.  The quadratic through the pair is exact on z^2
        p = Poly(coeffs)
        solver = pl.PreimageSolver(p)
        solver.solve(w0)
        counts = evaluations_per_solve(monkeypatch)
        z = solver.solve(w)
        assert len(counts) == 1 and counts[0] <= most
        assert np.max(np.abs(p(z) - w)) <= 1e-12
        pair = z[np.abs(z.imag) > 1e-8]
        assert len(pair) == 2 and abs(pair[0] - np.conj(pair[1])) <= 1e-12
        if len(coeffs) == 3:
            assert np.allclose(sorted(z, key=lambda v: v.imag), [-1j, 1j], rtol=0, atol=1e-15)

    def test_no_fold_tail_on_the_stock_orbits(self, stock_escape, monkeypatch):
        # an orbit crosses critical values of P_n near x = 1, where a real
        # root pair must turn into a conjugate pair: from the tangent steps,
        # 38 of these 1005 solves took 9-19 evaluations, and the n = 50 orbit
        # 3.22 per solve; from each fold pair's quadratic, none and 2.47
        counts = evaluations_per_solve(monkeypatch)
        slow = 0
        for n in (10, 20, 30, 40, 50):
            counts.clear()
            dyn.brolin_sample(stock_escape[n], 100, burn_in=100, seed=0)
            assert len(counts) == 201
            slow += sum(c > 8 for c in counts)
        assert slow <= 2
        assert np.mean(counts) <= 2.6

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_derivative_on_the_orbit(self, stock_family, stock_escape, stock_samples, n):
        # p' as p sum 1/(z - zeta_i) against the recurrence's P_n'
        z = stock_samples[n].points[:200]
        dv = stock_escape[n].poly.values(z)[1]
        ref = xj.exceptional.exceptional_values(stock_family, n, z)[1]
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
        ok, worst = oracles.boundary_preimage_containment(square_escape)
        assert ok and worst <= 1.0
        for n in (10, 30, 50):
            ok, worst = oracles.boundary_preimage_containment(stock_escape[n])
            assert ok, f"containment failed at n={n} (worst {worst})"
