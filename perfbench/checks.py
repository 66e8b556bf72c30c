"""Output checks, run outside the timed sections.

Every tolerance here comes from the mathematics of the computation, not from
what the current code happens to pass:

* TAU is a relative backward error.  The three-term recurrence evaluates P_n
  with a rounding error of about n * u (u = 2**-53) relative to the size of
  the terms it combines, i.e. about 1e-14 for n <= 50.  A point whose residual
  exceeds 1e-8 of that size is six orders of magnitude past rounding: it is
  not a solution, whatever the conditioning.
* The escape-count recount carries a first-order rounding-error bound along
  each orbit and compares only pixels whose escape decision clears it.
* The filled Julia sets of z^2 and z^2 - 1 are known in closed form (the unit
  disk; a forward-invariant pair of disks around the cycle {0, -1}).
"""

import numpy as np

TAU = 1e-8
U = np.finfo(float).eps / 2

# {|z| < R0} -> {|z + 1| < R0**2} -> {|z| < R0**4 + 2 R0**2} and
# R0**4 + 2 R0**2 < R0 for R0 = 0.45, so both disks are forward invariant under
# z^2 - 1 and lie in its filled Julia set.
BASILICA_R0 = 0.45


def eval_scale(xj, fam, n, z):
    """(|b p_n'| + |bw p_n|) / sigma_n at z: the size of the terms whose
    difference is P_n, the yardstick for its evaluation error."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    p = np.atleast_1d(xj.eval_orthonormal_jacobi(fam.params, n, z))
    dp = np.atleast_1d(xj.eval_jacobi_derivative(fam.params, n, z))
    return (np.abs(fam.b(z) * dp) + np.abs(fam.bw(z) * p)) / xj.sigma_n(fam, n)


def solves_equation(xj, fam, n, z, w):
    """Per point: P_n(z) = w to relative backward error TAU (w may be an array)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    res = np.abs(np.atleast_1d(xj.eval_exceptional(fam, n, z)) - w)
    return res <= TAU * (np.abs(w) + eval_scale(xj, fam, n, z))


def zeros_ok(xj, fam, n, zc) -> bool:
    """n regular zeros, m exceptional ones, and every one a zero of P_n."""
    if len(zc.regular) != n or len(zc.exceptional) != fam.m:
        return False
    z = np.concatenate([np.asarray(zc.regular, dtype=complex), zc.exceptional])
    return bool(np.all(solves_equation(xj, fam, n, z, 0.0)))


def orbit_wrong_steps(xj, fam, n, e, points):
    """(steps checked, steps wrong) along one backward orbit.

    Step k is checked as P_n(z_{k+1}) = z_k against the recurrence, with
    |z_{k+1}| <= r_escape (every preimage of a point of the escape disk lies
    in it).  Burn-in steps are not returned by the sampler, so they are not
    checked.
    """
    z_next, w = points[1:], points[:-1]
    ok = solves_equation(xj, fam, n, z_next, w) & (np.abs(z_next) <= e.r_escape)
    return len(w), int(np.count_nonzero(~ok))


def solve_ok(xj, fam, n, e, w, z) -> bool:
    """All d preimages of w: each solves P_n(z) = w against the recurrence, and
    their sum matches Vieta's -a_{d-1}/a_d of the polynomial that was solved."""
    d = e.degree
    if len(z) != d:
        return False
    mono = e.poly.monomial_coeffs()
    s1 = -mono[d - 1] / mono[d]
    vieta = abs(np.sum(z) - s1) <= TAU * (abs(s1) + np.sum(np.abs(z)))
    return bool(vieta and np.all(solves_equation(xj, fam, n, z, w)))


def _pixel_grid(raster):
    xs, ys = raster.pixel_centers()
    return xs[None, :] + 1j * ys[:, None]


def unit_disk_ok(raster) -> bool:
    """z^2: pixels off the unit circle are inside (never escape) or outside
    (escape within the budget, since |c|^(2^k) passes the radius fast)."""
    mod = np.abs(_pixel_grid(raster))
    margin = raster.pixel_width / np.sqrt(2.0)
    inside = raster.counts[mod < 1.0 - margin]
    outside = raster.counts[mod > 1.0 + margin]
    return bool(np.all(inside == raster.max_iter) and np.all(outside < raster.max_iter))


def basilica_interior_ok(raster) -> bool:
    """z^2 - 1: pixel centres in the invariant disks around 0 and -1 never escape."""
    c = _pixel_grid(raster)
    interior = (np.abs(c) < BASILICA_R0) | (np.abs(c + 1.0) < BASILICA_R0 ** 2)
    return bool(np.all(raster.counts[interior] == raster.max_iter))


def recount_ok(e, raster, rng, n_pixels: int = 256) -> bool:
    """Escape counts of a seeded pixel subset, recomputed independently.

    The orbit error bound err_{k+1} = |p'(z_k)| err_k + gamma_2d S(|z_k|),
    with S the Horner magnitude sum, bounds each implementation's distance
    from the exact orbit.  A pixel is compared only when every escape test
    along its orbit clears twice that bound; elsewhere rounding alone may
    legitimately change the count.
    """
    coeffs = e.poly.monomial_coeffs()
    d = len(coeffs) - 1
    mags = np.abs(coeffs)
    gamma = 2 * d * U / (1 - 2 * d * U)
    r = e.r_escape
    res = raster.resolution
    rows = rng.integers(res, size=n_pixels)
    cols = rng.integers(res, size=n_pixels)
    xs, ys = raster.pixel_centers()
    z = xs[cols] + 1j * ys[rows]
    err = np.zeros(n_pixels)
    count = np.full(n_pixels, raster.max_iter)
    alive = np.ones(n_pixels, dtype=bool)
    decided = np.ones(n_pixels, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(raster.max_iter):
            mag_sq = z.real * z.real + z.imag * z.imag
            # written as "clears the bound" so a NaN or infinite bound undecides
            clear = np.abs(np.sqrt(mag_sq) - r) > 2.0 * err + 4.0 * U * r
            decided &= ~alive | clear
            esc = alive & (mag_sq > r * r)
            count[esc] = k
            alive &= ~esc
            if not alive.any():
                break
            pv = np.full(z.shape, coeffs[-1], dtype=complex)
            dv = np.zeros(z.shape, dtype=complex)
            sv = np.full(z.shape, mags[-1])
            az = np.abs(z)
            for ck, mk in zip(coeffs[-2::-1], mags[-2::-1]):
                dv = dv * z + pv
                pv = pv * z + ck
                sv = sv * az + mk
            err = np.where(alive, np.abs(dv) * err + gamma * sv, err)
            z = np.where(alive, pv, z)
    got = raster.counts[rows, cols]
    return bool(np.all(got[decided] == count[decided]))
