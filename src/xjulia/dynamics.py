"""Julia-set machinery: certified escape radii, escape-time rasters, the
equilibrium-measure sampler by randomized inverse iteration, and the
invariance / preimage-count diagnostics.

Randomness comes exclusively from an explicit 64-bit seed feeding a
counter-based generator (Philox); there is no global RNG anywhere.  A sample
is one backward orbit on that stream, so the output is a deterministic
function of the seed and the inputs.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from . import rootfind
from .errors import ConvergenceError, ValidationError
from .poly import Poly, horner

OVERFLOW_GUARD = 1e150
_RADIUS_CHECK_POINTS = 200
_RADIUS_CHECK_SEED = 73111
# solves a sampler remembers as warm starts: 256 * d * 16 bytes, about 210 kB
# at degree 51
SOLVER_MEMORY = 256
# pixels the escape raster iterates together: 16384 complex points are 256 kB
RASTER_TILE = 16384


@dataclass
class EscapeData:
    """A polynomial with its certified escape radius.

    poly: evaluated in root-product form when it carries its zeros; the
    raster, the radius certificate and the exact moments read its coeffs.
    r_escape: one application of the polynomial at |z| > r_escape at least
    doubles the modulus (triangle-inequality certificate, degree >= 2).
    r_uniform: a radius meant to bound the filled Julia sets of a whole batch;
    r_escape for a single polynomial, the batch maximum in batch mode.
    refine: optional scalar (z, w) -> z step against another evaluation form
    of the polynomial; the sampler applies it to each chosen orbit point.
    """

    poly: Poly
    r_escape: float
    r_uniform: float
    refine: object = None

    @property
    def degree(self) -> int:
        return self.poly.degree


def escape_radius(p: Poly, refine=None) -> EscapeData:
    """EscapeData for p, with the doubling inequality spot-checked by sampling."""
    p = p.trimmed()
    d = p.degree
    if d < 2:
        raise ValueError("escape dynamics need degree >= 2")
    mono = p.monomial_coeffs()
    r = max(1.0, (2.0 + float(np.sum(np.abs(mono[:d])))) / abs(mono[d]))
    rng = np.random.default_rng(_RADIUS_CHECK_SEED)
    radii = rng.uniform(1.01 * r, 10.0 * r, _RADIUS_CHECK_POINTS)
    z = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, _RADIUS_CHECK_POINTS))
    if p.zeros is None:
        holds = np.abs(p(z)) > 2.0 * np.abs(z)
    else:   # in logs: at up to 10 r, a_d prod (z - zeta_i) overflows from degree 54 on
        logs = np.log(np.abs(z[:, None] - p.zeros)).sum(axis=1) + np.log(abs(p.coeffs[-1]))
        holds = logs > np.log(2.0 * np.abs(z))
    if not np.all(holds):
        raise ValidationError("escape inequality failed the sampling check")
    return EscapeData(p, r, r, refine)


def batch_escape_data(polys, refiners=None) -> list[EscapeData]:
    """EscapeData for a family, sharing r_uniform = max of the escape radii."""
    refiners = refiners if refiners is not None else [None] * len(polys)
    datas = [escape_radius(p, refine=ref) for p, ref in zip(polys, refiners)]
    r_tilde = max(e.r_escape for e in datas)
    return [EscapeData(e.poly, e.r_escape, r_tilde, e.refine) for e in datas]


# ---------------------------------------------------------------------------
# escape-time raster

@dataclass
class RasterGrid:
    """Escape-iteration counts over a square window of the plane.

    counts[i, j] is the first k with |p^k(z)| beyond the escape radius for the
    center of pixel (row i from the top, column j from the left); max_iter
    means the orbit never left within the budget.
    """

    center: complex
    half_width: float
    resolution: int
    max_iter: int
    counts: np.ndarray

    @property
    def pixel_width(self) -> float:
        return 2.0 * self.half_width / self.resolution

    def pixel_centers(self):
        return pixel_centers(self.center, self.half_width, self.resolution)

    def pixel_index(self, z: complex):
        """(row, col) of the pixel containing z, or None when outside the window."""
        col = int(np.floor((z.real - self.center.real + self.half_width) / self.pixel_width))
        row = int(np.floor((self.center.imag + self.half_width - z.imag) / self.pixel_width))
        if 0 <= row < self.resolution and 0 <= col < self.resolution:
            return row, col
        return None


def pixel_centers(center: complex, half_width: float, resolution: int):
    """(xs, ys) of the pixel centers, from the left and from the top; ValueError
    when a center or the pixel width, which pixel_index divides by, overflows."""
    u = 2.0 * (np.arange(resolution) + 0.5) / resolution
    with np.errstate(over="ignore"):
        xs, ys = center.real + half_width * (u - 1.0), center.imag + half_width * (1.0 - u)
        if np.isfinite(2.0 * half_width / resolution) and np.isfinite((xs, ys)).all():
            return xs, ys
    raise ValueError("pixel centers or pixel width of the window overflow")


def escape_raster(e: EscapeData, center: complex = 0j, half_width: float = 2.0,
                  resolution: int = 512, max_iter: int = 100) -> RasterGrid:
    """Iterate every pixel center until it leaves the escape disk (or max_iter).

    Pixels run in tiles of RASTER_TILE points, row-major, so one tile and its
    work arrays stay in cache.  An orbit leaves at step k when its squared
    modulus is not <= r_escape^2, which also catches inf and NaN; a value
    with a real or imaginary part not within OVERFLOW_GUARD is replaced by
    2 OVERFLOW_GUARD, so it leaves at the next step.

    Each tile keeps a checkpoint of its live orbits, saved at steps 0, 1, 2,
    4, 8, ... (Brent's cycle detection), and retires an orbit whose value
    equals its checkpoint with the count max_iter.  This is exact: the step
    is complex + and x element by element (then the guard), so its result
    depends on the value alone; the sign of a zero changes no value, and NaN
    equals nothing.  An orbit that returns to an earlier value repeats the
    values between, none of which escaped, for ever.  Interior orbits of
    attracting cycles land on their cycle exactly within a few dozen steps.
    """
    if not (1 <= resolution <= 8192):
        raise ValueError("resolution must be in [1, 8192]")
    if not (1 <= max_iter <= 10000):
        raise ValueError("max_iter must be in [1, 10000]")
    center = complex(center)
    if not (np.isfinite(center) and np.isfinite(half_width) and half_width > 0.0):
        raise ValueError("center must be finite and half_width finite and positive")
    xs, ys = pixel_centers(center, float(half_width), resolution)
    raster = RasterGrid(center, float(half_width), resolution, max_iter,
                        np.full((resolution, resolution), max_iter, dtype=np.int32))
    counts = raster.counts.ravel()      # a view: escapes land in raster.counts
    coeffs = e.poly.monomial_coeffs()
    # capped, so an r_escape whose square overflows still escapes inf and NaN only
    r_sq = min(e.r_escape * e.r_escape, np.finfo(float).max)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, counts.size, RASTER_TILE):
            tile = counts[start:start + RASTER_TILE]
            rows, cols = np.divmod(np.arange(start, start + tile.size), resolution)
            _escape_tile(coeffs, r_sq, xs[cols] + 1j * ys[rows], tile, max_iter)
    return raster


def _escape_tile(coeffs, r_sq, cur, counts, max_iter):
    """Escape counts of the orbits from cur into counts, preset to max_iter."""
    idx = np.arange(cur.size)
    saved = np.full_like(cur, np.nan)
    for k in range(max_iter):
        mag_sq = cur.real * cur.real + cur.imag * cur.imag
        esc = ~(mag_sq <= r_sq)
        gone = esc | (cur == saved)
        if gone.any():
            counts[idx[esc]] = k
            keep = ~gone
            idx, cur, saved = idx[keep], cur[keep], saved[keep]
            if idx.size == 0:
                return
        if k & (k - 1) == 0:
            np.copyto(saved, cur)
        cur = horner(coeffs, cur)
        bad = ~(np.abs(cur.real) <= OVERFLOW_GUARD) | ~(np.abs(cur.imag) <= OVERFLOW_GUARD)
        if bad.any():
            cur[bad] = 2.0 * OVERFLOW_GUARD


def raster_to_pgm(raster: RasterGrid) -> bytes:
    """Binary PGM (P5, maxval 255): pixel = floor(255 * count / max_iter)."""
    scaled = (raster.counts.astype(np.int64) * 255) // raster.max_iter
    body = scaled.astype(np.uint8).tobytes()
    header = f"P5\n{raster.resolution} {raster.resolution}\n255\n".encode("ascii")
    return header + body


# ---------------------------------------------------------------------------
# randomized inverse iteration

@dataclass
class BrolinSample:
    """Backward-orbit sample of the balanced measure (post burn-in)."""

    points: np.ndarray
    seed: int
    burn_in: int
    degree: int

    @property
    def size(self) -> int:
        return len(self.points)

    def to_measure(self):
        from .measures import EmpiricalMeasure

        return EmpiricalMeasure(self.points)


class _PreimageSolver:
    """Aberth solves of p(z) = w along one backward orbit, each started from
    the roots of the nearest earlier target.

    Every sweep evaluates Poly.values(z, w) and the floor Poly.noise_floor,
    in whichever form the Poly carries.  A Poly with zeros has its starts
    nudged off the real axis, where from real points at a real w Aberth would
    stay: a stored root set by 1e-6; with none stored, the zeros by 1e-3.

    The targets and sorted root sets of the last SOLVER_MEMORY solves sit in
    two fixed arrays, overwritten oldest first; unfilled slots hold an
    infinite target, so they are never nearest.  The targets of one orbit fill
    the Julia set, so the nearest stored root set lies within about
    |w - w'| / |p'| of the new preimages.  A solve that fails from one start
    retries from the next, the Cauchy circle last.
    """

    def __init__(self, poly: Poly):
        self.poly = poly
        self.d = len(poly.coeffs) - 1
        self.targets = np.full(SOLVER_MEMORY, np.inf, dtype=complex)
        self.solved = np.zeros((SOLVER_MEMORY, self.d), dtype=complex)
        self.count = 0
        self.nudge = None if poly.zeros is None else np.exp(
            1j * (2.0 * np.pi * np.arange(self.d) / self.d + 0.4))

    def _starts(self, w: complex):
        nearest = int(np.argmin(np.abs(self.targets - w)))
        if np.isfinite(self.targets[nearest]):
            warm = self.solved[nearest]
            yield warm if self.nudge is None else warm + 1e-6 * self.nudge
        if self.nudge is not None:
            yield self.poly.zeros + 1e-3 * self.nudge
        yield rootfind.initial_circle(self.poly.shifted(w))

    def solve(self, w: complex) -> np.ndarray:
        values = partial(self.poly.values, w=w)
        floor = partial(self.poly.noise_floor, w=w)
        for z0 in self._starts(w):
            z, ok = rootfind.aberth(values, floor, z0, 300)
            if not ok:
                continue
            worst = np.max(np.abs(self.poly(z) - w))
            scale = rootfind.residual_scale(self.poly, np.max(np.abs(z))) + abs(w)
            if worst <= 1e-7 * scale:
                z = z[np.lexsort((z.imag, z.real))]
                slot = self.count % SOLVER_MEMORY
                self.targets[slot] = w
                self.solved[slot] = z
                self.count += 1
                return z
        raise ConvergenceError(f"preimage solve failed at w = {w:.6g}")


def solve_preimages(e: EscapeData, w: complex) -> np.ndarray:
    """All degree-many solutions of p(z) = w, sorted by (re, im)."""
    return _PreimageSolver(e.poly).solve(complex(w))


def _orbit_start(solver: _PreimageSolver) -> complex:
    """Start 0; perturbed when the first preimage set is degenerate (0 can be
    a critical value whose root cluster pins the whole orbit)."""
    w0 = 0j
    try:
        z = solver.solve(w0)
    except ConvergenceError:
        return 0.1 + 0.1j
    if len(z) > 1:
        gaps = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * (1.0 + np.max(np.abs(z))):
            return 0.1 + 0.1j
    return w0


def _run_orbit(solver: _PreimageSolver, d: int, count: int, burn_in: int,
               bitgen, start: complex, refine=None) -> np.ndarray:
    rng = np.random.Generator(bitgen)
    out = np.empty(count, dtype=complex)
    w = start
    total = burn_in + count
    for step in range(total):
        target = w
        z = solver.solve(target)
        w = complex(z[rng.integers(d)])
        if refine is not None:
            w = complex(refine(w, target))
        if step >= burn_in:
            out[step - burn_in] = w
    return out


def brolin_sample(e: EscapeData, n_samples: int, burn_in: int = 100,
                  seed: int = 0) -> BrolinSample:
    """Random backward orbit of p from a start inside the escape disk.

    Each step solves p(z) = w and draws the next point uniformly among the
    deg(p) preimages; the first burn_in points are discarded.  The orbit runs
    on the Philox stream keyed by seed.  A failed solve restarts the orbit on
    a further-jumped stream, at most five times.  One solver, and so one
    memory of warm starts, serves the start and every orbit.
    """
    if n_samples < 1 or n_samples > 10 ** 6:
        raise ValueError("n_samples must be in [1, 1e6]")
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    d = e.degree
    if d < 2:
        raise ValueError("sampling needs degree >= 2")
    solver = _PreimageSolver(e.poly)
    w0 = _orbit_start(solver)
    for restart in range(6):
        bitgen = np.random.Philox(key=seed).jumped(restart)
        try:
            points = _run_orbit(solver, d, n_samples, burn_in, bitgen, w0,
                                refine=e.refine)
        except ConvergenceError:
            continue
        return BrolinSample(points=points, seed=seed, burn_in=burn_in, degree=d)
    raise ConvergenceError("orbit failed after 5 restarts")


# ---------------------------------------------------------------------------
# diagnostics

def exact_chebyshev_moments(p: Poly, k_max: int) -> np.ndarray:
    """Moments m_k = integral of T_k against the balanced measure of p,
    k = 0..k_max, exactly from the coefficients.

    The balanced measure mu is invariant under the pull-back (1/d) sum over
    p(z) = w (Brolin 1965), and for k < d = deg p the power sum s_k of the
    roots of p(z) - w does not depend on w.  Hence the integral of z^k is
    s_k / d, with s_k from Newton's identities on a_{d-1..d-k} / a_d.
    """
    p = p.trimmed()
    d = p.degree
    if not 0 <= k_max < d:
        raise ValueError(f"k_max must be in [0, {d - 1}] for degree {d}")
    mono = p.monomial_coeffs()
    c = mono[d - 1::-1][:k_max] / mono[d]
    power = np.empty(k_max + 1, dtype=complex)
    power[0] = d
    for k in range(1, k_max + 1):
        power[k] = -(k * c[k - 1] + np.dot(c[:k - 1], power[k - 1:0:-1]))
    power /= d
    cheb2poly = np.polynomial.chebyshev.cheb2poly
    return np.array([np.dot(cheb2poly([0] * k + [1]), power[:k + 1])
                     for k in range(k_max + 1)], dtype=complex)


def median_nn_spacing(points: np.ndarray) -> float:
    pts = np.column_stack([points.real, points.imag])
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=2)
    return float(np.median(dist[:, 1]))


def forward_invariance_check(e: EscapeData, sample: BrolinSample, eps: float) -> float:
    """Fraction of one-step forward images within eps of some sample point."""
    if sample.size == 0:
        raise ValueError("empty sample")
    images = e.poly(sample.points)
    tree = cKDTree(np.column_stack([sample.points.real, sample.points.imag]))
    dist, _ = tree.query(np.column_stack([images.real, images.imag]), k=1)
    return float(np.mean(dist <= eps))


def preimage_count_in_set(e: EscapeData, w: complex, region) -> int:
    """Number of solutions of p(z) = w inside a closed rectangle.

    region = (re_lo, re_hi, im_lo, im_hi); it must stay clear of [-1, 1].
    Boundary membership gets 1e-12 slack.
    """
    re_lo, re_hi, im_lo, im_hi = region
    if re_lo > re_hi or im_lo > im_hi:
        raise ValueError("malformed rectangle")
    if im_lo <= 0.0 <= im_hi and re_lo <= 1.0 and re_hi >= -1.0:
        raise ValueError("rectangle must have positive distance from [-1, 1]")
    z = solve_preimages(e, w)
    slack = 1e-12
    inside = ((z.real >= re_lo - slack) & (z.real <= re_hi + slack)
              & (z.imag >= im_lo - slack) & (z.imag <= im_hi + slack))
    return int(np.count_nonzero(inside))


def boundary_preimage_containment(e: EscapeData):
    """Check p^{-1}(boundary of D(0,R)) stays inside D(0,R), R = max(1, r_uniform).

    Returns (all_contained, max |preimage| / R) over 20 boundary targets.
    """
    r = max(1.0, e.r_uniform)
    theta = 2.0 * np.pi * (np.arange(20) + 0.37) / 20
    worst = 0.0
    solver = _PreimageSolver(e.poly)
    for w in r * np.exp(1j * theta):
        z = solver.solve(complex(w))
        worst = max(worst, float(np.max(np.abs(z))) / r)
    return worst <= 1.0, worst


def pullback_refinement_gap(e: EscapeData, sample: BrolinSample,
                            n_sub: int = 500, seed: int = 1) -> float:
    """Balanced-measure self-consistency for the test function T_2.

    Compares the sample mean of T_2 with the mean over one full preimage
    refinement (all deg preimages of a subsample, each weighted 1/deg).
    """
    def t2(z):
        return 2.0 * z * z - 1.0

    direct = np.mean(t2(sample.points))
    rng = np.random.Generator(np.random.Philox(key=seed))
    count = min(n_sub, sample.size)
    chosen = rng.choice(sample.size, size=count, replace=False)
    solver = _PreimageSolver(e.poly)
    acc = 0.0 + 0j
    for i in chosen:
        z = solver.solve(complex(sample.points[i]))
        acc += np.mean(t2(z))
    refined = acc / count
    return float(abs(direct - refined))
