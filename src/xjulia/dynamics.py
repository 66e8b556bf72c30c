"""Julia-set machinery: certified escape radii, escape-time rasters, the
equilibrium-measure sampler by randomized inverse iteration, exact Chebyshev
moments and the preimage-count diagnostic.

Every preimage solve here, each sampler step included, is a
poly.PreimageSolver solve, which warm-starts from the nearest stored target
and gates each root set on Aberth's own last evaluation; poly.roots is the
same solver's cold solve at w = 0.

Randomness comes exclusively from an explicit 64-bit seed feeding a
counter-based generator (Philox); there is no global RNG anywhere.  A sample
is one backward orbit on that stream, so the output is a deterministic
function of the seed and the inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .measures import EmpiricalMeasure, chebyshev_moments
from .poly import Poly, PreimageSolver, expansion_error, horner, roots

OVERFLOW_GUARD = 1e150
_RADIUS_CHECK_POINTS = 200
_RADIUS_CHECK_SEED = 73111
# pixels the escape raster iterates together: 16384 complex points are 256 kB
RASTER_TILE = 16384
MAX_RESOLUTION, MAX_ITER, MAX_SAMPLES = 8192, 10000, 10 ** 6  # input limits, config's too


@dataclass
class EscapeData:
    """A polynomial with its certified escape radius.

    poly: evaluated in root-product form when it carries its zeros; the
    raster steps its coeffs.
    r_escape: one application of the polynomial at |z| > r_escape at least
    doubles the modulus (degree >= 2); see escape_radius for the certificate.
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


def escape_radius(p: Poly) -> EscapeData:
    """EscapeData for p, with the doubling inequality spot-checked by sampling.

    The coefficient certificate max(1, (2 + sum_{k<d} |a_k|) / |a_d|) serves
    every p.  A product form a_d prod (z - zeta_i) takes the smaller of it and
    the radius from its zeros (_product_form_radius), which certifies both the
    product it is evaluated in and the expanded coefficients the raster steps.
    """
    p = p.trimmed()
    d = p.degree
    if d < 2:
        raise ValueError("escape dynamics need degree >= 2")
    mono = p.monomial_coeffs()
    r = max(1.0, (2.0 + float(np.sum(np.abs(mono[:d])))) / abs(mono[d]))
    if p.zeros is not None:
        r = _product_form_radius(p, r)
    rng = np.random.default_rng(_RADIUS_CHECK_SEED)
    radii = rng.uniform(1.01 * r, 10.0 * r, _RADIUS_CHECK_POINTS)
    z = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, _RADIUS_CHECK_POINTS))
    if p.zeros is None:
        holds = np.abs(p(z)) > 2.0 * np.abs(z)
    else:   # in logs, so no product overflows whatever the radius
        logs = np.log(np.abs(z[:, None] - p.zeros)).sum(axis=1) + np.log(abs(p.coeffs[-1]))
        holds = logs > np.log(2.0 * np.abs(z))
    if not np.all(holds):
        raise ValidationError("escape inequality failed the sampling check")
    return EscapeData(p, r, r)


def _product_form_radius(p: Poly, r_hi: float) -> float:
    """The smallest r <= r_hi, to about 1e-12 relative from above, with

        |a_d| [prod (r - |zeta_i|) - eps prod (r + |zeta_i|)] >= 2 r,

    or r_hi when r_hi itself fails, found by bisection with the products in logs.

    For |z| > max |zeta_i|, |a_d prod (z - zeta_i)| >= |a_d| prod (|z| - |zeta_i|).
    The expanded coefficients are off the product's by at most eps |a_d| times
    those of prod (z + |zeta_i|), eps = expansion_error(d).  Both the product
    and the coefficients therefore satisfy |p(z)| >= 2 |z| at |z| = r, and at
    every larger |z|, since both sides' ratio grows with r for d >= 2.
    """
    mags = np.abs(p.zeros)
    log_eps = np.log(expansion_error(len(mags)))
    log_lead = np.log(abs(p.coeffs[-1]))

    def holds(r):
        below = np.log(r - mags).sum()
        # 1 - eps prod (r + |zeta_i|) / prod (r - |zeta_i|)
        margin = -np.expm1(log_eps + np.log(r + mags).sum() - below)
        return bool(margin > 0.0 and log_lead + below + np.log(margin) >= np.log(2.0 * r))

    with np.errstate(divide="ignore", invalid="ignore"):
        if not holds(r_hi):
            return r_hi
        lo, hi = float(mags.max()), float(r_hi)
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def batch_escape_data(polys, refiners=None) -> list[EscapeData]:
    """EscapeData for a family, sharing r_uniform = max of the escape radii,
    each with its refiner when refiners are given."""
    refiners = refiners if refiners is not None else [None] * len(polys)
    datas = [escape_radius(p) for p in polys]
    r_tilde = max(e.r_escape for e in datas)
    return [EscapeData(e.poly, e.r_escape, r_tilde, ref) for e, ref in zip(datas, refiners)]


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


def pixel_centers(center: complex, half_width: float, resolution: int):
    """(xs, ys) of the pixel centers, from the left and from the top; ValueError
    when a center or the pixel width, RasterGrid.pixel_width, overflows."""
    u = 2.0 * (np.arange(resolution) + 0.5) / resolution
    with np.errstate(over="ignore"):
        xs, ys = center.real + half_width * (u - 1.0), center.imag + half_width * (1.0 - u)
        if np.isfinite(2.0 * half_width / resolution) and np.isfinite((xs, ys)).all():
            return xs, ys
    raise ValueError("pixel centers or pixel width of the window overflow")


def escape_raster(e: EscapeData, center: complex = 0j, half_width: float = 2.0,
                  resolution: int = 512, max_iter: int = 100) -> RasterGrid:
    """Iterate every pixel center until it leaves the escape disk (or max_iter).

    An orbit leaves at step k when its squared modulus is not <= r_escape^2,
    inf and NaN included.  Pixels whose x * x + y * y fails that test get the
    count 0 uniterated; the rest, read off that disk mask in bands of rows
    holding at most RASTER_TILE of them, start from exactly those parts at
    step 1.  A step is horner in place, with no zero coefficient added and no
    unit lead multiplied.  A tile retires an orbit equal to its checkpoint
    (saved at steps 0, 1, 2, 4, ...: Brent's cycle detection) with the count
    max_iter: the step is elementwise complex + and x, so the orbit repeats
    values that never escaped.  When r_escape^2 is not below
    OVERFLOW_GUARD^2, a value with a part beyond OVERFLOW_GUARD is replaced
    by 2 OVERFLOW_GUARD before it can overflow; below that bound such a
    value, like inf or NaN, escapes at the next step anyway, so no guard runs.

    + and x round symmetrically in sign, so up to zero signs, which no test
    reads, the orbit of conj(z) is the conjugate of that of z for real
    coefficients, and, when every odd-index or every even-index coefficient
    is 0, the orbit of -z is that of z or its negative step by step.  So with
    mirrored rows (ys[::-1] == -ys) only the top (resolution + 1) // 2 rows
    are iterated for a real polynomial, and for an even or odd one when the
    columns mirror too; a real even or odd one iterates the left half of
    those.  The rest are copied; the counts stay the full loop's bit for bit.
    Of a 512^2 window of half-width 2, z^2 - 1 iterates 25% of the pixels,
    the stock family 15-25%.
    """
    if not (1 <= resolution <= MAX_RESOLUTION):
        raise ValueError(f"resolution must be in [1, {MAX_RESOLUTION}]")
    if not (1 <= max_iter <= MAX_ITER):
        raise ValueError(f"max_iter must be in [1, {MAX_ITER}]")
    center = complex(center)
    if not (np.isfinite(center) and np.isfinite(half_width) and half_width > 0.0):
        raise ValueError("center must be finite and half_width finite and positive")
    xs, ys = pixel_centers(center, float(half_width), resolution)
    raster = RasterGrid(center, float(half_width), resolution, max_iter,
                        np.zeros((resolution, resolution), dtype=np.int32))
    coeffs = e.poly.monomial_coeffs()
    real = not coeffs.imag.any()
    parity = not coeffs[0::2].any() or not coeffs[1::2].any()
    rows_mirror = np.array_equal(ys[::-1], -ys)
    point = parity and rows_mirror and np.array_equal(xs[::-1], -xs)
    half = (resolution + 1) // 2
    # rows mirror by conj(z) or by -z, columns by -conj(z)
    n_rows = half if point or real and rows_mirror else resolution
    n_cols = half if point and real else resolution
    # capped, so an r_escape whose square overflows still escapes inf and NaN only
    r_sq = min(e.r_escape * e.r_escape, np.finfo(float).max)
    counts = raster.counts
    with np.errstate(over="ignore", invalid="ignore"):
        inside = np.add.outer(ys[:n_rows] * ys[:n_rows], xs[:n_cols] * xs[:n_cols]) <= r_sq
        # bands of rows with at most RASTER_TILE inside pixels, a row's <= MAX_RESOLUTION
        ends = np.cumsum(np.count_nonzero(inside, axis=1))
        top = done = 0
        while done < ends[-1]:
            bottom = int(np.searchsorted(ends, done + RASTER_TILE, side="right"))
            band = inside[top:bottom]
            cur = np.empty(ends[bottom - 1] - done, dtype=complex)
            cur.real = np.broadcast_to(xs[:n_cols], band.shape)[band]
            cur.imag = np.broadcast_to(ys[top:bottom, None], band.shape)[band]
            counts[top:bottom, :n_cols][band] = _escape_tile(coeffs, r_sq, cur, max_iter)
            del cur   # freed before the next tile allocates: a lower peak RSS
            top, done = bottom, ends[bottom - 1]
    if n_cols < resolution:
        counts[:n_rows, resolution - n_cols:] = counts[:n_rows, :n_cols][:, ::-1]
    if n_rows < resolution:
        top = counts[:n_rows][::-1]
        counts[resolution - n_rows:] = top if real else top[:, ::-1]
    return raster


def _escape_tile(coeffs, r_sq, cur, max_iter):
    """Escape counts of the orbits from the points cur, which all passed the step-0
    test; besides compaction and the guard, a step allocates only the leavers' indices."""
    n = n_live = cur.size
    counts, idx = np.full(n, max_iter, dtype=np.int32), np.arange(n)
    guard = not r_sq < OVERFLOW_GUARD * OVERFLOW_GUARD
    saved = cur.copy()   # the checkpoint of step 0
    nxt, pairs = np.empty_like(cur), np.empty(2 * n, dtype=bool)
    inside, stay, live = np.empty(n, dtype=bool), np.empty(n, dtype=bool), np.ones(n, dtype=bool)
    for k in range(1, max_iter):
        cur, nxt = horner(coeffs, cur, out=nxt), cur
        # the squares reuse the spent step's memory: two buffers fewer per tile
        mag_sq, im_sq = nxt.view(float)[:n], nxt.view(float)[n:]
        if guard:
            bad = ~(np.abs(cur.real) <= OVERFLOW_GUARD) | ~(np.abs(cur.imag) <= OVERFLOW_GUARD)
            cur[bad] = 2.0 * OVERFLOW_GUARD
        np.square(cur.real, out=mag_sq)
        mag_sq += np.square(cur.imag, out=im_sq)
        np.less_equal(mag_sq, r_sq, out=inside)
        # and not equal to the checkpoint: both parts compared on the float
        # view, as complex == is several times slower
        np.equal(cur.view(float), saved.view(float), out=pairs)
        np.not_equal(pairs.view(np.uint16), 257, out=stay)
        stay &= inside
        stay &= live
        n_stay = np.count_nonzero(stay)
        if n_stay < n_live:
            counts[idx[np.greater(live, inside, out=inside)]] = k   # live & ~inside
            live, stay, n_live = stay, live, n_stay
            if n_live == 0:
                return counts
            if n_live <= 0.75 * n:
                n, idx, saved, cur = n_live, idx[live], saved[live], cur[live]
                nxt, pairs = nxt[:n], pairs[:2 * n]
                inside, stay, live = inside[:n], stay[:n], live[:n]
                live.fill(True)
        if k & (k - 1) == 0:
            np.copyto(saved, cur)
    return counts


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

    def to_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.points)


def solve_preimages(e: EscapeData, w: complex) -> np.ndarray:
    """All degree-many solutions of p(z) = w, sorted by (re, im)."""
    return PreimageSolver(e.poly).solve(complex(w))


def _orbit_start(solver: PreimageSolver) -> complex:
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


def _run_orbit(solver: PreimageSolver, count: int, burn_in: int,
               bitgen, start: complex, refine=None) -> np.ndarray:
    rng = np.random.Generator(bitgen)
    d = solver.d
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
    if n_samples < 1 or n_samples > MAX_SAMPLES:
        raise ValueError("n_samples must be in [1, 1e6]")
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    if e.degree < 2:
        raise ValueError("sampling needs degree >= 2")
    solver = PreimageSolver(e.poly)
    w0 = _orbit_start(solver)
    for restart in range(6):
        bitgen = np.random.Philox(key=seed).jumped(restart)
        try:
            points = _run_orbit(solver, n_samples, burn_in, bitgen, w0, refine=e.refine)
        except ConvergenceError:
            continue
        return BrolinSample(points)
    raise ConvergenceError("orbit failed after 5 restarts")


# ---------------------------------------------------------------------------
# diagnostics

def exact_chebyshev_moments(p: Poly, k_max: int) -> np.ndarray:
    """Moments m_k = integral of T_k against the balanced measure of p,
    k = 0..k_max, exactly from the zeros.

    The balanced measure mu is invariant under the pull-back (1/d) sum over
    p(z) = w (Brolin 1965), and for k < d = deg p the power sums of the roots
    of p(z) - w do not depend on w.  Hence m_k is the mean of T_k over the
    zeros of p, those a product form carries or roots(p), by chebyshev_moments,
    whose cap k_max <= 32 holds here too (no caller asks for more than 6).
    """
    p = p.trimmed()
    d = p.degree
    if not 0 <= k_max < d:
        raise ValueError(f"k_max must be in [0, {d - 1}] for degree {d}")
    zeros = p.zeros if p.zeros is not None else roots(p)
    return chebyshev_moments(EmpiricalMeasure(zeros), k_max)


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
