"""Dense univariate polynomials, evaluated by Horner on their coefficients or,
when made by Poly.product_form, in root-product form a_d prod (z - zeta_i), which
carries a relative error of about d u at every z (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 5), and their roots.

One Aberth-Ehrlich driver, `aberth`, sweeps over all roots at once with a
noise-floor endgame and returns the caller's own last evaluation with the
roots.  It has two callers.  `PreimageSolver` solves p(z) = w on
`Poly.values`, from warm starts along a run of targets, and gates each root set
on Aberth's last values alone; `roots(p)` is its cold solve at w = 0.
`exceptional.classify_zeros` runs it on the recurrence for a family member's
zeros.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceError

# Trailing coefficients below this relative size do not count toward the degree.
TRUNCATION_REL = 1e-14

# Aberth stops once every correction is below CONVERGENCE_REL of its point; a
# root then has to meet its residual contract at RESIDUAL_REL.
CONVERGENCE_REL = 1e-13
RESIDUAL_REL = 1e-8
MAX_SWEEPS = 500
# solves a PreimageSolver remembers as warm starts: 256 * d * 16 bytes per
# array, about 210 kB at degree 51
SOLVER_MEMORY = 256


@dataclass
class Poly:
    """Coefficients ascending by degree, and from Poly.product_form the zeros
    they expand from, which evaluation then uses.  Immutable after creation."""

    coeffs: np.ndarray
    zeros: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        c.setflags(write=False)
        self.coeffs = c
        if self.zeros is not None:
            self.zeros = np.asarray(self.zeros, dtype=complex)
            self.zeros.setflags(write=False)

    @property
    def degree(self) -> int:
        """The zero count of a product form; otherwise the index of the last
        coefficient above the relative truncation floor."""
        if self.zeros is not None:
            return len(self.zeros)
        mags = np.abs(self.coeffs)
        keep = np.nonzero(mags > TRUNCATION_REL * mags.max())[0]
        return int(keep[-1]) if len(keep) else 0

    def trimmed(self) -> "Poly":
        return self if self.degree == len(self.coeffs) - 1 else Poly(self.coeffs[:self.degree + 1])

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = horner(self.coeffs, z) if self.zeros is None else self._product(z)[0]
        return complex(out) if out.shape == () else out

    def values(self, z, w=0.0):
        """(p(z) - w, p'(z)) at array z in one pass: the root-product form when
        the zeros are known, fused Horner on the coefficients of p - w otherwise."""
        z = np.asarray(z, dtype=complex)
        if self.zeros is None:
            return horner_with_derivative(self.shifted(w), z)
        pv, dv = self._product(z)
        return pv - w, dv

    def noise_floor(self, z, pv, w=0.0):
        """Rounding-error level of pv = values(z, w)[0]: 4 (d+1) eps (|p(z)| + |w|)
        on the product form, 4 (d+1) eps sum |c_k| |z|^k over the coefficients
        c_k of p - w otherwise."""
        level = 4.0 * np.finfo(float).eps * len(self.coeffs)
        if self.zeros is not None:
            return level * (np.abs(pv + w) + abs(w))
        return level * horner(np.abs(self.shifted(w)), np.abs(z)).real

    def shifted(self, w) -> np.ndarray:
        """Ascending coefficients of p - w."""
        return np.concatenate([[self.coeffs[0] - w], self.coeffs[1:]])

    def _product(self, z):
        """(p, p') at z of any shape: p = a_d prod (z - zeta_i) and p' = p sum
        1/(z - zeta_i), each point's row of z - zeta_i reduced on its own from a_d,
        so no value depends on its neighbours.  The differences of all the points
        are held at once, z.size * d complex numbers.  At a zero p' is the product
        of the other factors, 0 at a repeated one."""
        diff = z[..., None] - self.zeros
        pv = np.multiply.reduce(diff, axis=-1, initial=self.coeffs[-1])
        if np.count_nonzero(pv) == pv.size:
            return pv, pv * np.add.reduce(np.reciprocal(diff, out=diff), axis=-1)
        # some z - zeta_i is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            dv = np.asarray(pv * np.reciprocal(diff).sum(axis=-1))
        for i in map(tuple, np.argwhere(pv == 0)):
            rest = diff[i][diff[i] != 0]
            simple = len(rest) == len(self.zeros) - 1
            dv[i] = np.multiply.reduce(rest, initial=self.coeffs[-1]) if simple else 0
        return pv, dv

    def deriv(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly(np.zeros(1, dtype=complex))
        k = np.arange(1, len(self.coeffs))
        return Poly(self.coeffs[1:] * k)

    def monomial_coeffs(self) -> np.ndarray:
        return self.coeffs

    def leading_coeff(self) -> complex:
        return complex(self.coeffs[self.degree])

    def is_monic(self, tol: float = 1e-12) -> bool:
        return abs(self.leading_coeff() - 1.0) <= tol

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "Poly":
        """leading * prod (z - r) over roots, by its expanded coefficients."""
        return cls(_expand(roots, leading))

    @classmethod
    def product_form(cls, zeros, leading=1.0) -> "Poly":
        """leading * prod (z - zeta_i), evaluated in that form; its coeffs are
        the product expanded."""
        zeros = np.asarray(zeros, dtype=complex).ravel()
        return cls(_expand(zeros, leading), zeros if len(zeros) else None)


def _expand(roots, leading):
    """Ascending coefficients of leading * prod (z - r), expanded in extended
    precision with the roots taken alternately from both ends of their order
    by real part (for P_40, Horner on an ascending double-precision expansion
    read 1.1e4 of the recurrence's term size on [-1, 1], on this one 2.1)."""
    roots = np.asarray(roots, dtype=complex).ravel()
    by_real = np.argsort(roots.real, kind="stable")
    c = np.ones(1, dtype=np.clongdouble)
    for r in roots[np.column_stack([by_real, by_real[::-1]]).ravel()[:len(roots)]]:
        c = np.convolve(c, np.array([-r, 1.0], dtype=np.clongdouble))
    return np.asarray(c * leading, dtype=complex)


def expansion_error(d: int) -> float:
    """eps with |expanded - exact| <= eps |a_d| times the coefficients of
    prod (z + |zeta_i|), coefficientwise, for _expand on d roots: each of the
    d clongdouble convolution steps and the multiply by a_d is a complex
    multiply and an add (sqrt 2 gamma_2 + u <= gamma_4 each, Higham, Accuracy
    and Stability of Numerical Algorithms, lemma 3.5), and the cast to complex
    rounds once more, so eps = u + gamma_{4d+4} in clongdouble precision."""
    k = 4 * d + 4
    u_long = float(np.finfo(np.clongdouble).eps) / 2.0
    return np.finfo(float).eps / 2.0 + k * u_long / (1.0 - k * u_long)


def horner(coeffs, z, out=None):
    """Value of the monomial-basis polynomial with ascending coeffs at array z,
    accumulated in out (new when None; not z's memory) with no zero coefficient
    added and no unit lead multiplied, so at finite z only zero signs differ
    from stepping every coefficient; at a Python number, in Python arithmetic."""
    if not isinstance(z, np.ndarray):
        acc = coeffs[-1]
        for ck in coeffs[-2::-1]:
            acc = acc * z + ck
        return acc
    out = np.empty(z.shape, dtype=complex) if out is None else out
    if len(coeffs) == 1:
        out.fill(coeffs[0])
    elif coeffs[-1] == 1:
        np.copyto(out, z)
    else:
        np.multiply(coeffs[-1], z, out=out)
    for k in range(len(coeffs) - 2, -1, -1):
        if coeffs[k]:
            np.add(out, coeffs[k], out=out)
        if k:
            np.multiply(out, z, out=out)
    return out


def horner_with_derivative(coeffs, z):
    """(p(z), p'(z)) for ascending monomial coeffs, in one fused Horner pass."""
    pv = np.full(z.shape, coeffs[-1], dtype=complex)
    dv = np.zeros(z.shape, dtype=complex)
    for ck in coeffs[-2::-1]:
        dv = dv * z + pv
        pv = pv * z + ck
    return pv, dv


# ---------------------------------------------------------------------------
# simultaneous root finding

def initial_circle(mono: np.ndarray, radius: float | None = None) -> np.ndarray:
    """Perturbed-circle starting points for the d = len(mono) - 1 roots of mono,
    on a circle of the given radius, by default the Cauchy bound
    1 + max |c_k| / |c_d| enclosing all roots; either is capped at 1e6."""
    d = len(mono) - 1
    if radius is None:
        radius = 1.0 + float(np.max(np.abs(mono[:d])) / abs(mono[d]))
    radius = min(radius, 1e6)
    ang = 2.0 * np.pi * np.arange(d) / d + 0.4
    return radius * np.exp(1j * ang) * (1.0 + 0.01 * np.sin(7.0 * ang))


def aberth(values, noise_floor, z0: np.ndarray):
    """Aberth-Ehrlich iteration on all roots at once, from starting points z0.

    values(z) -> (p(z), p'(z), ...) drives the sweeps.  A root also counts as
    settled once |p(z)| dips under noise_floor(z, p(z)), the rounding-error
    level of the evaluation itself; corrections cannot shrink below that,
    whatever the sweep count.  Returns (roots, converged, *values) with the
    tuple of the last values() call: at the roots when the iteration ended on
    an evaluation (the floor test or the sweep limit MAX_SWEEPS, read at each
    call), and at the points one correction, of at most CONVERGENCE_REL
    relative size, before the roots when it ended on a correction.
    """
    z = z0.copy()
    best = np.inf
    stalled = 0
    pending = None
    for sweep in range(MAX_SWEEPS + 1):
        vals = values(z)
        pv, dv = vals[:2]
        # the floor test of the previous sweep reads this sweep's p(z), so an
        # endgame that goes on costs no extra evaluation
        if pending is not None and np.all(
                (pending <= CONVERGENCE_REL) | (np.abs(pv) <= noise_floor(z, pv))):
            return (z, True, *vals)
        if sweep == MAX_SWEEPS:
            return (z, False, *vals)
        if np.count_nonzero(dv) == len(dv):
            w = pv / dv
        else:
            safe = dv.copy()    # the returned derivatives keep an exact zero
            safe[safe == 0] = 1e-300
            w = pv / safe
        diff = np.subtract.outer(z, z)
        diff.ravel()[::len(z) + 1] = np.inf
        corr = w / (1.0 - w * np.add.reduce(np.divide(1.0, diff, out=diff), axis=1))
        moved = z - corr
        scaled = np.abs(corr) / (1.0 + np.abs(moved))
        worst = scaled.max()
        if not worst < np.inf:  # a non-finite correction makes worst NaN or inf
            bad = ~np.isfinite(corr)
            corr[bad] = w[bad]
            moved = z - corr
            scaled = np.abs(corr) / (1.0 + np.abs(moved))
            worst = scaled.max()
        z = moved
        if worst <= CONVERGENCE_REL:
            return (z, True, *vals)
        # near critical points the Newton ratio is noise over noise and the
        # corrections rattle forever; once the sweep stops improving, accept
        # any configuration whose residuals all sit below the evaluation floor
        if worst < 0.5 * best:
            best, stalled = worst, 0
        else:
            stalled += 1
        pending = scaled if worst <= 1e-9 or stalled >= 10 else None


def _fold_pair(z, lead, i, dw):
    """Starts at w' + dw for the neighbouring stored roots z[i], z[i + 1] of
    p = w': the roots of the Taylor quadratic of p at their midpoint c.  Since
    p - w' = lead prod (x - z_j), p(c) - w' = f, p'(c) = f s_1 and p''(c) =
    f (s_1^2 - s_2) with s_m = sum (c - z_j)^-m, with no evaluation of p.  Exact
    on a quadratic p; None when p''(c) = 0 or a value is not finite."""
    c = (z[i] + z[i + 1]) / 2
    q = 1.0 / (c - z)
    s1 = q.sum()
    f = lead * np.prod(c - z)
    g, k = f * s1, f * (s1 * s1 - (q * q).sum())
    if not k:
        return None
    c, r = c - g / k, np.sqrt((g / k) ** 2 + 2 * (dw - f) / k)
    return (c - r, c + r) if np.isfinite(c) and np.isfinite(r) else None


class PreimageSolver:
    """Aberth solves of p(z) = w for a run of targets w, each started from the
    roots of the nearest earlier target, moved by one Newton step.

    Every sweep evaluates Poly.values(z, w) and the floor Poly.noise_floor,
    in whichever form the Poly carries.  Starts are nudged off the real axis,
    where from real points at a real w Aberth would stay: every predicted root
    set by 1e-6, and for a Poly with zeros, the zeros by 1e-3.

    The targets, sorted root sets, p' at those roots and the half gaps between
    neighbouring roots of the last SOLVER_MEMORY solves sit in fixed arrays,
    overwritten oldest first; unfilled slots hold an infinite target, so they
    are never nearest.  The targets of one backward orbit fill the Julia set,
    so the nearest stored root set z' lies within about |w - w'| / |p'| of the
    new preimages, and the tangent predictor z' + (w - w') / p'(z') of
    numerical continuation (Allgower & Georg, Numerical Continuation Methods,
    1990) closer still; a root whose stored p' is 0 starts at z'.

    Where w lies past a critical value that w' did not, a real pair of
    neighbours must turn into a conjugate pair, and their tangent steps drive
    both onto each other.  So a pair of neighbours in the stored (re, im)
    order whose steps s close more than half their gap, Re((s_{i+1} - s_i) /
    (z'_{i+1} - z'_i)) < -1/2, starts from `_fold_pair`, the roots of p's
    quadratic model at the pair's midpoint, unless a root's p' is 0 or the
    pair overlaps one already replaced.  Only pairs with |s_{i+1} - s_i| >
    |z'_{i+1} - z'_i| / 2, one compare against the stored half gaps, are
    looked at.

    A solve that does not converge within MAX_SWEEPS from one start, or whose
    roots `accepts` refuses, retries from the next, a circle around every root
    last: for a Poly with zeros, of radius rho + (|w| / |a_d|)^(1/d) with
    rho = max |zeta_i|, since |p(z)| >= |a_d| (|z| - rho)^d beyond rho; the
    Cauchy circle of p - w otherwise.
    """

    def __init__(self, poly: Poly):
        self.poly = poly
        self.d = len(poly.coeffs) - 1
        self.targets = np.full(SOLVER_MEMORY, np.inf, dtype=complex)
        self.solved = np.zeros((SOLVER_MEMORY, self.d), dtype=complex)
        self.slopes = np.zeros((SOLVER_MEMORY, self.d), dtype=complex)
        self.half_gaps = np.zeros((SOLVER_MEMORY, self.d - 1))
        self.count = 0
        nudge = np.exp(1j * (2.0 * np.pi * np.arange(self.d) / self.d + 0.4))
        self.nudge = 1e-6 * nudge
        self.zeros_start = None if poly.zeros is None else poly.zeros + 1e-3 * nudge
        # the sum of the roots of p - w, the same at every w for d >= 2 (Vieta)
        self.root_sum = (complex(poly.zeros.sum()) if poly.zeros is not None
                         else complex(-poly.coeffs[-2] / poly.coeffs[-1]))

    def _starts(self, w: complex):
        if self.count:
            nearest = int(np.abs(self.targets - w).argmin())
            z, slope, dw = self.solved[nearest], self.slopes[nearest], w - self.targets[nearest]
            if np.count_nonzero(slope) == self.d:
                step = dw / slope
            else:
                step = np.divide(dw, slope, out=np.zeros(self.d, dtype=complex), where=slope != 0)
            warm = z + step
            close = np.abs(step[1:] - step[:-1]) > self.half_gaps[nearest]
            if np.count_nonzero(close):
                lead, last = self.poly.coeffs[-1], -2
                for i in np.flatnonzero(close):
                    gap = z[i + 1] - z[i]
                    closing = ((step[i + 1] - step[i]) * gap.conjugate()).real
                    if i > last + 1 and slope[i] and slope[i + 1] and closing < -0.5 * abs(gap) ** 2:
                        pair = _fold_pair(z, lead, i, dw)
                        if pair is not None:
                            warm[i:i + 2] = pair
                            last = i
            yield warm + self.nudge
        zeros = self.poly.zeros
        if zeros is None:
            yield initial_circle(self.poly.shifted(w))
        else:
            yield self.zeros_start
            bound = np.max(np.abs(zeros)) + (abs(w) / abs(self.poly.coeffs[-1])) ** (1.0 / self.d)
            yield initial_circle(self.poly.coeffs, bound)

    def accepts(self, z: np.ndarray, pv: np.ndarray, dv: np.ndarray, w: complex) -> bool:
        """Whether z are the preimages of w, from aberth's last values pv = p - w
        and dv = p' (at z or one correction before), with no new evaluation.

        Each root passes the Newton test |pv| <= RESIDUAL_REL |dv| (1 + |z|) or
        sits at the noise floor.  Their sum must be Vieta's to RESIDUAL_REL
        (1 + sum |z|) plus the sum of floor / |dv|, about how far rounding lets
        each root wander: the members of a multiple root's cluster wander
        independently, while a root found twice leaves another root out."""
        size, slope, mags = np.abs(pv), np.abs(dv), np.abs(z)
        settled = size <= RESIDUAL_REL * slope * (1.0 + mags)
        gap = abs(z.sum() - self.root_sum) - RESIDUAL_REL * (1.0 + mags.sum())
        if gap <= 0.0 and settled.all():    # the usual case, with no floor to compute
            return True
        floor = self.poly.noise_floor(z, pv, w)
        wander = np.divide(floor, slope, out=np.zeros_like(floor), where=slope > 0).sum()
        return bool(np.all(settled | (size <= floor))) and gap <= wander

    def solve(self, w: complex) -> np.ndarray:
        """The d roots of p(z) = w, sorted by (re, im); ConvergenceError when
        no start gives a root set the gate accepts."""
        values = partial(self.poly.values, w=w)
        floor = partial(self.poly.noise_floor, w=w)
        for z0 in self._starts(w):
            z, ok, pv, dv = aberth(values, floor, z0)
            if ok and self.accepts(z, pv, dv, w):
                order = np.lexsort((z.imag, z.real))
                z = z[order]
                slot = self.count % SOLVER_MEMORY
                self.targets[slot] = w
                self.solved[slot] = z
                self.slopes[slot] = dv[order]
                self.half_gaps[slot] = 0.5 * np.abs(z[1:] - z[:-1])
                self.count += 1
                return z
        raise ConvergenceError(f"preimage solve failed at w = {w:.6g}")


def roots(p: Poly) -> np.ndarray:
    """All deg(p) roots of p, with multiplicity, sorted by (re, im): a cold
    PreimageSolver solve of p(z) = 0, so they pass the sampler's gate.

    Trailing coefficients at or below poly.TRUNCATION_REL of the largest are
    dropped first, so they neither count toward the degree nor raise.  A
    linear p has its closed-form root.
    """
    p = p.trimmed()
    d = p.degree
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return np.array([-p.coeffs[0] / p.coeffs[1]])
    return PreimageSolver(p).solve(0.0)
