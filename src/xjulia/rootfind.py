"""Simultaneous polynomial root-finding and zero classification.

One Aberth-Ehrlich driver, `aberth`, sweeps over all roots at once with a
noise-floor endgame; the caller supplies the evaluation.  `roots` and the
sampler's preimage solves pass the fused value-and-derivative pass of
`Poly.values`.  Classification of the Darboux-family zeros into
regular (simple, inside (-1,1)) and exceptional (everything else) runs the same
driver on the recurrence evaluation of P_n and P_n' itself, so no coefficient
form stands between the zeros and the function; it starts from the Gauss-Jacobi
nodes of the weight and the zeros of b_tilde, and mostly settles in 3-4 sweeps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .jacobi import DEGREE_CAP, gauss_nodes
from .poly import Poly

CONVERGENCE_REL = 1e-13
RESIDUAL_REL = 1e-8
MAX_SWEEPS = 500

# Regular/exceptional split: at desk scale the two clusters are separated by
# many orders of magnitude, so hard thresholds are safe.
IMAG_TOL = 1e-8
EDGE_TOL = 1e-12


def residual_scale(p: Poly, r):
    """Size of p near the circle |z| = 1 + |r|, as a residual yardstick.

    Upper bound sum |a_i| (1+|r|)^i in the monomial basis; this is the natural
    backward-error scale for evaluation at |z| <= 1 + |r|.  Elementwise over
    an array r.
    """
    mono = np.abs(p.monomial_coeffs())
    return np.power(1.0 + np.abs(np.asarray(r))[..., None], np.arange(len(mono))) @ mono


def initial_circle(mono: np.ndarray) -> np.ndarray:
    """Perturbed-circle starting points enclosing all roots (Cauchy bound)."""
    d = len(mono) - 1
    radius = min(1.0 + float(np.max(np.abs(mono[:d])) / abs(mono[d])), 1e6)
    ang = 2.0 * np.pi * np.arange(d) / d + 0.4
    return radius * np.exp(1j * ang) * (1.0 + 0.01 * np.sin(7.0 * ang))


def aberth(values, noise_floor, z0: np.ndarray, max_sweeps: int = MAX_SWEEPS):
    """Aberth-Ehrlich iteration on all roots at once, from starting points z0.

    values(z) -> (p(z), p'(z)) drives the sweeps.  A root also counts as
    settled once |p(z)| dips under noise_floor(z, p(z)), the rounding-error
    level of the evaluation itself; corrections cannot shrink below that,
    whatever the sweep count.  Returns (roots, converged, values,
    derivatives): values and derivatives are p(roots) and p'(roots) as
    values(roots) gave them when the iteration ended on an evaluation (the
    floor test or the sweep limit).  When it ended on a correction, values is
    None and derivatives is p' at the points one correction, of at most
    CONVERGENCE_REL relative size, before the roots.
    """
    z = z0.copy()
    best = np.inf
    stalled = 0
    pending = None
    for sweep in range(max_sweeps + 1):
        pv, dv = values(z)
        # the floor test of the previous sweep reads this sweep's p(z), so an
        # endgame that goes on costs no extra evaluation
        if pending is not None and np.all(
                (pending <= CONVERGENCE_REL) | (np.abs(pv) <= noise_floor(z, pv))):
            return z, True, pv, dv
        if sweep == max_sweeps:
            return z, False, pv, dv
        safe = dv.copy()        # the returned derivatives keep an exact zero
        safe[safe == 0] = 1e-300
        w = pv / safe
        diff = np.subtract.outer(z, z)
        diff.ravel()[::len(z) + 1] = np.inf
        corr = w / (1.0 - w * np.divide(1.0, diff, out=diff).sum(axis=1))
        if not np.isfinite(corr).all():
            bad = ~np.isfinite(corr)
            corr[bad] = w[bad]
        z = z - corr
        scaled = np.abs(corr) / (1.0 + np.abs(z))
        worst = scaled.max()
        if worst <= CONVERGENCE_REL:
            return z, True, None, dv
        # near critical points the Newton ratio is noise over noise and the
        # corrections rattle forever; once the sweep stops improving, accept
        # any configuration whose residuals all sit below the evaluation floor
        if worst < 0.5 * best:
            best, stalled = worst, 0
        else:
            stalled += 1
        pending = scaled if worst <= 1e-9 or stalled >= 10 else None


def roots(p: Poly, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """All deg(p) roots of p, with multiplicity, by Aberth-Ehrlich iteration
    from the perturbed Cauchy circle, evaluated by p.values in p's own form.

    Trailing coefficients at or below poly.TRUNCATION_REL of the largest are
    dropped first, so they neither count toward the degree nor raise.
    """
    p = p.trimmed()
    d = p.degree
    if d < 1:
        raise ValueError("degree must be >= 1")
    mono = p.coeffs
    if d == 1:
        return np.array([-mono[0] / mono[1]])

    z, converged, _, _ = aberth(p.values, p.noise_floor, initial_circle(mono), max_sweeps)
    if not converged:
        worst = float(np.max(np.abs(p(z))))
        raise ConvergenceError(f"Aberth iteration did not settle in {max_sweeps} sweeps",
                               residual=worst)

    worst_rel = float(np.max(np.abs(p(z)) / residual_scale(p, z)))
    if worst_rel > RESIDUAL_REL:
        raise ConvergenceError("root residual contract violated", residual=worst_rel)
    return z


@dataclass
class ZeroClassification:
    """Zeros of one Darboux-family polynomial, split by location.

    regular: real zeros in (-1, 1), ascending.  exceptional: all others,
    sorted by distance to the nearest zero of the one-signed divisor b_tilde.
    """

    regular: np.ndarray
    exceptional: np.ndarray
    n: int
    m: int

    @property
    def total(self) -> int:
        return len(self.regular) + len(self.exceptional)


def classify_zeros(data, n: int) -> "ZeroClassification":
    """Split the zeros of the n-th transformed family member P_n.

    Aberth runs on the recurrence evaluation of (P_n, P_n') from
    _classification_guesses (Gauss-Jacobi nodes of the weight for the regular
    zeros, perturbed b_tilde zeros for the rest), one start per zero of the
    actual degree, and stops only when every correction is below
    CONVERGENCE_REL.  Each zero must then meet the residual contract
    |P_n| <= RESIDUAL_REL (s + (1 + |z|) |P_n'|), s = (|b p_n'| + |bw p_n|) /
    sigma_n the size of the terms whose difference is P_n: a small residual
    next to those terms, or a Newton step below RESIDUAL_REL of the point (the
    only yardstick left at a zero of b p_n' when bw = 0).  A zero is regular
    iff |Im| <= 1e-8 and Re inside the open interval with a 1e-12 edge margin.
    """
    from . import exceptional as exc_mod

    if n + data.m > DEGREE_CAP:
        raise ValueError(f"n + m exceeds the desk-scale degree cap ({DEGREE_CAP})")
    degree = exc_mod.exceptional_degree(data, n)
    if degree < 1:
        raise ValueError("degree must be >= 1")

    def values(z):
        return exc_mod.exceptional_values(data, n, z)[:2]

    found, converged, _, _ = aberth(values, lambda z, pv: 0.0,
                                    _classification_guesses(data, degree))
    f, df, size = exc_mod.exceptional_values(data, n, found)
    if not converged:
        raise ConvergenceError(f"Aberth iteration did not settle in {MAX_SWEEPS} sweeps",
                               residual=float(np.max(np.abs(f))))
    # a product, not a ratio: an exact zero passes and a NaN fails
    if not np.all(np.abs(f) <= RESIDUAL_REL * (size + (1.0 + np.abs(found)) * np.abs(df))):
        raise ConvergenceError("zero residual contract violated",
                               residual=float(np.max(np.abs(f))))

    reg_mask = (np.abs(found.imag) <= IMAG_TOL) & (np.abs(found.real) < 1.0 - EDGE_TOL)
    regular = np.sort(found[reg_mask].real)
    exceptional = found[~reg_mask]
    if len(exceptional):
        dist = np.min(np.abs(exceptional[:, None] - data.b_tilde_roots[None, :]), axis=1)
        exceptional = exceptional[np.argsort(dist)]
    return ZeroClassification(regular=regular, exceptional=exceptional, n=n, m=data.m)


def _classification_guesses(data, degree: int) -> np.ndarray:
    """Starting points: the zeros of the classical Jacobi polynomial of the weight's
    exponents, next to which the regular zeros lie (Gomez-Ullate, Marcellan &
    Milson, J. Math. Anal. Appl. 399, 2013), plus perturbed copies of the b_tilde
    zeros, taken in turn, for the exceptional ones."""
    n_extra = min(data.m, degree)
    shift = 0.05 * np.exp(2j * np.pi * np.arange(n_extra) / max(n_extra, 1))
    extra = np.resize(data.b_tilde_roots, n_extra)
    extra = extra + shift * (1.0 + np.abs(extra))
    n_ell = degree - n_extra
    return np.concatenate([gauss_nodes(data.weight_params, n_ell) if n_ell else [], extra])


def zero_counting_measure(zc: ZeroClassification):
    """Uniform unit-mass measure on the regular zeros only."""
    from .measures import EmpiricalMeasure

    if len(zc.regular) == 0:
        raise ValidationError(f"P_{zc.n} has no regular zeros in (-1, 1)")
    return EmpiricalMeasure(zc.regular.astype(complex))


def classification_to_csv(zc: ZeroClassification) -> str:
    lines = ["kind,re,im"]
    for x in zc.regular:
        lines.append(f"regular,{x:.17g},0")
    for z in zc.exceptional:
        lines.append(f"exceptional,{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"
