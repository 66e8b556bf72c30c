"""Orthonormal families built from classical Jacobi by one first-order
transformation P_n = (b p_n' - bw p_n) / sigma_n.

The transformed family is orthonormal against W = c0 * w^(alpha+e1, beta+e2) /
b_tilde^2, where b_tilde is b with its (1-x)/(1+x) factors divided out and of
one sign on [-1, 1].  No
configuration is trusted a priori: construction runs the orthonormality oracle
and rejects anything that fails it.  sigma_n is *defined* as the quadrature
norm of b p_n' - bw p_n; the closed form sqrt(c0 (n(n+alpha+beta+1)+lambda))
is the cross-check that validates the configured lambda.

Inner products against W of members up to degree n (sigma_n and the Gram
matrix) take the Gauss rule of order max(200, 2 (n + m) + 60) and slice one
cached table pass per rule, run to the top degree it serves (70 - m at 200).

The zeros of P_n are found by Aberth on the recurrence itself, split into
regular and exceptional, and give P_n its root-product form.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import jacobi
from .errors import ConfigError, ConvergenceError, ValidationError
from .jacobi import DEGREE_CAP, JacobiParams, cached_rule, gauss_nodes
from .measures import EmpiricalMeasure
from .poly import MAX_SWEEPS, RESIDUAL_REL, Poly, aberth, horner, roots

# Base quadrature order for the rational inner products; geometric convergence
# in the order makes this ample for poles at distance >~ 1e-2 from [-1, 1].
BASE_QUAD_ORDER = 200

ORTHO_GATE_INDEX = 10
ORTHO_GATE_TOL = 1e-8

# Newton steps newton_refiner may take; it stops earlier once |P_n(z) - w|
# stops falling or reaches the rounding level of the recurrence.
REFINE_MAX_STEPS = 8

# Regular/exceptional split: at desk scale the two clusters are separated by
# many orders of magnitude, so hard thresholds are safe.
IMAG_TOL = 1e-8
EDGE_TOL = 1e-12


@dataclass
class DarbouxData:
    """One transformed family.  Immutable after construction.

    params is the *source* classical family; the weight W lives at the shifted
    exponents (alpha + eps1, beta + eps2).  m = deg b_tilde is the codimension.
    Fixed with the family: multipliers, the ascending coefficients of b, b',
    bw and bw' as Python lists, which horner evaluates at arrays and Python
    numbers alike; b_tilde_roots, the zeros of b_tilde; and top = (B, C, b_(D-1)),
    for D = deg b bw's coefficients at x^(D-1), x^(D-2) and b's at x^(D-1), 0
    where absent, which decide the top two coefficients of P_n (zero_sum).
    """

    params: JacobiParams
    b: Poly
    bw: Poly
    eps1: int
    eps2: int
    lambda_tilde: float
    m: int
    b_tilde: Poly
    multipliers: tuple = field(init=False, repr=False, compare=False)
    b_tilde_roots: np.ndarray = field(init=False, repr=False, compare=False)
    top: tuple = field(init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.multipliers = tuple(c.coeffs.tolist() for c in
                                 (self.b, self.b.deriv(), self.bw, self.bw.deriv()))
        self.b_tilde_roots = (roots(self.b_tilde) if self.m >= 1
                              else np.array([], dtype=complex))
        b, _, bw, _ = self.multipliers
        D = len(b) - 1
        self.top = tuple(c[k] if 0 <= k < len(c) else 0.0
                         for c, k in ((bw, D - 1), (bw, D - 2), (b, D - 1)))

    @property
    def weight_params(self) -> JacobiParams:
        return JacobiParams(self.params.alpha + self.eps1, self.params.beta + self.eps2)

    def quad_rule(self, order: int):
        wp = self.weight_params
        return cached_rule(wp.alpha, wp.beta, order)


def _divide_out_interval_factors(b: Poly, eps1: int, eps2: int) -> Poly:
    """b_tilde = b / (1-x)^d1 / (1+x)^d2, d_i = (1 - eps_i)/2, by numpy's np.polydiv."""
    coeffs = b.coeffs[b.degree::-1]
    for eps, root in ((eps1, 1.0), (eps2, -1.0)):
        if eps == 1:
            continue
        scale = max(1.0, np.max(np.abs(coeffs)))
        # descending, 1 -+ x reads (-+1, 1), so the quotient is b / (1 -+ x) itself
        coeffs, rem = np.polydiv(coeffs, (-root, 1.0))
        if abs(rem[-1]) > 1e-9 * scale:
            raise ValidationError(
                f"b is not divisible by (x - {root:g}) as the sign pattern requires "
                f"(remainder {abs(rem[-1]):.2e})")
    return Poly(coeffs[::-1])


def make_darboux_data(params: JacobiParams, b: Poly, bw: Poly, eps1: int, eps2: int,
                      lambda_tilde: float) -> DarbouxData:
    """Assemble and gate one family configuration.

    Structural checks (monic b, degree gap, pole locations: no zero of b_tilde
    on [-1, 1]) run first.  Then the orthonormality oracle gate runs, and
    lambda_tilde is checked: the closed-form norm must match the quadrature
    one to ORTHO_GATE_TOL at every n up to ORTHO_GATE_INDEX.
    """
    if eps1 not in (-1, 1) or eps2 not in (-1, 1):
        raise ConfigError("eps1/eps2", "must be +1 or -1")
    b = b.trimmed()
    bw = bw.trimmed()
    if not b.is_monic(1e-10):
        raise ValidationError(f"b must be monic (leading {b.leading_coeff():.6g})")
    if b.degree < bw.degree + 1 and not _is_zero(bw):
        raise ValidationError(f"deg b = {b.degree} must be >= deg bw + 1 = {bw.degree + 1}")
    wp_alpha = params.alpha + eps1
    wp_beta = params.beta + eps2
    if wp_alpha <= -1 or wp_beta <= -1:
        raise ValidationError(
            f"shifted weight exponents ({wp_alpha:g}, {wp_beta:g}) must exceed -1")

    b_tilde = _divide_out_interval_factors(b, eps1, eps2)
    data = DarbouxData(params=params, b=b, bw=bw, eps1=eps1, eps2=eps2,
                       lambda_tilde=float(lambda_tilde), m=b_tilde.degree,
                       b_tilde=b_tilde)
    # b has b_tilde's sign on (-1, 1), so |b_tilde| nearest each zero must top its rounding
    # level anywhere on [-1, 1]; a double zero splits off the axis by ~sqrt(u)
    x = np.clip(data.b_tilde_roots.real, -1.0, 1.0)
    bt = b_tilde(x)
    low = np.abs(bt) <= b_tilde.noise_floor(1.0, bt)
    if low.any():
        raise ValidationError(f"b_tilde vanishes on [-1, 1], at {x[np.argmax(low)]:.6g}")
    dev, where = orthonormality_deviation(data, ORTHO_GATE_INDEX)
    if dev > ORTHO_GATE_TOL:
        raise ValidationError(
            f"orthonormality gate failed at (i, j) = {where}: residual {dev:.3e}")
    for n in range(first_index(data), ORTHO_GATE_INDEX + 1):
        gap = sigma_discrepancy(data, n)
        if not gap <= ORTHO_GATE_TOL:
            raise ValidationError(
                f"lambda_tilde = {data.lambda_tilde:g} does not give sigma_{n}: "
                f"closed form off the quadrature norm by {gap:.3e}")
    return data


def first_index(data: DarbouxData) -> int:
    """Smallest n with a nonvanishing family member.

    A pure-derivative configuration (bw identically zero) annihilates the
    constants, so its sequence starts at n = 1.
    """
    return 1 if _is_zero(data.bw) else 0


def _is_zero(p: Poly) -> bool:
    return bool(np.all(p.coeffs == 0))


def make_x1_preset(params: JacobiParams) -> DarbouxData:
    """The codimension-1 family whose weight is w^(alpha,beta) / (x - c)^2.

    Here (alpha, beta) are the *exceptional weight* exponents; the pole sits at
    c = (alpha + beta)/(beta - alpha) and must lie outside [-1, 1].  One
    construction covers either order of alpha and beta (Gomez-Ullate, Kamran &
    Milson, Contemp. Math. 563, 2012, at m = 1): source family (alpha+1, beta-1),
    b = (x - 1)(x - c), bw = ((alpha+1) c - 1) - alpha x, lambda = alpha (beta+1),
    so b_tilde = c - x, positive for c > 1 and negative for c < -1.  Other
    exponents raise ConfigError; the data returned has passed the construction gates.
    """
    a, bb = params.alpha, params.beta
    if a == bb:
        raise ConfigError("alpha/beta", "preset needs alpha != beta (pole undefined)")
    c = (a + bb) / (bb - a)
    if abs(c) <= 1.0:
        raise ConfigError("alpha/beta", f"pole c = {c:g} lies in [-1, 1]; preset rejected")
    if min(a, bb) <= 0.0:
        raise ConfigError("alpha/beta", "preset requires alpha, beta > 0")
    return make_darboux_data(JacobiParams(a + 1.0, bb - 1.0),
                             Poly([c, -(1.0 + c), 1.0]),          # (x - 1)(x - c)
                             Poly([(a + 1.0) * c - 1.0, -a]), -1, 1, a * (bb + 1.0))


# ---------------------------------------------------------------------------
# weight normalization and norms

def normalization_constant(data: DarbouxData) -> float:
    """c0 making the weight a probability measure; quadrature order 200."""
    if "c0" not in data._cache:
        rule = data.quad_rule(BASE_QUAD_ORDER)
        total = rule.integrate_values(1.0 / data.b_tilde(rule.nodes).real ** 2)
        if not np.isfinite(total) or total <= 0:
            raise ValidationError("weight normalization integral is degenerate")
        data._cache["c0"] = 1.0 / float(total)
    return data._cache["c0"]


def quad_order(data: DarbouxData, n: int) -> int:
    """Order of the Gauss rule for inner products against W of members up to
    degree n; the 60 nodes past the polynomial part's n + m + 1 serve 1/b_tilde^2."""
    return max(BASE_QUAD_ORDER, 2 * (n + data.m) + 60)


_RulePass = namedtuple("_RulePass", "rule bt rows norms")


def _rule_pass(data: DarbouxData, n: int) -> _RulePass:
    """n's rule record, cached: the rule, b_tilde at its nodes, the rows
    b p_k' - bw p_k there in float64 from one table pass to the top k on the
    rule, and their norms, which define sigma_k (not yet checked for degeneracy)."""
    if n < 0:
        raise ValueError(f"need a degree >= 0, got {n}")
    order = quad_order(data, n)
    key = ("pass", order)
    if key not in data._cache:
        top = n
        while quad_order(data, top + 1) == order:
            top += 1
        rule = data.quad_rule(order)
        x = rule.nodes
        p, dp = jacobi.jacobi_table(data.params, top, x, 1)
        bc, _, bwc, _ = data.multipliers
        rows = horner(bc, x).real * dp - horner(bwc, x).real * p
        bt = data.b_tilde(x).real
        norm_sq = normalization_constant(data) * rule.integrate_values(rows * rows / bt ** 2)
        data._cache[key] = _RulePass(rule, bt, rows, np.sqrt(norm_sq).tolist())
    return data._cache[key]


def _family_rows(data: DarbouxData, kmax: int):
    """(kmax's rule record, P_k = (b p_k' - bw p_k) / sigma_k at its nodes for
    k = first_index..kmax, sliced from the record's pass)."""
    rec = _rule_pass(data, kmax)
    lo = first_index(data)
    sig = np.array([sigma_n(data, k) for k in range(lo, kmax + 1)])
    return rec, rec.rows[lo:kmax + 1] / sig[:, None]


def sigma_n(data: DarbouxData, n: int) -> float:
    """L2(W) norm of b p_n' - bw p_n, by quadrature (the defining normalizer),
    from n's rule record; one not positive and finite raises ValidationError."""
    norm = _rule_pass(data, n).norms[n]
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"degenerate transform: ||A p_{n}|| ~ 0")
    return norm


def sigma_n_closed_form(data: DarbouxData, n: int) -> float:
    """sqrt(c0 (n(n+alpha+beta+1) + lambda)) with the configured lambda."""
    c0 = normalization_constant(data)
    s = data.params.alpha + data.params.beta
    val = c0 * (n * (n + s + 1) + data.lambda_tilde)
    if val <= 0:
        raise ValidationError(f"closed-form norm undefined at n={n} (negative argument)")
    return float(np.sqrt(val))


def sigma_discrepancy(data: DarbouxData, n: int) -> float:
    """Relative gap between the quadrature norm and the closed form."""
    q = sigma_n(data, n)
    c = sigma_n_closed_form(data, n)
    return abs(q - c) / c


def exceptional_values(data: DarbouxData, n: int, z):
    """(P_n, P_n', s) at z from one recurrence pass, where
    P_n = (b p_n' - bw p_n) / sigma_n and s = (|b p_n'| + |bw p_n|) / sigma_n
    is the size of the two terms, the yardstick for P_n's rounding error;
    z is an array or a Python number, and so are the results."""
    sig = sigma_n(data, n)
    p, dp, ddp = jacobi.orthonormal_values(data.params, n, z)
    bc, dbc, bwc, dbwc = data.multipliers
    b, db, bw, dbw = horner(bc, z), horner(dbc, z), horner(bwc, z), horner(dbwc, z)
    return ((b * dp - bw * p) / sig, (db * dp + b * ddp - dbw * p - bw * dp) / sig,
            (abs(b * dp) + abs(bw * p)) / sig)


def eval_exceptional(data: DarbouxData, n: int, z):
    """P_n(z) = (b(z) p_n'(z) - bw(z) p_n(z)) / sigma_n, recurrence-based; a
    scalar z, numpy's or 0-d included, gives a Python complex."""
    if np.ndim(z) == 0:
        return complex(exceptional_values(data, n, complex(z))[0])
    return exceptional_values(data, n, np.asarray(z, dtype=complex))[0]


# ---------------------------------------------------------------------------
# degrees and leading coefficients

def exceptional_degree(data: DarbouxData, n: int) -> int:
    """Actual degree of P_n, n + deg b - 1 for n >= 1; ValidationError at a
    degenerate n = B, where the top coefficient, a multiple of n - B, cancels."""
    if n == 0:
        return data.bw.degree if not _is_zero(data.bw) else 0
    B = data.top[0].real
    if abs(n - B) <= 1e-12 * max(1.0, abs(B)):
        raise ValidationError(f"degree degenerates at n={n} (n = leading coeff of bw)")
    return n + data.b.degree - 1


def leading_coeff_exceptional(data: DarbouxData, n: int) -> float:
    """Leading coefficient of P_n, gamma_n (n - B) / sigma_n, in closed form.

    b is monic, so b p_n' leads with n gamma_n at degree n + deg b - 1, where
    gamma_n leads p_n, and bw p_n adds B gamma_n there, B = data.top[0] being
    bw's coefficient at x^(deg b - 1) (0 when deg bw is lower).  Raises
    ValueError for n < 1 and ValidationError at a degenerate n = B, where the
    top coefficient cancels (exceptional_degree).
    """
    if n < 1:
        raise ValueError("the leading-coefficient formula needs n >= 1")
    exceptional_degree(data, n)
    gam = jacobi.leading_coeff_jacobi(data.params, n)
    return gam * (n - data.top[0].real) / sigma_n(data, n)


def newton_refiner(data: DarbouxData, n: int):
    """Scalar Newton step-taker for equations P_n(z) = w.

    The sampler can apply it to the one chosen preimage per step, moving it
    from the root of the product form onto the root of the recurrence
    evaluation.  Returns refine(z, w) -> z: guarded Newton steps, taken
    while |P_n(z) - w| falls and is above the recurrence's rounding level, at
    most REFINE_MAX_STEPS of them.
    """
    # rounding level of the recurrence evaluation, relative to the size of the
    # terms whose difference is P_n
    level = 4.0 * (n + 1) * np.finfo(float).eps

    def refine(z: complex, w: complex) -> complex:
        f, df, scale = exceptional_values(data, n, z)
        f -= w
        for _ in range(REFINE_MAX_STEPS):
            if df == 0 or abs(f) <= level * (scale + abs(w)):
                break
            cand = z - f / df
            f2, df2, scale2 = exceptional_values(data, n, cand)
            f2 -= w
            if not abs(f2) < abs(f):
                break
            z, f, df, scale = cand, f2, df2, scale2
        return z

    return refine


# ---------------------------------------------------------------------------
# zeros

@dataclass
class ZeroClassification:
    """Zeros of one Darboux-family polynomial, split by location.

    regular: real zeros in (-1, 1), ascending.  exceptional: all others, sorted
    by exceptional_dist, the distance to the nearest zero of the one-signed
    divisor b_tilde (empty, and exceptional unsorted, when b_tilde has none).
    """

    regular: np.ndarray
    exceptional: np.ndarray
    n: int
    exceptional_dist: np.ndarray = field(default_factory=lambda: np.empty(0))


def classify_zeros(data: DarbouxData, n: int) -> ZeroClassification:
    """Split the zeros of the n-th transformed family member P_n.

    Aberth runs on the recurrence evaluation of (P_n, P_n') from
    _classification_guesses (Gauss-Jacobi nodes of the weight for the regular
    zeros, perturbed b_tilde zeros for the rest), one start per zero of the
    actual degree, and stops only when every correction is below
    CONVERGENCE_REL.  Each zero must then meet the residual contract
    |P_n| <= RESIDUAL_REL (s + (1 + |z|) |P_n'|), s = (|b p_n'| + |bw p_n|) /
    sigma_n the size of the terms whose difference is P_n: a small residual
    next to those terms, or a Newton step below RESIDUAL_REL of the point (the
    only yardstick left at a zero of b p_n' when bw = 0).  The contract reads
    Aberth's last evaluation, at most one correction of CONVERGENCE_REL
    before the zeros, so P_n is never evaluated again.  Their sum must be
    zero_sum's to RESIDUAL_REL (1 + sum |z|), which refuses a zero found
    twice and another missed.  A zero is regular
    iff |Im| <= 1e-8 and Re inside the open interval with a 1e-12 edge margin.
    """
    if n + data.m > DEGREE_CAP:
        raise ValueError(f"n + m exceeds the desk-scale degree cap ({DEGREE_CAP})")
    degree = exceptional_degree(data, n)
    if degree < 1:
        raise ValueError("degree must be >= 1")

    found, converged, f, df, size = aberth(partial(exceptional_values, data, n),
                                           lambda z, pv: 0.0,
                                           _classification_guesses(data, degree))
    if not converged:
        raise ConvergenceError(f"Aberth iteration did not settle in {MAX_SWEEPS} sweeps",
                               residual=float(np.max(np.abs(f))))
    # a product, not a ratio: an exact zero passes and a NaN fails
    if not np.all(np.abs(f) <= RESIDUAL_REL * (size + (1.0 + np.abs(found)) * np.abs(df))):
        raise ConvergenceError("zero residual contract violated",
                               residual=float(np.max(np.abs(f))))
    gap = abs(found.sum() - zero_sum(data, n))
    if not gap <= RESIDUAL_REL * (1.0 + np.abs(found).sum()):
        raise ConvergenceError("zeros do not sum to Vieta's closed form", residual=gap)

    reg_mask = (np.abs(found.imag) <= IMAG_TOL) & (np.abs(found.real) < 1.0 - EDGE_TOL)
    regular = np.sort(found[reg_mask].real)
    exceptional, dist = found[~reg_mask], np.empty(0)
    if len(data.b_tilde_roots):
        dist = np.min(np.abs(exceptional[:, None] - data.b_tilde_roots[None, :]), axis=1)
        exceptional, dist = exceptional[np.argsort(dist)], np.sort(dist)
    return ZeroClassification(regular, exceptional, n, dist)


def zero_sum(data: DarbouxData, n: int) -> complex:
    """Sum of the zeros of P_n, by Vieta, in closed form.

    P_n is a multiple of b pi_n' - bw pi_n for the monic Jacobi pi_n =
    x^n + s_n x^(n-1) + ..., where s_n = -(a_0 + ... + a_(n-1)) from the monic
    recurrence.  With (B, C, b_(D-1)) = data.top, its top two coefficients are
    n - B and (n-1-B) s_n + n b_(D-1) - C.  P_0 is a multiple of bw itself,
    whose coefficient list in data.multipliers ends at the leading one; a P_0
    of degree 0 (bw zero or constant) has no zero and is refused.
    """
    if n == 0:
        if exceptional_degree(data, 0) < 1:
            raise ValueError("degree must be >= 1")
        bw = data.multipliers[2]
        return -bw[-2] / bw[-1]
    a, _ = jacobi._recurrence(data.params.alpha, data.params.beta, n)
    s = -float(np.sum(a[:n]))
    B, C, b1 = data.top
    return -((n - 1 - B) * s + n * b1 - C) / (n - B)


def _classification_guesses(data: DarbouxData, degree: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# root-product form

def monomial_coeffs(data: DarbouxData, n: int) -> Poly:
    """P_n in root-product form a_d prod (z - zeta_i), with expanded coefficients.

    The zeros come from classify_zeros, found on the recurrence, and a_d from
    leading_coeff_exceptional; the Poly evaluates the product, and its coeffs
    are the product expanded.  P_0 = -bw p_0 / sigma_0 keeps plain
    coefficients, since the leading-coefficient formula needs n >= 1.
    """
    if n == 0:
        p0 = jacobi.eval_orthonormal_jacobi(data.params, 0, 0.0)
        return Poly(-data.bw.coeffs * p0 / sigma_n(data, 0))
    zc = classify_zeros(data, n)
    return Poly.product_form(np.concatenate([zc.regular, zc.exceptional]),
                             leading_coeff_exceptional(data, n))


# ---------------------------------------------------------------------------
# structural oracles

def inner_product_matrix(data: DarbouxData, kmax: int) -> np.ndarray:
    """Gram matrix <P_i, P_j>_W for first_index(data) <= i, j <= kmax."""
    rec, rows = _family_rows(data, kmax)
    return normalization_constant(data) * (rows * (rec.rule.weights / rec.bt ** 2)) @ rows.T


def orthonormality_deviation(data: DarbouxData, kmax: int):
    """(max |G - I|, argmax index pair) over the Gram matrix."""
    g = inner_product_matrix(data, kmax)
    dev = np.abs(g - np.eye(len(g)))
    ij = np.unravel_index(np.argmax(dev), dev.shape)
    lo = first_index(data)
    return float(dev[ij]), (int(ij[0]) + lo, int(ij[1]) + lo)
