"""Classical orthonormal Jacobi polynomials.

Everything is driven by the three-term recurrence in double precision: one pass
of it, differentiated up to twice, gives p_n and as many of p_n', p_n'' as the
caller asks for (orthonormal_values), in one arithmetic per input shape.  On
arrays one loop keeps the orders as rows, of one degree or all (jacobi_table),
and real points run in float64 with the complex bits, because numpy divides
complex by real as a multiply by 1/s, which the recurrence does itself, and with
zero imaginary parts the real part of each complex product is the real product.
Python numbers run a plain loop in Python arithmetic, and the point evaluators
pass any scalar to it as a Python complex.  Explicit monomial coefficients are
never formed here (they are catastrophically ill-conditioned at high degree).  The
orthonormalization is against the unnormalized weight
w(x) = (1-x)^alpha (1+x)^beta on [-1, 1], with positive leading coefficients.

The recurrence coefficients of a weight are one vectorized table, sliced by
every degree.  Gauss-Jacobi rules come from the same recurrence: Golub-Welsch
eigenvalues of the Jacobi matrix for the nodes (numpy's dense symmetric
eigensolver), two vectorized Newton steps on p_order to polish them, and
Christoffel sums for the weights.  The module needs numpy and the standard
library only.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle
from math import gamma, lgamma

import numpy as np
from numpy.linalg import eigvalsh

from .errors import NodeConvergenceError

# Degree cap for desk-scale work: root-finding and quadrature stay reliable in
# double precision up to here.
DEGREE_CAP = 60
# math.gamma is finite below 171.62
GAMMA_FINITE = 171.0
# recurrence rows built per weight at least: every order-200 rule and degree fit
RECURRENCE_ROWS = 256


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents alpha, beta; both must exceed -1 for integrability."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0):
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not (self.beta > -1.0):
            raise ValueError(f"beta must be > -1, got {self.beta}")

    @property
    def weight_mass(self) -> float:
        """Total mass 2^(alpha+beta+1) Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+2)
        of (1-x)^alpha (1+x)^beta over [-1, 1]: from gamma while Gamma(alpha+beta+2)
        is finite, which is the closer for moderate exponents, from lgamma beyond."""
        a, b = self.alpha, self.beta
        if a + b + 2 < GAMMA_FINITE:
            return 2.0 ** (a + b + 1) * (gamma(a + 1) / gamma(a + b + 2)) * gamma(b + 1)
        return float(np.exp((a + b + 1) * np.log(2.0)
                            + lgamma(a + 1) + lgamma(b + 1) - lgamma(a + b + 2)))


def _recurrence(alpha: float, beta: float, nmax: int):
    """Monic-recurrence coefficients (a_k, b_k), k = 0..nmax, as read-only
    slices of one table per (alpha, beta), rebuilt at the next power of two
    (at least RECURRENCE_ROWS) when a caller asks for more rows.

    x pi_k = pi_{k+1} + a_k pi_k + b_k pi_{k-1} for the monic family, with
    b_0 set to the weight mass.
    """
    a, b = _recurrence_table(alpha, beta, max(RECURRENCE_ROWS, 1 << int(nmax).bit_length()))
    return a[:nmax + 1], b[:nmax + 1]


@lru_cache(maxsize=512)
def _recurrence_table(alpha: float, beta: float, rows: int):
    """The rows (a_k, b_k), k < rows, of _recurrence in one vectorized pass.
    The k = 1 off-diagonal uses the cancelled form so alpha + beta = -1 is
    not a 0/0."""
    s = alpha + beta
    k = np.arange(1.0, rows)
    t = 2 * k + s
    a = np.empty(rows)
    b = np.empty(rows)
    a[0] = (beta - alpha) / (s + 2)
    a[1:] = (beta * beta - alpha * alpha) / (t * (t + 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # squared by libm's pow, as Python's float ** does, so every entry has the
        # bits of the formula evaluated on Python floats (numpy's t ** 2 is t * t)
        b[1:] = (4 * k * (k + alpha) * (k + beta) * (k + s)
                 / (np.float_power(t, 2) * (t + 1) * (t - 1)))
    b[0] = JacobiParams(alpha, beta).weight_mass
    b[1] = 4 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _real_or_complex(z) -> np.ndarray:
    """z as a float64 array when it is real, as a complex128 array otherwise."""
    z = np.asarray(z)
    return z.astype(complex if np.iscomplexobj(z) else float, copy=False)


def _pass_coefficients(params: JacobiParams, n: int, derivatives: int):
    """(a_k for k < n, sqrt(b_k) for k <= n + 1): the steps of a pass to degree n."""
    if n < 0 or not 0 <= derivatives <= 2:
        raise ValueError(f"need a degree >= 0 and 0, 1 or 2 derivatives, got {n}, {derivatives}")
    a, b = _recurrence(params.alpha, params.beta, n + 1)
    return a[:n], np.sqrt(b)


def jacobi_table(params: JacobiParams, nmax: int, z, derivatives: int = 0):
    """p_0..p_nmax at z from one pass, shape (nmax+1,) + z.shape, float64 for real
    z and complex otherwise; with derivatives = j > 0 the j+1 tables of p_k, p_k',
    ... stacked, so table[i][k] is orthonormal_values(params, k, z, j)[i] bit for bit."""
    a, sb = _pass_coefficients(params, nmax, derivatives)
    table = np.moveaxis(_stacked_pass(a, sb, _real_or_complex(z), derivatives, table=True), 1, 0)
    return table if derivatives else table[0]


def orthonormal_values(params: JacobiParams, n: int, z, derivatives: int = 2):
    """(p_n, p_n', ..., p_n^(derivatives)) at z, derivatives <= 2, in one pass
    of the three-term recurrence.

    Differentiating sqrt(b_{k+1}) q_{k+1} = (z - a_k) q_k - sqrt(b_k) q_{k-1}
    j times gives the same recurrence for q^(j) with the extra term j q^(j-1)
    (Gautschi, Orthogonal Polynomials, 2004).  An ndarray z, 0-d included,
    carries the orders as the rows of one array, in float64 when z is real and
    complex otherwise (see the module docstring for why the two agree bit for
    bit); it is the last row of jacobi_table, and a call with fewer
    derivatives returns the leading rows of a call with more.  Any other z, a
    Python number, runs a plain loop in Python arithmetic and gives Python
    numbers (floats at n = 0, where the loop never touches z).
    """
    a, sb = _pass_coefficients(params, n, derivatives)
    if isinstance(z, np.ndarray):
        return tuple(_stacked_pass(a, sb, _real_or_complex(z), derivatives))
    sb = sb.tolist()
    q_prev, q = 0.0, 1.0 / sb[0]
    dq_prev = dq = ddq_prev = ddq = 0.0
    for ak, sk, sk1 in zip(a.tolist(), sb, sb[1:]):
        t = z - ak
        ddq_prev, ddq = ddq, (t * ddq + 2.0 * dq - sk * ddq_prev) / sk1
        dq_prev, dq = dq, (t * dq + q - sk * dq_prev) / sk1
        q_prev, q = q, (t * q - sk * q_prev) / sk1
    return (q, dq, ddq)[:derivatives + 1]


def _stacked_pass(a, sb, z, derivatives, table=False):
    """Rows q, q', ... at array z after len(a) steps of t Q + j shift(Q) - sqrt(b_k) Q_prev
    times 1/sqrt(b_{k+1}), t = z - a_k; Q_prev, Q and the step being formed roll over
    three slots, or with table over one per degree 0..len(a), all returned, Q_{-1} = 0."""
    shape = (derivatives + 1,) + z.shape
    qs = np.zeros((len(a) + 2 if table else 3,) + shape, dtype=z.dtype)
    slots = list(qs)
    q_prev, q, work = slots[-1], slots[0], slots[1]
    q[0] = 1.0 / sb[0]
    scaled = np.empty(shape, dtype=z.dtype)
    # row j gains j q^(j-1); adding -0.0 (both parts) leaves every bit of the q row alone
    shift = -np.zeros(shape, dtype=z.dtype)
    shift_tail = shift[1:]
    j = np.arange(1.0, derivatives + 1).reshape((-1,) + (1,) * z.ndim)
    ts = z - a.reshape((-1,) + (1,) * z.ndim)
    for t, sk, rk1, nxt in zip(ts, sb.tolist(), (1.0 / sb[1:]).tolist(),
                               cycle(slots[2:] + slots[:2])):
        np.multiply(t, q, work)   # t first: complex products need not commute
        if derivatives:
            np.multiply(q[:-1], j, shift_tail)
            work += shift
        np.multiply(q_prev, sk, scaled)
        work -= scaled
        work *= rk1
        q_prev, q, work = q, work, nxt
    return qs[:-1] if table else q


def _at(params: JacobiParams, n: int, z, which: int):
    if np.ndim(z) == 0:
        return complex(orthonormal_values(params, n, complex(z), which)[which])
    return orthonormal_values(params, n, np.asarray(z, dtype=complex), which)[which]


def eval_orthonormal_jacobi(params: JacobiParams, n: int, z):
    """Orthonormal Jacobi polynomial p_n at z (scalar or array, complex ok); a
    scalar, numpy's or 0-d included, gives a Python complex."""
    return _at(params, n, z, 0)


def eval_jacobi_derivative(params: JacobiParams, n: int, z):
    """Derivative p_n'(z) (scalar or array, complex ok)."""
    return _at(params, n, z, 1)


def log_leading_coeff_jacobi(params: JacobiParams, n: int) -> float:
    """log of the (positive) leading coefficient of p_n.

    gamma_{k+1} = gamma_k / sqrt(b_{k+1}), so the log is a plain sum; this is
    overflow-free at any degree and feeds the n-th-root asymptotics directly.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _, b = _recurrence(params.alpha, params.beta, max(n, 1))
    return float(-0.5 * np.sum(np.log(b[:n + 1])))


def leading_coeff_jacobi(params: JacobiParams, n: int) -> float:
    return float(np.exp(log_leading_coeff_jacobi(params, n)))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate_values(self, values):
        return np.sum(self.weights * values, axis=-1)


def gauss_nodes(params: JacobiParams, order: int) -> np.ndarray:
    """Zeros of p_order, ascending and unpolished: the eigenvalues of the Jacobi
    matrix of the recurrence (Golub & Welsch, Math. Comp. 23, 1969)."""
    a, b = _recurrence(params.alpha, params.beta, order)
    # eigvalsh reads the lower triangle alone
    return eigvalsh(np.diag(a[:order]) + np.diag(np.sqrt(b[1:order]), -1))


def gauss_jacobi_rule(params: JacobiParams, order: int) -> QuadratureRule:
    """Nodes and weights integrating degree <= 2*order-1 exactly against the weight.

    Nodes are the Golub-Welsch eigenvalues of gauss_nodes, polished by two
    Newton steps on p_order: the raw eigenvalues of a symmetric weight are not
    symmetric to rounding, which shows in the odd moments.  Weights come from
    the Christoffel sums 1 / sum_{k<order} p_k(x)^2, which are more accurate
    than the eigenvector weights of scipy's roots_jacobi.  The returned arrays
    are read-only: cached_rule hands the same rule to every caller.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes = gauss_nodes(params, order)
    for _ in range(2):
        p, dp = orthonormal_values(params, order, nodes, 1)
        # p (1/dp) is how numpy rounds the complex p / dp: a complex polish agrees
        nodes = nodes - p * (1.0 / dp)
    outside = ~((-1.0 < nodes) & (nodes < 1.0))
    if outside.any():
        raise NodeConvergenceError(int(np.argmax(outside)), "node outside (-1, 1)")
    gaps = np.diff(nodes)
    if not np.all(gaps > 0):
        raise NodeConvergenceError(int(np.argmin(gaps)), "nodes not increasing")

    table = jacobi_table(params, order - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=256)
def cached_rule(alpha: float, beta: float, order: int) -> QuadratureRule:
    return gauss_jacobi_rule(JacobiParams(alpha, beta), order)
