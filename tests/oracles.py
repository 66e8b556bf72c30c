"""Reference oracles the tests compare the package against; the program never
calls them.  Tests import this module as `oracles` from their own directory."""

import numpy as np

from xjulia import exceptional as ex
from xjulia.dynamics import EscapeData, RasterGrid
from xjulia.errors import ValidationError
from xjulia.jacobi import DEGREE_CAP, JacobiParams
from xjulia.measures import EmpiricalMeasure
from xjulia.poly import Poly, PreimageSolver


def leading_coeff_estimate(data: ex.DarbouxData, n: int) -> float:
    """Leading coefficient of P_n read off the recurrence, with no use of the
    closed form: P_n(z0) / prod (z0 - zeta_i) over the classified zeros, at
    z0 = 2 (1 + max |zeta_i|), clear of all of them.  The reference that
    leading_coeff_exceptional is tested against."""
    zc = ex.classify_zeros(data, n)
    zeros = np.concatenate([zc.regular, zc.exceptional])
    z0 = 2.0 * (1.0 + np.max(np.abs(zeros)))
    return float((ex.eval_exceptional(data, n, z0) / np.prod(z0 - zeros)).real)


def ungated_family(params: JacobiParams, b: Poly, bw: Poly, eps1: int, eps2: int,
                   lambda_tilde: float) -> ex.DarbouxData:
    """The family make_darboux_data assembles, without its structural checks or
    orthonormality gate, for configurations the gate refuses; b must still
    divide by the interval factors eps1 and eps2 name."""
    b, bw = b.trimmed(), bw.trimmed()
    b_tilde = ex._divide_out_interval_factors(b, eps1, eps2)
    return ex.DarbouxData(params=params, b=b, bw=bw, eps1=eps1, eps2=eps2,
                          lambda_tilde=float(lambda_tilde), m=b_tilde.degree, b_tilde=b_tilde)


def verify_span_property(data: ex.DarbouxData, p: Poly):
    """Expansion length of b^2 * p in the transformed family.

    Returns (s_observed, residuals): coefficients c_l = <b^2 p, P_l>_W for
    l = 0 .. deg(p) + 2 deg b + 5, and the smallest s with |c_l| below
    1e-8 * ||b^2 p||_W for every l beyond deg(p) + s.  For a family produced
    by one first-order transformation, s_observed <= deg b + 1.
    """
    n = p.degree
    if n + 5 > DEGREE_CAP:
        raise ValueError("polynomial degree too large for the scan")
    l_max = n + 2 * data.b.degree + 5

    c0 = ex.normalization_constant(data)
    rec, rows = ex._family_rows(data, l_max)
    x, bt = rec.rule.nodes, rec.bt
    b2p = data.b(x).real ** 2 * p(x).real
    norm = float(np.sqrt(c0 * rec.rule.integrate_values(b2p * b2p / bt ** 2)))
    residuals = np.zeros(l_max + 1)
    residuals[ex.first_index(data):] = np.abs(c0 * rec.rule.integrate_values(b2p * rows / bt ** 2))
    above = np.nonzero(residuals > 1e-8 * norm)[0]
    if len(above) == 0:
        return 0, residuals
    l_star = int(above[-1])
    if l_star == l_max:
        raise ValidationError(
            f"no expansion cutoff found up to l = {l_max}; quadrature or construction bug")
    return max(0, l_star - n), residuals


def boundary_preimage_containment(e: EscapeData):
    """Check p^{-1}(boundary of D(0,R)) stays inside D(0,R), R = max(1, r_uniform).

    Returns (all_contained, max |preimage| / R) over 20 boundary targets.
    """
    r = max(1.0, e.r_uniform)
    theta = 2.0 * np.pi * (np.arange(20) + 0.37) / 20
    worst = 0.0
    solver = PreimageSolver(e.poly)
    for w in r * np.exp(1j * theta):
        z = solver.solve(complex(w))
        worst = max(worst, float(np.max(np.abs(z))) / r)
    return worst <= 1.0, worst


def pixel_index(raster: RasterGrid, z: complex):
    """(row, col) of the raster pixel containing z, or None when outside the window."""
    col = int(np.floor((z.real - raster.center.real + raster.half_width) / raster.pixel_width))
    row = int(np.floor((raster.center.imag + raster.half_width - z.imag) / raster.pixel_width))
    if 0 <= row < raster.resolution and 0 <= col < raster.resolution:
        return row, col
    return None


def arcsine_quantiles(n: int) -> np.ndarray:
    """The n points at quantile levels (k - 1/2)/n, ascending."""
    k = np.arange(1, n + 1)
    return np.sin(np.pi * ((k - 0.5) / n - 0.5))


def log_potential(mu: EmpiricalMeasure, z) -> float:
    """U(z) = sum w_i log 1/|p_i - z|; +inf when z sits on a support point."""
    d = np.abs(mu.points - complex(z))
    if np.any(d < 1e-300):
        return float("inf")
    return float(-np.sum(mu.weights * np.log(d)))


def energy(mu: EmpiricalMeasure) -> float:
    """Off-diagonal discrete energy sum_{i != j} w_i w_j log 1/|p_i - p_j|."""
    if mu.size < 2:
        raise ValidationError("energy needs at least two points")
    diff = np.abs(mu.points[:, None] - mu.points[None, :])
    np.fill_diagonal(diff, 1.0)
    if np.any(diff < 1e-300):
        return float("inf")
    ww = mu.weights[:, None] * mu.weights[None, :]
    np.fill_diagonal(ww, 0.0)
    return float(-np.sum(ww * np.log(diff)))
