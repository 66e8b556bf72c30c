"""Discrete measures on the complex plane, the arcsine law and the Green
function of the complement of [-1, 1].

Weak-star convergence is operationalized two ways: Kolmogorov-Smirnov distance
against a reference CDF for real-supported measures, and Chebyshev moment
vectors for complex-supported ones.  Summations use numpy's pairwise
reduction, so results are reproducible bit-for-bit for a fixed partition.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class EmpiricalMeasure:
    """Finitely many points, each of mass 1/size."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_1d(np.asarray(self.points, dtype=complex))
        if len(self.points) == 0 or not np.isfinite(self.points).all():
            raise ValidationError("points must be finite and nonempty")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.size, 1.0 / self.size)

    def is_real_supported(self) -> bool:
        return bool(np.max(np.abs(self.points.imag)) <= 1e-6)

    def to_csv(self) -> str:
        """re,im lines at 17 significant digits, which read back as the same doubles."""
        return "re,im\n" + "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in self.points)

    @classmethod
    def from_csv(cls, text: str) -> "EmpiricalMeasure":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "re,im":
            raise ValidationError("expected header re,im")
        rows = (ln.split(",") for ln in lines[1:])
        return cls([complex(float(re), float(im)) for re, im in rows])


def arcsine_cdf(x: float) -> float:
    """CDF of the equilibrium measure of [-1, 1]: 1/2 + arcsin(x)/pi, clamped."""
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 0.5 + np.arcsin(x) / np.pi


def green_complement_interval(z):
    """Green function of C \\ [-1, 1] with pole at infinity: log|z + sqrt(z^2-1)|.

    The square-root branch is fixed by |z + root| >= 1 (the branch mapping
    positive reals to positive reals); the value is clamped at 0 on [-1, 1].
    """
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    mag = np.maximum(np.abs(z + s), np.abs(z - s))
    out = np.maximum(np.log(mag), 0.0)
    on_interval = (z.imag == 0.0) & (np.abs(z.real) <= 1.0)
    out = np.where(on_interval, 0.0, out)
    return float(out) if out.shape == () else out


def ks_distance_real(mu: EmpiricalMeasure, cdf) -> float:
    """Sup distance between the empirical CDF and a reference CDF.

    Only valid for real-supported measures; complex support raises and points
    the caller at the moment diagnostics instead.
    """
    if not mu.is_real_supported():
        raise ValidationError(
            "measure has complex support; use chebyshev_moments for weak-star checks")
    order = np.argsort(mu.points.real)
    xs = mu.points.real[order]
    cum = np.cumsum(mu.weights[order])
    ref = np.array([cdf(x) for x in xs])
    upper = np.max(np.abs(ref - cum))
    lower = np.max(np.abs(ref - np.concatenate([[0.0], cum[:-1]])))
    return float(max(upper, lower))


def chebyshev_moments(mu: EmpiricalMeasure, k_max: int) -> np.ndarray:
    """Moments m_k = sum w_i T_k(p_i), k = 0..k_max, by the T recurrence.

    m_0 is exactly 1 (the weights are normalized by construction).  k_max must
    be in [0, 32].
    """
    if not 0 <= k_max <= 32:
        raise ValueError(f"k_max must be >= 0 and is capped at 32, got {k_max}")
    z = mu.points
    out = np.empty(k_max + 1, dtype=complex)
    out[0] = 1.0
    t_prev = np.ones_like(z)
    t_cur = z
    for k in range(1, k_max + 1):
        out[k] = np.sum(mu.weights * t_cur)
        t_prev, t_cur = t_cur, 2.0 * z * t_cur - t_prev
    return out
