"""Dense univariate polynomials in the monomial basis, and interpolation into it.

interpolate_to_poly samples on the Chebyshev extrema grid, takes the fast
transform and converts the Chebyshev series to monomial coefficients in
extended precision: the triangular change of basis grows like
(1+sqrt(2))^degree, which plain double precision cannot absorb at the degrees
this package works at.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct

# Trailing coefficients below this relative size do not count toward the degree.
TRUNCATION_REL = 1e-14


@dataclass
class Poly:
    """Coefficients ascending by degree.  Treated as immutable after creation."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        c.setflags(write=False)
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Index of the last coefficient above the relative truncation floor."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0.0:
            return 0
        keep = np.nonzero(mags > TRUNCATION_REL * top)[0]
        return int(keep[-1]) if len(keep) else 0

    def trimmed(self) -> "Poly":
        return Poly(self.coeffs[:self.degree + 1])

    def __call__(self, z):
        out = horner(self.coeffs, np.asarray(z, dtype=complex))
        return complex(out) if out.shape == () else out

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
        return cls(_ascending_from_roots(roots, leading))


def _ascending_from_roots(roots, leading):
    c = np.array([1.0], dtype=complex)
    for r in np.asarray(roots, dtype=complex):
        c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
    return c * leading


def horner(coeffs, z):
    """Value of the monomial-basis polynomial with ascending coeffs at array z."""
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for ck in coeffs[-2::-1]:
        out = out * z + ck
    return out


def horner_with_derivative(coeffs, z):
    """(p(z), p'(z)) for ascending monomial coeffs, in one fused Horner pass."""
    pv = np.full(z.shape, coeffs[-1], dtype=complex)
    dv = np.zeros(z.shape, dtype=complex)
    for ck in coeffs[-2::-1]:
        dv = dv * z + pv
        pv = pv * z + ck
    return pv, dv


def chebyshev_transform(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the extrema grid cos(pi*j/d), j=0..d.

    DCT-I realization; values may be complex (transform applied to both parts).
    """
    values = np.asarray(values)
    d = len(values) - 1
    if d == 0:
        return np.atleast_1d(values.astype(complex))
    if np.iscomplexobj(values):
        y = dct(values.real, type=1) + 1j * dct(values.imag, type=1)
    else:
        y = dct(values, type=1).astype(complex)
    c = y / d
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def chebyshev_grid(degree: int) -> np.ndarray:
    """Extrema grid cos(pi*j/degree), j = 0..degree (descending in j)."""
    return np.cos(np.pi * np.arange(degree + 1) / degree)


def interpolate_to_poly(f, degree: int) -> Poly:
    """Monomial coefficients of a degree-`degree` polynomial callable f.

    Samples on the Chebyshev extrema grid, takes the fast transform and
    converts basis in extended precision.
    """
    c = chebyshev_transform(np.asarray(f(chebyshev_grid(degree)), dtype=complex))
    return Poly(np.asarray(_cheb.cheb2poly(c.astype(np.clongdouble)), dtype=complex))
