"""Dense univariate polynomials with an explicit basis (monomial or Chebyshev).

Basis conversions run in extended precision internally: the triangular change
of basis grows like (1+sqrt(2))^degree, which plain double precision cannot
absorb at the degrees this package works at.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

# Trailing coefficients below this relative size do not count toward the degree.
TRUNCATION_REL = 1e-14


@dataclass
class Poly:
    """Coefficients ascending by degree.  Treated as immutable after creation."""

    coeffs: np.ndarray
    basis: str = MONOMIAL

    def __post_init__(self):
        if self.basis not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown basis {self.basis!r}")
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
        return Poly(self.coeffs[:self.degree + 1], self.basis)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.basis == MONOMIAL:
            out = horner(self.coeffs, z)
        else:
            out = _clenshaw(self.coeffs, z)
        return complex(out) if out.shape == () else out

    def deriv(self) -> "Poly":
        if self.basis == MONOMIAL:
            if len(self.coeffs) == 1:
                return Poly(np.zeros(1, dtype=complex))
            k = np.arange(1, len(self.coeffs))
            return Poly(self.coeffs[1:] * k, MONOMIAL)
        return Poly(_cheb.chebder(self.coeffs), CHEBYSHEV)

    def to_basis(self, basis: str) -> "Poly":
        if basis == self.basis:
            return self
        work = self.coeffs.astype(np.clongdouble)
        if basis == CHEBYSHEV:
            out = _cheb.poly2cheb(work)
        elif basis == MONOMIAL:
            out = _cheb.cheb2poly(work)
        else:
            raise ValueError(f"unknown basis {basis!r}")
        return Poly(np.asarray(out, dtype=complex), basis)

    def monomial_coeffs(self) -> np.ndarray:
        return self.to_basis(MONOMIAL).coeffs

    def leading_coeff(self) -> complex:
        return complex(self.coeffs[self.degree])

    def is_monic(self, tol: float = 1e-12) -> bool:
        return abs(self.leading_coeff() - 1.0) <= tol

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "Poly":
        return cls(_ascending_from_roots(roots, leading), MONOMIAL)

    def scaled_argument(self, s: float) -> "Poly":
        """The polynomial q(x) = p(s x), same basis only for monomial."""
        if self.basis != MONOMIAL:
            return self.to_basis(MONOMIAL).scaled_argument(s)
        k = np.arange(len(self.coeffs))
        return Poly(self.coeffs * np.power(complex(s), k), MONOMIAL)


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


def _clenshaw(coeffs, z):
    if len(coeffs) == 1:
        return np.full(z.shape, coeffs[0], dtype=complex)
    b1 = np.zeros(z.shape, dtype=complex)
    b2 = np.zeros(z.shape, dtype=complex)
    for ck in coeffs[:0:-1]:
        b1, b2 = ck + 2.0 * z * b1 - b2, b1
    return coeffs[0] + z * b1 - b2


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


def chebyshev_grid(degree: int, scale: float = 1.0) -> np.ndarray:
    """Extrema grid scale*cos(pi*j/degree), j = 0..degree (descending in j)."""
    return scale * np.cos(np.pi * np.arange(degree + 1) / degree)


def interpolate_to_poly(f, degree: int, scale: float = 1.0) -> Poly:
    """Monomial coefficients of a degree-`degree` polynomial callable f.

    Samples on the scaled Chebyshev extrema grid, takes the fast transform,
    converts basis in extended precision, and unscales the argument.
    """
    xs = chebyshev_grid(degree, scale)
    c = chebyshev_transform(np.asarray(f(xs), dtype=complex))
    mono = np.asarray(_cheb.cheb2poly(c.astype(np.clongdouble)), dtype=complex)
    if scale != 1.0:
        mono = mono / np.power(complex(scale), np.arange(len(mono)))
    return Poly(mono, MONOMIAL)
