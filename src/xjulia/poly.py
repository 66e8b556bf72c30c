"""Dense univariate polynomials, evaluated by Horner on their coefficients or,
when made by Poly.product_form, in root-product form a_d prod (z - zeta_i), which
carries a relative error of about d u at every z (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 5)."""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

# Trailing coefficients below this relative size do not count toward the degree.
TRUNCATION_REL = 1e-14


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
        """Index of the last coefficient above the relative truncation floor."""
        mags = np.abs(self.coeffs)
        keep = np.nonzero(mags > TRUNCATION_REL * mags.max())[0]
        return int(keep[-1]) if len(keep) else 0

    def trimmed(self) -> "Poly":
        return self if self.degree == len(self.coeffs) - 1 else Poly(self.coeffs[:self.degree + 1])

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = horner(self.coeffs, z) if self.zeros is None else self._product(z, False)[0]
        return complex(out) if out.shape == () else out

    def values(self, z, w=0.0):
        """(p(z) - w, p'(z)) at array z in one pass: the root-product form when
        the zeros are known, fused Horner on the coefficients of p - w otherwise."""
        z = np.asarray(z, dtype=complex)
        if self.zeros is None:
            return horner_with_derivative(self.shifted(w), z)
        pv, dv = self._product(z, True)
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

    def _product(self, z, derivative):
        """Rows p = a_d prod (z - zeta_i) and, with derivative, p' = p sum 1/(z - zeta_i),
        in the shape of z, over blocks of at most 1 MB with one point per row of
        z - zeta_i, each row reduced on its own from a_d, so no value depends on its
        neighbours.  At a zero p' is the product of the other factors, 0 at a repeated one."""
        flat, lead = z.ravel(), self.coeffs[-1]
        step = max(1, (1 << 16) // len(self.zeros))
        out = np.empty((1 + derivative, flat.size), dtype=complex)
        for s in range(0, flat.size, step):
            pv, dv = out[0, s:s + step], out[-1, s:s + step]
            diff = np.subtract.outer(flat[s:s + step], self.zeros)
            np.multiply.reduce(diff, axis=1, initial=lead, out=pv)
            if not derivative:
                continue
            exact = np.count_nonzero(pv) < len(pv)      # then some z - zeta_i may be 0
            with np.errstate(divide="ignore", invalid="ignore") if exact else nullcontext():
                np.multiply(pv, np.reciprocal(diff).sum(axis=1), out=dv)
            for i in np.flatnonzero(pv == 0) if exact else ():
                rest = diff[i, diff[i] != 0]
                simple = len(rest) == len(self.zeros) - 1
                dv[i] = np.multiply.reduce(rest, initial=lead) if simple else 0
        return out.reshape((len(out),) + z.shape)

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


def horner(coeffs, z):
    """Value of the monomial-basis polynomial with ascending coeffs at array z,
    accumulated in place."""
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for ck in coeffs[-2::-1]:
        np.multiply(out, z, out=out)
        np.add(out, ck, out=out)
    return out


def horner_with_derivative(coeffs, z):
    """(p(z), p'(z)) for ascending monomial coeffs, in one fused Horner pass."""
    pv = np.full(z.shape, coeffs[-1], dtype=complex)
    dv = np.zeros(z.shape, dtype=complex)
    for ck in coeffs[-2::-1]:
        dv = dv * z + pv
        pv = pv * z + ck
    return pv, dv
