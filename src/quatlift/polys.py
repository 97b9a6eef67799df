"""Sparse multivariate polynomials with exact rational coefficients.

Keys are exponent tuples; values are Fractions.  Just what the 8-variable
degree-2 reference `harmonic.lift_poly_deg2` and `yoshida.theta2_coefficient`
read: construction, evaluation and equality.  The number of variables is
fixed per polynomial; the package does no arithmetic on polynomials.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    self.coeffs[tuple(mono)] = c

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.coeffs == other.coeffs

    def eval(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= Fraction(x) ** k
            total += term
        return total
