"""Sparse multivariate polynomials with exact rational coefficients.

Keys are exponent tuples; values are Fractions.  Just enough arithmetic for
the reference lift polynomials `harmonic.lift_poly_deg1`, `lift_poly_deg2` and
`yoshida.theta2_coefficient`: add/mul/diff/substitution/evaluation.  The
number of variables is fixed per polynomial.
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

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exps, c=1) -> "Poly":
        return cls(len(exps), {tuple(exps): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly(self.nvars, out)

    def eval(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= Fraction(x) ** k
            total += term
        return total

    def subs_polys(self, images: list["Poly"]) -> "Poly":
        """Substitute variable i -> images[i] (all over the same target ring).

        Horner's scheme: p = p(0) + Σ_i x_i·q_i with q_i the part of p whose
        first variable is x_i, divided by x_i, so images[i] multiplies the
        substituted q_i once rather than every monomial.
        """
        assert len(images) == self.nvars
        nv = images[0].nvars if images else self.nvars
        zero = (0,) * self.nvars
        out = Poly.constant(nv, self.coeffs.get(zero, 0))
        quotients: dict[int, dict] = {}
        for e, c in self.coeffs.items():
            if e != zero:
                i = next(i for i, k in enumerate(e) if k)
                quotients.setdefault(i, {})[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        for i, q in quotients.items():
            out = out + Poly(self.nvars, q).subs_polys(images) * images[i]
        return out

    def coefficient_vector(self, monomials) -> list[Fraction]:
        return [self.coeffs.get(tuple(m), Fraction(0)) for m in monomials]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

