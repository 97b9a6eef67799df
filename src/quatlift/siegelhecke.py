"""Hecke operators T(p) on degree-2 scalar Fourier expansions and local L-factors.

T(p) is built from the explicit coset list [[A,B],[0,D]] of the similitude-p
double coset: the output coefficient at S collects input coefficients at
T = (1/p)·D·S·Dᵗ when that is half-integral, a character value which is always
a trivial root of unity on the half-integral locus, and the weight factor
det(D)^{-k}.  The global normalization makes the a(pS) term have coefficient 1;
for the bundled example this reproduces the published eigenvalues with no
further constant.  Odd-weight signs flow through the canonical reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .binforms import reduced_forms_up_to
from .quatcore import UsageError, _is_prime, _prime_factors
from .yoshida import FourierExpansionSiegel2, TruncationError


@dataclass(frozen=True)
class HeckeCosetRep:
    """Block-triangular representative [[A, B], [0, D]] of similitude p."""
    a: tuple[tuple[int, int], tuple[int, int]]
    b: tuple[tuple[int, int], tuple[int, int]]
    d: tuple[tuple[int, int], tuple[int, int]]

    def matrix(self) -> list[list[int]]:
        (a11, a12), (a21, a22) = self.a
        (b11, b12), (b21, b22) = self.b
        (d11, d12), (d21, d22) = self.d
        return [[a11, a12, b11, b12],
                [a21, a22, b21, b22],
                [0, 0, d11, d12],
                [0, 0, d21, d22]]


def hecke_cosets(p: int) -> list[HeckeCosetRep]:
    """The p³ + p² + p + 1 right coset representatives of the T(p) double coset."""
    reps = []
    ident = ((1, 0), (0, 1))
    pid = ((p, 0), (0, p))
    for b11 in range(p):
        for b12 in range(p):
            for b22 in range(p):
                reps.append(HeckeCosetRep(ident, ((b11, b12), (b12, b22)), pid))
    reps.append(HeckeCosetRep(pid, ((0, 0), (0, 0)), ident))
    for j in range(p):
        a = ((1, j), (0, p))
        d = ((p, 0), (-j, 1))
        for m in range(p):
            reps.append(HeckeCosetRep(a, ((m, 0), (0, 0)), d))
    a_inf = ((p, 0), (0, 1))
    d_inf = ((1, 0), (0, p))
    for r in range(p):
        reps.append(HeckeCosetRep(a_inf, ((0, 0), (0, r)), d_inf))
    return reps


_J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]


def _mm4(x, y):
    """Product of two 4×4 integer matrices."""
    return [[sum(x[i][t] * y[t][k] for t in range(4)) for k in range(4)] for i in range(4)]


def _symplectic_defect(m: list[list[int]], p: int) -> bool:
    """MᵗJM == p·J for the 4×4 similitude matrix."""
    mt = [[m[k][i] for k in range(4)] for i in range(4)]
    lhs = _mm4(_mm4(mt, _J), m)
    rhs = [[p * _J[i][k] for k in range(4)] for i in range(4)]
    return lhs == rhs


def cosets_pairwise_inequivalent(p: int) -> bool:
    """No two representatives lie in the same left Sp₄(Z) coset Γ·M."""
    reps = [r.matrix() for r in hecke_cosets(p)]
    jinv = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    for i, m1 in enumerate(reps):
        m1t = [[m1[k][r] for k in range(4)] for r in range(4)]
        # p·M1⁻¹ = J⁻¹·M1ᵗ·J; Γ·M1 = Γ·M2 iff M2·M1⁻¹ is integral (then symplectic)
        m1inv_p = _mm4(_mm4(jinv, m1t), _J)
        for k, m2 in enumerate(reps):
            if k == i:
                continue
            prod = _mm4(m2, m1inv_p)
            if all(x % p == 0 for row in prod for x in row):
                return False
    return True


def _transplant(s: tuple[int, int, int], d, p: int):
    """Input form T with p·D⁻¹·T·D⁻ᵗ = S, or None when T is not half-integral."""
    a, b, c = s
    (d11, d12), (d21, d22) = d
    # 2T = D·(2S)·Dᵗ / p
    s2 = ((2 * a, b), (b, 2 * c))
    r11 = d11 * (d11 * s2[0][0] + d12 * s2[1][0]) + d12 * (d11 * s2[0][1] + d12 * s2[1][1])
    r12 = d21 * (d11 * s2[0][0] + d12 * s2[1][0]) + d22 * (d11 * s2[0][1] + d12 * s2[1][1])
    r22 = d21 * (d21 * s2[0][0] + d22 * s2[1][0]) + d22 * (d21 * s2[0][1] + d22 * s2[1][1])
    if r11 % (2 * p) or r22 % (2 * p) or r12 % p:
        return None
    return (r11 // (2 * p), r12 // p, r22 // (2 * p))


def _character_is_trivial(t: tuple[int, int, int], rep: HeckeCosetRep, p: int) -> bool:
    """e(tr(T·B·D⁻¹)) for a half-integral transplant; must be a trivial character."""
    a, b, c = t
    (b11, b12), (b21, b22) = rep.b
    (a11, a12), (a21, a22) = rep.a
    # D⁻¹ = Aᵗ/p, so tr(T·B·D⁻¹) = tr(T·B·Aᵗ)/p with T = [[a, b/2], [b/2, c]]
    m11 = b11 * a11 + b12 * a12
    m21 = b21 * a11 + b22 * a12
    m12 = b11 * a21 + b12 * a22
    m22 = b21 * a21 + b22 * a22
    tr2 = 2 * a * m11 + b * m21 + b * m12 + 2 * c * m22
    if tr2 % (2 * p):
        raise AssertionError("nontrivial character on a half-integral transplant")
    return True


def _require_prime(p) -> None:
    if not _is_prime(p):
        raise UsageError(f"{p} is not a prime")


def hecke_Tp(f: FourierExpansionSiegel2, p: int) -> FourierExpansionSiegel2:
    """T(p) on a degree-2 expansion, normalized so the a(pT) term has coefficient 1."""
    _require_prime(p)
    if f.level % p == 0:
        raise ValueError(f"{p} divides the level {f.level}")
    out_bound = f.bound // (p * p)
    if out_bound < 1:
        raise TruncationError(
            f"input bound {f.bound} cannot support T({p}); need at least {p * p}")
    k = f.weight
    norm = Fraction(p) ** (2 * k - 3)
    reps = hecke_cosets(p)
    out = FourierExpansionSiegel2(k, f.level, out_bound, singular_bound=0)
    for s in reduced_forms_up_to(out_bound):
        total = Fraction(0)
        for rep in reps:
            t = _transplant(s, rep.d, p)
            if t is None:
                continue
            _character_is_trivial(t, rep, p)
            detd = rep.d[0][0] * rep.d[1][1] - rep.d[0][1] * rep.d[1][0]
            total += Fraction(1, detd ** k) * f.coefficient(t)
        val = norm * total
        if val:
            out.set(s, val)
    return out


def eigenvalue_extract(f: FourierExpansionSiegel2, g: FourierExpansionSiegel2) -> Fraction:
    """The unique λ with g = λ·f on all comparable coefficients."""
    bound = min(f.bound, g.bound)
    lam = None
    seen_nonzero = False
    for t in reduced_forms_up_to(bound):
        fv = f.coefficient(t)
        gv = g.coefficient(t)
        if fv == 0:
            if gv != 0:
                raise ValueError("not an eigenform (at this bound)")
            continue
        seen_nonzero = True
        ratio = gv / fv
        if lam is None:
            lam = ratio
        elif lam != ratio:
            raise ValueError("not an eigenform (at this bound)")
    if not seen_nonzero:
        raise ValueError("eigenvalue indeterminate: no nonzero comparable coefficients")
    return lam


class LocalFactor:
    """Inverse local Euler factor as a polynomial in X = p^{-s}, constant term 1."""

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("local factors are normalized with constant term 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "LocalFactor") -> "LocalFactor":
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LocalFactor(self.p, out)

    def scale_variable(self, c) -> "LocalFactor":
        c = Fraction(c)
        return LocalFactor(self.p, [a * c ** i for i, a in enumerate(self.coeffs)])

    def evaluate_inverse_at(self, x: float) -> float:
        """Value of the polynomial (the inverse factor) at X = x."""
        return sum(float(a) * x ** i for i, a in enumerate(self.coeffs))

    def value(self, s: float) -> float:
        """Value of the Euler factor 1/poly(p^{-s})."""
        inv = self.evaluate_inverse_at(self.p ** (-s))
        if inv == 0:
            raise PoleError(f"local factor at p={self.p} has a pole at s={s}")
        return 1.0 / inv

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "X" if i == 1 else f"X^{i}"
                cs = str(abs(c))
                term = mono if abs(c) == 1 else f"{cs}*{mono}"
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (isinstance(other, LocalFactor) and self.p == other.p
                and self.coeffs == other.coeffs)


class PoleError(ArithmeticError):
    """Evaluation requested at a pole of an Euler factor."""


@dataclass(frozen=True)
class SatakePair:
    """Unramified Satake datum {β, β⁻¹} of a weight-k eigenform, kept radical-free.

    β + β⁻¹ = λ / p^{(k-1)/2}; only symmetric combinations are ever needed and
    those are rational: the square of the sum, and cross products with another
    pair of compatible weight parity.
    """
    p: int
    weight: int
    eigenvalue: Fraction

    @property
    def sum_squared(self) -> Fraction:
        return Fraction(self.eigenvalue) ** 2 / Fraction(self.p) ** (self.weight - 1)

    def cross_sum(self, other: "SatakePair") -> Fraction:
        """(β+β⁻¹)(β̃+β̃⁻¹); rational when the weights have equal parity."""
        assert self.p == other.p
        e = self.weight + other.weight - 2
        if e % 2:
            raise ValueError("cross sum is irrational for mixed weight parity")
        return (Fraction(self.eigenvalue) * Fraction(other.eigenvalue)
                / Fraction(self.p) ** (e // 2))

    @classmethod
    def trivial(cls, p: int) -> "SatakePair":
        """β = 1 (sum 2): weight-1 datum with eigenvalue 2."""
        return cls(p, 1, Fraction(2))


def standard_L_local(b1: SatakePair, b2: SatakePair, n: int, p: int) -> LocalFactor:
    """Degree-(2n+1) inverse factor of the standard L-function of the degree-n lift.

    (1-X)·Π(1-β^{±1}β̃^{±1}X)·Π_{j=1}^{n-2}(1-p^jX)(1-p^{-j}X), expanded through
    the elementary symmetric functions e₁ = e₃ = s·s̃, e₂ = s²+s̃²-2, e₄ = 1.
    """
    _require_prime(p)
    if n < 2:
        raise ValueError("the degree-n standard factor needs n ≥ 2")
    e1 = b1.cross_sum(b2)
    e2 = b1.sum_squared + b2.sum_squared - 2
    quartic = LocalFactor(p, [1, -e1, e2, -e1, 1])
    out = LocalFactor(p, [1, -1]) * quartic
    for j in range(1, n - 1):
        out = out * LocalFactor(p, [1, -Fraction(p) ** j])
        out = out * LocalFactor(p, [1, -Fraction(1, p ** j)])
    return out


def rankin_selberg_local(af, ag, k1: int, k2: int, p: int) -> LocalFactor:
    """Degree-4 inverse factor of the tensor-product L-function, integer coefficients."""
    _require_prime(p)
    af, ag = Fraction(af), Fraction(ag)
    w = k1 + k2 - 2
    e1 = af * ag
    e2 = Fraction(p) ** (k2 - 1) * af ** 2 + Fraction(p) ** (k1 - 1) * ag ** 2 \
        - 2 * Fraction(p) ** w
    e3 = af * ag * Fraction(p) ** w
    e4 = Fraction(p) ** (2 * w)
    return LocalFactor(p, [1, -e1, e2, -e3, e4])


def hecke_prime_power_coeffs(ap, k: int, p: int, count: int) -> list[Fraction]:
    """a(p^j) for j < count via a(p^{j+1}) = a_p·a(p^j) − p^{k-1}·a(p^{j-1})."""
    out = [Fraction(1), Fraction(ap)]
    for _ in range(count - 2):
        out.append(Fraction(ap) * out[-1] - Fraction(p) ** (k - 1) * out[-2])
    return out[:count]


def rankin_selberg_matches_dirichlet(af, ag, k1: int, k2: int, p: int,
                                     order: int = 7) -> bool:
    """(Σ_j a₁(p^j)a₂(p^j)X^j)·RS(X) ≡ 1 − p^{k1+k2-2}X² through X^{order-1}."""
    rs = rankin_selberg_local(af, ag, k1, k2, p)
    a1 = hecke_prime_power_coeffs(af, k1, p, order)
    a2 = hecke_prime_power_coeffs(ag, k2, p, order)
    series = [x * y for x, y in zip(a1, a2)]
    prod = [Fraction(0)] * order
    for i, c in enumerate(series):
        for j, d in enumerate(rs.coeffs):
            if i + j < order:
                prod[i + j] += c * d
    expected = [Fraction(0)] * order
    expected[0] = Fraction(1)
    if order > 2:
        expected[2] = -(Fraction(p) ** (k1 + k2 - 2))
    return prod == expected


def lambda_N(level: int, n: int, s: float, nonessential: dict | None = None) -> float:
    """Bad-prime factor Λ_N(s) = Π_{p|N} Π_{j=1}^n (1 − p^{−s−2+j})⁻¹, N ≥ 1 square-free.

    For a prime where only one form is essential, pass
    nonessential[p] = (epsilon, alpha_sum) to use the replacement factor
    (1 + ε·α·p^{(−2s−1)/2})⁻¹ (1 + ε·α⁻¹·p^{(−2s−1)/2})⁻¹ Π_{j=3}^n (…)⁻¹.
    """
    if level < 1:
        raise UsageError(f"the level must be positive, not {level}")
    primes = _prime_factors(level)
    if len(set(primes)) != len(primes):
        raise UsageError(f"the level {level} is not square-free")
    nonessential = nonessential or {}
    value = 1.0
    for p in primes:
        if p in nonessential:
            eps, alpha_sum = nonessential[p]
            q = float(p) ** ((-2.0 * s - 1.0) / 2.0)
            factor = 1.0 + eps * alpha_sum * q + q * q
            if factor == 0:
                raise PoleError(f"pole of the non-essential factor at p={p}, s={s}")
            value /= factor
            jrange = range(3, n + 1)
        else:
            jrange = range(1, n + 1)
        for j in jrange:
            factor = 1.0 - float(p) ** (-s - 2 + j)
            if factor == 0:
                raise PoleError(f"pole at the j={j} factor of p={p} (s={s})")
            value /= factor
    return value

