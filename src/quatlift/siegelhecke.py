"""Hecke operators T(p) on degree-2 scalar Fourier expansions and local L-factors.

T(p) sums over the block-triangular cosets [[A,B],[0,D]] of the similitude-p
double coset.  A coset's term depends only on its block D: the input
coefficient at T = (1/p)·D·S·Dᵗ when that is half-integral, times the weight
det(D)^{-k}; its character is trivial for every half-integral S.  The
p³ + p² + p + 1 cosets have p + 3 blocks, whose weights are known in closed
form (Andrianov, Russian Math. Surveys 29, 1974):
a(pS) + p^{k-2}·Σ_U a(S[U]/p) + p^{2k-3}·a(S/p), U over the p + 1 blocks of
determinant p, with the global normalization p^{2k-3} that makes the a(pS)
term have coefficient 1; for the bundled example this reproduces the published
eigenvalues with no further constant.  `_hecke_blocks` returns the blocks and
weights directly; the coset list is the test oracle (`tests/hecke_reference.py`).

`hecke_Tp` runs every block D in one pass over the output forms
(`binforms.form_table` and (0, 0, 0)): S[Dᵗ] for every D and every S at once,
the transplants divisible by p, all their input coefficients read as one
column through `FourierExpansionSiegel2.coefficients`, which reduces them,
checks the bounds and applies the odd-weight sign, and one scatter-add of
the weighted column into the output forms.  `eigenvalue_extract` compares
the two expansions' definite entries up to the smaller bound as columns.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .binforms import form_table
from .quatcore import UsageError, _prime_factors, require_good_prime, require_int, require_prime
from .yoshida import FourierExpansionSiegel2, TruncationError, _require_comparable


def _hecke_blocks(p: int, k: int) -> dict:
    """The p + 3 blocks D of T(p), each with weight p^{2k-3}·det(D)^{-k}·#cosets.

    D = p·I (p³ cosets) has weight 1, D = I (one coset) p^{2k-3}, and each of
    the p + 1 blocks of det p, (p, 0; -j, 1) for j mod p and (1, 0; 0, p)
    (p cosets each), p^{k-2} (Andrianov, Russian Math. Surveys 29, 1974).
    """
    q = Fraction(p)
    middle = [((p, 0), (-j, 1)) for j in range(p)] + [((1, 0), (0, p))]
    return {((p, 0), (0, p)): Fraction(1), ((1, 0), (0, 1)): q ** (2 * k - 3),
            **dict.fromkeys(middle, q ** (k - 2))}


def hecke_Tp(f: FourierExpansionSiegel2, p: int) -> FourierExpansionSiegel2:
    """T(p) on a degree-2 expansion, normalized so the a(pS) term has coefficient 1.

    The output keeps (0, 0, 0), where every transplant is 0, and no other singular form.
    """
    p = require_good_prime(p, f.level)
    out_bound = f.bound // (p * p)
    if out_bound < 1:
        raise TruncationError(
            f"input bound {f.bound} cannot support T({p}); need at least {p * p}")
    k = f.weight
    weights = _hecke_blocks(p, k)
    common = math.lcm(*(w.denominator for w in weights.values()))
    # the output forms, and (0, 0, 0), its own transplant under every D
    sa, sb, sc = (np.append(x, 0) for x in form_table(out_bound))
    # S[Dᵗ] = D·S·Dᵗ for every block D (a row each) and every S (a column each)
    d11, d12, d21, d22 = np.array([sum(d, ()) for d in weights], dtype=np.int64).T[:, :, None]
    ta = sa * (d11 * d11) + sb * (d11 * d12) + sc * (d12 * d12)
    tb = sa * (2 * d11 * d21) + sb * (d11 * d22 + d12 * d21) + sc * (2 * d12 * d22)
    tc = sa * (d21 * d21) + sb * (d21 * d22) + sc * (d22 * d22)
    # 1/p of it where that stays half-integral: one read of every transplant
    hit = (ta % p == 0) & (tb % p == 0) & (tc % p == 0)
    block, form = np.nonzero(hit)
    scale = np.array([int(w * common) for w in weights.values()], dtype=object)
    terms = scale[block] * f.coefficients(ta[hit] // p, tb[hit] // p, tc[hit] // p)
    total = np.zeros(len(sa), dtype=object)
    np.add.at(total, form, terms)
    return FourierExpansionSiegel2.from_columns(k, f.level, out_bound, sa, sb, sc, total,
                                                f.denominator * common, singular_bound=0)


def eigenvalue_extract(f: FourierExpansionSiegel2, g: FourierExpansionSiegel2) -> Fraction:
    """The unique λ with g = λ·f on all comparable coefficients.

    Both expansions store their positive definite entries in the order
    (disc, a, b), so the comparable ones are two prefixes, compared as columns.
    UsageError unless both have the same weight and level.
    """
    _require_comparable(f, g)
    bound = min(f.bound, g.bound)
    *fs, fn = f.definite_upto(bound)
    *gs, gn = g.definite_upto(bound)
    if len(fn) == len(gn) and all((x == y).all() for x, y in zip(fs, gs)):
        if not len(fn):
            raise ValueError("eigenvalue indeterminate: no nonzero comparable coefficients")
        if (gn * fn[0] != fn * gn[0]).any():
            raise ValueError("not an eigenform (at this bound)")
        return Fraction(gn[0] * f.denominator, fn[0] * g.denominator)
    if len(gn) or not len(fn):
        raise ValueError("not an eigenform (at this bound)")
    return Fraction(0)


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
        """Value of the Euler factor 1/poly(p^{-s}).

        ValueError unless s is finite and every term at X = p^{-s} fits a float.
        """
        _require_finite(s)
        try:
            inv = self.evaluate_inverse_at(self.p ** (-s))
        except OverflowError:
            inv = math.inf
        if not math.isfinite(inv):
            raise ValueError(f"cannot evaluate at s={s}: the factor at p={self.p} "
                             "overflows a float")
        if inv == 0:
            raise PoleError(f"local factor at p={self.p} has a pole at s={s}")
        return 1.0 / inv

    def __str__(self):
        parts = ["1"]
        for i, c in enumerate(self.coeffs[1:], 1):
            if c:
                mono = "X" if i == 1 else f"X^{i}"
                term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, LocalFactor) and self.p == other.p
                and self.coeffs == other.coeffs)


class PoleError(ArithmeticError):
    """Evaluation requested at a pole of an Euler factor."""


def _require_finite(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"cannot evaluate at s={s}: s must be a finite number")


def _power(p: int, e: float, s: float) -> float:
    """p^e as a float, for an exponent e formed from s; ValueError unless it fits a float."""
    try:
        out = float(p) ** e
    except OverflowError:
        out = math.inf
    if math.isinf(out):
        raise ValueError(f"cannot evaluate at s={s}: {p}^{e:g} overflows a float")
    return out


def standard_L_local(af, ag, k1: int, k2: int, n: int, p: int) -> LocalFactor:
    """Degree-(2n+1) inverse factor of the standard L-function of the degree-n lift.

    af and ag are the T(p) eigenvalues of eigenforms of weights k1 and k2, with
    unramified Satake data {β, β⁻¹} and {β̃, β̃⁻¹}.  The factor is
    (1-X)·Π(1-β^{±1}β̃^{±1}X)·Π_{j=1}^{n-2}(1-p^jX)(1-p^{-j}X), expanded through
    the elementary symmetric functions e₁ = e₃ = af·ag/p^{(k1+k2-2)/2},
    e₂ = af²/p^{k1-1} + ag²/p^{k2-1} − 2 and e₄ = 1, rational when k1 ≡ k2 mod 2.
    """
    p = require_prime(p)
    k1, k2 = require_int(k1, "weight k1"), require_int(k2, "weight k2")
    if require_int(n, "degree n") < 2:
        raise ValueError("the degree-n standard factor needs n ≥ 2")
    w = k1 + k2 - 2
    if w % 2:
        raise ValueError("cross sum is irrational for mixed weight parity")
    af, ag, q = Fraction(af), Fraction(ag), Fraction(p)
    e1 = af * ag / q ** (w // 2)
    e2 = af ** 2 / q ** (k1 - 1) + ag ** 2 / q ** (k2 - 1) - 2
    quartic = LocalFactor(p, [1, -e1, e2, -e1, 1])
    out = LocalFactor(p, [1, -1]) * quartic
    for j in range(1, n - 1):
        out = out * LocalFactor(p, [1, -q ** j])
        out = out * LocalFactor(p, [1, -1 / q ** j])
    return out


def rankin_selberg_local(af, ag, k1: int, k2: int, p: int) -> LocalFactor:
    """Degree-4 inverse factor of the tensor-product L-function, integer coefficients."""
    p = require_prime(p)
    k1, k2 = require_int(k1, "weight k1"), require_int(k2, "weight k2")
    af, ag, q = Fraction(af), Fraction(ag), Fraction(p)
    w = k1 + k2 - 2
    e2 = q ** (k2 - 1) * af ** 2 + q ** (k1 - 1) * ag ** 2 - 2 * q ** w
    return LocalFactor(p, [1, -af * ag, e2, -af * ag * q ** w, q ** (2 * w)])


def hecke_prime_power_coeffs(ap, k: int, p: int, count: int) -> list[Fraction]:
    """a(p^j) for j < count via a(p^{j+1}) = a_p·a(p^j) − p^{k-1}·a(p^{j-1})."""
    p = require_prime(p)
    k, count = require_int(k, "weight k"), require_int(count, "count")
    out = [Fraction(1), Fraction(ap)]
    for _ in range(count - 2):
        out.append(Fraction(ap) * out[-1] - Fraction(p) ** (k - 1) * out[-2])
    return out[:count]


def rankin_selberg_matches_dirichlet(af, ag, k1: int, k2: int, p: int) -> bool:
    """(Σ_j a₁(p^j)a₂(p^j)X^j)·RS(X) ≡ 1 − p^{k1+k2-2}X² through X^6."""
    p = require_prime(p)
    k1, k2 = require_int(k1, "weight k1"), require_int(k2, "weight k2")
    a1 = hecke_prime_power_coeffs(af, k1, p, 7)
    a2 = hecke_prime_power_coeffs(ag, k2, p, 7)
    series = LocalFactor(p, [x * y for x, y in zip(a1, a2)])
    prod = series * rankin_selberg_local(af, ag, k1, k2, p)
    return prod.coeffs[:7] == [1, 0, -(Fraction(p) ** (k1 + k2 - 2)), 0, 0, 0, 0]


def lambda_N(level: int, n: int, s: float, nonessential: dict | None = None) -> float:
    """Bad-prime factor Λ_N(s) = Π_{p|N} Π_{j=1}^n (1 − p^{−s−2+j})⁻¹, N ≥ 1 square-free, n ≥ 1.

    ValueError unless s is finite and every power of p formed fits a float.
    For a prime where only one form is essential, pass
    nonessential[p] = (epsilon, alpha_sum) to use the replacement factor
    (1 + ε·α·p^{(−2s−1)/2})⁻¹ (1 + ε·α⁻¹·p^{(−2s−1)/2})⁻¹ Π_{j=3}^n (…)⁻¹.
    """
    level, n = require_int(level, "level", 1), require_int(n, "degree n", 1)
    primes = _prime_factors(level)
    if len(set(primes)) != len(primes):
        raise UsageError(f"the level {level} is not square-free")
    _require_finite(s)
    nonessential = nonessential or {}
    value = 1.0
    for p in primes:
        if p in nonessential:
            eps, alpha_sum = nonessential[p]
            q = _power(p, (-2.0 * s - 1.0) / 2.0, s)
            factor = 1.0 + eps * alpha_sum * q + _power(p, -2.0 * s - 1.0, s)
            if factor == 0:
                raise PoleError(f"pole of the non-essential factor at p={p}, s={s}")
            value /= factor
            jrange = range(3, n + 1)
        else:
            jrange = range(1, n + 1)
        for j in jrange:
            factor = 1.0 - _power(p, -s - 2 + j, s)
            if factor == 0:
                raise PoleError(f"pole at the j={j} factor of p={p} (s={s})")
            value /= factor
    return value

