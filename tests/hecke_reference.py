"""T(p) from the explicit coset list, one block D at a time: the reference for
`siegelhecke.hecke_Tp`.

`hecke_cosets` lists the p³ + p² + p + 1 right cosets of the T(p) double coset,
and `grouped_cosets` checks each coset's character and counts the cosets per
block D: the oracle for the closed form `siegelhecke._hecke_blocks`.  Each
distinct block D reads the input coefficients of its own transplants S[Dᵗ]/p
through one `coefficients` call and adds them, weighted, into the output forms;
`hecke_Tp` does every block in one read and one scatter.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quatlift.binforms import form_table
from quatlift.yoshida import FourierExpansionSiegel2


@dataclass(frozen=True)
class HeckeCosetRep:
    """Block-triangular representative [[A, B], [0, D]] of similitude p."""
    a: tuple[tuple[int, int], tuple[int, int]]
    b: tuple[tuple[int, int], tuple[int, int]]
    d: tuple[tuple[int, int], tuple[int, int]]


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


def grouped_cosets(p: int, k: int) -> dict:
    """Each distinct block D of hecke_cosets(p) with weight p^{2k-3}·det(D)^{-k}·#cosets.

    A coset contributes e(tr(S·Dᵗ·B)/p)·a(D·S·Dᵗ/p); AssertionError unless that
    character is trivial for every half-integral S, i.e. unless M = DᵗB has
    M₁₁ ≡ M₂₂ ≡ 0 mod p and M₁₂ + M₂₁ ≡ 0 mod 2p.  The cosets are counted per D
    in integers, and each D's weight is one Fraction.
    """
    counts: dict = {}
    for rep in hecke_cosets(p):
        (d11, d12), (d21, d22) = rep.d
        (b11, b12), (b21, b22) = rep.b
        m11, m12 = d11 * b11 + d21 * b21, d11 * b12 + d21 * b22
        m21, m22 = d12 * b11 + d22 * b21, d12 * b12 + d22 * b22
        if m11 % p or m22 % p or (m12 + m21) % (2 * p):
            raise AssertionError(f"coset {rep} has a nontrivial character")
        counts[rep.d] = counts.get(rep.d, 0) + 1
    return {d: Fraction(p) ** (2 * k - 3) * n / (d[0][0] * d[1][1] - d[0][1] * d[1][0]) ** k
            for d, n in counts.items()}


def hecke_Tp_per_block(f: FourierExpansionSiegel2, p: int) -> FourierExpansionSiegel2:
    """T(p)f with the same normalization and output forms as `hecke_Tp`, its blocks
    and weights from the coset list."""
    k = f.weight
    out_bound = f.bound // (p * p)
    weights = grouped_cosets(p, k)
    common = math.lcm(*(w.denominator for w in weights.values()))
    sa, sb, sc = (np.append(x, 0) for x in form_table(out_bound))
    total = np.zeros(len(sa), dtype=object)
    for ((d11, d12), (d21, d22)), w in weights.items():
        ta = sa * (d11 * d11) + sb * (d11 * d12) + sc * (d12 * d12)
        tb = sa * (2 * d11 * d21) + sb * (d11 * d22 + d12 * d21) + sc * (2 * d12 * d22)
        tc = sa * (d21 * d21) + sb * (d21 * d22) + sc * (d22 * d22)
        hit = np.flatnonzero((ta % p == 0) & (tb % p == 0) & (tc % p == 0))
        total[hit] += int(w * common) * f.coefficients(ta[hit] // p, tb[hit] // p, tc[hit] // p)
    return FourierExpansionSiegel2.from_columns(k, f.level, out_bound, sa, sb, sc, total,
                                                f.denominator * common, singular_bound=0)
