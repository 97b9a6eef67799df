"""Degree-1 and degree-2 theta lifts as exact Fourier expansions.

Degree-2 expansions are dictionaries over canonical reduced binary forms with
an explicit validity bound in the discriminant; every lookup goes through the
sign-tracked reduction, which is what makes odd weight work.

Every degree-2 lift is a sum of pieces θ(L, P)·scale whose weight P has
bidegree (ν, ν), so P(x₁, x₂) = m_ν(x₁)ᵗ·C·m_ν(x₂) with m_ν the degree-ν
monomials.  `theta_lift` assembles every degree-2 lift from its terms
(L, C, scale): `yoshida2` from Brandt eigenforms, with C built by
`harmonic.lift_matrix_deg2` from the frame's product table, and
`fixture.golden_lift` from the published matrices.

A `ThetaEngine` holds half shells H_m: one vector of each pair ±x of norm m.
Since P(−x₁, x₂) = P(x₁, −x₂) = (−1)^ν·P(x₁, x₂) and B(−x₁, x₂) = −B(x₁, x₂),
the sum over full-shell pairs is S(b) = 2·(S⁺(b) + (−1)^ν·S⁺(−b)), S⁺ the sum
over H_a × H_c.  One numpy kernel, `ThetaEngine.row_sums`, does a whole row a
of forms: M(H_a)·C·M(H_c)ᵗ against the concatenated half shells of every c of
the row, chunked by rows of H_a and scattered once into a (c, b) accumulator,
then folded as above; the singular entries (0, 0, m) are the row a = 0, whose
only vector is zero.  The kernel stays exact: a bound on
max|M|²·Σ|C|·|H_a|·max|H_c|, times the 4 of the fold, picks int64 when it stays
below 2⁶², otherwise object arrays of Python ints running the same code.
`theta_lift` writes every piece's factor over one common denominator, so a
form's total is a sum of Python ints and one Fraction at the end.
`theta2_coefficient` is the pure-Python reference for one coefficient, on the
full shells of `quatcore.short_vectors`.

The degree-1 lift `yoshida1` sums on the Brandt τ-kernel: a(m) pairs φ₁(y_i)
with φ₂(y_j)·Σ_{q(x)=m} τ̃(x), one `harmonic.tau_matrix_sum` per norm, so its
coefficients are Brandt-matrix entries.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from . import linalg
from .binforms import (BinaryForm, disc, is_ambiguous, is_reduced, reduce_form,
                       reduced_forms_up_to)
from .brandt import AutomorphicForm, FormSpace
from .harmonic import HarmonicPoly, _monomial_rows, lift_matrix_deg2, tau_matrix_sum
from .linalg import INT64_SAFE
from .polys import Poly
from .quatcore import ClassSet, Lattice, UsageError, short_vectors, short_vectors_upto


class TruncationError(ValueError):
    """A coefficient outside the expansion's validity bound was requested."""


class FourierExpansionSiegel2:
    """Finite map from canonical reduced forms to rationals, with weight and bound."""

    def __init__(self, weight: int, level: int, bound: int, entries=None,
                 singular_bound: int | None = None):
        self.weight = weight
        self.level = level
        self.bound = bound
        self.singular_bound = bound if singular_bound is None else singular_bound
        self.entries: dict[BinaryForm, Fraction] = {}
        for t, v in (entries or {}).items():
            self.set(t, v)

    def set(self, t: BinaryForm, value) -> None:
        t = tuple(int(x) for x in t)
        value = Fraction(value)
        if not is_reduced(t):
            raise ValueError(f"{t} is not canonical-reduced")
        if self.weight % 2 and is_ambiguous(t):
            if value != 0:
                raise ValueError(f"odd weight forces a zero coefficient at {t}")
            return
        if value != 0:
            self.entries[t] = value

    def coefficient(self, t) -> Fraction:
        red, sign = reduce_form(t)
        d = disc(red)
        if d > 0:
            if d > self.bound:
                raise TruncationError(f"form {t} has discriminant {d} > bound {self.bound}")
        else:
            if red[2] > self.singular_bound:
                raise TruncationError(f"singular form {t} exceeds bound {self.singular_bound}")
        val = self.entries.get(red, Fraction(0))
        if self.weight % 2:
            if is_ambiguous(red):
                return Fraction(0)
            return val if sign == 1 else -val
        return val

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (disc(kv[0]),) + kv[0])

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "FourierExpansionSiegel2":
        c = Fraction(c)
        out = FourierExpansionSiegel2(self.weight, self.level, self.bound,
                                      singular_bound=self.singular_bound)
        if c:
            for t, v in self.entries.items():
                out.set(t, c * v)
        return out

    def agrees_with(self, other: "FourierExpansionSiegel2") -> bool:
        """Equality on the common validity range."""
        bound = min(self.bound, other.bound)
        sb = min(self.singular_bound, other.singular_bound)
        for t in reduced_forms_up_to(bound):
            if self.coefficient(t) != other.coefficient(t):
                return False
        for m in range(sb + 1):
            if self.coefficient((0, 0, m)) != other.coefficient((0, 0, m)):
                return False
        return True


class QExpansion:
    """Finite q-expansion m ↦ a(m) with weight and level metadata."""

    def __init__(self, weight: int, level: int, bound: int, coeffs=None):
        self.weight = weight
        self.level = level
        self.bound = bound
        self.coeffs: dict[int, Fraction] = {}
        for m, v in (coeffs or {}).items():
            v = Fraction(v)
            if v:
                self.coeffs[int(m)] = v

    def coefficient(self, m: int) -> Fraction:
        if m > self.bound:
            raise TruncationError(f"coefficient {m} beyond bound {self.bound}")
        return self.coeffs.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs


# entries of H_a × (concatenated H_c) per chunk of `ThetaEngine.row_sums`
_CHUNK = 1 << 18


class ThetaEngine:
    """Half shells of one lattice, with norms rescaled by the ideal norm, and the
    pair-sum kernel on them."""

    def __init__(self, lattice: Lattice, max_norm: int):
        g = lattice.normalized_gram()
        for row in g:
            for x in row:
                if Fraction(x).denominator != 1:
                    raise ValueError("normalized Gram matrix is not integral")
        self.lattice = lattice
        self.gram = np.array([[int(x) for x in row] for row in g], dtype=np.int64)
        self.max_norm = max_norm
        # one of each pair ±x per norm; the weights of bidegree (ν, ν) change by
        # (−1)^ν under x ↦ −x, so the half shells carry every pair sum
        self.half: dict[int, np.ndarray] = {}
        for m, vs in short_vectors_upto(g, max_norm, half=True).items():
            assert m.denominator == 1
            self.half[int(m)] = vs.astype(np.int64, copy=False)
        self.coord_max = max((int(np.abs(vs).max()) for vs in self.half.values()), default=0)

    def half_shell(self, m: int) -> np.ndarray:
        """One vector of each pair ±x of norm m > 0."""
        if m > self.max_norm:
            raise TruncationError("enumeration bound exceeded")
        return self.half.get(m, np.empty((0, 4), dtype=np.int64))

    def vecs(self, m: int) -> np.ndarray:
        """The vectors of norm m; m = 0 gives the single zero row."""
        if m == 0:
            return np.zeros((1, 4), dtype=np.int64)
        h = self.half_shell(m)
        return np.concatenate((h, -h))

    def _count(self, m: int) -> int:
        return 1 if m == 0 else 2 * len(self.half_shell(m))

    def row_sums(self, a: int, cbs, mat: np.ndarray, nu: int) -> list[int]:
        """The pair sums of one row a, one per (c, b) for (c, bs) in cbs and b in bs.

        Each is Σ over x₁, x₂ with q(x₁) = a, q(x₂) = c, B(x₁, x₂) = b of
        M(x₁)ᵗ·mat·M(x₂), M(x) the degree-ν monomials of x.  Pairs with a zero
        vector have b = 0 and weight mat₀₀ at ν = 0, 0 otherwise.  The rest is one
        numpy pass over H_a × (the half shells H_c, concatenated), chunked by rows
        of H_a and scattered into one (c, b) accumulator S⁺; the full sums are
        S(b) = 2·(S⁺(b) + (−1)^ν·S⁺(−b)).  Exact: a bound on max|M|²·Σ|mat|·
        |H_a|·max|H_c|, times the 4 of the fold, picks int64 when it stays below
        2⁶², otherwise object arrays of Python ints.
        """
        starts = np.cumsum([0] + [len(bs) for _, bs in cbs]).tolist()
        out = [0] * starts[-1]
        live = []  # the groups with a, c > 0
        for k, (c, bs) in enumerate(cbs):
            if a and c:
                live.append(k)
            elif nu == 0:
                n = int(mat[0, 0]) * self._count(a) * self._count(c)
                for j, b in enumerate(bs):
                    out[starts[k] + j] = n if b == 0 else 0
        ha = self.half_shell(a)
        shells = [self.half_shell(cbs[k][0]) for k in live]
        if not len(ha) or not sum(map(len, shells)):
            return out
        vc = np.concatenate(shells)
        # bins b = −bmax − 1, …, bmax + 1 per c; the two outer ones take every
        # |b| > bmax, which no (c, b) asked for reads
        bmax = max(abs(b) for k in live for b in cbs[k][1])
        width = 2 * bmax + 3
        base = np.repeat(np.arange(len(shells)) * width + bmax + 1, list(map(len, shells)))
        peak = (max(self.coord_max, 1) ** (2 * nu) * sum(map(abs, mat.ravel().tolist()))
                * len(ha) * max(map(len, shells)))
        dtype = np.int64 if 4 * peak < INT64_SAFE else object
        mat = mat.astype(dtype, copy=False)
        mc = _monomial_rows(vc, nu, dtype).T
        gc = self.gram @ vc.T
        acc = np.zeros(len(shells) * width, dtype=dtype)
        step = max(1, _CHUNK // len(vc))
        for r in range(0, len(ha), step):
            h = ha[r:r + step]
            idx = np.clip(h @ gc, -bmax - 1, bmax + 1)
            idx += base
            vals = (_monomial_rows(h, nu, dtype) @ mat) @ mc
            np.add.at(acc, idx.ravel(), vals.ravel())
        # (x₁, x₂) ↦ (−x₁, −x₂) keeps b and the weight; negating one of them
        # negates b and multiplies the weight by (−1)^ν
        acc = acc.reshape(len(shells), width)
        full = 2 * (acc + (-1) ** nu * acc[:, ::-1])
        for row, k in zip(full.tolist(), live):
            for j, b in enumerate(cbs[k][1]):
                out[starts[k] + j] = row[b + bmax + 1]
        return out

    def pair_sums_bilinear(self, a: int, c: int, mat: np.ndarray, nu: int) -> dict[int, int]:
        """For all b: Σ over pairs (x₁, x₂) with q = (a, b, c) of M(x₁)ᵗ·mat·M(x₂).

        M(x) holds x's degree-ν monomials, so ν = 1 is the bilinear form xᵗ·mat·y.
        """
        bmax = math.isqrt(4 * a * c)  # |B(x₁, x₂)|² ≤ 4·q(x₁)·q(x₂)
        bs = range(-bmax, bmax + 1)
        return {b: s for b, s in zip(bs, self.row_sums(a, [(c, bs)], mat, nu)) if s}

    def pair_counts(self, a: int, c: int) -> dict[int, int]:
        """For all b: the number of pairs with q = (a, b, c)."""
        return self.pair_sums_bilinear(a, c, np.ones((1, 1), dtype=np.int64), 0)


def theta2_coefficient(lattice: Lattice, lift_poly: Poly, t) -> Fraction:
    """Σ over pairs (x₁,x₂) in L² with q(x₁)=a, q(x₂)=c, B(x₁,x₂)/n₀=b of P(x₁,x₂).

    The lift polynomial takes the 8 lattice coordinates (already normalized by
    the caller if the lattice has a norm scale).  The pure-Python reference: the
    full shells from `short_vectors`, one polynomial evaluation per pair.
    """
    a, b, c = (int(x) for x in t)
    if a < 0 or c < 0:
        raise ValueError("negative norms")
    g = lattice.normalized_gram()
    gram = g.num.tolist()
    total = Fraction(0)
    vc = short_vectors(g, c)
    for x1 in short_vectors(g, a):
        gx = [sum(x1[i] * gram[i][j] for i in range(4)) for j in range(4)]
        for x2 in vc:
            if sum(gx[j] * x2[j] for j in range(4)) == b * g.den:
                total += lift_poly.eval(list(x1) + list(x2))
    return total


def _form_rows(bound: int, singular_bound: int) -> list[tuple[int, list[tuple[int, list[int]]]]]:
    """The forms (a, b, c) a lift computes, as rows (a, [(c, [b, …]), …]) sorted by a, c.

    The reduced forms with disc ≤ bound, and the singular forms (0, 0, m) with
    m ≤ singular_bound as the row a = 0.
    """
    by_ac: dict[tuple[int, int], list[int]] = defaultdict(list)
    for (a, b, c) in reduced_forms_up_to(bound):
        by_ac[(a, c)].append(b)
    for m in range(singular_bound + 1):
        by_ac[(0, m)].append(0)
    rows: dict[int, list[tuple[int, list[int]]]] = defaultdict(list)
    for (a, c), bs in sorted(by_ac.items()):
        rows[a].append((c, bs))
    return list(rows.items())


def _enumeration_norm(rows, nu: int) -> int:
    """The largest norm `_theta2_totals` reads from `rows`.

    That is the largest c of a row a > 0, or of the singular row a = 0 at ν = 0;
    at ν ≥ 1 the singular row is skipped.
    """
    return max((c for a, cbs in rows if a or not nu for c, _ in cbs), default=0)


def _theta2_totals(pieces, rows, nu: int) -> dict[BinaryForm, int]:
    """Per form: Σ over pieces (engine, C, n) of n·Σ_pairs M(x₁)ᵗ·C·M(x₂).

    C is the integer matrix of a bidegree-(ν, ν) weight and n an integer; `rows`
    as from `_form_rows`.  Forms whose total is zero may be missing.
    """
    totals: dict[BinaryForm, int] = defaultdict(int)
    for engine, mat, n in pieces:
        for a, cbs in rows:
            if nu and not a:
                continue  # M(0) = 0, so the singular entries vanish for ν ≥ 1
            sums = engine.row_sums(a, cbs, mat, nu)
            forms = ((a, b, c) for c, bs in cbs for b in bs)
            for t, s in zip(forms, sums):
                if s:
                    totals[t] += n * s
    return totals


def theta_lift(terms, nu: int, level: int, bound: int,
               singular_bound: int | None = None) -> FourierExpansionSiegel2:
    """Σ over terms (L, C, scale) of scale·θ(L, m_ν(x₁)ᵗ·C·m_ν(x₂)), weight ν + 2.

    C is a rational matrix on degree-ν monomials in `monomials_of_degree(4, ν)`
    order, as `harmonic.lift_matrix_deg2` returns it; a list of rational rows
    works too.  Each engine enumerates L to the largest norm the forms read.
    Every piece's factor scale/den is written n/D over one common denominator
    D, so each form's total is a sum of Python ints and one Fraction at the
    end.
    """
    if singular_bound is None:
        singular_bound = _default_singular_bound(bound)
    rows = _form_rows(bound, singular_bound)
    max_norm = _enumeration_norm(rows, nu)
    pieces = []
    for lattice, weight, scale in terms:
        mat, den = linalg.integer_form(weight)
        pieces.append((ThetaEngine(lattice, max_norm), np.array(mat, dtype=np.int64),
                       Fraction(scale) / den))
    common = math.lcm(*(f.denominator for _, _, f in pieces))
    pieces = [(engine, mat, int(f * common)) for engine, mat, f in pieces]
    out = FourierExpansionSiegel2(nu + 2, level, bound, singular_bound=singular_bound)
    for t, v in _theta2_totals(pieces, rows, nu).items():
        out.set(t, Fraction(v, common))
    return out


def _default_singular_bound(bound: int) -> int:
    # the singular range a lift stores unless told otherwise; serialized expansions
    # record it.  It is not the largest c of a reduced form: those with
    # disc ≤ bound have c ≤ (bound + 1)//4, reached at a = |b| = 1.
    return max((bound + 1) // 3, 1)


def yoshida2(cs: ClassSet, phi1: AutomorphicForm, phi2: AutomorphicForm, bound: int,
             space1: FormSpace | None = None,
             singular_bound: int | None = None) -> FourierExpansionSiegel2:
    """Degree-2 lift: coefficient(T) = Σ_ij φ₂(y_j)·(1/e_ie_j)·θ(cross(i,j), P_{φ₁(y_i)})(T).

    φ₂ must have ν = 0 (scalar second factor); the result has weight ν₁ + 2.
    """
    if phi2.nu != 0:
        raise UsageError("only a scalar second factor is supported (ν₂ = 0)")
    nu1 = phi1.nu
    space1 = space1 or FormSpace(cs, nu1)
    terms = []
    for i in range(cs.h):
        vpoly = space1.space.poly_from_coords(phi1.values[i])
        if vpoly.is_zero():
            continue
        hp = HarmonicPoly(space1.frame, vpoly)
        for j in range(cs.h):
            wj = phi2.values[j][0]
            if not wj:
                continue
            cross = cs.cross_lattice(i, j)
            weight = lift_matrix_deg2(hp, cross)
            if not weight.num.any():
                continue
            scale = wj / (Fraction(cs.unit_counts[i] * cs.unit_counts[j])
                          * cross.norm_scale ** nu1)
            terms.append((cross, weight, scale))
    return theta_lift(terms, nu1, cs.order.level, bound, singular_bound)


def yoshida1(cs: ClassSet, phi1: AutomorphicForm, phi2: AutomorphicForm, bound: int,
             space: FormSpace | None = None) -> QExpansion:
    """Degree-1 lift a(m) = Σ_ij (1/e_ie_j)·⟨⟨φ₁(y_i), Σ_{q(x)=m} τ̃(x)φ₂(y_j)⟩⟩.

    x runs over cross(i, j) and τ̃(x) is its integral τ-matrix, so each norm m
    is one Brandt-kernel call, `tau_matrix_sum`; x = 0 adds a(0) at ν = 0.
    """
    if phi1.nu != phi2.nu:
        raise UsageError("degree-1 lift requires equal harmonic degrees")
    nu = phi1.nu
    space = space or FormSpace(cs, nu)
    harm = space.space
    coeffs: dict[int, Fraction] = defaultdict(Fraction)
    for i, u in enumerate(phi1.values):
        if not any(u):
            continue
        for j, v in enumerate(phi2.values):
            if not any(v):
                continue
            cross = cs.cross_lattice(i, j)
            scale = Fraction(1, cs.unit_counts[i] * cs.unit_counts[j]) / cross.norm_scale ** nu
            buckets = short_vectors_upto(cross.normalized_gram(), bound)
            for m, vecs in buckets.items():
                s = harm.pair_coords(u, linalg.vec_mat(v, tau_matrix_sum(cross, vecs, harm)))
                if s:
                    coeffs[int(m)] += scale * s
            if nu == 0:
                coeffs[0] += scale * harm.pair_coords(u, v)
    return QExpansion(2 + 2 * nu, cs.order.level, bound, coeffs)


def theta1_counts(lattice: Lattice, bound: int) -> QExpansion:
    """Degree-1 theta series of a lattice with trivial weight: a(m) = #{x : q(x) = m}."""
    buckets = short_vectors_upto(lattice.normalized_gram(), bound)
    coeffs = {0: Fraction(1)}
    for m, vecs in buckets.items():
        coeffs[int(m)] = Fraction(len(vecs))
    return QExpansion(2, 0, bound, coeffs)


def phi_operator(f: FourierExpansionSiegel2) -> QExpansion:
    """Siegel Φ-operator on the expansion: m ↦ a([m, 0, 0])."""
    coeffs = {}
    for m in range(f.singular_bound + 1):
        coeffs[m] = f.coefficient((m, 0, 0))
    return QExpansion(f.weight, f.level, f.singular_bound, coeffs)


def is_cuspidal_up_to_bound(f: FourierExpansionSiegel2) -> bool:
    """Zero Φ-image and vanishing singular coefficients within the stored range."""
    return phi_operator(f).is_zero()
