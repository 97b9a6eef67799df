"""Degree-1 and degree-2 theta lifts as exact Fourier expansions.

A degree-2 expansion stores its nonzero coefficients on canonical reduced
binary forms, with an explicit validity bound in the discriminant and one for
the singular forms (0, 0, m): one store of int64 columns a, b, c and Python-int
numerators over one denominator, in canonical order (the singular forms by m,
then the positive definite ones by (disc, a, b)), sorted by one integer key per
form.  Storage grows with the entries, not with the bound.  Whole columns go in
through `from_columns`, checked in bulk, and come out through `columns` and
`definite_upto`.  Every coefficient read, of one form or of columns of any
positive semidefinite forms, is `coefficients`: it reduces the forms with the
sign det(U) tracked, raises past the bounds, looks up the keys and, in odd
weight, where a(T[U]) = det(U)^k·a(T), applies the sign and reads 0 on the
ambiguous forms.

Every degree-2 lift is a sum of pieces θ(L, P)·scale whose weight P has
bidegree (ν, ν), so P(x₁, x₂) = m_ν(x₁)ᵗ·C·m_ν(x₂) with m_ν the degree-ν
monomials.  `theta_lift` assembles every degree-2 lift from its terms
(L, C, scale): `yoshida2` from Brandt eigenforms, with C built by
`harmonic.lift_matrix_deg2` from the frame's product table, and
`fixture.golden_lift` from the published matrices.

A `ThetaEngine` holds half shells H_m: one vector of each pair ±x of norm m,
kept as the enumeration kernel's own norm-sorted array with an offset per
norm, so that H_m and any run of consecutive norms are slices of it.
Since P(−x₁, x₂) = P(x₁, −x₂) = (−1)^ν·P(x₁, x₂) and B(−x₁, x₂) = −B(x₁, x₂),
the sum over full-shell pairs is S(b) = 2·(S⁺(b) + (−1)^ν·S⁺(−b)), S⁺ the sum
over H_a × H_c.  One numpy kernel, `ThetaEngine.table_sums`, does a whole table
of forms in one call: what does not depend on the row a (the forms sorted into
rows, H_a·G and M(H_a)ᵗ·C for every first vector, the tier bounds, the work
buffers and each form's accumulator position) once, then each row as
M(H_a)·C·M(H_c)ᵗ against one slice, the half shells of every norm from the
row's least c to its largest, read in blocks of rows (so no temporary grows
with the slice), chunked by rows of H_a and scattered into one accumulator of
one bin block per norm, wide enough for every pair by Cauchy–Schwarz, then
folded as above.  It sums definite forms only (a, c ≥ 1).  The kernel stays
exact: a bound on max|M|²·Σ|C|·|H_a|·max|H_c|, times the 4 of the fold, picks
per row float64 (integers below 2⁵³, exact in any order, so on BLAS) when it
stays below 2⁵³, int64 below 2⁶², otherwise object arrays.  `theta_lift` takes
its forms from `binforms.form_table` and writes every piece's factor over one
common denominator: each engine's sums are one array in table positions, added
once into the totals, int64 while every total stays below 2⁶² and Python ints
past that.  The singular entries a(0, 0, m), the lift's Φ-image, count single
vectors: at ν = 0 each engine adds mat₀₀ times its theta series, read off the
shell sizes (M(0) = 0 at ν ≥ 1).  It holds one engine at a time, so its memory
peak is one lattice's enumeration, and that runs only to the reach of the rows
a ≥ 2 (at ν = 0 also the singular range), about half of row 1's: row 1 is
summed per x₁ ∈ H₁ on a `ThetaEngine.slab`, the few vectors x₂ that its forms
read, through the same kernel.  At ν = 0, `yoshida2` folds each piece (j, i)
into (i, j): the weight is constant and cross(j, i) is isometric to
cross(i, j), so one lattice per unordered pair {i, j} carries both scales.
`theta2_coefficient` is the pure-Python reference for one coefficient, on the
full shells of `quatcore.short_vectors`.

The degree-1 lift `yoshida1` is a matrix coefficient of the Brandt series,
a(m) = ⟨φ₁, T̃(m)·φ₂⟩: one product with `brandt.brandt_series`, no sums of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import linalg
from .binforms import form_keys, form_table, is_ambiguous, is_reduced, reduce_forms
from .brandt import (AutomorphicForm, FormSpace, _require_space, brandt_series,
                     constant_form, inner_product)
from .harmonic import _monomial_rows, lift_matrix_deg2
from .linalg import FLOAT64_EXACT, INT64_SAFE
from .polys import Poly
from .quatcore import (ClassSet, Lattice, UsageError, _narrow_dtype, require_int,
                       short_vectors, short_vectors_upto)


class TruncationError(ValueError):
    """A coefficient outside the expansion's validity bound was requested."""


class FourierExpansionSiegel2:
    """Finite map from canonical reduced forms to rationals, with weight and bound.

    Every nonzero entry is one row of int64 columns a, b, c and Python-int
    numerators over one positive denominator, sorted by `_keys`: the singular
    forms (0, 0, m) by m, then the rest by (disc, a, b).  The constructor gives
    the zero expansion, `from_columns` every other one; nothing changes after.
    """

    def __init__(self, weight: int, level: int, bound: int, singular_bound: int | None = None):
        self._weight, self._level = require_int(weight, "weight"), require_int(level, "level", 1)
        self._bound = require_int(bound, "bound")
        self._singular_bound = require_int(bound if singular_bound is None else singular_bound,
                                           "singular bound")
        self._a = self._b = self._c = self._key = np.zeros(0, dtype=np.int64)
        self._num, self._den = np.zeros(0, dtype=object), 1

    # read-only: the stored keys and the odd-weight and bound checks of
    # from_columns hold only for the values they were made with
    @property
    def weight(self) -> int:
        return self._weight

    @property
    def level(self) -> int:
        return self._level

    @property
    def bound(self) -> int:
        """The largest discriminant of a stored definite form."""
        return self._bound

    @property
    def singular_bound(self) -> int:
        """The largest m of a stored singular form (0, 0, m)."""
        return self._singular_bound

    @classmethod
    def from_columns(cls, weight: int, level: int, bound: int, a, b, c, num, den: int = 1,
                     singular_bound: int | None = None) -> "FourierExpansionSiegel2":
        """The expansion with entry num[i]/den at each form (a[i], b[i], c[i]), any order,
        zeros dropped.  Checked in bulk: every form canonical-reduced, within its bound
        and given once, in odd weight nonzero only where no det −1 substitution fixes it; den ≥ 1."""
        out = cls(weight, level, bound, singular_bound)
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        a, b, c = (np.asarray(x, dtype=np.int64) for x in (a, b, c))
        num = np.array(num, dtype=object).reshape(-1)

        def fail(mask, why):
            i = int(np.argmax(mask))
            raise ValueError(f"{(int(a[i]), int(b[i]), int(c[i]))} {why}")

        reduced = is_reduced(a, b, c)
        if not reduced.all():
            fail(~reduced, "is not canonical-reduced")
        singular = a == 0
        # a reduced definite form has disc ≥ 3ac ≥ 3c
        beyond = np.where(singular, c > out.singular_bound, c > bound)
        if beyond.any():
            fail(beyond, "is beyond the bound")
        if len(c) and c.max() >= 1 << 30:
            fail(c >= 1 << 30, "has a coordinate beyond 2^30")
        beyond = ~singular & (4 * a * c - b * b > bound)
        if beyond.any():
            fail(beyond, "is beyond the bound")
        if weight % 2:
            bad = is_ambiguous(a, b, c) & (num != 0)
            if bad.any():
                fail(bad, "must have a zero coefficient in odd weight")
        keys = out._keys(a, b, c)
        order = np.argsort(keys, kind="stable")
        twice = np.zeros(len(a), dtype=bool)
        twice[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        if twice.any():
            fail(twice, "appears twice")
        order = order[num[order] != 0]
        g = math.gcd(den, *num[order].tolist())
        out._a, out._b, out._c, out._key = a[order], b[order], c[order], keys[order]
        out._num = num[order] // g
        out._den = den // g
        for x in (out._a, out._b, out._c, out._key, out._num):
            x.flags.writeable = False
        return out

    def _keys(self, a, b, c) -> np.ndarray:
        """One integer key per form within the bounds, increasing in canonical order:
        m − 2⁶² for (0, 0, m), below the positive `form_keys` of every definite form."""
        return np.where(a == 0, c - (1 << 62), form_keys(a, b, c, self.bound))

    def columns(self):
        """(a, b, c, numerators, denominator) of the nonzero entries in canonical
        order, as the stored read-only arrays."""
        return self._a, self._b, self._c, self._num, self._den

    @property
    def denominator(self) -> int:
        """The positive common denominator of the stored numerators."""
        return self._den

    def definite_upto(self, bound: int):
        """The columns a, b, c and numerators of the positive definite entries with disc ≤ bound."""
        a, b, c = self._a, self._b, self._c
        lo, hi = np.searchsorted(4 * a * c - b * b, [0, bound], side="right")
        return a[lo:hi], b[lo:hi], c[lo:hi], self._num[lo:hi]

    @property
    def entries(self):
        """The nonzero entries, read-only, in canonical order."""
        forms = zip(self._a.tolist(), self._b.tolist(), self._c.tolist())
        return MappingProxyType({t: Fraction(n, self._den)
                                 for t, n in zip(forms, self._num.tolist())})

    def coefficients(self, a, b, c) -> np.ndarray:
        """The numerators over `denominator` of the coefficients at the positive
        semidefinite forms (a[i], b[i], c[i]), any of them, as Python ints.

        The forms are reduced (`binforms.reduce_forms`), TruncationError is raised
        if any lies past `bound` or `singular_bound`, and the stored numerators are
        looked up by key, 0 where none is.  In odd weight a(T[U]) = det(U)^k·a(T),
        so each value is multiplied by det(U), and is 0 at an ambiguous form.
        """
        a, b, c, sign = reduce_forms(a, b, c)
        past = np.where(a == 0, c > self.singular_bound, 4 * a * c - b * b > self.bound)
        if past.any():
            i = int(np.argmax(past))
            raise TruncationError(f"form {(int(a[i]), int(b[i]), int(c[i]))} is beyond the "
                                  f"bound {self.bound}, singular bound {self.singular_bound}")
        out = np.zeros(len(a), dtype=object)
        # from_columns stores no coordinate of 2^30 or more; the rows below it are
        # cast to int64 and keyed as it keyed them
        i = np.flatnonzero(c < 1 << 30)
        if len(self._key) and len(i):
            keys = self._keys(*(x[i].astype(np.int64, copy=False) for x in (a, b, c)))
            j = np.minimum(np.searchsorted(self._key, keys), len(self._key) - 1)
            hit = self._key[j] == keys
            out[i[hit]] = self._num[j[hit]]
        if self.weight % 2:
            out *= np.where(is_ambiguous(a, b, c), 0, sign)
        return out

    def coefficient(self, t) -> Fraction:
        """The coefficient at one positive semidefinite form: a one-row `coefficients`."""
        return Fraction(self.coefficients(*([x] for x in t))[0], self._den)

    def is_zero(self) -> bool:
        return not len(self._num)

    def scale(self, c) -> "FourierExpansionSiegel2":
        c = Fraction(c)
        a, b, cc, num, den = self.columns()
        return FourierExpansionSiegel2.from_columns(
            self.weight, self.level, self.bound, a, b, cc, num * c.numerator,
            den * c.denominator, singular_bound=self.singular_bound)

    def agrees_with(self, other: "FourierExpansionSiegel2") -> bool:
        """Equality on the common validity range: the rows of both stores in it,
        compared in order (the keys of two expansions need not match).  UsageError
        unless both have the same weight and level."""
        _require_comparable(self, other)
        bound = min(self.bound, other.bound)
        sb = min(self.singular_bound, other.singular_bound)
        rows = []
        for f in (self, other):
            a, b, c = f._a, f._b, f._c
            keep = np.where(a == 0, c <= sb, 4 * a * c - b * b <= bound)
            rows.append([x[keep] for x in (a, b, c, f._num)])
        (*mine, x), (*theirs, y) = rows
        return (len(x) == len(y) and all((u == v).all() for u, v in zip(mine, theirs))
                and bool((x * other._den == y * self._den).all()))


def _require_comparable(f: FourierExpansionSiegel2, g: FourierExpansionSiegel2) -> None:
    """Refuse to compare two expansions of different weight or level."""
    if (f.weight, f.level) != (g.weight, g.level):
        raise UsageError(f"expansions of weight {f.weight}, level {f.level} and of weight "
                         f"{g.weight}, level {g.level} are not comparable")


class QExpansion:
    """Finite q-expansion m ↦ a(m) with weight and level metadata."""

    def __init__(self, weight: int, level: int, bound: int, coeffs=None):
        self.weight = require_int(weight, "weight")
        self.level = require_int(level, "level", 1)
        self.bound = require_int(bound, "bound")
        self.coeffs: dict[int, Fraction] = {}
        for m, v in (coeffs or {}).items():
            v = Fraction(v)
            if v:
                if not 0 <= m <= bound:
                    raise ValueError(f"coefficient {m} outside 0…{bound}")
                self.coeffs[int(m)] = v

    def coefficient(self, m: int) -> Fraction:
        if m > self.bound:
            raise TruncationError(f"coefficient {m} beyond bound {self.bound}")
        return self.coeffs.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs


# entries of H_a × (a block of H_c) per chunk of `ThetaEngine.table_sums`: its
# float64 buffers stay within 512 KiB each, as fast as 2 MiB on golden_lift
_CHUNK = 1 << 16
# rows of the H_c slice per block of `ThetaEngine.table_sums`
_BLOCK = 1 << 14


class ThetaEngine:
    """Half shells of one lattice, with norms rescaled by the ideal norm, and the
    pair-sum kernel on them.

    `shells` is the enumeration's array of half shells in increasing norm, and
    H_m is its rows start[m]:start[m + 1] for 0 ≤ m ≤ max_norm, with the
    offsets `start` taken from the kernel's integer norms.  `shells` has the
    kernel's dtype: the narrowest signed integer dtype that holds the kernel's
    bound on every coordinate (int8 for R₁ up to norm 3,660 and I₁₂ up to
    6,670, so for `golden_lift`'s engines up to bound 29,000), or object past
    int64; `table_sums` casts what it reads, a block at a time.  The first
    vectors of a row a are H_a, except in an engine made by `slab`, whose
    `head` is (a, {x₁}) and whose shells are only the x₂ that row a reads, in
    the narrowest dtype that holds their own largest coordinate, `coord_max`
    (the kernel's bound grows with the slab's Gram: int16 rows at bound 29,000,
    object from 30,000 on, where the coordinates stay below 128).
    """

    def __init__(self, lattice: Lattice, max_norm: int):
        max_norm = require_int(max_norm, "enumeration bound")
        g = lattice.normalized_gram()
        assert g.den == 1  # 2N/g with g = gcd(N_ii, 2·N_ij) is always integral
        self.lattice = lattice
        self.gram = g.num.astype(np.int64)
        self.max_norm = max_norm
        # one of each pair ±x per norm; the weights of bidegree (ν, ν) change by
        # (−1)^ν under x ↦ −x, so the half shells carry every pair sum.  The
        # kernel's integer norms vᵗGv = 2m and their first rows give the offsets
        shells = short_vectors_upto(g, max_norm)
        assert shells.den == 1 and not (shells.norms % 2).any()
        norms = shells.norms // 2
        self.start = shells.starts[np.searchsorted(norms, np.arange(max_norm + 2))]
        self.shells = shells.vecs
        self.coord_max = max(int(self.shells.max(initial=0)), -int(self.shells.min(initial=0)))
        self.head = None

    @classmethod
    def slab(cls, engine: "ThetaEngine", x1: np.ndarray, bound: int) -> "ThetaEngine":
        """The engine of one x₁ ∈ H_a: its row a is {x₁}, and its shells hold every
        x₂ that a form (a, b, c) with disc ≤ bound reads, of norms c ≤ (bound + a²)/(4a).

        Such an x₂ has b = wᵗx₂ with w = G·x₁, |b| ≤ a and 4a·q(x₂) − b² ≤ bound,
        so it lies in the ellipsoid x₂ᵗ(2a·G + (t − 1)·wwᵗ)x₂ ≤ bound + t·a², whose
        left side is 4a·q(x₂) − b² + t·b²; t = bound//(3a²) + 1 keeps it close to
        that slab.  One exact `short_vectors_upto` on this integer Gram gives one
        x₂ of each pair ±x₂, sorted here by q(x₂) with an offset per norm.  The
        engine's own `__init__` is not run.
        """
        x = np.array(x1, dtype=object)
        gram = engine.gram.astype(object)
        w = gram @ x
        a = int(w @ x) // 2
        t = bound // (3 * a * a) + 1
        # on Python ints: the Gram grows like bound·|w|²
        ellipsoid = linalg.Matrix(2 * a * gram + (t - 1) * np.outer(w, w))
        vecs = short_vectors_upto(ellipsoid, Fraction(bound + t * a * a, 2)).vecs
        v = vecs.astype(np.int64)
        norms = ((v @ engine.gram) * v).sum(axis=1) // 2
        order = np.argsort(norms, kind="stable")
        out = cls.__new__(cls)
        out.lattice, out.gram = engine.lattice, engine.gram
        out.max_norm = (bound + a * a) // (4 * a)
        out.start = np.searchsorted(norms[order], np.arange(out.max_norm + 2))
        out.head = (a, np.array([x1]))  # a copy: a view would keep engine.shells
        out.coord_max = max(int(np.abs(x).max()), int(np.abs(v).max(initial=0)))
        # the rows in the narrowest dtype of their own coordinates: the kernel's
        # bound on this Gram is far wider (object from bound 30,000 on)
        out.shells = v[order[:out.start[-1]]].astype(_narrow_dtype(out.coord_max))
        return out

    def half_shell(self, m: int) -> np.ndarray:
        """One vector of each pair ±x of norm m > 0, a slice of `shells`."""
        if m > self.max_norm:
            raise TruncationError("enumeration bound exceeded")
        return self.shells[self.start[m]:self.start[m + 1]] if m > 0 else self.shells[:0]

    def vecs(self, m: int) -> np.ndarray:
        """The vectors of norm m; m = 0 gives the single zero row."""
        if m == 0:
            return np.zeros((1, 4), dtype=self.shells.dtype)
        h = self.half_shell(m)
        return np.concatenate((h, -h))

    def table_sums(self, ta, tb, tc, mat: np.ndarray, nu: int) -> np.ndarray:
        """The pair sums of the definite forms (ta[i], tb[i], tc[i]), of any rows a,
        in the order given: an int64 array when every sum is below 2⁶², else an
        object array of Python ints.

        Each is Σ over x₁, x₂ with q(x₁) = a, q(x₂) = c, B(x₁, x₂) = b of
        M(x₁)ᵗ·mat·M(x₂), M(x) the degree-ν monomials of x.  ValueError unless a, c ≥ 1:
        pairs with a zero vector are singular entries, which `theta_lift` writes.
        The sums are one pass per row a over
        H_a × `shells[start[c_min]:start[c_max + 1]]`, the half shells of every norm
        from the row's least c to its largest.  What does not depend on the row is
        done once for the table: the forms sorted by (a, c), B(x₁, ·) = x₁·G and
        M(x₁)ᵗ·mat for the first vectors of every row, the tier bounds, the work
        buffers and the accumulator positions of every form.  A row reads its slice
        in blocks of `_BLOCK` rows, each cast to the working dtype once, and H_a in
        chunks of rows.  Its accumulator S⁺ holds a bin block per norm c₀…c₁ of
        the range, over b = −h … h with h = isqrt(4·a·c₁) (or the largest |b| asked
        for, if larger): every pair has b² ≤ 4ac ≤ 4ac₁ (Cauchy–Schwarz), so its
        bin is (c − c₀)·(2h + 1) + h + b, and no pair falls outside its norm's
        block.  The full sums are S(b) = 2·(S⁺(b) + (−1)^ν·S⁺(−b)).

        Exact in three tiers, picked per row by peak, a bound on
        max|M|²·Σ|mat|·|H_a|·max|H_c| (c over the range) that bounds every weight
        and every bin sum.  While 4·peak (the fold) and every partial sum of a bin
        index stay below `FLOAT64_EXACT` = 2⁵³, the row runs in float64: every
        integer it forms is then a float64, and every sum and product of them is
        exact in any order, so BLAS gives the same result on any number of threads.
        Each chunk is two `np.matmul` products and one `np.bincount`: [H_a·G | 1]
        by the block's rows [x₂ᵗ; bin base], which gives each pair's bin index
        directly, and M(H_a)ᵗ·mat by the block's monomials, the weights (the
        monomials and M(H_a)ᵗ·mat are formed in int64 before the cast).  Past
        that, int64 while 4·peak stays below 2⁶², otherwise object arrays of
        Python ints, both binned by `np.add.at`.  At ν = 0 the weight is the
        constant mat₀₀, so every tier counts pairs in int64 and multiplies by
        mat₀₀ once.  TruncationError on a norm past `max_norm`.
        """
        ta, tb, tc = (np.asarray(x, dtype=np.int64) for x in (ta, tb, tc))
        if not len(ta):
            return np.zeros(0, dtype=np.int64)
        if min(ta.min(), tc.min()) < 1:
            raise ValueError("the theta kernel sums pairs of nonzero vectors: "
                             "every form needs a ≥ 1 and c ≥ 1")
        start, sizes = self.start, np.diff(self.start)
        m00 = 1 if nu else int(mat[0, 0])
        # the forms by (a, c), and the first and last form of each row
        pos = np.lexsort((tc, ta))
        fa, fb, fc = ta[pos], tb[pos], tc[pos]
        firsts = np.flatnonzero(np.diff(fa, prepend=-1))
        ends = np.append(firsts[1:], len(pos))
        rows, c0s, c1s = fa[firsts], fc[firsts], fc[ends - 1]
        # the first vectors of every row: H_a, consecutive slices of the shells, or a
        # slab engine's {x₁}
        if self.head is None:
            if max(rows[-1], c1s.max()) > self.max_norm:
                raise TruncationError("enumeration bound exceeded")
            f0 = start[rows[0]]
            first = self.shells[f0:start[rows[-1] + 1]]
            h0s, h1s = start[rows] - f0, start[rows + 1] - f0
        else:
            if rows.tolist() != [self.head[0]]:
                raise ValueError(f"a slab engine holds the row a = {self.head[0]} only")
            if c1s.max() > self.max_norm:
                raise TruncationError("enumeration bound exceeded")
            first, h0s, h1s = self.head[1], np.array([0]), np.array([1])
        # bins b = −h … h per c, with h past every |b| of a pair and of a form;
        # each form's S⁺(b) and S⁺(−b) positions in its row's accumulator
        halves = np.maximum(np.maximum.reduceat(np.abs(fb), firsts),
                            [math.isqrt(4 * a * c) for a, c in zip(rows.tolist(), c1s.tolist())])
        span = ends - firsts
        plus = fc - np.repeat(c0s, span)
        plus *= np.repeat(2 * halves + 1, span)
        plus += np.repeat(halves, span)
        minus = plus - fb
        plus += fb
        del fa, fb, fc
        # B(x₁, x₂) = x₁·G·x₂ᵗ and M(x₁)ᵗ·mat, formed once for every first vector
        first = first.astype(np.int64)
        hg = first @ self.gram
        gmax = np.abs(hg).max(axis=1, initial=0)
        coord_max = max(self.coord_max, 1)
        matsum = sum(map(abs, mat.ravel().tolist()))
        hm = None
        if nu:
            # exact in int64 unless every row is in the object tier
            wide = 4 * coord_max ** nu * matsum >= INT64_SAFE
            hm = _monomial_rows(first, nu, object if wide else np.int64)
            hm = hm @ mat.astype(hm.dtype, copy=False)
        # every block's (5, n) rows, its chunks' bin indices and then weights, and
        # the indices as intp: three float64-tier buffers for the table, each as
        # large as its largest row needs, made when a row first needs them
        blocks = np.minimum(start[c1s + 1] - start[c0s], _BLOCK)
        n = int(blocks.max())
        size = int(np.minimum(np.maximum(_CHUNK, blocks), (h1s - h0s) * blocks).max())
        floats64 = None
        startl = start.tolist()
        fold = np.subtract if nu % 2 else np.add
        sums = np.zeros(len(pos), dtype=np.int64)
        big = []  # (rows, sums) of the object tier
        for k, (h0, h1, c0, c1, half) in enumerate(zip(h0s.tolist(), h1s.tolist(), c0s.tolist(),
                                                        c1s.tolist(), halves.tolist())):
            if h0 == h1 or startl[c0] == startl[c1 + 1]:
                continue
            peak = (coord_max ** (2 * nu) * matsum * (h1 - h0)
                    * int(sizes[c0:c1 + 1].max()))
            # float64 while every partial sum of a bin index (B, then the base below
            # (c₁ − c₀ + 1)·(2h + 1)), of a weight and of a bin stays below 2⁵³, so
            # that each is exact in any order
            if (4 * coord_max * int(gmax[h0:h1].max()) + (c1 - c0 + 1) * (2 * half + 1)
                    < FLOAT64_EXACT and 4 * peak < FLOAT64_EXACT):
                if floats64 is None:
                    g5 = np.ones((len(hg), 5))
                    g5[:, :4] = hg
                    floats64 = (g5, hm.astype(np.float64) if nu else None,
                                (np.empty(5 * n), np.empty(size), np.empty(size, dtype=np.intp)))
                g, w, bufs = floats64
                acc = self._bin_row(g[h0:h1], w[h0:h1] if nu else None, c0, c1, half, nu,
                                    np.float64, bufs, startl, sizes)
            else:
                dtype = np.int64 if 4 * peak < INT64_SAFE else object
                acc = self._bin_row(hg[h0:h1], hm[h0:h1].astype(dtype, copy=False) if nu else None,
                                    c0, c1, half, nu, dtype, None, startl, sizes)
            # (x₁, x₂) ↦ (−x₁, −x₂) keeps b and the weight; negating one of them
            # negates b and multiplies the weight by (−1)^ν.  Read at the forms
            # asked for only, so no temporary of the accumulator's size
            rs = slice(firsts[k], ends[k])
            if acc.dtype == object:
                big.append((rs, fold(acc[plus[rs]], acc[minus[rs]])))
            else:
                fold(acc[plus[rs]], acc[minus[rs]], out=sums[rs], casting="unsafe")
        # S = 2·(S⁺(b) ± S⁺(−b)), times mat₀₀ at ν = 0: the int64 and float64 tiers'
        # sums, then the object tier's
        sums = _times(sums, 2 * m00)
        out = np.empty(len(ta), dtype=object if big else sums.dtype)
        out[pos] = sums
        for rs, s in big:
            out[pos[rs]] = 2 * s
        return out

    def _bin_row(self, g, w, c0: int, c1: int, half: int, nu: int, dtype, bufs,
                 startl: list, sizes: np.ndarray) -> np.ndarray:
        """The accumulator S⁺ of one row: for each norm c0…c1 a bin block over
        b = −half … half, holding the sums over x₁ ∈ H_a and x₂ ∈ H_c of
        M(x₁)ᵗ·mat·M(x₂), given w = M(H_a)ᵗ·mat in the row's dtype and g = H_a·G,
        in float64 with a fifth column of ones.

        The slice of H_c is read in blocks of `_BLOCK` rows and H_a in chunks of
        rows.  Each x₂ of a block has a bin base, (c − m0)·(2·half + 1) + half
        with m0 the block's least norm, so a pair's bin is B(x₁, x₂) + base.  In
        float64, `bufs` holds the block's contiguous (5, n) rows x₂ᵗ and bases,
        and each chunk's products and bin indices; the other tiers form theirs
        and add the base.  `startl` and `sizes` are `start` as a list and the
        shell sizes.
        """
        width = 2 * half + 1
        acc = np.zeros((c1 - c0 + 1) * width, dtype=dtype if nu else np.int64)
        floats = dtype is np.float64
        for r0 in range(startl[c0], startl[c1 + 1], _BLOCK):
            r1 = min(r0 + _BLOCK, startl[c1 + 1])
            n = r1 - r0
            blk = self.shells[r0:r1]
            # the norms m0…m1 that the block meets, and its rows of each: the shell
            # sizes, less what lies outside the block of the first and the last
            m0 = bisect_right(startl, r0) - 1
            m1 = bisect_right(startl, r1 - 1) - 1
            counts = sizes[m0:m1 + 1]
            if startl[m0] < r0 or startl[m1 + 1] > r1:
                counts = counts.copy()
                counts[0] -= r0 - startl[m0]
                counts[-1] -= startl[m1 + 1] - r1
            base = np.repeat(np.arange(half, (m1 - m0 + 1) * width, width), counts)
            if floats:
                vt = bufs[0][:5 * n].reshape(5, n)
                np.copyto(vt[:4], blk.T)
                vt[4] = base
                xt = vt[:4]
            else:
                xt = blk.astype(np.int64).T
            if nu > 1:
                mt = _monomial_rows(blk.astype(np.int64), nu, np.int64 if floats else dtype).T
                mt = np.ascontiguousarray(mt, dtype=np.float64) if floats else mt
            else:
                mt = xt  # M(x) = x at ν = 1, and unread at ν = 0
            bins = acc[(m0 - c0) * width:(m1 - c0 + 1) * width]
            step = max(1, _CHUNK // n)
            for r in range(0, len(g), step):
                part = slice(r, r + step)
                if floats:
                    m = min(step, len(g) - r)
                    f, idx = bufs[1][:m * n].reshape(m, n), bufs[2][:m * n].reshape(m, n)
                    np.copyto(idx, np.matmul(g[part], vt, out=f), casting="unsafe")
                else:
                    idx = g[part] @ xt
                    idx += base
                if not nu:
                    bins += np.bincount(idx.ravel(), minlength=len(bins))
                elif floats:
                    np.matmul(w[part], mt, out=f)  # the weights, over the indices
                    bins += np.bincount(idx.ravel(), weights=f.ravel(), minlength=len(bins))
                else:
                    np.add.at(bins, idx.ravel(), (w[part] @ mt).ravel())
        return acc

    def pair_sums_bilinear(self, a: int, c: int, mat: np.ndarray, nu: int) -> dict[int, int]:
        """For all b: Σ over pairs (x₁, x₂) with q = (a, b, c) of M(x₁)ᵗ·mat·M(x₂).

        M(x) holds x's degree-ν monomials, so ν = 1 is the bilinear form xᵗ·mat·y.
        One `table_sums` call, so a, c ≥ 1.
        """
        bmax = math.isqrt(4 * a * c)  # |B(x₁, x₂)|² ≤ 4·q(x₁)·q(x₂)
        bs = np.arange(-bmax, bmax + 1)
        sums = self.table_sums(np.full(len(bs), a), bs, np.full(len(bs), c), mat, nu)
        return {b: s for b, s in zip(bs.tolist(), sums.tolist()) if s}

    def pair_counts(self, a: int, c: int) -> dict[int, int]:
        """For all b: the number of pairs with q = (a, b, c)."""
        return self.pair_sums_bilinear(a, c, np.ones((1, 1), dtype=np.int64), 0)


def _add_times(totals: np.ndarray, at: slice, x: np.ndarray, k: int) -> np.ndarray:
    """totals with k·x added at `at`: int64 totals while an int64 x keeps every
    total below 2⁶², else Python ints, with an int64 x converted a slice of
    `_CHUNK` at a time, so that no more than one slice of it is Python ints."""
    if totals.dtype != object and x.dtype != object:
        peak = abs(k) * int(np.abs(x).max(initial=0)) + int(np.abs(totals[at]).max(initial=0))
        if peak < INT64_SAFE:
            totals[at] += x * k
            return totals
    if totals.dtype != object:
        totals = totals.astype(object)
    part = totals[at]
    for i in range(0, len(x), _CHUNK):
        part[i:i + _CHUNK] += _times(x[i:i + _CHUNK], k)
    return totals


def _times(x: np.ndarray, k: int) -> np.ndarray:
    """The int64 array x times k: in int64 when no product can pass 2⁶², else as
    Python ints; an object array x times k."""
    if x.dtype != object and abs(k) * max(int(np.abs(x).max(initial=0)), 1) < INT64_SAFE:
        return x * k
    return x.astype(object) * k


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


def theta_lift(terms, nu: int, level: int, bound: int,
               singular_bound: int | None = None) -> FourierExpansionSiegel2:
    """Σ over terms (L, C, scale) of scale·θ(L, m_ν(x₁)ᵗ·C·m_ν(x₂)), weight ν + 2.

    C is a rational matrix on degree-ν monomials in `monomials_of_degree(4, ν)`
    order, as `harmonic.lift_matrix_deg2` returns it; a list of rational rows
    works too.  Each engine runs the definite forms `form_table(bound)` in one
    `ThetaEngine.table_sums` call (but for a row 1 on slabs), and at ν = 0 adds
    C₀₀·r_L(m) at the singular forms (0, 0, m), m ≤ singular_bound: r_L(0) = 1,
    r_L(m) = 2·|H_m| (0 at ν ≥ 1, where M(0) = 0).  Each engine enumerates L to
    `_engine_norm`: the largest c of the rows a ≥ 2, (bound + 4)//8, and at
    ν = 0 the singular range.  Row a = 1 reads c up to (bound + 1)//4; when
    that reaches past the engine, it is summed per x₁ ∈ H₁ on
    `ThetaEngine.slab`, 12,256 rows at bound 2600 where R₁'s norms 326…650
    hold 184,191, and a lattice without norm-1 vectors builds none.  Every
    piece's factor scale/den is written n/D over one common denominator D, and
    each engine's sums are added n times into the totals, int64 while every
    total stays below 2⁶² (`_add_times`).  The engines are built one at a
    time: each runs the table and is dropped before the next one enumerates.
    UsageError on a degree, bound or singular bound that is not a nonnegative
    integer, before any engine is built.
    """
    nu, bound = require_int(nu, "harmonic degree"), require_int(bound, "bound")
    if singular_bound is None:
        singular_bound = _default_singular_bound(bound)
    FourierExpansionSiegel2(nu + 2, level, bound, singular_bound)  # the header's checks
    ta, tb, tc = form_table(bound)
    max_norm = _engine_norm(ta, tc, nu, singular_bound)
    # one table: at ν = 0 the singular forms (0, 0, m) (M(0) = 0 otherwise), the
    # definite ones, and row 1 last when its largest c reaches past the engines
    far = (ta == 1) & (tc[ta == 1].max(initial=0) > max_norm)
    nfar = int(far.sum())
    ns = 0 if nu else singular_bound + 1
    zero = np.zeros(ns, dtype=np.int64)
    order = np.argsort(far, kind="stable")
    ta, tb, tc = (np.concatenate((s, x[order]))
                  for s, x in ((zero, ta), (zero, tb), (np.arange(ns), tc)))
    del order
    near, far = slice(ns, len(ta) - nfar), slice(len(ta) - nfar, None)
    pieces = []
    for lattice, weight, scale in terms:
        mat, den = linalg.integer_form(weight)
        pieces.append((lattice, np.array(mat, dtype=np.int64), Fraction(scale) / den))
    common = math.lcm(*(f.denominator for _, _, f in pieces))
    totals = np.zeros(len(ta), dtype=np.int64)
    for lattice, mat, f in pieces:
        # one engine at a time: it runs the whole table and is dropped before the next
        engine = ThetaEngine(lattice, max_norm)
        n = int(f * common)
        totals = _add_times(totals, near,
                            engine.table_sums(ta[near], tb[near], tc[near], mat, nu), n)
        if nfar:
            # row 1 on one slab engine per x₁ ∈ H₁, read from a copy of H₁: an x₁
            # left after the loop would keep the engine's shells
            args = ta[far], tb[far], tc[far], mat, nu
            for x1 in engine.half_shell(1).copy():
                totals = _add_times(totals, far,
                                    ThetaEngine.slab(engine, x1, bound).table_sums(*args), n)
        if ns:
            # (0, 0, m): the lattice's theta series times the weight mat₀₀, the
            # zero vector once and then 2·|H_m| vectors
            counts = 2 * np.diff(engine.start[:ns + 1])
            counts[0] = 1
            totals = _add_times(totals, slice(ns), counts, n * int(mat[0, 0]))
        del engine
    return FourierExpansionSiegel2.from_columns(nu + 2, level, bound, ta, tb, tc, totals, common,
                                                singular_bound=singular_bound)


def _engine_norm(ta: np.ndarray, tc: np.ndarray, nu: int, singular_bound: int) -> int:
    """The norm every engine of `theta_lift` enumerates to: the largest c of the
    rows a ≥ 2 and the largest a of the forms (ta, tc), and at ν = 0 the singular
    range, which by default, (bound + 1)//3, is past row 1's (bound + 1)//4."""
    return max(int(tc[ta > 1].max(initial=0)), int(ta.max(initial=0)),
               0 if nu else singular_bound)


def _default_singular_bound(bound: int) -> int:
    # the singular range a lift stores unless told otherwise; serialized expansions
    # record it.  It is not the largest c of a reduced form: those with
    # disc ≤ bound have c ≤ (bound + 1)//4, reached at a = |b| = 1.
    return max((bound + 1) // 3, 1)


def yoshida2(cs: ClassSet, phi1: AutomorphicForm, phi2: AutomorphicForm, bound: int,
             space1: FormSpace | None = None,
             singular_bound: int | None = None) -> FourierExpansionSiegel2:
    """Degree-2 lift: coefficient(T) = Σ_ij φ₂(y_j)·(1/e_ie_j)·θ(cross(i,j), P_{φ₁(y_i)})(T).

    φ₂ must have ν = 0 (scalar second factor); the result has weight ν₁ + 2.  At
    ν₁ = 0 the pieces (i, j) and (j, i) are one lattice (`_scalar_terms`).
    """
    bound = require_int(bound, "bound")
    if phi2.nu != 0:
        raise UsageError("only a scalar second factor is supported (ν₂ = 0)")
    nu1 = phi1.nu
    _require_space(cs, nu1, space1, phi1)
    _require_space(cs, 0, None, phi2)
    if not nu1:
        return theta_lift(_scalar_terms(cs, phi1, phi2), 0, cs.order.level, bound, singular_bound)
    harm = FormSpace(cs, nu1).space
    terms = []
    for i in range(cs.h):
        if not any(phi1.values[i]):
            continue
        for j in range(cs.h):
            wj = phi2.values[j][0]
            if not wj:
                continue
            cross = cs.cross_lattice(i, j)
            weight = lift_matrix_deg2(harm, phi1.values[i], cross)
            if not weight.num.any():
                continue
            scale = wj / (Fraction(cs.unit_counts[i] * cs.unit_counts[j])
                          * cross.norm_scale ** nu1)
            terms.append((cross, weight, scale))
    return theta_lift(terms, nu1, cs.order.level, bound, singular_bound)


def _scalar_terms(cs: ClassSet, phi1: AutomorphicForm, phi2: AutomorphicForm) -> list:
    """`yoshida2`'s terms at ν = 0: one per unordered pair {i, j}, on cross(i, j), i ≤ j.

    The weight of piece (i, j) is the constant φ₁(y_i) (the degree-0 harmonic basis
    is 1), so the piece is a pair count.  cross(j, i) is the conjugate of
    cross(i, j) up to the norm scale, which `normalized_gram` removes, and
    conjugation is an isometry of the norm form: both count the same pairs.  So
    piece (j, i) folds into piece (i, j) with the scale
    (φ₁(y_i)·φ₂(y_j) + φ₁(y_j)·φ₂(y_i))/(e_i·e_j).
    """
    scales: dict[tuple[int, int], Fraction] = {}
    for i in range(cs.h):
        for j in range(cs.h):
            s = phi1.values[i][0] * phi2.values[j][0] / (cs.unit_counts[i] * cs.unit_counts[j])
            key = (min(i, j), max(i, j))
            scales[key] = scales.get(key, 0) + s
    return [(cs.cross_lattice(i, j), [[1]], s) for (i, j), s in scales.items() if s]


def yoshida1(cs: ClassSet, phi1: AutomorphicForm, phi2: AutomorphicForm,
             bound: int) -> QExpansion:
    """Degree-1 lift a(m) = ⟨φ₁, T̃(m)·φ₂⟩, a matrix coefficient of `brandt_series`.

    With w_i = φ₁(y_i)·P/e_i, a(m) = Σ_ij φ₂(y_j)·B_ij(m)·w_iᵗ for every m ≥ 1 is one
    product: the series, a row per m (cached in `cs.series_rows`), by the rows
    w_i ⊗ φ₂(y_j).  At ν = 0, x = 0 adds a(0) = ⟨φ₁, 1⟩·⟨1, φ₂⟩.  In this order
    T_p·Y₁(φ, ψ) = Y₁(T̃_pφ, ψ) (Eichler, LNM 320, 1973).
    """
    bound = require_int(bound, "bound")
    if phi1.nu != phi2.nu:
        raise UsageError("degree-1 lift requires equal harmonic degrees")
    nu = phi1.nu
    _require_space(cs, nu, None, phi1, phi2)
    space = FormSpace(cs, nu)
    coeffs = {}
    if bound >= 1:
        if (nu, bound) not in cs.series_rows:
            # row m: the entries of every B_ij(m)ᵗ, in the order (i, j, column, row)
            rows = linalg.vstack([block.T for b in brandt_series(cs, nu, bound)
                                  for row in b.blocks for block in row])
            cs.series_rows[nu, bound] = linalg.Matrix(rows.num.reshape(bound, -1), rows.den)
        w = linalg.frac_mat([[x / e for x in u] for u, e in zip(phi1.values, cs.unit_counts)])
        pairs = linalg.outer_rows(w @ space.space.pairing_matrix, linalg.frac_mat(phi2.values))
        a = cs.series_rows[nu, bound] @ linalg.Matrix(pairs.num.reshape(-1, 1), pairs.den)
        coeffs = dict(enumerate(a.T[0], start=1))
    if nu == 0:
        one = constant_form(cs)
        coeffs[0] = inner_product(phi1, one, cs) * inner_product(one, phi2, cs)
    return QExpansion(2 + 2 * nu, cs.order.level, bound, coeffs)


def phi_operator(f: FourierExpansionSiegel2) -> QExpansion:
    """Siegel Φ-operator on the expansion: m ↦ a([m, 0, 0]), the store's singular rows."""
    a, _, c, num, den = f.columns()
    singular = a == 0
    return QExpansion(f.weight, f.level, f.singular_bound,
                      {m: Fraction(n, den) for m, n in zip(c[singular].tolist(),
                                                            num[singular].tolist())})


def is_cuspidal_up_to_bound(f: FourierExpansionSiegel2) -> bool:
    """Zero Φ-image and vanishing singular coefficients within the stored range."""
    return phi_operator(f).is_zero()
