"""Definite quaternion algebras over Q with exact rational arithmetic.

Elements, lattices (orders and ideals), Gram matrices, short-vector
enumeration, ideal classes and two-sided ideals.  Everything is immutable
after construction and deterministic: vector lists are lexicographically
sorted (half shells are ordered by norm only), class representatives are
produced in BFS discovery order.

Lattice bases, Gram matrices and the multiplication table are `linalg.Matrix`
(integers over one denominator): all products of elements go through the
table, as (a ⊗ b)·table, so a lattice product or a multiplication matrix is one
integer product.  Element coordinates are Fractions.

Short vectors come from `short_vectors_upto`, which stays exact without any
Fraction inside the loop.  The size-reduced Gram matrix is scaled to integers
by its common denominator and factored fraction-free (leading minors Δ_i), so
each coordinate's Fincke–Pohst range is an integer inequality x² ≤ Δ_i·rem
that isqrt decides exactly; the ranges therefore hold every solution.

It has two strategies, picked by size before it enumerates: the ellipsoid
vᵗGv ≤ bound is expected to hold about V_n·bound^(n/2)/√Δ_n lattice points.
Below `_SMALL_ENUMERATION` of them a depth-first recursion on Python ints
walks the same ranges (`_small_half_shells`), since numpy's fixed cost per
call would outweigh the few vectors; above it the numpy kernel runs.  Both
give the same rows in the same order and dtypes.

In the numpy kernel the prefixes (v_{i+1}, …, v_{n−1}) are carried as one
contiguous array per coordinate.  The leaf coordinate v₀, where nearly all the
vectors are, is expanded in cache-sized chunks of prefixes (`_LEAF_BUDGET`
leaves): per prefix, vᵗGv = g₀₀·v₀² + l·v₀ + q and v·U = w + v₀·U₀, so a leaf
costs a few elementwise operations and is recorded as its norm, its prefix and
v₀.  Membership is then decided by the integer norm test 0 < vᵗGv ≤ bound
alone.  Before enumerating, a bound on every intermediate integer picks the
array dtype: int64 when it stays below 2⁶², otherwise object arrays of Python
ints running the same code.

The kernel has one output, half shells: one of each ±v, the one whose last
nonzero reduced coordinate is positive, ordered by norm only, by a stable sort
of the leaf records that runs before the rows are built.  They come as a
`HalfShells`: one array of rows in the narrowest signed dtype that holds the
kernel's coordinate bound, with integer norms and offsets.  Every weight summed
over a shell is even in v (a τ-matrix is quadratic in v, a theta weight of
bidegree (ν, ν) is even over the pair), so theta engines and Brandt blocks
sum over half shells and double.  `short_vectors` is the one
full-shell list: H_m ∪ −H_m sorted lexicographically.  Callers that feed
coordinates into Fractions convert rows with `.tolist()`, because a Fraction
built from a numpy integer keeps a numpy numerator.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .linalg import INT64_SAFE, Matrix


class UsageError(ValueError):
    """Raised when an operation's preconditions are violated."""


class QuaternionAlgebra:
    """Rank-4 rational algebra given by structure constants f_i·f_j = Σ_k c[i][j][k]·f_k."""

    def __init__(self, structure_constants, unit_coords, name: str = "D"):
        self.c = tuple(tuple(tuple(Fraction(x) for x in vec) for vec in row)
                       for row in structure_constants)
        # row 4i + j: the coordinates of f_i·f_j
        self.table = linalg.frac_mat([vec for row in self.c for vec in row])
        self.one = tuple(Fraction(x) for x in unit_coords)
        self.name = name
        self.trace_vec = self._trace_vector()
        self.bilinear = self._bilinear_matrix()
        self._norm_form = (self.bilinear.num.tolist(), 2 * self.bilinear.den)

    def basis_element(self, i: int) -> "QuatElement":
        return QuatElement(self, [Fraction(int(j == i)) for j in range(4)])

    def unit(self) -> "QuatElement":
        return QuatElement(self, self.one)

    def products(self, a, b) -> Matrix:
        """Row m·s + t (b with m rows) is the coordinate row of a_s·b_t, (a_s ⊗ b_t)·table."""
        return linalg.outer_rows(linalg.frac_mat(a), linalg.frac_mat(b)) @ self.table

    def mul_coords(self, a, b) -> tuple[Fraction, ...]:
        return tuple(self.products([a], [b])[0])

    def _trace_vector(self) -> tuple[Fraction, ...]:
        # tr is the unique linear form with x + x̄ = tr(x)·1 and tr(1) = 2;
        # for a quaternion algebra tr(x) equals the trace of left multiplication
        # by x on the algebra, divided by 2: tr(f_i) = Σ_j c_ijj / 2
        t = self.table.num.reshape(4, 4, 4).trace(axis1=1, axis2=2)
        return tuple(Fraction(int(x), 2 * self.table.den) for x in t)

    def trace(self, coords) -> Fraction:
        return sum(t * x for t, x in zip(self.trace_vec, coords))

    def conj_coords(self, coords) -> tuple[Fraction, ...]:
        t = self.trace(coords)
        return tuple(t * o - x for o, x in zip(self.one, coords))

    def norm(self, coords) -> Fraction:
        # n(x) = B(x, x)/2 on the integer trace form B = N/d: with x = v/e,
        # n(x) = vᵗ·N·v/(2·d·e²)
        e = math.lcm(*(c.denominator for c in coords))
        v = [c.numerator * (e // c.denominator) for c in coords]
        form, den = self._norm_form
        return Fraction(sum(x * sum(b * y for b, y in zip(row, v)) for x, row in zip(v, form)),
                        den * e * e)

    def _bilinear_matrix(self) -> Matrix:
        # B(x, y) = tr(x·ȳ), on the algebra basis: row 4i + j of the products is f_i·f̄_j
        traces = self.products(linalg.identity(4), self.conj_matrix) @ linalg.frac_mat(
            [[t] for t in self.trace_vec])
        return Matrix(traces.num.reshape(4, 4), traces.den)

    @cached_property
    def conj_matrix(self) -> Matrix:
        """coords(x̄) = coords(x)·K, K = trᵗ·1 − I."""
        k = [[t * o for o in self.one] for t in self.trace_vec]
        return linalg.frac_mat(k) - linalg.identity(4)

    def left_mul_matrix_coords(self, b) -> Matrix:
        """Row i = coords of b·f_i (so coords(b·x) = coords(x)·M)."""
        return self.products([b], linalg.identity(4))

    def right_mul_matrix_coords(self, b) -> Matrix:
        """Row i = coords of f_i·b (so coords(x·b) = coords(x)·M)."""
        return self.products(linalg.identity(4), [b])

    def validate(self) -> None:
        """Check the algebra axioms on the basis; raises on failure."""
        basis = [self.basis_element(i) for i in range(4)]
        one = self.unit()
        for x in basis:
            if one * x != x or x * one != x:
                raise ValueError("unit law fails")
        # row 16i + 4j + k: (f_i·f_j)·f_k on the left, f_i·(f_j·f_k) on the right
        eye = linalg.identity(4)
        if self.products(self.table, eye) != self.products(eye, self.table):
            raise ValueError("multiplication is not associative")
        for x in basis:
            xb = x.conj()
            if x + xb != one * x.trace():
                raise ValueError("x + conj(x) != tr(x)")
            if x * xb != one * x.norm():
                raise ValueError("x·conj(x) != n(x)")
        g = self.bilinear
        if g != linalg.transpose(g):
            raise ValueError("trace form is not symmetric")
        if not is_positive_definite(g):
            raise ValueError("trace form is not positive definite (algebra not definite)")


class QuatElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: QuaternionAlgebra, coords):
        self.algebra = algebra
        self.coords = tuple(Fraction(x) for x in coords)
        if len(self.coords) != 4:
            raise ValueError("quaternion elements have 4 coordinates")

    def _check(self, other: "QuatElement") -> None:
        if self.algebra is not other.algebra:
            raise UsageError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return QuatElement(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return QuatElement(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return QuatElement(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, QuatElement):
            self._check(other)
            return QuatElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        return QuatElement(self.algebra, [a * Fraction(other) for a in self.coords])

    def __rmul__(self, other):
        return QuatElement(self.algebra, [Fraction(other) * a for a in self.coords])

    def __truediv__(self, scalar):
        return QuatElement(self.algebra, [a / Fraction(scalar) for a in self.coords])

    def conj(self) -> "QuatElement":
        return QuatElement(self.algebra, self.algebra.conj_coords(self.coords))

    def trace(self) -> Fraction:
        return self.algebra.trace(self.coords)

    def norm(self) -> Fraction:
        return self.algebra.norm(self.coords)

    def inverse(self) -> "QuatElement":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("element has norm 0")
        return self.conj() / n

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, QuatElement) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"QuatElement{self.coords}"


def is_positive_definite(g) -> bool:
    try:
        _int_ldl(linalg.frac_mat(g).num.tolist())
    except ValueError:
        return False
    return True


def _gauss_reduce_gram(g: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Exact pairwise size reduction of an integer Gram matrix (no floats, no LLL).

    Returns (G', U) with G' = U·G·Uᵗ small enough for enumeration; U unimodular.
    A rational Gram matrix is reduced as d·G: the steps depend on ratios only.
    """
    n = len(g)
    g = [row[:] for row in g]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        order = sorted(range(n), key=lambda i: g[i][i])
        for j in order:
            for i in range(n):
                if i == j or g[j][j] == 0:
                    continue
                # nearest integer to G_ij / G_jj: ⌊(2G_ij + G_jj) / 2G_jj⌋
                k = (2 * g[i][j] + g[j][j]) // (2 * g[j][j])
                if k == 0:
                    continue
                new_diag = g[i][i] - 2 * k * g[i][j] + k * k * g[j][j]
                if new_diag >= g[i][i]:
                    continue
                changed = True
                for t in range(n):
                    u[i][t] -= k * u[j][t]
                for t in range(n):
                    g[i][t] -= k * g[j][t]
                for t in range(n):
                    g[t][i] -= k * g[t][j]
    return g, u


def _int_ldl(g: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL of an integer Gram matrix, by Bareiss elimination.

    Returns the leading principal minors Δ₀ = 1, Δ₁, …, Δₙ and the integer
    matrix M[j][i] = Δ_{i+1}·L[j][i], where G = L·diag(Δ_{i+1}/Δ_i)·Lᵗ.  At
    step i the Bareiss entry in row j ≥ i of column i is exactly M[j][i].
    Raises ValueError unless G is positive definite (Δ_i > 0 for all i).
    """
    n = len(g)
    a = [row[:] for row in g]
    minors = [1]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        if a[i][i] <= 0:
            raise ValueError("matrix is not positive definite")
        minors.append(a[i][i])
        for j in range(i, n):
            m[j][i] = a[j][i]
        for j in range(i + 1, n):
            for t in range(i + 1, n):
                a[j][t] = (a[i][i] * a[j][t] - a[j][i] * a[i][t]) // minors[i]
    return minors, m


@lru_cache(maxsize=128)
def _reduced_gram(g: tuple[int, ...], n: int):
    """(G', U, Δ, M) of `_gauss_reduce_gram` and `_int_ldl` for the n×n integer Gram
    matrix with flat row-major entries g, as tuples.

    Cached per Gram matrix: a pipeline that enumerates the same lattices many
    times (class sets, Brandt matrices) reduces each Gram once.  The entries
    are tuples, so a caller cannot change what a later call reads, and the
    key is one flat tuple, the smallest hashable form of the matrix.  An
    eichler iteration at levels 17 and 34 meets about 60 distinct ones.
    """
    gint, u = _gauss_reduce_gram([list(g[i:i + n]) for i in range(0, n * n, n)])
    minors, m = _int_ldl(gint)
    return tuple(map(tuple, gint)), tuple(map(tuple, u)), tuple(minors), tuple(map(tuple, m))


def _vmax(minors: list[int], m: list[list[int]], bound: int) -> tuple[list[int], list[int]]:
    """Bounds vmax[i] on |v_i| and on the range ends lo, hi of every reduced
    coordinate, and bounds on the integers each level of the enumeration forms."""
    n = len(m)
    vmax = [0] * n
    terms = []
    for i in range(n - 1, -1, -1):
        room = minors[i] * minors[i + 1] * bound  # ≥ Δ_i·rem ≥ x²
        root = math.isqrt(room) + 1
        center = sum(abs(m[j][i]) * vmax[j] for j in range(i + 1, n))
        vmax[i] = (root + center) // minors[i + 1] + 1
        terms += [room + 2 * root, minors[i + 1] * vmax[i] + center + root]
    return vmax, terms


def _coordinate_bound(u: list[list[int]], vmax: list[int]) -> int:
    """A bound on every coordinate of v·U when |v_i| ≤ vmax[i]."""
    n = len(u)
    return max(sum(vmax[i] * abs(u[i][t]) for i in range(n)) for t in range(n))


def _magnitude(g: list[list[int]], vmax: list[int], terms: list[int], coord: int) -> int:
    """An upper bound on the absolute value of every integer the enumeration forms,
    from `_vmax`'s bounds and `_coordinate_bound`'s bound coord."""
    n = len(g)
    # every partial sum of vᵗGv, and so the leaf level's l·v₀, q and g₀₀·v₀²
    quad = sum(vmax[a] * abs(g[a][b]) * vmax[b] for a in range(n) for b in range(n))
    return max(*terms, quad, coord)


def _isqrt(x: np.ndarray, below_2_52: bool = False) -> np.ndarray:
    """Elementwise floor(sqrt(x)) for x ≥ 0, exact for int64 (< 2⁶²) and object arrays.

    Below 2⁵² (`below_2_52`) x converts to float exactly and the floor of its
    correctly rounded square root is already exact: the corrections are skipped.
    """
    if x.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(x)
    s = np.sqrt(x).astype(np.int64)
    if not below_2_52:
        s -= s * s > x
        s += (s + 1) * (s + 1) <= x
    return s


# The leaf coordinate v₀ is expanded a chunk of prefixes at a time, each chunk
# holding at most this many leaves (or one prefix's range): a chunk's working
# arrays, about 60 bytes a leaf (1 MB in all), stay in the CPU's L2 cache.
_LEAF_BUDGET = 1 << 14

# An ellipsoid expected to hold fewer lattice points than this is enumerated
# depth first on Python ints (`_small_half_shells`), at 1–2 µs a vector; the
# numpy kernel pays about 0.13 ms a call in fixed numpy calls (0.2 ms within
# the eichler pipeline in a fresh process) whatever the size.  Measured on a
# 2-vCPU Xeon, the two take equal time at 100–150 expected points.
_SMALL_ENUMERATION = 100


def _expected_points(minors: list[int], bound: int) -> float:
    """V_n·bound^(n/2)/√Δ_n: the volume of the ellipsoid vᵗGv ≤ bound, about the
    number of lattice points in it (V_n the volume of the unit n-ball)."""
    n = len(minors) - 1
    # in logarithms: bound and Δ_n can be past float range
    return math.exp(n / 2 * (math.log(math.pi) + math.log(bound)) - math.lgamma(n / 2 + 1)
                    - math.log(minors[n]) / 2)


def _small_norm(g: Matrix) -> Fraction:
    """The largest norm whose ellipsoid vᵗGv ≤ 2·norm `_expected_points` puts below
    `_SMALL_ENUMERATION`: `short_vectors_upto` takes the Python-int path to any norm
    up to it, at about the fixed cost of one call whatever the norm."""
    g = linalg.frac_mat(g)
    n = len(g)
    minors = _reduced_gram(tuple(g.num.ravel().tolist()), n)[2]
    # the count grows like bound^(n/2): a float estimate, then exact steps on the test itself
    bound = int((_SMALL_ENUMERATION / _expected_points(minors, 1)) ** (2 / n))
    while bound > 0 and _expected_points(minors, bound) >= _SMALL_ENUMERATION:
        bound -= 1
    while _expected_points(minors, bound + 1) < _SMALL_ENUMERATION:
        bound += 1
    return Fraction(bound, 2 * g.den)


_SIGNED = tuple((np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32, np.int64))


def _narrow_dtype(bound: int):
    """The narrowest signed integer dtype that holds −bound…bound."""
    return next(t for top, t in _SIGNED if bound <= top)


class HalfShells(Mapping):
    """The half shells of `short_vectors_upto` as integer columns.

    `vecs` holds every vector, in increasing norm; the k-th distinct norm is
    norms[k]/(2·den) and its vectors are the rows starts[k]:starts[k + 1]
    (`starts` ends with len(vecs)).  As a mapping it is the buckets, each norm
    (a Fraction) ↦ its row slice of `vecs`, made when asked for.
    """

    def __init__(self, vecs: np.ndarray, norms: np.ndarray, starts: np.ndarray, den: int):
        self.vecs, self.norms, self.starts, self.den = vecs, norms, starts, den

    def __len__(self) -> int:
        return len(self.norms)

    def __iter__(self):
        return (Fraction(x, 2 * self.den) for x in self.norms.tolist())

    def __getitem__(self, m) -> np.ndarray:
        x = 2 * self.den * Fraction(m)
        k = int(np.searchsorted(self.norms, x.numerator)) if x.denominator == 1 else len(self)
        if k == len(self) or int(self.norms[k]) != x:
            raise KeyError(m)
        return self.vecs[self.starts[k]:self.starts[k + 1]]


def short_vectors_upto(g: Matrix, max_norm) -> HalfShells:
    """Half of the integer vectors v != 0 with vᵗGv ≤ 2·max_norm, bucketed by vᵗGv/2.

    Each bucket H_m holds exactly one of every pair ±v of norm m, the one whose
    last nonzero reduced coordinate is positive; every caller's sum is even in
    v, or it takes H_m ∪ −H_m (`short_vectors`).  G must be positive definite.
    The size reduction and LDL of G's integer numerator come from the
    `_reduced_gram` cache.

    The result is a `HalfShells`: one array of rows ordered by one stable
    argsort of the norms alone (within a bucket, in the order the enumeration
    meets them), with each norm's integer numerator and first row, so the
    buckets are consecutive row slices, in increasing norm, of that array.  Its
    entries are the narrowest signed integer dtype that holds the kernel's own
    bound on every coordinate (from the bounds on the reduced coordinates and U,
    never from the rows), or object (Python ints) when an intermediate integer
    could pass int64.

    An ellipsoid expected to hold fewer than `_SMALL_ENUMERATION` lattice
    points goes to `_small_half_shells`, which returns the same rows, norms and
    offsets in the same dtypes; the rest go to the numpy kernel below.  There
    the leaf coordinate v₀ is expanded in chunks of at most `_LEAF_BUDGET`
    leaves.  Each kept leaf is recorded as its norm (the narrowest unsigned
    dtype that holds the bound), its prefix (int32) and its v₀ (the narrowest
    dtype that holds the kernel's bound on it).  The records are put in their
    final order, each released before the next copy is made, and the rows are
    then built from them a chunk at a time, by a `take` of the per-prefix rows
    of v·U.  The memory peak is that sort: the records, one more record and the
    8-byte argsort index (and numpy's 8-byte radix buffer), about 24 bytes a
    vector, of which tracemalloc sees 21 on R₁ to norm 650.
    """
    g = linalg.frac_mat(g)
    n, den = len(g), g.den
    # U is unimodular, so the least common denominator of U·G·Uᵗ is that of G
    gint, u, minors, m = _reduced_gram(tuple(g.num.ravel().tolist()), n)
    max_norm = Fraction(max_norm)
    bound = 2 * max_norm.numerator * den // max_norm.denominator
    if bound <= 0:
        return HalfShells(np.empty((0, n), dtype=np.int8), np.empty(0, dtype=np.int64),
                          np.zeros(1, dtype=np.intp), den)
    vmax, terms = _vmax(minors, m, bound)
    coord = _coordinate_bound(u, vmax)
    magnitude = _magnitude(gint, vmax, terms, coord)
    dtype = object if magnitude >= INT64_SAFE else np.int64
    # the rows in the narrowest dtype that holds every coordinate of v·U
    out_dtype = _narrow_dtype(coord) if dtype is np.int64 else dtype
    if _expected_points(minors, bound) < _SMALL_ENUMERATION:
        # the kernel's rows, norms and offsets, with its dtypes
        norm_dtype = np.min_scalar_type(bound) if dtype is np.int64 else dtype
        return _small_half_shells(gint, u, minors, m, bound, out_dtype, norm_dtype, den)
    # Breadth-first over the coordinates v_{n-1}, …, v_0.  With c_i = Σ_{j>i} L_ji·v_j,
    # each prefix (v_{i+1}, …) carries the integers C_i = Δ_{i+1}·c_i and
    # rem = Δ_{i+1}·(bound − Σ_{j>i} d_j·(v_j + c_j)²); the Fincke–Pohst range of
    # v_i is exactly the integers with x² ≤ Δ_i·rem, x = Δ_{i+1}·v_i + C_i.
    # A prefix that is still all zero has centre 0 and a range symmetric about
    # 0; starting it at 0 keeps, of each pair ±v, the one whose last nonzero
    # coordinate is positive (U is linear, so this survives v ↦ vU).
    gmat, mmat, umat = (np.array(x, dtype=dtype) for x in (gint, m, u))
    cols = np.zeros((0, 1), dtype=dtype)  # row j − i − 1 is v_j of every prefix
    rem = np.array([minors[n] * bound], dtype=dtype)
    zero = np.ones(1, dtype=bool)  # the prefixes that are still all zero
    for i in range(n - 1, -1, -1):
        step = minors[i + 1]
        center = mmat[i + 1:, i] @ cols
        room = minors[i] * rem
        root = _isqrt(room, magnitude < 2 ** 52)
        lo = -((root + center) // step)
        lo[zero] = 0
        counts = ((root - center) // step - lo + 1).astype(np.int64, copy=False)
        ends = counts.cumsum()
        # v_i = lo + (its index among all v_i) − (the index of its prefix's first)
        off = lo - (ends - counts)
        if not i:
            break
        vi = off.repeat(counts)
        vi += np.arange(ends[-1])
        x = step * vi + center.repeat(counts)
        rem = (room.repeat(counts) - x * x) // step
        cols = np.concatenate((vi[None], cols.repeat(counts, axis=1)))
        zero = zero.repeat(counts) & (vi == 0)
    # the leaf level: per prefix, vᵗGv = g₀₀·v₀² + l·v₀ + q and v·U = w + v₀·U₀;
    # each kept leaf is recorded as its norm, its prefix and its v₀
    l = (2 * gmat[0, 1:]) @ cols
    q = ((gmat[1:, 1:] @ cols) * cols).sum(axis=0)
    w = (cols.T @ umat[1:]).astype(out_dtype, copy=False)  # |w| ≤ coord
    del cols
    total = int(ends[-1])
    small = dtype is np.int64
    norms = np.empty(total, dtype=np.min_scalar_type(bound) if small else dtype)
    prefix = np.empty(total, dtype=np.int32 if len(counts) <= 2 ** 31 else np.intp)
    v0s = np.empty(total, dtype=_narrow_dtype(vmax[0]) if small else dtype)
    pos = p0 = 0
    while p0 < len(counts):
        start = int(ends[p0] - counts[p0])
        p1 = max(bisect.bisect_right(ends, start + _LEAF_BUDGET, p0), p0 + 1)
        cnt = counts[p0:p1]
        v0 = off[p0:p1].repeat(cnt)
        v0 += np.arange(start, int(ends[p1 - 1]))
        norm = gint[0][0] * v0
        norm += l[p0:p1].repeat(cnt)
        norm *= v0
        norm += q[p0:p1].repeat(cnt)
        par = np.arange(p0, p1).repeat(cnt)
        # the exact test: integer norms against the integer bound
        keep = (norm > 0) & (norm <= bound)
        k = int(np.count_nonzero(keep))
        if k < len(keep):
            norm, par, v0 = norm[keep], par[keep], v0[keep]
        norms[pos:pos + k], prefix[pos:pos + k], v0s[pos:pos + k] = norm, par, v0
        pos += k
        p0 = p1
    # the per-prefix arrays go before the records are copied
    del l, q, off, counts, ends
    # one stable argsort of the norms; each record is released before the next
    # copy is made
    order = norms[:pos].argsort(kind="stable")
    norms = norms.take(order)
    prefix = prefix.take(order)
    v0s = v0s.take(order)
    del order
    # the rows, a chunk at a time: row = w[prefix] + v₀·U₀, exact in out_dtype
    # since every partial sum of a coordinate stays within coord
    vecs = np.empty((pos, n), dtype=out_dtype)
    for r in range(0, pos, _LEAF_BUDGET):
        rows = vecs[r:r + _LEAF_BUDGET]
        rows[:] = w.take(prefix[r:r + _LEAF_BUDGET], axis=0)
        v0 = v0s[r:r + _LEAF_BUDGET].astype(dtype)
        for t, c in enumerate(u[0]):
            if c:
                rows[:, t] += v0 if c == 1 else c * v0
    del w, prefix, v0s
    starts = np.flatnonzero(norms[1:] != norms[:-1]) + 1
    starts = np.concatenate(([0], starts, [pos])) if pos else np.zeros(1, dtype=np.intp)
    return HalfShells(vecs, norms.take(starts[:-1]), starts, den)


def _small_half_shells(gint, u, minors, m, bound: int, out_dtype, norm_dtype,
                       den: int) -> HalfShells:
    """`short_vectors_upto`'s half shells by a depth-first recursion on Python ints.

    The same ranges, rem update, zero-prefix rule and integer test as the
    numpy kernel.  Each range runs in ascending order, so the leaves come in
    the kernel's order, and one stable sort by norm gives the kernel's rows.
    """
    n = len(gint)
    v = [0] * n
    leaves = []  # (vᵗGv, v·U) of every kept leaf

    def descend(i: int, rem: int, zero: bool, w: list[int]) -> None:
        # w = Σ_{j>i} v_j·U_j, the prefix's part of v·U
        step = minors[i + 1]
        center = sum(m[j][i] * v[j] for j in range(i + 1, n))
        room = minors[i] * rem
        root = math.isqrt(room)
        lo = 0 if zero else -((root + center) // step)
        hi = (root - center) // step
        if i:
            for vi in range(lo, hi + 1):
                v[i] = vi
                x = step * vi + center
                descend(i - 1, (room - x * x) // step, zero and not vi,
                        [a + vi * b for a, b in zip(w, u[i])])
            return
        # past v₀ the rem update gives bound − vᵗGv: every rem is an integer
        # (Δ_{i+1} clears the denominators of the form left on v_{i+1}, …), so
        # the division is exact, as the kernel's ranges need too
        for v0 in range(lo, hi + 1):
            x = step * v0 + center
            norm = bound - (room - x * x) // step
            if 0 < norm <= bound:
                leaves.append((norm, [a + v0 * b for a, b in zip(w, u[0])]))

    descend(n - 1, minors[n] * bound, True, [0] * n)
    leaves.sort(key=lambda leaf: leaf[0])
    if not leaves:
        return HalfShells(np.empty((0, n), dtype=out_dtype), np.empty(0, dtype=norm_dtype),
                          np.zeros(1, dtype=np.intp), den)
    norms = [norm for norm, _ in leaves]
    starts = [k for k in range(len(norms)) if not k or norms[k] != norms[k - 1]]
    # one array built from the rows, so that every bucket is a slice of it
    vecs = np.array([row for _, row in leaves], dtype=out_dtype)
    return HalfShells(vecs, np.array([norms[k] for k in starts], dtype=norm_dtype),
                      np.array(starts + [len(norms)], dtype=np.intp), den)


def short_vectors(g: Matrix, m) -> list[tuple[int, ...]]:
    """Exactly the integer vectors v with vᵗGv = 2m, sorted lexicographically.

    The half shell H_m and its negatives, sorted by Python, which stays exact
    on rows of Python ints.  m = 0 returns only the zero vector.
    """
    m = Fraction(m)
    if m < 0:
        raise ValueError("norm must be nonnegative")
    if m == 0:
        return [(0,) * len(g)]
    half = short_vectors_upto(g, m).get(m)
    return [] if half is None else _with_negatives(half)


def _with_negatives(half: np.ndarray) -> list[tuple[int, ...]]:
    """A half shell H and its negatives, as sorted tuples of Python ints."""
    half = half.tolist()
    return sorted(map(tuple, half + [[-x for x in v] for v in half]))


class Lattice:
    """Full-rank Z-lattice in a quaternion algebra; rows of `basis` are coordinates."""

    def __init__(self, algebra: QuaternionAlgebra, basis, kind: str = "lattice"):
        self.algebra = algebra
        self.basis: Matrix = linalg.frac_mat(basis)
        if len(self.basis) != 4 or linalg.rank(self.basis) != 4:
            raise ValueError("lattice basis must consist of 4 independent vectors")
        self.kind = kind

    @classmethod
    def _of_full_rank(cls, algebra, basis: Matrix, kind: str) -> "Lattice":
        """A lattice on 4 rows known to be independent, without __init__'s rank check."""
        lattice = cls.__new__(cls)
        lattice.algebra, lattice.basis, lattice.kind = algebra, basis, kind
        return lattice

    @classmethod
    def from_generators(cls, algebra, rows, kind: str = "lattice") -> "Lattice":
        basis = linalg.hnf_rational(rows)
        if len(basis) != 4:
            raise ValueError("generators do not span a full lattice")
        # the nonzero rows of a Hermite normal form are independent, and they are
        # the canonical basis that equality and hashing compare
        lattice = cls._of_full_rank(algebra, basis, kind)
        lattice.hnf_basis = basis
        return lattice

    @classmethod
    def standard(cls, algebra, kind: str = "order") -> "Lattice":
        return cls(algebra, linalg.identity(4), kind)

    @cached_property
    def hnf_basis(self) -> Matrix:
        return linalg.hnf_rational(self.basis)

    def __eq__(self, other):
        return self is other or (isinstance(other, Lattice) and self.algebra is other.algebra
                                 and self.hnf_basis == other.hnf_basis)

    def __hash__(self):
        return hash(self.hnf_basis)

    @cached_property
    def gram(self) -> Matrix:
        """Gram matrix G_ij = tr(b_i·conj(b_j))."""
        return self.basis @ self.algebra.bilinear @ self.basis.T

    @cached_property
    def gram_det(self) -> Fraction:
        return linalg.det(self.gram)

    @cached_property
    def _basis_inv(self) -> Matrix:
        return linalg.inverse(self.basis)

    def _multiplier_order(self, mul_matrix_coords) -> "Lattice":
        """{x : m_b(x) ∈ L for every basis b}, m_b having the matrix mul_matrix_coords(b).

        Checked by require_order.
        """
        inv = self._basis_inv
        blocks = [mul_matrix_coords(b) @ inv for b in self.basis]
        # the preimage basis is an inverse matrix, so it has rank 4
        order = Lattice._of_full_rank(self.algebra, _integral_preimage_lattice(blocks), "order")
        order.require_order()
        return order

    @cached_property
    def left_order(self) -> "Lattice":
        """{x : xL ⊆ L}."""
        return self._multiplier_order(self.algebra.right_mul_matrix_coords)

    @cached_property
    def right_order(self) -> "Lattice":
        """{x : Lx ⊆ L}."""
        return self._multiplier_order(self.algebra.left_mul_matrix_coords)

    def element_from(self, v) -> QuatElement:
        return QuatElement(self.algebra, linalg.vec_mat(np.asarray(v).tolist(), self.basis))

    def contains(self, x: QuatElement) -> bool:
        return (linalg.frac_mat([x.coords]) @ self._basis_inv).den == 1

    def scale(self, c) -> "Lattice":
        if not c:
            raise ValueError("cannot scale a lattice by 0")
        out = Lattice._of_full_rank(self.algebra, self.basis * c, self.kind)
        # echelon form, positive pivots and entries reduced below their pivot all
        # survive a positive factor: c·H is the Hermite basis of c·L
        if c > 0 and "hnf_basis" in self.__dict__:
            out.hnf_basis = self.hnf_basis * c
        return out

    def conjugate(self) -> "Lattice":
        """The conjugate lattice {x̄ : x ∈ L}, built once per lattice."""
        return self._conjugate

    @cached_property
    def _conjugate(self) -> "Lattice":
        return Lattice.from_generators(self.algebra, self.basis @ self.algebra.conj_matrix,
                                       self.kind)

    def product(self, other: "Lattice") -> "Lattice":
        return Lattice.from_generators(self.algebra, self.algebra.products(self.basis, other.basis),
                                       "lattice")

    @cached_property
    def _two_sided_ideals(self) -> dict[int, "Lattice"]:
        """`two_sided_ideal`'s result for this order at each prime it was asked for."""
        return {}

    @cached_property
    def norm_scale(self) -> Fraction:
        """Reduced norm n₀: the positive generator of the ideal generated by n(x), x in L.

        Generated by the norms n(b_i) = G_ii/2 of the basis and the G_ij, i < j:
        with G = N/d that is gcd(N_ii, 2·N_ij)/(2·d).
        """
        num = self.gram.num.tolist()
        return Fraction(math.gcd(*(num[i][i] for i in range(4)),
                                 *(2 * num[i][j] for i in range(4) for j in range(i + 1, 4))),
                        2 * self.gram.den)

    def normalized_gram(self) -> Matrix:
        """Gram of the rescaled quadratic module (L, n/n₀); integral for ideals."""
        return self.gram * (1 / self.norm_scale)

    @cached_property
    def units(self) -> tuple[QuatElement, ...]:
        """The elements of reduced norm 1, in `short_vectors` order: for an order, its units."""
        return tuple(self.element_from(v) for v in short_vectors(self.gram, 1))

    def unit_count(self) -> int:
        return len(self.units)

    def is_order(self) -> tuple[bool, str]:
        a = self.algebra
        if not self.contains(a.unit()):
            return False, "does not contain 1"
        prods = a.products(self.basis, self.basis) @ self._basis_inv
        outside = np.flatnonzero((prods.num % prods.den != 0).any(axis=1))
        if outside.size:
            i, j = divmod(int(outside[0]), 4)
            return False, f"not closed under multiplication (basis pair {i},{j})"
        g = self.gram
        for i in range(4):
            if g[i][i].denominator != 1 or g[i][i].numerator % 2:
                return False, "norms are not integral"
            for j in range(4):
                if g[i][j].denominator != 1:
                    return False, "trace form is not integral"
        return True, ""

    def require_order(self) -> None:
        ok, why = self.is_order()
        if not ok:
            raise UsageError(f"lattice is not an order: {why}")

    @cached_property
    def level(self) -> int:
        """Reduced discriminant (= level N for an Eichler order of square-free level)."""
        d = self.gram_det
        if d.denominator != 1:
            raise ValueError("order has non-integral Gram determinant")
        n = math.isqrt(d.numerator)
        if n * n != d.numerator:
            raise ValueError("Gram determinant is not a perfect square")
        return n

    def __repr__(self):
        return f"Lattice(kind={self.kind}, basis={self.basis})"


def _integral_preimage_lattice(blocks: list[Matrix]) -> Matrix:
    """Basis of {v ∈ Q⁴ : v·A ∈ Z^4 for every A in blocks} (row convention)."""
    # each row of Aᵗ is a column of A
    w = linalg.hnf_rational(linalg.vstack([a.T for a in blocks]))
    if len(w) != 4:
        raise ValueError("degenerate multiplication data")
    return linalg.inverse(w).T


def transporters(i1: Lattice, i2: Lattice):
    """Yield every γ ∈ D^× with i1 = γ·i2, in the order of the enumeration.

    The ideals must share a right order (UsageError otherwise).  Each such γ
    times n₀(i2) lies in i1·ī2 with reduced norm n₀(i1)·n₀(i2), so the
    candidates are exactly those vectors.  γ·i2 = i1 exactly when γ·i2 has an
    integral basis matrix in i1's coordinates with determinant ±1.
    """
    if i1.right_order != i2.right_order:
        raise UsageError("ideals do not share a right order")
    prod = i1.product(i2.conjugate())
    target = i1.norm_scale * i2.norm_scale
    to_i1 = i1._basis_inv
    for v in short_vectors(prod.gram, target):
        gamma = prod.element_from(v) / i2.norm_scale
        moved = i2.basis @ i1.algebra.left_mul_matrix_coords(gamma.coords) @ to_i1
        if moved.den == 1 and abs(linalg.det(moved)) == 1:
            yield gamma


def ideal_equivalent(i1: Lattice, i2: Lattice) -> bool:
    """Test I = γ·J for some γ ∈ D^×, for right ideals of the same order."""
    return next(transporters(i1, i2), None) is not None


def _rref_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    m = [[x % p for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r] if any(row)]


def _projective_points(n: int, p: int):
    """One point per line of F_p^n, its first nonzero coordinate 1, in `_point_rank` order."""
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield [0] * lead + [1] + list(tail[::-1])


def _point_rank(v: list[int]) -> tuple:
    """Sort key of a normalized point: the leading 1's position, then the coordinates last first."""
    return v.index(1), v[::-1]


def _plane_points(rows: list[list[int]], p: int) -> list[list[int]]:
    """The p+1 normalized points of the plane spanned by two reduced echelon rows mod p."""
    u, w = rows
    return [[(a * x + b * y) % p for x, y in zip(u, w)] for a, b in _projective_points(2, p)]


def _lift_mod_p(lat: Lattice, rows: list[list[int]], p: int) -> Lattice:
    """The ideal spanned by p·lat and the rows, given mod p in lat's coordinates."""
    gens = linalg.vstack([linalg.frac_mat(rows) @ lat.basis, lat.basis * p])
    return Lattice.from_generators(lat.algebra, gens, "ideal")


def _integral(m: Matrix) -> list[list[int]]:
    if m.den != 1:
        raise ValueError("expected an integral matrix")
    return m.num.tolist()


def _int_mat_mod(m: Matrix, p: int) -> list[list[int]]:
    return [[x % p for x in row] for row in _integral(m)]


def _action_mats(lat: Lattice, order: Lattice, p: int, mul_matrix) -> list[list[list[int]]]:
    """Mod-p matrices, in lat's basis, of multiplying by each basis element of order.

    `mul_matrix` is the algebra's `right_mul_matrix_coords` or `left_mul_matrix_coords`.
    """
    inv = lat._basis_inv
    return [_int_mat_mod(lat.basis @ mul_matrix(b) @ inv, p) for b in order.basis]


def _isotropic_point(lat: Lattice, p: int) -> list[int]:
    """A point x ≠ 0 of lat/p·lat with nrd(x)/n₀ ≡ 0 mod p, within p² + p + 1 tests.

    The search is over the first three coordinates: by Chevalley–Warning a
    ternary form over F_p has a nonzero zero.
    """
    g = _integral(lat.normalized_gram())
    for head in _projective_points(3, p):
        x = head + [0]
        if sum(x[i] * g[i][j] * x[j] for i in range(4) for j in range(4)) // 2 % p == 0:
            return x
    raise ValueError(f"the norm form has no nonzero zero mod {p}")


def _span_mod_p(x: list[int], mats: list[list[list[int]]], p: int) -> list[list[int]]:
    """Reduced echelon basis mod p of the span of x·M over the matrices M."""
    return _rref_mod_p([[sum(x[i] * m[i][j] for i in range(4)) for j in range(4)] for m in mats], p)


def p_neighbors(ideal: Lattice, p: int) -> list[Lattice]:
    """The p+1 neighbours y·O + p·I of I (right order O), sorted by `_point_rank` of their planes.

    UsageError unless p is a prime not dividing the level of O.  Then I/pI is
    M₂(F_p) under O_L and O: an x ≠ 0 with nrd(x)/n(I) ≡ 0 mod p has rank 1,
    and each point y of the left plane O_L·x spans one right plane y·O (Pizer,
    J. Algebra 64, 1980).  ValueError unless the p+1 lattices are distinct of norm p·n(I).
    """
    left, right = ideal.left_order, ideal.right_order
    p = require_good_prime(p, right.level)
    alg = ideal.algebra
    plane = _span_mod_p(_isotropic_point(ideal, p),
                        _action_mats(ideal, left, p, alg.left_mul_matrix_coords), p)
    if len(plane) != 2:
        raise ValueError(f"the left plane through an isotropic point mod {p} is not a plane")
    right_mats = _action_mats(ideal, right, p, alg.right_mul_matrix_coords)
    spans = [_span_mod_p(y, right_mats, p) for y in _plane_points(plane, p)]
    if any(len(span) != 2 for span in spans) or len({repr(span) for span in spans}) != p + 1:
        raise ValueError(f"the planes mod {p} are not p + 1 distinct right planes")
    spans.sort(key=lambda span: min(map(_point_rank, _plane_points(span, p))))
    out = [_lift_mod_p(ideal, span, p) for span in spans]
    if any(nb.norm_scale != p * ideal.norm_scale for nb in out):
        raise ValueError(f"a neighbour at {p} does not have norm {p}·n(I)")
    return out


def reduce_right_ideal(ideal: Lattice, order: Lattice) -> Lattice:
    """Replace an ideal by a small equivalent one (left-divide by a minimal vector).

    The minimal vector is the first, in `short_vectors` order, of the least
    nonempty shell.  The one enumeration runs to the least diagonal norm of the
    size-reduced Gram matrix (the enumeration's own, cached), which a vector
    of the reduced basis reaches.
    """
    g = ideal.gram
    gint = _reduced_gram(tuple(g.num.ravel().tolist()), len(g))[0]
    shells = short_vectors_upto(g, Fraction(min(row[i] for i, row in enumerate(gint)), 2 * g.den))
    b = ideal.element_from(_with_negatives(next(iter(shells.values())))[0])
    rows = ideal.basis @ ideal.algebra.left_mul_matrix_coords(b.inverse().coords)
    red = Lattice.from_generators(ideal.algebra, rows, "ideal")
    # rescale so coordinates relative to the order are integral and primitive
    coords = red.basis @ order._basis_inv
    return red.scale(Fraction(coords.den, math.gcd(*coords.num.ravel().tolist())))


class ClassSet:
    """Right ideal classes of an order, with unit counts and cross lattices.

    Cross lattices and their half shells, the form space at each ν, the Brandt
    blocks at each (m, ν), the series stacked for `yoshida1`, the Atkin–Lehner
    routing at each q and blocks at each (q, ν), and each superorder's class set
    with the routing into it are computed once per class set and then read.
    """

    def __init__(self, order: Lattice, ideals: list[Lattice]):
        self.order = order
        self.ideals = ideals
        self.left_orders = [i.left_order for i in ideals]
        self.unit_counts = [o.unit_count() for o in self.left_orders]
        self._cross: dict[tuple[int, int], Lattice] = {}
        self._shells: dict[tuple[int, int], tuple[Fraction, HalfShells]] = {}
        # filled by brandt.FormSpace: the space of degree-ν forms at ν
        self.form_spaces: dict[int, object] = {}
        # filled by brandt.atkin_lehner: the routing at q, and the blocks at (q, ν)
        self.al_routes: dict[int, list] = {}
        self.al_blocks: dict[tuple[int, int], object] = {}
        # filled by brandt.brandt_matrix and brandt.brandt_series: the blocks at (m, ν)
        self.brandt_blocks: dict[tuple[int, int], object] = {}
        # filled by yoshida.yoshida1: at (ν, bound), the series as one matrix, a row per m
        self.series_rows: dict[tuple[int, int], object] = {}
        # filled by brandt.essential_part: per superorder, its class set and the routing
        self.superorder_routes: dict[Lattice, tuple["ClassSet", list]] = {}

    @property
    def h(self) -> int:
        return len(self.ideals)

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, e) for e in self.unit_counts), Fraction(0))

    def cross_lattice(self, i: int, j: int) -> Lattice:
        """Lattice of the (i,j) Brandt entry: left order R_j, right order R_i."""
        key = (i, j)
        if key not in self._cross:
            lat = self.ideals[j].product(self.ideals[i].conjugate())
            lat = lat.scale(Fraction(1) / self.ideals[i].norm_scale)
            self._cross[key] = lat
        return self._cross[key]

    def cross_shells(self, i: int, j: int, max_norm: int) -> HalfShells:
        """cross_lattice(i, j)'s half shells to at least max_norm, with read-only
        rows, norms and offsets: one enumeration, rerun only past its norm.

        It runs to max_norm or to `_small_norm` of the lattice, the larger: a
        norm that small costs about as much as any smaller one, so the Brandt
        matrices asked for one small prime after another read one enumeration.
        """
        key = (i, j)
        if key not in self._shells or self._shells[key][0] < max_norm:
            g = self.cross_lattice(i, j).normalized_gram()
            norm = max(max_norm, _small_norm(g))
            shells = short_vectors_upto(g, norm)
            for arr in (shells.vecs, shells.norms, shells.starts):
                arr.flags.writeable = False
            self._shells[key] = (norm, shells)
        return self._shells[key][1]


# each class expanded has p+1 neighbours, each reduced, and each one not met before
# tested for equivalence with the known classes: class_set takes about 0.015 s at
# level 34, p = 23 on a 2-vCPU Xeon (0.011 s at p = 13), where the principal class's
# neighbours reach the Eichler mass, growing about linearly in p
MAX_P_SEED = 23


def class_set(order: Lattice, p_seed: int) -> ClassSet:
    """Right ideal classes by breadth-first p_seed-neighbour search.

    For an order of square-free level (an Eichler order) the search stops as
    soon as Σ 1/e_i over the classes found reaches `eichler_mass`, even in the
    middle of a round (Kirschmer & Voight, SIAM J. Comput. 39, 2010): the
    classes are the first h that the full search finds, in the same order.
    For any other order it stops when a full expansion round produces no new
    class (the neighbour graph at a prime of maximal local structure is
    connected).  A search that runs out below the formula's mass, or passes
    it, raises ValueError (`check_mass`).  p_seed must be a prime not dividing
    the level and at most MAX_P_SEED; anything else raises UsageError before
    the search starts.
    """
    order.require_order()
    p_seed = require_good_prime(p_seed, order.level)
    if p_seed > MAX_P_SEED:
        raise UsageError(f"p_seed {p_seed} is above the neighbour-search bound {MAX_P_SEED} "
                         f"(the search reduces and tests p_seed + 1 neighbours per class)")
    want = eichler_mass(order)
    reps: list[Lattice] = []
    mass = Fraction(0)
    for rep in _new_classes(order, p_seed):
        reps.append(rep)
        mass += Fraction(1, rep.left_order.unit_count())
        if want is not None and mass >= want:
            break
    cs = ClassSet(order, reps)
    _check_mass(cs, want)
    return cs


def _new_classes(order: Lattice, p_seed: int):
    """Yield the order, then each reduced p_seed-neighbour in a class not yet met.

    Breadth-first: every neighbour of one round's classes before the next
    round's; the generator ends after a round that yields no class.
    """
    # the order itself is the principal class: its basis is a checked lattice basis.
    # Its right order, built once, is its left order too, and the right order of
    # every class (the built basis depends on the lattice alone)
    reps = [Lattice._of_full_rank(order.algebra, order.basis, "ideal")]
    right = reps[0].left_order = reps[0].right_order
    yield reps[0]
    # every lattice met so far lies in the class of a rep; a reduced neighbour
    # equal to one of them (same HNF) is in a known class without a test
    met = {reps[0]}
    frontier = [reps[0]]
    while frontier:
        fresh = []
        for ideal in frontier:
            for nb in p_neighbors(ideal, p_seed):
                cand = reduce_right_ideal(nb, order)
                if cand in met:
                    continue
                met.add(cand)
                # a neighbour at p_seed ∤ N of a right ideal of the order, left-divided
                # and scaled: a right ideal of the order again, whose right order
                # `ideal_equivalent` reads instead of building it
                cand.right_order = right
                if not any(ideal_equivalent(cand, known) for known in reps):
                    reps.append(cand)
                    fresh.append(cand)
                    yield cand
        frontier = fresh


def eichler_mass(order: Lattice) -> Fraction | None:
    """Σ 1/e_i over the right ideal classes, by the Eichler mass formula.

    For an order of square-free level N (an Eichler order) the mass is
    (1/24)·Π_{p | N ramified}(p − 1)·Π_{p | N unramified}(p + 1) (Kirschmer &
    Voight, SIAM J. Comput. 39, 2010).  None when N is not square-free.
    """
    primes = _prime_factors(order.level)
    if len(set(primes)) != len(primes):
        return None
    mass = Fraction(1, 24)
    for p in primes:
        mass *= p - 1 if is_ramified(order, p) else p + 1
    return mass


def check_mass(cs: ClassSet) -> None:
    """Certify a class set by the mass formula; a missed or repeated class raises ValueError."""
    _check_mass(cs, eichler_mass(cs.order))


def _check_mass(cs: ClassSet, want: Fraction | None) -> None:
    """`check_mass` against a mass the formula already gave (None: no formula)."""
    if want is not None and cs.mass != want:
        raise ValueError(f"class set of level {cs.order.level} has mass {cs.mass}, "
                         f"but the Eichler mass formula gives {want}")


# Miller–Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BOUND = 3317044064679887385961981
TRIAL_DIVISION_BOUND = 10 ** 6


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; UsageError at or above _MILLER_RABIN_BOUND."""
    if n >= _MILLER_RABIN_BOUND:
        raise UsageError(f"{n} is too large to test for primality "
                         f"(the bound is {_MILLER_RABIN_BOUND})")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer(x) -> int | None:
    """x as a Python int if it is an int or a numpy integer (a bool is neither), else None."""
    return int(x) if isinstance(x, (int, np.integer)) and not isinstance(x, bool) else None


def require_int(x, what: str, least: int = 0) -> int:
    """x as a Python int; UsageError unless it is an integer (not a bool) ≥ `least`, 0 or 1."""
    if (n := _integer(x)) is None:
        raise UsageError(f"the {what} must be an integer, not {x!r}")
    if n < least:
        raise UsageError(f"the {what} must be positive, not {n}" if least
                         else f"negative {what} {n}")
    return n


def require_prime(p) -> int:
    """p as a Python int; UsageError unless it is a prime integer."""
    if (n := _integer(p)) is None or not _is_prime(n):
        raise UsageError(f"{p if n is None else n!r} is not a prime")
    return n


def require_good_prime(p, level: int) -> int:
    """p as a Python int; UsageError unless it is a prime not dividing the level."""
    p = require_prime(p)
    if level % p == 0:
        raise UsageError(f"{p} divides the level {level}")
    return p


def require_level_prime(q, level: int) -> int:
    """q as a Python int; UsageError unless it is a prime dividing the level."""
    q = require_prime(q)
    if level % q:
        raise UsageError(f"{q} does not divide the level {level}")
    return q


def least_good_prime(level: int) -> int:
    """The least prime not dividing the level: the default neighbour-search prime."""
    return next(p for p in itertools.count(2) if _is_prime(p) and level % p)


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n ≥ 1 with multiplicity, ascending.

    Trial division up to TRIAL_DIVISION_BOUND; a cofactor left over that is
    not prime raises UsageError.
    """
    out = []
    d, rest = 2, n
    while d * d <= rest and d <= TRIAL_DIVISION_BOUND:
        while rest % d == 0:
            out.append(d)
            rest //= d
        d += 1
    if rest > 1 and not _is_prime(rest):
        raise UsageError(f"cannot factor {n}: the cofactor {rest} has no prime factor "
                         f"up to the trial-division bound {TRIAL_DIVISION_BOUND}")
    if rest > 1:
        out.append(rest)
    return out


def _kernel_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v ∈ F_p^n : M·v = 0} for an integer matrix M (free entries set to 1)."""
    red = _rref_mod_p(rows, p)
    pivots = [next(c for c, x in enumerate(row) if x) for row in red]
    n = len(rows[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def two_sided_ideal(order: Lattice, p: int) -> Lattice:
    """The unique integral two-sided ideal J of reduced norm p (p must divide the level).

    For p exactly dividing the level the reduced-trace form of the order has
    elementary divisors (1, 1, p, p) at p, and its kernel mod p is J/pO
    (O ∩ p·O^♯ is the Jacobson radical at p; Voight, Quaternion Algebras,
    ch. 23).  J is that kernel plus p·O; anything else raises ValueError.
    Computed once per (order, p): the order keeps J for the mass formula, the
    Atkin–Lehner routing and the superorders alike.
    """
    p = require_level_prime(p, order.level)
    if p in order._two_sided_ideals:
        return order._two_sided_ideals[p]
    order.require_order()
    # reduced echelon rows mod p: the generators, and so the basis that
    # `from_generators` returns, depend on J alone
    kernel = _rref_mod_p(_kernel_mod_p(_int_mat_mod(order.gram, p), p), p)
    if len(kernel) != 2:
        raise ValueError(f"the trace form mod {p} has a {len(kernel)}-dimensional kernel, "
                         f"not the 2-dimensional one of a norm-{p} two-sided ideal")
    ideal = _lift_mod_p(order, kernel, p)
    if ideal.norm_scale != p or ideal.product(ideal) != order.scale(p):
        raise ValueError(f"the trace-form kernel mod {p} is not a two-sided ideal of norm {p}")
    order._two_sided_ideals[p] = ideal
    return ideal


def is_ramified(order: Lattice, p: int) -> bool:
    """True when the algebra is ramified at p: no order contains O with index p.

    Decided by the test `superorders` applies before it builds each order:
    ramified exactly when v ↦ nrd(v)/p has no zero mod p on J/pO.
    """
    return next(_superorder_points(order, p), None) is None


def _superorder_points(order: Lattice, p: int):
    """Yield each point v of J/pO with nrd(v)/p ≡ 0 mod p, sorted by `_point_rank`.

    v is in O's coordinates, and J is the two-sided ideal of norm p.
    """
    ideal = two_sided_ideal(order, p)
    rows = _rref_mod_p(_integral(ideal.basis @ order._basis_inv), p)
    points = sorted(_plane_points(rows, p), key=_point_rank)
    # nrd(v) = v·G·vᵗ/2 on O's Gram G = N/d, so nrd(v)/p ≡ 0 mod p exactly
    # when 2·d·p² divides v·N·vᵗ: one integer product for every point
    g = order.gram
    pts = np.array(points, dtype=object)
    for v, norm in zip(points, ((pts @ g.num) * pts).sum(axis=1).tolist()):
        if norm % (2 * g.den * p * p) == 0:
            yield v


def superorders(order: Lattice, p: int) -> list[Lattice]:
    """The orders O + ℤ·v/p of index p over O, one per zero of v ↦ nrd(v)/p mod p on J/pO.

    J is the two-sided ideal of norm p; UsageError unless p divides the level.
    At a split p ∥ N, J/pO is spanned by e₁₂ and p·e₂₁ in O_p = [[ℤ_p, ℤ_p], [pℤ_p, ℤ_p]]
    and nrd(a·e₁₂ + c·p·e₂₁)/p = −ac: two zeros.  At a ramified p there are none.
    The orders come sorted by `_point_rank` of v in O's coordinates.
    """
    p = require_level_prime(p, order.level)
    out = []
    for v in _superorder_points(order, p):
        gens = linalg.vstack([[(order.element_from(v) / p).coords], order.basis])
        sup = Lattice.from_generators(order.algebra, gens, "order")
        sup.require_order()
        out.append(sup)
    return out
