"""Exact rational linear algebra on small dense matrices.

A rational matrix is one `Matrix`: an object array N of Python ints and one
positive denominator d, standing for N/d, in lowest terms (the gcd of d and
every entry of N is 1), so equal matrices have equal (N, d) and equality is a
comparison of arrays.  Python ints are exact at any size, so no operation has an
overflow guard.  A product is one numpy call N_A @ N_B over d_A·d_B; the gcd
runs only when d > 1, and a transpose, a negation, a multiple by an integer, a
stack, `identity`, `zeros` and the elimination kernels' results skip it.
`charpoly` is division-free Faddeev–LeVerrier over ℤ on N, whose exact
divisions are by k.

The elimination kernels run on rows of Python ints (every matrix they see is a
few dozen rows at most, where numpy's per-call overhead costs more than the
arithmetic): `rref` (and with it `solve_many`, `nullspace`, `inverse` and
`rank`) is fraction-free Gauss–Jordan elimination that divides each changed row
by its content, and `det` is Bareiss elimination (Bareiss, Math. Comp. 22, 1968).

Fractions appear only at the edge: `Matrix.tolist`, iteration and indexing
give rows of Fractions, and `det`, `charpoly` and `vec_mat` return Fractions.
Nothing here touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import numpy as np

# the int64 guard of the large-array kernels elsewhere (enumeration, τ-sums,
# lift weights, theta rows): every integer a kernel forms stays below this, or
# the kernel runs on object arrays of Python ints
INT64_SAFE = 2 ** 62
# the float64 guard of the theta pair sums: every integer below this is a
# float64, and so is every sum and product of them that stays below it, in
# any order
FLOAT64_EXACT = 2 ** 53


def _from_rows(rows: list[list[int]], ncols: int, den: int = 1) -> "Matrix":
    """The Matrix rows/den of Python-int rows and a positive den, with one pass in Python."""
    g = math.gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return Matrix._known(np.array(rows, dtype=object).reshape(len(rows), ncols), den)


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, np.integer):
        return Fraction(int(x))  # a Fraction of an np.int64 keeps an np.int64 numerator
    return Fraction(x)


class Matrix:
    """The rational matrix num/den: Python ints over one denominator, in lowest terms."""

    __slots__ = ("num", "den", "_rows")
    # numpy operators defer to Matrix's own, so np.int64(c) * m reaches __rmul__
    # instead of reading m as a sequence of Fraction rows
    __array_ufunc__ = None

    def __init__(self, num: np.ndarray, den: int = 1):
        if num.dtype != object:
            num = num.astype(np.int64, copy=False).astype(object)
        den = int(den)
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("matrix denominator is 0")
            num, den = -num, -den
        if den > 1:
            g = math.gcd(den, *num.flat)
            if g > 1:
                num, den = num // g, den // g
        self.num = num
        self.den = den
        self._rows = None

    @classmethod
    def _known(cls, num: np.ndarray, den: int) -> "Matrix":
        """num/den, already an object array of Python ints in lowest terms."""
        m = cls.__new__(cls)
        m.num, m.den, m._rows = num, den, None
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    @property
    def T(self) -> "Matrix":
        return Matrix._known(self.num.T, self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.num @ other.num, self.den * other.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        den = math.lcm(self.den, other.den)
        return Matrix(self.num * (den // self.den) + other.num * (den // other.den), den)

    def __neg__(self) -> "Matrix":
        return Matrix._known(-self.num, self.den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __mul__(self, c) -> "Matrix":
        c = _rational(c)
        if c.denominator > 1:
            return Matrix(self.num * c.numerator, self.den * c.denominator)
        # an integer: with g = gcd(c, den), (c/g)·num over den/g is in lowest terms
        # (c = 0 gives g = den, so the zero matrix over 1)
        g = math.gcd(c.numerator, self.den)
        return Matrix._known(self.num * (c.numerator // g), self.den // g)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return (self.den == other.den and self.num.shape == other.num.shape
                    and np.array_equal(self.num, other.num))
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.num.shape, tuple(self.num.ravel().tolist())))

    def tolist(self) -> list[list[Fraction]]:
        """The entries as rows of Fractions: the one conversion out of the integer form."""
        d = self.den
        return [[Fraction(x, d) for x in row] for row in self.num.tolist()]

    def _fraction_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(tuple, self.tolist()))
        return self._rows

    def __len__(self) -> int:
        return self.num.shape[0]

    def __iter__(self):
        return (list(row) for row in self._fraction_rows())

    def __getitem__(self, i: int) -> list[Fraction]:
        return list(self._fraction_rows()[i])

    def __repr__(self):
        return f"Matrix({self.num.tolist()}, den={self.den})"


def frac_mat(rows) -> Matrix:
    """A Matrix of rational rows (Fractions, ints or numpy ints), or the Matrix itself."""
    if isinstance(rows, Matrix):
        return rows
    if isinstance(rows, np.ndarray):
        return Matrix(rows)
    rows = [[_rational(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return _from_rows(ints, len(rows[0]) if rows else 0, den)


def identity(n: int) -> Matrix:
    return Matrix._known(np.eye(n, dtype=object), 1)


def zeros(n: int, m: int) -> Matrix:
    return Matrix._known(np.zeros((n, m), dtype=object), 1)


def _stack(mats, stack) -> Matrix:
    """The matrices over their least common denominator d, joined by `stack`: in lowest
    terms, as for p | d the one whose denominator holds d's p-part keeps an entry prime to p."""
    mats = [frac_mat(m) for m in mats]
    den = math.lcm(*(m.den for m in mats))
    return Matrix._known(stack([m.num * (den // m.den) for m in mats]), den)


def hstack(mats) -> Matrix:
    return _stack(mats, np.hstack)


def vstack(mats) -> Matrix:
    return _stack(mats, np.vstack)


def outer_rows(a: Matrix, b: Matrix) -> Matrix:
    """Row m·s + t is a_s ⊗ b_t, for the n rows a_s of a and the m rows b_t of b."""
    prod = a.num[:, None, :, None] * b.num[None, :, None, :]
    return Matrix(prod.reshape(len(a) * len(b), -1), a.den * b.den)


def vec_mat(v, a) -> list[Fraction]:
    """The row vector v·A, as Fractions."""
    return (frac_mat([list(v)]) @ frac_mat(a)).tolist()[0]


def transpose(a) -> Matrix:
    return frac_mat(a).T


def _square(a) -> Matrix:
    a = frac_mat(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a {a.shape[0]}×{a.shape[1]} matrix is not square")
    return a


def det(a) -> Fraction:
    """Determinant by Bareiss elimination on the rows of N; det(N/d) = det(N)/dⁿ.

    Step k replaces each row i below the pivot row by
    (p·row_i − m_ik·row_k)/p_prev, an exact division, with p the pivot.
    """
    a = _square(a)
    n = len(a)
    m = a.num.tolist()
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row = m[k]
        p = row[k]
        for i in range(k + 1, n):
            q = m[i][k]
            m[i] = [(p * x - q * y) // prev for x, y in zip(m[i], row)]
        prev = p
    return Fraction(sign * prev, a.den ** n)


def rref(a) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot columns).

    Fraction-free Gauss–Jordan on the rows of N (the RREF of N/d is that of
    N): each elimination replaces row i by p·row_i − N_ic·row_r, with p the
    pivot, and divides it by its content.  At the end row k is a primitive
    multiple of the k-th reduced row, so one denominator, the lcm of the
    pivots, holds them all, in lowest terms.
    """
    num = frac_mat(a).num
    nrows, ncols = num.shape
    m = num.tolist()
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        g = math.gcd(*row)
        if g > 1:
            row = m[r] = [x // g for x in row]
        p = row[c]
        for i, mi in enumerate(m):
            q = mi[c]
            if q and i != r:
                new = [p * x - q * y for x, y in zip(mi, row)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    leads = [m[k][c] for k, c in enumerate(pivots)]
    den = math.lcm(*leads)
    for k, lead in enumerate(leads):
        s = den // lead
        if s != 1:
            m[k] = [x * s for x in m[k]]
    return _from_rows(m, ncols, den), pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a) -> Matrix:
    """Deterministic basis of the right kernel, one row per free column (set to 1)."""
    return nullspace_free(a)[0]


def nullspace_free(a) -> tuple[Matrix, list[int]]:
    """(K, free): the `nullspace` basis K and its free columns, on which K is the identity."""
    red, pivots = rref(a)
    cols = red.shape[1]
    rows = red.num.tolist()
    basis, free = [], [c for c in range(cols) if c not in pivots]
    for f in free:
        v = [0] * cols
        v[f] = red.den
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(v)
    return _from_rows(basis, cols, red.den), free


def solve(a, b) -> list[Fraction] | None:
    """One solution of a·x = b, or None if inconsistent."""
    sol = solve_many(a, [b])
    return None if sol is None else sol[0]


def solve_many(a, rhs) -> Matrix | None:
    """One solution x of a·x = b per row b of rhs, as the rows of a matrix, from one rref.

    None if any b is inconsistent.
    """
    a = frac_mat(a)
    m = a.shape[1]
    rhs = frac_mat(rhs)
    if not len(rhs):
        return zeros(0, m)
    den = math.lcm(a.den, rhs.den)
    sa, sb = den // a.den, den // rhs.den
    aug = [[x * sa for x in row] + [x * sb for x in col]
           for row, col in zip(a.num.tolist(), rhs.num.T.tolist(), strict=True)]
    red, pivots = rref(_from_rows(aug, m + len(rhs)))
    if pivots and pivots[-1] >= m:
        return None
    rows = red.num.tolist()
    sol = [[0] * m for _ in range(len(rhs))]
    for row, c in zip(rows, pivots):
        for x, b in zip(row[m:], sol):
            b[c] = x
    return _from_rows(sol, m, red.den)


def inverse(a) -> Matrix:
    a = _square(a)
    n = len(a)
    aug = [row + [0] * i + [a.den] + [0] * (n - 1 - i) for i, row in enumerate(a.num.tolist())]
    red, pivots = rref(_from_rows(aug, 2 * n))
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return _from_rows([row[n:] for row in red.num.tolist()], n, red.den)


def charpoly(a) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients highest degree first.

    Faddeev–LeVerrier over ℤ on N = d·A: M₁ = I, c_k = −tr(N·M_k)/k (exact, as
    N has an integer characteristic polynomial), M_{k+1} = N·M_k + c_k·I.  The
    coefficient of x^(n−k) of det(xI − N/d) is c_k/d^k.
    """
    a = frac_mat(a)
    n = len(a)
    coeffs = [1]
    m = np.eye(n, dtype=object)
    for k in range(1, n + 1):
        am = a.num @ m
        c = -(sum(am.diagonal().tolist()) // k)
        coeffs.append(c)
        am[np.diag_indices(n)] += c
        m = am
    return [Fraction(c, a.den ** k) for k, c in enumerate(coeffs)]


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns a full set of nonzero HNF basis rows (row echelon, positive pivots,
    entries above each pivot reduced into [0, pivot)).
    """
    m = [row[:] for row in rows if any(row)]
    if not m:
        return []
    cols = len(m[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(cols):
        # gather rows with nonzero entry in column c, gcd-reduce them
        while True:
            live = [i for i in range(r, len(m)) if m[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(m[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = m[i][c] // m[i0][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[i0])]
        live = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        m[r], m[i0] = m[i0], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        r += 1
    m = [row for row in m[:r]]
    # reduce entries above pivots, first pivot to last: row i is zero left of
    # its pivot, so a later step leaves the columns reduced before it alone
    pivcols = []
    for row in m:
        pivcols.append(next(j for j, x in enumerate(row) if x != 0))
    for i in range(len(m)):
        pc = pivcols[i]
        p = m[i][pc]
        for j in range(i):
            q = m[j][pc] // p
            if q:
                m[j] = [x - q * y for x, y in zip(m[j], m[i])]
    return m


def integer_form(rows) -> tuple[list[list[int]], int]:
    """(N, d) with rows = N/d: d the least common denominator, N integer rows."""
    m = frac_mat(rows)
    return m.num.tolist(), m.den


def primitive_rows(m: Matrix) -> Matrix:
    """Each row, none of them zero, scaled to its primitive integer multiple with a positive lead."""
    num = m.num
    lead = num[np.arange(len(num)), (num != 0).argmax(axis=1)]
    content = np.gcd.reduce(num, axis=1) * np.sign(lead)
    return Matrix(num // content[:, None])


def right_inverse(b) -> Matrix:
    """R = Bᵗ(BBᵗ)⁻¹, so that B·R = I for B of full row rank."""
    b = frac_mat(b)
    return b.T @ inverse(b @ b.T)


def hnf_rational(rows) -> Matrix:
    """HNF basis of the lattice spanned by rational rows."""
    m = frac_mat(rows)
    return _from_rows(hnf(m.num.tolist()), m.shape[1], m.den)
