"""Exact rational linear algebra on small dense matrices.

Matrices are lists of lists of Fraction (or int, coerced on the fly); nothing
here is sized for more than a few dozen rows.  All routines are deterministic
and never touch floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def frac_mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def vec_mat(v, a: Matrix) -> Vector:
    m = len(a[0])
    return [sum((v[i] * a[i][j] for i in range(len(v))), Fraction(0)) for j in range(m)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prod = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        prod *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return sign * prod


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot columns)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel (free variables set to 1)."""
    red, pivots = rref(a)
    cols = len(a[0]) if a else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b) -> Vector | None:
    """One solution of a·x = b, or None if inconsistent."""
    sol = solve_many(a, [b])
    return None if sol is None else sol[0]


def solve_many(a: Matrix, rhs) -> list[Vector] | None:
    """One solution of a·x = b for each b in rhs, from one rref; None if any is inconsistent."""
    n, m = len(a), len(a[0])
    aug = [a[i][:] + [Fraction(b[i]) for b in rhs] for i in range(n)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= m:
        return None
    out = [[Fraction(0)] * m for _ in rhs]
    for r, pc in enumerate(pivots):
        for t, x in enumerate(out):
            x[pc] = red[r][m + t]
    return out


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def charpoly(a: Matrix) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients highest degree first.

    Faddeev-LeVerrier; exact over the rationals.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        for i in range(n):
            m[i][i] += c
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


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


def common_denominator(rows: Matrix) -> int:
    d = 1
    for row in rows:
        for x in row:
            d = d * x.denominator // math.gcd(d, x.denominator)
    return d


def integer_form(rows) -> tuple[list[list[int]], int]:
    """(N, d) with rows = N/d: d the least common denominator, N integer rows."""
    d = common_denominator(rows)
    return [[int(x * d) for x in row] for row in rows], d


def right_inverse(b: Matrix) -> Matrix:
    """R = Bᵗ(BBᵗ)⁻¹, so that B·R = I for B of full row rank."""
    bt = transpose(b)
    return mat_mul(bt, inverse(mat_mul(b, bt)))


def hnf_rational(rows: Matrix) -> Matrix:
    """HNF basis of the lattice spanned by rational rows."""
    ints, d = integer_form(rows)
    return [[Fraction(x, d) for x in row] for row in hnf(ints)]
