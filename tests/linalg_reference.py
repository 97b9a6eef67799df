"""Reference kernels on lists of lists of Fraction, one entry at a time.

Slow and obviously exact: the integer kernels of `quatlift.linalg` and
`quatcore._gauss_reduce_gram` are checked against these in test_linalg.py.
"""

import math
from fractions import Fraction


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = zeros(n, m)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                for j in range(m):
                    out[i][j] += c * b[t][j]
    return out


def det(a):
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


def rref(a):
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


def nullspace(a, cols):
    red, pivots = rref(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_many(a, rhs):
    n, m = len(a), len(a[0])
    aug = [a[i][:] + [b[i] for b in rhs] for i in range(n)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= m:
        return None
    out = [[Fraction(0)] * m for _ in rhs]
    for r, pc in enumerate(pivots):
        for t, x in enumerate(out):
            x[pc] = red[r][m + t]
    return out


def inverse(a):
    n = len(a)
    aug = [a[i][:] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def charpoly(a):
    """Faddeev–LeVerrier over the rationals, highest degree first."""
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


def gauss_reduce_gram(g):
    """Pairwise size reduction of a rational Gram matrix: (G', U) with G' = U·G·Uᵗ."""
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
                k = math.floor(Fraction(g[i][j]) / Fraction(g[j][j]) + Fraction(1, 2))
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
