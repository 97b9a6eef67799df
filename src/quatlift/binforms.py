"""Half-integral binary forms [a, b, c] ~ matrix [[a, b/2], [b/2, c]].

Canonical reduction under GL₂(Z) with the determinant of the reducing word
tracked, because odd-weight Fourier coefficients pick up det(U)^k.  The
canonical representative of a positive definite class satisfies
0 ≤ b ≤ a ≤ c; rank-one (singular) forms reduce to [0, 0, m].

One copy of each rule, on numpy columns: `reduce_forms` reduces forms and
tracks det(U), `is_reduced` tests the canonical set and `is_ambiguous` the
forms that odd weight zeroes; `reduce_form` is one row of `reduce_forms`.
`form_table` lists the reduced forms up to a discriminant bound as columns in
the canonical order (disc, a, b), and `form_keys` maps forms to integers in
that order.
"""

from __future__ import annotations

import math

import numpy as np

BinaryForm = tuple[int, int, int]


def is_reduced(a, b, c):
    """0 ≤ b ≤ a ≤ c, row by row on columns (or on one form's entries): the
    canonical representatives, singular ones (0, 0, m) among them."""
    return (0 <= b) & (b <= a) & (a <= c)


def is_ambiguous(a, b, c):
    """Reduced forms fixed by a determinant −1 substitution (zero in odd weight),
    row by row on columns (or on one form's entries)."""
    return (b == 0) | (b == a) | (a == c)


def reduce_form(t) -> tuple[BinaryForm, int]:
    """Canonical reduced representative and the sign det(U) of the reducing word:
    one row of `reduce_forms`.

    Accepts any positive semidefinite [a, b, c] of integers; raises on other input.
    """
    a, b, c, sign = reduce_forms(*([x] for x in t))
    return (int(a[0]), int(b[0]), int(c[0])), int(sign[0])


def reduce_forms(a, b, c):
    """The canonical forms of positive semidefinite columns and the signs det(U)
    of the reducing words, row by row.

    Both det +1 steps, the swap x ↦ (−y, x) and the translation x ↦ x + ky that
    moves b into (−a, a], run on every row that still needs one until no row
    does; the rows with b < 0 left then flip with diag(1, −1).  A det +1
    reduction of a form ends in the same form whatever the order of its steps,
    so running the steps of all rows at once changes no row's result.  The
    canonical forms satisfy `is_reduced`; a rank-one form ends as (0, 0, m).
    ValueError unless every column is integer: an int or uint dtype, or object
    with Python-int entries.  int64 while every |entry| < 2³⁰, which keeps
    a·k² + b·k + c below 2⁶²; otherwise object arrays of Python ints run the same code.
    """
    cols = [np.asarray(x) for x in (a, b, c)]
    # the rows of each column that are not integers: none in an int or uint dtype, the
    # entries other than Python ints in an object one, every row in any other dtype
    rows = [np.flatnonzero([type(v) is not int for v in x]) if x.dtype == object
            else np.arange(0 if x.dtype.kind in "iu" else len(x)) for x in cols]
    if any(map(len, rows)):
        i = min(int(r[0]) for r in rows if len(r))
        raise ValueError(f"form {tuple(x.tolist()[i] for x in cols)} has an entry that is "
                         f"not an integer")
    big = max((int(np.abs(x).max()) for x in cols if x.size), default=0) >= 1 << 30
    a, b, c = (x.astype(object if big else np.int64) for x in cols)
    bad = (4 * a * c - b * b < 0) | (a < 0) | (c < 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"form {(int(a[i]), int(b[i]), int(c[i]))} is not positive semidefinite")
    while True:
        swap = (c < a) | ((c == a) & (b < 0))  # x ↦ (−y, x)
        a[swap], b[swap], c[swap] = c[swap], -b[swap], a[swap]
        i = np.flatnonzero((a != 0) & ((b > a) | (b <= -a)))  # x ↦ x + ky
        if len(i):
            ai, bi = a[i], b[i]
            k = (ai - bi) // (2 * ai)
            b[i], c[i] = bi + 2 * ai * k, ai * k * k + bi * k + c[i]
        elif not swap.any():
            break
    sign = np.ones(len(a), dtype=np.int64)
    neg = b < 0
    b[neg] = -b[neg]
    sign[neg] = -1
    return a, b, c, sign


def form_table(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical positive definite forms with disc ≤ bound: int64 columns
    (a, b, c) sorted by (disc, a, b).

    A reduced form has 4ac − b² ≥ 3a², so a ≤ √(bound/3), and each pair
    (a, b ≤ a) gives the run c = a, …, (bound + b²)//4a.  Sorting by disc
    first makes the table for a smaller bound a prefix of the table for a
    larger one.
    """
    amax = math.isqrt(max(bound, 0) // 3)
    sizes = np.arange(2, amax + 2)  # b = 0, …, a for a = 1, …, amax
    a = np.repeat(np.arange(1, amax + 1), sizes)
    b = np.arange(len(a)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    runs = np.maximum((bound + b * b) // (4 * a) - a + 1, 0)
    a, b = np.repeat(a, runs), np.repeat(b, runs)
    c = a + np.arange(len(a)) - np.repeat(np.cumsum(runs) - runs, runs)
    order = np.lexsort((b, a, 4 * a * c - b * b))
    return a[order], b[order], c[order]


def form_keys(a, b, c, bound: int):
    """Integer keys in the order (disc, a, b) of reduced forms with disc ≤ bound.

    The key is (disc·r + a)·r + b with r = ⌊√(bound/3)⌋ + 1 > a ≥ b; int64
    while (bound + 1)·r² < 2⁶³, otherwise Python ints.
    """
    r = math.isqrt(max(bound, 0) // 3) + 1
    if (bound + 1) * r * r >= 1 << 63:
        a, b, c = (np.asarray(x, dtype=object) for x in (a, b, c))
    return ((4 * a * c - b * b) * r + a) * r + b
