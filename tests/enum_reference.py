"""The one-shot half-shell enumeration that the chunked kernel replaced.

The whole Fincke–Pohst tree as one 2-D array of coordinate rows, norms from one
int64 matmul, rows ordered by an argsort of the norms.  Kept as an oracle for
`quatcore.short_vectors_upto`: the same lattice must give the same rows in every
norm bucket, in any order.
"""

import math
from fractions import Fraction

import numpy as np

from quatlift import linalg
from quatlift.quatcore import _gauss_reduce_gram, _int_ldl, _isqrt


def half_shells(g, max_norm) -> dict[Fraction, np.ndarray]:
    """One of each ±v with 0 < vᵗGv ≤ 2·max_norm, bucketed by vᵗGv/2 (int64 entries only)."""
    g = linalg.frac_mat(g)
    n, den = len(g), g.den
    gint, u = _gauss_reduce_gram(g.num.tolist())
    minors, m = _int_ldl(gint)
    bound = math.floor(2 * Fraction(max_norm) * den)
    coords = np.zeros((1, 0), dtype=np.int64)  # columns v_{i+1}, …, v_{n-1}
    rem = np.array([minors[n] * bound], dtype=np.int64)
    zero = np.ones(1, dtype=bool)
    for i in range(n - 1, -1, -1):
        step = minors[i + 1]
        center = coords @ np.array([m[j][i] for j in range(i + 1, n)], dtype=np.int64)
        room = minors[i] * rem
        root = _isqrt(room)
        lo = -((root + center) // step)
        lo[zero] = 0
        counts = (root - center) // step - lo + 1
        parent = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        vi = lo[parent] + (np.arange(len(parent)) - first[parent])
        if i:
            x = step * vi + center[parent]
            rem = (room[parent] - x * x) // step
        coords = np.column_stack((vi, coords[parent]))
        zero = zero[parent] & (vi == 0)
    norms = ((coords @ np.array(gint, dtype=np.int64)) * coords).sum(axis=1)
    keep = (norms > 0) & (norms <= bound)
    vecs, norms = coords[keep] @ np.array(u, dtype=np.int64), norms[keep]
    order = np.argsort(norms)
    vecs, norms = vecs[order], norms[order]
    cuts = (np.flatnonzero(norms[1:] != norms[:-1]) + 1).tolist()
    return {Fraction(int(norms[a]), 2 * den): vecs[a:b]
            for a, b in zip([0] + cuts, cuts + [len(norms)])}
