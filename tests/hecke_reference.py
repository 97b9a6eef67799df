"""T(p) one block D at a time: the reference for `siegelhecke.hecke_Tp`.

Each distinct block D of the coset list reads the input coefficients of its own
transplants S[Dᵗ]/p through one `coefficients` call and adds them, weighted,
into the output forms; `hecke_Tp` does every block in one read and one scatter.
"""

import math

import numpy as np

from quatlift.binforms import form_table
from quatlift.siegelhecke import _grouped_cosets
from quatlift.yoshida import FourierExpansionSiegel2


def hecke_Tp_per_block(f: FourierExpansionSiegel2, p: int) -> FourierExpansionSiegel2:
    """T(p)f with the same normalization and output forms as `hecke_Tp`."""
    k = f.weight
    out_bound = f.bound // (p * p)
    weights = _grouped_cosets(p, k)
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
