"""Shared constructions for the test suite."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from quatlift import fixture as fx
from quatlift import linalg
from quatlift.binforms import form_table, is_ambiguous
from quatlift.harmonic import monomials_of_degree
from quatlift.quatcore import Lattice, QuaternionAlgebra, _rref_mod_p
from quatlift.yoshida import FourierExpansionSiegel2


def quaternion_table(a, b):
    """Structure constants of the algebra (a, b) over Q on the basis (1, i, j, k):
    i² = a, j² = b and k = ij = −ji.  Definite when a, b < 0."""
    one, i, j, k = [[int(t == s) for t in range(4)] for s in range(4)]

    def times(c, v):
        return [c * x for x in v]

    return [[one, i, j, k],
            [i, times(a, one), k, times(a, j)],
            [j, times(-1, k), times(b, one), times(-b, i)],
            [k, times(-a, j), times(b, i), times(-a * b, one)]]


def hamilton_algebra():
    """The rational Hamilton quaternions (−1, −1) on the basis (1, i, j, k)."""
    alg = QuaternionAlgebra(quaternion_table(-1, -1), [1, 0, 0, 0], name="hamilton")
    alg.validate()
    return alg


def hurwitz_order():
    return Lattice(hamilton_algebra(),
                   [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                    [Fraction(1, 2)] * 4], kind="order")


def level34_order():
    vecs = [v for v in itertools.product((0, 1), repeat=4)][1:]
    cands = set()
    for pair in itertools.combinations(vecs, 2):
        span = _rref_mod_p([[1, 0, 0, 0]] + [list(t) for t in pair], 2)
        if len(span) == 3:
            cands.add(tuple(tuple(r) for r in span))
    for span in sorted(cands):
        rows = [[Fraction(x) for x in r] for r in span] + \
            [[2 * x for x in row] for row in linalg.identity(4)]
        lat = Lattice.from_generators(fx.fixture_algebra(), rows, "order")
        ok, _ = lat.is_order()
        if ok and lat.level == 34:
            return lat
    raise AssertionError("no level-34 order found")


def monomial_values(x, nu):
    """m_ν(x): the degree-ν monomials of the coordinates x."""
    out = []
    for e in monomials_of_degree(len(x), nu):
        v = 1
        for xk, k in zip(x, e):
            v *= xk ** k
        out.append(v)
    return out


def narrowest_signed(bound):
    """The narrowest signed numpy integer type that holds −bound…bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def expansion(weight, level, bound, entries, singular_bound=None):
    """The degree-2 expansion with the given {form: value} entries, built by
    `FourierExpansionSiegel2.from_columns` over the values' common denominator."""
    values = [Fraction(v) for v in entries.values()]
    den = math.lcm(*(v.denominator for v in values))
    a, b, c = np.array(list(entries), dtype=np.int64).reshape(-1, 3).T
    return FourierExpansionSiegel2.from_columns(
        weight, level, bound, a, b, c, [v.numerator * (den // v.denominator) for v in values],
        den, singular_bound=singular_bound)


def shuffled_store(weight, bound, seed=0):
    """Every form with disc ≤ 60 and (0, 0, m) with m ≤ 100, canonical order, with
    values in sixths, zeros among them (every ambiguous form in odd weight), and
    the expansion `from_columns` builds from the columns in a shuffled order.
    The singular range reaches past the least definite `form_keys` (81 at bound 60)."""
    rng = random.Random(seed)
    forms = [(0, 0, m) for m in range(101)] + list(zip(*(x.tolist() for x in form_table(60))))
    values = [Fraction(0) if weight % 2 and is_ambiguous(*t) else Fraction(rng.randint(-3, 3), 6)
              for t in forms]
    perm = rng.sample(range(len(forms)), len(forms))
    a, b, c = np.array([forms[i] for i in perm], dtype=np.int64).T
    f = FourierExpansionSiegel2.from_columns(weight, 17, bound, a, b, c,
                                             [int(6 * values[i]) for i in perm], 6,
                                             singular_bound=100)
    return f, forms, values


def row_sums(engine, a, cs, bs, mat, nu):
    """The pair sums of the forms (a, bs[i], cs[i]) of one row a: a one-row
    `ThetaEngine.table_sums`."""
    return engine.table_sums(np.full(len(cs), a), bs, cs, mat, nu)
