"""Invariant suites: algebra axioms, enumeration invariance, reduction orbits,
equivalence-relation structure on a pool of ideals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binforms_reference
from binforms_reference import apply_unimodular, disc
from helpers import shuffled_store
from quatlift import fixture as fx
from quatlift import linalg
from quatlift.binforms import is_ambiguous, reduce_form, reduce_forms
from quatlift.quatcore import (Lattice, QuatElement, ideal_equivalent,
                               p_neighbors, reduce_right_ideal, short_vectors)
from quatlift.yoshida import TruncationError

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def element(coords):
    return QuatElement(fx.fixture_algebra(), coords)


@given(st.lists(rationals, min_size=8, max_size=8))
@settings(max_examples=120, deadline=None)
def test_conjugation_anti_automorphism(vals):
    x, y = element(vals[:4]), element(vals[4:])
    assert (x * y).conj() == y.conj() * x.conj()


@given(st.lists(rationals, min_size=8, max_size=8))
@settings(max_examples=120, deadline=None)
def test_norm_multiplicative(vals):
    x, y = element(vals[:4]), element(vals[4:])
    assert (x * y).norm() == x.norm() * y.norm()


@given(st.lists(rationals, min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_associativity_random(vals):
    x, y, z = element(vals[:4]), element(vals[4:8]), element(vals[8:])
    assert (x * y) * z == x * (y * z)


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_trace_conj_identities(vals):
    x = element(vals)
    one = fx.fixture_algebra().unit()
    assert x + x.conj() == one * x.trace()
    assert x * x.conj() == one * x.norm()


unimods = st.sampled_from([((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)),
                           ((0, -1), (1, 0)), ((1, 0), (0, -1))])


@given(st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8),
       st.lists(unimods, min_size=0, max_size=4))
@settings(max_examples=200, deadline=None)
def test_reduce_form_orbit(a, b, c, word):
    if 4 * a * c - b * b <= 0:
        return
    base, base_sign = reduce_form((a, b, c))
    t = (a, b, c)
    det = 1
    for u in word:
        t = apply_unimodular(t, u)
        det *= u[0][0] * u[1][1] - u[0][1] * u[1][0]
    red, sign = reduce_form(t)
    assert (red, sign) == binforms_reference.reduce_form(t)
    assert red == base
    assert disc(t) == disc((a, b, c))
    if not is_ambiguous(*base):
        assert sign == base_sign * det


@st.composite
def semidefinite_forms(draw):
    """A positive semidefinite [a, b, c]: a random one, a singular one m·(ux + vy)²,
    or one with b = ±a or a = c, moved by a random unimodular word."""
    kind = draw(st.sampled_from(["any", "singular", "b = a", "a = c"]))
    if kind == "singular":
        m, u, v = draw(st.integers(0, 5)), draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
        t = (m * u * u, 2 * m * u * v, m * v * v)
    elif kind == "any":
        a, c = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        r = math.isqrt(4 * a * c)
        t = (a, draw(st.integers(-r, r)), c)
    else:
        a = draw(st.integers(1, 20))
        c = a if kind == "a = c" else draw(st.integers(a, 40))
        b = draw(st.integers(-a, a)) if kind == "a = c" else draw(st.sampled_from([a, -a]))
        t = (a, b, c)
    for u in draw(st.lists(unimods, max_size=3)):
        t = apply_unimodular(t, u)
    return t


@given(st.lists(semidefinite_forms(), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_reduce_forms_matches_reduce_form(forms):
    a, b, c, sign = reduce_forms(*zip(*forms))
    got = list(zip(zip(a.tolist(), b.tolist(), c.tolist()), sign.tolist()))
    assert got == [binforms_reference.reduce_form(t) for t in forms]


# one store of each key type and weight, built once: every form with disc ≤ 60
# and (0, 0, m) with m ≤ 100, at bound 60 (int64 keys) or 10^10 (object keys)
STORES = {(weight, bound): shuffled_store(weight, bound)[0]
          for weight in (2, 3) for bound in (60, 10 ** 10)}


@pytest.mark.parametrize("bound", [60, 10 ** 10], ids=["int64-keys", "object-keys"])
@pytest.mark.parametrize("weight", [2, 3])
@given(forms=st.lists(semidefinite_forms(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_coefficients_match_the_scalar_read(weight, bound, forms):
    # non-canonical, singular and ambiguous forms; the ones within the bounds
    # are read as one column, each one past them must raise on its own
    f = STORES[weight, bound]
    inside, want = [], []
    for t in forms:
        try:
            want.append(binforms_reference.coefficient(f, t))
            inside.append(t)
        except TruncationError:
            with pytest.raises(TruncationError):
                f.coefficients([t[0]], [t[1]], [t[2]])
    a, b, c = np.array(inside, dtype=np.int64).reshape(-1, 3).T
    got = f.coefficients(a, b, c)
    assert [Fraction(n, f.denominator) for n in got.tolist()] == want
    assert [f.coefficient(t) for t in inside] == want


@given(st.lists(st.integers(-2, 2), min_size=16, max_size=16), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_short_vector_counts_unimodular_invariant(entries, m):
    u = [entries[4 * i:4 * i + 4] for i in range(4)]
    u[0][0] = u[1][1] = u[2][2] = u[3][3] = 1
    for i in range(4):
        for j in range(i, 4):
            u[i][j] = int(i == j)  # lower triangular unipotent: always unimodular
    g = fx.order_r1().gram
    ufr = linalg.frac_mat(u)
    g2 = ufr @ g @ ufr.T
    assert len(short_vectors(g, m)) == len(short_vectors(g2, m))


def test_ideal_equivalence_is_equivalence_relation():
    order = fx.order_r1()
    pool = [Lattice(order.algebra, order.basis, "ideal")]
    for p in (2, 3, 5):
        fresh = []
        for ideal in pool[:2]:
            for nb in p_neighbors(ideal, p):
                fresh.append(reduce_right_ideal(nb, order))
        pool.extend(fresh)
        if len(pool) >= 10:
            break
    pool = pool[:12]
    assert len(pool) >= 10
    eq = [[ideal_equivalent(a, b) for b in pool] for a in pool]
    n = len(pool)
    for i in range(n):
        assert eq[i][i]  # reflexive
        for j in range(n):
            assert eq[i][j] == eq[j][i]  # symmetric
            for k in range(n):
                if eq[i][j] and eq[j][k]:
                    assert eq[i][k]  # transitive


def test_brandt_blocks_independent_of_representative_scaling(class_set_17, space1):
    # cross lattices are rescaled per ideal norms; the q-normalization makes the
    # Brandt operator independent of which integral representative was found
    from quatlift.brandt import brandt_matrix
    b = brandt_matrix(class_set_17, 1, 2, space1)
    phi1 = fx.phi1()
    assert b.apply(phi1).values == phi1.scale(-3).values


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=9, max_size=9))
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_sympy(vals):
    import sympy
    m = [vals[:3], vals[3:6], vals[6:]]
    ours = linalg.charpoly(linalg.frac_mat(m))
    x = sympy.Symbol("x")
    sym = sympy.Matrix([[sympy.Rational(v) for v in row] for row in m]).charpoly(x)
    theirs = [Fraction(str(c)) for c in sym.all_coeffs()]
    assert ours == theirs


@st.composite
def linear_systems(draw):
    """A small n×m integer matrix (often singular) and k right-hand sides."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    entries = st.integers(-2, 2)
    a = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    rhs = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return linalg.frac_mat(a), linalg.frac_mat(rhs)


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_solve_many_equals_column_by_column_solve(system):
    a, rhs = system
    cols = [linalg.solve(a, b) for b in rhs]
    many = linalg.solve_many(a, rhs)
    if any(x is None for x in cols):
        assert many is None
    else:
        assert many == cols
    for b, x in zip(rhs, cols):
        # solve is None exactly when b is outside the column span of a
        assert (x is None) == (linalg.rank(a) < linalg.rank([r + [c] for r, c in zip(a, b)]))
        if x is not None:
            assert [sum(r * y for r, y in zip(row, x)) for row in a] == b


def _random_unimodular(rng, n, steps=12):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


def test_hnf_is_canonical():
    # many generating sets of one lattice must give one basis, both from `hnf`
    # and as `Lattice`s, whose equality and hash compare these bases
    import random
    rng = random.Random(20)
    alg = fx.fixture_algebra()
    checked = 0
    while checked < 400:
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        if linalg.det(linalg.frac_mat(rows)) == 0:
            continue
        checked += 1
        want = linalg.hnf(rows)
        assert linalg.hnf(want) == want
        lat = Lattice.from_generators(alg, rows)
        for _ in range(3):
            u = _random_unimodular(rng, 4)
            other = [[sum(a * b for a, b in zip(ur, col)) for col in zip(*rows)] for ur in u]
            assert linalg.hnf(other + rows) == want
            assert linalg.hnf(other) == want
            twin = Lattice.from_generators(alg, other)
            assert twin == lat and hash(twin) == hash(lat)
        # from_generators keeps its basis, already the Hermite one, as hnf_basis, and a
        # positive multiple keeps c·H; a negative one has negative pivots and recomputes
        den = rng.randint(1, 6)
        lat = Lattice.from_generators(alg, [[Fraction(x, den) for x in row] for row in rows])
        assert lat.hnf_basis is lat.basis and lat.hnf_basis == linalg.hnf_rational(lat.basis)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        up, down = lat.scale(c), lat.scale(-c)
        assert up.hnf_basis == up.basis == linalg.hnf_rational(up.basis)
        assert "hnf_basis" not in down.__dict__
        assert down.hnf_basis == linalg.hnf_rational(down.basis) == up.basis != down.basis
        assert down == up
        assert lat.conjugate() is lat.conjugate() and lat.conjugate().conjugate() == lat
