import hashlib
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enum_reference
from quatlift import fixture as fx
from quatlift import linalg, quatcore
from helpers import hamilton_algebra, hurwitz_order, level34_order, narrowest_signed
from quatlift.quatcore import (ClassSet, Lattice, QuaternionAlgebra, UsageError,
                               check_mass, class_set, eichler_mass,
                               ideal_equivalent, is_ramified, p_neighbors, short_vectors,
                               short_vectors_upto, superorders, transporters,
                               two_sided_ideal)


def det_by_cofactors(m):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_by_cofactors(minor)
    return total


def test_basis_products(algebra):
    f1 = algebra.basis_element(1)
    f2 = algebra.basis_element(2)
    f3 = algebra.basis_element(3)
    one = algebra.unit()
    assert f1 * f2 == f1 + f2 - f3
    for x in (one, f1, f2, f3, f1 * f2 + f3 * 2):
        assert one * x == x and x * one == x
    assert f1 * f1 == one * (-2) + f1
    assert f1.trace() == 1 and f1.norm() == 2


def test_mismatched_algebras_rejected(algebra):
    other = QuaternionAlgebra(fx.STRUCTURE_CONSTANTS, [1, 0, 0, 0])
    with pytest.raises(UsageError):
        algebra.basis_element(1) * other.basis_element(2)


def test_conjugate_trace_and_norm(algebra):
    one, f2, f3 = algebra.unit(), algebra.basis_element(2), algebra.basis_element(3)
    for x, xb, t, n in ((one, one, 2, 1), (f3, -f3, 0, 5), (f2, one - f2, 1, 3)):
        assert (x.conj(), x.trace(), x.norm()) == (xb, t, n)
        assert x * xb == one * n


def test_gram_matrices_match_published():
    assert [[int(x) for x in row] for row in fx.order_r1().gram] == fx.R1_GRAM
    assert [[int(x) for x in row] for row in fx.order_r2().gram] == fx.R2_GRAM
    assert [[int(x) for x in row] for row in fx.ideal_i12().gram] == fx.I12_GRAM


def test_gram_determinants_against_cofactor_oracle():
    for lat in (fx.order_r1(), fx.order_r2(), fx.ideal_i12()):
        assert lat.gram_det == det_by_cofactors(lat.gram) == fx.GRAM_DET


def test_short_vectors_unit_counts():
    assert len(short_vectors(fx.order_r1().gram, 1)) == 2
    assert len(short_vectors(fx.order_r2().gram, 1)) == 6
    assert short_vectors(fx.order_r1().gram, 0) == [(0, 0, 0, 0)]


def brute_force_short_vectors(g, max_norm):
    """Independent oracle: every v in the box |v_j| ≤ √(2·max_norm·(G⁻¹)_jj), by norm."""
    bound = 2 * Fraction(max_norm)
    if bound <= 0:
        return {}
    n = len(g)
    inv = linalg.inverse(linalg.frac_mat(g))
    radius = [math.isqrt(math.floor(bound * inv[j][j])) for j in range(n)]
    den = linalg.frac_mat(g).den
    gi = [[int(Fraction(x) * den) for x in row] for row in g]
    out = {}
    for v in itertools.product(*(range(-r, r + 1) for r in radius)):  # lexicographic
        q = sum(v[a] * gi[a][b] * v[b] for a in range(n) for b in range(n))
        if 0 < q <= bound * den:
            out.setdefault(Fraction(q, 2 * den), []).append(v)
    return out


def as_lists(buckets):
    return {m: list(map(tuple, vs.tolist())) for m, vs in buckets.items()}


def assert_half_shells(half, full):
    """Each half bucket holds one of every ±v of the full bucket, and nothing else;
    `full` maps each norm to its list of vectors; the half buckets come in increasing norm."""
    assert list(half) == sorted(full)
    for m, rows in as_lists(half).items():
        negated = {tuple(-x for x in v) for v in rows}
        assert len(set(rows)) == len(rows) and not negated & set(rows)
        assert set(rows) | negated == set(full[m])


def assert_slices_of_one_array(half):
    """The half buckets are consecutive row slices, in increasing norm, of their one
    base, `half.vecs`; the k-th is norms[k]/(2·den), rows starts[k]:starts[k + 1]."""
    assert half.starts.tolist() == [0] + list(itertools.accumulate(map(len, half.values())))
    assert [Fraction(int(x), 2 * half.den) for x in half.norms] == list(half)
    if not half:
        assert half.vecs.shape[0] == 0
        return
    base = next(iter(half.values())).base
    assert base is half.vecs
    assert list(half) == sorted(half)
    end = 0
    for vs in half.values():
        assert vs.base is base and np.shares_memory(vs, base)
        assert vs.__array_interface__["data"] == base[end:].__array_interface__["data"]
        end += len(vs)
    assert end == len(base)


def check_enumeration(g, max_norm):
    """The half shells of g against the brute-force oracle, and `short_vectors` of
    every norm against its full, lexicographic list; returns the half shells."""
    half = short_vectors_upto(g, max_norm)
    full = brute_force_short_vectors(g, max_norm)
    assert_half_shells(half, full)
    assert_slices_of_one_array(half)
    for m, vs in full.items():
        assert short_vectors(g, m) == vs
    if max_norm > 0 and max_norm not in full:
        assert short_vectors(g, max_norm) == []
    return half


GRAM_STRATEGIES = dict(a=st.lists(st.integers(-2, 2), min_size=16, max_size=16),
                       diag=st.lists(st.integers(1, 3), min_size=4, max_size=4),
                       off=st.lists(st.integers(-1, 1), min_size=6, max_size=6),
                       den=st.sampled_from([1, 2, 3]),
                       max_norm=st.fractions(min_value=-1, max_value=4, max_denominator=4))


def check_against_brute_force(a, diag, off, den, max_norm):
    """The enumeration of a random Gram matrix, checked; returns the half shells."""
    # A·Aᵗ + diag has least eigenvalue ≥ 1; the off-diagonal fifths have norm < 1,
    # so G stays positive definite, and den ≠ 1 or off ≠ 0 makes it non-integral
    rows = [a[4 * i:4 * i + 4] for i in range(4)]
    pert = dict(zip(itertools.combinations(range(4), 2), off))
    g = [[(sum(rows[i][k] * rows[j][k] for k in range(4)) + (diag[i] if i == j else 0)
           + Fraction(pert.get((min(i, j), max(i, j)), 0), 5)) / den
          for j in range(4)] for i in range(4)]
    return check_enumeration(g, max_norm)


def assert_same_buckets(want, got):
    """The same norms, and per norm the same array: entries, order and dtype."""
    assert list(want) == list(got)
    for m, vs in want.items():
        assert vs.dtype == got[m].dtype and np.array_equal(vs, got[m])


def forced(crossover):
    """`short_vectors_upto`'s size rule with its crossover patched: at 0 every
    enumeration runs the numpy kernel, at infinity the Python-int recursion."""
    return mock.patch.object(quatcore, "_SMALL_ENUMERATION", crossover)


def assert_identical_half_shells(want, got):
    """The same rows in the same order and dtype, the same norms, offsets and den."""
    assert want.vecs.dtype == got.vecs.dtype and want.vecs.shape == got.vecs.shape
    if want.vecs.dtype == object:
        assert want.vecs.tolist() == got.vecs.tolist()
    else:
        assert want.vecs.tobytes() == got.vecs.tobytes()
    assert want.norms.dtype == got.norms.dtype and want.norms.tolist() == got.norms.tolist()
    assert want.starts.dtype == got.starts.dtype and want.starts.tolist() == got.starts.tolist()
    assert want.den == got.den


def both_strategies(check, *args):
    """check(*args) with each enumeration strategy forced, returning half shells;
    the two must be identical.  Returns the numpy kernel's."""
    with forced(0):
        kernel = check(*args)
    with forced(math.inf):
        recursion = check(*args)
    assert_identical_half_shells(kernel, recursion)
    return kernel


@pytest.mark.parametrize("huge", [False, True])
def test_short_vectors_upto_same_buckets_on_a_cache_hit(huge):
    # the level-34 order on int64, and the huge Gram matrix on Python ints
    if huge:
        scale = 10 ** 20
        g, bound = huge_gram(scale), 4 * scale
        halved_g = [[x / 2 for x in row] for row in g]
    else:
        g, bound = level34_order().gram, 12
        halved_g = g * Fraction(1, 2)
    quatcore._reduced_gram.cache_clear()
    miss = short_vectors_upto(g, bound)
    assert miss and (miss.vecs.dtype == object) == huge
    assert quatcore._reduced_gram.cache_info()[:2] == (0, 1)  # (hits, misses)
    hit = short_vectors_upto(g, bound)
    assert quatcore._reduced_gram.cache_info()[:2] == (1, 1)
    assert_same_buckets(miss, hit)
    # G/2 has the same integer numerator, so it reads the same entry
    halved = short_vectors_upto(halved_g, Fraction(bound, 2))
    assert quatcore._reduced_gram.cache_info()[:2] == (2, 1)
    assert_same_buckets({m / 2: vs for m, vs in miss.items()}, halved)


def test_reduced_gram_cache_entries_are_immutable():
    g = fx.order_r1().gram
    short_vectors_upto(g, 2)
    key = tuple(g.num.ravel().tolist()), 4
    entry = quatcore._reduced_gram(*key)
    gint, u, minors, m = entry
    assert all(type(x) is tuple for x in (entry, gint, u, minors, m, *gint, *u, *m))
    with pytest.raises(TypeError):
        gint[0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        u[0][0] = 0
    assert quatcore._reduced_gram(*key) is entry


@given(**GRAM_STRATEGIES)
@settings(max_examples=60, deadline=None)
def test_short_vectors_upto_matches_brute_force(a, diag, off, den, max_norm):
    # each strategy against the oracle, and the two identical
    both_strategies(check_against_brute_force, a, diag, off, den, max_norm)


@pytest.mark.parametrize("budget", [1, 3, 7])
@given(**GRAM_STRATEGIES)
@settings(max_examples=25, deadline=None)
def test_short_vectors_upto_chunk_boundaries(budget, a, diag, off, den, max_norm):
    # leaf chunks of 1, 3 and 7 leaves (a prefix whose range is longer is a chunk
    # of its own) split the numpy kernel's work only: the same rows come out in
    # the same order as from either strategy whole
    whole = both_strategies(check_against_brute_force, a, diag, off, den, max_norm)
    with forced(0), mock.patch.object(quatcore, "_LEAF_BUDGET", budget):
        chunked = check_against_brute_force(a, diag, off, den, max_norm)
    assert_identical_half_shells(whole, chunked)


def huge_gram(scale):
    """R₁'s Gram matrix times `scale`, with one entry off by 1/3."""
    g = [[Fraction(x * scale) for x in row] for row in fx.R1_GRAM]
    g[0][1] = g[1][0] = g[0][1] + Fraction(1, 3)
    return g


def check_huge_entries():
    scale = 10 ** 20  # leading minors near 10⁸⁰: past int64
    half = check_enumeration(huge_gram(scale), 4 * scale)
    assert half and half.vecs.dtype == object
    return half


def test_short_vectors_upto_huge_entries_use_python_ints():
    both_strategies(check_huge_entries)


@pytest.mark.parametrize("budget", [1, 3, 7])
def test_short_vectors_upto_huge_entries_chunked(monkeypatch, budget):
    whole = both_strategies(check_huge_entries)
    monkeypatch.setattr(quatcore, "_LEAF_BUDGET", budget)
    with forced(0):
        assert_identical_half_shells(whole, check_huge_entries())


@pytest.mark.parametrize("budget", [1, 3, 7, quatcore._LEAF_BUDGET])
@pytest.mark.parametrize("huge", [False, True])
def test_short_vectors_upto_below_the_minimum_is_empty(monkeypatch, budget, huge):
    # the bound is positive but no nonzero vector reaches it: R₁ on int64, and
    # the huge Gram matrix on Python ints; each strategy builds its own empty
    # result, with the same dtypes
    monkeypatch.setattr(quatcore, "_LEAF_BUDGET", budget)
    if huge:
        scale = 10 ** 20
        assert both_strategies(short_vectors_upto, huge_gram(scale), scale // 2) == {}
        assert both_strategies(short_vectors_upto, huge_gram(scale), scale)
    else:
        r1 = fx.order_r1().gram
        assert both_strategies(short_vectors_upto, r1, Fraction(1, 2)) == {}
        assert both_strategies(short_vectors_upto, r1, Fraction(99, 100)) == {}


@pytest.mark.parametrize("max_norm", [-1, 0])
@pytest.mark.parametrize("huge", [False, True])
def test_short_vectors_upto_at_bound_zero_is_empty(max_norm, huge):
    # bound <= 0 returns before either strategy runs
    g = huge_gram(10 ** 20) if huge else fx.order_r1().gram
    half = both_strategies(short_vectors_upto, g, max_norm)
    assert half == {} and half.vecs.shape == (0, 4)


@pytest.mark.parametrize("g", [[[2]], [[Fraction(1, 3)]], [[2, 1], [1, 2]],
                               [[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), 1]],
                               [[4, 1, 0], [1, 2, 1], [0, 1, 6]],
                               [[6, 5, 1], [5, 6, 2], [1, 2, 3]]])
@pytest.mark.parametrize("budget", [1, 4, quatcore._LEAF_BUDGET])
def test_short_vectors_upto_small_dimensions(monkeypatch, g, budget):
    # n = 1, 2, 3: no prefix level, one, and two; with and without size reduction
    monkeypatch.setattr(quatcore, "_LEAF_BUDGET", budget)
    for max_norm in (Fraction(1, 2), 3, Fraction(17, 3)):
        both_strategies(check_enumeration, g, max_norm)


def test_isqrt_is_exact_around_squares():
    # next to k² the float root can round up to k; below 2⁵² its floor is exact as is
    ks = [1, 2, 3, 2 ** 20 + 7, 2 ** 26 - 1, 2 ** 26, 3 * 2 ** 28 + 1, 2 ** 31 - 1]
    xs = np.array(sorted({k * k + d for k in ks for d in (-1, 0, 1)}), dtype=np.int64)
    want = [math.isqrt(x) for x in xs.tolist()]
    assert quatcore._isqrt(xs).tolist() == want
    assert quatcore._isqrt(xs.astype(object)).tolist() == want
    low = xs < 2 ** 52
    assert quatcore._isqrt(xs[low], True).tolist() == np.array(want)[low].tolist()
    assert np.sqrt(xs[~low]).astype(np.int64).tolist() != np.array(want)[~low].tolist()


@pytest.mark.parametrize("diag,largest,want", [
    ((2, 500, 500, 500), 126, np.int8), ((2, 500, 500, 500), 127, np.int16),
    ((2, 500, 500, 500), 128, np.int16), ((2, 10 ** 8), 32766, np.int16),
    ((2, 10 ** 8), 32767, np.int32), ((2, 10 ** 8), 32768, np.int32)])
def test_half_shells_take_the_narrowest_dtype_of_the_kernel_bound(diag, largest, want):
    # vᵗGv ≤ 2·largest² puts the largest coordinate at v₀ = ±largest.  The dtype
    # comes from the kernel's own bound (vmax and U, here largest + 1), never from
    # the rows; both Gram matrices keep the kernel on int64, and coordinates near
    # 32768 need n < 4 for that.  The rows must be the reference's, unwrapped.
    n = len(diag)
    g = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    half = short_vectors_upto(g, largest ** 2)
    _, u, minors, m = quatcore._reduced_gram(tuple(x for row in g for x in row), n)
    bound = quatcore._coordinate_bound(u, quatcore._vmax(minors, m, 2 * largest ** 2)[0])
    assert bound == largest + 1
    assert half.vecs.dtype == narrowest_signed(bound) == want
    rows = half.vecs.astype(np.int64)
    assert np.abs(rows).max() == rows[:, 0].max() == largest
    # per row (norm index, coordinates), sorted: the same on both sides
    ref = enum_reference.half_shells(g, largest ** 2)
    assert half.norms.tolist() == [int(2 * x) for x in ref]
    assert half.starts.tolist() == [0] + list(itertools.accumulate(map(len, ref.values())))
    labels = np.repeat(np.arange(len(half)), np.diff(half.starts))[:, None]
    got, want_rows = (np.hstack((labels, r)) for r in (rows, np.concatenate(list(ref.values()))))
    assert np.array_equal(got[np.lexsort(got.T)], want_rows[np.lexsort(want_rows.T)])


def test_half_shells_read_as_buckets():
    # the mapping view of the integer columns: Fraction keys, KeyError off the norms
    g = fx.order_r1().gram
    half = short_vectors_upto(g, 6)
    assert_half_shells(half, brute_force_short_vectors(g, 6))
    assert half.den == g.den
    for m in (0, Fraction(1, 3), -2, 7, 10 ** 30):
        assert m not in half and half.get(m) is None
        with pytest.raises(KeyError):
            half[m]
    assert np.array_equal(half[6], half[Fraction(12, 2)])


def test_short_vectors_upto_int64_past_2_52():
    # R₁'s Gram matrix times 30: the magnitude bound is between 2⁵² and 2⁶², so the
    # kernel stays on int64 and takes the corrected square roots
    g = [[30 * x for x in row] for row in fx.R1_GRAM]
    gint, u = quatcore._gauss_reduce_gram(g)
    minors, m = quatcore._int_ldl(gint)
    vmax, terms = quatcore._vmax(minors, m, 2 * 120)
    magnitude = quatcore._magnitude(gint, vmax, terms, quatcore._coordinate_bound(u, vmax))
    assert 2 ** 52 <= magnitude < linalg.INT64_SAFE
    half = both_strategies(check_enumeration, g, 120)
    assert half and half.vecs.dtype != object


def test_enumeration_hands_out_python_ints():
    r1 = fx.order_r1()
    bucket = short_vectors_upto(r1.gram, 3)[Fraction(3)]
    assert bucket.dtype == np.int8
    vecs = short_vectors(r1.gram, 3)
    rows = bucket.tolist()
    assert vecs == sorted(map(tuple, rows + [[-x for x in v] for v in rows]))
    assert all(type(t) is int for v in vecs for t in v)
    x = r1.element_from(bucket[0])
    assert all(type(c.numerator) is int and type(c.denominator) is int for c in x.coords)


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        short_vectors([[1, 0], [0, -1]], 1)


def test_short_vectors_negative_norm():
    with pytest.raises(ValueError):
        short_vectors(fx.order_r1().gram, -1)


def test_left_right_order_of_connecting_ideal():
    i12 = fx.ideal_i12()
    assert i12.left_order == fx.order_r2()
    assert i12.right_order == fx.order_r1()


def test_order_is_its_own_two_sided_ideal():
    r1 = fx.order_r1()
    assert r1.left_order == r1 and r1.right_order == r1
    scaled = r1.scale(3)
    assert scaled.left_order == r1 and scaled.right_order == r1


def test_scale_keeps_the_basis_and_rejects_zero():
    i12 = fx.ideal_i12()
    scaled = i12.scale(Fraction(-5, 2))
    assert scaled.basis == i12.basis * Fraction(-5, 2) and scaled.kind == i12.kind
    assert scaled.gram_det == Fraction(5, 2) ** 8 * i12.gram_det
    for c in (0, Fraction(0)):
        with pytest.raises(ValueError):
            i12.scale(c)


def test_ideal_equivalence():
    r1 = fx.order_r1()
    as_ideal = Lattice(r1.algebra, r1.basis, "ideal")
    assert ideal_equivalent(as_ideal, as_ideal)
    i12 = fx.ideal_i12()
    assert not ideal_equivalent(as_ideal, i12)
    assert ideal_equivalent(i12, i12.scale(Fraction(5, 2)))


def test_ideal_equivalent_requires_same_right_order():
    conj = fx.ideal_i12().conjugate()  # right order R2, not R1
    with pytest.raises(UsageError):
        ideal_equivalent(fx.ideal_i12(), conj)


def test_ideal_equivalent_checks_cached_right_orders():
    i12 = fx.ideal_i12()
    conj = i12.conjugate()
    assert i12.left_order is i12.left_order and i12.right_order is i12.right_order
    assert conj.right_order == fx.order_r2()
    with pytest.raises(UsageError):
        ideal_equivalent(i12, conj)
    with pytest.raises(UsageError):
        ideal_equivalent(conj, i12)


def test_class_set_fixture(class_set_17):
    assert class_set_17.h == 2
    assert tuple(class_set_17.unit_counts) == (2, 6)
    assert class_set_17.mass == Fraction(2, 3)
    assert class_set_17.ideals[0] == Lattice(class_set_17.order.algebra,
                                             class_set_17.order.basis, "ideal")


# HNF bases of the class-set representatives, in discovery order, as the search
# found them.  Each is a neighbour left-divided by the first vector that
# `short_vectors` lists; at these levels any minimal vector gives the same
# lattice, so the order of that list is pinned by the brute-force checks above.
_UNIT_17 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_SECOND_17 = [[1, 0, 1, 1], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
_UNIT_34 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]
_A_34 = [[1, 0, 2, 1], [0, 1, 0, 1], [0, 0, 4, 0], [0, 0, 0, 2]]
_B_34 = [[1, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
_C_34 = [[1, 1, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
PINNED_REPRESENTATIVES = {
    (17, 2): [_UNIT_17, _SECOND_17],
    (17, 3): [_UNIT_17, _SECOND_17],
    (17, 5): [_UNIT_17, _SECOND_17],
    (34, 3): [_UNIT_34, _A_34, _B_34, _C_34],
    (34, 5): [_UNIT_34, _B_34, _C_34, _A_34],
}


@pytest.mark.parametrize("level,seed", sorted(PINNED_REPRESENTATIVES))
def test_class_set_representatives_are_pinned(level, seed):
    order = fx.order_r1() if level == 17 else level34_order()
    cs = class_set(order, seed)
    got = [[list(row) for row in ideal.hnf_basis] for ideal in cs.ideals]
    assert got == PINNED_REPRESENTATIVES[level, seed]


def test_class_set_rejects_bad_seed():
    with pytest.raises(UsageError):
        class_set(fx.order_r1(), 17)
    with pytest.raises(UsageError):
        class_set(fx.order_r1(), 4)


def test_hurwitz_class_number_one():
    hur = hurwitz_order()
    assert hur.level == 2 and hur.unit_count() == 24
    cs = class_set(hur, 3)
    assert cs.h == 1 and cs.mass == Fraction(1, 24)
    # independent oracle: every norm-3 neighbour ideal is principal
    as_ideal = Lattice(hur.algebra, hur.basis, "ideal")
    nbs = p_neighbors(as_ideal, 3)
    assert len(nbs) == 4
    for nb in nbs:
        gens = short_vectors(nb.gram, nb.norm_scale)
        assert gens, "neighbour of a class-number-one order must be principal"


def test_two_sided_ideal_at_17():
    r1 = fx.order_r1()
    p = two_sided_ideal(r1, 17)
    assert p.norm_scale == 17
    # it is exactly the norm-divisibility sublattice
    for m, vecs in short_vectors_upto(r1.gram, 40).items():
        for v in vecs:
            x = r1.element_from(v)
            assert p.contains(x) == (x.norm() % 17 == 0)
    assert p.product(p) == r1.scale(17)
    with pytest.raises(UsageError):
        two_sided_ideal(r1, 5)


# HNF bases of the norm-p two-sided ideals as the projective-seed search found them
PINNED_TWO_SIDED = {
    ("r1", 17): [[1, 0, 15, 14], [0, 1, 16, 12], [0, 0, 17, 0], [0, 0, 0, 17]],
    ("o34", 2): [[1, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    ("o34", 17): [[1, 0, 32, 14], [0, 1, 16, 12], [0, 0, 34, 0], [0, 0, 0, 17]],
}


@pytest.mark.parametrize("name,p", sorted(PINNED_TWO_SIDED))
def test_two_sided_ideal_matches_seed_search(name, p):
    order = fx.order_r1() if name == "r1" else level34_order()
    ideal = two_sided_ideal(order, p)
    assert ideal.basis == linalg.frac_mat(PINNED_TWO_SIDED[(name, p)])
    assert ideal.kind == "ideal"


def test_two_sided_ideal_rejects_non_eichler_order():
    # Z + 2·R1 has level 136 = 8·17 and a Gram matrix ≡ 0 mod 2
    r1 = fx.order_r1()
    alg = r1.algebra
    rows = [list(alg.one)] + [[2 * x for x in row] for row in r1.basis]
    order = Lattice.from_generators(alg, rows, "order")
    assert order.level == 136
    assert all(x % 2 == 0 for row in order.gram for x in row)
    with pytest.raises(ValueError):
        two_sided_ideal(order, 2)
    assert eichler_mass(order) is None


def test_eichler_mass_formula(class_set_17):
    assert eichler_mass(fx.order_r1()) == Fraction(2, 3)
    assert eichler_mass(level34_order()) == 2
    assert eichler_mass(hurwitz_order()) == Fraction(1, 24)
    check_mass(class_set_17)
    dropped = ClassSet(class_set_17.order, class_set_17.ideals[:-1])
    with pytest.raises(ValueError, match="mass"):
        check_mass(dropped)


def test_transporters_of_an_order_are_its_units():
    r1 = fx.order_r1()
    as_ideal = Lattice(r1.algebra, r1.basis, "ideal")
    units = list(transporters(as_ideal, as_ideal))
    assert len(units) == r1.unit_count()
    assert all(r1.contains(u) and u.norm() == 1 for u in units)
    assert list(transporters(as_ideal, fx.ideal_i12())) == []


def test_short_vector_counts_unimodular_invariance():
    g = fx.order_r1().gram
    u = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 0, 1]]
    ufr = linalg.frac_mat(u)
    g2 = ufr @ g @ ufr.T
    for m in (1, 2, 3, 5, 10):
        assert len(short_vectors(g, m)) == len(short_vectors(g2, m))


def test_all_maximal_order_gram_dets(class_set_17):
    for order in class_set_17.left_orders:
        assert order.gram_det == 289


def test_reduced_norm_determinant_relation(class_set_17):
    # det(Gram(I)) = n(I)^4 · det(Gram(right order)) for locally principal ideals
    from quatlift.quatcore import reduce_right_ideal
    order = fx.order_r1()
    pool = [Lattice(order.algebra, order.basis, "ideal")]
    for p in (2, 3):
        pool += [reduce_right_ideal(nb, order) for nb in p_neighbors(pool[0], p)]
    for ideal in pool:
        assert ideal.gram_det == ideal.norm_scale ** 4 * ideal.right_order.gram_det


def _bases_digest(lattices):
    bases = [[[str(x) for x in row] for row in lat.basis] for lat in lattices]
    return hashlib.sha256(json.dumps(bases).encode()).hexdigest()[:16]


# an ideal of the level-34 order that is not principal (a class representative)
I34_BASIS = [[1, 0, 2, 1], [0, 1, 0, 1], [0, 0, 4, 0], [0, 0, 0, 2]]


def _local_case(name):
    """(ideal, order) of a pinned case; the ideal's right order is the order."""
    order = {"r1": fx.order_r1, "i12": fx.order_r1, "o34": level34_order,
             "i34": level34_order, "hur": hurwitz_order}[name]()
    if name == "i12":
        return fx.ideal_i12(), order
    if name == "i34":
        return Lattice(order.algebra, I34_BASIS, "ideal"), order
    return Lattice(order.algebra, order.basis, "ideal"), order


# digests of the ordered neighbour bases, as the walk over P³(F_p) produced them
PINNED_NEIGHBORS = {
    ("r1", 2): "03c18f52ee1df895", ("r1", 3): "70a6eddb0949e65e",
    ("r1", 5): "e3120517e35f2b64", ("r1", 7): "b91e366fa19554fb",
    ("r1", 11): "a01d3a0a340f2bc5", ("r1", 13): "842fe426f86fc9d4",
    ("i12", 2): "6b116d65695426f4", ("i12", 3): "0cbbeaa4149e351c",
    ("i12", 5): "689cb45bde33c858", ("i12", 7): "39c7ea85a498e528",
    ("i12", 11): "78383f229c47f200", ("i12", 13): "e3c5a06addc88fb8",
    ("o34", 3): "881ae84932d86a03", ("o34", 5): "ccb9c36fd6837f77",
    ("o34", 7): "8eb10ee23f8cfd6e", ("o34", 11): "75a3f05244ff8e5f",
    ("o34", 13): "cb8a397bb271c1e1",
    ("i34", 3): "a7864b3d585aa1cd", ("i34", 5): "ff47170fe5ecb2ac",
    ("i34", 7): "0487a1d7e95d3fd2", ("i34", 11): "f466f6cd0f712a1c",
    ("i34", 13): "d1b18229fce2ce03",
    ("hur", 3): "5a0353f096ec38fd",
}


@pytest.mark.parametrize("name,p", sorted(PINNED_NEIGHBORS))
def test_p_neighbors_match_projective_walk(name, p):
    ideal, order = _local_case(name)
    nbs = p_neighbors(ideal, p)
    assert len(nbs) == p + 1
    assert _bases_digest(nbs) == PINNED_NEIGHBORS[(name, p)]
    for nb in nbs:
        assert nb.kind == "ideal" and nb.norm_scale == p * ideal.norm_scale
        assert nb.right_order == order


def test_p_neighbors_hurwitz_bases():
    ideal, _ = _local_case("hur")
    half = Fraction(1, 2)
    want = [[[half, half, half, 3 * half], [0, 1, 2, 1]],
            [[half, half, 3 * half, 5 * half], [0, 1, 1, 1]],
            [[half, half, 5 * half, 3 * half], [0, 1, 1, 2]],
            [[half, half, 3 * half, half], [0, 1, 2, 2]]]
    got = p_neighbors(ideal, 3)
    assert [nb.basis for nb in got] == \
        [linalg.frac_mat(rows + [[0, 0, 3, 0], [0, 0, 0, 3]]) for rows in want]


def test_p_neighbors_is_linear_algebra_not_a_walk(monkeypatch):
    p = 13
    ideal, _ = _local_case("r1")
    calls = []
    rref = quatcore._rref_mod_p
    monkeypatch.setattr(quatcore, "_rref_mod_p", lambda rows, q: calls.append(q) or rref(rows, q))
    assert len(p_neighbors(ideal, p)) == p + 1
    assert len(calls) <= 2 * (p + 1)  # the walk over P³(F_13) made 7,140


@pytest.mark.parametrize("name,p", [("r1", 17), ("r1", 1), ("r1", 4), ("r1", 0),
                                    ("r1", -3), ("o34", 2), ("i34", 17)])
def test_p_neighbors_rejects_bad_primes(name, p):
    ideal, _ = _local_case(name)
    with pytest.raises(UsageError):
        p_neighbors(ideal, p)


# the superorders found by testing O + ℤ·s/p for every point s of P³(F_p)
PINNED_SUPERORDERS = {
    ("o34", 2): ([[[Fraction(1, 2), 0, 1, Fraction(1, 2)], [0, 1, 0, 0], [0, 0, 2, 0],
                   [0, 0, 0, 1]], linalg.identity(4)], False),
    ("o34", 17): ([], True),
    ("r1", 17): ([], True),
    ("hur", 2): ([], True),
}


@pytest.mark.parametrize("name,p", sorted(PINNED_SUPERORDERS))
def test_superorders_match_projective_walk(name, p):
    _, order = _local_case(name)
    bases, ramified = PINNED_SUPERORDERS[(name, p)]
    sups = superorders(order, p)
    assert [sup.basis for sup in sups] == [linalg.frac_mat(b) for b in bases]
    assert all(sup.kind == "order" and sup.gram_det * p ** 2 == order.gram_det for sup in sups)
    assert is_ramified(order, p) == ramified


def test_is_ramified_builds_no_superorder(monkeypatch):
    # the zero test that superorders applies before it builds each order
    cases = [("r1", 17), ("o34", 2), ("o34", 17)]
    want = [not superorders(_local_case(name)[1], p) for name, p in cases]
    assert want == [True, False, True]

    def refuse(order, p):
        raise AssertionError("is_ramified built the superorders")

    monkeypatch.setattr(quatcore, "superorders", refuse)
    assert [is_ramified(_local_case(name)[1], p) for name, p in cases] == want


def test_superorders_rejects_primes_off_the_level():
    for name, p in (("r1", 5), ("r1", 4), ("o34", 3)):
        _, order = _local_case(name)
        with pytest.raises(UsageError):
            superorders(order, p)


# digests of the class representatives as the walk over P³(F_p) found them
PINNED_CLASS_SETS = {
    ("r1", 13): "473c703e1f1c3ebd",
    ("o34", 3): "ac58af02ae3c1b7c",
    ("o34", 13): "1d43cde620b1e6e1",
}


@pytest.mark.parametrize("name,p", sorted(PINNED_CLASS_SETS))
def test_class_set_matches_projective_walk(name, p):
    _, order = _local_case(name)
    assert _bases_digest(class_set(order, p).ideals) == PINNED_CLASS_SETS[(name, p)]


def test_class_set_builds_each_order_when_asked(monkeypatch):
    calls = []
    preimage = quatcore._integral_preimage_lattice
    monkeypatch.setattr(quatcore, "_integral_preimage_lattice",
                        lambda blocks: calls.append(1) or preimage(blocks))
    cs = class_set(level34_order(), 5)
    # the seed ideal's right order, which is its left order and every reduced
    # neighbour's right order too, and a left order per other class; a right
    # order per reduced neighbour not met before made 8, a right order per
    # neighbour 29, and both orders of every lattice 50
    assert cs.h == 4
    assert len(calls) == 1 + (cs.h - 1) == 4
    right = cs.ideals[0].right_order
    assert right == cs.order and cs.left_orders[0] is right
    assert all(ideal.right_order is right for ideal in cs.ideals)


def _minimal_vector_by_growing_shells(ideal):
    """The vector reduce_right_ideal divides by, found with one `short_vectors`
    call per multiple k·n₀ of the norm scale until a shell is nonempty."""
    k = 1
    while not (vs := short_vectors(ideal.gram, k * ideal.norm_scale)):
        k += 1
    return vs[0]


@pytest.mark.parametrize("level,p", [(17, 2), (17, 3), (17, 5), (34, 3), (34, 5)])
def test_reduce_right_ideal_enumerates_once(level, p, monkeypatch):
    order = fx.order_r1() if level == 17 else level34_order()
    seed = Lattice(order.algebra, order.basis, "ideal")
    neighbours = p_neighbors(seed, p)
    neighbours += [nb for first in neighbours[:2] for nb in p_neighbors(first, p)]
    want = [_minimal_vector_by_growing_shells(nb) for nb in neighbours]
    calls, divisors = [], []
    enumerate_upto, element_from = quatcore.short_vectors_upto, Lattice.element_from
    monkeypatch.setattr(quatcore, "short_vectors_upto",
                        lambda g, m: calls.append(m) or enumerate_upto(g, m))
    monkeypatch.setattr(Lattice, "element_from",
                        lambda lat, v: divisors.append(tuple(v)) or element_from(lat, v))
    for nb in neighbours:
        quatcore.reduce_right_ideal(nb, order)
    assert len(calls) == len(neighbours)
    assert divisors == want


def _class_reps_testing_every_neighbour(order, p_seed):
    """The breadth-first search of class_set that tests every reduced neighbour
    against the known classes: the reference for skipping lattices already met."""
    reps = [Lattice(order.algebra, order.basis, "ideal")]
    frontier = [reps[0]]
    while frontier:
        fresh = []
        for ideal in frontier:
            for nb in p_neighbors(ideal, p_seed):
                cand = quatcore.reduce_right_ideal(nb, order)
                if not any(ideal_equivalent(cand, known) for known in reps):
                    reps.append(cand)
                    fresh.append(cand)
        frontier = fresh
    return reps


@pytest.mark.parametrize("level,seed", [(17, 2), (17, 3), (17, 23),
                                        (34, 3), (34, 5), (34, 13), (34, 23)])
def test_class_set_matches_the_search_that_tests_every_neighbour(level, seed):
    order = fx.order_r1() if level == 17 else level34_order()
    cs = class_set(order, seed)
    want = _class_reps_testing_every_neighbour(order, seed)
    assert [ideal.hnf_basis for ideal in cs.ideals] == [ideal.hnf_basis for ideal in want]
    assert cs.unit_counts == [len(short_vectors(ideal.left_order.gram, 1)) for ideal in want]


def _counting_neighbours(monkeypatch):
    """Patch p_neighbors to record the prime of each call; return the record."""
    calls, neighbours = [], quatcore.p_neighbors
    monkeypatch.setattr(quatcore, "p_neighbors",
                        lambda ideal, p: calls.append(p) or neighbours(ideal, p))
    return calls


@pytest.mark.parametrize("level,seed", [(17, 2), (17, 3), (17, 5), (34, 3), (34, 5)])
def test_class_set_stops_at_the_eichler_mass(level, seed, monkeypatch):
    # the principal class's neighbours reach every class at these seeds, so the
    # search stops inside the first round: no other class is expanded
    order = fx.order_r1() if level == 17 else level34_order()
    calls = _counting_neighbours(monkeypatch)
    cs = class_set(order, seed)
    assert calls == [seed]
    assert cs.mass == eichler_mass(order)


@pytest.mark.parametrize("level,seed", [(17, 2), (34, 3), (34, 5)])
def test_class_set_without_a_mass_formula_searches_to_closure(level, seed, monkeypatch):
    order = fx.order_r1() if level == 17 else level34_order()
    want = class_set(order, seed)
    calls = _counting_neighbours(monkeypatch)
    monkeypatch.setattr(quatcore, "eichler_mass", lambda order: None)
    cs = class_set(order, seed)
    # every class is expanded once, and the last round finds nothing new
    assert calls == [seed] * cs.h
    assert [ideal.hnf_basis for ideal in cs.ideals] == [ideal.hnf_basis for ideal in want.ideals]
    assert cs.unit_counts == want.unit_counts


@pytest.mark.parametrize("formula", [Fraction(5, 3), Fraction(7, 12)],
                         ids=["above-the-mass", "between-two-sums"])
def test_class_set_refuses_a_mass_it_cannot_reach(formula, monkeypatch):
    # level 17 has classes with 2 and 6 units: the sums are 1/2 and 2/3.  A
    # formula above them ends with the search; one between them is passed
    calls = _counting_neighbours(monkeypatch)
    asked = []
    monkeypatch.setattr(quatcore, "eichler_mass", lambda order: asked.append(1) or formula)
    with pytest.raises(ValueError, match=f"has mass 2/3, but the Eichler mass formula "
                                         f"gives {formula}"):
        class_set(fx.order_r1(), 2)
    assert len(asked) == 1
    assert len(calls) == (2 if formula > Fraction(2, 3) else 1)


def test_prime_helpers_are_exact_and_bounded():
    from quatlift.quatcore import TRIAL_DIVISION_BOUND, _is_prime, _prime_factors
    n = 3000
    composite = {k * d for d in range(2, n) for k in range(2, n // d + 1)}
    assert [k for k in range(-5, n) if _is_prime(k)] == \
        [k for k in range(2, n) if k not in composite]
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for k in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(k)
    assert _is_prime(2 ** 61 - 1) and _is_prime(1000003)
    with pytest.raises(UsageError, match="too large to test for primality"):
        _is_prime(2 ** 89 - 1)
    assert _prime_factors(1) == []
    assert _prime_factors(2 * 3 * 17 ** 2) == [2, 3, 17, 17]
    assert _prime_factors(4 * (2 ** 61 - 1)) == [2, 2, 2 ** 61 - 1]
    with pytest.raises(UsageError, match=f"trial-division bound {TRIAL_DIVISION_BOUND}"):
        _prime_factors(1000003 * 1000033)


def test_least_good_prime_is_the_least_prime_not_dividing_the_level():
    from quatlift.quatcore import least_good_prime
    assert [least_good_prime(n) for n in (1, 2, 17, 34, 6, 30, 2 * 3 * 5 * 7 * 11)] == \
        [2, 3, 2, 3, 5, 7, 13]
    # a class set of the level-34 order is searched at it
    assert quatcore.class_set(level34_order(), least_good_prime(34)).h == 4
