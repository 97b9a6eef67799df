"""The integer kernels of linalg against the Fraction references of linalg_reference."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from quatlift import linalg
from quatlift.quatcore import _gauss_reduce_gram

BIG = 10 ** 20  # entries this large wrap in int64


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=5):
    """A rational matrix as rows of Fractions, often singular, sometimes with entries ~10²⁰."""
    n = draw(st.integers(0, max_dim)) if rows is None else rows
    m = draw(st.integers(0, max_dim)) if cols is None else cols
    scale = draw(st.sampled_from([1, 1, 1, BIG]))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=5))
    return [[draw(entry) * scale for _ in range(m)] for _ in range(n)]


def python_ints(m: linalg.Matrix) -> bool:
    """Whether m's numerator is an object array of Python ints (not numpy ints, not bools)."""
    return m.num.dtype == object and all(type(x) is int for x in m.num.flat)


def canonical(m: linalg.Matrix) -> linalg.Matrix:
    """m itself, after checking lowest terms, a positive denominator and Python-int entries."""
    assert m.den > 0 and math.gcd(m.den, *m.num.flat) == 1
    assert python_ints(m)
    return m


def as_matrix(rows, cols):
    return linalg.Matrix(np.zeros((0, cols), dtype=np.int64)) if not rows else linalg.frac_mat(rows)


@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(matrices(cols=k), matrices(rows=k, cols=None).filter(lambda b: b[0]))))
@settings(max_examples=60, deadline=None)
def test_product_equals_reference(pair):
    a, b = pair
    got = canonical(as_matrix(a, len(b)) @ linalg.frac_mat(b))
    assert got == as_matrix(ref.mat_mul(a, b), len(b[0])) if a else got.shape == (0, len(b[0]))


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_and_nullspace_equal_reference(a):
    cols = len(a[0]) if a else 0
    red, pivots = linalg.rref(a)
    want, want_pivots = ref.rref(a)
    assert pivots == want_pivots
    assert canonical(red) == as_matrix(want, cols)
    assert canonical(linalg.nullspace(a)) == as_matrix(ref.nullspace(a, cols), cols)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(matrices(rows=n, cols=None).filter(lambda a: a[0]),
                        matrices(rows=None, cols=n, max_dim=3))))
@settings(max_examples=100, deadline=None)
def test_solve_many_equals_reference(system):
    a, rhs = system
    got = linalg.solve_many(a, rhs)
    want = ref.solve_many(a, rhs)
    if want is None:
        assert got is None
    else:
        assert canonical(got) == as_matrix(want, len(a[0]))


@given(st.integers(0, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
@settings(max_examples=100, deadline=None)
def test_det_inverse_and_charpoly_equal_reference(a):
    assert linalg.det(a) == ref.det(a)
    assert linalg.charpoly(a) == ref.charpoly(a)
    if ref.det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(a)
    else:
        assert canonical(linalg.inverse(a)) == linalg.frac_mat(ref.inverse(a))


def test_empty_matrices():
    assert linalg.det([]) == 1
    assert linalg.charpoly([]) == [1]
    assert linalg.rref([]) == (linalg.zeros(0, 0), [])
    assert linalg.nullspace([[], []]).shape == (0, 0)
    assert linalg.nullspace([[0, 0, 0]]) == linalg.identity(3)
    assert linalg.solve_many([[1, 2], [3, 4]], []) == linalg.zeros(0, 2)


def test_det_and_inverse_refuse_a_matrix_that_is_not_square():
    # a wide matrix can have pivots 0…n−1: inverse([[1, 0]]) once returned [[0, 1]]
    for a in ([[1, 0]], [[1], [0]], [[1, 0, 0], [0, 1, 0]]):
        for kernel in (linalg.det, linalg.inverse):
            with pytest.raises(ValueError, match="not square"):
                kernel(a)


def test_results_past_int64_are_exact_object_arrays():
    # each result entry, or a sum or product formed on the way, wraps past 2⁶³ in int64
    x = 2 ** 40
    cases = [
        ([[x, 1], [3, x]], [[x, 0], [1, x]]),
        ([[2 ** 61, 2 ** 61]], [[2], [2]]),
    ]
    for a, b in cases:
        a, b = [[Fraction(v) for v in row] for row in a], [[Fraction(v) for v in row] for row in b]
        got = canonical(linalg.frac_mat(a) @ linalg.frac_mat(b))
        assert got == linalg.frac_mat(ref.mat_mul(a, b))
    # over a common denominator, or times a scalar, an int64 numerator would wrap too
    big = linalg.frac_mat([[2 ** 61, 1]])
    tiny = linalg.frac_mat([[Fraction(1, 5), Fraction(1, 7)]])
    assert canonical(big + tiny).tolist() == [[2 ** 61 + Fraction(1, 5), Fraction(8, 7)]]
    assert canonical(linalg.vstack([big, tiny])).tolist() == big.tolist() + tiny.tolist()
    assert canonical(big * (2 ** 40)).tolist() == [[2 ** 101, 2 ** 40]]
    m = [[Fraction(x + 3), Fraction(x), Fraction(5)], [Fraction(7), Fraction(x - 1), Fraction(2)],
         [Fraction(1), Fraction(9), Fraction(x, 3)]]
    assert linalg.det(m) == ref.det(m)
    assert linalg.charpoly(m) == ref.charpoly(m)
    assert canonical(linalg.inverse(m)) == linalg.frac_mat(ref.inverse(m))
    assert canonical(linalg.rref(m + [[Fraction(1), Fraction(2), Fraction(3)]])[0]) == \
        linalg.frac_mat(ref.rref(m + [[Fraction(1), Fraction(2), Fraction(3)]])[0])


def test_entries_of_1e20_come_back_exact():
    a = canonical(linalg.frac_mat([[BIG, 1], [Fraction(1, 3), BIG]]))
    assert canonical(a @ linalg.inverse(a)) == linalg.identity(2)
    assert a == linalg.frac_mat([[BIG, 1], [Fraction(1, 3), BIG]])


def test_every_operation_returns_python_int_numerators():
    # one exact type: small or past 2⁶², from any constructor, the entries are Python ints
    small = linalg.frac_mat([[Fraction(1, 2), 3], [np.int64(-4), Fraction(5, 6)]])
    big = linalg.frac_mat([[BIG, Fraction(1, 3)], [-2 ** 70, 7]])
    results = {
        "Matrix(int64)": linalg.Matrix(np.array([[2, 4], [6, 8]], dtype=np.int64), 4),
        "Matrix(int8)": linalg.Matrix(np.array([[1, -2]], dtype=np.int8)),
        "Matrix(object)": linalg.Matrix(np.array([[BIG, 2]], dtype=object), -3),
        "frac_mat": small, "frac_mat big": big,
        "frac_mat(ndarray)": linalg.frac_mat(np.arange(6, dtype=np.int64).reshape(2, 3)),
        "identity": linalg.identity(3), "zeros": linalg.zeros(2, 3),
        "identity(0)": linalg.identity(0), "zeros(0, 2)": linalg.zeros(0, 2),
        "_from_rows": linalg._from_rows([[2, 4], [6, 8]], 2, 6),
        "product": small @ big, "empty product": linalg.zeros(2, 0) @ linalg.zeros(0, 3),
        "sum": small + big, "difference": small - big,
        "integer multiple": small * 6, "numpy integer multiple": np.int64(-3) * big,
        "zero multiple": big * 0, "fractional multiple": big * Fraction(3, 7),
        "transpose": big.T, "negation": -small,
        "hstack": linalg.hstack([small, big]), "vstack": linalg.vstack([small, big]),
        "outer_rows": linalg.outer_rows(small, big),
        "nullspace": linalg.nullspace([[1, 2, 3], [2, 4, 7]]),
        "rref": linalg.rref(big)[0], "inverse": linalg.inverse(big),
        "solve_many": linalg.solve_many(small, [[1, 2]]),
        "primitive_rows": linalg.primitive_rows(linalg.frac_mat([[0, -4, 6]])),
        "right_inverse": linalg.right_inverse([[1, 2, 3]]),
        "hnf_rational": linalg.hnf_rational([[Fraction(1, 2), 1], [3, 5]]),
    }
    for name, m in results.items():
        assert python_ints(m), name
        canonical(m)


# the shapes the pipeline hands the elimination kernels: empty systems,
# scalars, the augmented [A | I] of a 4×4 inverse, and the largest, 20×40
PIPELINE_SHAPES = [(0, 1), (0, 3), (1, 1), (4, 8), (12, 24), (20, 40)]


def random_rows(rng, n, m, big):
    """n rows of m signed Fractions, each of 2⁶² to 2⁶⁴ in size with probability big."""
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() >= big
             else Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 62, 2 ** 64)) for _ in range(m)]
            for _ in range(n)]


@st.composite
def pipeline_matrices(draw, shapes=PIPELINE_SHAPES):
    """Rational rows of a pipeline shape with signed entries, often a zero row or
    column or a repeated row, and sometimes entries of 2⁶² to 2⁶⁴."""
    n, m = draw(st.sampled_from(shapes))
    rng = draw(st.randoms(use_true_random=False))
    rows = random_rows(rng, n, m, draw(st.sampled_from([0, 0, 0.2])))
    if n and draw(st.booleans()):
        rows[rng.randrange(n)] = [Fraction(0)] * m
    if n and draw(st.booleans()):
        c = rng.randrange(m)
        for row in rows:
            row[c] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        rows[rng.randrange(n)] = [3 * x for x in rows[0]]
    return n, m, rows


NEGATIVE_PIVOTS = (2, 4, [[Fraction(x) for x in row] for row in ((-3, 1, 0, 5), (6, -2, -7, 0))])
# the largest inputs, always run: small entries, and some past 2⁶²
LARGEST = [(20, 40, random_rows(random.Random(big), 20, 40, big)) for big in (0, 0.2)]


@given(pipeline_matrices())
@example(NEGATIVE_PIVOTS)
@example(LARGEST[0])
@example(LARGEST[1])
@settings(max_examples=25, deadline=None)
def test_rref_rank_and_nullspace_on_pipeline_shapes(case):
    _, m, rows = case
    a = as_matrix(rows, m)
    red, pivots = linalg.rref(a)
    want, want_pivots = ref.rref(rows)
    assert pivots == want_pivots and linalg.rank(a) == len(want_pivots)
    assert canonical(red) == as_matrix(want, m)
    assert canonical(linalg.nullspace(a)) == as_matrix(ref.nullspace(rows, m), m)


@given(pipeline_matrices([(1, 1), (4, 4), (12, 12), (20, 20)]))
@example((2, 2, [[Fraction(0), Fraction(2)], [Fraction(-3), Fraction(1)]]))  # a row swap
@example((20, 20, [row[:20] for row in LARGEST[1][2]]))
@settings(max_examples=20, deadline=None)
def test_det_and_inverse_on_pipeline_shapes(case):
    _, _, rows = case
    want = ref.det(rows)
    assert linalg.det(rows) == want
    if want:
        assert canonical(linalg.inverse(rows)) == linalg.frac_mat(ref.inverse(rows))
    else:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(rows)


@given(pipeline_matrices([(1, 1), (4, 8), (12, 24), (20, 40)]), st.integers(1, 4),
       st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_solve_many_on_pipeline_shapes(case, k, rng):
    # one right-hand side in the column span, when there is one, the rest random
    n, m, rows = case
    x = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
    rhs = [[sum(r * v for r, v in zip(row, x)) for row in rows]]
    rhs += [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(k - 1)]
    got = linalg.solve_many(rows, rhs)
    want = ref.solve_many(rows, rhs)
    if want is None:
        assert got is None
    else:
        assert canonical(got) == as_matrix(want, m)
        assert canonical(linalg.solve_many(rows, rhs[:1])) == as_matrix(want[:1], m)


@given(pipeline_matrices())
@settings(max_examples=15, deadline=None)
def test_transpose_and_negation_keep_den(case):
    n, m, rows = case
    a = canonical(as_matrix(rows, m))
    cols = [[row[j] for row in rows] for j in range(m)]
    for b, want in ((a.T, cols), (-a, [[-x for x in row] for row in rows])):
        assert canonical(b).den == a.den
        assert b.tolist() == want
    for e in (linalg.identity(0), linalg.identity(3), linalg.zeros(0, 2), linalg.zeros(2, 3)):
        canonical(e)


@given(matrices(), st.sampled_from([1, -1, 0, 2, -6, 12, 35, 2 ** 40, -2 ** 45, 3 * 2 ** 61,
                                    np.int64(-10)]))
@example([[Fraction(1, 6), Fraction(5, 4)]], 2 ** 61)   # 2⁶⁰·5/2 would wrap in int64
@example([[Fraction(3, 2 ** 61)]], 2 ** 61)             # a whole entry 3
@example([[Fraction(BIG, 7)], [Fraction(-1, 3)]], 0)   # entries past 2⁶² to the zero matrix
@example([[Fraction(0)]], 2 ** 70)
@settings(max_examples=120, deadline=None)
def test_integer_multiple_equals_the_scanned_matrix(rows, c):
    # (c/g)·num over den/g, g = gcd(c, den), against the constructor's gcd scan
    a = as_matrix(rows, len(rows[0]) if rows else 0)
    want = linalg.Matrix(a.num * int(c), a.den)
    products = [a * c, int(c) * a]
    if abs(c) < 2 ** 63:  # numpy integer scalars on both sides
        products += [a * np.int64(c), np.int64(c) * a]
    for got in products:
        assert canonical(got) == want
    if c == 0:
        assert (a * c).den == 1 and not (a * c).num.any()


@st.composite
def positive_definite_grams(draw):
    """G = B·Bᵗ/d for a random nonsingular integer B and a denominator d."""
    n = draw(st.integers(1, 4))
    b = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(lambda b: ref.det(
                          [[Fraction(x) for x in row] for row in b]) != 0))
    d = draw(st.integers(1, 12))
    return [[Fraction(sum(x * y for x, y in zip(r, s)), d) for s in b] for r in b]


@given(positive_definite_grams())
@settings(max_examples=80, deadline=None)
def test_gauss_reduction_on_integers_equals_reference(g):
    m = linalg.frac_mat(g)
    got, u = _gauss_reduce_gram(m.num.tolist())
    want, want_u = ref.gauss_reduce_gram(g)
    assert u == want_u
    assert got == [[x * m.den for x in row] for row in want]
