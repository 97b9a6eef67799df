import gc
import hashlib
import json
import math
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import enum_reference
from binforms_reference import apply_unimodular, reduced_forms_up_to
from helpers import (expansion, hamilton_algebra, level34_order, monomial_values,
                     narrowest_signed, row_sums, shuffled_store)
from poly_reference import Poly, lift_poly_deg1
from quatlift import fixture as fx
from quatlift import linalg, quatcore, yoshida
from quatlift.binforms import form_table, is_ambiguous
from quatlift.brandt import (AutomorphicForm, FormSpace, brandt_matrix, brandt_series,
                             constant_form)
from quatlift.harmonic import (HarmSpace, default_frame, lift_matrix_deg2, lift_poly_deg2,
                               monomials_of_degree)
from quatlift.quatcore import (Lattice, UsageError, class_set, short_vectors,
                               short_vectors_upto)
from quatlift.serialize import dumps_canonical, expansion_to_obj, lattice_from_obj, load_json
from quatlift.yoshida import (FourierExpansionSiegel2, QExpansion, ThetaEngine,
                              TruncationError, is_cuspidal_up_to_bound, phi_operator,
                              theta2_coefficient, theta_lift, yoshida1, yoshida2)


def matrix_poly(m):
    """Bilinear polynomial Σ m[i][j]·x_i·y_j on pairs of lattice coordinates."""
    coeffs = {}
    for i in range(4):
        for j in range(4):
            if m[i][j]:
                e = [0] * 8
                e[i] = 1
                e[4 + j] = 1
                coeffs[tuple(e)] = Fraction(m[i][j])
    return Poly(8, coeffs)


def test_theta2_zero_form():
    p = matrix_poly(fx.P1_MATRIX)
    assert theta2_coefficient(fx.order_r1(), p, (0, 0, 0)) == 0


def test_theta2_alternating_diagonal():
    # pairs (x, x) contribute nothing for an alternating polynomial
    p = matrix_poly(fx.P1_MATRIX)
    assert theta2_coefficient(fx.order_r1(), p, (1, 2, 1)) == 0


def test_theta2_published_recipe():
    # the [2,1,3] coefficient assembles to 32 from the two published pieces
    c1 = theta2_coefficient(fx.order_r1(), matrix_poly(fx.P1_MATRIX), (2, 1, 3))
    c2 = theta2_coefficient(fx.ideal_i12(), matrix_poly(fx.P12_MATRIX), (2, 1, 3))
    assert c1 + c2 == fx.PRINTED_COEFFS[(2, 1, 3)]


def test_golden_lift_all_published_coefficients(golden_130):
    for t, v in fx.PRINTED_COEFFS.items():
        assert golden_130.coefficient(t) == v


def test_golden_lift_cuspidal(golden_130):
    assert is_cuspidal_up_to_bound(golden_130)
    assert phi_operator(golden_130).is_zero()


def test_golden_lift_ambiguous_vanish(golden_130):
    for t in reduced_forms_up_to(100):
        if is_ambiguous(*t):
            assert golden_130.coefficient(t) == 0


def test_coefficient_symmetry(golden_130):
    rng = random.Random(9)
    units = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)), ((1, 0), (0, -1))]
    stored = list(golden_130.entries)
    for _ in range(100):
        t = rng.choice(stored)
        u = rng.choice(units)
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        s = apply_unimodular(t, u)
        assert golden_130.coefficient(s) == det ** golden_130.weight * golden_130.coefficient(t)


def test_theory_path_equals_golden(golden_130):
    assert fx.fixture_lift(130).agrees_with(golden_130)


def test_yoshida2_rejects_vector_second_factor(class_set_17, space1):
    with pytest.raises(UsageError):
        yoshida2(class_set_17, fx.phi1(), fx.phi1(), 30, space1)


def test_yoshida2_bilinear(class_set_17, space1):
    phi1, phi2 = fx.phi1(), fx.phi2()
    base = yoshida2(class_set_17, phi1, phi2, 40, space1)
    assert yoshida2(class_set_17, phi1.scale(3), phi2, 40, space1).agrees_with(
        base.scale(3))
    assert yoshida2(class_set_17, phi1, phi2.scale(Fraction(-5, 2)), 40,
                    space1).agrees_with(base.scale(Fraction(-5, 2)))
    two = phi1.add(phi1.scale(1))
    assert yoshida2(class_set_17, two, phi2, 40, space1).agrees_with(base.scale(2))


def reference_lift(cs, phi1, phi2, space1, forms) -> dict:
    """yoshida2's coefficients at `forms`, one theta2_coefficient per (i, j) piece."""
    nu = phi1.nu
    totals = dict.fromkeys(forms, Fraction(0))
    for i in range(cs.h):
        for j in range(cs.h):
            cross = cs.cross_lattice(i, j)
            p8 = lift_poly_deg2(space1.space, phi1.values[i], cross)
            scale = phi2.values[j][0] / (Fraction(cs.unit_counts[i] * cs.unit_counts[j])
                                         * cross.norm_scale ** nu)
            for t in forms:
                totals[t] += scale * theta2_coefficient(cross, p8, t)
    return totals


def test_eisenstein_lift_not_cuspidal(class_set_17, space0):
    one = constant_form(class_set_17)
    ye = yoshida2(class_set_17, one, one, 40, space0)
    img = phi_operator(ye)
    assert not img.is_zero()
    assert all(img.coefficient(m) > 0 for m in range(0, 5))
    assert ye.coefficient((0, 0, 1)) == Fraction(2, 3)
    forms = reduced_forms_up_to(40) + [(0, 0, m) for m in range(ye.singular_bound + 1)]
    ref = reference_lift(class_set_17, one, one, space0, forms)
    assert {t: ye.coefficient(t) for t in forms} == ref


def random_form(space, seed):
    """A random combination of the space's basis forms, as in the benchmark."""
    rng = random.Random(seed)
    phi = None
    for form in space.basis_forms():
        term = form.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        phi = term if phi is None else phi.add(term)
    return phi


def test_yoshida2_nu2_matches_reference(class_set_17):
    space2 = FormSpace(class_set_17, 2)
    phi = random_form(space2, 5)
    g = yoshida2(class_set_17, phi, fx.phi2(), 30, space1=space2)
    assert not g.is_zero()
    assert is_cuspidal_up_to_bound(g)
    forms = reduced_forms_up_to(30) + [(0, 0, m) for m in range(g.singular_bound + 1)]
    ref = reference_lift(class_set_17, phi, fx.phi2(), space2, forms)
    assert {t: g.coefficient(t) for t in forms} == ref


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_bilinear_matrix_reconstructs_lift_poly(algebra, nu):
    # the bilinear matrix C of P_v, as theta_lift reads it, against the Poly(8) view
    space = HarmSpace(nu, default_frame(algebra))
    coords = linalg.identity(space.dim)[-1]
    p8 = lift_poly_deg2(space, coords, fx.ideal_i12())
    c = lift_matrix_deg2(space, coords, fx.ideal_i12())
    size = len(monomials_of_degree(4, nu))
    assert c.shape == (size, size)
    rng = random.Random(nu)
    for _ in range(10):
        x = [rng.randint(-3, 3) for _ in range(4)]
        y = [rng.randint(-3, 3) for _ in range(4)]
        mx, my = monomial_values(x, nu), monomial_values(y, nu)
        value = sum(mx[i] * c[i][j] * my[j] for i in range(size) for j in range(size))
        assert value == p8.eval(x + y)


@pytest.mark.parametrize("nu", [1, 2])
def test_pair_sums_exact_beyond_int64(nu):
    # int64 weights near 4·10^18 push the pair sums past int64: the kernel must
    # switch to Python ints rather than wrap
    engine = ThetaEngine(fx.order_r1(), 6)
    monos = monomials_of_degree(4, nu)
    mat = [[((i + 3 * j) % 9 - 4) * 10 ** 18 + 7 for j in range(len(monos))]
           for i in range(len(monos))]
    gram = engine.gram.tolist()
    for a, c in ((5, 6), (6, 6)):
        want: dict[int, int] = {}
        for x in engine.vecs(a).tolist():
            for y in engine.vecs(c).tolist():
                b = sum(x[i] * gram[i][j] * y[j] for i in range(4) for j in range(4))
                mx, my = monomial_values(x, nu), monomial_values(y, nu)
                val = sum(mx[i] * mat[i][j] * my[j]
                          for i in range(len(monos)) for j in range(len(monos)))
                want[b] = want.get(b, 0) + val
        want = {b: s for b, s in want.items() if s}
        assert max(abs(s) for s in want.values()) >= 2 ** 63
        got = engine.pair_sums_bilinear(a, c, np.array(mat, dtype=np.int64), nu)
        assert got == want
        assert all(type(s) is int for s in got.values())


def test_pair_sums_exact_through_the_fold():
    # Z⁴ with q(x) = |x|²: 48 of the 64 pairs of norm-1 vectors have b = 0, so the
    # fold 2·(S⁺(0) + S⁺(0)) passes 2⁶³ while each half-shell sum stays below 2⁶²
    engine = ThetaEngine(Lattice.standard(hamilton_algebra()), 1)
    weight = 25 * 10 ** 16
    got = engine.pair_sums_bilinear(1, 1, np.array([[weight]], dtype=np.int64), 0)
    assert got == {-2: 8 * weight, 0: 48 * weight, 2: 8 * weight}


def lex_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("name", ["r1", "i12"])
def test_engine_half_shells_match_the_one_shot_kernel(name):
    # every half shell of the bench's engines (norm 650) against the kernel the
    # chunked enumeration replaced: the same rows per norm, and never v with −v;
    # the rows in the narrowest dtype that holds the kernel's coordinate bound
    lattice = {"r1": fx.order_r1, "i12": fx.ideal_i12}[name]()
    engine = ThetaEngine(lattice, 650)
    g = lattice.normalized_gram()
    _, u, minors, m = quatcore._reduced_gram(tuple(g.num.ravel().tolist()), 4)
    coord = quatcore._coordinate_bound(u, quatcore._vmax(minors, m, 2 * 650)[0])
    assert engine.shells.dtype == narrowest_signed(coord) == np.int8
    want = enum_reference.half_shells(g, 650)
    assert {m for m in range(1, 651) if len(engine.half_shell(m))} == {int(m) for m in want}
    for m in range(1, 651):
        got = engine.half_shell(m)
        ref = want.get(Fraction(m), np.empty((0, 4), dtype=np.int64))
        assert np.array_equal(lex_rows(got), lex_rows(ref)), m
        pm = lex_rows(np.concatenate((got, -got)))
        assert not (pm[1:] == pm[:-1]).all(axis=1).any(), m


def brute_pair_sum(lattice, a, b, c, mat, nu):
    """Σ of m_ν(x)ᵗ·mat·m_ν(y) over every pair of the full, sorted shells with q = (a, b, c)."""
    g = lattice.normalized_gram()
    gram = g.num.tolist()
    total = 0
    for x in short_vectors(g, a):
        for y in short_vectors(g, c):
            if sum(x[i] * gram[i][j] * y[j] for i in range(4) for j in range(4)) == b:
                mx, my = monomial_values(x, nu), monomial_values(y, nu)
                total += sum(mx[i] * mat[i][j] * my[j]
                             for i in range(len(mat)) for j in range(len(mat)))
    return total


def row_peak(engine, a, cs, mat, nu):
    """The bound `table_sums` picks a row's tier by: max|x|^(2ν)·Σ|mat|·|H_a|·max|H_c|,
    c over the row's range; 0 for a row with H_a empty."""
    hc = max(len(engine.half_shell(c)) for c in range(min(cs), max(cs) + 1))
    return (max(engine.coord_max, 1) ** (2 * nu) * int(np.abs(np.array(mat)).sum())
            * len(engine.half_shell(a)) * hc)


def tier_scale(tier, peak):
    """A factor s for which s·mat puts a row of this peak in the tier: 4·s·peak below
    2⁵³ (float64), in [2⁵³, 2⁶²) (int64), or every nonzero sum past 2⁶⁴ (object)."""
    if tier == "float64":
        assert 4 * peak < 2 ** 53
        return 1
    if tier == "int64":
        s = -(-2 ** 53 // max(4 * peak, 1)) | 1
        assert 2 ** 53 <= 4 * s * peak < 2 ** 62 or not peak
        return s
    return -(2 ** 64 + 1)


ROW_CASES = [(2, [(2, [-2, -1, 0, 1, 2]), (5, [-3, 0, 2]), (7, [1])]),  # a = c among them
             (3, [(3, list(range(-6, 7)))]),
             (2, [(1, [0, 1]), (3, [-1, 0, 2])]),                      # empty shell H₁ first
             (3, [(7, [-2, 3]), (1, [0]), (4, [1, -1])]),               # and inside the range
             (1, [(2, [0]), (5, [1])])]                                 # H_a itself empty


@pytest.fixture
def matmul_calls(monkeypatch):
    """The number of np.matmul calls made so far: only the float64 tier makes them
    (the other tiers' products are `@`)."""
    calls = [0]
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls[0] += 1
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_row_sums_match_full_shell_pairs(nu, matmul_calls):
    # the half-shell kernel against every pair of the full, sorted shells; I₁₂ has
    # no vector of norm 1, so the c-ranges 1…3 and 1…7 cross an empty shell.  mat
    # is scaled per row into each tier: the sums are linear in mat, so s·mat gives
    # s times the unscaled sums, and every tier must give them exactly
    lattice = fx.ideal_i12()
    engine = ThetaEngine(lattice, 7)
    monos = monomials_of_degree(4, nu)
    rng = random.Random(nu)
    mat = [[rng.randint(-5, 5) for _ in monos] for _ in monos]
    if not nu:
        mat = [[-3]]  # a pair count times mat₀₀, not the count itself
    for a, cbs in ROW_CASES:
        cs, bs = zip(*((c, b) for c, bs in cbs for b in bs))
        want = [brute_pair_sum(lattice, a, b, c, mat, nu) for c, bs in cbs for b in bs]
        assert any(want) == (a != 1)  # H₁ = ∅
        peak = row_peak(engine, a, cs, mat, nu)
        for tier in ("float64", "int64", "object"):
            s = tier_scale(tier, peak)
            before = matmul_calls[0]
            got = row_sums(engine, a, cs, bs, np.array(mat, dtype=object) * s, nu).tolist()
            assert got == [s * w for w in want], (a, tier)
            assert all(type(x) is int for x in got)
            assert (matmul_calls[0] > before) == (tier == "float64" and peak > 0), (a, tier)


def test_row_sums_past_2_53_leave_the_float64_tier():
    # odd sums past 2⁵³ that float64 cannot hold: with the tier's guard taken out
    # the float64 sums round, so this fails
    lattice = fx.ideal_i12()
    engine = ThetaEngine(lattice, 7)
    rng = random.Random(1)
    mat = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
    s = 2 ** 53 + 1
    sums = []
    for a, cbs in ROW_CASES[:2]:
        cs, bs = zip(*((c, b) for c, bs in cbs for b in bs))
        want = [s * brute_pair_sum(lattice, a, b, c, mat, 1) for c, bs in cbs for b in bs]
        got = row_sums(engine, a, cs, bs, np.array(mat, dtype=np.int64) * s, 1)
        assert got.tolist() == want
        sums += want
    # S = 2·(S⁺(b) − S⁺(−b)): an odd difference of bin sums past 2⁵³
    assert any(abs(w) > 2 ** 54 and w % 4 == 2 for w in sums)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_row_sums_do_not_depend_on_the_block_size(monkeypatch, block):
    # blocks of 1, 3 and 7 rows of the H_c slice split the work only: a block may
    # start or end inside a shell, and I₁₂ has no vector of norm 1
    engine = ThetaEngine(fx.ideal_i12(), 12)
    rng = random.Random(block)
    rows = [(a, [c for c in range(1, 13) for _ in range(2 * a + 1)],
             [b for _ in range(1, 13) for b in range(-a, a + 1)]) for a in (2, 3, 5)]
    for nu in (0, 1, 2):
        monos = monomials_of_degree(4, nu)
        mat = np.array([[rng.choice([-3, -1, 2, 5]) for _ in monos] for _ in monos],
                       dtype=np.int64)
        monkeypatch.setattr(yoshida, "_BLOCK", 1 << 14)
        want = [row_sums(engine, a, cs, bs, mat, nu).tolist() for a, cs, bs in rows]
        monkeypatch.setattr(yoshida, "_BLOCK", block)
        got = [row_sums(engine, a, cs, bs, mat, nu).tolist() for a, cs, bs in rows]
        assert got == want and any(map(any, want)), nu


@pytest.mark.parametrize("max_norm", [0, 3])
def test_row_sums_beyond_the_engine_bound(max_norm):
    engine = ThetaEngine(fx.order_r1(), max_norm)
    one = np.ones((1, 1), dtype=np.int64)
    for a, c in ((max_norm + 1, 1), (1, max_norm + 1), (max_norm + 1, max_norm + 1)):
        with pytest.raises(TruncationError):
            row_sums(engine, a, [c], [0], one, 0)
        with pytest.raises(TruncationError):
            row_sums(engine, a, [c], [0], one, 1)
    with pytest.raises(TruncationError):
        engine.half_shell(max_norm + 1)
    with pytest.raises(ValueError, match="negative"):
        ThetaEngine(fx.order_r1(), -1 - max_norm)


def full_shell_sums(lattice, forms, mat, nu):
    """The pair sum of every form (a, b, c) over the full, sorted shells: one exact
    product per (a, c), M(X)·mat·M(Y)ᵗ on object arrays, grouped by B = X·G·Yᵗ."""
    g = lattice.normalized_gram()
    gram = np.array(g.num.tolist(), dtype=object)
    mat = np.array(mat, dtype=object)
    by_ac = {}
    for a, c in {(a, c) for a, _, c in forms}:
        x, y = (np.array(short_vectors(g, m), dtype=object).reshape(-1, 4) for m in (a, c))
        mx, my = (np.array([monomial_values(v, nu) for v in z.tolist()], dtype=object)
                  .reshape(len(z), len(mat)) for z in (x, y))
        b, w = x @ gram @ y.T, mx @ mat @ my.T
        by_ac[a, c] = {k: sum(w[b == k].tolist()) for k in set(b.ravel().tolist())}
    return [by_ac[a, c].get(b, 0) for a, b, c in forms]


def table_scale(tier, peaks):
    """A factor s for which s·mat puts every row of these peaks in the tier (rows of
    peak 0 have no pair of nonzero vectors and run in none)."""
    peaks = [p for p in peaks if p]
    if tier == "float64":
        assert 4 * max(peaks) < 2 ** 53
        return 1
    if tier == "int64":
        s = -(-2 ** 53 // (4 * min(peaks))) | 1
        assert 4 * s * max(peaks) < 2 ** 62
        return s
    return -(2 ** 64 + 1)


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_table_sums_match_full_shell_pairs(nu, matmul_calls):
    # every form of ROW_CASES in one table, shuffled: rows of several a at once,
    # H₁ = ∅ among them, against the full shells in each tier
    lattice = fx.ideal_i12()
    engine = ThetaEngine(lattice, 7)
    rng = random.Random(10 + nu)
    monos = monomials_of_degree(4, nu)
    mat = [[rng.randint(-5, 5) for _ in monos] for _ in monos] if nu else [[-3]]
    forms = [(a, b, c) for a, cbs in ROW_CASES for c, bs in cbs for b in bs]
    rng.shuffle(forms)
    ta, tb, tc = (np.array(x) for x in zip(*forms))
    want = full_shell_sums(lattice, forms, mat, nu)
    assert sum(map(bool, want)) >= 9  # of 34
    peaks = [row_peak(engine, a, tc[ta == a].tolist(), mat, nu) for a in set(ta.tolist())]
    for tier in ("float64", "int64", "object"):
        s = table_scale(tier, peaks)
        before = matmul_calls[0]
        got = engine.table_sums(ta, tb, tc, np.array(mat, dtype=object) * s, nu).tolist()
        assert got == [s * w for w in want], tier
        assert all(type(x) is int for x in got)
        assert (matmul_calls[0] > before) == (tier == "float64"), tier


@pytest.mark.parametrize("nu", [1, 2])
def test_table_sums_fill_the_widest_bin(nu, matmul_calls):
    # row a = 2 of I₁₂ to c₁ = 8 = 4a: x₂ = ±2·x₁ ∈ H₈ gives b = ±4a, b² = 4ac,
    # the outermost bins h = isqrt(4·a·c₁) = 8 of norm 8's block, next to norm
    # 7's; by Cauchy–Schwarz those are the only pairs there
    lattice = fx.ideal_i12()
    engine = ThetaEngine(lattice, 8)
    rng = random.Random(20 + nu)
    monos = monomials_of_degree(4, nu)
    mat = [[rng.randint(-5, 5) for _ in monos] for _ in monos]
    forms = [(2, b, c) for c in (2, 7, 8) for b in range(-8, 9) if b * b <= 8 * c]
    ta, tb, tc = (np.array(x) for x in zip(*forms))
    want = full_shell_sums(lattice, forms, mat, nu)

    def weight(x, y):
        mx, my = monomial_values(x, nu), monomial_values(y, nu)
        return sum(u * m * v for u, row in zip(mx, mat) for m, v in zip(row, my))

    parallel = 2 * sum(weight(x, [2 * v for v in x])
                       for x in engine.half_shell(2).astype(np.int64).tolist())
    assert want[forms.index((2, 8, 8))] == parallel != 0
    assert want[forms.index((2, -8, 8))] == (-1) ** nu * parallel
    assert engine.table_sums(ta, tb, tc, np.array(mat, dtype=np.int64), nu).tolist() == want
    assert matmul_calls[0]


def test_slab_rows_at_bound_30000_are_narrow_integers():
    # from bound 30,000 on, the slab's Gram puts its enumeration on Python ints:
    # its rows come back as objects, which the float64 tier cannot read.  They
    # hold coordinates up to 84 only, so they are stored as int8
    full = ThetaEngine(fx.order_r1(), 20)
    (x1,) = full.half_shell(1)
    slab = ThetaEngine.slab(full, x1, 30000)
    forms = [(1, b, c) for c in range(1, 21) for b in (-1, 0, 1)]
    ta, tb, tc = (np.array(x) for x in zip(*forms))
    mat = np.array([[2, -1, 0, 3], [1, 0, -2, 1], [0, 4, 1, -1], [-3, 1, 2, 0]], dtype=np.int64)
    want = full.table_sums(ta, tb, tc, mat, 1).tolist()
    assert slab.table_sums(ta, tb, tc, mat, 1).tolist() == want and any(want)
    assert (slab.shells.dtype, slab.coord_max, len(slab.shells)) == (np.int8, 84, 480097)


@pytest.mark.parametrize("block,chunk", [(1, 1), (3, 5), (7, 1 << 18), (1 << 14, 4)])
def test_table_sums_equal_the_rows_one_at_a_time(monkeypatch, block, chunk):
    # blocks and chunks of any size split the work only, and one table pass over
    # rows a = 2, 3, 5 (shuffled) equals the one-row calls at the default sizes
    engine = ThetaEngine(fx.ideal_i12(), 12)
    rng = random.Random(block + chunk)
    rows = [(a, [c for c in range(1, 13) for _ in range(2 * a + 1)],
             [b for _ in range(1, 13) for b in range(-a, a + 1)]) for a in (2, 3, 5)]
    ta = np.array([a for a, cs, _ in rows for _ in cs])
    tc = np.concatenate([cs for _, cs, _ in rows])
    tb = np.concatenate([bs for _, _, bs in rows])
    order = np.array(rng.sample(range(len(ta)), len(ta)))
    for nu in (0, 1, 2, 3):
        monos = monomials_of_degree(4, nu)
        mat = np.array([[rng.choice([-3, -1, 2, 5]) for _ in monos] for _ in monos],
                       dtype=np.int64)
        want = np.concatenate([row_sums(engine, a, cs, bs, mat, nu) for a, cs, bs in rows])
        with monkeypatch.context() as m:
            m.setattr(yoshida, "_BLOCK", block)
            m.setattr(yoshida, "_CHUNK", chunk)
            got = engine.table_sums(ta[order], tb[order], tc[order], mat, nu)
        assert got.tolist() == want[order].tolist() and any(want), nu


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_slab_table_sums_equal_the_full_row(nu):
    # R₁'s row 1 to bound 60 on its one slab engine, through table_sums, against
    # the full engine to (60 + 1)//4; a table with another row is refused
    full = ThetaEngine(fx.order_r1(), 15)
    (x1,) = full.half_shell(1)
    slab = ThetaEngine.slab(full, x1, 60)
    forms = [(1, b, c) for c in range(1, 16) for b in (-1, 0, 1) if 4 * c - b * b <= 60]
    ta, tb, tc = (np.array(x) for x in zip(*forms))
    monos = monomials_of_degree(4, nu)
    rng = random.Random(nu)
    mat = np.array([[rng.randint(-4, 4) for _ in monos] for _ in monos], dtype=np.int64)
    want = full.table_sums(ta, tb, tc, mat, nu).tolist()
    assert slab.table_sums(ta, tb, tc, mat, nu).tolist() == want and any(want)
    with pytest.raises(ValueError, match="row a = 1 only"):
        slab.table_sums(np.append(ta, 2), np.append(tb, 0), np.append(tc, 2), mat, nu)


def test_table_sums_beyond_the_engine_bound():
    # one form past the engine, by its a, its c or both, fails the whole table
    engine = ThetaEngine(fx.order_r1(), 3)
    one = np.ones((1, 1), dtype=np.int64)
    for a, c in ((4, 1), (2, 4), (5, 5)):
        with pytest.raises(TruncationError):
            engine.table_sums([2, a], [0, 0], [2, c], one, 0)
    assert engine.table_sums([], [], [], one, 0).tolist() == []


@pytest.mark.parametrize("nu", [0, 1])
def test_table_sums_refuse_a_form_with_a_zero_vector(nu):
    # a or c = 0 is a singular entry, which theta_lift writes itself, and a
    # negative norm is no form; both are refused before the bound check (c = 9)
    engine = ThetaEngine(fx.order_r1(), 3)
    mat = np.eye(4 ** nu, dtype=np.int64)
    for a, c in ((0, 2), (2, 0), (0, 0), (-1, 2), (2, -1), (0, 9)):
        with pytest.raises(ValueError, match="a ≥ 1 and c ≥ 1"):
            engine.table_sums([2, a], [0, 0], [2, c], mat, nu)
    for a, c in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="a ≥ 1 and c ≥ 1"):
            engine.pair_sums_bilinear(a, c, mat, nu)


def test_engine_half_shells_are_slices_of_the_kernel_array(monkeypatch):
    # the engine keeps the kernel's own array: no copy, and each H_m a slice of it
    calls = []

    def record(*args, **kwargs):
        calls.append(short_vectors_upto(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(yoshida, "short_vectors_upto", record)
    engine = ThetaEngine(fx.ideal_i12(), 40)
    (buckets,) = calls
    assert np.shares_memory(engine.shells, next(iter(buckets.values())))
    assert len(engine.shells) == sum(map(len, buckets.values()))
    end = 0
    for m in range(41):
        h = engine.half_shell(m)
        assert np.array_equal(h, buckets.get(Fraction(m), engine.shells[:0])), m
        assert np.array_equal(h, engine.shells[end:end + len(h)]), m
        assert not len(h) or np.shares_memory(h, engine.shells), m
        end += len(h)
    assert end == len(engine.shells)


def test_yoshida1_eichler(class_set_17):
    phi2 = fx.phi2()
    y = yoshida1(class_set_17, phi2, phi2, 20)
    assert y.coefficient(1) == 2  # = <phi2, phi2>
    assert y.coefficient(2) / y.coefficient(1) == -1  # Brandt eigenvalue at 2
    assert y.coefficient(5) / y.coefficient(1) == -2


def test_yoshida1_distinct_eigenforms_vanish(class_set_17):
    y = yoshida1(class_set_17, constant_form(class_set_17), fx.phi2(), 20)
    assert y.is_zero()


def test_yoshida1_eisenstein_positive(class_set_17):
    one = constant_form(class_set_17)
    y = yoshida1(class_set_17, one, one, 20)
    assert all(y.coefficient(m) > 0 for m in range(1, 21))


def test_yoshida1_degree_mismatch(class_set_17):
    with pytest.raises(UsageError):
        yoshida1(class_set_17, fx.phi1(), fx.phi2(), 10)


def test_yoshida1_refuses_a_negative_bound(class_set_17):
    one = constant_form(class_set_17)
    with pytest.raises(ValueError, match="negative bound"):
        yoshida1(class_set_17, one, one, -1)
    assert yoshida1(class_set_17, one, one, 0).coefficient(0) == Fraction(4, 9)


def test_q_expansion_refuses_a_negative_bound_and_entries_past_it():
    with pytest.raises(ValueError, match="negative bound"):
        QExpansion(2, 17, -4, {0: 1})
    for m in (-1, 5):
        with pytest.raises(ValueError, match="outside"):
            QExpansion(2, 17, 4, {m: 1})
    assert QExpansion(2, 17, 4, {4: 1, 5: 0}).coeffs == {4: 1}


@pytest.mark.parametrize("weight, level, text", [(-3, 17, "negative weight -3"),
                                                  (3, 0, "the level must be positive, not 0"),
                                                  (3, -17, "the level must be positive, not -17")])
def test_expansion_headers_refuse_a_negative_weight_and_a_level_below_one(weight, level, text):
    # a negative weight made det(D)^k a float in T(p); level 0 made every prime divide it
    with pytest.raises(UsageError, match=f"^{text}$"):
        FourierExpansionSiegel2(weight, level, 10)
    with pytest.raises(UsageError, match=f"^{text}$"):
        QExpansion(weight, level, 10)
    assert FourierExpansionSiegel2(0, 1, 10).is_zero() and QExpansion(0, 1, 10).is_zero()


@pytest.mark.parametrize("t", [(2.7, 1, 3), ("2", 1, 3), (2.0, 1, 3)])
def test_coefficient_refuses_a_form_that_is_not_integers(golden_130, t):
    # 2.7 was truncated to the coefficient at (2, 1, 3); "2" failed inside numpy
    assert golden_130.coefficient((2, 1, 3)) == 32
    with pytest.raises(ValueError, match=re.escape(f"form {t} has an entry that is not")):
        golden_130.coefficient(t)


def _left_order_thetas(cs, bound):
    """θ_{R_i}(m) = e_i·B₀(m)_ii for 1 ≤ m ≤ bound, one list per class: the ν = 0
    diagonal of the Brandt series."""
    return [[e * b.blocks[i][i][0][0] for b in brandt_series(cs, 0, bound)]
            for i, e in enumerate(cs.unit_counts)]


def test_theta1_linear_independence_witness(class_set_17):
    t1, t2 = _left_order_thetas(class_set_17, 20)
    assert t1 != t2


def test_theta1_counts_every_vector(class_set_17):
    # θ_{R_i}(m) = #{x ∈ R_i : q(x) = m} from the series, against the full lists
    thetas = _left_order_thetas(class_set_17, 20)
    for theta, lattice, units in zip(thetas, (fx.order_r1(), fx.order_r2()), (2, 6)):
        g = lattice.normalized_gram()
        assert theta == [len(short_vectors(g, m)) for m in range(1, 21)]
        assert theta[0] == units


def test_expansion_container_rules():
    f = expansion(3, 17, 50, {(2, 1, 3): 32})
    assert f.coefficient((2, 1, 3)) == 32
    assert f.coefficient((2, -1, 3)) == -32
    assert f.coefficient((3, -1, 2)) == 32
    assert f.coefficient((1, 1, 6)) == 0  # ambiguous in odd weight
    with pytest.raises(ValueError, match="zero coefficient in odd weight"):
        expansion(3, 17, 50, {(2, 1, 3): 32, (1, 1, 6): 5})
    with pytest.raises(ValueError, match="not canonical-reduced"):
        expansion(3, 17, 50, {(3, 1, 2): 1})
    with pytest.raises(TruncationError):
        f.coefficient((7, 1, 9))


def test_from_columns_rejects_forms_beyond_the_bounds():
    f = expansion(2, 17, 50, {(3, 1, 4): 2, (0, 0, 4): 1}, singular_bound=4)  # disc 47
    assert f.entries == {(0, 0, 4): 1, (3, 1, 4): 2}
    with pytest.raises(ValueError, match="beyond the bound"):
        expansion(2, 17, 50, {(3, 1, 5): 2}, singular_bound=4)  # disc 59
    with pytest.raises(ValueError, match="beyond the bound"):
        expansion(2, 17, 50, {(0, 0, 5): 1}, singular_bound=4)
    assert expansion(2, 17, 50, {(3, 1, 4): 0, (0, 0, 4): 1},
                     singular_bound=4).entries == {(0, 0, 4): 1}
    with pytest.raises(ValueError, match="negative bound"):
        FourierExpansionSiegel2(2, 17, -1)


@pytest.mark.parametrize("den", [0, -2])
def test_from_columns_refuses_a_denominator_below_one(den):
    # −2 would store "3/−2", which the expansion reader refuses; 0 would divide by 0
    with pytest.raises(ValueError, match=f"denominator {den} is not positive"):
        FourierExpansionSiegel2.from_columns(2, 17, 50, [2], [1], [3], [3], den)
    assert expansion(2, 17, 50, {(2, 1, 3): Fraction(3, 2)}).denominator == 2


@pytest.mark.parametrize("bound", [60, 10 ** 10], ids=["int64-keys", "object-keys"])
@pytest.mark.parametrize("weight", [2, 3])
def test_from_columns_sorts_shuffled_columns_and_drops_zeros(weight, bound):
    f, forms, values = shuffled_store(weight, bound)
    want = [(t, v) for t, v in zip(forms, values) if v]
    assert any(t[0] == 0 for t, _ in want) == (weight == 2)
    assert list(f.entries.items()) == want  # canonical order: singular by m, then (disc, a, b)
    a, b, c, num, den = f.columns()
    assert a.dtype == b.dtype == c.dtype == np.int64 and num.dtype == object
    assert [Fraction(n, den) for n in num.tolist()] == [v for _, v in want]
    assert math.gcd(den, *num.tolist()) == 1
    assert not a.flags.writeable and not num.flags.writeable


@pytest.mark.parametrize("bound", [60, 10 ** 10], ids=["int64-keys", "object-keys"])
@pytest.mark.parametrize("weight", [2, 3])
def test_lookup_reads_every_form_within_the_bounds(weight, bound):
    # `coefficients` at the canonical forms: the stored numerators where an entry
    # is, 0 at every absent form, singular or definite
    f, forms, values = shuffled_store(weight, bound)
    a, b, c = np.array(forms, dtype=np.int64).T
    assert f.coefficients(a, b, c).tolist() == [int(v * f.denominator) for v in values]
    assert 0 in values


@pytest.mark.parametrize("weight", [2, 3])
def test_coefficients_read_a_non_canonical_form_at_its_reduction(weight):
    # at bound 39 the key of the non-canonical (3, −3, 4) is the key of (2, 1, 5);
    # (3, −3, 4) reduces to the ambiguous (3, 3, 4) instead
    entries = {(2, 1, 5): 7} if weight % 2 else {(2, 1, 5): 7, (3, 3, 4): 5}
    f = expansion(weight, 17, 39, entries)
    assert f.coefficients([3, 2, 3], [-3, 1, 3], [4, 5, 4]).tolist() == (
        [0, 7, 0] if weight % 2 else [5, 7, 5])
    assert f.coefficient((3, -3, 4)) == f.coefficient((3, 3, 4))
    # an odd weight picks up det(U) = −1 at (2, −1, 5)
    assert f.coefficient((2, -1, 5)) == (-7 if weight % 2 else 7)


def test_coefficients_raise_past_either_bound():
    f = expansion(3, 17, 50, {(2, 1, 3): 32}, singular_bound=4)
    assert f.coefficients([0, 4, 2], [0, 0, -1], [4, 0, 3]).tolist() == [0, 0, -32]
    # disc 251 > 50, singular 5 > 4, and the same two past 2^63
    for t in [(7, 1, 9), (5, 0, 0), (1, 0, 10 ** 20), (10 ** 20, 0, 0)]:
        with pytest.raises(TruncationError):
            f.coefficients(*([x] for x in t))
        with pytest.raises(TruncationError):
            f.coefficient(t)
    # one form past a bound fails the whole column
    with pytest.raises(TruncationError):
        f.coefficients([2, 7], [1, 1], [3, 9])
    # within bounds past 2^63 the forms beyond int64 read 0, the stored ones their values
    huge = expansion(2, 17, 10 ** 42, {(2, 1, 3): 32, (0, 0, 5): 1}, singular_bound=10 ** 21)
    assert huge.coefficients([2, 1, 0, 0], [-1, 0, 0, 0],
                             [3, 10 ** 20, 10 ** 21, 5]).tolist() == [32, 0, 0, 1]


@pytest.fixture(scope="module")
def eisenstein_60(class_set_17, space0):
    one = constant_form(class_set_17)
    return yoshida2(class_set_17, one, one, 60, space0)


def test_phi_operator_reads_the_singular_entries(eisenstein_60):
    f = eisenstein_60
    phi = phi_operator(f)
    assert phi.bound == f.singular_bound == 20 and not phi.is_zero()
    assert [phi.coefficient(m) for m in range(21)] == [f.coefficient((m, 0, 0))
                                                       for m in range(21)]


def test_agrees_with_the_same_lift_at_a_smaller_singular_bound(class_set_17, space0,
                                                               eisenstein_60):
    full = eisenstein_60
    small = yoshida2(class_set_17, constant_form(class_set_17), constant_form(class_set_17), 60,
                     space0, singular_bound=4)
    assert full.singular_bound > 5 and full.coefficient((5, 0, 0)) != 0
    assert small.agrees_with(full) and full.agrees_with(small)
    a, b, c, num, den = full.columns()

    def changed_at(m):
        new = num.copy()
        new[(a == 0) & (c == m)] += 1
        return FourierExpansionSiegel2.from_columns(full.weight, full.level, full.bound, a, b, c,
                                                    new, den, singular_bound=full.singular_bound)
    assert small.agrees_with(changed_at(5))  # beyond the common singular range
    assert not small.agrees_with(changed_at(4))


@pytest.mark.parametrize("singular_bound,slabs", [(None, 0), (40, 0), (4, 4)])
def test_scalar_singular_column_counts_single_vectors(class_set_17, slab_lattices,
                                                      singular_bound, slabs):
    # at ν = 0, a(0, 0, m) = Σ_ij φ(y_i)·ψ(y_j)/(e_i·e_j)·r(cross(i, j), m) over
    # all h² pieces, r the number of vectors of norm m in the full shells and 1 at
    # m = 0.  At bound 60 row 1 reads c ≤ 15: the singular bounds 20 (the default)
    # and 40 take the engines past it, 4 leaves them at the rows a ≥ 2 (c ≤ 8)
    # and row 1 on slabs, one per x₁ ∈ H₁ of cross(0, 0) (1) and cross(1, 1) (3)
    cs = class_set_17
    space = FormSpace(cs, 0)
    phi, psi = random_form(space, 1), random_form(space, 2)
    lift = yoshida2(cs, phi, psi, 60, singular_bound=singular_bound)
    assert len(slab_lattices) == slabs
    sb = lift.singular_bound
    assert sb == (singular_bound or 20)

    def theta_series(lattice):
        g = lattice.normalized_gram()
        return [len(short_vectors(g, m)) if m else 1 for m in range(sb + 1)]

    want = [Fraction(0)] * (sb + 1)
    for i in range(cs.h):
        for j in range(cs.h):
            s = phi.values[i][0] * psi.values[j][0] / (cs.unit_counts[i] * cs.unit_counts[j])
            want = [w + s * r for w, r in zip(want, theta_series(cs.cross_lattice(i, j)))]
    assert [lift.coefficient((0, 0, m)) for m in range(sb + 1)] == want and all(want)
    # theta_lift itself: the weight C₀₀ = −3/2 and the scale 1/3 times one series
    lattice = cs.cross_lattice(0, 1)
    f = theta_lift([(lattice, [[Fraction(-3, 2)]], Fraction(1, 3))], 0, 17, 60, sb)
    assert phi_operator(f).coeffs == {m: Fraction(-r, 2)
                                      for m, r in enumerate(theta_series(lattice)) if r}


@pytest.mark.parametrize("level", [17, 34])
def test_phi_of_the_degree_2_lift_is_the_degree_1_lift(class_set_17, cs34, level):
    # Φ(Y₂(φ, ψ)) = Y₁(φ, ψ) on every pair of ν = 0 basis forms, 4 at level 17 and
    # 16 at level 34 (cs34 is the order of tests/data/order_n34.json, seed 3): the
    # singular column from the engines' shell sizes against the Brandt series,
    # which shares no code with it (at ν ≥ 1 the degree-2 lift is cuspidal)
    cs = {17: class_set_17, 34: cs34}[level]
    forms = FormSpace(cs, 0).basis_forms()
    assert len(forms) == cs.h
    for a, phi in enumerate(forms):
        for b, psi in enumerate(forms):
            got = phi_operator(yoshida2(cs, phi, psi, 120))
            want = yoshida1(cs, phi, psi, 40)
            assert got.bound == 40 and (got.weight, got.level) == (want.weight, want.level)
            assert got.coeffs == want.coeffs and got.coeffs, (a, b)


@pytest.mark.parametrize("nu", [0, 1])
def test_theta_lift_totals_past_2_62_stay_exact(monkeypatch, nu):
    # scales 2⁶¹ + 1 and −2⁶¹ on one lattice: the first engine's totals pass 2⁶²
    # and go over to Python ints, 7 at a time, and the second one takes them back
    # to one copy of the lift, singular column included at ν = 0
    weight = fx.P1_MATRIX if nu else [[1]]
    want = theta_lift([(fx.order_r1(), weight, 1)], nu, 17, 300)
    monkeypatch.setattr(yoshida, "_CHUNK", 7)
    got = theta_lift([(fx.order_r1(), weight, 2 ** 61 + 1), (fx.order_r1(), weight, -2 ** 61)],
                     nu, 17, 300)
    text = dumps_canonical(expansion_to_obj(got))
    assert text == dumps_canonical(expansion_to_obj(want)) and not want.is_zero()
    assert max(map(abs, want.columns()[3].tolist())) * 2 ** 61 >= 2 ** 62


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("bound,singular_bound", [(-1, None), (-1, 5), (60, -1), (60, -3)])
def test_theta_lift_refuses_a_negative_bound_before_any_engine(monkeypatch, nu, bound,
                                                               singular_bound):
    built = engines_built(monkeypatch)
    terms = [(fx.order_r1(), fx.P1_MATRIX if nu else [[1]], 1)]
    with pytest.raises(ValueError, match="negative (singular )?bound"):
        theta_lift(terms, nu, 17, bound, singular_bound)
    assert built == []


def test_lifts_refuse_a_space_or_form_of_another_shape(class_set_17, space0, space1):
    cs = class_set_17
    three = AutomorphicForm(0, [(Fraction(1),)] * 3)  # the fixture has 2 classes
    one = constant_form(cs)
    for args in ((fx.phi1(), three, 30, space1), (three, one, 30),
                 (fx.phi1(), fx.phi2(), 30, space0)):
        with pytest.raises(UsageError):
            yoshida2(cs, *args)
    with pytest.raises(UsageError):
        yoshida1(cs, three, three, 10)


def test_phi_operator_zero_expansion():
    f = FourierExpansionSiegel2(3, 17, 30)
    assert phi_operator(f).is_zero()


def test_lift_scale_relates_polynomial_constants():
    # the expansion-level constant is the polynomial-level one divided by the
    # theta weight phi2(y_j)/(e_i·e_j) of each published piece
    e1, e2 = fx.UNIT_COUNTS
    w_r1 = Fraction(fx.PHI2_VALUES[0], e1 * e1)
    w_i12 = Fraction(fx.PHI2_VALUES[1], e1 * e2)
    assert fx.LIFT_SCALE * w_r1 == fx.P1_SCALE
    assert fx.LIFT_SCALE * w_i12 == fx.P12_SCALE


def test_yoshida1_matches_independent_brandt_eigenvalue(class_set_17, space0):
    phi2 = fx.phi2()
    y = yoshida1(class_set_17, phi2, phi2, 20)
    for p in (2, 3, 5):
        img = brandt_matrix(class_set_17, 0, p, space0).apply(phi2)
        lam = img.values[0][0] / phi2.values[0][0]
        assert img.values == phi2.scale(lam).values
        assert y.coefficient(p) / y.coefficient(1) == lam


def test_yoshida1_nu1_eichler(class_set_17):
    # weight-4 side of the correspondence: ratios are the nu=1 Brandt eigenvalues,
    # and composite coefficients satisfy the Hecke recursions
    y = yoshida1(class_set_17, fx.phi1(), fx.phi1(), 12)
    a1 = y.coefficient(1)
    assert a1 != 0
    a = {m: y.coefficient(m) / a1 for m in range(1, 13)}
    assert (a[2], a[3], a[5]) == (-3, -8, 6)
    assert a[4] == a[2] ** 2 - 2 ** 3
    assert a[6] == a[2] * a[3]
    assert a[9] == a[3] ** 2 - 3 ** 3
    assert a[10] == a[2] * a[5]
    assert a[12] == a[4] * a[3]


# level 17 at ν ≤ 3 (ids 0–3) and level 34 at ν ≤ 2
@pytest.mark.parametrize("level,nu,primes", [(17, nu, (2, 3, 5)) for nu in range(4)]
                         + [(34, nu, (3, 5)) for nu in range(3)],
                         ids=["0", "1", "2", "3", "34-0", "34-1", "34-2"])
def test_yoshida1_commutes_with_the_brandt_operators(class_set_17, cs34, level, nu, primes):
    # Eichler's relation on every pair of basis forms: T_p·Y₁(φ_a, φ_b) =
    # Σ_c M[a][c]·Y₁(φ_c, φ_b), M the Brandt matrix in matrix_of's row
    # convention and T_p a(m) = a(pm) + p^{2ν+1}·a(m/p) in weight 2ν + 2
    cs, bound = {17: class_set_17, 34: cs34}[level], 60
    space = FormSpace(cs, nu)
    forms = space.basis_forms()
    lift = [[yoshida1(cs, f, g, bound) for g in forms] for f in forms]
    for p in primes:
        m = space.matrix_of(brandt_matrix(cs, nu, p, space))
        for a, row in enumerate(lift):
            for b, y in enumerate(row):
                for n in range(bound // p + 1):
                    got = y.coefficient(p * n)
                    if n % p == 0:
                        got += p ** (2 * nu + 1) * y.coefficient(n // p)
                    want = sum(m[a][c] * lift[c][b].coefficient(n) for c in range(len(forms)))
                    assert got == want, (p, a, b, n)


def yoshida1_per_vector(cs, phi1, phi2, bound, space):
    """The degree-1 lift summed vector by vector: Σ_ij scale·Σ_x P_ij(x), P_ij from
    `lift_poly_deg1`, plus P_ij(0) in a(0) at ν = 0."""
    nu = phi1.nu
    coeffs = {}
    for i in range(cs.h):
        for j in range(cs.h):
            if not (any(phi1.values[i]) and any(phi2.values[j])):
                continue
            cross = cs.cross_lattice(j, i)
            lift = lift_poly_deg1(space.space, phi1.values[i], phi2.values[j], cross)
            scale = Fraction(1, cs.unit_counts[i] * cs.unit_counts[j]) / cross.norm_scale ** nu
            gram = cross.normalized_gram()
            for m in range(1, bound + 1):
                s = sum((lift.eval(v) for v in short_vectors(gram, m)), Fraction(0))
                coeffs[m] = coeffs.get(m, 0) + scale * s
            if nu == 0:
                coeffs[0] = coeffs.get(0, 0) + scale * lift.eval((0,) * 4)
    return {m: v for m, v in coeffs.items() if v}


@pytest.mark.parametrize("first,second,bound", [("phi2", "phi2", 20), ("one", "phi2", 20),
                                                ("one", "one", 20), ("phi1", "phi1", 12),
                                                ("nu2", "nu2'", 8)])
def test_yoshida1_matches_the_per_vector_sum(class_set_17, first, second, bound):
    cs = class_set_17
    space2 = FormSpace(cs, 2)
    forms = {"phi2": fx.phi2(), "one": constant_form(cs), "phi1": fx.phi1(),
             "nu2": random_form(space2, 5), "nu2'": random_form(space2, 6)}
    phi1, phi2 = forms[first], forms[second]
    space = [fx.fixture_space(0), fx.fixture_space(1), space2][phi1.nu]
    want = yoshida1_per_vector(cs, phi1, phi2, bound, space)
    assert yoshida1(cs, phi1, phi2, bound).coeffs == want
    assert want or (first, second) == ("one", "phi2")  # distinct eigenforms lift to 0


def test_golden_lift_serializes_like_fixture_lift():
    # the published assembly and the eigenform pipeline, singular bound included
    assert fx.golden_lift(1).singular_bound == 1
    for bound in range(61):
        golden = dumps_canonical(expansion_to_obj(fx.golden_lift(bound)))
        assert golden == dumps_canonical(expansion_to_obj(fx.fixture_lift(bound))), bound


def test_golden_lift_engines_take_the_numpy_kernel(monkeypatch):
    # the published run's three enumerations (R₁'s and I₁₂'s engines to norm 325
    # and R₁'s row-1 slab) expect thousands of lattice points each: far above
    # the crossover of the Python-int recursion
    calls, small_calls = [], []
    enumerate_upto, small = quatcore.short_vectors_upto, quatcore._small_half_shells
    monkeypatch.setattr(yoshida, "short_vectors_upto",
                        lambda g, m: calls.append(1) or enumerate_upto(g, m))
    monkeypatch.setattr(quatcore, "_small_half_shells",
                        lambda *args: small_calls.append(1) or small(*args))
    fx.golden_lift(2600)
    assert (len(small_calls), len(calls)) == (0, 3)


@pytest.mark.parametrize("bound", [2600, 8000])
def test_golden_lift_float64_tier_equals_the_int64_tier(monkeypatch, matmul_calls, bound):
    # the published lift's rows all fit the float64 tier; forced into int64 they
    # must give the same text byte for byte
    fast = dumps_canonical(expansion_to_obj(fx.golden_lift(bound)))
    assert matmul_calls[0]
    monkeypatch.setattr(yoshida, "FLOAT64_EXACT", 0)
    calls = matmul_calls[0]
    assert dumps_canonical(expansion_to_obj(fx.golden_lift(bound))) == fast
    assert matmul_calls[0] == calls


@pytest.fixture
def enumeration_norms(monkeypatch):
    """The max_norm of every enumeration the theta engines ask for, in order."""
    asked = []

    def record(g, max_norm):
        asked.append(max_norm)
        return short_vectors_upto(g, max_norm)

    monkeypatch.setattr(yoshida, "short_vectors_upto", record)
    return asked


def test_golden_lift_enumerates_the_largest_c_it_reads(enumeration_norms):
    # the rows a ≥ 2 of disc ≤ 2600 have c ≤ 2604//8; row 1 (c ≤ 2601//4) is one
    # slab of R₁'s norm-1 vector, to (2600 + t)/2 with t = 2600//3 + 1, and I₁₂
    # has no norm-1 vector; the singular range stays 867
    lift = fx.golden_lift(2600)
    assert enumeration_norms == [325, Fraction(3467, 2), 325]
    assert (lift.bound, lift.singular_bound) == (2600, 867)


@pytest.mark.parametrize("nu,singular_bound,reach", [(1, None, 150), (0, None, 200),
                                                     (0, 300, 300)])
def test_yoshida2_enumerates_the_largest_norm_it_reads(class_set_17, space0, space1,
                                                       enumeration_norms, nu,
                                                       singular_bound, reach):
    # at ν = 0 the singular range, past row 1's c ≤ 150, is every engine's reach,
    # and cross(1, 0) folds into cross(0, 1): 3 engines for the 4 pieces.
    # At ν = 1 the singular groups are skipped: the engines stop at the rows a ≥ 2
    # (c ≤ 604//8), and row 1 reaches c = 150 through one slab, to (600 + 201)/2,
    # per norm-1 vector; φ₁ is nonzero on the first class only, whose two cross
    # lattices hold one such vector and none
    if nu:
        phi, space = fx.phi1(), space1
        want = [reach // 2, Fraction(801, 2), reach // 2]
    else:
        phi, space = constant_form(class_set_17), space0
        want = [reach] * 3
    lift = yoshida2(class_set_17, phi, fx.phi2(), 600, space1=space,
                    singular_bound=singular_bound)
    assert enumeration_norms == want
    assert lift.singular_bound == (singular_bound or 200)


@pytest.mark.parametrize("bound", [60, 700, 703, 2600])
def test_slab_holds_every_vector_row_1_reads(bound):
    # the x₂ with |b| ≤ 1 and 4c − b² ≤ bound, as sets of ±x, from R₁'s slab and
    # from the full shells to (bound + 1)//4; each of the slab's is one of ±x₂,
    # and its half shells are the rows of their norm.  At 703 the forms (1, ±1, 176)
    # lie on the ellipsoid's boundary
    full = ThetaEngine(fx.order_r1(), (bound + 1) // 4)
    (x1,) = full.half_shell(1)
    slab = ThetaEngine.slab(full, x1, bound)
    assert slab.max_norm == full.max_norm

    def read(engine):
        v = engine.shells.astype(np.int64)
        b = v @ (engine.gram @ x1)
        q = ((v @ engine.gram) * v).sum(axis=1) // 2
        v = v[(np.abs(b) <= 1) & (4 * q - b * b <= bound)]
        return {tuple(x) for x in np.concatenate((v, -v)).tolist()}, len(v)

    (got, n), (want, _) = read(slab), read(full)
    assert got == want and len(got) == 2 * n
    for m in range(slab.max_norm + 1):
        h = slab.half_shell(m).astype(np.int64)
        assert (((h @ slab.gram) * h).sum(axis=1) == 2 * m).all(), m
    assert slab.start[-1] == len(slab.shells)
    with pytest.raises(ValueError, match="row a = 1 only"):
        row_sums(slab, 2, [2], [0], np.ones((1, 1), dtype=np.int64), 0)


@pytest.fixture
def slab_lattices(monkeypatch):
    """The lattice of every slab engine built, in order."""
    built = []
    slab = ThetaEngine.slab.__func__

    def recording(cls, engine, x1, bound):
        built.append(engine.lattice)
        return slab(cls, engine, x1, bound)

    monkeypatch.setattr(ThetaEngine, "slab", classmethod(recording))
    return built


def full_slice(ta, tc, nu, singular_bound):
    """Engines to the largest c of every row, so that row 1 runs on the full shells."""
    return max(int(tc.max(initial=0)), int(ta.max(initial=0)), 0 if nu else singular_bound)


def lift_texts(monkeypatch, slab_lattices, lift):
    """lift()'s canonical JSON with row 1 on slabs, and with it on the full slice."""
    texts = [dumps_canonical(expansion_to_obj(lift()))]
    slabs = len(slab_lattices)
    with monkeypatch.context() as m:
        m.setattr(yoshida, "_engine_norm", full_slice)
        texts.append(dumps_canonical(expansion_to_obj(lift())))
    assert len(slab_lattices) == slabs
    return texts, slabs


@pytest.mark.parametrize("bound", [2600, 8000])
def test_golden_lift_slab_rows_equal_the_full_slice(monkeypatch, slab_lattices, bound):
    # the one slab is R₁'s: I₁₂ has no vector of norm 1
    (slabbed, full), slabs = lift_texts(monkeypatch, slab_lattices, lambda: fx.golden_lift(bound))
    assert slabbed == full and slabs == 1
    assert slab_lattices[0].basis == fx.order_r1().basis


def test_small_bounds_equal_the_full_slice(monkeypatch, slab_lattices):
    # below 12, row 1 is the only row, and the engine still holds H₁ for the slab
    for bound in range(12):
        before = len(slab_lattices)
        (slabbed, full), slabs = lift_texts(monkeypatch, slab_lattices,
                                            lambda: fx.golden_lift(bound))
        assert slabbed == full, bound
        # row 1 reaches c = 2 at bound 7, past the engine's H₁
        assert slabs - before == (bound >= 7), bound


@pytest.mark.parametrize("level,nu,bound", [(17, 1, 700), (17, 2, 700), (17, 3, 700),
                                            (34, 1, 600)])
def test_yoshida2_slab_rows_equal_the_full_slice(monkeypatch, slab_lattices, class_set_17,
                                                 level, nu, bound):
    # at level 34 the constant second factor would lift to 0, so a random one
    cs = class_set_17 if level == 17 else class_set(level34_order(), 3)
    space = FormSpace(cs, nu)
    phi = fx.phi1() if level == 17 and nu == 1 else random_form(space, nu)
    second = fx.phi2() if level == 17 else random_form(FormSpace(cs, 0), 2)
    (slabbed, full), slabs = lift_texts(monkeypatch, slab_lattices,
                                        lambda: yoshida2(cs, phi, second, bound, space1=space))
    assert slabbed == full and slabs
    assert len(json.loads(full)["entries"]) > 300


def engines_built(monkeypatch):
    """The lattice of every ThetaEngine built from here on, in order."""
    built = []
    init = ThetaEngine.__init__

    def recording_init(self, lattice, max_norm):
        built.append(lattice)
        init(self, lattice, max_norm)

    monkeypatch.setattr(ThetaEngine, "__init__", recording_init)
    return built


@pytest.mark.parametrize("level", [17, 34])
def test_scalar_yoshida2_folds_each_conjugate_pair_of_pieces(monkeypatch, class_set_17, cs34,
                                                              level):
    # at ν = 0 piece (j, i) folds into piece (i, j): the lift equals theta_lift over
    # all h² pieces, each with its own lift_matrix_deg2 weight, for φ₁ ≠ ψ, and
    # builds one engine per unordered pair {i, j} whose folded scale is nonzero
    cs = {17: class_set_17, 34: cs34}[level]
    space = FormSpace(cs, 0)
    phi, psi = random_form(space, 1), random_form(space, 2)
    assert phi.values != psi.values
    terms = []
    for i in range(cs.h):
        for j in range(cs.h):
            cross = cs.cross_lattice(i, j)
            terms.append((cross, lift_matrix_deg2(space.space, phi.values[i], cross),
                          psi.values[j][0] / (cs.unit_counts[i] * cs.unit_counts[j])))
    want = dumps_canonical(expansion_to_obj(theta_lift(terms, 0, level, 300)))
    built = engines_built(monkeypatch)
    got = dumps_canonical(expansion_to_obj(yoshida2(cs, phi, psi, 300)))
    assert got == want and len(json.loads(got)["entries"]) > 100
    u, v = ([x for (x,) in f.values] for f in (phi, psi))
    pairs = [(i, j) for i in range(cs.h) for j in range(i, cs.h)
             if u[i] * v[j] + (u[j] * v[i] if i != j else 0)]
    assert len(built) == len(pairs) < len(terms)


def test_level34_lifts_match_the_pinned_digests():
    # yoshida2 at ν = 0, 1, 2 on the level-34 class set, pinned before the table
    # pass and the ν = 0 fold; CI's runtime-only job checks the same file
    data = Path(__file__).parent / "data"
    pins = json.loads((data / "yoshida2_n34.json").read_text(encoding="utf-8"))
    order = lattice_from_obj(load_json(str(data.parent.parent / pins["order"])),
                             fx.fixture_algebra())
    cs = class_set(order, pins["seed"])
    assert (order.level, cs.h) == (34, 4)

    def combination(space, coeffs):
        forms = space.basis_forms()
        assert len(forms) == len(coeffs)
        phi = forms[0].scale(coeffs[0])
        for form, k in zip(forms[1:], coeffs[1:]):
            phi = phi.add(form.scale(k))
        return phi

    for pin in pins["lifts"]:
        space = FormSpace(cs, pin["nu"])
        lift = yoshida2(cs, combination(space, pin["phi1"]),
                        combination(FormSpace(cs, 0), pin["phi2"]), pins["bound"], space1=space)
        text = dumps_canonical(expansion_to_obj(lift))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin["sha256"], pin["nu"]


def test_nu6_lift_matches_the_pinned_digest():
    # a weight-8 lift at level 17, past the int64 tier of lift_matrix_deg2, pinned when
    # the lift weight was folded by dense 0/1 matrices; CI's runtime-only job pins ν = 7
    cs = fx.fixture_class_set()
    lift = yoshida2(cs, FormSpace(cs, 6).basis_forms()[0], fx.phi2(), 300)
    text = dumps_canonical(expansion_to_obj(lift))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "0376d3ca8e80d96f2844c31a2dd94e0794fbeeeb1192730fb7fd9b4e5f989b2b"


def test_golden_lift_releases_its_engines(monkeypatch):
    built = []
    init = ThetaEngine.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ThetaEngine, "__init__", recording_init)
    fx.golden_lift(300)
    gc.collect()
    assert len(built) == 2 and all(ref() is None for ref in built)


def test_theta_lift_drops_each_engine_before_building_the_next(monkeypatch):
    # no gc.collect: the engine and its shells are freed by their last reference
    # going away, also when a slab's x₁, a view of the shells, was read
    built, alive = [], []
    init = ThetaEngine.__init__

    def recording_init(self, *args):
        alive.append([ref() is not None for ref in built])
        init(self, *args)
        built.extend((weakref.ref(self), weakref.ref(self.shells)))

    monkeypatch.setattr(ThetaEngine, "__init__", recording_init)
    fx.golden_lift(300)
    assert alive == [[], [False, False]]


def traced_peak(fn):
    """fn()'s result and the peak of the memory that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_memory_peak_per_vector():
    # R₁ to norm 650 in int8 rows: the leaf records, their one stable sort and the
    # rows stay within 28 bytes a vector (the int64 rows alone were 32)
    lattice = fx.order_r1()
    lattice.normalized_gram()  # cached before the trace starts
    engine, peak = traced_peak(lambda: ThetaEngine(lattice, 650))
    assert len(engine.shells) == 245697 and engine.shells.dtype == np.int8
    assert peak <= 28 * len(engine.shells)


def test_golden_lift_memory_peak():
    # one engine at a time, to the rows a ≥ 2 only, narrow rows and row sums on
    # blocks of the H_c slice
    lift, peak = traced_peak(lambda: fx.golden_lift(2600))
    assert len(lift.columns()[0]) == 4159
    assert peak <= 5 * 2 ** 20


def test_golden_lift_runs_in_one_process():
    with pytest.raises(UsageError, match="golden_lift runs in one process"):
        fx.golden_lift(60, jobs=2)
