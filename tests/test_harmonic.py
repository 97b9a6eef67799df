import itertools
import json
import random
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quatlift import fixture as fx
from quatlift import linalg, polys, verify
from quatlift.brandt import (FormSpace, atkin_lehner, brandt_matrix, constant_form,
                             eigenforms, inner_product)
from quatlift.harmonic import (HarmSpace, _abs_column_sum, _monomial_rows, _steps, _sym_power,
                               default_frame, integral_tau_matrix, laplacian_matrix,
                               lift_matrix_deg2, lift_poly_deg2, monomials_of_degree,
                               tau_matrix_stack)
from quatlift.quatcore import QuatElement, UsageError, class_set, short_vectors
from quatlift.yoshida import yoshida1, yoshida2
from helpers import hamilton_algebra, level34_order, monomial_values
from poly_reference import (Poly, conjugation_entries, coords_of, lift_matrix_deg2_by_scatter,
                            lift_poly_deg1, monomial_rows_by_powers, sym_power_by_scatter)

PINNED = Path(__file__).parent / "data" / "harmonic_fixture_frame.json"


def conjugation_matrix(y, frame):
    """3×3 rows of Fractions, frame-coords(ȳ·g_l·y) in row l (so z ↦ ȳzy is t ↦ t·C)."""
    flat = conjugation_entries(frame, y.coords)
    return [flat[3 * l:3 * l + 3] for l in range(3)]


def poly_value(row, t, nu):
    """The polynomial with coefficient row `row` over the degree-ν monomials, at the point t."""
    return sum(c * m for c, m in zip(row, monomial_values(t, nu)))


def coefficient_row(space, coords):
    """The polynomial coords·B of `space` as its coefficient row."""
    return (linalg.frac_mat([coords]) @ space.basis)[0]


def test_poly_keeps_fraction_coefficients():
    # a Fraction coefficient is stored as it is; anything else is wrapped as before
    half = Fraction(1, 2)
    p = Poly(2, {(1, 0): half, (0, 1): 3, (0, 0): Fraction(0)})
    assert p.coeffs[(1, 0)] is half and p.coeffs == {(1, 0): half, (0, 1): 3}
    assert all(type(c) is Fraction for c in p.coeffs.values())
    q = Poly(2, {(0, 1): Fraction(6, 2), (1, 0): 0.5, (2, 2): 0})
    assert p == q and hash(p) == hash(q)
    assert (p + q).coeffs == {(1, 0): 1, (0, 1): 6} and (p - q).is_zero()


def test_dimensions(algebra):
    frame = default_frame(algebra)
    for nu in range(5):
        assert HarmSpace(nu, frame).dim == 2 * nu + 1


def test_negative_degree_is_refused(algebra):
    with pytest.raises(UsageError):
        HarmSpace(-1, default_frame(algebra))


def test_degree_zero_and_one(algebra):
    frame = default_frame(algebra)
    assert HarmSpace(0, frame).basis == linalg.frac_mat([[1]])
    # every linear polynomial is harmonic
    sp1 = HarmSpace(1, frame)
    assert sp1.basis.shape == (3, 3) and linalg.rank(sp1.basis) == 3


def test_bases_and_pairings_are_pinned(algebra):
    # the integer bases and pairing matrices at the fixture frame, as the
    # construction on `Poly`s gave them: form coordinates must not move
    pinned = json.loads(PINNED.read_text())
    frame = default_frame(algebra)
    for nu in range(6):
        sp, want = HarmSpace(nu, frame), pinned[str(nu)]
        assert sp.basis == linalg.frac_mat(want["basis"])
        assert sp.pairing_matrix == (linalg.frac_mat(want["pairing_num"])
                                     * Fraction(1, want["pairing_den"]))


@pytest.mark.parametrize("nvars", [3, 4])
def test_laplacian_matrix_matches_poly_derivatives(algebra, nvars):
    # column α against Σ ginv_ij·∂_i∂_j x^α, differentiated as a Poly
    ginv = (default_frame(algebra).gram_inv if nvars == 3
            else linalg.inverse(fx.ideal_i12().gram))
    for nu in range(5):
        lap = laplacian_matrix(ginv, nu, nvars)
        low = monomials_of_degree(nvars, nu - 2) if nu >= 2 else []
        assert lap.shape == (len(low), len(monomials_of_degree(nvars, nu)))
        for col, alpha in enumerate(monomials_of_degree(nvars, nu)):
            p = Poly.monomial(alpha)
            image = Poly.zero(nvars)
            for i in range(nvars):
                for j in range(nvars):
                    image = image + p.diff(i).diff(j) * ginv[i][j]
            assert [row[col] for row in lap] == image.coefficient_vector(low)


def test_monomial_pairing_is_the_fischer_pairing(algebra):
    # ⟨⟨x^α, x^β⟩⟩ = (D^α·x^β)(0) with D_i = Σ_j ginv_ij·∂_j, differentiated as Polys
    frame = default_frame(algebra)
    ginv = frame.gram_inv
    for nu in range(4):
        sp = HarmSpace(nu, frame)
        for a, alpha in enumerate(sp.monomials):
            for b, beta in enumerate(sp.monomials):
                p = Poly.monomial(beta)
                for i, k in enumerate(alpha):
                    for _ in range(k):
                        p = sum((p.diff(j) * ginv[i][j] for j in range(3)), Poly.zero(3))
                assert sp.monomial_pairing[a][b] == p.coeffs.get((0, 0, 0), 0)


def test_identity_frame_degree_two_membership():
    # trace-zero frame of the Hamilton quaternions has Gram 2·identity
    alg = hamilton_algebra()
    frame = default_frame(alg)
    assert frame.gram == linalg.identity(3) * 2
    sp2 = HarmSpace(2, frame)
    # coefficient rows over x², xy, xz, y², yz, z²
    x2_minus_y2 = [1, 0, 0, -1, 0, 0]
    assert linalg.solve(sp2.basis.T, x2_minus_y2) is not None
    sum_sq = [1, 0, 0, 1, 0, 1]
    assert linalg.solve(sp2.basis.T, sum_sq) is None


def _random_element(algebra, rng):
    while True:
        x = QuatElement(algebra, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(4)])
        if x.norm():
            return x


def _assert_tau_pointwise(y, sp, coords, rng):
    # (coords·M_y)·B at z equals (coords·B)(ȳ·z·y), the product in QuatElements
    frame = sp.frame
    image = (linalg.frac_mat([coords]) @ integral_tau_matrix(y, sp) @ sp.basis)[0]
    poly = coefficient_row(sp, coords)
    for _ in range(3):
        t = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
        z = frame.elements[0] * t[0] + frame.elements[1] * t[1] + frame.elements[2] * t[2]
        assert poly_value(image, t, sp.nu) == \
            poly_value(poly, coords_of(frame, y.conj() * z * y), sp.nu)


def test_tau_identity_and_representation(algebra):
    # P ↦ P(ȳ·z·y) in the row convention: M(y₁·y₂) = M(y₂)·M(y₁)
    frame = default_frame(algebra)
    rng = random.Random(3)
    for nu in (1, 2):
        sp = HarmSpace(nu, frame)
        assert integral_tau_matrix(algebra.unit(), sp) == linalg.identity(sp.dim)
        for _ in range(10):
            y1 = _random_element(algebra, rng)
            y2 = _random_element(algebra, rng)
            assert integral_tau_matrix(y1 * y2, sp) == \
                integral_tau_matrix(y2, sp) @ integral_tau_matrix(y1, sp)


def test_integral_tau_matches_pointwise(algebra):
    # random combinations of the basis, y of norm 2
    frame = default_frame(algebra)
    y = algebra.basis_element(1)
    assert y.norm() == 2
    rng = random.Random(7)
    for nu in range(1, 4):
        sp = HarmSpace(nu, frame)
        for _ in range(3):
            _assert_tau_pointwise(y, sp, [rng.randint(-3, 3) for _ in range(sp.dim)], rng)


def test_conjugation_matrix_matches_products(algebra):
    # the per-frame table of quadratic forms against frame-coords(ȳ·g_l·y)
    frame = default_frame(algebra)
    rng = random.Random(13)
    for _ in range(10):
        y = _random_element(algebra, rng)
        want = [coords_of(frame, y.conj() * g * y) for g in frame.elements]
        assert conjugation_matrix(y, frame) == want


def test_integral_tau_matrix_rows_match_substitution(algebra):
    # each row of the kernel's matrix is the basis polynomial with ȳ·z·y
    # substituted, checked by evaluation at random points
    frame = default_frame(algebra)
    rng = random.Random(17)
    for nu in range(4):
        sp = HarmSpace(nu, frame)
        ys = [algebra.basis_element(1)] + [_random_element(algebra, rng) for _ in range(4)]
        assert any(c.denominator != 1 for y in ys for c in y.coords)
        for y in ys:
            for coords in linalg.identity(sp.dim):
                _assert_tau_pointwise(y, sp, coords, rng)


def test_tau_preserves_harmonicity(algebra):
    # the basis substituted, z ↦ ȳ·z·y, as coefficient rows B·S_ν(C(y)ᵗ)
    frame = default_frame(algebra)
    rng = random.Random(11)
    for nu in (2, 3):
        sp, lap = HarmSpace(nu, frame), laplacian_matrix(frame.gram_inv, nu, 3)
        for _ in range(10):
            c = linalg.frac_mat(conjugation_matrix(_random_element(algebra, rng), frame))
            s = _sym_power(c.num.T.astype(object)[None], nu)[0]
            images = sp.basis @ linalg.Matrix(s, c.den ** nu)
            assert images.num.any() and not (lap @ images.T).num.any()


def test_abs_column_sum_matches_the_loop(algebra):
    # the bound behind tau_matrix_stack's int64/object choice, against the Python loop it
    # replaced, on the τ-table and on entries past int64
    table, _ = default_frame(algebra).conj_table
    for rows in (table, [[3, -2 ** 70, 0], [-5, 1, 2 ** 63]]):
        cols = range(len(rows[0]))
        assert _abs_column_sum(rows) == max(sum(abs(row[c]) for row in rows) for c in cols)


def test_pairing_normalization_and_errors(algebra, class_set_17):
    sp0 = HarmSpace(0, default_frame(algebra))
    assert sp0.pairing_matrix == linalg.identity(1) and sp0.pair_coords((1,), (1,)) == 1
    # forms of different degree do not pair
    with pytest.raises(UsageError):
        inner_product(fx.phi2(), fx.phi1(), class_set_17)


def test_pairing_positive_definite(algebra):
    frame = default_frame(algebra)
    for nu in (1, 2, 3):
        sp = HarmSpace(nu, frame)
        m = sp.pairing_matrix
        assert m == m.T
        # positive definiteness via leading principal minors
        rows = m.tolist()
        for k in range(1, sp.dim + 1):
            assert linalg.det([row[:k] for row in rows[:k]]) > 0


def test_pairing_invariant_under_unit_group(algebra):
    # M_u·P·M_uᵗ = P for the τ-matrices of the 6 units of R₂
    frame = default_frame(algebra)
    r2 = fx.order_r2()
    units = [r2.element_from(v) for v in short_vectors(r2.gram, 1)]
    assert len(units) == 6
    for nu in (1, 2, 3):
        sp = HarmSpace(nu, frame)
        p = sp.pairing_matrix
        for u in units:
            m = integral_tau_matrix(u, sp)
            assert m @ p @ m.T == p


def test_lift_poly_deg1_degree_zero(algebra):
    sp0 = HarmSpace(0, default_frame(algebra))
    assert lift_poly_deg1(sp0, (3,), (5,), fx.order_r1()) == Poly.constant(4, 15)


def test_lift_poly_deg1_unit_value(algebra):
    # conjugation by 1 is trivial, so P(1) = <<v1, v2>>
    sp = HarmSpace(1, default_frame(algebra))
    for u in linalg.identity(sp.dim):
        for v in linalg.identity(sp.dim):
            p = lift_poly_deg1(sp, u, v, fx.order_r1())
            assert p.eval([1, 0, 0, 0]) == sp.pair_coords(u, v)


def _alpha3(algebra):
    """HarmSpace(1) and the coordinates in it of z₃, the third frame coordinate."""
    sp = HarmSpace(1, default_frame(algebra))
    return sp, linalg.solve(sp.basis.T, [0, 0, 1])


def test_lift_poly_deg2_alternating(algebra):
    p = lift_poly_deg2(*_alpha3(algebra), fx.order_r1())
    rng = random.Random(1)
    for _ in range(20):
        x = [rng.randint(-4, 4) for _ in range(4)]
        assert p.eval(x + x) == 0


def test_lift_poly_deg2_det_equivariance(algebra):
    p = lift_poly_deg2(*_alpha3(algebra), fx.order_r1())
    rng = random.Random(2)
    for _ in range(10):
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        x1 = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        x2 = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        y1 = [a * u + c * v for u, v in zip(x1, x2)]
        y2 = [b * u + d * v for u, v in zip(x1, x2)]
        assert p.eval(y1 + y2) == (a * d - b * c) * p.eval(x1 + x2)


def test_lift_poly_deg2_matches_published(algebra):
    m_r1 = lift_matrix_deg2(*_alpha3(algebra), fx.order_r1())
    assert [[fx.P1_SCALE * x for x in row] for row in m_r1] == \
        [[Fraction(x) for x in row] for row in fx.P1_MATRIX]
    m_i12 = lift_matrix_deg2(*_alpha3(algebra), fx.ideal_i12())
    assert [[fx.P12_SCALE * x for x in row] for row in m_i12] == \
        [[Fraction(x) for x in row] for row in fx.P12_MATRIX]


def _lift_lattices(class_set):
    cross = class_set.cross_lattice(1, 0)
    assert cross.basis.den > 1
    return [fx.order_r1(), fx.ideal_i12(), cross]


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_lift_matrix_deg2_matches_quaternion_products(algebra, class_set_17, nu):
    # m_ν(x₁)ᵗ·C·m_ν(x₂) against v(pim(x̄₁·x₂)) in QuatElement arithmetic
    frame = default_frame(algebra)
    sp = HarmSpace(nu, frame)
    one = algebra.unit()
    rng = random.Random(nu)
    for lattice in _lift_lattices(class_set_17):
        for coords in linalg.identity(sp.dim):
            c = lift_matrix_deg2(sp, coords, lattice)
            v = coefficient_row(sp, coords)
            for _ in range(4):
                x1, x2 = ([rng.randint(-3, 3) for _ in range(4)] for _ in range(2))
                u = lattice.element_from(x1).conj() * lattice.element_from(x2)
                m1, m2 = monomial_values(x1, nu), monomial_values(x2, nu)
                value = sum(a * cab * b for a, row in zip(m1, c) for cab, b in zip(row, m2))
                assert value == poly_value(v, coords_of(frame, u - one * (u.trace() / 2)), nu)


def test_steps_table_multiplies_monomials():
    # mult[s, j] is s·x_j, and every monomial of degree e + 1 is parent·x_first
    for nvars, e in itertools.product((3, 4), range(5)):
        mult, parent, first = _steps(nvars, e)
        low, high = monomials_of_degree(nvars, e), monomials_of_degree(nvars, e + 1)
        for s, j in itertools.product(range(len(low)), range(nvars)):
            assert high[mult[s, j]] == tuple(k + (t == j) for t, k in enumerate(low[s]))
        for m, (p, f) in enumerate(zip(parent, first)):
            assert not any(high[m][:f]) and mult[p, f] == m


def test_lift_matrix_deg2_matches_the_scatter_fold(algebra, class_set_17):
    # the fold by index against the dense 0/1 fold matrices it replaced, on every basis
    # row of U_ν, ν ≤ 6 (int64 and object tiers), on R₁, I₁₂ and a cross lattice with
    # a non-integral basis
    frame = default_frame(algebra)
    for nu in range(7):
        sp = HarmSpace(nu, frame)
        rows = linalg.identity(sp.dim).tolist()
        for lattice in _lift_lattices(class_set_17):
            want = lift_matrix_deg2_by_scatter(sp, rows, lattice)
            assert [lift_matrix_deg2(sp, coords, lattice) for coords in rows] == want, nu


def test_sym_power_and_monomial_rows_match_the_references():
    # S_ν on int64 stacks (ν ≤ 5) and object stacks (ν = 6, 7, past int64), against
    # the scatter fold; the monomial rows against powers and a product
    rng = np.random.default_rng(23)
    for nu in range(8):
        a = rng.integers(-40, 41, size=(6, 3, 3))
        a = a if nu <= 5 else a.astype(object) * 2 ** 20
        got = _sym_power(a, nu)
        assert got.dtype == a.dtype and np.array_equal(got, sym_power_by_scatter(a, nu)), nu
    for nu in range(7):
        v = rng.integers(-30, 31, size=(9, 4))
        for dtype in (np.int64, object):
            got, want = _monomial_rows(v, nu, dtype), monomial_rows_by_powers(v, nu, dtype)
            assert got.dtype == want.dtype and np.array_equal(got, want), (nu, dtype)


def test_tau_matrix_stack_at_degree_zero_is_a_row_count(algebra, monkeypatch):
    # S₀ = 1: each group's sum is its row count, with no C formed
    sp = HarmSpace(0, default_frame(algebra))
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    groups = [(np.ones((5, 4), dtype=np.int8), basis, 2), (np.zeros((0, 4)), basis, 1),
              (np.array([[2 ** 70, 1, 0, 0]], dtype=object), basis, 3)]
    monkeypatch.setattr("quatlift.harmonic._monomial_rows", None)
    assert tau_matrix_stack(groups, sp) == [linalg.frac_mat([[k]]) for k in (5, 0, 1)]


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_lift_poly_deg1_matches_tau_pairing(algebra, class_set_17, nu):
    # P(x) = ⟨⟨u, v·M_x⟩⟩ with M_x the integral τ-matrix of x
    sp = HarmSpace(nu, default_frame(algebra))
    rng = random.Random(10 + nu)
    basis = list(linalg.identity(sp.dim))
    for lattice in _lift_lattices(class_set_17):
        for u, v in zip(basis, reversed(basis)):
            p = lift_poly_deg1(sp, u, v, lattice)
            for _ in range(3):
                x = [rng.randint(-3, 3) for _ in range(4)]
                image = linalg.vec_mat(v, integral_tau_matrix(lattice.element_from(x), sp))
                assert p.eval(x) == sp.pair_coords(u, image)


def test_lift_poly_deg2_pluriharmonic(algebra):
    # L₄·C = 0 = L₄·Cᵗ for every basis polynomial, and not for z₁^ν, which is
    # not harmonic
    frame = default_frame(algebra)
    r1 = fx.order_r1()
    g4inv = linalg.inverse(r1.gram)
    for nu in (1, 2, 3):
        sp, lap = HarmSpace(nu, frame), laplacian_matrix(g4inv, nu, 4)
        for coords in linalg.identity(sp.dim):
            c = lift_matrix_deg2(sp, coords, r1)
            assert c.num.any() and not (lap @ c).num.any() and not (lap @ c.T).num.any()
        if nu >= 2:
            monomials = types.SimpleNamespace(nu=nu, frame=frame,
                                              basis=linalg.identity(len(sp.monomials)))
            c = lift_matrix_deg2(monomials, [1] + [0] * (len(sp.monomials) - 1), r1)
            assert (lap @ c).num.any()


def test_lift_poly_deg2_antisymmetric_for_odd_degree(algebra):
    p = lift_poly_deg2(*_alpha3(algebra), fx.order_r1())
    rng = random.Random(4)
    for _ in range(20):
        x1 = [rng.randint(-4, 4) for _ in range(4)]
        x2 = [rng.randint(-4, 4) for _ in range(4)]
        assert p.eval(x1 + x2) == -p.eval(x2 + x1)


def test_lift_poly_deg1_adapted_harmonic(algebra):
    frame = default_frame(algebra)
    g4inv = linalg.inverse(fx.order_r1().gram)
    for nu in (1, 2):
        sp, lap = HarmSpace(nu, frame), laplacian_matrix(g4inv, 2 * nu, 4)
        for v in linalg.identity(sp.dim):
            p = lift_poly_deg1(sp, v, v, fx.order_r1())
            row = linalg.frac_mat([p.coefficient_vector(monomials_of_degree(4, 2 * nu))])
            assert row.num.any() and not (lap @ row.T).num.any()


def test_degree1_weight_row_is_the_poly_reference(algebra):
    # verify-example's matrix identity outer(u·B·F, v·B)·Tᵗ/den against the weight
    # built by substitution, on R₁ (identity basis) for all 9 basis pairs at ν = 1;
    # every row is harmonic for R₁'s Laplacian and none for R₂'s
    sp, r1 = HarmSpace(1, default_frame(algebra)), fx.order_r1()
    assert r1.basis == linalg.identity(4)
    lap1, lap2 = (laplacian_matrix(linalg.inverse(order.gram), 2, 4)
                  for order in (r1, fx.order_r2()))
    for u in linalg.identity(sp.dim):
        for v in linalg.identity(sp.dim):
            row = verify.degree1_weight_row(sp, u, v)
            p = lift_poly_deg1(sp, u, v, r1)
            assert row.tolist()[0] == p.coefficient_vector(monomials_of_degree(4, 2))
            assert row.num.any() and not (lap1 @ row.T).num.any()
            assert (lap2 @ row.T).num.any()


def test_no_poly_is_built_on_the_runtime_path(monkeypatch):
    # Poly stays behind the references lift_poly_deg2 and theta2_coefficient;
    # the pipeline and verify-example's property suite run on coefficient rows
    # and matrices
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Poly was built")

    fx.fixture_class_set().form_spaces.clear()  # phi1 and fixture_lift build their spaces anew
    monkeypatch.setattr(polys.Poly, "__init__", refuse)
    for order, q, primes in ((fx.order_r1(), 17, [2, 3]), (level34_order(), 2, [3, 5])):
        cs = class_set(order, 3)
        spaces = [FormSpace(cs, nu) for nu in range(4)]
        for nu in (0, 1):
            brandt_matrix(cs, nu, primes[0], spaces[nu])
            atkin_lehner(cs, nu, q)
            eigenforms(cs, nu, primes, spaces[nu])
            forms = spaces[nu].basis_forms()
            inner_product(forms[0], forms[-1], cs)
    cs = fx.fixture_class_set()
    phi1, phi2, one = fx.phi1(), fx.phi2(), constant_form(cs)
    yoshida1(cs, phi2, phi2, 20)
    yoshida1(cs, phi1, phi1, 12)
    yoshida2(cs, one, one, 40)
    yoshida2(cs, phi1, phi2, 40)
    phi = FormSpace(cs, 2).basis_forms()[0]
    yoshida2(cs, phi, phi2, 20)
    fx.fixture_lift(300)
    fx.golden_lift(300)
    report = verify.Report()
    verify.check_property_suites(report)
    assert report.results and report.ok, report.lines()
    # the patch is live: a reference function still builds one
    with pytest.raises(AssertionError, match="a Poly was built"):
        lift_poly_deg2(*_alpha3(fx.fixture_algebra()), fx.order_r1())
