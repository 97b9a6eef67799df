import random
from fractions import Fraction

import pytest

from quatlift import fixture as fx
from quatlift import linalg
from quatlift.harmonic import (HarmonicPoly, adapted_laplacian, conjugation_matrix,
                               default_frame, harm_basis, integral_tau_matrix,
                               integral_tau_poly, lift_matrix_deg2, lift_poly_deg1,
                               lift_poly_deg2, pairing, pairing_polys, tau_action)
from quatlift.polys import Poly
from quatlift.quatcore import QuatElement, UsageError, short_vectors
from helpers import hamilton_algebra, monomial_values


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
        assert harm_basis(nu, frame).dim == 2 * nu + 1


def test_degree_zero_and_one(algebra):
    frame = default_frame(algebra)
    sp0 = harm_basis(0, frame)
    assert sp0.basis == [Poly.constant(3, 1)]
    sp1 = harm_basis(1, frame)
    assert all(p.degree() == 1 for p in sp1.basis)


def test_identity_frame_degree_two_membership():
    # trace-zero frame of the Hamilton quaternions has Gram 2·identity
    alg = hamilton_algebra()
    frame = default_frame(alg)
    assert frame.gram == linalg.mat_scale(linalg.identity(3), 2)
    sp2 = harm_basis(2, frame)
    x2_minus_y2 = Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1})
    assert sp2.coords_of_poly(x2_minus_y2) is not None
    sum_sq = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    with pytest.raises(ValueError):
        sp2.coords_of_poly(sum_sq)


def _random_element(algebra, rng):
    while True:
        x = QuatElement(algebra, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(4)])
        if x.norm():
            return x


def test_tau_identity_and_representation(algebra):
    frame = default_frame(algebra)
    sp = harm_basis(1, frame)
    hp = HarmonicPoly(frame, sp.basis[0])
    one = algebra.unit()
    assert tau_action(one, hp).poly == hp.poly
    rng = random.Random(3)
    for _ in range(20):
        y1 = _random_element(algebra, rng)
        y2 = _random_element(algebra, rng)
        lhs = tau_action(y1, tau_action(y2, hp))
        rhs = tau_action(y1 * y2, hp)
        assert lhs.poly == rhs.poly


def test_tau_norm_zero_rejected(algebra):
    frame = default_frame(algebra)
    hp = HarmonicPoly(frame, Poly.variable(3, 0))
    zero = QuatElement(algebra, [0, 0, 0, 0])
    with pytest.raises(UsageError):
        tau_action(zero, hp)


def test_integral_tau_matches_pointwise(algebra):
    # (n(y)^ν·τ(y))P(x) = P(ȳ·x·y), checked by evaluation on trace-zero elements
    frame = default_frame(algebra)
    sp = harm_basis(1, frame)
    y = algebra.basis_element(1)  # norm 2
    assert y.norm() == 2
    rng = random.Random(7)
    for p in sp.basis:
        hp = HarmonicPoly(frame, p)
        ip = integral_tau_poly(y, hp)
        for _ in range(5):
            t = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            z = frame.elements[0] * t[0] + frame.elements[1] * t[1] + frame.elements[2] * t[2]
            assert ip.poly.eval(t) == hp(y.conj() * z * y)


def test_conjugation_matrix_matches_products(algebra):
    # the per-frame table of quadratic forms against frame-coords(ȳ·g_l·y)
    frame = default_frame(algebra)
    rng = random.Random(13)
    for _ in range(10):
        y = _random_element(algebra, rng)
        want = [frame.coords_of(y.conj() * g * y) for g in frame.elements]
        assert conjugation_matrix(y, frame) == want


def test_integral_tau_matrix_rows_match_substitution(algebra):
    # row r of the kernel's matrix = coordinates of P_r(ȳ·z·y) by substitution
    frame = default_frame(algebra)
    rng = random.Random(17)
    for nu in range(4):
        sp = harm_basis(nu, frame)
        ys = [algebra.basis_element(1)] + [_random_element(algebra, rng) for _ in range(4)]
        assert any(c.denominator != 1 for y in ys for c in y.coords)
        for y in ys:
            m = integral_tau_matrix(y, sp)
            for r, p in enumerate(sp.basis):
                image = integral_tau_poly(y, HarmonicPoly(frame, p)).poly
                assert m[r] == sp.coords_of_poly(image)


def test_tau_preserves_harmonicity(algebra):
    frame = default_frame(algebra)
    sp = harm_basis(2, frame)
    rng = random.Random(11)
    for _ in range(20):
        y = _random_element(algebra, rng)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in sp.basis]
        p = sp.poly_from_coords(coeffs)
        image = tau_action(y, HarmonicPoly(frame, p)).poly
        assert adapted_laplacian(image, frame.gram_inv).is_zero()


def test_pairing_normalization_and_errors(algebra):
    frame = default_frame(algebra)
    one = HarmonicPoly(frame, Poly.constant(3, 1))
    assert pairing(one, one) == 1
    sp1 = harm_basis(1, frame)
    with pytest.raises(UsageError):
        pairing(one, HarmonicPoly(frame, sp1.basis[0]))


def test_pairing_positive_definite(algebra):
    frame = default_frame(algebra)
    for nu in (1, 2):
        sp = harm_basis(nu, frame)
        m = sp.pairing_matrix
        assert m == linalg.transpose(m)
        # positive definiteness via leading principal minors
        for k in range(1, sp.dim + 1):
            sub = [row[:k] for row in m[:k]]
            assert linalg.det(sub) > 0
        for p in sp.basis:
            assert pairing_polys(p, p, frame.gram_inv) > 0


def test_pairing_invariant_under_unit_group(algebra):
    frame = default_frame(algebra)
    sp = harm_basis(1, frame)
    r2 = fx.order_r2()
    units = [r2.element_from(v) for v in short_vectors(r2.gram, 1)]
    assert len(units) == 6
    for u in units:
        for v in sp.basis:
            for w in sp.basis:
                tv = tau_action(u, HarmonicPoly(frame, v)).poly
                tw = tau_action(u, HarmonicPoly(frame, w)).poly
                assert (pairing_polys(tv, tw, frame.gram_inv)
                        == pairing_polys(v, w, frame.gram_inv))


def test_lift_poly_deg1_degree_zero(algebra):
    frame = default_frame(algebra)
    v = HarmonicPoly(frame, Poly.constant(3, 3))
    w = HarmonicPoly(frame, Poly.constant(3, 5))
    p = lift_poly_deg1(v, w, fx.order_r1())
    assert p == Poly.constant(4, 15)


def test_lift_poly_deg1_unit_value(algebra):
    # conjugation by 1 is trivial, so P(1) = <<v1, v2>>
    frame = default_frame(algebra)
    sp = harm_basis(1, frame)
    for v in sp.basis:
        for w in sp.basis:
            p = lift_poly_deg1(HarmonicPoly(frame, v), HarmonicPoly(frame, w),
                               fx.order_r1())
            assert p.eval([1, 0, 0, 0]) == pairing_polys(v, w, frame.gram_inv)


def test_lift_poly_deg1_degree_mismatch(algebra):
    frame = default_frame(algebra)
    v0 = HarmonicPoly(frame, Poly.constant(3, 1))
    v1 = HarmonicPoly(frame, harm_basis(1, frame).basis[0])
    with pytest.raises(UsageError):
        lift_poly_deg1(v0, v1, fx.order_r1())


def _alpha3(algebra):
    return HarmonicPoly(default_frame(algebra), Poly.variable(3, 2))


def test_lift_poly_deg2_alternating(algebra):
    p = lift_poly_deg2(_alpha3(algebra), fx.order_r1())
    rng = random.Random(1)
    for _ in range(20):
        x = [rng.randint(-4, 4) for _ in range(4)]
        assert p.eval(x + x) == 0


def test_lift_poly_deg2_det_equivariance(algebra):
    p = lift_poly_deg2(_alpha3(algebra), fx.order_r1())
    rng = random.Random(2)
    for _ in range(10):
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        x1 = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        x2 = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        y1 = [a * u + c * v for u, v in zip(x1, x2)]
        y2 = [b * u + d * v for u, v in zip(x1, x2)]
        assert p.eval(y1 + y2) == (a * d - b * c) * p.eval(x1 + x2)


def test_lift_poly_deg2_matches_published(algebra):
    m_r1 = lift_matrix_deg2(_alpha3(algebra), fx.order_r1())
    assert [[fx.P1_SCALE * x for x in row] for row in m_r1] == \
        [[Fraction(x) for x in row] for row in fx.P1_MATRIX]
    m_i12 = lift_matrix_deg2(_alpha3(algebra), fx.ideal_i12())
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
    one = algebra.unit()
    rng = random.Random(nu)
    for lattice in _lift_lattices(class_set_17):
        for v in harm_basis(nu, frame).basis:
            hp = HarmonicPoly(frame, v)
            c = lift_matrix_deg2(hp, lattice)
            for _ in range(4):
                x1, x2 = ([rng.randint(-3, 3) for _ in range(4)] for _ in range(2))
                u = lattice.element_from(x1).conj() * lattice.element_from(x2)
                m1, m2 = monomial_values(x1, nu), monomial_values(x2, nu)
                value = sum(a * cab * b for a, row in zip(m1, c) for cab, b in zip(row, m2))
                assert value == hp(u - one * (u.trace() / 2))


def test_lift_matrix_deg2_rejects_mixed_degrees(algebra):
    # a weight of bidegree (ν, ν) needs a homogeneous v; no term may be dropped
    mixed = Poly.variable(3, 2) * Poly.variable(3, 0) + Poly.variable(3, 1)
    with pytest.raises(ValueError):
        lift_matrix_deg2(HarmonicPoly(default_frame(algebra), mixed), fx.order_r1())


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_lift_poly_deg1_matches_tau_pairing(algebra, class_set_17, nu):
    # P(x) = ⟨⟨v₁, n(x)^ν·τ(x)v₂⟩⟩ with the τ-action by substitution
    frame = default_frame(algebra)
    rng = random.Random(10 + nu)
    basis = harm_basis(nu, frame).basis
    for lattice in _lift_lattices(class_set_17):
        for v1, v2 in zip(basis, reversed(basis)):
            p = lift_poly_deg1(HarmonicPoly(frame, v1), HarmonicPoly(frame, v2), lattice)
            for _ in range(3):
                x = [rng.randint(-3, 3) for _ in range(4)]
                image = integral_tau_poly(lattice.element_from(x), HarmonicPoly(frame, v2))
                assert p.eval(x) == pairing_polys(v1, image.poly, frame.gram_inv)


def test_lift_poly_deg2_pluriharmonic(algebra):
    frame = default_frame(algebra)
    g4inv = linalg.inverse(fx.order_r1().gram)
    for nu in (1, 2, 3):
        sp = harm_basis(nu, frame)
        p8 = lift_poly_deg2(HarmonicPoly(frame, sp.basis[0]), fx.order_r1())
        for offset in (0, 4):
            lap = Poly.zero(8)
            for i in range(4):
                for j in range(4):
                    if g4inv[i][j]:
                        lap = lap + p8.diff(offset + i).diff(offset + j) * g4inv[i][j]
            assert lap.is_zero()


def test_lift_poly_deg2_antisymmetric_for_odd_degree(algebra):
    p = lift_poly_deg2(_alpha3(algebra), fx.order_r1())
    rng = random.Random(4)
    for _ in range(20):
        x1 = [rng.randint(-4, 4) for _ in range(4)]
        x2 = [rng.randint(-4, 4) for _ in range(4)]
        assert p.eval(x1 + x2) == -p.eval(x2 + x1)


def test_lift_poly_deg1_adapted_harmonic(algebra):
    frame = default_frame(algebra)
    sp = harm_basis(1, frame)
    g4inv = linalg.inverse(fx.order_r1().gram)
    for v in sp.basis:
        p = lift_poly_deg1(HarmonicPoly(frame, v), HarmonicPoly(frame, v),
                           fx.order_r1())
        lap = Poly.zero(4)
        for i in range(4):
            for j in range(4):
                if g4inv[i][j]:
                    lap = lap + p.diff(i).diff(j) * g4inv[i][j]
        assert lap.is_zero()
