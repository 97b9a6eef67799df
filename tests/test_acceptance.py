"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 4 needs the expansion to input discriminant 25·104 so that T(5)
output still covers every published coefficient; it is computed once per
session.  Run with `pytest tests/test_acceptance.py -s` to see the table.
"""

from fractions import Fraction

import pytest

from binforms_reference import reduced_forms_up_to
from quatlift import fixture as fx
from quatlift.binforms import is_ambiguous
from quatlift.brandt import atkin_lehner, brandt_matrix, constant_form, inner_product
from quatlift.siegelhecke import (LocalFactor, PoleError, SatakePair,
                                  eigenvalue_extract, hecke_Tp, lambda_N,
                                  rankin_selberg_local,
                                  rankin_selberg_matches_dirichlet,
                                  standard_L_local)
from quatlift.verify import Report, check_determinism, check_property_suites
from quatlift.yoshida import is_cuspidal_up_to_bound


HECKE_INPUT_BOUND = 2600


@pytest.fixture(scope="module")
def hecke_input():
    return fx.golden_lift(HECKE_INPUT_BOUND)


def _announce(num, text, ok=True):
    assert ok
    print(f"[PASS] criterion {num}: {text}")


def brandt_eigenvalue(cs, nu, p, phi, space):
    img = brandt_matrix(cs, nu, p, space).apply(phi)
    i, j = next((i, j) for i, v in enumerate(phi.values) for j, x in enumerate(v) if x)
    lam = img.values[i][j] / phi.values[i][j]
    assert img.values == phi.scale(lam).values
    return lam


def test_criterion_1_fixture_arithmetic(class_set_17):
    assert class_set_17.h == 2
    assert tuple(class_set_17.unit_counts) == (2, 6)
    for lat in (fx.order_r1(), fx.order_r2(), fx.ideal_i12()):
        assert lat.gram_det == 289
    alg = fx.fixture_algebra()
    f1, f2, f3 = (alg.basis_element(i) for i in (1, 2, 3))
    assert f1.trace() == 1 and f1.norm() == 2 and f2.norm() == 3 and f3.norm() == 5
    assert [fx.order_r1().gram[i][i] for i in range(4)] == [2, 4, 6, 10]
    _announce(1, "class number 2, unit counts {2,6}, Gram determinants 289, "
                 "product table matches the Gram diagonal")


def test_criterion_2_eichler_side(class_set_17, space0, space1):
    phi2, phi1 = fx.phi2(), fx.phi1()
    one = constant_form(class_set_17)
    assert inner_product(phi2, one, class_set_17, space0) == 0
    assert inner_product(phi2, phi2, class_set_17, space0) == 2
    for p in (2, 3, 5):
        assert all(s == p + 1
                   for s in brandt_matrix(class_set_17, 0, p, space0).row_sums())
    for p in (2, 3, 5):
        brandt_eigenvalue(class_set_17, 0, p, phi2, space0)
        brandt_eigenvalue(class_set_17, 1, p, phi1, space1)
    w2 = atkin_lehner(class_set_17, 0, 17, space0).apply(phi2)
    w1 = atkin_lehner(class_set_17, 1, 17, space1).apply(phi1)
    assert w2.values == phi2.values and w1.values == phi1.values
    _announce(2, "<phi2,1>=0, <phi2,phi2>=2, row sums p+1, simultaneous "
                 "eigenforms with equal w17 eigenvalue +1")


def test_criterion_3_lift_golden(golden_130):
    for t, v in fx.PRINTED_COEFFS.items():
        assert golden_130.coefficient(t) == v
    assert is_cuspidal_up_to_bound(golden_130)
    for t in reduced_forms_up_to(100):
        if is_ambiguous(*t):
            assert golden_130.coefficient(t) == 0
    _announce(3, "13/13 published coefficients match; singular and ambiguous "
                 "coefficients vanish to discriminant 100")


def test_criterion_4_hecke_golden(hecke_input):
    for p, expect in sorted(fx.HECKE_EIGENVALUES.items()):
        lam = eigenvalue_extract(hecke_input, hecke_Tp(hecke_input, p))
        assert lam == expect
    t23 = hecke_Tp(hecke_Tp(hecke_input, 2), 3)
    t32 = hecke_Tp(hecke_Tp(hecke_input, 3), 2)
    assert t23.agrees_with(t32)
    _announce(4, "T(p) eigenvalues (-5, -8, -4) with global normalization "
                 "constant 1; T(2)T(3) = T(3)T(2) exactly")


def test_theory_path_equals_golden_at_hecke_bound(hecke_input):
    # the eigenform pipeline (yoshida2) against the published assembly, at the
    # full bound the Hecke checks read
    assert fx.fixture_lift(HECKE_INPUT_BOUND).agrees_with(hecke_input)


def test_criterion_5_l_function_layer(class_set_17, space0, space1):
    eig = {(nu, p): brandt_eigenvalue(class_set_17, nu, p,
                                      fx.phi1() if nu else fx.phi2(),
                                      space1 if nu else space0)
           for nu in (0, 1) for p in (2, 3, 5)}
    for p in (2, 3, 5):
        af, ag = eig[(1, p)], eig[(0, p)]
        std = standard_L_local(SatakePair(p, 4, af), SatakePair(p, 2, ag), 2, p)
        rs = rankin_selberg_local(af, ag, 4, 2, p)
        assert std == LocalFactor(p, [1, -1]) * rs.scale_variable(Fraction(1, p * p))
        assert rankin_selberg_matches_dirichlet(af, ag, 4, 2, p)
        assert abs(std.evaluate_inverse_at(float(p) ** -1.0)) > 1e-9
    with pytest.raises(PoleError):
        lambda_N(17, 3, 1.0)
    val = lambda_N(17, 2, 1.0)
    assert abs(val - 1.0 / ((1 - 17.0 ** -2) * (1 - 17.0 ** -1))) < 1e-12
    # eigenvalue relation linking the two sides of the construction
    for p in (2, 3, 5):
        assert fx.HECKE_EIGENVALUES[p] == eig[(1, p)] + p * eig[(0, p)]
    _announce(5, "factorization identity, Dirichlet recursion to X^6, "
                 "Lambda_17 pole at s=1 (n=3) and exact n=2 value, nonvanishing "
                 "at the fixture primes")


def test_criterion_6_property_suites():
    report = Report()
    check_property_suites(report)
    for r in report.results:
        assert r.ok, f"{r.name}: {r.detail}"
    _announce(6, "algebra axioms, harmonicity/pluriharmonicity, pairing "
                 "invariance, theta independence witness, vanishing lift of "
                 "distinct eigenforms")


def test_criterion_7_determinism():
    report = Report()
    check_determinism(report)
    for r in report.results:
        assert r.ok, r.name
    _announce(7, "outputs byte-identical across runs")
