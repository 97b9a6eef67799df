"""Exact factoring over ℚ: agreement with sympy, the recombination cases and the product check."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatlift import polyfactor
from quatlift.polyfactor import factor_rational


def sympy_factors(coeffs):
    """The reference: sympy.factor_list, each factor made monic, in (length, coefficients) order."""
    import sympy
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** (len(coeffs) - 1 - i)
               for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(poly)
    out = []
    for fac, mult in factors:
        cs = [Fraction(str(c)) for c in sympy.Poly(fac, x).all_coeffs()]
        out.append((tuple(c / cs[0] for c in cs), int(mult)))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def multiply(*polys):
    """Product of polynomials given leading coefficient first."""
    out = [Fraction(1)]
    for p in polys:
        prod = [Fraction(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


@st.composite
def factors(draw):
    """A random rational polynomial of degree 1–6 with a nonzero lead (most are irreducible)."""
    deg = draw(st.integers(1, 6))
    lead = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    rest = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3),
                         min_size=deg, max_size=deg))
    return [lead] + rest


@st.composite
def products(draw):
    """A product of random factors with multiplicities 1–3, of degree at most 24."""
    out, deg = [], 0
    for fac in draw(st.lists(factors(), min_size=1, max_size=5)):
        mult = draw(st.integers(1, 3))
        if deg + mult * (len(fac) - 1) > 24:
            continue
        out += [fac] * mult
        deg += mult * (len(fac) - 1)
    return multiply(*out)


@given(products())
@settings(max_examples=60, deadline=None)
def test_factor_matches_sympy(coeffs):
    assert factor_rational(coeffs) == sympy_factors(coeffs)


def ints(*cs):
    return [Fraction(c) for c in cs]


nonzero = st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool)


@given(st.integers(1, 10), nonzero)
@settings(max_examples=25, deadline=None)
def test_powers_of_x2_minus_1_match_sympy(k, lead):
    # (x² − 1)¹⁰ is the characteristic polynomial of w₂ on a 20-dimensional
    # level-34 form space: one square-free part, of multiplicity 10
    f = [lead * c for c in multiply(*[ints(1, 0, -1)] * k)]
    assert factor_rational(f) == sympy_factors(f)


@st.composite
def repeated(draw):
    """Random factors, each with multiplicity 2–4, of degree at most 20, times a rational lead."""
    out, deg = [], 0
    for fac in draw(st.lists(factors(), min_size=1, max_size=3)):
        mult = draw(st.integers(2, 4))
        if deg + mult * (len(fac) - 1) <= 20:
            out += [fac] * mult
            deg += mult * (len(fac) - 1)
    return [draw(nonzero) * c for c in multiply(*out)]


@given(repeated())
@settings(max_examples=30, deadline=None)
def test_repeated_factors_match_sympy(coeffs):
    assert factor_rational(coeffs) == sympy_factors(coeffs)


@given(factors(), nonzero)
@settings(max_examples=30, deadline=None)
def test_non_monic_input_with_denominators_matches_sympy(coeffs, lead):
    coeffs = [lead * c / 7 for c in coeffs]
    assert factor_rational(coeffs) == sympy_factors(coeffs)


@st.composite
def irreducible_quadratic(draw):
    """x² + bx + c with a non-square discriminant, so irreducible over ℚ."""
    b, c = draw(st.integers(-9, 9)), draw(st.integers(-20, 20))
    disc = b * b - 4 * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    return ints(1, b, c)


@given(irreducible_quadratic(), irreducible_quadratic(), nonzero)
@settings(max_examples=30, deadline=None)
def test_two_irreducible_quadratics_match_sympy(q1, q2, lead):
    # their product may split into several factors mod every prime, so the
    # true factors come only from recombination
    f = [lead * c for c in multiply(q1, q2)]
    assert factor_rational(f) == sympy_factors(f)


@given(products())
@settings(max_examples=30, deadline=None)
def test_squarefree_parts_are_primitive_and_multiply_back(coeffs):
    f = polyfactor._primitive(coeffs[::-1])
    product = [1]
    for part, mult in polyfactor._squarefree(f):
        assert polyfactor._primitive(part) == part  # primitive, positive lead
        for _ in range(mult):
            product = polyfactor._mul(product, part)
    assert product == f


def test_irreducible_quartic_that_splits_mod_every_prime():
    f = ints(1, 0, -10, 0, 1)  # the minimal polynomial of √2 + √3
    assert factor_rational(f) == [(tuple(f), 1)]
    # it has more than one factor mod the chosen prime, so only recombination proves it irreducible
    _, local = polyfactor._modular_factors([1, 0, -10, 0, 1])
    assert len(local) > 1


@pytest.mark.parametrize("coeffs", [
    # two shifted copies of x⁴ − 10x² + 1: the true factors combine several local ones
    multiply(ints(1, 0, -10, 0, 1), ints(1, 4, -4, -16, -8)),
    # the Swinnerton-Dyer polynomial of √2, √3, √5, again with a square
    multiply(ints(1, 0, -40, 0, 352, 0, -960, 0, 576), ints(1, 0, -2), ints(1, 0, -2)),
    # rational roots with denominators, a square and a repeated cubic
    multiply(ints(6, -1, -2), ints(6, -1, -2), ints(2, 0, 0, -3), ints(2, 0, 0, -3),
             ints(2, 0, 0, -3), ints(1, 0)),
])
def test_recombination_cases_match_sympy(coeffs):
    assert factor_rational(coeffs) == sympy_factors(coeffs)


def test_x12_minus_1_is_the_cyclotomic_product():
    f = ints(1, *[0] * 11, -1)
    assert factor_rational(f) == [((1, -1), 1), ((1, 1), 1), ((1, -1, 1), 1), ((1, 0, 1), 1),
                                  ((1, 1, 1), 1), ((1, 0, -1, 0, 1), 1)]


def test_constants_and_linear_polynomials():
    assert factor_rational([Fraction(5)]) == []
    assert factor_rational([Fraction(-2, 3)]) == []
    assert factor_rational([Fraction(3), Fraction(2)]) == [((1, Fraction(2, 3)), 1)]
    assert factor_rational([Fraction(-1, 2), Fraction(0)]) == [((1, 0), 1)]
    with pytest.raises(ValueError, match="zero polynomial"):
        factor_rational([Fraction(0), Fraction(0)])


def test_wrong_factors_fail_the_product_check(monkeypatch):
    found = polyfactor._irreducible_factors
    monkeypatch.setattr(polyfactor, "_irreducible_factors", lambda f: found(f)[:-1])
    with pytest.raises(ValueError, match="do not multiply back"):
        factor_rational(ints(1, *[0] * 11, -1))
