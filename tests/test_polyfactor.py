"""Exact factoring over ℚ: agreement with sympy, the recombination cases and the product check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
