"""Acceptance gate: one test per criterion of `quatlift verify-example`.

Each test runs that criterion's checks from `quatlift.verify` and asserts that
every recorded check passed; `pytest tests/test_acceptance.py -s` prints their
pass/fail lines.  Criterion 4 needs the expansion to input discriminant 25·104
so that T(5) output still covers every published coefficient; it is computed
once per module.
"""

import pytest

from quatlift import fixture as fx
from quatlift.verify import (Report, check_determinism, check_eichler_side,
                             check_fixture_arithmetic, check_hecke_golden,
                             check_l_function_layer, check_lift_golden,
                             check_property_suites)


HECKE_INPUT_BOUND = 2600


@pytest.fixture(scope="module")
def hecke_input():
    return fx.golden_lift(HECKE_INPUT_BOUND)


@pytest.fixture(scope="module")
def brandt_eigenvalues():
    """{ν: {p: λ}} as the Eichler-side checks find them."""
    return check_eichler_side(Report())


def _assert_passes(check, *args):
    report = Report()
    check(report, *args)
    print("\n".join(report.lines()))
    assert report.results and report.ok, "\n".join(report.lines())


def test_criterion_1_fixture_arithmetic():
    _assert_passes(check_fixture_arithmetic)


def test_criterion_2_eichler_side():
    _assert_passes(check_eichler_side)


def test_criterion_3_lift_golden(golden_130):
    _assert_passes(check_lift_golden, golden_130)


def test_criterion_4_hecke_golden(hecke_input, brandt_eigenvalues):
    _assert_passes(check_hecke_golden, hecke_input, brandt_eigenvalues)


def test_theory_path_equals_golden_at_hecke_bound(hecke_input):
    # the eigenform pipeline (yoshida2) against the published assembly, at the
    # full bound the Hecke checks read
    assert fx.fixture_lift(HECKE_INPUT_BOUND).agrees_with(hecke_input)


def test_criterion_5_l_function_layer(brandt_eigenvalues):
    _assert_passes(check_l_function_layer, brandt_eigenvalues)


def test_criterion_6_property_suites():
    _assert_passes(check_property_suites)


def test_criterion_7_determinism():
    _assert_passes(check_determinism)
