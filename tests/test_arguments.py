"""Every entry point checks its primes, integer bounds and harmonic degrees by the
`quatcore.require_*` rules: the same `UsageError` for the same invalid argument,
before any work or cache lookup, and the argument kept as a Python int."""

import numpy as np
import pytest

from quatlift import fixture as fx
from quatlift.brandt import (AutomorphicForm, FormSpace, atkin_lehner, brandt_matrix,
                             brandt_series, constant_form, eigenforms, essential_part)
from quatlift.harmonic import HarmSpace, default_frame
from quatlift.quatcore import (ClassSet, UsageError, class_set, is_ramified, p_neighbors,
                               superorders, two_sided_ideal)
from quatlift.siegelhecke import (hecke_prime_power_coeffs, hecke_Tp, lambda_N,
                                  rankin_selberg_local, rankin_selberg_matches_dirichlet,
                                  standard_L_local)
from quatlift.yoshida import (FourierExpansionSiegel2, QExpansion, ThetaEngine, theta_lift,
                              yoshida1, yoshida2)

INVALID = [2.0, 3.5, True, "3"]


# (kind, name, call): call(cs, x) passes x to the entry point in the slot of that kind
ENTRY_POINTS = [
    ("good prime", "brandt_matrix", lambda cs, x: brandt_matrix(cs, 0, x)),
    ("good prime", "eigenforms", lambda cs, x: eigenforms(cs, 0, [2, x])),
    ("good prime", "p_neighbors", lambda cs, x: p_neighbors(cs.ideals[0], x)),
    ("good prime", "class_set", lambda cs, x: class_set(cs.order, x)),
    ("good prime", "hecke_Tp", lambda cs, x: hecke_Tp(FourierExpansionSiegel2(2, 17, 40), x)),
    ("prime", "standard_L_local", lambda cs, x: standard_L_local(-3, -1, 4, 2, 2, x)),
    ("prime", "rankin_selberg_local", lambda cs, x: rankin_selberg_local(-3, -1, 4, 2, x)),
    ("level prime", "atkin_lehner", lambda cs, x: atkin_lehner(cs, 0, x)),
    ("level prime", "essential_part",
     lambda cs, x: essential_part([constant_form(cs)], cs, x)),
    ("level prime", "two_sided_ideal", lambda cs, x: two_sided_ideal(cs.order, x)),
    ("level prime", "superorders", lambda cs, x: superorders(cs.order, x)),
    ("level prime", "is_ramified", lambda cs, x: is_ramified(cs.order, x)),
    ("bound", "brandt_series", lambda cs, x: brandt_series(cs, 0, x)),
    ("bound", "yoshida1", lambda cs, x: yoshida1(cs, constant_form(cs), constant_form(cs), x)),
    ("bound", "yoshida2", lambda cs, x: yoshida2(cs, constant_form(cs), constant_form(cs), x)),
    ("bound", "theta_lift", lambda cs, x: theta_lift([(fx.order_r1(), [[1]], 1)], 0, 17, x)),
    ("bound", "FourierExpansionSiegel2", lambda cs, x: FourierExpansionSiegel2(2, 17, x)),
    ("bound", "QExpansion", lambda cs, x: QExpansion(2, 17, x)),
    ("bound", "ThetaEngine", lambda cs, x: ThetaEngine(fx.order_r1(), x)),
    ("bound", "lambda_N-level", lambda cs, x: lambda_N(x, 2, 1.0)),
    ("bound", "lambda_N-degree", lambda cs, x: lambda_N(17, x, 1.0)),
    ("bound", "standard_L_local-degree", lambda cs, x: standard_L_local(-3, -1, 4, 2, x, 2)),
    ("bound", "hecke_prime_power_coeffs-count",
     lambda cs, x: hecke_prime_power_coeffs(1, 2, 2, x)),
    ("weight", "standard_L_local-k1", lambda cs, x: standard_L_local(-3, -1, x, 2, 2, 2)),
    ("weight", "standard_L_local-k2", lambda cs, x: standard_L_local(-3, -1, 4, x, 2, 2)),
    ("weight", "rankin_selberg_local-k1", lambda cs, x: rankin_selberg_local(-3, -1, x, 2, 2)),
    ("weight", "rankin_selberg_local-k2", lambda cs, x: rankin_selberg_local(-3, -1, 4, x, 2)),
    ("weight", "hecke_prime_power_coeffs", lambda cs, x: hecke_prime_power_coeffs(1, x, 2, 4)),
    ("weight", "rankin_selberg_matches_dirichlet-k1",
     lambda cs, x: rankin_selberg_matches_dirichlet(-3, -1, x, 2, 2)),
    ("weight", "rankin_selberg_matches_dirichlet-k2",
     lambda cs, x: rankin_selberg_matches_dirichlet(-3, -1, 4, x, 2)),
    ("degree", "AutomorphicForm", lambda cs, x: AutomorphicForm(x, [(1,)] * cs.h)),
    ("degree", "HarmSpace", lambda cs, x: HarmSpace(x, default_frame(cs.order.algebra))),
    ("degree", "FormSpace", lambda cs, x: FormSpace(cs, x)),
    ("degree", "brandt_matrix-degree", lambda cs, x: brandt_matrix(cs, x, 2)),
]


def _refusal(call, x) -> str:
    with pytest.raises(UsageError) as info:
        call(x)
    return str(info.value)


@pytest.mark.parametrize("call", [call for _, _, call in ENTRY_POINTS],
                         ids=[name for _, name, _ in ENTRY_POINTS])
@pytest.mark.parametrize("x", INVALID, ids=repr)
def test_every_entry_point_refuses_a_non_integer_argument(class_set_17, call, x):
    assert repr(x) in _refusal(lambda y: call(class_set_17, y), x)


@pytest.mark.parametrize("kind, bad", [
    ("good prime", [0, -3, 1, 4, 17, 2.0, True, "3"]),
    ("level prime", [0, 1, 4, 5, 2.0, True, "3"]),
])
def test_one_invalid_prime_gives_one_text_from_every_entry_point(class_set_17, kind, bad):
    calls = [call for k, _, call in ENTRY_POINTS if k == kind]
    for x in bad:
        texts = {_refusal(lambda y: call(class_set_17, y), x) for call in calls}
        assert len(texts) == 1, (x, texts)


@pytest.mark.parametrize("q, text", [(1, "1 is not a prime"), (4, "4 is not a prime"),
                                     (5, "5 does not divide the level 17")])
def test_a_level_prime_is_a_prime_that_divides_the_level(q, text):
    with pytest.raises(UsageError, match=f"^{text}$"):
        two_sided_ideal(fx.order_r1(), q)


def test_numpy_integers_are_accepted_and_kept_as_int(class_set_17):
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    for x in INVALID:
        with pytest.raises(UsageError):
            brandt_matrix(cs, 0, x)
    b = brandt_matrix(cs, np.int64(0), np.int64(2))
    assert type(b.p) is int and type(b.nu) is int
    brandt_series(cs, np.int64(0), np.int64(3))
    assert cs.brandt_blocks and all(type(m) is int and type(nu) is int
                                    for m, nu in cs.brandt_blocks)
    assert brandt_matrix(cs, 0, 2) is b
    assert type(atkin_lehner(cs, 0, np.int64(17)).p) is int
    assert type(FormSpace(cs, np.int64(1)).nu) is int
    assert type(AutomorphicForm(np.int64(0), [(1,)] * cs.h).nu) is int
    f = FourierExpansionSiegel2(np.int64(2), np.int64(17), np.int64(10), np.uint8(3))
    assert [type(v) for v in (f.weight, f.level, f.bound, f.singular_bound)] == [int] * 4
    q = QExpansion(np.int64(2), np.int64(17), np.int64(4))
    assert [type(v) for v in (q.weight, q.level, q.bound)] == [int] * 3


def test_the_local_factors_take_integer_weights_and_degrees_only():
    # a float weight once made float coefficients, and a float degree a TypeError
    with pytest.raises(UsageError, match="^the weight k1 must be an integer, not 4.5$"):
        rankin_selberg_local(-3, -1, 4.5, 2.5, 2)
    with pytest.raises(UsageError, match="^the weight k must be an integer, not 2.5$"):
        hecke_prime_power_coeffs(1, 2.5, 2, 4)
    with pytest.raises(UsageError, match="^the degree n must be an integer, not 2.5$"):
        standard_L_local(-3, -1, 4, 2, 2.5, 2)
    with pytest.raises(UsageError, match="^negative count -1$"):
        hecke_prime_power_coeffs(1, 2, 2, -1)
    # an integer degree below 2 keeps its own refusal
    for n in (0, 1, np.int64(1)):
        with pytest.raises(ValueError, match="needs n ≥ 2"):
            standard_L_local(-3, -1, 4, 2, n, 2)
    # numpy integers are taken as ints: the same exact coefficients
    assert rankin_selberg_local(-3, -1, np.int64(4), np.int64(2), 2).coeffs == \
        rankin_selberg_local(-3, -1, 4, 2, 2).coeffs
    assert hecke_prime_power_coeffs(1, np.int64(2), 2, np.int64(4)) == \
        hecke_prime_power_coeffs(1, 2, 2, 4)
    assert rankin_selberg_matches_dirichlet(-3, -1, np.int64(4), np.int64(2), 2)
