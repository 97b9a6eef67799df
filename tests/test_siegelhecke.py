import hashlib
import json
import random
from fractions import Fraction

import pytest

from binforms_reference import disc, reduced_forms_up_to
from quatlift import fixture as fx
from quatlift import siegelhecke
from quatlift.brandt import FormSpace, constant_form
from quatlift.serialize import dumps_canonical, expansion_from_obj, expansion_to_obj
from quatlift.siegelhecke import (HeckeCosetRep, LocalFactor, PoleError,
                                  eigenvalue_extract, hecke_Tp, hecke_cosets,
                                  lambda_N, rankin_selberg_local,
                                  rankin_selberg_matches_dirichlet,
                                  standard_L_local, _grouped_cosets)
from quatlift.quatcore import UsageError
from quatlift.yoshida import (FourierExpansionSiegel2, TruncationError,
                              is_cuspidal_up_to_bound, yoshida2)
from hecke_reference import hecke_Tp_per_block
from helpers import expansion


@pytest.fixture(scope="module")
def lift_950():
    return fx.golden_lift(950)


@pytest.fixture(scope="module")
def lift_nu2_200(class_set_17):
    # a random combination of the ν = 2 basis forms, as in the benchmark: weight 4
    space2 = FormSpace(class_set_17, 2)
    rng = random.Random(5)
    phi = None
    for form in space2.basis_forms():
        term = form.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        phi = term if phi is None else phi.add(term)
    return yoshida2(class_set_17, phi, fx.phi2(), 200, space1=space2)


@pytest.fixture(scope="module")
def eisenstein_600(class_set_17, space0):
    # the weight-2 lift of the constant pair; a(0, 0, 0) = 4/9
    one = constant_form(class_set_17)
    return yoshida2(class_set_17, one, one, 600, space0)


# SHA-256 of the canonical JSON of T(p)(f), computed by summing every one of the
# p³ + p² + p + 1 cosets separately
PINNED_IMAGES = {
    ("w3", 2): "e185496e0ac190de", ("w3", 3): "330a8e15d8fa4955",
    ("w3", 5): "c6a4163d052c61bc", ("w3", 7): "b5c2e7a5542ac7b8",
    ("w3", 11): "e9962271f02364c6", ("w3", 13): "73c992a2c4471236",
    ("w4", 2): "85c8423d7b78a598", ("w4", 3): "b3610a4e9127667f",
    ("w4", 5): "f1ddf123a2f6d798", ("w4", 7): "581a47f6f9149080",
}

# the same sum on the weight-2 Eisenstein lift, over the entries with disc > 0
PINNED_EISENSTEIN_IMAGES = {2: "60f0a8ea45c938a7", 3: "fe8b899d8ab90327",
                            5: "e5d4461a6e516424", 7: "fca6c5dfef4fd42b"}


def coset_matrix(rep: HeckeCosetRep) -> list[list[int]]:
    """The 4×4 matrix [[A, B], [0, D]] of a coset representative."""
    (a11, a12), (a21, a22) = rep.a
    (b11, b12), (b21, b22) = rep.b
    (d11, d12), (d21, d22) = rep.d
    return [[a11, a12, b11, b12],
            [a21, a22, b21, b22],
            [0, 0, d11, d12],
            [0, 0, d21, d22]]


_J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]


def _mm4(x, y):
    """Product of two 4×4 integer matrices."""
    return [[sum(x[i][t] * y[t][k] for t in range(4)) for k in range(4)] for i in range(4)]


def _symplectic_defect(m: list[list[int]], p: int) -> bool:
    """MᵗJM == p·J for the 4×4 similitude matrix."""
    mt = [[m[k][i] for k in range(4)] for i in range(4)]
    lhs = _mm4(_mm4(mt, _J), m)
    rhs = [[p * _J[i][k] for k in range(4)] for i in range(4)]
    return lhs == rhs


def cosets_pairwise_inequivalent(p: int) -> bool:
    """No two representatives lie in the same left Sp₄(Z) coset Γ·M."""
    reps = [coset_matrix(r) for r in hecke_cosets(p)]
    jinv = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    for i, m1 in enumerate(reps):
        m1t = [[m1[k][r] for k in range(4)] for r in range(4)]
        # p·M1⁻¹ = J⁻¹·M1ᵗ·J; Γ·M1 = Γ·M2 iff M2·M1⁻¹ is integral (then symplectic)
        m1inv_p = _mm4(_mm4(jinv, m1t), _J)
        for k, m2 in enumerate(reps):
            if k == i:
                continue
            prod = _mm4(m2, m1inv_p)
            if all(x % p == 0 for row in prod for x in row):
                return False
    return True


def test_coset_counts():
    assert len(hecke_cosets(2)) == 15
    assert len(hecke_cosets(3)) == 40
    assert len(hecke_cosets(5)) == 156


def test_cosets_are_symplectic_similitudes():
    for p in (2, 3):
        for rep in hecke_cosets(p):
            m = coset_matrix(rep)
            assert _symplectic_defect(m, p)
            a, d = rep.a, rep.d
            adt = [[sum(a[i][k] * d[j][k] for k in range(2)) for j in range(2)]
                   for i in range(2)]
            assert adt == [[p, 0], [0, p]]


def test_cosets_pairwise_inequivalent():
    assert cosets_pairwise_inequivalent(2)
    assert cosets_pairwise_inequivalent(3)


def test_hecke_eigenvalues(lift_950):
    for p in (2, 3):
        image = hecke_Tp(lift_950, p)
        assert eigenvalue_extract(lift_950, image) == fx.HECKE_EIGENVALUES[p]


def test_hecke_eigenvalues_at_larger_primes():
    # bound 5200 leaves T(7), T(11), T(13) the output bounds 106, 42 and 30
    f = fx.golden_lift(5200)
    for p, want in ((7, 0), (11, -24), (13, -84)):
        assert eigenvalue_extract(f, hecke_Tp(f, p)) == want


def test_hecke_commutation(lift_950):
    t23 = hecke_Tp(hecke_Tp(lift_950, 2), 3)
    t32 = hecke_Tp(hecke_Tp(lift_950, 3), 2)
    assert t23.agrees_with(t32)


def test_hecke_zero_and_scaling(lift_950):
    zero = FourierExpansionSiegel2(3, 17, 400)
    assert hecke_Tp(zero, 2).is_zero()
    scaled = lift_950.scale(Fraction(7, 3))
    image = hecke_Tp(scaled, 2)
    assert eigenvalue_extract(scaled, image) == fx.HECKE_EIGENVALUES[2]


def test_hecke_bad_prime_and_bound():
    f = FourierExpansionSiegel2(3, 17, 100)
    with pytest.raises(ValueError):
        hecke_Tp(f, 17)
    tiny = FourierExpansionSiegel2(3, 17, 3)
    with pytest.raises(TruncationError):
        hecke_Tp(tiny, 2)


def test_odd_weight_ambiguous_support_maps_to_zero():
    # force stored entries onto ambiguous forms: from_columns refuses them in odd
    # weight, so a weight-2 store goes under a weight-3 expansion of the same
    # bounds; coefficient reads and T(p) must treat them as 0
    even = expansion(2, 17, 400, {(1, 1, 6): Fraction(32), (2, 0, 5): Fraction(-7)})
    f = FourierExpansionSiegel2(3, 17, 400)
    for name in ("_a", "_b", "_c", "_key", "_num", "_den"):
        setattr(f, name, getattr(even, name))
    assert even.coefficients([1, 2], [1, 0], [6, 5]).tolist() == [32, -7]
    assert f.coefficients([1, 2, 1], [1, 0, -1], [6, 5, 6]).tolist() == [0, 0, 0]
    assert f.coefficient((1, 1, 6)) == 0
    assert f.coefficient((2, 0, 5)) == 0
    assert hecke_Tp(f, 2).is_zero()


@pytest.mark.parametrize("name", ["weight", "level", "bound", "singular_bound"])
def test_expansion_parameters_are_read_only(name):
    # the stored keys and the bound and odd-weight checks hold for the values
    # from_columns was given; a new bound would make coefficient reads miss
    # stored entries
    f = expansion(2, 17, 400, {(1, 1, 6): Fraction(32), (0, 0, 3): Fraction(1)},
                  singular_bound=5)
    with pytest.raises(AttributeError):
        setattr(f, name, 3)
    assert (f.weight, f.level, f.bound, f.singular_bound) == (2, 17, 400, 5)
    assert f.coefficient((1, 1, 6)) == 32


def test_eigenvalue_extract_edge_cases(lift_950):
    zero = lift_950.scale(0)
    assert eigenvalue_extract(lift_950, zero) == 0
    with pytest.raises(ValueError):
        eigenvalue_extract(zero, zero)
    entries = dict(lift_950.entries)
    t = next(iter(entries))
    entries[t] *= 2
    broken = expansion(lift_950.weight, lift_950.level, lift_950.bound, entries,
                       singular_bound=lift_950.singular_bound)
    with pytest.raises(ValueError):
        eigenvalue_extract(lift_950, broken)


def test_expansions_of_another_weight_or_level_are_not_compared():
    # the same entries under weights 2 and 3, and under levels 17 and 34
    entries = {(2, 1, 3): 4, (3, 1, 4): 2}
    f = expansion(3, 17, 50, entries)
    for other in (expansion(2, 17, 50, entries), expansion(3, 34, 50, entries)):
        with pytest.raises(UsageError, match="not comparable"):
            f.agrees_with(other)
        with pytest.raises(UsageError, match="not comparable"):
            other.agrees_with(f)
        with pytest.raises(UsageError, match="not comparable"):
            eigenvalue_extract(f, other.scale(2))
    assert f.agrees_with(expansion(3, 17, 50, entries))
    assert eigenvalue_extract(f, f.scale(2)) == 2


def test_standard_factor_trivial_pair():
    # β = β̃ = 1: weight 1 and eigenvalue 2
    f = standard_L_local(2, 2, 1, 1, 2, 7)
    assert f.coeffs == [1, -5, 10, -10, 5, -1]  # (1 - X)^5


@pytest.mark.parametrize("args, error, message", [
    ((-3, -1, 4, 2, 2, 4), UsageError, "4 is not a prime"),
    ((-3, -1, 4, 2, 1, 2), ValueError, "needs n ≥ 2"),
    ((-3, -1, 4, 3, 2, 2), ValueError, "cross sum is irrational for mixed weight parity"),
])
def test_standard_factor_refusals(args, error, message):
    with pytest.raises(error, match=message):
        standard_L_local(*args)


def test_standard_factor_degree_n3():
    f2 = standard_L_local(-3, -1, 4, 2, 2, 2)
    f3 = standard_L_local(-3, -1, 4, 2, 3, 2)
    extra = LocalFactor(2, [1, -2]) * LocalFactor(2, [1, Fraction(-1, 2)])
    assert f3 == f2 * extra
    assert f3.degree == 7


def test_standard_equals_zeta_times_shifted_tensor():
    for p, af, ag in ((2, -3, -1), (3, -8, 0), (5, 6, -2)):
        std = standard_L_local(af, ag, 4, 2, 2, p)
        rs = rankin_selberg_local(af, ag, 4, 2, p)
        shifted = rs.scale_variable(Fraction(1, p ** 2))
        assert std == LocalFactor(p, [1, -1]) * shifted


def test_rankin_selberg_zero_eigenvalues():
    p, k1, k2 = 3, 4, 2
    f = rankin_selberg_local(0, 0, k1, k2, p)
    w = k1 + k2 - 2
    assert f.coeffs == [1, 0, -2 * Fraction(p) ** w, 0, Fraction(p) ** (2 * w)]


def test_rankin_selberg_dirichlet_recursion():
    for p, af, ag in ((2, -3, -1), (3, -8, 0), (5, 6, -2)):
        assert rankin_selberg_matches_dirichlet(af, ag, 4, 2, p)


def test_nonvanishing_at_fixture_primes():
    for p, af, ag in ((2, -3, -1), (3, -8, 0), (5, 6, -2)):
        std = standard_L_local(af, ag, 4, 2, 2, p)
        val = std.evaluate_inverse_at(float(p) ** -1.0)
        assert abs(val) > 1e-9


def test_lambda_values():
    assert lambda_N(1, 3, 1.0) == 1.0
    v = lambda_N(17, 2, 1.0)
    assert abs(v - 1.0 / ((1 - 17.0 ** -2) * (1 - 17.0 ** -1))) < 1e-12
    with pytest.raises(PoleError):
        lambda_N(17, 3, 1.0)
    with pytest.raises(ValueError, match="s must be a finite number"):
        lambda_N(1, 3, float("nan"))  # the empty product, too, needs a number s
    for level in (0, -34, 12):
        with pytest.raises(UsageError):
            lambda_N(level, 3, 1.0)
    for level, n in ((17, 0), (34, -3), (1, 0)):
        with pytest.raises(UsageError, match="degree n must be positive"):
            lambda_N(level, n, 1.0)


def test_lambda_nonessential_variant():
    full = lambda_N(17, 3, 2.0)
    q = 17.0 ** ((-2 * 2.0 - 1) / 2)
    repl = lambda_N(17, 3, 2.0, nonessential={17: (1, 2.0)})
    by_hand = 1.0 / ((1 + 2.0 * q + q * q) * (1 - 17.0 ** (-2.0 - 2 + 3)))
    assert abs(repl - by_hand) < 1e-12
    assert repl != full


def test_local_factor_printing():
    f = LocalFactor(2, [1, -5, 4])
    assert str(f) == "1 - 5*X + 4*X^2"


def test_even_weight_eisenstein_eigenvalue(eisenstein_600):
    # independent calibration of T(p): the lift of the constant pair is an
    # eigenform with eigenvalue (1 + p^{k-2})(1 + p^{k-1}) at weight k = 2
    for p in (2, 3):
        assert eigenvalue_extract(eisenstein_600, hecke_Tp(eisenstein_600, p)) == 2 * (1 + p)


# SHA-256 of the canonical JSON of the lifts themselves
PINNED_LIFTS = {"lift_950": "309bcebce6072f32", "eisenstein_600": "fc3f3ea504768f15"}


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_lifts_match_pinned_digests(name, request):
    canonical = dumps_canonical(expansion_to_obj(request.getfixturevalue(name)))
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == PINNED_LIFTS[name]


@pytest.mark.parametrize("name,p", sorted(PINNED_IMAGES))
def test_hecke_images_match_the_coset_sum(name, p, request):
    f = request.getfixturevalue({"w3": "lift_950", "w4": "lift_nu2_200"}[name])
    canonical = dumps_canonical(expansion_to_obj(hecke_Tp(f, p)))
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == PINNED_IMAGES[(name, p)]


@pytest.mark.parametrize("p", sorted(PINNED_EISENSTEIN_IMAGES))
def test_hecke_eisenstein_images_match_the_coset_sum(p, eisenstein_600):
    image = hecke_Tp(eisenstein_600, p)
    rows = [[a, b, c, str(v)] for (a, b, c), v in image.entries.items() if disc((a, b, c)) > 0]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == \
        PINNED_EISENSTEIN_IMAGES[p]


def test_hecke_keeps_the_constant_term(eisenstein_600):
    a0 = eisenstein_600.coefficient((0, 0, 0))
    assert a0 == Fraction(4, 9)
    images = {p: hecke_Tp(eisenstein_600, p) for p in (2, 3, 5, 7)}
    assert images[2].coefficient((0, 0, 0)) == Fraction(8, 3)
    assert images[3].coefficient((0, 0, 0)) == Fraction(32, 9)
    for p, image in images.items():
        # (1 + (p+1)·p^{k-2} + p^{2k-3})·a(0,0,0) at k = 2
        assert image.coefficient((0, 0, 0)) == 2 * (1 + p) * a0
        assert image.singular_bound == 0
        assert not is_cuspidal_up_to_bound(image)


def test_hecke_image_agrees_with_its_json_round_trip(eisenstein_600):
    # singular bound 0, with the one singular entry (0, 0, 0)
    image = hecke_Tp(eisenstein_600, 2)
    again = expansion_from_obj(json.loads(dumps_canonical(expansion_to_obj(image))))
    assert image.singular_bound == again.singular_bound == 0
    assert again.agrees_with(image) and image.agrees_with(again)
    assert again.entries == image.entries and again.coefficient((0, 0, 0)) != 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_hecke_equals_the_per_block_reference(p, k, eisenstein_600, lift_950, lift_nu2_200):
    # every block's transplants in one read and one scatter-add, against one read
    # and one add per block: the same text, byte for byte
    f = {2: eisenstein_600, 3: lift_950, 4: lift_nu2_200}[k]
    assert f.weight == k
    got, want = hecke_Tp(f, p), hecke_Tp_per_block(f, p)
    assert dumps_canonical(expansion_to_obj(got)) == dumps_canonical(expansion_to_obj(want))
    # the weight-3 lift has λ(7) = 0
    assert want.is_zero() == ((k, p) == (3, 7))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_grouped_coset_weights(p, k):
    middle = [((p, 0), (-j, 1)) for j in range(p)] + [((1, 0), (0, p))]
    expected = {((p, 0), (0, p)): 1, ((1, 0), (0, 1)): Fraction(p) ** (2 * k - 3)}
    expected.update({d: Fraction(p) ** (k - 2) for d in middle})
    assert _grouped_cosets(p, k) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_looks_up_p_plus_3_transplants_per_form(p, lift_950, monkeypatch):
    calls = []  # one entry per form read; `coefficient` reads through `coefficients`
    coefficients = FourierExpansionSiegel2.coefficients
    monkeypatch.setattr(FourierExpansionSiegel2, "coefficients",
                        lambda self, a, b, c: calls.extend(a) or coefficients(self, a, b, c))
    hecke_Tp(lift_950, p)
    # with (0, 0, 0); at p = 5 the per-coset sum made 4,150 lookups
    forms = len(reduced_forms_up_to(lift_950.bound // (p * p))) + 1
    assert 0 < len(calls) <= (p + 3) * forms


def test_hecke_rejects_a_coset_with_a_nontrivial_character(lift_950, monkeypatch):
    cosets = siegelhecke.hecke_cosets
    bad = HeckeCosetRep(((2, 0), (0, 2)), ((1, 0), (0, 0)), ((1, 0), (0, 1)))
    monkeypatch.setattr(siegelhecke, "hecke_cosets", lambda p: cosets(p) + [bad])
    with pytest.raises(AssertionError, match="nontrivial character"):
        hecke_Tp(lift_950, 2)
