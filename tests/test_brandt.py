import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest

from quatlift import brandt
from quatlift import fixture as fx
from quatlift import harmonic, linalg, quatcore, verify
from quatlift.brandt import (AutomorphicForm, FormSpace, atkin_lehner, brandt_matrix,
                             brandt_series, constant_form, eigenforms, essential_part,
                             inner_product, orthogonal_complement)
from quatlift.harmonic import integral_tau_matrix, tau_group, tau_matrix_stack
from quatlift.polyfactor import factor_rational
from quatlift.quatcore import (ClassSet, UsageError, class_set, is_ramified,
                               short_vectors, short_vectors_upto, superorders)
from quatlift.yoshida import yoshida1
import split_reference
from helpers import level34_order
from poly_reference import tau_matrix_sum


def test_row_sums(class_set_17, space0):
    for p in (2, 3, 5):
        sums = brandt_matrix(class_set_17, 0, p, space0).row_sums()
        assert all(s == p + 1 for s in sums)


def test_row_sums_are_refused_above_degree_zero(class_set_17, space1):
    with pytest.raises(UsageError):
        brandt_matrix(class_set_17, 1, 2, space1).row_sums()


def test_adding_forms_of_different_shape_is_refused():
    # ν = 0 on two classes and ν = 1 on one: zip would pair them up silently
    scalar = brandt.AutomorphicForm(0, [(1,), (1,)])
    with pytest.raises(UsageError):
        scalar.add(brandt.AutomorphicForm(1, [(1, 0, 0)]))
    with pytest.raises(UsageError):
        scalar.add(brandt.AutomorphicForm(0, [(1,)]))


@pytest.mark.parametrize("nu,values", [(1, [(1, 0), (0, 1)]), (0, [(1,), (1, 2)]),
                                       (2, [(0,) * 3, (0,) * 3]), (-1, [])])
def test_a_form_needs_2nu_plus_1_coordinates_per_class(nu, values):
    with pytest.raises(UsageError, match="2ν \\+ 1|negative harmonic degree -1"):
        AutomorphicForm(nu, values)


def test_a_misshapen_form_is_refused_before_it_reaches_a_lift(class_set_17):
    # refused with a usage error at construction, not by numpy's matmul inside the lift
    with pytest.raises(UsageError, match="2ν \\+ 1 = 3"):
        yoshida1(class_set_17, AutomorphicForm(1, [(1, 0), (0, 1)]), fx.phi1(), 10)


def test_constant_form_eigenvalue(class_set_17, space0):
    one = constant_form(class_set_17)
    for p in (2, 3, 5, 7):
        img = brandt_matrix(class_set_17, 0, p, space0).apply(one)
        assert img.values == one.scale(p + 1).values


def test_bad_prime_rejected(class_set_17, space0):
    with pytest.raises(UsageError, match="17 divides the level"):
        brandt_matrix(class_set_17, 0, 17, space0)
    for p in (0, -3, 1, 4):
        with pytest.raises(UsageError, match=f"{p} is not a prime"):
            brandt_matrix(class_set_17, 0, p, space0)
        with pytest.raises(UsageError, match=f"{p} is not a prime"):
            eigenforms(class_set_17, 0, [2, p], space0)


def test_phi2_eigenvalues(class_set_17, space0):
    phi2 = fx.phi2()
    expected = {2: -1, 3: 0, 5: -2}
    for p, lam in expected.items():
        img = brandt_matrix(class_set_17, 0, p, space0).apply(phi2)
        assert img.values == phi2.scale(lam).values


def _per_vector_sum(lattice, vecs, u):
    total = linalg.zeros(u.dim, u.dim)
    for v in vecs:
        m = integral_tau_matrix(lattice.element_from(v), u)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, m)]
    return total


@pytest.mark.parametrize("nu,p", [(0, 3), (1, 2), (2, 5)])
def test_brandt_blocks_are_sums_of_tau_matrices(class_set_17, nu, p):
    cs = class_set_17
    space = FormSpace(cs, nu)
    bm = brandt_matrix(cs, nu, p, space)
    for i in range(cs.h):
        for j in range(cs.h):
            cross = cs.cross_lattice(j, i)
            total = _per_vector_sum(cross, short_vectors(cross.normalized_gram(), p), space.space)
            scale = Fraction(1, cs.unit_counts[j]) / cross.norm_scale ** nu
            assert bm.blocks[i][j] == linalg.frac_mat(total) * scale


def test_tau_matrix_sum_large_entries_use_python_ints(class_set_17):
    # scaling the lattice by 2^20 scales each τ-matrix by 2^(40ν): at ν = 2
    # the sums pass 2^63, so only the object-dtype path can return them
    nu, p, k = 2, 3, 2 ** 20
    u = FormSpace(class_set_17, nu).space
    cross = class_set_17.cross_lattice(0, 1)
    vecs = short_vectors_upto(cross.normalized_gram(), p)[p]
    big = tau_matrix_sum(cross.scale(k), vecs, u)
    assert big == tau_matrix_sum(cross, vecs, u) * k ** (2 * nu)
    assert max(abs(x) for row in big for x in row) > 2 ** 63
    assert big == _per_vector_sum(cross.scale(k), vecs, u)


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_tau_matrix_stack_equals_its_one_group_calls(class_set_17, cs34, nu):
    # one stack: half-shell buckets of cross lattices of both levels
    # (denominators 1 and 2), empty groups, units with fractional coordinates
    # (denominators 2 and 4) and one lattice scaled by 2^20, which at ν ≥ 2
    # pushes the whole stack past 2^63 and onto Python ints
    k = 2 ** 20
    space = FormSpace(class_set_17, nu).space
    lattices = [class_set_17.cross_lattice(0, 0), class_set_17.cross_lattice(1, 0),
                cs34.cross_lattice(0, 0), cs34.cross_lattice(2, 1)]
    assert {linalg.integer_form(lat.basis)[1] for lat in lattices} == {1, 2}
    empty = np.zeros((0, 4), dtype=np.int64)
    buckets = [(lat, short_vectors_upto(lat.normalized_gram(), 6)[m])
               for lat in lattices for m in (4, 6)]
    scaled = class_set_17.cross_lattice(0, 1)
    scaled_vecs = short_vectors_upto(scaled.normalized_gram(), 6)[6]
    buckets.insert(2, (scaled.scale(k), scaled_vecs))
    buckets.insert(5, (lattices[0], empty))
    units = [u for order in (fx.order_r2(), class_set_17.left_orders[1]) for u in order.units
             if any(x.denominator > 1 for x in u.coords)]
    assert {tau_group(u)[2] for u in units} == {2, 4}
    groups = [(vecs, *linalg.integer_form(lat.basis)) for lat, vecs in buckets]
    groups += [tau_group(u) for u in units] + [(empty, *linalg.integer_form(lattices[2].basis))]
    stacked = tau_matrix_stack(groups, space)
    assert len(stacked) == len(groups)
    for (lat, vecs), got in zip(buckets, stacked):
        assert got == tau_matrix_sum(lat, vecs, space)
        assert got == _per_vector_sum(lat, vecs, space)
        assert (got == linalg.zeros(space.dim, space.dim)) == (len(vecs) == 0)
    for u, got in zip(units, stacked[len(buckets):]):
        assert got == integral_tau_matrix(u, space)
    assert stacked[-1] == linalg.zeros(space.dim, space.dim)
    big = stacked[2]
    assert big == tau_matrix_sum(scaled, scaled_vecs, space) * k ** (2 * nu)
    if nu >= 2:
        assert max(abs(x) for row in big for x in row) > 2 ** 63
    assert tau_matrix_stack([], space) == []
    assert tau_matrix_stack([(empty, *linalg.integer_form(scaled.basis))] * 2, space) == [
        linalg.zeros(space.dim, space.dim)] * 2


def test_inner_products(class_set_17):
    phi2 = fx.phi2()
    one = constant_form(class_set_17)
    assert inner_product(phi2, one, class_set_17) == 0
    assert inner_product(phi2, phi2, class_set_17) == 2
    assert inner_product(one, one, class_set_17) == Fraction(2, 3)


def test_inner_product_shape_mismatch(class_set_17):
    phi2 = fx.phi2()
    with pytest.raises(UsageError):
        inner_product(phi2, fx.phi1(), class_set_17)


def test_self_adjointness(class_set_17, space1):
    basis = space1.basis_forms()
    for p in (2, 3):
        bm = brandt_matrix(class_set_17, 1, p, space1)
        for phi in basis:
            for psi in basis:
                assert inner_product(bm.apply(phi), psi, class_set_17) == \
                    inner_product(phi, bm.apply(psi), class_set_17)


def test_brandt_matrices_commute(class_set_17, space1):
    ops = {p: space1.matrix_of(brandt_matrix(class_set_17, 1, p, space1))
           for p in (2, 3, 5)}
    for p, q in itertools.combinations(ops, 2):
        assert ops[p] @ ops[q] == ops[q] @ ops[p]


def test_brandt_commutes_with_involution(class_set_17, space1):
    al = space1.matrix_of(atkin_lehner(class_set_17, 1, 17))
    assert al @ al == linalg.identity(space1.dim)
    for p in (2, 3):
        bp = space1.matrix_of(brandt_matrix(class_set_17, 1, p, space1))
        assert al @ bp == bp @ al


def test_atkin_lehner_involution(class_set_17):
    w0 = atkin_lehner(class_set_17, 0, 17)
    phi2 = fx.phi2()
    assert w0.apply(phi2).values == phi2.values  # eigenvalue +1
    w1 = atkin_lehner(class_set_17, 1, 17)
    phi1 = fx.phi1()
    assert w1.apply(phi1).values == phi1.values
    assert w1.apply(w1.apply(phi1)).values == phi1.values
    one = constant_form(class_set_17)
    assert w0.apply(one).values == one.values
    assert atkin_lehner(class_set_17, 1, 17) is w1  # built once per (class set, q, ν)


def test_atkin_lehner_bad_prime(class_set_17):
    with pytest.raises(UsageError):
        atkin_lehner(class_set_17, 0, 5)


@pytest.mark.parametrize("q", [0, 1, 4])
def test_a_q_that_is_not_a_prime_of_the_level_is_refused(class_set_17, cs34, q):
    for cs in (class_set_17, cs34):
        with pytest.raises(UsageError, match=f"{q} is not a prime"):
            atkin_lehner(cs, 0, q)
        with pytest.raises(UsageError, match=f"{q} is not a prime"):
            essential_part([constant_form(cs)], cs, q)


def test_transport_outside_the_unit_coset_is_rejected(class_set_17, monkeypatch):
    # γ·(1 + i) lies outside the coset γ·(units of the left order), and
    # conjugation by it moves the invariant vectors of weight ν = 1
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    found = brandt.transporters
    stray = cs.order.algebra.unit() + cs.order.algebra.basis_element(1)

    def with_stray(lat, target):
        gammas = list(found(lat, target))  # empty when lat and target are not equivalent
        return gammas + [gammas[0] * stray] if gammas else gammas

    monkeypatch.setattr(brandt, "transporters", with_stray)
    with pytest.raises(ValueError, match="transport depends on the realizing element"):
        atkin_lehner(cs, 1, 17)


def _al_class_sets(class_set_17, cs34):
    """The level-17 class set and the level-34 ones from the seeds 3 and 5, fresh."""
    sets = [class_set_17, cs34, class_set(level34_order(), 5)]
    return [ClassSet(cs.order, cs.ideals) for cs in sets]


def _level_primes(cs):
    return sorted(set(quatcore._prime_factors(cs.order.level)))


def test_partner_route_is_q_times_the_inverse(class_set_17, cs34):
    # P² = q·O: from I_i·P = γ·I_j follows I_j·P = (q·γ⁻¹)·I_i, γ for γ
    routed = 0
    for cs in _al_class_sets(class_set_17, cs34):
        for q in _level_primes(cs):
            tsp = quatcore.two_sided_ideal(cs.order, q)
            moved = [ideal.product(tsp) for ideal in cs.ideals]
            targets = list(enumerate(cs.ideals))
            for i, (j, gammas) in enumerate(brandt._route(lat, targets) for lat in moved):
                assert {g.inverse() * q for g in gammas} == set(
                    quatcore.transporters(moved[j], cs.ideals[i]))
                routed += 1
    assert routed == 18


def test_involution_route_matches_the_full_search(class_set_17, cs34, monkeypatch):
    calls = []
    found = brandt.transporters
    monkeypatch.setattr(brandt, "transporters",
                        lambda lat, target: calls.append(1) or found(lat, target))
    for cs in _al_class_sets(class_set_17, cs34):
        for q in _level_primes(cs):
            atkin_lehner(cs, 0, q)
            searched = len(calls)
            tsp = quatcore.two_sided_ideal(cs.order, q)
            full = [brandt._route(ideal.product(tsp), list(enumerate(cs.ideals)))
                    for ideal in cs.ideals]
            # the full search tries claimed targets, and routes the partners too
            assert searched < len(calls) - searched
            calls.clear()
            assert [(j, set(gammas)) for j, gammas in cs.al_routes[q]] == [
                (j, set(gammas)) for j, gammas in full]


def _dim(part, space):
    return space.dim if part.basis is None else len(part.basis)


def test_involution_split_matches_the_charpoly_split(cs34):
    factor = brandt._charpoly_factorer()
    for nu in range(4):
        space = FormSpace(cs34, nu)
        parts = [brandt._Part(None, {q: space.matrix_of(atkin_lehner(cs34, nu, q))
                                     for q in (2, 17)})]
        for q in (2, 17):
            split = [sub for part in parts for sub in brandt._split(part, q,
                                                                     brandt._involution_factors)]
            pairs = [sub for part in parts for sub in brandt._split(part, q, factor)]
            assert split == pairs
            # each part lies in ker(w − 1) or ker(w + 1)
            assert {sub.found[q] for sub in pairs} <= {(1, -1), (1, 1)}
            parts = split
        assert sum(_dim(part, space) for part in parts) == space.dim
        assert all(not part.ops and part.simple is None for part in parts)


def test_involution_split_is_the_two_eigenspaces():
    def split(part):
        return brandt._split(part, 17, brandt._involution_factors)

    op = linalg.frac_mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])  # swaps x and y, negates z
    # ker(w − 1) first, then ker(w + 1), each carrying w's other restrictions
    t = linalg.frac_mat([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    plus, minus = split(brandt._Part(None, {17: op, 3: t}))
    assert plus.basis == linalg.frac_mat([[1, 1, 0]]) and plus.found == {17: (1, -1)}
    assert minus.basis == linalg.frac_mat([[-1, 1, 0], [0, 0, 1]]) and minus.found == {17: (1, 1)}
    assert plus.ops == {3: linalg.frac_mat([[2]])}
    assert minus.ops == {3: linalg.frac_mat([[2, 0], [0, 5]])}
    # a line reads its sign off its 1×1 restriction
    line = linalg.frac_mat([[0, 0, 2]])
    assert split(brandt._Part(line, {17: linalg.frac_mat([[-1]])})) == [
        brandt._Part(line, {}, {17: (1, 1)})]
    # T = diag(1, 2, 2) splits off the line of (1, 0, 0), which w moves to (0, 1, 0):
    # carrying w's restriction down to it fails
    t = linalg.frac_mat([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match="does not preserve"):
        brandt._split(brandt._Part(None, {3: t, 17: op}), 3, brandt._charpoly_factorer())
    # (x, y) ↦ (y, 4x) preserves the plane, but its square is 4, not 1
    with pytest.raises(ValueError, match="as ±1"):
        split(brandt._Part(None, {17: linalg.frac_mat([[0, 1], [4, 0]])}))


def test_a_simple_part_takes_each_later_factor_without_factoring():
    calls = []
    factor = brandt._charpoly_factorer()

    def counted(s):
        calls.append(s)
        return factor(s)

    # charpoly x⁴ − 2, irreducible: the whole space is kept and is simple; T² commutes
    # with T, and its charpoly (x² − 2)² has the one square-free part x² − 2
    t = linalg.frac_mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0]])
    whole, = brandt._split(brandt._Part(None, {2: t, 3: t @ t}), 2, counted)
    assert whole == brandt._Part(None, {3: t @ t}, {2: (1, 0, 0, 0, -2)}, t)
    done, = brandt._split(whole, 3, counted)
    assert done.found == {2: (1, 0, 0, 0, -2), 3: (1, 0, -2)} and done.simple == t
    assert len(calls) == 1
    # an operator that does not commute with the one that makes the part simple
    a = linalg.frac_mat([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="does not commute"):
        brandt._split(brandt._Part(None, {3: _diagonal_blocks([[1]], [[2]])}, {}, a), 3, counted)
    # a commuting one whose charpoly has two square-free parts (x − 1)²·(x − 2):
    # here the part is not simple, though it is marked so
    d = _diagonal_blocks([[1]], [[1]], [[2]])
    with pytest.raises(ValueError, match="power of one"):
        brandt._split(brandt._Part(None, {3: d}, {}, d), 3, counted)
    assert len(calls) == 1


def test_form_spaces_share_one_frame(class_set_17):
    assert FormSpace(class_set_17, 0).space.frame is FormSpace(class_set_17, 2).space.frame


def test_one_form_space_per_class_set_and_degree(class_set_17):
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    space = FormSpace(cs, 1)
    assert FormSpace(cs, 1) is space and cs.form_spaces == {1: space}
    assert FormSpace(cs, 2) is not space
    other = FormSpace(ClassSet(cs.order, cs.ideals), 1)
    assert other is not space and other.class_bases == space.class_bases


@pytest.mark.parametrize("function", [inner_product, orthogonal_complement, essential_part,
                                      atkin_lehner, yoshida1, brandt._brandt_blocks])
def test_space_argument_is_gone(function):
    # the space is FormSpace(cs, ν), worked out from the class set and the degree
    assert not any("space" in name for name in inspect.signature(function).parameters)


def test_ramanujan_bound(class_set_17, space0, space1):
    for nu, phi in ((0, fx.phi2()), (1, fx.phi1())):
        space = space0 if nu == 0 else space1
        k = 2 + 2 * nu
        for p in (2, 3, 5):
            img = brandt_matrix(class_set_17, nu, p, space).apply(phi)
            i, j = next((i, j) for i, v in enumerate(phi.values)
                        for j, x in enumerate(v) if x)
            lam = img.values[i][j] / phi.values[i][j]
            assert abs(float(lam)) <= 2 * p ** ((k - 1) / 2) + 1e-9


def test_eigenforms_nu0(class_set_17, space0):
    comps = eigenforms(class_set_17, 0, [2, 3, 5], space0)
    assert len(comps) == 2 and all(c.dim == 1 for c in comps)
    by_eig = {tuple(sorted(c.hecke.items())): c for c in comps}
    const_key = ((2, 3), (3, 4), (5, 6))
    cusp_key = ((2, -1), (3, 0), (5, -2))
    assert const_key in by_eig and cusp_key in by_eig
    cusp = by_eig[cusp_key]
    phi2 = fx.phi2()
    ratio = cusp.forms[0].values[0][0] / phi2.values[0][0]
    assert cusp.forms[0].values == phi2.scale(ratio).values
    assert cusp.involutions == {17: 1}


def test_eigenforms_nu1(class_set_17, space1):
    comps = eigenforms(class_set_17, 1, [2, 3, 5], space1)
    dims = sorted(c.dim for c in comps)
    assert dims == [1, 3]
    rational = next(c for c in comps if c.dim == 1)
    assert rational.hecke == {2: -3, 3: -8, 5: 6}
    assert rational.involutions == {17: 1}
    phi1 = fx.phi1()
    i, j = 0, 2
    ratio = rational.forms[0].values[i][j] / phi1.values[i][j]
    assert rational.forms[0].values == phi1.scale(ratio).values
    block = next(c for c in comps if c.dim == 3)
    assert block.involutions == {17: -1}
    for p in (2, 3, 5):
        (coeffs, mult), = block.charpolys[p]
        assert len(coeffs) == 4 and mult == 1  # irreducible cubic
    # constants appear only at nu = 0: no (p+1)-eigenvalue form here
    assert all(c.hecke.get(2) != 3 for c in comps)


def test_eigenforms_reject_level_prime(class_set_17, space0):
    with pytest.raises(UsageError):
        eigenforms(class_set_17, 0, [17], space0)


def test_essential_part_fixture_branches(class_set_17, space0):
    basis = space0.basis_forms()
    full = essential_part(basis, class_set_17, 17)
    assert len(full) == len(basis)
    assert essential_part([], class_set_17, 17) == []
    # complement of the constants is spanned by phi2
    comp = orthogonal_complement([constant_form(class_set_17)], basis, class_set_17)
    assert len(comp) == 1
    phi2 = fx.phi2()
    ratio = comp[0].values[0][0] / phi2.values[0][0]
    assert comp[0].values == phi2.scale(ratio).values


def test_level34_class_set(cs34):
    assert cs34.h == 4
    assert cs34.mass == 2
    assert not is_ramified(cs34.order, 2)
    assert is_ramified(cs34.order, 17)
    assert len(superorders(cs34.order, 2)) == 2


def test_level34_class_set_seed_independent(cs34):
    other = class_set(level34_order(), 5)
    assert other.h == cs34.h
    assert sorted(other.unit_counts) == sorted(cs34.unit_counts)


def test_level34_brandt_enumerates_each_cross_lattice_once(cs34, monkeypatch):
    p = 5
    cs = ClassSet(cs34.order, cs34.ideals)
    spaces = [FormSpace(cs, nu) for nu in range(3)]
    calls = []
    enumerate_upto = quatcore.short_vectors_upto
    monkeypatch.setattr(quatcore, "short_vectors_upto",
                        lambda g, m: calls.append(m) or enumerate_upto(g, m))
    got = [brandt_matrix(cs, nu, p, spaces[nu]).blocks for nu in range(3)]
    # one enumeration per cross lattice (j, i) with i ≤ j, shared by every ν: the blocks
    # below the diagonal come from those above by adjointness, so h² became h(h+1)/2.
    # Each runs to its `_small_norm`, 13 for every level-34 cross lattice, not to p
    assert calls == [13] * (cs.h * (cs.h + 1) // 2)
    assert not cs.cross_shells(1, 0, p).vecs.flags.writeable
    assert len(calls) == cs.h * (cs.h + 1) // 2
    for nu in range(3):
        fresh = ClassSet(cs34.order, cs34.ideals)
        assert got[nu] == brandt_matrix(fresh, nu, p, FormSpace(fresh, nu)).blocks


def test_cross_shells_are_read_only(cs34):
    # the cached half shells serve every later Brandt matrix: a caller that
    # reversed the norms in place would change the blocks they give
    shells = cs34.cross_shells(0, 0, 5)
    for arr in (shells.vecs, shells.norms, shells.starts):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = arr[::-1].copy()


PRIME_BY_PRIME = {17: ((2, 3, 5, 7, 11), 2), 34: ((3, 5, 7, 11, 13), 1)}


@pytest.mark.parametrize("level", sorted(PRIME_BY_PRIME))
def test_brandt_matrices_asked_prime_by_prime_read_the_floored_shells(level, monkeypatch):
    # in the order the eichler benchmark asks: ν ≤ 2, the good primes ascending.  Each cross
    # lattice is enumerated to its `_small_norm` (9 at level 17, 13 at level 34) or
    # to p, the larger, on the first miss: level 34 reads one enumeration per summed
    # cross lattice for every prime, level 17 a second one for p = 11
    primes, per_lattice = PRIME_BY_PRIME[level]
    cs = _fresh(level)
    want = {}
    for p in primes:
        fresh = ClassSet(cs.order, cs.ideals)
        for nu in range(3):
            want[p, nu] = brandt_matrix(fresh, nu, p, FormSpace(fresh, nu)).blocks
    calls, small = [], []
    enumerate_upto, small_half_shells = quatcore.short_vectors_upto, quatcore._small_half_shells

    def counted(g, m):
        small.append(False)
        out = enumerate_upto(g, m)
        calls.append((m, quatcore._small_norm(g), small.pop()))
        return out

    def counted_small(*args):
        small[-1] = True
        return small_half_shells(*args)

    monkeypatch.setattr(quatcore, "short_vectors_upto", counted)
    monkeypatch.setattr(quatcore, "_small_half_shells", counted_small)
    for nu in range(3):
        space = FormSpace(cs, nu)
        for p in primes:
            assert brandt_matrix(cs, nu, p, space).blocks == want[p, nu], (p, nu)
    assert len(calls) == per_lattice * cs.h * (cs.h + 1) // 2
    floored = [python_path for m, floor, python_path in calls if m == floor]
    assert len(floored) == cs.h * (cs.h + 1) // 2 and all(floored)
    assert sorted({m for m, _, _ in calls}) == ([9, 11] if level == 17 else [13])


def _brandt_blocks_summed(cs, nu, p, space):
    """Every block of B^{(ν)}(p) by its own τ-sum over its own enumeration: the
    reference for the blocks below the diagonal, which brandt_matrix derives
    from those above it."""
    blocks = []
    for i in range(cs.h):
        row = []
        for j in range(cs.h):
            cross = cs.cross_lattice(j, i)
            scale = Fraction(2, cs.unit_counts[j]) / cross.norm_scale ** nu
            vecs = short_vectors_upto(cross.normalized_gram(), p).get(
                p, np.zeros((0, 4), dtype=np.int64))
            row.append(tau_matrix_sum(cross, vecs, space.space) * scale)
        blocks.append(row)
    return blocks


# (class set, the largest ν, the primes); only level 17 has classes with unequal
# unit counts (2 and 6), so only it sees the ratio e_j/e_i of the derived blocks
BRANDT_CASES = {
    "level 17": (fx.fixture_class_set, 4, (2, 3, 5, 7, 11)),
    "level 34": (lambda: class_set(level34_order(), 3), 3, (3, 5, 7, 11, 13)),
    "level-17 superorder of level 34": (
        lambda: class_set(superorders(level34_order(), 2)[1], 3), 2, (3, 5)),
}


@pytest.mark.parametrize("case", sorted(BRANDT_CASES))
def test_brandt_blocks_equal_their_tau_sums(case):
    build, top, primes = BRANDT_CASES[case]
    cs = build()
    for nu in range(top + 1):
        space = FormSpace(cs, nu)
        for p in primes:
            assert brandt_matrix(cs, nu, p, space).blocks == \
                _brandt_blocks_summed(cs, nu, p, space), (nu, p)


@pytest.mark.parametrize("level", [17, 34])
def test_brandt_series_enumerates_each_cross_lattice_once_for_every_degree(level,
                                                                          monkeypatch):
    cs = _fresh(level)
    calls = []
    enumerate_upto = quatcore.short_vectors_upto
    monkeypatch.setattr(quatcore, "short_vectors_upto",
                        lambda g, m: calls.append(m) or enumerate_upto(g, m))
    for nu in range(4):
        brandt_series(cs, nu, 20)
    # the half shells of each summed cross lattice (j, i), i ≤ j, serve every ν
    assert calls == [20] * (cs.h * (cs.h + 1) // 2)
    # new blocks at a new degree, on the shells already enumerated past 7
    assert (7, 4) not in cs.brandt_blocks
    brandt_matrix(cs, 4, 7)
    assert len(calls) == cs.h * (cs.h + 1) // 2


def _series_summed(cs, nu, bound):
    """B^{(ν)}(m) for m ≤ bound with every block by its own τ-sum over its own
    enumeration: the reference for the blocks below the diagonal, which
    brandt_series derives from those above it at every m."""
    harm = FormSpace(cs, nu).space
    series = [[[None] * cs.h for _ in range(cs.h)] for _ in range(bound)]
    for i, j in itertools.product(range(cs.h), repeat=2):
        cross = cs.cross_lattice(j, i)
        scale = Fraction(2, cs.unit_counts[j]) / cross.norm_scale ** nu
        shells = short_vectors_upto(cross.normalized_gram(), bound)
        for m in range(1, bound + 1):
            vecs = shells.get(m, np.zeros((0, 4), dtype=np.int64))
            series[m - 1][i][j] = tau_matrix_sum(cross, vecs, harm) * scale
    return series


SERIES_LEVELS = {17: BRANDT_CASES["level 17"][0], 34: BRANDT_CASES["level 34"][0]}


def _fresh(level):
    """The level's class set, fresh, so that no Brandt block is cached yet."""
    cs = SERIES_LEVELS[level]()
    return ClassSet(cs.order, cs.ideals)


@pytest.mark.parametrize("level", sorted(SERIES_LEVELS))
def test_brandt_series_blocks_equal_their_tau_sums(level):
    cs, bound = _fresh(level), 60
    for nu in range(4):
        series = brandt_series(cs, nu, bound)
        assert [b.blocks for b in series] == _series_summed(cs, nu, bound), nu
        assert [b.p for b in series] == list(range(1, bound + 1))
        # brandt_matrix, on its own norm-p buckets, is the series at p
        single = _fresh(level)
        for p in (2, 3, 5, 7, 11, 13):
            if level % p:
                assert brandt_matrix(single, nu, p).blocks == series[p - 1].blocks, (nu, p)


def test_brandt_series_refuses_a_negative_bound(class_set_17):
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    for bound in (-1, -3):
        with pytest.raises(ValueError, match=f"negative bound {bound}"):
            brandt_series(cs, 0, bound)
    assert brandt_series(cs, 0, 0) == [] and not cs.brandt_blocks


@pytest.mark.parametrize("level", sorted(SERIES_LEVELS))
def test_brandt_series_certificate(level):
    # B(1) = 1, B(m)·B(p) = B(mp) + p^(2ν+1)·B(m/p) for p ∤ N, B(17) = 17^ν·w₁₇;
    # at level 34 nothing is asserted at 2, where B(2) is not ±2^ν·w₂
    cs = _fresh(level)
    for nu in range(4):
        assert verify.brandt_series_failures(cs, nu, 60) == [], nu


@pytest.mark.parametrize("level", sorted(SERIES_LEVELS))
def test_brandt_series_certificate_rejects_sums_over_the_other_cross_lattice(level):
    # τ-sums over cross(i, j) in place of cross(j, i): the ν = 0 counts agree
    # (x ↦ x̄ swaps the two lattices); at ν ≥ 1 some B(m) leaves the invariant
    # forms (level 17) or breaks the Hecke relations (level 34)
    cs = _fresh(level)
    cross = cs.cross_lattice
    cs.cross_lattice = lambda i, j: cross(j, i)
    assert verify.brandt_series_failures(cs, 0, 30) == []
    for nu in (1, 2):
        try:
            assert verify.brandt_series_failures(cs, nu, 30), nu
        except ValueError as exc:
            assert "not invariant" in str(exc)


@pytest.mark.parametrize("level", sorted(SERIES_LEVELS))
def test_brandt_series_certificate_rejects_a_negated_involution_block(level, monkeypatch):
    def negated(cs, nu, q):
        w = atkin_lehner(cs, nu, q)
        blocks = [list(row) for row in w.blocks]
        i, j = next((i, j) for i, row in enumerate(blocks) for j, b in enumerate(row)
                    if b.num.any())
        blocks[i][j] = -blocks[i][j]
        return brandt.BrandtMatrix(q, nu, blocks)

    monkeypatch.setattr(verify, "atkin_lehner", negated)
    cs = _fresh(level)
    for nu in (0, 1):
        assert verify.brandt_series_failures(cs, nu, 20) == [f"ν={nu}: B(17) = 17^ν·w_17"]


def test_level34_essential_part(cs34):
    space = FormSpace(cs34, 0)
    basis = space.basis_forms()
    ess = essential_part(basis, cs34, 2)
    assert len(ess) == 1  # one weight-2 newform of level 34
    form = ess[0]
    w2 = atkin_lehner(cs34, 0, 2)
    assert w2.apply(w2.apply(form)).values == form.values
    b3 = brandt_matrix(cs34, 0, 3, space).apply(form)
    lead = next(i for i, (x,) in enumerate(form.values) if x)
    lam = b3.values[lead][0] / form.values[lead][0]
    assert b3.values == form.scale(lam).values
    assert lam == -2  # Hecke eigenvalue at 3 of the level-34 newform
    ess17 = essential_part(basis, cs34, 17)
    assert len(ess17) == len(basis)


def test_essential_part_pullbacks_are_built_once(cs34, monkeypatch):
    cs = ClassSet(cs34.order, cs34.ideals)
    space = FormSpace(cs, 0)
    basis = space.basis_forms()
    calls, built = [], []

    def counted(order, p_seed):
        calls.append(p_seed)
        return class_set(order, p_seed)

    invariant_basis = FormSpace._invariant_basis
    monkeypatch.setattr(brandt, "class_set", counted)
    monkeypatch.setattr(FormSpace, "_invariant_basis",
                        lambda self, order: built.append(self.cs) or invariant_basis(self, order))
    first = essential_part(basis, cs, 2)
    assert len(calls) == len(superorders(cs.order, 2)) == 2
    # one basis per class of each superorder: its space, built for the first call
    sups = [sup_cs for sup_cs, _ in cs.superorder_routes.values()]
    assert len(built) == sum(sup_cs.h for sup_cs in sups)
    second = essential_part(basis, cs, 2)
    assert len(built) == sum(sup_cs.h for sup_cs in sups)  # and kept for the second
    space1 = FormSpace(cs, 1)
    assert len(essential_part(space1.basis_forms(), cs, 2)) == 4
    assert len(calls) == 2  # the superorders' class sets are searched once, for every ν
    assert [f.values for f in second] == [f.values for f in first]


def _per_form_matrix(space, op):
    """The flat matrix the slow way: apply the blocks to each basis form, solve per class."""
    mat = []
    for form in space.basis_forms():
        row = []
        for cb, value in zip(space.class_bases, op.apply(form).values):
            if cb:
                row.extend(linalg.solve(linalg.transpose(cb), list(value)))
        mat.append(row)
    return mat


# the Brandt primes of the eichler benchmark workload at each level
@pytest.mark.parametrize("level,nu", [(17, 0), (17, 1), (17, 2), (34, 0), (34, 1), (34, 2)])
def test_block_matrix_equals_per_form_solve(level, nu, class_set_17, cs34):
    cs, primes = {17: (class_set_17, (2, 3, 5, 7, 11)),
                  34: (cs34, (3, 5, 7, 11, 13))}[level]
    space = FormSpace(cs, nu)
    ops = [brandt_matrix(cs, nu, p, space) for p in primes]
    ops += [atkin_lehner(cs, nu, q) for q in quatcore._prime_factors(level)]
    for op in ops:
        assert space.matrix_of(op) == _per_form_matrix(space, op)


def _matrix_by_products(space, op):
    """CB_j·B_ij·R_i for every block, with no pass-through: `matrix_of` without its shortcuts."""
    return linalg.vstack([linalg.hstack([
        cb_j @ op.blocks[i][j] @ r_i if cb_i and cb_j else linalg.zeros(len(cb_j), len(cb_i))
        for i, (cb_i, r_i) in enumerate(zip(space.class_bases, space._right_inverses))])
        for j, cb_j in enumerate(space.class_bases)])


def _unflat_by_products(space, rows):
    """The forms of flat rows, each class block times its invariant basis."""
    per_class, pos = [], 0
    for cb in space.class_bases:
        per_class.append((linalg.Matrix(rows.num[:, pos:pos + len(cb)], rows.den) @ cb).tolist())
        pos += len(cb)
    return [AutomorphicForm(space.nu, [values[r] for values in per_class])
            for r in range(len(rows))]


# level 17 mixes classes whose units are ±1 alone with one that has 6 units;
# every class at level 34 has units ±1 alone
@pytest.mark.parametrize("level", [17, 34])
def test_whole_space_classes_pass_through_matrix_of_and_unflat(level, class_set_17, cs34):
    cs, primes = {17: (class_set_17, (2, 3, 5, 7, 11)), 34: (cs34, (3, 5, 7, 11, 13))}[level]
    for nu in range(4):
        space = FormSpace(cs, nu)
        eye = linalg.identity(space.space.dim)
        assert space._whole == [cb == eye for cb in space.class_bases]
        assert all(space._whole) if level == 34 or nu == 0 else (
            any(space._whole) and not all(space._whole))
        ops = [brandt_matrix(cs, nu, p) for p in primes]
        ops += [atkin_lehner(cs, nu, q) for q in sorted(set(quatcore._prime_factors(level)))]
        for op in ops:
            assert space.matrix_of(op) == _matrix_by_products(space, op)
        rows = linalg.vstack([linalg.identity(space.dim),
                              linalg.frac_mat([[Fraction(k + 1, 3) for k in range(space.dim)]])])
        assert space.unflat(rows) == _unflat_by_products(space, rows)


# other neighbour seeds give other class representatives, so the split sees other integers
@pytest.mark.parametrize("level,seed,top_nu", [(17, 2, 5), (17, 3, 5), (17, 5, 5),
                                               (34, 3, 3), (34, 5, 3)])
def test_eigenforms_match_the_split_by_restriction(level, seed, top_nu):
    order, primes = (fx.order_r1(), [2, 3, 5]) if level == 17 else (level34_order(), [3, 5, 7])
    cs = class_set(order, seed)
    for nu in range(top_nu + 1):
        got = eigenforms(cs, nu, primes)
        want = split_reference.eigenforms_by_restriction(cs, nu, primes)
        assert [(c.forms, c.hecke, c.involutions, c.charpolys) for c in got] == [
            (c.forms, c.hecke, c.involutions, c.charpolys) for c in want]
    # a prime asked for twice splits once: the reference's second split changes nothing
    again = eigenforms(cs, top_nu, primes + primes[:1])
    assert [(c.forms, c.hecke, c.charpolys) for c in again] == [
        (c.forms, c.hecke, c.charpolys) for c in got]


def test_block_matrix_rejects_a_non_invariant_image(class_set_17, space1):
    d = space1.space.dim
    # class 0 has units ±1 only, so every vector is invariant there, but not
    # at class 1: the identity block (1, 0) leaves the invariant forms
    assert len(space1.class_bases[0]) == d > len(space1.class_bases[1])
    op = brandt.BrandtMatrix(2, 1, [[linalg.zeros(d, d), linalg.zeros(d, d)],
                                    [linalg.identity(d), linalg.zeros(d, d)]])
    with pytest.raises(ValueError, match="not invariant"):
        space1.matrix_of(op)


def test_a_space_or_form_of_another_class_set_or_degree_is_refused(class_set_17):
    # a ν = 0 space for ν = 1 would build and cache 1×1 blocks under (p, 1)
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    other = ClassSet(class_set_17.order, class_set_17.ideals)
    three = AutomorphicForm(0, [(Fraction(1),)] * 3)  # the fixture has 2 classes
    for space in (FormSpace(cs, 0), FormSpace(other, 1)):
        with pytest.raises(UsageError):
            brandt_matrix(cs, 1, 2, space)
        with pytest.raises(UsageError):
            eigenforms(cs, 1, [2], space)
    with pytest.raises(UsageError):
        inner_product(three, three, cs)
    assert not (cs.brandt_blocks or cs.al_blocks or cs.al_routes)
    assert brandt_matrix(cs, 1, 2).blocks == brandt_matrix(other, 1, 2, FormSpace(other, 1)).blocks


def test_form_spaces_enumerate_each_left_orders_units_once(class_set_17, monkeypatch):
    # fresh ideals, so that no left order has its units yet
    ideals = [quatcore.Lattice(i.algebra, i.basis, "ideal") for i in class_set_17.ideals]
    calls = []
    enumerate_shell = quatcore.short_vectors
    monkeypatch.setattr(quatcore, "short_vectors",
                        lambda g, m: calls.append(m) or enumerate_shell(g, m))
    cs = ClassSet(class_set_17.order, ideals)
    spaces = [FormSpace(cs, nu) for nu in range(3)]
    assert calls == [1] * cs.h  # the unit counts enumerate; the spaces read the same tuples
    for order, e in zip(cs.left_orders, cs.unit_counts):
        assert isinstance(order.units, tuple) and len(order.units) == e
        assert all(u.norm() == 1 and order.contains(u) for u in order.units)
    assert [s.class_bases for s in spaces] == \
        [FormSpace(class_set_17, nu).class_bases for nu in range(3)]


def test_brandt_blocks_are_built_once_per_prime_and_degree(class_set_17, monkeypatch):
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    space = FormSpace(cs, 1)
    calls, kernel_calls = [], []
    stack = brandt.tau_matrix_stack

    def counted(groups, harm):
        # the Brandt blocks are the groups of lattice buckets; the units' and
        # transporters' τ-matrices come as one-row groups over the identity
        kernel_calls.append(len(groups))
        calls.extend(g for g in groups if g[1] is not harmonic._IDENTITY)
        return stack(groups, harm)

    monkeypatch.setattr(brandt, "tau_matrix_stack", counted)
    first = brandt_matrix(cs, 1, 2, space)
    # a τ-sum per block on or above the diagonal; the others are derived by
    # adjointness, so h² sums became h(h+1)/2, all handed to one kernel call
    sums = cs.h * (cs.h + 1) // 2
    assert len(calls) == sums == 3 and kernel_calls == [sums]
    second = brandt_matrix(cs, 1, 2, space)
    eigenforms(cs, 1, [2], space)
    assert len(calls) == sums  # neither the second call nor eigenforms rebuilds T(2)
    assert second.blocks == first.blocks
    fresh = ClassSet(class_set_17.order, class_set_17.ideals)
    assert brandt_matrix(fresh, 1, 2, FormSpace(fresh, 1)).blocks == first.blocks
    # the series shares the cache, keyed (m, ν): it sums only B(1) and B(3) here,
    # in one kernel call, and a second call sums nothing
    before, before_kernel = len(calls), len(kernel_calls)
    series = brandt_series(cs, 1, 3)
    assert series[1] is first and len(calls) == before + 2 * sums
    assert kernel_calls[before_kernel:] == [2 * sums]
    assert brandt_series(cs, 1, 3) == series and len(calls) == before + 2 * sums
    assert len(kernel_calls) == before_kernel + 1


def test_eigenforms_rejects_an_involution_that_is_not_one(class_set_17, monkeypatch):
    # twice w_17 has the eigenspaces of w_17, on which it acts as ±2, not ±1
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    space = FormSpace(cs, 0)
    al = brandt.atkin_lehner

    def doubled(cs, nu, q):
        w = al(cs, nu, q)
        return brandt.BrandtMatrix(q, nu, [[b * 2 for b in row] for row in w.blocks])

    monkeypatch.setattr(brandt, "atkin_lehner", doubled)
    with pytest.raises(ValueError, match="as ±1"):
        eigenforms(cs, 0, [2], space)
    # with x − 2 as its one factor, the split keeps the whole space in
    # ker(w_17 − 2): the sign read off the split is 2, and eigenforms refuses it
    monkeypatch.setattr(brandt, "_involution_factors", lambda s: [((1, -2), 1)])
    with pytest.raises(ValueError, match="as ±1 on an eigenspace"):
        eigenforms(cs, 0, [2], space)


def _lines(basis):
    return [linalg.Matrix(basis.num[i:i + 1], basis.den) for i in range(len(basis))]


def test_split_checks_a_line_by_its_image():
    op = linalg.frac_mat([[1, 1], [0, 1]])  # row convention: (x, y) ↦ (x, x + y)
    # the line of (0, 1), the identity on its column 1, is carried down by its one image
    one = brandt._restrict_rows(op, linalg.frac_mat([[0, 1]]), [1])
    assert one == linalg.frac_mat([[1]])
    # the line's factor is x − λ, read off its 1×1 restriction
    line = linalg.frac_mat([[0, Fraction(-2, 3)]])
    assert brandt._split(brandt._Part(line, {2: one}), 2, brandt._charpoly_factorer()) == [
        brandt._Part(line, {}, {2: (1, -1)})]
    with pytest.raises(ValueError, match="does not preserve"):
        brandt._restrict_rows(op, linalg.frac_mat([[1, 0]]), [0])
    # a kernel row with a denominator: (3, 0, 1)·diag(2, 5, 2) = 2·(3, 0, 1)
    diag = _diagonal_blocks([[2]], [[5]], [[2]])
    assert brandt._restrict_rows(diag, linalg.frac_mat([[3, 0, 1]]), [2]) == \
        linalg.frac_mat([[2]])


def test_split_is_the_kernel_of_each_factor():
    factor = brandt._charpoly_factorer()
    # x² − 2 is irreducible, so the plane is one block, kept as it is and simple
    plane = linalg.frac_mat([[1, 0, 0], [0, 1, 0]])
    op = linalg.frac_mat([[0, 1, 0], [2, 0, 0], [0, 0, 5]])
    s = brandt._restrict_rows(op, plane, [0, 1])
    assert s == linalg.frac_mat([[0, 1], [2, 0]])
    assert brandt._split(brandt._Part(plane, {2: s}), 2, factor) == [
        brandt._Part(plane, {}, {2: (1, 0, -2)}, s)]
    # the whole space splits into the kernels of x² − 2 and x − 5, each the
    # identity on its free columns, with no product by the identity basis
    low, high = brandt._split(brandt._Part(None, {2: op}), 2, factor)
    assert (low.basis, low.found, low.simple) == (linalg.frac_mat([[0, 0, 1]]), {2: (1, -5)}, None)
    assert (high.basis, high.found, high.simple) == (plane, {2: (1, 0, -2)}, s)
    # a Jordan block: charpoly (x − 1)², and the kernel of op − 1 is only a line,
    # so the split would lose a dimension
    jordan = linalg.frac_mat([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not semisimple"):
        brandt._split(brandt._Part(None, {2: jordan}), 2, factor)


def test_eigenvalue_with_denominators_and_signs():
    # the reference split's line reader
    op = linalg.frac_mat([[Fraction(-3, 4), 0, 0], [0, 2, 0], [0, 0, Fraction(-3, 4)]])
    assert split_reference._eigenvalue(op, linalg.frac_mat([[0, Fraction(5, 7), 0]])) == 2
    assert split_reference._eigenvalue(op, linalg.frac_mat([[-1, 0, Fraction(1, 3)]])) == \
        Fraction(-3, 4)
    with pytest.raises(ValueError, match="does not preserve"):
        split_reference._eigenvalue(op, linalg.frac_mat([[1, 1, 0]]))


def test_component_line_that_is_not_an_eigenvector_is_rejected(class_set_17, monkeypatch):
    # w₁₇ is the identity at ν = 0, so splitting into the coordinate lines passes
    # the involution check; T(2) is not diagonal, so its check must fail
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    space = FormSpace(cs, 0)
    assert space.matrix_of(atkin_lehner(cs, 0, 17)) == linalg.identity(space.dim)
    def lines(part, key, factor):
        eye = linalg.identity(len(part.ops[key]))
        return [part.sub(row, [i], key, (1, -1)) for i, row in enumerate(_lines(eye))]

    monkeypatch.setattr(brandt, "_split", lines)
    with pytest.raises(ValueError, match="does not preserve"):
        eigenforms(cs, 0, [2], space)


def test_involution_sign_is_read_off_the_image():
    # the reference split reads a component's sign off its basis's first image
    eigenvalue = split_reference._eigenvalue
    op = linalg.frac_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert eigenvalue(op, linalg.frac_mat([[1, 0, 3], [0, 0, 2]])) == 1
    assert eigenvalue(op, linalg.frac_mat([[0, Fraction(1, 2), 0]])) == -1
    # on a component where it is +1 on one line and −1 on another it must raise,
    # whichever line comes first
    for rows in ([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]]):
        with pytest.raises(ValueError, match="not one scalar"):
            eigenvalue(op, linalg.frac_mat(rows))
    with pytest.raises(ValueError, match="does not preserve"):
        eigenvalue(op, linalg.frac_mat([[1, 1, 0]]))


def test_each_distinct_charpoly_is_factored_once(class_set_17, monkeypatch):
    cs = ClassSet(class_set_17.order, class_set_17.ideals)
    space = FormSpace(cs, 2)
    calls = []
    factor = brandt.factor_rational
    monkeypatch.setattr(brandt, "factor_rational",
                        lambda cp: calls.append(tuple(cp)) or factor(cp))
    comps = eigenforms(cs, 2, [2, 3, 5], space)
    assert calls and len(set(calls)) == len(calls)
    # a second call factors them again: the memo lives for one call only
    assert [c.charpolys for c in eigenforms(cs, 2, [2, 3, 5], space)] == [
        c.charpolys for c in comps]
    assert len(calls) == 2 * len(set(calls))


def _flat_basis(space, comp):
    """The flat coordinate rows of a component's forms: class i's value times R_i."""
    return linalg.frac_mat([
        [x for value, cb, r in zip(phi.values, space.class_bases, space._right_inverses) if cb
         for x in linalg.vec_mat(value, r)] for phi in comp.forms])


@pytest.mark.parametrize("level,nu", [(level, nu) for level in (17, 34) for nu in range(4)])
def test_component_charpolys_equal_the_restricted_charpoly(level, nu, class_set_17, cs34):
    # the split's factor to the power dim/deg, against the charpoly of T(p)
    # restricted to the component and factored, as eigenforms once computed it
    cs, primes = (class_set_17, [2, 3, 5]) if level == 17 else (cs34, [3, 5, 7])
    space = FormSpace(cs, nu)
    comps = eigenforms(cs, nu, primes)
    assert sum(c.dim for c in comps) == space.dim
    blocks = [c for c in comps if c.dim > 1]
    for comp in blocks:
        basis = _flat_basis(space, comp)
        assert len(basis) == comp.dim == linalg.rank(basis)
        for p in primes:
            op = space.matrix_of(brandt_matrix(cs, nu, p))
            assert comp.charpolys[p] == factor_rational(
                linalg.charpoly(split_reference._restrict(op, basis)))
    assert blocks or nu == 0


def _diagonal_blocks(*blocks):
    """The block-diagonal matrix of the given square integer blocks."""
    n = sum(map(len, blocks))
    rows, pos = [], 0
    for b in blocks:
        rows += [[0] * pos + row + [0] * (n - pos - len(b)) for row in b]
        pos += len(b)
    return linalg.frac_mat(rows)


def test_component_charpoly_keeps_its_multiplicity(class_set_17, monkeypatch):
    # T(2) = diag(A, A) with charpoly(A) = x² − 2 on the 4-dimensional ν = 1
    # space, and w₁₇ = 1: one component, x² − 2 to the power 2
    a = [[0, 1], [2, 0]]
    t = _diagonal_blocks(a, a)
    monkeypatch.setattr(FormSpace, "matrix_of",
                        lambda self, op: linalg.identity(4) if op.p == 17 else t)
    comp, = eigenforms(class_set_17, 1, [2])
    assert comp.dim == 4 and comp.involutions == {17: 1}
    assert comp.charpolys == {2: [((1, 0, -2), 2)]}
    assert comp.charpolys[2] == factor_rational(linalg.charpoly(t))
    # T(3) = diag(1, 1, 1, 2, 2, 2) does not commute with T(2) = diag(A, A, A)
    # on the 6-dimensional ν = 2 space: it splits ker(T(2)² − 2) into two
    # 3-dimensional parts, which x² − 2 cannot fill
    t2, t3 = _diagonal_blocks(a, a, a), _diagonal_blocks(*[[[1]]] * 3, *[[[2]]] * 3)
    monkeypatch.setattr(FormSpace, "matrix_of", lambda self, op: (
        linalg.identity(6) if op.p == 17 else t2 if op.p == 2 else t3))
    with pytest.raises(ValueError, match="cannot fill"):
        eigenforms(class_set_17, 2, [2, 3])
    with pytest.raises(ValueError, match="cannot fill"):
        brandt._charpoly_power((1, 0, -2), 3)
    assert brandt._charpoly_power((1, 0, -2), 4) == [((1, 0, -2), 2)]


def test_eichler_iteration_makes_47_enumerations(monkeypatch):
    # the eichler benchmark's iteration at seed 1 on fresh orders: class sets
    # from the neighbours at 2 (level 17) and 3 (level 34), Brandt matrices at
    # ν ≤ 2 for five good primes and eigenforms at the first three.  Each
    # reduced neighbour costs one enumeration; growing shells one multiple of
    # the norm scale at a time made 136.  Routing w_q by a search for every
    # class against every target made 123, of 1,548 vectors; now a class
    # skips the targets already claimed, and a swapped class takes its route
    # from its partner's, so the routing makes 12 searches, not 23.  The
    # cross shells enumerated once per new prime made 112, of 1,545 vectors;
    # run to each lattice's `_small_norm` on the first miss, they are
    # enumerated once at level 34 and twice at level 17.  Searching every
    # round to closure made 63, of 946 vectors; the class set now stops at the
    # Eichler mass, inside the principal class's neighbours at both levels.
    calls = []
    enumerate_upto = quatcore.short_vectors_upto

    def counted(g, m):
        out = enumerate_upto(g, m)
        calls.append(sum(map(len, out.values())))
        return out

    monkeypatch.setattr(quatcore, "short_vectors_upto", counted)
    _eichler_iteration()
    assert (len(calls), sum(calls)) == (47, 930)


def _eichler_iteration():
    """The eichler benchmark's iteration at seed 1 on fresh orders, as above."""
    orders = [quatcore.Lattice(o.algebra, o.basis, "order") for o in (fx.order_r1(),
                                                                     level34_order())]
    for order, p_seed, primes in ((orders[0], 2, (2, 3, 5, 7, 11)),
                                  (orders[1], 3, (3, 5, 7, 11, 13))):
        cs = class_set(order, p_seed)
        for nu in (0, 1, 2):
            space = FormSpace(cs, nu)
            for p in primes:
                brandt_matrix(cs, nu, p, space)
            eigenforms(cs, nu, list(primes[:3]), space)


def test_eichler_iteration_takes_the_python_path_for_tiny_enumerations(monkeypatch):
    # 44 of the 47 enumerations expect fewer lattice points than the crossover
    # and run on Python ints; the other three are level 17's cross shells to 11
    calls, small_calls = [], []
    enumerate_upto, small = quatcore.short_vectors_upto, quatcore._small_half_shells
    monkeypatch.setattr(quatcore, "short_vectors_upto",
                        lambda g, m: calls.append(1) or enumerate_upto(g, m))
    monkeypatch.setattr(quatcore, "_small_half_shells",
                        lambda *args: small_calls.append(1) or small(*args))
    _eichler_iteration()
    assert (len(small_calls), len(calls)) == (44, 47)


def test_eichler_iteration_builds_each_two_sided_ideal_once(monkeypatch):
    # the mass formula (through is_ramified) and the Atkin–Lehner routing both
    # ask for J at each level prime: p = 17 at level 17, p = 2 and 17 at level 34
    asked, built = [], []
    two_sided, kernel = quatcore.two_sided_ideal, quatcore._kernel_mod_p

    def counted(order, p):
        asked.append(p)
        return two_sided(order, p)

    monkeypatch.setattr(quatcore, "two_sided_ideal", counted)
    monkeypatch.setattr(brandt, "two_sided_ideal", counted)
    # the trace-form kernel mod p is the first step of every build
    monkeypatch.setattr(quatcore, "_kernel_mod_p",
                        lambda rows, p: built.append(p) or kernel(rows, p))
    _eichler_iteration()
    assert sorted(built) == [2, 17, 17]
    assert len(asked) == 6
