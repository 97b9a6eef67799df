"""Automorphic forms on quaternion ideal classes and their Hecke theory.

Forms assign to each ideal class a vector in the degree-ν harmonic space, invariant
under the unit group of the class's left order: one `FormSpace` per (class set, ν).
Brandt matrices with harmonic weights, at one good prime or as the series B(m), from
one block rule on the cross lattices' cached half shells; the weighted inner product,
Atkin-Lehner involutions, essential parts and exact simultaneous eigenform decomposition.
The involutions are routed, split and read by the code of the other operators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .harmonic import HarmSpace, default_frame, tau_group, tau_matrix_stack
from .polyfactor import _primitive, _squarefree, factor_rational
from .quatcore import (ClassSet, Lattice, UsageError, _prime_factors, class_set, least_good_prime,
                       require_good_prime, require_int, require_level_prime, superorders,
                       transporters, two_sided_ideal)


@dataclass
class AutomorphicForm:
    nu: int
    values: list[tuple[Fraction, ...]]  # one U_ν coordinate vector per class

    def __post_init__(self):
        self.nu = require_int(self.nu, "harmonic degree")
        # the Fractions of `FormSpace.unflat` are kept as they are, not built again
        self.values = [tuple(x if type(x) is Fraction else Fraction(x) for x in v)
                       for v in self.values]
        if any(len(v) != 2 * self.nu + 1 for v in self.values):
            raise UsageError(f"a degree-{self.nu} form has 2ν + 1 = {2 * self.nu + 1} "
                             f"coordinates at each class")

    @property
    def h(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in v) for v in self.values)

    def scale(self, c) -> "AutomorphicForm":
        c = Fraction(c)
        return AutomorphicForm(self.nu, [tuple(c * x for x in v) for v in self.values])

    def add(self, other: "AutomorphicForm") -> "AutomorphicForm":
        if self.nu != other.nu or self.h != other.h:
            raise UsageError("forms have mismatched shape")
        return AutomorphicForm(self.nu, [tuple(a + b for a, b in zip(u, v))
                                         for u, v in zip(self.values, other.values)])


def constant_form(cs: ClassSet) -> AutomorphicForm:
    return AutomorphicForm(0, [(Fraction(1),) for _ in range(cs.h)])


class FormSpace:
    """The unit-invariant degree-ν forms on a class set; one per (cs, ν), in `cs.form_spaces`."""

    def __new__(cls, cs: ClassSet, nu: int) -> "FormSpace":
        nu = require_int(nu, "harmonic degree")
        if nu not in cs.form_spaces:
            self = super().__new__(cls)
            self.cs, self.nu = cs, nu
            self.space = HarmSpace(nu, default_frame(cs.order.algebra))
            # M_u is quadratic in u, so one unit of each pair ±u will do: `units` is
            # sorted and closed under negation, so its second half is its first negated
            halves = [order.units[:len(order.units) // 2] for order in cs.left_orders]
            taus = iter(tau_matrix_stack([tau_group(u) for half in halves for u in half],
                                         self.space))
            self.class_bases = [self._invariant_basis([next(taus) for _ in half])
                                for half in halves]
            self.dim = sum(len(b) for b in self.class_bases)
            # the classes whose invariant basis is all of U_ν (units ±1 alone, or ν = 0):
            # `matrix_of` and `unflat` pass their blocks through with no product
            eye = linalg.identity(self.space.dim)
            self._whole = [cb == eye for cb in self.class_bases]
            inverses = {}
            for cb in self.class_bases:
                if cb and cb not in inverses:
                    inverses[cb] = linalg.right_inverse(cb)
            self._right_inverses = [inverses.get(cb) for cb in self.class_bases]
            cs.form_spaces[nu] = self
        return cs.form_spaces[nu]

    def _invariant_basis(self, taus: list[linalg.Matrix]) -> linalg.Matrix:
        """The coordinate rows v with v·M_u = v for the τ-matrices M_u of a class's units."""
        eye = linalg.identity(self.space.dim)
        # invariance v·M_u = v as a right-kernel condition: (M_uᵗ - I)·vᵗ = 0
        return linalg.nullspace(linalg.vstack([m.T - eye for m in taus]))

    def basis_forms(self) -> list[AutomorphicForm]:
        return self.unflat(linalg.identity(self.dim))

    def unflat(self, rows: linalg.Matrix) -> list[AutomorphicForm]:
        """The forms with the flat coordinate rows of `rows`: one product per class block."""
        per_class, pos = [], 0
        for cb, whole in zip(self.class_bases, self._whole):
            block = linalg.Matrix(rows.num[:, pos:pos + len(cb)], rows.den)
            per_class.append((block if whole else block @ cb).tolist())
            pos += len(cb)
        return [AutomorphicForm(self.nu, [values[r] for values in per_class])
                for r in range(len(rows))]

    def matrix_of(self, op: "BrandtMatrix") -> linalg.Matrix:
        """Matrix (row convention) of a block operator on the flat coordinates.

        Row block j, column block i is CB_j·B_ij·R_i, with CB_i the invariant
        basis of class i and R_i its right inverse.  Raises ValueError unless
        every CB_j·B_ij lies in the row span of CB_i, that is, unless the
        operator maps invariant forms to invariant forms.  A zero B_ij gives a
        zero block with nothing to check: an Atkin–Lehner or pullback operator
        has one nonzero block per row.  Between two classes whose invariant
        bases are all of U_ν, CB_j·B_ij·R_i is B_ij itself, with nothing to check.
        """
        grid = []
        for j, cb_j in enumerate(self.class_bases):
            row = []
            for i, (cb_i, r_i) in enumerate(zip(self.class_bases, self._right_inverses)):
                block = op.blocks[i][j]
                if not (cb_i and cb_j and block.num.any()):
                    row.append(linalg.zeros(len(cb_j), len(cb_i)))
                    continue
                if self._whole[i] and self._whole[j]:
                    row.append(block)
                    continue
                image = cb_j @ block
                coords = image @ r_i
                if coords @ cb_i != image:
                    raise ValueError("form is not invariant under the unit groups")
                row.append(coords)
            grid.append(linalg.hstack(row))
        return linalg.vstack(grid)


class BrandtMatrix:
    """An operator on forms as blocks of U_ν endomorphisms, one per pair of classes.

    A Brandt matrix T(p), an Atkin–Lehner involution w_q and a pullback from a
    superorder all take this shape: (Tφ)(y_i) = Σ_j φ(y_j)·B_ij.
    """

    def __init__(self, p: int, nu: int, blocks):
        self.p = p
        self.nu = nu
        self.blocks = blocks  # blocks[i][j]: row-convention matrix on U_ν coords

    def apply(self, form: AutomorphicForm) -> AutomorphicForm:
        flat = linalg.frac_mat([[x for value in form.values for x in value]])
        values = [tuple((flat @ linalg.vstack(row_blocks))[0]) for row_blocks in self.blocks]
        return AutomorphicForm(form.nu, values)

    def row_sums(self) -> list[Fraction]:
        """The classical row sums Σ_j B_ij; defined for ν = 0 only."""
        if self.nu:
            raise UsageError("row sums are defined for ν = 0 only")
        return [sum(self.blocks[i][j][0][0] for j in range(len(self.blocks)))
                for i in range(len(self.blocks))]


def _require_space(cs: ClassSet, nu: int, space: FormSpace | None,
                   *forms: AutomorphicForm) -> None:
    """Refuse a space or form of another class set or degree ν, before anything is cached.
    A space that passes is FormSpace(cs, ν), the one the code reads."""
    if (space is not None and (space.cs is not cs or space.nu != nu)
            or any(phi.h != cs.h or phi.nu != nu for phi in forms)):
        raise UsageError(f"the space and forms must be of degree {nu} on this class set")


def _brandt_blocks(cs: ClassSet, nu: int, norms) -> None:
    """B^{(ν)}(m) at each m of `norms`, into `cs.brandt_blocks` at (m, ν): the one block rule.

    Block (i, j) is (1/e_j)·Σ_{x, q(x)=m} of P ↦ P(x̄·z·x)/n₀^ν over cross_lattice(j, i),
    left order R_i and right order R_j: the convention under which (T̃φ)(y_i) =
    Σ_j B_ij·φ(y_j) keeps unit-group invariance.  x runs over the lattice's half
    shell H_m (`cs.cross_shells`), doubled since τ(−x) = τ(x).  Only the blocks with
    i ≤ j are summed, all of them, at every norm, in one `tau_matrix_stack` call:
    T̃ is self-adjoint for the inner product weighted by 1/e_i, so
    B_ji = (e_j/e_i)·P·B_ijᵗ·P⁻¹, P the pairing on U_ν (Pizer, J. Algebra 64, 1980).
    """
    harm = FormSpace(cs, nu).space
    pairing, unpairing = harm.pairing_matrix, harm.pairing_inverse
    e, empty = cs.unit_counts, np.zeros((0, 4), dtype=np.int64)
    groups, cells = [], []
    for i in range(cs.h):
        for j in range(i, cs.h):
            cross, buckets = cs.cross_lattice(j, i), cs.cross_shells(j, i, max(norms))
            basis, den = linalg.integer_form(cross.basis)
            scale = Fraction(2, e[j]) / cross.norm_scale ** nu
            for m in norms:
                groups.append((buckets.get(m, empty), basis, den))
                cells.append((m, i, j, scale))
    blocks = {m: [[None] * cs.h for _ in range(cs.h)] for m in norms}
    for (m, i, j, scale), tau in zip(cells, tau_matrix_stack(groups, harm)):
        b = blocks[m]
        b[i][j] = tau * scale
        if j > i:
            b[j][i] = pairing @ b[i][j].T @ unpairing * Fraction(e[j], e[i])
    cs.brandt_blocks.update({(m, nu): BrandtMatrix(m, nu, b) for m, b in blocks.items()})


def brandt_matrix(cs: ClassSet, nu: int, p: int, space: FormSpace | None = None) -> BrandtMatrix:
    """B^{(ν)}(p) at a good prime p, on the cross lattices' cached half shells; cached."""
    p, nu = require_good_prime(p, cs.order.level), require_int(nu, "harmonic degree")
    _require_space(cs, nu, space)
    if (p, nu) not in cs.brandt_blocks:
        _brandt_blocks(cs, nu, [p])
    return cs.brandt_blocks[p, nu]


def brandt_series(cs: ClassSet, nu: int, bound: int) -> list[BrandtMatrix]:
    """[B^{(ν)}(1), …, B^{(ν)}(bound)] from one enumeration of each summed cross lattice.

    Each B(m), at the level's primes too, is cached under (m, ν) with the
    `brandt_matrix` blocks, and every ν reads the same shells;
    `verify.brandt_series_failures` checks the relations.
    """
    nu, bound = require_int(nu, "harmonic degree"), require_int(bound, "bound")
    norms = [m for m in range(1, bound + 1) if (m, nu) not in cs.brandt_blocks]
    if norms:
        _brandt_blocks(cs, nu, norms)
    return [cs.brandt_blocks[m, nu] for m in range(1, bound + 1)]


def inner_product(phi: AutomorphicForm, psi: AutomorphicForm, cs: ClassSet) -> Fraction:
    """⟨φ, ψ⟩ = Σ_i ⟨⟨φ(y_i), ψ(y_i)⟩⟩ / e_i."""
    _require_space(cs, phi.nu, None, phi, psi)
    space = FormSpace(cs, phi.nu)
    total = Fraction(0)
    for i in range(cs.h):
        total += space.space.pair_coords(phi.values[i], psi.values[i]) / cs.unit_counts[i]
    return total


def _route(lat: Lattice, targets):
    """(j, every γ with lat = γ·target) for the first pair (j, target) of `targets`
    that lat is equivalent to; ValueError when it is equivalent to none."""
    for j, target in targets:
        gammas = list(transporters(lat, target))
        if gammas:
            return j, gammas
    raise ValueError("translated ideal matches no class")


def _transport_blocks(routing, source: FormSpace) -> list[list[linalg.Matrix]]:
    """Blocks of ψ(y_i) = τ(γ_i)·φ(y_j)/n(γ_i)^ν over a routing, φ a form of `source`.

    γ_i is the first transporter of class i; each other one must give the same
    block on class j's invariant basis, else ValueError.  The τ-matrices of every
    transporter of every route come from one `tau_matrix_stack` call.
    """
    nu, d = source.nu, source.space.dim
    taus = iter(tau_matrix_stack([tau_group(g) for _, route in routing for g in route],
                                 source.space))
    blocks = []
    for j, route in routing:
        block, *others = [next(taus) * (1 / g.norm() ** nu) for g in route]
        cb = source.class_bases[j]
        if cb:
            want = cb @ block
            if any(cb @ other != want for other in others):
                raise ValueError("transport depends on the realizing element")
        row = [linalg.zeros(d, d) for _ in source.class_bases]
        row[j] = block
        blocks.append(row)
    return blocks


def _involution_route(ideals: list[Lattice], tsp: Lattice, q: int):
    """Per class i: `_route` of I_i·P onto the I_j, P the two-sided ideal of norm q.

    I ↦ I·P is an involution of the classes, and the classes are pairwise
    inequivalent, so a class already routed is the target of its partner
    alone: class i tries only the classes not yet routed.  Since P² = q·O,
    I_i·P = γ·I_j gives I_j·P = (q·γ⁻¹)·I_i, so the partner's route and its
    transporters follow without a search, and without building I_j·P.
    """
    routing = [None] * len(ideals)
    for i, ideal in enumerate(ideals):
        if routing[i] is not None:
            continue
        moved = ideal.product(tsp)
        # P is two-sided for I_i's right order O, so O is I_i·P's right order too:
        # `transporters` reads it instead of building it from I_i·P
        moved.right_order = ideal.right_order
        unrouted = [(k, ideals[k]) for k, route in enumerate(routing) if route is None]
        j, gammas = routing[i] = _route(moved, unrouted)
        if j != i:
            routing[j] = (i, [gamma.inverse() * q for gamma in gammas])
    return routing


def atkin_lehner(cs: ClassSet, nu: int, q: int) -> BrandtMatrix:
    """w̃_q: right translation by the norm-q normalizer, via the two-sided ideal.

    (w̃_q φ)(y_i) = τ(γ)·φ(y_j)/n(γ)^ν where I_i·P_q = γ·I_j; applying it twice
    is the identity.  The routing searches one class of each swapped pair and
    derives the other (`_involution_route`).  The blocks, and the check that
    they do not depend on the choice of γ, which runs over every transporter
    of every route, derived ones included, are computed once per
    (class set, q, ν).
    """
    q, nu = require_level_prime(q, cs.order.level), require_int(nu, "harmonic degree")
    if q not in cs.al_routes:
        cs.al_routes[q] = _involution_route(cs.ideals, two_sided_ideal(cs.order, q), q)
    if (q, nu) not in cs.al_blocks:
        cs.al_blocks[q, nu] = BrandtMatrix(q, nu, _transport_blocks(cs.al_routes[q],
                                                                    FormSpace(cs, nu)))
    return cs.al_blocks[q, nu]


def orthogonal_complement(forms: list[AutomorphicForm], within: list[AutomorphicForm],
                          cs: ClassSet) -> list[AutomorphicForm]:
    """Basis of {ψ ∈ span(within) : ⟨ψ, φ⟩ = 0 for all φ in forms}."""
    if not forms or not within:
        return list(within)
    rows = [[inner_product(psi, phi, cs) for phi in forms] for psi in within]
    return [functools.reduce(AutomorphicForm.add, (psi.scale(c) for c, psi in zip(v, within)))
            for v in linalg.nullspace(linalg.transpose(rows))]


def essential_part(forms: list[AutomorphicForm], cs: ClassSet, p: int) -> list[AutomorphicForm]:
    """Forms orthogonal to every pullback from an order strictly larger at p.

    At a ramified p the local order is maximal: there is no superorder, and the
    input space is returned unchanged.  Each superorder's class set, with its
    form spaces, and the routing of the classes of cs into it are computed once
    per class set; the pulled-back forms are computed per call.
    """
    p = require_level_prime(p, cs.order.level)
    if not forms:
        return []
    nu = forms[0].nu
    pullbacks = []
    for sup in superorders(cs.order, p):
        if sup not in cs.superorder_routes:
            cs.superorder_routes[sup] = _superorder_route(cs, sup)
        sup_cs, routing = cs.superorder_routes[sup]
        sup_space = FormSpace(sup_cs, nu)
        pullback = BrandtMatrix(p, nu, _transport_blocks(routing, sup_space))
        pullbacks += [pullback.apply(phi) for phi in sup_space.basis_forms()]
    return orthogonal_complement(pullbacks, forms, cs)


def _superorder_route(cs: ClassSet, sup: Lattice):
    """sup's class set, and each class of cs sent to its class there with the transporters."""
    sup_cs = class_set(sup, least_good_prime(sup.level))
    targets = list(enumerate(sup_cs.ideals))
    return sup_cs, [_route(ideal.product(sup), targets) for ideal in cs.ideals]


@dataclass
class EigenComponent:
    forms: list[AutomorphicForm]
    hecke: dict[int, Fraction] = field(default_factory=dict)
    involutions: dict[int, int] = field(default_factory=dict)
    charpolys: dict[int, list] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.forms)


def _poly_of_matrix(coeffs, m: linalg.Matrix) -> linalg.Matrix:
    """f(M) by Horner's rule, for the coefficients of f, highest degree first; deg f ≥ 1."""
    eye = linalg.identity(len(m))
    acc = m * coeffs[0] + eye * coeffs[1]
    for c in coeffs[2:]:
        acc = acc @ m + eye * c
    return acc


def _restrict_rows(r: linalg.Matrix, kernel: linalg.Matrix, free: list[int]) -> linalg.Matrix:
    """The restriction r′ of a row-convention r to the row span of K = `kernel`: r′·K = K·r.

    K is the identity on its `free` columns (`linalg.nullspace_free`), so r′ is
    K·r on those columns.  Raises ValueError unless r′·K = K·r exactly, that is,
    unless r maps the span into itself.
    """
    image = kernel @ r
    s = linalg.Matrix(image.num[:, free], image.den)
    if s @ kernel != image:
        raise ValueError("operator does not preserve the subspace")
    return s


def _involution_factors(s: linalg.Matrix) -> list[tuple[tuple, int]]:
    """[(x − 1, 1), (x + 1, 1)] for a restriction s with s·s = I, with no charpoly;
    ValueError otherwise.  Then s is diagonalizable and the two kernels fill its space."""
    if s @ s != linalg.identity(len(s)):
        raise ValueError("operator does not act as ±1 on a subspace: its square is not 1")
    return [((1, -1), 1), ((1, 1), 1)]


def _charpoly_factorer():
    """s ↦ factor_rational(charpoly(s)), each distinct charpoly factored once per factorer."""
    factored = functools.cache(factor_rational)
    return lambda s: list(factored(tuple(linalg.charpoly(s))))


def _simple_factor(s: linalg.Matrix, t: linalg.Matrix) -> tuple:
    """The irreducible g with charpoly(s) = g^(d/deg g), s a restriction to a simple part
    defined by the restriction t; Yun's square-free split, no factoring.

    The part is a 1-dimensional K-space, K = ℚ[t] a field, so an s that commutes
    with t is K-linear: multiplication by an element of K, whose charpoly is a
    power of its irreducible minimal polynomial.  Raises ValueError unless
    s·t = t·s and the charpoly has one square-free part.
    """
    if s @ t != t @ s:
        raise ValueError("operator does not commute with the one that makes the part simple")
    parts = _squarefree(_primitive(linalg.charpoly(s)[::-1]))
    if len(parts) != 1:
        raise ValueError("the charpoly on a simple part is not a power of one polynomial")
    g = parts[0][0]
    return tuple(Fraction(x, g[-1]) for x in reversed(g))


@dataclass
class _Part:
    """A part of the eigenform split, in its own coordinates.

    `basis` holds its rows in flat coordinates, None for the whole space;
    `ops` the restrictions of the operators it has not been split by, and
    `found` the monic irreducible f, for each operator it has, with the part
    inside ker f(op); both keyed by prime.  A part is simple when its dimension
    is deg f of the factor that split it off or kept it whole: it is then a
    1-dimensional K-space, K = ℚ[x]/f, and `simple` is that operator's
    restriction t.
    """
    basis: linalg.Matrix | None
    ops: dict[int, linalg.Matrix]
    found: dict[int, tuple] = field(default_factory=dict)
    simple: linalg.Matrix | None = None

    def kept(self, key: int, f: tuple, simple: linalg.Matrix | None = None) -> "_Part":
        """This part, whole, found inside ker f of the operator `key`."""
        ops = {k: r for k, r in self.ops.items() if k != key}
        return _Part(self.basis, ops, {**self.found, key: f},
                     self.simple if simple is None else simple)

    def sub(self, kernel: linalg.Matrix, free: list[int], key: int, f: tuple) -> "_Part":
        """The rows `kernel` of this part, the identity on its `free` columns, inside ker f
        of the operator `key`: every other restriction carried down by `_restrict_rows`."""
        ops = {k: _restrict_rows(r, kernel, free) for k, r in self.ops.items() if k != key}
        simple = None
        if len(f) - 1 == len(kernel) > 1:
            simple = _restrict_rows(self.ops[key], kernel, free)
        basis = kernel if self.basis is None else kernel @ self.basis
        return _Part(basis, ops, {**self.found, key: f}, simple)


def _split(part: _Part, key: int, factor) -> list[_Part]:
    """`part` split by the operator `key` into the kernels of f(s), s its restriction there.

    `factor(s)` is [(f, multiplicity)]: the charpoly's factors (`_charpoly_factorer`),
    or x ∓ 1 for an involution (`_involution_factors`).  The parts come back in
    the order of the factors, each with the f it lies in the kernel of.  A line
    reads f = x − λ off its 1×1 restriction, and a simple part takes f from
    `_simple_factor`; neither is factored.  A part whose charpoly is one
    irreducible factor f is kept whole (f(s) = 0 by Cayley–Hamilton) and is
    simple from then on.  Raises ValueError when the kernels do not add up to
    the part: s is not semisimple on it, and ker f(s) misses part of the
    generalized eigenspace ker f(s)^k.
    """
    s = part.ops[key]
    if len(s) == 1:
        return [part.kept(key, (Fraction(1), -Fraction(int(s.num[0, 0]), s.den)))]
    if part.simple is not None:
        return [part.kept(key, _simple_factor(s, part.simple))]
    factors = factor(s)
    if len(factors) == 1 and len(factors[0][0]) - 1 == len(s):
        return [part.kept(key, factors[0][0], s)]
    kernels = [(*linalg.nullspace_free(_poly_of_matrix(f, s).T), f) for f, _ in factors]
    if sum(len(kernel) for kernel, _, _ in kernels) != len(s):
        raise ValueError("operator is not semisimple on the subspace")
    return [part.kept(key, f) if len(kernel) == len(s) else part.sub(kernel, free, key, f)
            for kernel, free, f in kernels if kernel]


def _charpoly_power(f: tuple, dim: int) -> list[tuple[tuple, int]]:
    """[(f, dim/deg f)]: the factored charpoly of an operator on a dim-dimensional
    invariant subspace inside ker f(op), f irreducible; ValueError unless deg f | dim."""
    if dim % (len(f) - 1):
        raise ValueError(f"a degree-{len(f) - 1} factor cannot fill a {dim}-dimensional component")
    return [(f, dim // (len(f) - 1))]


def eigenforms(cs: ClassSet, nu: int, primes: list[int],
               space: FormSpace | None = None) -> list[EigenComponent]:
    """Common eigen-decomposition of the Brandt matrices and involutions.

    Rational 1-dimensional common eigenspaces come back as eigenforms with
    eigenvalue maps; irrational ones as irreducible blocks with factored
    characteristic polynomials.  Each operator goes to flat coordinates once;
    one `_split` loop splits by each w_q into ker(w_q ∓ 1) (`_involution_factors`:
    w_q² = 1, no charpoly), then by each T(p) into the kernels of its charpoly's
    factors.  Every part carries, in its own coordinates, the restrictions of the
    operators it has not yet been split by, each checked exactly as it is
    carried down, and records the irreducible f whose kernel ker f(op) it lies
    in.  A part of dimension deg f is simple: a later operator is checked to
    commute there, and its charpoly is a power of one irreducible factor, read
    by a square-free split with no factoring.  The eigenvalues, the ±1 signs
    and the characteristic polynomials f_p^(dim/deg f_p) of the components are
    read off the split; each distinct charpoly is factored once per call.
    """
    primes = [require_good_prime(p, cs.order.level) for p in primes]
    nu = require_int(nu, "harmonic degree")
    _require_space(cs, nu, space)
    space = FormSpace(cs, nu)
    if space.dim == 0:
        return []
    level_primes = sorted(set(_prime_factors(cs.order.level)))
    inv_ops = {q: space.matrix_of(atkin_lehner(cs, nu, q)) for q in level_primes}
    brandt_ops = {p: space.matrix_of(brandt_matrix(cs, nu, p)) for p in dict.fromkeys(primes)}
    by_charpoly = _charpoly_factorer()
    steps = [(q, _involution_factors) for q in inv_ops]
    steps += [(p, by_charpoly) for p in sorted(brandt_ops)]
    parts = [_Part(None, {**inv_ops, **brandt_ops})]
    for key, factor in steps:
        parts = [sub for part in parts for sub in _split(part, key, factor)]
    components = []
    for part in parts:
        basis = linalg.primitive_rows(linalg.identity(space.dim) if part.basis is None
                                      else part.basis)
        comp = EigenComponent(forms=space.unflat(basis))
        for q in inv_ops:
            f = part.found[q]
            if len(f) != 2 or -f[1] not in (1, -1):
                raise ValueError("operator does not act as ±1 on an eigenspace of the involutions")
            comp.involutions[q] = int(-f[1])
        for p in brandt_ops:
            f = part.found[p]
            power = _charpoly_power(f, len(basis))  # deg f | dim: f = x − λ on a line
            if len(basis) == 1:
                comp.hecke[p] = -Fraction(f[1])
            else:
                comp.charpolys[p] = power
        components.append(comp)
    components.sort(key=_component_key)
    return components


def _component_key(comp: EigenComponent):
    """Dimension, then the exact eigenvalues or characteristic-polynomial factors by
    prime, then the Atkin–Lehner signs by prime, +1 before −1."""
    signs = [-s for _, s in sorted(comp.involutions.items())]
    if comp.hecke:
        return (comp.dim, sorted(comp.hecke.items()), signs)
    return (comp.dim, sorted((p, [c for fac, _ in cp for c in fac])
                             for p, cp in comp.charpolys.items()), signs)
