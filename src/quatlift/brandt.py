"""Automorphic forms on quaternion ideal classes and their Hecke theory.

Forms assign to each ideal class a vector in the degree-ν harmonic space,
invariant under the unit group of the class's left order.  Brandt matrices
with harmonic weights, the weighted inner product, Atkin-Lehner involutions,
essential parts and exact simultaneous eigenform decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from . import linalg
from .harmonic import (HarmSpace, default_frame, harm_basis, integral_tau_matrix,
                       tau_matrix_sum)
from .quatcore import (ClassSet, Lattice, QuatElement, UsageError, _is_prime, class_set,
                       ideal_equivalent, is_ramified, short_vectors, superorders,
                       transporters, two_sided_ideal)


@dataclass
class AutomorphicForm:
    nu: int
    values: list[tuple[Fraction, ...]]  # one U_ν coordinate vector per class

    def __post_init__(self):
        self.values = [tuple(Fraction(x) for x in v) for v in self.values]

    @property
    def h(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in v) for v in self.values)

    def scale(self, c) -> "AutomorphicForm":
        c = Fraction(c)
        return AutomorphicForm(self.nu, [tuple(c * x for x in v) for v in self.values])

    def add(self, other: "AutomorphicForm") -> "AutomorphicForm":
        assert self.nu == other.nu and self.h == other.h
        return AutomorphicForm(self.nu, [tuple(a + b for a, b in zip(u, v))
                                         for u, v in zip(self.values, other.values)])


def constant_form(cs: ClassSet) -> AutomorphicForm:
    return AutomorphicForm(0, [(Fraction(1),) for _ in range(cs.h)])


class FormSpace:
    """The space of degree-ν forms on a class set, with unit-invariance built in."""

    def __init__(self, cs: ClassSet, nu: int):
        self.cs = cs
        self.nu = nu
        self.frame = default_frame(cs.order.algebra)
        self.space: HarmSpace = harm_basis(nu, self.frame)
        self.class_bases: list[list[list[Fraction]]] = []
        for order in cs.left_orders:
            self.class_bases.append(self._invariant_basis(order))
        self.dim = sum(len(b) for b in self.class_bases)

    def _invariant_basis(self, order: Lattice) -> list[list[Fraction]]:
        d = self.space.dim
        units = [order.element_from(v) for v in short_vectors(order.gram, 1)]
        rows = []
        for u in units:
            m = integral_tau_matrix(u, self.space)
            # invariance v·M_u = v as a right-kernel condition: (M_uᵗ - I)·vᵗ = 0
            mt = linalg.transpose(m)
            for i in range(d):
                rows.append([mt[i][j] - Fraction(int(i == j)) for j in range(d)])
        if not rows:
            return [list(e) for e in linalg.identity(d)]
        kernel = linalg.nullspace(rows)
        return [list(v) for v in kernel]

    def basis_forms(self) -> list[AutomorphicForm]:
        out = []
        d = self.space.dim
        for i, cb in enumerate(self.class_bases):
            for vec in cb:
                values = [tuple([Fraction(0)] * d) for _ in range(self.cs.h)]
                values[i] = tuple(vec)
                out.append(AutomorphicForm(self.nu, values))
        return out

    def flat(self, form: AutomorphicForm) -> list[Fraction]:
        out = []
        for i, cb in enumerate(self.class_bases):
            if not cb:
                continue
            sol = linalg.solve(linalg.transpose(cb), list(form.values[i]))
            if sol is None:
                raise ValueError("form is not invariant under the unit groups")
            out.extend(sol)
        return out

    def unflat(self, vec) -> AutomorphicForm:
        values = []
        pos = 0
        d = self.space.dim
        for cb in self.class_bases:
            v = [Fraction(0)] * d
            for row in cb:
                c = Fraction(vec[pos])
                pos += 1
                for j in range(d):
                    v[j] += c * row[j]
            values.append(tuple(v))
        return AutomorphicForm(self.nu, values)

    def operator_matrix(self, op) -> linalg.Matrix:
        """Matrix (row convention) of a form-to-form map on the flat coordinates."""
        mat = []
        for form in self.basis_forms():
            mat.append(self.flat(op(form)))
        return mat


class BrandtMatrix:
    """Brandt matrix with harmonic weights: h×h blocks of U_ν endomorphisms."""

    def __init__(self, p: int, nu: int, blocks):
        self.p = p
        self.nu = nu
        self.blocks = blocks  # blocks[i][j]: row-convention matrix on U_ν coords

    def apply(self, form: AutomorphicForm) -> AutomorphicForm:
        h = len(self.blocks)
        dim = len(form.values[0])
        values = []
        for i in range(h):
            acc = [Fraction(0)] * dim
            for j in range(h):
                contrib = linalg.vec_mat(list(form.values[j]), self.blocks[i][j])
                acc = [a + b for a, b in zip(acc, contrib)]
            values.append(tuple(acc))
        return AutomorphicForm(form.nu, values)

    def row_sums(self) -> list[Fraction]:
        """Only meaningful for ν = 0: the classical row sums Σ_j B_ij."""
        assert self.nu == 0
        return [sum(self.blocks[i][j][0][0] for j in range(len(self.blocks)))
                for i in range(len(self.blocks))]


def _require_good_prime(cs: ClassSet, p: int) -> None:
    if not _is_prime(p):
        raise UsageError(f"{p} is not a prime")
    if cs.order.level % p == 0:
        raise UsageError(f"{p} divides the level {cs.order.level}")


def brandt_matrix(cs: ClassSet, nu: int, p: int, space: FormSpace | None = None) -> BrandtMatrix:
    """B^{(ν)}(p): block (i,j) = (1/e_j)·Σ_{x, q(x)=p} of P ↦ P(x̄·z·x)/n₀^ν.

    The sum runs over the lattice with left order R_i and right order R_j
    (cross_lattice(j, i)); that is the unique index convention under which the
    operator preserves unit-group invariance, with (T̃φ)(y_i) = Σ_j B_ij·φ(y_j).
    """
    _require_good_prime(cs, p)
    space = space or FormSpace(cs, nu)
    blocks = []
    for i in range(cs.h):
        row = []
        for j in range(cs.h):
            cross = cs.cross_lattice(j, i)
            scale = Fraction(1, cs.unit_counts[j]) / cross.norm_scale ** nu
            vecs = cs.cross_vectors(j, i, p)
            row.append(linalg.mat_scale(tau_matrix_sum(cross, vecs, space.space), scale))
        blocks.append(row)
    return BrandtMatrix(p, nu, blocks)


def inner_product(phi: AutomorphicForm, psi: AutomorphicForm, cs: ClassSet,
                  space: FormSpace | None = None) -> Fraction:
    """⟨φ, ψ⟩ = Σ_i ⟨⟨φ(y_i), ψ(y_i)⟩⟩ / e_i."""
    if phi.nu != psi.nu or phi.h != psi.h or phi.h != cs.h:
        raise UsageError("forms have mismatched shape")
    space = space or FormSpace(cs, phi.nu)
    total = Fraction(0)
    for i in range(cs.h):
        total += space.space.pair_coords(phi.values[i], psi.values[i]) / cs.unit_counts[i]
    return total


def _al_routing(cs: ClassSet, p: int):
    """Per class: (target class j, transporter γ, translated lattice) for w̃_p."""
    if p not in cs.al_routes:
        tsp = two_sided_ideal(cs.order, p)
        routing = []
        for i in range(cs.h):
            moved = cs.ideals[i].product(tsp)
            for j in range(cs.h):
                ok, gamma = ideal_equivalent(moved, cs.ideals[j], want_element=True)
                if ok:
                    routing.append((j, gamma, moved))
                    break
            else:
                raise ValueError("translated ideal matches no class")
        cs.al_routes[p] = routing
    return cs.al_routes[p]


def atkin_lehner(phi: AutomorphicForm, cs: ClassSet, p: int,
                 space: FormSpace | None = None, check_transport: bool = True) -> AutomorphicForm:
    """w̃_p: right translation by the norm-p normalizer, via the two-sided ideal.

    ψ(y_i) = τ(γ)·φ(y_j) where I_i·P_p = γ·I_j.  Applying twice is the identity.
    """
    order = cs.order
    if order.level % p != 0:
        raise UsageError(f"{p} does not divide the level {order.level}")
    space = space or FormSpace(cs, phi.nu)
    values = []
    for j, gamma, moved in _al_routing(cs, p):
        values.append(_transported_value(phi, j, gamma, space, moved, cs,
                                         verify=check_transport))
    return AutomorphicForm(phi.nu, values)


def _transported_value(phi, j, gamma, space, moved, cs, verify=False):
    val = _tau_apply(phi.values[j], gamma, space)
    if verify:
        # the result must not depend on which element realizes the equivalence
        for g2 in transporters(moved, cs.ideals[j]):
            if _tau_apply(phi.values[j], g2, space) != val:
                raise ValueError("transport depends on the realizing element")
    return val


def _tau_apply(coords, gamma: QuatElement, space: FormSpace):
    nu = space.nu
    m = integral_tau_matrix(gamma, space.space)
    out = linalg.vec_mat(list(coords), m)
    n = gamma.norm() ** nu
    return tuple(x / n for x in out)


def orthogonal_complement(forms: list[AutomorphicForm], within: list[AutomorphicForm],
                          cs: ClassSet, space: FormSpace | None = None) -> list[AutomorphicForm]:
    """Basis of {ψ ∈ span(within) : ⟨ψ, φ⟩ = 0 for all φ in forms}."""
    if not within:
        return []
    space = space or FormSpace(cs, within[0].nu)
    rows = []
    for psi in within:
        rows.append([inner_product(psi, phi, cs, space) for phi in forms])
    if not forms:
        return list(within)
    kernel = linalg.nullspace(linalg.transpose(rows))
    out = []
    for v in kernel:
        acc = None
        for c, psi in zip(v, within):
            term = psi.scale(c)
            acc = term if acc is None else acc.add(term)
        out.append(acc)
    return out


def essential_part(forms: list[AutomorphicForm], cs: ClassSet, p: int,
                   space: FormSpace | None = None) -> list[AutomorphicForm]:
    """Forms orthogonal to every pullback from an order strictly larger at p.

    At a ramified p the local order is maximal, so the condition is vacuous and
    the input space is returned unchanged.
    """
    if not forms:
        return []
    if cs.order.level % p != 0:
        raise UsageError(f"{p} does not divide the level {cs.order.level}")
    if is_ramified(cs.order, p):
        return list(forms)
    nu = forms[0].nu
    space = space or FormSpace(cs, nu)
    pullbacks = []
    for sup in superorders(cs.order, p):
        pullbacks.extend(_pullback_basis(cs, sup, nu, space))
    return orthogonal_complement(pullbacks, forms, cs, space)


def _pullback_basis(cs: ClassSet, sup: Lattice, nu: int, space: FormSpace) -> list[AutomorphicForm]:
    seed = 2
    while sup.level % seed == 0:
        seed = sympy.nextprime(seed)
    sup_cs = class_set(sup, seed)
    sup_space = FormSpace(sup_cs, nu)
    # map each class of cs to its class in sup_cs, with the transporting element
    routing = []
    for ideal in cs.ideals:
        moved = ideal.product(sup)
        for j in range(sup_cs.h):
            ok, gamma = ideal_equivalent(moved, sup_cs.ideals[j], want_element=True)
            if ok:
                routing.append((j, gamma))
                break
        else:
            raise ValueError("ideal matches no class of the superorder")
    out = []
    for phi in sup_space.basis_forms():
        values = [_tau_apply(phi.values[j], gamma, sup_space) for j, gamma in routing]
        out.append(AutomorphicForm(nu, values))
    return out


@dataclass
class EigenComponent:
    forms: list[AutomorphicForm]
    hecke: dict[int, Fraction] = field(default_factory=dict)
    involutions: dict[int, int] = field(default_factory=dict)
    charpolys: dict[int, list] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.forms)


def _factor_charpoly(coeffs: list[Fraction]):
    """Factor a monic rational polynomial; returns [(coeff tuple, multiplicity)]."""
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c) * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(poly)
    out = []
    for fac, mult in factors:
        p = sympy.Poly(fac, x)
        cs = [Fraction(str(c)) for c in p.all_coeffs()]
        lead = cs[0]
        cs = [c / lead for c in cs]
        out.append((tuple(cs), int(mult)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _poly_of_matrix(coeffs, m: linalg.Matrix) -> linalg.Matrix:
    n = len(m)
    acc = linalg.zeros(n, n)
    for c in coeffs:
        acc = linalg.mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += Fraction(c)
    return acc


def _restrict(op: linalg.Matrix, basis: linalg.Matrix) -> linalg.Matrix:
    """Matrix of a row-convention operator on the row span of `basis`."""
    image = linalg.mat_mul(basis, op)
    bt = linalg.transpose(basis)
    return [linalg.solve(bt, row) for row in image]


def _split_by_operator(subspaces, op):
    out = []
    for basis in subspaces:
        s = _restrict(op, basis)
        if any(row is None for row in s):
            raise ValueError("operator does not preserve the subspace")
        cp = linalg.charpoly(s)
        for fac, _ in _factor_charpoly(cp):
            m = _poly_of_matrix(fac, s)
            kernel = linalg.nullspace(linalg.transpose(m))
            if kernel:
                rows = [linalg.vec_mat(v, basis) for v in kernel]
                out.append(rows)
    return out


def _primitive_row(v):
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def eigenforms(cs: ClassSet, nu: int, primes: list[int],
               space: FormSpace | None = None) -> list[EigenComponent]:
    """Common eigen-decomposition of the Brandt matrices and involutions.

    Rational 1-dimensional common eigenspaces come back as eigenforms with
    eigenvalue maps; irrational ones as irreducible blocks with factored
    characteristic polynomials.  Exact throughout.
    """
    for p in primes:
        _require_good_prime(cs, p)
    space = space or FormSpace(cs, nu)
    if space.dim == 0:
        return []
    level_primes = sorted(sympy.primefactors(cs.order.level))
    inv_ops = {q: space.operator_matrix(lambda f, q=q: atkin_lehner(f, cs, q, space,
                                                                   check_transport=False))
               for q in level_primes}
    brandt_ops = {p: space.operator_matrix(brandt_matrix(cs, nu, p, space).apply)
                  for p in primes}
    subspaces = [list(linalg.identity(space.dim))]
    for q in level_primes:
        subspaces = _split_by_operator(subspaces, inv_ops[q])
    for p in sorted(primes):
        subspaces = _split_by_operator(subspaces, brandt_ops[p])
    components = []
    for basis in subspaces:
        basis = [_primitive_row(row) for row in basis]
        comp = EigenComponent(forms=[space.unflat(v) for v in basis])
        for q, op in inv_ops.items():
            s = _restrict(op, basis)
            comp.involutions[q] = int(s[0][0])
        if len(basis) == 1:
            v = basis[0]
            for p, op in brandt_ops.items():
                image = linalg.vec_mat(v, op)
                lead = next(i for i, x in enumerate(v) if x)
                comp.hecke[p] = image[lead] / v[lead]
        else:
            for p, op in brandt_ops.items():
                s = _restrict(op, basis)
                comp.charpolys[p] = _factor_charpoly(linalg.charpoly(s))
        components.append(comp)
    components.sort(key=_component_key)
    return components


def _component_key(comp: EigenComponent):
    if comp.hecke:
        return (comp.dim, sorted((p, float(v)) for p, v in comp.hecke.items()))
    return (comp.dim, sorted((p, [float(c) for fac, _ in cp for c in fac])
                             for p, cp in comp.charpolys.items()))
