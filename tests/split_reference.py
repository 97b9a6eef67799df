"""The eigenform split by restriction from the whole space, kept as an oracle.

`quatlift.brandt.eigenforms` splits each part in its own coordinates: the
restrictions of the operators are carried down the split, simple parts are
never factored, and the eigenvalues and signs are read off the split.  The
split here is the one it replaced: every operator is restricted to every part
by an exact solve on the flat coordinates (`_restrict`), a line is checked by
its one image (`_eigenvalue`), every part's charpoly is factored, and each
component's eigenvalues and signs are read again from its basis in flat
coordinates.  `eigenforms_by_restriction` is that loop; the two must give the
same components: forms, eigenvalues, signs and characteristic polynomials.
"""

from fractions import Fraction

import numpy as np

from quatlift import linalg
from quatlift.brandt import (EigenComponent, FormSpace, _charpoly_factorer, _charpoly_power,
                             _component_key, _involution_factors, _poly_of_matrix,
                             atkin_lehner, brandt_matrix)
from quatlift.quatcore import _prime_factors


def _restrict(op: linalg.Matrix, basis: linalg.Matrix) -> linalg.Matrix:
    """Matrix of a row-convention operator on the row span of `basis`; ValueError
    unless the operator maps the span into itself."""
    s = linalg.solve_many(basis.T, basis @ op)
    if s is None:
        raise ValueError("operator does not preserve the subspace")
    return s


def _eigenvalue(op: linalg.Matrix, basis: linalg.Matrix) -> Fraction:
    """λ with basis·op = λ·basis, for a basis of nonzero rows, read off the first row's image.

    Raises ValueError unless basis·op equals λ·basis exactly: the operator does
    not preserve the span, or is not the one scalar λ on it.
    """
    img = basis @ op
    j = int(np.flatnonzero(basis.num[0])[0])
    lam = Fraction(int(img.num[0, j]) * basis.den, int(basis.num[0, j]) * img.den)
    if img != basis * lam:
        raise ValueError("operator does not preserve the subspace, or is not one scalar on it")
    return lam


def _split_by_operator(subspaces: list[linalg.Matrix], op: linalg.Matrix,
                       factor) -> list[tuple[linalg.Matrix, tuple]]:
    """Each subspace split into the kernels of f(op), f over `factor(s)`, s its restriction.

    Returns (part, f) pairs, each part with the monic irreducible f whose kernel
    it lies in.  A line is kept whole once one image shows it is an eigenline of
    eigenvalue λ (f = x − λ), and a subspace whose charpoly is one irreducible
    factor f to the first power is kept whole too.  Raises ValueError when the
    kernels do not add up to the subspace.
    """
    out = []
    for basis in subspaces:
        if len(basis) == 1:
            out.append((basis, (Fraction(1), -_eigenvalue(op, basis))))
            continue
        s = _restrict(op, basis)
        factors = factor(s)
        if len(factors) == 1 and factors[0][1] == 1:
            out.append((basis, factors[0][0]))
            continue
        kernels = [(linalg.nullspace(_poly_of_matrix(f, s).T), f) for f, _ in factors]
        if sum(len(kernel) for kernel, _ in kernels) != len(basis):
            raise ValueError("operator is not semisimple on the subspace")
        out += [(kernel @ basis, f) for kernel, f in kernels if kernel]
    return out


def eigenforms_by_restriction(cs, nu: int, primes: list[int]) -> list[EigenComponent]:
    """`brandt.eigenforms` by restriction from the whole space, one `_split_by_operator`
    step per operator, with each component's eigenvalues and signs read off its basis."""
    space = FormSpace(cs, nu)
    if space.dim == 0:
        return []
    level_primes = sorted(set(_prime_factors(cs.order.level)))
    inv_ops = {q: space.matrix_of(atkin_lehner(cs, nu, q)) for q in level_primes}
    brandt_ops = {p: space.matrix_of(brandt_matrix(cs, nu, p)) for p in primes}
    by_charpoly = _charpoly_factorer()
    steps = [(q, op, _involution_factors) for q, op in inv_ops.items()]
    steps += [(p, brandt_ops[p], by_charpoly) for p in sorted(primes)]
    split = [(linalg.identity(space.dim), {})]
    for key, op, factor in steps:
        split = [(part, {**found, key: f}) for basis, found in split
                 for part, f in _split_by_operator([basis], op, factor)]
    components = []
    for basis, found in split:
        basis = linalg.primitive_rows(basis)
        comp = EigenComponent(forms=space.unflat(basis))
        for q, op in inv_ops.items():
            sign = _eigenvalue(op, basis)
            if sign not in (1, -1):
                raise ValueError("operator does not act as ±1 on an eigenspace of the involutions")
            comp.involutions[q] = int(sign)
        for p, op in brandt_ops.items():
            if len(basis) == 1:
                comp.hecke[p] = _eigenvalue(op, basis)
            else:
                comp.charpolys[p] = _charpoly_power(found[p], len(basis))
        components.append(comp)
    components.sort(key=_component_key)
    return components
