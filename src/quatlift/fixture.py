"""Bundled level-17 example: the rational quaternion algebra ramified at 17 and
infinity, its two maximal-order classes, the published weight-3 lift data, and
the Hecke eigenvalues the lift must reproduce.

Every golden number in the test suite is referenced from here rather than
inlined.  The multiplication table is stored in the basis of the maximal order
R₁ (so R₁ is the standard lattice Z⁴); R₂ and the connecting ideal are stored
as change-of-basis matrices whose COLUMNS are the new basis vectors, which is
the convention the published Gram matrices pin down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .brandt import AutomorphicForm, FormSpace
from .quatcore import ClassSet, Lattice, QuaternionAlgebra, UsageError, class_set
from .yoshida import FourierExpansionSiegel2, theta_lift, yoshida2

LEVEL = 17

# f_i·f_j = Σ_k STRUCTURE_CONSTANTS[i][j][k]·f_k in the R₁ basis {1, f₁, f₂, f₃};
# equivalent to the published product formulas (γ₀..γ₃) for Σα_i f_i · Σβ_i f_i.
STRUCTURE_CONSTANTS = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [-2, 1, 0, 0], [0, 1, 1, -1], [-2, 1, 2, 0]],
    [[0, 0, 1, 0], [1, 0, 0, 1], [-3, 0, 1, 0], [1, -3, -1, 1]],
    [[0, 0, 0, 1], [1, -1, -2, 1], [-3, 3, 1, 0], [-5, 0, 0, 0]],
]

# Gram matrix of R₁ with respect to tr(x·ȳ)
R1_GRAM = [
    [2, 1, 1, 0],
    [1, 4, -1, 1],
    [1, -1, 6, 2],
    [0, 1, 2, 10],
]

# columns = basis of the second maximal order R₂ in R₁ coordinates
R2_TRANSFORM = [
    [Fraction(3, 4), 1, Fraction(1, 2), 0],
    [0, 0, -1, 1],
    [Fraction(-1, 2), 0, -1, 0],
    [Fraction(1, 4), 0, Fraction(-1, 2), -1],
]

R2_GRAM = [
    [2, 1, 0, 0],
    [1, 2, -1, 1],
    [0, -1, 12, 5],
    [0, 1, 5, 12],
]

# columns = basis of the connecting ideal (left order R₂, right order R₁)
I12_TRANSFORM = [
    [0, 1, -1, Fraction(1, 2)],
    [Fraction(1, 2), -1, Fraction(-1, 2), -1],
    [0, 0, 0, -1],
    [Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2)],
]

I12_GRAM = [
    [4, -2, 1, 0],
    [-2, 4, 0, 1],
    [1, 0, 6, 3],
    [0, 1, 3, 6],
]

GRAM_DET = 289  # = 17², shared by R₁, R₂ and the connecting ideal

UNIT_COUNTS = (2, 6)

# the weight-2 form: orthogonal to constants, values per class
PHI2_VALUES = (-1, 3)

# published weight-3 lift polynomial on R₁² (coefficient of α_i·β_j at [i][j])
P1_MATRIX = [
    [0, 0, 0, -2],
    [0, 0, -2, -2],
    [0, 2, 0, 0],
    [2, 2, 0, 0],
]

# published polynomial on the connecting ideal (in its own basis coordinates)
P12_MATRIX = [
    [0, 0, 2, 0],
    [0, 0, 0, 2],
    [-2, 0, 0, 0],
    [0, -2, 0, 0],
]

# the lift polynomial family v(pim(x̄₁·x₂)) gives P₁ = P1_SCALE · P_{α₃-functional}
P1_SCALE = -2
P12_SCALE = 2

# weight-3 lift = LIFT_SCALE × the normalized degree-2 lift of (φ₁, φ₂)
LIFT_SCALE = 8

# nonzero published Fourier coefficients of the weight-3 lift, keyed by [a, b, c]
PRINTED_COEFFS = {
    (5, 2, 6): -32,
    (5, 1, 6): -64,
    (4, 3, 5): -32,
    (4, 2, 6): -96,
    (4, 1, 6): 32,
    (4, 1, 5): -64,
    (3, 2, 6): -32,
    (3, 2, 5): 32,
    (3, 2, 4): 32,
    (3, 1, 6): -32,
    (2, 1, 5): -32,
    (2, 1, 4): -32,
    (2, 1, 3): 32,
}

# published Hecke eigenvalues of the weight-3 lift
HECKE_EIGENVALUES = {2: -5, 3: -8, 5: -4}

CLASS_SEED = 2


@lru_cache(maxsize=None)
def fixture_algebra() -> QuaternionAlgebra:
    alg = QuaternionAlgebra(STRUCTURE_CONSTANTS, [1, 0, 0, 0], name="ramified-17")
    alg.validate()
    return alg


def order_r1() -> Lattice:
    return Lattice.standard(fixture_algebra(), kind="order")


def order_r2() -> Lattice:
    basis = linalg.transpose(linalg.frac_mat(R2_TRANSFORM))
    return Lattice(fixture_algebra(), basis, kind="order")


def ideal_i12() -> Lattice:
    basis = linalg.transpose(linalg.frac_mat(I12_TRANSFORM))
    return Lattice(fixture_algebra(), basis, kind="ideal")


@lru_cache(maxsize=None)
def fixture_class_set() -> ClassSet:
    cs = class_set(order_r1(), CLASS_SEED)
    assert cs.h == 2 and tuple(cs.unit_counts) == UNIT_COUNTS
    return cs


def fixture_space(nu: int) -> FormSpace:
    return FormSpace(fixture_class_set(), nu)


def phi2() -> AutomorphicForm:
    return AutomorphicForm(0, [(Fraction(v),) for v in PHI2_VALUES])


def phi1() -> AutomorphicForm:
    """Harmonic degree 1: the f₃-coordinate functional at the first class, 0 at the second."""
    basis = fixture_space(1).space.basis
    # the polynomial z₃, the last degree-1 monomial, in the basis: coords·B = z₃
    coords = linalg.solve(basis.T, [0, 0, 1])
    zero = tuple(Fraction(0) for _ in coords)
    return AutomorphicForm(1, [tuple(coords), zero])


def golden_lift(bound: int, singular_bound: int | None = None,
                jobs: int = 1) -> FourierExpansionSiegel2:
    """The published assembly: θ(R₁, P₁) + θ(connecting ideal, P₁₂), weight 3.

    The lift runs in one process.  `jobs` accepts only 1 and raises UsageError
    otherwise; it stays because the benchmark workloads pass jobs=1.
    """
    if jobs != 1:
        raise UsageError("golden_lift runs in one process")
    terms = [(order_r1(), P1_MATRIX, 1), (ideal_i12(), P12_MATRIX, 1)]
    return theta_lift(terms, 1, LEVEL, bound, singular_bound)


def fixture_lift(bound: int, singular_bound: int | None = None) -> FourierExpansionSiegel2:
    """The same expansion assembled through the eigenform pipeline, scaled to match."""
    cs = fixture_class_set()
    lifted = yoshida2(cs, phi1(), phi2(), bound, singular_bound=singular_bound)
    return lifted.scale(LIFT_SCALE)
