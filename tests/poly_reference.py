"""`Poly` arithmetic and the polynomial references built on it.

`quatlift.polys.Poly` holds only what the package reads (construction,
evaluation, equality); the `Poly` here adds the arithmetic: constants,
variables, monomials, sums, products, derivatives and substitution.  Kept as
oracles: `lift_poly_deg1` is the degree-1 lift weight built by substituting
the conjugation matrix into a `Poly`, against which the τ-matrix kernel and
`yoshida1` are checked; `conjugation_entries` and `coords_of` read a product
of quaternions in frame coordinates one element at a time; `tau_matrix_sum`
is the one-group call of `harmonic.tau_matrix_stack` on an enumeration bucket.
`monomial_rows_by_powers`, `sym_power_by_scatter` and `lift_matrix_deg2_by_scatter`
build the monomial rows, S_ν(A) and the degree-2 lift weight the way `harmonic`
once did, by powers and a product and by dense 0/1 fold matrices (`scatter`,
`sym_steps`), against which its fold by index is checked.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache

import numpy as np

from quatlift import linalg, polys
from quatlift.harmonic import _steps, monomials_of_degree, tau_matrix_stack
from quatlift.linalg import INT64_SAFE


class Poly(polys.Poly):
    __slots__ = ()

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exps, c=1) -> "Poly":
        return cls(len(exps), {tuple(exps): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, polys.Poly):
            return self.scale(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly(self.nvars, out)

    def subs_polys(self, images: list["Poly"]) -> "Poly":
        """Substitute variable i -> images[i] (all over the same target ring).

        Horner's scheme: p = p(0) + Σ_i x_i·q_i with q_i the part of p whose
        first variable is x_i, divided by x_i, so images[i] multiplies the
        substituted q_i once rather than every monomial.
        """
        assert len(images) == self.nvars
        nv = images[0].nvars if images else self.nvars
        zero = (0,) * self.nvars
        out = Poly.constant(nv, self.coeffs.get(zero, 0))
        quotients: dict[int, dict] = {}
        for e, c in self.coeffs.items():
            if e != zero:
                i = next(i for i, k in enumerate(e) if k)
                quotients.setdefault(i, {})[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        for i, q in quotients.items():
            out = out + Poly(self.nvars, q).subs_polys(images) * images[i]
        return out

    def coefficient_vector(self, monomials) -> list[Fraction]:
        return [self.coeffs.get(tuple(m), Fraction(0)) for m in monomials]


def coords_of(frame, x) -> list[Fraction]:
    """The frame coordinates (t₁, t₂, t₃) of a trace-zero element x = Σ tᵢgᵢ."""
    t = linalg.vec_mat(list(x.coords), frame._solve)
    if t[3] != 0:
        raise ValueError("element is not trace-zero")
    return t[:3]


def conjugation_entries(frame, y: list) -> list:
    """C(y) flattened row-major, for algebra coordinates y (Fractions or `Poly`s)."""
    table, den = frame.conj_table
    # y_a·y_b is degree-2 monomial m with a = first[m] and b = parent[m]
    _, parent, first = _steps(4, 1)
    mono = [y[a] * y[b] for a, b in zip(first.tolist(), parent.tolist())]
    return [sum((m * Fraction(t[c], den) for m, t in zip(mono, table) if t[c]), mono[0] * 0)
            for c in range(9)]


def tau_matrix_sum(lattice, vecs, space) -> linalg.Matrix:
    """Σ of integral_tau_matrix(x, space) over x = the rows of `vecs` in lattice coordinates.

    `vecs` is a k×4 enumeration bucket (any signed integer dtype, or object);
    exact for any k ≥ 0.  The one-group call of `tau_matrix_stack`.
    """
    return tau_matrix_stack([(vecs, *linalg.integer_form(lattice.basis))], space)[0]


def lift_poly_deg1(space, u, v, lattice) -> Poly:
    """P(x) = ⟨⟨u·B, z ↦ (v·B)(x̄·z·x)⟩⟩ in lattice coordinates; degree 2ν, adapted-harmonic.

    u and v are coordinate rows of `space`: Σ_x P(x) over a cross lattice's
    shell is the Brandt-series entry `yoshida1` contracts.
    """
    # variables 0-3: lattice coordinates of x; 4-6: frame coordinates t of z
    x = [sum((Poly.variable(7, k) * row[col] for k, row in enumerate(lattice.basis) if row[col]),
             Poly.zero(7)) for col in range(4)]
    conj = conjugation_entries(space.frame, x)
    t = [Poly.variable(7, 4 + l) for l in range(3)]
    w = (linalg.frac_mat([v]) @ space.basis)[0]
    # z ↦ x̄·z·x is t ↦ t·C(x)
    image = Poly(3, dict(zip(space.monomials, w))).subs_polys(
        [t[0] * conj[k] + t[1] * conj[3 + k] + t[2] * conj[6 + k] for k in range(3)])
    # pair over z: the coefficient of z^β weighs in with (u·B·F)_β
    weights = dict(zip(space.monomials, (linalg.frac_mat([u]) @ space.basis
                                         @ space.monomial_pairing)[0]))
    total: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for e, c in image.coeffs.items():
        total[e[:4]] += c * weights[e[4:]]
    return Poly(4, total)


def monomial_rows_by_powers(v: np.ndarray, nu: int, dtype) -> np.ndarray:
    """M(v): the degree-ν monomials of each row as powers and a product, in
    `monomials_of_degree(v.shape[1], ν)` order."""
    exponents = np.array(monomials_of_degree(v.shape[1], nu), dtype=np.int64)
    return (v.astype(dtype)[:, None, :] ** exponents).prod(axis=2)


@cache
def scatter(nvars: int, e: int) -> np.ndarray:
    """0/1 matrix adding the product of degree-e monomial s and x_j, at row nvars·s + j,
    into its degree-(e+1) column (monomials in `monomials_of_degree(nvars, ·)` order)."""
    low, high = monomials_of_degree(nvars, e), monomials_of_degree(nvars, e + 1)
    index = {m: k for k, m in enumerate(high)}
    out = np.zeros((nvars * len(low), len(high)), dtype=np.int64)
    for s, m in enumerate(low):
        for j in range(nvars):
            out[nvars * s + j, index[tuple(k + (t == j) for t, k in enumerate(m))]] = 1
    return out


@cache
def sym_steps(nu: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per degree e < ν: (parent, first, scatter) that build S_{e+1}(A) from S_e(A).

    Row α of S_{e+1}(A) is the coefficient vector of (Ax)^α = (Ax)^(α − e_i)·(Ax)_i,
    i = first[α] the first variable of α and α − e_i = monomial parent[α] of
    degree e, both in 3 variables; `scatter` is `scatter(3, e)`.
    """
    steps = []
    for e in range(nu):
        low, high = monomials_of_degree(3, e), monomials_of_degree(3, e + 1)
        first = [next(i for i, k in enumerate(m) if k) for m in high]
        parent = [low.index(tuple(k - (j == i) for j, k in enumerate(m)))
                  for m, i in zip(high, first)]
        steps.append((np.array(parent), np.array(first), scatter(3, e)))
    return tuple(steps)


def sym_power_by_scatter(a: np.ndarray, nu: int) -> np.ndarray:
    """S_ν(A) for every 3×3 matrix A of the stack a (k×3×3), in a's dtype, each
    step's product folded by the dense `scatter` matrix."""
    s = np.ones((len(a), 1, 1), dtype=a.dtype)
    for parent, first, fold in sym_steps(nu):
        prod = s[:, parent, :, None] * a[:, first, None, :]
        s = prod.reshape(len(a), len(parent), -1) @ fold.astype(a.dtype)
    return s


def lift_matrix_deg2_by_scatter(space, coords_rows, lattice) -> list[linalg.Matrix]:
    """`harmonic.lift_matrix_deg2` for each coordinate row of `coords_rows`, each
    Kronecker step folded by the dense `scatter(4, e)` matrices.

    The recursion over γ does not depend on the row, so it runs once, in int64
    while the bound of `lift_matrix_deg2` holds for every row.
    """
    nu = space.nu
    rows = [linalg.integer_form(linalg.frac_mat([c]) @ space.basis) for c in coords_rows]
    table, basis = space.frame.pim_table, lattice.basis
    a = basis.num @ table.num.reshape(4, 4, 3).transpose(2, 0, 1) @ basis.num.T
    peak = max(sum(map(abs, vq[0])) for vq, _ in rows) * (16 * int(np.abs(a).max())) ** nu
    dtype = np.int64 if peak < INT64_SAFE else object
    a = a.astype(dtype)
    q = np.ones((1, 1, 1), dtype=dtype)
    for e, (parent, first, _) in enumerate(sym_steps(nu)):
        # row 4α + i, column 4β + j: the coefficient of x₁^α·x₂^β times A_l[i, j]
        size = 4 * q.shape[1]
        kron = q[parent][:, :, None, :, None] * a[first][:, None, :, None, :]
        fold = scatter(4, e).astype(dtype)
        q = fold.T @ kron.reshape(len(parent), size, size) @ fold
    return [linalg.Matrix((np.array(vq[0], dtype=dtype)[:, None, None] * q).sum(axis=0),
                          vden * (basis.den ** 2 * table.den) ** nu) for vq, vden in rows]
