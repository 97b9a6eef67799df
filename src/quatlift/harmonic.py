"""Harmonic polynomials on the trace-zero part of a definite quaternion algebra.

The degree-ν space U_ν is the kernel of the Laplacian adapted to the rational
Gram matrix of a trace-zero frame (never an orthonormal real frame, so all
arithmetic stays exact).  Also provides the conjugation action, the Fischer
pairing with adapted gradient, and the lift weights of the theta series.

Every quaternion product here is read off one of two per-frame tables built
once from `QuaternionAlgebra.products`: `conj_table` (ȳ·g_l·y as quadratic
forms in y) for the τ-matrices and the degree-1 weight `lift_poly_deg1`, and
`pim_table` (pim(x̄₁·x₂) as bilinear forms) for the degree-2 weight, which
`lift_matrix_deg2` returns as the matrix C of m_ν(x₁)ᵗ·C·m_ν(x₂) that the
theta kernel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import linalg
from .linalg import INT64_SAFE
from .polys import Poly, monomials_of_degree
from .quatcore import Lattice, QuatElement, QuaternionAlgebra, UsageError


# the variables (a, b) of each degree-2 monomial y_a·y_b, in `monomials_of_degree(4, 2)` order
_QUAD_PAIRS = [tuple(i for i, k in enumerate(e) for _ in range(k))
               for e in monomials_of_degree(4, 2)]


class TraceZeroFrame:
    """A rational basis g₁, g₂, g₃ of the trace-zero subspace with its Gram matrix."""

    def __init__(self, algebra: QuaternionAlgebra, elements: list[QuatElement]):
        if len(elements) != 3 or any(e.trace() != 0 for e in elements):
            raise ValueError("frame must consist of 3 trace-zero elements")
        self.algebra = algebra
        self.elements = elements
        self._rows = linalg.frac_mat([e.coords for e in elements])
        self.gram = self._rows @ algebra.bilinear @ self._rows.T
        self.gram_inv = linalg.inverse(self.gram)
        # coords(x) · _solve = (t₁, t₂, t₃, s) with x = Σ tᵢgᵢ + s·1
        self._solve = linalg.inverse(linalg.vstack([self._rows, [algebra.one]]))

    def coords_of(self, x: QuatElement) -> list[Fraction]:
        t = linalg.vec_mat(list(x.coords), self._solve)
        if t[3] != 0:
            raise ValueError("element is not trace-zero")
        return t[:3]

    @cached_property
    def conj_table(self) -> tuple[list[list[int]], int]:
        """(T, den) with C(y) = m₂(y)·T/den, C flattened row-major to 9 columns.

        C(y) is the conjugation matrix (row l = frame coordinates of ȳ·g_l·y);
        its entries are quadratic forms in y's algebra coordinates, and m₂(y)
        holds their degree-2 monomials in `monomials_of_degree(4, 2)` order.
        """
        alg = self.algebra
        # entry [a, l, b] holds the frame coordinates (and trace part) of f̄_a·g_l·f_b
        sandwich = alg.products(alg.products(alg.conj_matrix, self._rows), linalg.identity(4))
        coords = sandwich @ self._solve
        t = coords.num.reshape(4, 3, 4, 4)
        rows = []
        for a, b in _QUAD_PAIRS:
            # the coefficient of y_a·y_b in ȳ·g·y (the polarization when a ≠ b)
            x = t[a, :, b] + t[b, :, a] if a != b else t[a, :, a]
            if x[:, 3].any():
                raise ValueError("element is not trace-zero")
            rows.append(x[:, :3].ravel())
        return linalg.integer_form(linalg.Matrix(np.array(rows), coords.den))

    @cached_property
    def pim_table(self) -> linalg.Matrix:
        """T with pim(x̄·y) = x·T_l·yᵗ in frame coordinate l, T_l = column l as 4×4.

        Row 4a + b holds the frame coordinates of pim(f̄_a·f_b), where
        pim(u) = u − tr(u)/2 is the projection to the trace-zero part.
        """
        alg = self.algebra
        coords = alg.products(alg.conj_matrix, linalg.identity(4)) @ self._solve
        # the last column is the scalar part, which pim drops
        return linalg.Matrix(coords.num[:, :3], coords.den)

    def __eq__(self, other):
        return (isinstance(other, TraceZeroFrame) and self.algebra is other.algebra
                and all(a == b for a, b in zip(self.elements, other.elements)))

    def __hash__(self):
        return hash(tuple(e.coords for e in self.elements))


def default_frame(algebra: QuaternionAlgebra) -> TraceZeroFrame:
    """Frame spanned by the trace-zero parts of the algebra basis (first 3 independent)."""
    one = algebra.unit()
    cands = []
    for i in range(4):
        f = algebra.basis_element(i)
        g = f - one * (f.trace() / 2)
        if not g.is_zero():
            cands.append(g)
    for skip in range(len(cands) - 2):
        chosen = cands[skip:skip + 3]
        rows = [list(e.coords) for e in chosen]
        if linalg.rank(rows) == 3:
            return TraceZeroFrame(algebra, chosen)
    raise ValueError("could not build a trace-zero frame")


@dataclass(frozen=True)
class HarmonicPoly:
    frame: TraceZeroFrame
    poly: Poly

    @property
    def degree(self) -> int:
        return self.poly.degree()

    def __call__(self, x: QuatElement) -> Fraction:
        return self.poly.eval(self.frame.coords_of(x))


def adapted_laplacian(poly: Poly, gram_inv) -> Poly:
    out = Poly.zero(poly.nvars)
    n = len(gram_inv)
    for i in range(n):
        for j in range(n):
            if gram_inv[i][j]:
                out = out + poly.diff(i).diff(j) * gram_inv[i][j]
    return out


class HarmSpace:
    """Basis of the 2ν+1 dimensional space of degree-ν adapted-harmonic polynomials."""

    def __init__(self, nu: int, frame: TraceZeroFrame):
        self.nu = nu
        self.frame = frame
        self.monomials = monomials_of_degree(3, nu)
        self.basis = self._harmonic_basis()
        self._basis_mat = [p.coefficient_vector(self.monomials) for p in self.basis]

    def _harmonic_basis(self) -> list[Poly]:
        nu = self.nu
        if nu == 0:
            return [Poly.constant(3, 1)]
        lower = monomials_of_degree(3, nu - 2) if nu >= 2 else []
        rows = []
        for tgt in lower:
            row = []
            for mono in self.monomials:
                p = adapted_laplacian(Poly.monomial(mono), self.frame.gram_inv)
                row.append(p.coeffs.get(tgt, Fraction(0)))
            rows.append(row)
        if not rows:
            rows = [[Fraction(0)] * len(self.monomials)]
        kernel = linalg.nullspace(rows)
        basis = []
        for v in kernel:
            p = Poly(3, {m: c for m, c in zip(self.monomials, v) if c})
            basis.append(p.primitive())
        assert len(basis) == 2 * nu + 1
        return basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def poly_from_coords(self, coords) -> Poly:
        acc = Poly.zero(3)
        for c, p in zip(coords, self.basis):
            if c:
                acc = acc + p * Fraction(c)
        return acc

    def coords_of_poly(self, poly: Poly) -> list[Fraction]:
        target = poly.coefficient_vector(self.monomials)
        sol = linalg.solve(linalg.transpose(self._basis_mat), target)
        if sol is None:
            raise ValueError("polynomial is not in the harmonic space")
        return sol

    @cached_property
    def tau_factors(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(B', R', d): B = B'/d_B and a right inverse R = R'/d_R of it, d = d_B·d_R.

        B is `_basis_mat`; B', R' are object arrays of Python ints.  R = Bᵗ(BBᵗ)⁻¹.
        """
        bq, db = linalg.integer_form(self._basis_mat)
        rq, dr = linalg.integer_form(linalg.right_inverse(self._basis_mat))
        return np.array(bq, dtype=object), np.array(rq, dtype=object), db * dr

    @cached_property
    def pairing_matrix(self) -> linalg.Matrix:
        return [[pairing_polys(p, q, self.frame.gram_inv) for q in self.basis]
                for p in self.basis]

    def pair_coords(self, u, v) -> Fraction:
        m = self.pairing_matrix
        return sum(Fraction(u[i]) * m[i][j] * Fraction(v[j])
                   for i in range(self.dim) for j in range(self.dim))


def harm_basis(nu: int, frame: TraceZeroFrame) -> HarmSpace:
    return HarmSpace(nu, frame)


def _apply_adapted_gradient(values: dict, i: int, gram_inv, nvars: int) -> dict:
    """Apply D_i = Σ_j ginv[i][j]·∂_j to a dict {exponent tuple: coefficient}."""
    out: dict = {}
    for e, val in values.items():
        for j in range(nvars):
            if e[j] and gram_inv[i][j]:
                e2 = list(e)
                e2[j] -= 1
                contrib = val * (gram_inv[i][j] * e[j])
                key = tuple(e2)
                out[key] = out[key] + contrib if key in out else contrib
    return out


def pairing_polys(v: Poly, w: Poly, gram_inv) -> Fraction:
    """Fischer pairing with adapted gradient: (v(D)·w)(0), normalized so ⟨⟨1,1⟩⟩ = 1."""
    nvars = v.nvars
    total = Fraction(0)
    zero = tuple([0] * nvars)
    for e, c in v.coeffs.items():
        values: dict = dict(w.coeffs)
        for i in range(nvars):
            for _ in range(e[i]):
                values = _apply_adapted_gradient(values, i, gram_inv, nvars)
        if zero in values:
            total += c * values[zero]
    return total


def pairing(v: HarmonicPoly, w: HarmonicPoly) -> Fraction:
    if v.frame != w.frame:
        raise UsageError("polynomials live on different frames")
    if v.poly.degree() != w.poly.degree() and not (v.poly.is_zero() or w.poly.is_zero()):
        raise UsageError("pairing requires equal degrees")
    return pairing_polys(v.poly, w.poly, v.frame.gram_inv)


def _conjugation_entries(frame: TraceZeroFrame, y: list) -> list:
    """C(y) flattened row-major, for algebra coordinates y (Fractions or `Poly`s)."""
    table, den = frame.conj_table
    mono = [y[a] * y[b] for a, b in _QUAD_PAIRS]
    return [sum((m * Fraction(t[c], den) for m, t in zip(mono, table) if t[c]), mono[0] * 0)
            for c in range(9)]


def conjugation_matrix(y: QuatElement, frame: TraceZeroFrame) -> linalg.Matrix:
    """3×3 matrix C with frame-coords(ȳ·g_l·y) in row l (so z ↦ ȳzy is t ↦ t·C)."""
    flat = _conjugation_entries(frame, y.coords)
    return [flat[3 * l:3 * l + 3] for l in range(3)]


def integral_tau_poly(y: QuatElement, hp: HarmonicPoly) -> HarmonicPoly:
    """P ↦ P(ȳ·z·y), the integral form n(y)^ν·τ(y) of the conjugation action."""
    c = conjugation_matrix(y, hp.frame)
    return HarmonicPoly(hp.frame, hp.poly.subs_linear(linalg.transpose(c)))


def tau_action(y: QuatElement, hp: HarmonicPoly) -> HarmonicPoly:
    """(τ(y)P)(z) = P(y⁻¹·z·y); exact, defined for any invertible y."""
    n = y.norm()
    if not n:
        raise UsageError("cannot act by an element of norm 0")
    nu = hp.degree
    return HarmonicPoly(hp.frame, integral_tau_poly(y, hp).poly.scale(Fraction(1) / n ** nu))


def integral_tau_matrix(y: QuatElement, space: HarmSpace) -> linalg.Matrix:
    """Matrix of P ↦ P(ȳ·z·y) on the U_ν basis (row convention: coords' = coords·M)."""
    row, den = linalg.integer_form([y.coords])
    return _tau_sum(np.array(row, dtype=object), _IDENTITY, den, space)


def tau_matrix_sum(lattice: Lattice, vecs, space: HarmSpace) -> linalg.Matrix:
    """Σ of integral_tau_matrix(x, space) over x = the rows of `vecs` in lattice coordinates.

    `vecs` is a k×4 enumeration bucket (int64 or object); exact for any k ≥ 0.
    """
    return _tau_sum(vecs, *linalg.integer_form(lattice.basis), space)


_IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]


@cache
def _exponents(nu: int) -> np.ndarray:
    return np.array(monomials_of_degree(4, nu), dtype=np.int64)


def _monomial_rows(v: np.ndarray, nu: int, dtype) -> np.ndarray:
    """M(v): the degree-ν monomials of each row, in `monomials_of_degree(4, ν)` order."""
    if nu == 1 and v.dtype == dtype:
        return v  # the bucket itself; M(v) = v
    return (v.astype(dtype, copy=False)[:, None, :] ** _exponents(nu)).prod(axis=2)


@cache
def _scatter(nvars: int, e: int) -> np.ndarray:
    """0/1 matrix adding the product of degree-e monomial s and x_j, at row nvars·s + j,
    into its degree-(e+1) column (monomials in `monomials_of_degree(nvars, ·)` order)."""
    low, high = monomials_of_degree(nvars, e), monomials_of_degree(nvars, e + 1)
    index = {m: k for k, m in enumerate(high)}
    scatter = np.zeros((nvars * len(low), len(high)), dtype=np.int64)
    for s, m in enumerate(low):
        for j in range(nvars):
            scatter[nvars * s + j, index[tuple(k + (t == j) for t, k in enumerate(m))]] = 1
    return scatter


@cache
def _sym_steps(nu: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per degree e < ν: (parent, first, scatter) that build S_{e+1}(A) from S_e(A).

    Row α of S_{e+1}(A) is the coefficient vector of (Ax)^α = (Ax)^(α − e_i)·(Ax)_i,
    i = first[α] the first variable of α and α − e_i = monomial parent[α] of
    degree e, both in 3 variables; `scatter` is `_scatter(3, e)`.
    """
    steps = []
    for e in range(nu):
        low, high = monomials_of_degree(3, e), monomials_of_degree(3, e + 1)
        first = [next(i for i, k in enumerate(m) if k) for m in high]
        parent = [low.index(tuple(k - (j == i) for j, k in enumerate(m)))
                  for m, i in zip(high, first)]
        steps.append((np.array(parent), np.array(first), _scatter(3, e)))
    return tuple(steps)


def _tau_sum(vecs, basis: list[list[int]], den: int, space: HarmSpace) -> linalg.Matrix:
    """Σ over rows v of B·S_ν(C(y)ᵗ)·R for y = v·basis/den (integer basis rows).

    S_ν(A) is the matrix of z ↦ Az on degree-ν monomials in 3 variables, so
    B·S_ν(C(y)ᵗ)·R is the τ-matrix of y; it is linear in S, so the rows are
    summed before the exact rational product.  With a = v·basis the integer
    C(a) = m₂(a)·T equals den_T·den²·C(y), and S_ν is homogeneous of degree ν.
    int64 when a bound on every integer formed stays below 2⁶², object arrays
    of Python ints otherwise.
    """
    nu = space.nu
    bq, rq, den_br = space.tau_factors
    if not len(vecs):
        return linalg.zeros(space.dim, space.dim)
    vecs = np.asarray(vecs)
    table, den_t = space.frame.conj_table
    amax = int(np.abs(vecs).max()) * max(sum(abs(row[c]) for row in basis) for c in range(4))
    cmax = amax * amax * max(sum(abs(row[c]) for row in table) for c in range(9))
    peak = max(amax, cmax, len(vecs) * (3 * cmax) ** nu)
    dtype = np.int64 if peak < INT64_SAFE else object
    a = vecs.astype(dtype) @ np.array(basis, dtype=dtype)
    c = (_monomial_rows(a, 2, dtype) @ np.array(table, dtype=dtype)).reshape(-1, 3, 3)
    ct = c.transpose(0, 2, 1)
    s = np.ones((len(vecs), 1, 1), dtype=dtype)
    for parent, first, scatter in _sym_steps(nu):
        prod = s[:, parent, :, None] * ct[:, first, None, :]
        s = prod.reshape(len(vecs), len(parent), -1) @ scatter.astype(dtype)
    total = bq @ s.sum(axis=0).astype(object) @ rq
    return linalg.Matrix(total, den_br * (den_t * den * den) ** nu)


def lift_matrix_deg2(v: HarmonicPoly, lattice: Lattice) -> linalg.Matrix:
    """C with P_v(x₁, x₂) = v(pim(x̄₁·x₂)) = m_ν(x₁)ᵗ·C·m_ν(x₂), x in lattice coordinates.

    m_ν(x) holds the degree-ν monomials of x's 4 coordinates in
    `monomials_of_degree(4, ν)` order; ν = 0 gives [[v]].  Frame coordinate l of
    pim(x̄₁·x₂) is x₁·A_l·x₂ᵗ with A_l = B·T_l·Bᵗ (B the basis, T from
    `pim_table`), so C = Σ_γ v_γ·A_{l₁} ⊗ … ⊗ A_{l_ν}, folded after each Kronecker
    step onto monomials of the next degree (the `_sym_steps` recursion on γ), so
    no 4^ν × 4^ν array is formed.  Integer arrays over one denominator: int64
    while a bound on every integer formed stays below 2⁶², Python ints past it.
    """
    nu = v.degree
    coeffs = v.poly.coefficient_vector(monomials_of_degree(3, nu))
    if sum(map(bool, coeffs)) != len(v.poly.coeffs):
        raise ValueError("the harmonic polynomial is not homogeneous")
    vq, vden = linalg.integer_form([coeffs])
    table, basis = v.frame.pim_table, lattice.basis
    b = basis.num.astype(object)
    a = b @ table.num.astype(object).reshape(4, 4, 3).transpose(2, 0, 1) @ b.T
    # Σ|coefficients| of a product of polynomials is at most the product of theirs
    peak = sum(map(abs, vq[0])) * (16 * int(np.abs(a).max())) ** nu
    dtype = np.int64 if peak < INT64_SAFE else object
    a = a.astype(dtype)
    q = np.ones((1, 1, 1), dtype=dtype)
    for e, (parent, first, _) in enumerate(_sym_steps(nu)):
        # row 4α + i, column 4β + j: the coefficient of x₁^α·x₂^β times A_l[i, j]
        size = 4 * q.shape[1]
        kron = q[parent][:, :, None, :, None] * a[first][:, None, :, None, :]
        fold = _scatter(4, e).astype(dtype)
        q = fold.T @ kron.reshape(len(parent), size, size) @ fold
    c = (np.array(vq[0], dtype=dtype)[:, None, None] * q).sum(axis=0)
    return linalg.Matrix(c, vden * (basis.den ** 2 * table.den) ** nu)


def lift_poly_deg2(v: HarmonicPoly, lattice: Lattice) -> Poly:
    """P_v(x₁, x₂) = v(pim(x̄₁·x₂)) in lattice coordinates (x₁ = vars 0-3, x₂ = vars 4-7).

    The `Poly` view of `lift_matrix_deg2`.  Bilinear of bidegree (ν, ν),
    alternating for odd ν, and annihilated by both adapted 4-variable Laplacians.
    """
    monos = monomials_of_degree(4, v.degree)
    c = lift_matrix_deg2(v, lattice)
    return Poly(8, {e1 + e2: x for e1, row in zip(monos, c) for e2, x in zip(monos, row)})


def lift_poly_deg1(v1: HarmonicPoly, v2: HarmonicPoly, lattice: Lattice) -> Poly:
    """P(x) = ⟨⟨v₁, z ↦ v₂(x̄·z·x)⟩⟩ in lattice coordinates; degree 2ν, adapted-harmonic."""
    if v1.frame != v2.frame:
        raise UsageError("lift factors live on different frames")
    if v1.degree != v2.degree:
        raise UsageError("lift factors must have equal degree")
    frame = v1.frame
    # variables 0-3: lattice coordinates of x; 4-6: frame coordinates t of z
    x = [sum((Poly.variable(7, k) * row[col] for k, row in enumerate(lattice.basis) if row[col]),
             Poly.zero(7)) for col in range(4)]
    conj = _conjugation_entries(frame, x)
    t = [Poly.variable(7, 4 + l) for l in range(3)]
    # z ↦ x̄·z·x is t ↦ t·C(x)
    w = v2.poly.subs_polys([t[0] * conj[k] + t[1] * conj[3 + k] + t[2] * conj[6 + k]
                            for k in range(3)])
    # split into z-monomials with Poly(4) values, then pair against v1 over z
    values: dict[tuple[int, int, int], Poly] = {}
    for e, c in w.coeffs.items():
        zpart = e[4:7]
        xpart = e[:4]
        poly = Poly(4, {xpart: c})
        values[zpart] = values[zpart] + poly if zpart in values else poly
    zero = (0, 0, 0)
    total = Poly.zero(4)
    for e, c in v1.poly.coeffs.items():
        vals = values
        for i in range(3):
            for _ in range(e[i]):
                vals = _apply_adapted_gradient(vals, i, frame.gram_inv, 3)
        if zero in vals:
            total = total + vals[zero] * c
    return total
