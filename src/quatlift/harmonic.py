"""Harmonic polynomials on the trace-zero part of a definite quaternion algebra.

A degree-ν polynomial is a row of coefficients over `monomials_of_degree(3, ν)`.
The degree-ν space U_ν is the kernel of the Laplacian adapted to the rational
Gram matrix of a trace-zero frame (never an orthonormal real frame, so all
arithmetic stays exact), as an integer basis matrix.  Also provides the
conjugation action as τ-matrices, the Fischer pairing with adapted gradient as
a Gram matrix, and the degree-2 lift weight of the theta series.  `Poly`
appears only in the reference `lift_poly_deg2`.

Every quaternion product here is read off one of two per-frame tables built
once from `QuaternionAlgebra.products`: `conj_table` (ȳ·g_l·y as quadratic
forms in y) for the τ-matrices, which also give the degree-1 weight, and
`pim_table` (pim(x̄₁·x₂) as bilinear forms) for the degree-2 weight, which
`lift_matrix_deg2` returns as the matrix C of m_ν(x₁)ᵗ·C·m_ν(x₂) that the
theta kernel reads.  Every τ-matrix comes from `tau_matrix_stack`, which
takes a list of row groups (enumeration buckets of a lattice, or single
elements as `tau_group`s) and returns one sum per group from one numpy pass;
`integral_tau_matrix` is its one-element call.  The kernels over many rows,
`tau_matrix_stack` and `lift_matrix_deg2`, keep int64 guards; every
`linalg.Matrix` holds Python ints.  Every symmetric power (S_ν, the lift weight's
Kronecker folds, monomial rows) reads one monomial table, `_steps`, and `_fold`
adds each product straight into its monomial's entry by index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import linalg
from .linalg import INT64_SAFE
from .polys import Poly
from .quatcore import Lattice, QuatElement, QuaternionAlgebra, require_int


def monomials_of_degree(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree deg, in deterministic (descending lex) order."""
    if nvars == 1:
        return [(deg,)]
    out = []
    for k in range(deg, -1, -1):
        for rest in monomials_of_degree(nvars - 1, deg - k):
            out.append((k,) + rest)
    return out


@cache
def _steps(nvars: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mult, parent, first) from the degree-e to the degree-(e+1) monomials in
    `monomials_of_degree(nvars, ·)` order, the one table every monomial index here
    comes from: mult[s, j] is the index of s·x_j, and monomial m of degree e + 1
    is parent[m]·x_first[m], x_first[m] its first variable."""
    low, high = monomials_of_degree(nvars, e), monomials_of_degree(nvars, e + 1)
    index = {m: k for k, m in enumerate(high)}
    mult = np.array([[index[m[:j] + (m[j] + 1,) + m[j + 1:]] for j in range(nvars)]
                     for m in low])
    first = np.array([next(j for j, k in enumerate(m) if k) for m in high])
    parent = np.empty_like(first)
    s, j = np.nonzero(first[mult] == np.arange(nvars))
    parent[mult[s, j]] = s
    return mult, parent, first


def _fold(prod: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Σ of prod[s, j, ...] (degree-e monomial s times x_j) into degree-(e+1) row
    mult[s, j].  For a fixed j, s ↦ s·x_j is one-to-one, so one fancy-index add
    per variable, of whole rows, is exact, on int64 and on Python ints alike."""
    out = np.zeros((int(mult.max()) + 1,) + prod.shape[2:], dtype=prod.dtype)
    for j in range(mult.shape[1]):
        out[mult[:, j]] += prod[:, j]
    return out


class TraceZeroFrame:
    """A rational basis g₁, g₂, g₃ of the trace-zero subspace with its Gram matrix,
    and its harmonic spaces, one per ν, in `spaces`."""

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
        self.spaces: dict[int, HarmSpace] = {}

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
        # y_a·y_b, a ≤ b, is degree-2 monomial m with a = first[m] and b = parent[m]
        _, parent, first = _steps(4, 1)
        for a, b in zip(first.tolist(), parent.tolist()):
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


@cache
def default_frame(algebra: QuaternionAlgebra) -> TraceZeroFrame:
    """Frame spanned by the trace-zero parts of the algebra basis (first 3 independent).

    One frame per algebra, shared by every caller, so that its product tables
    and harmonic spaces are built once; nothing may mutate it but `HarmSpace`,
    which adds each space to `spaces`.
    """
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


def laplacian_matrix(gram_inv, nu: int, nvars: int) -> linalg.Matrix:
    """The adapted Laplacian Σ_ij ginv_ij·∂_i∂_j from degree ν to degree ν − 2.

    Column α and row α − e_i − e_j, monomials in `monomials_of_degree(nvars, ·)`
    order, get ginv_ij·α_i(α_j − δ_ij); there are no rows below ν = 2.  A
    coefficient row v is harmonic when L·vᵗ = 0.
    """
    g = linalg.frac_mat(gram_inv)
    high = monomials_of_degree(nvars, nu)
    low = monomials_of_degree(nvars, nu - 2) if nu >= 2 else []
    num = np.zeros((len(low), len(high)), dtype=object)
    if low:
        # column α = row·x_i·x_j, for every row and every ordered (i, j)
        once, twice = _steps(nvars, nu - 2)[0], _steps(nvars, nu - 1)[0]
        for (row, i), mid in np.ndenumerate(once):
            for j, col in enumerate(twice[mid].tolist()):
                alpha = high[col]
                num[row, col] += int(g.num[i, j]) * alpha[i] * (alpha[j] - (i == j))
    return linalg.Matrix(num, g.den)


class HarmSpace:
    """The (2ν+1)-dimensional space U_ν of degree-ν adapted-harmonic polynomials.

    A polynomial is a row of coefficients over `monomials`, the degree-ν
    monomials in the 3 frame coordinates.  `basis` is the integer matrix B of
    the basis polynomials: the kernel of `laplacian_matrix`, each row primitive
    with its last nonzero entry (the lex-smallest monomial) positive.  A form
    value is a coordinate row u, the polynomial u·B.  One per (frame, ν), built on
    first use and kept in `frame.spaces`.
    """

    def __new__(cls, nu: int, frame: TraceZeroFrame) -> "HarmSpace":
        nu = require_int(nu, "harmonic degree")
        if nu not in frame.spaces:
            self = super().__new__(cls)
            self.nu = nu
            self.frame = frame
            self.monomials = monomials_of_degree(3, nu)
            kernel = linalg.nullspace(laplacian_matrix(frame.gram_inv, nu, 3))
            flipped = linalg.primitive_rows(linalg.Matrix(kernel.num[:, ::-1]))
            self.basis = linalg.Matrix(flipped.num[:, ::-1])
            frame.spaces[nu] = self
        return frame.spaces[nu]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def tau_factors(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(B, R', d): the basis B and a right inverse R = R'/d of it, R = Bᵗ(BBᵗ)⁻¹.

        B and R' are object arrays of Python ints, as every `Matrix` numerator is.
        """
        r = linalg.right_inverse(self.basis)
        return self.basis.num, r.num, r.den

    @cached_property
    def monomial_pairing(self) -> linalg.Matrix:
        """F = S_ν(G⁻¹)·diag(γ!): ⟨⟨v, w⟩⟩ = v·F·wᵗ on coefficient rows.

        The Fischer pairing with adapted gradient, (v(D)·w)(0) for
        D_i = Σ_j ginv_ij·∂_j, normalized so that ⟨⟨1, 1⟩⟩ = 1: D^α expands
        into ∂^γ by row α of S_ν(G⁻¹), and ∂^γ·x^β at 0 is γ!·δ_γβ.
        """
        g = self.frame.gram_inv
        s = _sym_power(g.num[None], self.nu)[0]
        factorials = [math.prod(map(math.factorial, gamma)) for gamma in self.monomials]
        return linalg.Matrix(s * np.array(factorials, dtype=object), g.den ** self.nu)

    @cached_property
    def pairing_matrix(self) -> linalg.Matrix:
        return self.basis @ self.monomial_pairing @ self.basis.T

    @cached_property
    def pairing_inverse(self) -> linalg.Matrix:
        return linalg.inverse(self.pairing_matrix)

    def pair_coords(self, u, v) -> Fraction:
        """⟨⟨u·B, v·B⟩⟩ for coordinate rows u and v."""
        return (linalg.frac_mat([u]) @ self.pairing_matrix @ linalg.frac_mat([v]).T)[0][0]


_IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]


def tau_group(y: QuatElement) -> tuple[np.ndarray, list[list[int]], int]:
    """y as a one-row group of `tau_matrix_stack`: the group's sum is y's τ-matrix."""
    row, den = linalg.integer_form([y.coords])
    return np.array(row, dtype=object), _IDENTITY, den


def integral_tau_matrix(y: QuatElement, space: HarmSpace) -> linalg.Matrix:
    """Matrix of P ↦ P(ȳ·z·y) on the U_ν basis (row convention: coords' = coords·M).

    The one-element call of `tau_matrix_stack`; callers with several elements
    stack their `tau_group`s in one call instead.
    """
    return tau_matrix_stack([tau_group(y)], space)[0]


def _monomial_rows(v: np.ndarray, nu: int, dtype) -> np.ndarray:
    """M(v): the degree-ν monomials of each row, in `monomials_of_degree(4, ν)` order,
    built as M_{e+1} = M_e[:, parent]·v[:, first] from the `_steps` table."""
    v = v.astype(dtype, copy=False)
    m = v if nu else np.ones((len(v), 1), dtype=dtype)  # at ν = 1 the bucket itself; M(v) = v
    for e in range(1, nu):
        _, parent, first = _steps(v.shape[1], e)
        m = m[:, parent] * v[:, first]
    return m


def _sym_power(a: np.ndarray, nu: int) -> np.ndarray:
    """S_ν(A) for every 3×3 matrix A of the stack a (k×3×3), in a's dtype.

    Row α of S_ν(A) is the coefficient vector of (Ax)^α, (Ax)_i = Σ_j A_ij·x_j,
    over the degree-ν monomials: the matrix of z ↦ Az on them.  Row α of
    S_{e+1}(A) is that of (Ax)^(α − e_i)·(Ax)_i, i = first[α] and α − e_i =
    parent[α] from `_steps(3, e)`, folded onto degree e + 1 by `_fold`, on the
    transposes s[β, α, k] = S(A_k)[α, β] so that the fold adds whole rows.
    """
    s = at = a.transpose(2, 1, 0)  # S₁(A) = A
    for e in range(1, nu):
        mult, parent, first = _steps(3, e)
        s = _fold(s[:, None, parent, :] * at[None, :, first, :], mult)
    return s.transpose(2, 1, 0) if nu else np.ones((len(a), 1, 1), dtype=a.dtype)


def _abs_column_sum(rows) -> int:
    """max over the columns of Σ|entry|, for integer rows."""
    return int(np.abs(np.array(rows, dtype=object)).sum(axis=0).max())


def tau_matrix_stack(groups, space: HarmSpace) -> list[linalg.Matrix]:
    """One τ-matrix sum per group (vecs, basis, den): Σ over the rows v of vecs of
    the τ-matrix of y = v·basis/den, for a k×4 integer block vecs (k ≥ 0, any
    signed integer dtype or object), integer basis rows and a positive den.

    The τ-matrix of y is B·S_ν(C(y)ᵗ)·R with S_ν(A) from `_sym_power`; it is
    linear in S, so each group's rows are summed before the exact product.
    With a = v·basis the integer C(a) = m₂(a)·T equals den_T·den²·C(y), and S_ν
    is homogeneous of degree ν.  One numpy pass serves the whole stack: a per
    row against its group's basis, then one C, one S_ν and one segmented sum
    over the concatenated rows, and one stacked product B·S·R.  a and C run in
    int64 while amax²·Σ|T|, amax the largest max|v|·(column sum of |basis|) of
    any group, stays below 2⁶², and S_ν while the longest group's length times
    (3·max|C|)^ν, from the computed C, does; each runs on object arrays of
    Python ints otherwise, for the whole stack.  At ν = 0, S₀ = 1 reads no C,
    and each group's sum is its row count.  An empty group gives the zero
    matrix.
    """
    nu, dim = space.nu, space.dim
    full = [(np.asarray(v), b, d) for v, b, d in groups if len(v)]
    if not full:
        return [linalg.zeros(dim, dim) for _ in groups]
    bq, rq, den_r = space.tau_factors
    table, den_t = space.frame.conj_table
    sizes = [len(v) for v, _, _ in full]
    if nu == 0:
        s = np.array(sizes, dtype=object)[:, None, None]  # S₀ = 1: each group's row count
    else:
        starts = np.cumsum([0] + sizes[:-1])
        vecs = np.concatenate([v for v, _, _ in full])
        if vecs.dtype != object:
            vecs = vecs.astype(np.int64)
        bases = np.array([b for _, b, _ in full], dtype=object)
        group_max = np.maximum.reduceat(np.abs(vecs).max(axis=1).astype(object), starts)
        amax = int((group_max * np.abs(bases).sum(axis=1).max(axis=1)).max())
        dtype = np.int64 if amax * amax * _abs_column_sum(table) < INT64_SAFE else object
        rows = np.repeat(bases.astype(dtype), sizes, axis=0)
        a = (vecs.astype(dtype)[:, :, None] * rows).sum(axis=1)
        c = (_monomial_rows(a, 2, dtype) @ np.array(table, dtype=dtype)).reshape(-1, 3, 3)
        if c.dtype != object and max(sizes) * (3 * int(np.abs(c).max())) ** nu >= INT64_SAFE:
            c = c.astype(object)
        s = np.add.reduceat(_sym_power(c.transpose(0, 2, 1), nu), starts, axis=0)
    totals = iter(bq @ s.astype(object) @ rq)
    return [linalg.Matrix(next(totals), den_r * (den_t * den * den) ** nu) if len(v)
            else linalg.zeros(dim, dim) for v, _, den in groups]


def lift_matrix_deg2(space: HarmSpace, coords, lattice: Lattice) -> linalg.Matrix:
    """C with P_v(x₁, x₂) = v(pim(x̄₁·x₂)) = m_ν(x₁)ᵗ·C·m_ν(x₂), x in lattice coordinates.

    v = coords·B is the harmonic polynomial with coordinate row `coords` in
    `space`.  m_ν(x) holds the degree-ν monomials of x's 4 coordinates in
    `monomials_of_degree(4, ν)` order; ν = 0 gives [[v]].  Frame coordinate l of
    pim(x̄₁·x₂) is x₁·A_l·x₂ᵗ with A_l = L·T_l·Lᵗ (L the lattice basis, T from
    `pim_table`), so C = Σ_γ v_γ·A_{l₁} ⊗ … ⊗ A_{l_ν}, folded after each Kronecker
    step onto monomials of the next degree (the `_steps` recursion on γ; each
    side of the product added by index, `_fold`), so no 4^ν × 4^ν array is formed.
    Integer arrays over one denominator: int64 while a bound on every integer
    formed stays below 2⁶², Python ints past it.
    """
    nu = space.nu
    vq, vden = linalg.integer_form(linalg.frac_mat([coords]) @ space.basis)
    table, basis = space.frame.pim_table, lattice.basis
    a = basis.num @ table.num.reshape(4, 4, 3).transpose(2, 0, 1) @ basis.num.T
    # Σ|coefficients| of a product of polynomials is at most the product of theirs
    peak = sum(map(abs, vq[0])) * (16 * int(np.abs(a).max())) ** nu
    dtype = np.int64 if peak < INT64_SAFE else object
    a = a.astype(dtype).transpose(1, 2, 0)  # a[i, j, l] = A_l[i, j]
    q = a if nu else np.ones((1, 1, 1), dtype=dtype)  # the A_l themselves at ν = 1
    for e in range(1, nu):
        (_, parent, first), (mult, _, _) = _steps(3, e), _steps(4, e)
        # entry [α, i, β, j, γ]: the coefficient of x₁^α·x₂^β times A_l[i, j]
        kron = q[:, None, :, None, parent] * a[None, :, None, :, first]
        # fold x₁'s (α, i), then x₂'s (β, j), onto the monomials of degree e + 1
        q = _fold(_fold(kron, mult).transpose(1, 2, 0, 3), mult).transpose(1, 0, 2)
    c = (q * np.array(vq[0], dtype=dtype)).sum(axis=2)
    return linalg.Matrix(c, vden * (basis.den ** 2 * table.den) ** nu)


def lift_poly_deg2(space: HarmSpace, coords, lattice: Lattice) -> Poly:
    """P_v(x₁, x₂) = v(pim(x̄₁·x₂)) in lattice coordinates (x₁ = vars 0-3, x₂ = vars 4-7).

    The `Poly` view of `lift_matrix_deg2`, a reference for tests.  Bilinear of
    bidegree (ν, ν), alternating for odd ν, and annihilated by both adapted
    4-variable Laplacians.
    """
    monos = monomials_of_degree(4, space.nu)
    c = lift_matrix_deg2(space, coords, lattice)
    return Poly(8, {e1 + e2: x for e1, row in zip(monos, c) for e2, x in zip(monos, row)})

