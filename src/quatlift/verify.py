"""End-to-end verification of the bundled level-17 example.

Runs every golden assertion of the pipeline and reports one pass/fail line per
check.  The same checks back the acceptance test suite; the CLI command
`verify-example` prints the table and exits nonzero on any failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import fixture as fx
from . import linalg
from .binforms import form_table, is_ambiguous
from .brandt import (FormSpace, atkin_lehner, brandt_matrix, brandt_series, constant_form,
                     inner_product)
from .harmonic import (HarmSpace, default_frame, laplacian_matrix, lift_matrix_deg2,
                       tau_group, tau_matrix_stack)
from .quatcore import ClassSet, QuatElement, _is_prime, _prime_factors, is_ramified
from .siegelhecke import (LocalFactor, PoleError, eigenvalue_extract, hecke_Tp, lambda_N,
                          rankin_selberg_local, rankin_selberg_matches_dirichlet,
                          standard_L_local)
from .yoshida import is_cuspidal_up_to_bound, yoshida1


@dataclass
class CheckResult:
    criterion: str
    name: str
    ok: bool
    detail: str = ""


class Report:
    def __init__(self):
        self.results: list[CheckResult] = []

    def check(self, criterion: str, name: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(criterion, name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            detail = f"  [{r.detail}]" if r.detail else ""
            out.append(f"[{mark}] {r.criterion}: {r.name}{detail}")
        return out


def check_fixture_arithmetic(report: Report) -> None:
    crit = "fixture arithmetic"
    cs = fx.fixture_class_set()
    report.check(crit, "class number and type number 2", cs.h == 2, f"h={cs.h}")
    report.check(crit, "unit counts {2, 6}", tuple(cs.unit_counts) == fx.UNIT_COUNTS,
                 f"e={cs.unit_counts}")
    for name, lat in (("R1", fx.order_r1()), ("R2", fx.order_r2()),
                      ("I12", fx.ideal_i12())):
        report.check(crit, f"Gram determinant of {name} is {fx.GRAM_DET}",
                     lat.gram_det == fx.GRAM_DET, f"det={lat.gram_det}")
    alg = fx.fixture_algebra()
    f1, f2, f3 = (alg.basis_element(i) for i in (1, 2, 3))
    report.check(crit, "tr(f1)=1, n(f1)=2", f1.trace() == 1 and f1.norm() == 2)
    report.check(crit, "n(f2)=3 and n(f3)=5", f2.norm() == 3 and f3.norm() == 5)
    diag = [fx.order_r1().gram[i][i] for i in range(4)]
    report.check(crit, "product table reproduces the Gram diagonal",
                 diag == [2, 4, 6, 10], f"diag={[int(x) for x in diag]}")
    report.check(crit, "mass equals 1/2 + 1/6 = 2/3", cs.mass == Fraction(2, 3),
                 f"mass={cs.mass}")


def check_eichler_side(report: Report) -> dict:
    """Record the Eichler-side checks; returns the Brandt eigenvalues {ν: {p: λ}}."""
    crit = "eichler side"
    cs = fx.fixture_class_set()
    phi2, phi1 = fx.phi2(), fx.phi1()
    one = constant_form(cs)
    report.check(crit, "<phi2, 1> = 0", inner_product(phi2, one, cs) == 0)
    report.check(crit, "<phi2, phi2> = 2", inner_product(phi2, phi2, cs) == 2)
    for p in (2, 3, 5):
        sums = brandt_matrix(cs, 0, p).row_sums()
        report.check(crit, f"B(0)({p}) row sums = {p + 1}",
                     all(s == p + 1 for s in sums), f"sums={[str(s) for s in sums]}")
    eig = {}
    for nu, phi in enumerate((phi2, phi1)):
        # λ(p) = ⟨φ, T̃(p)φ⟩/⟨φ, φ⟩, read off the degree-1 lift, then checked
        y = yoshida1(cs, phi, phi, 5)
        eig[nu] = vals = {p: y.coefficient(p) / y.coefficient(1) for p in (2, 3, 5)}
        ok_eigen = all(brandt_matrix(cs, nu, p).apply(phi).values == phi.scale(lam).values
                       for p, lam in vals.items())
        report.check(crit, f"phi{2 - nu} simultaneous Brandt eigenform",
                     ok_eigen, f"eigenvalues={ {p: str(v) for p, v in vals.items()} }")
    w17 = atkin_lehner(cs, 1, 17)
    w2 = atkin_lehner(cs, 0, 17).apply(phi2)
    w1 = w17.apply(phi1)
    report.check(crit, "equal involution eigenvalues under w17 (both +1)",
                 w2.values == phi2.values and w1.values == phi1.values)
    report.check(crit, "w17 is an involution", w17.apply(w1).values == phi1.values)
    failures = [f for nu in range(3) for f in brandt_series_failures(cs, nu, 40)]
    report.check(crit, "Brandt series: B(1) = 1, B(m)B(p) = B(mp) + p^(2ν+1)B(m/p), "
                 "B(17) = 17^ν·w17 (ν ≤ 2, m ≤ 40)", not failures, "; ".join(failures[:3]))
    return eig


def brandt_series_failures(cs: ClassSet, nu: int, bound: int) -> list[str]:
    """The relations of the Brandt series B(m), m ≤ bound, that fail on the degree-ν forms."""
    space, level = FormSpace(cs, nu), cs.order.level
    # b[m] is B(m) on the forms' coordinates; b[0] = 0 stands for B(m/p) when p ∤ m
    b = [linalg.zeros(space.dim, space.dim)] + [space.matrix_of(op)
                                                for op in brandt_series(cs, nu, bound)]
    failures = [] if b[1] == linalg.identity(space.dim) else ["B(1)"]
    for p in (p for p in range(2, bound + 1) if _is_prime(p) and level % p):
        failures += [f"B({m})·B({p})" for m in range(1, bound // p + 1) if b[m] @ b[p]
                     != b[m * p] + b[0 if m % p else m // p] * p ** (2 * nu + 1)]
    # B(q) = q^ν·w_q where the algebra ramifies; at a prime of the Eichler level
    # B(q) is not ±q^ν·w_q
    failures += [f"B({q}) = {q}^ν·w_{q}" for q in sorted(set(_prime_factors(level)))
                 if q <= bound and is_ramified(cs.order, q)
                 and b[q] != space.matrix_of(atkin_lehner(cs, nu, q)) * q ** nu]
    return [f"ν={nu}: {f}" for f in failures]


def check_lift_golden(report: Report, lift) -> None:
    crit = "lift golden test"
    forms, printed = zip(*fx.PRINTED_COEFFS.items())
    nums = lift.coefficients(*zip(*forms))
    matched = sum(1 for n, v in zip(nums, printed) if n == v * lift.denominator)
    report.check(crit, f"{matched}/13 printed coefficients match", matched == 13)
    report.check(crit, "singular coefficients vanish (cuspidal)",
                 is_cuspidal_up_to_bound(lift))
    a, b, c = form_table(min(lift.bound, 100))
    amb = is_ambiguous(a, b, c)
    ambiguous_zero = not lift.coefficients(a[amb], b[amb], c[amb]).any()
    report.check(crit, "ambiguous-form coefficients vanish (odd weight)", ambiguous_zero)
    theory = fx.fixture_lift(min(lift.bound, 130))
    report.check(crit, f"eigenform assembly matches the published one (x{fx.LIFT_SCALE})",
                 theory.agrees_with(lift))


def check_hecke_golden(report: Report, lift, eig: dict) -> None:
    crit = "hecke golden test"
    for p, expect in sorted(fx.HECKE_EIGENVALUES.items()):
        name = f"T({p}) eigenvalue = {expect}"
        try:
            # below an input bound of p², T(p) raises TruncationError, and below
            # 23·p² the eigenvalue is indeterminate; both are ValueErrors
            lam = eigenvalue_extract(lift, hecke_Tp(lift, p))
        except ValueError as exc:
            report.check(crit, name, False, str(exc))
            continue
        report.check(crit, name, lam == expect, f"got {lam}, normalization constant p^0")
    name = "T(2)T(3) = T(3)T(2) on the comparable range"
    try:
        t23 = hecke_Tp(hecke_Tp(lift, 2), 3)
        t32 = hecke_Tp(hecke_Tp(lift, 3), 2)
    except ValueError as exc:
        report.check(crit, name, False, str(exc))
    else:
        report.check(crit, name, t23.agrees_with(t32))
    rel = all(fx.HECKE_EIGENVALUES[p] == eig[1][p] + p * eig[0][p] for p in (2, 3, 5))
    report.check(crit, "lift eigenvalue = a_p(phi1) + p·a_p(phi2)", rel)


def check_l_function_layer(report: Report, eig: dict) -> None:
    crit = "L-function layer"
    ok_fact = ok_dir = ok_nonvanish = True
    for p in (2, 3, 5):
        af, ag = eig[1][p], eig[0][p]
        std = standard_L_local(af, ag, 4, 2, 2, p)
        rs = rankin_selberg_local(af, ag, 4, 2, p)
        shifted = rs.scale_variable(Fraction(1, p ** 2))
        ok_fact = ok_fact and std == LocalFactor(p, [1, -1]) * shifted
        ok_dir = ok_dir and rankin_selberg_matches_dirichlet(af, ag, 4, 2, p)
        val = std.evaluate_inverse_at(float(p) ** -1.0)
        ok_nonvanish = ok_nonvanish and abs(val) > 1e-9
    report.check(crit, "standard factor = zeta-factor × shifted tensor factor", ok_fact)
    report.check(crit, "tensor factor matches the Dirichlet recursion to X^6", ok_dir)
    report.check(crit, "normalized tensor value at s=1 nonzero at fixture primes",
                 ok_nonvanish)
    try:
        lambda_N(17, 3, 1.0)
        report.check(crit, "Lambda_17 pole at s=1 for n=3 signaled", False)
    except PoleError:
        report.check(crit, "Lambda_17 pole at s=1 for n=3 signaled", True)
    val = lambda_N(17, 2, 1.0)
    expect = 1.0 / ((1 - 17.0 ** -2) * (1 - 17.0 ** -1))
    report.check(crit, "Lambda_17 value for n=2 at s=1", abs(val - expect) < 1e-12,
                 f"{val:.12f}")
    report.check(crit, "Lambda_1 empty product = 1", lambda_N(1, 3, 1.0) == 1.0)


def check_property_suites(report: Report) -> None:
    crit = "property suites"
    alg = fx.fixture_algebra()
    basis = [alg.basis_element(i) for i in range(4)]
    assoc = all((x * y) * z == x * (y * z) for x in basis for y in basis for z in basis)
    report.check(crit, "associativity on all 64 basis triples", assoc)
    rng = random.Random(17)

    def rand_el():
        return QuatElement(alg, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(4)])

    anti = all(((x * y).conj() == y.conj() * x.conj()) for x, y in
               [(rand_el(), rand_el()) for _ in range(100)])
    report.check(crit, "conjugation is an anti-automorphism (100 random pairs)", anti)
    normmult = all((x * y).norm() == x.norm() * y.norm() for x, y in
                   [(rand_el(), rand_el()) for _ in range(100)])
    report.check(crit, "norm multiplicativity (100 random pairs)", normmult)

    frame = default_frame(alg)
    ok_harm = True
    for nu in range(5):
        space = HarmSpace(nu, frame)
        ok_harm = ok_harm and space.dim == 2 * nu + 1
        ok_harm = ok_harm and _is_zero(laplacian_matrix(frame.gram_inv, nu, 3) @ space.basis.T)
    report.check(crit, "harmonic spaces have dimension 2ν+1 with zero Laplacian (ν ≤ 4)",
                 ok_harm)
    r2 = fx.order_r2()
    space1 = HarmSpace(1, frame)
    pairing = space1.pairing_matrix
    ok_inv = all(m @ pairing @ m.T == pairing
                 for m in tau_matrix_stack([tau_group(u) for u in r2.units], space1))
    report.check(crit, "pairing invariant under the 6 units of R2", ok_inv)

    cs = fx.fixture_class_set()
    r1 = fx.order_r1()
    g4inv = linalg.inverse(r1.gram)
    ok_pluri = True
    for nu in (2, 3):
        space, lap4 = HarmSpace(nu, frame), laplacian_matrix(g4inv, nu, 4)
        for coords in linalg.identity(space.dim):
            c = lift_matrix_deg2(space, coords, r1)
            ok_pluri = (ok_pluri and not _is_zero(c) and _is_zero(lap4 @ c)
                        and _is_zero(lap4 @ c.T))
    report.check(crit, "degree-2 lift polynomial is pluriharmonic", ok_pluri)
    v3 = fx.phi1().values[0]  # the polynomial z₃
    # R₁'s basis is the identity, so the weight's algebra coordinates are its lattice ones
    d1_row = degree1_weight_row(space1, v3, v3)
    report.check(crit, "degree-1 lift polynomial is adapted-harmonic",
                 not _is_zero(d1_row) and _is_zero(laplacian_matrix(g4inv, 2, 4) @ d1_row.T))

    # θ_{R_i}(m) = e_i·B₀(m)_ii, the ν = 0 diagonal of the Brandt series
    theta = [[e * b.blocks[i][i][0][0] for b in brandt_series(cs, 0, 20)]
             for i, e in enumerate(cs.unit_counts)]
    witness = next((m for m in range(1, 21) if theta[0][m - 1] != theta[1][m - 1]), None)
    report.check(crit, "theta series of R1 and R2 differ at some m ≤ 20",
                 witness is not None, f"witness m={witness}")
    y0 = yoshida1(cs, constant_form(cs), fx.phi2(), 20)
    report.check(crit, "degree-1 lift of distinct eigenforms vanishes", y0.is_zero())
    y1 = yoshida1(cs, fx.phi2(), fx.phi2(), 20)
    report.check(crit, "degree-1 lift realizes the Hecke eigenvalue at p=2",
                 y1.coefficient(2) / y1.coefficient(1) == Fraction(-1))


def degree1_weight_row(space1: HarmSpace, u, v) -> linalg.Matrix:
    """P(x) = ⟨⟨u·B, z ↦ (v·B)(x̄·z·x)⟩⟩ at ν = 1, the weight `yoshida1` sums, as
    its coefficient row over `monomials_of_degree(4, 2)` in x's algebra coordinates.

    With z = Σ t_l·g_l, (v·B)(x̄·z·x) = Σ_lk t_l·(v·B)_k·C_lk(x) for the
    conjugation matrix C(x) = m₂(x)·T/den of `conj_table` (flattened row-major),
    and the pairing weighs t_l with (u·B·F)_l, F the `monomial_pairing`: the row
    is outer(u·B·F, v·B)·Tᵗ/den.
    """
    table, den = space1.frame.conj_table
    outer = linalg.outer_rows(linalg.frac_mat([u]) @ space1.basis @ space1.monomial_pairing,
                              linalg.frac_mat([v]) @ space1.basis)
    return outer @ linalg.frac_mat(table).T * Fraction(1, den)


def _is_zero(m: linalg.Matrix) -> bool:
    return not m.num.any()


def check_determinism(report: Report) -> None:
    crit = "determinism"
    from .serialize import dumps_canonical, expansion_to_obj
    one = dumps_canonical(expansion_to_obj(fx.golden_lift(60)))
    again = dumps_canonical(expansion_to_obj(fx.golden_lift(60)))
    report.check(crit, "lift output byte-identical across runs", one == again)


def run_all(hecke_bound: int = 2600, progress=None) -> Report:
    report = Report()

    def step(name, run):
        t0 = time.time()
        out = run()
        if progress:
            progress(f"{name} done in {time.time() - t0:.1f}s")
        return out

    step("fixture arithmetic", lambda: check_fixture_arithmetic(report))
    eig = step("eichler side", lambda: check_eichler_side(report))
    step("lift golden test", lambda: check_lift_golden(report, fx.golden_lift(130)))
    step("hecke golden test",
         lambda: check_hecke_golden(report, fx.golden_lift(hecke_bound), eig))
    step("L-function layer", lambda: check_l_function_layer(report, eig))
    step("property suites", lambda: check_property_suites(report))
    step("determinism", lambda: check_determinism(report))
    return report
