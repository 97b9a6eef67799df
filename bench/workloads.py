"""The three benchmark workloads: set-up, the timed calls, and their checks.

Every call goes through a quatlift module attribute (``sh.hecke_Tp``, not a
name imported into this file), so the traced run sees it.  Each check is
recorded in a `Checks`; an exception raised by the program counts as a failed
check and does not stop the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path

from quatlift import brandt as br
from quatlift import fixture as fx
from quatlift import quatcore as qc
from quatlift import serialize as ser
from quatlift import siegelhecke as sh
from quatlift import yoshida as yo

# bound-2600 is the Hecke bound of `quatlift verify-example`
HECKE_BOUND = 2600
HECKE_EIGENVALUES = {2: -5, 3: -8, 5: -4}
EISENSTEIN_EIGENVALUES = {2: 6, 3: 8}  # (1 + p)(1 + p^0) at weight 2
PRINTED_COEFFS = {
    (5, 2, 6): -32, (5, 1, 6): -64, (4, 3, 5): -32, (4, 2, 6): -96, (4, 1, 6): 32,
    (4, 1, 5): -64, (3, 2, 6): -32, (3, 2, 5): 32, (3, 2, 4): 32, (3, 1, 6): -32,
    (2, 1, 5): -32, (2, 1, 4): -32, (2, 1, 3): 32,
}

# Per level: class number, mass, the neighbour primes the seed picks from, and
# the five good primes of the Brandt matrices (eigenforms uses the first three).
# The neighbour primes are kept small: class_set's cost grows like p^3 (one
# projective seed per point of P^3(F_p)), so a wide choice would turn the seed
# into run-to-run spread.
EICHLER_LEVELS = {
    17: {"h": 2, "mass": Fraction(2, 3), "seeds": (2, 3, 5), "primes": (2, 3, 5, 7, 11)},
    34: {"h": 4, "mass": Fraction(2), "seeds": (3, 5), "primes": (3, 5, 7, 11, 13)},
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the digest helper serialises with the functions as imported, so that the
# traced run does not count the benchmark's own digests as serialize work
_expansion_to_obj = ser.expansion_to_obj
_dumps_canonical = ser.dumps_canonical


class Checks:
    """Pass/fail record of one workload iteration."""

    def __init__(self):
        self.results: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def expect(self, name: str, compute, want) -> None:
        """Record compute() == want; an exception is a failure."""
        try:
            got = compute()
        except Exception as exc:  # the program's failure is the check's result
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return
        self.record(name, got == want, "" if got == want else f"got {got!r}, want {want!r}")

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["ok"])


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expansion_digest(f) -> str:
    return sha256_text(_dumps_canonical(_expansion_to_obj(f)))


def check_digest(checks: Checks, digests: dict, reference: dict, key: str, value: str) -> None:
    digests[key] = value
    checks.expect(f"digest {key}", lambda: value, reference.get(key))


def check_hecke_eigenvalues(checks: Checks, f, expected: dict) -> dict:
    """T(p)f = λ·f with λ = expected[p]; returns the images that were computed."""
    images = {}

    def eigenvalue(p):
        images[p] = sh.hecke_Tp(f, p)
        return sh.eigenvalue_extract(f, images[p])

    for p, want in sorted(expected.items()):
        checks.expect(f"T({p}) eigenvalue {want}", lambda p=p: eigenvalue(p), want)
    return images


def level34_order():
    """An Eichler order of level 34 inside R1: 1 plus a 2-dimensional subspace mod 2.

    The first such order, in the order of the sorted mod-2 row-echelon spans,
    is the one the level-34 tests use.
    """
    alg = fx.fixture_algebra()
    vecs = list(itertools.product((0, 1), repeat=4))[1:]
    spans = set()
    for pair in itertools.combinations(vecs, 2):
        span = _rref_mod2([[1, 0, 0, 0], list(pair[0]), list(pair[1])])
        if len(span) == 3:
            spans.add(tuple(tuple(r) for r in span))
    for span in sorted(spans):
        rows = [[Fraction(x) for x in r] for r in span]
        rows += [[Fraction(2 * int(i == j)) for j in range(4)] for i in range(4)]
        lat = qc.Lattice.from_generators(alg, rows, "order")
        if lat.is_order()[0] and lat.level == 34:
            return lat
    raise ValueError("no level-34 order inside R1")


def _rref_mod2(rows: list[list[int]]) -> list[list[int]]:
    m = [[x % 2 for x in row] for row in rows]
    r = 0
    for c in range(4):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def _eigen_summary(components) -> list[str]:
    """Basis-free summary of an eigenform decomposition, as sorted canonical JSON."""
    out = []
    for comp in components:
        obj = {
            "dim": comp.dim,
            "hecke": {str(p): ser.rational_to_str(v) for p, v in sorted(comp.hecke.items())},
            "involutions": {str(q): s for q, s in sorted(comp.involutions.items())},
            "charpolys": {str(p): [[[ser.rational_to_str(c) for c in fac], mult]
                                   for fac, mult in cp]
                          for p, cp in sorted(comp.charpolys.items())},
        }
        out.append(json.dumps(obj, sort_keys=True))
    return sorted(out)


# --- set-up: process start to workload-ready ----------------------------------

def setup(workload: str) -> dict:
    """Build the workload's inputs: the fixture algebra and its lattices."""
    inputs = {"algebra": fx.fixture_algebra(), "r1": fx.order_r1()}
    if workload == "hecke17":
        inputs["i12"] = fx.ideal_i12()
    elif workload == "eichler":
        inputs["o34"] = level34_order()
    return inputs


# --- workloads ----------------------------------------------------------------

def run_hecke17(inputs, seed, checks, digests, reference, workdir) -> None:
    """`quatlift lift --bound 2600` then `quatlift hecke` at p = 2, 3, 5; seed unused."""
    lift = fx.golden_lift(HECKE_BOUND, jobs=1)
    path = os.path.join(workdir, f"lift-{os.getpid()}.json")
    try:
        ser.save_json(path, ser.expansion_to_obj(lift))
        with open(path, "rb") as fh:
            written = fh.read()
        f = ser.expansion_from_obj(ser.load_json(path))
    finally:
        if os.path.exists(path):
            os.remove(path)
    check_digest(checks, digests, reference, "hecke17.lift2600",
                 hashlib.sha256(written).hexdigest())
    images = check_hecke_eigenvalues(checks, f, HECKE_EIGENVALUES)
    checks.expect("T(2)T(3) = T(3)T(2)",
                  lambda: sh.hecke_Tp(images[2], 3).agrees_with(sh.hecke_Tp(images[3], 2)),
                  True)
    for p, image in sorted(images.items()):
        check_digest(checks, digests, reference, f"hecke17.T{p}", expansion_digest(image))


def run_eichler(inputs, seed, checks, digests, reference, workdir) -> None:
    """Class sets, Brandt matrices and eigenforms at levels 17 and 34."""
    rng = random.Random(seed)
    for level, order in ((17, inputs["r1"]), (34, inputs["o34"])):
        spec = EICHLER_LEVELS[level]
        p_seed = rng.choice(spec["seeds"])
        cs = qc.class_set(order, p_seed)
        checks.expect(f"N={level}: class number", lambda: cs.h, spec["h"])
        checks.expect(f"N={level}: mass", lambda: cs.mass, spec["mass"])
        summary = []
        for nu in (0, 1, 2):
            space = br.FormSpace(cs, nu)
            for p in spec["primes"]:
                bm = br.brandt_matrix(cs, nu, p, space)
                if nu == 0:
                    checks.expect(f"N={level}: B0({p}) row sums {p + 1}",
                                  lambda: set(bm.row_sums()), {p + 1})
            comps = br.eigenforms(cs, nu, list(spec["primes"][:3]), space)
            summary.append(_eigen_summary(comps))
        check_digest(checks, digests, reference, f"eichler.N{level}.eigenforms",
                     sha256_text(json.dumps(summary)))


def run_eigenlift17(inputs, seed, checks, digests, reference, workdir) -> None:
    """The generic yoshida2 paths: bilinear (nu=1), pair counts (nu=0), theta2 (nu=2)."""
    f = fx.fixture_lift(600)
    checks.expect("fixture_lift(600): 13 printed coefficients",
                  lambda: {t: f.coefficient(t) for t in PRINTED_COEFFS}, PRINTED_COEFFS)
    check_hecke_eigenvalues(checks, f, {p: HECKE_EIGENVALUES[p] for p in (2, 3)})
    check_digest(checks, digests, reference, "eigenlift17.fixture_lift600", expansion_digest(f))

    cs = fx.fixture_class_set()
    one = br.constant_form(cs)
    e = yo.yoshida2(cs, one, one, 600, fx.fixture_space(0))
    check_hecke_eigenvalues(checks, e, EISENSTEIN_EIGENVALUES)
    check_digest(checks, digests, reference, "eigenlift17.eisenstein600", expansion_digest(e))

    # All coefficients are nonzero: the lift map on this space has a kernel,
    # but every kernel vector has first coordinate 0, so the lift cannot vanish.
    space2 = br.FormSpace(cs, 2)
    rng = random.Random(seed)
    phi = None
    for form in space2.basis_forms():
        term = form.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        phi = term if phi is None else phi.add(term)
    g = yo.yoshida2(cs, phi, fx.phi2(), 80, space1=space2)
    checks.expect("nu=2 lift is nonzero", lambda: not g.is_zero(), True)
    checks.expect("nu=2 lift is cuspidal", lambda: yo.is_cuspidal_up_to_bound(g), True)
    digests["eigenlift17.nu2_combination"] = expansion_digest(g)


WORKLOADS = {
    "hecke17": run_hecke17,
    "eichler": run_eichler,
    "eigenlift17": run_eigenlift17,
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]
