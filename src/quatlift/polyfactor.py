"""Exact factoring of univariate polynomials over ℚ.

The steps (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 14–16):
1. scale the input once to its primitive integer multiple and split that into
   square-free parts by Yun's gcds with f′, all in ℤ[x]: each gcd is the
   primitive one of a pseudo-remainder sequence, so every division is exact;
2. peel off each part's rational roots, lifted from the roots mod a small prime
   by Newton's iteration;
3. factor what is left by Zassenhaus: mod a good prime p by distinct- and
   equal-degree splitting (seeded, so deterministic), Hensel-lift every factor
   past the coefficient bound of Alg. 15.19, and recombine them by subsets.

Everything is exact, and `factor_rational` checks the product of its factors
against the input, in integers, before returning; Fractions appear only in its
input and output.  Internally a polynomial is a list of integer coefficients,
lowest degree first, with no trailing zeros; `m` is a modulus, or None for
arithmetic in ℤ.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def _trim(a: list, m: int | None = None) -> list:
    if m:
        a = [x % m for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m=None, sign=1):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                  for i in range(n)], m)


def _sub(a, b, m=None):
    return _add(a, b, m, -1)


def _mul(a, b, m=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out, m)


def _inverse(c, m):
    return pow(c, -1, m)


def _divmod(a, b, m):
    """Quotient and remainder mod m by b, whose leading coefficient is a unit mod m."""
    inv, n = _inverse(b[-1], m), len(b) - 1
    r, q = list(a), [0] * max(len(a) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n] * inv % m
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _trim(q, m), _trim(r[:n], m)


def _scale(a, c, m):
    return _trim([x * c for x in a], m)


def _monic(a, m):
    return _scale(a, _inverse(a[-1], m), m)


def _gcd(a, b, m):
    """The monic gcd mod a prime m."""
    while b:
        a, b = b, _divmod(a, b, m)[1]
        b = _monic(b, m) if b else b
    return _monic(a, m)


def _deriv(a, m=None):
    return _trim([i * a[i] for i in range(1, len(a))], m)


def _eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _powmod(a, e, f, m):
    """a^e mod (f, m)."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, m), f, m)[1]
        a, e = _divmod(_mul(a, a, m), f, m)[1], e >> 1
    return out


def _primitive(a):
    """The primitive integer multiple of a rational polynomial, with a positive lead."""
    den = math.lcm(*(x.denominator for x in a))
    ints = [x.numerator * (den // x.denominator) for x in a]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [x // g for x in ints]


def _exact_quotient(a, b):
    """a / b when b divides a in ℤ[x], else None."""
    n = len(b) - 1
    r, q = list(a), [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + n], b[-1])
        if rest:
            return None
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return None if any(r) or not q else q


def _symmetric(a, m):
    """Coefficients mod m taken in (−m/2, m/2]."""
    return [x % m - m if x % m > m // 2 else x % m for x in a]


def _prem(a, b):
    """A nonzero integer multiple of a mod b in ℤ[x]: b's lead scales instead of dividing."""
    n, lead = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > n:
        c = r[-1]
        r = [lead * x for x in r]
        for j, y in enumerate(b, len(r) - 1 - n):
            r[j] -= c * y
        r = _trim(r)
    return r


def _zgcd(a, b):
    """The primitive gcd, with a positive lead, of a and b in ℤ[x], a nonzero.

    Euclid on pseudo-remainders, each made primitive (the primitive PRS).
    """
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _prem(a, b)
    return a


def _zquo(a, b):
    """a / b in ℤ[x], for b primitive and dividing a over ℚ (so over ℤ, by Gauss)."""
    if not a:
        return []
    q = _exact_quotient(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division in ℤ[x]")
    return q


def _squarefree(f):
    """Yun, in ℤ[x]: [(g, i)] with primitive f = ∏ g^i, each g primitive with a positive
    lead, square-free and nonconstant.

    Every gcd is primitive, so each division by it stays in ℤ[x]; dividing both
    b and c by the same gcd keeps them scaled alike, which is all Yun's steps need.
    """
    out, df = [], _deriv(f)
    a = _zgcd(f, df)
    b, c = _zquo(f, a), _zquo(df, a)
    d, i = _sub(c, _deriv(b)), 1
    while len(b) > 1:
        a = _zgcd(b, d)
        b, c = _zquo(b, a), _zquo(d, a)
        d = _sub(c, _deriv(b))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _good_primes(f):
    """Odd primes not dividing lc(f) and keeping the integer polynomial f square-free."""
    for p in itertools.count(3, 2):
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)) and f[-1] % p:
            fp = _monic(_trim(list(f), p), p)
            if len(_gcd(fp, _deriv(fp, p), p)) == 1:
                yield p


def _peel_roots(f):
    """Linear factors v·x − u of a primitive square-free f, and the cofactor.

    A root u/v has v | lc(f) and |u/v| ≤ 1 + max|fᵢ|/|lc(f)| (Cauchy), so lc(f)·u/v
    is an integer below `bound`; it is read off a root mod p lifted past 2·bound.
    """
    p = next(_good_primes(f))
    out = []
    for r in range(p):
        if _eval(f, r) % p:
            continue
        bound, m = abs(f[-1]) + max(abs(x) for x in f), p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval(f, r) * _inverse(_eval(_deriv(f), r), m)) % m
        lin = _primitive([-_symmetric([f[-1] * r], m)[0], f[-1]])
        quot = _exact_quotient(f, lin)
        if quot is not None:
            out.append(lin)
            f = quot
    return out, f


def _edf(f, d, p, rng):
    """The monic degree-d factors of f mod p, all of whose factors have degree d."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd(f, a, p)
        if len(g) == 1:
            g = _gcd(f, _sub(_powmod(a, (p ** d - 1) // 2, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, rng) + _edf(_divmod(f, g, p)[0], d, p, rng)


def _modular_factors(f):
    """(p, monic irreducible factors of f mod p) for the good prime, among the first
    three, with the fewest factors: fewer local factors, fewer subsets to recombine."""
    best = None
    for p in itertools.islice(_good_primes(f), 3):
        g, h, parts = _monic(_trim(list(f), p), p), [0, 1], []
        for d in itertools.count(1):  # distinct-degree splitting
            if len(g) - 1 < 2 * d:
                parts += [(g, len(g) - 1)] if len(g) > 1 else []
                break
            h = _powmod(h, p, g, p)
            part = _gcd(g, _sub(h, [0, 1], p), p)
            if len(part) > 1:
                parts.append((part, d))
                g = _divmod(g, part, p)[0]
                h = _divmod(h, g, p)[1]
        count = sum((len(part) - 1) // d for part, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
    _, p, parts = best
    rng = random.Random(p)
    return p, [h for part, d in parts for h in _edf(part, d, p, rng)]


def _hensel_lift(f, h, p, m):
    """The monic factor of f mod m = p^(2^j) that is ≡ h mod p (vzGG Alg. 15.10, repeated)."""
    g = _divmod(f, h, p)[0]
    # s·g + t·h ≡ 1 mod p by the extended Euclidean algorithm
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = _inverse(r0[0], p)
    s, t = _scale(s0, inv, p), _scale(t0, inv, p)
    k = p
    while k < m:
        k *= k
        e = _sub(f, _mul(g, h), k)
        q, r = _divmod(_mul(s, e, k), h, k)
        g, h = _add(g, _add(_mul(t, e), _mul(q, g)), k), _add(h, r, k)
        b = _sub(_add(_mul(s, g), _mul(t, h)), [1], k)
        c, d = _divmod(_mul(s, b, k), h, k)
        s, t = _sub(s, d, k), _sub(t, _add(_mul(t, b), _mul(c, g)), k)
    return h


def _recombine(f, lifted, m):
    """The irreducible factors of f from its monic factors mod m, by subsets."""
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _primitive(_symmetric(g, m))
            quot = _exact_quotient(f, g)
            if quot is not None:
                out.append(g)
                f, lifted = quot, [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _irreducible_factors(f):
    """The irreducible factors of a primitive square-free f ∈ ℤ[x] of degree ≥ 1."""
    if len(f) == 2:
        return [f]
    roots, f = _peel_roots(f)
    if len(f) <= 4:  # degree 2 or 3 and no rational root: irreducible
        return roots + ([f] if len(f) > 1 else [])
    p, local = _modular_factors(f)
    if len(local) == 1:
        return roots + [f]
    n = len(f) - 1
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(abs(x) for x in f) * abs(f[-1])
    m = p
    while m <= 2 * bound:
        m *= m
    return roots + _recombine(f, [_hensel_lift(f, h, p, m) for h in local], m)


def factor_rational(coeffs) -> list[tuple[tuple[Fraction, ...], int]]:
    """Monic irreducible factors over ℚ of a nonzero rational polynomial.

    `coeffs` runs from the leading coefficient down.  Returns
    [(coefficient tuple, multiplicity)], each tuple monic and leading first,
    sorted by (length, coefficients).  Raises ValueError for the zero
    polynomial, and if the product of the factors is not the input made monic.
    The work is done in ℤ[x] on the input's primitive integer multiple; the
    factors become monic Fractions only at the end.
    """
    f = _trim([Fraction(c) for c in reversed(coeffs)])
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    f = _primitive(f)
    out, product = [], [1]
    for part, mult in _squarefree(f):
        for g in _irreducible_factors(part):
            out.append((g, mult))
            for _ in range(mult):
                product = _mul(product, g)
    if product != f:
        raise ValueError("the factors do not multiply back to the polynomial")
    out = [(tuple(Fraction(x, g[-1]) for x in reversed(g)), mult) for g, mult in out]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out
