"""The one-form reduction loop that `binforms.reduce_forms` replaced, the
coefficient read built on it, and the scalar form helpers the tests use.

Kept as oracles: `reduce_form` is the scalar sign-tracked reduction of one
positive semidefinite form, step by step in Python ints, and `coefficient`
reads an expansion through it, its `entries` map and the sign, with no column
code and no ambiguity rule of its own (an odd-weight store holds no entry at
an ambiguous form).  `disc`, `reduced_forms_up_to` and `apply_unimodular` are
one form (or one list of forms) at a time.
"""

from fractions import Fraction

from quatlift.binforms import form_table
from quatlift.yoshida import TruncationError


def disc(t) -> int:
    a, b, c = t
    return 4 * a * c - b * b


def reduced_forms_up_to(bound: int) -> list[tuple[int, int, int]]:
    """All canonical positive definite reduced forms with disc ≤ bound, sorted by (disc, a, b)."""
    return list(zip(*(x.tolist() for x in form_table(bound))))


def apply_unimodular(t, u) -> tuple[int, int, int]:
    """T[U] = Uᵗ·T·U for an integer 2×2 matrix U, in [a, b, c] coordinates."""
    a, b, c = t
    (p, q), (r, s) = u
    a2 = a * p * p + b * p * r + c * r * r
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    c2 = a * q * q + b * q * s + c * s * s
    return (a2, b2, c2)


def reduce_form(t):
    """Canonical reduced representative and the sign det(U) of the reducing word."""
    a, b, c = (int(x) for x in t)
    if 4 * a * c - b * b < 0 or a < 0 or c < 0:
        raise ValueError(f"form {t!r} is not positive semidefinite")
    sign = 1
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a  # x ↦ (-y, x), det +1
            continue
        if a and (b > a or b <= -a):
            # translate: x ↦ x + ky keeps a, shifts b into (-a, a]; det +1
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, a * k * k + b * k + c
            continue
        break
    if a == 0:
        # singular: b = 0 once a = 0, since 4ac − b² ≥ 0
        return (0, 0, c), sign
    if b < 0:
        # interior form with negative b: flip with diag(1, -1), det −1
        b = -b
        sign = -sign
    # boundary normalizations (b = a or a = c) are reachable with det +1 words,
    # so the canonical set is 0 ≤ b ≤ a ≤ c with no extra sign
    return (a, b, c), sign


def coefficient(f, t) -> Fraction:
    """a(t) of the expansion f: a(T[U]) = det(U)^k·a(T) with T the reduced form."""
    red, sign = reduce_form(t)
    a, b, c = red
    if (c > f.singular_bound) if a == 0 else (4 * a * c - b * b > f.bound):
        raise TruncationError(f"form {t} is beyond the bounds")
    return f.entries.get(red, Fraction(0)) * sign ** f.weight
