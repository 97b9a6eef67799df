import random
import re

import numpy as np
import pytest

import binforms_reference
from binforms_reference import apply_unimodular, disc, reduced_forms_up_to
from quatlift.binforms import form_table, is_ambiguous, is_reduced, reduce_form, reduce_forms


def test_already_reduced():
    assert reduce_form((2, 1, 3)) == ((2, 1, 3), 1)


def test_swap_word():
    red, sign = reduce_form((3, -1, 2))
    assert red == (2, 1, 3) and sign == 1


def test_interior_sign_flip():
    red, sign = reduce_form((2, -1, 3))
    assert red == (2, 1, 3) and sign == -1


def test_singular_rank_one():
    red, sign = reduce_form((1, 2, 1))
    assert red == (0, 0, 1)
    assert reduce_form((4, 0, 0))[0] == (0, 0, 4)
    assert reduce_form((0, 0, 0))[0] == (0, 0, 0)


def test_indefinite_rejected():
    with pytest.raises(ValueError):
        reduce_form((1, 3, 1))
    with pytest.raises(ValueError):
        reduce_form((-1, 0, 1))


@pytest.mark.parametrize("t", [(2.7, 1, 3), (2.0, 1, 3), (2, "1", 3), (2, 1, True)])
def test_a_form_with_an_entry_that_is_not_an_integer_is_refused(t):
    # reduce_form truncated (2.7, 1, 3) to (2, 1, 3)
    with pytest.raises(ValueError, match=re.escape(f"form {t} has an entry that is not")):
        reduce_form(t)


def test_reduce_forms_names_the_first_form_that_is_not_integers():
    with pytest.raises(ValueError, match=re.escape("form (5, '2', 2) has an entry")):
        reduce_forms([1, 5], np.array([0, "2"], dtype=object), [1, 2])
    with pytest.raises(ValueError, match=re.escape("form (1, 0, 1.0) has an entry")):
        reduce_forms([1, 5], [0, 2], [1.0, 2.0])
    # integer dtypes and Python ints in object columns (the big-int path) reduce
    big = np.array([1, 3 << 40], dtype=object)
    assert [x.tolist() for x in reduce_forms(np.array([1, 2], dtype=np.uint8), [0, 1], big)] == [
        [1, 2], [0, 1], [1, 3 << 40], [1, 1]]


def test_boundary_forms_reduce_without_sign():
    # forms equivalent to b=a or a=c boundary cases stay det +1 reachable
    assert reduce_form((1, -1, 6)) == ((1, 1, 6), 1)
    assert reduce_form((6, 1, 6)) == ((6, 1, 6), 1)
    assert reduce_form((6, -1, 6)) == ((6, 1, 6), 1)


def test_ambiguity():
    assert is_ambiguous(1, 0, 5)
    assert is_ambiguous(2, 2, 3)
    assert is_ambiguous(3, 1, 3)
    assert not is_ambiguous(2, 1, 3)
    # the same rule row by row on columns
    a, b, c = np.array([(1, 0, 5), (2, 2, 3), (3, 1, 3), (2, 1, 3), (0, 0, 4)]).T
    assert is_ambiguous(a, b, c).tolist() == [True, True, True, False, True]


def test_reduced_on_columns():
    forms = [(2, 1, 3), (0, 0, 4), (0, 0, 0), (3, 1, 2), (2, -1, 3), (2, 3, 5), (1, 1, 1)]
    a, b, c = np.array(forms).T
    assert is_reduced(a, b, c).tolist() == [True, True, True, False, False, False, True]
    assert [bool(is_reduced(*t)) for t in forms] == is_reduced(a, b, c).tolist()


UNIMODULARS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
               ((1, 0), (0, -1)), ((0, 1), (1, 0))]


def test_reduction_is_orbit_invariant():
    rng = random.Random(5)
    for _ in range(300):
        t = rng.choice(reduced_forms_up_to(400))
        u_word = [rng.choice(UNIMODULARS) for _ in range(rng.randint(1, 5))]
        s = t
        det = 1
        for u in u_word:
            s = apply_unimodular(s, u)
            det *= u[0][0] * u[1][1] - u[0][1] * u[1][0]
        red, sign = reduce_form(s)
        assert (red, sign) == binforms_reference.reduce_form(s)
        assert red == t
        assert disc(s) == disc(t)
        if not is_ambiguous(*t):
            assert sign == det


def test_reduced_enumeration_is_canonical():
    forms = reduced_forms_up_to(150)
    assert len(set(forms)) == len(forms)
    for t in forms:
        assert is_reduced(*t) and 0 < disc(t) <= 150
        assert reduce_form(t) == (t, 1)


def brute_force_forms(bound):
    """Every (a, b, c) with 0 ≤ b ≤ a ≤ c and 0 < 4ac − b² ≤ bound, sorted by (disc, a, b).

    4ac − b² ≥ 3ac ≥ 3c bounds c by bound/3, and a ≤ c.
    """
    out = [(a, b, c) for c in range(bound // 3 + 1) for a in range(1, c + 1)
           for b in range(a + 1) if 0 < 4 * a * c - b * b <= bound]
    return sorted(out, key=lambda t: (disc(t), t[0], t[1]))


def test_form_table_is_every_reduced_form_in_order():
    everything = brute_force_forms(400)
    for bound in range(401):
        table = list(zip(*(col.tolist() for col in form_table(bound))))
        assert table == [t for t in everything if disc(t) <= bound]
    big = form_table(2600)
    assert all(col.dtype == np.int64 for col in big)
    rows = list(zip(*(col.tolist() for col in big)))
    # 3a² ≤ 4ac − b² ≤ 2600 gives a ≤ 29; each (a, b) is one run of c
    want = sorted(((a, b, c) for a in range(1, 30) for b in range(a + 1)
                   for c in range(a, (2600 + b * b) // (4 * a) + 1)),
                  key=lambda t: (disc(t), t[0], t[1]))
    assert rows == want == reduced_forms_up_to(2600)
