import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlift import fixture as fx
from quatlift import serialize as ser
from quatlift.yoshida import FourierExpansionSiegel2
from helpers import expansion, hamilton_algebra, quaternion_table


def test_rational_strings():
    assert ser.rational_to_str(Fraction(-96, 1)) == "-96"
    assert ser.rational_to_str(Fraction(3, 4)) == "3/4"
    assert ser.parse_rational("-96/1") == -96
    assert ser.parse_rational("7") == 7
    with pytest.raises(ser.SchemaError, match=r"^bad rational '1/0': zero denominator; write p/q"):
        ser.parse_rational("1/0")
    with pytest.raises(ser.SchemaError, match="zero denominator"):
        ser.parse_rational("-3/0")
    with pytest.raises(ser.SchemaError):
        ser.parse_rational("abc")


def test_algebra_roundtrip_bit_exact(tmp_path):
    obj = ser.algebra_to_obj(fx.fixture_algebra())
    text = ser.dumps_canonical(obj)
    again = ser.dumps_canonical(ser.roundtrip_obj(json.loads(text), "algebra"))
    assert text == again
    alg = ser.algebra_from_obj(obj)
    assert alg.c == fx.fixture_algebra().c


def test_expansion_roundtrip_normalizes(golden_130):
    obj = ser.expansion_to_obj(golden_130)
    # corrupt a value into non-canonical form; roundtrip restores it
    hacked = json.loads(ser.dumps_canonical(obj))
    for entry in hacked["entries"]:
        if entry[:3] == [4, 2, 6]:
            entry[3] = "-96/1"
    normalized = ser.roundtrip_obj(hacked, "expansion")
    entry = next(e for e in normalized["entries"] if e[:3] == [4, 2, 6])
    assert entry[3] == "-96"
    assert ser.dumps_canonical(normalized) == ser.dumps_canonical(obj)


def test_expansion_entries_sorted(golden_130):
    obj = ser.expansion_to_obj(golden_130)
    keys = [(4 * a * c - b * b, a, b) for a, b, c, _ in obj["entries"]]
    assert keys == sorted(keys)


def test_singular_entries_canonical_order():
    # the singular forms (0, 0, m) all have discriminant 0 and a = b = 0
    entries = {(0, 0, 1): 3, (0, 0, 2): -1, (1, 1, 1): 5}
    forward = expansion(2, 17, 10, entries)
    backward = expansion(2, 17, 10, dict(reversed(list(entries.items()))))
    assert forward.agrees_with(backward)
    assert (ser.dumps_canonical(ser.expansion_to_obj(forward))
            == ser.dumps_canonical(ser.expansion_to_obj(backward)))


def _expansion_doc(**fields):
    doc = {"weight": 2, "level": 17, "bound": 10, "singular_bound": 3, "entries": []}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc, match", [
    (_expansion_doc(entries=[[2, 1, 3, "1"]]), "beyond the bound"),  # disc 23 > 10
    (_expansion_doc(entries=[[0, 0, 5, "1"]]), "beyond the bound"),  # m = 5 > 3
    (_expansion_doc(entries=[[1, 1, 2.7, "1"]]), "three integers"),
    (_expansion_doc(weight=3.9), "weight must be an integer"),
    (_expansion_doc(entries=[[1, 1, 1, "5"], [1, 1, 1, "6"]]), "appears twice"),
    (_expansion_doc(entries=[[0, 0, 2, "5"], [0, 0, 2, "5"]]), "appears twice"),
    (_expansion_doc(bound=-1, singular_bound=0), "negative bound"),
    (_expansion_doc(singular_bound=-1), "negative singular bound -1"),
], ids=["disc-beyond-bound", "singular-beyond-bound", "float-coordinate", "float-weight",
        "duplicate", "duplicate-singular", "negative-bound", "negative-singular-bound"])
def test_expansion_loader_rejects_invalid_documents(doc, match):
    with pytest.raises(ser.SchemaError, match=match):
        ser.expansion_from_obj(doc)


def test_expansion_storage_is_linear_in_the_entries():
    # a bound of 10⁹ has ~10¹³ reduced forms; only the one entry may cost anything
    doc = _expansion_doc(bound=10 ** 9, singular_bound=10 ** 9,
                         entries=[[0, 0, 10 ** 9, "1/2"], [1000, 999, 250000, "-7"]])
    start = time.perf_counter()
    f = ser.expansion_from_obj(doc)
    again = ser.roundtrip_obj(doc, "expansion")
    assert time.perf_counter() - start < 1
    assert again == doc
    assert f.coefficient((1000, -999, 250000)) == -7
    assert f.coefficient((10 ** 9, 0, 0)) == Fraction(1, 2)


def test_lattice_roundtrip_and_rejection():
    alg = fx.fixture_algebra()
    obj = ser.lattice_to_obj(fx.order_r2())
    lat = ser.lattice_from_obj(obj, alg)
    assert lat == fx.order_r2()
    # doubling the last basis vector of R1 breaks multiplicative closure
    bad = json.loads(json.dumps(ser.lattice_to_obj(fx.order_r1())))
    bad["basis"][3] = ["0", "0", "0", "2"]
    with pytest.raises(ser.SchemaError, match="not closed under multiplication"):
        ser.lattice_from_obj(bad, alg)
    rankless = json.loads(json.dumps(obj))
    rankless["basis"][3] = ["1", "0", "0", "0"]
    with pytest.raises(ser.SchemaError):
        ser.lattice_from_obj(rankless, alg)


def test_corrupt_structure_constant_rejected():
    obj = ser.algebra_to_obj(fx.fixture_algebra())
    bad = json.loads(json.dumps(obj))
    bad["structure_constants"][1][2][0] = "99"
    with pytest.raises(ValueError):
        ser.algebra_from_obj(bad)


def test_malformed_json_diagnostic(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"weight": 3,\n  "level": }\n')
    with pytest.raises(ser.SchemaError, match=r"broken\.json:2:"):
        ser.load_json(str(path))


def test_form_roundtrip():
    obj = ser.form_to_obj(fx.phi1())
    again = ser.roundtrip_obj(obj, "form")
    assert obj == again


@pytest.mark.parametrize("field, value, match", [
    ("nu", 2.7, "harmonic degree must be an integer"),
    ("nu", True, "harmonic degree must be an integer"),
    ("nu", "1", "harmonic degree must be an integer"),
    # the form's own rule is AutomorphicForm's, and so is the message
    ("nu", -1, "negative harmonic degree -1"),
    ("values", [["0", "0", "1"], ["0", "0"]], "a degree-1 form has 2ν . 1 = 3 coordinates"),
    ("values", [["0", "0", "1"], ["0", "0", "0", "0", "0"]], "a degree-1 form has 2ν . 1 = 3"),
    ("values", [["0", "0", "1"], "001"], "2 rows .classes., each a list"),
    ("classes", 3, "values must be 3 rows"),
    ("classes", "2", "classes must be an integer"),
    ("classes", None, "classes must be an integer"),
], ids=["float-nu", "boolean-nu", "string-nu", "negative-nu", "short-row", "long-row",
        "string-row", "classes-mismatch", "string-classes", "null-classes"])
def test_form_loader_rejects_invalid_documents(field, value, match):
    doc = ser.form_to_obj(fx.phi1())  # ν = 1 on 2 classes
    doc[field] = value
    with pytest.raises(ser.SchemaError, match=match):
        ser.form_from_obj(doc)
    del doc[field]
    with pytest.raises(ser.SchemaError, match="bad form document"):
        ser.form_from_obj(doc)


def test_a_boolean_is_not_a_rational_anywhere():
    # JSON true and false are Python's True and False, and bool is an int subclass
    for value in (True, False):
        with pytest.raises(ser.SchemaError, match=f"got {value}"):
            ser.parse_rational(value)
    # each boolean sits where the value 1 would be read: it must not pass as 1
    with pytest.raises(ser.SchemaError, match="got True"):
        ser.expansion_from_obj(_expansion_doc(entries=[[0, 0, 1, "1/2"], [0, 0, 2, True]]))
    form = ser.form_to_obj(fx.phi1())
    form["values"][0][2] = True
    with pytest.raises(ser.SchemaError, match="got True"):
        ser.form_from_obj(form)
    algebra = ser.algebra_to_obj(fx.fixture_algebra())
    algebra["structure_constants"][0][0][0] = True
    with pytest.raises(ser.SchemaError, match="got True"):
        ser.algebra_from_obj(algebra)
    lattice = ser.lattice_to_obj(fx.order_r1())
    lattice["basis"][0][0] = True
    with pytest.raises(ser.SchemaError, match="got True"):
        ser.lattice_from_obj(lattice, fx.fixture_algebra())


@pytest.mark.parametrize("field, value", [("structure_constants", 5), ("unit", 7),
                                          ("unit", [1, 0, 0]), ("structure_constants", "abcd")])
def test_algebra_loader_refuses_a_document_of_the_wrong_shape(field, value):
    doc = ser.algebra_to_obj(fx.fixture_algebra())
    doc[field] = value
    with pytest.raises(ser.SchemaError, match="4×4 array of 4-vectors, unit a 4-vector"):
        ser.algebra_from_obj(doc)


@pytest.mark.parametrize("basis", [5, "abcd", [[1, 0, 0, 0]] * 3, [[1, 0, 0, 0]] * 3 + ["1000"]])
def test_lattice_loader_refuses_a_basis_of_the_wrong_shape(basis):
    doc = ser.lattice_to_obj(fx.order_r1())
    doc["basis"] = basis
    with pytest.raises(ser.SchemaError, match="basis must be a 4×4 array"):
        ser.lattice_from_obj(doc, fx.fixture_algebra())


def test_algebra_loader_refuses_an_algebra_that_fails_validation():
    # (−1, −1) is the definite Hamilton quaternions; (1, 1) is the indefinite M₂(Q)
    def doc(table):
        return {"structure_constants": table, "unit": [1, 0, 0, 0]}

    assert ser.algebra_from_obj(doc(quaternion_table(-1, -1))).c == hamilton_algebra().c
    with pytest.raises(ser.SchemaError, match="not positive definite"):
        ser.algebra_from_obj(doc(quaternion_table(1, 1)))
    with pytest.raises(ser.SchemaError, match="unit law fails"):
        ser.algebra_from_obj(doc([[[0] * 4] * 4] * 4))


def test_eigenvalue_map():
    assert ser.eigenvalue_map_to_obj({2: Fraction(-5), 3: Fraction(-8)}) == \
        {"2": "-5", "3": "-8"}


def test_ideal_serialization_includes_orders():
    obj = ser.lattice_to_obj(fx.ideal_i12())
    assert obj["kind"] == "ideal"
    alg = fx.fixture_algebra()
    left = ser.lattice_from_obj({"kind": "order", "basis": obj["left_order"],
                                 "algebra_ref": ""}, alg)
    right = ser.lattice_from_obj({"kind": "order", "basis": obj["right_order"],
                                  "algebra_ref": ""}, alg)
    assert left == fx.order_r2() and right == fx.order_r1()
    text = ser.dumps_canonical(obj)
    import json as _json
    again = ser.dumps_canonical(ser.roundtrip_obj(_json.loads(text), "lattice", alg))
    assert text == again


def json_oracle(obj) -> str:
    """The canonical text by the standard library: the pure-Python indent encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


TEXT = (st.text(max_size=6)
        | st.sampled_from(['"', "\\", "\"\\/", "\x00\x1f\x7f", "é, ∑, 😀", "\ud800", ""]))
SCALARS = (st.none() | st.booleans() | TEXT | st.integers()
           | st.integers(min_value=2 ** 63 - 2, max_value=2 ** 80)
           | st.integers(min_value=-2 ** 80, max_value=-2 ** 63 + 2)
           | st.floats(allow_nan=True, allow_infinity=True))
# one key type per dict: json.dumps cannot sort mixed keys either
KEY_TYPES = st.sampled_from([TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(),
                             st.none()])
DOCUMENTS = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=5)
                  | KEY_TYPES.flatmap(lambda keys: st.dictionaries(keys, kids, max_size=4))),
    max_leaves=40)


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_dumps_canonical_matches_json_dumps(doc):
    assert ser.dumps_canonical(doc) == json_oracle(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": [], "b": {}, "c": [[], {}]}, [[1, 2], [3, [4]], 5], [[[]]],
    {True: 1, False: 2}, {None: [None]}, {1.5: 3, -2: "x"}, {2 ** 70: 1, -1: 2},
    "\\\"\x01é", 7, -2 ** 64, 0.1, -0.0, float("nan"), float("-inf"), True, None,
    # tables (rows of one length, one plain type a column) and near misses
    [[1, "a", None, 1.5, "\x00é"], [-2 ** 70, "b", None, float("nan"), ""]],
    [(1, 2), [3, 4]], [[1], [2]],
    [[1, "a"], ["b", 2]], [[1, 2], [1.5, 3]],  # a column that mixes types
    [[True, 1], [False, 2]], [[1, True], [2, 3]],  # bool is not int
    [[1, 2], [3]], [[]], [[], []], [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]])
def test_dumps_canonical_edge_documents(doc):
    assert ser.dumps_canonical(doc) == json_oracle(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 3}, [object()], {"a": {1, 2}}, Fraction(1, 2),
                                 [[object(), 1], [object(), 2]]])
def test_dumps_canonical_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json_oracle(doc)
    with pytest.raises(TypeError):
        ser.dumps_canonical(doc)


def test_dumps_canonical_on_every_document_kind(golden_130):
    rational = expansion(2, 17, 10, {(0, 0, 1): Fraction(-1, 2), (1, 1, 1): 3,
                                     (1, 0, 2): Fraction(5, 6)})
    docs = {
        "algebra": ser.algebra_to_obj(fx.fixture_algebra()),
        "order": ser.lattice_to_obj(fx.order_r1()),
        "ideal with orders": ser.lattice_to_obj(fx.ideal_i12()),
        "form": ser.form_to_obj(fx.phi1()),
        "eigenvalues": ser.eigenvalue_map_to_obj({2: Fraction(-5), 3: Fraction(1, 3)}),
        "integer expansion": ser.expansion_to_obj(golden_130),
        "rational expansion": ser.expansion_to_obj(rational),
        "empty expansion": ser.expansion_to_obj(FourierExpansionSiegel2(3, 17, 10)),
    }
    assert any("/" in e[3] for e in docs["rational expansion"]["entries"])
    assert not docs["empty expansion"]["entries"]
    for name, doc in docs.items():
        assert ser.dumps_canonical(doc) == json_oracle(doc), name
