"""JSON file formats: algebras, lattices, forms, expansions, local factors.

Rationals are exact strings "num/den" (denominator omitted when 1, sign on the
numerator).  Emission is canonical (sorted keys, fixed separators, trailing
newline) so that parse-then-print is idempotent and byte-stable across runs.

The canonical text is exactly that of json.dumps(obj, sort_keys=True,
separators=(",", ": "), indent=1) plus a newline, but `dumps_canonical` writes
it itself: indent would select json's pure-Python encoder.  It recurses over
dicts (keys sorted) and lists, joins a flat row of scalars once, lays out a
table (rows of one length, one plain scalar type a column) with one `%`
template, its int columns as %d and the others spelled once a column, and
spells strings with json's C string encoder, ints with int.__repr__ (or %d,
the same digits) and every other scalar with json.dumps.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .brandt import AutomorphicForm
from .quatcore import Lattice, QuaternionAlgebra, UsageError, require_int
from .yoshida import FourierExpansionSiegel2


class SchemaError(ValueError):
    """Input file violates the expected schema."""


def rational_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    if type(s) is int:  # not a bool: JSON true and false are not 1 and 0
        return Fraction(s)
    if not isinstance(s, str):
        raise SchemaError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s.replace("−", "-"))
    except ZeroDivisionError:
        raise SchemaError(f"bad rational {s!r}: zero denominator; write p/q with q > 0") from None
    except ValueError as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from None


def dumps_canonical(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
    plus a newline, written without the pure-Python encoder that indent selects."""
    return _text(obj, "\n") + "\n"


# the spelling of each plain scalar type: strings by the C encoder json.dumps
# uses, ints by int.__repr__; json.dumps spells the others and any subclass
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
            float: json.dumps, bool: json.dumps, type(None): json.dumps}
_PLAIN = frozenset(_SCALARS)


def _key(k) -> str:
    if isinstance(k, str):
        return json.encoder.encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return json.encoder.encode_basestring_ascii(json.dumps(k))  # null, true, 7, 1.5
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _text(obj, newline: str) -> str:
    """obj's canonical text; `newline` is a line break and the indent of obj's
    level, one space a level."""
    inner = newline + " "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_key(k) + ": " + _text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _PLAIN.issuperset(map(type, obj)):  # a flat row of scalars: one join
            items = [_SCALARS[type(x)](x) for x in obj]
        else:
            items = _table(obj, inner) or [_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _SCALARS.get(type(obj), json.dumps)(obj)


def _table(rows, newline: str) -> list[str] | None:
    """The texts of `rows` if they are a table: lists or tuples of one nonzero
    length whose columns each hold one plain scalar type.  Each row is laid out
    by one `%` template: int columns as %d (int.__repr__'s digits), the others
    spelled in one pass per column and put in as %s.  None for anything else."""
    if not {list, tuple}.issuperset(map(type, rows)):
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    columns, fields = [], []
    for column in zip(*rows):
        types = set(map(type, column))
        if len(types) != 1 or not _PLAIN.issuperset(types):
            return None
        kind = types.pop()
        columns.append(column if kind is int else map(_SCALARS[kind], column))
        fields.append("%d" if kind is int else "%s")
    inner = newline + " "
    template = "[" + inner + ("," + inner).join(fields) + newline + "]"
    return [template % row for row in zip(*columns)]


def algebra_to_obj(alg: QuaternionAlgebra, basis_names=None) -> dict:
    names = list(basis_names) if basis_names else [f"f{i}" for i in range(4)]
    return {
        "name": alg.name,
        "basis_names": names,
        "structure_constants": [[[rational_to_str(x) for x in vec] for vec in row]
                                for row in alg.c],
        "unit": [rational_to_str(x) for x in alg.one],
    }


def _has_shape(x, shape: tuple[int, ...]) -> bool:
    """Whether x is nested lists (or tuples) of the lengths in `shape`, outermost first."""
    return not shape or (isinstance(x, (list, tuple)) and len(x) == shape[0]
                         and all(_has_shape(y, shape[1:]) for y in x))


def algebra_from_obj(obj: dict) -> QuaternionAlgebra:
    try:
        sc = obj["structure_constants"]
        unit = obj["unit"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"algebra document missing field: {exc}") from None
    if not (_has_shape(sc, (4, 4, 4)) and _has_shape(unit, (4,))):
        raise SchemaError("structure_constants must be a 4×4 array of 4-vectors, unit a 4-vector")
    alg = QuaternionAlgebra(
        [[[parse_rational(x) for x in vec] for vec in row] for row in sc],
        [parse_rational(x) for x in unit],
        name=str(obj.get("name", "D")))
    try:
        alg.validate()
    except ValueError as exc:
        raise SchemaError(f"not a definite quaternion algebra: {exc}") from None
    return alg


def lattice_to_obj(lat: Lattice, algebra_ref: str = "") -> dict:
    obj = {
        "algebra_ref": algebra_ref or lat.algebra.name,
        "kind": "order" if lat.kind == "order" else "ideal",
        "basis": [[rational_to_str(x) for x in row] for row in lat.basis],
    }
    if lat.kind == "ideal":
        obj["left_order"] = [[rational_to_str(x) for x in row] for row in lat.left_order.basis]
        obj["right_order"] = [[rational_to_str(x) for x in row] for row in lat.right_order.basis]
    return obj


def lattice_from_obj(obj: dict, algebra: QuaternionAlgebra) -> Lattice:
    try:
        basis = obj["basis"]
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"lattice document missing field: {exc}") from None
    if kind not in ("order", "ideal"):
        raise SchemaError(f"kind must be 'order' or 'ideal', got {kind!r}")
    if not _has_shape(basis, (4, 4)):
        raise SchemaError("basis must be a 4×4 array")
    try:
        lat = Lattice(algebra, [[parse_rational(x) for x in row] for row in basis], kind)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if kind == "order":
        ok, why = lat.is_order()
        if not ok:
            raise SchemaError(f"lattice is not an order: {why}")
    return lat


def expansion_to_obj(f: FourierExpansionSiegel2) -> dict:
    a, b, c, num, den = f.columns()
    if den == 1:
        values = [str(n) for n in num.tolist()]
    else:
        g = np.gcd(num, den)
        values = [str(n) if d == 1 else f"{n}/{d}"
                  for n, d in zip((num // g).tolist(), (den // g).tolist())]
    return {
        "weight": f.weight,
        "level": f.level,
        "bound": f.bound,
        "singular_bound": f.singular_bound,
        "entries": [list(e) for e in zip(a.tolist(), b.tolist(), c.tolist(), values)],
    }


def _numerators(values) -> tuple[list[int], int]:
    """The values of a column of entries, JSON ints or rational strings, as
    numerators over one positive denominator.  A column of integers converts in
    one pass of int(); a column with any other value is parsed one by one."""
    if set(map(type, values)) <= {int, str}:
        try:
            return list(map(int, values)), 1
        except ValueError:
            pass
    fracs = [v if type(v) is int else parse_rational(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def expansion_from_obj(obj: dict) -> FourierExpansionSiegel2:
    """Parse an expansion document; every entry must be a canonical reduced form
    within the bounds, given once, with an integer form and a rational value.

    The header is checked first, by the expansion's own rule (`require_int`),
    then the entries a column at a time: their shape, the three form columns'
    types, then one int64 array and one column of values."""
    try:
        bound = require_int(obj["bound"], "bound")
        header = (require_int(obj["weight"], "weight"), require_int(obj["level"], "level", 1),
                  bound)
        singular_bound = require_int(obj.get("singular_bound", bound), "singular bound")
        entries = obj["entries"]
        if set(map(type, entries)) - {list} or set(map(len, entries)) - {4}:
            item = next(e for e in entries if not isinstance(e, list) or len(e) != 4)
            raise SchemaError(f"entry {item!r} must be [a, b, c, value]")
        a, b, c, values = zip(*entries) if entries else ((),) * 4
        if set(map(type, a + b + c)) - {int}:
            item = next(e for e in entries if {type(x) for x in e[:3]} != {int})
            raise SchemaError(f"entry {item!r}: the form must be three integers")
        nums, den = _numerators(values)
        return FourierExpansionSiegel2.from_columns(*header, *np.array((a, b, c), dtype=np.int64),
                                                    nums, den, singular_bound=singular_bound)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad expansion document: {exc}") from None


def form_to_obj(phi: AutomorphicForm) -> dict:
    return {
        "nu": phi.nu,
        "classes": phi.h,
        "values": [[rational_to_str(x) for x in v] for v in phi.values],
    }


def form_from_obj(obj: dict) -> AutomorphicForm:
    """Parse a form document: `values` is `classes` lists of rationals.  The form's
    own rule, ν ≥ 0 and 2ν + 1 coordinates per class, is `AutomorphicForm`'s, and
    `classes` is checked by the same `require_int`; a `UsageError` is reported as
    a `SchemaError` with the same message."""
    try:
        nu = require_int(obj["nu"], "harmonic degree")
        classes = require_int(obj["classes"], "classes")
        values = obj["values"]
        if not (_has_shape(values, (classes,))
                and all(isinstance(v, (list, tuple)) for v in values)):
            raise SchemaError(f"values must be {classes} rows (classes), each a list")
        return AutomorphicForm(nu, [tuple(map(parse_rational, v)) for v in values])
    except UsageError as exc:
        raise SchemaError(str(exc)) from None
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad form document: {exc}") from None


def eigenvalue_map_to_obj(m: dict) -> dict:
    return {str(p): rational_to_str(v) for p, v in sorted(m.items())}


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


SCHEMAS = ("algebra", "lattice", "expansion", "form")


def roundtrip_obj(obj: dict, schema: str, algebra: QuaternionAlgebra | None = None) -> dict:
    """Parse and re-emit a document, normalizing rationals; validates the schema."""
    if schema == "algebra":
        alg = algebra_from_obj(obj)
        return algebra_to_obj(alg, obj.get("basis_names"))
    if schema == "lattice":
        if algebra is None:
            raise SchemaError("lattice roundtrip needs its algebra")
        lat = lattice_from_obj(obj, algebra)
        out = lattice_to_obj(lat, obj.get("algebra_ref", ""))
        if "left_order" not in obj:
            out.pop("left_order", None)
            out.pop("right_order", None)
        return out
    if schema == "expansion":
        return expansion_to_obj(expansion_from_obj(obj))
    if schema == "form":
        return form_to_obj(form_from_obj(obj))
    raise SchemaError(f"unknown schema {schema!r} (expected one of {SCHEMAS})")
