"""In-memory spans around the public functions of each quatlift layer.

The traced run patches the functions listed in HOOKS for its duration and
restores them afterwards.  A function is replaced in every quatlift module that
holds it under any name, so a call through `yoshida.short_vectors_upto` is seen
as well as one through `quatcore.short_vectors_upto`, and one through
`brandt.short_vectors` is seen where short_vectors calls short_vectors_upto.
Methods are replaced on their class.

Three kinds of hook:

- SPAN: one record per call, with its parent span, start, end and counters.
- LEAF: a function that calls no other hooked function and runs very often
  (Poly.eval, reduce_form, rref, the numpy pair sums).  Its calls are summed
  per parent span into [calls, seconds, counters] instead of one record each,
  which keeps memory bounded.
- COUNT: no span; the counter hook adds to the innermost open span, so the
  call's time stays in its caller's self time.

A span's self time is its duration minus the durations of its child spans and
leaves.  Spans are kept in memory and written out once, by `write`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import wraps

SPAN, LEAF, COUNT = "span", "leaf", "count"

# span record fields
NAME, PARENT, START, END, COUNTERS, LEAVES = range(6)


def _add_to(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


# Counter hooks: (tracer, counters, args, out), called after a successful call;
# `counters` belongs to the span (or leaf aggregate) the call is recorded in.
def _count_vectors(tracer, counters, args, out):
    _add_to(counters, "quatcore.enum_vectors", sum(len(vs) for vs in out.values()))


def _count_neighbors(tracer, counters, args, out):
    _add_to(counters, "quatcore.neighbors", len(out))


def _count_equivalence(tracer, counters, args, out):
    hit = out[0] if isinstance(out, tuple) else out
    _add_to(counters, "quatcore.ideal_equivalent_calls", 1)
    _add_to(counters, "quatcore.ideal_equivalent_hits", int(bool(hit)))


def _engine_key(tracer, counters, args, out):
    from quatlift import linalg
    lattice, max_norm = args[1], args[2]
    hnf = linalg.hnf_rational(lattice.basis)
    tracer.engine_keys.add((tuple(str(x) for row in hnf for x in row), int(max_norm)))


def _count_pairs(tracer, counters, args, out):
    engine, a, c = args[0], args[1], args[2]
    _add_to(counters, "yoshida.pairs", len(engine.vecs(a)) * len(engine.vecs(c)))


def _count_coeffs_out(tracer, counters, args, out):
    _add_to(counters, "siegelhecke.coeffs_out", len(out.entries))


def _count_bytes(tracer, counters, args, out):
    _add_to(counters, "serialize.bytes", os.path.getsize(args[0]))


# (module, attribute or Class.method, span name, kind, counter hook)
HOOKS = [
    ("quatlift.quatcore", "short_vectors_upto", "quatcore.enum", SPAN, _count_vectors),
    ("quatlift.quatcore", "class_set", "quatcore.class_set", SPAN, None),
    ("quatlift.quatcore", "p_neighbors", "quatcore.p_neighbors", COUNT, _count_neighbors),
    ("quatlift.quatcore", "ideal_equivalent", "quatcore.ideal_equivalent", COUNT,
     _count_equivalence),
    ("quatlift.quatcore", "two_sided_ideal", "quatcore.two_sided_ideal", SPAN, None),
    ("quatlift.linalg", "rref", "linalg.rref", LEAF, None),
    ("quatlift.harmonic", "integral_tau_matrix", "harmonic.tau_matrix", SPAN, None),
    ("quatlift.harmonic", "lift_poly_deg2", "harmonic.lift_poly", SPAN, None),
    ("quatlift.brandt", "brandt_matrix", "brandt.brandt_matrix", SPAN, None),
    ("quatlift.brandt", "atkin_lehner", "brandt.atkin_lehner", SPAN, None),
    ("quatlift.brandt", "eigenforms", "brandt.eigenforms", SPAN, None),
    ("quatlift.yoshida", "ThetaEngine.__init__", "yoshida.engine", SPAN, _engine_key),
    ("quatlift.yoshida", "ThetaEngine.pair_sums_bilinear", "yoshida.pair_sums", LEAF,
     _count_pairs),
    ("quatlift.yoshida", "ThetaEngine.pair_counts", "yoshida.pair_sums", LEAF, _count_pairs),
    ("quatlift.yoshida", "theta2_coefficient", "yoshida.theta2", SPAN, None),
    ("quatlift.polys", "Poly.eval", "polys.eval", LEAF, None),
    ("quatlift.fixture", "golden_lift", "fixture.golden_lift", SPAN, None),
    ("quatlift.siegelhecke", "hecke_Tp", "siegelhecke.hecke", SPAN, _count_coeffs_out),
    ("quatlift.siegelhecke", "eigenvalue_extract", "siegelhecke.extract", SPAN, None),
    ("quatlift.binforms", "reduce_form", "binforms.reduce", LEAF, None),
    ("quatlift.serialize", "expansion_to_obj", "serialize.dump", SPAN, None),
    ("quatlift.serialize", "save_json", "serialize.dump", SPAN, _count_bytes),
    ("quatlift.serialize", "load_json", "serialize.load", SPAN, None),
    ("quatlift.serialize", "expansion_from_obj", "serialize.load", SPAN, None),
]


def _quatlift_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quatlift" or name.startswith("quatlift."))]


class Tracer:
    """Span store for one traced workload iteration (span 0 is the iteration)."""

    def __init__(self):
        self.spans: list[list] = [["bench.workload", -1, None, None, {}, {}]]
        self.stack = [0]
        self.engine_keys: set = set()

    def _wrap(self, func, name: str, kind: str, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        if kind == SPAN:
            @wraps(func)
            def span_wrapper(*args, **kwargs):
                rec = [name, stack[-1], clock(), None, {}, {}]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = func(*args, **kwargs)
                finally:
                    rec[END] = clock()
                    stack.pop()
                if counter is not None:
                    counter(self, rec[COUNTERS], args, out)
                return out
            return span_wrapper

        if kind == LEAF:
            @wraps(func)
            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                out = func(*args, **kwargs)
                dt = clock() - t0
                leaves = spans[stack[-1]][LEAVES]
                agg = leaves.get(name)
                if agg is None:
                    agg = leaves[name] = [0, 0.0, {}]
                agg[0] += 1
                agg[1] += dt
                if counter is not None:
                    counter(self, agg[2], args, out)
                return out
            return leaf_wrapper

        @wraps(func)
        def count_wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            counter(self, spans[stack[-1]][COUNTERS], args, out)
            return out
        return count_wrapper

    @contextmanager
    def installed(self):
        """Patch every hook for the duration of the block; always restores.

        The root span covers the block, less the patching itself.
        """
        undo = []
        try:
            for module_name, attr, name, kind, counter in HOOKS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, name, kind, counter))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, name, kind, counter)
                for mod in _quatlift_modules():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            self.spans[0][START] = time.perf_counter()
            yield self
        finally:
            self.spans[0][END] = time.perf_counter()
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def totals(self) -> dict[str, float]:
        """Flat totals: "calls:<span>", "self_s:<span>" and "counter:<name>"."""
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for rec in self.spans[1:]:
            child_time[rec[PARENT]] += rec[END] - rec[START]
        for i, rec in enumerate(self.spans):
            leaf_s = 0.0
            for leaf, (n, secs, leaf_counters) in rec[LEAVES].items():
                _add_to(out, f"calls:{leaf}", n)
                _add_to(out, f"self_s:{leaf}", secs)
                leaf_s += secs
                for k, v in leaf_counters.items():
                    _add_to(out, f"counter:{k}", v)
            _add_to(out, f"calls:{rec[NAME]}", 1)
            _add_to(out, f"self_s:{rec[NAME]}", rec[END] - rec[START] - child_time[i] - leaf_s)
            for k, v in rec[COUNTERS].items():
                _add_to(out, f"counter:{k}", v)
        out["counter:yoshida.engine_keys"] = len(self.engine_keys)
        return out

    def write(self, path: str) -> None:
        """Write every span (parent index, times from the root start, leaves) as JSON."""
        t0 = self.spans[0][START]
        out = [{"id": i, "name": r[NAME], "parent": r[PARENT],
                "start_s": r[START] - t0, "end_s": r[END] - t0,
                "counters": r[COUNTERS],
                "leaves": {k: {"calls": n, "seconds": s, "counters": c}
                           for k, (n, s, c) in r[LEAVES].items()}}
               for i, r in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": out, "engine_keys": len(self.engine_keys)}, fh)


def layer_metrics(totals: dict[str, float], definitions: list[dict]) -> dict[str, float]:
    """Evaluate the per-layer metric definitions of layers.json on a run's totals.

    A definition's "from" is a totals key, or "<key> / <key>" for a ratio.
    Definitions without "from" are filled in by the caller.
    """
    out = {}
    for d in definitions:
        src = d.get("from")
        if src is None:
            continue
        if " / " in src:
            num, den = (totals.get(k.strip(), 0) for k in src.split(" / "))
            out[d["name"]] = num / den if den else 0.0
        else:
            out[d["name"]] = totals.get(src, 0.0 if src.startswith("self_s:") else 0)
    return out
