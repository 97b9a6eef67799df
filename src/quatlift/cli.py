"""Command-line surface: class sets, Brandt matrices, eigenforms, lifts,
Hecke action, local L-factors and the end-to-end example verification.

All input and output is through JSON files and stdout; outputs are canonical
and byte-stable across runs.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

from . import fixture as fx
from . import serialize as ser
from .brandt import brandt_matrix, eigenforms
from .quatcore import class_set, least_good_prime
from .siegelhecke import (PoleError, eigenvalue_extract, hecke_Tp, lambda_N,
                          rankin_selberg_local, standard_L_local)
from .verify import run_all


@click.group()
@click.version_option()
def main():
    """Exact-arithmetic theta lifts for definite quaternion orders."""


@contextmanager
def _library_errors():
    """Report a library ValueError (UsageError, SchemaError) as an error exit 1."""
    try:
        yield
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


_seed_option = click.option("--seed", type=int, help="prime used for the neighbour search",
                            show_default="the least prime not dividing the level")


def _class_set(algebra_path: str, order_path: str, seed: int | None):
    """The class set of the order file, by the neighbour search at `seed`, or at the
    least prime not dividing the order's level when seed is None."""
    with _library_errors():
        alg = ser.algebra_from_obj(ser.load_json(algebra_path))
        order = ser.lattice_from_obj(ser.load_json(order_path), alg)
        order.require_order()  # before the default seed reads its level
        return class_set(order, least_good_prime(order.level) if seed is None else seed)


@main.command("classset")
@click.option("--algebra", "algebra_path", required=True, type=click.Path(exists=True))
@click.option("--order", "order_path", required=True, type=click.Path(exists=True))
@_seed_option
@click.option("--out", "out_path", type=click.Path(), default=None)
def classset_cmd(algebra_path, order_path, seed, out_path):
    """Right ideal classes of an order: representatives, unit counts, mass."""
    cs = _class_set(algebra_path, order_path, seed)
    click.echo(f"classes: {cs.h}")
    click.echo(f"unit counts: {list(cs.unit_counts)}")
    click.echo(f"mass: {ser.rational_to_str(cs.mass)}")
    if out_path:
        obj = {
            "classes": cs.h,
            "unit_counts": list(cs.unit_counts),
            "mass": ser.rational_to_str(cs.mass),
            "ideals": [ser.lattice_to_obj(i) for i in cs.ideals],
        }
        ser.save_json(out_path, obj)
        click.echo(f"wrote {out_path}")


@main.command("brandt")
@click.option("--algebra", "algebra_path", required=True, type=click.Path(exists=True))
@click.option("--order", "order_path", required=True, type=click.Path(exists=True))
@click.option("--nu", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--prime", "p", required=True, type=int)
@_seed_option
@click.option("--out", "out_path", type=click.Path(), default=None)
def brandt_cmd(algebra_path, order_path, nu, p, seed, out_path):
    """Brandt matrix with harmonic weights at a good prime."""
    cs = _class_set(algebra_path, order_path, seed)
    with _library_errors():
        bm = brandt_matrix(cs, nu, p)
    obj = {
        "prime": p,
        "nu": nu,
        "blocks": [[[[ser.rational_to_str(x) for x in row] for row in bm.blocks[i][j]]
                    for j in range(cs.h)] for i in range(cs.h)],
    }
    if nu == 0:
        sums = [ser.rational_to_str(s) for s in bm.row_sums()]
        click.echo(f"row sums: {sums}")
    click.echo(ser.dumps_canonical(obj) if not out_path else f"classes: {cs.h}")
    if out_path:
        ser.save_json(out_path, obj)
        click.echo(f"wrote {out_path}")


def _integer_list(ctx, param, value: str) -> list[int]:
    """The comma-separated integers of an option; an entry that is not one is a usage error."""
    out = []
    for entry in value.split(","):
        try:
            out.append(int(entry))
        except ValueError:
            raise click.BadParameter(f"entry {entry.strip()!r} of {value!r} is not an integer",
                                     ctx, param) from None
    return out


@main.command("eigenforms")
@click.option("--algebra", "algebra_path", required=True, type=click.Path(exists=True))
@click.option("--order", "order_path", required=True, type=click.Path(exists=True))
@click.option("--nu", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--primes", default="2,3,5", show_default=True, callback=_integer_list,
              help="comma-separated primes of the Hecke operators")
@_seed_option
@click.option("--out", "out_path", type=click.Path(), default=None)
def eigenforms_cmd(algebra_path, order_path, nu, primes, seed, out_path):
    """Simultaneous eigenforms of the Brandt matrices and involutions."""
    cs = _class_set(algebra_path, order_path, seed)
    with _library_errors():
        comps = eigenforms(cs, nu, primes)
    payload = []
    for comp in comps:
        entry = {
            "dimension": comp.dim,
            "involutions": {str(q): e for q, e in sorted(comp.involutions.items())},
            "forms": [ser.form_to_obj(f) for f in comp.forms],
        }
        if comp.hecke:
            entry["eigenvalues"] = ser.eigenvalue_map_to_obj(comp.hecke)
        if comp.charpolys:
            entry["charpoly_factors"] = {
                str(p): [[ser.rational_to_str(c) for c in fac] for fac, _ in cp]
                for p, cp in sorted(comp.charpolys.items())}
        payload.append(entry)
        desc = entry.get("eigenvalues") or entry.get("charpoly_factors")
        click.echo(f"component dim {comp.dim}: involutions {entry['involutions']}, {desc}")
    if out_path:
        ser.save_json(out_path, payload)
        click.echo(f"wrote {out_path}")


@main.command("lift")
@click.option("--fixture", "which", type=click.Choice(["n17"]), required=True)
@click.option("--bound", default=130, show_default=True, type=click.IntRange(min=0),
              help="discriminant bound")
@click.option("--singular-bound", default=None, type=click.IntRange(min=0))
@click.option("--out", "out_path", type=click.Path(), required=True)
def lift_cmd(which, bound, singular_bound, out_path):
    """Degree-2 theta lift of the bundled example as a Fourier expansion file."""
    lift = fx.golden_lift(bound, singular_bound=singular_bound)
    ser.save_json(out_path, ser.expansion_to_obj(lift))
    click.echo(f"wrote {out_path} ({len(lift.columns()[0])} entries, "
               f"weight {lift.weight}, level {lift.level}, bound {lift.bound})")


@main.command("hecke")
@click.option("--expansion", "path", required=True, type=click.Path(exists=True))
@click.option("--prime", "p", required=True, type=int)
@click.option("--out", "out_path", type=click.Path(), default=None)
def hecke_cmd(path, p, out_path):
    """Apply T(p); reports the eigenvalue when the input is an eigenform."""
    from .yoshida import TruncationError
    try:
        f = ser.expansion_from_obj(ser.load_json(path))
    except ser.SchemaError as exc:
        raise click.ClickException(str(exc)) from None
    try:
        g = hecke_Tp(f, p)
    except TruncationError as exc:
        raise click.ClickException(f"refusing: {exc}") from None
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    try:
        lam = eigenvalue_extract(f, g)
        click.echo(f"eigenvalue of T({p}): {ser.rational_to_str(lam)}")
    except ValueError as exc:
        click.echo(f"T({p}): {exc}")
    if out_path:
        ser.save_json(out_path, ser.expansion_to_obj(g))
        click.echo(f"wrote {out_path} (bound {g.bound})")


@main.command("lfactor")
@click.option("--kind", type=click.Choice(["standard", "rankin", "bad"]),
              default="standard", show_default=True)
@click.option("--prime", "p", type=int, default=2, show_default=True)
@click.option("--af", type=ser.parse_rational, metavar="RATIONAL",
              default="-3", show_default=True, help="Hecke eigenvalue of the first form")
@click.option("--ag", type=ser.parse_rational, metavar="RATIONAL",
              default="-1", show_default=True, help="Hecke eigenvalue of the second form")
@click.option("--k1", type=int, default=4, show_default=True)
@click.option("--k2", type=int, default=2, show_default=True)
@click.option("--degree", "n", type=int, default=2, show_default=True)
@click.option("--level", type=int, default=17, show_default=True)
@click.option("--s", "s_value", type=float, default=None, help="evaluate at s")
def lfactor_cmd(kind, p, af, ag, k1, k2, n, level, s_value):
    """Local Euler factors: standard, tensor-product, or the bad-prime factor."""
    if kind == "bad" and s_value is None:
        raise click.UsageError("--kind bad requires --s")
    try:
        if kind == "bad":
            click.echo(f"Lambda_{level}(s={s_value}, n={n}) = {lambda_N(level, n, s_value)!r}")
            return
        if kind == "standard":
            fac = standard_L_local(af, ag, k1, k2, n, p)
        else:
            fac = rankin_selberg_local(af, ag, k1, k2, p)
        click.echo(f"inverse local factor at p={p}: {fac}")
        if s_value is not None:
            click.echo(f"value at s={s_value}: {fac.value(s_value)!r}")
    except PoleError as exc:
        click.echo(f"pole: {exc}")
        sys.exit(2)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc)) from None


@main.command("roundtrip")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--schema", type=click.Choice(ser.SCHEMAS), required=True)
@click.option("--algebra", "algebra_path", type=click.Path(exists=True), default=None,
              help="needed for lattice files")
@click.option("--out", "out_path", type=click.Path(), default=None)
def roundtrip_cmd(in_path, schema, algebra_path, out_path):
    """Parse, validate and canonically re-emit a JSON document."""
    try:
        obj = ser.load_json(in_path)
        alg_obj = ser.load_json(algebra_path) if algebra_path else None
    except ser.SchemaError as exc:  # already "path:line:column: message"
        click.echo(str(exc), err=True)
        sys.exit(1)
    path = algebra_path
    try:
        algebra = None if alg_obj is None else ser.algebra_from_obj(alg_obj)
        path = in_path
        normalized = ser.roundtrip_obj(obj, schema, algebra)
    except ser.SchemaError as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(1)
    text = ser.dumps_canonical(normalized)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command("verify-example")
@click.option("--hecke-bound", default=2600, show_default=True, type=click.IntRange(min=0),
              help="input discriminant bound for the Hecke eigenvalue checks")
def verify_example_cmd(hecke_bound):
    """Run the full bundled-example pipeline and print a pass/fail table."""
    report = run_all(hecke_bound=hecke_bound,
                     progress=lambda msg: click.echo(f"... {msg}", err=True))
    for line in report.lines():
        click.echo(line)
    passed = sum(1 for r in report.results if r.ok)
    click.echo(f"{passed}/{len(report.results)} checks passed")
    if not report.ok:
        sys.exit(1)


@main.command("export-fixture")
@click.option("--dir", "out_dir", required=True, type=click.Path())
def export_fixture_cmd(out_dir):
    """Write the bundled algebra and lattices as JSON files (inputs for other commands)."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    alg = fx.fixture_algebra()
    ser.save_json(os.path.join(out_dir, "ramified17.json"), ser.algebra_to_obj(alg))
    ser.save_json(os.path.join(out_dir, "maximal.json"),
                  ser.lattice_to_obj(fx.order_r1()))
    ser.save_json(os.path.join(out_dir, "maximal2.json"),
                  ser.lattice_to_obj(fx.order_r2()))
    ser.save_json(os.path.join(out_dir, "connecting_ideal.json"),
                  ser.lattice_to_obj(fx.ideal_i12()))
    click.echo(f"wrote fixture files to {out_dir}")


if __name__ == "__main__":
    main()
