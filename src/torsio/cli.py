"""torsio command line interface.

Subcommands: validate, torsion, lambda0, metrics, bounds, surgery, generate,
figure4.  Graphs travel as JSON documents (see parse_graph); all numeric
output is printed with 17 significant digits in a fixed field order, so
identical inputs yield byte-identical stdout.  Exit codes: 0 success,
1 input error, 2 numerical failure, 3 when `bounds` finds a violated
applicable check.  Errors are emitted as structured JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

import numpy as np

from .bounds import check_all, torsion_ordered_path
from .errors import (
    NoConvergenceError,
    SchemaError,
    TorsioError,
)
from .geometry import UNREACHABLE, geometry_summary
from .graphs import (
    ProblemSpec,
    ScaleParams,
    build_graph,
    invert_edge_weights,
    make_complete,
    make_path,
    make_random_connected,
    make_star,
    merge_dirichlet,
    scale,
)
from .solver import _METHODS, SolverOptions, balance_check, solve_torsion
from .spectral import lambda0

SCHEMA_VERSION = 1


# --- deterministic rendering ----------------------------------------------


# a float at 17 significant digits
_FLOAT = "{:.17g}".format


def _fmt_float(x: float) -> str:
    return _FLOAT(float(x))


def render_json(obj: Any, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and insertion-ordered keys.

    Renders None, bools, ints, floats, numpy's float64, strings, dicts,
    lists and tuples, each leaf by its exact type; anything else (a subclass
    of str or int, numpy's int64) is a TypeError.  Strings are escaped as
    json.dumps does."""
    out: list[str] = []
    _emit(obj, "\n" + "  " * indent, out)
    return "".join(out)


# the rendering of each JSON leaf, by its exact type: built-in callables
# where they exist, so most leaves cost no Python call
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: _quote,
    float: _FLOAT,
    np.float64: _fmt_float,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _emit(obj: Any, nl: str, out: list[str]) -> None:
    """Append the rendering of obj to out; nl is the newline and indent of
    the line obj starts on."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            out += (sep, _quote(str(k)), ": ")
            _emit(v, inner, out)
            sep = comma
        out.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in obj:
            out.append(sep)
            _emit(v, inner, out)
            sep = comma
        out.append(nl + "]" if obj else "[]")
    else:
        raise TypeError(f"cannot render {type(obj)!r}")


# --- graph document parsing ------------------------------------------------


_VERTEX_FIELDS = frozenset({"id", "m", "c"})
_EDGE_FIELDS = frozenset({"u", "v", "b"})
# the exact types of a JSON number; bool, a subclass of int, is not one
_NUMBER_TYPES = (int, float)


def _number(value: Any, where: str, i: int = 0) -> float:
    """value as a float; a SchemaError naming the field where.format(i)
    unless it is a JSON number within float range."""
    if type(value) in _NUMBER_TYPES:
        try:
            return float(value)
        except OverflowError:
            problem = "integer out of float range"
    else:
        problem = f"expected a number, got {value!r}"
    raise SchemaError(f"{where.format(i)}: {problem}")


def _record(rec: Any, where: str, i: int, fields: frozenset[str]) -> dict:
    """rec; a SchemaError naming where.format(i) unless it is an object with
    no field outside fields."""
    if type(rec) is not dict:
        raise SchemaError(f"{where.format(i)}: expected an object")
    if not rec.keys() <= fields:
        raise SchemaError(f"{where.format(i)}: unknown fields {sorted(rec.keys() - fields)}")
    return rec


def _refuse_constant(name: str) -> None:
    raise SchemaError(f"non-finite number {name!r} not allowed")


def parse_graph(text: str) -> ProblemSpec:
    """Parse a GraphDocument (UTF-8 JSON) into a ProblemSpec.

    Schema: {version: 1, vertices: [{id, m, c?}], edges: [{u, v, b}],
    dirichlet?: [id], p?: number}.  Unknown fields are rejected; error
    messages cite the offending line or field, and a number is an int or a
    float (not a bool) within float range.  Each vertex and edge record is
    checked in one pass, and the location (``vertices[3].m``) is formatted
    only for the first thing wrong with a record.
    """
    try:
        doc = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None

    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    allowed = {"version", "vertices", "edges", "dirichlet", "p"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown top-level fields {sorted(unknown)}")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"version: expected {SCHEMA_VERSION}, got {doc.get('version')!r}")
    if not isinstance(doc.get("vertices"), list) or not doc["vertices"]:
        raise SchemaError("vertices: expected a nonempty array")
    if not isinstance(doc.get("edges", []), list):
        raise SchemaError("edges: expected an array")

    vertex_records = []
    for i, rec in enumerate(doc["vertices"]):
        vid = _record(rec, "vertices[{}]", i, _VERTEX_FIELDS).get("id")
        if type(vid) is not str:
            raise SchemaError(f"vertices[{i}].id: expected a string")
        m = _number(rec.get("m"), "vertices[{}].m", i)
        vertex_records.append((vid, m, _number(rec.get("c", 0.0), "vertices[{}].c", i)))

    edge_records = []
    for i, rec in enumerate(doc.get("edges", [])):
        u, v = _record(rec, "edges[{}]", i, _EDGE_FIELDS).get("u"), rec.get("v")
        if type(u) is not str or type(v) is not str:
            raise SchemaError(f"edges[{i}]: u and v must be strings")
        edge_records.append((u, v, _number(rec.get("b"), "edges[{}].b", i)))

    graph = build_graph(vertex_records, edge_records)

    dirichlet = doc.get("dirichlet", [])
    if not isinstance(dirichlet, list) or any(not isinstance(v, str) for v in dirichlet):
        raise SchemaError("dirichlet: expected an array of vertex ids")
    bad = [v for v in dirichlet if v not in graph]
    if bad:
        raise SchemaError(f"dirichlet: unknown vertex ids {bad}")
    p = _number(doc.get("p", 2.0), "p")
    return ProblemSpec(graph, frozenset(dirichlet), p)


def graph_document(spec: ProblemSpec) -> dict:
    """Serialize a spec back to the GraphDocument structure (round-trip safe)."""
    g = spec.graph
    return {
        "version": SCHEMA_VERSION,
        "vertices": [
            {"id": v, "m": m, "c": c} for v, m, c in zip(g.vertices, g.m.tolist(), g.c.tolist())
        ],
        "edges": [{"u": u, "v": v, "b": b} for u, v, b in g.edges],
        "dirichlet": sorted(spec.dirichlet, key=g.vertex_index),
        "p": spec.p,
    }


# --- subcommands ------------------------------------------------------------


def _load_spec(args: argparse.Namespace) -> ProblemSpec:
    with open(args.file, encoding="utf-8") as fh:
        spec = parse_graph(fh.read())
    if args.p is not None:
        spec = ProblemSpec(spec.graph, spec.dirichlet, args.p)
    return spec


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(tol=args.tol, method=args.method)


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    g = spec.graph
    payload = {
        "ok": True,
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "free": spec.free_count,
        "dirichlet": sorted(spec.dirichlet, key=g.vertex_index),
        "p": spec.p,
        "well_posed": spec.well_posed,
        "connected": g.is_connected,
    }
    print(render_json(payload))
    return 0


def _cmd_torsion(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    sol = solve_torsion(spec, _solver_options(args))
    bal = balance_check(spec, sol)
    payload = {
        "p": spec.p,
        "method": sol.method,
        "iterations": sol.iterations,
        "residual_inf": sol.residual_inf,
        "rigidity": sol.rigidity,
        "tau": {v: sol.tau[v] for v in spec.graph.vertices},
        "balance": {"lhs": bal.lhs, "rhs": bal.rhs, "ok": bal.ok},
    }
    print(render_json(payload))
    return 0


def _cmd_lambda0(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    sol = lambda0(spec)
    payload = {
        "p": spec.p,
        "method": sol.method,
        "iterations": sol.iterations,
        "lambda0": sol.lambda0,
        "residual": sol.residual,
        "ground_state": {v: sol.ground_state[v] for v in spec.graph.vertices},
    }
    if spec.p != 2.0:
        payload["note"] = "variational upper bound, believed exact"
    print(render_json(payload))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    summary = geometry_summary(spec)
    diam = summary.diameter_inverted
    payload = {
        "q": summary.q,
        "inradius": summary.inradius,
        "mean_distance": summary.mean_distance,
        "diameter_inverted": "unreachable" if diam is UNREACHABLE else diam,
        "min_cut_weight": summary.min_cut_weight,
    }
    print(render_json(payload))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    report = check_all(spec, _solver_options(args))
    if args.format == "md":
        print(report.to_markdown())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(render_json(report.to_dict()))
    return 3 if report.violations else 0


def _cmd_surgery(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.operation == "merge-dirichlet":
        out = merge_dirichlet(spec)
    elif args.operation == "scale":
        g = scale(spec.graph, ScaleParams(mu=args.mu, lam=args.lam))
        out = ProblemSpec(g, spec.dirichlet, spec.p)
    elif args.operation == "invert":
        out = ProblemSpec(invert_edge_weights(spec.graph), spec.dirichlet, spec.p)
    else:  # symmetrize
        out = torsion_ordered_path(spec, _solver_options(args))
    print(render_json(graph_document(out)))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "path":
        spec = make_path(args.free, args.m_mode, args.b, args.p)
    elif args.kind == "star":
        spec = make_star(args.n, args.m_mode, args.b, args.p)
    elif args.kind == "complete":
        spec = make_complete(args.n, args.m_mode, args.b, args.p)
    else:  # random
        seed = args.seed
        env = os.environ.get("TORSIO_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise SchemaError(f"TORSIO_SEED = {env!r} is not an integer") from None
        spec = make_random_connected(
            args.n,
            args.edge_prob,
            (args.wmin, args.wmax),
            seed,
            m_mode=args.m_mode,
            p=args.p,
        )
    print(render_json(graph_document(spec)))
    return 0


def figure4_rows(emax: int) -> list[dict[str, float]]:
    """Kohler-Jobin product data for paths and one-Dirichlet-leaf stars on
    E = 1..emax edges, for unit and degree vertex masses (p = 2)."""
    from .closed_forms import reference_values

    rows = []
    for E in range(1, emax + 1):
        row: dict[str, float] = {"E": float(E)}
        for family in ("path", "star"):
            for mode, tag in (("unit", "unit"), ("degree", "deg")):
                if family == "path":
                    T = float(reference_values("path_T2", E, mode))
                    lam = float(reference_values("path_lambda02", E, mode))
                else:
                    T = float(reference_values("star_T2", E, mode))
                    lam = lambda0(make_star(E, mode)).lambda0
                row[f"T2_{family}_{tag}"] = T
                row[f"lam_{family}_{tag}"] = lam
                row[f"kj_{family}_{tag}"] = T ** (2.0 / 3.0) * lam
        rows.append(row)
    return rows


def _cmd_figure4(args: argparse.Namespace) -> int:
    if args.emax < 1:
        raise SchemaError(f"--emax must be >= 1, got {args.emax}")
    rows = figure4_rows(args.emax)
    print(",".join(rows[0]))
    for row in rows:
        print(",".join(map(_fmt_float, row.values())))
    return 0


# --- entry point ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  A subcommand is declared once, here:
    add() names its subparser and binds its handler _cmd_<name> as the
    default `run`, which main calls; add_file() gives it the graph document
    argument and the --p override, and unless solver is False also --tol and
    --method, which _solver_options reads."""
    top = argparse.ArgumentParser(prog="torsio", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, run: Callable[[argparse.Namespace], int], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_file(p: argparse.ArgumentParser, solver: bool = True) -> argparse.ArgumentParser:
        p.add_argument("file", help="GraphDocument JSON file")
        p.add_argument("--p", type=float, help="override the document exponent")
        if solver:
            p.add_argument("--tol", type=float, help="residual tolerance")
            p.add_argument("--method", choices=_METHODS, default="auto")
        return p

    add_file(add("validate", _cmd_validate, "parse and summarize a graph document"), solver=False)
    add_file(add("torsion", _cmd_torsion, "torsion function and rigidity"))
    add_file(add("lambda0", _cmd_lambda0, "bottom of the p-spectrum"), solver=False)
    add_file(add("metrics", _cmd_metrics, "inradius, mean distance, diameter, min cut"), solver=False)
    pb = add_file(add("bounds", _cmd_bounds, "evaluate the full bound suite"))
    pb.add_argument("--format", choices=("json", "md", "csv"), default="json")

    ps = add("surgery", _cmd_surgery, "emit a transformed graph document")
    ps.add_argument("operation", choices=("merge-dirichlet", "scale", "invert", "symmetrize"))
    add_file(ps)
    ps.add_argument("--mu", type=float, default=1.0, help="measure scale (scale only)")
    ps.add_argument("--lam", type=float, default=1.0, help="weight scale (scale only)")

    pg = add("generate", _cmd_generate, "emit a generated graph document")
    pg.add_argument("kind", choices=("path", "star", "complete", "random"))
    pg.add_argument("--free", type=int, default=3, help="free vertices (path)")
    pg.add_argument("--n", type=int, default=3, help="edges (star) or vertices (complete, random)")
    pg.add_argument("--m-mode", dest="m_mode", choices=("unit", "degree"), default="unit")
    pg.add_argument("--b", type=float, default=1.0, help="uniform edge weight")
    pg.add_argument("--p", type=float, default=2.0)
    pg.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.5)
    pg.add_argument("--wmin", type=float, default=1.0)
    pg.add_argument("--wmax", type=float, default=1.0)
    pg.add_argument("--seed", type=int, default=0)

    pf = add("figure4", _cmd_figure4, "CSV of Kohler-Jobin products for paths and stars")
    pf.add_argument("--emax", type=int, required=True)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`torsio ... | head`): point stdout
        # at devnull, so that the flush at exit cannot fail again, and exit
        # quietly with 1, as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TorsioError, FileNotFoundError, ValueError) as exc:
        print(render_json({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        # a numerical failure exits 2, an input error 1
        return 2 if isinstance(exc, NoConvergenceError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
