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
import json
import os
import sys
from typing import Any

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


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj: Any, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and insertion-ordered keys."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


# --- graph document parsing ------------------------------------------------


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    return float(value)


def parse_graph(text: str) -> ProblemSpec:
    """Parse a GraphDocument (UTF-8 JSON) into a ProblemSpec.

    Schema: {version: 1, vertices: [{id, m, c?}], edges: [{u, v, b}],
    dirichlet?: [id], p?: number}.  Unknown fields are rejected; error
    messages cite the offending line or field.
    """
    try:
        doc = json.loads(
            text,
            parse_constant=lambda s: (_ for _ in ()).throw(
                SchemaError(f"non-finite number {s!r} not allowed")
            ),
        )
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
        where = f"vertices[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = set(rec) - {"id", "m", "c"}
        if unknown:
            raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
        if not isinstance(rec.get("id"), str):
            raise SchemaError(f"{where}.id: expected a string")
        m = _number(rec.get("m"), f"{where}.m")
        c = _number(rec.get("c", 0.0), f"{where}.c")
        vertex_records.append((rec["id"], m, c))

    edge_records = []
    for i, rec in enumerate(doc.get("edges", [])):
        where = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = set(rec) - {"u", "v", "b"}
        if unknown:
            raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
        if not isinstance(rec.get("u"), str) or not isinstance(rec.get("v"), str):
            raise SchemaError(f"{where}: u and v must be strings")
        edge_records.append((rec["u"], rec["v"], _number(rec.get("b"), f"{where}.b")))

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
            {"id": v, "m": g.measure[v], "c": g.potential[v]} for v in g.vertices
        ],
        "edges": [{"u": u, "v": v, "b": b} for u, v, b in g.edges],
        "dirichlet": sorted(spec.dirichlet, key=g.vertex_index),
        "p": spec.p,
    }


# --- subcommands ------------------------------------------------------------


def _load_spec(args: argparse.Namespace) -> ProblemSpec:
    with open(args.file, encoding="utf-8") as fh:
        spec = parse_graph(fh.read())
    if getattr(args, "p", None) is not None:
        spec = ProblemSpec(spec.graph, spec.dirichlet, args.p)
    return spec


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(
        tol=getattr(args, "tol", None),
        method=getattr(args, "method", None) or "auto",
    )


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
    sol = lambda0(spec, _solver_options(args))
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


_FIG4_COLUMNS = (
    "E",
    "T2_path_unit",
    "lam_path_unit",
    "kj_path_unit",
    "T2_path_deg",
    "lam_path_deg",
    "kj_path_deg",
    "T2_star_unit",
    "lam_star_unit",
    "kj_star_unit",
    "T2_star_deg",
    "lam_star_deg",
    "kj_star_deg",
)


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
    print(",".join(_FIG4_COLUMNS))
    for row in rows:
        print(",".join(_fmt_float(row[c]) for c in _FIG4_COLUMNS))
    return 0


# --- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="torsio", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_solver: bool = True) -> None:
        p.add_argument("file", help="GraphDocument JSON file")
        p.add_argument("--p", type=float, default=None, help="override the document exponent")
        if with_solver:
            p.add_argument("--tol", type=float, default=None, help="residual tolerance")
            p.add_argument("--method", choices=_METHODS, default=None)

    add_common(sub.add_parser("validate", help="parse and summarize a graph document"), False)
    add_common(sub.add_parser("torsion", help="torsion function and rigidity"))
    add_common(sub.add_parser("lambda0", help="bottom of the p-spectrum"))
    add_common(sub.add_parser("metrics", help="inradius, mean distance, diameter, min cut"), False)
    pb = sub.add_parser("bounds", help="evaluate the full bound suite")
    add_common(pb)
    pb.add_argument("--format", choices=("json", "md", "csv"), default="json")

    ps = sub.add_parser("surgery", help="emit a transformed graph document")
    ps.add_argument("operation", choices=("merge-dirichlet", "scale", "invert", "symmetrize"))
    add_common(ps)
    ps.add_argument("--mu", type=float, default=1.0, help="measure scale (scale only)")
    ps.add_argument("--lam", type=float, default=1.0, help="weight scale (scale only)")

    pg = sub.add_parser("generate", help="emit a generated graph document")
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

    pf = sub.add_parser("figure4", help="CSV of Kohler-Jobin products for paths and stars")
    pf.add_argument("--emax", type=int, required=True)
    return top


_COMMANDS = {
    "validate": _cmd_validate,
    "torsion": _cmd_torsion,
    "lambda0": _cmd_lambda0,
    "metrics": _cmd_metrics,
    "bounds": _cmd_bounds,
    "surgery": _cmd_surgery,
    "generate": _cmd_generate,
    "figure4": _cmd_figure4,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NoConvergenceError, np.linalg.LinAlgError) as exc:
        print(render_json({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (TorsioError, FileNotFoundError, ValueError) as exc:
        print(render_json({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
