"""Command line interface: schema, determinism, subcommands, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsio import SchemaError, lambda0, make_complete, make_path, make_star, solve_torsion
from torsio.bounds import BoundCheck, BoundReport
from torsio.cli import _build_parser, figure4_rows, graph_document, main, parse_graph, render_json

MINIMAL = {
    "version": 1,
    "vertices": [{"id": "a", "m": 1}, {"id": "b", "m": 1}],
    "edges": [{"u": "a", "v": "b", "b": 1}],
    "dirichlet": ["a"],
    "p": 2,
}

PATH3 = {
    "version": 1,
    "vertices": [{"id": f"v{j}", "m": 1} for j in range(4)],
    "edges": [{"u": f"v{j}", "v": f"v{j + 1}", "b": 1} for j in range(3)],
    "dirichlet": ["v0"],
    "p": 2,
}


def write(tmp_path, doc, name="g.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def test_parse_minimal_document():
    spec = parse_graph(json.dumps(MINIMAL))
    assert spec.graph.vertex_count == 2
    assert spec.dirichlet == frozenset({"a"})
    assert spec.p == 2.0


def test_parse_merges_duplicate_edges():
    doc = dict(MINIMAL)
    doc["edges"] = [{"u": "a", "v": "b", "b": 1}, {"u": "b", "v": "a", "b": 2}]
    spec = parse_graph(json.dumps(doc))
    assert spec.graph.edge_weight("a", "b") == 3.0


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown top-level fields"),
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.update(dirichlet=["zz"]), "unknown vertex ids"),
        (lambda d: d["vertices"].append({"id": "c"}), "vertices[2].m"),
        (lambda d: d["vertices"][0].update(mass=2), "unknown fields"),
        (lambda d: d["edges"][0].update(b=True), "edges[0].b"),
        (lambda d: d.update(p="two"), "p"),
    ],
)
def test_parse_schema_errors(mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_graph(json.dumps(doc))
    assert fragment in str(err.value)


def _minimal_with(mutate):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    return json.dumps(doc)


def _path3_with(mutate):
    doc = json.loads(json.dumps(PATH3))
    mutate(doc)
    return json.dumps(doc)


HUGE = 10**400 - 1  # 400 nines: an integer float() cannot convert


# (message fragment, document text) for each schema error of parse_graph
SCHEMA_ERRORS = [
    ("non-finite number 'NaN'", json.dumps(MINIMAL).replace('"p": 2', '"p": NaN')),
    ("non-finite number 'Infinity'", json.dumps(MINIMAL).replace('"m": 1', '"m": Infinity', 1)),
    ("top level: expected an object", "[]"),
    ("vertices: expected a nonempty array", _minimal_with(lambda d: d.update(vertices=[]))),
    ("edges: expected an array", _minimal_with(lambda d: d.update(edges={}))),
    ("vertices[0]: expected an object", _minimal_with(lambda d: d["vertices"].__setitem__(0, "a"))),
    ("vertices[0].id: expected a string", _minimal_with(lambda d: d["vertices"][0].update(id=1))),
    ("edges[0]: expected an object", _minimal_with(lambda d: d["edges"].__setitem__(0, ["a", "b", 1]))),
    ("edges[0]: unknown fields ['w']", _minimal_with(lambda d: d["edges"][0].update(w=1))),
    ("edges[0]: u and v must be strings", _minimal_with(lambda d: d["edges"][0].update(v=2))),
    ("dirichlet: expected an array of vertex ids", _minimal_with(lambda d: d.update(dirichlet="a"))),
    # a failure at a later record names that record and field with the full
    # message; records before it pass the one-pass check
    ("vertices[3].m: expected a number, got True", _path3_with(lambda d: d["vertices"][3].update(m=True))),
    ("vertices[2].c: expected a number, got '1'", _path3_with(lambda d: d["vertices"][2].update(c="1"))),
    ("edges[2]: unknown fields ['w']", _path3_with(lambda d: d["edges"][2].update(w=1))),
    ("edges[1]: u and v must be strings", _path3_with(lambda d: d["edges"][1].update(u=1))),
    # an integer beyond float range is named, not an OverflowError traceback
    ("vertices[1].m: integer out of float range", _path3_with(lambda d: d["vertices"][1].update(m=HUGE))),
    ("vertices[2].c: integer out of float range", _path3_with(lambda d: d["vertices"][2].update(c=-HUGE))),
    ("edges[1].b: integer out of float range", _path3_with(lambda d: d["edges"][1].update(b=HUGE))),
    ("p: integer out of float range", _path3_with(lambda d: d.update(p=HUGE))),
]


@pytest.mark.parametrize("fragment, text", SCHEMA_ERRORS, ids=[fragment for fragment, _ in SCHEMA_ERRORS])
def test_cli_schema_errors(tmp_path, capsys, fragment, text):
    f = tmp_path / "g.json"
    f.write_text(text)
    assert main(["validate", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "SchemaError", "message": err["message"]}
    assert fragment in err["message"]


def test_parse_invalid_json_cites_line():
    with pytest.raises(SchemaError) as err:
        parse_graph("{\n  broken\n}")
    assert "line 2" in str(err.value)


def test_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    doc = {
        "version": 1,
        "vertices": [
            {"id": f"n{j}", "m": float(rng.uniform(0.1, 3)), "c": float(rng.uniform(0, 1))}
            for j in range(5)
        ],
        "edges": [
            {"u": f"n{j}", "v": f"n{j + 1}", "b": float(rng.uniform(0.1, 3))}
            for j in range(4)
        ],
        "dirichlet": ["n0"],
        "p": 2.5,
    }
    spec = parse_graph(json.dumps(doc))
    emitted = render_json(graph_document(spec))
    spec2 = parse_graph(emitted)
    assert spec2.graph.vertices == spec.graph.vertices
    assert spec2.graph.measure == spec.graph.measure
    assert spec2.graph.potential == spec.graph.potential
    assert spec2.graph.edges == spec.graph.edges
    assert spec2.p == spec.p
    assert render_json(graph_document(spec2)) == emitted


def test_render_json_17_digits():
    out = render_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in out


def _recursive_render_json(obj, indent=0):
    """The recursive renderer that render_json replaced, kept as its oracle."""
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
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_recursive_render_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_recursive_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


# non-ASCII, control characters and lone surrogates, all of which json.dumps
# escapes
_TEXT = st.text(st.characters(codec=None, categories=None), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", "tab\tnew\nline", 'quote" back\\', "é€😀", "\ud800"]
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0 / 3.0, 1e-320, float("inf"), float("-inf"), float("nan")]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | _TEXT
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(obj=_TREES, indent=st.integers(min_value=0, max_value=3))
def test_render_json_matches_the_recursive_renderer(obj, indent):
    assert render_json(obj, indent) == _recursive_render_json(obj, indent)


@pytest.mark.parametrize("obj", [{1: 2.5, None: [True, ()]}, {"doc": graph_document(make_path(40, "degree"))}])
def test_render_json_matches_the_recursive_renderer_on_documents(obj):
    # non-string keys render through str(); a graph document is the largest
    # thing the CLI prints
    assert render_json(obj) == _recursive_render_json(obj)
    assert render_json(obj, 2) == _recursive_render_json(obj, 2)


@pytest.mark.parametrize(
    "obj",
    [
        {"ok": True, "no": False, "n": -3, "none": None, "zero": -0.0, "np": np.float64(0.1),
         "pair": (1, 2.5), "empty": {}, "nil": [], "unit": (), "clé €": "ünï", "nested": {"x": [np.float64(-0.0), 1e-320]}},
        [-0.0, np.float64(2.0), (), {}, None, True, False, 0, 2**70, "\u00e9\n"],
        -0.0, np.float64(1.0 / 3.0), "naïve", (), {}, [], True, None, 7,
    ],
)
def test_render_json_matches_the_recursive_renderer_on_every_leaf_kind(obj):
    # each leaf kind, numpy's float64 included, is looked up by its exact
    # type; tuples and empty containers take the container branches
    for indent in (0, 1):
        assert render_json(obj, indent) == _recursive_render_json(obj, indent)


@pytest.mark.parametrize("obj", [{"x": np.int64(1)}, [1, {2, 3}], b"bytes"])
def test_render_json_rejects_unsupported_types(obj):
    with pytest.raises(TypeError, match="cannot render"):
        render_json(obj)


def test_cli_torsion_path3(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    assert main(["torsion", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rigidity"] == pytest.approx(14.0, rel=1e-10)
    assert payload["tau"]["v3"] == pytest.approx(6.0, rel=1e-10)
    assert payload["balance"]["ok"] is True


def test_cli_determinism(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    main(["torsion", f])
    first = capsys.readouterr().out
    main(["torsion", f])
    second = capsys.readouterr().out
    assert first == second


def test_cli_validate_and_metrics(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    assert main(["validate", f]) == 0
    v = json.loads(capsys.readouterr().out)
    assert v["well_posed"] and v["connected"] and v["free"] == 3
    assert main(["metrics", f]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["inradius"] == 3.0
    assert m["min_cut_weight"] == 1.0


def test_cli_lambda0(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    assert main(["lambda0", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda0"] == pytest.approx(2 * (1 - np.cos(np.pi / 7)), abs=1e-12)
    assert main(["lambda0", f, "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["note"] == "variational upper bound, believed exact"


def test_cli_bounds_exit_codes(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, PATH3)
    assert main(["bounds", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert main(["bounds", f, "--format", "md"]) == 0
    assert "| saint_venant_general |" in capsys.readouterr().out
    assert main(["bounds", f, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out.strip().splitlines()
    assert csv_out[0] == "id,applicable,lhs,rhs,satisfied,slack,reason"
    assert csv_out[1].startswith("saint_venant_general,true,")

    # a fabricated violated check must flip the exit code to 3
    bad = BoundReport(
        summary={},
        checks=(
            BoundCheck(
                id="saint_venant_general",
                statement="s",
                applicable=True,
                lhs=2.0,
                rhs=1.0,
                satisfied=False,
                slack=-1.0,
            ),
        ),
    )
    monkeypatch.setattr("torsio.cli.check_all", lambda spec, opts: bad)
    assert main(["bounds", f]) == 3
    capsys.readouterr()


def test_cli_surgery(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    assert main(["surgery", "scale", f, "--mu", "2", "--lam", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"][1]["m"] == 2.0
    assert doc["edges"][0]["b"] == 4.0
    assert main(["surgery", "invert", f]) == 0
    capsys.readouterr()
    assert main(["surgery", "merge-dirichlet", f]) == 0
    capsys.readouterr()
    assert main(["surgery", "symmetrize", f]) == 0
    sym = json.loads(capsys.readouterr().out)
    assert [v["id"] for v in sym["vertices"]] == ["p0", "p1", "p2", "p3"]
    assert sym["dirichlet"] == ["p0"]


def test_cli_generate_with_env_seed(tmp_path, capsys, monkeypatch):
    argv = ["generate", "random", "--n", "6", "--edge-prob", "0.5", "--wmin", "0.5", "--wmax", "2", "--seed", "1"]
    main(argv)
    base = capsys.readouterr().out
    monkeypatch.setenv("TORSIO_SEED", "7")
    main(argv)
    overridden = capsys.readouterr().out
    assert base != overridden
    main(["generate", "random", "--n", "6", "--edge-prob", "0.5", "--wmin", "0.5", "--wmax", "2", "--seed", "7"])
    direct = capsys.readouterr().out
    assert overridden == direct
    monkeypatch.delenv("TORSIO_SEED")
    main(["generate", "star", "--n", "3", "--m-mode", "degree"])
    star = json.loads(capsys.readouterr().out)
    assert star["vertices"][1] == {"id": "v1", "m": 3.0, "c": 0.0}


def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from torsio import NoConvergenceError

    def boom(spec, opts=None):
        raise NoConvergenceError("stalled", iterations=5, residual=1.0)

    monkeypatch.setattr("torsio.cli.solve_torsion", boom)
    f = write(tmp_path, PATH3)
    assert main(["torsion", f]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergenceError"


def _stiff_path(b):
    """a - b - c with edge weights 1 and b, Dirichlet set {a}, at p = 1.05."""
    return {
        "version": 1,
        "vertices": [{"id": v, "m": 1} for v in "abc"],
        "edges": [{"u": "a", "v": "b", "b": 1}, {"u": "b", "v": "c", "b": b}],
        "dirichlet": ["a"],
        "p": 1.05,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, b", [("metrics", 1e16)])
def test_cli_overflowing_edge_cost_is_an_input_error(tmp_path, capsys, command, b):
    # the edge cost 1e16^(1/(p-1)) = 1e320 overflows
    assert main([command, write(tmp_path, _stiff_path(b))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidQError"
    assert err["message"].startswith("q = 1.05: ") and "b = 1e+16" in err["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "doc, fmt",
    [
        # bounds meets the edge cost 1e16^(1/(p-1)) = 1e320 on the
        # weight-inverted graph of its mean-distance and inradius rows
        (_stiff_path(1e-16), "json"),
        # `torsio generate path --free 3 --b 1e-310 --p 2`: 1/b is inf
        (graph_document(make_path(3, "unit", 1e-310, 2.0)), "json"),
        (graph_document(make_path(3, "unit", 1e-310, 2.0)), "md"),
        # `... --m-mode degree --b 1e-300 --p 20`: d^(q-1) of a distance overflows
        (graph_document(make_path(3, "degree", 1e-300, 20.0)), "csv"),
    ],
    ids=["stiff-path-json", "subnormal-b-json", "subnormal-b-md", "degree-p20-csv"],
)
def test_cli_bounds_on_an_inverted_graph_out_of_float_range_completes(tmp_path, capsys, doc, fmt):
    assert main(["bounds", write(tmp_path, doc), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "the weight-inverted graph leaves float range: " in captured.out
    if fmt == "json":
        _strict_json(captured.out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_lambda0_with_an_overflowing_dirichlet_row_is_silent(tmp_path, capsys):
    # `torsio generate complete --n 3 --b 1e308 --p 1.05`: the fluxes into
    # the Dirichlet vertex overflow, but its row is not part of the residual
    assert main(["lambda0", write(tmp_path, graph_document(make_complete(3, "unit", 1e308, 1.05)))]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _strict_json(captured.out)["lambda0"] == 1e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["newton", "gauss_seidel"])
def test_cli_overflowing_torsion_is_a_numerical_failure(tmp_path, capsys, method):
    # tau(c) is about 1e320 on the stiff path with b = 1e-16: out of float range
    assert main(["torsion", write(tmp_path, _stiff_path(1e-16)), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NoConvergenceError"
    assert "overflows a float" in err["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_torsion_with_an_overflowing_energy_power(tmp_path, capsys):
    # with b = 1e-308 at p = 3, tau(c) is about 1e154: |d|^3 overflows in the
    # Armijo objective, while b |d|^3 = 1e154 and T_p = 1e308 are finite
    doc = dict(_stiff_path(1e-308), p=3)
    assert main(["torsion", write(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["rigidity"] == pytest.approx(1e308, rel=1e-12)
    assert out["tau"]["c"] == pytest.approx(1e154, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["torsion", "lambda0", "bounds"])
def test_cli_overflowing_newton_step_is_a_numerical_failure(tmp_path, capsys, command):
    # `torsio generate path --free 10 --b 1e300 --p 1.05`: toward p < 2 the
    # Hessian weights b (p-1) |d|^(p-2) overflow in the first Newton legs
    f = write(tmp_path, graph_document(make_path(10, "unit", 1e300, 1.05)))
    code = main([command, f])
    captured = capsys.readouterr()
    if command == "bounds":
        assert code == 0 and captured.err == ""
        reasons = {row["id"]: row["reason"] for row in json.loads(captured.out)["checks"]}
        assert reasons["trivial_lower"].startswith("torsion solve failed: the Newton step at p = ")
        assert reasons["trivial_lower"].endswith(" overflows a float")
        assert reasons["polya_szego_product"].startswith("torsion solve failed: the Newton step")
        return
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NoConvergenceError"
    assert err["message"].startswith("the Newton step at p = ") and err["message"].endswith(" overflows a float")


def _torsion_failure(tmp_path, capsys, spec):
    """The message of a `torsio torsion` call that fails numerically."""
    assert main(["torsion", write(tmp_path, graph_document(spec))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NoConvergenceError"
    return err["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "b, p, fragment",
    [
        # T_p = (sum tau m)^7 of a converged solve
        (1e-300, 8.0, "T_p = (sum tau m)^(p-1) = "),
        # the flux phi_p(du) overflows, and the residual with it, in a step
        # of the continuation; the Newton leg raises at once
        (1e-300, 20.0, "the Newton step at p = 18.7577 overflows a float"),
        # the energy sum b |du|^3 of that bracket underflows to 0
        (1e300, 3.0, "and the bracket on T_p underflows a float"),
    ],
)
def test_cli_torsion_out_of_float_range_is_a_numerical_failure(tmp_path, capsys, b, p, fragment):
    # `torsio generate path --free 10 --b <b> --p <p>` and then `torsio torsion`
    message = _torsion_failure(tmp_path, capsys, make_path(10, "unit", b, p))
    assert fragment in message
    assert "overflows a float" in message or "underflows a float" in message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_torsion_with_an_overflowing_polya_side_is_a_numerical_failure(tmp_path, capsys):
    # `torsio generate path --free 10 --b 1e-27 --p 1.1`: Newton stalls at a
    # finite residual, and the Polya side (sum |u| m)^1.1 of its bracket
    # overflows
    message = _torsion_failure(tmp_path, capsys, make_path(10, "unit", 1e-27, 1.1))
    assert message.startswith("Newton stopped at residual 1.045e-08 > tol ")
    assert message.endswith(", and the bracket on T_p overflows a float")



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_torsion_with_an_overflowing_l1_sum_is_a_numerical_failure(tmp_path, capsys):
    # `torsio generate star --n 4 --m-mode degree --b 1e300 --p 1.05`: the
    # solve converges, but sum tau m overflows to inf before its power
    message = _torsion_failure(tmp_path, capsys, make_star(4, "degree", 1e300, 1.05))
    assert message == "T_p = (sum tau m)^(p-1) = inf^0.05 overflows a float"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_bounds_with_a_failing_check_arithmetic_completes(tmp_path, capsys):
    # `torsio generate path --free 5 --b 1e30 --p 1.05`: the distances of the
    # inverted graph underflow to 0, and the mean-distance bounds divide by them
    f = write(tmp_path, graph_document(make_path(5, "unit", 1e30, 1.05)))
    assert main(["bounds", f]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {row["id"]: row for row in json.loads(captured.out)["checks"]}
    row = rows["mean_distance_lambda_lower"]
    assert (row["applicable"], row["satisfied"], row["lhs"], row["rhs"]) == (True, None, None, None)
    assert row["reason"] == "ZeroDivisionError: float division by zero"

def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    f = write(tmp_path, PATH3)
    _build_parser.cache_clear()
    main(["surgery", "scale", f])
    fresh_scale = capsys.readouterr().out
    main(["bounds", f])
    fresh_bounds = capsys.readouterr().out
    # options given to one call do not become the defaults of the next
    assert main(["surgery", "scale", f, "--mu", "2", "--lam", "0.5"]) == 0
    assert capsys.readouterr().out != fresh_scale
    assert main(["surgery", "scale", f]) == 0
    assert capsys.readouterr().out == fresh_scale
    assert main(["bounds", f, "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("|")
    assert main(["bounds", f]) == 0
    assert capsys.readouterr().out == fresh_bounds
    json.loads(fresh_bounds)
    # an argparse exit leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", f])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["validate", f]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    for _ in range(20):
        main(["validate", f])
    capsys.readouterr()
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 27)


def test_cli_exits_quietly_when_stdout_closes_early():
    # as `torsio generate path --free 10000 | head -c 100`: 1.3 MB of output
    # outgrows the pipe, so the writes after the reader is gone raise EPIPE
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "torsio.cli", "generate", "path", "--free", "10000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("option", [["--tol", "1e-300"], ["--method", "gauss_seidel"]])
def test_cli_lambda0_rejects_solver_options(tmp_path, capsys, option):
    # lambda0 takes neither a residual tolerance nor a torsion method
    with pytest.raises(SystemExit) as exc:
        main(["lambda0", write(tmp_path, PATH3), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def test_cli_overflowing_distance_power_is_an_input_error(tmp_path, capsys):
    assert main(["metrics", write(tmp_path, graph_document(make_path(10, "unit", 1e300, 20.0)))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidQError"
    assert err["message"].startswith("q = 20.0: ") and "distance" in err["message"]


def test_cli_bounds_reports_a_singular_torsion_solve(tmp_path, capsys):
    # 1 + 1e16 == 1e16 in floats, so the torsion solve meets an exactly
    # singular matrix; the report still completes
    assert main(["bounds", write(tmp_path, _stiff_path(1e16)), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 21
    assert "trivial_lower,true,,,,,torsion solve failed: Singular matrix" in rows


def test_cli_singular_torsion_solve_is_a_numerical_failure(tmp_path, capsys):
    assert main(["torsion", write(tmp_path, _stiff_path(1e16))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "NoConvergenceError", "message": "Singular matrix"}


def test_cli_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["torsion", missing]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["torsion", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    doc = dict(PATH3)
    doc = json.loads(json.dumps(PATH3))
    doc["dirichlet"] = []
    f = write(tmp_path, doc, "illposed.json")
    assert main(["torsion", f]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IllPosedError"


def test_figure4_rows_consistency():
    rows = figure4_rows(3)
    first = rows[0]
    # single edge: every configuration degenerates to T2 = 1, lambda = 1
    for col in ("kj_path_unit", "kj_path_deg", "kj_star_unit", "kj_star_deg"):
        assert first[col] == pytest.approx(1.0, abs=1e-12)
    # independent recomputation through the solver and the eigensolver
    for E, row in zip(range(1, 4), rows):
        for mode, tag in (("unit", "unit"), ("degree", "deg")):
            spec = make_path(E, mode)
            assert row[f"T2_path_{tag}"] == pytest.approx(
                solve_torsion(spec).rigidity, rel=1e-9
            )
            assert row[f"lam_path_{tag}"] == pytest.approx(
                lambda0(spec).lambda0, abs=1e-11
            )


def test_cli_figure4_csv(tmp_path, capsys):
    assert main(["figure4", "--emax", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[0].split(",")
    assert header == [
        "E",
        *(f"{q}_{family}_{tag}" for family in ("path", "star") for tag in ("unit", "deg") for q in ("T2", "lam", "kj")),
    ]
    assert header == list(figure4_rows(1)[0])
    row1 = dict(zip(header, out[1].split(",")))
    assert float(row1["T2_path_deg"]) == 1.0
    assert float(row1["kj_path_deg"]) == pytest.approx(1.0, abs=1e-12)
    row2 = dict(zip(header, out[2].split(",")))
    assert float(row2["T2_star_deg"]) == 10.0
    assert float(row2["T2_path_unit"]) == 5.0


def test_cli_figure4_needs_an_edge(capsys):
    assert main(["figure4", "--emax", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "SchemaError", "message": "--emax must be >= 1, got 0"}


def test_cli_generate_path_and_complete(capsys):
    assert main(["generate", "path", "--free", "2", "--b", "2", "--p", "3"]) == 0
    path = parse_graph(capsys.readouterr().out)
    assert list(path.graph.edges) == [("v0", "v1", 2.0), ("v1", "v2", 2.0)]
    assert (path.dirichlet, path.p) == (frozenset({"v0"}), 3.0)
    assert main(["generate", "complete", "--n", "4", "--m-mode", "degree"]) == 0
    complete = parse_graph(capsys.readouterr().out)
    assert complete.graph.edge_count == 6
    assert set(complete.graph.measure.values()) == {3.0}


@pytest.mark.parametrize("seed", ["seven", "1.5", ""])
def test_cli_generate_rejects_a_non_integer_env_seed(capsys, monkeypatch, seed):
    monkeypatch.setenv("TORSIO_SEED", seed)
    assert main(["generate", "random", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SchemaError",
        "message": f"TORSIO_SEED = {seed!r} is not an integer",
    }


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
def test_cli_torsion_rejects_a_tolerance_out_of_range(tmp_path, capsys, tol):
    # `--tol inf` accepted the first iterate of the final Newton leg: rigidity
    # 639.51 on this path at p = 3, where the closed form is 795.52
    f = write(tmp_path, graph_document(make_path(5, p=3.0)))
    assert main(["torsion", f, f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("tol must be None or a finite number >= 0, got ")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [make_star, make_complete])
def test_cli_metrics_stay_finite_on_extreme_weights(tmp_path, capsys, make):
    # `torsio generate star --n 4 --m-mode degree --b 1e300 --p 2`: the mass
    # weighted sum behind mean_distance overflows, the mean does not
    assert main(["metrics", write(tmp_path, graph_document(make(4, "degree", 1e300, 2.0)))]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert 0.0 < out["mean_distance"] <= out["inradius"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_metrics_with_an_overflowing_min_cut_is_a_numerical_failure(tmp_path, capsys):
    # `torsio generate complete --n 3 --b 1e308 --p 2`: every cut crosses two
    # edges and weighs 2e308, which is not "disconnected" (0)
    doc = graph_document(make_complete(3, "unit", 1e308, 2.0))
    assert main(["metrics", write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "NoConvergenceError",
        "message": "the minimal cut weight inf overflows a float",
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["lambda0", "bounds", "metrics"])
def test_cli_star_with_an_overflowing_centre(tmp_path, capsys, command):
    # `torsio generate star --n 3 --b 1e308 --p 2`: the centre's diagonal and
    # the distances 2e308 of the far leaves overflow; the graph is connected
    code = main([command, write(tmp_path, graph_document(make_star(3, "unit", 1e308, 2.0)))])
    captured = capsys.readouterr()
    if command == "bounds":
        assert code == 0 and captured.err == ""
        reasons = {row["id"]: row["reason"] for row in _strict_json(captured.out)["checks"]}
        overflow = "an entry of the p = 2 operator overflows a float"
        assert reasons["fiedler_neumann_p2"] == "lambda1 solve failed: " + overflow
        assert reasons["fiedler_dirichlet"] == "spectral solve failed: " + overflow
        return
    assert captured.out == ""
    err = json.loads(captured.err)
    if command == "lambda0":
        assert code == 2 and err["error"] == "NoConvergenceError"
        assert err["message"] == "an entry of the p = 2 operator overflows a float"
    else:
        assert code == 1 and err["error"] == "InvalidQError"
        assert err["message"] == "q = 2.0: the distance dist_q('v2', V0) overflows a float"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "option, message",
    [
        ([], "an entry of the p = 2 operator overflows a float"),
        # the sum of the centre's weights overflows in the first sweep, not
        # after the sweep cap of 10^6
        (["--method", "gauss_seidel"], "tau overflows a float at vertex 'v1' in Gauss-Seidel sweep 1"),
    ],
)
def test_cli_torsion_on_a_star_with_an_overflowing_centre(tmp_path, capsys, option, message):
    path = write(tmp_path, graph_document(make_star(3, "unit", 1e308, 2.0)))
    assert main(["torsion", path, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "NoConvergenceError", "message": message}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_metrics_with_an_overflowing_inverted_distance(tmp_path, capsys):
    # `torsio generate star --n 3 --b 1e-308 --p 2`: the graph is connected,
    # so an infinite leaf-to-leaf distance of the inverted graph (2e308) is
    # an overflow, not "unreachable"
    assert main(["metrics", write(tmp_path, graph_document(make_star(3, "unit", 1e-308, 2.0)))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "InvalidQError",
        "message": "q = 2.0: a distance of the weight-inverted graph overflows a float",
    }


LP_NORM_RANGE = "the l^p(m) norm of the lambda0 eigenvector at p = {p:g} leaves float range"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_lambda0_with_an_lp_norm_out_of_float_range(tmp_path, capsys):
    # `torsio generate path --free 3 --m-mode degree --b 1e-300 --p 20`: the
    # 20th powers of the iterate overflow
    path = write(tmp_path, graph_document(make_path(3, "degree", 1e-300, 20.0)))
    assert main(["lambda0", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "NoConvergenceError", "message": LP_NORM_RANGE.format(p=20)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_bounds_with_an_lp_norm_out_of_float_range(tmp_path, capsys):
    # `torsio generate path --free 3 --m-mode degree --b 1e-320 --p 2`: the
    # squares of the M-normalized eigenvector overflow, so the lambda0 rows
    # are inconclusive and the report completes
    path = write(tmp_path, graph_document(make_path(3, "degree", 1e-320, 2.0)))
    assert main(["bounds", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = _strict_json(captured.out)
    message = LP_NORM_RANGE.format(p=2)
    assert report["diagnostics"]["lambda0_error"] == message
    reasons = {row["id"]: row["reason"] for row in report["checks"]}
    for cid in ("rayleigh_symmetrization_lower", "mean_distance_lambda_lower", "inradius_lambda_lower"):
        assert reasons[cid] == "spectral solve failed: " + message


def test_cli_validate_with_a_negative_potential(tmp_path, capsys):
    doc = {**MINIMAL, "vertices": [{"id": "a", "m": 1, "c": -1}, {"id": "b", "m": 1}]}
    assert main(["validate", write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "NegativePotentialError",
        "message": "vertex 'a' has c = -1.0, needs c >= 0",
    }
