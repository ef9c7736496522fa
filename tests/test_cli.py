"""Command line interface: schema, determinism, subcommands, exit codes."""

import json

import numpy as np
import pytest

from torsio import SchemaError, lambda0, make_path, solve_torsion
from torsio.bounds import BoundCheck, BoundReport
from torsio.cli import figure4_rows, graph_document, main, parse_graph, render_json

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


@pytest.mark.parametrize("command, b", [("metrics", 1e16), ("bounds", 1e-16)])
def test_cli_overflowing_edge_cost_is_an_input_error(tmp_path, capsys, command, b):
    # the edge cost 1e16^(1/(p-1)) = 1e320 overflows; bounds meets it on the
    # weight-inverted graph of its mean-distance checks
    assert main([command, write(tmp_path, _stiff_path(b))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidQError"
    assert err["message"].startswith("q = 1.05: ") and "b = 1e+16" in err["message"]


def test_cli_bounds_reports_a_singular_torsion_solve(tmp_path, capsys):
    # 1 + 1e16 == 1e16 in floats, so the torsion solve meets an exactly
    # singular matrix; the report still completes
    assert main(["bounds", write(tmp_path, _stiff_path(1e16)), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 21
    assert "trivial_lower,true,,,,,torsion solve failed: Singular matrix" in rows


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
    assert header[0] == "E" and "kj_star_deg" in header
    row1 = dict(zip(header, out[1].split(",")))
    assert float(row1["T2_path_deg"]) == 1.0
    assert float(row1["kj_path_deg"]) == pytest.approx(1.0, abs=1e-12)
    row2 = dict(zip(header, out[2].split(",")))
    assert float(row2["T2_star_deg"]) == 10.0
    assert float(row2["T2_path_unit"]) == 5.0
