"""Individual bound checks and the aggregated report."""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

import torsio.bounds as bounds

from conftest import random_general_spec
from torsio import (
    InvalidQError,
    NoConvergenceError,
    ProblemSpec,
    build_graph,
    check_all,
    fiedler_dirichlet,
    fiedler_neumann_p2,
    kohler_jobin_classical,
    kohler_jobin_classical_unit,
    kohler_jobin_modified,
    landscape_lower,
    lambda1_p2,
    make_complete,
    make_path,
    make_random_connected,
    make_star,
    mean_distance_bounds,
    normalized_saint_venant,
    path_inradius_lower,
    polya_szego_product,
    rayleigh_symmetrization_lower,
    saint_venant_general,
    saint_venant_p2_unit,
    symmetrization_upper,
    symmetrization_upper_mtilde,
    torsion_ordered_path,
    tree_inradius_lower,
    trivial_lower,
)
from torsio.cli import render_json

ALL_IDS = (
    "saint_venant_general",
    "saint_venant_p2_unit",
    "symmetrization_upper",
    "symmetrization_upper_mtilde",
    "polya_szego_product",
    "trivial_lower",
    "path_inradius_lower",
    "tree_inradius_lower",
    "rayleigh_symmetrization_lower",
    "mean_distance_lambda_lower",
    "mean_distance_rigidity_upper",
    "inradius_lambda_lower",
    "inradius_rigidity_upper",
    "landscape_lower",
    "fiedler_dirichlet",
    "fiedler_neumann_p2",
    "kohler_jobin_modified",
    "kohler_jobin_classical",
    "kohler_jobin_classical_unit",
    "normalized_saint_venant",
)


def test_saint_venant_general():
    chk = saint_venant_general(make_path(1))
    assert chk.applicable and chk.satisfied
    assert chk.lhs == pytest.approx(1.0, rel=1e-10)
    assert chk.rhs == pytest.approx(1.0)
    chk3 = saint_venant_general(make_path(3))
    assert chk3.lhs == pytest.approx(14.0, rel=1e-10)
    assert chk3.rhs == pytest.approx(27.0)


def test_saint_venant_p2_unit_equality_only_on_paths():
    path = saint_venant_p2_unit(make_path(4))
    assert path.satisfied and abs(path.slack) <= 1e-9 * (1 + path.rhs)
    star = saint_venant_p2_unit(make_star(3))
    assert star.lhs == pytest.approx(11.0, rel=1e-10)
    assert star.rhs == pytest.approx(14.0)
    assert star.slack > 1.0
    k4 = saint_venant_p2_unit(make_complete(4))
    assert k4.applicable and k4.satisfied


def test_symmetrization_upper_equality_on_homogeneous_path():
    chk = symmetrization_upper(make_path(5, "degree"))
    assert chk.satisfied and abs(chk.slack) <= 1e-9 * (1 + chk.rhs)
    star = symmetrization_upper(make_star(3))
    assert star.lhs == pytest.approx(11.0, rel=1e-10)
    assert star.satisfied
    # weighted graphs: inhomogeneous edge weights leave slack
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 2.0), ("b", "c", 1.0)]
    )
    chk2 = symmetrization_upper(ProblemSpec(g, frozenset({"a"}), 2.0))
    assert chk2.satisfied and chk2.slack > 0


def test_symmetrization_mtilde():
    chk = symmetrization_upper_mtilde(make_star(3))
    assert chk.applicable and chk.satisfied
    assert chk.rhs == pytest.approx(14.0)  # all unit masses, path reference


def test_torsion_ordered_path_structure():
    spec = make_star(3)
    path = torsion_ordered_path(spec)
    g = path.graph
    assert g.vertex_count == 4
    assert [len(g.neighbors(v)) for v in g.vertices] == [1, 2, 2, 1]
    # center has the smallest torsion value, so it sits next to the boundary
    assert g.edge_weight("p0", "p1") == 1.0
    assert path.dirichlet == frozenset({"p0"})


def test_polya_szego_product():
    chk = polya_szego_product(make_path(3))
    lam = 2.0 * (1.0 - np.cos(np.pi / 7.0))
    assert chk.lhs == pytest.approx(lam * 14.0, rel=1e-9)
    assert chk.rhs == pytest.approx(3.0)
    assert chk.satisfied and chk.slack > 0
    # single edge saturates the product
    single = polya_szego_product(make_path(1))
    assert single.satisfied and abs(single.slack) <= 1e-12


def test_trivial_lower():
    single = trivial_lower(make_path(1))
    assert single.satisfied and abs(single.slack) <= 1e-10
    star = trivial_lower(make_star(3))
    assert star.rhs == pytest.approx(9.0)
    assert star.lhs == pytest.approx(11.0, rel=1e-10)


def test_inradius_lower_bounds():
    path = path_inradius_lower(make_path(3))
    assert path.applicable and path.satisfied
    assert path.rhs == pytest.approx(3.0)  # m_free^p / Inr_p = 9 / 3
    two = path_inradius_lower(make_path(1))
    assert abs(two.slack) <= 1e-10
    non_path = path_inradius_lower(make_star(3))
    assert not non_path.applicable
    tree = tree_inradius_lower(make_star(3))
    assert tree.applicable and tree.satisfied
    assert tree.rhs == pytest.approx(0.5)
    non_tree = tree_inradius_lower(make_complete(4))
    assert not non_tree.applicable


def test_rayleigh_symmetrization():
    path = rayleigh_symmetrization_lower(make_path(4))
    assert path.satisfied and abs(path.slack) <= 1e-9 * (1 + path.rhs)
    star = rayleigh_symmetrization_lower(make_star(3))
    assert star.satisfied and star.slack > 0


def test_mean_distance_bounds_path_values():
    checks = {c.id: c for c in mean_distance_bounds(make_path(3))}
    lam = checks["mean_distance_lambda_lower"]
    assert lam.rhs == pytest.approx(1.0 / 6.0)
    assert lam.satisfied
    rig = checks["mean_distance_rigidity_upper"]
    assert rig.rhs == pytest.approx(9.0 * 2.0)  # m_free^p * Mean_p
    assert rig.satisfied and rig.slack > 0
    assert checks["inradius_lambda_lower"].rhs == pytest.approx(1.0 / 9.0)
    assert checks["inradius_rigidity_upper"].rhs == pytest.approx(27.0)


def test_landscape_lower():
    single = landscape_lower(make_path(1))
    assert abs(single.slack) <= 1e-10
    path = landscape_lower(make_path(3))
    assert path.lhs == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 7.0)), rel=1e-9)
    assert path.rhs == pytest.approx(1.0 / 6.0)
    assert path.satisfied
    for seed, p in ((0, 1.5), (1, 3.0)):
        chk = landscape_lower(random_general_spec(seed, p=p))
        assert chk.applicable and chk.satisfied


def test_fiedler_dirichlet():
    single = fiedler_dirichlet(make_path(1))
    assert single.lhs == pytest.approx(1.0) and single.rhs == pytest.approx(1.0)
    for F in (2, 3, 5):
        chk = fiedler_dirichlet(make_path(F))
        assert chk.satisfied
    weighted = fiedler_dirichlet(make_star(4, "unit", 2.0))
    assert weighted.applicable and weighted.satisfied  # eta accounts for b
    masses = fiedler_dirichlet(make_star(3, "degree"))
    assert not masses.applicable


def test_fiedler_neumann():
    two = fiedler_neumann_p2(make_path(1))
    assert not two.applicable
    k4 = fiedler_neumann_p2(make_complete(4))
    assert k4.applicable
    assert k4.lhs == pytest.approx(4.0)
    assert k4.rhs == pytest.approx(1.0)
    # 4-vertex path: lambda1 = 2 - sqrt(2), bound must stay below
    p4 = fiedler_neumann_p2(make_path(3))
    assert p4.lhs == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert p4.satisfied
    for n in (3, 5, 6, 9):
        chk = fiedler_neumann_p2(make_path(n - 1))
        assert chk.satisfied, (n, chk.lhs, chk.rhs)


def test_kohler_jobin_modified_path_equality():
    for E in (1, 2, 4, 7):
        chk = kohler_jobin_modified(make_path(E, "degree"))
        assert chk.applicable
        assert abs(chk.slack) <= 1e-9 * (1 + chk.rhs), (E, chk.slack)


def test_kohler_jobin_modified_star_strict():
    chk = kohler_jobin_modified(make_star(5, "degree"))
    assert chk.applicable and chk.satisfied and chk.slack > 0.1


def test_kohler_jobin_classical():
    single = kohler_jobin_classical(make_path(1, "degree"))
    assert abs(single.slack) <= 1e-9
    e4 = kohler_jobin_classical(make_path(4, "degree"))
    expected = (4 * 7 * 9 / 3.0) ** (2.0 / 3.0) * (1.0 - np.cos(np.pi / 8.0))
    assert e4.lhs == pytest.approx(expected, rel=1e-9)
    assert e4.satisfied
    gated = kohler_jobin_classical(make_star(3, "degree", 1.0, 3.0))
    assert not gated.applicable  # p != 2


def test_kohler_jobin_classical_unit():
    single = kohler_jobin_classical_unit(make_path(1))
    assert abs(single.slack) <= 1e-9
    star = kohler_jobin_classical_unit(make_star(4))
    assert star.applicable and star.satisfied


def test_normalized_saint_venant():
    for spec in (make_path(4, "degree"), make_star(4, "degree"), make_complete(4, "degree")):
        chk = normalized_saint_venant(spec)
        assert chk.applicable and chk.satisfied, (chk.lhs, chk.rhs)
    assert not normalized_saint_venant(make_path(3)).applicable


def test_check_all_path_report():
    report = check_all(make_path(3))
    assert tuple(c.id for c in report.checks) == ALL_IDS
    assert not report.violations
    assert not report.inconclusive
    sv = {c.id: c for c in report.checks}["saint_venant_p2_unit"]
    assert abs(sv.slack) <= 1e-9 * (1 + sv.rhs)
    assert report.summary["eta"] == 1.0
    assert report.summary["m_unit"] and report.summary["b_standard"]


def test_check_all_gates_kohler_jobin_on_p():
    report = check_all(make_star(3, "degree", 1.0, 3.0))
    by_id = {c.id: c for c in report.checks}
    assert not by_id["kohler_jobin_modified"].applicable
    assert "p = 2" in by_id["kohler_jobin_modified"].reason
    assert not report.violations


def test_check_all_every_bound_appears_once():
    for spec in (make_path(2), make_star(2, "degree"), random_general_spec(0)):
        report = check_all(spec)
        ids = [c.id for c in report.checks]
        assert len(ids) == len(set(ids)) == len(ALL_IDS)
        for c in report.checks:
            if not c.applicable:
                assert c.reason


def test_check_all_neumann_spec():
    spec = random_general_spec(21, no_dirichlet=True)
    report = check_all(spec)
    by_id = {c.id: c for c in report.checks}
    assert by_id["polya_szego_product"].applicable
    assert by_id["symmetrization_upper"].applicable
    assert not by_id["saint_venant_general"].applicable
    assert not report.violations


def test_check_all_on_an_ill_posed_spec_has_no_inconclusive_check():
    # no Dirichlet set and c = 0: every check that reads a solve is gated on
    # a well-posed spec first, so none reports the failed solve
    for p in (1.5, 2.0, 3.0):
        report = check_all(ProblemSpec(_three_path(dirichlet=()).graph, frozenset(), p))
        assert not report.inconclusive, p
        trivial = {c.id: c for c in report.checks}["trivial_lower"]
        assert not trivial.applicable and trivial.reason == "spec is not well posed"


def test_check_all_disconnected_graph_completes():
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("d", 1, 0)],
        [("a", "b", 1), ("c", "d", 1)],
    )
    report = check_all(ProblemSpec(g, frozenset({"a"}), 2.0))
    assert len(report.checks) == len(ALL_IDS)
    assert not report.violations
    by_id = {c.id: c for c in report.checks}
    assert not by_id["saint_venant_general"].applicable
    # torsion is unbounded on the stranded component; dependent checks must
    # surface that as inconclusive, not as an exception
    assert by_id["landscape_lower"].inconclusive


def test_check_all_completes_when_a_solve_meets_a_singular_matrix():
    # 1 + 1e16 == 1e16 in floats, so the p = 2 start matrix of the solve is
    # exactly singular and the solve raises NoConvergenceError
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1.0), ("b", "c", 1e16)]
    )
    report = check_all(ProblemSpec(g, frozenset({"a"}), 1.05))
    assert tuple(c.id for c in report.checks) == ALL_IDS
    assert "torsion_error" in report.diagnostics
    trivial = {c.id: c for c in report.checks}["trivial_lower"]
    assert trivial.inconclusive
    assert trivial.reason == f"torsion solve failed: {report.diagnostics['torsion_error']}"


def test_report_serialization():
    report = check_all(make_path(2))
    d = report.to_dict()
    assert d["violations"] == 0
    assert len(d["checks"]) == len(ALL_IDS)
    md = report.to_markdown()
    assert md.count("\n") == len(ALL_IDS) + 1
    assert "saint_venant_general" in md


def test_saint_venant_triangle_sweep():
    # 1000 seeded weighted triangles with one Dirichlet vertex
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        w = rng.uniform(0.25, 4.0, size=3)
        m = rng.uniform(0.25, 4.0, size=3)
        g = build_graph(
            [("a", m[0], 0.0), ("b", m[1], 0.0), ("c", m[2], 0.0)],
            [("a", "b", w[0]), ("b", "c", w[1]), ("a", "c", w[2])],
        )
        spec = ProblemSpec(g, frozenset({"a"}), 2.0)
        chk = saint_venant_general(spec)
        assert chk.applicable and chk.satisfied, (w, m, chk.slack)


def test_inradius_lower_random_tree_sweep():
    # 500 seeded random trees: both tree and (where applicable) path forms
    for seed in range(500):
        rng = np.random.default_rng(seed + 41_000)
        size = int(rng.integers(2, 9))
        records = [("t0", float(rng.uniform(0.5, 2.0)), 0.0)]
        edges = []
        for j in range(1, size):
            parent = int(rng.integers(0, j))
            records.append((f"t{j}", float(rng.uniform(0.5, 2.0)), 0.0))
            edges.append((f"t{parent}", f"t{j}", float(rng.uniform(0.5, 2.0))))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        spec = ProblemSpec(build_graph(records, edges), frozenset({"t0"}), p)
        tree = tree_inradius_lower(spec)
        assert tree.applicable and tree.satisfied, (seed, tree.slack)
        path = path_inradius_lower(spec)
        if path.applicable:
            assert path.satisfied, (seed, path.slack)


def test_figure_products_increase_toward_limits():
    from torsio.cli import figure4_rows

    rows = figure4_rows(50)
    for col in ("kj_path_unit", "kj_path_deg"):
        vals = [row[col] for row in rows]
        assert all(a < b for a, b in zip(vals, vals[1:])), col
    lim_deg = 2.0 ** (-1.0 / 3.0) * (np.pi / 12.0 ** (1.0 / 3.0)) ** 2
    lim_unit = (np.pi / 24.0 ** (1.0 / 3.0)) ** 2
    assert rows[-1]["kj_path_deg"] < lim_deg
    assert rows[-1]["kj_path_unit"] < lim_unit
    # star products keep growing past the path limits
    assert rows[-1]["kj_star_deg"] > lim_deg
    assert rows[-1]["kj_star_unit"] > lim_unit


def test_lambda1_consistency_with_fiedler_check():
    g = make_complete(5).graph
    assert lambda1_p2(g) == pytest.approx(5.0, abs=1e-10)
    chk = fiedler_neumann_p2(make_complete(5))
    assert chk.lhs == pytest.approx(5.0, abs=1e-10)


def _three_path(potential=0.0, dirichlet=("a",)):
    g = build_graph(
        [("a", 1, 0), ("b", 1, potential), ("c", 1, 0)], [("a", "b", 1), ("b", "c", 1)]
    )
    return ProblemSpec(g, frozenset(dirichlet), 2.0)


def _two_edges():
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("d", 1, 0)],
        [("a", "b", 1), ("c", "d", 1)],
    )
    return ProblemSpec(g, frozenset({"a"}), 2.0)


_GATE_CASES = {
    "p2": (lambda: make_path(3, p=3.0), saint_venant_p2_unit, "needs p = 2"),
    "p2 only": (lambda: make_path(3, p=3.0), fiedler_neumann_p2, "implemented for p = 2 only"),
    "m unit": (lambda: make_path(3, "degree"), saint_venant_p2_unit, "needs unit masses"),
    "m degree": (lambda: make_path(3), kohler_jobin_classical, "needs m = deg"),
    "b standard": (
        lambda: make_path(3, "degree", b=2.0),
        kohler_jobin_classical,
        "needs standard edge weights",
    ),
    "c zero": (lambda: _three_path(potential=0.5), path_inradius_lower, "needs zero potential"),
    "dirichlet": (
        lambda: _three_path(potential=0.5, dirichlet=()),
        saint_venant_general,
        "needs a Dirichlet set",
    ),
    "well posed": (
        lambda: _three_path(dirichlet=()),
        symmetrization_upper,
        "spec is not well posed",
    ),
    "connected": (_two_edges, tree_inradius_lower, "needs a connected graph"),
    "eta": (_two_edges, saint_venant_general, "needs a connected graph (eta > 0)"),
    "path end": (
        lambda: make_star(3),
        path_inradius_lower,
        "graph is not a path with a single Dirichlet endpoint",
    ),
    "tree": (
        lambda: make_complete(4),
        tree_inradius_lower,
        "not a tree after identifying the Dirichlet set",
    ),
    "two vertices": (lambda: make_path(1), fiedler_neumann_p2, "degenerate two-vertex comparison"),
}


@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_gate_reason_not_applicable(case):
    make, check, reason = _GATE_CASES[case]
    chk = check(make())
    assert (chk.applicable, chk.reason) == (False, reason)
    assert (chk.lhs, chk.rhs, chk.satisfied, chk.slack) == (None, None, None, None)


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: _three_path(potential=0.5, dirichlet=()), "needs a Dirichlet set"),
        (_two_edges, "needs a connected graph"),
    ],
)
def test_gate_reason_of_every_mean_distance_row(make, reason):
    checks = mean_distance_bounds(make())
    assert [(c.applicable, c.reason) for c in checks] == [(False, reason)] * 4


def _stub_failure(*args, **kwargs):
    raise NoConvergenceError("stub failure")


@pytest.mark.parametrize(
    "target, check, reason",
    [
        ("solve_torsion", saint_venant_general, "torsion solve failed: stub failure"),
        ("solve_torsion", trivial_lower, "torsion solve failed: stub failure"),
        ("lambda0", landscape_lower, "spectral solve failed: stub failure"),
        ("lambda0", kohler_jobin_classical_unit, "spectral solve failed: stub failure"),
    ],
)
def test_gate_reason_of_a_failed_solve(monkeypatch, target, check, reason):
    monkeypatch.setattr(bounds, target, _stub_failure)
    chk = check(make_path(3))
    assert (chk.applicable, chk.reason, chk.satisfied) == (True, reason, None)
    assert chk.inconclusive


@pytest.mark.parametrize(
    "make, target, check",
    [
        (lambda: _three_path(potential=0.5), "solve_torsion", symmetrization_upper),
        (lambda: make_path(3), "lambda0", rayleigh_symmetrization_lower),
    ],
)
def test_gate_reason_of_a_failed_path_comparison(monkeypatch, make, target, check):
    spec = make()
    ctx = bounds._Ctx(spec)
    assert not isinstance(ctx.torsion, Exception) and not isinstance(ctx.spectral, Exception)
    monkeypatch.setattr(bounds, target, _stub_failure)
    chk = check(spec, ctx)
    assert (chk.applicable, chk.reason) == (True, "path comparison solve failed: stub failure")
    assert chk.inconclusive


# every public check; mean_distance_bounds gives the four mean-distance rows
_PUBLIC_CHECKS = (
    saint_venant_general,
    saint_venant_p2_unit,
    symmetrization_upper,
    symmetrization_upper_mtilde,
    polya_szego_product,
    trivial_lower,
    path_inradius_lower,
    tree_inradius_lower,
    rayleigh_symmetrization_lower,
    mean_distance_bounds,
    landscape_lower,
    fiedler_dirichlet,
    fiedler_neumann_p2,
    kohler_jobin_modified,
    kohler_jobin_classical,
    kohler_jobin_classical_unit,
    normalized_saint_venant,
)


def test_registry_sets_the_report_order():
    assert tuple(cid for cid, *_ in bounds._REGISTRY) == ALL_IDS


@pytest.mark.parametrize("check", _PUBLIC_CHECKS, ids=lambda f: f.__name__)
def test_public_check_signature_is_spec_and_ctx(check):
    params = inspect.signature(check).parameters
    assert list(params) == ["spec", "ctx"]
    assert params["ctx"].default is None
    assert check.__doc__ and not hasattr(check, "__wrapped__")


def _equivalence_corpus():
    yield from (make_path(3), make_path(5, "degree", 2.0, 1.5), make_star(3, "degree"))
    yield from (make_star(4, p=3.0), make_complete(4), make_path(1, p=8.0))
    for seed in range(8):
        yield random_general_spec(seed)
        yield random_general_spec(seed, with_potential=True)
        yield random_general_spec(seed, no_dirichlet=True)


def test_public_checks_equal_their_check_all_rows():
    for spec in _equivalence_corpus():
        alone = []
        for check in _PUBLIC_CHECKS:
            out = check(spec)
            alone.extend(out if isinstance(out, tuple) else (out,))
        assert tuple(alone) == check_all(spec).checks


def _extreme_grid():
    """Paths, degree-mass stars and random graphs with all weights near b."""
    for b in (1e-300, 1e-100, 1e-30, 1e-10, 1e10, 1e30, 1e100, 1e300):
        for p in (1.05, 1.5, 2.0, 3.0, 8.0, 20.0):
            yield make_path(5, "unit", b, p)
            yield make_star(4, "degree", b, p)
            yield make_random_connected(8, 0.5, (b, 2 * b), 3, p=p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_all_on_extreme_weights_completes_or_raises_a_typed_geometry_error():
    completed = 0
    for spec in _extreme_grid():
        try:
            report = check_all(spec)
        except InvalidQError:  # an edge cost or distance power out of float range
            continue
        completed += 1
        assert tuple(c.id for c in report.checks) == ALL_IDS
        for c in report.checks:
            sides = (c.lhs, c.rhs, c.slack)
            assert all(x is None or np.isfinite(x) for x in sides), c
            if c.applicable and c.satisfied is None:
                assert sides == (None, None, None) and c.reason, c
        json.loads(render_json(report.to_dict()))  # no inf or nan: valid JSON
    # the 3 that raise overflow an edge cost of the input graph; an inverted
    # graph out of float range leaves its four rows inconclusive instead
    assert completed == 144 - 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_check_whose_arithmetic_fails_is_inconclusive():
    # the inverted graph's distances (1e300)^2 underflow to 0, so the
    # mean-distance lambda0 bound divides by 0
    rows = mean_distance_bounds(make_path(5, "unit", 1e30, 1.05))
    assert rows[0].inconclusive and rows[2].inconclusive
    assert rows[0].reason == "ZeroDivisionError: float division by zero"
    # n^(p-1)/eta * m_free^p with m_free about 1e300 overflows at p = 2
    chk = saint_venant_general(make_star(4, "degree", 1e300, 2.0))
    assert chk.inconclusive and chk.reason.startswith("OverflowError: ")
    assert (chk.lhs, chk.rhs, chk.slack) == (None, None, None)


INVERTED_OUT_OF_RANGE = "the weight-inverted graph leaves float range: "


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, cause",
    [
        # 1/b of the subnormal b = 1e-310 is inf
        (make_path(3, "unit", 1e-310, 2.0), "edge ('v0', 'v1') has b = inf, needs b > 0"),
        # a distance d of the inverted graph has d^(q-1) beyond float range at q = 20
        (make_path(3, "degree", 1e-300, 20.0), "q = 20.0: the power d^(q-1) of the distance d = "),
        # the inverted weight 1e16 has the edge cost 1e16^(1/(q-1)) = 1e320 at q = 1.05
        (make_path(2, "unit", 1e-16, 1.05), "q = 1.05: the edge cost b^(1/(q-1)) of the weight b = 1e+16 overflows"),
    ],
)
def test_an_inverted_graph_out_of_float_range_leaves_its_rows_inconclusive(spec, cause):
    report = check_all(spec)
    rows = {c.id: c for c in report.checks}
    named = 0
    for cid in ("mean_distance_lambda_lower", "mean_distance_rigidity_upper",
                "inradius_lambda_lower", "inradius_rigidity_upper"):
        row = rows[cid]
        assert row.inconclusive and (row.lhs, row.rhs, row.slack) == (None, None, None)
        # a row whose solve failed says so first
        if " solve failed: " not in row.reason:
            assert row.reason.startswith(INVERTED_OUT_OF_RANGE + cause), row.reason
            named += 1
    assert named >= 1
    json.loads(render_json(report.to_dict()))


@pytest.mark.parametrize("lhs, rhs", [(np.inf, 1.0), (1.0, np.nan), (-np.inf, np.inf)])
def test_a_side_that_is_not_finite_is_inconclusive(lhs, rhs):
    chk = bounds._bound("x", "x <= y", lhs, "<=", rhs)
    assert chk.inconclusive and "not finite" in chk.reason
    assert (chk.lhs, chk.rhs, chk.satisfied, chk.slack) == (None, None, None, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec",
    # inapplicable, inconclusive and violated rows, reasons with commas
    [make_path(2), make_star(4, "degree", 1e300, 2.0), make_star(4, "degree", 1e30, 1.5),
     make_star(4, "unit", 1e-300, 8.0)],
)
def test_report_cells_are_the_dict_values(spec):
    report = check_all(spec)
    rows = report.to_dict()["checks"]
    assert [list(row) for row in rows] == [[f.name for f in fields(bounds.BoundCheck)]] * len(rows)
    columns = ["id", "applicable", "lhs", "rhs", "satisfied", "slack", "reason"]

    def cells(row, digits, yes, no, violated):
        flags = {"applicable": {True: yes, False: no}, "satisfied": {True: yes, False: violated}}
        out = []
        for key in columns:
            value = row[key]
            if value is None:
                out.append("")
            elif key in flags:
                out.append(flags[key][value])
            elif isinstance(value, float):
                out.append(format(value, digits))
            else:
                out.append(value)
        return out

    csv = report.to_csv().split("\n")
    assert csv[0] == ",".join(columns)
    for line, row in zip(csv[1:], rows, strict=True):
        want = cells(row, ".17g", "true", "false", "false")
        assert line.split(",") == want[:-1] + [want[-1].replace(",", ";")]
    md = report.to_markdown().split("\n")
    assert md[:2] == ["| " + " | ".join(columns) + " |", "| " + " | ".join(["---"] * 7) + " |"]
    for line, row in zip(md[2:], rows, strict=True):
        assert line == "| " + " | ".join(cells(row, ".12g", "yes", "no", "NO")) + " |"
