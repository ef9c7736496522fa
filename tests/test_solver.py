"""Torsion solver: closed-form cases, residuals, balance, uniqueness, and the
independent brute-force oracle for tiny graphs."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp

import torsio.solver
import torsio.spectral
from bench.workloads import random_records
from conftest import dirichlet_grid, random_general_spec
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from torsio import (
    IllPosedError,
    NoConvergenceError,
    ProblemSpec,
    ScaleParams,
    SolverOptions,
    UnboundedComponentError,
    UnsupportedCombinationError,
    balance_check,
    build_graph,
    lambda0,
    make_complete,
    make_path,
    make_star,
    pointwise_residual,
    polya_quotient,
    rigidity_via_min,
    scale,
    solve_torsion,
)
from torsio.closed_forms import (
    PathSpecParams,
    path_rigidity,
    path_torsion,
    path_torsion_values,
    star_rigidity,
    star_torsion,
)
from torsio.energy import phi_p

TIGHT = SolverOptions(tol=1e-12)


def brute_force_fp_min(spec, span=None, iters=400):
    """Cyclic golden-section coordinate descent on F_p, written without the
    package's solver or gradient machinery; usable up to 3 free vertices."""
    g = spec.graph
    p = spec.p
    free = spec.free_vertices
    assert len(free) <= 3

    def fp(vals):
        u = {v: 0.0 for v in g.vertices}
        u.update(dict(zip(free, vals)))
        acc = 0.0
        for a, b, w in g.edges:
            acc += w * abs(u[a] - u[b]) ** p / p
        for v in g.vertices:
            acc += g.potential[v] * abs(u[v]) ** p / p
        return acc - sum(u[v] * g.measure[v] for v in free)

    gr = (np.sqrt(5.0) - 1.0) / 2.0

    def golden(fun, lo, hi, steps=90):
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = fun(c), fun(d)
        for _ in range(steps):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = fun(d)
        return 0.5 * (a + b)

    span = span or 10.0 * max(
        (g.measure[v] / 1.0) ** (1.0 / (p - 1.0)) for v in free
    ) * len(free)
    x = [0.0] * len(free)
    for _ in range(iters):
        moved = 0.0
        for i in range(len(free)):
            def line(t, i=i):
                y = list(x)
                y[i] = t
                return fp(y)

            t = golden(line, x[i] - span, x[i] + span)
            moved = max(moved, abs(t - x[i]))
            x[i] = t
        span = max(4.0 * moved, 1e-8)
        if moved < 1e-10:
            break
    return dict(zip(free, x))


def test_single_edge_all_p():
    for p in (1.5, 2.0, 3.0, 4.0):
        sol = solve_torsion(make_path(1, "unit", 1.0, p), TIGHT)
        assert sol.tau["v1"] == pytest.approx(1.0, rel=1e-11)
        assert sol.rigidity == pytest.approx(1.0, rel=1e-10)


def test_single_edge_general_mass():
    g = build_graph([("v0", 1, 0), ("v1", 4, 0)], [("v0", "v1", 2.0)])
    for p in (1.5, 3.0):
        sol = solve_torsion(ProblemSpec(g, frozenset({"v0"}), p), TIGHT)
        assert sol.tau["v1"] == pytest.approx(2.0 ** (1.0 / (p - 1.0)), rel=1e-10)


def test_path_three_free_p2():
    sol = solve_torsion(make_path(3), TIGHT)
    assert sol.tau["v1"] == pytest.approx(3.0, rel=1e-12)
    assert sol.tau["v2"] == pytest.approx(5.0, rel=1e-12)
    assert sol.tau["v3"] == pytest.approx(6.0, rel=1e-12)
    assert sol.rigidity == pytest.approx(14.0, rel=1e-12)


def test_star_three_edges_p2():
    sol = solve_torsion(make_star(3), TIGHT)
    assert sol.tau["v1"] == pytest.approx(3.0, rel=1e-12)
    assert sol.tau["v2"] == pytest.approx(4.0, rel=1e-12)
    assert sol.tau["v3"] == pytest.approx(4.0, rel=1e-12)
    assert sol.rigidity == pytest.approx(11.0, rel=1e-12)


def test_pointwise_residual_at_closed_form():
    for p in (1.5, 2.0, 3.0):
        spec = make_path(4, "unit", 1.0, p)
        tau = path_torsion(PathSpecParams(4, (1.0,) * 4, (1.0,) * 4, p))
        res = pointwise_residual(spec, tau)
        assert max(abs(r) for r in res.values()) <= 1e-12


def test_pointwise_residual_at_zero():
    spec = random_general_spec(0)
    res = pointwise_residual(spec, {v: 0.0 for v in spec.graph.vertices})
    assert all(r == pytest.approx(-1.0) for r in res.values())
    assert set(res) == set(spec.free_vertices)


def test_solution_residual_within_tolerance():
    opts = SolverOptions(tol=1e-11)
    for seed in range(5):
        spec = random_general_spec(seed)
        sol = solve_torsion(spec, opts)
        assert sol.residual_inf <= 1e-11
        res = pointwise_residual(spec, sol.tau)
        assert max(abs(r) for r in res.values()) <= 1e-11


def test_balance_single_edge():
    sol_spec = make_path(1)
    bal = balance_check(sol_spec, solve_torsion(sol_spec, TIGHT))
    assert bal.lhs == pytest.approx(1.0, rel=1e-10)
    assert bal.rhs == 1.0
    assert bal.ok


def test_balance_path_and_star():
    spec = make_path(3)
    bal = balance_check(spec, solve_torsion(spec, TIGHT))
    assert bal.lhs == pytest.approx(3.0, rel=1e-10)
    assert bal.rhs == 3.0
    star = make_star(3)
    bal = balance_check(star, solve_torsion(star, TIGHT))
    assert bal.lhs == pytest.approx(3.0, rel=1e-10)
    assert bal.ok


def test_balance_no_dirichlet():
    spec = random_general_spec(5, no_dirichlet=True)
    bal = balance_check(spec, solve_torsion(spec, TIGHT))
    assert bal.rhs == pytest.approx(spec.graph.total_measure())
    assert bal.ok


def test_rigidity_via_min_identity():
    spec = make_path(3)
    sol = solve_torsion(spec, TIGHT)
    assert rigidity_via_min(spec, sol) == pytest.approx(14.0, rel=1e-10)
    single = make_path(1)
    assert rigidity_via_min(single, solve_torsion(single, TIGHT)) == pytest.approx(1.0)
    for seed in range(6):
        rspec = random_general_spec(seed)
        rsol = solve_torsion(rspec, TIGHT)
        assert rigidity_via_min(rspec, rsol) == pytest.approx(rsol.rigidity, rel=1e-9)


def test_strict_positivity():
    for seed in range(10):
        spec = random_general_spec(seed, with_potential=bool(seed % 3 == 0))
        sol = solve_torsion(spec, TIGHT)
        assert min(sol.tau[v] for v in spec.free_vertices) > 0.0


def test_torsion_maximizes_polya_quotient():
    rng = np.random.default_rng(77)
    for seed in range(4):
        spec = random_general_spec(seed)
        sol = solve_torsion(spec, TIGHT)
        for _ in range(50):
            u = {
                v: (0.0 if v in spec.dirichlet else float(rng.uniform(0.05, 3.0)))
                for v in spec.graph.vertices
            }
            assert polya_quotient(spec, u) <= sol.rigidity + 1e-8


def test_uniqueness_from_distinct_starts():
    # gauss_seidel from several seeds of the initial iterate; all must agree
    from torsio.solver import _assemble, _gs_sweeps

    spec = random_general_spec(13, p=1.5)
    ref = solve_torsion(spec, TIGHT)
    asm = _assemble(spec)
    rng = np.random.default_rng(0)
    rhs = np.zeros(asm.g.vertex_count)
    rhs[asm.free] = asm.g.m[asm.free]
    for _ in range(5):
        u = np.zeros(asm.g.vertex_count)
        u[asm.free] = rng.uniform(-3.0, 3.0, size=len(asm.free))
        u, _, res = _gs_sweeps(asm, spec.p, rhs, 1e-11, 100000, u)
        assert res <= 1e-11
        for i, v in enumerate(asm.g.vertices):
            assert u[i] == pytest.approx(ref.tau[v], abs=1e-8, rel=1e-8)


def test_gauss_seidel_matches_direct_p2():
    for seed in range(6):
        spec = random_general_spec(seed, p=2.0)
        gs = solve_torsion(spec, SolverOptions(tol=1e-12, method="gauss_seidel"))
        dr = solve_torsion(spec, SolverOptions(tol=1e-12, method="direct_p2"))
        for v in spec.graph.vertices:
            assert gs.tau[v] == pytest.approx(dr.tau[v], abs=1e-9, rel=1e-9)


def _assert_gauss_seidel_matches_default(spec):
    gs = solve_torsion(spec, SolverOptions(tol=1e-12, method="gauss_seidel"))
    ref = solve_torsion(spec, TIGHT)
    assert gs.method == "gauss_seidel"
    assert gs.rigidity == pytest.approx(ref.rigidity, rel=1e-10)
    for v in spec.graph.vertices:
        assert gs.tau[v] == pytest.approx(ref.tau[v], rel=1e-10)


@pytest.mark.parametrize("p", [3.0, 8.0])
@pytest.mark.parametrize("kind", ["with_potential", "no_dirichlet"])
def test_gauss_seidel_with_a_potential_matches_the_default_solve(p, kind):
    # the scalar solves of the sweeps add the potential term c phi_p(u) only
    # where c != 0
    for seed in range(8):
        _assert_gauss_seidel_matches_default(random_general_spec(seed, p=p, **{kind: True}))


def test_gauss_seidel_with_a_potential_below_p2_matches_the_default_solve():
    for seed in (1, 4, 6):
        _assert_gauss_seidel_matches_default(random_general_spec(seed, p=1.5, with_potential=True))


def test_gauss_seidel_out_of_sweeps_raises():
    with pytest.raises(NoConvergenceError, match=r"^Gauss-Seidel stopped at residual .* after 2 sweeps$") as info:
        solve_torsion(make_path(10, p=3.0), SolverOptions(method="gauss_seidel", max_iterations=2))
    assert info.value.iterations == 2


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    p=st.sampled_from([1.05, 1.5, 3.0, 8.0, 20.0]),
    neighbours=st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 1e3)), max_size=6),
    cv=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    rhs=st.floats(1e-3, 1e3),
    t0=st.one_of(st.floats(-100.0, 100.0), st.floats(-1e4, 1e4)),
)
def test_scalar_solve_returns_a_sign_change_of_h(p, neighbours, cv, rhs, t0):
    # the coordinate step of Gauss-Seidel: h(t) = sum b phi_p(t - u_w) +
    # c phi_p(t) - rhs is strictly increasing, and the returned t lies within
    # 8 ulps of where h, evaluated in floats as the solver does, changes sign;
    # a start far outside the neighbour values makes the bracket expand
    assume(neighbours or cv > 0.0)  # otherwise h is the constant -rhs
    nb_vals = np.array([u for u, _ in neighbours])
    nb_w = np.array([w for _, w in neighbours])

    def h(t):
        return float(np.dot(nb_w, phi_p(t - nb_vals, p))) + cv * float(phi_p(t, p)) - rhs

    t = torsio.solver._scalar_solve(nb_vals, nb_w, cv, rhs, t0, p)
    assert h(t - 8.0 * math.ulp(t)) <= 0.0 <= h(t + 8.0 * math.ulp(t))


def test_unknown_or_unsupported_methods_raise():
    with pytest.raises(UnsupportedCombinationError, match="direct_p2 requires p = 2"):
        solve_torsion(make_path(3, p=3.0), SolverOptions(method="direct_p2"))
    with pytest.raises(ValueError, match="method 'x' not in"):
        SolverOptions(method="x")
    with pytest.raises(ValueError, match="method 'x' not in"):
        lambda0(make_path(3), method="x")


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", float("inf")),
        ("tol", float("nan")),
        ("tol", -1e-12),
        ("max_iterations", 0),
        ("max_iterations", -5),
        ("max_iterations", 2.5),
        # a bool is not a number here (True read as tol 1 or 1 step), and a
        # string is not one either
        ("tol", True),
        ("tol", False),
        ("tol", "1e-3"),
        ("max_iterations", True),
        ("max_iterations", "3"),
    ],
)
def test_solver_options_out_of_range_raise(field, value):
    # tol = inf accepts any first iterate, and max_iterations = 0 runs
    # zero-step legs whose gap reads 0: both returned wrong answers
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SolverOptions(**{field: value})


def test_solver_options_edges_of_the_valid_ranges():
    assert SolverOptions(tol=0.0, max_iterations=1).tol == 0.0
    # tol = 0 solves to rounding, and the solve is judged on its bracket
    spec = make_path(5, p=3.0)
    exact = path_rigidity(PathSpecParams(5, (1.0,) * 5, (1.0,) * 5, 3.0))
    assert solve_torsion(spec, SolverOptions(tol=0.0)).rigidity == pytest.approx(exact, rel=1e-12)


def test_brute_force_oracle_small_graphs():
    cases = [
        (make_path(2, "unit", 1.0, 1.5), None),
        (make_path(3, "degree", 1.0, 3.0), None),
        (make_star(3, "unit", 1.0, 2.0), None),
    ]
    g = build_graph(
        [("a", 1.3, 0), ("b", 0.7, 0.4), ("c", 1.1, 0)],
        [("a", "b", 1.2), ("b", "c", 0.8), ("a", "c", 0.5)],
    )
    cases.append((ProblemSpec(g, frozenset({"a"}), 2.5), None))
    for spec, _ in cases:
        sol = solve_torsion(spec, TIGHT)
        brute = brute_force_fp_min(spec)
        for v in spec.free_vertices:
            assert brute[v] == pytest.approx(sol.tau[v], abs=1e-6, rel=1e-6)


def test_ill_posed_and_unbounded():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(IllPosedError):
        solve_torsion(ProblemSpec(g, frozenset(), 2.0))
    g2 = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)]
    )
    with pytest.raises(UnboundedComponentError, match=r"\['c'\]"):
        solve_torsion(ProblemSpec(g2, frozenset({"a"}), 2.0))
    with pytest.raises(IllPosedError):
        solve_torsion(ProblemSpec(g, frozenset({"a", "b"}), 2.0))
    # each loose component is named by its smallest-index vertex
    g3 = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("d", 1, 0), ("e", 1, 0), ("f", 1, 0.5)],
        [("a", "d", 1), ("b", "c", 1), ("c", "e", 1)],
    )
    with pytest.raises(UnboundedComponentError, match=r"\['b'\]"):
        solve_torsion(ProblemSpec(g3, frozenset({"a"}), 3.0))
    g4 = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("d", 1, 0), ("e", 1, 0)],
        [("a", "b", 1), ("c", "d", 1)],
    )
    with pytest.raises(UnboundedComponentError, match=r"\['c', 'e'\]"):
        solve_torsion(ProblemSpec(g4, frozenset({"a"}), 2.0))


def _free_component_oracle(spec):
    """The names of the loose free components, from networkx: the components
    of the subgraph on the free vertices in which no vertex has a Dirichlet
    neighbor or c > 0, each named by its smallest-index vertex and listed
    in vertex order."""
    nx = pytest.importorskip("networkx")
    g = spec.graph
    free = [v for v in g.vertices if v not in spec.dirichlet]
    sub = nx.Graph()
    sub.add_nodes_from(free)
    sub.add_edges_from((u, v) for u, v, _ in g.edges if u in sub and v in sub)
    loose = []
    for comp in nx.connected_components(sub):
        touches = any(w in spec.dirichlet for v in comp for w, _ in g.neighbors(v))
        if not touches and all(g.potential[v] == 0.0 for v in comp):
            loose.append(min(comp, key=g.vertex_index))
    return sorted(loose, key=g.vertex_index)


def test_anchoring_check_and_free_split_match_their_definitions():
    kinds = dict.fromkeys(("loose", "isolated_free", "dirichlet_edge", "no_dirichlet"), 0)
    for seed in range(300):
        rng = np.random.default_rng([seed, 7])
        n = int(rng.integers(1, 13))
        ids = [f"x{k}" for k in rng.permutation(n)]  # vertex order is not name order
        c = np.where(rng.random(n) < 0.15, rng.uniform(0.5, 2.0, n), 0.0)
        i, j = np.triu_indices(n, 1)
        keep = rng.random(len(i)) < rng.uniform(0.0, 0.45)
        edges = [(ids[a], ids[b], float(w)) for a, b, w in zip(i[keep], j[keep], rng.uniform(0.5, 2.0, len(i)))]
        g = build_graph([(v, float(m), float(cv)) for v, m, cv in zip(ids, rng.uniform(0.5, 2.0, n), c)], edges)
        spec = ProblemSpec(g, frozenset(v for v in ids if rng.random() < 0.25), 2.0)

        free = tuple(v for v in g.vertices if v not in spec.dirichlet)
        assert spec.free_vertices == free and spec.free_count == len(free)
        assert spec.free_measure().hex() == g.total_measure(free).hex()

        kinds["isolated_free"] += any(not g.neighbors(v) for v in free)
        kinds["dirichlet_edge"] += any(u in spec.dirichlet and v in spec.dirichlet for u, v, _ in g.edges)
        kinds["no_dirichlet"] += not spec.dirichlet
        if not spec.well_posed or not free:
            with pytest.raises(IllPosedError):
                solve_torsion(spec)
            continue
        loose = _free_component_oracle(spec)
        if loose:
            kinds["loose"] += 1
            with pytest.raises(UnboundedComponentError) as exc:
                solve_torsion(spec)
            assert str(exc.value) == f"free components at {loose} have no Dirichlet link and no potential"
        else:
            assert solve_torsion(spec).residual_inf <= 1e-10 * 2.0
    assert min(kinds.values()) >= 10, kinds


def test_no_dirichlet_with_potential():
    g = build_graph([("a", 2, 1.0), ("b", 1, 0)], [("a", "b", 1)])
    spec = ProblemSpec(g, frozenset(), 2.0)
    sol = solve_torsion(spec, TIGHT)
    # stationarity: c(a) tau(a) + (tau(a)-tau(b)) = m(a), (tau(b)-tau(a)) = m(b)
    assert sol.tau["a"] == pytest.approx(3.0, rel=1e-10)
    assert sol.tau["b"] == pytest.approx(4.0, rel=1e-10)


def test_extreme_exponent_window_smoke():
    for p in (1.05, 20.0):
        spec = make_path(2, "unit", 1.0, p)
        sol = solve_torsion(spec, SolverOptions(tol=1e-8))
        assert sol.tau["v1"] > 0
        res = pointwise_residual(spec, sol.tau)
        assert max(abs(r) for r in res.values()) <= 1e-8


def test_window_edge_exponents_on_random_graphs():
    # p = 20 is routine; the p -> 1 edge floors the achievable residual at
    # roughly ulp^(p-1) on near-tie instances and must fail honestly there
    for seed in range(10):
        spec = random_general_spec(seed + 20000, p=20.0)
        sol = solve_torsion(spec)
        assert min(sol.tau[v] for v in spec.free_vertices) > 0
    hard = random_general_spec(0 + 1050, p=1.05, with_potential=True)
    try:
        sol = solve_torsion(hard)
        assert sol.residual_inf <= 1e-10 * max(1.0, max(hard.graph.measure.values()))
    except NoConvergenceError as e:
        assert np.isfinite(e.residual) and e.iterations > 0


def _free_laplacian_reference(spec):
    """networkx Laplacian restricted to the free vertices, plus diag(c)."""
    nx = pytest.importorskip("networkx")
    g = spec.graph
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_weighted_edges_from(g.edges)
    L = nx.laplacian_matrix(G, nodelist=list(g.vertices), weight="weight").toarray()
    free = [i for i, v in enumerate(g.vertices) if v not in spec.dirichlet]
    return L[np.ix_(free, free)] + np.diag([g.potential[g.vertices[i]] for i in free])


def test_laplacian_matches_networkx_on_both_sides_of_dense_limit():
    small = random_general_spec(4, with_potential=True)
    grid = dirichlet_grid(25)  # 529 free vertices
    for spec, dense in ((small, True), (grid, False)):
        asm = torsio.solver._assemble(spec)
        K = torsio.solver._System(asm, asm.g.w, asm.g.c).A
        assert isinstance(K, np.ndarray) is dense
        K = K if dense else K.toarray()
        np.testing.assert_allclose(K, _free_laplacian_reference(spec), rtol=0, atol=1e-14)


def _sorted_layout(spec):
    """The Laplacian layout of _assemble built by sorting: every triplet's
    flat cell row * nf + col, made unique by np.unique."""
    g, free = spec.graph, spec._free
    nf, ne = len(free), g.edge_count
    pos = np.full(g.vertex_count, -1, dtype=int)
    pos[free] = np.arange(nf)
    pa, pb = pos[g.ei], pos[g.ej]
    ka, kb = np.flatnonzero(pa >= 0), np.flatnonzero(pb >= 0)
    kab = np.flatnonzero((pa >= 0) & (pb >= 0))
    row = np.concatenate([pa[ka], pb[kb], pa[kab], pb[kab], pos[free]])
    col = np.concatenate([pa[ka], pb[kb], pb[kab], pa[kab], pos[free]])
    lap_cell, lap_slot = np.unique(row * nf + col, return_inverse=True)
    return {
        "lap_src": np.concatenate([ka, kb, ne + kab, ne + kab, 2 * ne + free]),
        "lap_slot": lap_slot,
        "lap_cell": lap_cell,
        "lap_indptr": np.searchsorted(lap_cell, np.arange(nf + 1) * nf).astype(np.int32),
        "lap_col": (lap_cell % nf).astype(np.int32),
        "lap_diag": lap_slot[len(lap_slot) - nf:],  # the c_v triplets come last
    }


def _layout_specs():
    yield make_path(1)
    yield make_path(7)
    yield dirichlet_grid(2)  # every vertex is Dirichlet, none is free
    yield dirichlet_grid(6)
    # a star with a Dirichlet centre (v1) has no edge between free vertices
    star = make_star(5).graph
    yield ProblemSpec(star, frozenset({star.vertices[1]}), 2.0)
    # a component anchored only by its potential, beside a Dirichlet one
    g = build_graph([(v, 1.0, 0.5 if v == "e" else 0.0) for v in "abcdef"],
                    [("a", "b", 1.0), ("b", "c", 2.0), ("d", "e", 1.0), ("e", "f", 1.0)])
    yield ProblemSpec(g, frozenset({"a"}), 3.0)
    # random graphs with 1 to n - 1 Dirichlet vertices, parallel edge records
    # and ids that are not in vertex order, so the free set has gaps
    for seed in range(40):
        rng = np.random.default_rng([seed, 11])
        n = int(rng.integers(3, 16))
        ids = [f"x{k}" for k in rng.permutation(n)]
        edges = [(ids[a], ids[b], float(rng.uniform(0.5, 2.0)))
                 for a, b in (rng.choice(n, 2, replace=False) for _ in range(int(rng.integers(0, 3 * n))))]
        c = np.where(rng.random(n) < 0.2, 0.5, 0.0)
        g = build_graph([(v, 1.0, float(cv)) for v, cv in zip(ids, c)], edges)
        yield ProblemSpec(g, frozenset(rng.choice(ids, int(rng.integers(1, n)), replace=False).tolist()), 2.0)


def test_laplacian_layout_matches_the_sorted_one():
    # _assemble reads the CSR layout off the canonical edge order; it must be
    # the layout sorting all triplet cells gives, dtypes included
    for spec in _layout_specs():
        asm = torsio.solver._assemble(spec)
        for name, want in _sorted_layout(spec).items():
            got = getattr(asm, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def _random_expander(n=800, degree=6, n_dirichlet=4, seed=5, p=2.0):
    """Seeded sparse random graph: a random spanning tree on the free
    vertices, each Dirichlet vertex tied to two free ones, and random extra
    pairs up to the average degree; masses and weights U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    names = [f"r{i}" for i in range(n)]
    nf = n - n_dirichlet
    order = rng.permutation(nf)
    pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(k)])))) for k in range(1, nf)}
    for d in range(nf, n):
        pairs.update((int(f), d) for f in rng.choice(nf, size=2, replace=False))
    while len(pairs) < degree * n // 2:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    vertices = [(v, float(rng.uniform(0.5, 2.0)), 0.0) for v in names]
    edges = [(names[a], names[b], float(rng.uniform(0.5, 2.0))) for a, b in sorted(pairs)]
    return ProblemSpec(build_graph(vertices, edges), frozenset(names[nf:]), p)


def test_dense_and_sparse_newton_agree(monkeypatch):
    for spec in (dirichlet_grid(25, p=3.0), _random_expander(p=3.0)):
        sparse = solve_torsion(spec)
        with monkeypatch.context() as patch:
            patch.setattr(torsio.solver, "DENSE_LIMIT", 10_000)
            dense = solve_torsion(spec)
        assert sparse.rigidity == pytest.approx(dense.rigidity, rel=1e-9)


def _no_factor(*args, **kwargs):
    raise AssertionError("a sparse factor was computed")


def test_sparse_side_on_random_expander(monkeypatch):
    # an expander is on the Krylov side: its p = 2 solve and the shift-invert
    # Lanczos run Jacobi-PCG and never factor
    monkeypatch.setattr(torsio.solver, "_factor", _no_factor)
    spec = _random_expander()
    free = [v for v in spec.graph.vertices if v not in spec.dirichlet]
    assert len(free) > torsio.solver.DENSE_LIMIT
    K = _free_laplacian_reference(spec)
    m = np.array([spec.graph.measure[v] for v in free])
    ref = scipy.linalg.solve(K, m, assume_a="pos")
    sol = solve_torsion(spec)
    np.testing.assert_allclose([sol.tau[v] for v in free], ref, rtol=1e-10)
    eig = lambda0(spec)
    assert eig.method == "lanczos"
    vals = scipy.linalg.eigh(K, np.diag(m), eigvals_only=True, subset_by_index=(0, 0))
    assert eig.lambda0 == pytest.approx(float(vals[0]), rel=1e-10)


def _no_pcg(*args, **kwargs):
    raise AssertionError("a solve ran PCG")


@pytest.mark.parametrize("spec", [dirichlet_grid(25), make_path(600)], ids=["grid25", "path600"])
def test_small_separator_graphs_keep_the_factor(monkeypatch, spec):
    monkeypatch.setattr(torsio.solver._System, "_pcg", _no_pcg)
    assert len(spec.free_vertices) > torsio.solver.DENSE_LIMIT
    solve_torsion(spec)
    # the Newton start and the p > 2 Hessians
    solve_torsion(ProblemSpec(spec.graph, spec.dirichlet, 3.0))
    assert lambda0(spec).method == "lanczos"


def _count_solves(monkeypatch):
    """Patch _System.solve to count its calls; the list grows by one per call."""
    solve = torsio.solver._System.solve
    calls = []
    monkeypatch.setattr(torsio.solver._System, "solve",
                        lambda system, b, target=None: calls.append(target) or solve(system, b, target))
    return calls


def _dense_lambda0(spec):
    K = _free_laplacian_reference(spec)
    m = np.array([spec.graph.measure[v] for v in spec.graph.vertices if v not in spec.dirichlet])
    return float(scipy.linalg.eigh(K, np.diag(m), eigvals_only=True, subset_by_index=(0, 0))[0])


def test_lanczos_reuses_one_factor(monkeypatch):
    # grid 30 has 784 free vertices and small separators: every shift-invert
    # solve of Lanczos goes through the one factor of the p = 2 matrix, and
    # the 8-vector subspace takes 13 of them (21 with ARPACK's default 20)
    factor = torsio.solver._factor
    calls = []
    monkeypatch.setattr(torsio.solver, "_factor", lambda A: calls.append(A) or factor(A))
    solves = _count_solves(monkeypatch)
    spec = dirichlet_grid(30)
    assert len(spec.free_vertices) == 784
    eig = lambda0(spec)
    assert eig.method == "lanczos"
    assert len(calls) == 1
    assert len(solves) <= 14
    assert eig.lambda0 == pytest.approx(_dense_lambda0(spec), rel=1e-12)


def test_lanczos_on_the_krylov_side_takes_few_solves(monkeypatch):
    # each shift-invert solve of a random graph runs PCG to 1e-11; the
    # 8-vector subspace takes 9 of them (21 with ARPACK's default 20)
    spec = _records_spec(2000, 2.0)
    assert torsio.solver._assemble(spec).krylov
    solves = _count_solves(monkeypatch)
    eig = lambda0(spec)
    assert eig.method == "lanczos"
    assert len(solves) <= 10
    assert eig.lambda0 == pytest.approx(_dense_lambda0(spec), rel=1e-12)


def test_pcg_cap_falls_back_to_the_factor(monkeypatch):
    spec = _random_expander()
    asm = torsio.solver._assemble(spec)
    K = torsio.solver._System(asm, asm.g.w, asm.g.c).A
    factored = torsio.solver._factor(K).solve(asm.g.m[asm.free])
    monkeypatch.setattr(torsio.solver, "PCG_MAX_ITERATIONS", 1)
    sol = solve_torsion(spec)
    tau = [sol.tau[spec.graph.vertices[i]] for i in asm.free]
    np.testing.assert_allclose(tau, factored, rtol=1e-12, atol=0.0)


def test_pcg_replaces_a_drifted_residual(monkeypatch):
    # 1e-12 is about 7 times the rounding floor of the true residual on this
    # graph: the recursive residual passes it first, and PCG must restart
    # from the true residual instead of returning early or factoring
    monkeypatch.setattr(torsio.solver, "_factor", _no_factor)
    asm = torsio.solver._assemble(_random_expander())
    assert asm.krylov
    K = torsio.solver._System(asm, asm.g.w, asm.g.c)
    m = asm.g.m[asm.free]
    x = K.solve(m, 1e-12)
    assert np.max(np.abs(m - K.A @ x) / m) <= 1e-12


def test_pcg_stops_at_its_residual_floor(monkeypatch):
    # tol = 1e-13 lies below the rounding floor of the true residual on this
    # graph: PCG returns at the floor instead of restarting until its cap and
    # factoring; the one factor is the rigidity bracket that certifies it
    spec = _random_expander()
    reference = solve_torsion(spec).rigidity
    factor = torsio.solver._factor
    calls = []
    monkeypatch.setattr(torsio.solver, "_factor", lambda A: calls.append(A) or factor(A))
    sol = solve_torsion(spec, SolverOptions(tol=1e-13))
    assert len(calls) == 1
    assert sol.rigidity == pytest.approx(reference, rel=1e-12)


def _records_spec(n, p, seed=1):
    """The benchmark's seeded random graph of average degree 6 with 4
    Dirichlet vertices."""
    vertices, edges, dirichlet = random_records(np.random.default_rng(seed), n, 6.0, 4)
    return ProblemSpec(build_graph(vertices, edges), frozenset(dirichlet), p)


def _scipy_pcg(system, b, target):
    """_System._pcg written on a scipy matrix, as the reference it must
    match: K @ d for the product and np.max(np.abs(r) / m) for the test,
    which also runs where r.z has left the normal range (where it and d.Kd
    underflow to 0, the next step would divide 0 by 0)."""
    K = system._sparse
    m = system._asm.g.m[system._asm.free]
    inv_diag = 1.0 / K.diagonal()
    x = np.zeros(len(b))
    r = b.copy()
    d = None
    floor = np.inf
    for _ in range(torsio.solver.PCG_MAX_ITERATIONS):
        if np.max(np.abs(r) / m) <= target or float(np.dot(r, inv_diag * r)) < np.finfo(float).tiny:
            r = b - K @ x
            res = np.max(np.abs(r) / m)
            if res <= target or res >= floor:
                return x
            floor = res
            d = None
        z = inv_diag * r
        rz_new = float(np.dot(r, z))
        d = z if d is None else z + (rz_new / rz) * d
        rz = rz_new
        q = K @ d
        alpha = rz / float(np.dot(d, q))
        x += alpha * d
        r -= alpha * q
    return system.solve(b)


@pytest.mark.parametrize("make", [lambda p: _records_spec(400, p), lambda p: _random_expander(p=p)],
                         ids=["random400", "expander"])
def test_pcg_matches_the_scipy_loop_bit_for_bit(monkeypatch, make):
    # the in-place loop on the assembled arrays takes the reference's steps
    # exactly: on the p = 2 matrix at the targets of the replacement and
    # floor tests above, and on every Newton Hessian of a p = 3 and a p = 8
    # solve at its forcing term
    asm = torsio.solver._assemble(make(2.0))
    assert asm.krylov
    system = torsio.solver._System(asm, asm.g.w, asm.g.c)
    m = asm.g.m[asm.free]
    for target in (1e-12, 1e-13):
        np.testing.assert_array_equal(system._pcg(m, target), _scipy_pcg(system, m, target))
    # the filter in front of the stop test: b = 0, b = target m (which meets
    # the test at x = 0, where r.z is the filter's bound to rounding), and
    # targets whose square underflows, also on masses of 1e-150 and 1e150
    # times these against the same right-hand side m
    for b, target in ((0.0 * m, 1e-12), (1e-3 * m, 1e-3), (m, 1e-170), (m, 1e-200)):
        np.testing.assert_array_equal(system._pcg(b, target), _scipy_pcg(system, b, target))
    spec = make(2.0)
    for mu in (1e-150, 1e150):
        heavy = torsio.solver._assemble(ProblemSpec(scale(spec.graph, ScaleParams(mu, 1.0)), spec.dirichlet, 2.0))
        scaled = torsio.solver._System(heavy, heavy.g.w, heavy.g.c)
        for target in (1e-12, 1e-170, 1e-200):
            np.testing.assert_array_equal(scaled._pcg(m, target), _scipy_pcg(scaled, m, target))
    calls = []
    pcg = torsio.solver._System._pcg
    monkeypatch.setattr(torsio.solver._System, "_pcg",
                        lambda system, b, target: calls.append((system, b.copy(), target)) or pcg(system, b, target))
    for p in (3.0, 8.0):
        solve_torsion(make(p))
    assert len(calls) > 10
    for system, b, target in calls:
        np.testing.assert_array_equal(pcg(system, b, target), _scipy_pcg(system, b, target))
    # the kernel of K @ x for a CSC matrix with symmetric pattern is
    # csr_matvec on the same arrays; a scipy that changes that fails here
    x = np.random.default_rng(0).uniform(-1.0, 1.0, len(asm.free))
    y = np.zeros(len(x))
    torsio.solver.csr_matvec(len(x), len(x), asm.lap_indptr, asm.lap_col, system._data, x, y)
    np.testing.assert_array_equal(y, system._sparse @ x)


@pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
def test_a_krylov_side_solve_to_tol_zero_is_judged_on_its_bracket(p):
    # tol = 0 sends PCG below float range: r.z underflows to 0 before the
    # stop test can pass, and CG must take the true residual there instead
    # of dividing 0 by 0; the solve stops at its rounding floor and the
    # bracket certifies it
    spec = _records_spec(400, p, seed=[0, 1])
    assert torsio.solver._assemble(spec).krylov
    exact = solve_torsion(spec).rigidity
    for tol in (0.0, 1e-200):
        sol = solve_torsion(spec, SolverOptions(tol=tol))
        assert sol.residual_inf > tol
        assert sol.rigidity == pytest.approx(exact, rel=1e-12)


def _exact_solve(system, b, target):
    return system.solve(b)


def _no_exact_solve(*args, **kwargs):
    raise AssertionError("an exact solve ran")


def _forbid_exact_solves(monkeypatch):
    """Make every exact solve raise: dense and banded Cholesky, and the factor."""
    for name in ("_factor", "dposv", "dpbsv"):
        monkeypatch.setattr(torsio.solver, name, _no_exact_solve)


@pytest.mark.parametrize(
    "spec",
    [
        _random_expander(p=3.0), _random_expander(p=8.0), _random_expander(p=20.0), _records_spec(400, 8.0),
        _random_expander(n=300, p=1.5), _random_expander(p=1.5), _records_spec(400, 1.5, seed=[0, 1]),
    ],
    ids=[
        "expander_p3", "expander_p8", "expander_p20", "random400_p8",
        "expander300_p1.5", "expander_p1.5", "random400_fixed_p1.5",
    ],
)
def test_inexact_newton_matches_exact_steps(monkeypatch, spec):
    # on the Krylov side every Newton step runs PCG to its forcing term, at
    # p < 2 as at p > 2 and on either side of DENSE_LIMIT, and takes the
    # exact path's steps
    asm = torsio.solver._assemble(spec)
    assert asm.krylov
    with monkeypatch.context() as patch:
        patch.setattr(torsio.solver._System, "_pcg", _exact_solve)
        exact = solve_torsion(spec)
    _forbid_exact_solves(monkeypatch)
    sol = solve_torsion(spec)
    assert sol.iterations == exact.iterations
    free = [spec.graph.vertices[i] for i in asm.free]
    np.testing.assert_allclose([sol.tau[v] for v in free], [exact.tau[v] for v in free], rtol=1e-10, atol=0.0)


def test_hessians_below_two_run_pcg(monkeypatch):
    # the p = 1.5 Hessians of an expander are solved inexactly too: the
    # p = 2 start and every Newton step name a target and run PCG, and none
    # falls back to a dense or banded Cholesky solve or a factor
    spec = _random_expander(n=300, p=1.5)
    asm = torsio.solver._assemble(spec)
    assert asm.krylov and len(asm.free) <= torsio.solver.DENSE_LIMIT
    _forbid_exact_solves(monkeypatch)
    solves = _count_solves(monkeypatch)
    sol = solve_torsion(spec)
    assert sol.residual_inf <= torsio.solver.default_tolerance(spec)
    assert len(solves) == sol.iterations + 1
    assert None not in solves


def test_bracket_accepted_solve_reports_its_polya_side():
    # this p = 1.3 solve stalls above tol and is accepted on its bracket;
    # the reported T_p is the bracket's lower side, not (sum tau m)^(p-1),
    # which lies 8.9e-10 below it
    spec = _records_spec(700, 1.3, seed=[1, 9])
    sol = solve_torsion(spec)
    assert sol.residual_inf > torsio.solver.default_tolerance(spec)
    asm = torsio.solver._assemble(spec)
    rhs = np.where(spec._pinned, 0.0, asm.g.m)
    u = np.array([sol.tau[v] for v in asm.g.vertices])
    lower, upper = torsio.solver._rigidity_bracket(asm, spec.p, rhs, u)
    assert upper - lower <= 1e-12 * upper
    assert sol.rigidity == lower


def _grid_pattern(rows, cols):
    """The pattern of the Laplacian on the interior of a (rows + 2) x
    (cols + 2) grid whose boundary ring is Dirichlet, as _assemble stores it:
    the columns of the stored entries in CSR order and their row pointers."""
    nf = rows * cols
    pos = np.arange(nf).reshape(rows, cols)
    pa = np.concatenate([pos[:, :-1].ravel(), pos[:-1, :].ravel()])
    pb = np.concatenate([pos[:, 1:].ravel(), pos[1:, :].ravel()])
    cells = np.unique(np.concatenate([pa * nf + pb, pb * nf + pa, np.arange(nf) * (nf + 1)]))
    return nf, cells % nf, np.searchsorted(cells, np.arange(nf + 1) * nf)


def test_krylov_side_takes_expanders_and_leaves_grids():
    # the hop radius of an r x c grid interior is r + c - 2 >= 2 sqrt(nf) - 2,
    # above 2 log2(nf) from nf = 256; random graphs of degree 6 reach every
    # vertex in 5-7 hops
    low, high = torsio.solver.KRYLOV_MIN_FREE, 2 * torsio.solver.DENSE_LIMIT
    shapes = [(r, c) for r in range(1, high + 1) for c in range(r, high + 1) if low <= r * c <= high]
    assert len(shapes) > 1000
    for rows, cols in shapes:
        assert not torsio.solver._on_krylov_side(*_grid_pattern(rows, cols)), (rows, cols)
    assert torsio.solver._assemble(dirichlet_grid(18)).krylov is False  # 256 free vertices
    for n in (300, 400, 1000, 3000):
        assert torsio.solver._assemble(_records_spec(n, 3.0)).krylov, n
    assert not torsio.solver._assemble(_records_spec(250, 3.0)).krylov  # below the floor


@pytest.mark.parametrize("F", [2000, 10000])
def test_long_paths_at_p2_are_certified_without_gauss_seidel(monkeypatch, F):
    # the residual of the factor sits at its rounding floor eps * ||L|| *
    # ||tau||, above tol, so the rigidity bracket judges the solve
    monkeypatch.setattr(torsio.solver, "_gs_sweeps", _no_polish)
    spec = make_path(F)
    sol = solve_torsion(spec)
    assert sol.residual_inf > torsio.solver.default_tolerance(spec)
    exact = path_rigidity(PathSpecParams(F, (1.0,) * F, (1.0,) * F, 2.0))
    assert sol.rigidity == pytest.approx(exact, rel=1e-13)


def test_dense_solve_falls_back_to_lu_and_factor_rejects_singular():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric indefinite: no Cholesky
    b = np.array([1.0, -3.0])
    # the edge weight -2 and vertex weights 3 give exactly A on two free vertices
    pair = build_graph([("a", 1.0, 0.0), ("b", 1.0, 0.0)], [("a", "b", 1.0)])
    K = torsio.solver._System(torsio.solver._assemble(ProblemSpec(pair, frozenset(), 2.0)),
                              np.array([-2.0]), np.array([3.0, 3.0]))
    np.testing.assert_array_equal(K.A, A)
    np.testing.assert_array_equal(K.solve(b), np.linalg.solve(A, b))
    path = sp.csc_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]))
    with pytest.raises(NoConvergenceError):
        torsio.solver._factor(path)


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
def test_a_singular_solve_raises_a_torsio_error(p):
    # 1 + 1e16 == 1e16 in floats, so the p = 2 operator on the free vertices
    # b and c is exactly singular and its dense LU fallback fails
    g = build_graph([("a", 1.0, 0.0), ("b", 1.0, 0.0), ("c", 1.0, 0.0)], [("a", "b", 1.0), ("b", "c", 1e16)])
    with pytest.raises(NoConvergenceError, match="^Singular matrix$"):
        solve_torsion(ProblemSpec(g, frozenset({"a"}), p))


def _count_band_solves(monkeypatch):
    """Patch dpbsv to record the info of each banded solve."""
    dpbsv = torsio.solver.dpbsv
    infos = []

    def counted(*args, **kwargs):
        out = dpbsv(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(torsio.solver, "dpbsv", counted)
    return infos


def test_banded_solve_agrees_with_dense_cholesky(monkeypatch):
    # above BAND_MIN_FREE an exact solve runs the banded Cholesky in reverse
    # Cuthill-McKee order.  On paths the reference is the closed form: from
    # the free end the band's pivots are all 1 and its solve is exact, while
    # the dense one is 2.4e-13 off on 300 free vertices
    floor = torsio.solver.BAND_MIN_FREE
    specs = [dirichlet_grid(k) for k in range(10, 25)]  # 64 to 484 free vertices
    specs += [make_star(101)]  # 100 free leaves around a free center
    specs += [_records_spec(n, 2.0) for n in (104, 180, 254)]  # 100-250 free, not on the Krylov side
    cases = [(spec, None) for spec in specs]
    cases += [(make_path(F), path_torsion_values(np.ones(F), np.ones(F), 2.0)) for F in (floor, floor + 1, 300)]
    band = _count_band_solves(monkeypatch)
    for spec, ref in cases:
        asm = torsio.solver._assemble(spec)
        nf = len(asm.free)
        assert not asm.krylov
        system = torsio.solver._System(asm, asm.g.w, asm.g.c)
        m = asm.g.m[asm.free]
        before = len(band)
        x = system.solve(m)
        assert len(band) - before == (nf > floor), nf
        if ref is None:
            _, ref, info = scipy.linalg.lapack.dposv(system.A, m)
            assert info == 0
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref)), nf
    # a path's band is its tridiagonal; a star's spans all free vertices but one
    assert torsio.solver._assemble(make_path(300)).band[1] == 1
    assert torsio.solver._assemble(make_star(101)).band[1] == 99
    assert torsio.solver._assemble(dirichlet_grid(20)).band[1] == 18  # 324 free vertices


def test_banded_solve_falls_back_to_lu(monkeypatch):
    # negative vertex weights make A = L - 1.5 I indefinite on 100 free
    # vertices of a path: the banded Cholesky meets a non-positive pivot
    asm = torsio.solver._assemble(make_path(100))
    assert len(asm.free) > torsio.solver.BAND_MIN_FREE
    system = torsio.solver._System(asm, asm.g.w, np.full(asm.g.vertex_count, -1.5))
    assert np.linalg.eigvalsh(system.A).min() < 0.0
    b = np.random.default_rng(0).uniform(-1.0, 1.0, len(asm.free))
    band = _count_band_solves(monkeypatch)
    np.testing.assert_array_equal(system.solve(b), np.linalg.solve(system.A, b))
    assert len(band) == 1 and band[0] > 0


def _counted_solves(spec, monkeypatch):
    """T_p and Newton steps of solve_torsion, and lambda0 with its outer
    steps and the Newton steps of each inner leg."""
    sol = solve_torsion(spec)
    leg = torsio.spectral._newton_leg
    inner = []
    with monkeypatch.context() as patch:
        patch.setattr(torsio.spectral, "_newton_leg", lambda *a: inner.append(leg(*a)) or inner[-1])
        eig = lambda0(spec)
    return (sol.rigidity, eig.lambda0), (sol.iterations, eig.iterations, [r[1] for r in inner])


@pytest.mark.parametrize("p", [3.0, 8.0])
def test_banded_solve_keeps_newton_steps_above_two(monkeypatch, p):
    # on grids of 36 to 484 free vertices, solves through the band take the
    # dense solve's Newton steps, in solve_torsion and in lambda0's outer and
    # inner iterations, with the same T_p and lambda0 to 1e-12
    for k in range(8, 25):
        spec = dirichlet_grid(k, p=p)
        with monkeypatch.context() as patch:
            patch.setattr(torsio.solver, "BAND_MIN_FREE", torsio.solver.DENSE_LIMIT)
            dense = _counted_solves(spec, patch)
        band = _counted_solves(spec, monkeypatch)
        assert band[1] == dense[1], k
        assert band[0] == pytest.approx(dense[0], rel=1e-12, abs=0.0), k


def _no_polish(*args, **kwargs):
    raise AssertionError("solve_torsion ran a Gauss-Seidel sweep")


def _assert_mirror_symmetric(sol, n):
    """tau of dirichlet_grid(n) has the grid's mirror symmetries to 1e-12."""
    for i in range(n):
        for j in range(n):
            t = sol.tau[f"g{i}_{j}"]
            for mirror in (f"g{n - 1 - i}_{j}", f"g{i}_{n - 1 - j}", f"g{j}_{i}"):
                assert sol.tau[mirror] == pytest.approx(t, rel=1e-12, abs=0.0)


def test_stalled_newton_is_certified_without_gauss_seidel(monkeypatch):
    monkeypatch.setattr(torsio.solver, "_gs_sweeps", _no_polish)
    n = 20
    grid = dirichlet_grid(n, p=1.5)
    sol = solve_torsion(grid)
    assert min(sol.tau[v] for v in grid.free_vertices) > 0.0
    assert polya_quotient(grid, sol.tau) == pytest.approx(sol.rigidity, rel=1e-12)
    _assert_mirror_symmetric(sol, n)
    # seed 3 raised while the tangent curvature made near-tied edges flip
    for seed in (1, 3):
        rand = _random_expander(n=30, degree=4, n_dirichlet=2, seed=seed, p=1.2)
        sol = solve_torsion(rand)
        assert sol.residual_inf > torsio.solver.default_tolerance(rand)  # stalled above tol
        assert min(sol.tau[v] for v in rand.free_vertices) > 0.0
        assert polya_quotient(rand, sol.tau) == pytest.approx(sol.rigidity, rel=1e-12)


def test_uncertified_stop_fails_fast_and_typed(monkeypatch):
    monkeypatch.setattr(torsio.solver, "_gs_sweeps", _no_polish)
    with pytest.raises(NoConvergenceError, match="T_p in") as info:
        solve_torsion(dirichlet_grid(10, p=1.5), SolverOptions(max_iterations=2))
    assert np.isfinite(info.value.residual)
    assert info.value.iterations > 0


@pytest.mark.parametrize(
    "p, b, method", [(1.05, 1e-16, "newton"), (1.05, 1e-16, "gauss_seidel"), (2.0, 1e-320, "direct_p2")]
)
def test_torsion_out_of_float_range_raises(p, b, method):
    # a - b - c with weights 1 and b: tau(c) is about b^(-1/(p-1)) = 1e320
    g = build_graph([(v, 1.0, 0.0) for v in "abc"], [("a", "b", 1.0), ("b", "c", b)])
    with pytest.raises(NoConvergenceError, match="overflows a float"):
        solve_torsion(ProblemSpec(g, frozenset({"a"}), p), SolverOptions(method=method))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "star, F, b, p",
    [(False, 10, 1e30, 1.05), (False, 10, 1e100, 1.05), (False, 1, 1e200, 1.2), (True, 3, 1e30, 1.05)],
)
def test_an_inverted_rigidity_bracket_is_refused(star, F, b, p):
    # the Thomson side of these brackets underflows to 0, below the Polya
    # side, and a signed width test accepted T_p wrong by up to 275 orders
    # of magnitude; a result must match the scaling law T_p(b) = T_p(1) / b
    ones = [1.0] * F
    if star:
        spec, exact = make_star(F, "unit", b, p), star_rigidity(F, ones, ones, p) / b
    else:
        spec, exact = make_path(F, "unit", b, p), float(np.sum(path_torsion_values(ones, ones, p))) ** (p - 1.0) / b
    try:
        sol = solve_torsion(spec)
    except NoConvergenceError:
        return
    assert sol.rigidity == pytest.approx(exact, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_residual_ends_the_newton_leg():
    # at b = 1e-300 the flux phi_p(du) overflows while F_p stays finite, so
    # a step lands on a nan residual; the leg raises at its next step
    with pytest.raises(NoConvergenceError, match=r"^the Newton step at p = 18\.7577 overflows a float$"):
        solve_torsion(make_path(10, "unit", 1e-300, 20.0))
    # the line search's objective overflows quietly too
    with pytest.raises(NoConvergenceError, match=r"^the Newton step at p = 1\.1 overflows a float$"):
        solve_torsion(make_path(3, "unit", 1e-30, 1.1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, b, p", [(5, 1e-30, 1.1), (20, 1e-14, 1.05)])
def test_an_infinite_newton_step_raises_before_any_warning(n, b, p):
    # `torsio generate star --n <n> --b <b> --p <p>`: the first Hessian
    # solve returns an infinite step, or one whose slope overflows
    with pytest.raises(NoConvergenceError, match=rf"^the Newton step at p = {p:g} overflows a float$"):
        solve_torsion(make_star(n, "unit", b, p))


def test_curvature_takes_the_secant_on_edges_that_flipped_sign():
    # the path v0 - v1 - v2 - v3 - v4 with weights 2 at p = 1.5; edge k has
    # the difference u(v_k) - u(v_k+1), and edge 2 ties below the floor
    spec = make_path(4, "unit", 2.0, 1.5)
    asm = torsio.solver._assemble(spec)
    u = np.array([0.0, 1.0, 0.75, 0.75 + 2.0**-50, 1.0])
    tangent, _, (d, flipped) = torsio.solver._curvature(asm, 1.5, u)
    np.testing.assert_array_equal(d, [-1.0, 0.25, 0.0, u[3] - 1.0])
    assert not flipped.any()
    np.testing.assert_array_equal(tangent[[0, 1, 3]], 2.0 * 0.5 * np.abs(d[[0, 1, 3]]) ** -0.5)
    secant = tangent.copy()
    secant[[1, 3]] = 2.0 * np.abs(d[[1, 3]]) ** -0.5
    # against these last differences edges 1 and 3 flipped sign, edge 0
    # kept it, and the tie never counts
    last = (np.array([-0.5, -0.5, 0.5, 0.5]), False)
    ce, _, last = torsio.solver._curvature(asm, 1.5, u, last)
    np.testing.assert_array_equal(ce, secant)
    np.testing.assert_array_equal(last[1], [False, True, False, True])
    # a flip keeps the secant weight for one more step, and then ends
    ce, _, last = torsio.solver._curvature(asm, 1.5, u, last)
    np.testing.assert_array_equal(ce, secant)
    ce, _, last = torsio.solver._curvature(asm, 1.5, u, last)
    np.testing.assert_array_equal(ce, tangent)
    # above two every edge keeps the tangent weight
    ce, _, none = torsio.solver._curvature(asm, 3.0, u)
    assert none is None
    np.testing.assert_array_equal(torsio.solver._curvature(asm, 3.0, u, last)[0], ce)


def test_newton_below_two_stops_flipping_on_the_benchmark_graph():
    # the `solve` workload's random400_fixed_p1.5: with the tangent weight
    # on every edge, two edges of final |d| 2.6e-6 and 7.3e-7 flipped sign
    # at each step and the final leg crawled (91 steps in all)
    spec = _records_spec(400, 1.5, seed=[0, 1])
    sol = solve_torsion(spec)
    assert sol.iterations <= 30
    assert sol.residual_inf <= torsio.solver.default_tolerance(spec)


def _atlas_spec(index, dirichlet, masses, p):
    """Graph `index` of the networkx graph atlas with unit edge weights,
    c = 0, Dirichlet set {v<dirichlet>}, and unit or degree masses."""
    nx = pytest.importorskip("networkx")
    G = nx.graph_atlas(index)
    vertices = [(f"v{k}", float(G.degree(k)) if masses == "degree" else 1.0, 0.0) for k in G]
    edges = [(f"v{a}", f"v{b}", 1.0) for a, b in G.edges()]
    return ProblemSpec(build_graph(vertices, edges), frozenset({f"v{dirichlet}"}), p)


@pytest.mark.parametrize(
    "index, dirichlet, masses",
    [(522, 1, "degree"), (522, 5, "degree"), (529, 4, "degree"), (571, 1, "degree"), (571, 2, "degree"),
     (571, 5, "degree"), (571, 6, "degree"), (718, 4, "degree"), (857, 2, "degree"), (682, 3, "unit")],
)
def test_symmetric_atlas_graphs_solve_at_one_and_a_half(index, dirichlet, masses):
    # 7-vertex graphs on which Newton stalled at residual 2e-4 to 5e-2,
    # far above the rounding floor, while near-tied edges flipped sign
    spec = _atlas_spec(index, dirichlet, masses, 1.5)
    sol = solve_torsion(spec)
    assert polya_quotient(spec, sol.tau) == pytest.approx(sol.rigidity, rel=1e-12)


@pytest.mark.parametrize("p", [1.05, 1.2])
def test_grid_near_one_solves_with_its_mirror_symmetry(p):
    n = 10
    grid = dirichlet_grid(n, p)
    sol = solve_torsion(grid)
    assert polya_quotient(grid, sol.tau) == pytest.approx(sol.rigidity, rel=1e-12)
    _assert_mirror_symmetric(sol, n)


def test_paths_and_stars_solve_at_p_1_1():
    # 11 path lengths and 6 star sizes with unit and degree masses, and a
    # star whose Polya side overflowed when Newton stalled on it
    specs = [(make_path(F, masses, 1.0, 1.1), False) for F in (1, 2, 3, 5, 8, 13, 21, 30, 40, 60, 100)
             for masses in ("unit", "degree")]
    specs += [(make_star(n, masses, 1.0, 1.1), True) for n in (2, 3, 5, 10, 20, 40) for masses in ("unit", "degree")]
    specs.append((make_star(4, "unit", 1e-30, 1.1), True))
    for spec, star in specs:
        g, n = spec.graph, len(spec.free_vertices)
        masses = [g.measure[f"v{j}"] for j in range(1, n + 1)]
        weights = [g.edges[0][2]] * n
        if star:
            exact = star_rigidity(n, masses, weights, 1.1)
        else:
            exact = float(np.dot(path_torsion_values(masses, weights, 1.1), masses)) ** 0.1
        assert solve_torsion(spec).rigidity == pytest.approx(exact, rel=1e-9), (star, n)


@pytest.mark.parametrize(
    "spec, searches, cuts",
    [
        (make_path(30, "unit", 1.0, 3.0), 0, 0),
        (make_path(30, "unit", 1.0, 1.5), 2, 0),  # both searches keep the full step
        (dirichlet_grid(6, p=8.0), 1, 1),  # the search settles below the full step
    ],
    ids=["no_search", "full_step_kept", "full_step_cut"],
)
def test_newton_leg_evaluates_each_iterate_once(monkeypatch, spec, searches, cuts):
    # the gradient m L_p u - m is evaluated once at the start, once at each
    # full step and once more only where a line search settles below it;
    # F_p only by the line search, which starts after a full step that does
    # not cut the residual by 10 %: twice when it keeps the full step (at u
    # and there), at least three times when it cuts it
    events, iterates = [], []
    mlp, qp = torsio.solver._mlp, torsio.solver._qp

    def gradient(g, p, u):
        events.append("g")
        iterates.append(u.tobytes())
        return mlp(g, p, u)

    monkeypatch.setattr(torsio.solver, "_mlp", gradient)
    monkeypatch.setattr(torsio.solver, "_qp", lambda g, p, u: events.append("f") or qp(g, p, u))
    asm = torsio.solver._assemble(spec)
    rhs = np.where(spec._pinned, 0.0, asm.g.m)
    u = torsio.solver._torsion_p2(asm, rhs, 1e-12)
    start = u.copy()
    _, it, res = torsio.solver._newton_leg(asm, spec.p, rhs, u, torsio.solver.default_tolerance(spec), 400)
    assert res <= torsio.solver.default_tolerance(spec)
    np.testing.assert_array_equal(u, start)  # the caller's array is not written to
    runs = [len(run) for run in re.findall("f+", "".join(events))]
    assert (len(runs), sum(n >= 3 for n in runs)) == (searches, cuts)
    assert events.count("g") == 1 + it + cuts
    assert len(set(iterates)) == len(iterates)  # no vector twice


def test_p_above_two_continuation_takes_one_corrector_step_per_leg():
    # only the final leg runs to tol, so the count stays near the number of
    # continuation legs (7 at p = 8, 11 at p = 20) plus a few final steps
    for spec, budget in (
        (dirichlet_grid(20, p=8.0), 16),
        (_random_expander(p=8.0), 16),
        (dirichlet_grid(20, p=20.0), 30),
    ):
        sol = solve_torsion(spec)
        assert sol.iterations <= budget
        assert sol.residual_inf <= torsio.solver.default_tolerance(spec)
        assert polya_quotient(spec, sol.tau) == pytest.approx(sol.rigidity, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    p=st.floats(1.2, 8.0),
    edges=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)), min_size=2, max_size=12),
    size=st.floats(1e-8, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_rigidity_bracket_on_paths(p, edges, size, seed):
    # path v0 - v1 - ... - vF with v0 Dirichlet; at least two free vertices,
    # since with one the Polya quotient is exact for every u.  On a path the
    # admissible flux is unique, so the Thomson side equals T_p up to the
    # rounding of the p = 2 correction; far from tau that correction cancels
    # primal fluxes many times larger than the admissible one (5e-9 below
    # T_p at p = 8 and size 0.5), so perturbations stay in the near-solution
    # range where the solver uses the bracket
    masses, weights = zip(*edges)
    ids = [f"v{k}" for k in range(len(edges) + 1)]
    g = build_graph(
        [("v0", 1.0, 0.0)] + [(v, mk, 0.0) for v, mk in zip(ids[1:], masses)],
        [(a, b, wk) for a, b, wk in zip(ids, ids[1:], weights)],
    )
    spec = ProblemSpec(g, frozenset({"v0"}), p)
    tau = path_torsion_values(masses, weights, p)
    exact = float(np.dot(tau, masses)) ** (p - 1.0)
    asm = torsio.solver._assemble(spec)
    rhs = np.zeros(asm.g.vertex_count)
    rhs[asm.free] = asm.g.m[asm.free]
    values = dict(zip(ids, [0.0, *tau]))
    u = np.array([values[v] for v in asm.g.vertices])
    lower, upper = torsio.solver._rigidity_bracket(asm, p, rhs, u)
    assert upper - lower <= 1e-13 * upper
    u[asm.free] *= 1.0 + size * np.random.default_rng(seed).uniform(-1.0, 1.0, len(asm.free))
    lower, upper = torsio.solver._rigidity_bracket(asm, p, rhs, u)
    assert lower <= exact * (1.0 + 1e-13)
    assert exact <= upper * (1.0 + 1e-13)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    star=st.booleans(),
    p=st.floats(2.05, 20.0),
    data=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)), min_size=1, max_size=40),
)
def test_closed_forms_above_two_with_random_masses_and_weights(star, p, data):
    # F = len(data) free vertices; on a star the first weight is that of the
    # Dirichlet edge v1 - v0 and the others those of the leaves v2..vF
    masses, weights = zip(*data)
    F = len(data)
    ids = [f"v{k}" for k in range(F + 1)]
    if star:
        edges = [("v1", v, wk) for v, wk in zip(["v0", *ids[2:]], weights)]
        exact = star_torsion(F, masses, weights, p)
    else:
        edges = [(a, b, wk) for a, b, wk in zip(ids, ids[1:], weights)]
        exact = dict(zip(ids[1:], path_torsion_values(masses, weights, p)))
    g = build_graph([("v0", 1.0, 0.0)] + [(v, mk, 0.0) for v, mk in zip(ids[1:], masses)], edges)
    spec = ProblemSpec(g, frozenset({"v0"}), p)
    sol = solve_torsion(spec)
    for v in ids[1:]:
        assert sol.tau[v] == pytest.approx(exact[v], rel=1e-9)
    T = sum(exact[v] * mk for v, mk in zip(ids[1:], masses)) ** (p - 1.0)
    assert sol.rigidity == pytest.approx(T, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 8.0])
def test_max_iterations_caps_the_whole_newton_solve(p):
    # the budget is shared by all continuation legs, not granted to each
    with pytest.raises(NoConvergenceError) as info:
        solve_torsion(dirichlet_grid(20, p=p), SolverOptions(max_iterations=3))
    assert info.value.iterations <= 3


OPERATOR_OVERFLOW = "^an entry of the p = 2 operator overflows a float$"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
@pytest.mark.parametrize(
    "make, n, b",
    # the centre's (or each vertex's) diagonal sums weights to above 1.8e308
    [(make_star, 3, 1e308), (make_complete, 4, 1e308), (make_star, 10, 3e307)],
)
def test_an_overflowing_p2_operator_is_one_error(make, n, b, p):
    # every solve starts from the p = 2 operator, which refuses an infinite
    # entry; before, each method met it later under another name
    spec = make(n, "unit", b, p)
    methods = ["auto", "newton"] + (["direct_p2"] if p == 2.0 else [])
    for method in methods:
        with pytest.raises(NoConvergenceError, match=OPERATOR_OVERFLOW):
            solve_torsion(spec, SolverOptions(method=method))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, vertex",
    # the star's centre sums 3e308 at p = 2, and phi_p overflows on the
    # stiff path at p = 20
    [(make_star(3, "unit", 1e308, 2.0), "v1"), (make_path(5, "unit", 1e-300, 20.0), "v1")],
)
def test_gauss_seidel_overflow_stops_in_the_first_sweep(spec, vertex):
    # a numpy overflow used to pass unnoticed until the sweep cap
    opts = SolverOptions(method="gauss_seidel", max_iterations=1000)
    message = f"^tau overflows a float at vertex {vertex!r} in Gauss-Seidel sweep 1$"
    with pytest.raises(NoConvergenceError, match=message) as exc:
        solve_torsion(spec, opts)
    assert exc.value.iterations == 1


@pytest.mark.parametrize("t0", [0.0, 0.5, 7.3, -100.0, 1e4])
def test_scalar_solve_brackets_a_tiny_root_at_its_own_scale(monkeypatch, t0):
    # 281 phi_p(t - 0) = 0.25 at p = 1.05 has the root (0.25/281)^20 = 9.7e-62;
    # a first bracket step of at least 1 cost Brent's method up to 220 steps.
    # The steps are counted as evaluations of h: brentq's own count is not
    # set when an end of the bracket is the root, as it is here from t0 = 0
    import scipy.optimize

    real, steps = scipy.optimize.brentq, []

    def counting(h, lo, hi, **kwargs):
        calls = []
        root, info = real(lambda t: calls.append(t) or h(t), lo, hi, full_output=True, **kwargs)
        assert info.converged
        steps.append(len(calls))
        return root

    monkeypatch.setattr(scipy.optimize, "brentq", counting)
    t = torsio.solver._scalar_solve(np.array([0.0]), np.array([281.0]), 0.0, 0.25, t0, 1.05)
    assert t == pytest.approx((0.25 / 281.0) ** 20, rel=1e-12)
    assert len(steps) == 1 and steps[0] <= 80, steps


@pytest.mark.parametrize("cv, t0", [(0.0, 2.0), (1.0, 2.0), (1.0, 0.0), (0.0, -3.0), (2.0, 1e-300)])
def test_scalar_solve_with_zero_rhs_and_equal_neighbours_ends(cv, t0):
    # every scale of the data but |t0| or the distance to the neighbours is 0
    nb = np.array([2.0, 2.0])
    t = torsio.solver._scalar_solve(nb, np.array([1.0, 3.0]), cv, 0.0, t0, 1.5)
    h = float(np.dot([1.0, 3.0], phi_p(t - nb, 1.5))) + cv * float(phi_p(t, 1.5))
    assert abs(h) <= 1e-12
    assert (t == 2.0) if cv == 0.0 else (0.0 < t < 2.0)


def test_scalar_solve_ends_when_the_root_lies_below_float_range():
    # rhs/W = 5e-18 at p = 1.05 puts the root at 1e-347, below the smallest
    # subnormal: every scale of the data is 0 at t0 = 0 while h(0) = -1, so
    # the first step has to be positive for the bracket to close
    t = torsio.solver._scalar_solve(np.zeros(2), np.full(2, 1e17), 0.0, 1.0, 0.0, 1.05)
    assert 0.0 <= t <= np.finfo(float).smallest_subnormal


def test_gauss_seidel_ends_on_a_path_whose_first_sweep_underflows():
    # the first sweep starts from u = 0, where the equations above arise
    opts = SolverOptions(method="gauss_seidel", max_iterations=20)
    with pytest.raises(NoConvergenceError, match="after 20 sweeps"):
        solve_torsion(make_path(3, "unit", 1e17, 1.05), opts)
