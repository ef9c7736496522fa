"""Bottom of the p-spectrum and the p = 2 spectral gap."""

import numpy as np
import pytest

import torsio.solver
from conftest import dirichlet_grid, random_general_spec
from torsio import (
    DisconnectedError,
    IllPosedError,
    ProblemSpec,
    UnboundedComponentError,
    ScaleParams,
    build_graph,
    gradient_Fp,
    lambda0,
    lambda1_p2,
    make_complete,
    make_path,
    make_star,
    merge_dirichlet,
    rayleigh_quotient,
    scale,
)


def all_leaf_dirichlet_star(n, m_mode="unit"):
    spec = make_star(n, m_mode)
    leaves = frozenset(v for v in spec.graph.vertices if v != "v1")
    return ProblemSpec(spec.graph, leaves, 2.0)


def test_path_closed_forms_unit():
    for F in (1, 2, 5, 12):
        lam = lambda0(make_path(F, "unit")).lambda0
        assert lam == pytest.approx(2.0 * (1.0 - np.cos(np.pi / (2 * F + 1))), abs=1e-12)


def test_path_closed_forms_degree():
    for F in (1, 2, 5, 12):
        lam = lambda0(make_path(F, "degree")).lambda0
        assert lam == pytest.approx(1.0 - np.cos(np.pi / (2 * F)), abs=1e-12)


def test_star_all_leaves_dirichlet():
    for n in (2, 3, 7):
        assert all_leaf_dirichlet_star(n).graph is not None
        lam = lambda0(all_leaf_dirichlet_star(n)).lambda0
        assert lam == pytest.approx(float(n), abs=1e-12)
        lam_deg = lambda0(all_leaf_dirichlet_star(n, "degree")).lambda0
        assert lam_deg == pytest.approx(1.0, abs=1e-12)


def test_lambda0_equals_rayleigh_of_ground_state():
    for seed, p in ((0, 2.0), (1, 1.5), (2, 3.0)):
        spec = random_general_spec(seed, p=p)
        sol = lambda0(spec)
        assert sol.lambda0 == pytest.approx(
            rayleigh_quotient(spec, sol.ground_state), rel=1e-10
        )


def test_ground_state_nonnegative_and_normalized():
    for seed, p in ((3, 2.0), (4, 1.5), (5, 3.0)):
        spec = random_general_spec(seed, p=p)
        sol = lambda0(spec)
        gs = sol.ground_state
        assert min(gs.values()) >= -1e-12
        norm = sum(
            abs(gs[v]) ** p * spec.graph.measure[v] for v in spec.free_vertices
        )
        assert norm == pytest.approx(1.0, rel=1e-9)
        assert all(gs[v] == 0.0 for v in spec.dirichlet)


def test_lambda0_scaling_law():
    rng = np.random.default_rng(5)
    for seed, p in ((6, 2.0), (7, 1.5), (8, 3.0)):
        spec = random_general_spec(seed, p=p)
        mu = float(rng.uniform(0.1, 10.0))
        lam_s = float(rng.uniform(0.1, 10.0))
        scaled = ProblemSpec(
            scale(spec.graph, ScaleParams(mu, lam_s)), spec.dirichlet, spec.p
        )
        a = lambda0(spec).lambda0
        b = lambda0(scaled).lambda0
        assert b == pytest.approx(lam_s / mu * a, rel=1e-8)


def test_inverse_power_matches_dense_at_p2():
    for seed in range(8):
        spec = random_general_spec(seed, p=2.0)
        dense = lambda0(spec).lambda0
        power = lambda0(spec, method="inverse_power").lambda0
        assert power == pytest.approx(dense, abs=1e-8, rel=1e-8)


def test_merge_dirichlet_invariance():
    for seed, p in ((10, 2.0), (11, 1.5), (12, 3.0)):
        spec = random_general_spec(seed, p=p, dirichlet_max=3)
        merged = merge_dirichlet(spec)
        a = lambda0(spec).lambda0
        b = lambda0(merged).lambda0
        assert b == pytest.approx(a, rel=1e-8)


def test_lambda0_requires_well_posed():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(IllPosedError):
        lambda0(ProblemSpec(g, frozenset(), 2.0))


def test_lambda0_rejects_loose_component_at_every_p():
    for n in (10, 25):  # dense eigh and Lanczos at p = 2
        grid = dirichlet_grid(n)
        g = grid.graph
        records = [(v, g.measure[v], g.potential[v]) for v in g.vertices]
        loose = build_graph(records + [("x", 1, 0), ("y", 1, 0)], list(g.edges) + [("x", "y", 1)])
        for p in (2.0, 3.0):
            spec = ProblemSpec(loose, grid.dirichlet, p)
            with pytest.raises(UnboundedComponentError, match=r"\['x'\]"):
                lambda0(spec)


def test_lambda0_neumann_with_potential():
    g = build_graph([("a", 1, 0.5), ("b", 1, 0)], [("a", "b", 1)])
    spec = ProblemSpec(g, frozenset(), 2.0)
    sol = lambda0(spec)
    # 2x2 generalized problem: K = [[1.5, -1], [-1, 1]]
    vals = np.linalg.eigvalsh(np.array([[1.5, -1.0], [-1.0, 1.0]]))
    assert sol.lambda0 == pytest.approx(float(vals[0]), abs=1e-12)


def test_lambda1_examples():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    assert lambda1_p2(g) == pytest.approx(2.0, abs=1e-12)
    for n in (3, 4, 6):
        assert lambda1_p2(make_complete(n).graph) == pytest.approx(float(n), abs=1e-10)


def test_lambda1_scaling_in_weights():
    g = make_complete(4).graph
    g2 = scale(g, ScaleParams(1.0, 2.5))
    assert lambda1_p2(g2) == pytest.approx(2.5 * lambda1_p2(g), rel=1e-12)


def test_lambda1_needs_connected():
    g = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)])
    with pytest.raises(DisconnectedError):
        lambda1_p2(g)


def test_lanczos_is_deterministic():
    spec = dirichlet_grid(30)  # 784 free vertices: shift-invert Lanczos
    runs = [lambda0(spec) for _ in range(4)]
    assert runs[0].method == "lanczos"
    assert len({r.lambda0 for r in runs}) == 1
    assert all(r.ground_state == runs[0].ground_state for r in runs)


def test_inverse_power_runs_no_gauss_seidel(monkeypatch):
    def no_polish(*args, **kwargs):
        raise AssertionError("inverse power ran a Gauss-Seidel sweep")

    monkeypatch.setattr(torsio.solver, "_gs_sweeps", no_polish)
    for spec in (dirichlet_grid(10, p=1.5), make_star(40, "unit", p=1.2)):
        sol = lambda0(spec)
        phi = sol.ground_state
        grad = gradient_Fp(spec, phi)  # m L_p phi - m on free vertices
        m = spec.graph.measure
        barta = min(
            (grad[v] + m[v]) / m[v] / phi[v] ** (spec.p - 1.0) for v in spec.free_vertices
        )
        rayleigh = rayleigh_quotient(spec, phi)
        assert barta <= sol.lambda0 * (1.0 + 1e-12)
        assert sol.lambda0 <= rayleigh * (1.0 + 1e-12)
        assert (rayleigh - barta) / rayleigh <= 1e-5
