"""Bottom of the p-spectrum and the p = 2 spectral gap."""

import itertools

import networkx as nx
import numpy as np
import pytest

import torsio.solver
import torsio.spectral
from conftest import dirichlet_grid, random_general_spec
from torsio import (
    DisconnectedError,
    IllPosedError,
    NoConvergenceError,
    ProblemSpec,
    UnboundedComponentError,
    ScaleParams,
    TorsioError,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("free", [3, torsio.solver.DENSE_LIMIT + 1])
def test_p2_eigensolves_of_an_overflowing_operator_are_a_numerical_failure(free):
    # `torsio generate star --n 3 --b 1e308 --p 2`: the centre's diagonal
    # 3e308 overflows; a path of b = 1e308 overflows at every inner vertex,
    # and above DENSE_LIMIT its operator is sparse
    spec = make_star(3, "unit", 1e308, 2.0) if free == 3 else make_path(free, "unit", 1e308, 2.0)
    message = r"^an entry of the p = 2 operator overflows a float$"
    with pytest.raises(NoConvergenceError, match=message):
        lambda0(spec)
    with pytest.raises(NoConvergenceError, match=message):
        lambda1_p2(spec.graph)


LP_NORM_RANGE = r"^the l\^p\(m\) norm of the lambda0 eigenvector at p = {p:g} leaves float range$"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [make_path, make_star, make_complete])
@pytest.mark.parametrize("m_mode", ["unit", "degree"])
def test_lambda0_on_extreme_weights_is_finite_or_a_torsio_error(make, m_mode):
    # with degree masses the l^p(m) mass sum |u|^p m of the eigenvector can
    # overflow (|u|^p) or underflow while each product is in range.  With
    # unit masses and b = 5e-324 lambda0 itself underflows to 0.0 or 5e-324
    sizes, weights, exponents = (2, 3, 5), (5e-324, 1e-320, 1e-310, 1e-300), (1.05, 1.5, 2.0, 3.0, 8.0, 20.0)
    for n, b, p in itertools.product(sizes, weights, exponents):
        try:
            lam = lambda0(make(n, m_mode, b, p)).lambda0
        except TorsioError:
            continue
        assert 0.0 <= lam < np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec",
    # the squares of the M-normalized eigenvector (entries near 7e154)
    # overflow; the 20th powers of the path's iterate overflow although b is
    # in normal float range
    [make_path(2, "degree", 1e-310), make_path(3, "degree", 1e-300, 20.0),
     make_path(5, "degree", 1e-300, 20.0)],
)
def test_lambda0_with_an_lp_norm_out_of_float_range_is_a_numerical_failure(spec):
    with pytest.raises(NoConvergenceError, match=LP_NORM_RANGE.format(p=spec.p)):
        lambda0(spec)


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


def _long_stall_window(monkeypatch):
    """Run every inner leg of lambda0 on the torsion solve's 30-step window."""
    leg = torsio.spectral._newton_leg
    monkeypatch.setattr(
        torsio.spectral, "_newton_leg",
        lambda asm, p, rhs, u, tol, cap, stall: leg(asm, p, rhs, u, tol, cap),
    )


@pytest.mark.parametrize(
    "spec, budget", [(dirichlet_grid(10, p=1.5), 60), (make_star(40, "unit", p=1.2), 30)]
)
def test_inverse_power_below_two_ends_each_leg_at_its_rounding_floor(monkeypatch, spec, budget):
    # inner_tol lies under the residual's rounding floor below p = 2, so a
    # leg ends on its stall break; the short window takes 30 and 15 steps,
    # where the 30-step window took 195 and 69
    leg = torsio.spectral._newton_leg
    legs = []
    monkeypatch.setattr(torsio.spectral, "_newton_leg", lambda *a: legs.append(leg(*a)) or legs[-1])
    lambda0(spec)
    assert 0 < sum(it for _, it, _ in legs) <= budget


@pytest.mark.parametrize("p", [3.0, 8.0])
def test_inverse_power_above_two_keeps_the_long_stall_window(monkeypatch, p):
    # the legs above p = 2 start from the flat constant vector, where the
    # Hessian weights |du|^(p-2) are near 1e-12, and need 30 steps to leave it
    for spec in (dirichlet_grid(20, p), make_path(30, p=p), make_star(13, p=p)):
        sol = lambda0(spec)
        with monkeypatch.context() as patch:
            _long_stall_window(patch)
            ref = lambda0(spec)
        assert sol.lambda0 == ref.lambda0
        assert sol.ground_state == ref.ground_state


def test_inverse_power_below_two_matches_the_long_stall_window_on_the_atlas(monkeypatch):
    # every 8th of the 809 specs made of a connected atlas graph of 2 to 6
    # vertices (the atlas's first 209 graphs; unit masses and weights) and
    # one Dirichlet vertex; over all 809 at both p the two windows agree to
    # 7.6e-12, and neither raises
    specs = []
    for H in nx.graph_atlas_g()[:209]:
        if H.number_of_nodes() < 2 or not nx.is_connected(H):
            continue
        g = build_graph([(f"v{k}", 1.0, 0.0) for k in H], [(f"v{a}", f"v{b}", 1.0) for a, b in H.edges()])
        specs += [(g, frozenset({f"v{k}"})) for k in H]
    assert len(specs) == 809
    for p in (1.2, 1.5):
        for g, dirichlet in specs[::8]:
            spec = ProblemSpec(g, dirichlet, p)
            with monkeypatch.context() as patch:
                _long_stall_window(patch)
                try:
                    ref = lambda0(spec).lambda0
                except NoConvergenceError:
                    continue
            assert lambda0(spec).lambda0 == pytest.approx(ref, rel=1e-10, abs=0.0), (p, dirichlet)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lambda0_ignores_an_overflow_in_the_dropped_dirichlet_row():
    # the two fluxes of 9.7e307 into the Dirichlet vertex v0 add up beyond
    # float range; the residual reads the free rows only, so no warning
    sol = lambda0(make_complete(3, "unit", 1e308, 1.05))
    assert sol.lambda0 == 1e308
    assert np.isfinite(sol.residual)


def test_an_eigen_residual_out_of_float_range_on_a_free_row_raises():
    # a residual of inf would print as Infinity, which is not JSON
    spec = make_path(2)
    asm = torsio.solver._assemble(spec)
    u = np.array([0.0, 1e308, -1e308])
    with pytest.raises(NoConvergenceError, match="^the lambda0 eigen-residual at p = 2 leaves float range$"):
        torsio.spectral._eigen_residual(asm, 2.0, 1.0, u)


@pytest.mark.xfail(
    strict=True, raises=(AssertionError, NoConvergenceError),
    reason="ROADMAP item 1: inverse power moves the weight between two free components "
    "whose quotients differ by 1 % by a factor of only 1.01^(1/(p-1)) per step",
)
@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
def test_lambda0_on_a_star_whose_free_leaves_nearly_tie(p):
    # Dirichlet centre, free leaves of mass 1 and 1.01, unit weights: each
    # leaf is a free component of its own, with quotient b/m, so lambda0 =
    # 1/1.01.  Inverse power raises after 500 outer steps at p = 3 and 8,
    # and returns 0.99009901313 at p = 1.5, 3.2e-9 too high
    g = build_graph([("c", 1.0, 0.0), ("a", 1.0, 0.0), ("b", 1.01, 0.0)], [("c", "a", 1.0), ("c", "b", 1.0)])
    assert lambda0(ProblemSpec(g, frozenset({"c"}), p)).lambda0 == pytest.approx(1 / 1.01, rel=1e-12, abs=0.0)
