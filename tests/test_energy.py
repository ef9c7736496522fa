"""Energy functional, torsion functional, gradient and the two quotients."""

import math

import numpy as np
import pytest

from conftest import as_unit_function, random_general_spec
from torsio import (
    DirichletViolationError,
    DomainMismatchError,
    IllPosedError,
    ProblemSpec,
    SolverOptions,
    ZeroEnergyError,
    ZeroFunctionError,
    build_graph,
    energy_Qp,
    functional_Fp,
    gradient_Fp,
    make_path,
    polya_quotient,
    rayleigh_quotient,
    solve_torsion,
)
from torsio.closed_forms import PathSpecParams, path_torsion

TIGHT = SolverOptions(tol=1e-12)


def single_edge_spec(p=2.0):
    g = build_graph([("v0", 1, 0), ("v1", 1, 0)], [("v0", "v1", 1.0)])
    return ProblemSpec(g, frozenset({"v0"}), p)


def test_energy_single_edge():
    spec = single_edge_spec()
    assert energy_Qp(spec, {"v0": 0.0, "v1": 1.0}) == pytest.approx(0.5)


def test_energy_constant_function_vanishes():
    g = build_graph(
        [("a", 1, 0), ("b", 2, 0), ("c", 1, 0)], [("a", "b", 2), ("b", "c", 1)]
    )
    spec = ProblemSpec(g, frozenset(), 2.0)
    assert energy_Qp(spec, {v: 3.0 for v in g.vertices}) == 0.0


def test_energy_validation():
    spec = single_edge_spec()
    with pytest.raises(DomainMismatchError):
        energy_Qp(spec, {"v0": 0.0})
    with pytest.raises(DomainMismatchError):
        energy_Qp(spec, {"v0": 0.0, "v1": 1.0, "zz": 0.0})
    with pytest.raises(DirichletViolationError):
        energy_Qp(spec, {"v0": 0.5, "v1": 1.0})


def test_energy_identity_at_torsion_function():
    # p Q_p(tau) equals the l1 mass of tau over free vertices
    for seed, p in ((0, 1.5), (1, 2.0), (2, 3.0)):
        spec = random_general_spec(seed, p=p)
        sol = solve_torsion(spec, TIGHT)
        l1 = sum(sol.tau[v] * spec.graph.measure[v] for v in spec.free_vertices)
        assert p * energy_Qp(spec, sol.tau) == pytest.approx(l1, rel=1e-9)


def test_functional_zero_and_scalar_case():
    spec = single_edge_spec()
    assert functional_Fp(spec, {"v0": 0.0, "v1": 0.0}) == 0.0
    # on one free vertex F_2(t) = t^2/2 - t, minimized at t = 1 with value -1/2
    assert functional_Fp(spec, {"v0": 0.0, "v1": 1.0}) == pytest.approx(-0.5)
    assert functional_Fp(spec, {"v0": 0.0, "v1": 0.5}) == pytest.approx(-0.375)


def test_functional_value_at_minimizer():
    # F_p(tau) = (1-p)/p * ||tau||_1
    for seed, p in ((3, 1.5), (4, 2.0), (5, 3.0)):
        spec = random_general_spec(seed, p=p)
        sol = solve_torsion(spec, TIGHT)
        l1 = sum(sol.tau[v] * spec.graph.measure[v] for v in spec.free_vertices)
        assert functional_Fp(spec, sol.tau) == pytest.approx((1 - p) / p * l1, rel=1e-9)


def test_gradient_at_zero_is_minus_mass():
    spec = random_general_spec(6)
    grad = gradient_Fp(spec, {v: 0.0 for v in spec.graph.vertices})
    for v in spec.free_vertices:
        assert grad[v] == -spec.graph.measure[v]
    for v in spec.dirichlet:
        assert grad[v] == 0.0


def test_gradient_vanishes_at_exact_path_torsion():
    for p in (1.5, 2.0, 3.0):
        spec = make_path(5, "unit", 1.0, p)
        tau = path_torsion(PathSpecParams(5, (1.0,) * 5, (1.0,) * 5, p))
        grad = gradient_Fp(spec, tau)
        assert max(abs(grad[v]) for v in spec.free_vertices) <= 1e-10


def test_gradient_matches_central_differences():
    eps = 1e-6
    for seed, p in ((0, 1.5), (1, 2.0), (2, 3.0)):
        spec = random_general_spec(seed, p=p, with_potential=True)
        rng = np.random.default_rng(seed + 100)
        for _ in range(100):
            u = as_unit_function(spec, rng)
            v = spec.free_vertices[int(rng.integers(spec.free_count))]
            grad = gradient_Fp(spec, u)[v]
            up = dict(u)
            um = dict(u)
            up[v] += eps
            um[v] -= eps
            fd = (functional_Fp(spec, up) - functional_Fp(spec, um)) / (2 * eps)
            assert fd == pytest.approx(grad, rel=1e-5, abs=1e-7)


def test_polya_quotient_examples():
    spec = single_edge_spec(2.0)
    assert polya_quotient(spec, {"v0": 0.0, "v1": 1.0}) == pytest.approx(1.0)
    spec3 = single_edge_spec(3.0)
    assert polya_quotient(spec3, {"v0": 0.0, "v1": 1.0}) == pytest.approx(1.0)


def test_polya_quotient_at_torsion_function_is_rigidity():
    for seed, p in ((7, 1.5), (8, 2.0), (9, 3.0)):
        spec = random_general_spec(seed, p=p)
        sol = solve_torsion(spec, TIGHT)
        assert polya_quotient(spec, sol.tau) == pytest.approx(sol.rigidity, rel=1e-9)


def test_quotients_scale_invariant():
    spec = random_general_spec(11)
    rng = np.random.default_rng(1)
    u = as_unit_function(spec, rng)
    u2 = {v: 2.0 * x for v, x in u.items()}
    assert polya_quotient(spec, u2) == pytest.approx(polya_quotient(spec, u), rel=1e-12)
    assert rayleigh_quotient(spec, u2) == pytest.approx(
        rayleigh_quotient(spec, u), rel=1e-12
    )


def test_quotient_errors():
    spec = single_edge_spec()
    with pytest.raises(ZeroFunctionError):
        polya_quotient(spec, {"v0": 0.0, "v1": 0.0})
    # a free component with zero potential and no Dirichlet link carries a
    # constant function of zero energy
    g = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)])
    spec2 = ProblemSpec(g, frozenset({"a"}), 2.0)
    with pytest.raises(ZeroEnergyError):
        polya_quotient(spec2, {"a": 0.0, "b": 0.0, "c": 1.0})
    with pytest.raises(ZeroFunctionError):
        rayleigh_quotient(spec, {"v0": 0.0, "v1": 0.0})
    # no Dirichlet vertex and no potential: both quotients are undefined
    neumann = ProblemSpec(spec.graph, frozenset(), 2.0)
    for quotient in (polya_quotient, rayleigh_quotient):
        with pytest.raises(IllPosedError):
            quotient(neumann, {"v0": 1.0, "v1": 2.0})


def test_rayleigh_single_edge():
    spec = single_edge_spec()
    assert rayleigh_quotient(spec, {"v0": 0.0, "v1": 1.0}) == pytest.approx(1.0)


def test_rayleigh_at_path_ground_state_matches_eigensolver():
    import scipy.linalg

    spec = make_path(4)
    # dense symmetric oracle on the free block of the quadratic form
    K = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    vals, vecs = scipy.linalg.eigh(K)
    u = {"v0": 0.0}
    for j in range(4):
        u[f"v{j + 1}"] = float(vecs[j, 0])
    assert rayleigh_quotient(spec, u) == pytest.approx(float(vals[0]), rel=1e-12)


def test_functional_is_convex_on_segments():
    for seed in range(8):
        spec = random_general_spec(seed, with_potential=bool(seed % 2))
        rng = np.random.default_rng(seed + 500)
        for _ in range(20):
            u = as_unit_function(spec, rng)
            w = as_unit_function(spec, rng)
            mid = {v: 0.5 * (u[v] + w[v]) for v in u}
            fm = functional_Fp(spec, mid)
            avg = 0.5 * (functional_Fp(spec, u) + functional_Fp(spec, w))
            assert fm <= avg + 1e-10 * (1.0 + abs(avg))


def _loop_oracle(spec, u):
    """Q_p, the gradient of F_p (with the size of its terms) and both
    quotients as plain loops over the edge and vertex dicts."""
    g, p = spec.graph, spec.p
    m, c = g.measure, g.potential
    nbrs = {v: [] for v in g.vertices}
    for a, b, w in g.edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))

    def phi(x):
        return math.copysign(abs(x) ** (p - 1.0), x)

    q = sum(w * abs(u[a] - u[b]) ** p for a, b, w in g.edges) / p
    q += sum(c[v] * abs(u[v]) ** p for v in g.vertices) / p
    grad = {}
    for v in g.vertices:
        terms = [w * phi(u[v] - u[x]) for x, w in nbrs[v]] + [c[v] * phi(u[v]), -m[v]]
        grad[v] = (0.0, 0.0) if v in spec.dirichlet else (sum(terms), sum(map(abs, terms)))
    free = [v for v in g.vertices if v not in spec.dirichlet]
    l1 = sum(abs(u[v]) * m[v] for v in free)
    lp = sum(abs(u[v]) ** p * m[v] for v in free)
    return q, grad, l1**p / (p * q), p * q / lp


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
def test_array_kernels_match_loop_oracle(p):
    rng = np.random.default_rng(int(p * 10))
    for seed in range(8):
        spec = random_general_spec(seed, p=p, with_potential=True)
        u = as_unit_function(spec, rng)
        q, grad, polya, rayleigh = _loop_oracle(spec, u)
        assert energy_Qp(spec, u) == pytest.approx(q, rel=1e-13)
        assert polya_quotient(spec, u) == pytest.approx(polya, rel=1e-13)
        assert rayleigh_quotient(spec, u) == pytest.approx(rayleigh, rel=1e-13)
        got = gradient_Fp(spec, u)
        for v, (value, size) in grad.items():
            assert got[v] == pytest.approx(value, rel=1e-13, abs=1e-13 * size)


def test_energy_with_an_overflowing_power_is_finite():
    # |u(c) - u(b)|^3 = 1e462 overflows, b |u(c) - u(b)|^3 = 1e154 does not;
    # c = 0 at the vertex where |u|^3 overflows
    g = build_graph([(v, 1.0, 0.0) for v in "abc"], [("a", "b", 1.0), ("b", "c", 1e-308)])
    spec = ProblemSpec(g, frozenset({"a"}), 3.0)
    assert energy_Qp(spec, {"a": 0.0, "b": 1.0, "c": 1e154}) == pytest.approx(1e154 / 3.0, rel=1e-12)
