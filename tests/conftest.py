"""Shared helpers: seeded random specs with general masses and potentials."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# the benchmark's seeded input generators (bench/workloads.py)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from torsio import ProblemSpec, build_graph, make_random_connected  # noqa: E402


def random_general_spec(
    seed,
    p=None,
    with_potential=False,
    no_dirichlet=False,
    n_range=(3, 8),
    dirichlet_max=2,
):
    """Connected random spec with nonuniform masses; deterministic in seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    prob = float(rng.uniform(0.35, 0.9))
    base = make_random_connected(n, prob, (0.5, 2.0), int(rng.integers(0, 2**62)))
    g = base.graph
    masses = {v: float(rng.uniform(0.5, 2.0)) for v in g.vertices}
    if with_potential or no_dirichlet:
        pots = {v: float(rng.uniform(0.1, 1.0)) for v in g.vertices}
    else:
        pots = {v: 0.0 for v in g.vertices}
    g2 = build_graph(
        [(v, masses[v], pots[v]) for v in g.vertices], list(g.edges)
    )
    if no_dirichlet:
        dirichlet = frozenset()
    else:
        k = int(rng.integers(1, min(dirichlet_max, n - 1) + 1))
        idx = rng.choice(n, size=k, replace=False)
        dirichlet = frozenset(g.vertices[int(i)] for i in idx)
    pp = float(p) if p is not None else float(rng.choice([1.5, 2.0, 3.0]))
    return ProblemSpec(g2, dirichlet, pp)


def as_unit_function(spec, rng):
    """Random vertex function vanishing on the Dirichlet set."""
    return {
        v: (0.0 if v in spec.dirichlet else float(rng.uniform(-2.0, 2.0)))
        for v in spec.graph.vertices
    }


def dirichlet_grid(n, p=2.0):
    """n x n grid with unit masses and weights; the boundary ring is Dirichlet."""
    name = [[f"g{i}_{j}" for j in range(n)] for i in range(n)]
    vertices = [(name[i][j], 1.0, 0.0) for i in range(n) for j in range(n)]
    edges = [(name[i][j], name[i][j + 1], 1.0) for i in range(n) for j in range(n - 1)]
    edges += [(name[i][j], name[i + 1][j], 1.0) for i in range(n - 1) for j in range(n)]
    ring = frozenset(
        name[i][j] for i in range(n) for j in range(n) if min(i, j) == 0 or max(i, j) == n - 1
    )
    return ProblemSpec(build_graph(vertices, edges), ring, float(p))
