"""The p = 2 rigidity against exact rational arithmetic on the graph atlas."""

from fractions import Fraction

import networkx as nx

from torsio import ProblemSpec, build_graph, solve_torsion


def _exact_rigidity(H, masses, dirichlet):
    """T_2 = sum tau m for L tau = m on the free vertices of H (unit edge
    weights, no potential), by Gaussian elimination in Fractions."""
    free = [v for v in H if v != dirichlet]
    index = {v: k for k, v in enumerate(free)}
    rows = []
    for v in free:
        row = [Fraction(0)] * len(free) + [Fraction(masses[v])]
        row[index[v]] = Fraction(H.degree(v))
        for w in H[v]:
            if w in index:
                row[index[w]] -= 1
        rows.append(row)
    n = len(free)
    for k in range(n):  # symmetric positive definite: no pivoting needed
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    tau = [Fraction(0)] * n
    for k in reversed(range(n)):
        tail = sum(rows[k][j] * tau[j] for j in range(k + 1, n))
        tau[k] = (rows[k][n] - tail) / rows[k][k]
    return sum(t * masses[v] for t, v in zip(tau, free))


def test_p2_rigidity_matches_exact_rationals_on_the_atlas():
    # every connected atlas graph of 2 to 6 vertices (the atlas's first 209
    # graphs), unit and degree masses, each vertex in turn the only
    # Dirichlet vertex: 1,618 specs, the worst within 3.1e-15 relative and
    # 290 exact
    specs = 0
    for H in nx.graph_atlas_g()[:209]:
        if H.number_of_nodes() < 2 or not nx.is_connected(H):
            continue
        edges = [(f"v{a}", f"v{b}", 1.0) for a, b in H.edges()]
        for masses in ({v: 1 for v in H}, dict(H.degree())):
            g = build_graph([(f"v{v}", float(masses[v]), 0.0) for v in H], edges)
            for v in H:
                specs += 1
                exact = _exact_rigidity(H, masses, v)
                rigidity = solve_torsion(ProblemSpec(g, frozenset({f"v{v}"}), 2.0)).rigidity
                assert abs(Fraction(rigidity) - exact) <= Fraction(1e-14) * exact, (H.edges(), masses, v)
    assert specs == 1618
