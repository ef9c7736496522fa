"""Metric quantities and the global minimal cut.

Distances are compared with networkx's Dijkstra for exact equality; the
Stoer-Wagner result is compared against exhaustive bipartition
enumeration, which serves as the oracle up to 12 vertices.
"""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest

import torsio.geometry
from conftest import random_general_spec
from torsio import (
    UNREACHABLE,
    DisconnectedError,
    EmptyDirichletSetError,
    InvalidQError,
    ProblemSpec,
    TooFewVerticesError,
    build_graph,
    geometry_summary,
    invert_edge_weights,
    make_complete,
    make_path,
    make_random_connected,
    make_star,
    min_cut_weight,
    p_diameter_inverted,
    q_distance,
    q_inradius,
    q_mean_distance,
    weaken,
)


def brute_force_min_cut(g):
    """Minimum over all 2^(n-1) - 1 nontrivial bipartitions."""
    vs = list(g.vertices)
    best = np.inf
    for k in range(1, len(vs)):
        for side in combinations(vs[1:], k):
            part = set(side)
            cut = sum(b for u, v, b in g.edges if (u in part) != (v in part))
            best = min(best, cut)
    return best


def test_q2_distance_is_ordinary_shortest_path():
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)],
        [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 4.0)],
    )
    assert q_distance(g, 2.0, "a", "c") == 3.0
    assert q_distance(g, 2.0, "a", "a") == 0.0


def test_q_distance_one_edge_power():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 4.0)])
    assert q_distance(g, 3.0, "a", "b") == pytest.approx(2.0)


def test_q_distance_unreachable_and_validation():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [])
    assert q_distance(g, 2.0, "a", "b") is UNREACHABLE
    with pytest.raises(InvalidQError):
        q_distance(g, 1.0, "a", "b")


def test_q_distance_is_a_metric():
    spec = random_general_spec(4)
    g = spec.graph
    vs = g.vertices
    for q in (1.5, 2.0, 3.0):
        d = {(u, v): q_distance(g, q, u, v) for u in vs for v in vs}
        for u in vs:
            for v in vs:
                assert d[u, v] == pytest.approx(d[v, u], abs=1e-12)
                for w in vs:
                    assert d[u, w] <= d[u, v] + d[v, w] + 1e-12


def test_inradius_path_and_star():
    assert q_inradius(make_path(4), 2.0) == pytest.approx(4.0)
    # one free vertex at edge weight b: distance^(q-1) recovers b at q = p
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 2.5)])
    spec = ProblemSpec(g, frozenset({"a"}), 3.0)
    assert q_inradius(spec, 3.0) == pytest.approx(2.5)
    assert q_inradius(make_star(3), 2.0) == pytest.approx(2.0)


def test_inradius_errors():
    spec = make_path(2)
    with pytest.raises(EmptyDirichletSetError):
        q_inradius(ProblemSpec(spec.graph, frozenset(), 2.0), 2.0)
    g = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)])
    with pytest.raises(DisconnectedError):
        q_inradius(ProblemSpec(g, frozenset({"a"}), 2.0), 2.0)


def test_mean_distance_path_value():
    # unit path with n - 1 free vertices has mean distance n / 2 at q = 2
    for F in (1, 3, 6):
        n = F + 1
        assert q_mean_distance(make_path(F), 2.0) == pytest.approx(n / 2.0)


def test_mean_distance_single_free_vertex():
    g = build_graph([("a", 1, 0), ("b", 3, 0)], [("a", "b", 2.0)])
    spec = ProblemSpec(g, frozenset({"a"}), 2.0)
    assert q_mean_distance(spec, 2.0) == pytest.approx(2.0)


def test_mean_at_most_inradius():
    for seed in range(15):
        spec = random_general_spec(seed, dirichlet_max=2)
        for q in (1.5, 2.0, 3.0):
            assert q_mean_distance(spec, q) <= q_inradius(spec, q) + 1e-12


def test_p_diameter_inverted():
    assert p_diameter_inverted(make_path(1).graph, 2.0) == pytest.approx(1.0)
    assert p_diameter_inverted(make_path(2).graph, 2.0) == pytest.approx(2.0)
    # standard weights: inversion is the identity
    g = make_star(3).graph
    assert p_diameter_inverted(g, 2.0) == pytest.approx(2.0)
    gd = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)])
    assert p_diameter_inverted(gd, 2.0) is UNREACHABLE


def _nx_cost(q, invert):
    """networkx weight function: edge cost b^(1/(q-1)), or (1/b)^(1/(q-1))."""
    expo = 1.0 / (q - 1.0)
    if invert:
        return lambda u, v, e: (1.0 / e["b"]) ** expo
    return lambda u, v, e: e["b"] ** expo


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0, 8.0, 20.0])
def test_distances_equal_networkx_dijkstra(q):
    for seed in range(60):
        spec = random_general_spec(seed, n_range=(3, 40), dirichlet_max=3)
        g = spec.graph
        G = nx.Graph()
        G.add_nodes_from(g.vertices)
        G.add_weighted_edges_from(g.edges, weight="b")
        m = g.measure
        free = spec.free_vertices
        total = sum(m[v] for v in free)
        v0 = g.vertices[seed % g.vertex_count]
        one = nx.single_source_dijkstra_path_length(G, v0, weight=_nx_cost(q, False))
        assert [q_distance(g, q, v0, w) for w in g.vertices] == [one[w] for w in g.vertices]
        for invert in (False, True):
            dist = nx.multi_source_dijkstra_path_length(G, spec.dirichlet, weight=_nx_cost(q, invert))
            target = ProblemSpec(invert_edge_weights(g), spec.dirichlet, q) if invert else spec
            inradius = max(d ** (q - 1.0) for d in dist.values())
            assert q_inradius(target, q) == inradius
            mean = sum(dist[v] ** (q - 1.0) * m[v] for v in free) / total
            assert q_mean_distance(target, q) == mean
            assert torsio.geometry.q_inradius_and_mean(target, q) == (inradius, mean)
        rows = nx.all_pairs_dijkstra_path_length(G, weight=_nx_cost(q, True))
        worst = max(max(row.values()) for _, row in rows)
        assert p_diameter_inverted(g, q) == worst ** (q - 1.0)


def test_underflowing_edge_cost_is_still_an_edge():
    # 1e-20^(1/(q-1)) = 1e-400 underflows to 0.0 at q = 1.05
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1e-20)])
    spec = ProblemSpec(g, frozenset({"a"}), 1.05)
    assert q_inradius(spec, 1.05) == 0.0
    assert q_mean_distance(spec, 1.05) == 0.0
    assert q_distance(g, 1.05, "a", "b") == 0.0


def test_overflowing_edge_cost_is_an_invalid_q():
    # 1e16^(1/(q-1)) = 1e320 overflows a float at q = 1.05
    g = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1.0), ("b", "c", 1e16)])
    spec = ProblemSpec(g, frozenset({"a"}), 1.05)
    for metric in (q_inradius, q_mean_distance, torsio.geometry.q_inradius_and_mean):
        with pytest.raises(InvalidQError, match=r"^q = 1.05: .* b = 1e\+16 overflows a float$"):
            metric(spec, 1.05)
    with pytest.raises(InvalidQError):
        q_distance(g, 1.05, "a", "c")
    # the inverted weight 1/1e-16 of the diameter overflows the same way
    with pytest.raises(InvalidQError):
        p_diameter_inverted(build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1e-16)]), 1.05)


def test_disconnected_error_names_vertices_in_vertex_order():
    g = build_graph(
        [("z", 1, 0), ("m", 1, 0), ("a", 1, 0), ("q", 1, 0), ("b", 1, 0)],
        [("z", "q", 1.0), ("m", "a", 1.0)],
    )
    with pytest.raises(DisconnectedError, match=r"\['m', 'a', 'b'\]$"):
        q_inradius(ProblemSpec(g, frozenset({"q"}), 2.0), 2.0)


def test_diameter_in_several_blocks_of_sources(monkeypatch):
    spec = random_general_spec(7, n_range=(30, 40))
    whole = p_diameter_inverted(spec.graph, 3.0)
    monkeypatch.setattr(torsio.geometry, "DIAMETER_BLOCK_ENTRIES", 3 * spec.graph.vertex_count)
    assert p_diameter_inverted(spec.graph, 3.0) == whole


def test_min_cut_examples():
    assert min_cut_weight(make_path(3).graph) == 1.0
    assert min_cut_weight(make_complete(4).graph) == 3.0
    tri = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)],
        [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)],
    )
    assert min_cut_weight(tri) == 3.0
    assert brute_force_min_cut(tri) == 3.0


def test_min_cut_validation_and_disconnected():
    with pytest.raises(TooFewVerticesError):
        min_cut_weight(build_graph([("a", 1, 0)], []))
    g = build_graph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1)])
    assert min_cut_weight(g) == 0.0


def test_min_cut_matches_brute_force():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        spec = make_random_connected(
            n, float(rng.uniform(0.3, 0.9)), (0.25, 3.0), seed=seed + 1000
        )
        got = min_cut_weight(spec.graph)
        want = brute_force_min_cut(spec.graph)
        assert got == want


def test_min_cut_monotone_under_weakening():
    rng = np.random.default_rng(3)
    for seed in range(10):
        g = random_general_spec(seed).graph
        b_new = {(u, v): b * float(rng.uniform(0.2, 1.0)) for u, v, b in g.edges}
        gw = weaken(g, b_new, {})
        assert min_cut_weight(gw) <= min_cut_weight(g) + 1e-12


def test_geometry_summary():
    spec = make_path(3)
    s = geometry_summary(spec)
    assert s.q == spec.p
    assert s.inradius == pytest.approx(3.0)
    assert s.mean_distance == pytest.approx(2.0)
    assert s.diameter_inverted == pytest.approx(3.0)
    assert s.min_cut_weight == 1.0
    assert s.inradius >= s.mean_distance
