"""Metric quantities and the global minimal cut.

Distances are compared with networkx's Dijkstra for exact equality; the
min cut is compared against exhaustive bipartition enumeration, which
serves as the oracle up to 12 vertices, and against networkx's
Stoer-Wagner above that.
"""

import math
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsio.geometry
from bench.workloads import random_records
from conftest import dirichlet_grid, random_general_spec
from torsio import (
    UNREACHABLE,
    DisconnectedError,
    EmptyDirichletSetError,
    InvalidQError,
    NoConvergenceError,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [make_star, make_complete])
@pytest.mark.parametrize("q", [2.0, 3.0, 8.0, 20.0])
def test_mean_distance_stays_finite_when_its_mass_weighted_sum_overflows(make, q):
    # `torsio generate star --n 4 --m-mode degree --b 1e300`: the degree
    # masses are about 1e300, and so are the distance powers d^(q-1)
    spec = make(4, "degree", 1e300, q)
    inradius, mean = torsio.geometry.q_inradius_and_mean(spec, q)
    assert 0.0 < mean <= inradius < np.inf
    assert q_mean_distance(spec, q) == mean


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


def test_overflowing_distance_power_is_an_invalid_q():
    # every edge cost 1e300^(1/19) is finite, but the distances of the far
    # vertices raised to q - 1 = 19 overflow a float
    spec = make_path(10, "unit", 1e300, 20.0)
    for metric in (q_inradius, q_mean_distance, torsio.geometry.q_inradius_and_mean):
        with pytest.raises(InvalidQError, match=r"^q = 20.0: .* distance d = .* overflows a float$"):
            metric(spec, 20.0)
    with pytest.raises(InvalidQError, match="distance"):
        p_diameter_inverted(make_path(10, "unit", 1e-300, 20.0).graph, 20.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_distance_on_a_connected_graph_is_an_invalid_q():
    # `torsio generate star --n 3 --b 1e308 --p 2`: v2 and v3 are two edges
    # of 1e308 from the Dirichlet leaf v0, and 2e308 overflows to inf
    spec = make_star(3, "unit", 1e308, 2.0)
    message = r"^q = 2.0: the distance dist_q\('v2', V0\) overflows a float$"
    for metric in (q_inradius, q_mean_distance, torsio.geometry.q_inradius_and_mean):
        with pytest.raises(InvalidQError, match=message):
            metric(spec, 2.0)
    # the overflow wins over a vertex of another component that is unreachable
    g = build_graph(
        [(v, 1, 0) for v in ("a", "b", "c", "z")], [("a", "b", 1e308), ("b", "c", 1e308)]
    )
    with pytest.raises(InvalidQError, match=r"dist_q\('c', V0\)"):
        q_inradius(ProblemSpec(g, frozenset({"a"}), 2.0), 2.0)
    with pytest.raises(DisconnectedError, match=r"\['z'\]$"):
        q_inradius(ProblemSpec(g, frozenset({"b"}), 2.0), 2.0)


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


def _atlas_graphs(weights):
    """(index, graph) for each connected graph of the networkx atlas with at
    least 2 vertices, with unit weights or with seeded U(0.5, 2) weights."""
    for index, H in enumerate(nx.graph_atlas_g()):
        if H.number_of_nodes() < 2 or not nx.is_connected(H):
            continue
        m = H.number_of_edges()
        b = [1.0] * m if weights == "unit" else np.random.default_rng(index).uniform(0.5, 2.0, m)
        edges = [(u, v, float(c)) for (u, v), c in zip(H.edges, b)]
        yield index, build_graph([(v, 1.0, 0.0) for v in H.nodes], edges)


def test_min_cut_when_the_scan_crosses_no_bound():
    # atlas 50 with its seeded uniform weights: vertex 2 has the least
    # degree and is scanned last, and its r, added up in scan order, rounds
    # one ulp below that degree (an fsum), so no edge crosses lam and the
    # round contracts only the last two vertices of the scan
    g = next(g for index, g in _atlas_graphs("uniform") if index == 50)
    adj = [{g.vertex_index(u): b for u, b in g.neighbors(v)} for v in g.vertices]
    deg = [math.fsum(row.values()) for row in adj]
    lam, prefix, rep = torsio.geometry._capforest(adj, deg, min(deg))
    assert prefix == [0, 3, 4, 1] and lam == math.nextafter(deg[2], 0.0)
    assert rep == [0, 1, 1, 3, 4]
    assert min_cut_weight(g) == brute_force_min_cut(g)


@pytest.mark.parametrize("weights", ["unit", "uniform"])
def test_min_cut_matches_brute_force_on_the_graph_atlas(weights):
    # 995 graphs of 2 to 7 vertices; with unit weights this includes atlas
    # 450, where contracting every edge with 2c >= min(d(u), d(v)) at once
    # gives 2 instead of 1
    count = 0
    for index, g in _atlas_graphs(weights):
        assert min_cut_weight(g) == brute_force_min_cut(g), index
        count += 1
    assert count == 995


@st.composite
def _extreme_graphs(draw):
    """Graphs of 2 to 9 vertices (connected or not) with weights in [1e-300, 1e300]."""
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, unique=True))
    weights = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(edges), max_size=len(edges)))
    return build_graph(
        [(f"v{i}", 1.0, 0.0) for i in range(n)],
        [(f"v{a}", f"v{b}", w) for (a, b), w in zip(edges, weights)],
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_extreme_graphs())
def test_min_cut_matches_brute_force_on_extreme_weights(g):
    # a prefix cut cut_prev + d(x) - 2 r(x) that swallows a heavy edge
    # cancels; on the star with leaves 1, 1, 2^53 and 4e31 it read 0 for a
    # cut of weight 2
    assert min_cut_weight(g) == brute_force_min_cut(g)


def _stoer_wagner_resum(g):
    """networkx's Stoer-Wagner side, re-summed in canonical edge order."""
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_weighted_edges_from(g.edges)
    _, (part, _) = nx.stoer_wagner(G)
    side = set(part)
    return sum(b for u, v, b in g.edges if (u in side) != (v in side))


def test_min_cut_matches_networkx_stoer_wagner_on_larger_graphs():
    grid = dirichlet_grid(20).graph
    assert min_cut_weight(grid) == _stoer_wagner_resum(grid) == 2.0
    mrc = make_random_connected(400, 6 / 400, (0.5, 2.0), 1).graph
    assert min_cut_weight(mrc) == _stoer_wagner_resum(mrc)
    assert min_cut_weight(dirichlet_grid(100).graph) == 2.0


def test_min_cut_rounds(monkeypatch):
    scans = []
    capforest = torsio.geometry._capforest

    def counted(*args):
        scans.append(args)
        return capforest(*args)

    monkeypatch.setattr(torsio.geometry, "_capforest", counted)

    def rounds(g):
        scans.clear()
        min_cut_weight(g)
        return len(scans)

    assert rounds(dirichlet_grid(20).graph) == 3
    assert rounds(dirichlet_grid(100).graph) == 3
    assert rounds(make_random_connected(400, 6 / 400, (0.5, 2.0), 1).graph) == 1
    # the degrees of the super-vertices of the first contraction lower lam
    # before the second scan, which then contracts the rest; without them a
    # third scan is needed
    assert rounds(make_random_connected(10, 0.3, (0.5, 2.0), 385).graph) == 2


def test_min_cut_memory_is_linear():
    # the dense n x n array of a Stoer-Wagner would be 72 MB at n = 3000
    vertices, edges, _ = random_records(np.random.default_rng(1), 3000, 6.0, 4)
    g = build_graph(vertices, edges)
    g.is_connected  # the cached components are not the min cut's memory
    tracemalloc.start()
    try:
        min_cut_weight(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [3, 4])
def test_min_cut_that_overflows_is_a_numerical_failure(n):
    # every cut of K3 or K4 with b = 1e308 crosses at least two edges
    with pytest.raises(NoConvergenceError, match=r"^the minimal cut weight inf overflows a float$"):
        min_cut_weight(make_complete(n, "unit", 1e308, 2.0).graph)
    # one edge of 1e308 is a finite cut
    assert min_cut_weight(make_star(3, "unit", 1e308, 2.0).graph) == 1e308


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_infinite_distance_in_one_component_is_an_invalid_q():
    # `torsio generate star --n 3 --b 1e308 --p 2`: the leaves v2 and v3 are
    # 2e308 apart; with b = 1e-308 the inverted graph has those distances
    message = r"^q = 2.0: the distance dist_q\('v2', 'v3'\) overflows a float$"
    with pytest.raises(InvalidQError, match=message):
        q_distance(make_star(3, "unit", 1e308).graph, 2.0, "v2", "v3")
    message = "^q = 2.0: a distance of the weight-inverted graph overflows a float$"
    with pytest.raises(InvalidQError, match=message):
        p_diameter_inverted(make_star(3, "unit", 1e-308).graph, 2.0)


def test_unreachable_comes_from_the_components_alone(monkeypatch):
    g = build_graph([(v, 1, 0) for v in "abcd"], [("a", "b", 1e-16), ("c", "d", 1.0)])
    whole = p_diameter_inverted(g, 2.0)

    def search(*args, **kwargs):
        raise AssertionError("a search ran across components")

    monkeypatch.setattr(torsio.geometry.csgraph, "dijkstra", search)
    assert whole is UNREACHABLE
    assert p_diameter_inverted(g, 2.0) is UNREACHABLE
    assert q_distance(g, 2.0, "a", "d") is UNREACHABLE
    # an overflowing edge cost is still refused before the components decide
    with pytest.raises(InvalidQError, match=r"b = 1e\+16 overflows"):
        p_diameter_inverted(g, 1.05)


def test_inradius_is_the_first_of_inradius_and_mean():
    for seed in range(5):
        spec = random_general_spec(seed)
        for q in (1.5, 2.0, 3.0):
            assert q_inradius(spec, q) == torsio.geometry.q_inradius_and_mean(spec, q)[0]
