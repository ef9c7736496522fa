"""Graph model, surgery operations and generators."""

import hashlib

import numpy as np
import pytest

from conftest import dirichlet_grid, random_general_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from torsio import (
    DirichletAttachmentError,
    DuplicateVertexError,
    EmptyDirichletSetError,
    InvalidExponentError,
    InvalidSizeError,
    NegativePotentialError,
    NegativeWeightError,
    NonpositiveMassError,
    NonzeroGuestPotentialError,
    ProblemSpec,
    ScaleParams,
    SelfLoopError,
    SolverOptions,
    UnknownEndpointError,
    UnknownVertexError,
    WeightIncreasedError,
    build_graph,
    degree,
    geometry_summary,
    insert_graph,
    invert_edge_weights,
    lambda0,
    make_complete,
    make_path,
    make_random_connected,
    make_star,
    merge_dirichlet,
    scale,
    solve_torsion,
    weaken,
)

TIGHT = SolverOptions(tol=1e-12)


def test_build_graph_merges_parallel_edges():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1), ("a", "b", 2)])
    assert g.edge_weight("a", "b") == 3.0
    assert g.edge_weight("b", "a") == 3.0
    assert g.edge_count == 1


def test_edge_count_matches_edges_with_parallel_records():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        ids = [f"x{i}" for i in range(n)]
        records = []
        for _ in range(int(rng.integers(0, 3 * n))):
            a, b = rng.choice(n, size=2, replace=False)
            records.append((ids[a], ids[b], float(rng.uniform(0.5, 2.0))))
        # parallel records in both orientations, merged by build_graph
        records += [(b, a, w) for a, b, w in records[: len(records) // 3]]
        g = build_graph([(v, 1.0, 0.0) for v in ids], records)
        assert g.edge_count == len(g.edges)
        assert g.edge_count == len({frozenset(r[:2]) for r in records})


def test_build_graph_isolated_vertex():
    g = build_graph([("a", 1, 0)], [])
    assert g.vertex_count == 1
    assert degree(g, "a") == 0.0


@pytest.mark.parametrize(
    "vertices, edges, err",
    [
        ([("a", 1, 0), ("a", 2, 0)], [], DuplicateVertexError),
        ([("a", 1, 0)], [("a", "b", 1)], UnknownEndpointError),
        ([("a", 1, 0), ("b", 2, 1)], [("a", "a", 1)], SelfLoopError),
        ([("a", 0, 0)], [], NonpositiveMassError),
        ([("a", -1, 0)], [], NonpositiveMassError),
        ([("a", 1, 0), ("b", 1, 0)], [("a", "b", 0)], NegativeWeightError),
        ([("a", 1, 0), ("b", 1, 0)], [("a", "b", -2)], NegativeWeightError),
    ],
)
def test_build_graph_errors(vertices, edges, err):
    with pytest.raises(err):
        build_graph(vertices, edges)


def test_negative_potential_is_refused():
    with pytest.raises(NegativePotentialError, match=r"^vertex 'a' has c = -1\.0, needs c >= 0$"):
        build_graph([("a", 1.0, -1.0)], [])


def test_construction_invariants_on_random_graphs():
    for seed in range(20):
        g = random_general_spec(seed).graph
        for u, v, b in g.edges:
            assert g.edge_weight(u, v) == g.edge_weight(v, u)
            assert b > 0
        for v in g.vertices:
            assert g.edge_weight(v, v) == 0.0
            assert g.measure[v] > 0


def test_degree_examples():
    path = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1), ("b", "c", 1)]
    )
    assert degree(path, "b") == 2.0
    tri = build_graph(
        [("a", 1, 0.5), ("b", 1, 0), ("c", 1, 0)],
        [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)],
    )
    assert degree(tri, "a") == 3.5


def test_problem_spec_validation():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(InvalidExponentError):
        ProblemSpec(g, frozenset({"a"}), 1.0)
    with pytest.raises(InvalidExponentError):
        ProblemSpec(g, frozenset({"a"}), 25.0)
    assert not ProblemSpec(g, frozenset(), 2.0).well_posed
    assert ProblemSpec(g, frozenset({"a"}), 2.0).well_posed


def test_merge_dirichlet_star_example():
    # 5-star, three Dirichlet leaves with unit weights to the center
    spec = make_star(5)
    spec = ProblemSpec(spec.graph, frozenset({"v0", "v2", "v3"}), 2.0)
    merged = merge_dirichlet(spec)
    (d,) = merged.dirichlet
    assert merged.graph.edge_weight(d, "v1") == 3.0
    assert merged.graph.measure[d] == 3.0
    assert merged.free_count == 3


def test_merge_dirichlet_requires_nonempty():
    g = build_graph([("a", 1, 1)], [])
    with pytest.raises(EmptyDirichletSetError):
        merge_dirichlet(ProblemSpec(g, frozenset(), 2.0))


def test_merge_dirichlet_singleton_is_relabel():
    spec = make_path(2)
    merged = merge_dirichlet(spec)
    assert merged.free_count == spec.free_count
    (d,) = merged.dirichlet
    assert merged.graph.edge_weight(d, "v1") == spec.graph.edge_weight("v0", "v1")


def test_merge_dirichlet_preserves_rigidity_two_ends():
    # path a(D) - b - c(D): merged graph doubles the boundary weight
    g = build_graph(
        [("a", 1, 0), ("b", 1, 0), ("c", 1, 0)], [("a", "b", 1.5), ("b", "c", 0.5)]
    )
    spec = ProblemSpec(g, frozenset({"a", "c"}), 2.0)
    merged = merge_dirichlet(spec)
    (d,) = merged.dirichlet
    assert merged.graph.edge_weight(d, "b") == 2.0
    Ta = solve_torsion(spec, TIGHT).rigidity
    Tb = solve_torsion(merged, TIGHT).rigidity
    assert Tb == pytest.approx(Ta, rel=1e-10)


@st.composite
def _surgery_specs(draw):
    """A connected graph of 3-8 vertices (a random tree plus random chords)
    with b and m in [0.5, 2], no potential, 1-3 Dirichlet vertices and p in
    {1.5, 2, 3}."""
    n = draw(st.integers(3, 8))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    unit = st.floats(0.5, 2.0)
    g = build_graph(
        [(f"v{k}", draw(unit), 0.0) for k in range(n)],
        [(f"v{i}", f"v{j}", draw(unit)) for i, j in sorted(pairs)],
    )
    dirichlet = draw(st.permutations(g.vertices))[: draw(st.integers(1, min(3, n - 1)))]
    return ProblemSpec(g, frozenset(dirichlet), draw(st.sampled_from([1.5, 2.0, 3.0])))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(spec=_surgery_specs(), mu=st.floats(0.1, 10.0), lam=st.floats(0.1, 10.0), data=st.data())
def test_surgery_laws_of_the_rigidity(spec, mu, lam, data):
    # merging the Dirichlet set leaves T_p unchanged, scaling (m, b) by
    # (mu, lam) multiplies it by mu^p / lam, and multiplying every weight by
    # a factor of at most f < 1 raises it at least to T_p / f (monotone in
    # the weights, homogeneous of degree -1 in them).  Over these draws the
    # merge and scaling laws hold to 5.6e-11 and the smallest rise is 11 %
    g, p = spec.graph, spec.p
    T = solve_torsion(spec).rigidity
    assert solve_torsion(merge_dirichlet(spec)).rigidity == pytest.approx(T, rel=1e-9, abs=0.0)
    scaled = ProblemSpec(scale(g, ScaleParams(mu, lam)), spec.dirichlet, p)
    assert solve_torsion(scaled).rigidity == pytest.approx(mu**p / lam * T, rel=1e-8, abs=0.0)
    factors = data.draw(st.lists(st.floats(0.5, 0.9), min_size=g.edge_count, max_size=g.edge_count))
    weak = weaken(g, {(a, b): f * w for (a, b, w), f in zip(g.edges, factors)}, {})
    assert solve_torsion(ProblemSpec(weak, spec.dirichlet, p)).rigidity >= T / max(factors) * (1.0 - 1e-9)


def test_scale_identity_and_componentwise():
    g = build_graph([("a", 1, 0.5), ("b", 1, 0)], [("a", "b", 1)])
    same = scale(g, ScaleParams(1.0, 1.0))
    assert same.measure == g.measure and same.potential == g.potential
    scaled = scale(g, ScaleParams(2.0, 4.0))
    assert scaled.measure["a"] == 2.0
    assert scaled.edge_weight("a", "b") == 4.0
    assert scaled.potential["a"] == 2.0


def test_scale_params_validation():
    with pytest.raises(ValueError):
        ScaleParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ScaleParams(1.0, -1.0)


def test_rigidity_scaling_law():
    rng = np.random.default_rng(42)
    for seed in range(6):
        spec = random_general_spec(seed)
        mu = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.1, 10.0))
        scaled = ProblemSpec(
            scale(spec.graph, ScaleParams(mu, lam)), spec.dirichlet, spec.p
        )
        T = solve_torsion(spec, TIGHT).rigidity
        Ts = solve_torsion(scaled, TIGHT).rigidity
        assert Ts == pytest.approx(mu**spec.p / lam * T, rel=1e-8)


def test_torsion_function_scaling_law():
    spec = random_general_spec(7, p=3.0)
    mu, lam = 2.0, 0.5
    scaled = ProblemSpec(scale(spec.graph, ScaleParams(mu, lam)), spec.dirichlet, spec.p)
    tau = solve_torsion(spec, TIGHT).tau
    tau_s = solve_torsion(scaled, TIGHT).tau
    factor = (mu / lam) ** (1.0 / (spec.p - 1.0))
    for v in spec.free_vertices:
        assert tau_s[v] == pytest.approx(factor * tau[v], rel=1e-8)


def test_invert_edge_weights():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 4)])
    gi = invert_edge_weights(g)
    assert gi.edge_weight("a", "b") == 0.25
    gii = invert_edge_weights(gi)
    assert gii.edge_weight("a", "b") == 4.0
    std = make_path(3).graph
    assert invert_edge_weights(std).edges == std.edges


def test_weaken_noop_and_deletion():
    spec = make_complete(3)
    g = spec.graph
    b_full = {(u, v): b for u, v, b in g.edges}
    same = weaken(g, b_full, {v: 0.0 for v in g.vertices})
    assert same.edges == g.edges
    b_path = dict(b_full)
    del b_path[g.edges[0][:2]]
    path = weaken(g, b_path, {})
    assert path.edge_count == 2


def test_weaken_rejects_increase():
    g = make_path(2).graph
    with pytest.raises(WeightIncreasedError):
        weaken(g, {("v0", "v1"): 2.0, ("v1", "v2"): 1.0}, {})
    g2 = build_graph([("a", 1, 0.5), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(WeightIncreasedError):
        weaken(g2, {("a", "b"): 1.0}, {"a": 0.7})


def test_weaken_rejects_a_self_pair():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(SelfLoopError):
        weaken(g, {("a", "a"): 1.0}, {})


def test_weaken_rejects_an_unknown_potential_vertex():
    g = build_graph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1)])
    with pytest.raises(UnknownVertexError):
        weaken(g, {("a", "b"): 1.0}, {"zz": 0.0})


def test_weaken_never_decreases_rigidity():
    rng = np.random.default_rng(0)
    for seed in range(10):
        spec = random_general_spec(seed, with_potential=bool(seed % 2))
        g = spec.graph
        b_new = {(u, v): b * float(rng.uniform(0.3, 1.0)) for u, v, b in g.edges}
        c_new = {v: g.potential[v] * float(rng.uniform(0.3, 1.0)) for v in g.vertices}
        weakened = ProblemSpec(weaken(g, b_new, c_new), spec.dirichlet, spec.p)
        T = solve_torsion(spec, TIGHT).rigidity
        Tw = solve_torsion(weakened, TIGHT).rigidity
        assert Tw >= T - 1e-9 * (1.0 + T)


def test_insert_pendant_vertex():
    host = make_path(1)
    guest = build_graph([("w", 1, 0)], [])
    out = insert_graph(host, guest, [("v1", "w", 1.0)])
    assert out.graph.vertex_count == 3
    assert out.graph.edge_weight("v1", "w") == 1.0
    assert out.dirichlet == host.dirichlet


def test_insert_increases_rigidity_at_singleton():
    host = make_path(1)
    guest = build_graph([("w", 1, 0)], [])
    out = insert_graph(host, guest, [("v1", "w", 1.0)])
    T0 = solve_torsion(host, TIGHT).rigidity
    T1 = solve_torsion(out, TIGHT).rigidity
    assert T1 > T0


def test_insert_validation():
    host = make_path(1)
    with pytest.raises(DirichletAttachmentError):
        insert_graph(host, build_graph([("w", 1, 0)], []), [("v0", "w", 1.0)])
    with pytest.raises(NonzeroGuestPotentialError):
        insert_graph(host, build_graph([("w", 1, 0.5)], []), [("v1", "w", 1.0)])
    with pytest.raises(NegativeWeightError):
        insert_graph(host, build_graph([("w", 1, 0)], []), [("v1", "w", 0.0)])
    with pytest.raises(DuplicateVertexError):
        insert_graph(host, build_graph([("v1", 1, 0)], []), [("v1", "v1", 1.0)])


def test_make_path_smallest():
    spec = make_path(1)
    assert spec.graph.vertex_count == 2
    assert spec.graph.edge_count == 1
    assert spec.dirichlet == frozenset({"v0"})


def test_make_star_shape():
    spec = make_star(3)
    g = spec.graph
    assert g.vertex_count == 4
    assert all(g.edge_weight("v1", v) == 1.0 for v in ("v0", "v2", "v3"))
    assert spec.dirichlet == frozenset({"v0"})


def test_make_star_degree_masses_include_dirichlet_leaf():
    spec = make_star(4, "degree")
    # center degree counts the edge to the Dirichlet leaf
    assert spec.graph.measure["v1"] == 4.0
    assert spec.graph.measure["v2"] == 1.0


def test_make_complete():
    spec = make_complete(4)
    assert spec.graph.edge_count == 6
    assert all(degree(spec.graph, v) == 3.0 for v in spec.graph.vertices)


def test_generator_size_validation():
    with pytest.raises(InvalidSizeError):
        make_path(0)
    with pytest.raises(InvalidSizeError):
        make_star(0)
    with pytest.raises(InvalidSizeError):
        make_random_connected(1, 0.5, (1, 1), 0)
    with pytest.raises(InvalidSizeError, match="unknown m_mode 'heavy'"):
        make_path(2, "heavy")


def test_generator_mass_mapping():
    spec = make_star(2, {"v0": 0.5, "v1": 2.0, "v2": 3.0})
    assert spec.graph.measure == {"v0": 0.5, "v1": 2.0, "v2": 3.0}


def test_random_generator_deterministic():
    a = make_random_connected(8, 0.4, (0.5, 2.0), seed=7)
    b = make_random_connected(8, 0.4, (0.5, 2.0), seed=7)
    assert a.graph.vertices == b.graph.vertices
    assert a.graph.edges == b.graph.edges
    assert a.dirichlet == b.dirichlet
    c = make_random_connected(8, 0.4, (0.5, 2.0), seed=8)
    assert a.graph.edges != c.graph.edges


@pytest.mark.parametrize(
    "n, edge_prob, seed, m_mode, dirichlet_count, digest",
    [
        (8, 0.5, 1, "unit", 1, "941ece3cec6426c6"),
        (30, 0.15, 7, "degree", 3, "7cebfa7787d24856"),
        (60, 0.08, 123, "degree", 5, "6f5cdcda0c904692"),
        (200, 0.03, 2024, "unit", 2, "4773a7bc9e1e9718"),
        (5, 1.0, 0, "degree", 0, "52dfd9745842c64e"),
    ],
)
def test_random_generator_stream_is_pinned(n, edge_prob, seed, m_mode, dirichlet_count, digest):
    # pinned digests: a seed must keep drawing the same edges, weights,
    # masses and Dirichlet set
    spec = make_random_connected(n, edge_prob, (0.5, 2.0), seed, m_mode, 2.0, dirichlet_count)
    g = spec.graph
    text = repr(g.edges) + repr(sorted(spec.dirichlet)) + repr([g.measure[v] for v in g.vertices])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(1, 12),
    records=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(0.1, 4.0), st.booleans()),
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_graph_queries_match_dict_of_dicts_reference(n, records, seed):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    # vertex order differs from the order of the ids, and unused vertices
    # stay isolated
    ids = [f"u{k}" for k in rng.permutation(n)]
    edge_records = []
    for i, j, b, flip in records:
        if i % n == j % n:
            continue
        edge_records.append((ids[i % n], ids[j % n], b))
        if flip:  # a parallel record in the other orientation
            edge_records.append((ids[j % n], ids[i % n], b / 3.0))
    pot = {v: float(rng.uniform(0.0, 1.0)) for v in ids}
    g = build_graph([(v, 1.0, pot[v]) for v in ids], edge_records)

    adj = {v: {} for v in ids}
    for u, v, b in edge_records:
        adj[u][v] = adj[u].get(v, 0.0) + b
        adj[v][u] = adj[v].get(u, 0.0) + b
    idx = {v: k for k, v in enumerate(ids)}
    ref_edges = sorted(
        ((u, v, b) for u in ids for v, b in adj[u].items() if idx[u] < idx[v]),
        key=lambda e: (idx[e[0]], idx[e[1]]),
    )
    assert g.edges == tuple(ref_edges)
    assert g.edge_count == len(ref_edges)
    for v in ids:
        assert set(g.neighbors(v)) == set(adj[v].items())
        # documented order: as the pair first appears in the edge records
        assert list(g.neighbors(v)) == list(adj[v].items())
        assert degree(g, v) == pytest.approx(sum(adj[v].values()) + pot[v], rel=1e-14)
        for w in ids:
            assert g.edge_weight(v, w) == adj[v].get(w, 0.0)
    G = nx.Graph()
    G.add_nodes_from(ids)
    G.add_edges_from((u, v) for u, v, _ in edge_records)
    assert g.is_connected == nx.is_connected(G)


def _revalue_first(records, k, f):
    """records with entry k of the first record mapped by f."""
    first = list(records[0])
    first[k] = f(first[k])
    return [tuple(first)] + records[1:]


# (vertex records, edge records) -> new records, and whether the graph they
# build equals the original
EQUALITY_CASES = [
    (lambda vs, es: (vs, es), True),
    # the neighbor rows list another order, which equality ignores
    (lambda vs, es: (vs, es[::-1]), True),
    (lambda vs, es: (_revalue_first(vs, 1, lambda m: 2.0 * m), es), False),
    (lambda vs, es: (_revalue_first(vs, 2, lambda c: c + 1.0), es), False),
    (lambda vs, es: (vs, _revalue_first(es, 2, lambda b: 0.5 * b)), False),
    (lambda vs, es: (vs[::-1], es), False),
]


def test_graph_arrays_are_read_only_and_equality_follows_the_data():
    g = random_general_spec(3, with_potential=True).graph
    for arr in (g.m, g.c, g.ei, g.ej, g.w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a write to an id view would change what graph_document prints and
    # total_measure adds, but not what the solver reads
    path = make_path(3).graph
    for view in (path.measure, path.potential):
        with pytest.raises(TypeError):
            view["v1"] = 100.0
    assert path.measure["v1"] == 1.0 and path.total_measure() == 4.0
    with pytest.raises(TypeError):
        hash(g)

    records = [(v, g.measure[v], g.potential[v]) for v in g.vertices]
    for change, equal in EQUALITY_CASES:
        other = build_graph(*change(records, list(g.edges)))
        assert (other == g) is equal and (other != g) is not equal
    reversed_rows = build_graph(records, list(g.edges)[::-1])
    assert any(reversed_rows.neighbors(v) != g.neighbors(v) for v in g.vertices)


def test_id_queries_name_an_unknown_vertex():
    g = make_path(3).graph
    for query in (
        g.vertex_index,
        g.neighbors,
        lambda v: degree(g, v),
        lambda v: g.edge_weight("v1", v),
        lambda v: g.total_measure(["v1", v]),
    ):
        with pytest.raises(UnknownVertexError, match="unknown vertex 'nope'"):
            query("nope")
    assert g.total_measure(["v3", "v1"]) == 2.0 and g.total_measure([]) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize(
    "make", [lambda p: dirichlet_grid(6, p), lambda p: random_general_spec(5, p=p)],
    ids=["grid", "random"],
)
def test_solves_read_the_arrays_not_the_id_views(make, p):
    # the id views are built on first read; the solver, the spectral code
    # and the geometry never read them
    spec = make(p)
    solve_torsion(spec)
    lambda0(spec)
    geometry_summary(spec)
    assert not {"measure", "potential", "edges"} & vars(spec.graph).keys()


def test_merge_dirichlet_sums_in_vertex_order():
    # (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit; the
    # fresh vertex must not depend on the iteration order of the Dirichlet set
    g = build_graph(
        [("a", 0.1, 0.1), ("b", 0.2, 0.2), ("c", 0.3, 0.3), ("x", 1.0, 0.0)],
        [("a", "x", 1.0), ("b", "x", 1.0), ("c", "x", 1.0)],
    )
    merged = merge_dirichlet(ProblemSpec(g, frozenset({"a", "b", "c"}), 2.0))
    assert merged.graph.measure["v0"] == 0.1 + 0.2 + 0.3
    assert merged.graph.potential["v0"] == 0.1 + 0.2 + 0.3


def _record_rebuild(g, m_of, c_of, b_of):
    """build_graph on g's records in vertex and ``g.edges`` order, each value
    mapped: how scale and invert_edge_weights built their graphs before they
    revalued the arrays.  Returns the graph or the error it raises."""
    try:
        return build_graph(
            [(v, m_of(g.measure[v]), c_of(g.potential[v])) for v in g.vertices],
            [(u, v, b_of(b)) for u, v, b in g.edges],
        )
    except (NonpositiveMassError, NegativePotentialError, NegativeWeightError) as exc:
        return exc


def _assert_same_graph(got, want):
    assert got == want and got.edges == want.edges
    for name in ("m", "c", "ei", "ej", "w", "_indptr", "_nbr", "_nbw"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable
    for v in want.vertices:
        assert got.neighbors(v) == want.neighbors(v)
        assert degree(got, v) == degree(want, v)
        assert got.vertex_index(v) == want.vertex_index(v)
    assert got.is_connected == want.is_connected


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    n=st.integers(1, 10),
    records=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.floats(0.1, 4.0), st.booleans()),
        max_size=30,
    ),
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(0.01, 100.0),
    lam=st.floats(0.01, 100.0),
)
def test_scale_and_invert_revalue_as_the_record_rebuild(n, records, seed, mu, lam):
    # edge records out of canonical order, with parallel records in the
    # other orientation: the revalued graph lists each row in g.edges order,
    # as the rebuild from g's records does, not in the input's record order
    rng = np.random.default_rng(seed)
    ids = [f"u{k}" for k in rng.permutation(n)]
    edge_records = []
    for i, j, b, flip in records:
        if i % n != j % n:
            edge_records.append((ids[i % n], ids[j % n], b))
            if flip:
                edge_records.append((ids[j % n], ids[i % n], b / 3.0))
    rng.shuffle(edge_records)
    g = build_graph([(v, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 1.0))) for v in ids],
                    edge_records)
    _assert_same_graph(scale(g, ScaleParams(mu, lam)),
                       _record_rebuild(g, lambda m: mu * m, lambda c: lam * c, lambda b: lam * b))
    _assert_same_graph(invert_edge_weights(g),
                       _record_rebuild(g, lambda m: m, lambda c: c, lambda b: 1.0 / b))


@pytest.mark.parametrize(
    "mu, lam, err",
    [
        (1e308, 1.0, NonpositiveMassError),  # m = 2 * 1e308 overflows
        (1.0, 1e308, NegativePotentialError),  # c = 3 * 1e308 overflows before any b
        (1.0, float("inf"), NegativePotentialError),  # inf * 0 is NaN at the vertex with c = 0
        (1.0, 5e-324, NegativeWeightError),  # b = 0.5 * 5e-324 underflows to 0
        (5e-324, 1.0, NonpositiveMassError),  # so does m = 0.25 * 5e-324
    ],
)
def test_scale_out_of_float_range_raises_as_the_record_rebuild(mu, lam, err):
    g = build_graph([("a", 1.0, 0.0), ("b", 2.0, 3.0), ("c", 0.25, 0.0)],
                    [("c", "b", 0.5), ("a", "b", 4.0)])
    want = _record_rebuild(g, lambda m: mu * m, lambda c: lam * c, lambda b: lam * b)
    assert isinstance(want, err)
    with pytest.raises(err) as got:
        scale(g, ScaleParams(mu, lam))
    assert str(got.value) == str(want)


def test_invert_subnormal_weight_raises_as_the_record_rebuild():
    g = build_graph([("a", 1.0, 0.0), ("b", 1.0, 0.0), ("c", 1.0, 0.0)],
                    [("b", "c", 2.0), ("a", "b", 1e-310)])
    want = _record_rebuild(g, lambda m: m, lambda c: c, lambda b: 1.0 / b)
    assert str(want) == "edge ('a', 'b') has b = inf, needs b > 0"
    with pytest.raises(NegativeWeightError) as got:
        invert_edge_weights(g)
    assert str(got.value) == str(want)


@pytest.mark.parametrize(
    "vertices, edges, err, message",
    [
        # the first offending record decides, vertex records before edges
        ([("a", 1, 0), ("b", 0, -1), ("a", 1, 0)], [("a", "x", 1)], NonpositiveMassError,
         "vertex 'b' has m = 0.0, needs m > 0"),
        ([("a", 1, 0), ("b", 1, float("nan")), ("a", 1, 0)], [], NegativePotentialError,
         "vertex 'b' has c = nan, needs c >= 0"),
        ([("a", 1, 0), ("a", 0, 0)], [], DuplicateVertexError, "duplicate vertex record 'a'"),
        ([("a", 1, 0), ("b", float("inf"), 0)], [], NonpositiveMassError,
         "vertex 'b' has m = inf, needs m > 0"),
        ([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1), ("b", "b", -1), ("a", "z", 1)], SelfLoopError,
         "edge ('b', 'b') is a self loop"),
        ([("a", 1, 0), ("b", 1, 0)], [("a", "b", float("nan")), ("z", "b", 1)], NegativeWeightError,
         "edge ('a', 'b') has b = nan, needs b > 0"),
        ([("a", 1, 0), ("b", 1, 0)], [("a", "b", 1), ("a", "z", 0)], UnknownEndpointError,
         "edge ('a', 'z') references unknown vertex 'z'"),
    ],
)
def test_build_graph_names_the_first_offending_record(vertices, edges, err, message):
    with pytest.raises(err) as got:
        build_graph(vertices, edges)
    assert str(got.value) == message
