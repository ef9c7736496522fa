"""Weighted-graph data model, surgery operations and generators.

A graph is a finite vertex set with a positive vertex measure m, a
nonnegative potential c and symmetric nonnegative edge weights b with
b(v, v) = 0.  All values are immutable after construction; every operation
here is a pure function returning a fresh graph or problem spec.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DirichletAttachmentError,
    DuplicateVertexError,
    EmptyDirichletSetError,
    InvalidExponentError,
    InvalidSizeError,
    NegativePotentialError,
    NegativeWeightError,
    NonpositiveMassError,
    NonzeroGuestPotentialError,
    SelfLoopError,
    UnknownEndpointError,
    UnknownVertexError,
    WeightIncreasedError,
)

VertexId = str

P_MIN = 1.05
P_MAX = 20.0


@dataclass(frozen=True)
class WeightedGraph:
    """Finite weighted graph (V, m, b, c).

    ``vertices`` fixes the internal indexing (input order); ``measure`` and
    ``potential`` map every vertex to m(v) > 0 and c(v) >= 0; the adjacency
    stores b symmetrically with absent pairs meaning b = 0.

    Do not build instances directly: :func:`build_graph` enforces the
    invariants and merges parallel edge records.
    """

    vertices: tuple[VertexId, ...]
    measure: Mapping[VertexId, float]
    potential: Mapping[VertexId, float]
    _adj: Mapping[VertexId, Mapping[VertexId, float]] = field(repr=False)

    # -- basic queries ---------------------------------------------------

    def __contains__(self, v: VertexId) -> bool:
        return v in self.measure

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: VertexId) -> int:
        """Internal dense index of ``v`` (input order)."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    @property
    def _index(self) -> dict[VertexId, int]:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {v: i for i, v in enumerate(self.vertices)}
            object.__setattr__(self, "_index_cache", idx)
        return idx

    def edge_weight(self, v: VertexId, w: VertexId) -> float:
        if v not in self or w not in self:
            raise UnknownVertexError(f"unknown vertex {v if v not in self else w!r}")
        return self._adj[v].get(w, 0.0)

    def neighbors(self, v: VertexId) -> tuple[tuple[VertexId, float], ...]:
        if v not in self:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return tuple(self._adj[v].items())

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId, float], ...]:
        """Undirected edges as (u, v, b) with u before v in input order."""
        idx = self._index
        out = []
        for u, nbrs in self._adj.items():
            for v, b in nbrs.items():
                if idx[u] < idx[v]:
                    out.append((u, v, b))
        out.sort(key=lambda e: (idx[e[0]], idx[e[1]]))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        # build_graph stores each edge once in either direction and has no
        # self loops, so halving the adjacency size is exact
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def total_measure(self, subset: Iterable[VertexId] | None = None) -> float:
        if subset is None:
            return float(sum(self.measure.values()))
        return float(sum(self.measure[v] for v in subset))

    @property
    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)


def build_graph(
    vertex_records: Sequence[tuple[VertexId, float, float]],
    edge_records: Sequence[tuple[VertexId, VertexId, float]],
) -> WeightedGraph:
    """Build a graph from (id, m, c) vertex records and (u, v, b) edge records.

    Parallel edge records between the same unordered pair are merged by
    summing their weights.  Raises the named error for the first offending
    record: duplicate ids, unknown endpoints, self loops, m <= 0, c < 0 or
    b <= 0.
    """
    vertices: list[VertexId] = []
    measure: dict[VertexId, float] = {}
    potential: dict[VertexId, float] = {}
    for vid, m, c in vertex_records:
        vid = str(vid)
        if vid in measure:
            raise DuplicateVertexError(f"duplicate vertex record {vid!r}")
        m = float(m)
        c = float(c)
        if not m > 0.0 or not np.isfinite(m):
            raise NonpositiveMassError(f"vertex {vid!r} has m = {m}, needs m > 0")
        if c < 0.0 or not np.isfinite(c):
            raise NegativePotentialError(f"vertex {vid!r} has c = {c}, needs c >= 0")
        vertices.append(vid)
        measure[vid] = m
        potential[vid] = c

    adj: dict[VertexId, dict[VertexId, float]] = {v: {} for v in vertices}
    for u, v, b in edge_records:
        u, v = str(u), str(v)
        if u not in measure:
            raise UnknownEndpointError(f"edge ({u!r}, {v!r}) references unknown vertex {u!r}")
        if v not in measure:
            raise UnknownEndpointError(f"edge ({u!r}, {v!r}) references unknown vertex {v!r}")
        if u == v:
            raise SelfLoopError(f"edge ({u!r}, {v!r}) is a self loop")
        b = float(b)
        if not b > 0.0 or not np.isfinite(b):
            raise NegativeWeightError(f"edge ({u!r}, {v!r}) has b = {b}, needs b > 0")
        adj[u][v] = adj[u].get(v, 0.0) + b
        adj[v][u] = adj[v].get(u, 0.0) + b

    return WeightedGraph(tuple(vertices), measure, potential, adj)


def degree(g: WeightedGraph, v: VertexId) -> float:
    """deg(v) = sum of incident edge weights plus the potential c(v)."""
    if v not in g:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    return float(sum(b for _, b in g.neighbors(v)) + g.potential[v])


@dataclass(frozen=True)
class ProblemSpec:
    """A graph together with a Dirichlet set V0 and an exponent p in (1, oo).

    Functions are pinned to zero on ``dirichlet``.  The spec is well posed
    when V0 is nonempty or the potential is somewhere positive.  p is
    restricted to [1.05, 20]; outside it the exponents 1/(p-1) over- or
    underflow double precision on modest graphs.
    """

    graph: WeightedGraph
    dirichlet: frozenset[VertexId]
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dirichlet", frozenset(self.dirichlet))
        object.__setattr__(self, "p", float(self.p))
        for v in self.dirichlet:
            if v not in self.graph:
                raise UnknownVertexError(f"Dirichlet vertex {v!r} is not in the graph")
        if not (P_MIN <= self.p <= P_MAX):
            raise InvalidExponentError(
                f"p = {self.p} outside the supported window [{P_MIN}, {P_MAX}]"
            )

    @property
    def free_vertices(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.graph.vertices if v not in self.dirichlet)

    @property
    def free_count(self) -> int:
        return len(self.free_vertices)

    @property
    def well_posed(self) -> bool:
        return bool(self.dirichlet) or max(self.graph.potential.values(), default=0.0) > 0.0

    def free_measure(self) -> float:
        return self.graph.total_measure(self.free_vertices)


@dataclass(frozen=True)
class ScaleParams:
    """Scaling (mu, lam): measures become mu*m, weights and potentials lam*b, lam*c."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError(f"mu = {self.mu} must be positive")
        if not self.lam > 0.0:
            raise ValueError(f"lam = {self.lam} must be positive")


def scale(g: WeightedGraph, s: ScaleParams) -> WeightedGraph:
    """Return (V, mu*m, lam*b, lam*c)."""
    return build_graph(
        [(v, s.mu * g.measure[v], s.lam * g.potential[v]) for v in g.vertices],
        [(u, v, s.lam * b) for u, v, b in g.edges],
    )


def invert_edge_weights(g: WeightedGraph) -> WeightedGraph:
    """Replace each positive edge weight by its reciprocal; m, c unchanged."""
    return build_graph(
        [(v, g.measure[v], g.potential[v]) for v in g.vertices],
        [(u, v, 1.0 / b) for u, v, b in g.edges],
    )


def merge_dirichlet(spec: ProblemSpec) -> ProblemSpec:
    """Identify all Dirichlet vertices into one fresh vertex.

    The fresh vertex aggregates the Dirichlet masses, potentials and all
    edges from free vertices into the Dirichlet set (parallel contributions
    summed); edges inside the old Dirichlet set are dropped.  Torsional
    rigidity and the bottom of the p-spectrum are invariant under this
    reduction.
    """
    if not spec.dirichlet:
        raise EmptyDirichletSetError("merge_dirichlet needs a nonempty Dirichlet set")
    g = spec.graph
    fresh = "v0"
    taken = set(g.vertices)
    k = 0
    while fresh in taken:
        k += 1
        fresh = f"v0_{k}"

    free = spec.free_vertices
    m0 = sum(g.measure[v] for v in spec.dirichlet)
    c0 = sum(g.potential[v] for v in spec.dirichlet)
    vertex_records = [(fresh, m0, c0)]
    vertex_records += [(v, g.measure[v], g.potential[v]) for v in free]

    edge_records: list[tuple[VertexId, VertexId, float]] = []
    for u, v, b in g.edges:
        u_d, v_d = u in spec.dirichlet, v in spec.dirichlet
        if u_d and v_d:
            continue
        if u_d:
            edge_records.append((fresh, v, b))
        elif v_d:
            edge_records.append((u, fresh, b))
        else:
            edge_records.append((u, v, b))

    merged = build_graph(vertex_records, edge_records)
    return ProblemSpec(merged, frozenset({fresh}), spec.p)


def weaken(
    g: WeightedGraph,
    b_new: Mapping[tuple[VertexId, VertexId], float],
    c_new: Mapping[VertexId, float],
) -> WeightedGraph:
    """Return the graph with edge weights ``b_new`` and potential ``c_new``.

    Both maps are total replacements: pairs or vertices absent from them get
    0.  Requires 0 <= b_new <= b and 0 <= c_new <= c pointwise on the same
    vertex set; a violating pair raises WeightIncreasedError naming it.
    """
    new_edges: dict[frozenset[VertexId], float] = {}
    for (u, v), b in b_new.items():
        if u not in g or v not in g:
            raise UnknownVertexError(f"unknown vertex in pair ({u!r}, {v!r})")
        key = frozenset((u, v))
        if key in new_edges and new_edges[key] != float(b):
            raise WeightIncreasedError(f"conflicting weights for pair ({u!r}, {v!r})")
        new_edges[key] = float(b)

    for key, b in new_edges.items():
        u, v = sorted(key, key=g.vertex_index)
        old = g.edge_weight(u, v)
        if b < 0.0 or b > old:
            raise WeightIncreasedError(
                f"pair ({u!r}, {v!r}): new weight {b} outside [0, {old}]"
            )

    new_pot: dict[VertexId, float] = {}
    for v in g.vertices:
        c = float(c_new.get(v, 0.0))
        if c < 0.0 or c > g.potential[v]:
            raise WeightIncreasedError(
                f"vertex {v!r}: new potential {c} outside [0, {g.potential[v]}]"
            )
        new_pot[v] = c

    edge_records = []
    for key, b in new_edges.items():
        if b > 0.0:
            u, v = sorted(key, key=g.vertex_index)
            edge_records.append((u, v, b))
    return build_graph(
        [(v, g.measure[v], new_pot[v]) for v in g.vertices], edge_records
    )


def insert_graph(
    host: ProblemSpec,
    guest: WeightedGraph,
    attach: Iterable[tuple[VertexId, VertexId, float]],
) -> ProblemSpec:
    """Insert ``guest`` into the host graph, joined by the ``attach`` edges.

    Each attachment is (host vertex, guest vertex, weight > 0); the host
    endpoints make up the distinguished set and must avoid the Dirichlet
    set.  The guest must carry zero potential.  The Dirichlet set is
    unchanged.  Rigidity never decreases when the attachments share a single
    host vertex.
    """
    g = host.graph
    if any(c != 0.0 for c in guest.potential.values()):
        raise NonzeroGuestPotentialError("guest potential must vanish identically")
    collisions = set(g.vertices) & set(guest.vertices)
    if collisions:
        raise DuplicateVertexError(
            f"guest vertex ids collide with host ids: {sorted(collisions)}"
        )
    attach = list(attach)
    for hv, gv, w in attach:
        if hv not in g:
            raise UnknownEndpointError(f"attachment host vertex {hv!r} not in host")
        if gv not in guest:
            raise UnknownEndpointError(f"attachment guest vertex {gv!r} not in guest")
        if hv in host.dirichlet:
            raise DirichletAttachmentError(f"attachment at Dirichlet vertex {hv!r}")
        if not float(w) > 0.0:
            raise NegativeWeightError(f"attachment ({hv!r}, {gv!r}) has weight {w}")

    vertex_records = [(v, g.measure[v], g.potential[v]) for v in g.vertices]
    vertex_records += [(v, guest.measure[v], 0.0) for v in guest.vertices]
    edge_records = list(g.edges) + list(guest.edges)
    edge_records += [(hv, gv, float(w)) for hv, gv, w in attach]
    return ProblemSpec(build_graph(vertex_records, edge_records), host.dirichlet, host.p)


# -- generators ----------------------------------------------------------


def _masses(ids: Sequence[VertexId], g_edges, m_mode, b_map):
    """Resolve an m_mode ('unit', 'degree' or an explicit map) to a dict."""
    if m_mode == "unit":
        return {v: 1.0 for v in ids}
    if m_mode == "degree":
        deg = {v: 0.0 for v in ids}
        for u, v, b in g_edges:
            deg[u] += b
            deg[v] += b
        return deg
    if isinstance(m_mode, Mapping):
        return {v: float(m_mode[v]) for v in ids}
    raise InvalidSizeError(f"unknown m_mode {m_mode!r}")


def make_path(F: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Path v0 - v1 - ... - vF with Dirichlet set {v0} and F free vertices.

    ``m_mode`` is 'unit', 'degree' (computed on the full path including v0)
    or an explicit id -> mass map.
    """
    if F < 1:
        raise InvalidSizeError(f"path needs F >= 1 free vertices, got {F}")
    ids = [f"v{j}" for j in range(F + 1)]
    edges = [(ids[j - 1], ids[j], float(b)) for j in range(1, F + 1)]
    m = _masses(ids, edges, m_mode, None)
    g = build_graph([(v, m[v], 0.0) for v in ids], edges)
    return ProblemSpec(g, frozenset({ids[0]}), p)


def make_star(n: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Star with center v1 and n edges; v0 is a Dirichlet leaf, v2..vn free leaves.

    Degree-mode masses are computed on the full star, so the center mass
    includes the Dirichlet edge.
    """
    if n < 1:
        raise InvalidSizeError(f"star needs n >= 1 edges, got {n}")
    ids = [f"v{j}" for j in range(n + 1)]
    center = ids[1] if n >= 1 else ids[0]
    edges = [(center, v, float(b)) for v in ids if v != center]
    m = _masses(ids, edges, m_mode, None)
    g = build_graph([(v, m[v], 0.0) for v in ids], edges)
    return ProblemSpec(g, frozenset({ids[0]}), p)


def make_complete(n: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Complete graph on n vertices with Dirichlet set {v0}."""
    if n < 2:
        raise InvalidSizeError(f"complete graph needs n >= 2 vertices, got {n}")
    ids = [f"v{j}" for j in range(n)]
    edges = [(ids[i], ids[j], float(b)) for i in range(n) for j in range(i + 1, n)]
    m = _masses(ids, edges, m_mode, None)
    g = build_graph([(v, m[v], 0.0) for v in ids], edges)
    return ProblemSpec(g, frozenset({ids[0]}), p)


def make_random_connected(
    n: int,
    edge_prob: float,
    weight_range: tuple[float, float],
    seed: int,
    m_mode="unit",
    p: float = 2.0,
    dirichlet_count: int = 1,
) -> ProblemSpec:
    """Seeded connected Erdos-Renyi graph with uniform weights.

    Rejection sampling on connectivity with a 64-bit seeded PCG64 generator;
    identical arguments always produce the identical spec.  ``dirichlet_count``
    vertices are drawn at random for the Dirichlet set.
    """
    if n < 2:
        raise InvalidSizeError(f"random graph needs n >= 2 vertices, got {n}")
    if not 0.0 < edge_prob <= 1.0:
        raise InvalidSizeError(f"edge_prob = {edge_prob} outside (0, 1]")
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not 0.0 < lo <= hi:
        raise NegativeWeightError(f"weight range [{lo}, {hi}] must be positive")
    if not 0 <= dirichlet_count < n:
        raise InvalidSizeError(f"dirichlet_count = {dirichlet_count} outside [0, {n})")

    rng = np.random.default_rng(seed)
    ids = [f"v{j}" for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(10000):
        mask = rng.random(len(pairs)) < edge_prob
        chosen = [pairs[k] for k in range(len(pairs)) if mask[k]]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in chosen:
            parent[find(i)] = find(j)
        if len({find(i) for i in range(n)}) == 1:
            weights = rng.uniform(lo, hi, size=len(chosen))
            edges = [
                (ids[i], ids[j], float(w)) for (i, j), w in zip(chosen, weights)
            ]
            m = _masses(ids, edges, m_mode, None)
            g = build_graph([(v, m[v], 0.0) for v in ids], edges)
            d_idx = rng.choice(n, size=dirichlet_count, replace=False)
            return ProblemSpec(g, frozenset(ids[int(i)] for i in d_idx), p)
    raise InvalidSizeError(
        f"could not draw a connected graph with n = {n}, edge_prob = {edge_prob}"
    )
