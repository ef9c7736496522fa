"""Weighted-graph data model, surgery operations and generators.

A graph is a finite vertex set with a positive vertex measure m, a
nonnegative potential c and symmetric nonnegative edge weights b with
b(v, v) = 0.  :func:`build_graph` validates the records and builds the
graph's arrays once: m and c in vertex order, the edge list (ei, ej, w) and
a CSR adjacency.  The solver, the spectral code and the energy kernels read
those arrays; the id-based queries of :class:`WeightedGraph` are thin
adapters over them.  All values are immutable after construction; every
operation here is a pure function returning a fresh graph or problem spec.

Surgery that keeps V and E (:func:`scale`, :func:`invert_edge_weights`)
revalues the built arrays instead of sending records back through
build_graph: it checks the new values as build_graph would, with the same
errors and messages, and ends in the constructor build_graph ends in, so
the result equals the graph build_graph gives for the revalued records in
vertex and ``edges`` order, rows of the CSR adjacency included.  Surgery
that changes V or E (:func:`merge_dirichlet`, :func:`weaken`,
:func:`insert_graph`) builds from records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

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
    """Finite weighted graph (V, m, b, c), held as read-only arrays.

    ``vertices`` fixes the internal index of each vertex (input order); ``m``
    and ``c`` are the measure and potential in that order.  The edges with
    b > 0 are ``(ei[k], ej[k], w[k])``, ei < ej, sorted by (ei, ej), and
    ``edges`` names them by id.  A CSR adjacency (``_indptr``, ``_nbr``,
    ``_nbw``) backs ``neighbors(v)``, which lists v's neighbors in the order
    their pair first appears in the edge records; its rows become (id, b)
    tuples on the first id-based query.  Equality compares vertices,
    measure, potential and edges, not the arrays behind them.

    Do not build instances directly: :func:`build_graph` enforces the
    invariants and merges parallel edge records.
    """

    vertices: tuple[VertexId, ...]
    measure: Mapping[VertexId, float]
    potential: Mapping[VertexId, float]
    edges: tuple[tuple[VertexId, VertexId, float], ...] = field(repr=False)
    m: np.ndarray = field(repr=False, compare=False)
    c: np.ndarray = field(repr=False, compare=False)
    ei: np.ndarray = field(repr=False, compare=False)
    ej: np.ndarray = field(repr=False, compare=False)
    w: np.ndarray = field(repr=False, compare=False)
    _indptr: np.ndarray = field(repr=False, compare=False)
    _nbr: np.ndarray = field(repr=False, compare=False)
    _nbw: np.ndarray = field(repr=False, compare=False)
    _index: Mapping[VertexId, int] = field(repr=False, compare=False)

    def __contains__(self, v: VertexId) -> bool:
        return v in self._index

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: VertexId) -> int:
        """Internal dense index of ``v`` (input order)."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[VertexId, float], ...], ...]:
        pairs = list(zip(map(self.vertices.__getitem__, self._nbr.tolist()), self._nbw.tolist()))
        bounds = self._indptr.tolist()
        return tuple(tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def edge_weight(self, v: VertexId, w: VertexId) -> float:
        row = dict(self.neighbors(v))
        self.vertex_index(w)  # raises for an unknown w
        return row.get(w, 0.0)

    def neighbors(self, v: VertexId) -> tuple[tuple[VertexId, float], ...]:
        return self._rows[self.vertex_index(v)]

    @property
    def edge_count(self) -> int:
        return len(self.w)

    def total_measure(self, subset: Iterable[VertexId] | None = None) -> float:
        if subset is None:
            return float(sum(self.measure.values()))
        return float(sum(self.measure[v] for v in subset))

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """The number of connected components and each vertex's label."""
        n = self.vertex_count
        adjacency = sp.csr_array((self._nbw, self._nbr, self._indptr), shape=(n, n))
        # both directions of every edge are stored, so the strong components
        # are the connected components
        count, label = csgraph.connected_components(adjacency, connection="strong")
        label.flags.writeable = False
        return count, label

    @property
    def is_connected(self) -> bool:
        return self._components[0] <= 1


def build_graph(
    vertex_records: Sequence[tuple[VertexId, float, float]],
    edge_records: Sequence[tuple[VertexId, VertexId, float]],
) -> WeightedGraph:
    """Build a graph from (id, m, c) vertex records and (u, v, b) edge records.

    Parallel edge records between the same unordered pair are merged by
    summing their weights in record order.  Raises the named error for the
    first offending record: duplicate ids, unknown endpoints, self loops,
    m <= 0, c < 0 or b <= 0 (vertex records are checked before edge
    records, and values are converted to float before any check).
    """
    vrec = [(str(v), float(m), float(c)) for v, m, c in vertex_records]
    erec = [(str(u), str(v), float(b)) for u, v, b in edge_records]
    vertices = tuple([r[0] for r in vrec])
    n = len(vertices)
    index = dict(zip(vertices, range(n)))
    m = np.array([r[1] for r in vrec], dtype=float)
    c = np.array([r[2] for r in vrec], dtype=float)
    if len(index) < n or not (_positive(m) and _nonnegative(c)):
        _check_vertices(vertices, m.tolist(), c.tolist())

    wt = np.array([r[2] for r in erec], dtype=float)
    try:
        a = np.array([index[r[0]] for r in erec], dtype=np.intp)
        b = np.array([index[r[1]] for r in erec], dtype=np.intp)
        valid = not (a == b).any() and _positive(wt)
    except KeyError:  # an unknown endpoint
        valid = False
    if not valid:
        ia, ib = ([index.get(r[k], -1) for r in erec] for k in (0, 1))
        _check_edges(erec, ia, ib, wt.tolist())

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * n + hi
    # a stable sort lists the parallel records of a pair in record order
    order = key.argsort(kind="stable")
    ordered = key[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = order[new]  # the first record of each pair
    # bincount adds the parallel records of a pair in record order; it
    # returns ints when there are no records
    w = np.bincount(new.cumsum() - 1, weights=wt[order]).astype(float, copy=False)
    return _graph(vertices, index, m, c, lo[first], hi[first], w, first)


def _positive(x: np.ndarray) -> bool:
    """Whether every entry lies in (0, inf); NaN does not."""
    return not len(x) or bool(x.min() > 0.0 and x.max() < np.inf)


def _nonnegative(x: np.ndarray) -> bool:
    """Whether every entry lies in [0, inf); NaN does not."""
    return not len(x) or bool(x.min() >= 0.0 and x.max() < np.inf)


def _check_vertices(vertices: Sequence[VertexId], m: list[float], c: list[float]) -> None:
    """Raise for the first vertex record that repeats an id or has an m
    outside (0, inf) or a c outside [0, inf), in that order of precedence."""
    seen: set[VertexId] = set()
    for vid, mk, ck in zip(vertices, m, c):
        if vid in seen:
            raise DuplicateVertexError(f"duplicate vertex record {vid!r}")
        seen.add(vid)
        if not 0.0 < mk < np.inf:
            raise NonpositiveMassError(f"vertex {vid!r} has m = {mk}, needs m > 0")
        if not 0.0 <= ck < np.inf:
            raise NegativePotentialError(f"vertex {vid!r} has c = {ck}, needs c >= 0")


def _check_edges(records: Iterable[tuple], ia: list[int], ib: list[int], w: list[float]) -> None:
    """Raise for the first edge record (u, v, ...) with an unknown endpoint
    (index -1), a self loop or a b outside (0, inf), in that order of
    precedence; w holds the b of each record."""
    for (u, v, *_), i, j, bk in zip(records, ia, ib, w):
        if i < 0:
            raise UnknownEndpointError(f"edge ({u!r}, {v!r}) references unknown vertex {u!r}")
        if j < 0:
            raise UnknownEndpointError(f"edge ({u!r}, {v!r}) references unknown vertex {v!r}")
        if i == j:
            raise SelfLoopError(f"edge ({u!r}, {v!r}) is a self loop")
        if not 0.0 < bk < np.inf:
            raise NegativeWeightError(f"edge ({u!r}, {v!r}) has b = {bk}, needs b > 0")


def _graph(vertices, index, m, c, ei, ej, w, first) -> WeightedGraph:
    """The graph on ``vertices`` (``index`` maps each id to its position) with
    the checked values m, c and the edges (ei, ej, w) in canonical order:
    ei < ej, sorted by (ei, ej).  ``first`` ranks the edges in the order each
    neighbor row lists them, the order their records first appeared."""
    n = len(vertices)
    src = np.concatenate((ei, ej))
    order = np.lexsort((np.concatenate((first, first)), src))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    nbr = np.concatenate((ej, ei))[order]
    nbw = np.concatenate((w, w))[order]
    for arr in (m, c, ei, ej, w, indptr, nbr, nbw):
        arr.flags.writeable = False
    ids = vertices.__getitem__
    edges = tuple(zip(map(ids, ei.tolist()), map(ids, ej.tolist()), w.tolist()))
    measure, potential = dict(zip(vertices, m.tolist())), dict(zip(vertices, c.tolist()))
    return WeightedGraph(
        vertices, measure, potential, edges, m, c, ei, ej, w, indptr, nbr, nbw, index
    )


def _revalued(g: WeightedGraph, m: np.ndarray, c: np.ndarray, w: np.ndarray) -> WeightedGraph:
    """g's vertices and edges with the values m, c and w (w in edge order),
    checked as build_graph checks them: the graph that build_graph gives for
    g's records in vertex and ``g.edges`` order, whose rows list each
    vertex's neighbors in ``g.edges`` order."""
    if not (_positive(m) and _nonnegative(c)):
        _check_vertices(g.vertices, m.tolist(), c.tolist())
    if not _positive(w):
        _check_edges(g.edges, g.ei.tolist(), g.ej.tolist(), w.tolist())
    return _graph(g.vertices, g._index, m, c, g.ei, g.ej, w, np.arange(len(w)))


def degree(g: WeightedGraph, v: VertexId) -> float:
    """deg(v) = sum of incident edge weights plus the potential c(v), the
    weights added in the order ``neighbors`` lists them."""
    i = g.vertex_index(v)
    lo, hi = g._indptr[i : i + 2].tolist()
    return float(sum(g._nbw[lo:hi].tolist()) + g.potential[v])


@dataclass(frozen=True)
class ProblemSpec:
    """A graph together with a Dirichlet set V0 and an exponent p in (1, oo).

    Functions are pinned to zero on ``dirichlet``.  The spec is well posed
    when V0 is nonempty or the potential is somewhere positive.  p is
    restricted to [1.05, 20]; outside it the exponents 1/(p-1) over- or
    underflow double precision on modest graphs.

    The split into Dirichlet and free vertices is computed here once, as
    read-only arrays in vertex order: the mask ``_pinned`` of V0 and the
    indices ``_free`` of V \\ V0.  Every other module reads them.
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

    @cached_property
    def _pinned(self) -> np.ndarray:
        pinned = np.zeros(self.graph.vertex_count, dtype=bool)
        pinned[[self.graph.vertex_index(v) for v in self.dirichlet]] = True
        pinned.flags.writeable = False
        return pinned

    @cached_property
    def _free(self) -> np.ndarray:
        free = np.flatnonzero(~self._pinned)
        free.flags.writeable = False
        return free

    @cached_property
    def free_vertices(self) -> tuple[VertexId, ...]:
        return tuple(map(self.graph.vertices.__getitem__, self._free.tolist()))

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def well_posed(self) -> bool:
        return bool(self.dirichlet) or max(self.graph.potential.values(), default=0.0) > 0.0

    def free_measure(self) -> float:
        # a Python sum in vertex order, as total_measure adds
        return float(sum(self.graph.m[self._free].tolist()))


def boundary_entries(spec: ProblemSpec) -> tuple[list[int], list[float]]:
    """Rows i and weights b of the adjacency entries from a free vertex i to
    a Dirichlet vertex: free vertices in vertex order, each row in the order
    ``neighbors`` lists it."""
    g, pinned = spec.graph, spec._pinned
    rows = np.repeat(np.arange(g.vertex_count), np.diff(g._indptr))
    hit = ~pinned[rows] & pinned[g._nbr]
    return rows[hit].tolist(), g._nbw[hit].tolist()


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
    """Return (V, mu*m, lam*b, lam*c); a value that leaves float range
    raises the error build_graph gives for it."""
    mu, lam = float(s.mu), float(s.lam)
    # inf * 0 for lam = inf and c = 0 is NaN, which _revalued rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return _revalued(g, mu * g.m, lam * g.c, lam * g.w)


def invert_edge_weights(g: WeightedGraph) -> WeightedGraph:
    """Replace each positive edge weight by its reciprocal; m, c unchanged.
    A reciprocal that overflows to inf raises NegativeWeightError."""
    with np.errstate(over="ignore"):
        return _revalued(g, g.m, g.c, 1.0 / g.w)


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

    # summed in vertex order, so the result does not depend on set order
    pinned = np.flatnonzero(spec._pinned)
    m0 = sum(g.m[pinned].tolist())
    c0 = sum(g.c[pinned].tolist())
    vertex_records = [(fresh, m0, c0)]
    vertex_records += [(v, g.measure[v], g.potential[v]) for v in spec.free_vertices]

    # edges keep their canonical order; their ends in V0 become the fresh vertex
    to_fresh = dict.fromkeys(spec.dirichlet, fresh)
    edge_records = [
        (to_fresh.get(u, u), to_fresh.get(v, v), b)
        for u, v, b in g.edges
        if not (u in to_fresh and v in to_fresh)
    ]

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
    vertex set; a violating pair raises WeightIncreasedError naming it, a
    pair (v, v) SelfLoopError and an unknown vertex UnknownVertexError.
    """
    new_edges: dict[frozenset[VertexId], float] = {}
    for (u, v), b in b_new.items():
        if u not in g or v not in g:
            raise UnknownVertexError(f"unknown vertex in pair ({u!r}, {v!r})")
        if u == v:
            raise SelfLoopError(f"pair ({u!r}, {v!r}) is a self loop")
        key = frozenset((u, v))
        if key in new_edges and new_edges[key] != float(b):
            raise WeightIncreasedError(f"conflicting weights for pair ({u!r}, {v!r})")
        new_edges[key] = float(b)

    edge_records = []
    for key, b in new_edges.items():
        u, v = sorted(key, key=g.vertex_index)
        old = g.edge_weight(u, v)
        if b < 0.0 or b > old:
            raise WeightIncreasedError(
                f"pair ({u!r}, {v!r}): new weight {b} outside [0, {old}]"
            )
        if b > 0.0:
            edge_records.append((u, v, b))

    for v in c_new:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r} in the new potential")
    vertex_records = [(v, g.measure[v], float(c_new.get(v, 0.0))) for v in g.vertices]
    for (v, _, c), old in zip(vertex_records, g.c.tolist()):
        if c < 0.0 or c > old:
            raise WeightIncreasedError(f"vertex {v!r}: new potential {c} outside [0, {old}]")
    return build_graph(vertex_records, edge_records)


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


def _generated(n: int, ei, ej, b, m_mode, dirichlet, p: float) -> ProblemSpec:
    """Spec on the vertices v0..v{n-1} with the edges (v_ei, v_ej, b) and the
    Dirichlet set {v_k : k in dirichlet}.

    ``m_mode`` is 'unit', 'degree' (weighted degree on the full graph) or an
    explicit id -> mass map.
    """
    ids = [f"v{j}" for j in range(n)]
    if m_mode == "unit":
        masses = [1.0] * n
    elif m_mode == "degree":
        # in every generator the edges listing a vertex second precede those
        # listing it first, so this adds each degree up in edge order
        masses = np.bincount(np.concatenate((ej, ei)), np.concatenate((b, b)), n).tolist()
    elif isinstance(m_mode, Mapping):
        masses = [float(m_mode[v]) for v in ids]
    else:
        raise InvalidSizeError(f"unknown m_mode {m_mode!r}")
    edges = zip(map(ids.__getitem__, ei.tolist()), map(ids.__getitem__, ej.tolist()), b.tolist())
    g = build_graph([(v, mv, 0.0) for v, mv in zip(ids, masses)], list(edges))
    return ProblemSpec(g, frozenset(ids[k] for k in dirichlet), p)


def make_path(F: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Path v0 - v1 - ... - vF with Dirichlet set {v0} and F free vertices.

    ``m_mode`` is 'unit', 'degree' (computed on the full path including v0)
    or an explicit id -> mass map.
    """
    if F < 1:
        raise InvalidSizeError(f"path needs F >= 1 free vertices, got {F}")
    return _generated(F + 1, np.arange(F), np.arange(1, F + 1), np.full(F, float(b)), m_mode, [0], p)


def make_star(n: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Star with center v1 and n edges; v0 is a Dirichlet leaf, v2..vn free leaves.

    Degree-mode masses are computed on the full star, so the center mass
    includes the Dirichlet edge.
    """
    if n < 1:
        raise InvalidSizeError(f"star needs n >= 1 edges, got {n}")
    leaves = np.r_[0, 2 : n + 1]
    return _generated(n + 1, np.ones(n, dtype=int), leaves, np.full(n, float(b)), m_mode, [0], p)


def make_complete(n: int, m_mode="unit", b: float = 1.0, p: float = 2.0) -> ProblemSpec:
    """Complete graph on n vertices with Dirichlet set {v0}."""
    if n < 2:
        raise InvalidSizeError(f"complete graph needs n >= 2 vertices, got {n}")
    ei, ej = np.triu_indices(n, 1)
    return _generated(n, ei, ej, np.full(len(ei), float(b)), m_mode, [0], p)


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
    pair_i, pair_j = np.triu_indices(n, 1)  # the pairs i < j in row-major order
    for _ in range(10000):
        mask = rng.random(len(pair_i)) < edge_prob
        ei, ej = pair_i[mask], pair_j[mask]
        adjacency = sp.coo_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n))
        if csgraph.connected_components(adjacency, directed=False)[0] == 1:
            b = rng.uniform(lo, hi, size=len(ei))
            d_idx = rng.choice(n, size=dirichlet_count, replace=False)
            return _generated(n, ei, ej, b, m_mode, d_idx.tolist(), p)
    raise InvalidSizeError(
        f"could not draw a connected graph with n = {n}, edge_prob = {edge_prob}"
    )
