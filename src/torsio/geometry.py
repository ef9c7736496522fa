"""Metric and connectivity quantities: q-distances, inradius, mean distance,
diameter of the weight-inverted graph, and the global minimal cut weight."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import (
    DisconnectedError,
    EmptyDirichletSetError,
    InvalidQError,
    TooFewVerticesError,
    UnknownVertexError,
)
from .graphs import ProblemSpec, VertexId, WeightedGraph, invert_edge_weights


class Unreachable:
    """Typed marker for an infinite distance (disconnected vertices)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = Unreachable()

Distance = Union[float, Unreachable]


def _check_q(q: float) -> float:
    q = float(q)
    if not q > 1.0:
        raise InvalidQError(f"q = {q} must be > 1 (the exponent 1/(q-1) is undefined)")
    return q


def _dijkstra(g: WeightedGraph, sources: Iterable[VertexId], q: float) -> dict[VertexId, float]:
    """Shortest-path distances from a source set with per-edge cost b^(1/(q-1))."""
    expo = 1.0 / (q - 1.0)
    dist: dict[VertexId, float] = {}
    heap: list[tuple[float, int, VertexId]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, g.vertex_index(s), s))
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > dist.get(v, np.inf):
            continue
        for w, b in g.neighbors(v):
            nd = d + b**expo
            if nd < dist.get(w, np.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, g.vertex_index(w), w))
    return dist


def q_distance(g: WeightedGraph, q: float, v: VertexId, w: VertexId) -> Distance:
    """dist_{q,b}(v, w): infimum over paths of sum b(e)^(1/(q-1)).

    Agrees with the ordinary weighted shortest-path distance for q = 2.
    Returns UNREACHABLE when v and w lie in different components.
    """
    q = _check_q(q)
    g.vertex_index(v), g.vertex_index(w)  # raise for unknown vertices
    if v == w:
        return 0.0
    dist = _dijkstra(g, [v], q)
    return dist.get(w, UNREACHABLE)


def _free_distances(spec: ProblemSpec, q: float) -> dict[VertexId, float]:
    if not spec.dirichlet:
        raise EmptyDirichletSetError("the inradius and mean distance need a Dirichlet set")
    dist = _dijkstra(spec.graph, sorted(spec.dirichlet, key=spec.graph.vertex_index), q)
    missing = [v for v in spec.graph.vertices if v not in dist]
    if missing:
        raise DisconnectedError(f"vertices unreachable from the Dirichlet set: {missing}")
    return dist


def q_inradius(spec: ProblemSpec, q: float) -> float:
    """Inr_q = max over vertices of dist_{q,b}(v, V0)^(q-1)."""
    q = _check_q(q)
    dist = _free_distances(spec, q)
    return float(max(d ** (q - 1.0) for d in dist.values()))


def q_mean_distance(spec: ProblemSpec, q: float) -> float:
    """Mean_q = m-weighted average of dist_{q,b}(v, V0)^(q-1) over free vertices."""
    q = _check_q(q)
    dist = _free_distances(spec, q)
    m = spec.graph.measure
    free = spec.free_vertices
    total = sum(m[v] for v in free)
    if total == 0.0:
        return 0.0
    return float(sum(dist[v] ** (q - 1.0) * m[v] for v in free) / total)


def p_diameter_inverted(g: WeightedGraph, p: float) -> Distance:
    """max over vertex pairs of dist_{p, 1/b}(v, w)^(p-1), UNREACHABLE if disconnected."""
    p = _check_q(p)
    gi = invert_edge_weights(g)
    n = g.vertex_count
    if n <= 1:
        return 0.0
    worst = 0.0
    for v in gi.vertices:
        dist = _dijkstra(gi, [v], p)
        if len(dist) < n:
            return UNREACHABLE
        worst = max(worst, max(dist.values()))
    return float(worst ** (p - 1.0))


def min_cut_weight(g: WeightedGraph) -> float:
    """Global minimal cut weight: min over nontrivial bipartitions (V1, V2) of
    the total edge weight crossing the cut.

    Deterministic maximum-adjacency (Stoer-Wagner) contraction scheme; the
    most tightly connected vertex is chosen with ties broken by smallest
    internal index, so the result does not depend on hash order.  Returns 0
    exactly when the graph is disconnected.
    """
    n = g.vertex_count
    if n < 2:
        raise TooFewVerticesError(f"min cut needs at least 2 vertices, got {n}")
    if not g.is_connected:
        return 0.0

    W = np.zeros((n, n))
    W[g.ei, g.ej] = g.w
    W[g.ej, g.ei] = g.w

    active = list(range(n))
    members: list[set[int]] = [{i} for i in range(n)]
    best = np.inf
    best_side: set[int] = set()
    while len(active) > 1:
        # maximum adjacency order starting from the smallest active index
        start = active[0]
        keys = {v: W[start, v] for v in active[1:]}
        order = [start]
        while keys:
            top = max(keys.values())
            tight = min(v for v, k in keys.items() if k == top)
            order.append(tight)
            del keys[tight]
            for v in keys:
                keys[v] += W[tight, v]
        t = order[-1]
        s = order[-2]
        cut_of_phase = float(sum(W[t, v] for v in active if v != t))
        if cut_of_phase < best:
            best = cut_of_phase
            best_side = set(members[t])
        # contract t into s
        W[s, :] += W[t, :]
        W[:, s] += W[:, t]
        W[s, s] = 0.0
        members[s] |= members[t]
        active.remove(t)
    # re-sum the recorded bipartition in canonical edge order so the result
    # is bit-identical to direct enumeration
    side = np.zeros(n, dtype=bool)
    side[list(best_side)] = True
    return float(sum(g.w[side[g.ei] != side[g.ej]].tolist()))


@dataclass(frozen=True)
class GeometrySummary:
    """Metric snapshot of a spec at exponent q."""

    q: float
    inradius: float
    mean_distance: float
    diameter_inverted: Distance
    min_cut_weight: float


def geometry_summary(spec: ProblemSpec, q: float | None = None) -> GeometrySummary:
    """Compute Inr_q, Mean_q, Diam_q of the inverted graph and the min cut.

    ``q`` defaults to the spec's exponent p.
    """
    q = spec.p if q is None else _check_q(q)
    return GeometrySummary(
        q=q,
        inradius=q_inradius(spec, q),
        mean_distance=q_mean_distance(spec, q),
        diameter_inverted=p_diameter_inverted(spec.graph, q),
        min_cut_weight=min_cut_weight(spec.graph),
    )
