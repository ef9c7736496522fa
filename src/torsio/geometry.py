"""Metric and connectivity quantities: q-distances, inradius, mean distance,
diameter of the weight-inverted graph, and the global minimal cut weight.

Distances run ``scipy.sparse.csgraph.dijkstra`` on the graph's CSR adjacency
with each weight b replaced by the edge cost b^(1/(q-1)): one source for
``q_distance``, the Dirichlet set at once (``min_only``) for the inradius and
the mean distance, and every vertex, a block of rows at a time, for the
diameter.  With positive costs any Dijkstra returns, for each vertex, the
minimum over paths of the float sum of the costs along the path, so the
values do not depend on the visit order.  The costs are computed with
Python's float power, which calls libm ``pow``; numpy's array power may
differ from it in the last bit, and these values reach CLI output.  Powers
d^(q-1), maxima and the mass-weighted sum are Python float operations too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import (
    DisconnectedError,
    EmptyDirichletSetError,
    InvalidQError,
    TooFewVerticesError,
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

# distances p_diameter_inverted holds at once: 2^22 doubles, 32 MB
DIAMETER_BLOCK_ENTRIES = 1 << 22

Distance = Union[float, Unreachable]


def _check_q(q: float) -> float:
    q = float(q)
    if not q > 1.0:
        raise InvalidQError(f"q = {q} must be > 1 (the exponent 1/(q-1) is undefined)")
    return q


def _cost_matrix(g: WeightedGraph, q: float) -> sp.csr_array:
    """g's CSR adjacency with each weight b replaced by the cost b^(1/(q-1)).
    A cost that underflows to 0.0 stays stored, and csgraph reads a stored
    zero as an edge; one that overflows raises InvalidQError."""
    expo = 1.0 / (q - 1.0)
    weights = g._nbw.tolist()
    try:
        cost = np.array([b**expo for b in weights], dtype=float)
    except OverflowError:
        # b^expo grows with b, so the largest weight overflows first
        raise InvalidQError(
            f"q = {q}: the edge cost b^(1/(q-1)) of the weight b = {max(weights)} "
            "overflows a float"
        ) from None
    n = g.vertex_count
    return sp.csr_array((cost, g._nbr, g._indptr), shape=(n, n))


def q_distance(g: WeightedGraph, q: float, v: VertexId, w: VertexId) -> Distance:
    """dist_{q,b}(v, w): infimum over paths of sum b(e)^(1/(q-1)).

    Agrees with the ordinary weighted shortest-path distance for q = 2.
    Returns UNREACHABLE when v and w lie in different components.
    """
    q = _check_q(q)
    i, j = g.vertex_index(v), g.vertex_index(w)  # raise for unknown vertices
    if v == w:
        return 0.0
    d = float(csgraph.dijkstra(_cost_matrix(g, q), indices=i)[j])
    return UNREACHABLE if d == np.inf else d


def _free_distances(spec: ProblemSpec, q: float) -> list[float]:
    """dist_{q,b}(v, V0) for every vertex v, in vertex order."""
    if not spec.dirichlet:
        raise EmptyDirichletSetError("the inradius and mean distance need a Dirichlet set")
    g = spec.graph
    sources = np.flatnonzero(spec._pinned)
    dist = csgraph.dijkstra(_cost_matrix(g, q), indices=sources, min_only=True).tolist()
    missing = [v for v, d in zip(g.vertices, dist) if d == np.inf]
    if missing:
        raise DisconnectedError(f"vertices unreachable from the Dirichlet set: {missing}")
    return dist


def _power(d: float, q: float) -> float:
    """d^(q-1) for a distance d; InvalidQError if it overflows a float."""
    try:
        return d ** (q - 1.0)
    except OverflowError:
        raise InvalidQError(f"q = {q}: the power d^(q-1) of the distance d = {d} overflows a float") from None


def _inradius(dist: list[float], q: float) -> float:
    return float(max(_power(d, q) for d in dist))


def q_inradius(spec: ProblemSpec, q: float) -> float:
    """Inr_q = max over vertices of dist_{q,b}(v, V0)^(q-1)."""
    q = _check_q(q)
    return _inradius(_free_distances(spec, q), q)


def q_mean_distance(spec: ProblemSpec, q: float) -> float:
    """Mean_q = m-weighted average of dist_{q,b}(v, V0)^(q-1) over free vertices."""
    return q_inradius_and_mean(spec, q)[1]


def q_inradius_and_mean(spec: ProblemSpec, q: float) -> tuple[float, float]:
    """(Inr_q, Mean_q) from one search of the Dirichlet set."""
    q = _check_q(q)
    dist = _free_distances(spec, q)
    m, total = spec.graph.m.tolist(), spec.free_measure()
    terms = [(_power(dist[i], q), m[i]) for i in spec._free.tolist()]
    mean = float(sum(d * w for d, w in terms) / total) if total else 0.0
    if not math.isfinite(mean):
        # d^(q-1) m overflows, but an average of values at most Inr_q does not
        mean = float(sum(d * (w / total) for d, w in terms))
    return _inradius(dist, q), mean


def p_diameter_inverted(g: WeightedGraph, p: float) -> Distance:
    """max over vertex pairs of dist_{p, 1/b}(v, w)^(p-1), UNREACHABLE if disconnected.

    The sources run in blocks of rows of at most DIAMETER_BLOCK_ENTRIES
    distances, so memory stays O(n + m) beside that fixed block."""
    p = _check_q(p)
    gi = invert_edge_weights(g)
    n = g.vertex_count
    if n <= 1:
        return 0.0
    cost = _cost_matrix(gi, p)
    rows = max(1, DIAMETER_BLOCK_ENTRIES // n)
    worst = 0.0
    for lo in range(0, n, rows):
        block = csgraph.dijkstra(cost, indices=np.arange(lo, min(lo + rows, n)))
        far = float(block.max())
        if far == np.inf:
            return UNREACHABLE
        worst = max(worst, far)
    return float(_power(worst, p))


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
    inradius, mean_distance = q_inradius_and_mean(spec, q)
    return GeometrySummary(
        q=q,
        inradius=inradius,
        mean_distance=mean_distance,
        diameter_inverted=p_diameter_inverted(spec.graph, q),
        min_cut_weight=min_cut_weight(spec.graph),
    )
