"""Metric and connectivity quantities: q-distances, inradius, mean distance,
diameter of the weight-inverted graph, and the global minimal cut weight.

Distances run ``scipy.sparse.csgraph.dijkstra`` on the graph's CSR adjacency
with each weight b replaced by the edge cost b^(1/(q-1)): one source for
``q_distance``, the Dirichlet set at once (``min_only``) for the inradius and
the mean distance, and every vertex, a block of rows at a time, for the
diameter.  With positive costs any Dijkstra returns, for each vertex, the
minimum over paths of the float sum of the costs along the path, so the
values do not depend on the visit order.  Reachability is read from the
graph's connected components, never from a distance: two vertices in
different components are UNREACHABLE (for the inradius and the mean
distance, a DisconnectedError), and an infinite distance within one
component is a float overflow, an InvalidQError.  The costs are computed
with Python's float power, which calls libm ``pow``; numpy's array power may
differ from it in the last bit, and these values reach CLI output.  Powers
d^(q-1), maxima and the mass-weighted sum are Python float operations too.

The minimal cut is exact by Nagamochi-Ibaraki contraction (Nagamochi &
Ibaraki 1992), the exact core of the kernelization of Henzinger, Noe,
Schulz & Strash (2018), on one dict of neighbour weights per super-vertex,
so its memory is O(n + m); ``min_cut_weight`` gives the rounds and the
references.  Every choice goes by vertex index, never by hash order, and
the side found is re-summed in canonical edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import (
    DisconnectedError,
    EmptyDirichletSetError,
    InvalidQError,
    NoConvergenceError,
    TooFewVerticesError,
)
from .graphs import ProblemSpec, VertexId, WeightedGraph, invert_edge_weights


class Unreachable:
    """Typed marker for the distance between vertices in different components."""

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
    Returns UNREACHABLE when v and w lie in different components; an
    infinite distance between them otherwise raises InvalidQError.
    """
    q = _check_q(q)
    i, j = g.vertex_index(v), g.vertex_index(w)  # raise for unknown vertices
    if v == w:
        return 0.0
    cost = _cost_matrix(g, q)
    label = g._components[1]
    if label[i] != label[j]:
        return UNREACHABLE
    d = float(csgraph.dijkstra(cost, indices=i)[j])
    if d == np.inf:
        raise InvalidQError(f"q = {q}: the distance dist_q({v!r}, {w!r}) overflows a float")
    return d


def _free_distances(spec: ProblemSpec, q: float) -> list[float]:
    """dist_{q,b}(v, V0) for every vertex v, in vertex order.  An infinite
    distance is an overflow (InvalidQError) when v shares a component with
    a Dirichlet vertex, and unreachability (DisconnectedError) otherwise."""
    if not spec.dirichlet:
        raise EmptyDirichletSetError("the inradius and mean distance need a Dirichlet set")
    g = spec.graph
    sources = np.flatnonzero(spec._pinned)
    dist = csgraph.dijkstra(_cost_matrix(g, q), indices=sources, min_only=True).tolist()
    far = [i for i, d in enumerate(dist) if d == np.inf]
    if far:
        label = g._components[1].tolist()
        anchored = {label[i] for i in sources.tolist()}
        for i in far:
            if label[i] in anchored:
                raise InvalidQError(
                    f"q = {q}: the distance dist_q({g.vertices[i]!r}, V0) overflows a float"
                )
        missing = [g.vertices[i] for i in far]
        raise DisconnectedError(f"vertices unreachable from the Dirichlet set: {missing}")
    return dist


def _power(d: float, q: float) -> float:
    """d^(q-1) for a distance d; InvalidQError if it overflows a float."""
    try:
        return d ** (q - 1.0)
    except OverflowError:
        raise InvalidQError(f"q = {q}: the power d^(q-1) of the distance d = {d} overflows a float") from None


def q_inradius(spec: ProblemSpec, q: float) -> float:
    """Inr_q = max over vertices of dist_{q,b}(v, V0)^(q-1)."""
    return q_inradius_and_mean(spec, q)[0]


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
    # the Dirichlet vertices, at distance 0, cannot raise the maximum
    return max((d for d, _ in terms), default=0.0), mean


def p_diameter_inverted(g: WeightedGraph, p: float) -> Distance:
    """max over vertex pairs of dist_{p, 1/b}(v, w)^(p-1), UNREACHABLE if disconnected.

    A disconnected graph is known from its components before any search; an
    infinite distance in a connected one raises InvalidQError.  The sources
    run in blocks of rows of at most DIAMETER_BLOCK_ENTRIES distances, so
    memory stays O(n + m) beside that fixed block."""
    p = _check_q(p)
    gi = invert_edge_weights(g)
    n = g.vertex_count
    if n <= 1:
        return 0.0
    cost = _cost_matrix(gi, p)
    if not g.is_connected:
        return UNREACHABLE
    rows = max(1, DIAMETER_BLOCK_ENTRIES // n)
    worst = 0.0
    for lo in range(0, n, rows):
        block = csgraph.dijkstra(cost, indices=np.arange(lo, min(lo + rows, n)))
        far = float(block.max())
        if far == np.inf:
            raise InvalidQError(f"q = {p}: a distance of the weight-inverted graph overflows a float")
        worst = max(worst, far)
    return float(_power(worst, p))


def _fsum(values: Iterable[float]) -> float:
    """The sum of nonnegative floats rounded once (``math.fsum``), so it
    does not depend on the Python version; inf when it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _capforest(
    adj: list[dict[int, float]], deg: list[float], lam: float
) -> tuple[float, list[int], list[int]]:
    """One Nagamochi-Ibaraki round on the contracted graph ``adj``.

    Scans the super-vertices in maximum-adjacency order from super-vertex 0,
    ties to the smaller index.  Each proper prefix of the scan is a cut of
    weight cut_prev + d(x) - 2 r(x); that sum cancels once a prefix swallows
    a heavy edge, so a prefix that seems to undercut ``lam`` is re-summed,
    as the fsum of the r of the unscanned super-vertices, before it is
    taken.  An edge (x, y) is marked when r(y) crosses ``lam`` as it is
    scanned, so every cut between x and y weighs at least ``lam``
    (Nagamochi-Ibaraki), or when its own weight is at least ``lam``
    (Padberg-Rinaldi test 1).  Returns the lowered ``lam``, the prefix that
    has it (empty if none undercut the given ``lam``) and, for each
    super-vertex, the smallest index it is marked together with.
    """
    k = len(adj)
    r = [0.0] * k
    done = [False] * k
    parent = list(range(k))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def join(a: int, b: int) -> None:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)

    heap = [(-0.0, 0)]
    order: list[int] = []
    cut, cut_at = 0.0, 0
    marked = False
    while heap:
        x = heappop(heap)[1]
        if done[x]:
            continue
        done[x] = True
        order.append(x)
        for y, c in adj[x].items():
            if done[y]:
                continue
            ry = r[y]
            r[y] = ry_new = ry + c
            if ry < lam <= ry_new or c >= lam:
                join(x, y)
                marked = True
            heappush(heap, (-ry_new, y))
        cut = cut + deg[x] - 2.0 * r[x]
        if cut < lam and len(order) < k:
            cut = _fsum(rv for rv, seen in zip(r, done) if not seen)
            if cut < lam:
                lam, cut_at = cut, len(order)
    if not marked:
        # The last super-vertex t ends with r(t) = d(t), so an edge of t
        # crosses lam, unless r(t), added up in scan order, rounds below
        # d(t), which fsum rounds once.  A maximum-adjacency order makes
        # d(t) a minimum cut between the last two super-vertices
        # (Stoer-Wagner), and d(t), a recorded candidate, is at least lam:
        # contract the two.
        join(order[-2], order[-1])
    return lam, order[:cut_at], [find(v) for v in range(k)]


def _contract(
    adj: list[dict[int, float]], rep: list[int]
) -> tuple[list[dict[int, float]], list[int]]:
    """The graph with each super-vertex merged into ``rep`` of it (rep[v] <=
    v), numbered by representative, and the new number of each old one."""
    new = []
    count = 0
    for v, root in enumerate(rep):
        if root == v:
            new.append(count)
            count += 1
        else:
            new.append(new[root])
    merged: list[dict[int, float]] = [{} for _ in range(count)]
    for u, row in enumerate(adj):
        a = new[u]
        out = merged[a]
        for v, c in row.items():
            b = new[v]
            if a != b:
                out[b] = out.get(b, 0.0) + c
    return merged, new


def min_cut_weight(g: WeightedGraph) -> float:
    """Global minimal cut weight: min over nontrivial bipartitions (V1, V2) of
    the total edge weight crossing the cut.  Returns 0 exactly when the graph
    is disconnected.

    Nagamochi-Ibaraki rounds on a contracted graph, held as one dict of
    neighbour weights per super-vertex and built from the CSR arrays, so
    memory is O(n + m).  The bound lam starts as the least weighted degree.
    Each round runs one maximum-adjacency (CAPFOREST) scan, ``_capforest``:
    a heap keyed by (-r, index) takes the most tightly attached
    super-vertex, ties to the smallest index, starting from super-vertex 0.
    The scan lowers lam to any lighter cut of a proper prefix of its order
    (the full vertex set is not a cut) and marks the edges that no cut
    lighter than lam can cross.  A union-find whose representative is the
    smallest index contracts them all at once, and the degree of each new
    super-vertex is a candidate cut.  A cut lighter than lam keeps every
    edge across it unmarked, so it survives until lam falls to it; each
    round contracts at least one pair, and when one super-vertex is left
    lam is the minimal cut.

    References: H. Nagamochi and T. Ibaraki, "Computing edge-connectivity in
    multigraphs and capacitated graphs", SIAM J. Discrete Math. 5 (1992);
    M. Henzinger, A. Noe, C. Schulz and D. Strash, "Practical Minimum Cut
    Algorithms", ALENEX 2018.

    The side of the best cut is re-summed in canonical edge order, so the
    result is bit-identical to direct enumeration of that bipartition.  A
    minimal cut that overflows a float raises NoConvergenceError.
    """
    n = g.vertex_count
    if n < 2:
        raise TooFewVerticesError(f"min cut needs at least 2 vertices, got {n}")
    if not g.is_connected:
        return 0.0
    bounds = g._indptr.tolist()
    nbr, nbw = g._nbr.tolist(), g._nbw.tolist()
    # adj[a] maps each neighbour of super-vertex a to the weight between
    # them; label[v] is the super-vertex that holds vertex v
    adj = [dict(zip(nbr[lo:hi], nbw[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    label = list(range(n))
    # vertex 0 alone stands in until a cut below inf turns up
    best, side = math.inf, [v == 0 for v in label]
    while len(adj) > 1:
        deg = [_fsum(row.values()) for row in adj]
        least = min(deg)
        if least < best:
            best, a = least, deg.index(least)
            side = [s == a for s in label]
        best, prefix, rep = _capforest(adj, deg, best)
        if prefix:
            inside = [False] * len(adj)
            for x in prefix:
                inside[x] = True
            side = [inside[s] for s in label]
        adj, new = _contract(adj, rep)
        label = [new[s] for s in label]
    cross = np.array(side)
    value = float(sum(g.w[cross[g.ei] != cross[g.ej]].tolist()))
    if not math.isfinite(value):
        raise NoConvergenceError(f"the minimal cut weight {value} overflows a float")
    return value


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
