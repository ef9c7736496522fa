"""Seeded inputs and fixed operation lists of the benchmark workloads.

Everything the program receives is built here: graphs through the public
``build_graph``/``ProblemSpec`` and command-line documents as JSON text.
The same seed always gives the same inputs.  Grids, paths, stars and the
random graphs at p < 2 (see FIXED_SEED) do not depend on the seed; every
other random graph does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from torsio import ProblemSpec, build_graph

WORKLOADS = ("solve", "cli_small")

# Below p = 2 the time to solve a random graph has a heavy tail: most
# n = 400 graphs solve at p = 1.5 in under a second, about one in fifteen
# fails after 67 s in the Gauss-Seidel polish, and at p = 1.2 on n = 30 the
# time to fail ranges from 3 s to 36 s.  One such graph would decide run_s
# on its own, so random graphs at p < 2 come from this fixed generator seed
# and the run seed draws only the random graphs at p >= 2.
FIXED_SEED = 0


@dataclass
class Instance:
    """A problem spec with the label the report uses for it."""

    label: str
    spec: ProblemSpec
    kind: str  # "grid", "random", "path" or "star"
    records: tuple  # (vertex records, edge records, Dirichlet ids) behind spec


@dataclass
class Document:
    """One command-line call: a GraphDocument plus the subcommand run on it."""

    label: str
    records: tuple  # (vertex records, edge records, Dirichlet ids)
    p: float
    argv_tail: tuple[str, ...]  # subcommand words before the file name
    extra: tuple[str, ...]  # options after the file name
    kind: str  # "random", "path" or "star"
    text: str = field(init=False, default="")

    def __post_init__(self) -> None:
        self.text = json.dumps(document(self.records, self.p))


class BuildClock:
    """Adds up the time spent inside build_graph while inputs are made."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def build(self, vertex_records, edge_records):
        t0 = time.perf_counter()
        g = build_graph(vertex_records, edge_records)
        self.seconds += time.perf_counter() - t0
        return g


# -- graph generators ------------------------------------------------------


def grid_records(n: int):
    """n x n grid with unit masses and weights; the boundary ring is Dirichlet."""
    ids = [f"v{k}" for k in range(n * n)]
    edges = []
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if i + 1 < n:
                edges.append((ids[k], ids[k + n], 1.0))
            if j + 1 < n:
                edges.append((ids[k], ids[k + 1], 1.0))
    boundary = [ids[i * n + j] for i in range(n) for j in range(n)
                if i in (0, n - 1) or j in (0, n - 1)]
    return [(v, 1.0, 0.0) for v in ids], edges, boundary


def random_records(rng: np.random.Generator, n: int, degree: float, dirichlet: int):
    """O(E) sparse connected graph: a uniform random recursive spanning tree
    plus distinct extra edges up to the average degree, weights U(0.5, 2),
    unit masses and ``dirichlet`` random Dirichlet vertices whose removal
    leaves the free vertices connected."""
    perm = rng.permutation(n)
    parents = rng.integers(0, np.arange(1, n))
    pairs: set[tuple[int, int]] = set()
    for k in range(1, n):
        a, b = int(perm[k]), int(perm[parents[k - 1]])
        pairs.add((min(a, b), max(a, b)))
    target = max(n - 1, int(round(degree * n / 2)))
    target = min(target, n * (n - 1) // 2)
    while len(pairs) < target:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    ordered = sorted(pairs)
    weights = rng.uniform(0.5, 2.0, len(ordered))
    ids = [f"v{k}" for k in range(n)]
    edges = [(ids[a], ids[b], float(w)) for (a, b), w in zip(ordered, weights)]
    # redraw V0 until the free vertices stay connected: then every ground
    # state is positive and its Barta/Rayleigh bracket applies
    a = sp.coo_matrix((np.ones(len(ordered)), tuple(np.array(ordered).T)), shape=(n, n))
    while True:
        chosen = rng.choice(n, size=dirichlet, replace=False)
        free = np.setdiff1d(np.arange(n), chosen)
        if csgraph.connected_components(a.tocsr()[free][:, free], directed=False)[0] == 1:
            return [(v, 1.0, 0.0) for v in ids], edges, [ids[int(k)] for k in chosen]


def path_records(edges: int, m_mode: str):
    """Path v0 - ... - vE with unit weights and Dirichlet end v0."""
    ids = [f"v{j}" for j in range(edges + 1)]
    deg = [1.0] + [2.0] * (edges - 1) + [1.0] if edges > 1 else [1.0, 1.0]
    masses = deg if m_mode == "degree" else [1.0] * (edges + 1)
    recs = [(v, m, 0.0) for v, m in zip(ids, masses)]
    return recs, [(ids[j - 1], ids[j], 1.0) for j in range(1, edges + 1)], ["v0"]


def star_records(edges: int, m_mode: str):
    """Star with centre v1, Dirichlet leaf v0 and free leaves v2..vE."""
    ids = [f"v{j}" for j in range(edges + 1)]
    masses = {v: 1.0 for v in ids}
    if m_mode == "degree":
        masses["v1"] = float(edges)
    recs = [(v, masses[v], 0.0) for v in ids]
    return recs, [("v1", v, 1.0) for v in ids if v != "v1"], ["v0"]


def document(records, p: float) -> dict:
    vertices, edges, dirichlet = records
    return {
        "version": 1,
        "vertices": [{"id": v, "m": m} for v, m, _ in vertices],
        "edges": [{"u": u, "v": v, "b": b} for u, v, b in edges],
        "dirichlet": list(dirichlet),
        "p": p,
    }


# -- workload inputs -------------------------------------------------------


def _spec(clock: BuildClock, label: str, kind: str, records, p: float) -> Instance:
    vertices, edges, dirichlet = records
    spec = ProblemSpec(clock.build(vertices, edges), frozenset(dirichlet), p)
    return Instance(label, spec, kind, records)


def solve_inputs(seed: int, clock: BuildClock) -> list[tuple[str, Instance]]:
    """Operation list of ``solve``: (operation, instance) pairs, where the
    operation is "torsion" (solve_torsion) or "lambda0"."""
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng([FIXED_SEED, 1])
    ops: list[tuple[str, Instance]] = []
    # p = 2 at a few thousand vertices: small separators against an expander
    grid100 = grid_records(100)
    rand3000 = random_records(rng, 3000, 6.0, 4)
    for label, kind, recs in (("grid100", "grid", grid100), ("random3000", "random", rand3000)):
        inst = _spec(clock, f"{label}_p2", kind, recs, 2.0)
        ops += [("torsion", inst), ("lambda0", inst)]
    # near n = 400: Newton with its dense Hessian, the GS polish, inverse power
    grid20 = grid_records(20)
    for p in (1.5, 3.0, 8.0):
        inst = _spec(clock, f"grid20_p{p:g}", "grid", grid20, p)
        ops.append(("torsion", inst))
        if p != 1.5:
            ops.append(("lambda0", inst))
    # inverse power at p = 1.5 runs the GS polish in every outer step: 4 to
    # 6 s on this 10 x 10 grid, 33 s on the 20 x 20 one
    inst = _spec(clock, "grid10_p1.5", "grid", grid_records(10), 1.5)
    ops += [("torsion", inst), ("lambda0", inst)]
    inst = _spec(clock, "random400_fixed_p1.5", "random", random_records(fixed, 400, 6.0, 4), 1.5)
    ops += [("torsion", inst), ("lambda0", inst)]
    # many cheap seeded graphs, so the latency quantiles rest on many draws
    for k in range(6):
        recs = random_records(rng, 400, 6.0, 4)
        for p in (3.0, 8.0):
            inst = _spec(clock, f"random400_{k}_p{p:g}", "random", recs, p)
            ops += [("torsion", inst), ("lambda0", inst)]
    p12 = random_records(fixed, 30, 4.0, 2)
    ops.append(("torsion", _spec(clock, "random30_fixed_p1.2", "random", p12, 1.2)))
    return ops


CLI_COMMANDS = (
    ("validate",),
    ("torsion",),
    ("lambda0",),
    ("metrics",),
    ("bounds",),
    ("surgery", "merge-dirichlet"),
    ("surgery", "scale"),
    ("surgery", "invert"),
)


def cli_inputs(seed: int) -> list[Document]:
    """Documents of ``cli_small``.  Paths and stars are a fixed set, so their
    closed forms always cover the same sizes; the seed draws the random
    graphs at p >= 2 and the order of all calls."""
    rng = np.random.default_rng([seed, 3])
    docs: list[Document] = []
    sizes = (1, 2, 3, 5, 8, 13, 21, 34, 40)
    for family, records in (("path", path_records), ("star", star_records)):
        for p in (1.2, 1.5, 2.0, 3.0, 8.0):
            for m_mode in ("unit", "degree"):
                for i, edges in enumerate(sizes):
                    cmd = CLI_COMMANDS[(i + len(docs)) % len(CLI_COMMANDS)]
                    docs.append(_document(f"{family}{edges}_{m_mode}_p{p:g}", family,
                                          records(edges, m_mode), p, cmd))
    fixed = np.random.default_rng([FIXED_SEED, 3])
    for k in range(60):
        p = (1.5, 2.0, 3.0)[k % 3]
        source = fixed if p < 2.0 else rng
        n = int(source.integers(5, 41))
        recs = random_records(source, n, float(source.uniform(2.5, 4.0)),
                              int(source.integers(1, 4)))
        docs.append(_document(f"random{n}_{k}_p{p:g}", "random", recs, p,
                              CLI_COMMANDS[k % len(CLI_COMMANDS)]))
    order = rng.permutation(len(docs))
    return [docs[int(i)] for i in order]


def _document(label, kind, records, p, cmd) -> Document:
    extra = ("--mu", "2", "--lam", "0.5") if cmd == ("surgery", "scale") else ()
    return Document(f"{label}_{'-'.join(cmd)}", records, p, cmd, extra, kind)
