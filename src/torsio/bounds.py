"""Structured evaluation of the rigidity and spectral comparison bounds.

Every bound is reported as a BoundCheck: hypothesis gates are machine
checked and an inapplicable bound states its reason; solver failures make a
check inconclusive, never a report failure.  Satisfaction allows a relative
slack of -1e-9 * (1 + |rhs|) so solver noise cannot flip a proven
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closed_forms import PathSpecParams, path_rigidity, reference_values
from .energy import VertexFunction
from .errors import TorsioError
from .geometry import min_cut_weight, q_inradius, q_mean_distance
from .graphs import (
    ProblemSpec,
    WeightedGraph,
    build_graph,
    degree,
    invert_edge_weights,
    merge_dirichlet,
)
from .solver import SolverOptions, TorsionSolution, solve_torsion
from .spectral import SpectralSolution, lambda0, lambda1_p2

SLACK_RTOL = 1e-9

_CHECK_ORDER = (
    "saint_venant_general",
    "saint_venant_p2_unit",
    "symmetrization_upper",
    "symmetrization_upper_mtilde",
    "polya_szego_product",
    "trivial_lower",
    "path_inradius_lower",
    "tree_inradius_lower",
    "rayleigh_symmetrization_lower",
    "mean_distance_lambda_lower",
    "mean_distance_rigidity_upper",
    "inradius_lambda_lower",
    "inradius_rigidity_upper",
    "landscape_lower",
    "fiedler_dirichlet",
    "fiedler_neumann_p2",
    "kohler_jobin_modified",
    "kohler_jobin_classical",
    "kohler_jobin_classical_unit",
    "normalized_saint_venant",
)


@dataclass(frozen=True)
class BoundCheck:
    """One inequality: lhs vs rhs with slack oriented so that slack >= 0
    means satisfied (rhs - lhs for upper bounds, lhs - rhs for lower)."""

    id: str
    statement: str
    applicable: bool
    reason: str = ""
    lhs: float | None = None
    rhs: float | None = None
    satisfied: bool | None = None
    slack: float | None = None

    @property
    def inconclusive(self) -> bool:
        return self.applicable and self.satisfied is None


def _upper(cid: str, statement: str, lhs: float, rhs: float, note: str = "") -> BoundCheck:
    slack = rhs - lhs
    return BoundCheck(
        id=cid,
        statement=statement,
        applicable=True,
        reason=note,
        lhs=float(lhs),
        rhs=float(rhs),
        satisfied=bool(slack >= -SLACK_RTOL * (1.0 + abs(rhs))),
        slack=float(slack),
    )


def _lower(cid: str, statement: str, lhs: float, rhs: float, note: str = "") -> BoundCheck:
    slack = lhs - rhs
    return BoundCheck(
        id=cid,
        statement=statement,
        applicable=True,
        reason=note,
        lhs=float(lhs),
        rhs=float(rhs),
        satisfied=bool(slack >= -SLACK_RTOL * (1.0 + abs(rhs))),
        slack=float(slack),
    )


def _skip(cid: str, statement: str, reason: str) -> BoundCheck:
    return BoundCheck(id=cid, statement=statement, applicable=False, reason=reason)


def _stuck(cid: str, statement: str, reason: str) -> BoundCheck:
    return BoundCheck(id=cid, statement=statement, applicable=True, reason=reason)


class _Ctx:
    """Shared lazily computed ingredients for the individual checks."""

    def __init__(self, spec: ProblemSpec, opts: SolverOptions | None = None):
        self.spec = spec
        self.opts = opts or SolverOptions()

    @cached_property
    def g(self) -> WeightedGraph:
        return self.spec.graph

    @cached_property
    def connected(self) -> bool:
        return self.g.is_connected

    @cached_property
    def eta(self) -> float:
        if self.g.vertex_count < 2:
            return 0.0
        return min_cut_weight(self.g)

    @cached_property
    def m_unit(self) -> bool:
        return all(m == 1.0 for m in self.g.measure.values())

    @cached_property
    def m_degree(self) -> bool:
        return all(
            abs(self.g.measure[v] - degree(self.g, v)) <= 1e-12 * max(1.0, degree(self.g, v))
            for v in self.g.vertices
        )

    @cached_property
    def b_standard(self) -> bool:
        return all(b == 1.0 for _, _, b in self.g.edges)

    @cached_property
    def c_zero(self) -> bool:
        return all(c == 0.0 for c in self.g.potential.values())

    @cached_property
    def is_path_end_dirichlet(self) -> bool:
        degs = [len(self.g.neighbors(v)) for v in self.g.vertices]
        if self.g.vertex_count < 2 or not self.connected:
            return False
        if sorted(degs)[:2] != [1, 1] or any(d > 2 for d in degs):
            return False
        if len(self.spec.dirichlet) != 1:
            return False
        (d0,) = self.spec.dirichlet
        return len(self.g.neighbors(d0)) == 1

    @cached_property
    def torsion(self) -> TorsionSolution | TorsioError:
        try:
            return solve_torsion(self.spec, self.opts)
        except TorsioError as exc:
            return exc

    @cached_property
    def spectral(self) -> SpectralSolution | TorsioError:
        try:
            return lambda0(self.spec, self.opts)
        except TorsioError as exc:
            return exc

    @cached_property
    def p_note(self) -> str:
        if self.spec.p == 2.0:
            return ""
        return "lambda0 for p != 2 is a variational upper bound (believed exact); lower-bound checks are consistency checks"

    def sorted_path_spec(
        self, order_by: VertexFunction, keep_potential: bool, edge_weight: float = 1.0
    ) -> ProblemSpec:
        """Homogeneous path on the same free data, ordered by ascending values
        of ``order_by`` (ties by internal index); Dirichlet merged to the
        left end when present."""
        free = sorted(
            self.spec.free_vertices,
            key=lambda v: (order_by[v], self.g.vertex_index(v)),
        )
        records = []
        if self.spec.dirichlet:
            pinned = [v for v in self.g.vertices if v in self.spec.dirichlet]
            m0 = sum(self.g.measure[v] for v in pinned)
            c0 = sum(self.g.potential[v] for v in pinned) if keep_potential else 0.0
            records.append(("p0", m0, c0))
        for j, v in enumerate(free, start=1 if self.spec.dirichlet else 0):
            records.append((f"p{j}", self.g.measure[v], self.g.potential[v] if keep_potential else 0.0))
        edges = [
            (records[i][0], records[i + 1][0], edge_weight)
            for i in range(len(records) - 1)
        ]
        gpath = build_graph(records, edges)
        d = frozenset({"p0"}) if self.spec.dirichlet else frozenset()
        return ProblemSpec(gpath, d, self.spec.p)

    def path_rigidity_of(self, spec: ProblemSpec) -> float:
        """T_p of a path spec built by sorted_path_spec (vertices in path
        order); closed form when the potential vanishes, solver otherwise."""
        if all(c == 0.0 for c in spec.graph.potential.values()) and spec.dirichlet:
            free = spec.free_vertices
            params = PathSpecParams(
                free_count=len(free),
                masses=tuple(spec.graph.measure[v] for v in free),
                weights=tuple(spec.graph.w.tolist()),  # edges in path order
                p=spec.p,
            )
            return path_rigidity(params)
        return solve_torsion(spec, self.opts).rigidity


def _ctx(spec: ProblemSpec, ctx: _Ctx | None) -> _Ctx:
    return ctx if ctx is not None else _Ctx(spec)


# --- upper bounds ---------------------------------------------------------


def saint_venant_general(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= n^(p-1)/eta * m(V\\V0)^p with n the free vertex count."""
    c = _ctx(spec, ctx)
    cid = "saint_venant_general"
    stmt = "T_p <= n^(p-1)/eta * m_free^p"
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    n = spec.free_count
    rhs = n ** (spec.p - 1.0) / c.eta * spec.free_measure() ** spec.p
    return _upper(cid, stmt, c.torsion.rigidity, rhs)


def saint_venant_p2_unit(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2(G;V0) <= n(n+1)(2n+1)/(6 eta) for m = 1; equality exactly on paths."""
    c = _ctx(spec, ctx)
    cid = "saint_venant_p2_unit"
    stmt = "T_2 <= n(n+1)(2n+1)/(6 eta)  [m = 1]"
    if spec.p != 2.0:
        return _skip(cid, stmt, "needs p = 2")
    if not c.m_unit:
        return _skip(cid, stmt, "needs unit masses")
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    n = spec.free_count
    rhs = n * (n + 1) * (2 * n + 1) / (6.0 * c.eta)
    return _upper(cid, stmt, c.torsion.rigidity, rhs)


def symmetrization_upper(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= T_p(P_eta;V0), P_eta the torsion-ordered homogeneous path
    of edge weight eta carrying the permuted masses and potentials.

    With zero potential this is the same as (1/eta) T_p of the unit-weight
    path; with a potential only the eta-weighted form survives the scaling
    step of the comparison argument."""
    c = _ctx(spec, ctx)
    cid = "symmetrization_upper"
    stmt = "T_p <= T_p(eta-weight path with m, c ordered by tau)"
    if not spec.well_posed:
        return _skip(cid, stmt, "spec is not well posed")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    path_spec = c.sorted_path_spec(c.torsion.tau, keep_potential=True, edge_weight=c.eta)
    try:
        rhs = c.path_rigidity_of(path_spec)
    except TorsioError as exc:
        return _stuck(cid, stmt, f"path comparison solve failed: {exc}")
    return _upper(cid, stmt, c.torsion.rigidity, rhs)


def symmetrization_upper_mtilde(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= (1/eta) T_p(P;V0) with the explicit mass profile that puts
    the minimum free mass everywhere except at the torsion argmax, which
    absorbs the excess; P has zero potential."""
    c = _ctx(spec, ctx)
    cid = "symmetrization_upper_mtilde"
    stmt = "T_p <= (1/eta) T_p(path with m_tilde, c = 0)"
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    free = spec.free_vertices
    m = spec.graph.measure
    m_min = min(m[v] for v in free)
    excess = sum(m[v] - m_min for v in free)
    masses = [m_min] * (len(free) - 1) + [m_min + excess]
    params = PathSpecParams(
        free_count=len(free),
        masses=tuple(masses),
        weights=tuple(1.0 for _ in free),
        p=spec.p,
    )
    rhs = path_rigidity(params) / c.eta
    return _upper(cid, stmt, c.torsion.rigidity, rhs)


def polya_szego_product(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p * T_p <= m(V\\V0)^(p-1) (m(V)^(p-1) without Dirichlet set);
    strict whenever the torsion function is nonconstant on the free part."""
    c = _ctx(spec, ctx)
    cid = "polya_szego_product"
    stmt = "lambda0 * T_p <= m_free^(p-1)"
    if not spec.well_posed:
        return _skip(cid, stmt, "spec is not well posed")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    if isinstance(c.spectral, TorsioError):
        return _stuck(cid, stmt, f"spectral solve failed: {c.spectral}")
    mass = spec.free_measure() if spec.dirichlet else spec.graph.total_measure()
    rhs = mass ** (spec.p - 1.0)
    lhs = c.spectral.lambda0 * c.torsion.rigidity
    return _upper(cid, stmt, lhs, rhs, note=c.p_note)


# --- lower bounds ---------------------------------------------------------


def trivial_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p >= m_free^p / (boundary edge weight + free potential mass)."""
    c = _ctx(spec, ctx)
    cid = "trivial_lower"
    stmt = "T_p >= m_free^p / (sum b(free, V0) + sum c(free))"
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    g = spec.graph
    if spec.dirichlet:
        denom = sum(
            b for v in spec.free_vertices for w, b in g.neighbors(v) if w in spec.dirichlet
        )
        denom += sum(g.potential[v] for v in spec.free_vertices)
        mass = spec.free_measure()
    else:
        denom = sum(g.potential.values())
        mass = g.total_measure()
    if denom <= 0.0:
        return _skip(cid, stmt, "denominator is zero")
    return _lower(cid, stmt, c.torsion.rigidity, mass**spec.p / denom)


def path_inradius_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For a path with one Dirichlet end and c = 0: T_p >= m_free^p / Inr_p."""
    c = _ctx(spec, ctx)
    cid = "path_inradius_lower"
    stmt = "T_p >= Inr_p(P;V0)^(-1) m_free^p  [path, Dirichlet end]"
    if not c.is_path_end_dirichlet:
        return _skip(cid, stmt, "graph is not a path with a single Dirichlet endpoint")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    inr = q_inradius(spec, spec.p)
    return _lower(cid, stmt, c.torsion.rigidity, spec.free_measure() ** spec.p / inr)


def tree_inradius_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For a finite tree with c = 0 and a single (merged) Dirichlet vertex:
    T_p >= min free mass^p / Inr_p.

    The comparison grows the inradius geodesic into the tree by single-vertex
    insertions, which is only valid once the Dirichlet set is one vertex;
    identifying a multi-vertex Dirichlet set must again leave a tree (a lone
    free vertex tied to two unit Dirichlet edges has T_2 = 1/2 against a
    naive bound of 1 otherwise).
    """
    c = _ctx(spec, ctx)
    cid = "tree_inradius_lower"
    stmt = "T_p >= Inr_p(T;V0)^(-1) min(m_free)^p  [tree, merged Dirichlet vertex]"
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if not c.connected:
        return _skip(cid, stmt, "needs a connected graph")
    merged = merge_dirichlet(spec)
    mg = merged.graph
    if mg.edge_count != mg.vertex_count - 1:
        return _skip(cid, stmt, "not a tree after identifying the Dirichlet set")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    inr = q_inradius(merged, spec.p)
    m_min = min(mg.measure[v] for v in merged.free_vertices)
    return _lower(cid, stmt, c.torsion.rigidity, m_min**spec.p / inr)


def rayleigh_symmetrization_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p(G;V0) >= lambda_0,p(P_eta;V0), P_eta the ground-state-ordered
    homogeneous path of edge weight eta; equals eta * lambda_0,p of the
    unit-weight path whenever the potential vanishes."""
    c = _ctx(spec, ctx)
    cid = "rayleigh_symmetrization_lower"
    stmt = "lambda0 >= lambda0(eta-weight path ordered by ground state)"
    if not spec.well_posed:
        return _skip(cid, stmt, "spec is not well posed")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.spectral, TorsioError):
        return _stuck(cid, stmt, f"spectral solve failed: {c.spectral}")
    path_spec = c.sorted_path_spec(
        c.spectral.ground_state, keep_potential=True, edge_weight=c.eta
    )
    try:
        lam_path = lambda0(path_spec, c.opts).lambda0
    except TorsioError as exc:
        return _stuck(cid, stmt, f"path comparison solve failed: {exc}")
    return _lower(cid, stmt, c.spectral.lambda0, lam_path, note=c.p_note)


def mean_distance_bounds(spec: ProblemSpec, ctx: _Ctx | None = None) -> tuple[BoundCheck, ...]:
    """Spectral lower and rigidity upper bounds from the mean distance and the
    inradius of the weight-inverted graph:

        lambda0 >= 1 / (m_free * Mean_p(G^-1;V0)) >= 1 / (m_free * Inr_p(G^-1;V0))
        T_p < m_free^p * Mean_p(G^-1;V0) <= m_free^p * Inr_p(G^-1;V0)
    """
    c = _ctx(spec, ctx)
    ids = (
        "mean_distance_lambda_lower",
        "mean_distance_rigidity_upper",
        "inradius_lambda_lower",
        "inradius_rigidity_upper",
    )
    stmts = (
        "lambda0 >= 1/(m_free * Mean_p(G^-1;V0))",
        "T_p < m_free^p * Mean_p(G^-1;V0)",
        "lambda0 >= 1/(m_free * Inr_p(G^-1;V0))",
        "T_p <= m_free^p * Inr_p(G^-1;V0)",
    )
    if not spec.dirichlet:
        return tuple(_skip(i, s, "needs a Dirichlet set") for i, s in zip(ids, stmts))
    if not c.connected:
        return tuple(_skip(i, s, "needs a connected graph") for i, s in zip(ids, stmts))
    inv_spec = ProblemSpec(invert_edge_weights(spec.graph), spec.dirichlet, spec.p)
    mean = q_mean_distance(inv_spec, spec.p)
    inr = q_inradius(inv_spec, spec.p)
    mass = spec.free_measure()
    out: list[BoundCheck] = []
    if isinstance(c.spectral, TorsioError):
        out.append(_stuck(ids[0], stmts[0], f"spectral solve failed: {c.spectral}"))
    else:
        out.append(_lower(ids[0], stmts[0], c.spectral.lambda0, 1.0 / (mass * mean), note=c.p_note))
    if isinstance(c.torsion, TorsioError):
        out.append(_stuck(ids[1], stmts[1], f"torsion solve failed: {c.torsion}"))
    else:
        out.append(_upper(ids[1], stmts[1], c.torsion.rigidity, mass**spec.p * mean))
    if isinstance(c.spectral, TorsioError):
        out.append(_stuck(ids[2], stmts[2], f"spectral solve failed: {c.spectral}"))
    else:
        out.append(_lower(ids[2], stmts[2], c.spectral.lambda0, 1.0 / (mass * inr), note=c.p_note))
    if isinstance(c.torsion, TorsioError):
        out.append(_stuck(ids[3], stmts[3], f"torsion solve failed: {c.torsion}"))
    else:
        out.append(_upper(ids[3], stmts[3], c.torsion.rigidity, mass**spec.p * inr))
    return tuple(out)


def landscape_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p >= 1 / ||tau_p||_inf^(p-1), the landscape-function bound."""
    c = _ctx(spec, ctx)
    cid = "landscape_lower"
    stmt = "lambda0 >= ||tau||_inf^(1-p)"
    if not spec.well_posed:
        return _skip(cid, stmt, "spec is not well posed")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    if isinstance(c.spectral, TorsioError):
        return _stuck(cid, stmt, f"spectral solve failed: {c.spectral}")
    sup = max(c.torsion.tau[v] for v in spec.free_vertices)
    return _lower(cid, stmt, c.spectral.lambda0, sup ** (1.0 - spec.p), note=c.p_note)


def fiedler_dirichlet(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For m = 1, c = 0: lambda_0,p >= eta * (sum_{k=1}^{n-1} (n-k)^(1/(p-1)))^(1-p),
    with n - 1 the free vertex count."""
    c = _ctx(spec, ctx)
    cid = "fiedler_dirichlet"
    stmt = "lambda0 >= eta * (sum_k k^(1/(p-1)))^(1-p)  [m = 1, c = 0]"
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.m_unit:
        return _skip(cid, stmt, "needs unit masses")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.spectral, TorsioError):
        return _stuck(cid, stmt, f"spectral solve failed: {c.spectral}")
    nfree = spec.free_count
    s = sum(k ** (1.0 / (spec.p - 1.0)) for k in range(1, nfree + 1))
    rhs = c.eta * s ** (1.0 - spec.p)
    return _lower(cid, stmt, c.spectral.lambda0, rhs, note=c.p_note)


def fiedler_neumann_p2(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For p = 2, m = 1, c = 0 on the full graph (no Dirichlet conditions):
    lambda_1,2(G) >= eta / sum_{k=1}^{n-1} (n-k) with n = |V|//2 + 1.

    n comes from padding the comparison path to an odd vertex count 2n-1 >=
    |V| before halving at its midpoint; taking n = |V|/2 on even counts is
    already falsified by the 4-vertex path (lambda1 = 2 - sqrt(2) < eta)."""
    c = _ctx(spec, ctx)
    cid = "fiedler_neumann_p2"
    stmt = "lambda1_2 >= eta * (sum_k (n-k))^(-1), n = |V|//2 + 1"
    if spec.p != 2.0:
        return _skip(cid, stmt, "implemented for p = 2 only")
    if not c.m_unit:
        return _skip(cid, stmt, "needs unit masses")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    nv = spec.graph.vertex_count
    if nv < 3:
        return _skip(cid, stmt, "degenerate two-vertex comparison")
    n = nv // 2 + 1
    lam1 = lambda1_p2(spec.graph)
    s = sum(n - k for k in range(1, n))
    return _lower(cid, stmt, lam1, c.eta / s)


def _kj_gates(c: _Ctx, cid: str, stmt: str, need_degree: bool) -> BoundCheck | None:
    spec = c.spec
    if spec.p != 2.0:
        return _skip(cid, stmt, "needs p = 2")
    if need_degree and not c.m_degree:
        return _skip(cid, stmt, "needs m = deg")
    if not need_degree and not c.m_unit:
        return _skip(cid, stmt, "needs unit masses")
    if not c.b_standard:
        return _skip(cid, stmt, "needs standard edge weights")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.connected:
        return _skip(cid, stmt, "needs a connected graph")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    if isinstance(c.spectral, TorsioError):
        return _stuck(cid, stmt, f"spectral solve failed: {c.spectral}")
    return None


def kohler_jobin_modified(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """(T_2 + E/3)^(2/3) * arccos(1 - lambda_0,2)^2 >= (pi / 6^(1/3))^2 for
    m = deg, b standard, c = 0; equality exactly on path graphs."""
    c = _ctx(spec, ctx)
    cid = "kohler_jobin_modified"
    stmt = "(T_2 + E/3)^(2/3) arccos(1 - lambda0)^2 >= (pi/6^(1/3))^2  [m = deg]"
    gate = _kj_gates(c, cid, stmt, need_degree=True)
    if gate is not None:
        return gate
    lam = c.spectral.lambda0
    if not -1e-9 <= lam <= 2.0 + 1e-9:
        return _stuck(cid, stmt, f"lambda0 = {lam} outside [0, 2]")
    E = spec.graph.edge_count
    x = min(1.0, max(-1.0, 1.0 - lam))
    lhs = (c.torsion.rigidity + E / 3.0) ** (2.0 / 3.0) * np.arccos(x) ** 2
    rhs = (np.pi / 6.0 ** (1.0 / 3.0)) ** 2
    return _lower(cid, stmt, lhs, rhs)


def kohler_jobin_classical(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2^(2/3) * lambda_0,2 >= 1 for m = deg, b standard, c = 0; equality
    exactly on the single-edge path."""
    c = _ctx(spec, ctx)
    cid = "kohler_jobin_classical"
    stmt = "T_2^(2/3) lambda0 >= 1  [m = deg]"
    gate = _kj_gates(c, cid, stmt, need_degree=True)
    if gate is not None:
        return gate
    lhs = c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0
    return _lower(cid, stmt, lhs, 1.0)


def kohler_jobin_classical_unit(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2^(2/3) * lambda_0,2 >= min deg / (max deg)^(4/3) over free vertices
    for m = 1, b standard, c = 0."""
    c = _ctx(spec, ctx)
    cid = "kohler_jobin_classical_unit"
    stmt = "T_2^(2/3) lambda0 >= min(deg)/max(deg)^(4/3)  [m = 1]"
    gate = _kj_gates(c, cid, stmt, need_degree=False)
    if gate is not None:
        return gate
    degs = [degree(spec.graph, v) for v in spec.free_vertices]
    rhs = min(degs) / max(degs) ** (4.0 / 3.0)
    lhs = c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0
    return _lower(cid, stmt, lhs, rhs)


def normalized_saint_venant(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2(G;V0) <= (max free deg)^2 / eta * T_2(P';V0) with P' the unit-mass
    unit-weight path on the same free count, for m = deg and c = 0.

    The quadratic degree factor is what the mass comparison m <= (max deg) * 1
    actually yields for p = 2 (each of l1 weight and torsion values scales by
    one factor); a linear factor is falsified already by the complete graph
    K4 and by paths with four or more free vertices.
    """
    c = _ctx(spec, ctx)
    cid = "normalized_saint_venant"
    stmt = "T_2 <= max(deg)^2/eta * T_2(unit path)  [m = deg]"
    if spec.p != 2.0:
        return _skip(cid, stmt, "needs p = 2")
    if not c.m_degree:
        return _skip(cid, stmt, "needs m = deg")
    if not c.c_zero:
        return _skip(cid, stmt, "needs zero potential")
    if not spec.dirichlet:
        return _skip(cid, stmt, "needs a Dirichlet set")
    if not c.connected or c.eta <= 0.0:
        return _skip(cid, stmt, "needs a connected graph (eta > 0)")
    if isinstance(c.torsion, TorsioError):
        return _stuck(cid, stmt, f"torsion solve failed: {c.torsion}")
    dmax = max(degree(spec.graph, v) for v in spec.free_vertices)
    rhs = dmax**2 / c.eta * reference_values("path_T2", spec.free_count, "unit")
    return _upper(cid, stmt, c.torsion.rigidity, rhs)


def torsion_ordered_path(spec: ProblemSpec, opts: SolverOptions | None = None) -> ProblemSpec:
    """The unit-weight comparison path of the symmetrization bound: free
    vertices ordered by ascending torsion values (ties by internal index),
    masses and potentials carried along, Dirichlet data merged at one end."""
    ctx = _Ctx(spec, opts)
    if isinstance(ctx.torsion, TorsioError):
        raise ctx.torsion
    return ctx.sorted_path_spec(ctx.torsion.tau, keep_potential=True)


# --- report ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    summary: dict
    checks: tuple[BoundCheck, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if c.applicable and c.satisfied is False)

    @property
    def inconclusive(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if c.inconclusive)

    def to_dict(self) -> dict:
        return {
            "summary": dict(self.summary),
            "checks": [
                {
                    "id": c.id,
                    "statement": c.statement,
                    "applicable": c.applicable,
                    "reason": c.reason,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "satisfied": c.satisfied,
                    "slack": c.slack,
                }
                for c in self.checks
            ],
            "diagnostics": dict(self.diagnostics),
            "violations": len(self.violations),
        }

    def to_markdown(self) -> str:
        lines = [
            "| id | applicable | lhs | rhs | satisfied | slack | reason |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for c in self.checks:
            fmt = lambda x: "" if x is None else format(x, ".12g")
            sat = "" if c.satisfied is None else ("yes" if c.satisfied else "NO")
            lines.append(
                f"| {c.id} | {'yes' if c.applicable else 'no'} | {fmt(c.lhs)} | "
                f"{fmt(c.rhs)} | {sat} | {fmt(c.slack)} | {c.reason} |"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        fmt = lambda x: "" if x is None else format(x, ".17g")
        lines = ["id,applicable,lhs,rhs,satisfied,slack,reason"]
        for c in self.checks:
            sat = "" if c.satisfied is None else ("true" if c.satisfied else "false")
            reason = c.reason.replace(",", ";")
            lines.append(
                f"{c.id},{'true' if c.applicable else 'false'},{fmt(c.lhs)},"
                f"{fmt(c.rhs)},{sat},{fmt(c.slack)},{reason}"
            )
        return "\n".join(lines)


def check_all(spec: ProblemSpec, opts: SolverOptions | None = None) -> BoundReport:
    """Run every bound whose hypotheses can be verified on this spec.

    Solver failures surface as inconclusive per-check states; the report
    itself always completes.  Check order is fixed and independent of
    evaluation order.
    """
    ctx = _Ctx(spec, opts)
    produced: dict[str, BoundCheck] = {}
    for fn in (
        saint_venant_general,
        saint_venant_p2_unit,
        symmetrization_upper,
        symmetrization_upper_mtilde,
        polya_szego_product,
        trivial_lower,
        path_inradius_lower,
        tree_inradius_lower,
        rayleigh_symmetrization_lower,
        landscape_lower,
        fiedler_dirichlet,
        fiedler_neumann_p2,
        kohler_jobin_modified,
        kohler_jobin_classical,
        kohler_jobin_classical_unit,
        normalized_saint_venant,
    ):
        chk = fn(spec, ctx)
        produced[chk.id] = chk
    for chk in mean_distance_bounds(spec, ctx):
        produced[chk.id] = chk

    checks = tuple(produced[cid] for cid in _CHECK_ORDER)
    g = spec.graph
    summary = {
        "vertices": g.vertex_count,
        "free": spec.free_count,
        "edges": g.edge_count,
        "p": spec.p,
        "dirichlet": sorted(spec.dirichlet, key=g.vertex_index),
        "connected": ctx.connected,
        "eta": ctx.eta,
        "m_unit": ctx.m_unit,
        "m_degree": ctx.m_degree,
        "b_standard": ctx.b_standard,
        "c_zero": ctx.c_zero,
    }
    diagnostics: dict = {}
    if isinstance(ctx.torsion, TorsioError):
        diagnostics["torsion_error"] = str(ctx.torsion)
    else:
        diagnostics["torsion_iterations"] = ctx.torsion.iterations
        diagnostics["torsion_residual"] = ctx.torsion.residual_inf
        diagnostics["torsion_method"] = ctx.torsion.method
    if isinstance(ctx.spectral, TorsioError):
        diagnostics["lambda0_error"] = str(ctx.spectral)
    else:
        diagnostics["lambda0_method"] = ctx.spectral.method
        diagnostics["lambda0_residual"] = ctx.spectral.residual
    if ctx.p_note:
        diagnostics["note"] = ctx.p_note
    return BoundReport(summary=summary, checks=checks, diagnostics=diagnostics)
