"""Structured evaluation of the rigidity and spectral comparison bounds.

Every bound is reported as a BoundCheck.  Each check names its hypotheses
once, in one ``_gate`` call: ``_GATES`` maps each hypothesis (p = 2, unit or
degree masses, standard weights, zero potential, a Dirichlet set, a
connected graph with eta > 0, ...) to its machine check and to the reason an
inapplicable bound states.  The same call names the torsion and spectral
solves the bound reads: a solve that failed, with a typed error or with
numpy's LinAlgError, makes the check inconclusive, never a report failure.
``_bound`` turns the computed sides into the verdict.  Satisfaction allows a
relative slack of -1e-9 * (1 + |rhs|) so solver noise cannot flip a proven
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .closed_forms import PathSpecParams, path_rigidity, reference_values
from .energy import VertexFunction
from .errors import TorsioError
from .geometry import min_cut_weight, q_inradius, q_inradius_and_mean
from .graphs import (
    ProblemSpec,
    WeightedGraph,
    boundary_entries,
    build_graph,
    degree,
    invert_edge_weights,
    merge_dirichlet,
)
from .solver import SolverOptions, TorsionSolution, solve_torsion
from .spectral import SpectralSolution, lambda0, lambda1_p2

SLACK_RTOL = 1e-9

# what a failed solve raises: a typed error, or numpy's LinAlgError from an
# exactly singular factorization
_FAILED = (TorsioError, np.linalg.LinAlgError)


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


def _bound(
    cid: str, statement: str, lhs: float, sense: Literal["<=", ">="], rhs: float, note: str = ""
) -> BoundCheck:
    """An applicable check of lhs <= rhs (an upper bound) or lhs >= rhs (a
    lower bound)."""
    slack = rhs - lhs if sense == "<=" else lhs - rhs
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


class _Ctx:
    """Shared lazily computed ingredients for the individual checks."""

    def __init__(self, spec: ProblemSpec, opts: SolverOptions | None = None):
        self.spec = spec
        self.g: WeightedGraph = spec.graph
        self.opts = opts or SolverOptions()

    @cached_property
    def eta(self) -> float:
        if self.g.vertex_count < 2:
            return 0.0
        return min_cut_weight(self.g)

    @cached_property
    def m_unit(self) -> bool:
        return bool((self.g.m == 1.0).all())

    @cached_property
    def m_degree(self) -> bool:
        degs = (degree(self.g, v) for v in self.g.vertices)
        return all(abs(m - d) <= 1e-12 * max(1.0, d) for m, d in zip(self.g.m.tolist(), degs))

    @cached_property
    def b_standard(self) -> bool:
        return bool((self.g.w == 1.0).all())

    @cached_property
    def c_zero(self) -> bool:
        return bool((self.g.c == 0.0).all())

    @cached_property
    def is_path_end_dirichlet(self) -> bool:
        degs = np.diff(self.g._indptr).tolist()  # neighbor counts
        return (
            self.g.vertex_count >= 2
            and self.g.is_connected
            and sorted(degs)[:2] == [1, 1]
            and max(degs) <= 2
            and len(self.spec.dirichlet) == 1
            and degs[self.g.vertex_index(next(iter(self.spec.dirichlet)))] == 1
        )

    @cached_property
    def torsion(self) -> TorsionSolution | TorsioError | np.linalg.LinAlgError:
        try:
            return solve_torsion(self.spec, self.opts)
        except _FAILED as exc:
            return exc

    @cached_property
    def spectral(self) -> SpectralSolution | TorsioError | np.linalg.LinAlgError:
        try:
            return lambda0(self.spec, self.opts)
        except _FAILED as exc:
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
            pinned = np.flatnonzero(self.spec._pinned)
            m0 = sum(self.g.m[pinned].tolist())
            c0 = sum(self.g.c[pinned].tolist()) if keep_potential else 0.0
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


# hypothesis -> (whether it holds, the reason a check gives when it does not)
_GATES: dict[str, tuple[Callable[[_Ctx], bool], str]] = {
    "p2": (lambda c: c.spec.p == 2.0, "needs p = 2"),
    "p2_only": (lambda c: c.spec.p == 2.0, "implemented for p = 2 only"),
    "m_unit": (lambda c: c.m_unit, "needs unit masses"),
    "m_degree": (lambda c: c.m_degree, "needs m = deg"),
    "b_standard": (lambda c: c.b_standard, "needs standard edge weights"),
    "c_zero": (lambda c: c.c_zero, "needs zero potential"),
    "dirichlet": (lambda c: bool(c.spec.dirichlet), "needs a Dirichlet set"),
    "well_posed": (lambda c: c.spec.well_posed, "spec is not well posed"),
    "connected": (lambda c: c.g.is_connected, "needs a connected graph"),
    # the min cut runs only on a connected graph
    "eta": (lambda c: c.g.is_connected and c.eta > 0.0, "needs a connected graph (eta > 0)"),
    "path_end": (
        lambda c: c.is_path_end_dirichlet,
        "graph is not a path with a single Dirichlet endpoint",
    ),
}


def _gate(c: _Ctx, cid: str, stmt: str, *needs: str) -> BoundCheck | None:
    """The check's verdict on its first unmet need, or None when all hold.

    The needs are walked in the order given and each is evaluated only when
    the walk reaches it.  A hypothesis of _GATES that fails makes the check
    not applicable; "torsion" or "spectral" whose solve failed makes it
    inconclusive."""
    for need in needs:
        if need in ("torsion", "spectral"):
            sol = getattr(c, need)
            if isinstance(sol, _FAILED):
                return BoundCheck(cid, stmt, True, f"{need} solve failed: {sol}")
        elif not _GATES[need][0](c):
            return BoundCheck(cid, stmt, False, _GATES[need][1])
    return None


# --- upper bounds ---------------------------------------------------------


def saint_venant_general(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= n^(p-1)/eta * m(V\\V0)^p with n the free vertex count."""
    c = _ctx(spec, ctx)
    cid, stmt = "saint_venant_general", "T_p <= n^(p-1)/eta * m_free^p"
    if gate := _gate(c, cid, stmt, "dirichlet", "eta", "torsion"):
        return gate
    n = spec.free_count
    rhs = n ** (spec.p - 1.0) / c.eta * spec.free_measure() ** spec.p
    return _bound(cid, stmt, c.torsion.rigidity, "<=", rhs)


def saint_venant_p2_unit(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2(G;V0) <= n(n+1)(2n+1)/(6 eta) for m = 1; equality exactly on paths."""
    c = _ctx(spec, ctx)
    cid, stmt = "saint_venant_p2_unit", "T_2 <= n(n+1)(2n+1)/(6 eta)  [m = 1]"
    if gate := _gate(c, cid, stmt, "p2", "m_unit", "dirichlet", "eta", "torsion"):
        return gate
    n = spec.free_count
    rhs = n * (n + 1) * (2 * n + 1) / (6.0 * c.eta)
    return _bound(cid, stmt, c.torsion.rigidity, "<=", rhs)


def symmetrization_upper(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= T_p(P_eta;V0), P_eta the torsion-ordered homogeneous path
    of edge weight eta carrying the permuted masses and potentials.

    With zero potential this is the same as (1/eta) T_p of the unit-weight
    path; with a potential only the eta-weighted form survives the scaling
    step of the comparison argument."""
    c = _ctx(spec, ctx)
    cid, stmt = "symmetrization_upper", "T_p <= T_p(eta-weight path with m, c ordered by tau)"
    if gate := _gate(c, cid, stmt, "well_posed", "eta", "torsion"):
        return gate
    path_spec = c.sorted_path_spec(c.torsion.tau, keep_potential=True, edge_weight=c.eta)
    try:
        rhs = c.path_rigidity_of(path_spec)
    except _FAILED as exc:
        return BoundCheck(cid, stmt, True, f"path comparison solve failed: {exc}")
    return _bound(cid, stmt, c.torsion.rigidity, "<=", rhs)


def symmetrization_upper_mtilde(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p(G;V0) <= (1/eta) T_p(P;V0) with the explicit mass profile that puts
    the minimum free mass everywhere except at the torsion argmax, which
    absorbs the excess; P has zero potential."""
    c = _ctx(spec, ctx)
    cid, stmt = "symmetrization_upper_mtilde", "T_p <= (1/eta) T_p(path with m_tilde, c = 0)"
    if gate := _gate(c, cid, stmt, "dirichlet", "eta", "torsion"):
        return gate
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
    return _bound(cid, stmt, c.torsion.rigidity, "<=", rhs)


def polya_szego_product(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p * T_p <= m(V\\V0)^(p-1) (m(V)^(p-1) without Dirichlet set);
    strict whenever the torsion function is nonconstant on the free part."""
    c = _ctx(spec, ctx)
    cid, stmt = "polya_szego_product", "lambda0 * T_p <= m_free^(p-1)"
    if gate := _gate(c, cid, stmt, "well_posed", "torsion", "spectral"):
        return gate
    rhs = spec.free_measure() ** (spec.p - 1.0)
    lhs = c.spectral.lambda0 * c.torsion.rigidity
    return _bound(cid, stmt, lhs, "<=", rhs, note=c.p_note)


# --- lower bounds ---------------------------------------------------------


def trivial_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_p >= m_free^p / (boundary edge weight + free potential mass)."""
    c = _ctx(spec, ctx)
    cid, stmt = "trivial_lower", "T_p >= m_free^p / (sum b(free, V0) + sum c(free))"
    if gate := _gate(c, cid, stmt, "torsion"):
        return gate
    denom = sum(boundary_entries(spec)[1])
    denom += sum(spec.graph.potential[v] for v in spec.free_vertices)
    if denom <= 0.0:
        return BoundCheck(cid, stmt, False, "denominator is zero")
    return _bound(cid, stmt, c.torsion.rigidity, ">=", spec.free_measure() ** spec.p / denom)


def path_inradius_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For a path with one Dirichlet end and c = 0: T_p >= m_free^p / Inr_p."""
    c = _ctx(spec, ctx)
    cid, stmt = "path_inradius_lower", "T_p >= Inr_p(P;V0)^(-1) m_free^p  [path, Dirichlet end]"
    if gate := _gate(c, cid, stmt, "path_end", "c_zero", "torsion"):
        return gate
    inr = q_inradius(spec, spec.p)
    return _bound(cid, stmt, c.torsion.rigidity, ">=", spec.free_measure() ** spec.p / inr)


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
    if gate := _gate(c, cid, stmt, "dirichlet", "c_zero", "connected"):
        return gate
    merged = merge_dirichlet(spec)
    mg = merged.graph
    if mg.edge_count != mg.vertex_count - 1:
        return BoundCheck(cid, stmt, False, "not a tree after identifying the Dirichlet set")
    if gate := _gate(c, cid, stmt, "torsion"):
        return gate
    inr = q_inradius(merged, spec.p)
    m_min = min(mg.measure[v] for v in merged.free_vertices)
    return _bound(cid, stmt, c.torsion.rigidity, ">=", m_min**spec.p / inr)


def rayleigh_symmetrization_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p(G;V0) >= lambda_0,p(P_eta;V0), P_eta the ground-state-ordered
    homogeneous path of edge weight eta; equals eta * lambda_0,p of the
    unit-weight path whenever the potential vanishes."""
    c = _ctx(spec, ctx)
    cid = "rayleigh_symmetrization_lower"
    stmt = "lambda0 >= lambda0(eta-weight path ordered by ground state)"
    if gate := _gate(c, cid, stmt, "well_posed", "eta", "spectral"):
        return gate
    path_spec = c.sorted_path_spec(
        c.spectral.ground_state, keep_potential=True, edge_weight=c.eta
    )
    try:
        lam_path = lambda0(path_spec, c.opts).lambda0
    except _FAILED as exc:
        return BoundCheck(cid, stmt, True, f"path comparison solve failed: {exc}")
    return _bound(cid, stmt, c.spectral.lambda0, ">=", lam_path, note=c.p_note)


def mean_distance_bounds(spec: ProblemSpec, ctx: _Ctx | None = None) -> tuple[BoundCheck, ...]:
    """Spectral lower and rigidity upper bounds from the mean distance and the
    inradius of the weight-inverted graph:

        lambda0 >= 1 / (m_free * Mean_p(G^-1;V0)) >= 1 / (m_free * Inr_p(G^-1;V0))
        T_p < m_free^p * Mean_p(G^-1;V0) <= m_free^p * Inr_p(G^-1;V0)
    """
    c = _ctx(spec, ctx)
    heads = (
        ("mean_distance_lambda_lower", "lambda0 >= 1/(m_free * Mean_p(G^-1;V0))"),
        ("mean_distance_rigidity_upper", "T_p < m_free^p * Mean_p(G^-1;V0)"),
        ("inradius_lambda_lower", "lambda0 >= 1/(m_free * Inr_p(G^-1;V0))"),
        ("inradius_rigidity_upper", "T_p <= m_free^p * Inr_p(G^-1;V0)"),
    )
    if gate := _gate(c, *heads[0], "dirichlet", "connected"):
        return tuple(replace(gate, id=cid, statement=stmt) for cid, stmt in heads)
    inv_spec = ProblemSpec(invert_edge_weights(spec.graph), spec.dirichlet, spec.p)
    inr, mean = q_inradius_and_mean(inv_spec, spec.p)
    mass = spec.free_measure()
    out: list[BoundCheck] = []
    rows = zip(heads, (mean, mean, inr, inr), ("spectral", "torsion", "spectral", "torsion"))
    for (cid, stmt), dist, solve in rows:
        if gate := _gate(c, cid, stmt, solve):
            out.append(gate)
        elif solve == "spectral":
            lam_rhs = 1.0 / (mass * dist)
            out.append(_bound(cid, stmt, c.spectral.lambda0, ">=", lam_rhs, note=c.p_note))
        else:
            out.append(_bound(cid, stmt, c.torsion.rigidity, "<=", mass**spec.p * dist))
    return tuple(out)


def landscape_lower(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """lambda_0,p >= 1 / ||tau_p||_inf^(p-1), the landscape-function bound."""
    c = _ctx(spec, ctx)
    cid, stmt = "landscape_lower", "lambda0 >= ||tau||_inf^(1-p)"
    if gate := _gate(c, cid, stmt, "well_posed", "torsion", "spectral"):
        return gate
    sup = max(c.torsion.tau[v] for v in spec.free_vertices)
    return _bound(cid, stmt, c.spectral.lambda0, ">=", sup ** (1.0 - spec.p), note=c.p_note)


def fiedler_dirichlet(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For m = 1, c = 0: lambda_0,p >= eta * (sum_{k=1}^{n-1} (n-k)^(1/(p-1)))^(1-p),
    with n - 1 the free vertex count."""
    c = _ctx(spec, ctx)
    cid = "fiedler_dirichlet"
    stmt = "lambda0 >= eta * (sum_k k^(1/(p-1)))^(1-p)  [m = 1, c = 0]"
    if gate := _gate(c, cid, stmt, "dirichlet", "m_unit", "c_zero", "eta", "spectral"):
        return gate
    nfree = spec.free_count
    s = sum(k ** (1.0 / (spec.p - 1.0)) for k in range(1, nfree + 1))
    rhs = c.eta * s ** (1.0 - spec.p)
    return _bound(cid, stmt, c.spectral.lambda0, ">=", rhs, note=c.p_note)


def fiedler_neumann_p2(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """For p = 2, m = 1, c = 0 on the full graph (no Dirichlet conditions):
    lambda_1,2(G) >= eta / sum_{k=1}^{n-1} (n-k) with n = |V|//2 + 1.

    n comes from padding the comparison path to an odd vertex count 2n-1 >=
    |V| before halving at its midpoint; taking n = |V|/2 on even counts is
    already falsified by the 4-vertex path (lambda1 = 2 - sqrt(2) < eta)."""
    c = _ctx(spec, ctx)
    cid, stmt = "fiedler_neumann_p2", "lambda1_2 >= eta * (sum_k (n-k))^(-1), n = |V|//2 + 1"
    if gate := _gate(c, cid, stmt, "p2_only", "m_unit", "c_zero", "eta"):
        return gate
    nv = spec.graph.vertex_count
    if nv < 3:
        return BoundCheck(cid, stmt, False, "degenerate two-vertex comparison")
    n = nv // 2 + 1
    lam1 = lambda1_p2(spec.graph)
    s = sum(n - k for k in range(1, n))
    return _bound(cid, stmt, lam1, ">=", c.eta / s)


# the hypotheses of the Kohler-Jobin checks after p = 2 and their mass condition
_KJ_NEEDS = ("b_standard", "c_zero", "dirichlet", "connected", "torsion", "spectral")


def kohler_jobin_modified(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """(T_2 + E/3)^(2/3) * arccos(1 - lambda_0,2)^2 >= (pi / 6^(1/3))^2 for
    m = deg, b standard, c = 0; equality exactly on path graphs."""
    c = _ctx(spec, ctx)
    cid = "kohler_jobin_modified"
    stmt = "(T_2 + E/3)^(2/3) arccos(1 - lambda0)^2 >= (pi/6^(1/3))^2  [m = deg]"
    if gate := _gate(c, cid, stmt, "p2", "m_degree", *_KJ_NEEDS):
        return gate
    lam = c.spectral.lambda0
    if not -1e-9 <= lam <= 2.0 + 1e-9:
        return BoundCheck(cid, stmt, True, f"lambda0 = {lam} outside [0, 2]")
    E = spec.graph.edge_count
    x = min(1.0, max(-1.0, 1.0 - lam))
    lhs = (c.torsion.rigidity + E / 3.0) ** (2.0 / 3.0) * np.arccos(x) ** 2
    rhs = (np.pi / 6.0 ** (1.0 / 3.0)) ** 2
    return _bound(cid, stmt, lhs, ">=", rhs)


def kohler_jobin_classical(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2^(2/3) * lambda_0,2 >= 1 for m = deg, b standard, c = 0; equality
    exactly on the single-edge path."""
    c = _ctx(spec, ctx)
    cid, stmt = "kohler_jobin_classical", "T_2^(2/3) lambda0 >= 1  [m = deg]"
    if gate := _gate(c, cid, stmt, "p2", "m_degree", *_KJ_NEEDS):
        return gate
    lhs = c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0
    return _bound(cid, stmt, lhs, ">=", 1.0)


def kohler_jobin_classical_unit(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2^(2/3) * lambda_0,2 >= min deg / (max deg)^(4/3) over free vertices
    for m = 1, b standard, c = 0."""
    c = _ctx(spec, ctx)
    cid = "kohler_jobin_classical_unit"
    stmt = "T_2^(2/3) lambda0 >= min(deg)/max(deg)^(4/3)  [m = 1]"
    if gate := _gate(c, cid, stmt, "p2", "m_unit", *_KJ_NEEDS):
        return gate
    degs = [degree(spec.graph, v) for v in spec.free_vertices]
    rhs = min(degs) / max(degs) ** (4.0 / 3.0)
    lhs = c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0
    return _bound(cid, stmt, lhs, ">=", rhs)


def normalized_saint_venant(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
    """T_2(G;V0) <= (max free deg)^2 / eta * T_2(P';V0) with P' the unit-mass
    unit-weight path on the same free count, for m = deg and c = 0.

    The quadratic degree factor is what the mass comparison m <= (max deg) * 1
    actually yields for p = 2 (each of l1 weight and torsion values scales by
    one factor); a linear factor is falsified already by the complete graph
    K4 and by paths with four or more free vertices.
    """
    c = _ctx(spec, ctx)
    cid, stmt = "normalized_saint_venant", "T_2 <= max(deg)^2/eta * T_2(unit path)  [m = deg]"
    if gate := _gate(c, cid, stmt, "p2", "m_degree", "c_zero", "dirichlet", "eta", "torsion"):
        return gate
    dmax = max(degree(spec.graph, v) for v in spec.free_vertices)
    rhs = dmax**2 / c.eta * reference_values("path_T2", spec.free_count, "unit")
    return _bound(cid, stmt, c.torsion.rigidity, "<=", rhs)


def torsion_ordered_path(spec: ProblemSpec, opts: SolverOptions | None = None) -> ProblemSpec:
    """The unit-weight comparison path of the symmetrization bound: free
    vertices ordered by ascending torsion values (ties by internal index),
    masses and potentials carried along, Dirichlet data merged at one end."""
    ctx = _Ctx(spec, opts)
    if isinstance(ctx.torsion, _FAILED):
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


# every check in report order; mean_distance_bounds yields four
_CHECKS = (
    saint_venant_general,
    saint_venant_p2_unit,
    symmetrization_upper,
    symmetrization_upper_mtilde,
    polya_szego_product,
    trivial_lower,
    path_inradius_lower,
    tree_inradius_lower,
    rayleigh_symmetrization_lower,
    mean_distance_bounds,
    landscape_lower,
    fiedler_dirichlet,
    fiedler_neumann_p2,
    kohler_jobin_modified,
    kohler_jobin_classical,
    kohler_jobin_classical_unit,
    normalized_saint_venant,
)


def check_all(spec: ProblemSpec, opts: SolverOptions | None = None) -> BoundReport:
    """Run every bound whose hypotheses can be verified on this spec.

    Solver failures surface as inconclusive per-check states; the report
    itself always completes.  The checks come in the order of _CHECKS.
    """
    ctx = _Ctx(spec, opts)
    checks: list[BoundCheck] = []
    for fn in _CHECKS:
        out = fn(spec, ctx)
        checks.extend(out if isinstance(out, tuple) else (out,))
    g = spec.graph
    summary = {
        "vertices": g.vertex_count,
        "free": spec.free_count,
        "edges": g.edge_count,
        "p": spec.p,
        "dirichlet": sorted(spec.dirichlet, key=g.vertex_index),
        "connected": ctx.g.is_connected,
        "eta": ctx.eta,
        "m_unit": ctx.m_unit,
        "m_degree": ctx.m_degree,
        "b_standard": ctx.b_standard,
        "c_zero": ctx.c_zero,
    }
    diagnostics: dict = {}
    if isinstance(ctx.torsion, _FAILED):
        diagnostics["torsion_error"] = str(ctx.torsion)
    else:
        diagnostics["torsion_iterations"] = ctx.torsion.iterations
        diagnostics["torsion_residual"] = ctx.torsion.residual_inf
        diagnostics["torsion_method"] = ctx.torsion.method
    if isinstance(ctx.spectral, _FAILED):
        diagnostics["lambda0_error"] = str(ctx.spectral)
    else:
        diagnostics["lambda0_method"] = ctx.spectral.method
        diagnostics["lambda0_residual"] = ctx.spectral.residual
    if ctx.p_note:
        diagnostics["note"] = ctx.p_note
    return BoundReport(summary=summary, checks=tuple(checks), diagnostics=diagnostics)
