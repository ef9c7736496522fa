"""Structured evaluation of the rigidity and spectral comparison bounds.

Every bound is reported as a BoundCheck and declared once, by
``@_check(id, statement, *needs)`` on a body that maps the shared context
``_Ctx`` to ``(lhs, sense, rhs[, note])``.  The declarations form the
registry, whose order is the report order.  ``_evaluate`` is the one path
every check takes, alone or in ``check_all``: it walks the needs in the
order declared, then runs the body, then ``_bound``.

A need is a hypothesis or a solve.  ``_GATES`` maps each hypothesis (p = 2,
unit or degree masses, standard weights, zero potential, a Dirichlet set, a
connected graph with eta > 0, a tree once the Dirichlet set is merged, a
positive denominator, at least three vertices, ...) to its machine check and
to the reason an inapplicable bound states; each is evaluated only when the
walk reaches it.  "torsion" and "spectral" name the solves the body reads: a
solve that failed, with a typed error or with numpy's LinAlgError, makes the
check inconclusive, never a report failure.

The body runs with numpy's floating-point warnings off.  It makes the check
inconclusive by raising ``_Inconclusive`` (a failed path-comparison solve,
lambda0 outside [0, 2] in the modified Kohler-Jobin product, a
weight-inverted graph that leaves float range in the four mean-distance and
inradius rows: an inverted weight 1/b or a distance of it that overflows)
or an ArithmeticError of its own float arithmetic (a power that overflows, a
division by a distance that underflowed to 0), and ``_bound`` does the same
for a side that is not finite.  Other typed errors of the geometry it
calls, such as an edge cost of the input graph that overflows
(InvalidQError), propagate.  Satisfaction
allows a relative slack of -1e-9 * (1 + |rhs|) so solver noise cannot flip a
proven inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .closed_forms import PathSpecParams, path_rigidity, reference_values
from .energy import VertexFunction
from .errors import InvalidQError, NegativeWeightError, TorsioError
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


class _Inconclusive(Exception):
    """Raised by a check body that cannot reach a verdict; the message is
    the check's reason."""


def _bound(
    cid: str, statement: str, lhs: float, sense: Literal["<=", ">="], rhs: float, note: str = ""
) -> BoundCheck:
    """An applicable check of lhs <= rhs (an upper bound) or lhs >= rhs (a
    lower bound); inconclusive when a side is not finite."""
    lhs, rhs = float(lhs), float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return BoundCheck(cid, statement, True, f"a side is not finite: lhs = {lhs}, rhs = {rhs}")
    slack = rhs - lhs if sense == "<=" else lhs - rhs
    satisfied = slack >= -SLACK_RTOL * (1.0 + abs(rhs))
    return BoundCheck(cid, statement, True, note, lhs, rhs, satisfied, slack)


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
    def merged(self) -> ProblemSpec:
        return merge_dirichlet(self.spec)

    @cached_property
    def denominator(self) -> float:
        """sum b(free, V0) + sum c(free): boundary edge weight plus free
        potential mass."""
        boundary = sum(boundary_entries(self.spec)[1])
        return boundary + sum(self.g.potential[v] for v in self.spec.free_vertices)

    @cached_property
    def inverted_distances(self) -> tuple[float, float]:
        """(Inr_p, Mean_p) of the weight-inverted graph; _Inconclusive when
        an inverted weight 1/b or a distance of it leaves float range, which
        cached_property does not cache, so each row that asks recomputes it."""
        try:
            inv_spec = ProblemSpec(invert_edge_weights(self.g), self.spec.dirichlet, self.spec.p)
            return q_inradius_and_mean(inv_spec, self.spec.p)
        except (NegativeWeightError, InvalidQError) as exc:
            raise _Inconclusive(f"the weight-inverted graph leaves float range: {exc}") from None

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

    def sorted_path_spec(self, order_by: VertexFunction, edge_weight: float = 1.0) -> ProblemSpec:
        """Homogeneous path on the same free data, ordered by ascending values
        of ``order_by`` (ties by internal index), masses and potentials
        carried along; Dirichlet merged to the left end when present."""
        free = sorted(
            self.spec.free_vertices,
            key=lambda v: (order_by[v], self.g.vertex_index(v)),
        )
        records = []
        if self.spec.dirichlet:
            pinned = np.flatnonzero(self.spec._pinned)
            records.append(("p0", sum(self.g.m[pinned].tolist()), sum(self.g.c[pinned].tolist())))
        for j, v in enumerate(free, start=1 if self.spec.dirichlet else 0):
            records.append((f"p{j}", self.g.measure[v], self.g.potential[v]))
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

    def path_comparison(
        self, order_by: VertexFunction, value: Callable[[ProblemSpec], float]
    ) -> float:
        """``value`` of the eta-weight path ordered by ``order_by``; a solve
        on it that fails makes the check inconclusive."""
        path_spec = self.sorted_path_spec(order_by, self.eta)
        try:
            return value(path_spec)
        except _FAILED as exc:
            raise _Inconclusive(f"path comparison solve failed: {exc}") from None


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
    "tree": (
        lambda c: c.merged.graph.edge_count == c.merged.graph.vertex_count - 1,
        "not a tree after identifying the Dirichlet set",
    ),
    "denominator": (lambda c: c.denominator > 0.0, "denominator is zero"),
    "three_vertices": (lambda c: c.g.vertex_count >= 3, "degenerate two-vertex comparison"),
}

# every declared check in report order: (id, statement, needs, body)
_REGISTRY: list[tuple[str, str, tuple[str, ...], Callable[[_Ctx], tuple]]] = []


def _evaluate(
    c: _Ctx, cid: str, statement: str, needs: tuple[str, ...], body: Callable[[_Ctx], tuple]
) -> BoundCheck:
    """The verdict of one check: its first unmet need, else its body's sides.

    A hypothesis of _GATES that fails makes the check not applicable;
    "torsion" or "spectral" whose solve failed, a body that raises
    _Inconclusive or ArithmeticError, and a side that is not finite make it
    inconclusive."""
    for need in needs:
        if need in ("torsion", "spectral"):
            sol = getattr(c, need)
            if isinstance(sol, _FAILED):
                return BoundCheck(cid, statement, True, f"{need} solve failed: {sol}")
        elif not _GATES[need][0](c):
            return BoundCheck(cid, statement, False, _GATES[need][1])
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _bound(cid, statement, *body(c))
    except _Inconclusive as exc:
        return BoundCheck(cid, statement, True, str(exc))
    except ArithmeticError as exc:
        return BoundCheck(cid, statement, True, f"{type(exc).__name__}: {exc}")


def _check(cid: str, statement: str, *needs: str) -> Callable:
    """Declare a check: register its body and return the public
    ``check(spec, ctx=None)``, named and documented as the body is."""

    def declare(body: Callable[[_Ctx], tuple]) -> Callable[..., BoundCheck]:
        _REGISTRY.append((cid, statement, needs, body))

        def check(spec: ProblemSpec, ctx: _Ctx | None = None) -> BoundCheck:
            c = ctx if ctx is not None else _Ctx(spec)
            return _evaluate(c, cid, statement, needs, body)

        check.__name__, check.__qualname__ = body.__name__, body.__qualname__
        check.__doc__ = body.__doc__
        return check

    return declare


# --- upper bounds ---------------------------------------------------------


@_check("saint_venant_general", "T_p <= n^(p-1)/eta * m_free^p", "dirichlet", "eta", "torsion")
def saint_venant_general(c: _Ctx) -> tuple:
    """T_p(G;V0) <= n^(p-1)/eta * m(V\\V0)^p with n the free vertex count."""
    rhs = c.spec.free_count ** (c.spec.p - 1.0) / c.eta * c.spec.free_measure() ** c.spec.p
    return c.torsion.rigidity, "<=", rhs


@_check("saint_venant_p2_unit", "T_2 <= n(n+1)(2n+1)/(6 eta)  [m = 1]",
        "p2", "m_unit", "dirichlet", "eta", "torsion")
def saint_venant_p2_unit(c: _Ctx) -> tuple:
    """T_2(G;V0) <= n(n+1)(2n+1)/(6 eta) for m = 1; equality exactly on paths."""
    n = c.spec.free_count
    return c.torsion.rigidity, "<=", n * (n + 1) * (2 * n + 1) / (6.0 * c.eta)


@_check("symmetrization_upper", "T_p <= T_p(eta-weight path with m, c ordered by tau)",
        "well_posed", "eta", "torsion")
def symmetrization_upper(c: _Ctx) -> tuple:
    """T_p(G;V0) <= T_p(P_eta;V0), P_eta the torsion-ordered homogeneous path
    of edge weight eta carrying the permuted masses and potentials.

    With zero potential this is the same as (1/eta) T_p of the unit-weight
    path; with a potential only the eta-weighted form survives the scaling
    step of the comparison argument."""
    return c.torsion.rigidity, "<=", c.path_comparison(c.torsion.tau, c.path_rigidity_of)


@_check("symmetrization_upper_mtilde", "T_p <= (1/eta) T_p(path with m_tilde, c = 0)",
        "dirichlet", "eta", "torsion")
def symmetrization_upper_mtilde(c: _Ctx) -> tuple:
    """T_p(G;V0) <= (1/eta) T_p(P;V0) with the explicit mass profile that puts
    the minimum free mass everywhere except at the torsion argmax, which
    absorbs the excess; P has zero potential."""
    free = c.spec.free_vertices
    m = c.g.measure
    m_min = min(m[v] for v in free)
    excess = sum(m[v] - m_min for v in free)
    masses = [m_min] * (len(free) - 1) + [m_min + excess]
    params = PathSpecParams(len(free), tuple(masses), tuple(1.0 for _ in free), c.spec.p)
    return c.torsion.rigidity, "<=", path_rigidity(params) / c.eta


@_check("polya_szego_product", "lambda0 * T_p <= m_free^(p-1)", "well_posed", "torsion", "spectral")
def polya_szego_product(c: _Ctx) -> tuple:
    """lambda_0,p * T_p <= m(V\\V0)^(p-1) (m(V)^(p-1) without Dirichlet set);
    strict whenever the torsion function is nonconstant on the free part."""
    rhs = c.spec.free_measure() ** (c.spec.p - 1.0)
    return c.spectral.lambda0 * c.torsion.rigidity, "<=", rhs, c.p_note


# --- lower bounds ---------------------------------------------------------


@_check("trivial_lower", "T_p >= m_free^p / (sum b(free, V0) + sum c(free))",
        "torsion", "denominator")
def trivial_lower(c: _Ctx) -> tuple:
    """T_p >= m_free^p / (boundary edge weight + free potential mass)."""
    return c.torsion.rigidity, ">=", c.spec.free_measure() ** c.spec.p / c.denominator


@_check("path_inradius_lower", "T_p >= Inr_p(P;V0)^(-1) m_free^p  [path, Dirichlet end]",
        "path_end", "c_zero", "torsion")
def path_inradius_lower(c: _Ctx) -> tuple:
    """For a path with one Dirichlet end and c = 0: T_p >= m_free^p / Inr_p."""
    inr = q_inradius(c.spec, c.spec.p)
    return c.torsion.rigidity, ">=", c.spec.free_measure() ** c.spec.p / inr


@_check("tree_inradius_lower",
        "T_p >= Inr_p(T;V0)^(-1) min(m_free)^p  [tree, merged Dirichlet vertex]",
        "dirichlet", "c_zero", "connected", "tree", "torsion")
def tree_inradius_lower(c: _Ctx) -> tuple:
    """For a finite tree with c = 0 and a single (merged) Dirichlet vertex:
    T_p >= min free mass^p / Inr_p.

    The comparison grows the inradius geodesic into the tree by single-vertex
    insertions, which is only valid once the Dirichlet set is one vertex;
    identifying a multi-vertex Dirichlet set must again leave a tree (a lone
    free vertex tied to two unit Dirichlet edges has T_2 = 1/2 against a
    naive bound of 1 otherwise).
    """
    inr = q_inradius(c.merged, c.spec.p)
    m_min = min(c.merged.graph.measure[v] for v in c.merged.free_vertices)
    return c.torsion.rigidity, ">=", m_min**c.spec.p / inr


@_check("rayleigh_symmetrization_lower",
        "lambda0 >= lambda0(eta-weight path ordered by ground state)",
        "well_posed", "eta", "spectral")
def rayleigh_symmetrization_lower(c: _Ctx) -> tuple:
    """lambda_0,p(G;V0) >= lambda_0,p(P_eta;V0), P_eta the ground-state-ordered
    homogeneous path of edge weight eta; equals eta * lambda_0,p of the
    unit-weight path whenever the potential vanishes."""
    lam_path = c.path_comparison(c.spectral.ground_state, lambda s: lambda0(s, c.opts).lambda0)
    return c.spectral.lambda0, ">=", lam_path, c.p_note


# the four rows of mean_distance_bounds; each reads the inverted graph's
# (Inr_p, Mean_p) shared through the context
@_check("mean_distance_lambda_lower", "lambda0 >= 1/(m_free * Mean_p(G^-1;V0))",
        "dirichlet", "connected", "spectral")
def _mean_distance_lambda_lower(c: _Ctx) -> tuple:
    rhs = 1.0 / (c.inverted_distances[1] * c.spec.free_measure())
    return c.spectral.lambda0, ">=", rhs, c.p_note


@_check("mean_distance_rigidity_upper", "T_p < m_free^p * Mean_p(G^-1;V0)",
        "dirichlet", "connected", "torsion")
def _mean_distance_rigidity_upper(c: _Ctx) -> tuple:
    return c.torsion.rigidity, "<=", c.inverted_distances[1] * c.spec.free_measure() ** c.spec.p


@_check("inradius_lambda_lower", "lambda0 >= 1/(m_free * Inr_p(G^-1;V0))",
        "dirichlet", "connected", "spectral")
def _inradius_lambda_lower(c: _Ctx) -> tuple:
    rhs = 1.0 / (c.inverted_distances[0] * c.spec.free_measure())
    return c.spectral.lambda0, ">=", rhs, c.p_note


@_check("inradius_rigidity_upper", "T_p <= m_free^p * Inr_p(G^-1;V0)",
        "dirichlet", "connected", "torsion")
def _inradius_rigidity_upper(c: _Ctx) -> tuple:
    return c.torsion.rigidity, "<=", c.inverted_distances[0] * c.spec.free_measure() ** c.spec.p


def mean_distance_bounds(spec: ProblemSpec, ctx: _Ctx | None = None) -> tuple[BoundCheck, ...]:
    """Spectral lower and rigidity upper bounds from the mean distance and the
    inradius of the weight-inverted graph:

        lambda0 >= 1 / (m_free * Mean_p(G^-1;V0)) >= 1 / (m_free * Inr_p(G^-1;V0))
        T_p < m_free^p * Mean_p(G^-1;V0) <= m_free^p * Inr_p(G^-1;V0)
    """
    c = ctx if ctx is not None else _Ctx(spec)
    rows = (_mean_distance_lambda_lower, _mean_distance_rigidity_upper, _inradius_lambda_lower,
            _inradius_rigidity_upper)
    return tuple(row(spec, c) for row in rows)


@_check("landscape_lower", "lambda0 >= ||tau||_inf^(1-p)", "well_posed", "torsion", "spectral")
def landscape_lower(c: _Ctx) -> tuple:
    """lambda_0,p >= 1 / ||tau_p||_inf^(p-1), the landscape-function bound."""
    sup = max(c.torsion.tau[v] for v in c.spec.free_vertices)
    return c.spectral.lambda0, ">=", sup ** (1.0 - c.spec.p), c.p_note


@_check("fiedler_dirichlet", "lambda0 >= eta * (sum_k k^(1/(p-1)))^(1-p)  [m = 1, c = 0]",
        "dirichlet", "m_unit", "c_zero", "eta", "spectral")
def fiedler_dirichlet(c: _Ctx) -> tuple:
    """For m = 1, c = 0: lambda_0,p >= eta * (sum_{k=1}^{n-1} (n-k)^(1/(p-1)))^(1-p),
    with n - 1 the free vertex count."""
    s = sum(k ** (1.0 / (c.spec.p - 1.0)) for k in range(1, c.spec.free_count + 1))
    return c.spectral.lambda0, ">=", c.eta * s ** (1.0 - c.spec.p), c.p_note


@_check("fiedler_neumann_p2", "lambda1_2 >= eta * (sum_k (n-k))^(-1), n = |V|//2 + 1",
        "p2_only", "m_unit", "c_zero", "eta", "three_vertices")
def fiedler_neumann_p2(c: _Ctx) -> tuple:
    """For p = 2, m = 1, c = 0 on the full graph (no Dirichlet conditions):
    lambda_1,2(G) >= eta / sum_{k=1}^{n-1} (n-k) with n = |V|//2 + 1.

    n comes from padding the comparison path to an odd vertex count 2n-1 >=
    |V| before halving at its midpoint; taking n = |V|/2 on even counts is
    already falsified by the 4-vertex path (lambda1 = 2 - sqrt(2) < eta)."""
    n = c.g.vertex_count // 2 + 1
    try:
        lam1 = lambda1_p2(c.g)
    except _FAILED as exc:
        raise _Inconclusive(f"lambda1 solve failed: {exc}") from None
    return lam1, ">=", c.eta / sum(n - k for k in range(1, n))


# the hypotheses of the Kohler-Jobin checks after p = 2 and their mass condition
_KJ_NEEDS = ("b_standard", "c_zero", "dirichlet", "connected", "torsion", "spectral")


@_check("kohler_jobin_modified",
        "(T_2 + E/3)^(2/3) arccos(1 - lambda0)^2 >= (pi/6^(1/3))^2  [m = deg]",
        "p2", "m_degree", *_KJ_NEEDS)
def kohler_jobin_modified(c: _Ctx) -> tuple:
    """(T_2 + E/3)^(2/3) * arccos(1 - lambda_0,2)^2 >= (pi / 6^(1/3))^2 for
    m = deg, b standard, c = 0; equality exactly on path graphs."""
    lam = c.spectral.lambda0
    if not -1e-9 <= lam <= 2.0 + 1e-9:
        raise _Inconclusive(f"lambda0 = {lam} outside [0, 2]")
    x = min(1.0, max(-1.0, 1.0 - lam))
    lhs = (c.torsion.rigidity + c.g.edge_count / 3.0) ** (2.0 / 3.0) * np.arccos(x) ** 2
    return lhs, ">=", (np.pi / 6.0 ** (1.0 / 3.0)) ** 2


@_check("kohler_jobin_classical", "T_2^(2/3) lambda0 >= 1  [m = deg]", "p2", "m_degree", *_KJ_NEEDS)
def kohler_jobin_classical(c: _Ctx) -> tuple:
    """T_2^(2/3) * lambda_0,2 >= 1 for m = deg, b standard, c = 0; equality
    exactly on the single-edge path."""
    return c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0, ">=", 1.0


@_check("kohler_jobin_classical_unit", "T_2^(2/3) lambda0 >= min(deg)/max(deg)^(4/3)  [m = 1]",
        "p2", "m_unit", *_KJ_NEEDS)
def kohler_jobin_classical_unit(c: _Ctx) -> tuple:
    """T_2^(2/3) * lambda_0,2 >= min deg / (max deg)^(4/3) over free vertices
    for m = 1, b standard, c = 0."""
    degs = [degree(c.g, v) for v in c.spec.free_vertices]
    rhs = min(degs) / max(degs) ** (4.0 / 3.0)
    return c.torsion.rigidity ** (2.0 / 3.0) * c.spectral.lambda0, ">=", rhs


@_check("normalized_saint_venant", "T_2 <= max(deg)^2/eta * T_2(unit path)  [m = deg]",
        "p2", "m_degree", "c_zero", "dirichlet", "eta", "torsion")
def normalized_saint_venant(c: _Ctx) -> tuple:
    """T_2(G;V0) <= (max free deg)^2 / eta * T_2(P';V0) with P' the unit-mass
    unit-weight path on the same free count, for m = deg and c = 0.

    The quadratic degree factor is what the mass comparison m <= (max deg) * 1
    actually yields for p = 2 (each of l1 weight and torsion values scales by
    one factor); a linear factor is falsified already by the complete graph
    K4 and by paths with four or more free vertices.
    """
    dmax = max(degree(c.g, v) for v in c.spec.free_vertices)
    rhs = dmax**2 / c.eta * reference_values("path_T2", c.spec.free_count, "unit")
    return c.torsion.rigidity, "<=", rhs


def torsion_ordered_path(spec: ProblemSpec, opts: SolverOptions | None = None) -> ProblemSpec:
    """The unit-weight comparison path of the symmetrization bound: free
    vertices ordered by ascending torsion values (ties by internal index),
    masses and potentials carried along, Dirichlet data merged at one end."""
    ctx = _Ctx(spec, opts)
    if isinstance(ctx.torsion, _FAILED):
        raise ctx.torsion
    return ctx.sorted_path_spec(ctx.torsion.tau)


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
            "checks": [dict(vars(c)) for c in self.checks],
            "diagnostics": dict(self.diagnostics),
            "violations": len(self.violations),
        }

    def _rows(self, digits: str, yes: str, no: str, violated: str) -> list[tuple[str, ...]]:
        """The header and one row per check of to_markdown and to_csv:
        numbers in the format digits, applicable as yes or no, satisfied as
        yes or violated, and an empty cell for None."""
        num = lambda x: "" if x is None else format(x, digits)
        sat = lambda x: "" if x is None else (yes if x else violated)
        return [("id", "applicable", "lhs", "rhs", "satisfied", "slack", "reason")] + [
            (c.id, yes if c.applicable else no, num(c.lhs), num(c.rhs), sat(c.satisfied),
             num(c.slack), c.reason)
            for c in self.checks
        ]

    def to_markdown(self) -> str:
        header, *rows = self._rows(".12g", "yes", "no", "NO")
        rows = [header, ("---",) * len(header), *rows]
        return "\n".join(f"| {' | '.join(r)} |" for r in rows)

    def to_csv(self) -> str:
        rows = self._rows(".17g", "true", "false", "false")
        # a comma inside a cell (in a reason) would start a new column
        return "\n".join(",".join(x.replace(",", ";") for x in r) for r in rows)


def check_all(spec: ProblemSpec, opts: SolverOptions | None = None) -> BoundReport:
    """Run every bound whose hypotheses can be verified on this spec, in the
    order of the registry, each through _evaluate.

    A check reads inconclusive, and the report still completes, when a solve
    it needs failed (a typed error or numpy's LinAlgError), when its path
    comparison solve failed, when its own float arithmetic raises an
    ArithmeticError (an overflowing power, a division by zero) or when a
    side is not finite, and in the four mean-distance and inradius rows
    when the weight-inverted graph leaves float range.  Any other typed
    geometry error still raises: an edge cost or distance power of the
    input graph that overflows a float is an InvalidQError.
    """
    ctx = _Ctx(spec, opts)
    checks = tuple(_evaluate(ctx, *row) for row in _REGISTRY)
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
    return BoundReport(summary=summary, checks=checks, diagnostics=diagnostics)
