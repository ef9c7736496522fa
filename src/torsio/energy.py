"""Energy functional Q_p, torsion functional F_p and its gradient, and the
Polya and Rayleigh quotients, all with Dirichlet restriction.

The energy and its gradient have one implementation, the array kernels
``_qp`` (Q_p(u)) and ``_mlp`` (m * L_p u at every vertex) over the graph's
arrays, with u a vector in vertex order.  The solver, ``spectral`` and the
public functions below all call them.  ``_mlp`` scatters the edge fluxes
with one ``np.bincount`` over the concatenated ends (ei, ej): it adds them
to each vertex in the order two ``np.add.at`` calls, first over ei and then
over ej, would, so its sums are theirs bit for bit.

On a graph with c = 0 at every vertex the kernels skip the potential terms.
Each is then 0.0 or -0.0, and adding it leaves a sum as it is (these sums
start at 0.0 and are never -0.0), unless |u|^(p-1) overflows or u holds a
nan: there 0 * inf or 0 * nan is nan.  So ``_mlp`` skips the term only when
``_finite_powers`` bounds every |u|^(p-1) below the largest float, and the
solver's Hessian weights c (p-1) |u|^(p-2) follow the same rule; in Q_p the
term is exactly 0.0 even then, as ``_power_sum`` recomputes a non-finite
sum over the vertices with c > 0 alone.

numpy's float-error policy is set once per public numeric entry, never in a
kernel: ``energy_Qp``, ``functional_Fp``, ``polya_quotient`` and
``rayleigh_quotient`` here, ``solver.solve_torsion`` and ``spectral.lambda0``
each run under ``np.errstate(over="ignore", invalid="ignore")``.  A
kernel's result out of float range is thus inf or nan without a warning,
and each caller that needs a finite value tests for it and raises a typed
error; the four functions here return what the kernels give.  The two
quotients are scale invariant while the sums they divide are not: where one
of those sums, or the Polya numerator, is not a normal float, they are
evaluated on u / max|u| instead (on ``make_path(3, p=8.0)``, u = 1e50 and
u = 1e-50 give the quotients of u = 1).  Everywhere else they are the plain
evaluation, bit for bit.

The public functions take vertex functions as mappings id -> value on the
whole vertex set; for specs with a Dirichlet set they must vanish there
(enforced, not assumed).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import (
    DirichletViolationError,
    DomainMismatchError,
    IllPosedError,
    ZeroEnergyError,
    ZeroFunctionError,
)
from .graphs import ProblemSpec, VertexId, WeightedGraph

VertexFunction = Mapping[VertexId, float]

# the smallest normal float
_TINY = np.finfo(float).tiny


def phi_p(x, p: float):
    """sign(x) |x|^(p-1), the derivative of |x|^p / p; equals 0 at x = 0."""
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def _power_sum(w: np.ndarray, x: np.ndarray, p: float) -> float:
    """sum w |x|^p.  Where |x|^p overflows although the sum may not, the
    terms with w > 0 are recomputed as (w^(1/p) |x|)^p; a sum with finite
    terms is the plain one, bit for bit."""
    total = float(np.sum(w * np.abs(x) ** p))
    if not math.isfinite(total):
        loaded = w > 0.0
        total = float(np.sum((w[loaded] ** (1.0 / p) * np.abs(x[loaded])) ** p))
    return total


def _finite_powers(au: np.ndarray, e: float) -> bool:
    """For e >= 0, whether au^e is finite at every entry of au >= 0: e
    log(max(1, max au)) lies below 709, under the log of the largest float
    (709.78).  False where au holds a nan; for e < 0 true otherwise."""
    return e * math.log(np.maximum.reduce(au, initial=1.0)) < 709.0


def _qp(g: WeightedGraph, p: float, u: np.ndarray) -> float:
    """Q_p(u), with each undirected edge (ei, ej, w) counted once."""
    d = u[g.ei] - u[g.ej]
    val = _power_sum(g.w, d, p) / p
    if not g._zero_potential:
        val += _power_sum(g.c, u, p) / p
    return val


def _mlp(g: WeightedGraph, p: float, u: np.ndarray) -> np.ndarray:
    """m * L_p u, the gradient of Q_p, at every vertex."""
    d = u[g.ei] - u[g.ej]
    f = g.w * phi_p(d, p)
    # bincount returns ints for a graph without edges
    out = np.bincount(g._ends, np.concatenate((f, -f)), len(u)).astype(float, copy=False)
    if not (g._zero_potential and _finite_powers(np.abs(u), p - 1.0)):
        out += g.c * phi_p(u, p)
    return out


def check_vertex_function(spec: ProblemSpec, u: VertexFunction) -> None:
    """Validate that u is defined on exactly V and vanishes on V0."""
    g = spec.graph
    missing = [v for v in g.vertices if v not in u]
    if missing:
        raise DomainMismatchError(f"function undefined at vertices {missing}")
    if len(u) != g.vertex_count:
        extra = [v for v in u if v not in g]
        raise DomainMismatchError(f"function defined at unknown vertices {extra}")
    bad = [v for v in spec.dirichlet if u[v] != 0.0]
    if bad:
        raise DirichletViolationError(f"function must vanish on the Dirichlet set, is nonzero at {bad}")


def _values(spec: ProblemSpec, u: VertexFunction) -> tuple[np.ndarray, np.ndarray]:
    """u, validated, as a vector in vertex order, and the free indices."""
    check_vertex_function(spec, u)
    return np.array([u[v] for v in spec.graph.vertices], dtype=float), spec._free


@np.errstate(over="ignore", invalid="ignore")
def energy_Qp(spec: ProblemSpec, u: VertexFunction) -> float:
    """Q_p(u) = (1/2p) sum_{v,w} b(v,w) |u(v)-u(w)|^p + (1/p) sum_v c(v) |u(v)|^p."""
    return _qp(spec.graph, spec.p, _values(spec, u)[0])


@np.errstate(over="ignore", invalid="ignore")
def functional_Fp(spec: ProblemSpec, u: VertexFunction) -> float:
    """F_p(u) = Q_p(u) - sum over free vertices of u(v) m(v)."""
    uv, free = _values(spec, u)
    return _qp(spec.graph, spec.p, uv) - float(np.dot(uv[free], spec.graph.m[free]))


def gradient_Fp(spec: ProblemSpec, u: VertexFunction) -> dict[VertexId, float]:
    """Gradient of F_p: at a free vertex v,

        sum_w b(v,w) phi_p(u(v)-u(w)) + c(v) phi_p(u(v)) - m(v),

    and 0 on the Dirichlet set.
    """
    uv, free = _values(spec, u)
    grad = np.zeros(len(uv))
    grad[free] = (_mlp(spec.graph, spec.p, uv) - spec.graph.m)[free]
    return dict(zip(spec.graph.vertices, grad.tolist()))


def _scales(uv: np.ndarray):
    """uv, then uv / max|uv| if that is a positive float: the quotients are
    scale invariant, the sums they divide are not."""
    yield uv
    top = float(np.max(np.abs(uv)))
    if 0.0 < top < math.inf:
        yield uv / top


def _normal(x: float) -> bool:
    return _TINY <= x < math.inf


def _power(x: float, p: float) -> float:
    """x ** p, inf where that overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@np.errstate(over="ignore", invalid="ignore")
def polya_quotient(spec: ProblemSpec, u: VertexFunction) -> float:
    """(sum_{v free} |u(v)| m(v))^p / (p Q_p(u)); maximized by the torsion function."""
    if not spec.well_posed:
        raise IllPosedError("Polya quotient needs a Dirichlet vertex or a positive potential")
    uv, free = _values(spec, u)
    g, p = spec.graph, spec.p
    for v in _scales(uv):
        l1 = float(np.dot(np.abs(v[free]), g.m[free]))
        top, q = _power(l1, p), _qp(g, p, v)
        if _normal(top) and _normal(q):
            break
    if l1 == 0.0:
        raise ZeroFunctionError("function vanishes on all free vertices")
    if q == 0.0:
        raise ZeroEnergyError("function has zero energy; the quotient is undefined")
    return top / (p * q)


@np.errstate(over="ignore", invalid="ignore")
def rayleigh_quotient(spec: ProblemSpec, u: VertexFunction) -> float:
    """p Q_p(u) / sum_{v free} |u(v)|^p m(v); its infimum is the bottom of the p-spectrum."""
    if not spec.well_posed:
        raise IllPosedError("Rayleigh quotient needs a Dirichlet vertex or a positive potential")
    uv, free = _values(spec, u)
    g, p = spec.graph, spec.p
    for v in _scales(uv):
        lp = float(np.sum(np.abs(v[free]) ** p * g.m[free]))
        q = _qp(g, p, v)
        if _normal(lp) and _normal(q):
            break
    if lp == 0.0:
        raise ZeroFunctionError("function vanishes on all free vertices")
    return p * q / lp
