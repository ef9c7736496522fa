"""Computation of the p-torsion function and the p-torsional rigidity.

The torsion function is the unique minimizer of

    F_p(u) = Q_p(u) - sum_v u(v) m(v)

over functions vanishing on the Dirichlet set (over all functions when the
potential is somewhere positive).  Three methods are available:

* ``direct_p2``    exact symmetric positive definite solve (p = 2);
* ``newton``       damped Newton on the full system with curvature
                   regularization and an Armijo line search on F_p, started
                   from the p = 2 solution and continued in s = 1/(p-1);
* ``gauss_seidel`` cyclic exact scalar solves per free vertex, each a
                   strictly monotone one-dimensional equation handled by
                   safeguarded Newton/bisection.

A problem is assembled once into arrays.  The p = 2 matrix, the Newton
Hessian and the p = 2 eigenproblems of ``spectral`` are all one reweighted
Laplacian on the free vertices (``_laplacian``): a dense array up to
DENSE_LIMIT free vertices and a sparse CSC matrix above.  Each is symmetric
positive definite and ``_linsolve`` factors it as such: LAPACK Cholesky on
the dense side, SuperLU with a symmetric minimum-degree ordering and
diagonal pivots (``_factor``) on the sparse side.

Convergence is measured on the pointwise residual max_v |L_p u(v) - 1|
(not on step sizes), because on finite graphs the weak and the pointwise
formulations coincide.  For p < 2 that residual has a rounding floor near
(eps * ||tau||)^(p-1): the edge flux |d|^(p-1) is only (p-1)-Hoelder in the
values, so edges with near-equal end values (mirror images on a symmetric
grid, say) keep it above tight tolerances.  A Newton solve whose last leg
stops above tol is therefore judged on T_p itself: the Polya quotient of the
iterate bounds T_p from below, the Thomson energy of its flux, corrected by
one p = 2 solve to divergence m, bounds it from above
(``_rigidity_bracket``), and the iterate is accepted when the two agree to
1e-12 relative.  Otherwise NoConvergenceError is raised at once, carrying
the residual and the bracket.

The continuation toward p > 2 is path following: each intermediate leg
takes one damped Newton (corrector) step, because the power transform of
the next leg discards whatever accuracy a leg reaches, and only the final
leg runs to tol.  Legs toward p < 2 are each run to 1e-6 * max|u|: with
one step per leg there, the final leg inherits a worse start, takes more
steps in all and fails more often near p = 1.

A caveat near p = 1: there the floor is about 0.16 at p = 1.05, and the
bracket often stays wide too, so such solves raise even on paths and
stars.  Of 34 paths (11 lengths from 1 to 100 free vertices) and stars
(6 sizes from 2 to 40 edges) with unit and degree masses, 22 raise at
p = 1.05 and 14 at p = 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dposv

from .energy import check_vertex_function, functional_Fp, phi_p
from .errors import (
    IllPosedError,
    NoConvergenceError,
    UnboundedComponentError,
    UnsupportedCombinationError,
)
from .graphs import ProblemSpec, VertexId

_METHODS = ("auto", "gauss_seidel", "newton", "direct_p2")

# free vertices up to which the Laplacian is a dense array; sparse above
DENSE_LIMIT = 500


@dataclass(frozen=True)
class SolverOptions:
    """tol: absolute sup-norm target for the pointwise residual; None means
    1e-10 * max(1, max m).  A Newton solve that stalls above it is accepted
    when its Polya/Thomson bracket of T_p has relative width <= 1e-12.
    max_iterations caps Newton steps or Gauss-Seidel sweeps.  method is one
    of 'auto', 'gauss_seidel', 'newton', 'direct_p2'; 'auto' picks the exact
    solve for p = 2 and Newton otherwise."""

    tol: float | None = None
    max_iterations: int = 1_000_000
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method {self.method!r} not in {_METHODS}")


@dataclass(frozen=True)
class TorsionSolution:
    """tau: the torsion function (zero on the Dirichlet set); rigidity is
    (sum of tau * m over free vertices)^(p-1); residual_inf is the final
    max_v |L_p tau(v) - 1|, above tol only for a Newton solve accepted on
    its rigidity bracket."""

    tau: dict[VertexId, float]
    rigidity: float
    residual_inf: float
    iterations: int
    method: str


class _Assembled(NamedTuple):
    ids: tuple[VertexId, ...]
    m: np.ndarray
    c: np.ndarray
    free: np.ndarray          # indices of free vertices, input order
    pos: np.ndarray           # vertex index -> position among free, -1 if Dirichlet
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    # the Laplacian on the free vertices as triplets: entry k adds
    # concat(w_e, -w_e, c_v)[lap_src[k]] at (lap_row[k], lap_col[k])
    lap_src: np.ndarray
    lap_row: np.ndarray
    lap_col: np.ndarray


def _assemble(spec: ProblemSpec) -> _Assembled:
    g = spec.graph
    ids = g.vertices
    n = len(ids)
    idx = {v: i for i, v in enumerate(ids)}
    m = np.array([g.measure[v] for v in ids])
    c = np.array([g.potential[v] for v in ids])
    free = np.array([i for i, v in enumerate(ids) if v not in spec.dirichlet], dtype=int)
    pos = np.full(n, -1, dtype=int)
    pos[free] = np.arange(len(free))
    edges = g.edges
    ei = np.array([idx[u] for u, _, _ in edges], dtype=int)
    ej = np.array([idx[v] for _, v, _ in edges], dtype=int)
    w = np.array([b for _, _, b in edges])
    ne = len(edges)
    pa, pb = pos[ei], pos[ej]
    ka, kb = np.flatnonzero(pa >= 0), np.flatnonzero(pb >= 0)
    kab = np.flatnonzero((pa >= 0) & (pb >= 0))
    lap_src = np.concatenate([ka, kb, ne + kab, ne + kab, 2 * ne + free])
    lap_row = np.concatenate([pa[ka], pb[kb], pa[kab], pb[kab], pos[free]])
    lap_col = np.concatenate([pa[ka], pb[kb], pb[kab], pa[kab], pos[free]])
    return _Assembled(ids, m, c, free, pos, ei, ej, w, lap_src, lap_row, lap_col)


def _check_bounded(spec: ProblemSpec, asm: _Assembled) -> None:
    """Every free component must touch a Dirichlet vertex or carry c > 0."""
    if not spec.well_posed:
        raise IllPosedError("no Dirichlet vertex and c identically zero")
    nf = len(asm.free)
    if nf == 0:
        raise IllPosedError("no free vertices to solve for")
    pa, pb = asm.pos[asm.ei], asm.pos[asm.ej]
    inner = (pa >= 0) & (pb >= 0)
    adjacency = sp.coo_matrix(
        (np.ones(int(inner.sum())), (pa[inner], pb[inner])), shape=(nf, nf)
    )
    ncomp, label = csgraph.connected_components(adjacency, directed=False)
    anchored = np.zeros(ncomp, dtype=bool)
    anchored[label[pa[(pa >= 0) & (pb < 0)]]] = True
    anchored[label[pb[(pb >= 0) & (pa < 0)]]] = True
    anchored[label[asm.c[asm.free] > 0.0]] = True
    # free positions follow vertex order, so the first position of each
    # component is its smallest-index vertex
    _, first = np.unique(label, return_index=True)
    loose = np.sort(first[~anchored])
    if len(loose):
        names = [asm.ids[asm.free[k]] for k in loose]
        raise UnboundedComponentError(
            f"free components at {names} have no Dirichlet link and no potential"
        )


def _objective(asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray) -> float:
    d = u[asm.ei] - u[asm.ej]
    val = float(np.sum(asm.w * np.abs(d) ** p) / p)
    val += float(np.sum(asm.c * np.abs(u) ** p) / p)
    return val - float(np.dot(rhs, u))


def _grad_full(asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray) -> np.ndarray:
    d = u[asm.ei] - u[asm.ej]
    f = asm.w * phi_p(d, p)
    g = np.zeros(len(u))
    np.add.at(g, asm.ei, f)
    np.add.at(g, asm.ej, -f)
    g += asm.c * phi_p(u, p)
    return g - rhs


def _residual_inf(asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray) -> float:
    g = _grad_full(asm, p, rhs, u)
    return float(np.max(np.abs(g[asm.free]) / asm.m[asm.free]))


def _laplacian(asm: _Assembled, w_e: np.ndarray, c_v: np.ndarray) -> np.ndarray | sp.csc_matrix:
    """Reweighted Laplacian restricted to the free vertices,

        sum_e w_e (1_a - 1_b)(1_a - 1_b)^T + diag(c_v),

    for edge weights w_e and vertex weights c_v: a dense array up to
    DENSE_LIMIT free vertices, a CSC matrix above."""
    nf = len(asm.free)
    vals = np.concatenate((w_e, -w_e, c_v))[asm.lap_src]
    if nf <= DENSE_LIMIT:
        flat = asm.lap_row * nf + asm.lap_col
        return np.bincount(flat, weights=vals, minlength=nf * nf).reshape(nf, nf)
    return sp.csc_matrix((vals, (asm.lap_row, asm.lap_col)), shape=(nf, nf))


def _factor(A: sp.csc_matrix) -> spla.SuperLU:
    """Sparse LU of a symmetric positive definite A with a symmetric
    ordering and pivots on the diagonal (a Cholesky factor in LU form);
    LinAlgError if A is exactly singular."""
    try:
        return spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise np.linalg.LinAlgError(str(exc)) from exc


def _linsolve(A: np.ndarray | sp.csc_matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a matrix from _laplacian; LinAlgError if A is singular."""
    if not isinstance(A, np.ndarray):
        return _factor(A).solve(b)
    # A.T equals A and is F-contiguous, the layout LAPACK takes
    _, x, info = dposv(A.T, b)
    if info != 0:  # not numerically positive definite: general LU
        return np.linalg.solve(A, b)
    return x


def _curvature(asm: _Assembled, p: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge and vertex weights of the regularized Hessian of F_p, which is
    _laplacian(asm, *_curvature(asm, p, u)).

    For p >= 2 a tiny epsilon is added to the |grad|^(p-2) factors (they
    vanish at equal neighbor values); for p < 2 the factors blow up there,
    so the gradient magnitude is floored instead.  Either way the matrix
    stays symmetric positive definite and the step remains a descent
    direction for the exact F_p.
    """
    scale = max(1.0, float(np.max(np.abs(u))) if len(u) else 1.0)
    d = u[asm.ei] - u[asm.ej]
    ad = np.abs(d)
    au = np.abs(u)
    if p >= 2.0:
        we = ad ** (p - 2.0) + 1e-12
        wu = au ** (p - 2.0) + 1e-12
    else:
        # the curvature blows up at equal neighbor values; floor the gradient
        # magnitude at the float granularity of the iterate so genuinely
        # stiff near-tie directions keep their true curvature
        floor = 64.0 * np.finfo(float).eps * scale
        we = np.maximum(ad, floor) ** (p - 2.0)
        wu = np.maximum(au, floor) ** (p - 2.0)
    return asm.w * (p - 1.0) * we, asm.c * (p - 1.0) * wu


def _newton_leg(
    asm: _Assembled,
    p: float,
    rhs: np.ndarray,
    u: np.ndarray,
    tol: float,
    cap: int,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton with a trust-region cap on the step and an Armijo line
    search on the exact objective; stops on tol, cap, or a rounding-floor
    stall."""
    fval = _objective(asm, p, rhs, u)
    res = _residual_inf(asm, p, rhs, u)
    it = 0
    best = res
    stale = 0
    while res > tol and it < cap:
        it += 1
        g = _grad_full(asm, p, rhs, u)[asm.free]
        ce, cc = _curvature(asm, p, u)
        H = _laplacian(asm, ce, cc)
        try:
            step = _linsolve(H, -g)
        except np.linalg.LinAlgError:
            step = _linsolve(_laplacian(asm, ce, cc + 1e-10 * (1.0 + abs(H).max())), -g)
        # for p < 2 the curvature model flattens far from the minimizer and
        # raw steps can overshoot by orders of magnitude
        limit = 0.5 * max(1.0, float(np.max(np.abs(u[asm.free]))))
        size = float(np.max(np.abs(step)))
        if size > limit:
            step *= limit / size
        slope = float(np.dot(g, step))
        if slope >= 0.0:
            step = -g
            slope = -float(np.dot(g, g))
        # near the minimum the objective differences underflow before the
        # gradient does; accept the full step on strict residual decrease
        trial = u.copy()
        trial[asm.free] = u[asm.free] + step
        res_full = _residual_inf(asm, p, rhs, trial)
        if res_full <= 0.9 * res:
            u = trial
            fval = _objective(asm, p, rhs, u)
            res = res_full
        else:
            alpha = 1.0
            while alpha > 1e-18:
                trial[asm.free] = u[asm.free] + alpha * step
                ftrial = _objective(asm, p, rhs, trial)
                if ftrial <= fval + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            u[asm.free] = u[asm.free] + alpha * step
            fval = _objective(asm, p, rhs, u)
            res = _residual_inf(asm, p, rhs, u)
        if res < 0.97 * best:
            best = min(best, res)
            stale = 0
        else:
            stale += 1
            if stale >= 30:
                break
    return u, it, res


def _solve_newton(
    asm: _Assembled,
    p: float,
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, float]:
    """Newton driver.  Walks a continuation in the exponent s = 1/(p-1) from
    the exact p = 2 solution to the target, changing s by a ratio in
    [3/4, 4/3] per leg and transforming the iterate by the matching
    elementwise power; this keeps every leg inside Newton's fast local
    regime.  Toward p > 2 it follows the path with one corrector step per
    intermediate leg; toward p < 2 each intermediate leg runs to
    1e-6 * max|u|.  The final leg runs to tol, and a final leg that stops
    above tol is judged on its rigidity bracket."""
    u = np.zeros(len(asm.ids))
    u[asm.free] = _linsolve(_laplacian(asm, asm.w, asm.c), rhs[asm.free])
    it = 0
    cap = min(max_iter, 400)
    s_cur = 1.0
    s_tgt = 1.0 / (p - 1.0)
    while True:
        ratio = float(np.clip(s_tgt / s_cur, 0.75, 4.0 / 3.0))
        s_cur *= ratio
        u[asm.free] = phi_p(u[asm.free], 1.0 + ratio)
        final = abs(np.log(s_tgt / s_cur)) < 1e-12
        leg_p = 1.0 + 1.0 / s_cur
        if final:
            leg_tol, leg_cap = tol, cap
        elif p > 2.0:
            # path following: the next power transform discards the leg's
            # accuracy, so one corrector step is enough to keep the iterate
            # in Newton's contraction region for the final leg
            leg_tol, leg_cap = 0.0, min(cap, 1)
        else:
            leg_tol, leg_cap = 1e-6 * max(1.0, float(np.max(np.abs(u)))), cap
        u, leg_it, res = _newton_leg(asm, leg_p, rhs, u, leg_tol, leg_cap)
        it += leg_it
        if final:
            break
    if res > tol:
        # for p < 2 the residual has a rounding floor; accept the iterate
        # when the Polya/Thomson bracket pins T_p down instead
        lower, upper = _rigidity_bracket(asm, p, rhs, u)
        if not upper - lower <= 1e-12 * upper:
            raise NoConvergenceError(
                f"Newton stopped at residual {res:.3e} > tol {tol:.3e} with "
                f"T_p in [{lower:.17g}, {upper:.17g}]",
                iterations=it,
                residual=res,
            )
    return u, it, res


def _rigidity_bracket(
    asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray
) -> tuple[float, float]:
    """Bracket lower <= T_p <= upper from any u vanishing on the Dirichlet
    set.

    Below, the Polya quotient (sum |u| m)^p / (sum w|du|^p + sum c|u|^p).
    Above, the Thomson energy (sum w^(-1/(p-1)) |j|^p' + sum c^(-1/(p-1))
    |k|^p')^(p-1) of the flux (j, k) = (w phi_p(du), c phi_p(u)) of u,
    made admissible (divergence m at every free vertex) by subtracting the
    p = 2 flux (w dz, c z) of the solution z of L z = residual.  Both sides
    equal T_p at the torsion function and err to second order near it.  The
    enclosure holds in exact arithmetic; in floats the upper side carries
    the rounding of that correction, which grows with the distance of u
    from tau.
    """
    d = u[asm.ei] - u[asm.ej]
    energy = float(np.sum(asm.w * np.abs(d) ** p) + np.sum(asm.c * np.abs(u) ** p))
    lower = float(np.dot(rhs, np.abs(u))) ** p / energy
    z = np.zeros(len(u))
    z[asm.free] = _linsolve(
        _laplacian(asm, asm.w, asm.c), _grad_full(asm, p, rhs, u)[asm.free]
    )
    j = asm.w * (phi_p(d, p) - (z[asm.ei] - z[asm.ej]))
    k = asm.c * (phi_p(u, p) - z)
    q = p / (p - 1.0)
    loaded = asm.c > 0.0
    dual = float(
        np.sum(asm.w ** (-1.0 / (p - 1.0)) * np.abs(j) ** q)
        + np.sum(asm.c[loaded] ** (-1.0 / (p - 1.0)) * np.abs(k[loaded]) ** q)
    )
    return lower, dual ** (p - 1.0)


def _scalar_solve(
    nb_vals: np.ndarray, nb_w: np.ndarray, cv: float, rhs: float, t0: float, p: float
) -> float:
    """Solve sum_w b phi_p(t - u_w) + c phi_p(t) = rhs for the scalar t.

    The left side is strictly increasing, so an expanding bracket plus
    bisection with Newton acceleration is globally safe.
    """
    if p == 2.0:
        return (rhs + float(np.dot(nb_w, nb_vals))) / (float(np.sum(nb_w)) + cv)

    def h(t: float) -> float:
        val = float(np.dot(nb_w, phi_p(t - nb_vals, p)))
        if cv != 0.0:
            val += cv * float(phi_p(t, p))
        return val - rhs

    lo = hi = t0
    h0 = h(t0)
    if h0 == 0.0:
        return t0
    total_w = float(np.sum(nb_w)) + cv
    step = max(1.0, (abs(rhs) / total_w) ** (1.0 / (p - 1.0)))
    if nb_vals.size:
        step = max(step, float(np.max(nb_vals) - np.min(nb_vals)))
    if h0 < 0.0:
        hi = t0 + step
        while h(hi) < 0.0:
            lo = hi
            step *= 2.0
            hi += step
    else:
        lo = t0 - step
        while h(lo) > 0.0:
            hi = lo
            step *= 2.0
            lo -= step

    t = 0.5 * (lo + hi)
    for _ in range(200):
        ht = h(t)
        if ht > 0.0:
            hi = t
        elif ht < 0.0:
            lo = t
        else:
            return t
        width = hi - lo
        if width <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            return t
        if np.nextafter(lo, hi) >= hi:  # no float left strictly inside
            return 0.5 * (lo + hi)
        with np.errstate(divide="ignore"):
            # an exact hit on a neighbor value gives an infinite derivative
            # for p < 2; the finiteness check below falls back to bisection
            dv = float(np.dot(nb_w, (p - 1.0) * np.abs(t - nb_vals) ** (p - 2.0)))
        if cv != 0.0 and t != 0.0:
            dv += cv * (p - 1.0) * abs(t) ** (p - 2.0)
        if np.isfinite(dv) and dv > 0.0:
            tn = t - ht / dv
            if lo < tn < hi:
                t = tn
                continue
        t = 0.5 * (lo + hi)
    return t


def _gs_sweeps(
    asm: _Assembled,
    p: float,
    rhs: np.ndarray,
    tol: float,
    max_sweeps: int,
    u: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Cyclic exact scalar solves in ascending internal vertex order: the
    gauss_seidel method and the fallback of direct_p2.  Newton and inverse
    power never call it."""
    n = len(asm.ids)
    nbr_idx: list[list[int]] = [[] for _ in range(n)]
    nbr_w: list[list[float]] = [[] for _ in range(n)]
    for a, b, wt in zip(asm.ei, asm.ej, asm.w):
        nbr_idx[a].append(int(b))
        nbr_w[a].append(float(wt))
        nbr_idx[b].append(int(a))
        nbr_w[b].append(float(wt))
    nbi = [np.array(ix, dtype=int) for ix in nbr_idx]
    nbw = [np.array(ws) for ws in nbr_w]

    res = _residual_inf(asm, p, rhs, u)
    sweeps = 0
    while res > tol and sweeps < max_sweeps:
        sweeps += 1
        for i in asm.free:
            u[i] = _scalar_solve(u[nbi[i]], nbw[i], float(asm.c[i]), float(rhs[i]), float(u[i]), p)
        res = _residual_inf(asm, p, rhs, u)
    return u, sweeps, res


def default_tolerance(spec: ProblemSpec) -> float:
    return 1e-10 * max(1.0, max(spec.graph.measure.values()))


def solve_torsion(spec: ProblemSpec, opts: SolverOptions | None = None) -> TorsionSolution:
    """Minimize F_p and return the torsion function with its rigidity.

    Raises IllPosedError for specs with no Dirichlet vertex and zero
    potential, UnboundedComponentError when a free component is detached
    from every anchor, and NoConvergenceError when the iteration budget runs
    out or a stalled Newton solve has no certified rigidity bracket.
    """
    opts = opts or SolverOptions()
    asm = _assemble(spec)
    _check_bounded(spec, asm)
    p = spec.p
    tol = opts.tol if opts.tol is not None else default_tolerance(spec)
    rhs = np.zeros(len(asm.ids))
    rhs[asm.free] = asm.m[asm.free]

    method = opts.method
    if method == "auto":
        method = "direct_p2" if p == 2.0 else "newton"
    if method == "direct_p2":
        if p != 2.0:
            raise UnsupportedCombinationError("direct_p2 requires p = 2")
        u = np.zeros(len(asm.ids))
        u[asm.free] = _linsolve(_laplacian(asm, asm.w, asm.c), rhs[asm.free])
        iterations = 1
        res = _residual_inf(asm, p, rhs, u)
        if res > tol:
            u, sweeps, res = _gs_sweeps(asm, p, rhs, tol, opts.max_iterations, u)
            if res > tol:
                raise NoConvergenceError(
                    f"direct solve residual {res:.3e} > tol {tol:.3e}",
                    iterations=1 + sweeps,
                    residual=res,
                )
    elif method == "newton":
        u, iterations, res = _solve_newton(asm, p, rhs, tol, opts.max_iterations)
    else:
        u = np.zeros(len(asm.ids))
        u, iterations, res = _gs_sweeps(asm, p, rhs, tol, opts.max_iterations, u)
        if res > tol:
            raise NoConvergenceError(
                f"Gauss-Seidel stopped at residual {res:.3e} > tol {tol:.3e} "
                f"after {iterations} sweeps",
                iterations=iterations,
                residual=res,
            )
    tau = {v: (0.0 if asm.pos[i] < 0 else float(u[i])) for i, v in enumerate(asm.ids)}
    l1 = float(np.dot(np.abs(u[asm.free]), asm.m[asm.free]))
    return TorsionSolution(
        tau=tau,
        rigidity=l1 ** (p - 1.0),
        residual_inf=res,
        iterations=iterations,
        method=method,
    )


def pointwise_residual(spec: ProblemSpec, u: Mapping[VertexId, float]) -> dict[VertexId, float]:
    """L_p u(v) - 1 at every free vertex;

    L_p u(v) = (1/m(v)) [ sum_w b(v,w) phi_p(u(v)-u(w)) + c(v) phi_p(u(v)) ].
    """
    check_vertex_function(spec, u)
    asm = _assemble(spec)
    uv = np.array([u[v] for v in asm.ids])
    rhs = np.zeros(len(asm.ids))
    rhs[asm.free] = asm.m[asm.free]
    g = _grad_full(asm, spec.p, rhs, uv)
    return {asm.ids[i]: float(g[i] / asm.m[i]) for i in asm.free}


class BalanceResult(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def balance_check(spec: ProblemSpec, sol: TorsionSolution) -> BalanceResult:
    """Flux balance of the torsion function.

    With a Dirichlet set: the flux through the boundary edges plus the
    potential flux equals the free mass m(V \\ V0).  Without one: the
    potential flux equals the total mass m(V).
    """
    g = spec.graph
    p = spec.p
    tau = sol.tau
    if spec.dirichlet:
        lhs = sum(
            b * float(phi_p(tau[v], p))
            for v in spec.free_vertices
            for w, b in g.neighbors(v)
            if w in spec.dirichlet
        )
        lhs += sum(g.potential[v] * float(phi_p(tau[v], p)) for v in spec.free_vertices)
        rhs = spec.free_measure()
    else:
        lhs = sum(g.potential[v] * float(phi_p(tau[v], p)) for v in g.vertices)
        rhs = g.total_measure()
    return BalanceResult(lhs, rhs, abs(lhs - rhs) <= 1e-8 * rhs)


def rigidity_via_min(spec: ProblemSpec, sol: TorsionSolution) -> float:
    """Recover the rigidity from the minimum of F_p:

        T_p = ( p/(1-p) * F_p(tau) )^(p-1),

    which must agree with (sum tau m)^(p-1).
    """
    val = functional_Fp(spec, sol.tau)
    return (spec.p / (1.0 - spec.p) * val) ** (spec.p - 1.0)
