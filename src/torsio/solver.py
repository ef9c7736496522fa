"""Computation of the p-torsion function and the p-torsional rigidity.

The torsion function is the unique minimizer of

    F_p(u) = Q_p(u) - sum_v u(v) m(v)

over functions vanishing on the Dirichlet set (over all functions when the
potential is somewhere positive).  Three methods are available:

* ``direct_p2``    one symmetric positive definite solve (p = 2): a
                   factor, or Jacobi-PCG on the Krylov side (below); a
                   result above tol is judged on its rigidity bracket;
* ``newton``       damped Newton on the full system with curvature
                   regularization and an Armijo line search on F_p, started
                   from the p = 2 solution and continued in s = 1/(p-1);
* ``gauss_seidel`` cyclic exact scalar solves per free vertex, each a
                   strictly monotone one-dimensional equation solved by
                   Brent's method on an expanding bracket.

A problem is assembled once: ``_assemble`` reads the graph's arrays and the
spec's free vertices and derives only the CSR pattern of the Laplacian on
them; objective and gradient are the array kernels of ``energy``.  The p = 2
operator (the Laplacian plus the potential), the Newton Hessian and the
p = 2 eigenproblems of ``spectral`` are all one symmetric positive definite
reweighted Laplacian on the free vertices, a ``_System`` with one solve
policy.  One constructor, ``_operator``, builds the p = 2 operator for the
p = 2 solve, the rigidity bracket and both eigenproblems, and refuses an
entry that overflows a float.  A solve that names a
residual target on a Krylov-side problem (below) runs Jacobi-PCG in place
on the CSR arrays.  Every other solve is exact to rounding, by Cholesky
with general LU on a non-positive pivot: up to BAND_MIN_FREE free vertices
on a dense array (LAPACK dposv); up to DENSE_LIMIT in LAPACK band storage,
in the reverse Cuthill-McKee order of the pattern (dpbsv; Cuthill & McKee
1969, George & Liu 1981), whose layout is computed once per assembled
problem; above that by one SuperLU factor per matrix (``_factor``:
symmetric minimum-degree ordering, diagonal pivots).  A band of half-width
kd costs O(kd^2 n) instead of O(n^3): kd is 18 on the 324 free vertices of
a 20 x 20 grid, 1 on a path, and n - 2 on a star.

The fill of a sparse factor follows the size of the graph's separators
(nested dissection), so grids, paths and trees factor cheaply while on
expanders L+U fills in (1.15e6 nonzeros for the 2.1e4 of a random
3000-vertex graph of degree 6).  So ``_assemble`` decides once, from the
graph, whether a problem is on the Krylov side: at least KRYLOV_MIN_FREE
free vertices (from there PCG overtakes a dense Cholesky solve on random
graphs), at least KRYLOV_EDGE_RATIO edges between free vertices per free
vertex, and one unweighted search from the first free vertex reaching them
all within KRYLOV_HOPS * log2(free vertices) hops.  Random graphs of
average degree 6 reach all within 5-7 hops; the interior of an r x c grid
needs r + c - 2 >= 2 sqrt(free) - 2, which is more at every size the
floor admits.  Two kinds of solve name a target: the p = 2 solves
(direct_p2, the start of Newton, the shift-invert of ``spectral``), and
every Newton Hessian, at p < 2 as at p > 2, solved inexactly to a forcing
term (``_newton_leg``).  PCG takes 10-135 steps on such graphs at p = 3
and 8 and about 200-260 on the p = 1.5 Hessians of a random 3000-vertex
graph, stops at the residual's rounding floor when that lies above the
target, and solves exactly only if PCG_MAX_ITERATIONS run out (as some
Hessians near p = 20 do).  Only the rigidity bracket, whose corrected flux
must be admissible to rounding, names none and is solved exactly.

Convergence is measured on the pointwise residual max_v |L_p u(v) - 1| (not
on step sizes), because on finite graphs the weak and the pointwise
formulations coincide; it is the gradient of F_p over m (``_gradient``),
which a Newton leg evaluates once per iterate.  For p < 2 it has a rounding
floor near (eps * ||tau||)^(p-1): the edge flux |d|^(p-1) is only
(p-1)-Hoelder in the values, so edges with near-equal end values (mirror
images on a symmetric grid, say) keep it above tight tolerances.  A Newton
solve whose last leg stops above tol is therefore judged on T_p itself: the
Polya quotient of the iterate bounds T_p from below, the Thomson energy of
its flux, corrected by one p = 2 solve to divergence m, bounds it from above
(``_rigidity_bracket``), and the iterate is accepted when the two agree to
1e-12 relative; a bracket inverted by an underflowed Thomson side does not.
An accepted solve reports the Polya side as T_p: (sum tau m)^(p-1) is off
to first order in the error of tau.  Otherwise NoConvergenceError is raised
at once, carrying the residual and the bracket.  A p = 2 solve is judged
the same way: its residual has the rounding floor eps * ||L|| * ||tau||,
above the default tol on long paths (2.3e-10 for a path of 2000 free
vertices).

Below p = 2 the tangent model sends the difference d of an edge near a tie
to d(p-2)/(p-1), across 0, so the edge flips sign at every Newton step;
``_curvature`` gives it the secant weight of the IRLS majorizer of |x|^p/p
(Daubechies et al., CPAM 2010), which sends d to 0: a random 400-vertex
graph of degree 6 at p = 1.5 takes 26 Newton steps instead of 91.

The continuation toward p > 2 is path following: each intermediate leg
takes one damped Newton (corrector) step, because the power transform of
the next leg discards whatever accuracy a leg reaches, and only the final
leg runs to tol.  Legs toward p < 2 are each run to 1e-6 * max|u|: with
one step per leg there, the final leg inherits a worse start, takes more
steps in all and fails more often near p = 1.

A caveat near p = 1: there the floor is about 0.16 at p = 1.05, and the
bracket often stays wide too, so some solves raise even on paths.  Of 34
paths (11 lengths from 1 to 100 free vertices) and stars (6 sizes from 2
to 40 edges) with unit and degree masses, one raises at p = 1.05 and none
at p = 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbsv, dposv
from scipy.sparse._sparsetools import csr_matvec

from .energy import _mlp, _power_sum, _qp, _values, functional_Fp, phi_p
from .errors import (
    IllPosedError,
    NoConvergenceError,
    UnboundedComponentError,
    UnsupportedCombinationError,
)
from .graphs import ProblemSpec, VertexId, WeightedGraph, boundary_entries

_METHODS = ("auto", "gauss_seidel", "newton", "direct_p2")

# free vertices up to which the Laplacian is a dense array; sparse above
DENSE_LIMIT = 500
# free vertices above which an exact solve up to DENSE_LIMIT runs LAPACK's
# banded Cholesky in reverse Cuthill-McKee order instead of the dense one.
# Per solve the band is faster from 30-50 free vertices, but its layout costs
# 40-90 us once per problem: whole Newton solves at p = 1.5 and 3 gain from
# about 64 free vertices on paths and grids (150 on random graphs of degree
# 6), p = 2 solves from about 130 (260); one BLAS thread, 2-core Xeon
BAND_MIN_FREE = 64
# the Krylov-side test (module docstring): free vertices from which PCG
# overtakes a dense Cholesky solve, inner edges per free vertex, and hops
# from the first free vertex in units of log2(free vertices)
KRYLOV_MIN_FREE = 256
KRYLOV_EDGE_RATIO = 1.25
KRYLOV_HOPS = 2.0
# PCG steps after which a solve gives up and is solved exactly instead
PCG_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class SolverOptions:
    """tol: absolute sup-norm target for the pointwise residual; None means
    1e-10 * max(1, max m).  A Newton solve that stalls above it is accepted
    when its Polya/Thomson bracket of T_p has relative width <= 1e-12.
    max_iterations caps the Newton steps of a solve, summed over its
    continuation legs (each leg takes at most 400), or its Gauss-Seidel
    sweeps; for lambda0 it caps each inner Newton leg (again at most 400).
    method is one of 'auto', 'gauss_seidel', 'newton', 'direct_p2'; 'auto'
    picks direct_p2 for p = 2 and Newton otherwise.  tol must be None or a
    finite number >= 0 (0 solves to rounding, and a Newton or direct_p2 solve
    is then judged on its bracket), and max_iterations an int >= 1, neither
    of them a bool; anything else raises ValueError."""

    tol: float | None = None
    max_iterations: int = 1_000_000
    method: str = "auto"

    def __post_init__(self) -> None:
        tol, cap = self.tol, self.max_iterations
        number = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
        if tol is not None and not (number and np.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be None or a finite number >= 0, got {tol!r}")
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise ValueError(f"max_iterations must be an int >= 1, got {cap!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method {self.method!r} not in {_METHODS}")


@dataclass(frozen=True)
class TorsionSolution:
    """tau: the torsion function (zero on the Dirichlet set); rigidity is
    (sum of tau * m over free vertices)^(p-1), or for a direct_p2 or Newton
    solve accepted on its rigidity bracket the bracket's Polya side;
    residual_inf is the final max_v |L_p tau(v) - 1|, above tol only for
    such a solve."""

    tau: dict[VertexId, float]
    rigidity: float
    residual_inf: float
    iterations: int
    method: str


@dataclass(frozen=True, eq=False)
class _Assembled:
    g: WeightedGraph
    free: np.ndarray          # indices of free vertices, input order
    # the Laplacian on the free vertices: triplet k adds concat(w_e, -w_e,
    # c_v)[lap_src[k]] to stored entry lap_slot[k]; the stored entries sit at
    # the flat positions lap_cell, sorted: in CSR order, with row pointers
    # lap_indptr and columns lap_col (int32, so that scipy's matrices share
    # them instead of copying them), and the diagonal at lap_diag
    lap_src: np.ndarray
    lap_slot: np.ndarray
    lap_cell: np.ndarray
    lap_indptr: np.ndarray
    lap_col: np.ndarray
    lap_diag: np.ndarray
    krylov: bool              # solves with a target run PCG, not a factor

    @cached_property
    def band(self) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
        """The Laplacian's layout in LAPACK upper band storage in reverse
        Cuthill-McKee order, computed on the first banded solve: the order
        (position k holds free vertex order[k]), the half-bandwidth kd, and the
        stored entries on and above the diagonal of the reordered matrix with
        their flat cells in an F-ordered (kd + 1) x nf band array."""
        nf = len(self.free)
        pattern = sp.csr_matrix((np.ones(len(self.lap_col)), self.lap_col, self.lap_indptr), shape=(nf, nf))
        order = csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)
        pos = np.empty(nf, dtype=np.intp)
        pos[order] = np.arange(nf)
        i, j = pos[self.lap_cell // nf], pos[self.lap_col]
        kd = int(np.max(j - i))  # the pattern is symmetric
        upper = np.flatnonzero(i <= j)
        i, j = i[upper], j[upper]
        return order, kd, upper, kd + i - j + j * (kd + 1)


def _on_krylov_side(nf: int, lap_col: np.ndarray, lap_indptr: np.ndarray) -> bool:
    """The Krylov-side test of KRYLOV_MIN_FREE, KRYLOV_EDGE_RATIO and
    KRYLOV_HOPS on the pattern of the Laplacian."""
    if nf < KRYLOV_MIN_FREE:
        return False
    # the pattern holds the nf diagonal entries and each inner edge twice
    if len(lap_col) - nf < 2 * KRYLOV_EDGE_RATIO * nf:
        return False
    # one unweighted search from the first free vertex, cut at the hop
    # limit; the pattern is symmetric, so a directed search suffices
    links = sp.csr_matrix((np.ones(len(lap_col)), lap_col, lap_indptr), shape=(nf, nf))
    hops = csgraph.dijkstra(
        links, directed=True, indices=0, unweighted=True, limit=KRYLOV_HOPS * np.log2(nf)
    )
    return bool(np.isfinite(hops).all())


def _assemble(spec: ProblemSpec) -> _Assembled:
    g = spec.graph
    free = spec._free
    pos = np.full(g.vertex_count, -1, dtype=int)
    pos[free] = np.arange(len(free))
    ne = g.edge_count
    pa, pb = pos[g.ei], pos[g.ej]
    ka, kb = np.flatnonzero(pa >= 0), np.flatnonzero(pb >= 0)
    kab = np.flatnonzero((pa >= 0) & (pb >= 0))
    nf = len(free)
    lap_src = np.concatenate([ka, kb, ne + kab, ne + kab, 2 * ne + free])
    row = np.concatenate([pa[ka], pb[kb], pa[kab], pb[kab], pos[free]])
    col = np.concatenate([pa[ka], pb[kb], pb[kab], pa[kab], pos[free]])
    lap_cell, lap_slot = np.unique(row * nf + col, return_inverse=True)
    lap_indptr = np.searchsorted(lap_cell, np.arange(nf + 1) * nf).astype(np.int32)
    lap_col = (lap_cell % nf).astype(np.int32)
    lap_diag = lap_slot[len(lap_slot) - nf:]  # the c_v triplets come last
    krylov = _on_krylov_side(nf, lap_col, lap_indptr)
    return _Assembled(g, free, lap_src, lap_slot, lap_cell, lap_indptr, lap_col, lap_diag, krylov)


def _check_bounded(spec: ProblemSpec, asm: _Assembled) -> None:
    """Every free component must touch a Dirichlet vertex or carry c > 0.

    A free component with no Dirichlet neighbor has only free neighbors, so
    it is a whole component of the graph: the test is that every component
    of the graph holds a Dirichlet vertex or a vertex with c > 0."""
    if not spec.well_posed:
        raise IllPosedError("no Dirichlet vertex and c identically zero")
    if len(asm.free) == 0:
        raise IllPosedError("no free vertices to solve for")
    ncomp, label = asm.g._components
    anchored = np.zeros(ncomp, dtype=bool)
    anchored[label[spec._pinned | (asm.g.c > 0.0)]] = True
    # the first vertex of each component is its smallest-index vertex
    _, first = np.unique(label, return_index=True)
    loose = np.sort(first[~anchored])
    if len(loose):
        names = [asm.g.vertices[k] for k in loose]
        raise UnboundedComponentError(
            f"free components at {names} have no Dirichlet link and no potential"
        )


def _objective(asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray) -> float:
    return _qp(asm.g, p, u) - float(np.dot(rhs, u))


def _gradient(asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """The gradient g = m L_p u - rhs of the objective on the free vertices,
    and the residual max |g| / m; inf or nan, quietly, where a flux
    w phi_p(du) overflows, and no comparison with a tolerance accepts that."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = (_mlp(asm.g, p, u) - rhs)[asm.free]
        return g, float(np.max(np.abs(g) / asm.g.m[asm.free]))


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


class _System:
    """The reweighted Laplacian restricted to the free vertices,

        A = sum_e w_e (1_a - 1_b)(1_a - 1_b)^T + diag(c_v),

    for edge weights w_e and vertex weights c_v, with the solve policy of
    the module docstring: Jacobi-PCG, dense or banded Cholesky, or a sparse
    factor.  The dense and CSC forms, and the factor, are built on first use
    and kept for later solves of the same object; the band is filled anew
    for each banded solve, in the layout its _Assembled keeps."""

    def __init__(self, asm: _Assembled, w_e: np.ndarray, c_v: np.ndarray) -> None:
        self._asm = asm
        vals = np.concatenate((w_e, -w_e, c_v))[asm.lap_src]
        self._data = np.bincount(asm.lap_slot, weights=vals, minlength=len(asm.lap_cell))
        self._lu: spla.SuperLU | None = None

    @cached_property
    def A(self) -> np.ndarray | sp.csc_matrix:
        """A dense array up to DENSE_LIMIT free vertices, CSC above; read by
        the dense eigensolvers of ``spectral``, the dense Cholesky solve and
        the LU fallback of a failed dense or banded Cholesky."""
        nf = len(self._asm.free)
        if nf > DENSE_LIMIT:
            return self._sparse
        A = np.zeros(nf * nf)
        A[self._asm.lap_cell] = self._data
        return A.reshape(nf, nf)

    @cached_property
    def _sparse(self) -> sp.csc_matrix:
        """A in CSC form, for the factor: A is symmetric, so these are its CSR arrays."""
        asm, nf = self._asm, len(self._asm.free)
        return sp.csc_matrix((self._data, asm.lap_col, asm.lap_indptr), shape=(nf, nf))

    def factor(self) -> spla.SuperLU:
        """The sparse factor of A (above DENSE_LIMIT), computed once."""
        if self._lu is None:
            self._lu = _factor(self.A)
        return self._lu

    def solve(self, b: np.ndarray, target: float | None = None) -> np.ndarray:
        """Solve A x = b; LinAlgError if A is singular.  A target, the
        residual max|b - A x| / m over the free vertices, lets a Krylov-side
        problem run PCG; without one the solve is exact to rounding."""
        asm, nf = self._asm, len(b)
        if target is not None and asm.krylov:
            return self._pcg(b, target)
        if nf > DENSE_LIMIT:
            return self.factor().solve(b)
        if nf > BAND_MIN_FREE:
            order, kd, upper, cell = asm.band
            ab = np.zeros((kd + 1) * nf)
            ab[cell] = self._data[upper]
            # ab.reshape(nf, kd + 1).T is the F-contiguous band LAPACK takes
            _, y, info = dpbsv(ab.reshape(nf, kd + 1).T, b[order], overwrite_ab=1, overwrite_b=1)
            if info == 0:
                x = np.empty(nf)
                x[order] = y
                return x
        else:
            # A.T equals A and is F-contiguous, the layout LAPACK takes
            _, x, info = dposv(self.A.T, b)
            if info == 0:
                return x
        return np.linalg.solve(self.A, b)  # not numerically positive definite: general LU

    def _pcg(self, b: np.ndarray, target: float) -> np.ndarray:
        """Jacobi-preconditioned conjugate gradients to max|b - A x| / m <=
        target over the free vertices.

        When the recursive residual meets the target, the true residual is
        computed; if the recursion drifted from it, CG restarts from the true
        residual (residual replacement).  When a replacement does not lower
        the true residual below the previous one's, the residual has reached
        its rounding floor above the target and x is returned as it is; the
        caller judges it.  After PCG_MAX_ITERATIONS steps A is solved exactly
        instead.  The loop builds no matrix and works in place: its product
        is csr_matvec on the assembled arrays, the kernel of scipy's A @ d."""
        asm, nf = self._asm, len(b)
        m = asm.g.m[asm.free]
        inv_diag = 1.0 / self._data[asm.lap_diag]  # the preconditioner
        x, r = np.zeros(nf), b.copy()
        z, d, q, t = np.empty(nf), np.empty(nf), np.empty(nf), np.empty(nf)
        rz, floor = None, np.inf  # rz is None where CG (re)starts
        for _ in range(PCG_MAX_ITERATIONS):
            if np.divide(np.abs(r, out=t), m, out=t).max() <= target:
                q.fill(0.0)
                csr_matvec(nf, nf, asm.lap_indptr, asm.lap_col, self._data, x, q)
                res = np.divide(np.abs(np.subtract(b, q, out=r), out=t), m, out=t).max()
                if res <= target or res >= floor:
                    return x
                rz, floor = None, res
            np.multiply(inv_diag, r, out=z)
            rz_new = float(np.dot(r, z))
            if rz is not None:  # d = z + beta d, into z's array
                z += np.multiply(rz_new / rz, d, out=d)
            d, z, rz = z, d, rz_new
            q.fill(0.0)
            csr_matvec(nf, nf, asm.lap_indptr, asm.lap_col, self._data, d, q)
            alpha = rz / float(np.dot(d, q))
            x += np.multiply(alpha, d, out=t)
            r -= np.multiply(alpha, q, out=t)
        return self.solve(b)


def _operator(asm: _Assembled) -> _System:
    """The p = 2 operator on the free vertices, the weighted Laplacian plus
    the potential; NoConvergenceError if an entry overflows a float."""
    K = _System(asm, asm.g.w, asm.g.c)
    if not np.isfinite(K._data).all():
        raise NoConvergenceError("an entry of the p = 2 operator overflows a float")
    return K


def _torsion_p2(asm: _Assembled, rhs: np.ndarray, tol: float) -> np.ndarray:
    """The p = 2 solution of L u = rhs on the free vertices (zero on the
    Dirichlet set), to residual tol where PCG runs."""
    u = np.zeros(asm.g.vertex_count)
    u[asm.free] = _operator(asm).solve(rhs[asm.free], tol)
    if not np.isfinite(u).all():
        raise NoConvergenceError("tau overflows a float in the p = 2 solve")
    return u


def _curvature(asm: _Assembled, p: float, u: np.ndarray, last: tuple | None = None) -> tuple:
    """Edge and vertex weights of the regularized Hessian of F_p, which is
    _System(asm, *_curvature(asm, p, u)[:2]).A, and the sign flips that the
    next step passes back as last (None for p >= 2).

    For p >= 2 a tiny epsilon is added to the |grad|^(p-2) factors (they
    vanish at equal neighbor values); for p < 2 the factors blow up there,
    so the gradient magnitude is floored instead, and an edge that flipped
    sign in either of the last two steps, above the floor both times, gets
    the secant weight w|d|^(p-2), not the tangent's (p-1) w|d|^(p-2).
    Either way the matrix stays symmetric positive definite and the step
    remains a descent direction for the exact F_p.
    """
    scale = max(1.0, float(np.max(np.abs(u))) if len(u) else 1.0)
    d = u[asm.g.ei] - u[asm.g.ej]
    ad = np.abs(d)
    au = np.abs(u)
    if p >= 2.0:
        we = ad ** (p - 2.0) + 1e-12
        wu = au ** (p - 2.0) + 1e-12
        flips = None
    else:
        # the curvature blows up at equal neighbor values; floor the gradient
        # magnitude at the float granularity of the iterate so genuinely
        # stiff near-tie directions keep their true curvature
        floor = 64.0 * np.finfo(float).eps * scale
        we = np.maximum(ad, floor) ** (p - 2.0)
        wu = np.maximum(au, floor) ** (p - 2.0)
        # a difference at the floor (a mirror tie, say) never counts as a flip
        d[ad <= floor] = 0.0
        before, flipped = last or (d, False)
        flips = (d, d * before < 0.0)
        we[flips[1] | flipped] /= p - 1.0
    return asm.g.w * (p - 1.0) * we, asm.g.c * (p - 1.0) * wu, flips


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
    stall.

    On the Krylov side the step is inexact at every p: PCG solves the
    Hessian to the residual eta_k * res_k with the forcing term eta_k =
    min(1e-3, res_k / res_0), res_0 the residual at the start of the leg.
    A looser forcing term costs Newton steps, and the one-step corrector
    legs of the continuation need the 1e-3 at their only step.  Each
    iterate's gradient is evaluated once and F_p only in the line search; a
    non-finite residual or step ends the leg with the overflow error;
    flipped edges take the secant weight at p < 2; the caller's u is not
    written to."""
    g, res = _gradient(asm, p, rhs, u)
    res_start = best = res
    it = 0
    stale = 0
    flips = None
    while not res <= tol and it < cap:
        it += 1
        # an overflowing gradient or Hessian weight ends the leg before any step
        with np.errstate(over="ignore", invalid="ignore"):
            ce, cc, flips = _curvature(asm, p, u, flips)
        if not (np.isfinite(g).all() and np.isfinite(ce).all() and np.isfinite(cc).all()):
            raise NoConvergenceError(f"the Newton step at p = {p:.6g} overflows a float", it, res)
        H = _System(asm, ce, cc)
        target = min(1e-3, res / res_start) * res
        try:
            step = H.solve(-g, target)
        except np.linalg.LinAlgError:
            step = _System(asm, ce, cc + 1e-10 * (1.0 + abs(H.A).max())).solve(-g)
        # for p < 2 the curvature model flattens far from the minimizer and
        # raw steps can overshoot by orders of magnitude
        limit = 0.5 * max(1.0, float(np.max(np.abs(u[asm.free]))))
        with np.errstate(over="ignore", invalid="ignore"):
            size = float(np.max(np.abs(step)))
            if size > limit:
                step *= limit / size
            slope = float(np.dot(g, step))
            if slope >= 0.0:
                step = -g
                slope = -float(np.dot(g, g))
        if not np.isfinite(slope):  # an infinite step, or its slope
            raise NoConvergenceError(f"the Newton step at p = {p:.6g} overflows a float", it, res)
        # near the minimum the objective differences underflow before the
        # gradient does; accept the full step on strict residual decrease
        trial = u.copy()
        trial[asm.free] = u[asm.free] + step
        g_full, res_full = _gradient(asm, p, rhs, trial)
        if res_full <= 0.9 * res:
            g, res = g_full, res_full
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                fval = _objective(asm, p, rhs, u)
                alpha = 1.0
                while alpha > 1e-18:
                    trial[asm.free] = u[asm.free] + alpha * step
                    if _objective(asm, p, rhs, trial) <= fval + 1e-4 * alpha * slope:
                        break
                    alpha *= 0.5
                else:  # no trial passed: take the smallest step
                    trial[asm.free] = u[asm.free] + alpha * step
            g, res = _gradient(asm, p, rhs, trial)
        u = trial
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
    the p = 2 solution to the target, changing s by a ratio in
    [3/4, 4/3] per leg and transforming the iterate by the matching
    elementwise power; this keeps every leg inside Newton's fast local
    regime.  Toward p > 2 it follows the path with one corrector step per
    intermediate leg; toward p < 2 each intermediate leg runs to
    1e-6 * max|u|.  The final leg runs to tol; solve_torsion judges one
    that stops above tol on its rigidity bracket.  max_iter caps the Newton
    steps of all legs together."""
    u = _torsion_p2(asm, rhs, tol)
    it = 0
    s_cur = 1.0
    s_tgt = 1.0 / (p - 1.0)
    while True:
        ratio = float(np.clip(s_tgt / s_cur, 0.75, 4.0 / 3.0))
        s_cur *= ratio
        leg_p = 1.0 + 1.0 / s_cur
        with np.errstate(over="ignore"):
            u[asm.free] = phi_p(u[asm.free], 1.0 + ratio)
        if not np.isfinite(u).all():
            raise NoConvergenceError(f"tau overflows a float in the continuation to p = {leg_p:.6g}", it)
        final = abs(np.log(s_tgt / s_cur)) < 1e-12
        cap = min(400, max_iter - it)
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
            return u, it, res


def _certify(
    asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray,
    what: str, iterations: int, res: float, tol: float,
) -> float:
    """Accept an iterate that stopped at residual res > tol when its
    Polya/Thomson bracket pins T_p down to 1e-12 relative, and return the
    bracket's Polya (lower) side as T_p; the residual has a rounding floor
    (for p < 2, and at p = 2 for large tau).  Otherwise, and when a float
    power in the bracket overflows or its energy underflows to 0 (or the
    upper side underflows below the lower), raise NoConvergenceError at
    once."""
    try:
        lower, upper = _rigidity_bracket(asm, p, rhs, u)
    except (OverflowError, ZeroDivisionError) as exc:
        side = "overflows" if isinstance(exc, OverflowError) else "underflows"
        msg = f"{what} stopped at residual {res:.3e} > tol {tol:.3e}, and the bracket on T_p {side} a float"
        raise NoConvergenceError(msg, iterations, res) from None
    if not abs(upper - lower) <= 1e-12 * upper:
        msg = f"{what} stopped at residual {res:.3e} > tol {tol:.3e} with T_p in [{lower:.17g}, {upper:.17g}]"
        raise NoConvergenceError(msg, iterations, res)
    return lower


def _rigidity_bracket(
    asm: _Assembled, p: float, rhs: np.ndarray, u: np.ndarray
) -> tuple[float, float]:
    """Bracket lower <= T_p <= upper from any u vanishing on the Dirichlet
    set.

    Below, the Polya quotient (sum |u| m)^p / (sum w|du|^p + sum c|u|^p).
    Above, the Thomson energy (sum w |x|^p' + sum c |y|^p')^(p-1) of the
    flux (w x, c y) = (w phi_p(du), c phi_p(u)) of u, made admissible
    (divergence m at every free vertex) by subtracting the p = 2 flux
    (w dz, c z) of the solution z of L z = residual.  Both sides
    equal T_p at the torsion function and err to second order near it.  The
    enclosure holds in exact arithmetic; in floats the upper side carries
    the rounding of that correction, which grows with the distance of u
    from tau.
    """
    d = u[asm.g.ei] - u[asm.g.ej]
    energy = _power_sum(asm.g.w, d, p) + _power_sum(asm.g.c, u, p)
    lower = float(np.dot(rhs, np.abs(u))) ** p / energy
    z = np.zeros(len(u))
    z[asm.free] = _operator(asm).solve(_gradient(asm, p, rhs, u)[0])
    x = phi_p(d, p) - (z[asm.g.ei] - z[asm.g.ej])
    y = phi_p(u, p) - z
    q = p / (p - 1.0)
    dual = _power_sum(asm.g.w, x, q) + _power_sum(asm.g.c, y, q)
    return lower, dual ** (p - 1.0)


def _scalar_solve(
    nb_vals: np.ndarray, nb_w: np.ndarray, cv: float, rhs: float, t0: float, p: float
) -> float:
    """Solve sum_w b phi_p(t - u_w) + c phi_p(t) = rhs for the scalar t.

    The left side h(t) + rhs is strictly increasing, so a bracket expanded
    from the warm start t0 until h changes sign holds the one root, which
    Brent's method (``scipy.optimize.brentq``; Brent 1973) finds to within
    8 units in the last place of t.  The first step is the largest of the
    data's own scales: s = (|rhs|/(W + c))^(1/(p-1)) with W the neighbour
    weight, the spread of the neighbour values, the distance from t0 to
    them and |t0|.  In exact arithmetic it is 0 only when t0 is the root;
    s can underflow to 0 at small p (rhs/W = 5e-18 at p = 1.05 gives 1e-347)
    while h(t0) != 0, so the step is at least the smallest subnormal.  Since
    the root lies within s of the hull of 0 and the neighbour values, at
    most two steps from t0, one doubling reaches it.  A step with a floor of 1 instead
    cost up to 221 evaluations of h on 281 phi_p(t) = 0.25 at p = 1.05
    (root 9.7e-62) from starts between -1e4 and 1e4; this one costs at most
    74.  Bisection alone narrows any bracket of finite floats to the
    absolute tolerance 2^-1022 in 2047 steps, so the cap is 2048.  A root
    not reached by then is left to the next sweep, which the residual
    judges.  At p = 2 the equation is linear and solved in closed form.
    """
    if p == 2.0:
        return (rhs + float(np.dot(nb_w, nb_vals))) / (float(np.sum(nb_w)) + cv)
    # imported here, not at the top: scipy.optimize adds about 0.2 s and 15 MB
    # to every `import torsio`, and only Gauss-Seidel needs it
    from scipy.optimize import brentq

    def h(t: float) -> float:
        val = float(np.dot(nb_w, phi_p(t - nb_vals, p)))
        if cv != 0.0:
            val += cv * float(phi_p(t, p))
        return val - rhs

    h0 = h(t0)
    if h0 == 0.0:
        return t0
    # from t0 toward the root, doubling the step until h changes sign
    spread = reach = 0.0
    if nb_vals.size:
        spread = float(np.max(nb_vals) - np.min(nb_vals))
        reach = float(np.max(np.abs(nb_vals - t0)))
    size = (abs(rhs) / (float(np.sum(nb_w)) + cv)) ** (1.0 / (p - 1.0))
    step = max(size, spread, reach, abs(t0)) or np.finfo(float).smallest_subnormal
    toward = 1.0 if h0 < 0.0 else -1.0
    near, far = t0, t0 + toward * step
    while toward * h(far) < 0.0:
        near, step = far, 2.0 * step
        far += toward * step
    lo, hi = min(near, far), max(near, far)
    return brentq(h, lo, hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps, maxiter=2048, disp=False)


def _gs_sweeps(
    asm: _Assembled,
    p: float,
    rhs: np.ndarray,
    tol: float,
    max_sweeps: int,
    u: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Cyclic exact scalar solves in ascending internal vertex order: the
    gauss_seidel method.  No other method calls it.  A float operation of a
    sweep that overflows or turns invalid, in Python or in numpy, stops the
    solve with NoConvergenceError in that sweep."""
    cut = asm.g._indptr[1:-1]
    nbi, nbw = np.split(asm.g._nbr, cut), np.split(asm.g._nbw, cut)

    _, res = _gradient(asm, p, rhs, u)
    sweeps = 0
    while res > tol and sweeps < max_sweeps:
        sweeps += 1
        try:
            with np.errstate(over="raise", invalid="raise"):
                for i in asm.free:
                    u[i] = _scalar_solve(u[nbi[i]], nbw[i], float(asm.g.c[i]), float(rhs[i]), float(u[i]), p)
        except ArithmeticError:
            msg = f"tau overflows a float at vertex {asm.g.vertices[i]!r} in Gauss-Seidel sweep {sweeps}"
            raise NoConvergenceError(msg, sweeps, res) from None
        _, res = _gradient(asm, p, rhs, u)
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
    rhs = np.where(spec._pinned, 0.0, asm.g.m)

    method = opts.method
    if method == "auto":
        method = "direct_p2" if p == 2.0 else "newton"
    if method == "direct_p2":
        if p != 2.0:
            raise UnsupportedCombinationError("direct_p2 requires p = 2")
        u = _torsion_p2(asm, rhs, tol)
        iterations = 1
        _, res = _gradient(asm, p, rhs, u)
    elif method == "newton":
        u, iterations, res = _solve_newton(asm, p, rhs, tol, opts.max_iterations)
    else:
        u = np.zeros(asm.g.vertex_count)
        u, iterations, res = _gs_sweeps(asm, p, rhs, tol, opts.max_iterations, u)
        if not res <= tol:
            msg = f"Gauss-Seidel stopped at residual {res:.3e} > tol {tol:.3e} after {iterations} sweeps"
            raise NoConvergenceError(msg, iterations, res)
    if not res <= tol:  # a direct_p2 or Newton solve that stopped above tol
        what = "direct solve" if method == "direct_p2" else "Newton"
        rigidity = _certify(asm, p, rhs, u, what, iterations, res, tol)
    else:
        with np.errstate(over="ignore"):
            l1 = float(np.dot(np.abs(u[asm.free]), asm.g.m[asm.free]))
        try:
            rigidity = l1 ** (p - 1.0)  # inf ** x is inf, without an OverflowError
        except OverflowError:
            rigidity = np.inf
        if not np.isfinite(rigidity):
            msg = f"T_p = (sum tau m)^(p-1) = {l1:.6g}^{p - 1.0:.6g} overflows a float"
            raise NoConvergenceError(msg, iterations, res)
    return TorsionSolution(
        tau=dict(zip(asm.g.vertices, u.tolist())),  # u stays 0.0 on the Dirichlet set
        rigidity=rigidity,
        residual_inf=res,
        iterations=iterations,
        method=method,
    )


def pointwise_residual(spec: ProblemSpec, u: Mapping[VertexId, float]) -> dict[VertexId, float]:
    """L_p u(v) - 1 at every free vertex;

    L_p u(v) = (1/m(v)) [ sum_w b(v,w) phi_p(u(v)-u(w)) + c(v) phi_p(u(v)) ].
    """
    g = spec.graph
    uv, free = _values(spec, u)
    res = (_mlp(g, spec.p, uv) - g.m)[free] / g.m[free]
    return dict(zip([g.vertices[i] for i in free], res.tolist()))


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
    # without a Dirichlet set there are no boundary entries, and every
    # vertex is free
    rows, weights = boundary_entries(spec)
    lhs = sum(b * float(phi_p(tau[g.vertices[i]], p)) for i, b in zip(rows, weights))
    lhs += sum(g.potential[v] * float(phi_p(tau[v], p)) for v in spec.free_vertices)
    rhs = spec.free_measure()
    return BalanceResult(lhs, rhs, abs(lhs - rhs) <= 1e-8 * rhs)


def rigidity_via_min(spec: ProblemSpec, sol: TorsionSolution) -> float:
    """Recover the rigidity from the minimum of F_p:

        T_p = ( p/(1-p) * F_p(tau) )^(p-1),

    which must agree with (sum tau m)^(p-1).
    """
    val = functional_Fp(spec, sol.tau)
    return (spec.p / (1.0 - spec.p) * val) ** (spec.p - 1.0)
