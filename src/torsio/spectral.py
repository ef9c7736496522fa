"""Bottom of the p-spectrum and, for p = 2, the lowest positive eigenvalue
of the operator without Dirichlet conditions.

For p = 2 the problem is the generalized symmetric eigenproblem
K phi = lambda M phi with K the weighted Laplacian plus potential restricted
to the free vertices and M = diag(m).  K is the solver's ``_operator``, also
for ``lambda1_p2`` on all vertices, so an entry of K that overflows a float
is a NoConvergenceError before any eigensolver runs.  The problem is solved
exactly by a dense symmetric eigensolver up to the solver's
DENSE_LIMIT free vertices and by shift-invert Lanczos, from a fixed positive
start vector, above.  Lanczos inverts K with the solver's p = 2 solve, to a
residual target of 1e-11 * max|b/m| for each right-hand side b: Jacobi-PCG
on the Krylov side (graphs without small separators), which keeps lambda0
within 1e-12 of a dense eigensolve, and otherwise one sparse factor, computed
before Lanczos starts and shared by all of its solves.  ARPACK tests its
Ritz values only when its subspace is full, so its default of 20 vectors
costs 21 solves however early lambda0 has converged; with 8 vectors it
takes 9 solves on a random 3000-vertex graph and 13 on a 100 x 100 grid.

For p != 2 a nonlinear inverse power iteration is used on the problem
assembled and checked once: each step runs one damped Newton leg on
Q_p(v) - lambda_k <phi_p(u_k) m, v> from the current iterate, renormalizes,
and recomputes the Rayleigh quotient.  The leg is the solver's, so on the
Krylov side its Hessians are solved inexactly by Jacobi-PCG at every p, and
otherwise exactly.  Each leg aims at 1e-2 times the last change of the
Rayleigh quotient (at least 1e-12) and stops early on its stall break.
Below p = 2 that aim lies under the residual's rounding floor (the flux is
only (p-1)-Hoelder in the values, so the rounding of near-equal neighbor
values is magnified), so a leg ends on the stall break: 3 steps in a row
that do not cut the best residual by 3 % end it; the torsion solve's
30-step window would spend most of a leg's steps at the floor.  At and
above p = 2 the legs keep the 30-step window: they start from the flat
constant vector, where the Hessian weights |du|^(p-2) are near 1e-12, and a
3-step window ends them before they leave it (lambda0 of a 20 x 20 grid at
p = 8 is then 140 times too large).  Started from positive constant data
the iterate stays nonnegative; the result is a variational upper bound for
the bottom of the spectrum, believed exact, and is labeled as such.

``lambda0`` runs under numpy's float-error policy of the public entries
(``energy``: overflow and invalid operations pass quietly), and the kernels
here set none, so a value out of float range is inf or nan without a
warning and meets an explicit test.  At both p, an iterate whose l^p(m)
norm leaves float range (sum |u|^p m is 0 or not finite, as when |u|^p
overflows against subnormal masses) is a NoConvergenceError, and so is a
result whose eigen-residual on a free vertex is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import _mlp, _qp, phi_p
from .errors import DisconnectedError, NoConvergenceError, TooFewVerticesError
from .graphs import ProblemSpec, VertexId, WeightedGraph
from .solver import _LEG_CAP, _LEG_STALL, SolverOptions, _assemble, _check_bounded, _newton_leg, _operator


@dataclass(frozen=True)
class SpectralSolution:
    """lambda0 with a ground state normalized to unit l^p(m) norm.

    residual is the sup norm of the pointwise eigen-residual
    L_p phi(v) - lambda phi_p(phi(v)) over free vertices.  method is
    'dense_eigh' (p = 2, exact), 'lanczos' (p = 2, large) or
    'inverse_power' (p != 2, variational upper bound believed exact).
    """

    lambda0: float
    ground_state: dict[VertexId, float]
    residual: float
    method: str
    iterations: int


def _eigen_residual(asm, p: float, lam: float, u: np.ndarray) -> float:
    """max over the free rows of |L_p u - lam phi_p(u)|; NoConvergenceError
    if a free row's residual is not finite.  The fluxes summed into a
    Dirichlet row, which is dropped, may overflow harmlessly."""
    res = _mlp(asm.g, p, u)[asm.free] / asm.m_free - lam * phi_p(u[asm.free], p)
    worst = float(np.max(np.abs(res))) if len(res) else 0.0
    if not np.isfinite(worst):
        raise NoConvergenceError(f"the lambda0 eigen-residual at p = {p:g} leaves float range")
    return worst


def _lp_mass(asm, p: float, u: np.ndarray) -> float:
    """sum |u|^p m over the free vertices, the p-th power of the l^p(m) norm."""
    lp = float(np.sum(np.abs(u[asm.free]) ** p * asm.m_free))
    if not 0.0 < lp < np.inf:
        raise NoConvergenceError(f"the l^p(m) norm of the lambda0 eigenvector at p = {p:g} leaves float range")
    return lp


def _normalize(asm, p: float, u: np.ndarray) -> np.ndarray:
    return u / _lp_mass(asm, p, u) ** (1.0 / p)


def _rayleigh(asm, p: float, u: np.ndarray) -> float:
    return p * _qp(asm.g, p, u) / _lp_mass(asm, p, u)


def _solution(asm, p: float, lam: float, u: np.ndarray, method: str, iterations: int):
    ground_state = dict(zip(asm.g.vertices, u.tolist()))
    return SpectralSolution(lam, ground_state, _eigen_residual(asm, p, lam, u), method, iterations)


def _lambda0_p2(asm) -> tuple[np.ndarray, str]:
    """The p = 2 ground state on the free vertices, positive, and the method."""
    K = _operator(asm)
    m_free = asm.m_free
    if isinstance(K.A, np.ndarray):
        _, vecs = scipy.linalg.eigh(K.A, np.diag(m_free))
        method = "dense_eigh"
    else:
        if not asm.krylov:
            K.factor  # before ARPACK allocates its Lanczos vectors
        inv_K = spla.LinearOperator(
            K.A.shape, matvec=lambda b: K.solve(b, 1e-11 * float(np.max(np.abs(b) / m_free))),
            dtype=float,
        )
        # the ground state is positive, so this fixed start vector is never
        # orthogonal to it, and repeated calls give identical results
        _, vecs = spla.eigsh(K.A, k=1, M=sp.diags(m_free).tocsc(), sigma=0.0, which="LM",
                             v0=np.ones(len(m_free)), OPinv=inv_K, ncv=8)
        method = "lanczos"
    vec = vecs[:, 0]
    return -vec if vec.sum() < 0.0 else vec, method


@np.errstate(over="ignore", invalid="ignore")
def lambda0(
    spec: ProblemSpec, opts: SolverOptions | None = None, method: str = "auto"
) -> SpectralSolution:
    """Bottom of the p-spectrum of the spec with its ground state.

    ``method`` is 'auto' (exact eigensolver for p = 2, inverse power
    otherwise) or 'inverse_power' (force the nonlinear iteration, also for
    p = 2, for cross-method validation).  Ill-posed specs and free
    components with no anchor raise as in ``solve_torsion``.
    """
    if method not in ("auto", "inverse_power"):
        raise ValueError(f"method {method!r} not in ('auto', 'inverse_power')")
    asm = _assemble(spec)
    _check_bounded(spec, asm)
    p = spec.p

    # the exact p = 2 ground state, else the constant start of inverse power
    exact = p == 2.0 and method == "auto"
    u = np.zeros(asm.g.vertex_count)
    u[asm.free], method = _lambda0_p2(asm) if exact else (1.0, "inverse_power")
    u = _normalize(asm, p, u)
    lam = _rayleigh(asm, p, u)
    if exact:
        return _solution(asm, p, lam, u, method, 1)

    cap = min((opts or SolverOptions()).max_iterations, _LEG_CAP)
    gap = max(1e-6 * lam, 1e-12)
    rhs = np.zeros(asm.g.vertex_count)
    # the stall window of each leg; see the module docstring
    stall = 3 if p < 2.0 else _LEG_STALL
    max_outer = 500
    for it in range(1, max_outer + 1):
        inner_tol = max(1e-12, 1e-2 * gap)
        rhs[asm.free] = lam * phi_p(u[asm.free], p) * asm.m_free
        # one Newton leg from the current iterate, best effort: any iterate
        # yields a valid Rayleigh value, and for p < 2 near-tied values put
        # the pointwise residual floor above tight tolerances; the outer gap
        # test stays strict
        v, _, _ = _newton_leg(asm, p, rhs, u, inner_tol, cap, stall)
        v = _normalize(asm, p, np.abs(v))
        lam_new = _rayleigh(asm, p, v)
        gap = abs(lam_new - lam)
        u = v
        lam = lam_new
        if gap <= 1e-10 * max(lam, 1e-30):
            return _solution(asm, p, lam, u, method, it)
    raise NoConvergenceError(
        f"inverse power iteration did not settle within {max_outer} steps",
        iterations=max_outer,
        residual=gap,
    )


def lambda1_p2(g: WeightedGraph) -> float:
    """Second smallest eigenvalue of the p = 2 operator on all vertices.

    With zero potential the smallest eigenvalue is 0 (constant eigenvector)
    and this is the spectral gap.  Implemented for p = 2 only.
    TooFewVerticesError below two vertices.
    """
    if g.vertex_count < 2:
        raise TooFewVerticesError(f"lambda1 needs at least 2 vertices, got {g.vertex_count}")
    if not g.is_connected:
        raise DisconnectedError("lambda1 needs a connected graph")
    asm = _assemble(ProblemSpec(g, frozenset(), 2.0))
    K = _operator(asm).A
    K = K if isinstance(K, np.ndarray) else K.toarray()
    vals = scipy.linalg.eigh(K, np.diag(asm.g.m), eigvals_only=True, subset_by_index=(0, 1))
    return float(vals[1])
