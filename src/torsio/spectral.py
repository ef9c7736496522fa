"""Bottom of the p-spectrum and, for p = 2, the lowest positive eigenvalue
of the operator without Dirichlet conditions.

For p = 2 the problem is the generalized symmetric eigenproblem
K phi = lambda M phi with K the weighted Laplacian plus potential restricted
to the free vertices (the solver's ``_laplacian``) and M = diag(m); it is
solved exactly by a dense symmetric eigensolver up to the solver's
DENSE_LIMIT free vertices and by shift-invert Lanczos, from a fixed positive
start vector, above; Lanczos inverts K through the solver's sparse
symmetric factor (``_factor``), the one its Newton steps use.

For p != 2 a nonlinear inverse power iteration is used on the problem
assembled and checked once: each step runs one damped Newton leg on
Q_p(v) - lambda_k <phi_p(u_k) m, v> from the current iterate, renormalizes,
and recomputes the Rayleigh quotient.  Started from positive constant data
the iterate stays nonnegative; the result is a variational upper bound for
the bottom of the spectrum, believed exact, and is labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import phi_p
from .errors import DisconnectedError, NoConvergenceError
from .graphs import ProblemSpec, VertexId, WeightedGraph
from .solver import (
    SolverOptions,
    _assemble,
    _check_bounded,
    _factor,
    _grad_full,
    _laplacian,
    _newton_leg,
    _objective,
)


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
    zero = np.zeros(len(asm.ids))
    op = _grad_full(asm, p, zero, u)  # m * L_p u on each vertex
    res = op[asm.free] / asm.m[asm.free] - lam * phi_p(u[asm.free], p)
    return float(np.max(np.abs(res))) if len(res) else 0.0


def _normalize(asm, p: float, u: np.ndarray) -> np.ndarray:
    norm = float(np.sum(np.abs(u[asm.free]) ** p * asm.m[asm.free])) ** (1.0 / p)
    return u / norm


def _rayleigh(asm, p: float, u: np.ndarray) -> float:
    q = _objective(asm, p, np.zeros(len(u)), u)  # Q_p(u)
    lp = float(np.sum(np.abs(u[asm.free]) ** p * asm.m[asm.free]))
    return p * q / lp


def _lambda0_p2(asm) -> tuple[float, np.ndarray, str]:
    K = _laplacian(asm, asm.w, asm.c)
    m_free = asm.m[asm.free]
    if isinstance(K, np.ndarray):
        vals, vecs = scipy.linalg.eigh(K, np.diag(m_free))
        method = "dense_eigh"
    else:
        # the ground state is positive, so this fixed start vector is never
        # orthogonal to it, and repeated calls give identical results
        M = sp.diags(m_free).tocsc()
        start = np.ones(len(m_free))
        inv_K = spla.LinearOperator(K.shape, matvec=_factor(K).solve, dtype=float)
        vals, vecs = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM", v0=start, OPinv=inv_K)
        method = "lanczos"
    lam = float(vals[0])
    vec = vecs[:, 0]
    if vec.sum() < 0.0:
        vec = -vec
    return lam, vec, method


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

    if p == 2.0 and method == "auto":
        lam, vec, method = _lambda0_p2(asm)
        u = np.zeros(len(asm.ids))
        u[asm.free] = vec
        u = _normalize(asm, p, u)
        lam = _rayleigh(asm, p, u)
        return SpectralSolution(
            lambda0=lam,
            ground_state={v: float(u[i]) for i, v in enumerate(asm.ids)},
            residual=_eigen_residual(asm, p, lam, u),
            method=method,
            iterations=1,
        )

    cap = min((opts or SolverOptions()).max_iterations, 400)
    u = np.zeros(len(asm.ids))
    u[asm.free] = 1.0
    u = _normalize(asm, p, u)
    lam = _rayleigh(asm, p, u)
    gap = max(1e-6 * lam, 1e-12)
    rhs = np.zeros(len(asm.ids))
    max_outer = 500
    for it in range(1, max_outer + 1):
        inner_tol = max(1e-12, 1e-2 * gap)
        rhs[asm.free] = lam * phi_p(u[asm.free], p) * asm.m[asm.free]
        # one Newton leg from the current iterate, best effort: any iterate
        # yields a valid Rayleigh value, and for p < 2 near-tied values put
        # the pointwise residual floor above tight tolerances; the outer gap
        # test stays strict.  The leg updates its iterate in place.
        v, _, _ = _newton_leg(asm, p, rhs, u.copy(), inner_tol, cap)
        v = _normalize(asm, p, np.abs(v))
        lam_new = _rayleigh(asm, p, v)
        gap = abs(lam_new - lam)
        u = v
        lam = lam_new
        if gap <= 1e-10 * max(lam, 1e-30):
            return SpectralSolution(
                lambda0=lam,
                ground_state={w: float(u[i]) for i, w in enumerate(asm.ids)},
                residual=_eigen_residual(asm, p, lam, u),
                method="inverse_power",
                iterations=it,
            )
    raise NoConvergenceError(
        f"inverse power iteration did not settle within {max_outer} steps",
        iterations=max_outer,
        residual=gap,
    )


def lambda1_p2(g: WeightedGraph) -> float:
    """Second smallest eigenvalue of the p = 2 operator on all vertices.

    With zero potential the smallest eigenvalue is 0 (constant eigenvector)
    and this is the spectral gap.  Implemented for p = 2 only.
    """
    if not g.is_connected:
        raise DisconnectedError("lambda1 needs a connected graph")
    spec = ProblemSpec(g, frozenset(), 2.0)
    asm = _assemble(spec)
    K = _laplacian(asm, asm.w, asm.c)
    K = K if isinstance(K, np.ndarray) else K.toarray()
    vals = scipy.linalg.eigh(K, np.diag(asm.m), eigvals_only=True, subset_by_index=(0, 1))
    return float(vals[1])
