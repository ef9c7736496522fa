"""Output checks that do not rely on the solver's own stopping rule.

Each check returns a Verdict: whether the output is right, why not, and
the accuracy figures that feed ``rigidity_err_max`` and
``lambda0_gap_max``.  The oracles are closed forms (paths, stars), the
Polya identity, a sparse direct solve and a dense eigensolve that the
benchmark runs with scipy on its own Laplacian (p = 2), the Barta/Rayleigh
bracket of a ground state, and csgraph/networkx for the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torsio import (
    PathSpecParams,
    path_rigidity,
    path_torsion_values,
    pointwise_residual,
    polya_quotient,
    rayleigh_quotient,
    star_rigidity,
    star_torsion,
)

# Relative agreement asked of T_p and of tau against an oracle.
RIGIDITY_RTOL = 1e-8
# lambda0 must equal the Rayleigh quotient of its own ground state.
RAYLEIGH_RTOL = 1e-9
# At p = 2 the eigensolvers are exact, so the certified bracket must be tight.
P2_GAP_MAX = 1e-6
GEOMETRY_RTOL = 1e-9
# Mismatches and gaps below this are rounding noise; the two accuracy
# metrics report at least this value so that they are never 0.
RESOLUTION = 1e-12
# Dense reference eigensolve up to this many free vertices.
DENSE_REFERENCE_MAX = 600


@dataclass
class Verdict:
    ok: bool = True
    reason: str = ""
    rigidity_err: float | None = None
    gap: float | None = None

    def fail(self, reason: str) -> "Verdict":
        if self.ok:
            self.ok, self.reason = False, reason
        return self

    def merge(self, other: "Verdict") -> "Verdict":
        if not other.ok:
            self.fail(other.reason)
        for name in ("rigidity_err", "gap"):
            a, b = getattr(self, name), getattr(other, name)
            if b is not None:
                setattr(self, name, b if a is None else max(a, b))
        return self


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Records:
    """The benchmark's own copy of an instance: vertex, edge and Dirichlet
    records, with index arrays for the scipy oracles."""

    def __init__(self, vertices, edges, dirichlet, p: float):
        self.ids = [v for v, _, _ in vertices]
        self.m = np.array([m for _, m, _ in vertices], dtype=float)
        self.c = np.array([c for _, _, c in vertices], dtype=float)
        index = {v: k for k, v in enumerate(self.ids)}
        self.ei = np.array([index[u] for u, _, _ in edges], dtype=int)
        self.ej = np.array([index[v] for _, v, _ in edges], dtype=int)
        self.b = np.array([b for _, _, b in edges], dtype=float)
        self.dirichlet = set(dirichlet)
        self.free = np.array([k for k, v in enumerate(self.ids) if v not in self.dirichlet], dtype=int)
        self.p = float(p)

    @classmethod
    def from_document(cls, doc: dict) -> "Records":
        return cls(
            [(v["id"], v["m"], v.get("c", 0.0)) for v in doc["vertices"]],
            [(e["u"], e["v"], e["b"]) for e in doc["edges"]],
            doc.get("dirichlet", []),
            doc.get("p", 2.0),
        )

    def adjacency(self, costs: np.ndarray) -> sp.csr_matrix:
        n = len(self.ids)
        return sp.coo_matrix(
            (np.r_[costs, costs], (np.r_[self.ei, self.ej], np.r_[self.ej, self.ei])), shape=(n, n)
        ).tocsr()

    def laplacian_free(self) -> sp.csc_matrix:
        """Weighted Laplacian plus potential, restricted to the free vertices."""
        a = self.adjacency(self.b)
        lap = sp.diags(np.asarray(a.sum(axis=1)).ravel() + self.c) - a
        return lap.tocsr()[self.free][:, self.free].tocsc()


# -- closed forms ----------------------------------------------------------


def closed_form_tau(rec: Records, kind: str) -> np.ndarray | None:
    """Exact tau on the free vertices for the benchmark's paths and stars."""
    masses = rec.m[1:]
    weights = np.ones(len(masses))
    if kind == "path":
        return path_torsion_values(masses, weights, rec.p)
    if kind == "star":
        tau = star_torsion(len(masses), masses, weights, rec.p)
        return np.array([tau[v] for v in rec.ids[1:]])
    return None


def closed_form_rigidity(rec: Records, kind: str) -> float | None:
    masses = tuple(rec.m[1:])
    weights = (1.0,) * len(masses)
    if kind == "path":
        return path_rigidity(PathSpecParams(len(masses), masses, weights, rec.p))
    if kind == "star":
        return star_rigidity(len(masses), masses, weights, rec.p)
    return None


# -- torsion -----------------------------------------------------------------


def check_torsion(spec, rec: Records, kind: str, tau: dict, rigidity: float) -> Verdict:
    """tau vanishes on V0 and is positive elsewhere; T_p matches the free
    l1 norm of tau, its Polya quotient, the closed form on paths and stars,
    and a scipy direct solve at p = 2."""
    v = Verdict()
    values = np.array([tau[x] for x in rec.ids])
    if any(tau[x] != 0.0 for x in rec.dirichlet):
        return v.fail("tau is nonzero on the Dirichlet set")
    if not np.all(values[rec.free] > 0.0):
        return v.fail("tau is not positive on the free vertices")
    if not (np.isfinite(rigidity) and rigidity > 0.0):
        return v.fail(f"rigidity {rigidity!r} is not positive")
    # T_p = (sum tau m)^(p-1) ties T_p to tau, and then the Polya quotient,
    # maximal at the true tau, is off to first order in any error of tau
    l1 = float(values[rec.free] @ rec.m[rec.free])
    errs = [_rel(l1 ** (rec.p - 1.0), rigidity), _rel(polya_quotient(spec, tau), rigidity)]
    ref_tau = closed_form_tau(rec, kind)
    if ref_tau is not None:
        errs.append(_rel(rigidity, closed_form_rigidity(rec, kind)))
    elif rec.p == 2.0:
        lu = spla.splu(rec.laplacian_free(), permc_spec="MMD_AT_PLUS_A")
        ref_tau = lu.solve(rec.m[rec.free])
        errs.append(_rel(rigidity, float(ref_tau @ rec.m[rec.free])))
    if ref_tau is not None:
        dev = np.max(np.abs(values[rec.free] - ref_tau)) / np.max(np.abs(ref_tau))
        if not dev <= RIGIDITY_RTOL:
            v.fail(f"tau deviates from the reference by {dev:.3e} (relative sup norm)")
    v.rigidity_err = max(errs)
    if not v.rigidity_err <= RIGIDITY_RTOL:
        v.fail(f"rigidity mismatch {v.rigidity_err:.3e} against its oracle")
    return v


# -- lambda0 -----------------------------------------------------------------


def barta_rayleigh(spec, rec: Records, phi: dict) -> tuple[float, float]:
    """Certified bracket of lambda0 from a positive trial function phi:
    Barta min_v L_p phi(v) / phi(v)^(p-1) below, Rayleigh R(phi) above."""
    residual = pointwise_residual(spec, phi)  # L_p phi - 1 on free vertices
    lower = min(
        (r + 1.0) / phi[x] ** (rec.p - 1.0) if phi[x] > 0.0 else -np.inf
        for x, r in residual.items()
    )
    return lower, rayleigh_quotient(spec, phi)


def check_lambda0(spec, rec: Records, lam: float, phi: dict) -> Verdict:
    """lambda0 is the Rayleigh quotient of a nonnegative ground state and
    lies in its Barta/Rayleigh bracket; at p = 2 that bracket is below
    P2_GAP_MAX and lambda0 matches a dense scipy eigensolve (small sizes)."""
    v = Verdict()
    if any(phi[x] != 0.0 for x in rec.dirichlet):
        return v.fail("ground state is nonzero on the Dirichlet set")
    if min(phi[x] for x in (rec.ids[k] for k in rec.free)) < 0.0:
        return v.fail("ground state changes sign")
    lower, upper = barta_rayleigh(spec, rec, phi)
    v.gap = (upper - lower) / upper if lower > 0.0 else 1.0
    if not _rel(lam, upper) <= RAYLEIGH_RTOL:
        return v.fail(f"lambda0 {lam!r} differs from its Rayleigh quotient {upper!r}")
    if lower > lam * (1.0 + RAYLEIGH_RTOL):
        return v.fail(f"Barta lower bound {lower!r} exceeds lambda0 {lam!r}")
    if rec.p == 2.0:
        if not v.gap <= P2_GAP_MAX:
            return v.fail(f"p = 2 bracket gap {v.gap:.3e} above {P2_GAP_MAX:g}")
        if len(rec.free) <= DENSE_REFERENCE_MAX:
            k = rec.laplacian_free().toarray()
            ref = scipy.linalg.eigh(k, np.diag(rec.m[rec.free]), eigvals_only=True,
                                    subset_by_index=(0, 0))[0]
            if not _rel(lam, ref) <= RIGIDITY_RTOL:
                v.fail(f"lambda0 {lam!r} differs from the dense reference {ref!r}")
    return v


# -- geometry and bounds -----------------------------------------------------


def reference_geometry(rec: Records) -> dict:
    """Inradius, mean distance, inverted diameter and min cut at q = p."""
    import scipy.sparse.csgraph as csgraph

    expo = 1.0 / (rec.p - 1.0)
    dist = csgraph.dijkstra(rec.adjacency(rec.b ** expo), directed=False,
                            indices=[rec.ids.index(x) for x in sorted(rec.dirichlet)],
                            min_only=True)
    powered = dist ** (rec.p - 1.0)
    mass = rec.m[rec.free]
    inv = csgraph.shortest_path(rec.adjacency((1.0 / rec.b) ** expo), directed=False)
    out = {
        "inradius": float(np.max(powered)),
        "mean_distance": float(powered[rec.free] @ mass / mass.sum()),
        "diameter_inverted": float(np.max(inv) ** (rec.p - 1.0)),
        "min_cut_weight": None,
    }
    try:
        import networkx as nx
    except ImportError:
        return out
    g = nx.Graph()
    g.add_weighted_edges_from(zip(rec.ei.tolist(), rec.ej.tolist(), rec.b.tolist()))
    out["min_cut_weight"] = float(nx.stoer_wagner(g)[0])
    return out


def check_geometry(rec: Records, values: dict) -> Verdict:
    v = Verdict()
    for name, ref in reference_geometry(rec).items():
        if ref is not None and not _rel(float(values[name]), ref) <= GEOMETRY_RTOL:
            v.fail(f"{name} {values[name]!r} differs from the reference {ref!r}")
    return v


def check_report(report: dict) -> Verdict:
    """A bound report (as to_dict gives it) with no violated applicable check."""
    v = Verdict()
    bad = [c["id"] for c in report["checks"] if c["applicable"] and c["satisfied"] is False]
    if bad or report["violations"]:
        v.fail(f"violated bounds {bad}")
    return v


def check_surgery(operation: str, before: Records, after: Records) -> Verdict:
    """Merging keeps the total mass and the edges not inside V0 and leaves one
    Dirichlet vertex; scaling by (2, 0.5) and inversion act exactly."""
    v = Verdict()
    if operation == "merge-dirichlet":
        inside = [k for k in range(len(before.b))
                  if before.ids[before.ei[k]] in before.dirichlet
                  and before.ids[before.ej[k]] in before.dirichlet]
        kept = before.b.sum() - before.b[inside].sum()
        if (len(after.dirichlet) != 1 or len(after.ids) != len(before.free) + 1
                or abs(after.m.sum() - before.m.sum()) > 1e-12 * before.m.sum()
                or abs(after.b.sum() - kept) > 1e-12 * kept):
            v.fail("merge-dirichlet changed the mass, the edges or the free vertices")
    elif operation == "scale":
        if not (list(after.m) == list(2.0 * before.m) and list(after.b) == list(0.5 * before.b)):
            v.fail("scale (mu = 2, lam = 0.5) is not exact")
    elif list(after.b) != list(1.0 / before.b):
        v.fail("invert does not give the reciprocal weights")
    return v


def reported_rigidity(report: dict) -> float | None:
    """T_p as check_all reports it: the left side of trivial_lower."""
    for c in report["checks"]:
        if c["id"] == "trivial_lower" and c["lhs"] is not None:
            return float(c["lhs"])
    return None
