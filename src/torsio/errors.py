"""Exception hierarchy for torsio.

Every structural precondition failure has its own class so callers can gate
on the exact failure mode instead of parsing messages.
"""

from __future__ import annotations

__all__ = [
    "TorsioError",
    "DuplicateVertexError",
    "UnknownEndpointError",
    "UnknownVertexError",
    "SelfLoopError",
    "NonpositiveMassError",
    "NegativeWeightError",
    "NegativePotentialError",
    "InvalidExponentError",
    "InvalidSizeError",
    "EmptyDirichletSetError",
    "WeightIncreasedError",
    "DirichletAttachmentError",
    "NonzeroGuestPotentialError",
    "InvalidQError",
    "DisconnectedError",
    "TooFewVerticesError",
    "DomainMismatchError",
    "DirichletViolationError",
    "ZeroFunctionError",
    "ZeroEnergyError",
    "IllPosedError",
    "UnboundedComponentError",
    "NoConvergenceError",
    "AsymmetricDataError",
    "EvenVertexCountError",
    "UnsupportedCombinationError",
    "SchemaError",
]


class TorsioError(Exception):
    """Base class for all torsio errors."""


# --- graph construction -------------------------------------------------


class DuplicateVertexError(TorsioError):
    """A vertex id occurs more than once."""


class UnknownEndpointError(TorsioError):
    """An edge record references a vertex id that was never declared."""


class UnknownVertexError(TorsioError):
    """A vertex id is not part of the graph."""


class SelfLoopError(TorsioError):
    """An edge record connects a vertex to itself (b(v, v) must be 0)."""


class NonpositiveMassError(TorsioError):
    """A vertex measure m(v) <= 0 was supplied."""


class NegativeWeightError(TorsioError):
    """An edge weight b <= 0 or an attachment weight <= 0 was supplied."""


class NegativePotentialError(TorsioError):
    """A potential value c(v) < 0 was supplied."""


class InvalidExponentError(TorsioError):
    """The exponent p lies outside the supported window [1.05, 20]."""


class InvalidSizeError(TorsioError):
    """A generator was asked for a graph of impossible size."""


# --- surgery ------------------------------------------------------------


class EmptyDirichletSetError(TorsioError):
    """The operation needs a nonempty Dirichlet set."""


class WeightIncreasedError(TorsioError):
    """A weakening attempted to increase an edge weight or potential."""


class DirichletAttachmentError(TorsioError):
    """An insertion attempted to attach at a Dirichlet vertex."""


class NonzeroGuestPotentialError(TorsioError):
    """The inserted guest graph carries a nonzero potential."""


# --- geometry -----------------------------------------------------------


class InvalidQError(TorsioError):
    """The metric exponent q is unusable: q <= 1, or an edge cost
    b^(1/(q-1)) overflows a float at this q."""


class DisconnectedError(TorsioError):
    """A vertex is unreachable where connectivity is required."""


class TooFewVerticesError(TorsioError):
    """The operation needs at least two vertices."""


# --- functions over vertices ---------------------------------------------


class DomainMismatchError(TorsioError):
    """A vertex function is not defined on exactly the graph's vertex set."""


class DirichletViolationError(TorsioError):
    """A vertex function does not vanish on the Dirichlet set."""


class ZeroFunctionError(TorsioError):
    """The quotient is undefined for a function vanishing on all free vertices."""


class ZeroEnergyError(TorsioError):
    """The quotient is undefined because the energy of the function is zero."""


# --- solvers ------------------------------------------------------------


class IllPosedError(TorsioError):
    """No Dirichlet vertex and identically zero potential: the minimization
    problem has no finite solution."""


class UnboundedComponentError(TorsioError):
    """Some free component neither touches a Dirichlet vertex nor carries
    positive potential, so the functional is unbounded below on it."""


class NoConvergenceError(TorsioError):
    """Iteration budget exhausted before the residual target was met, or a
    stalled solve whose result could not be certified another way."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


# --- closed forms and reporting ------------------------------------------


class AsymmetricDataError(TorsioError):
    """Mirror symmetry of masses/weights is violated."""


class EvenVertexCountError(TorsioError):
    """The two-sided Dirichlet closed form needs an odd number of vertices."""


class UnsupportedCombinationError(TorsioError):
    """No closed form is available for the requested combination."""


class SchemaError(TorsioError):
    """A graph document does not conform to the JSON schema."""
