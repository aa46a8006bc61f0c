"""Exception hierarchy for the whole package.

Graph validation errors name the offending element so callers can report
actionable messages; numerical errors carry the quantity that tripped them.
"""

from __future__ import annotations


class DtnError(Exception):
    """Base class for all package errors."""


# --- graph validation -------------------------------------------------------

class GraphValidationError(DtnError):
    """Base class for errors raised while validating a graph description."""


class NotSimple(GraphValidationError):
    def __init__(self, element: object) -> None:
        self.element = element
        super().__init__(f"graph is not simple: offending edge {element!r}")


class Disconnected(GraphValidationError):
    def __init__(self, element: object) -> None:
        self.element = element
        super().__init__(f"graph is disconnected: vertex {element!r} unreachable")


class NonPositiveLength(GraphValidationError):
    def __init__(self, element: object, length: float) -> None:
        self.element = element
        self.length = length
        super().__init__(f"edge {element!r} has non-positive or non-finite length {length!r}")


class EmptyOuterSet(GraphValidationError):
    def __init__(self) -> None:
        super().__init__("outer vertex set is empty")


# --- matrix assembly --------------------------------------------------------

class AtPole(DtnError):
    """lambda lies in the per-edge Dirichlet spectrum within tolerance."""

    def __init__(self, lam: float, edge: object = None) -> None:
        self.lam = lam
        self.edge = edge
        msg = f"lambda={lam!r} is at a pole"
        if edge is not None:
            msg += f" of edge {edge!r}"
        super().__init__(msg)


class InnerBlockSingular(DtnError):
    """The inner block of -D is numerically singular (lambda near the reduced spectrum)."""

    def __init__(self, lam: float, cond: float) -> None:
        self.lam = lam
        self.cond = cond
        super().__init__(f"inner block singular at lambda={lam!r} (condition estimate {cond:.3e})")


class PoleCluster(DtnError):
    """Another pole lies inside the residue probe window."""


# --- spectra ----------------------------------------------------------------

class ResolutionTooLow(DtnError):
    """The mesh cannot resolve the eigenvalues asked for; a finer one may.

    `reason` replaces the drift message where no drift was measured.
    """

    def __init__(self, estimate: float, lam1: float, reason: str | None = None) -> None:
        self.estimate = estimate
        self.lam1 = lam1
        if reason is None:
            reason = (f"discretization error estimate {estimate:.3e} exceeds 1% of "
                      f"lambda_1={lam1:.6g}")
        super().__init__(f"{reason}; increase the resolution")


# --- searches ---------------------------------------------------------------

class BudgetExhausted(DtnError):
    def __init__(self, budget: int, best_residual: float, level: int) -> None:
        self.budget = budget
        self.best_residual = best_residual
        self.level = level
        super().__init__(
            f"search budget of {budget} points exhausted at level {level}; "
            f"best residual {best_residual:.3e}"
        )


class IndependenceNotAsserted(DtnError):
    def __init__(self, relation: tuple[int, ...] | None = None) -> None:
        self.relation = relation  # c with sum c_e L_e = 0, if the float test found one
        found = ("" if relation is None
                 else f"the edge lengths satisfy sum c_e L_e = 0 for c = {relation}; ")
        super().__init__(found + "rational independence of the edge lengths must be asserted by "
                         "the caller (pass assert_independent=True / --assert-independent)")


class NoCycle(DtnError):
    def __init__(self) -> None:
        super().__init__("the reduced graph is a tree: no cycle edge to perturb")


class NoEventualTarget(DtnError):
    def __init__(self) -> None:
        super().__init__("no candidate target reached the eventual class in the limit")


class LatticeBoxTooLarge(DtnError):
    """The lattice route's enumeration box would exceed its size bound."""

    def __init__(self, size: int, bound: int, n_edges: int) -> None:
        self.size = size
        self.bound = bound
        super().__init__(
            f"lattice enumeration box of {size} vectors for {n_edges} edges exceeds "
            f"the bound of {bound}"
        )


class LatticeSearchFailed(DtnError):
    def __init__(self, attempts: int) -> None:
        self.attempts = attempts
        super().__init__(
            f"lattice enumeration failed to locate an admissible window in {attempts} attempts"
        )


class NotCommensurable(DtnError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"edge lengths are not commensurable: {detail}")


class MuOutOfRange(DtnError):
    def __init__(self, mu: float, lam1: float) -> None:
        self.mu = mu
        self.lam1 = lam1
        super().__init__(f"mu={mu!r} outside the admissible interval (0, {lam1!r})")
