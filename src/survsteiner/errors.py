"""Exception types shared across the package.

Structural errors (graph shape does not admit the requested object) and
solver errors (no solution exists, or a subroutine declined) are kept as
distinct classes so callers can skip, retry or abort selectively.
"""


class SurvsteinerError(Exception):
    """Base class for every error raised by this package."""


# -- graph-core --------------------------------------------------------------

class NotTwoConnected(SurvsteinerError):
    """The (sub)graph is not 2-edge-connected / 2-node-connected as required."""


class Disconnected(SurvsteinerError):
    """An operation required a connected (sub)graph."""


class TerminalMissing(SurvsteinerError):
    """A terminal is not a node of the graph or subgraph in question."""


# -- solvers -----------------------------------------------------------------

class NoCycle(SurvsteinerError):
    """No simple cycle through the requested terminals exists."""


class NoPath(SurvsteinerError):
    """No simple path through the requested terminals exists."""


class Infeasible(SurvsteinerError):
    """The instance admits no feasible solution."""


class NoProtectedPath(SurvsteinerError):
    """No 1-protected connection between the requested nodes exists."""


class InfiniteMst(SurvsteinerError):
    """The auxiliary connection graph cannot be spanned by finite edges."""


class AlreadyModified(SurvsteinerError):
    """Pendant gadget applied to an instance that already carries it."""


class NotModified(SurvsteinerError):
    """Pendant gadget stripped from an instance/solution that lacks it."""


# -- oracle ------------------------------------------------------------------

class BudgetExceeded(SurvsteinerError):
    """The brute-force oracle refused an instance beyond its budget."""


# -- instance io -------------------------------------------------------------

class ParseError(SurvsteinerError):
    """Syntactic problem in an instance file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SemanticError(ParseError):
    """Well-formed line with an invalid meaning (negative cost, bad index)."""


class SpecInfeasible(SurvsteinerError):
    """The instance generator cannot realize the requested shape."""
