"""Exception hierarchy shared by all motkit modules.

The split mirrors the CLI exit-code contract: bad input (2), a mathematically
negative answer such as infeasibility (1), and numerical failure (3).
"""


class MotkitError(Exception):
    """Base class for all motkit errors."""


class InputError(MotkitError, ValueError):
    """Malformed or out-of-contract input (bad file, bad range, bad geometry)."""


class SeparationError(InputError):
    """A forced sweep on a remainder no interval separates; pipeline.solve only."""


class NotInConvexOrderError(MotkitError):
    """The marginals are not in convex order; no martingale coupling exists."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolverFailureError(MotkitError):
    """A solver could not reach its residual target; carries diagnostics."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
