"""Exception types raised by the :mod:`repro.ilp` solver stack."""

from __future__ import annotations


class IlpError(Exception):
    """Base class for every error raised by the ILP layer."""


class ModelError(IlpError):
    """The model is malformed (duplicate names, frozen model mutated, ...)."""


class ExpressionError(IlpError):
    """An algebraic operation on linear expressions is not representable.

    Raised for instance when two variables are multiplied together: the
    modeling layer only represents *linear* expressions, so a product of
    decision variables must be written as linear rows over a new variable
    (as :mod:`repro.core.families` does for the crossing indicators).
    """


class SolverError(IlpError):
    """A backend failed in an unexpected way (numerical breakdown, ...)."""


class UnboundedError(SolverError):
    """The linear relaxation is unbounded in the optimization direction."""


class BackendNotAvailableError(SolverError):
    """The requested solver backend is not installed or not registered."""
