"""Exception taxonomy for the coupling testbed."""

from __future__ import annotations


class FsiLabError(Exception):
    """Base class for all testbed errors."""


class ContractError(FsiLabError, ValueError):
    """A caller violated an operation's preconditions (bad lengths, types, values)."""


class GeometryError(FsiLabError):
    """Interface displacement produced a non-physical geometry (non-positive area)."""


class InnerIterationError(FsiLabError):
    """An inner iteration of a subproblem solver call failed.

    ``iteration`` is the failing inner iteration (1-based) when known.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class LinearSolveError(InnerIterationError):
    """Singular matrix in an inner iteration's correction solve."""


class DivergenceError(InnerIterationError):
    """A subproblem iteration produced non-finite or unbounded iterates."""


class DivergedStepError(FsiLabError):
    """The coupling loop did not converge within the allowed iterations.

    Carries the failing step's unconverged ``TimeStepRecord`` as ``partial``
    and, when raised by a full simulation, the partial run record up to and
    including the abort as ``record`` (None until the simulation sets it).
    Both name the failing step: ``partial.step`` and ``record.failing_step``.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial
        self.record = None


class RankDeficiencyError(FsiLabError):
    """Regression design matrix has rank below the number of coefficients."""


class SweepSpecError(ContractError):
    """Invalid sweep specification (missing reference cell, empty or duplicate grid,
    a sweep config key that does not parse)."""


class TableParseError(FsiLabError):
    """Malformed CSV or config input, located by its message's ``path:line:`` prefix."""
