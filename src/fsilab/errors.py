"""Exception taxonomy for the coupling testbed."""

from __future__ import annotations


class FsiLabError(Exception):
    """Base class for all testbed errors."""


class ContractError(FsiLabError, ValueError):
    """A caller violated an operation's preconditions (bad lengths, roles, values)."""


class InvalidInputError(ContractError):
    """Numerically invalid input: empty vector, NaN or Inf entries."""


class GeometryError(FsiLabError):
    """Interface displacement produced a non-physical geometry (non-positive area)."""


class LinearSolveError(FsiLabError):
    """Singular tangent matrix inside a Newton iteration."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class PreconditionerError(FsiLabError):
    """Singular fixed-point preconditioner matrix."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class DivergenceError(FsiLabError):
    """A subproblem iteration produced non-finite or unbounded iterates."""


class ConstructionError(FsiLabError):
    """A testbed model could not be built (e.g., singular monolithic matrix)."""


class AllColumnsFilteredError(FsiLabError):
    """QR filtering removed every stored column; caller should fall back to relaxation."""


class DivergedStepError(FsiLabError):
    """The coupling loop did not converge within the allowed iterations.

    Carries the failing time-step index, the failing step's unconverged
    ``TimeStepRecord`` as ``partial`` (set by the coupling loop) and, when
    raised by a full simulation, the partial run record accumulated up to and
    including the abort as ``record``.
    """

    def __init__(self, message: str, step: int, record=None):
        super().__init__(message)
        self.step = step
        self.partial = None
        self.record = record


class RankDeficiencyError(FsiLabError):
    """Regression design matrix has rank below the number of coefficients."""


class SweepSpecError(FsiLabError):
    """Invalid sweep specification (missing reference cell, empty or duplicate grid)."""


class TableParseError(FsiLabError):
    """Malformed CSV input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
