"""Shared interface types, norms, counters, and coupling configuration.

Conventions used throughout the testbed:

* Subproblem convergence tests use the scaled norm ``||r||_2 / sqrt(n)``
  (:func:`residual_norm`).
* Coupling-side diagnostics (fixed-point residual norm, update increment norm)
  are plain 2-norms without the ``sqrt(n)`` scaling.
* Interface fields are dense float64 vectors on abstract interface degrees of
  freedom; matching 1:1 discretizations only, no mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ContractError, InvalidInputError

#: Cap values are positive integers or math.inf ("unbounded").
Cap = float  # int | math.inf; kept loose for arithmetic convenience

UNBOUNDED = math.inf


def is_unbounded(cap) -> bool:
    return cap == math.inf


def validate_cap(cap, name: str) -> None:
    if is_unbounded(cap):
        return
    if not (isinstance(cap, (int, np.integer)) or float(cap).is_integer()) or cap < 1:
        raise ContractError(f"{name} must be an integer >= 1 or unbounded, got {cap!r}")


def require_count(value, name: str, low: int) -> None:
    """Reject a count that is not an integer >= ``low``; a float one included."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ContractError(f"{name} must be an integer >= {low}, got {value!r}")


class FieldRole(Enum):
    DISPLACEMENT = "displacement"
    TRACTION = "traction"


@dataclass(frozen=True)
class InterfaceField:
    """Real-valued vector on the interface degrees of freedom.

    Values are stored as a read-only float64 array; displacement fields are in
    meters, traction fields in pascals (documentation only, not enforced).
    """

    values: np.ndarray
    role: FieldRole

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ContractError("interface field must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise ContractError("interface field contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _adopt(cls, values: np.ndarray, role: FieldRole, finite: bool = False):
        """A field that takes over a fresh 1-D float64 array, read-only, with no copy."""
        if not finite and not np.isfinite(values).all():
            raise ContractError("interface field contains non-finite entries")
        values.setflags(write=False)
        field_ = object.__new__(cls)
        object.__setattr__(field_, "values", values)
        object.__setattr__(field_, "role", role)
        return field_

    @property
    def size(self) -> int:
        return self.values.size


def residual_norm(r, n: int) -> float:
    """Scaled 2-norm ``||r||_2 / sqrt(n)`` used for subproblem convergence."""
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError("residual vector must be non-empty and 1-D")
    if n != arr.size:
        raise InvalidInputError(f"declared length {n} != vector length {arr.size}")
    norm = float(np.linalg.norm(arr))
    # a non-finite entry makes the norm non-finite; a finite vector whose norm
    # overflows is no error
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise InvalidInputError("residual vector contains non-finite entries")
    return norm / math.sqrt(n)


def fixed_point_residual(d_tilde: InterfaceField, d: InterfaceField) -> np.ndarray:
    """Elementwise mismatch between the solid's output displacement and the flow's input."""
    if d_tilde.role is not FieldRole.DISPLACEMENT or d.role is not FieldRole.DISPLACEMENT:
        raise ContractError("fixed-point residual requires two displacement fields")
    if d_tilde.size != d.size:
        raise ContractError(f"field length mismatch: {d_tilde.size} vs {d.size}")
    return d_tilde.values - d.values


def deviation_from_reference(d: InterfaceField, d_ref: InterfaceField) -> float:
    """Per-DOF deviation ``||d - d_ref||_2 / sqrt(n)`` between two displacement fields."""
    if d.role is not FieldRole.DISPLACEMENT or d_ref.role is not FieldRole.DISPLACEMENT:
        raise ContractError("deviation metric requires two displacement fields")
    if d.size != d_ref.size:
        raise ContractError(f"field length mismatch: {d.size} vs {d_ref.size}")
    return float(np.linalg.norm(d.values - d_ref.values) / math.sqrt(d.size))


@dataclass(frozen=True)
class SolverCallReport:
    """Per-call record of one black-box solver invocation.

    ``residual_history[i]`` is the scaled residual norm evaluated *before* the
    (i+1)-th solution update; ``converged_on_first`` is True iff the very first
    recorded norm already satisfied the call's tolerance.
    """

    inner_iters: int
    residual_history: tuple
    converged_on_first: bool
    final_residual: float
    wall_time: float = 0.0

    def __post_init__(self):
        if self.inner_iters < 1:
            raise ContractError("a solver call performs at least one inner iteration")
        if len(self.residual_history) != self.inner_iters:
            raise ContractError("residual history length must equal inner_iters")


@dataclass
class IterationCounters:
    """Whole-run iteration totals with a per-time-step breakdown."""

    coupling_total: int = 0
    flow_total: int = 0
    solid_total: int = 0
    per_step: list = field(default_factory=list)  # (step, coupling, flow, solid)

    def add_step(self, step: int, coupling: int, flow: int, solid: int) -> None:
        if min(coupling, flow, solid) < 0:
            raise ContractError("iteration counts must be non-negative")
        self.per_step.append((step, coupling, flow, solid))
        self.coupling_total += coupling
        self.flow_total += flow
        self.solid_total += solid

    def check_additivity(self) -> None:
        sums = [sum(entry[i] for entry in self.per_step) for i in (1, 2, 3)]
        if sums != [self.coupling_total, self.flow_total, self.solid_total]:
            raise ContractError("counter totals do not match per-step sums")


class AccelKind(Enum):
    CONSTANT = "constant"
    AITKEN = "aitken"
    IQN_ILS = "iqn-ils"


class CriterionKind(Enum):
    FIRST_RESIDUAL = "first_residual"
    FIXED_POINT_NORM = "fixed_point"


@dataclass(frozen=True)
class CouplingConfig:
    """Settings of the coupling loop and of the two subproblem solvers."""

    n_max_f: Cap = UNBOUNDED
    n_max_s: Cap = UNBOUNDED
    eps_f: float = 1e-9
    eps_s: float = 1e-3
    eps_fil: float = 1e-12
    reuse_q: int = 5
    omega0: float = 0.1
    accel: AccelKind = AccelKind.IQN_ILS
    criterion: CriterionKind = CriterionKind.FIRST_RESIDUAL
    eps_c: float = 1e-10
    criterion_relative: bool = False
    max_coupling_iters_per_step: int = 200
    batch_size_f: int = 1

    def __post_init__(self):
        validate_cap(self.n_max_f, "n_max_f")
        validate_cap(self.n_max_s, "n_max_s")
        for name in ("eps_f", "eps_s", "eps_fil", "eps_c"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ContractError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.omega0 <= 1.0):
            raise ContractError("omega0 must lie in (0, 1]")
        for name, low in (("reuse_q", 0), ("max_coupling_iters_per_step", 1),
                          ("batch_size_f", 1)):
            require_count(getattr(self, name), name, low)


@dataclass
class RunRecord:
    """Outcome of one full simulation.

    ``snapshots`` holds the accepted interface displacement of every completed
    time step; ``step_records`` the per-step diagnostics. On divergence the
    record is partial, ``converged`` is False, and ``failing_step`` identifies
    the aborted time step.
    """

    counters: IterationCounters
    converged: bool
    flow_seconds: float
    solid_seconds: float
    coupling_seconds: float
    snapshots: list
    step_records: list
    events: list = field(default_factory=list)
    failing_step: int | None = None

    @property
    def timings(self) -> tuple:
        return (self.flow_seconds, self.solid_seconds, self.coupling_seconds)


def as_caps_str(cap) -> str:
    """Serialize a cap value; unbounded spells `inf` in configs and CSVs."""
    return "inf" if is_unbounded(cap) else str(int(cap))


def parse_cap(text: str) -> Cap:
    t = text.strip().lower()
    if t in ("inf", "infinity", "unbounded"):
        return UNBOUNDED
    try:
        value = int(t)
    except ValueError as exc:
        raise ContractError(f"cannot parse cap value {text!r}") from exc
    validate_cap(value, "cap")
    return value


def caps_list(text: str | Sequence) -> list:
    """Parse a comma-separated cap list like ``1,2,3,inf``."""
    if isinstance(text, str):
        items = [part for part in text.split(",") if part.strip()]
    else:
        items = list(text)
    return [parse_cap(str(item)) for item in items]
