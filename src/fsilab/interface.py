"""Shared interface types, norms, counters, and coupling configuration.

Conventions used throughout the testbed:

* Subproblem convergence tests use the scaled norm ``||r||_2 / sqrt(n)``,
  which :func:`~fsilab.subproblem.call_solver` records at every inner iteration.
* Coupling-side diagnostics (fixed-point residual norm, update increment norm)
  are plain 2-norms without the ``sqrt(n)`` scaling.
* Solvers exchange plain read-only float64 vectors on abstract interface
  degrees of freedom; matching 1:1 discretizations only, no mapping. The
  solver's :class:`~fsilab.subproblem.SolverId` says what a vector holds
  (flow: displacement in, traction out; solid: the reverse). Each check has
  one home: :func:`~fsilab.subproblem.call_solver` holds every solver output
  to a finite 1-D float64 array and makes it read-only; the coupling map
  tests its input with :func:`all_finite`, makes it read-only and holds the
  solid's output to its length (the flow's has the length its partner
  loads); each solver's ``load`` checks the shape of what it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError

#: Cap values are positive integers or math.inf ("unbounded").
Cap = float  # int | math.inf; kept loose for arithmetic convenience

UNBOUNDED = math.inf

#: Round-off relative to a norm: a solver call's stall floor, a relaxation residual's repeat.
ROUNDOFF = 1e3 * np.finfo(float).eps

#: The real number types a setting accepts; a bool is an int, so each check
#: rejects it first, and a str would escape as a TypeError at the comparison.
_REAL = (float, int, np.floating, np.integer)


def is_unbounded(cap) -> bool:
    return cap == math.inf


def validate_cap(cap, name: str) -> None:
    if is_unbounded(cap):
        return
    if (isinstance(cap, bool) or not isinstance(cap, _REAL)
            or not float(cap).is_integer() or cap < 1):
        raise ContractError(f"{name} must be an integer >= 1 or unbounded, got {cap!r}")


def require_count(value, name: str, low: int) -> None:
    """Reject a count that is not an integer >= ``low``; a float or bool one included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ContractError(f"{name} must be an integer >= {low}, got {value!r}")


def require_member(value, kind, name: str) -> None:
    """Reject a value that is not a member of the enum ``kind``; a str that spells one
    included, which would silently run the else-branch of a dispatch."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ContractError(f"{name} must be {article} {kind.__name__}, got {value!r}")


def require_positive(value, name: str) -> None:
    """Reject a value that is not a positive and finite real; nan and a bool included."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0.0 < value < math.inf:
        raise ContractError(f"{name} must be positive and finite, got {value!r}")


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of the float vector ``x`` is finite.

    One BLAS reduction ``x . x`` decides when it is finite; only a non-finite
    one (a nan or inf entry, or a finite vector whose squares overflow) looks
    at the entries. ``np.vdot`` raises no overflow warning, where
    ``x.dot(x)`` does.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def require_finite(what: str, values: dict) -> None:
    """Reject a value among ``values`` that is not a finite real, naming its key as
    ``what 'key'``; nan and a bool included."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, _REAL) or not math.isfinite(value):
            raise ContractError(f"{what} {name!r} must be finite, got {value!r}")


def deviation_from_reference(d: np.ndarray, d_ref: np.ndarray) -> float:
    """Per-DOF deviation ``||d - d_ref||_2 / sqrt(n)`` between two displacement vectors."""
    if d.ndim != 1 or not d.size or d.shape != d_ref.shape:
        raise ContractError(f"deviation needs two non-empty 1-D vectors of one shape, "
                            f"got {d.shape} and {d_ref.shape}")
    return float(np.linalg.norm(d - d_ref) / math.sqrt(d.size))


@dataclass(frozen=True)
class SolverCallReport:
    """Per-call record of one black-box solver invocation.

    ``residual_history[i]`` is the scaled residual norm evaluated *before* the
    (i+1)-th solution update; the inner iteration count is its length.
    :func:`~fsilab.subproblem.call_solver` records at least one norm per call, and
    :func:`~fsilab.coupling.check_convergence` tests the first against the
    solver's tolerance.
    """

    residual_history: tuple

    @property
    def inner_iters(self) -> int:
        return len(self.residual_history)


@dataclass(frozen=True)
class IterationCounters:
    """Whole-run iteration totals, summed over the time-step records."""

    coupling_total: int
    flow_total: int
    solid_total: int


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
    eps_fil: float = 1e-4
    reuse_q: int = 8
    omega0: float = 0.1
    accel: AccelKind = AccelKind.IQN_ILS
    criterion: CriterionKind = CriterionKind.FIRST_RESIDUAL
    eps_c: float = 1e-10
    max_coupling_iters: int = 200

    def __post_init__(self):
        validate_cap(self.n_max_f, "n_max_f")
        validate_cap(self.n_max_s, "n_max_s")
        for name in ("eps_f", "eps_s", "eps_fil", "eps_c"):
            require_positive(getattr(self, name), name)
        omega0 = self.omega0
        if isinstance(omega0, bool) or not isinstance(omega0, _REAL) or not 0.0 < omega0 <= 1.0:
            raise ContractError(f"omega0 must lie in (0, 1], got {omega0!r}")
        require_member(self.accel, AccelKind, "accel")
        require_member(self.criterion, CriterionKind, "criterion")
        for name, low in (("reuse_q", 0), ("max_coupling_iters", 1)):
            require_count(getattr(self, name), name, low)


@dataclass
class RunRecord:
    """Outcome of one full simulation.

    ``steps`` holds the record of every time step run; on divergence the run
    is partial and its last entry is the aborted step. ``snapshots`` holds the
    accepted interface displacement of every completed time step, and
    ``wall_seconds`` the run's wall time. Every total derives from these.
    """

    steps: list
    snapshots: list
    wall_seconds: float

    @property
    def converged(self) -> bool:
        return not self.steps or self.steps[-1].converged

    @property
    def failing_step(self) -> int | None:
        return None if self.converged else self.steps[-1].step

    @property
    def step_records(self) -> list:
        """The accepted steps' records."""
        return [s for s in self.steps if s.converged]

    @property
    def counters(self) -> IterationCounters:
        return IterationCounters(sum(s.coupling_iters for s in self.steps),
                                 sum(s.flow_iters for s in self.steps),
                                 sum(s.solid_iters for s in self.steps))

    @property
    def flow_seconds(self) -> float:
        return sum(s.flow_time for s in self.steps)

    @property
    def solid_seconds(self) -> float:
        return sum(s.solid_time for s in self.steps)

    @property
    def coupling_seconds(self) -> float:
        return max(self.wall_seconds - self.flow_seconds - self.solid_seconds, 0.0)

    @property
    def events(self) -> list:
        """Always empty, since the coupling loop emits no event; kept because
        the benchmark probe counts IQN-ILS restart events in it."""
        return []


def as_caps_str(cap) -> str:
    """Serialize a cap value; unbounded spells `inf` in configs and CSVs."""
    return "inf" if is_unbounded(cap) else str(int(cap))


def parse_cap(text: str) -> Cap:
    """Parse a cap value: an integer >= 1, or `inf` (any case) for unbounded."""
    t = text.strip().lower()
    if t == "inf":
        return UNBOUNDED
    try:
        value = int(t)
    except ValueError as exc:
        raise ContractError(f"cannot parse cap value {text!r}") from exc
    validate_cap(value, "cap")
    return value


def caps_list(text: str) -> list:
    """Parse a comma-separated cap list like ``1,2,3,inf``; an empty entry is an error."""
    return [parse_cap(part) for part in text.split(",")]
