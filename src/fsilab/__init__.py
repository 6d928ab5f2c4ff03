"""Partitioned FSI coupling testbed with an equivalent-time cost model."""

from .costmodel import (
    CostFactors,
    equivalent_time,
    fit_cost_factors,
    mape_maxape,
    rmse,
    rrmse,
)
from .coupling import (
    IqnHistory,
    TimeStepRecord,
    aitken_omega,
    check_convergence,
    iqn_ils_update,
    qr_filter,
    run_simulation,
    run_time_step,
)
from .interface import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    IterationCounters,
    RunRecord,
    SolverCallReport,
    UNBOUNDED,
    deviation_from_reference,
)
from .models.tube import DriverKind
from .subproblem import (
    Solver,
    SolverCallInput,
    SolverId,
    call_solver,
)

__version__ = "0.1.0"

__all__ = [
    "AccelKind",
    "CostFactors",
    "CouplingConfig",
    "CriterionKind",
    "DriverKind",
    "IqnHistory",
    "IterationCounters",
    "RunRecord",
    "Solver",
    "SolverCallInput",
    "SolverCallReport",
    "SolverId",
    "TimeStepRecord",
    "UNBOUNDED",
    "aitken_omega",
    "call_solver",
    "check_convergence",
    "deviation_from_reference",
    "equivalent_time",
    "fit_cost_factors",
    "iqn_ils_update",
    "mape_maxape",
    "qr_filter",
    "rmse",
    "rrmse",
    "run_simulation",
    "run_time_step",
]
