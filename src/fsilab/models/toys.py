"""Small coupled problems with independent oracles.

``LinearToyModel`` couples two linear systems whose monolithic solution is one
dense solve away, so every partitioned result can be checked exactly. The
Gauss-Seidel interface map ``d -> d_tilde`` is linear; its spectral radius is
set at construction, which gives a stable preset, an added-mass-like unstable
preset, and a fully decoupled preset.

``ScalarToyModel`` couples a linear scalar flow with a cubically stiffening
scalar solid; the coupled fixed point has a closed form (Cardano).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConstructionError, ContractError
from ..interface import FieldRole, InterfaceField
from ..subproblem import DriverKind


@dataclass
class _DenseSolver:
    """A toy subproblem ``A(u) u = b`` on dense matrices, solved with ``numpy.linalg``.

    ``rhs(coupling)`` gives ``b`` from coupling data of length ``n_coupling``,
    ``matrix(u)`` gives ``A(u)`` and ``tangent(u)`` the Newton tangent
    ``K(u)``; the output field is ``u`` itself in ``role``.
    """

    dim: int
    n_coupling: int
    matrix: Callable
    rhs: Callable
    tangent: Callable
    driver: DriverKind
    role: FieldRole
    label: str

    def load(self, coupling: InterfaceField) -> tuple:
        if coupling.size != self.n_coupling:
            raise ContractError(f"{coupling.role.value} length mismatch")
        b = self.rhs(coupling)
        matrix, tangent = self.matrix, self.tangent
        newton = self.driver is DriverKind.NEWTON
        a = None  # A(u) of the last residual

        def residual(u):
            nonlocal a
            a = matrix(u)
            return b - a @ u

        def solve(u, r):
            return np.linalg.solve(tangent(u) if newton else a, r)

        return b, residual, solve

    def output(self, u: np.ndarray) -> InterfaceField:
        return InterfaceField(u, self.role)


def _tridiag(n: int, off: float, diag: float) -> np.ndarray:
    m = np.eye(n) * diag
    idx = np.arange(n - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


class LinearToyModel:
    """Two coupled linear subproblems with a monolithic direct-solve oracle.

    Flow:  ``A_f u_f = b_f0 + B_f d``     (traction output: u_f itself)
    Solid: ``A_s u_s = b_s0 + B_s tau``   (displacement output: u_s itself)

    ``coupling_strength`` is the spectral radius of the interface iteration
    map ``G = A_s^-1 B_s A_f^-1 B_f``; 0 decouples the problems.
    """

    def __init__(
        self,
        dim_f: int = 4,
        dim_s: int = 4,
        coupling_strength: float = 0.5,
        n_steps: int = 1,
        flow_driver: DriverKind = DriverKind.NEWTON,
        solid_driver: DriverKind = DriverKind.NEWTON,
    ):
        if dim_f < 1 or dim_s < 1:
            raise ContractError("dimensions must be >= 1")
        if coupling_strength < 0:
            raise ContractError("coupling_strength must be >= 0")
        self.dim_f = dim_f
        self.dim_s = dim_s
        self.n_interface = dim_s
        self.n_steps = n_steps
        self.flow_driver = flow_driver
        self.solid_driver = solid_driver

        # Diagonally dominant SPD blocks keep both subproblems well conditioned.
        self.A_f = _tridiag(dim_f, -1.0, 3.0)
        self.A_s = _tridiag(dim_s, -1.0, 3.0)
        mix = _tridiag(dim_s, 0.25, -1.0)  # negative spectrum: added-mass-like sign
        self.B_s = mix @ np.eye(dim_s, dim_f)
        b_f = np.eye(dim_f, dim_s)
        if coupling_strength > 0:
            g1 = np.linalg.solve(self.A_s, self.B_s) @ np.linalg.solve(self.A_f, b_f)
            rho1 = max(abs(np.linalg.eigvals(g1)))
            self.B_f = b_f * (coupling_strength / rho1)
        else:
            self.B_f = np.zeros((dim_f, dim_s))
        self.b_f0 = 1.0 + 0.1 * np.arange(dim_f)
        self.b_s0 = 0.5 - 0.05 * np.arange(dim_s)

        gs_map = np.linalg.solve(self.A_s, self.B_s) @ np.linalg.solve(self.A_f, self.B_f)
        self.gs_spectral_radius = float(max(abs(np.linalg.eigvals(gs_map)), default=0.0))

        mono = np.block([[self.A_f, -self.B_f], [-self.B_s, self.A_s]])
        if abs(np.linalg.det(mono)) < 1e-12:
            raise ConstructionError("monolithic matrix is singular")
        self._monolithic = np.linalg.solve(mono, np.concatenate([self.b_f0, self.b_s0]))

    @classmethod
    def stable(cls, dim_f: int = 4, dim_s: int = 4, **kw) -> "LinearToyModel":
        return cls(dim_f, dim_s, coupling_strength=0.5, **kw)

    @classmethod
    def unstable(cls, dim_f: int = 4, dim_s: int = 4, **kw) -> "LinearToyModel":
        return cls(dim_f, dim_s, coupling_strength=2.5, **kw)

    @classmethod
    def decoupled(cls, dim_f: int = 4, dim_s: int = 4, **kw) -> "LinearToyModel":
        return cls(dim_f, dim_s, coupling_strength=0.0, **kw)

    # oracle ---------------------------------------------------------------

    def monolithic_solution(self):
        """(u_f, u_s) from one dense solve of the coupled system."""
        return self._monolithic[: self.dim_f].copy(), self._monolithic[self.dim_f :].copy()

    def interface_solution(self) -> InterfaceField:
        return InterfaceField(self._monolithic[self.dim_f :], FieldRole.DISPLACEMENT)

    # engine protocol ------------------------------------------------------

    def initial_state(self) -> int:
        return 0

    def initial_displacement(self) -> InterfaceField:
        return InterfaceField(np.zeros(self.dim_s), FieldRole.DISPLACEMENT)

    def initial_flow_u(self) -> np.ndarray:
        return np.zeros(self.dim_f)

    def initial_solid_u(self) -> np.ndarray:
        return np.zeros(self.dim_s)

    def flow_solver(self, state) -> _DenseSolver:
        return _DenseSolver(
            dim=self.dim_f, n_coupling=self.dim_s, matrix=lambda u: self.A_f,
            rhs=lambda d: self.b_f0 + self.B_f @ d.values, tangent=lambda u: self.A_f,
            driver=self.flow_driver, role=FieldRole.TRACTION, label="linear-toy flow")

    def solid_solver(self, state) -> _DenseSolver:
        return _DenseSolver(
            dim=self.dim_s, n_coupling=self.dim_f, matrix=lambda u: self.A_s,
            rhs=lambda t: self.b_s0 + self.B_s @ t.values, tangent=lambda u: self.A_s,
            driver=self.solid_driver, role=FieldRole.DISPLACEMENT, label="linear-toy solid")

    def advance_state(self, state, accepted_displacement, flow_u, solid_u):
        return state + 1


@dataclass
class ScalarToyParams:
    alpha: float = 2.0  # flow coefficient: alpha * u_f = b0 + beta * d
    beta: float = 1.0
    b0: float = 4.0
    stiffness: float = 1.0  # solid: (k + kappa u^2) u = tau
    kappa: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0 or self.stiffness <= 0 or self.kappa < 0:
            raise ContractError("alpha and stiffness must be positive, kappa >= 0")
        if self.stiffness * self.alpha <= self.beta:
            # keeps the coupled cubic monotone, hence a unique real fixed point
            raise ContractError("require stiffness > beta/alpha")


class ScalarToyModel:
    """Scalar nonlinear coupled problem with a closed-form fixed point."""

    def __init__(self, params: ScalarToyParams | None = None, n_steps: int = 1):
        self.params = params or ScalarToyParams()
        self.n_interface = 1
        self.n_steps = n_steps

    def exact_interface_solution(self) -> float:
        """Real root of ``kappa d^3 + (k - beta/alpha) d - b0/alpha = 0`` (Cardano)."""
        p_ = self.params
        if p_.kappa == 0:
            return (p_.b0 / p_.alpha) / (p_.stiffness - p_.beta / p_.alpha)
        p = (p_.stiffness - p_.beta / p_.alpha) / p_.kappa
        q = -(p_.b0 / p_.alpha) / p_.kappa
        disc = math.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
        return float(np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc))

    def initial_state(self) -> int:
        return 0

    def initial_displacement(self) -> InterfaceField:
        return InterfaceField(np.zeros(1), FieldRole.DISPLACEMENT)

    def initial_flow_u(self) -> np.ndarray:
        return np.zeros(1)

    def initial_solid_u(self) -> np.ndarray:
        return np.zeros(1)

    def flow_solver(self, state) -> _DenseSolver:
        p = self.params
        return _DenseSolver(
            dim=1, n_coupling=1, matrix=lambda u: np.array([[p.alpha]]),
            rhs=lambda d: np.array([p.b0 + p.beta * d.values[0]]),
            tangent=lambda u: np.array([[p.alpha]]),
            driver=DriverKind.NEWTON, role=FieldRole.TRACTION, label="scalar-toy flow")

    def solid_solver(self, state) -> _DenseSolver:
        p = self.params
        return _DenseSolver(
            dim=1, n_coupling=1, matrix=lambda u: np.array([[p.stiffness + p.kappa * u[0] ** 2]]),
            rhs=lambda t: np.array([t.values[0]]),
            tangent=lambda u: np.array([[p.stiffness + 3.0 * p.kappa * u[0] ** 2]]),
            driver=DriverKind.NEWTON, role=FieldRole.DISPLACEMENT, label="scalar-toy solid")

    def advance_state(self, state, accepted_displacement, flow_u, solid_u):
        return state + 1
