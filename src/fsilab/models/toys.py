"""A small coupled problem with an independent oracle.

``LinearToyModel`` couples two linear systems whose monolithic solution is one
dense solve away, so every partitioned result can be checked exactly. The
Gauss-Seidel interface map ``d -> d_tilde`` is linear; its spectral radius is
the ``coupling_strength`` it is built with, which gives a stable preset, an
added-mass-like unstable preset, and a fully decoupled preset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..interface import require_count, require_finite


@dataclass
class _DenseSolver:
    """A linear toy subproblem ``A u = b0 + B c`` on coupling data ``c``, solved with
    ``numpy.linalg``; ``A`` is its own Newton tangent. The output is the final
    state ``u`` itself.
    """

    A: np.ndarray
    b0: np.ndarray
    B: np.ndarray

    def load(self, coupling: np.ndarray) -> tuple:
        A, B = self.A, self.B
        n = B.shape[1]
        if coupling.shape != (n,):
            raise ContractError(f"coupling data has shape {coupling.shape}, expected ({n},)")
        b = self.b0 + B @ coupling

        def residual(u):
            return b - A @ u

        def solve(u, r):
            return np.linalg.solve(A, r)

        return b, residual, solve

    def output(self, u: np.ndarray) -> np.ndarray:
        return u


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
    map ``G = A_s^-1 B_s A_f^-1 B_f`` (to round-off, as ``B_f`` is scaled to
    it); 0 decouples the problems.
    """

    def __init__(
        self,
        dim_f: int = 4,
        dim_s: int = 4,
        coupling_strength: float = 0.5,
        steps: int = 1,
    ):
        require_count(dim_f, "dim_f", 1)
        require_count(dim_s, "dim_s", 1)
        require_finite("linear toy parameter", {"coupling_strength": coupling_strength})
        if coupling_strength < 0:
            raise ContractError(f"coupling_strength must be >= 0, got {coupling_strength!r}")
        require_count(steps, "steps", 1)
        self.dim_f = dim_f
        self.dim_s = dim_s
        self.n_interface = dim_s
        self.n_steps = steps

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

        mono = np.block([[self.A_f, -self.B_f], [-self.B_s, self.A_s]])
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

    def interface_solution(self) -> np.ndarray:
        return self._monolithic[self.dim_f :].copy()

    # engine protocol ------------------------------------------------------

    def initial_state(self) -> int:
        return 0

    def flow_solver(self, state) -> _DenseSolver:
        return _DenseSolver(self.A_f, self.b_f0, self.B_f)

    def solid_solver(self, state) -> _DenseSolver:
        return _DenseSolver(self.A_s, self.b_s0, self.B_s)

    def advance_state(self, state, accepted_displacement, flow_u):
        return state + 1
