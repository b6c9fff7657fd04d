"""Parameter recovery: central-difference linear least squares for systems
linear in the parameters, a damped Gauss-Newton inverter of the observation
map, and seeded Gaussian noise injection.

The finite-difference estimator replaces the time derivative at each
interior sample with (x_{i+1} - x_{i-1}) / (2 dt) and solves the stacked
linear system T(x_i) a = dx_i, whose blocks T(x) are the basis evaluations
(the df/da matrix of the system). The stacked system carries k(N-1)
equations for n unknowns and is solved without regularization by default;
rank and condition are always reported so callers can reject estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULTS
from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    IntegrationError,
    RangeError,
)
from .numkernel import least_squares, numerical_rank, singular_values
from .obsmap import ObservationMapHandle, phi, phi_jacobian
from .ode import (
    MatrixLinear,
    ParamSystem,
    PolynomialBasis,
    Trajectory,
    read_trajectory_csv,
)


# ---------------------------------------------------------------------------
# observation grids


@dataclass(frozen=True)
class ObservationGrid:
    """Values on a uniform time grid t0 + i*dt, i = 0..N."""

    times: np.ndarray
    values: np.ndarray          # shape (N+1, k)
    delta_t: float
    noise_sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] != t.shape[0]:
            raise DimensionError("times and values lengths differ")
        if t.shape[0] < 2:
            raise DomainError("grid needs at least two samples")
        gaps = np.diff(t)
        if np.any(gaps <= 0.0):
            raise DomainError("times must be strictly increasing")
        if np.any(np.abs(gaps - self.delta_t) > 1e-9 * abs(self.delta_t)):
            raise DomainError("grid spacing is not uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_interior(self) -> int:
        return self.times.shape[0] - 2

    @staticmethod
    def from_arrays(times, values, noise_sigma: float = 0.0,
                    seed: int | None = None) -> "ObservationGrid":
        times = np.asarray(times, dtype=float).reshape(-1)
        if times.shape[0] < 2:
            raise DomainError("grid needs at least two samples")
        dt = float(times[1] - times[0])
        return ObservationGrid(times=times, values=np.atleast_2d(values),
                               delta_t=dt, noise_sigma=noise_sigma, seed=seed)

    @staticmethod
    def from_trajectory(traj: Trajectory) -> "ObservationGrid":
        return ObservationGrid.from_arrays(traj.times, traj.states)

    @staticmethod
    def from_csv(path) -> "ObservationGrid":
        times, values = read_trajectory_csv(path)
        return ObservationGrid.from_arrays(times, values)


def add_noise(obs: ObservationGrid, sigma: float, seed: int) -> ObservationGrid:
    """Independent zero-mean Gaussian noise on every value component."""
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0")
    if sigma == 0.0:
        return replace(obs, noise_sigma=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    noisy = obs.values + sigma * rng.standard_normal(obs.values.shape)
    return replace(obs, values=noisy, noise_sigma=float(sigma), seed=seed)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class EstimationResult:
    alpha_hat: np.ndarray
    residual: float
    iterations: int
    converged: bool
    jacobian_rank: int
    condition: float
    history: tuple              # ((alpha, residual), ...) per accepted iterate
    rank_deficient: bool = False
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "alpha_hat": np.asarray(self.alpha_hat).tolist(),
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "jacobian_rank": self.jacobian_rank,
            "condition": self.condition if math.isfinite(self.condition) else None,
            "rank_deficient": self.rank_deficient,
            "message": self.message,
            "history": [[np.asarray(a).tolist(), float(r)] for a, r in self.history],
        }


# ---------------------------------------------------------------------------
# finite-difference linear estimator


def _linear_block(sys: ParamSystem, x: np.ndarray) -> np.ndarray:
    # For systems with f(x, a) = T(x) a the block is df/da, independent of a.
    return sys.dfda(x, np.zeros(sys.param_dim))


def fd_linear_estimate(obs: ObservationGrid, sys: ParamSystem) -> EstimationResult:
    """Central-difference least-squares estimate for linear-in-parameter f.

    Endpoints are dropped (the stencil needs both neighbors), keeping the
    O(dt^2) error of the interior scheme. No regularization is applied.
    """
    if not isinstance(sys, (PolynomialBasis, MatrixLinear)):
        raise DomainError("fd_linear_estimate needs a linear-in-parameter system")
    if obs.values.shape[1] != sys.state_dim:
        raise DimensionError(
            f"observations have state dimension {obs.values.shape[1]}, "
            f"system expects {sys.state_dim}"
        )
    if obs.n_interior < 1:
        raise DomainError("need at least one interior sample (N >= 2)")

    k, n = sys.state_dim, sys.param_dim
    n_int = obs.n_interior
    a = np.empty((k * n_int, n))
    b = np.empty(k * n_int)
    two_dt = 2.0 * obs.delta_t
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        for row, i in enumerate(range(1, n_int + 1)):
            a[row * k:(row + 1) * k] = _linear_block(sys, obs.values[i])
            b[row * k:(row + 1) * k] = (obs.values[i + 1] - obs.values[i - 1]) / two_dt
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise RangeError("the difference quotients or df/da at the observations "
                         "leave the float range")

    sol = least_squares(a, b)
    deficient = sol.rank < n
    alpha_hat = sol.x
    return EstimationResult(
        alpha_hat=alpha_hat,
        residual=sol.residual,
        iterations=1,
        converged=not deficient,
        jacobian_rank=sol.rank,
        condition=sol.condition,
        history=((alpha_hat, sol.residual),),
        rank_deficient=deficient,
        message="RankDeficient" if deficient else "",
    )


# ---------------------------------------------------------------------------
# damped Gauss-Newton inversion of the observation map


@dataclass(frozen=True)
class GaussNewtonOptions:
    max_iter: int = DEFAULTS.gn_max_iter
    step_tol: float = DEFAULTS.gn_step_tol
    grad_tol: float = DEFAULTS.gn_grad_tol
    damping: float = DEFAULTS.gn_damping

    def __post_init__(self):
        if self.max_iter < 1 or self.step_tol <= 0 or self.grad_tol <= 0 \
                or self.damping <= 0:
            raise DomainError("Gauss-Newton options must be positive")


def gauss_newton_invert(handle: ObservationMapHandle, y_obs, alpha_init,
                        options: GaussNewtonOptions = GaussNewtonOptions()
                        ) -> EstimationResult:
    """Invert the observation map locally by damped Gauss-Newton.

    Steps solve (J^T J + damping * diag(J^T J)) s = J^T (y - phi(a)); the
    damping factor halves after an accepted step and quadruples after a
    rejected one, so the residual is non-increasing across accepted
    iterates. Convergence requires both the final step norm <= step_tol and
    the residual gradient norm <= grad_tol. The reported rank and condition
    are those of the Jacobian at the returned ``alpha_hat``.
    """
    y_obs = np.asarray(y_obs, dtype=float).reshape(-1)
    alpha = np.asarray(alpha_init, dtype=float).reshape(-1)
    if y_obs.shape[0] != handle.dim_out:
        raise DimensionError(
            f"y_obs has length {y_obs.shape[0]}, expected {handle.dim_out}"
        )
    if alpha.shape[0] != handle.n_params:
        raise DimensionError("alpha_init has wrong dimension")
    if not np.all(np.isfinite(alpha)):
        raise DomainError("alpha_init must be finite")

    n = handle.n_params
    with np.errstate(over="ignore"):  # an overflowing cost is caught below
        residual_vec = y_obs - phi(handle, alpha)
        cost = float(np.linalg.norm(residual_vec))
    if not math.isfinite(cost):
        raise DivergenceError("residual non-finite at initial point", 0.0)
    history = [(alpha.copy(), cost)]
    lam = options.damping
    last_step = 0.0
    iterations = 0
    converged = False
    message = ""

    for _ in range(options.max_iter):
        jac = phi_jacobian(handle, alpha)
        grad = jac.T @ residual_vec
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= options.grad_tol and last_step <= options.step_tol:
            converged = True
            break

        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        floor = max(float(diag.max()), 1.0) * 1e-15
        diag[diag < floor] = floor

        accepted = False
        step_norm = 0.0
        for _attempt in range(30):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jtj + lam * np.diag(diag), grad,
                                           rcond=None)
            step_norm = float(np.linalg.norm(step))
            trial = alpha + step
            try:
                with np.errstate(over="ignore"):  # an overflowing cost is rejected below
                    trial_res = y_obs - phi(handle, trial)
                    trial_cost = float(np.linalg.norm(trial_res))
            except IntegrationError:
                lam *= DEFAULTS.gn_damping_up
                continue
            if math.isfinite(trial_cost) and trial_cost < cost:
                accepted = True
                break
            lam *= DEFAULTS.gn_damping_up

        if not accepted:
            # stagnation: converged if the (rejected) proposal was already
            # below the step tolerance at a flat gradient
            if grad_norm <= options.grad_tol and step_norm <= options.step_tol:
                converged = True
            else:
                message = "stalled: no acceptable step"
            break

        alpha, residual_vec, cost = trial, trial_res, trial_cost
        lam = max(lam * DEFAULTS.gn_damping_down, 1e-300)
        last_step = step_norm
        iterations += 1
        history.append((alpha.copy(), cost))
    else:
        message = "max_iter exhausted"
        # the last accepted step moved alpha past the iterate jac was taken at
        jac = phi_jacobian(handle, alpha)

    svals = singular_values(jac)
    rank = numerical_rank(jac, svals)
    condition = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    return EstimationResult(
        alpha_hat=alpha,
        residual=cost,
        iterations=iterations,
        converged=converged,
        jacobian_rank=rank,
        condition=condition,
        history=tuple(history),
        rank_deficient=rank < n,
        message=message,
    )
