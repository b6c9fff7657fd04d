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
from .numkernel import EPS, condition_number, least_squares, numerical_rank, singular_values
from .obsmap import ObservationMapHandle, _check_count
from .ode import MatrixLinear, ParamSystem, PolynomialBasis


# ---------------------------------------------------------------------------
# observation grids


@dataclass(frozen=True)
class ObservationGrid:
    """Values on a uniform time grid t0 + i*dt, i = 0..N."""

    times: np.ndarray
    values: np.ndarray          # shape (N+1, k)

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        v = np.atleast_2d(np.array(self.values, dtype=float))
        if v.shape[0] != t.shape[0]:
            raise DimensionError("times and values lengths differ")
        if t.shape[0] < 2:
            raise DomainError("grid needs at least two samples")
        # every comparison with nan is false, so the grid checks below pass it
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DomainError("observation times and values must be finite")
        gaps = np.diff(t)
        if np.any(gaps <= 0.0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if np.any(np.abs(gaps - self.delta_t) > 1e-9 * abs(self.delta_t)):
            raise DomainError("grid spacing is not uniform")

    @property
    def delta_t(self) -> float:
        """The grid spacing, times[1] - times[0]."""
        return float(self.times[1] - self.times[0])

    @property
    def n_interior(self) -> int:
        return self.times.shape[0] - 2


def add_noise(obs: ObservationGrid, sigma: float, seed: int) -> ObservationGrid:
    """Independent zero-mean Gaussian noise on every value component."""
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0")
    if sigma == 0.0:
        return obs
    rng = np.random.default_rng(seed)
    return replace(obs, values=obs.values + sigma * rng.standard_normal(obs.values.shape))


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
    evaluations: int = 0        # observation-map runs made (Gauss-Newton only)
    rejected: int = 0           # trials not accepted (Gauss-Newton only)


# ---------------------------------------------------------------------------
# finite-difference linear estimator


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
    values = obs.values
    zero = np.zeros(n)  # f = T(x) a, so the block T(x) = df/da is the same at any a
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        # one stacked df/da call: the blocks T(x_i) of every interior sample
        a = sys.dfda(values[1:-1], zero).reshape(k * obs.n_interior, n)
        b = ((values[2:] - values[:-2]) / (2.0 * obs.delta_t)).ravel()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise RangeError("the difference quotients or df/da at the observations "
                         "leave the float range")

    sol = least_squares(a, b)
    return EstimationResult(
        alpha_hat=sol.x,
        residual=sol.residual,
        iterations=1,
        converged=not sol.rank_deficient,
        jacobian_rank=sol.rank,
        condition=sol.condition,
        history=((sol.x, sol.residual),),
        rank_deficient=sol.rank_deficient,
        message="RankDeficient" if sol.rank_deficient else "",
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
        _check_count(self.max_iter, "max_iter", 1)
        # a nan compares false with every bound, so test for the good case
        if not all(0.0 < v < math.inf for v in (self.step_tol, self.grad_tol, self.damping)):
            raise DomainError("Gauss-Newton options must be positive and finite")


def _flat(step, grad, jtj, cost: float) -> bool:
    """Whether the Gauss-Newton model's decrease of cost^2 for ``step``,
    s^T (2 J^T r - J^T J s) = ||J s||^2 + 2 lam s^T D s, is within one ulp of
    cost^2: such a trial can move the cost in its last bit only. A decrease
    or a cost^2 beyond the float range is never flat."""
    with np.errstate(over="ignore", invalid="ignore"):
        pred = float(step @ (2.0 * grad - jtj @ step))
        floor = EPS * (cost * cost)
    return math.isfinite(pred) and pred <= floor < math.inf


def gauss_newton_invert(handle: ObservationMapHandle, y_obs, alpha_init,
                        options: GaussNewtonOptions = GaussNewtonOptions()
                        ) -> EstimationResult:
    """Invert the observation map locally by damped Gauss-Newton.

    Steps solve (J^T J + damping * diag(J^T J)) s = J^T (y - phi(a)); the
    damping factor halves after an accepted step and quadruples after a
    rejected one. Each evaluated point is one run of the species' observation
    map with its Jacobian: the run prices the point by its states, and an
    accepted point hands its Jacobian to the next step. A trial is rejected
    when its run fails or its cost is not below the current cost, so the
    residual falls across accepted iterates. Two kinds of trial are rejected
    without a run: a trial at a point already run, which cannot lower the
    cost, and a flat trial, for which the model's decrease of cost^2,
    s^T (2 J^T r - J^T J s), is within one ulp of cost^2. The search stops
    unconverged once the damping term leaves the float range, and raises
    RangeError when J^T J or J^T r does.
    Convergence requires both the last step norm <= step_tol and the residual
    gradient norm <= grad_tol. Every exit holds the Jacobian at the returned
    ``alpha_hat``; the reported rank and condition are its own. The result
    counts the runs made (``evaluations``) and the trials not accepted
    (``rejected``). ``alpha_init`` is copied, never kept.
    """
    y_obs = np.asarray(y_obs, dtype=float).reshape(-1)
    alpha = np.array(alpha_init, dtype=float).reshape(-1)
    if y_obs.shape[0] != handle.dim_out:
        raise DimensionError(
            f"y_obs has length {y_obs.shape[0]}, expected {handle.dim_out}"
        )
    if alpha.shape[0] != handle.n_params:
        raise DimensionError("alpha_init has wrong dimension")
    if not np.all(np.isfinite(alpha)):
        raise DomainError("alpha_init must be finite")

    def run(a):
        """The residual vector, its norm and the Jacobian at a, from one run."""
        with np.errstate(over="ignore"):  # an overflowing cost is inf, never accepted
            obs = handle.sys.observe(a, handle.x0, handle.h, handle.m, handle.tol,
                                     jacobian=True)
            r = y_obs - obs.values
            return r, float(np.linalg.norm(r)), obs.jacobian

    residual_vec, cost, jac = run(alpha)
    if not math.isfinite(cost):
        raise DivergenceError("residual non-finite at initial point", 0.0)
    history = [(alpha, cost)]
    seen = {alpha.tobytes()}  # every point a run was made at, failed runs included
    rejected = 0
    lam = options.damping
    step_norm = 0.0
    converged = False
    message = ""

    for _ in range(options.max_iter):
        with np.errstate(over="ignore", invalid="ignore"):  # tested just below
            grad = jac.T @ residual_vec
            jtj = jac.T @ jac
        if not (np.isfinite(grad).all() and np.isfinite(jtj).all()):
            raise RangeError("normal equations J^T J, J^T r leave the float range")
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= options.grad_tol and step_norm <= options.step_tol:
            converged = True
            break

        diag = np.diag(jtj).copy()
        floor = max(float(diag.max()), 1.0) * 1e-15
        diag[diag < floor] = floor

        trial_cost = math.inf
        for _attempt in range(30):
            with np.errstate(over="ignore"):  # tested just below
                damping = lam * diag
            if not np.isfinite(damping).all():
                message = f"stalled: damping {lam:.3g} x diag(J^T J) leaves the float range"
                break
            damped = jtj + np.diag(damping)
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(damped, grad, rcond=None)
            step_norm = float(np.linalg.norm(step))
            trial = alpha + step
            # a flat trial is not worth a run; at a seen point the run failed,
            # or its cost was not below the cost then nor now
            if not _flat(step, grad, jtj, cost) and trial.tobytes() not in seen:
                seen.add(trial.tobytes())
                try:
                    trial_res, trial_cost, trial_jac = run(trial)
                except IntegrationError:
                    trial_cost = math.inf
                if trial_cost < cost:  # cost is finite, so nan and inf compare false
                    break
            rejected += 1
            lam *= DEFAULTS.gn_damping_up

        if not trial_cost < cost:
            # every trial rejected: converged if the last proposal was already
            # below the step tolerance at a flat gradient
            if not message:  # the damping stayed in the float range
                converged = grad_norm <= options.grad_tol and step_norm <= options.step_tol
                message = "" if converged else "stalled: no acceptable step"
            break
        alpha, residual_vec, cost, jac = trial, trial_res, trial_cost, trial_jac
        lam = max(lam * DEFAULTS.gn_damping_down, 1e-300)
        history.append((alpha, cost))
    else:
        message = "max_iter exhausted"

    svals = singular_values(jac)
    rank = numerical_rank(svals)
    return EstimationResult(
        alpha_hat=alpha,
        residual=cost,
        iterations=len(history) - 1,
        converged=converged,
        jacobian_rank=rank,
        condition=condition_number(svals),
        history=tuple(history),
        rank_deficient=rank < handle.n_params,
        message=message,
        evaluations=len(seen),
        rejected=rejected,
    )
