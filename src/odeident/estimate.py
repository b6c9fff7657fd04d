"""Parameter recovery: central-difference linear least squares for systems
linear in the parameters, a damped Gauss-Newton inverter of the observation
map, and seeded Gaussian noise injection.

Both estimators solve phi(a) = y_obs and take what that equation needs: an
``ObservationMapHandle``, the one description of the system and its sampling
grid, and ``y_obs``, the m samples on that grid stacked as ``phi`` returns
them. One check of ``y_obs`` opens both.

The finite-difference estimator replaces the time derivative at each
interior sample with (x_{i+1} - x_{i-1}) / (2 dt) and solves the stacked
linear system T(x_i) a = dx_i, whose blocks T(x) are the basis evaluations
(the df/da matrix of the system). The stacked system carries k(m-2)
equations for n unknowns and is solved without regularization;
rank and condition are always reported so callers can reject estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .ode import MatrixLinear, ObservationMapHandle, PolynomialBasis, _check_count


# ---------------------------------------------------------------------------
# observations


def _observed(handle: ObservationMapHandle, y_obs) -> np.ndarray:
    """``y_obs`` as a float vector: DimensionError unless its length is the
    handle's ``dim_out``, DomainError unless every value is finite."""
    y = np.asarray(y_obs, dtype=float).reshape(-1)
    if y.shape[0] != handle.dim_out:
        raise DimensionError(f"y_obs has length {y.shape[0]}, expected {handle.dim_out}")
    if not np.isfinite(y).all():
        raise DomainError("observations must be finite")
    return y


def add_noise(values, sigma: float, seed: int) -> np.ndarray:
    """A copy of ``values`` with independent zero-mean Gaussian noise on every entry."""
    if not sigma >= 0.0:  # nan too
        raise DomainError("sigma must be >= 0")
    values = np.array(values, dtype=float)
    if sigma == 0.0:
        return values
    rng = np.random.default_rng(seed)
    return values + sigma * rng.standard_normal(values.shape)


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


def fd_linear_estimate(handle: ObservationMapHandle, y_obs) -> EstimationResult:
    """Central-difference least-squares estimate for linear-in-parameter f,
    from the samples ``y_obs`` on the handle's grid.

    Endpoints are dropped (the stencil needs both neighbors), keeping the
    O(dt^2) error of the interior scheme. No regularization is applied.
    """
    sys = handle.sys
    if not isinstance(sys, (PolynomialBasis, MatrixLinear)):
        raise DomainError("fd_linear_estimate needs a linear-in-parameter system")
    y = _observed(handle, y_obs)
    if handle.m < 3:
        raise DomainError("need at least one interior sample (m >= 3)")

    k, n, interior = sys.state_dim, sys.param_dim, handle.m - 2
    values = y.reshape(handle.m, k)
    times = handle.times
    dt = times[1] - times[0]
    zero = np.zeros(n)  # f = T(x) a, so the block T(x) = df/da is the same at any a
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        # one stacked df/da call: the blocks T(x_i) of every interior sample
        a = sys.dfda(values[1:-1], zero).reshape(k * interior, n)
        b = ((values[2:] - values[:-2]) / (2.0 * dt)).ravel()
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


_SQRT_EPS = math.sqrt(EPS)


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
    s^T (2 J^T r - J^T J s), is within one ulp of cost^2. The first flat
    trial ends the search, for more damping only shrinks the step further.
    The search stops unconverged once the damping term leaves the float
    range, and raises RangeError when J^T J or J^T r does.
    Convergence requires the residual gradient norm <= grad_tol, and one of
    three: the last step norm <= step_tol, a flat trial ended the search, or
    the last accepted step stalled. A step stalls when it kept at least
    ``DEFAULTS.gn_stall_ratio`` (one half) of the cost and its norm is at most
    sqrt(eps) (sqrt(eps) + ||a||), a the point it reached: the relative step
    test of Dennis and Schnabel (1983, 7.2) and MINPACK (More 1978). An
    integrated map's cost stops falling at its integration error, far above
    rounding, and the absolute step_tol sits below what such a map resolves;
    the stall exit ends those fits there. An exact fit still ends at
    rounding, for its cost falls about 1000 times per step until then, so no
    step of it stalls. A norm that overflows is inf, and never converges.
    Every exit holds the Jacobian at the returned
    ``alpha_hat``; the reported rank and condition are its own. The result
    counts the runs made (``evaluations``) and the trials not accepted
    (``rejected``). ``alpha_init`` is copied, never kept.
    """
    y_obs = _observed(handle, y_obs)
    alpha = np.array(alpha_init, dtype=float).reshape(-1)
    if alpha.shape[0] != handle.n_params:
        raise DimensionError("alpha_init has wrong dimension")
    if not np.all(np.isfinite(alpha)):
        raise DomainError("alpha_init must be finite")

    def run(a):
        """The residual vector, its norm and the Jacobian at a, from one run."""
        with np.errstate(over="ignore"):  # an overflowing cost is inf, never accepted
            obs = handle.observe(a, jacobian=True)
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
    stalled = False  # whether the last accepted step stalled
    converged = False
    message = ""

    for _ in range(options.max_iter):
        with np.errstate(over="ignore", invalid="ignore"):  # tested just below
            grad = jac.T @ residual_vec
            jtj = jac.T @ jac
            grad_norm = float(np.linalg.norm(grad))  # inf if it overflows: never converged
        if not (np.isfinite(grad).all() and np.isfinite(jtj).all()):
            raise RangeError("normal equations J^T J, J^T r leave the float range")
        if grad_norm <= options.grad_tol and (stalled or step_norm <= options.step_tol):
            converged = True
            break

        diag = np.diag(jtj).copy()
        floor = max(float(diag.max()), 1.0) * 1e-15
        diag[diag < floor] = floor

        trial_cost = math.inf
        flat = False
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
            with np.errstate(over="ignore"):  # an inf norm or trial is never accepted
                step_norm = float(np.linalg.norm(step))
                trial = alpha + step
            # a flat trial is not worth a run; at a seen point the run failed,
            # or its cost was not below the cost then nor now
            flat = _flat(step, grad, jtj, cost)
            if not flat and trial.tobytes() not in seen:
                seen.add(trial.tobytes())
                try:
                    trial_res, trial_cost, trial_jac = run(trial)
                except IntegrationError:
                    trial_cost = math.inf
                if trial_cost < cost:  # cost is finite, so nan and inf compare false
                    break
            rejected += 1
            if flat:  # more damping only shrinks the step: no later trial is worth a run
                break
            lam *= DEFAULTS.gn_damping_up

        if not trial_cost < cost:
            # every trial rejected: converged at a flat gradient if the last
            # trial was flat or already below the step tolerance
            if not message:  # the damping stayed in the float range
                converged = grad_norm <= options.grad_tol and (
                    flat or step_norm <= options.step_tol)
                message = "" if converged else "stalled: no acceptable step"
            break
        # a step that kept at least half the cost, at the resolution of the
        # iterate, sqrt(eps) (sqrt(eps) + ||a||), has reached the cost's noise
        # floor; hypot forms ||a|| without squaring, so an ||a|| above
        # sqrt(max float) does not overflow
        stalled = (trial_cost >= DEFAULTS.gn_stall_ratio * cost
                   and step_norm <= _SQRT_EPS * (_SQRT_EPS + math.hypot(*trial.tolist())))
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
