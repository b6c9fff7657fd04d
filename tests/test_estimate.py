import contextlib
import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ROTATION,
    logistic_system,
    rotation_handle,
    scalar_decay_system,
    scalar_map,
    stable_matrix,
)
from odeident import (
    DimensionError,
    DivergenceError,
    DomainError,
    GaussNewtonOptions,
    MatrixLinear,
    ObservationMapHandle,
    PolynomialBasis,
    add_noise,
    fd_linear_estimate,
    gauss_newton_invert,
    least_squares,
    log_branches,
    numerical_rank,
    phi,
    phi_jacobian,
    singular_values,
)
from odeident import estimate
from odeident.cli import _jsonable


def sampled(sys, alpha, x0, t_end, samples, tol=1e-12):
    """(handle, phi(handle, alpha)): ``samples`` samples up to about ``t_end``."""
    handle = ObservationMapHandle(sys=sys, x0=x0, h=t_end / samples, m=samples, tol=tol)
    return handle, phi(handle, alpha)


class TestFdLinearEstimate:
    def test_scalar_decay_bias_bound(self):
        sys = scalar_decay_system()
        result = fd_linear_estimate(*sampled(sys, [-0.5], [1.0], t_end=1.0, samples=100))
        assert abs(result.alpha_hat[0] + 0.5) <= 5e-5
        assert result.converged and not result.rank_deficient
        assert result.jacobian_rank == 1

    def test_constant_trajectory_rank_deficient(self):
        handle = ObservationMapHandle(sys=logistic_system(), x0=[1.0], h=0.1, m=5)
        result = fd_linear_estimate(handle, np.ones(5))
        assert result.rank_deficient
        assert not result.converged
        assert result.message == "RankDeficient"

    def test_logistic_recovery_and_dt_scaling(self):
        sys = logistic_system()
        result = fd_linear_estimate(*sampled(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=500))
        err = np.abs(result.alpha_hat - [1.0, -1.0]).max()
        assert err <= 1e-3
        fine = fd_linear_estimate(*sampled(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=1000))
        err_fine = np.abs(fine.alpha_hat - [1.0, -1.0]).max()
        assert 3.0 <= err / err_fine <= 5.0

    def test_second_order_in_dt(self):
        sys = logistic_system()
        dts = [0.04, 0.02, 0.01, 0.005]
        errors = []
        for dt in dts:
            res = fd_linear_estimate(*sampled(sys, [1.0, -1.0], [0.1], t_end=4.0,
                                              samples=int(round(4.0 / dt))))
            errors.append(np.abs(res.alpha_hat - [1.0, -1.0]).max())
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_matrix_linear_species_supported(self):
        sys = MatrixLinear(2)
        alpha = MatrixLinear.pack(ROTATION)
        result = fd_linear_estimate(*sampled(sys, alpha, [1.0, 0.7], t_end=2.0, samples=200))
        assert np.abs(result.alpha_hat - alpha).max() <= 1e-3

    @pytest.mark.parametrize("species", ["logistic", "rotation"])
    def test_dense_grid_estimate_is_the_per_sample_loops(self, species):
        # the stacked df/da call builds the least-squares system of the loop
        # over samples bit for bit, so alpha_hat keeps its bytes
        if species == "logistic":
            sys = logistic_system()
            handle = ObservationMapHandle(sys=sys, x0=[0.1], h=0.01, m=201)
            t = handle.times
            y = 0.1 * np.exp(t) / (1.0 + 0.1 * np.expm1(t))
            block = lambda x: sys._dfda_coef @ sys._monomials(x)
        else:
            sys = MatrixLinear(2)
            handle, y = sampled(sys, MatrixLinear.pack(ROTATION), [1.0, 0.7], t_end=2.0,
                                samples=200)
            t = handle.times
            block = lambda x: np.kron(np.eye(2), x)
        values = y.reshape(len(t), -1)
        two_dt = 2.0 * (t[1] - t[0])
        a = np.concatenate([block(x) for x in values[1:-1]])
        b = np.concatenate([(values[i + 1] - values[i - 1]) / two_dt
                            for i in range(1, len(t) - 1)])
        got = fd_linear_estimate(handle, y)
        assert got.alpha_hat.tobytes() == least_squares(a, b).x.tobytes()

    def test_basis_scaling_equivariance(self):
        sys = logistic_system()
        scaled = PolynomialBasis([scalar_map([(2.5, 1)]),
                                  scalar_map([(2.5, 2)])])
        handle, y = sampled(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=400)
        plain = fd_linear_estimate(handle, y).alpha_hat
        rescaled = fd_linear_estimate(dataclasses.replace(handle, sys=scaled), y).alpha_hat * 2.5
        assert np.abs(plain - rescaled).max() <= 1e-10

    def test_no_interior_points_rejected(self):
        # the stencil needs both neighbors of a sample, so three samples or more
        for m in (1, 2):
            handle = ObservationMapHandle(sys=scalar_decay_system(), x0=[1.0], h=0.1, m=m)
            with pytest.raises(DomainError, match="m >= 3"):
                fd_linear_estimate(handle, np.ones(m))

    def test_state_dim_mismatch(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=[1.0], h=0.1, m=3)
        with pytest.raises(DimensionError):
            fd_linear_estimate(handle, np.ones((3, 2)))


class TestGaussNewton:
    def test_exact_data_converges_immediately(self):
        handle = rotation_handle()
        alpha = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha)
        result = gauss_newton_invert(handle, y, alpha)
        assert result.converged
        assert result.iterations <= 1
        assert np.array_equal(result.alpha_hat, alpha)

    def test_result_keeps_a_copy_of_alpha_init(self):
        # exact data: converged at the initial point, no step accepted
        handle = rotation_handle()
        init = MatrixLinear.pack(ROTATION).copy()
        result = gauss_newton_invert(handle, phi(handle, init), init)
        assert result.converged and result.iterations == 0
        init[:] = 99.0
        assert np.array_equal(result.alpha_hat, MatrixLinear.pack(ROTATION))
        assert np.array_equal(result.history[0][0], MatrixLinear.pack(ROTATION))

    def test_scalar_decay_recovery(self):
        sys = scalar_decay_system()
        handle = ObservationMapHandle(sys=sys, x0=np.array([1.0]), h=0.1, m=10,
                                      tol=1e-12)
        y = np.exp(-0.5 * 0.1 * np.arange(1, 11))
        result = gauss_newton_invert(handle, y, [-0.4])
        assert result.converged
        assert abs(result.alpha_hat[0] + 0.5) <= 1e-8

    def test_scalar_recovery_against_bisection_oracle(self):
        # independent oracle: the closed-form residual derivative changes
        # sign at the minimizer; bisect it
        h, m = 0.1, 10
        y = np.exp(-0.5 * h * np.arange(1, m + 1))

        def dcost(a):
            j = np.arange(1, m + 1)
            r = np.exp(a * h * j) - y
            return float(np.sum(r * h * j * np.exp(a * h * j)))

        lo, hi = -0.6, -0.4
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dcost(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert abs(oracle + 0.5) < 1e-12

        sys = scalar_decay_system()
        handle = ObservationMapHandle(sys=sys, x0=np.array([1.0]), h=h, m=m,
                                      tol=1e-12)
        result = gauss_newton_invert(handle, y, [-0.42])
        assert abs(result.alpha_hat[0] - oracle) <= 1e-8

    def test_rotation_recovery_from_perturbed_init(self):
        handle = rotation_handle(tol=1e-11)
        alpha0 = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha0)
        rng = np.random.default_rng(2)
        init = alpha0 + 0.05 * rng.standard_normal(4)
        result = gauss_newton_invert(handle, y, init)
        assert result.converged
        assert np.abs(result.alpha_hat - alpha0).max() <= 1e-6

    def test_converges_to_nearby_log_branch(self):
        # starting near the k=1 branch, the same observations pull the
        # iteration to that branch, not to the base matrix
        handle = rotation_handle(tol=1e-10)
        alpha0 = MatrixLinear.pack(ROTATION)
        branch = log_branches(ROTATION, h=handle.h, k_max=1).branches[-1]
        branch_vec = MatrixLinear.pack(branch)
        y = phi(handle, alpha0)
        rng = np.random.default_rng(4)
        init = branch_vec + 0.01 * rng.standard_normal(4)
        result = gauss_newton_invert(handle, y, init)
        assert result.converged
        assert np.abs(result.alpha_hat - branch_vec).max() <= 1e-6
        assert np.abs(result.alpha_hat - alpha0).max() > 1.0

    def test_residual_non_increasing(self):
        handle = rotation_handle()
        alpha0 = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha0)
        rng = np.random.default_rng(8)
        init = alpha0 + 0.2 * rng.standard_normal(4)
        result = gauss_newton_invert(handle, y, init)
        residuals = [r for _, r in result.history]
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))

    def test_max_iter_exhaustion_reports_best(self):
        handle = rotation_handle()
        alpha0 = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha0)
        init = alpha0 + np.array([0.3, -0.2, 0.25, 0.1])
        result = gauss_newton_invert(handle, y, init,
                                     options=GaussNewtonOptions(max_iter=2))
        assert not result.converged
        assert result.message == "max_iter exhausted"
        assert result.residual <= result.history[0][1]

    def test_max_iter_exhaustion_diagnostics_at_returned_iterate(self):
        handle = rotation_handle()
        alpha0 = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha0)
        init = alpha0 + np.array([0.3, -0.2, 0.25, 0.1])
        result = gauss_newton_invert(handle, y, init,
                                     options=GaussNewtonOptions(max_iter=1))
        assert result.message == "max_iter exhausted"
        assert result.iterations == 1
        assert not np.array_equal(result.alpha_hat, init)
        jac = phi_jacobian(handle, result.alpha_hat)
        svals = singular_values(jac)
        assert result.jacobian_rank == numerical_rank(svals)
        assert result.condition == float(svals[0] / svals[-1])
        assert result.rank_deficient == (result.jacobian_rank < 4)
        # the Jacobian at the starting point gives a different condition number
        init_svals = singular_values(phi_jacobian(handle, init))
        assert result.condition != float(init_svals[0] / init_svals[-1])

    def test_overflowing_trial_step_is_rejected(self):
        # x' = a x, x0 = 1, one sample at h = 1: phi(a) = e^a. From a = 0 the
        # first step toward y = 1000 lands near a = 998, where e^a overflows
        handle = ObservationMapHandle(sys=MatrixLinear(1), x0=[1.0], h=1.0, m=1)
        first_trial = 999.0 / (1.0 + GaussNewtonOptions().damping)
        with pytest.raises(DivergenceError):
            phi(handle, [first_trial])
        result = gauss_newton_invert(handle, [1000.0], [0.0])
        assert result.converged
        assert abs(result.alpha_hat[0] - math.log(1000.0)) < 1e-12
        assert all(abs(a[0]) < 10.0 and math.isfinite(r) for a, r in result.history)

    @staticmethod
    def counted_noisy_decay_fit(noise_seed, flat_rule=True, grad_tol=GaussNewtonOptions.grad_tol):
        """Fit noisy x' = a x data from a start near the minimum; return the
        result, the number of rejected trials that made no run and the sha256
        of the report the CLI writes, after checking that the fit ran the map
        once per point it evaluated. ``flat_rule=False`` sets the flat floor
        EPS * cost^2 to 0, so only the seen-point rule skips a trial.

        The exact matrix_linear map runs no Dormand-Prince, so integrator bits
        never move the pins of the tests that call this.
        """
        handle = ObservationMapHandle(sys=MatrixLinear(1), x0=[1.0], h=0.5, m=3)
        alpha0 = np.array([-0.5])
        noise = np.random.default_rng(noise_seed).standard_normal(3)
        y = phi(handle, alpha0) + 1e-5 * noise
        with pytest.MonkeyPatch.context() as mp, recorded_runs(MatrixLinear) as calls:
            if not flat_rule:
                mp.setattr(estimate, "EPS", 0.0)
            result = gauss_newton_invert(handle, y, alpha0 + 0.005,
                                         GaussNewtonOptions(grad_tol=grad_tol))
        assert_one_run_per_point(calls, result)
        # one run at the start and one per accepted trial; the other runs were rejected
        skipped = result.rejected - (result.evaluations - 1 - result.iterations)
        report = json.dumps(_jsonable(result), indent=2, sort_keys=True).encode()
        return result, skipped, hashlib.sha256(report).hexdigest()

    def test_trial_equal_to_the_iterate_is_rejected_without_phi(self):
        # near the minimum the damped steps fall below the iterate's last bit,
        # so trial == alpha; such trials are rejected without a run. Each is
        # also flat, and the flat rule comes first: its first flat trial ends
        # the search, before any trial at the iterate (x86-64, numpy 2.4)
        result, skipped, digest = self.counted_noisy_decay_fit(noise_seed=1)
        assert (result.evaluations, result.rejected, skipped) == (17, 14, 1)
        assert digest == "dabd0dbae7a633af0c1e0dc7f05c3e948f774b273648e050a95a0ca1304a1e78"
        # without it, the seen-point rule skips 15 trials at the iterate, and
        # two more trials are run
        result, skipped, digest = self.counted_noisy_decay_fit(noise_seed=1, flat_rule=False)
        assert (result.evaluations, result.rejected, skipped) == (19, 30, 15)
        assert digest == "7de065a5107617840aa12121c52b640ea7fa3a76dfae4f30c596b6ffb98f158e"

    def test_rejected_trial_is_not_evaluated_again(self):
        # a trial at a point already run, the iterate or a trial rejected
        # before, is rejected again without a second run. A grad_tol of 1e-14
        # lies below the gradient this fit reaches, so neither the step nor
        # the stall exit ends it, and the search goes on until no trial is
        # accepted. With the flat rule off, the seen-point rule alone skips 21
        # trials here; with it, the first flat trial ends the search 6 runs
        # earlier (x86-64, numpy 2.4)
        result, skipped, digest = self.counted_noisy_decay_fit(noise_seed=0, flat_rule=False,
                                                               grad_tol=1e-14)
        assert (result.evaluations, result.rejected, skipped) == (18, 34, 21)
        assert digest == "d2b461b342782b35fa2357b1a57843e0636ca00c66c8a644a5286bad7bf3c4a9"
        result, skipped, digest = self.counted_noisy_decay_fit(noise_seed=0, grad_tol=1e-14)
        assert (result.evaluations, result.rejected, skipped) == (12, 8, 1)
        assert digest == "43969ebf5ec42be287e792543215664836dc735c62fc30586d611c5b42672aa5"

    def test_stall_test_at_an_iterate_beyond_the_root_of_the_float_range_is_silent(self):
        # ||a||^2 overflows once |a| > 1.3e154; rates near 5e156 on a grid of
        # h 1e-157 still give ordinary states, so such iterates are accepted
        handle = ObservationMapHandle(sys=MatrixLinear(1), x0=[1e150], h=1e-157, m=3)
        y = phi(handle, [-5e156])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gauss_newton_invert(handle, y, [-4e156])
        assert result.converged and result.iterations >= 1
        assert abs(result.alpha_hat[0] / -5e156 - 1.0) <= 1e-12

    def test_trial_whose_cost_squares_beyond_the_float_range_is_never_flat(self):
        # the model's decrease of cost^2 here is 2e-300, below one ulp of any
        # cost^2 above about 1e-142
        step, grad, jtj = np.array([1e-300]), np.array([1.0]), np.array([[1.0]])
        assert estimate._flat(step, grad, jtj, cost=1e-5)
        assert estimate._flat(step, grad, jtj, cost=1e154)
        # 1e155^2 overflows, and an inf floor would make every trial flat
        for cost in (1e155, 1e200, math.inf):
            assert not estimate._flat(step, grad, jtj, cost=cost)
        # nor is a trial flat whose model decrease leaves the float range:
        # J^T J s overflows, so the decrease reads -inf
        assert not estimate._flat(np.array([1e200]), grad, np.array([[1e200]]), cost=1.0)

    def test_bad_options_rejected(self):
        with pytest.raises(DomainError):
            GaussNewtonOptions(max_iter=0)
        with pytest.raises(DomainError):
            GaussNewtonOptions(step_tol=-1.0)

    @pytest.mark.parametrize("value", [math.nan, 2.5, 3.0])
    def test_max_iter_must_be_an_integer(self, value):
        # 2.5 was accepted, and the solver then failed in range()
        with pytest.raises(DomainError, match="max_iter"):
            GaussNewtonOptions(max_iter=value)

    @pytest.mark.parametrize("field", ["step_tol", "grad_tol", "damping"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_options_rejected(self, field, value):
        # a nan tolerance compares false with every bound, so no fit could converge
        with pytest.raises(DomainError, match="finite"):
            GaussNewtonOptions(**{field: value})


@contextlib.contextmanager
def recorded_runs(species):
    """Record (alpha bytes, jacobian flag) for every observation-map run of
    ``species``: its ``_observe``, the hook behind ``handle.observe``, the one
    entry point Gauss-Newton runs."""
    calls = []
    observe = species._observe

    def recording_observe(self, handle, alpha, jacobian):
        calls.append((np.asarray(alpha).tobytes(), jacobian))
        return observe(self, handle, alpha, jacobian)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(species, "_observe", recording_observe)
        yield calls


def assert_one_run_per_point(calls, result):
    """Every run of the fit was a Jacobian run, at a point not run before, and
    ``result.evaluations`` counts them."""
    assert result.evaluations >= 1
    assert all(jacobian for _, jacobian in calls)
    points = [alpha for alpha, _ in calls]
    assert len(points) == len(set(points)) == result.evaluations
    # one run at the start, one per accepted trial, the rest rejected
    assert result.evaluations - 1 - result.iterations <= result.rejected


# one example per exit: converged, stalled with no acceptable step, stalled at
# a flat first trial from a damping of 1e300, the damping term leaving the float
# range at once (an x0 of about 1e120 puts diag(J^T J) near 1e240), max_iter
# exhausted; and a fit whose damped step, not flat, lands on a trial rejected before
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(k=2, seed=0, noise=0.0, max_iter=50, damping=GaussNewtonOptions().damping,
         x0_scale=1.0)
@example(k=1, seed=6, noise=1e-5, max_iter=50, damping=GaussNewtonOptions().damping,
         x0_scale=1.0)
@example(k=1, seed=2, noise=1.0, max_iter=50, damping=GaussNewtonOptions().damping,
         x0_scale=1.0)
@example(k=2, seed=0, noise=1e20, max_iter=50, damping=1e300, x0_scale=1.0)
@example(k=2, seed=0, noise=0.0, max_iter=50, damping=1e300, x0_scale=1e120)
@example(k=3, seed=0, noise=1e-5, max_iter=1, damping=GaussNewtonOptions().damping,
         x0_scale=1.0)
@given(k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([0.0, 1e-5]), max_iter=st.sampled_from([1, 50]),
       damping=st.just(GaussNewtonOptions().damping), x0_scale=st.just(1.0))
def test_gauss_newton_report_invariants_on_every_exit(k, seed, noise, max_iter, damping,
                                                      x0_scale):
    rng = np.random.default_rng(seed)
    alpha0 = MatrixLinear.pack(stable_matrix(rng, k))
    handle = ObservationMapHandle(sys=MatrixLinear(k), x0=x0_scale * rng.standard_normal(k),
                                  h=0.3, m=k + 2)
    y = phi(handle, alpha0) + noise * rng.standard_normal(handle.dim_out)
    init = alpha0 + 0.1 * rng.standard_normal(alpha0.shape[0])
    options = GaussNewtonOptions(max_iter=max_iter, damping=damping)
    with recorded_runs(MatrixLinear) as calls:
        result = gauss_newton_invert(handle, y, init, options=options)

    assert result.converged == (result.message == "")
    assert result.message in ("", "stalled: no acceptable step", "max_iter exhausted") \
        or result.message.endswith("x diag(J^T J) leaves the float range")
    assert result.iterations == len(result.history) - 1
    assert np.array_equal(result.alpha_hat, result.history[-1][0])
    assert result.residual == result.history[-1][1]
    costs = [cost for _, cost in result.history]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert_one_run_per_point(calls, result)
    assert not np.shares_memory(result.alpha_hat, init)
    jac = phi_jacobian(handle, result.alpha_hat)
    svals = singular_values(jac)
    assert result.jacobian_rank == numerical_rank(svals)
    assert result.condition == (svals[0] / svals[-1] if svals[-1] > 0 else math.inf)



# the exact linear map's noise-free fits end at rounding: the stop rules must not
# end them at a larger residual. Bound fixed before the stall exit: over 1500
# draws the relative residual reached 6.7e-15 (about 30 eps)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_noise_free_linear_fit_ends_at_rounding(k, seed):
    rng = np.random.default_rng(seed)
    alpha0 = MatrixLinear.pack(stable_matrix(rng, k))
    x0 = rng.standard_normal(k)
    handle = ObservationMapHandle(sys=MatrixLinear(k), x0=x0 / np.linalg.norm(x0),
                                  h=0.3, m=k + 2)
    y = phi(handle, alpha0)
    result = gauss_newton_invert(handle, y, alpha0 + 0.01 * rng.standard_normal(k * k))
    assert result.converged, result.message
    assert result.residual <= 2e-14 * np.linalg.norm(y)


def lotka_volterra_system() -> PolynomialBasis:
    """x' = a1 x + a2 x y, y' = a3 y + a4 x y."""
    return PolynomialBasis([[[(1.0, (1, 0))], []], [[(1.0, (1, 1))], []],
                            [[], [(1.0, (0, 1))]], [[], [(1.0, (1, 1))]]])


def recover_problem(rng, species, dense):
    """(handle, alpha0, init) drawn from the recover benchmark's ranges for
    ``species``, on its dense or sparse grid, with a start 0.005 away."""
    if species == "logistic":
        sys = logistic_system()
        alpha0 = np.array([rng.uniform(0.8, 1.2), -rng.uniform(0.8, 1.2)])
        x0 = [rng.uniform(0.08, 0.12)]
    elif species == "lotka-volterra":
        sys = lotka_volterra_system()
        alpha0 = np.array([rng.uniform(0.9, 1.1), -rng.uniform(0.45, 0.55),
                           -rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.55)])
        x0 = [rng.uniform(1.2, 1.5), rng.uniform(0.6, 0.9)]
    else:  # a damped rotation from a unit start with no small component
        sys = MatrixLinear(2)
        sigma, omega = -rng.uniform(0.05, 0.15), rng.uniform(0.9, 1.1)
        alpha0 = np.array([sigma, omega, -omega, sigma])
        x0 = rng.choice([-1.0, 1.0], 2) * np.array([1.0, rng.uniform(0.25, 4.0)])
        x0 /= np.linalg.norm(x0)
    h, m, tol = (0.01, 200, 1e-10) if dense else (0.5, 8, 1e-11)
    handle = ObservationMapHandle(sys=sys, x0=x0, h=h, m=m, tol=tol)
    direction = rng.standard_normal(alpha0.shape[0])
    return handle, alpha0, alpha0 + 0.005 * direction / np.linalg.norm(direction)


# the recover benchmark's ranges: its two integrated species, on its dense and
# sparse grids, from a start 0.005 away
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(species=st.sampled_from(["logistic", "lotka-volterra"]), dense=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_noise_free_fit_of_plain_run_data_reaches_alpha0(species, dense, seed):
    # the data come from phi's plain run and the cost from the Jacobian run,
    # whose steps differ, so the two sets of states differ by about tol
    handle, alpha0, init = recover_problem(np.random.default_rng(seed), species, dense)
    result = gauss_newton_invert(handle, phi(handle, alpha0), init)
    assert result.converged
    assert np.abs(result.alpha_hat - alpha0).max() <= 1e-6


# (evaluations, rejected) of fits in the recover benchmark's ranges, which the
# stall exit ends at the integration's noise floor. The comment gives each
# fit's counts without that exit (x86-64, numpy 2.4)
@pytest.mark.parametrize("species, dense, sigma, seed, counts", [
    ("logistic", False, 0.0, 1, (9, 2)),       # (9, 2): no step of it stalls
    ("logistic", False, 1e-5, 0, (5, 0)),      # (6, 1)
    ("logistic", False, 1e-5, 3, (7, 1)),      # (7, 2)
    ("logistic", True, 0.0, 1, (6, 0)),        # (8, 0)
    ("logistic", True, 0.0, 3, (7, 0)),        # (17, 17)
    ("lotka-volterra", False, 0.0, 0, (8, 0)),  # (8, 0)
    ("lotka-volterra", False, 0.0, 3, (8, 0)),  # (11, 3)
])
def test_stall_exit_runs_of_recover_fits(species, dense, sigma, seed, counts):
    rng = np.random.default_rng(seed)
    handle, alpha0, init = recover_problem(rng, species, dense)
    y = phi(handle, alpha0) + sigma * rng.standard_normal(handle.dim_out)
    result = gauss_newton_invert(handle, y, init)
    assert result.converged, result.message
    assert (result.evaluations, result.rejected) == counts
    if sigma == 0.0:
        assert np.abs(result.alpha_hat - alpha0).max() <= 1e-6


# the recover benchmark's noisy jobs, over its three species: the fit must end
# converged, which the benchmark's recover check reads
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(species=st.sampled_from(["logistic", "lotka-volterra", "rotation"]),
       dense=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_noisy_fit_over_the_recover_ranges_converges(species, dense, seed):
    rng = np.random.default_rng(seed)
    handle, alpha0, init = recover_problem(rng, species, dense)
    y = phi(handle, alpha0) + 1e-5 * rng.standard_normal(handle.dim_out)
    with recorded_runs(type(handle.sys)) as calls:
        result = gauss_newton_invert(handle, y, init)
    assert result.converged, result.message
    assert_one_run_per_point(calls, result)


def test_trial_whose_run_fails_is_rejected_and_the_fit_goes_on():
    handle = rotation_handle()
    alpha0 = MatrixLinear.pack(ROTATION)
    y = phi(handle, alpha0)
    observe = MatrixLinear._observe
    calls = []

    def first_trial_fails(self, handle, alpha, jacobian):
        calls.append(np.array(alpha))
        if len(calls) == 2:  # the first trial; call 1 is the initial point
            raise DivergenceError("planted failure", 0.0)
        return observe(self, handle, alpha, jacobian)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MatrixLinear, "_observe", first_trial_fails)
        result = gauss_newton_invert(handle, y, alpha0 + 0.01)
    assert result.converged
    assert np.abs(result.alpha_hat - alpha0).max() <= 1e-9
    assert result.evaluations == len(calls) > 2
    assert result.rejected >= 1
    # the failed point was never accepted, and the fit moved on from the start
    assert not any(np.array_equal(a, calls[1]) for a, _ in result.history)
    assert np.array_equal(result.history[1][0], calls[2])

class TestAddNoise:
    def test_zero_sigma_identical(self):
        _, y = sampled(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        noisy = add_noise(y, 0.0, seed=5)
        assert np.array_equal(noisy, y)
        assert not np.shares_memory(noisy, y)

    def test_seed_determinism(self):
        _, y = sampled(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        a = add_noise(y, 1e-3, seed=11)
        b = add_noise(y, 1e-3, seed=11)
        c = add_noise(y, 1e-3, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_sigma_rejected(self):
        _, y = sampled(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        for sigma in (-1.0, math.nan):  # nan compares false with 0 too
            with pytest.raises(DomainError):
                add_noise(y, sigma, seed=0)

    def test_error_scales_linearly_with_sigma(self):
        sys = scalar_decay_system()
        handle, y = sampled(sys, [-0.5], [1.0], t_end=1.0, samples=100)
        sigmas = [1e-4, 1e-3, 1e-2]
        means = []
        for sigma in sigmas:
            errs = [abs(fd_linear_estimate(handle, add_noise(y, sigma, seed))
                        .alpha_hat[0] + 0.5)
                    for seed in range(50)]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(sigmas), np.log(means), 1)[0]
        assert 0.8 <= slope <= 1.2
