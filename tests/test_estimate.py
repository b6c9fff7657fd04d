import numpy as np
import pytest

from conftest import (
    ROTATION,
    logistic_system,
    rotation_handle,
    scalar_decay_system,
)
from odeident import (
    DimensionError,
    DomainError,
    GaussNewtonOptions,
    MatrixLinear,
    ObservationGrid,
    ObservationMapHandle,
    PolyMap,
    PolynomialBasis,
    add_noise,
    fd_linear_estimate,
    gauss_newton_invert,
    integrate,
    log_branches,
    numerical_rank,
    phi,
    phi_jacobian,
    singular_values,
)


def make_grid(sys, alpha, x0, t_end, samples, tol=1e-12):
    traj = integrate(sys, alpha, x0, t_end=t_end, samples=samples, tol=tol)
    return ObservationGrid.from_trajectory(traj)


class TestObservationGrid:
    def test_uniformity_enforced(self):
        with pytest.raises(DomainError):
            ObservationGrid.from_arrays([0.0, 0.1, 0.25], np.zeros((3, 1)))

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            ObservationGrid.from_arrays([0.0], np.zeros((1, 1)))

    def test_csv_round_trip(self, tmp_path):
        grid = make_grid(scalar_decay_system(), [-0.5], [1.0], 1.0, 10)
        from odeident.ode import write_trajectory_csv

        path = tmp_path / "obs.csv"
        write_trajectory_csv(path, grid.times, grid.values)
        back = ObservationGrid.from_csv(path)
        assert np.array_equal(back.times, grid.times)
        assert np.array_equal(back.values, grid.values)


class TestFdLinearEstimate:
    def test_scalar_decay_bias_bound(self):
        sys = scalar_decay_system()
        grid = make_grid(sys, [-0.5], [1.0], t_end=1.0, samples=100)
        result = fd_linear_estimate(grid, sys)
        assert abs(result.alpha_hat[0] + 0.5) <= 5e-5
        assert result.converged and not result.rank_deficient
        assert result.jacobian_rank == 1

    def test_constant_trajectory_rank_deficient(self):
        sys = logistic_system()
        grid = ObservationGrid.from_arrays(0.1 + 0.1 * np.arange(5), np.ones((5, 1)))
        result = fd_linear_estimate(grid, sys)
        assert result.rank_deficient
        assert not result.converged
        assert result.message == "RankDeficient"

    def test_logistic_recovery_and_dt_scaling(self):
        sys = logistic_system()
        grid = make_grid(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=500)
        result = fd_linear_estimate(grid, sys)
        err = np.abs(result.alpha_hat - [1.0, -1.0]).max()
        assert err <= 1e-3
        fine = make_grid(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=1000)
        err_fine = np.abs(fd_linear_estimate(fine, sys).alpha_hat - [1.0, -1.0]).max()
        assert 3.0 <= err / err_fine <= 5.0

    def test_second_order_in_dt(self):
        sys = logistic_system()
        dts = [0.04, 0.02, 0.01, 0.005]
        errors = []
        for dt in dts:
            grid = make_grid(sys, [1.0, -1.0], [0.1], t_end=4.0,
                             samples=int(round(4.0 / dt)))
            res = fd_linear_estimate(grid, sys)
            errors.append(np.abs(res.alpha_hat - [1.0, -1.0]).max())
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_matrix_linear_species_supported(self):
        sys = MatrixLinear(2)
        alpha = MatrixLinear.pack(ROTATION)
        grid = make_grid(sys, alpha, [1.0, 0.7], t_end=2.0, samples=200)
        result = fd_linear_estimate(grid, sys)
        assert np.abs(result.alpha_hat - alpha).max() <= 1e-3

    def test_basis_scaling_equivariance(self):
        sys = logistic_system()
        scaled = PolynomialBasis([PolyMap.scalar([(2.5, 1)]),
                                  PolyMap.scalar([(2.5, 2)])])
        grid = make_grid(sys, [1.0, -1.0], [0.1], t_end=5.0, samples=400)
        plain = fd_linear_estimate(grid, sys).alpha_hat
        rescaled = fd_linear_estimate(grid, scaled).alpha_hat * 2.5
        assert np.abs(plain - rescaled).max() <= 1e-10

    def test_no_interior_points_rejected(self):
        sys = scalar_decay_system()
        grid = ObservationGrid.from_arrays([0.1, 0.2], np.ones((2, 1)))
        with pytest.raises(DomainError):
            fd_linear_estimate(grid, sys)

    def test_state_dim_mismatch(self):
        grid = ObservationGrid.from_arrays([0.1, 0.2, 0.3], np.ones((3, 2)))
        with pytest.raises(DimensionError):
            fd_linear_estimate(grid, scalar_decay_system())


class TestGaussNewton:
    def test_exact_data_converges_immediately(self):
        handle = rotation_handle()
        alpha = MatrixLinear.pack(ROTATION)
        y = phi(handle, alpha)
        result = gauss_newton_invert(handle, y, alpha)
        assert result.converged
        assert result.iterations <= 1
        assert np.array_equal(result.alpha_hat, alpha)

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
        assert result.jacobian_rank == numerical_rank(jac, svals)
        assert result.condition == float(svals[0] / svals[-1])
        assert result.rank_deficient == (result.jacobian_rank < 4)
        # the Jacobian at the starting point gives a different condition number
        init_svals = singular_values(phi_jacobian(handle, init))
        assert result.condition != float(init_svals[0] / init_svals[-1])

    def test_bad_options_rejected(self):
        with pytest.raises(DomainError):
            GaussNewtonOptions(max_iter=0)
        with pytest.raises(DomainError):
            GaussNewtonOptions(step_tol=-1.0)


class TestAddNoise:
    def test_zero_sigma_identical(self):
        grid = make_grid(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        noisy = add_noise(grid, 0.0, seed=5)
        assert np.array_equal(noisy.values, grid.values)
        assert noisy.noise_sigma == 0.0

    def test_seed_determinism(self):
        grid = make_grid(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        a = add_noise(grid, 1e-3, seed=11)
        b = add_noise(grid, 1e-3, seed=11)
        c = add_noise(grid, 1e-3, seed=12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.noise_sigma == 1e-3 and a.seed == 11

    def test_negative_sigma_rejected(self):
        grid = make_grid(scalar_decay_system(), [-0.5], [1.0], 1.0, 20)
        with pytest.raises(DomainError):
            add_noise(grid, -1.0, seed=0)

    def test_error_scales_linearly_with_sigma(self):
        sys = scalar_decay_system()
        grid = make_grid(sys, [-0.5], [1.0], t_end=1.0, samples=100)
        sigmas = [1e-4, 1e-3, 1e-2]
        means = []
        for sigma in sigmas:
            errs = [abs(fd_linear_estimate(add_noise(grid, sigma, seed), sys)
                        .alpha_hat[0] + 0.5)
                    for seed in range(50)]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(sigmas), np.log(means), 1)[0]
        assert 0.8 <= slope <= 1.2
