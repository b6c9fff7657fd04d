import json
import math

import numpy as np
import pytest

from conftest import (
    ROTATION,
    finite_difference_jacobian,
    logistic_system,
    rotation_handle,
    rotation_system,
    scalar_decay_system,
)
from odeident import (
    DomainError,
    MatrixLinear,
    NotIdentifiableError,
    ObservationMapHandle,
    PolyMap,
    PolynomialBasis,
    certify_radius,
    numerical_rank,
    phi,
    phi_jacobian,
    singular_values,
    verify_lower_bound,
    zeta_scan,
)


def scalar_exp_handle(tol=1e-12):
    # x' = a x, x0 = 1, h = 1, m = 2: phi(a) = (e^a, e^{2a})
    return ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                h=1.0, m=2, tol=tol)


class TestPhi:
    def test_rotation_quarter_turns(self):
        handle = ObservationMapHandle(sys=rotation_system(), x0=np.array([1.0, 0.0]),
                                      h=math.pi / 2.0, m=2, tol=1e-11)
        got = phi(handle, MatrixLinear.pack(ROTATION))
        assert np.abs(got - np.array([0.0, -1.0, -1.0, 0.0])).max() < 1e-9

    def test_zero_field_repeats_x0(self):
        handle = ObservationMapHandle(sys=rotation_system(), x0=np.array([0.2, -3.0]),
                                      h=0.5, m=4)
        got = phi(handle, np.zeros(4))
        assert np.allclose(got, np.tile([0.2, -3.0], 4), atol=0.0)

    def test_scalar_closed_form(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=3, tol=1e-12)
        got = phi(handle, [-0.5])
        assert np.abs(got - np.exp([-0.5, -1.0, -1.5])).max() < 1e-10

    @pytest.mark.parametrize("h,m,tol", [
        (0.5, 4, 1e-2),       # tol above the integrators' range
        (1e-3, 10 ** 7, 1e-10),  # more samples than the step budget
        (1e308, 10, 1e-10),   # t_end = h*m overflows
    ])
    def test_handle_rejects_grids_the_integrators_reject(self, h, m, tol):
        with pytest.raises(DomainError):
            ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                 h=h, m=m, tol=tol)

    def test_stacking_is_sample_major(self):
        handle = rotation_handle(m=3)
        traj_states = phi(handle, MatrixLinear.pack(ROTATION)).reshape(3, 2)
        single = phi(ObservationMapHandle(sys=rotation_system(), x0=handle.x0,
                                          h=0.3, m=1, tol=handle.tol),
                     MatrixLinear.pack(ROTATION))
        assert np.abs(traj_states[0] - single).max() < 1e-9


class TestPhiJacobian:
    def test_scalar_at_zero(self):
        got = phi_jacobian(scalar_exp_handle(), [0.0])
        assert np.abs(got.ravel() - np.array([1.0, 2.0])).max() < 1e-9

    def test_small_h_jacobian_vanishes_linearly(self):
        for h in (1e-2, 1e-3):
            handle = ObservationMapHandle(sys=scalar_decay_system(),
                                          x0=np.array([1.0]), h=h, m=1, tol=1e-12)
            jac = phi_jacobian(handle, [-0.5])
            assert np.abs(jac).max() <= 2.0 * h

    def test_rotation_full_rank(self):
        handle = ObservationMapHandle(sys=rotation_system(), x0=np.array([1.0, 0.0]),
                                      h=0.1, m=5, tol=1e-10)
        jac = phi_jacobian(handle, MatrixLinear.pack(ROTATION))
        svals = singular_values(jac)
        assert np.sum(svals > max(jac.shape) * np.finfo(float).eps * svals[0]) == 4

    @pytest.mark.parametrize("builder,alpha_dim,x0", [
        (scalar_decay_system, 1, [1.0]),
        (logistic_system, 2, [0.4]),
        (rotation_system, 4, [1.0, 0.7]),
    ])
    def test_matches_finite_differences_at_random_points(self, builder, alpha_dim, x0):
        sys = builder()
        handle = ObservationMapHandle(sys=sys, x0=np.array(x0), h=0.3, m=4,
                                      tol=1e-10)
        rng = np.random.default_rng(61)
        for _ in range(20):
            alpha = rng.uniform(-0.8, 0.8, size=alpha_dim)
            jac = phi_jacobian(handle, alpha)
            fd = finite_difference_jacobian(lambda a: phi(handle, a), alpha,
                                            step=1e-5)
            rel = np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1e-30)
            assert rel <= 1e-4


class TestCertifyRadius:
    def test_scalar_exponential_closed_forms(self):
        handle = scalar_exp_handle()
        cert = certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16,
                              safety=1.5, seed=0)
        assert abs(cert.beta - 5.0) < 1e-8
        # true ||D2 phi|| is sqrt(17) at the center, slightly larger over the ball
        assert math.sqrt(17.0) * 0.98 <= cert.gamma / cert.safety_factor <= 5.3
        assert abs(cert.r_cert - math.sqrt(cert.beta) / (6.0 * cert.gamma)) < 1e-15
        assert abs(cert.lipschitz_lower - math.sqrt(5.0) / 2.0) < 1e-9

    def test_beta_is_squared_min_singular_value(self):
        handle = rotation_handle()
        alpha0 = MatrixLinear.pack(ROTATION)
        cert = certify_radius(handle, alpha0, r_work=0.3, gamma_samples=12, seed=1)
        svals = singular_values(phi_jacobian(handle, alpha0))
        assert abs(cert.beta - svals[-1] ** 2) <= 1e-8 * svals[-1] ** 2

    def test_duplicated_parameter_not_identifiable(self):
        dup = PolynomialBasis([PolyMap.scalar([(1.0, 1)]),
                               PolyMap.scalar([(1.0, 1)])])
        handle = ObservationMapHandle(sys=dup, x0=np.array([1.0]), h=0.5, m=4)
        with pytest.raises(NotIdentifiableError) as err:
            certify_radius(handle, [0.3, -0.1], r_work=0.2, gamma_samples=10)
        diag = err.value.diagnostics
        assert diag["rank"] < diag["n_params"]
        assert diag["beta"] <= 1e-12 * max(diag["sigma_max"] ** 2, 1.0)

    def test_conditioning_rule_overrides_eps_rank(self):
        # basis maps x and x + 1e-9 x^2: the Jacobian has eps-rank 2 but
        # sigma_min/sigma_1 ~ 1e-11 < sqrt(n*eps), so the verdict is "not
        # identifiable" (an integrator-built Jacobian is not eps-accurate)
        near_dup = PolynomialBasis([PolyMap.scalar([(1.0, 1)]),
                                    PolyMap.scalar([(1.0, 1), (1e-9, 2)])])
        handle = ObservationMapHandle(sys=near_dup, x0=np.array([0.5]), h=0.3, m=6,
                                      tol=1e-12)
        alpha = np.array([-0.5, 0.2])
        jac = phi_jacobian(handle, alpha)
        svals = singular_values(jac)
        assert numerical_rank(jac, svals) == 2
        assert svals[-1] / svals[0] < math.sqrt(2 * np.finfo(float).eps)
        with pytest.raises(NotIdentifiableError, match="sigma_min/sigma_1") as err:
            certify_radius(handle, alpha, r_work=0.1, gamma_samples=10)
        assert err.value.diagnostics["rank"] == 2
        assert "rank deficient" not in str(err.value)

    def test_underdetermined_map_not_identifiable(self):
        handle = ObservationMapHandle(sys=rotation_system(), x0=np.array([1.0, 0.7]),
                                      h=0.3, m=1)  # m*k = 2 < 4 = n
        with pytest.raises(NotIdentifiableError):
            certify_radius(handle, MatrixLinear.pack(ROTATION), r_work=0.2,
                           gamma_samples=10)

    def test_rotation_certificate_positive(self):
        handle = ObservationMapHandle(sys=rotation_system(), x0=np.array([1.0, 0.0]),
                                      h=0.1, m=8, tol=1e-10)
        cert = certify_radius(handle, MatrixLinear.pack(ROTATION), r_work=0.5,
                              gamma_samples=12, seed=2)
        assert cert.beta > 0.0
        assert 0.0 < cert.r_cert <= 0.5

    def test_monotone_beta_in_m(self):
        alpha0 = MatrixLinear.pack(ROTATION)
        betas = []
        for m in (2, 4, 6, 8):
            handle = rotation_handle(m=m)
            svals = singular_values(phi_jacobian(handle, alpha0))
            betas.append(svals[-1] ** 2)
        assert all(b2 >= b1 * (1.0 - 1e-10) for b1, b2 in zip(betas, betas[1:]))

    def test_injected_gamma_scales_exactly_with_safety(self):
        handle = scalar_exp_handle()
        cert1 = certify_radius(handle, [0.0], r_work=10.0, gamma_raw=2.0, safety=1.0)
        cert2 = certify_radius(handle, [0.0], r_work=10.0, gamma_raw=2.0, safety=2.0)
        assert cert1.r_cert == 2.0 * cert2.r_cert
        assert cert1.gamma_samples == 0

    def test_precondition_errors(self):
        handle = scalar_exp_handle()
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=-1.0)
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=0.1, gamma_samples=5)
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=0.1, safety=0.5)


class TestVerifyLowerBound:
    def test_scalar_exponential_no_violations(self):
        handle = scalar_exp_handle(tol=1e-10)
        cert = certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16,
                              safety=1.5, seed=0)
        report = verify_lower_bound(handle, cert, pair_count=2000, seed=42)
        assert report.pairs_tested == 2000
        assert report.violations == 0
        assert report.worst_ratio >= math.sqrt(5.0) / 2.0 - 1e-6

    def test_identical_pair_not_a_violation(self):
        handle = scalar_exp_handle(tol=1e-10)
        cert = certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16, seed=0)
        report = verify_lower_bound(handle, cert, pair_count=1, seed=0)
        assert report.violations == 0
        assert report.worst_ratio == math.inf  # only the forced identical pair

    def test_deterministic_given_seed(self):
        handle = scalar_exp_handle(tol=1e-10)
        cert = certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16, seed=0)
        a = verify_lower_bound(handle, cert, pair_count=50, seed=9)
        b = verify_lower_bound(handle, cert, pair_count=50, seed=9)
        assert a == b


class TestZetaScan:
    def test_scalar_box_has_no_flags(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2, tol=1e-10)
        result = zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)], [7, 7],
                           rank_tol=1e-12)
        assert result.flagged_fraction == 0.0
        assert result.failed_count == 0

    def test_zero_x0_line_flagged_exactly(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2, tol=1e-10)
        result = zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(-0.5, 0.5)], [5, 5],
                           rank_tol=1e-12)
        for cell in result.cells:
            assert cell.flagged == (cell.x[0] == 0.0)

    def test_logistic_lattice_refinement(self):
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                      h=0.2, m=3, tol=1e-8)
        boxes = ([(0.5, 1.5), (-1.5, -0.5)], [(-0.25, 0.25)])
        coarse = zeta_scan(handle, [1.0], boxes[0], boxes[1], [7, 7, 7],
                           rank_tol=1e-12)
        fine = zeta_scan(handle, [1.0], boxes[0], boxes[1], [9, 9, 9],
                         rank_tol=1e-12)
        assert coarse.flagged_fraction <= 1.0 / 7.0 + 1e-12
        assert fine.flagged_fraction < coarse.flagged_fraction

    def test_failed_cells_are_marked_and_scan_continues(self):
        # x' = a x^2 blows up inside the box for large a*x0
        sys = PolynomialBasis([PolyMap.scalar([(1.0, 2)])])
        handle = ObservationMapHandle(sys=sys, x0=np.array([1.0]), h=1.0, m=2,
                                      tol=1e-10)
        result = zeta_scan(handle, [1.0], [(0.1, 3.0)], [(0.5, 2.0)], [4, 4],
                           rank_tol=1e-12)
        assert result.failed_count > 0
        assert len(result.cells) == 16

    def test_budget_guard(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2)
        with pytest.raises(DomainError):
            zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)], [1000, 1000])

    def test_csv_layout(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2, tol=1e-10)
        result = zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)], [3, 3],
                           rank_tol=1e-12)
        lines = result.csv_lines()
        assert lines[0] == "t,alpha1,x1,zeta,flag"
        assert len(lines) == 1 + 9


class TestSerialization:
    def test_certificate_json_round_trip(self):
        handle = scalar_exp_handle()
        cert = certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16, seed=0)
        blob = json.dumps(cert.to_dict())
        back = json.loads(blob)
        assert set(back) == {
            "alpha0", "beta", "gamma", "r_work", "r_cert", "lipschitz_lower",
            "gamma_samples", "safety_factor", "d2_norm_model", "derivative_quality",
        }
        assert back["beta"] == cert.beta
        assert back["alpha0"] == [0.0]
        assert back["lipschitz_lower"] ** 2 == pytest.approx(back["beta"] / 4.0,
                                                             rel=1e-12)
