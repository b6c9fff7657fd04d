import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ROTATION,
    finite_difference_jacobian,
    logistic_system,
    rotation_handle,
    rotation_system,
    scalar_decay_system,
    scalar_map,
    stable_matrix,
)
import odeident.obsmap
import odeident.ode as ode
from odeident import (
    DEFAULTS,
    DimensionError,
    DivergenceError,
    DomainError,
    MatrixLinear,
    NotIdentifiableError,
    ObservationMapHandle,
    PolynomialBasis,
    RangeError,
    certify_radius,
    full_rank_check,
    gauss_newton_invert,
    integrate,
    integrate_with_sensitivity,
    mat_exp,
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

    @pytest.mark.parametrize("m", [2.5, True, np.float64(3.0)], ids=repr)
    @pytest.mark.parametrize("sys", [scalar_decay_system(), rotation_system()],
                             ids=["polynomial", "matrix_linear"])
    def test_handle_sample_count_must_be_an_integer(self, sys, m):
        # m = 2.5 built: the polynomial map returned 3 samples against a
        # dim_out of 2.5, and the matrix map raised a bare TypeError
        with pytest.raises(DomainError, match="samples must be an integer"):
            ObservationMapHandle(sys=sys, x0=np.ones(sys.state_dim), h=0.5, m=m)
        handle = ObservationMapHandle(sys=sys, x0=np.ones(sys.state_dim), h=0.5,
                                      m=np.int64(3))
        assert phi(handle, np.zeros(sys.param_dim)).shape == (handle.dim_out,) == (
            3 * sys.state_dim,)

    # h*m/m is not h for (0.05, 3) or (0.2, 3): the grid is t_end / m, not h
    @pytest.mark.parametrize("h,m", [(0.3, 6), (0.05, 3), (0.2, 3), (1 / 3, 9)])
    def test_times_are_the_integrators_grid(self, h, m):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=h, m=m)
        assert np.array_equal(handle.times, ode._sample_times(h * m, m))

    def test_handle_keeps_a_copy_of_x0(self):
        x0 = np.array([1.0, 0.7])
        handle = ObservationMapHandle(sys=rotation_system(), x0=x0, h=0.3, m=6)
        x0[0] = np.nan
        assert np.array_equal(handle.x0, [1.0, 0.7])

    def test_handle_x0_is_read_only(self):
        # x0 is checked once, when the handle is built, so it cannot change after
        handle = rotation_handle()
        with pytest.raises(ValueError, match="read-only"):
            handle.x0[0] = np.nan

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


class TestMatrixLinearExactMap:
    """phi and phi_jacobian of MatrixLinear come from matrix exponentials, not
    the integrator; the input contract is the integrators'."""

    @pytest.mark.parametrize("observe", [phi, phi_jacobian])
    @pytest.mark.parametrize("alpha,t_fail", [
        ([math.nan, 0.0, 0.0, 0.0], 0.0),
        ([math.inf, 0.0, 0.0, 0.0], 0.0),
        ([2000.0, 0.0, 0.0, 0.0], 0.5),   # exp(hA) overflows
        ([300.0, 0.0, 0.0, 0.0], 2.5),    # exp(hA) is finite, e^{300 t} at t = 2.5 is not
        ([1e308, 1e308, 0.0, 0.0], 0.5),  # f(x0) overflows; hA needs 1024 halvings
    ])
    def test_non_finite_or_overflowing_alpha_diverges(self, observe, alpha, t_fail):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as info:
                observe(rotation_handle(h=0.5), alpha)
        assert info.value.t_fail == t_fail

    @pytest.mark.parametrize("observe", [phi, phi_jacobian])
    def test_wrong_length_alpha_is_a_dimension_error(self, observe):
        with pytest.raises(DimensionError):
            observe(rotation_handle(h=0.5), [0.0, 1.0, -1.0])

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
    def test_checks_inputs_without_evaluating_the_field(self, k, monkeypatch):
        # the exact map reads A, never f, df/dx or df/da, so it checks x0, the
        # grid, tol and alpha only; its bits are those of the full check
        rng = np.random.default_rng(k)
        alpha = MatrixLinear.pack(rng.normal(size=(k, k)))
        handle = ObservationMapHandle(sys=MatrixLinear(k), x0=rng.normal(size=k),
                                      h=0.4, m=3)
        expected = [observe(handle, alpha).tobytes() for observe in (phi, phi_jacobian)]

        def refuse(x, alpha):
            raise AssertionError("the exact map evaluated the field")

        for name in ("f", "dfdx", "dfda"):
            monkeypatch.setattr(handle.sys, name, refuse)
        for observe, bits in zip((phi, phi_jacobian), expected):
            assert observe(handle, alpha).tobytes() == bits
            with pytest.raises(DimensionError):
                observe(handle, alpha[1:])
            with pytest.raises(DivergenceError) as info:
                observe(handle, np.full(k * k, math.nan))
            assert info.value.t_fail == 0.0

    @pytest.mark.parametrize("observe", [phi, phi_jacobian])
    @pytest.mark.parametrize("name,shape", [("f", (2,)), ("dfdx", (1, 2)), ("dfda", (2, 2))])
    def test_integrating_species_keeps_its_shape_check_at_x0(self, observe, name, shape,
                                                             monkeypatch):
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                      h=0.5, m=4)
        monkeypatch.setattr(handle.sys, name, lambda x, alpha: np.zeros(shape))
        with pytest.raises(DimensionError, match=re.escape(f"has shape {shape} at x0")):
            observe(handle, [1.0, -1.0])

    # m = 400 reaches the square C^8, whose first entry e^1200 overflows: a
    # block product with it would make 0 * inf = nan of the zero first state
    @pytest.mark.parametrize("m", [16, 400])
    def test_overflowing_power_times_zero_stays_finite(self, m):
        handle = ObservationMapHandle(sys=MatrixLinear(2), x0=np.array([0.0, 1.0]),
                                      h=0.5, m=m)
        alpha = [300.0, 0.0, 0.0, -1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = phi(handle, alpha).reshape(m, 2)
            # dX_1/dA_12 grows as e^{300 t}/301 and leaves the float range at t = 2.5
            with pytest.raises(DivergenceError) as info:
                phi_jacobian(handle, alpha)
        assert info.value.t_fail == 2.5
        assert np.array_equal(got[:, 0], np.zeros(m))
        # X_2(jh) = c^j with c = exp(hA)[1, 1]; mat_exp's c is e^{-h} only to
        # 1.5e-14, as it scales the e^150 entry, so e^{-jh} holds to j times that
        j = np.arange(1, m + 1)
        c = mat_exp(np.diag([300.0, -1.0]), 0.5)[1, 1]
        assert np.all(np.abs(got[:, 1] / c ** j - 1.0) <= 2e-14)
        assert np.all(np.abs(got[:, 1] / np.exp(-0.5 * j) - 1.0) <= 2e-14 * j)

    def test_huge_decay_underflows_to_zero(self):
        got = phi(rotation_handle(h=0.5), [-1e308, 0.0, 0.0, 0.0])
        assert np.array_equal(got, np.tile([0.0, 0.7], 6))

    @pytest.mark.parametrize("m", [3, 40])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_jacobian_matches_scipy_frechet_derivatives(self, k, m):
        # d(C^j x0)/dA_p = sum_{l<j} C^l dC_p C^(j-1-l) x0, with C = exp(hA) and
        # dC_p = h L(hA, E_p) from scipy's expm_frechet (Al-Mohy and Higham 2009),
        # summed by its recurrence Z_j = C Z_(j-1) + dC X_(j-1); m = 40 squares
        # the step, m = 3 does not
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, k))
        a[0, 0] = -abs(a[0, 0])
        x0, h, n = rng.normal(size=k), 0.4, k * k
        c = scipy.linalg.expm(h * a)
        dc = np.array([scipy.linalg.expm_frechet(h * a, h * np.eye(n)[p].reshape(k, k),
                                                 compute_expm=False) for p in range(n)])
        ref = np.empty((m, k, n))
        x, z = x0, np.zeros((k, n))
        for j in range(m):
            z = c @ z + (dc @ x).T
            x = c @ x
            ref[j] = z
        handle = ObservationMapHandle(sys=MatrixLinear(k), x0=x0, h=h, m=m)
        got = phi_jacobian(handle, MatrixLinear.pack(a))
        assert np.abs(got - ref.reshape(m * k, n)).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [3, 40])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_one_exponential_per_call(self, k, m, monkeypatch):
        # phi exponentiates A, the Jacobian the stack of its k^2 Van Loan
        # generators: one mat_exp call each, whatever k and m
        shapes = []

        def counting_mat_exp(a, t=1.0):
            shapes.append(np.shape(a))
            return mat_exp(a, t)

        monkeypatch.setattr(ode, "mat_exp", counting_mat_exp)
        rng = np.random.default_rng(k)
        handle = ObservationMapHandle(sys=MatrixLinear(k), x0=rng.normal(size=k),
                                      h=0.1, m=m)
        alpha = MatrixLinear.pack(stable_matrix(rng, k))
        phi(handle, alpha)
        assert shapes == [(k, k)]
        phi_jacobian(handle, alpha)
        assert shapes == [(k, k), (k * k, 2 * k, 2 * k)]


class TestObservationRecord:
    """phi and phi_jacobian are the views ``values`` and ``jacobian`` of one
    ``observe`` call, for an integrating and for the exact species."""

    CASES = {
        "logistic": (lambda: ObservationMapHandle(sys=logistic_system(), x0=np.array([0.4]),
                                                  h=0.3, m=4, tol=1e-10), [1.0, -1.0]),
        "matrix_linear": (rotation_handle, MatrixLinear.pack(ROTATION)),
    }

    @staticmethod
    def observe(case, jacobian):
        build, alpha = TestObservationRecord.CASES[case]
        handle = build()
        obs = handle.observe(alpha, jacobian=jacobian)
        return handle, alpha, obs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_phi_is_the_values(self, case):
        handle, alpha, obs = self.observe(case, jacobian=False)
        assert obs.jacobian is None
        assert obs.states.shape == (handle.m, handle.sys.state_dim)
        assert phi(handle, alpha).tobytes() == obs.values.tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_phi_jacobian_is_the_jacobian(self, case):
        handle, alpha, obs = self.observe(case, jacobian=True)
        assert obs.states.shape == (handle.m, handle.sys.state_dim)
        assert obs.jacobian.shape == (handle.dim_out, handle.n_params)
        assert phi_jacobian(handle, alpha).tobytes() == obs.jacobian.tobytes()

    def test_integrating_jacobian_run_states_are_the_joint_runs(self):
        handle, alpha, obs = self.observe("logistic", jacobian=True)
        joint = integrate_with_sensitivity(handle, alpha)
        assert obs.states.tobytes() == joint.states.tobytes()


class TestChecksOnce:
    """x0, the grid and tol are checked once, when a handle is built; each
    run of the observation map checks alpha once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"_check_grid": 0, "_check_alpha": 0}
        for name, check in [(name, getattr(ode, name)) for name in counts]:
            def counted(*args, name=name, check=check):
                counts[name] += 1
                return check(*args)

            monkeypatch.setattr(ode, name, counted)
        return counts

    @pytest.mark.parametrize("case", sorted(TestObservationRecord.CASES))
    def test_runs_check_alpha_once_and_no_grid(self, counts, case):
        build, alpha = TestObservationRecord.CASES[case]
        handle = build()
        assert counts == {"_check_grid": 1, "_check_alpha": 0}
        y = phi(handle, alpha)
        phi_jacobian(handle, alpha)
        certify_radius(handle, alpha, r_work=0.05, gamma_samples=10)
        runs = 2 + 1 + 2 * 10  # phi, phi_jacobian, then certify's J and 2 per sample
        assert counts == {"_check_grid": 1, "_check_alpha": runs}
        result = gauss_newton_invert(handle, y, np.asarray(alpha) + 0.01)
        assert counts == {"_check_grid": 1, "_check_alpha": runs + result.evaluations}

    @pytest.mark.parametrize("case", sorted(TestObservationRecord.CASES))
    def test_zeta_scan_checks_one_grid_per_t_and_per_cell(self, counts, case):
        build, alpha = TestObservationRecord.CASES[case]
        handle = build()
        alpha_box = [(a - 0.1, a + 0.1) for a in alpha]
        x_box = [(x - 0.1, x + 0.1) for x in handle.x0]
        result = zeta_scan(handle, [1.0, 1.5], alpha_box, x_box, 2)
        cells = len(result.cells)
        assert cells == 2 * 2 ** (len(alpha_box) + len(x_box))
        assert counts == {"_check_grid": 1 + 2 + cells, "_check_alpha": cells}


def test_handles_compare_and_hash_by_identity():
    first, second = rotation_handle(), rotation_handle()
    assert first == first
    assert first != second  # equal fields, two handles: no array comparison
    assert len({first, second, first}) == 2


# bound fixed before the test was first run: 1e-13 of max|x|, where lane 0's
# upper half of exp(h [[A, 0], [E, A]]) steps the states by exp(hA) to rounding
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(0.05, 0.5), m=st.integers(1, 39))
def test_exact_jacobian_run_states_match_phi(k, seed, h, m):
    """The states of the exact Jacobian run (lane 0's upper half) are phi's."""
    rng = np.random.default_rng(seed)
    alpha = MatrixLinear.pack(stable_matrix(rng, k))
    x0 = rng.uniform(-1.0, 1.0, size=k)
    handle = ObservationMapHandle(sys=MatrixLinear(k), x0=x0, h=h, m=m, tol=1e-10)
    plain, joint = handle.observe(alpha), handle.observe(alpha, jacobian=True)
    assert np.abs(joint.states - plain.states).max() <= 1e-13 * np.abs(plain.states).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(0.05, 0.5), m=st.integers(1, 8))
def test_exact_linear_map_matches_integrators(k, seed, h, m):
    """Exact phi and Jacobian agree with Dormand-Prince at tol 1e-12 for
    every k."""
    rng = np.random.default_rng(seed)
    alpha = MatrixLinear.pack(stable_matrix(rng, k))
    x0 = rng.uniform(-1.0, 1.0, size=k)
    sys = MatrixLinear(k)
    handle = ObservationMapHandle(sys=sys, x0=x0, h=h, m=m, tol=1e-12)
    got_phi, got_jac = phi(handle, alpha), phi_jacobian(handle, alpha)
    ref_phi = integrate(handle, alpha).states.ravel()
    ref_jac = integrate_with_sensitivity(handle, alpha).jacobian
    assert np.abs(got_phi - ref_phi).max() <= 1e-9 * np.abs(ref_phi).max()
    assert np.abs(got_jac - ref_jac).max() <= 1e-9 * np.abs(ref_jac).max()
    assert phi(handle, alpha).tobytes() == got_phi.tobytes()
    assert phi_jacobian(handle, alpha).tobytes() == got_jac.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(0.01, 0.5), m=st.integers(1, 400))
def test_doubled_map_matches_per_sample_exponentials(k, seed, h, m):
    """The exact map, formed by doubling, against scipy: phi per sample as
    expm(j h A) x0, the Jacobian as the Frechet sum of
    test_jacobian_matches_scipy_frechet_derivatives, summed by its recurrence
    Z_j = C Z_(j-1) + dC X_(j-1). Both agree to 1e-12 of the largest entry
    (measured: 1e-13); repeated calls give the same bits."""
    rng = np.random.default_rng(seed)
    a = stable_matrix(rng, k)
    x0 = rng.uniform(-1.0, 1.0, size=k)
    n = k * k
    ref_phi = np.array([scipy.linalg.expm(j * h * a) @ x0 for j in range(1, m + 1)])
    c = scipy.linalg.expm(h * a)
    dc = np.array([scipy.linalg.expm_frechet(h * a, h * np.eye(n)[p].reshape(k, k),
                                             compute_expm=False) for p in range(n)])
    ref_jac = np.empty((m, k, n))
    x, z = x0, np.zeros((k, n))
    for j in range(m):
        z = c @ z + (dc @ x).T
        x = c @ x
        ref_jac[j] = z
    handle = ObservationMapHandle(sys=MatrixLinear(k), x0=x0, h=h, m=m)
    alpha = MatrixLinear.pack(a)
    got_phi, got_jac = phi(handle, alpha), phi_jacobian(handle, alpha)
    assert np.abs(got_phi - ref_phi.ravel()).max() <= 1e-12 * np.abs(ref_phi).max()
    assert np.abs(got_jac - ref_jac.reshape(m * k, n)).max() <= 1e-12 * np.abs(ref_jac).max()
    assert phi(handle, alpha).tobytes() == got_phi.tobytes()
    assert phi_jacobian(handle, alpha).tobytes() == got_jac.tobytes()


@st.composite
def stable_linear_points(draw):
    """A MatrixLinear(k) handle, k = 1..3, and a random stable matrix on it."""
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = MatrixLinear.pack(stable_matrix(rng, k))
    handle = ObservationMapHandle(sys=MatrixLinear(k), x0=rng.uniform(-1.0, 1.0, size=k),
                                  h=draw(st.floats(0.05, 0.5)), m=draw(st.integers(k, 8)))
    return handle, alpha


# the examples sit between an eps-level rank threshold and sqrt(n*eps), where
# separate thresholds split the verdicts: sigma_min/sigma_1 is 2e-10 on the
# exact map, and ~1e-11 on the near-duplicate basis x, x + 1e-9 x^2
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(point=(ObservationMapHandle(sys=MatrixLinear(2), x0=np.array([1.0, 3e-9]),
                                     h=0.3, m=6),
                MatrixLinear.pack(np.diag([-0.5, -1.0]))))
@example(point=(ObservationMapHandle(sys=PolynomialBasis([scalar_map([(1.0, 1)]),
                                                          scalar_map([(1.0, 1), (1e-9, 2)])]),
                                     x0=np.array([0.5]), h=0.3, m=6, tol=1e-12),
                np.array([-0.5, 0.2])))
@given(point=stable_linear_points())
def test_every_verb_reads_one_rank(point):
    """full_rank_check, Gauss-Newton and certify give the rank rule's verdict."""
    handle, alpha = point
    n = handle.n_params
    rank = numerical_rank(singular_values(phi_jacobian(handle, alpha)))
    if isinstance(handle.sys, MatrixLinear):
        report = full_rank_check(handle, alpha)
        assert (report.rank, report.full) == (rank, rank == n)
    est = gauss_newton_invert(handle, phi(handle, alpha), alpha)
    assert est.converged and est.iterations == 0
    assert (est.jacobian_rank, est.rank_deficient) == (rank, rank < n)
    if rank < n:
        with pytest.raises(NotIdentifiableError) as err:
            certify_radius(handle, alpha, r_work=0.1, gamma_samples=10)
        assert err.value.diagnostics["rank"] == rank
    else:
        certify_radius(handle, alpha, r_work=0.1, gamma_samples=10)


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

    def test_certificate_keeps_a_copy_of_alpha0(self):
        # alpha0 is the centre of the ball verify_lower_bound samples from
        alpha0 = MatrixLinear.pack(ROTATION).copy()
        cert = certify_radius(rotation_handle(), alpha0, r_work=0.1, gamma_samples=10)
        alpha0[:] = 7.0
        assert np.array_equal(cert.alpha0, MatrixLinear.pack(ROTATION))

    def test_duplicated_parameter_not_identifiable(self):
        dup = PolynomialBasis([scalar_map([(1.0, 1)]),
                               scalar_map([(1.0, 1)])])
        handle = ObservationMapHandle(sys=dup, x0=np.array([1.0]), h=0.5, m=4)
        with pytest.raises(NotIdentifiableError) as err:
            certify_radius(handle, [0.3, -0.1], r_work=0.2, gamma_samples=10)
        diag = err.value.diagnostics
        assert diag["rank"] < diag["n_params"]
        assert diag["beta"] <= 1e-12 * max(diag["sigma_max"] ** 2, 1.0)

    def test_conditioning_rule_overrides_eps_rank(self):
        # basis maps x and x + 1e-9 x^2: sigma_min/sigma_1 ~ 1e-11 < sqrt(n*eps),
        # so the rank rule gives rank 1 < n, and certify refuses the point
        # with that same rank in its diagnostics
        near_dup = PolynomialBasis([scalar_map([(1.0, 1)]),
                                    scalar_map([(1.0, 1), (1e-9, 2)])])
        handle = ObservationMapHandle(sys=near_dup, x0=np.array([0.5]), h=0.3, m=6,
                                      tol=1e-12)
        alpha = np.array([-0.5, 0.2])
        jac = phi_jacobian(handle, alpha)
        svals = singular_values(jac)
        assert numerical_rank(svals) == 1
        assert svals[-1] / svals[0] < math.sqrt(2 * np.finfo(float).eps)
        with pytest.raises(NotIdentifiableError, match="sigma_min/sigma_1") as err:
            certify_radius(handle, alpha, r_work=0.1, gamma_samples=10)
        assert err.value.diagnostics["rank"] == 1
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

    def test_sampled_gamma_scales_exactly_with_safety(self):
        # the same seed samples the same gamma; doubling the safety factor then
        # doubles gamma and halves r_cert exactly, unless r_work clips r_cert
        handle = scalar_exp_handle()
        cert1 = certify_radius(handle, [0.0], r_work=1.0, gamma_samples=10, safety=1.0,
                               seed=4)
        cert2 = certify_radius(handle, [0.0], r_work=1.0, gamma_samples=10, safety=2.0,
                               seed=4)
        assert cert2.gamma == 2.0 * cert1.gamma
        assert cert1.r_cert < cert1.r_work
        assert cert1.r_cert == 2.0 * cert2.r_cert
        assert cert1.gamma_samples == cert2.gamma_samples == 10

    def test_precondition_errors(self):
        handle = scalar_exp_handle()
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=-1.0)
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=0.1, gamma_samples=5)
        with pytest.raises(DomainError):
            certify_radius(handle, [0.0], r_work=0.1, safety=0.5)

    @pytest.mark.parametrize("name,value", [("safety", math.nan), ("safety", math.inf),
                                            ("r_work", math.nan), ("r_work", math.inf)])
    def test_non_finite_safety_or_r_work_is_refused(self, name, value):
        # a nan safety makes gamma nan, and min(r_work, nan) is r_work
        kwargs = {"r_work": 0.5, "gamma_samples": 12, name: value}
        with pytest.raises(DomainError, match=name):
            certify_radius(rotation_handle(), MatrixLinear.pack(ROTATION), **kwargs)

    # a float count passed the old `< 10` test and then failed in range()
    @pytest.mark.parametrize("value", [math.nan, 10.5, 12.0, DEFAULTS.certify_budget + 1])
    def test_gamma_samples_must_be_an_integer_within_budget(self, value):
        with pytest.raises(DomainError, match="gamma_samples"):
            certify_radius(rotation_handle(), MatrixLinear.pack(ROTATION), r_work=0.5,
                           gamma_samples=value)

    def test_jacobian_norm_beyond_float_range_is_a_range_error(self):
        # the exact map computes this Jacobian (entries ~1e160); beta squares it
        handle = rotation_handle(x0=(1e160, 0.7))
        with pytest.raises(RangeError):
            certify_radius(handle, MatrixLinear.pack(ROTATION), r_work=0.1)


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

    @pytest.mark.parametrize("value", [math.nan, 1.5, 2.0, DEFAULTS.certify_budget + 1])
    def test_pair_count_must_be_an_integer_within_budget(self, value):
        handle = rotation_handle()
        cert = certify_radius(handle, MatrixLinear.pack(ROTATION), r_work=0.1,
                              gamma_samples=10)
        with pytest.raises(DomainError, match="pair_count"):
            verify_lower_bound(handle, cert, pair_count=value, seed=0)
        # a numpy integer is a count
        assert verify_lower_bound(handle, cert, pair_count=np.int64(3), seed=0) \
            .pairs_tested == 3

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
        sys = PolynomialBasis([scalar_map([(1.0, 2)])])
        handle = ObservationMapHandle(sys=sys, x0=np.array([1.0]), h=1.0, m=2,
                                      tol=1e-10)
        result = zeta_scan(handle, [1.0], [(0.1, 3.0)], [(0.5, 2.0)], [4, 4],
                           rank_tol=1e-12)
        assert result.failed_count > 0
        assert len(result.cells) == 16

    @pytest.mark.parametrize("t_values,rank_tol,name", [
        ([1.0, 0.0], 1e-12, "t_values"),
        ([1.0, -1.0], 1e-12, "t_values"),
        ([1.0, math.nan], 1e-12, "t_values"),
        ([1.0, math.inf], 1e-12, "t_values"),
        ([1.0, 1e308], 1e-12, "t_values"),  # t*h finite, t*h*m not
        ([1.0], -1e-12, "rank_tol"),
        ([1.0], math.nan, "rank_tol"),
        ([1.0], math.inf, "rank_tol"),
    ])
    def test_inputs_are_checked_before_the_first_cell(self, monkeypatch, t_values,
                                                      rank_tol, name):
        def refuse(handle, alpha):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(odeident.obsmap, "phi_jacobian", refuse)
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                      h=1.0, m=2, tol=1e-8)
        with pytest.raises(DomainError, match=name):
            zeta_scan(handle, t_values, [(0.5, 1.5), (-1.5, -0.5)], [(0.1, 0.3)], 3,
                      rank_tol=rank_tol)

    @pytest.mark.parametrize("alpha_box,x_box,name", [
        ([(0.5, math.inf), (-1.5, -0.5)], [(0.1, 0.3)], "alpha_box"),
        ([(0.5, 1.5), (-math.inf, -0.5)], [(0.1, 0.3)], "alpha_box"),
        ([(0.5, 1.5), (-1.5, -0.5)], [(0.1, math.inf)], "x_box"),
        ([(0.5, 1.5), (-1.5, -0.5)], [(math.nan, 0.3)], "x_box"),
    ], ids=["alpha-hi-inf", "alpha-lo-minus-inf", "x-hi-inf", "x-lo-nan"])
    def test_box_bounds_must_be_finite(self, monkeypatch, alpha_box, x_box, name):
        def refuse(handle, alpha):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(odeident.obsmap, "phi_jacobian", refuse)
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                      h=1.0, m=2, tol=1e-8)
        with pytest.raises(DomainError, match=name):
            zeta_scan(handle, [1.0], alpha_box, x_box, 3)

    def test_zero_rank_tol_flags_only_zero_zeta(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2, tol=1e-10)
        result = zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(-0.5, 0.5)], [5, 5],
                           rank_tol=0.0)
        for cell in result.cells:
            assert cell.flagged == (cell.zeta == 0.0)

    def test_budget_guard(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2)
        with pytest.raises(DomainError):
            zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)], [1000, 1000])

    # 2.9 scanned 2 points per axis, a list entry 2.5 was truncated to 2, and
    # nan raised a ValueError
    @pytest.mark.parametrize("grid", [2.9, 3.0, math.nan, True, 1, [3, 2.5], [3, 1]])
    def test_grid_counts_must_be_integers(self, monkeypatch, grid):
        def refuse(handle, alpha):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(odeident.obsmap, "phi_jacobian", refuse)
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2)
        with pytest.raises(DomainError, match="grid"):
            zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)], grid)

    def test_numpy_integer_grid_counts(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                      h=1.0, m=2)
        result = zeta_scan(handle, [1.0], [(-1.0, 1.0)], [(0.5, 1.5)],
                           [np.int64(2), np.int64(3)])
        assert len(result.cells) == 6
