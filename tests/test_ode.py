import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROTATION,
    finite_difference_jacobian,
    logistic_system,
    rotation_system,
    scalar_decay_system,
    stable_matrix,
)
from odeident import (
    CallbackSystem,
    DimensionError,
    DivergenceError,
    DomainError,
    IntegrationError,
    MatrixLinear,
    ObservationMapHandle,
    ParamSystem,
    PolyMap,
    PolynomialBasis,
    integrate,
    integrate_with_sensitivity,
    mat_exp,
    phi,
    phi_jacobian,
)
from odeident.ode import read_trajectory_csv, write_trajectory_csv


def evaluate(sys, x, alpha):
    x, alpha = np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    return sys.f(x, alpha), sys.dfdx(x, alpha), sys.dfda(x, alpha)


class TestEvaluate:
    def test_matrix_linear_rotation(self):
        sys = rotation_system()
        f, dfdx, dfda = evaluate(sys, [1.0, 0.0], MatrixLinear.pack(ROTATION))
        assert np.allclose(f, [0.0, -1.0])
        assert np.array_equal(dfdx, ROTATION)
        # (dfda)[r, i*k+j] = delta_{ri} * x_j
        expected = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        assert np.array_equal(dfda, expected)

    def test_polynomial_basis_by_hand(self):
        sys = logistic_system()
        f, dfdx, dfda = evaluate(sys, [2.0], [1.0, -1.0])
        assert np.allclose(f, [-2.0])          # 2 - 4
        assert np.allclose(dfda, [[2.0, 4.0]])
        assert np.allclose(dfdx, [[1.0 - 2.0 * 2.0]])

    def test_zero_alpha_gives_zero_field(self):
        for sys, x in ((logistic_system(), [0.7]),
                       (rotation_system(), [1.0, -2.0])):
            f, _, _ = evaluate(sys, x, np.zeros(sys.param_dim))
            assert np.allclose(f, 0.0)

    def test_dimension_mismatch(self):
        # checked once at the integration entry points, not per RHS call
        with pytest.raises(DimensionError):
            integrate(rotation_system(), np.zeros(4), [1.0], t_end=1.0, samples=1)
        with pytest.raises(DimensionError):
            integrate(logistic_system(), [1.0], [1.0], t_end=1.0, samples=1)
        with pytest.raises(DimensionError):
            integrate_with_sensitivity(logistic_system(), [1.0, -1.0], [1.0, 2.0],
                                       t_end=1.0, samples=1)

    @pytest.mark.parametrize("f_func", [
        lambda x, a: np.array([a[0] * x[0]]),       # length 1: would broadcast
        lambda x, a: np.array([a[0], x[0], x[1]]),  # length 3
    ])
    def test_callback_output_shape_checked_at_x0(self, f_func):
        sys = CallbackSystem(2, 1, f_func)
        for run in (integrate, integrate_with_sensitivity):
            with pytest.raises(DimensionError, match="f has shape"):
                run(sys, [1.0], [1.0, 2.0], t_end=1.0, samples=2)

    def test_callback_partial_shapes_checked_at_x0(self):
        sys = CallbackSystem(1, 1, lambda x, a: a[0] * x,
                             dfdx_func=lambda x, a: np.eye(2),
                             dfda_func=lambda x, a: x[:, None])
        with pytest.raises(DimensionError, match="df/dx has shape"):
            integrate_with_sensitivity(sys, [1.0], [1.0], t_end=1.0, samples=2)

    def test_zero_basis_map_rejected(self):
        with pytest.raises(DomainError):
            PolynomialBasis([PolyMap.scalar([(0.0, 1)])])

    def test_symbolic_partials_match_finite_differences(self):
        # 2-D basis with mixed monomials exercises the jacobian code
        p1 = PolyMap(2, [[(1.0, (1, 2))], [(0.5, (2, 0)), (-1.0, (0, 1))]])
        p2 = PolyMap(2, [[(2.0, (0, 1))], [(1.0, (1, 1))]])
        sys = PolynomialBasis([p1, p2])
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=2)
            alpha = rng.uniform(-2.0, 2.0, size=2)
            dfdx = sys.dfdx(x, alpha)
            dfda = sys.dfda(x, alpha)
            fd_x = finite_difference_jacobian(lambda z: sys.f(z, alpha), x)
            fd_a = finite_difference_jacobian(lambda a: sys.f(x, a), alpha)
            assert np.abs(dfdx - fd_x).max() < 1e-7
            assert np.abs(dfda - fd_a).max() < 1e-7

    def test_callback_defaults_to_fd_and_flags(self):
        sys = CallbackSystem(1, 1, lambda x, a: np.array([a[0] * x[0] ** 2]))
        assert not sys.derivatives_exact
        x, alpha = np.array([1.5]), np.array([0.7])
        assert abs(sys.dfdx(x, alpha)[0, 0] - 2.0 * 0.7 * 1.5) < 1e-8
        assert abs(sys.dfda(x, alpha)[0, 0] - 1.5 ** 2) < 1e-8


# PolyMap's term-by-term loops, from before PolynomialBasis compiled its maps
# into one monomial table: the reference the compiled field is checked against.
def reference_value(poly, x):
    out = np.zeros(poly.state_dim)
    for r, comp in enumerate(poly.components):
        acc = 0.0
        for coeff, exps in comp:
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term *= x[i] ** e
            acc += term
        out[r] = acc
    return out


def reference_jacobian(poly, x):
    jac = np.zeros((poly.state_dim, poly.state_dim))
    for r, comp in enumerate(poly.components):
        for coeff, exps in comp:
            for s, e in enumerate(exps):
                if e == 0:
                    continue
                term = coeff * e
                for i, ei in enumerate(exps):
                    power = ei - 1 if i == s else ei
                    if power:
                        term *= x[i] ** power
                jac[r, s] += term
    return jac


class ReferenceBasis(ParamSystem):
    """a_1 P_1 + ... + a_n P_n by the reference loops and the generic factories."""

    def __init__(self, maps):
        self.maps = maps
        self.state_dim = maps[0].state_dim
        self.param_dim = len(maps)

    def f(self, x, alpha):
        return self.dfda(x, alpha) @ alpha

    def dfdx(self, x, alpha):
        out = np.zeros((self.state_dim, self.state_dim))
        for a_i, m in zip(alpha, self.maps):
            if a_i != 0.0:
                out += a_i * reference_jacobian(m, x)
        return out

    def dfda(self, x, alpha):
        return np.column_stack([reference_value(m, x) for m in self.maps])


def _moderate():
    """0, or a magnitude in [1/16, 2] of either sign: every product of a
    coefficient and up to five such values stays a normal float."""
    return st.one_of(st.just(0.0), st.builds(lambda v, neg: -v if neg else v,
                                             st.floats(0.0625, 2.0), st.booleans()))


@st.composite
def _basis_case(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    monomials = [e for e in itertools.product(range(4), repeat=k) if sum(e) <= 3]
    term = st.tuples(st.builds(lambda v, neg: -v if neg else v,
                               st.floats(0.125, 4.0), st.booleans()),
                     st.sampled_from(monomials))
    component = st.lists(term, max_size=3)
    maps = draw(st.lists(st.lists(component, min_size=k, max_size=k)
                         .filter(lambda comps: any(comps)),
                         min_size=n, max_size=n))
    x = np.array(draw(st.lists(_moderate(), min_size=k, max_size=k)))
    alpha = np.array(draw(st.lists(_moderate(), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(_moderate(), min_size=k * n, max_size=k * n)))
    return maps, x, alpha, z


def _within_summed_terms(got, ref, terms):
    # reordered products and sums: |got - ref| <= 8 eps (sum of |terms|), per entry
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * terms)


class TestCompiledPolynomialBasis:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_basis_case())
    def test_matches_the_reference_loops(self, case):
        comps, x, alpha, z = case
        k = x.shape[0]
        sys = PolynomialBasis([PolyMap(k, c) for c in comps])
        ref = ReferenceBasis([PolyMap(k, c) for c in comps])
        # the same sums with |coefficients| and |inputs|: the sum of |terms| per entry
        size = ReferenceBasis([PolyMap(k, [[(abs(c), e) for c, e in comp] for comp in cs])
                               for cs in comps])
        ax, aa = np.abs(x), np.abs(alpha)
        y, ay = np.concatenate([x, z]), np.concatenate([ax, np.abs(z)])
        for name in ("f", "dfdx", "dfda"):
            _within_summed_terms(getattr(sys, name)(x, alpha), getattr(ref, name)(x, alpha),
                                 getattr(size, name)(ax, aa))
        _within_summed_terms(sys.rhs(alpha)(0.0, x), ref.rhs(alpha)(0.0, x),
                             size.rhs(aa)(0.0, ax))
        _within_summed_terms(sys.sensitivity_rhs(alpha)(0.0, y),
                             ref.sensitivity_rhs(alpha)(0.0, y),
                             size.sensitivity_rhs(aa)(0.0, ay))

    def test_monomials_round_as_scalar_powers(self):
        # each monomial is one pow per coordinate, bit for bit x ** e on a float scalar
        xs = np.random.default_rng(5).uniform(-2.0, 2.0, 200)
        for e in (2, 3, 4, 5):
            sys = PolynomialBasis([PolyMap.scalar([(1.0, e)])])
            got = [sys.dfda(np.array([x]), np.ones(1))[0, 0] for x in xs]
            assert got == [x ** e for x in xs]

    def test_huge_exponent_evaluates_like_a_small_one(self):
        # u(x) = x^E with E an exponent array: no cost grows with the degree
        sys = PolynomialBasis([PolyMap.scalar([(1.0, 2 ** 62)]),
                               PolyMap.scalar([(1.0, 1)])])
        f, dfdx, dfda = evaluate(sys, [0.5], [1.0, -1.0])
        assert np.array_equal(dfda, [[0.0, 0.5]])
        assert np.array_equal(f, [-0.5]) and np.array_equal(dfdx, [[-1.0]])
        bundle = integrate_with_sensitivity(sys, [1.0, 0.0], [0.5], t_end=1.0, samples=2)
        assert np.array_equal(bundle.states, [[0.5], [0.5]])
        # Z' = (d/dx x^E) Z + [x^E, x] = [0, 0.5]
        assert np.allclose(bundle.sensitivities, [[[0.0, 0.25]], [[0.0, 0.5]]],
                           rtol=0.0, atol=1e-12)

    def test_evaluations_counted_through_the_parameter_system_factories(self,
                                                                        monkeypatch):
        # a wrapper around the two ParamSystem factories, as a tracer installs it,
        # sees every closure a PolynomialBasis integration evaluates
        counts = {"rhs": 0, "sensitivity_rhs": 0}
        for name in counts:
            def make(system, alpha, factory=vars(ParamSystem)[name], name=name):
                inner = factory(system, alpha)

                def counted(t, y):
                    counts[name] += 1
                    return inner(t, y)

                return counted

            monkeypatch.setattr(ParamSystem, name, make)
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]), h=0.2,
                                      m=3, tol=1e-8)
        jac = phi_jacobian(handle, [1.0, -1.0])
        assert counts["sensitivity_rhs"] > 0 and counts["rhs"] == 0
        phi(handle, [1.0, -1.0])
        assert counts["rhs"] > 0
        monkeypatch.undo()
        assert np.array_equal(phi_jacobian(handle, [1.0, -1.0]), jac)


class TestIntegrate:
    def test_scalar_decay_closed_form(self):
        traj = integrate(scalar_decay_system(), [-0.5], [1.0], t_end=5.0,
                         samples=5, tol=1e-12)
        assert np.array_equal(traj.times, np.arange(1.0, 6.0))
        assert np.abs(traj.states[:, 0] - np.exp(-0.5 * traj.times)).max() < 1e-10

    def test_zero_field_constant(self):
        sys = MatrixLinear(2)
        traj = integrate(sys, np.zeros(4), [0.3, -0.7], t_end=2.0, samples=4)
        assert np.allclose(traj.states, [0.3, -0.7], atol=0.0)

    def test_rotation_closed_form(self):
        traj = integrate(rotation_system(), MatrixLinear.pack(ROTATION),
                         [1.0, 0.0], t_end=5.0, samples=10, tol=1e-12)
        exact = np.column_stack([np.cos(traj.times), -np.sin(traj.times)])
        assert np.abs(traj.states - exact).max() < 1e-10

    def test_deterministic_bitwise(self):
        args = (logistic_system(), [1.0, -1.0], [0.1], 3.0, 7)
        a = integrate(*args, tol=1e-10)
        b = integrate(*args, tol=1e-10)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(17)
        for k in (2, 3):
            for _ in range(5):
                a = stable_matrix(rng, k, norm_cap=5.0)
                x0 = rng.uniform(-1.0, 1.0, size=k)
                traj = integrate(MatrixLinear(k), MatrixLinear.pack(a), x0,
                                 t_end=5.0, samples=5, tol=1e-10)
                for t, state in zip(traj.times, traj.states):
                    assert np.linalg.norm(state - mat_exp(a, t) @ x0) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_logistic_closed_form_after_rejected_steps(self, tol):
        # x' = a1 x + a2 x^2 has x(t) = a1 x0 e / (a1 - a2 x0 (e - 1)), e = e^{a1 t};
        # these draws reject steps, and a retry must restart from f at the current state
        def exact(a1, a2, x0, t):
            e = np.exp(a1 * t)
            return a1 * x0 * e / (a1 - a2 * x0 * (e - 1.0))

        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(40):
            a1, a2 = rng.uniform(0.5, 3.0), rng.uniform(-3.0, -0.5)
            x0 = rng.uniform(0.05, 2.0)
            traj = integrate(logistic_system(), [a1, a2], [x0], t_end=4.0,
                             samples=8, tol=tol)
            err = np.abs(traj.states[:, 0] - exact(a1, a2, x0, traj.times)).max()
            worst = max(worst, err)
        assert worst <= 25.0 * tol

    def test_blow_up_raises_with_time(self):
        # x' = x^2 from 1 blows up at t = 1
        sys = PolynomialBasis([PolyMap.scalar([(1.0, 2)])])
        with pytest.raises(IntegrationError) as err:
            integrate(sys, [1.0], [1.0], t_end=2.0, samples=2, tol=1e-10)
        assert 0.9 <= err.value.t_fail <= 1.1

    def test_non_finite_stage_retries_then_diverges_at_the_same_time(self):
        # f = a below x = 1.5 and inf beyond: x = 1 + t reaches 1.5 at t = 0.5,
        # where every retry of the step is non-finite until the step floor
        sys = CallbackSystem(1, 1, lambda x, a: a if x[0] < 1.5 else np.array([np.inf]),
                             dfdx_func=lambda x, a: np.zeros((1, 1)),
                             dfda_func=lambda x, a: np.ones((1, 1)))
        for run in (integrate, integrate_with_sensitivity):
            with pytest.raises(DivergenceError) as err:
                run(sys, [1.0], [1.0], t_end=2.0, samples=4)
            assert err.value.t_fail == 0.5

    def test_precondition_errors(self):
        sys = scalar_decay_system()
        with pytest.raises(DomainError):
            integrate(sys, [-0.5], [1.0], t_end=0.0, samples=1)
        with pytest.raises(DomainError):
            integrate(sys, [-0.5], [1.0], t_end=1.0, samples=0)
        with pytest.raises(DomainError):
            integrate(sys, [-0.5], [1.0], t_end=1.0, samples=1, tol=1e-2)
        for x0 in (np.nan, np.inf):
            with pytest.raises(DomainError):
                integrate(sys, [-0.5], [x0], t_end=1.0, samples=1)


class TestSensitivity:
    def test_initial_sensitivity_is_zero_limit(self):
        bundle = integrate_with_sensitivity(scalar_decay_system(), [-0.5], [1.0],
                                            t_end=1e-6, samples=1, tol=1e-12)
        assert np.abs(bundle.sensitivities).max() <= 1e-5

    def test_scalar_closed_form(self):
        # d/da e^{a t} x0 = t e^{a t} x0
        bundle = integrate_with_sensitivity(scalar_decay_system(), [-0.5], [1.0],
                                            t_end=2.0, samples=2, tol=1e-12)
        z = bundle.sensitivities[:, 0, 0]
        expected = bundle.times * np.exp(-0.5 * bundle.times)
        assert np.abs(z - expected).max() < 1e-8

    @pytest.mark.parametrize("sys,alpha,x0", [
        ("scalar", [-0.5], [1.0]),
        ("logistic", [1.0, -1.0], [0.5]),
        ("rotation", MatrixLinear.pack(ROTATION), [1.0, 0.7]),
    ])
    def test_matches_finite_differences(self, sys, alpha, x0):
        builders = {"scalar": scalar_decay_system, "logistic": logistic_system,
                    "rotation": rotation_system}
        system = builders[sys]()
        alpha = np.asarray(alpha, dtype=float)
        tol = 1e-10
        bundle = integrate_with_sensitivity(system, alpha, x0, t_end=2.0,
                                            samples=4, tol=tol)
        stacked = bundle.stacked_jacobian()

        def phi_like(a):
            return integrate(system, a, x0, t_end=2.0, samples=4,
                             tol=tol).states.ravel()

        fd = finite_difference_jacobian(phi_like, alpha, step=1e-5)
        rel = np.linalg.norm(stacked - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel <= max(1e-4, 100.0 * tol)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matrix_linear_rhs_is_bitwise_the_explicit_form(self, k):
        # x' = A x, Z' = A Z + kron(I, x): the generic factory, signed zeros included
        rng = np.random.default_rng(k)
        sys = MatrixLinear(k)
        amat = rng.standard_normal((k, k))
        amat[0, 0] = -0.0
        x = rng.standard_normal(k)
        x[0] = -0.0
        z = rng.standard_normal((k, k * k))
        z[:, 0] = 0.0
        got = sys.sensitivity_rhs(MatrixLinear.pack(amat))(0.0, np.concatenate([x, z.ravel()]))
        ref = np.concatenate([amat @ x, (amat @ z + np.kron(np.eye(k), x)).ravel()])
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_state_part_matches_plain_integration(self):
        # different step sequences, so agreement only to ~global error
        bundle = integrate_with_sensitivity(logistic_system(), [1.0, -1.0], [0.1],
                                            t_end=3.0, samples=6, tol=1e-10)
        traj = integrate(logistic_system(), [1.0, -1.0], [0.1], t_end=3.0,
                         samples=6, tol=1e-10)
        assert np.abs(bundle.states - traj.states).max() < 1e-7


class TestCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        traj = integrate(logistic_system(), [1.0, -1.0], [0.1], t_end=2.0,
                         samples=5, tol=1e-10)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj.times, traj.states)
        times, values = read_trajectory_csv(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(values, traj.states)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1"

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1.0,2.0\n2.0,oops\n")
        from odeident import InputFormatError

        with pytest.raises(InputFormatError) as err:
            read_trajectory_csv(path)
        assert err.value.line == 3

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2\n1.0,2.0\n")
        from odeident import InputFormatError

        with pytest.raises(InputFormatError) as err:
            read_trajectory_csv(path)
        assert err.value.line == 2
