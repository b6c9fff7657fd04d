import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import (
    ROTATION,
    finite_difference_jacobian,
    grid_handle,
    logistic_system,
    rotation_system,
    scalar_decay_system,
    scalar_map,
    stable_matrix,
)
from odeident import (
    DEFAULTS,
    DimensionError,
    DivergenceError,
    DomainError,
    IntegrationError,
    MatrixLinear,
    ObservationMapHandle,
    ParamSystem,
    PolynomialBasis,
    integrate,
    integrate_with_sensitivity,
    mat_exp,
    phi,
    phi_jacobian,
)
import odeident.ode


def evaluate(sys, x, alpha):
    x, alpha = np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    return sys.f(x, alpha), sys.dfdx(x, alpha), sys.dfda(x, alpha)


def logistic_exact(a1, a2, x0, t):
    # x' = a1 x + a2 x^2 has x(t) = a1 x0 e / (a1 - a2 x0 (e - 1)), e = e^{a1 t}
    e = np.exp(a1 * t)
    return a1 * x0 * e / (a1 - a2 * x0 * (e - 1.0))


def counting_factories(monkeypatch) -> dict:
    """Count the evaluations of every closure the two ParamSystem factories build."""
    counts = {"rhs": 0, "sensitivity_rhs": 0}
    for name in counts:
        def make(system, alpha, factory=vars(ParamSystem)[name], name=name):
            inner = factory(system, alpha)

            def counted(t, y):
                counts[name] += 1
                return inner(t, y)

            return counted

        monkeypatch.setattr(ParamSystem, name, make)
    return counts


class UserSpecies(ParamSystem):
    """A species added the documented way, by subclassing ParamSystem and
    supplying f, df/dx and df/da (here as plain functions)."""

    def __init__(self, state_dim, param_dim, f, dfdx, dfda):
        self.state_dim, self.param_dim = state_dim, param_dim
        self._f, self._dfdx, self._dfda = f, dfdx, dfda

    def f(self, x, alpha):
        return self._f(x, alpha)

    def dfdx(self, x, alpha):
        return self._dfdx(x, alpha)

    def dfda(self, x, alpha):
        return self._dfda(x, alpha)


class TestEvaluate:
    def test_matrix_linear_rotation(self):
        sys = rotation_system()
        f, dfdx, dfda = evaluate(sys, [1.0, 0.0], ROTATION.ravel())
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
        # x0 checked once by the handle, alpha once per run, neither per RHS call
        with pytest.raises(DimensionError):
            grid_handle(rotation_system(), [1.0], 1.0, 1)
        with pytest.raises(DimensionError):
            grid_handle(logistic_system(), [1.0, 2.0], 1.0, 1)
        for run in (integrate, integrate_with_sensitivity):
            with pytest.raises(DimensionError):
                run(grid_handle(logistic_system(), [1.0], 1.0, 1), [1.0])

    @pytest.mark.parametrize("f_func,dfda,match", [
        (lambda x, a: np.array([a[0] * x[0]]),       # length 1: would broadcast
         lambda x, a: np.zeros((2, 1)), "f has shape"),
        (lambda x, a: np.array([a[0], x[0], x[1]]),  # length 3
         lambda x, a: np.zeros((2, 1)), "f has shape"),
        (lambda x, a: a[0] * x, lambda x, a: np.zeros(2), "df/da has shape"),
    ])
    def test_callback_output_shape_checked_at_x0(self, f_func, dfda, match):
        sys = UserSpecies(2, 1, f_func, lambda x, a: np.zeros((2, 2)), dfda)
        # a system whose shapes fail is checked again on every integration
        for run in (integrate, integrate_with_sensitivity) * 2:
            with pytest.raises(DimensionError, match=match):
                run(grid_handle(sys, [1.0, 2.0], 1.0, 2), [1.0])

    def test_callback_partial_shapes_checked_at_x0(self):
        sys = UserSpecies(1, 1, lambda x, a: a[0] * x, lambda x, a: np.eye(2),
                          lambda x, a: x[:, None])
        with pytest.raises(DimensionError, match="df/dx has shape"):
            integrate_with_sensitivity(grid_handle(sys, [1.0], 1.0, 2), [1.0])

    def test_shapes_checked_once_per_system(self):
        # the plain field calls f only, so each df/dx call is the shape check's
        calls = []

        def dfdx(x, a):
            calls.append(x.copy())
            return a[None, :]

        sys = UserSpecies(1, 1, lambda x, a: a * x, dfdx, lambda x, a: x[None, :])
        counts = []
        for _ in range(2):
            calls.clear()
            integrate(grid_handle(sys, [1.0], 1.0, 2), [-0.5])
            counts.append(len(calls))
        assert counts == [1, 0]

    def test_zero_basis_map_rejected(self):
        with pytest.raises(DomainError):
            PolynomialBasis([scalar_map([(0.0, 1)])])

    # map 0 is valid wherever a case can follow it, so the error must name map 1
    @pytest.mark.parametrize("maps,error,match", [
        ([], DimensionError, "at least one"),
        ([[]], DimensionError, "at least one component"),
        ([scalar_map([(1.0, 1)]), [[(1.0, (1, 0))], [(1.0, (0, 1))]]],
         DimensionError, "basis map 1 has 2 components"),
        ([scalar_map([(1.0, 1)]), [[(1.0, (1, 0))]]], DimensionError, "basis map 1"),
        ([scalar_map([(1.0, 1)]), scalar_map([(1.0, -1)])], DimensionError, "basis map 1"),
        ([scalar_map([(1.0, 1)]), scalar_map([(math.nan, 1)])], DomainError, "basis map 1"),
        ([scalar_map([(1.0, 1)]), scalar_map([(-math.inf, 1)])], DomainError, "basis map 1"),
        ([scalar_map([(1.0, 1)]), [[]]], DomainError, "basis map 1 is identically zero"),
        # 2**53 + 1 would compile to the even 2**53, so (-1)^e would come out +1
        ([scalar_map([(1.0, 1)]), scalar_map([(1.0, 2 ** 53 + 1)])], DomainError,
         "basis map 1"),
        # a float holds 2**54, but not the odd 2**54 - 1 of its df/dx
        ([scalar_map([(1.0, 1)]), scalar_map([(1.0, 2 ** 54)])], DomainError,
         "basis map 1"),
        ([scalar_map([(1.0, 1)]), scalar_map([(1.0, 10 ** 400)])], DomainError,
         "basis map 1"),
    ])
    def test_malformed_basis_rejected_naming_the_map(self, maps, error, match):
        with pytest.raises(error, match=match):
            PolynomialBasis(maps)

    def test_symbolic_partials_match_finite_differences(self):
        # 2-D basis with mixed monomials exercises the jacobian code
        p1 = [[(1.0, (1, 2))], [(0.5, (2, 0)), (-1.0, (0, 1))]]
        p2 = [[(2.0, (0, 1))], [(1.0, (1, 1))]]
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


# Term-by-term loops over a map's component lists, from before PolynomialBasis
# compiled its maps into one monomial table: the reference the compiled field
# is checked against.
def reference_value(poly, x):
    out = np.zeros(len(poly))
    for r, comp in enumerate(poly):
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
    jac = np.zeros((len(poly), len(poly)))
    for r, comp in enumerate(poly):
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
        self.state_dim = len(maps[0])
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


# states at the edges of pow and of the products: signed zeros, negative
# bases, subnormals, bases whose powers overflow to inf, inf and nan
_EDGE_VALUES = (0.0, -0.0, -1.0, -2.5, 5e-324, -5e-324, -1e-310, 2.2e-308, 1e200,
                -1e200, 1e300, math.inf, -math.inf, math.nan)


@st.composite
def _monomial_rows_case(draw):
    """An exponent table E (U x k) with entries in 0..7 and one above 2**40,
    an (N, k) stack of states and N parameter vectors."""
    k, u = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    table = draw(st.lists(st.integers(0, 7), min_size=u * k, max_size=u * k))
    table[draw(st.integers(0, u * k - 1))] = draw(st.integers(2 ** 40 + 1, 2 ** 53))
    value = st.sampled_from(_EDGE_VALUES) | st.floats(-3.0, 3.0)
    states = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1,
                           max_size=6))
    alphas = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=u, max_size=u),
                           min_size=len(states), max_size=len(states)))
    return np.array(table, dtype=float).reshape(u, k), np.array(states), np.array(alphas)


def _bits(values):
    # the bytes with every nan made the one quiet nan: when two nan factors
    # meet, which one a product keeps depends on the loop numpy picks (a SIMD
    # loop over 8 or more entries, a scalar one below), not on the factor order
    return np.where(np.isnan(values), np.nan, values).tobytes()


class TestCompiledPolynomialBasis:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_basis_case())
    def test_matches_the_reference_loops(self, case):
        comps, x, alpha, z = case
        sys = PolynomialBasis(comps)
        ref = ReferenceBasis(comps)
        # the same sums with |coefficients| and |inputs|: the sum of |terms| per entry
        size = ReferenceBasis([[[(abs(c), e) for c, e in comp] for comp in cs]
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
            sys = PolynomialBasis([scalar_map([(1.0, e)])])
            got = [sys.dfda(np.array([x]), np.ones(1))[0, 0] for x in xs]
            assert got == [x ** e for x in xs]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_monomial_rows_case())
    def test_monomial_rule_is_the_reduced_power_table(self, case):
        # one pow per coordinate row, multiplied in multiply.reduce's order:
        # the bits of the (U, k) power table reduced over its k columns, up to
        # the sign and payload of a nan
        exponents, x, alphas = case
        u, k = exponents.shape
        rule = odeident.ode._monomial_rule(exponents.T.copy())
        # map i is E[i]'s monomial in component i mod k
        sys = PolynomialBasis([[[(1.0 + i, tuple(int(e) for e in exponents[i]))]
                                if r == i % k else [] for r in range(k)]
                               for i in range(u)])
        with np.errstate(all="ignore"):
            for row, alpha in zip(x, alphas):
                ref = np.multiply.reduce(np.float_power(row, exponents), axis=1)
                assert _bits(rule(row)) == _bits(ref)
                # the joint state [x; vec Z] is read at its first k entries only
                assert _bits(rule(np.append(row, 7.0))) == _bits(ref)
                assert sys.rhs(alpha)(0.0, row).tobytes() == sys.f(row, alpha).tobytes()
            # an (N, k) stack, as df/da passes it: its coordinates as columns
            ref = np.multiply.reduce(np.float_power(x[:, None, :], exponents), axis=-1)
            assert _bits(rule(np.moveaxis(x, -1, 0)[..., None])) == _bits(ref)

    def test_huge_exponent_evaluates_like_a_small_one(self):
        # u(x) = x^E with E an exponent array: no cost grows with the degree;
        # 2**53 is the largest exponent accepted
        sys = PolynomialBasis([scalar_map([(1.0, 2 ** 53)]),
                               scalar_map([(1.0, 1)])])
        f, dfdx, dfda = evaluate(sys, [0.5], [1.0, -1.0])
        assert np.array_equal(dfda, [[0.0, 0.5]])
        assert np.array_equal(f, [-0.5]) and np.array_equal(dfdx, [[-1.0]])
        bundle = integrate_with_sensitivity(grid_handle(sys, [0.5], 1.0, 2), [1.0, 0.0])
        assert np.array_equal(bundle.states, [[0.5], [0.5]])
        # Z' = (d/dx x^E) Z + [x^E, x] = [0, 0.5]
        assert np.allclose(bundle.jacobian.reshape(2, 1, 2), [[[0.0, 0.25]], [[0.0, 0.5]]],
                           rtol=0.0, atol=1e-12)

    def test_largest_exponent_keeps_the_sign_of_its_derivative(self):
        # d/dx x^(2**53) = 2**53 x^(2**53 - 1), an odd power: -2**53 at x = -1
        sys = PolynomialBasis([scalar_map([(1.0, 2 ** 53)])])
        f, dfdx, dfda = evaluate(sys, [-1.0], [1.0])
        assert np.array_equal(f, [1.0]) and np.array_equal(dfda, [[1.0]])
        assert np.array_equal(dfdx, [[-float(2 ** 53)]])

    def test_evaluations_counted_through_the_parameter_system_factories(self,
                                                                        monkeypatch):
        # a wrapper around the two ParamSystem factories, as a tracer installs it,
        # sees every closure a PolynomialBasis integration evaluates
        counts = counting_factories(monkeypatch)
        handle = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]), h=0.2,
                                      m=3, tol=1e-8)
        jac = phi_jacobian(handle, [1.0, -1.0])
        assert counts["sensitivity_rhs"] > 0 and counts["rhs"] == 0
        phi(handle, [1.0, -1.0])
        assert counts["rhs"] > 0
        monkeypatch.undo()
        assert np.array_equal(phi_jacobian(handle, [1.0, -1.0]), jac)


def _quartic_maps():
    # 15 monomials of degree <= 4 in two variables, each map using most of them
    rng = np.random.default_rng(15)
    exps = [e for e in itertools.product(range(5), repeat=2) if sum(e) <= 4]
    return [[[(float(rng.normal()), e) for e in exps if rng.random() < 0.8]
             for _ in range(2)] for _ in range(3)]


LOTKA_VOLTERRA = [[[(1.0, (1, 0))], []], [[(1.0, (1, 1))], []],
                  [[], [(1.0, (0, 1))]], [[], [(1.0, (1, 1))]]]


class TestStackedDfda:
    """df/da of the two linear-in-parameter species takes an (N, k) stack and
    returns each block bit for bit as the one-state form computes it."""

    @staticmethod
    def _states(k):
        x = np.random.default_rng(k).uniform(-2.0, 2.0, size=(40, k))
        x[::5] = -0.0
        x[1::7, 0] = 0.0
        return x

    # a plain 2-D gemm over the stack differs from the per-row products in the
    # last bit on the quartic basis
    @pytest.mark.parametrize("build", [logistic_system,
                                       lambda: PolynomialBasis(LOTKA_VOLTERRA),
                                       lambda: PolynomialBasis(_quartic_maps())],
                             ids=["logistic", "lotka-volterra", "quartic"])
    def test_polynomial_basis_stack_is_the_per_row_product(self, build):
        sys = build()
        x = self._states(sys.state_dim)
        got = sys.dfda(x, np.zeros(sys.param_dim))
        # the one-state form: C_a times the monomials every right-hand side uses
        ref = np.array([sys._dfda_coef @ sys._monomials(row) for row in x])
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matrix_linear_stack_is_kron_per_row(self, k):
        x = self._states(k)
        got = MatrixLinear(k).dfda(x, np.zeros(k * k))
        ref = np.array([np.kron(np.eye(k), row) for row in x])
        assert got.tobytes() == ref.tobytes()
        assert np.signbit(got).any()  # the signed zeros are compared too


class TestPlainField:
    """PolynomialBasis compiles the plain field with alpha @ C_a formed once:
    the same two products as f, so f's bits."""

    @pytest.mark.parametrize("build", [logistic_system,
                                       lambda: PolynomialBasis(LOTKA_VOLTERRA),
                                       lambda: PolynomialBasis(_quartic_maps())],
                             ids=["logistic", "lotka-volterra", "quartic"])
    def test_compiled_field_is_f(self, build):
        sys = build()
        k, n = sys.state_dim, sys.param_dim
        rng = np.random.default_rng(k + n)
        xs = rng.uniform(-2.0, 2.0, size=(20, k))
        xs[::4] = -0.0
        xs[1::3, 0] = 0.0
        alphas = rng.uniform(-3.0, 3.0, size=(5, n))
        alphas[0] = -0.0
        alphas[1, 0] = 0.0
        # products with the coefficients that overflow
        alphas[2] = 1.7e308
        alphas[3] = np.where(np.arange(n) % 2, -1.7e308, 1.7e308)
        values = []
        for alpha in alphas:
            field = sys.rhs(alpha)  # builds silently: RuntimeWarnings are errors here
            # evaluated as the integrator does, where a non-finite field is rejected
            with np.errstate(over="ignore", invalid="ignore"):
                for x in xs:
                    values.append(field(0.0, x))
                    assert values[-1].tobytes() == sys.f(x, alpha).tobytes()
        assert not np.isfinite(values).all()  # the overflow cases are exercised
        assert np.signbit(values).any()  # and the signed zeros

    def test_overflowing_coefficients_diverge_without_warning(self):
        sys = PolynomialBasis(_quartic_maps())
        with pytest.raises(DivergenceError):
            integrate(grid_handle(sys, [0.5, -0.5], 1.0, 2), np.full(3, 1.7e308))

    def test_generic_species_reaches_f(self):
        seen = []

        def f(x, a):
            seen.append(x.copy())
            return a * x

        sys = UserSpecies(1, 1, f, lambda x, a: a[None, :], lambda x, a: x[None, :])
        assert np.array_equal(sys.rhs(np.array([-2.0]))(0.0, np.array([3.0])), [-6.0])
        assert np.array_equal(seen, [[3.0]])


class TestDormandPrinceTableau:
    """ode._DP_T, the step over [y; k_0; ...; k_6], is the Dormand-Prince 5(4)
    tableau: rows 0-5 the stage inputs, row 6 the solution, row 7 the error."""

    @property
    def t(self):
        return odeident.ode._DP_T

    @property
    def c(self):
        return np.array(odeident.ode._DP_C)

    def test_shape_and_the_weight_of_y(self):
        assert self.t.shape == (8, 8)
        assert np.array_equal(self.t[:, 0], [1, 1, 1, 1, 1, 1, 1, 0])

    def test_stage_s_reads_only_the_stages_before_it(self):
        for s in range(1, 7):
            assert not self.t[s - 1, s + 1:].any()
            assert self.t[s - 1, s] != 0.0
        # FSAL: stage 6 is taken at the solution, whose k_6 weight is 0
        assert np.array_equal(self.t[5], self.t[6]) and self.t[6, 7] == 0.0

    def test_row_sums(self):
        assert np.allclose(self.t[:6, 1:].sum(axis=1), self.c[1:], rtol=0.0, atol=1e-14)
        assert abs(self.t[6, 1:].sum() - 1.0) <= 1e-14
        assert abs(self.t[7, 1:].sum()) <= 1e-14

    def test_order_conditions(self):
        b, e = self.t[6, 1:], self.t[7, 1:]
        for q in range(5):  # the 5th-order quadrature conditions
            assert abs(b @ self.c ** q - 1.0 / (q + 1)) <= 1e-14
        for q in range(4):  # the 4th-order solution b - e meets them to q = 3
            assert abs(e @ self.c ** q) <= 1e-14
        assert abs(e @ self.c ** 4) > 1e-6  # and the estimate is not identically zero
        for s in range(2, 7):  # stage order 2: sum_j a_sj c_j = c_s^2 / 2
            assert abs(self.t[s - 1, 1:] @ self.c - self.c[s] ** 2 / 2) <= 1e-14


class TestIntegrate:
    def test_scalar_decay_closed_form(self):
        handle = grid_handle(scalar_decay_system(), [1.0], 5.0, 5, 1e-12)
        traj = integrate(handle, [-0.5])
        assert np.array_equal(handle.times, np.arange(1.0, 6.0))
        assert np.abs(traj.states[:, 0] - np.exp(-0.5 * handle.times)).max() < 1e-10

    def test_zero_field_constant(self):
        sys = MatrixLinear(2)
        traj = integrate(grid_handle(sys, [0.3, -0.7], 2.0, 4), np.zeros(4))
        assert np.allclose(traj.states, [0.3, -0.7], atol=0.0)

    def test_rotation_closed_form(self):
        handle = grid_handle(rotation_system(), [1.0, 0.0], 5.0, 10, 1e-12)
        traj = integrate(handle, ROTATION.ravel())
        exact = np.column_stack([np.cos(handle.times), -np.sin(handle.times)])
        assert np.abs(traj.states - exact).max() < 1e-10

    def test_deterministic_bitwise(self):
        handle = grid_handle(logistic_system(), [0.1], 3.0, 7, 1e-10)
        a = integrate(handle, [1.0, -1.0])
        b = integrate(handle, [1.0, -1.0])
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.values, b.values)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(17)
        for k in (2, 3):
            for _ in range(5):
                a = stable_matrix(rng, k, norm_cap=5.0)
                x0 = rng.uniform(-1.0, 1.0, size=k)
                handle = grid_handle(MatrixLinear(k), x0, 5.0, 5, 1e-10)
                traj = integrate(handle, a.ravel())
                for t, state in zip(handle.times, traj.states):
                    assert np.linalg.norm(state - mat_exp(a, t) @ x0) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_logistic_closed_form_after_rejected_steps(self, tol):
        # these draws reject steps, and a retry must restart from f at the current state
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(40):
            a1, a2 = rng.uniform(0.5, 3.0), rng.uniform(-3.0, -0.5)
            x0 = rng.uniform(0.05, 2.0)
            handle = grid_handle(logistic_system(), [x0], 4.0, 8, tol)
            traj = integrate(handle, [a1, a2])
            exact = logistic_exact(a1, a2, x0, handle.times)
            err = np.abs(traj.states[:, 0] - exact).max()
            worst = max(worst, err)
        assert worst <= 25.0 * tol

    def test_blow_up_raises_with_time(self):
        # x' = x^2 from 1 blows up at t = 1
        sys = PolynomialBasis([scalar_map([(1.0, 2)])])
        with pytest.raises(IntegrationError) as err:
            integrate(grid_handle(sys, [1.0], 2.0, 2, 1e-10), [1.0])
        assert 0.9 <= err.value.t_fail <= 1.1

    def test_non_finite_stage_retries_then_diverges_at_the_same_time(self):
        # f = a below x = 1.5 and inf beyond: x = 1 + t reaches 1.5 at t = 0.5,
        # where every retry of the step is non-finite until the step floor
        sys = UserSpecies(1, 1, lambda x, a: a if x[0] < 1.5 else np.array([np.inf]),
                          lambda x, a: np.zeros((1, 1)), lambda x, a: np.ones((1, 1)))
        for run in (integrate, integrate_with_sensitivity):
            with pytest.raises(DivergenceError) as err:
                run(grid_handle(sys, [1.0], 2.0, 4), [1.0])
            assert err.value.t_fail == 0.5

    def test_precondition_errors(self):
        # the handle refuses them when it is built, before any run
        sys = scalar_decay_system()
        with pytest.raises(DomainError):
            ObservationMapHandle(sys=sys, x0=[1.0], h=0.0, m=1)
        with pytest.raises(DomainError):
            ObservationMapHandle(sys=sys, x0=[1.0], h=1.0, m=0)
        with pytest.raises(DomainError):
            ObservationMapHandle(sys=sys, x0=[1.0], h=1.0, m=1, tol=1e-2)
        for x0 in (np.nan, np.inf):
            with pytest.raises(DomainError):
                ObservationMapHandle(sys=sys, x0=[x0], h=1.0, m=1)


def _sha(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestSamples:
    """A step ends on the last sample within its natural size, and the samples
    before its end come from the step's continuous extension. Where no step
    reaches two samples, every sample is a step's end, as it always was."""

    # (system, alpha, x0, t_end, samples, tol): no natural step reaches two samples
    SPARSE = {
        "logistic": (logistic_system, [1.0, -1.0], [0.1], 4.0, 8, 1e-11),
        "lotka-volterra": (lambda: PolynomialBasis(LOTKA_VOLTERRA), [1.0, -0.5, -1.0, 0.5],
                           [1.3, 0.7], 4.0, 8, 1e-11),
        "scalar-decay": (scalar_decay_system, [-0.5], [1.0], 2.5, 5, 1e-10),  # the gate's
    }
    # sha256 of integrate's states, and of integrate_with_sensitivity's states
    # then sensitivities, every sample a step's end
    SPARSE_PINS = {
        "logistic": ("dfa3a60b6cdcc0fe9b609a59913da977bdca473db780a8859b5675fc3e71cb43",
                     "d3281dfbb70d2736c166c17a87180de539cc77f75f92edf965830be021cf6de7"),
        "lotka-volterra": ("9c05620ba6f3175e7a20b8e1279e27b4bd692a358832ec57cabb7dbb88b2f3b3",
                           "fbcb2efcf902fe670d2a729a17ea72f602609f813d922e31e833c8f2af406112"),
        "scalar-decay": ("6a83567dcdeedc3ea0314f77f120155d940367bcac1a0f5aef79bcd6e6bdee1b",
                         "8c9e1a7649557255f8a9cc610aa6a8bafe862be35c309e811c54202d6c4c0303"),
    }

    @pytest.mark.parametrize("case", sorted(SPARSE))
    def test_sparse_grids_keep_their_bits(self, case):
        build, alpha, x0, t_end, samples, tol = self.SPARSE[case]
        traj = integrate(grid_handle(build(), x0, t_end, samples, tol), alpha)
        bundle = integrate_with_sensitivity(grid_handle(build(), x0, t_end, samples, tol),
                                            alpha)
        assert (_sha(traj.states), _sha(bundle.states, bundle.jacobian)) \
            == self.SPARSE_PINS[case]

    # recover's dense grid, h 0.01 and m 200 at tol 1e-10: about 40 steps, so
    # most samples come from the continuous extension. sha256 of the logistic
    # joint run's states then sensitivities, and of the Lotka-Volterra plain
    # run's states
    def test_dense_grids_keep_their_bits(self):
        bundle = integrate_with_sensitivity(
            grid_handle(logistic_system(), [0.1], 2.0, 200, 1e-10), [1.0, -1.0])
        assert _sha(bundle.states, bundle.jacobian) \
            == "788254a30bc981668560af42d1df26b7699b764b050bd896a72e196c8152e1b5"
        traj = integrate(grid_handle(PolynomialBasis(LOTKA_VOLTERRA), [1.3, 0.7], 2.0, 200,
                                     1e-10), [1.0, -0.5, -1.0, 0.5])
        assert _sha(traj.states) \
            == "2baa597d550307f5011ca60e7792c6d1f5fa3d972a597499d63565780136ec23"

    # bound fixed before the test was first run: 25 tol in the integrator's
    # own error scale tol (1 + |x|), the sparse test's multiple above
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a1=st.floats(0.5, 3.0), a2=st.floats(-3.0, -0.5), x0=st.floats(0.05, 2.0),
           samples=st.integers(2, 400), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_dense_logistic_matches_the_closed_form(self, a1, a2, x0, samples, tol):
        handle = grid_handle(logistic_system(), [x0], 4.0, samples, tol)
        traj = integrate(handle, [a1, a2])
        exact = logistic_exact(a1, a2, x0, handle.times)
        assert np.all(np.abs(traj.states[:, 0] - exact) <= 25.0 * tol * (1.0 + np.abs(exact)))

    def test_dense_lotka_volterra_matches_dop853(self):
        # the joint system [x; vec Z] written out, integrated by scipy at rtol 1e-13
        alpha, x0, t_end, samples, tol = [1.0, -0.5, -1.0, 0.5], [1.3, 0.7], 4.0, 200, 1e-10
        a1, a2, a3, a4 = alpha

        def joint(t, y):
            x1, x2, z = y[0], y[1], y[2:].reshape(2, 4)
            jac = np.array([[a1 + a2 * x2, a2 * x1], [a4 * x2, a3 + a4 * x1]])
            dfda = np.array([[x1, x1 * x2, 0.0, 0.0], [0.0, 0.0, x2, x1 * x2]])
            return np.concatenate([[a1 * x1 + a2 * x1 * x2, a3 * x2 + a4 * x1 * x2],
                                   (jac @ z + dfda).ravel()])

        sys = PolynomialBasis(LOTKA_VOLTERRA)
        handle = grid_handle(sys, x0, t_end, samples, tol)
        bundle = integrate_with_sensitivity(handle, alpha)
        ref = solve_ivp(joint, (0.0, t_end), np.concatenate([x0, np.zeros(8)]),
                        method="DOP853", t_eval=handle.times, rtol=1e-13,
                        atol=1e-13).y.T
        got = np.concatenate([bundle.states, bundle.jacobian.reshape(samples, 8)], axis=1)
        # the same bound as the logistic test's, over every joint component
        assert np.all(np.abs(got - ref) <= 25.0 * tol * (1.0 + np.abs(ref)))
        states = integrate(handle, alpha).states
        assert np.all(np.abs(states - ref[:, :2]) <= 25.0 * tol * (1.0 + np.abs(ref[:, :2])))

    def test_dense_grid_costs_about_what_a_sparse_one_does(self, monkeypatch):
        counts = counting_factories(monkeypatch)
        cost = {}
        for samples in (4, 200):
            for run, name in ((integrate, "rhs"), (integrate_with_sensitivity,
                                                   "sensitivity_rhs")):
                before = counts[name]
                run(grid_handle(logistic_system(), [0.1], 2.0, samples, 1e-10), [1.0, -1.0])
                cost[name, samples] = counts[name] - before
        for name in ("rhs", "sensitivity_rhs"):
            assert cost[name, 200] <= 1.5 * cost[name, 4]

    def test_non_finite_extension_row_diverges_at_its_time(self, monkeypatch):
        # non-finite extension weights: every step stays finite, but each
        # sample inside a step is not; a step ending on every sample is unaffected
        sys, alpha = logistic_system(), [1.0, -1.0]
        sparse = integrate(grid_handle(sys, [0.1], 2.0, 2, 1e-8), alpha)
        monkeypatch.setattr(odeident.ode, "_DP_PT", np.full_like(odeident.ode._DP_PT, np.inf))
        assert np.array_equal(integrate(grid_handle(sys, [0.1], 2.0, 2, 1e-8), alpha).states,
                              sparse.states)
        for run in (integrate, integrate_with_sensitivity):
            with pytest.raises(DivergenceError, match="state diverged") as err:
                run(grid_handle(sys, [0.1], 2.0, 2000, 1e-8), alpha)
            # the first sample lies inside the first step
            assert err.value.t_fail == 0.001


def _exact_case(k, h, m):
    """The MatrixLinear(k) handle of a seeded A, signed zero included, and x0."""
    rng = np.random.default_rng(100 + k)
    amat = rng.normal(size=(k, k))
    amat[-1, 0] *= -0.0
    x0 = rng.normal(size=k)
    return ObservationMapHandle(sys=MatrixLinear(k), x0=x0, h=h, m=m), amat.ravel()


def _lane_squarings(handle, alpha):
    """The squaring count of each Jacobian lane's generator h [[A, 0], [E_p, A]]."""
    k = handle.sys.state_dim
    gens = np.zeros((k * k, 2 * k, 2 * k))
    gens[:, :k, :k] = gens[:, k:, k:] = alpha.reshape(k, k)
    p = np.arange(k * k)
    gens[p, k + p // k, p % k] = 1.0
    ratios = np.abs(handle.h * gens).sum(axis=1).max(axis=1) / DEFAULTS.mat_exp_scaled_norm
    return {0 if r <= 1.0 else math.ceil(math.log2(r)) for r in ratios.tolist()}


class TestExactMapBits:
    """The exact linear map's samples and Jacobian keep their bits: one
    ``mat_exp`` call, then rows stepped one by one (m <= 9) or by doubling
    blocks (m = 40). At h = 0.05 no lane is scaled; at h = 0.3 the k = 2
    Jacobian's lanes take one or two squarings, as the E_p column tips a
    column's norm over a power of two."""

    # (k, h, m) -> sha256 of phi, and of phi_jacobian
    PINS = {
        (1, 0.05, 9): ("cef245072b4e713384e2dda0ed443e4f5d4eba4b26026700c56558aebf065c88",
                       "d70e38f5f87bd98ba27f9d36e9a2f65be22c80ed0538a2305590e23fdba618d2"),
        (1, 0.3, 6): ("b2a40f02ec85c4f00807a9e71dd82212cc43f4be86fe15ac129ed39c78a2cdd5",
                      "0d2baa1281f05baae22cc29cff6090329878a824a66d26e7dacb42e20c74b28a"),
        (1, 0.3, 40): ("2b20489b2ad67ffca4eabe2db309bd413f566cbbdbf60b83478119f1ae056482",
                       "2c83e7602ede6f99eaab42445da895a44a5af976e3ecab2925443771df465b61"),
        (2, 0.05, 9): ("da03435d913096f1f3b7c636df668f19bc20059152e09d4371e6a8791590ae2c",
                       "f75a90e3e169a3ff26b4fc2c5a6ced31956bc190d037aaf7282ad6ce0e935576"),
        (2, 0.3, 6): ("277df0304bb46a6004d71ce09a4d8901384e4bc48bc7f39214e720e64a687c51",
                      "5fd68c44d0999db8304e6e1e906a6e8b43433f0f7eb27cf09f2aed9eaeeeac00"),
        (2, 0.3, 40): ("9fec595b81cd97cf7f96d4a17608bb6073992f3f7bd6fe0ffbbdb9af892e3a49",
                       "f78a795cb529c4e3b054ac8fffc4860b48ec264216294bbe2a58e4c6e927ea0a"),
        (3, 0.05, 9): ("1f236361ec0149edf958e7f2668715f8da0c275636880478ecb9de9f9392b0ea",
                       "6537199a9a62bf1c75fff9d880936b53326797787437b0b838a8a6d1be7fb54b"),
        (3, 0.3, 6): ("2f3f68b482e4e0e1c4da5194a9c7e89337555c3edc16d6925007fd9ebd82377f",
                      "24e69f64833b4a719b062080370f7d36b4ff293855f72064353f0ae4b65294b0"),
        (3, 0.3, 40): ("95abb3c1d40d783ecdbd5e659f4c3f0908a9f8dd3a4d044821c7f67259f317ba",
                       "47ac780114e3849143424e6becf604f0951de696cb42eafd83f98705ce930eb4"),
        (4, 0.05, 9): ("b5024de7994345ef079879033900259141b79042e281da28555791ba7a6b9790",
                       "78b9c77278e8c3093778e91d96188eded2cd58ce2524addd4231013a35461eed"),
        (4, 0.3, 6): ("111873835cb1af1c6425f04fb0e26bd9ef5939175e370d53559977fa770a4f55",
                      "fbedbe8f8f95c7e89abfc74d199609fe5516ef201b5ff9cdad6cf416cbd72261"),
        (4, 0.3, 40): ("10997cffac48b209e20b7211ebc1c33cbafba9437475841ae88f41df661f16db",
                       "f573824b548c1e9fb71046301da3da7fb05a013b18a8ec2882bb2fb867e4d44e"),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_phi_and_jacobian_keep_their_bits(self, case):
        handle, alpha = _exact_case(*case)
        assert (_sha(phi(handle, alpha)), _sha(phi_jacobian(handle, alpha))) \
            == self.PINS[case]

    def test_the_cases_cover_every_squaring_pattern(self):
        # no lane scaled, all lanes alike, and lanes apart
        assert _lane_squarings(*_exact_case(2, 0.05, 9)) == {0}
        assert _lane_squarings(*_exact_case(3, 0.3, 6)) == {2}
        assert _lane_squarings(*_exact_case(2, 0.3, 6)) == {1, 2}


class TestSensitivity:
    def test_initial_sensitivity_is_zero_limit(self):
        bundle = integrate_with_sensitivity(
            grid_handle(scalar_decay_system(), [1.0], 1e-6, 1, 1e-12), [-0.5])
        assert np.abs(bundle.jacobian).max() <= 1e-5

    def test_scalar_closed_form(self):
        # d/da e^{a t} x0 = t e^{a t} x0
        handle = grid_handle(scalar_decay_system(), [1.0], 2.0, 2, 1e-12)
        z = integrate_with_sensitivity(handle, [-0.5]).jacobian[:, 0]
        expected = handle.times * np.exp(-0.5 * handle.times)
        assert np.abs(z - expected).max() < 1e-8

    @pytest.mark.parametrize("sys,alpha,x0", [
        ("scalar", [-0.5], [1.0]),
        ("logistic", [1.0, -1.0], [0.5]),
        ("rotation", ROTATION.ravel(), [1.0, 0.7]),
    ])
    def test_matches_finite_differences(self, sys, alpha, x0):
        builders = {"scalar": scalar_decay_system, "logistic": logistic_system,
                    "rotation": rotation_system}
        system = builders[sys]()
        alpha = np.asarray(alpha, dtype=float)
        tol = 1e-10
        bundle = integrate_with_sensitivity(grid_handle(system, x0, 2.0, 4, tol), alpha)
        stacked = bundle.jacobian

        def phi_like(a):
            return integrate(grid_handle(system, x0, 2.0, 4, tol), a).states.ravel()

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
        got = sys.sensitivity_rhs(amat.ravel())(0.0, np.concatenate([x, z.ravel()]))
        ref = np.concatenate([amat @ x, (amat @ z + np.kron(np.eye(k), x)).ravel()])
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_state_part_matches_plain_integration(self):
        # different step sequences, so agreement only to ~global error
        handle = grid_handle(logistic_system(), [0.1], 3.0, 6, 1e-10)
        bundle = integrate_with_sensitivity(handle, [1.0, -1.0])
        traj = integrate(handle, [1.0, -1.0])
        assert np.abs(bundle.states - traj.states).max() < 1e-7

