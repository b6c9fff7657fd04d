"""Parameterized ODE systems, trajectory integration, and forward
parameter sensitivities.

The sensitivity matrix Z(t) = dX/dt-parameters obeys the variational system

    Z'(t) = df/dx(X, a) Z(t) + df/da(X, a),   Z(0) = 0,

which is integrated jointly with the state as one augmented system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS
from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    InputFormatError,
    IntegrationError,
    RangeError,
)
from .numkernel import EPS, mat_exp


# ---------------------------------------------------------------------------
# polynomial maps R^k -> R^k


class PolyMap:
    """Polynomial map R^k -> R^k given as monomial lists.

    ``components[r]`` is a list of ``(coeff, exponents)`` pairs for output
    coordinate r, with ``exponents`` a length-k tuple of non-negative ints.
    The map holds data only: ``PolynomialBasis`` compiles its maps into one
    monomial table and evaluates them from that.
    """

    def __init__(self, state_dim: int, components: Sequence[Sequence[tuple]]):
        if state_dim < 1:
            raise DimensionError("state_dim must be >= 1")
        if len(components) != state_dim:
            raise DimensionError(
                f"expected {state_dim} components, got {len(components)}"
            )
        self.state_dim = int(state_dim)
        comps = []
        for r, comp in enumerate(components):
            terms = []
            for coeff, exps in comp:
                exps = tuple(int(e) for e in exps)
                if len(exps) != state_dim or any(e < 0 for e in exps):
                    raise DimensionError(
                        f"component {r}: exponent multi-index {exps} invalid"
                    )
                if not math.isfinite(float(coeff)):
                    raise DomainError("monomial coefficient must be finite")
                if coeff != 0.0:
                    terms.append((float(coeff), exps))
            comps.append(tuple(terms))
        self.components = tuple(comps)

    @property
    def is_zero(self) -> bool:
        return all(len(c) == 0 for c in self.components)

    @staticmethod
    def scalar(monomials: Sequence[tuple[float, int]]) -> "PolyMap":
        """1-D convenience: [(coeff, power), ...]."""
        return PolyMap(1, [[(c, (p,)) for c, p in monomials]])


# ---------------------------------------------------------------------------
# parameterized systems


class ParamSystem:
    """Vector field f(x, a) with exact (or flagged-approximate) partials.

    ``f``, ``dfdx`` and ``dfda`` take float arrays of the right lengths and
    do not check them: the integration entry points validate the inputs and
    the output shapes once, at x0.
    """

    state_dim: int
    param_dim: int
    derivatives_exact: bool = True

    def f(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dfdx(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dfda(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # The two factories are the one place every species' right-hand sides are
    # built, so a wrapper around them sees every integration (perfbench/tracing.py
    # counts RHS evaluations that way); a species specializes the joint field
    # through the _sensitivity_rhs hook, not by overriding these.
    def rhs(self, alpha: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """The field x -> f(x, alpha) as an integrator closure (t, x) -> x'."""
        return lambda t, x: self.f(x, alpha)

    def sensitivity_rhs(self, alpha) -> Callable[[float, np.ndarray], np.ndarray]:
        """The joint field y = [x; vec Z] -> [f; vec(df/dx Z + df/da)]."""
        return self._sensitivity_rhs(alpha)

    def _sensitivity_rhs(self, alpha):
        k, n = self.state_dim, self.param_dim

        def rhs(t, y):
            x = y[:k]
            z = y[k:].reshape(k, n)
            dz = self.dfdx(x, alpha) @ z + self.dfda(x, alpha)
            return np.concatenate([self.f(x, alpha), dz.ravel()])

        return rhs

    def observe(self, alpha, x0, h: float, m: int, tol: float,
                jacobian: bool = False) -> np.ndarray:
        """The observation map at alpha: the stacked samples X(jh), j = 1..m,
        as one (m*k) vector, or with ``jacobian`` its (m*k) x n Jacobian.

        The default integrates with Dormand-Prince at ``tol``; a species with
        a closed form overrides it.
        """
        if jacobian:
            return integrate_with_sensitivity(self, alpha, x0, t_end=h * m, samples=m,
                                              tol=tol).stacked_jacobian()
        return integrate(self, alpha, x0, t_end=h * m, samples=m, tol=tol).states.ravel()


class PolynomialBasis(ParamSystem):
    """f(x, a) = a_1 P_1(x) + ... + a_n P_n(x) for polynomial maps P_i.

    The maps are compiled once, here, into the exponent array E (U x k) of
    the U distinct monomials that f and its first partials need, and two
    constant coefficient arrays over them: df/da = C_a u(x) and
    df/dx = (a . C_x) u(x), with u(x) = prod_i x_i^E[:, i]. Each evaluation
    computes u(x) once.
    """

    def __init__(self, maps: Sequence[PolyMap]):
        if len(maps) == 0:
            raise DimensionError("at least one basis map required")
        k = maps[0].state_dim
        for i, m in enumerate(maps):
            if m.state_dim != k:
                raise DimensionError(f"basis map {i} has state_dim {m.state_dim} != {k}")
            if m.is_zero:
                raise DomainError(f"basis map {i} is identically zero")
        self.maps = tuple(maps)
        self.state_dim = k
        self.param_dim = n = len(maps)

        slots: dict[tuple, int] = {}  # exponent tuple -> monomial index
        da_terms, dx_terms = [], []   # (coefficient entry, monomial index, value)
        for i, m in enumerate(self.maps):
            for r, comp in enumerate(m.components):
                for coeff, exps in comp:
                    da_terms.append(((r, i), slots.setdefault(exps, len(slots)), coeff))
                    for s, e in enumerate(exps):
                        if e:
                            lowered = exps[:s] + (e - 1,) + exps[s + 1:]
                            dx_terms.append(((r, s, i), slots.setdefault(lowered, len(slots)),
                                             coeff * e))
        # float exponents: u(x) costs one libm pow per entry, whatever the degree
        self._exponents = np.array(list(slots), dtype=float)
        self._dfda_coef = np.zeros((k, n, len(slots)))     # df/da = C_a @ u
        for (r, i), slot, c in da_terms:
            self._dfda_coef[r, i, slot] += c
        self._dfdx_coef = np.zeros((k, k, n, len(slots)))  # df/dx = (a @ C_x) @ u
        for (r, s, i), slot, c in dx_terms:
            self._dfdx_coef[r, s, i, slot] += c

    def _monomials(self, x: np.ndarray) -> np.ndarray:
        """u(x); reads x[:k] only, so x may be the joint state [x; vec Z]."""
        # float_power runs libm's pow, as x[i] ** e does on a float scalar; the
        # SIMD loop behind ** on arrays can differ from it in the last bit
        return np.multiply.reduce(np.float_power(x[:self.state_dim], self._exponents),
                                  axis=1)

    def f(self, x, alpha):
        return (alpha @ self._dfda_coef) @ self._monomials(x)

    def dfdx(self, x, alpha):
        return (alpha @ self._dfdx_coef) @ self._monomials(x)

    def dfda(self, x, alpha):
        return self._dfda_coef @ self._monomials(x)

    # alpha times a coefficient may overflow: the integrator's finiteness tests
    # reject the non-finite field that results, so the weights build silently
    @np.errstate(over="ignore", invalid="ignore")
    def _sensitivity_rhs(self, alpha):
        """[f; vec(J Z + P)] = W(alpha) (u(x) kron [1; vec Z]), W assembled once.

        Row r of f and row (r, j) of vec(P) hold their coefficients of monomial
        u in column (u, 0); row (r, j) of vec(J Z) holds J[r, s]'s coefficient
        of u in column (u, 1 + s*n + j), which multiplies u(x) Z[s, j].
        """
        k, n = self.state_dim, self.param_dim
        n_mono = self._exponents.shape[0]
        w = np.zeros((k + k * n, n_mono, 1 + k * n))
        w[:k, :, 0] = alpha @ self._dfda_coef
        w[k:, :, 0] = self._dfda_coef.reshape(k * n, n_mono)
        jac = (alpha @ self._dfdx_coef).transpose(0, 2, 1)  # [r, u, s]
        blocks = w[k:, :, 1:].reshape(k, n, n_mono, k, n)  # a view: [r, j, u, s, j']
        for j in range(n):
            blocks[:, j, :, :, j] = jac
        w = w.reshape(k + k * n, n_mono * (1 + k * n))
        monomials = self._monomials
        one_z = np.ones(1 + k * n)  # [1; vec Z], refilled per call

        def rhs(t, y):
            one_z[1:] = y[k:]
            return w @ (monomials(y)[:, None] * one_z).ravel()

        return rhs


# largest k whose Jacobian comes from the (k + k^3)-square block exponential;
# above it the Dormand-Prince sensitivity integration is cheaper
_EXACT_JACOBIAN_MAX_K = 4


class MatrixLinear(ParamSystem):
    """f(x, a) = A x with A the k x k matrix holding the parameters.

    The parameter vector is the matrix flattened row by row, so
    a[i*k + j] = A[i, j].
    """

    def __init__(self, state_dim: int):
        if state_dim < 1:
            raise DimensionError("state_dim must be >= 1")
        self.state_dim = int(state_dim)
        self.param_dim = self.state_dim ** 2

    @staticmethod
    def pack(matrix) -> np.ndarray:
        return np.asarray(matrix, dtype=float).reshape(-1)

    def f(self, x, alpha):
        return alpha.reshape(self.state_dim, self.state_dim) @ x

    def dfdx(self, x, alpha):
        return alpha.reshape(self.state_dim, self.state_dim)

    def dfda(self, x, alpha):
        # np.kron(I, x) bit for bit (signed zeros included), at a fraction of its cost
        k = self.state_dim
        return (np.eye(k)[:, :, None] * x).reshape(k, k * k)

    def observe(self, alpha, x0, h, m, tol, jacobian=False):
        """Exact: X(jh) = C^j x0 with C = exp(hA); ``tol`` is validated only.

        The Jacobian (k <= 4; Dormand-Prince above) steps the joint state and
        sensitivity system y = [x; vec Z], itself linear with the constant
        block-triangular generator [[A, 0], [L, kron(A, I_n)]], where L puts
        x_j into row i of Z's column i*k + j (Van Loan 1978).
        """
        k = self.state_dim
        if jacobian and k > _EXACT_JACOBIAN_MAX_K:
            return super().observe(alpha, x0, h, m, tol, jacobian=True)
        x0, alpha, _ = _check_integration_args(self, alpha, x0, h * m, m, tol)
        a = alpha.reshape(k, k)
        n = self.param_dim
        if jacobian:
            gen = np.zeros((k + k * n, k + k * n))
            gen[:k, :k] = a
            gen[k:, k:] = np.kron(a, np.eye(n))
            i, j = np.divmod(np.arange(n), k)
            gen[k + i * n + i * k + j, j] = 1.0
            y = np.concatenate([x0, np.zeros(k * n)])
        else:
            gen, y = a, x0
        out = np.empty((m, y.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                step = mat_exp(gen, h)
            except RangeError as exc:
                raise DivergenceError(f"exp(hA) left the float range: {exc}", h) from exc
            for sample in range(m):
                y = out[sample] = step @ y
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise DivergenceError("state diverged", h * (int(np.argmin(finite)) + 1))
        if jacobian:
            return out[:, k:].reshape(m * k, n)
        return out.ravel()

    # the generic factories, bound here by name because perfbench/tracing.py
    # wraps vars(MatrixLinear)["rhs"] and ["sensitivity_rhs"]
    rhs = ParamSystem.rhs
    sensitivity_rhs = ParamSystem.sensitivity_rhs


class CallbackSystem(ParamSystem):
    """User-supplied f(x, a); partials default to central finite differences.

    Finite-difference partials are flagged via ``derivatives_exact = False``
    so downstream rank reports can mark the Jacobian as approximate.
    """

    def __init__(self, state_dim: int, param_dim: int, f_func,
                 dfdx_func=None, dfda_func=None):
        self.state_dim = int(state_dim)
        self.param_dim = int(param_dim)
        self._f = f_func
        self._dfdx = dfdx_func
        self._dfda = dfda_func
        self.derivatives_exact = dfdx_func is not None and dfda_func is not None

    def f(self, x, alpha):
        return np.asarray(self._f(x, alpha), dtype=float).reshape(-1)

    def _fd(self, x, alpha, wrt_x: bool) -> np.ndarray:
        base = x if wrt_x else alpha
        cols = []
        for j in range(base.shape[0]):
            h = DEFAULTS.fd_step_scale * max(1.0, abs(base[j]))
            bumped_p = base.copy()
            bumped_m = base.copy()
            bumped_p[j] += h
            bumped_m[j] -= h
            if wrt_x:
                fp, fm = self.f(bumped_p, alpha), self.f(bumped_m, alpha)
            else:
                fp, fm = self.f(x, bumped_p), self.f(x, bumped_m)
            cols.append((fp - fm) / (2.0 * h))
        return np.column_stack(cols)

    def dfdx(self, x, alpha):
        if self._dfdx is not None:
            return np.asarray(self._dfdx(x, alpha), dtype=float)
        return self._fd(x, alpha, wrt_x=True)

    def dfda(self, x, alpha):
        if self._dfda is not None:
            return np.asarray(self._dfda(x, alpha), dtype=float)
        return self._fd(x, alpha, wrt_x=False)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray          # strictly increasing, shape (m,)
    states: np.ndarray         # finite, shape (m, k)


@dataclass(frozen=True)
class SensitivityBundle:
    times: np.ndarray          # shape (m,)
    states: np.ndarray         # shape (m, k)
    sensitivities: np.ndarray  # shape (m, k, n); Z(0) = 0 is the initial condition

    def stacked_jacobian(self) -> np.ndarray:
        """(m*k) x n matrix of Z(t_j) blocks, sample-major."""
        m, k, n = self.sensitivities.shape
        return self.sensitivities.reshape(m * k, n)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) core

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _initial_step(rhs, y0, f0, tol, t_span):
    sc = tol + tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    if not math.isfinite(d1):
        raise DivergenceError("derivative overflows at the initial state", 0.0)
    h0 = 1e-6 * t_span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_span)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if not math.isfinite(d2):
        return h0
    dmax = max(d1, d2)
    h1 = t_span * 1e-3 if dmax <= 1e-15 else (0.01 / dmax) ** 0.2
    return min(100.0 * h0, h1, t_span)


# a non-finite stage fails the step test and a non-finite initial derivative
# the checks on f0, so the overflow and nan arithmetic that leads there stays silent
@np.errstate(over="ignore", invalid="ignore")
def _integrate_grid(rhs, y0, times, tol, max_steps=DEFAULTS.integrator_max_steps):
    """Adaptive DP 5(4) from t=0 delivering exactly the grid `times`."""
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    t_final = float(times[-1])
    h_min = 16.0 * EPS * t_final
    out = np.empty((len(times), y.shape[0]))

    f_now = rhs(t, y)
    if not np.all(np.isfinite(f_now)):
        raise DivergenceError("derivative non-finite at initial state", t)
    h_nat = _initial_step(rhs, y, f_now, tol, t_final)

    steps = 0
    k = np.empty((7, y.shape[0]))
    for target_i, t_target in enumerate(times):
        while t < t_target - h_min:
            if steps >= max_steps:
                raise IntegrationError("step budget exhausted", t)
            h = min(h_nat, t_target - t)
            clamped = h < h_nat
            if h < h_min:
                raise IntegrationError("step size underflow", t)

            k[0] = f_now
            for stage in range(1, 7):
                k[stage] = rhs(t + _DP_C[stage] * h,
                               y + h * (_DP_A[stage] @ k[:stage]))
            y_new = y + h * (_DP_B5 @ k)
            err_vec = h * (_DP_ERR @ k)
            # every stage enters both sums (a zero weight gives 0*inf = nan),
            # so this one test sees any non-finite stage
            if not (np.isfinite(y_new).all() and np.isfinite(err_vec).all()):
                # retry smaller; if the step floor is hit the state is blowing up
                h_nat = h * 0.25
                if h_nat < h_min:
                    raise DivergenceError("state diverged", t)
                continue

            sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            err = math.sqrt(float(np.mean((err_vec / sc) ** 2)))
            steps += 1
            if err <= 1.0:
                t = t_target if (t_target - t - h) < h_min else t + h
                y = y_new
                f_now = k[6].copy()  # FSAL; k[6] is overwritten by the next attempt
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                if clamped:
                    h_nat = max(h_nat, h * factor)
                else:
                    h_nat = h * factor
            else:
                h_nat = h * max(0.2, 0.9 * err ** -0.2)
        out[target_i] = y
        t = t_target
    return out


# ---------------------------------------------------------------------------
# public integration entry points


def _check_grid(sys: ParamSystem, x0, t_end: float, samples: int,
                tol: float) -> np.ndarray:
    """Validate x0, the grid (t_end, samples) and tol; return x0 as a float vector."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.state_dim:
        raise DimensionError(
            f"state has dimension {x0.shape[0]}, expected {sys.state_dim}")
    if not np.all(np.isfinite(x0)):
        raise DomainError("x0 must be finite")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise DomainError("t_end must be positive and finite")
    if not 1 <= samples <= DEFAULTS.integrator_max_steps:
        # every sample costs at least one step, so more would exhaust the budget
        raise DomainError(f"samples must lie in [1, {DEFAULTS.integrator_max_steps}]")
    if not (DEFAULTS.integrator_min_tol <= tol <= DEFAULTS.integrator_max_tol):
        raise DomainError(f"tol must lie in [{DEFAULTS.integrator_min_tol}, "
                          f"{DEFAULTS.integrator_max_tol}]")
    return x0


def _check_integration_args(sys, alpha, x0, t_end, samples,
                            tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the inputs, and the shapes of f, df/dx and df/da at x0."""
    x0 = _check_grid(sys, x0, t_end, samples, tol)
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    k, n = sys.state_dim, sys.param_dim
    if alpha.shape[0] != n:
        raise DimensionError(
            f"parameter vector has dimension {alpha.shape[0]}, expected {n}")
    if not np.all(np.isfinite(alpha)):
        # an IntegrationError, as the state it would produce, so that callers
        # probing trial points (Gauss-Newton, zeta_scan) reject it alike
        raise DivergenceError("parameter vector is non-finite", 0.0)
    # only the shapes are checked here, so overflow in the values stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        values = (sys.f(x0, alpha), sys.dfdx(x0, alpha), sys.dfda(x0, alpha))
    for name, value, shape in zip(("f", "df/dx", "df/da"), values,
                                  ((k,), (k, k), (k, n))):
        if np.shape(value) != shape:
            raise DimensionError(
                f"{name} has shape {np.shape(value)} at x0, expected {shape}")
    h = t_end / samples
    times = h * np.arange(1, samples + 1)
    return x0, alpha, times


def integrate(sys: ParamSystem, alpha, x0, t_end: float, samples: int,
              tol: float = DEFAULTS.integrator_tol) -> Trajectory:
    """States on the uniform grid j*h, j = 1..samples, h = t_end/samples."""
    x0, alpha, times = _check_integration_args(sys, alpha, x0, t_end, samples, tol)
    states = _integrate_grid(sys.rhs(alpha), x0, times, tol)
    return Trajectory(times=times, states=states)


def integrate_with_sensitivity(sys: ParamSystem, alpha, x0, t_end: float,
                               samples: int,
                               tol: float = DEFAULTS.integrator_tol) -> SensitivityBundle:
    """Joint state + variational integration; Z(0) = 0."""
    x0, alpha, times = _check_integration_args(sys, alpha, x0, t_end, samples, tol)
    k, n = sys.state_dim, sys.param_dim
    y0 = np.concatenate([x0, np.zeros(k * n)])
    raw = _integrate_grid(sys.sensitivity_rhs(alpha), y0, times, tol)
    states = raw[:, :k]
    sens = raw[:, k:].reshape(len(times), k, n)
    return SensitivityBundle(times=times, states=states, sensitivities=sens)


# ---------------------------------------------------------------------------
# CSV export (one row per sample, 17 significant digits)


def trajectory_csv_lines(times: np.ndarray, values: np.ndarray) -> list[str]:
    k = values.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(k))
    lines = [header]
    for t, row in zip(times, values):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return lines


def write_trajectory_csv(path, times: np.ndarray, values: np.ndarray) -> None:
    Path(path).write_text("\n".join(trajectory_csv_lines(times, values)) + "\n")


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the trajectory CSV format; errors carry the offending row."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty trajectory file", 1)
    if not lines[0].startswith("t,"):
        raise InputFormatError("missing 't,x1,...' header", 1)
    k = len(lines[0].split(",")) - 1
    times, values = [], []
    for rowno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != k + 1:
            raise InputFormatError(
                f"expected {k + 1} columns, got {len(cells)}", rowno
            )
        try:
            nums = [float(c) for c in cells]
        except ValueError as exc:
            raise InputFormatError(f"bad number: {exc}", rowno) from exc
        times.append(nums[0])
        values.append(nums[1:])
    return np.array(times), np.array(values)
