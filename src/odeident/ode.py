"""Parameterized ODE systems, trajectory integration, and forward
parameter sensitivities.

The sensitivity matrix Z(t) = dX/dt-parameters obeys the variational system

    Z'(t) = df/dx(X, a) Z(t) + df/da(X, a),   Z(0) = 0,

which is integrated jointly with the state as one augmented system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS
from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    IntegrationError,
    RangeError,
)
from .numkernel import EPS, mat_exp


# ---------------------------------------------------------------------------
# parameterized systems


class ParamSystem:
    """Vector field f(x, a) with exact partials.

    A species subclasses this, sets ``state_dim`` and ``param_dim``, and
    supplies ``f``, ``dfdx`` and ``dfda``: it then gets the integrating
    ``_observe`` for free. They take float arrays of the right lengths and
    do not check them: a handle checks x0, the grid and tol when it is
    built, and each run alpha, and the output shapes at x0 until they have
    passed once for the system.
    """

    state_dim: int
    param_dim: int
    _shapes_checked = False  # set on the instance once f, dfdx and dfda pass

    def f(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dfdx(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dfda(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """df/da (k x n) at x. The two linear-in-parameter species also take an
        (N, k) stack of states and return the (N, k, n) stack, each block bit
        for bit the one of its row."""
        raise NotImplementedError

    # The two factories are the one place every species' right-hand sides are
    # built, so a wrapper around them sees every integration (perfbench/tracing.py
    # counts RHS evaluations that way); a species specializes the plain and the
    # joint field through the _rhs and _sensitivity_rhs hooks, not by overriding
    # these.
    def rhs(self, alpha: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """The field x -> f(x, alpha) as an integrator closure (t, x) -> x'."""
        return self._rhs(alpha)

    def sensitivity_rhs(self, alpha) -> Callable[[float, np.ndarray], np.ndarray]:
        """The joint field y = [x; vec Z] -> [f; vec(df/dx Z + df/da)]."""
        return self._sensitivity_rhs(alpha)

    def _rhs(self, alpha):
        return lambda t, x: self.f(x, alpha)

    def _sensitivity_rhs(self, alpha):
        k, n = self.state_dim, self.param_dim

        def rhs(t, y):
            x = y[:k]
            z = y[k:].reshape(k, n)
            dz = self.dfdx(x, alpha) @ z + self.dfda(x, alpha)
            return np.concatenate([self.f(x, alpha), dz.ravel()])

        return rhs

    def _observe(self, handle, alpha, jacobian: bool) -> Observation:
        """Dormand-Prince at the handle's ``tol``; a closed form overrides this."""
        return (integrate_with_sensitivity if jacobian else integrate)(handle, alpha)


def _monomial_rule(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """u(x) = prod_i x_i ** E_i over the exponent rows E_0..E_{k-1}, one per
    coordinate, as a closure over z with z[i] = x_i: one pow per row, multiplied
    in ``np.multiply.reduce(x[:k] ** E, axis=1)``'s order, so its bits (but for
    which nan a product of two nans keeps). A state, or the joint state
    [x; vec Z], is its own z and gives u of shape (U,); an (N, k) stack passes
    its coordinates as (N, 1) columns and gives (N, U)."""
    # float_power runs libm's pow, as x[i] ** e does on a float scalar; the
    # SIMD loop behind ** on arrays can differ from it in the last bit
    pow_ = np.float_power
    first, rest = rows[0], tuple(enumerate(rows[1:], start=1))

    def monomials(z):
        u = pow_(z[0], first)
        for i, row in rest:
            u *= pow_(z[i], row)
        return u

    return monomials


class PolynomialBasis(ParamSystem):
    """f(x, a) = a_1 P_1(x) + ... + a_n P_n(x) for polynomial maps P_i: R^k -> R^k.

    Each map is its k component lists: component r lists the ``(coeff,
    exponents)`` pairs of output coordinate r, with ``exponents`` a length-k
    tuple of ints in [0, 2**53], so that a float holds each exponent e and the
    e - 1 of df/dx exactly. k is read from the first map. One pass validates
    the maps, naming the offending map, and compiles the U distinct monomials
    that f and its first partials need into k exponent rows, one per
    coordinate (see ``_monomial_rule``), and two constant coefficient arrays
    over them: df/da = C_a u(x) and df/dx = (a . C_x) u(x). Each evaluation
    computes u(x) once, with one pow per coordinate row.
    """

    def __init__(self, maps: Sequence[Sequence[Sequence[tuple]]]):
        if len(maps) == 0 or len(maps[0]) == 0:
            raise DimensionError("at least one basis map of at least one component required")
        self.state_dim = k = len(maps[0])
        self.param_dim = n = len(maps)

        slots: dict[tuple, int] = {}  # exponent tuple -> monomial index
        da_terms, dx_terms = [], []   # (coefficient entry, monomial index, value)
        for i, components in enumerate(maps):
            if len(components) != k:
                raise DimensionError(
                    f"basis map {i} has {len(components)} components, expected {k}")
            terms_before = len(da_terms)
            for r, comp in enumerate(components):
                where = f"basis map {i}, component {r}"
                for coeff, exps in comp:
                    exps = tuple(int(e) for e in exps)
                    if len(exps) != k or any(e < 0 for e in exps):
                        raise DimensionError(f"{where}: exponent multi-index {exps} invalid")
                    # e and the e - 1 of df/dx are both exact floats only up to 2**53
                    if any(e > 2 ** 53 for e in exps):
                        raise DomainError(f"{where}: exponent multi-index {exps} "
                                          "has an entry above 2**53")
                    coeff = float(coeff)
                    if not math.isfinite(coeff):
                        raise DomainError(f"{where}: monomial coefficient must be finite")
                    if coeff == 0.0:
                        continue
                    da_terms.append(((r, i), slots.setdefault(exps, len(slots)), coeff))
                    for s, e in enumerate(exps):
                        if e:
                            lowered = exps[:s] + (e - 1,) + exps[s + 1:]
                            dx_terms.append(((r, s, i), slots.setdefault(lowered, len(slots)),
                                             coeff * e))
            if len(da_terms) == terms_before:
                raise DomainError(f"basis map {i} is identically zero")
        # float exponents: u(x) costs one libm pow per entry, whatever the degree
        self._monomials = _monomial_rule(np.array(list(slots), dtype=float).T.copy())
        self._dfda_coef = np.zeros((k, n, len(slots)))     # df/da = C_a @ u
        for (r, i), slot, c in da_terms:
            self._dfda_coef[r, i, slot] += c
        self._dfdx_coef = np.zeros((k, k, n, len(slots)))  # df/dx = (a @ C_x) @ u
        for (r, s, i), slot, c in dx_terms:
            self._dfdx_coef[r, s, i, slot] += c

    def f(self, x, alpha):
        return (alpha @ self._dfda_coef) @ self._monomials(x)

    def dfdx(self, x, alpha):
        return (alpha @ self._dfdx_coef) @ self._monomials(x)

    def dfda(self, x, alpha):
        # a state or a stack, its coordinates as columns; the batched product
        # has the per-row bits, which a 2-D gemm over the stack does not
        u = self._monomials(np.moveaxis(x, -1, 0)[..., None])
        return (self._dfda_coef @ u[..., None, :, None])[..., 0]

    # alpha times a coefficient may overflow: the integrator's finiteness tests
    # reject the non-finite field that results, so both fields build silently
    @np.errstate(over="ignore", invalid="ignore")
    def _rhs(self, alpha):
        """f with alpha @ C_a formed once: the same two products, so f's bits
        (np.dot runs the gemv that @ does, with less call overhead)."""
        coef = alpha @ self._dfda_coef
        monomials, dot = self._monomials, np.dot
        return lambda t, x: dot(coef, monomials(x))

    @np.errstate(over="ignore", invalid="ignore")
    def _sensitivity_rhs(self, alpha):
        """[f; vec(J Z + P)] = W(alpha) (u(x) kron [1; vec Z]), W assembled once.

        Row r of f and row (r, j) of vec(P) hold their coefficients of monomial
        u in column (u, 0); row (r, j) of vec(J Z) holds J[r, s]'s coefficient
        of u in column (u, 1 + s*n + j), which multiplies u(x) Z[s, j].
        """
        k, n = self.state_dim, self.param_dim
        n_mono = self._dfda_coef.shape[-1]
        w = np.zeros((k + k * n, n_mono, 1 + k * n))
        w[:k, :, 0] = alpha @ self._dfda_coef
        w[k:, :, 0] = self._dfda_coef.reshape(k * n, n_mono)
        jac = (alpha @ self._dfdx_coef).transpose(0, 2, 1)  # [r, u, s]
        blocks = w[k:, :, 1:].reshape(k, n, n_mono, k, n)  # a view: [r, j, u, s, j']
        for j in range(n):
            blocks[:, j, :, :, j] = jac
        w = w.reshape(k + k * n, n_mono * (1 + k * n))
        monomials, outer, dot = self._monomials, np.multiply.outer, np.dot
        one_z = np.ones(1 + k * n)  # [1; vec Z], refilled per call
        buf = np.empty((n_mono, 1 + k * n))
        flat = buf.reshape(-1)  # a view of buf

        def rhs(t, y):
            one_z[1:] = y[k:]
            outer(monomials(y), one_z, out=buf)
            return dot(w, flat)

        return rhs


# A square and its finiteness test cost about three of phi's block products
# (1.7 us against 0.6 us at k = 2..8) and one or two of the Jacobian's lane
# products (1.9-2.7 us against 1.4-2.9 us at k = 2..4), so one is formed only
# while more than this many blocks are left: a short map, m <= 9, steps row
# by row. The bound is set for phi, which keeps its bits under it.
_BLOCKS_PER_SQUARE = 8


def _fill_by_doubling(out: np.ndarray, step: np.ndarray) -> None:
    """Fill row j of ``out`` with S^j times row 0, S = ``step``: rows (rows, d)
    with a matrix (d, d), or a lane stack (rows, L, d) with L matrices (L, d, d),
    lane l of each row times matrix l.

    Rows [p, 2p) are rows [0, p) times (S^p)^T, so a long map takes about
    log2(m) block products, not m matrix-vector steps.
    S^2p = S^p S^p replaces S^p only while all of it is finite: after the
    first non-finite square the rest goes in blocks of the last finite power,
    so no inf * 0 inside a power that the row-by-row products never form
    makes a state non-finite. The caller silences overflow and invalid
    arithmetic and tests the rows.
    """
    rows = out.shape[0]
    lanes = out.ndim == 3
    done, p, growing = 1, 1, True
    step_t = step.swapaxes(-1, -2)
    while done < rows:
        if growing and done >= 2 * p and rows - done > _BLOCKS_PER_SQUARE * p:
            squared = step @ step
            growing = np.isfinite(squared).all()
            if growing:
                step, step_t, p = squared, squared.swapaxes(-1, -2), 2 * p
        b = p if p < rows - done else rows - done
        if lanes:  # one (b, d) x (d, d) product per lane
            np.matmul(out[done - p:done - p + b].transpose(1, 0, 2), step_t,
                      out=out[done:done + b].transpose(1, 0, 2))
        else:
            np.dot(out[done - p:done - p + b], step_t, out=out[done:done + b])
        done += b


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
        # np.kron(I, x) bit for bit (signed zeros included), for each state of a stack
        k = self.state_dim
        blocks = np.eye(k)[:, :, None] * x[..., None, None, :]
        return blocks.reshape(*x.shape[:-1], k, k * k)

    def _observe(self, handle, alpha, jacobian):
        """Exact: X(jh) = C^j x0 with C = exp(hA); the handle's ``tol`` is unused.

        The Jacobian is the same map in k^2 lanes (Van Loan 1978): lane
        p = i*k + j steps [x0; 0] by exp(h [[A, 0], [E_p, A]]), E_p = E_ij,
        and its lower half is dX/dA_p, column p. One ``mat_exp`` call makes
        the step S, and ``_fill_by_doubling`` takes it over the samples:
        blocks of rows times squared powers of S.
        """
        k, x0, h, m = self.state_dim, handle.x0, handle.h, handle.m
        # f, dfdx and dfda are not called here, so their shapes need no check
        a = _check_alpha(self, alpha).reshape(k, k)
        n = self.param_dim
        if jacobian:
            gens = self._lane_generators.copy()
            gens[:, :k, :k] = gens[:, k:, k:] = a
            out = np.zeros((m + 1, n, 2 * k))  # row j, lane p: [X(jh); dX(jh)/dA_p]
            out[0, :, :k] = x0
        else:
            gens = a
            out = np.zeros((m + 1, k))
            out[0] = x0
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                step = mat_exp(gens, h)
            except RangeError as exc:
                raise DivergenceError(f"exp(hA) left the float range: {exc}", h) from exc
            _fill_by_doubling(out, step)
        if not np.isfinite(out).all():  # row 0 is finite: the first bad row is j >= 1
            finite = np.isfinite(out.reshape(m + 1, -1)).all(axis=1)
            raise DivergenceError("state diverged", h * int(np.argmin(finite)))
        if jacobian:  # the states are lane 0's upper half
            return Observation(out[1:, 0, :k],
                               out[1:, :, k:].transpose(0, 2, 1).reshape(m * k, n))
        return Observation(out[1:])

    @cached_property
    def _lane_generators(self) -> np.ndarray:
        """The Jacobian's k^2 lane generators with A = 0: E_p = E_ij in lane
        p = i*k + j's lower-left block, built once per system; read-only, so
        each run fills A into a copy."""
        k, n = self.state_dim, self.param_dim
        gens = np.zeros((n, 2 * k, 2 * k))
        p = np.arange(n)
        gens[p, k + p // k, p % k] = 1.0
        gens.flags.writeable = False
        return gens

    # the generic factories, bound here by name because perfbench/tracing.py
    # wraps vars(MatrixLinear)["rhs"] and ["sensitivity_rhs"]
    rhs = ParamSystem.rhs
    sensitivity_rhs = ParamSystem.sensitivity_rhs


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Observation:
    """One run of the observation map: the samples X(jh), j = 1..m, and from a
    Jacobian run the sample-major (m*k) x n Jacobian. The times are the grid's."""

    states: np.ndarray                # shape (m, k)
    jacobian: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """The stacked samples (X(h), ..., X(mh)) as one (m*k) vector."""
        return self.states.ravel()


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) core

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def _dp_tableau() -> np.ndarray:
    """The step as one (8, 8) matrix over [y; k_0; ...; k_6]: rows 0-5 are the
    inputs of stages 1-6, row 6 the 5th-order solution and row 7 the error
    estimate. Column 0 is y's weight; the integrator scales the rest by h."""
    b5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
    b4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
    a = [[1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
         [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
         [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
         b5, b5]  # stage 6 is taken at the solution, whose k_6 is the next k_0
    t = np.zeros((8, 8))
    t[:7, 0] = 1.0
    for s, row in enumerate(a):
        t[s, 1:len(row) + 1] = row
    t[7, 1:] = np.subtract(b5, b4)
    return t


_DP_T = _dp_tableau()


def _rms(v: np.ndarray) -> float:
    """sqrt(np.mean(v ** 2)) with np.mean's own sum and divide, so its bits."""
    return math.sqrt(float(np.add.reduce(v ** 2)) / v.shape[0])


def _initial_step(rhs, y0, f0, tol, t_span):
    sc = tol + tol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    if not math.isfinite(d1):
        raise DivergenceError("derivative overflows at the initial state", 0.0)
    h0 = 1e-6 * t_span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_span)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if not math.isfinite(d2):
        return h0
    dmax = max(d1, d2)
    h1 = t_span * 1e-3 if dmax <= 1e-15 else (0.01 / dmax) ** 0.2
    return min(100.0 * h0, h1, t_span)


# Shampine's quartic continuous extension of the step (Math. Comp. 46, 1986;
# Hairer-Norsett-Wanner I, II.6): y(t + theta h) = y + h [theta, theta^2,
# theta^3, theta^4] @ (P^T K), K = [k_0; ...; k_6] the step's stages, k_6 = f at
# its end. P is (7, 4); stored transposed.
_DP_PT = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [-8048581381 / 2820520608, 0.0, 131558114200 / 32700410799,
     -1754552775 / 470086768, 127303824393 / 49829197408,
     -282668133 / 205662961, 40617522 / 29380423],
    [8663915743 / 2820520608, 0.0, -68118460800 / 10900136933,
     14199869525 / 1410260304, -318862633887 / 49829197408,
     2019193451 / 616988883, -110615467 / 29380423],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
])
_THETA_POWERS = np.arange(1.0, 5.0)


# a non-finite stage fails the step test and a non-finite initial derivative
# the checks on f0, so the overflow and nan arithmetic that leads there stays silent
@np.errstate(over="ignore", invalid="ignore")
def _integrate_grid(rhs, y0, times, tol):
    """Adaptive DP 5(4) from t=0 delivering the samples ``times``. A step ends
    on the last sample within the natural step h_nat (on the next sample when
    none is that close), and the samples strictly before its end come from its
    continuous extension; the step's endpoint is its own 5th-order solution.
    So where no step could reach two samples, every sample is a step's end.

    The stages live in one buffer ys = [y; k_0; ...; k_6]; stage s is row s - 1
    of ``_DP_T`` (k columns times h) over ys[:s + 1], and [y_new; err] is rows
    6-7 over ys."""
    ys = np.empty((8, len(y0)))
    ys[0] = y0
    t = 0.0
    # Python floats: t and h are scalars, and numpy scalar arithmetic is slower
    grid = times.tolist()
    n_samples = len(grid)
    t_final = grid[-1]
    h_min = 16.0 * EPS * t_final
    out = np.empty((n_samples, ys.shape[1]))

    ys[1] = rhs(t, ys[0])
    if not np.all(np.isfinite(ys[1])):
        raise DivergenceError("derivative non-finite at initial state", t)
    h_nat = _initial_step(rhs, ys[0], ys[1], tol, t_final)

    coef = _DP_T.copy()
    weights, scaled = _DP_T[:, 1:], coef[:, 1:]
    # stage s reads ys rows 0..s only, so a stale row from a failed attempt never enters
    stages = [(_DP_C[s], coef[s - 1, :s + 1], ys[:s + 1], ys[s + 1]) for s in range(1, 7)]
    sol_err = coef[6:]
    d = ys.shape[1]
    new = np.empty((2, d))  # [y_new; err_vec], rewritten by each attempt
    y_new, err_vec = new  # views
    flat_new, zeros = new.reshape(-1), np.zeros(2 * d)
    abs_y, abs_new, sc = np.abs(ys[0]), np.empty(d), np.empty(d)
    steps = 0
    i = 0  # the first sample not yet delivered
    while i < n_samples:
        if steps >= DEFAULTS.integrator_max_steps:
            raise IntegrationError("step budget exhausted", t)
        j = i  # the last sample in reach of the natural step, or the next one
        while j + 1 < n_samples and grid[j + 1] - t <= h_nat:
            j += 1
        t_target = grid[j]
        h = min(h_nat, t_target - t)
        clamped = h < h_nat
        if h < h_min:
            raise IntegrationError("step size underflow", t)

        np.multiply(weights, h, out=scaled)
        for c, row, block, k in stages:
            k[...] = rhs(t + c * h, np.dot(row, block))
        np.dot(sol_err, ys, out=new)
        # every stage enters both rows (a zero weight gives 0*inf = nan), and
        # 0*inf and 0*nan are nan, so this one product sees any non-finite stage
        if math.isnan(np.dot(flat_new, zeros)):
            # retry smaller; if the step floor is hit the state is blowing up
            h_nat = h * 0.25
            if h_nat < h_min:
                raise DivergenceError("state diverged", t)
            continue

        # _rms(err_vec / (tol + tol * max(|y|, |y_new|))) in place, op for op
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=sc)
        sc *= tol
        sc += tol
        np.divide(err_vec, sc, out=sc)
        np.multiply(sc, sc, out=sc)
        err = math.sqrt(float(np.add.reduce(sc)) / d)
        steps += 1
        if err <= 1.0:
            if j > i:  # samples i..j-1 lie inside the step, which ends on t_target
                theta = (times[i:j] - t) / h
                # weights first: theirs stay below 1 where P's entries reach 10,
                # and are scaled by h as the step's own rows are
                w = np.dot(theta[:, None] ** _THETA_POWERS, _DP_PT)
                w *= h
                inner = np.dot(w, ys[1:])
                inner += ys[0]
                finite = np.isfinite(inner).all(axis=1)
                if not finite.all():
                    raise DivergenceError("state diverged", grid[i + int(np.argmin(finite))])
                out[i:j] = inner
            t = t_target if (t_target - t - h) < h_min else t + h
            ys[0] = y_new
            ys[1] = ys[7]  # FSAL
            abs_y, abs_new = abs_new, abs_y
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if clamped:
                h_nat = max(h_nat, h * factor)
            else:
                h_nat = h * factor
            if t >= t_target - h_min:  # the step reached t_target
                out[j] = ys[0]
                t = t_target
                i = j + 1
        else:
            h_nat = h * max(0.2, 0.9 * err ** -0.2)
    return out


# ---------------------------------------------------------------------------
# the observation handle and the integration entry points


def _check_count(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """DomainError naming ``name`` unless ``value`` is an integer in [minimum, maximum]."""
    # nan passes a `< minimum` test, and any float count then fails in range().
    # Every handle built makes this check, zeta_scan one per cell: the exact-int
    # test first spares the common case the cost of an isinstance test on an ABC
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}")


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
    # a bound on the output's size, one row per sample; a step may deliver
    # many samples, so this bounds the rows, not the steps
    _check_count(samples, "samples", 1, DEFAULTS.integrator_max_steps)
    if not (DEFAULTS.integrator_min_tol <= tol <= DEFAULTS.integrator_max_tol):
        raise DomainError(f"tol must lie in [{DEFAULTS.integrator_min_tol}, "
                          f"{DEFAULTS.integrator_max_tol}]")
    return x0


def _sample_times(t_end: float, samples: int) -> np.ndarray:
    """The integrators' grid j*h, j = 1..samples, h = t_end/samples."""
    return (t_end / samples) * np.arange(1, samples + 1)


# eq=False: a handle is one map, so it compares and hashes by identity (a
# field-wise == would compare the x0 arrays, and x0 makes it unhashable)
@dataclass(frozen=True, eq=False)
class ObservationMapHandle:
    """Binding of (system, x0, h, m) defining the map R^n -> R^(m*k); x0, the
    grid and ``tol`` are checked once, here, and each run checks only alpha."""

    sys: ParamSystem
    x0: np.ndarray
    h: float
    m: int
    tol: float = DEFAULTS.integrator_tol

    def __post_init__(self):
        # a read-only copy, so that the checked x0 cannot change under the handle
        x0 = _check_grid(self.sys, np.array(self.x0, dtype=float), self.h * self.m,
                         self.m, self.tol)
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)

    def observe(self, alpha, jacobian: bool = False) -> Observation:
        """The observation map at alpha, one run of the species' ``_observe``: the
        samples X(jh), j = 1..m, and with ``jacobian`` their (m*k) x n Jacobian."""
        return self.sys._observe(self, alpha, jacobian)

    @property
    def times(self) -> np.ndarray:
        """The sample times j*h, j = 1..m, on the integrators' own grid."""
        return _sample_times(self.h * self.m, self.m)

    @property
    def n_params(self) -> int:
        return self.sys.param_dim

    @property
    def dim_out(self) -> int:
        return self.m * self.sys.state_dim

    @property
    def overdetermined(self) -> bool:
        """m*k >= n, required for full-rank certificates."""
        return self.dim_out >= self.n_params


def _check_alpha(sys: ParamSystem, alpha) -> np.ndarray:
    """Validate the parameter vector's length and finiteness; return it as floats."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.shape[0] != sys.param_dim:
        raise DimensionError(
            f"parameter vector has dimension {alpha.shape[0]}, expected {sys.param_dim}")
    if not np.isfinite(alpha).all():
        # an IntegrationError, as the state it would produce, so that callers
        # probing trial points (Gauss-Newton, zeta_scan) reject it alike
        raise DivergenceError("parameter vector is non-finite", 0.0)
    return alpha


def _check_integration_args(handle: ObservationMapHandle, alpha) -> np.ndarray:
    """Validate alpha, then the shapes of f, df/dx and df/da at x0, which a
    species that integrates supplies unchecked; return alpha as floats. The
    shapes are fixed by the system, so they are checked until they pass once."""
    sys, x0 = handle.sys, handle.x0
    alpha = _check_alpha(sys, alpha)
    if not sys._shapes_checked:
        k, n = sys.state_dim, sys.param_dim
        # only the shapes are checked here, so overflow in the values stays silent
        with np.errstate(over="ignore", invalid="ignore"):
            values = (sys.f(x0, alpha), sys.dfdx(x0, alpha), sys.dfda(x0, alpha))
        for name, value, shape in zip(("f", "df/dx", "df/da"), values,
                                      ((k,), (k, k), (k, n))):
            if np.shape(value) != shape:
                raise DimensionError(
                    f"{name} has shape {np.shape(value)} at x0, expected {shape}")
        sys._shapes_checked = True
    return alpha


def integrate(handle: ObservationMapHandle, alpha) -> Observation:
    """States on the handle's grid ``times`` by Dormand-Prince at its ``tol``."""
    alpha = _check_integration_args(handle, alpha)
    return Observation(_integrate_grid(handle.sys.rhs(alpha), handle.x0, handle.times,
                                       handle.tol))


def integrate_with_sensitivity(handle: ObservationMapHandle, alpha) -> Observation:
    """Joint state + variational integration, Z(0) = 0: states and stacked Z(jh)."""
    alpha = _check_integration_args(handle, alpha)
    k, n = handle.sys.state_dim, handle.sys.param_dim
    y0 = np.concatenate([handle.x0, np.zeros(k * n)])
    raw = _integrate_grid(handle.sys.sensitivity_rhs(alpha), y0, handle.times, handle.tol)
    return Observation(raw[:, :k], raw[:, k:].reshape(handle.m * k, n))
