"""Shared builders for the small corpus of test systems."""

import numpy as np

from odeident import DEFAULTS, MatrixLinear, ObservationMapHandle, PolynomialBasis

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def scalar_map(monomials) -> list:
    """A map of one state variable from [(coeff, power), ...]."""
    return [[(c, (p,)) for c, p in monomials]]


def scalar_decay_system() -> PolynomialBasis:
    """x' = a*x with the single basis map P1(x) = x."""
    return PolynomialBasis([scalar_map([(1.0, 1)])])


def logistic_system() -> PolynomialBasis:
    """x' = a1*x + a2*x^2 (logistic for a1 > 0 > a2)."""
    return PolynomialBasis([scalar_map([(1.0, 1)]), scalar_map([(1.0, 2)])])


def rotation_system() -> MatrixLinear:
    return MatrixLinear(2)


def grid_handle(sys, x0, t_end, samples, tol=DEFAULTS.integrator_tol) -> ObservationMapHandle:
    """The handle of the grid j*t_end/samples, j = 1..samples: h = t_end/samples."""
    return ObservationMapHandle(sys=sys, x0=x0, h=t_end / samples, m=samples, tol=tol)


def scalar_decay_handle(h=0.5, m=5, tol=1e-10) -> ObservationMapHandle:
    return ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                h=h, m=m, tol=tol)


def rotation_handle(h=0.3, m=6, tol=1e-10, x0=(1.0, 0.7)) -> ObservationMapHandle:
    return ObservationMapHandle(sys=rotation_system(), x0=np.array(x0),
                                h=h, m=m, tol=tol)


def stable_matrix(rng: np.random.Generator, k: int, norm_cap: float = 5.0) -> np.ndarray:
    """Random k x k matrix with spectrum shifted into the left half-plane."""
    w = rng.normal(size=(k, k))
    w *= rng.uniform(0.3, 1.0) * norm_cap / max(np.linalg.norm(w, 2), 1e-12)
    shift = max(np.linalg.eigvals(w).real.max(), 0.0) + 0.1
    a = w - shift * np.eye(k)
    if np.linalg.norm(a, 2) > norm_cap:
        a *= norm_cap / np.linalg.norm(a, 2)
    return a


def finite_difference_jacobian(func, x, step=1e-6):
    """Central-difference Jacobian of a vector function, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h))
    return np.column_stack(cols)
