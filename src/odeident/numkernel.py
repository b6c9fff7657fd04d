"""Dense linear-algebra kernel: matrix exponential, eigenvalues, least squares,
singular values, and polynomial resultants.

Matrices are plain ``numpy`` arrays (row-major semantics); constructors here
only validate, they never coerce silently. Everything is a pure function of
its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import ConvergenceError, DimensionError, DomainError, RangeError

EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# validation helpers


def as_matrix(a, name: str = "matrix", complex_ok: bool = False) -> np.ndarray:
    """Validate *a* as a finite 2-D array and return it as float/complex."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if complex_ok and np.iscomplexobj(arr):
        arr = arr.astype(complex)
    else:
        if np.iscomplexobj(arr):
            raise DimensionError(f"{name} must be real")
        arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(b, name: str = "vector") -> np.ndarray:
    arr = np.asarray(b, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def real_part(m: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Drop a negligible imaginary part; error if it exceeds *tol* (relative)."""
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        return m.astype(float)
    scale = max(1.0, float(np.abs(m).max()))
    residue = float(np.abs(m.imag).max())
    if residue > tol * scale:
        raise DomainError(
            f"{name} has imaginary residue {residue:.3e} above {tol:.1e}*scale"
        )
    return np.ascontiguousarray(m.real)


# ---------------------------------------------------------------------------
# matrix exponential


def _pade_coefficients(order: int) -> np.ndarray:
    m = order
    num = [
        math.factorial(2 * m - j) * math.factorial(m)
        / (math.factorial(2 * m) * math.factorial(m - j) * math.factorial(j))
        for j in range(m + 1)
    ]
    return np.array(num)


_PADE_B = _pade_coefficients(10)  # [10/10] rational approximant


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling-and-squaring with a diagonal Padé approximant.

    The input is scaled by 2**-s until its 1-norm is at most
    ``DEFAULTS.mat_exp_scaled_norm`` (0.5), approximated, and squared
    back s times. Works for defective matrices; raises RangeError when the
    result, or the 1-norm of t*A over the scaled norm, overflows.
    """
    a = as_square(a)
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    n = a.shape[0]
    with np.errstate(over="ignore"):
        b = t * a
        nrm = float(np.linalg.norm(b, 1))
    if not math.isfinite(nrm / DEFAULTS.mat_exp_scaled_norm):
        raise RangeError("t*A is beyond the float range")
    s = 0 if nrm <= DEFAULTS.mat_exp_scaled_norm else int(
        math.ceil(math.log2(nrm / DEFAULTS.mat_exp_scaled_norm))
    )
    c = np.ldexp(b, -s)  # b / 2**s exactly, also where 2.0**s overflows (s = 1024)

    coef = _PADE_B
    order = len(coef) - 1
    eye = np.eye(n)
    pows = {0: eye, 1: c}
    for k in range(2, order + 1):
        pows[k] = pows[k - 1] @ c
    u = sum(coef[j] * pows[j] for j in range(1, order + 1, 2))
    v = sum(coef[j] * pows[j] for j in range(0, order + 1, 2))
    try:
        f = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - norm <= 0.5 keeps V-U regular
        raise ConvergenceError(f"Padé solve failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            f = f @ f
            if not np.all(np.isfinite(f)):
                raise RangeError("matrix exponential overflowed")
    if not np.all(np.isfinite(f)):
        raise RangeError("matrix exponential overflowed")
    return f


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues sorted by (real, imag); eigenvectors when diagonalizable."""

    values: np.ndarray              # complex, shape (n,)
    vectors: np.ndarray | None      # complex, shape (n, n), columns; None if defective
    defective: bool


def _sorted_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenvalues(a) -> EigenResult:
    """Eigenvalues with multiplicity, eigenvectors, and a defectiveness flag.

    Eigenvalues come from LAPACK's shifted-QR Hessenberg iteration
    (``np.linalg.eigvals``) for every size up to ``DEFAULTS.eig_max_dim``.
    Geometric multiplicity is decided by the numerical rank of A - lambda*I
    at tolerance n*eps*||A||; clusters with geometric multiplicity below
    algebraic multiplicity set ``defective`` (borderline cases are flagged
    rather than guessed).
    """
    a = as_square(a)
    n = a.shape[0]
    if n > DEFAULTS.eig_max_dim:
        raise DimensionError(
            f"matrix dimension {n} exceeds maximum {DEFAULTS.eig_max_dim}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"QR iteration did not converge: {exc}") from exc
    vals = _sorted_eigs(vals.astype(complex))

    sigma1 = float(np.linalg.norm(a, 2))
    rank_tol = n * EPS * sigma1
    cluster_tol = math.sqrt(EPS) * max(sigma1, 1.0)

    # group sorted eigenvalues into clusters of (numerically) equal values
    clusters: list[list[int]] = []
    for i in range(n):
        if clusters and abs(vals[i] - vals[clusters[-1][-1]]) <= cluster_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    vectors = np.zeros((n, n), dtype=complex)
    defective = False
    for idx in clusters:
        lam = vals[idx].mean()
        shifted = a.astype(complex) - lam * np.eye(n)
        _, svals, vh = np.linalg.svd(shifted)
        nullity = int(np.sum(svals <= rank_tol))
        alg = len(idx)
        geo = max(nullity, 1) if alg == 1 else nullity
        if geo < alg:
            defective = True
            continue
        basis = vh.conj().T[:, n - alg:]
        for col, i in enumerate(idx):
            vectors[:, i] = basis[:, col]

    return EigenResult(values=vals, vectors=None if defective else vectors,
                       defective=defective)


# ---------------------------------------------------------------------------
# least squares / SVD


@dataclass(frozen=True)
class LeastSquaresResult:
    x: np.ndarray
    residual: float
    rank: int
    condition: float

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.x.shape[0]


def least_squares(a, b) -> LeastSquaresResult:
    """Minimum-norm least-squares solution of A x = b with rank diagnostics."""
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionError(f"b has length {b.shape[0]}, expected {m}")
    rcond = max(m, n) * EPS
    x, _, rank, svals = np.linalg.lstsq(a, b, rcond=rcond)
    with np.errstate(over="ignore"):  # an overflowing norm is caught below
        residual = float(np.linalg.norm(a @ x - b))
    if math.isinf(residual):
        raise RangeError("least-squares residual norm leaves the float range")
    if rank > 0:
        condition = float(svals[0] / svals[rank - 1])
    else:
        condition = math.inf
    return LeastSquaresResult(x=x, residual=residual, rank=int(rank),
                              condition=condition)


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    a = as_matrix(a, "A", complex_ok=True)
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(a, svals: np.ndarray | None = None) -> int:
    """#{sigma_i > max(m,n)*eps*sigma_1}."""
    a = np.asarray(a)
    if svals is None:
        svals = singular_values(a)
    if len(svals) == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > max(a.shape) * EPS * svals[0]))


# ---------------------------------------------------------------------------
# polynomials and resultants


class Poly:
    """Real polynomial, coefficients in ascending degree order.

    Trailing zero coefficients are trimmed so ``degree`` is exact; the zero
    polynomial is represented by the single coefficient 0.
    """

    def __init__(self, coefficients):
        c = np.asarray(coefficients, dtype=float).reshape(-1)
        if c.size == 0:
            c = np.zeros(1)
        if not np.all(np.isfinite(c)):
            raise DomainError("polynomial coefficients must be finite")
        last = c.size - 1
        while last > 0 and c[last] == 0.0:
            last -= 1
        self.coefficients = np.array(c[: last + 1])

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coefficients[0] == 0.0

    def derivative(self) -> "Poly":
        c = self.coefficients
        if c.size == 1:
            return Poly([0.0])
        return Poly(c[1:] * np.arange(1, c.size))

    def __call__(self, x):
        acc = 0.0
        for c in self.coefficients[::-1]:
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({self.coefficients.tolist()})"


def sylvester_matrix(p: Poly, q: Poly) -> np.ndarray:
    """(deg p + deg q)-square Sylvester matrix, p-rows above q-rows.

    Rows hold descending-degree coefficients, shifted one column per row —
    the same layout the closed-form discriminants are derived from.
    """
    if p.degree < 1 or q.degree < 1:
        raise DomainError("sylvester_matrix requires non-constant polynomials")
    dp, dq = p.degree, q.degree
    size = dp + dq
    s = np.zeros((size, size))
    pd = p.coefficients[::-1]
    qd = q.coefficients[::-1]
    for r in range(dq):
        s[r, r: r + dp + 1] = pd
    for r in range(dp):
        s[dq + r, r: r + dq + 1] = qd
    return s


def sylvester_resultant(p: Poly, q: Poly) -> float:
    """Determinant of the Sylvester matrix of (p, q)."""
    return float(np.linalg.det(sylvester_matrix(p, q)))

