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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a finite real 2-D array and return it as floats."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
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
# the coefficients of c**0 .. c**10 and of a zero pad, as a column over the
# (12, lanes, n, n) stack of powers that pairs them up as (c**2i, c**2i+1)
_PADE_PAIRS = np.append(_PADE_B, 0.0)[:, None, None, None]


# every non-finite value is tested for below, so numpy's warnings stay silent
@np.errstate(over="ignore", invalid="ignore")
def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*A) for one matrix or a real (..., n, n) stack of them, by
    scaling and squaring (Higham 2005) around a fixed [10/10] diagonal Padé
    approximant.

    Each matrix is scaled by its own 2**-s, the least s that brings the
    1-norm of t*A / 2**s to at most ``DEFAULTS.mat_exp_scaled_norm`` (0.5),
    approximated by the [10/10] Padé quotient, and squared back exactly s
    times. The degree is fixed: there is no table of norm thresholds that
    picks a lower degree for a smaller norm, as ``scipy.linalg.expm`` has.
    Lanes whose s is reached sit out the later rounds. A 2-D input is a stack
    of one, so ``mat_exp(stack)[i]`` equals ``mat_exp(stack[i])`` bit for
    bit, whatever the stack's size or order.

    A float64 input is read in place, never copied or written; any other
    real dtype is converted first, so it has the bits of the same call on
    its float64 values, and a strided view has those of its contiguous copy.
    The input's finiteness is tested only when a lane's scaled norm is not
    finite. When every lane has s = 0 the scaled matrices are t*A itself,
    and when all lanes share one s the whole stack is squared at once.
    Works for defective matrices. Raises DimensionError for a non-finite
    or complex entry and RangeError when the 1-norm of t*A over the scaled
    norm, or a result, overflows.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise DimensionError(f"matrix must be a non-empty square (..., n, n) array, "
                             f"got shape {a.shape}")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    shape, n = a.shape, a.shape[-1]
    if a.dtype != np.float64:
        a = as_matrix(a.reshape(-1, n))
    # C order whatever the input's strides, so the norms' sums run as for a copy
    b = np.multiply(t, a.reshape(-1, n, n), order="C")
    ratios = (np.abs(b).sum(axis=1).max(axis=1) / DEFAULTS.mat_exp_scaled_norm).tolist()
    if not all(map(math.isfinite, ratios)):
        if not np.isfinite(a).all():
            raise DimensionError("matrix contains non-finite entries")
        raise RangeError("t*A is beyond the float range")
    # libm's log2 per lane: numpy's vector log2 differs from it in the last bit
    # on some inputs, which could move ceil() across an integer
    squarings = [0 if r <= 1.0 else math.ceil(math.log2(r)) for r in ratios]
    low, top = min(squarings, default=0), max(squarings, default=0)
    shared = low == top  # one s for every lane
    powers = np.empty((len(_PADE_PAIRS),) + b.shape)  # c**0 .. c**10 and the pad
    powers[0] = np.eye(n)
    powers[-1] = 0.0
    if top == 0:
        powers[1] = b
    else:  # c = b / 2**s exactly, also where 2.0**s overflows (s = 1024)
        np.ldexp(b, -top if shared else -np.array(squarings)[:, None, None], out=powers[1])
    c = powers[1]
    for j in range(2, len(_PADE_B)):
        np.matmul(powers[j - 1], c, out=powers[j])
    powers *= _PADE_PAIRS
    # the [10/10] sums in sum()'s order, both in one reduction over the pairs:
    # a reduction over the leading axis adds term by term, and starting from
    # 0.0 turns -0.0 into 0.0 as sum() does; u's last term, the zero pad,
    # leaves a sum that started from 0.0 as it was
    pairs = powers.reshape((len(powers) // 2, 2) + b.shape)
    v, u = np.add.reduce(pairs, axis=0, initial=0.0)
    del powers, pairs, c  # twelve matrices per lane: free them before the solve's copies
    try:
        f = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - norm <= 0.5 keeps V-U regular
        raise ConvergenceError(f"Padé solve failed: {exc}") from exc
    if shared:
        for _ in range(top):
            f = f @ f
            if not np.isfinite(f).all():
                raise RangeError("matrix exponential overflowed")
    else:
        s = np.array(squarings)
        for r in range(top):
            live = s > r  # the lanes that still need this round
            g = f[live]
            g = g @ g
            if not np.isfinite(g).all():
                raise RangeError("matrix exponential overflowed")
            f[live] = g
    # each squared lane was tested as it was squared; the others are tested here
    if low == 0 and not np.isfinite(f).all():
        raise RangeError("matrix exponential overflowed")
    return f.reshape(shape)


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues sorted by (real, imag); eigenvectors when diagonalizable."""

    values: np.ndarray              # complex, shape (n,)
    vectors: np.ndarray | None      # complex, shape (n, n), columns; None if defective
    defective: bool
    repeated: bool                  # some cluster holds two or more eigenvalues


def _sorted_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenvalues(a) -> EigenResult:
    """Eigenvalues with multiplicity, eigenvectors, and the one rule that
    decides when eigenvalues coincide.

    Eigenvalues come from LAPACK's shifted-QR Hessenberg iteration
    (``np.linalg.eigvals``) for every size up to ``DEFAULTS.eig_max_dim``.
    They cluster as the connected components of |l_i - l_j| <= tol over all
    pairs, with tol = sqrt(eps) * max(||A||_2, 1); ``repeated`` is set when a
    cluster has two or more members. A cluster's geometric multiplicity is
    the numerical nullity of A - mean*I at the cluster's own scale,
    len(cluster) * tol, so a normal matrix is never defective; a cluster
    whose geometric multiplicity is below its size sets ``defective``.
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

    tol = math.sqrt(EPS) * max(float(np.linalg.norm(a, 2)), 1.0)
    # connected components of the closeness graph: square the reachability
    # matrix until it is transitively closed; a row then lists its cluster
    reach = (np.abs(vals[:, None] - vals[None, :]) <= tol).astype(int)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1)
    clusters = [list(c) for c in dict.fromkeys(tuple(np.flatnonzero(r)) for r in reach)]

    vectors = np.zeros((n, n), dtype=complex)
    defective = False
    for idx in clusters:
        lam = vals[idx].mean()
        shifted = a.astype(complex) - lam * np.eye(n)
        _, svals, vh = np.linalg.svd(shifted)
        alg = len(idx)
        geo = max(int(np.sum(svals <= alg * tol)), 1)
        if geo < alg:
            defective = True
            continue
        vectors[:, idx] = vh.conj().T[:, n - alg:]

    return EigenResult(values=vals, vectors=None if defective else vectors,
                       defective=defective,
                       repeated=any(len(idx) > 1 for idx in clusters))


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
    """Minimum-norm least-squares solution of A x = b with rank diagnostics;
    the solve drops the singular values that ``numerical_rank`` drops."""
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionError(f"b has length {b.shape[0]}, expected {m}")
    x, _, _, svals = np.linalg.lstsq(a, b, rcond=rank_threshold(min(m, n)))
    with np.errstate(over="ignore"):  # an overflowing norm is caught below
        residual = float(np.linalg.norm(a @ x - b))
    if math.isinf(residual):
        raise RangeError("least-squares residual norm leaves the float range")
    return LeastSquaresResult(x=x, residual=residual, rank=numerical_rank(svals),
                              condition=condition_number(svals))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    a = as_matrix(a, "A")
    return np.linalg.svd(a, compute_uv=False)


def rank_threshold(count: int) -> float:
    """sqrt(count*eps): ``numerical_rank`` drops each sigma_i <= this * sigma_1."""
    return math.sqrt(count * EPS)


def numerical_rank(svals) -> int:
    """The one rank rule: #{sigma_i > sqrt(n*eps) * sigma_1}, n = len(svals),
    for singular values in descending order: the numerical rank of a matrix
    known to about sqrt(eps) relative accuracy (Golub and Van Loan, Matrix
    Computations, section 5.4), such as a Jacobian from an integrator run.
    """
    if len(svals) == 0:
        return 0
    return int(np.sum(np.asarray(svals) > rank_threshold(len(svals)) * svals[0]))


def condition_number(svals) -> float:
    """sigma_1 / sigma_min of descending singular values; inf if sigma_min is 0."""
    return float(svals[0] / svals[-1]) if len(svals) and svals[-1] > 0 else math.inf


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

    def derivative(self) -> "Poly":
        c = self.coefficients
        if c.size == 1:
            return Poly([0.0])
        return Poly(c[1:] * np.arange(1, c.size))

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

