"""Exact analysis of the linear system x' = A x: eigenvalue degeneracy and
aliasing detection, matrix-logarithm branch enumeration, Krylov dependence
of the initial condition, the exponential-divided-difference determinant
identity and the rank of the observation map's Jacobian. (The exact
observation map itself is ``MatrixLinear._observe``.)

Distinct parameter matrices share the observation map exactly when their
eigenvalues differ by integer multiples of 2*pi*i/h (aliasing), which is why
the inverse problem has countably many isolated solutions rather than one.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import DefectiveMatrixError, DimensionError, DomainError, RangeError
from .numkernel import (
    as_square,
    as_vector,
    eigenvalues,
    mat_exp,
    numerical_rank,
    real_part,
    singular_values,
    sylvester_resultant,
)
from .obsmap import phi_jacobian
from .ode import MatrixLinear, ObservationMapHandle, _check_count


# ---------------------------------------------------------------------------
# characteristic-polynomial discriminants


def characteristic_poly(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial det(lambda I - A): ``np.poly``'s monic,
    descending coefficients."""
    a = as_square(a)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(a)
    if not np.all(np.isfinite(coeffs)):
        raise RangeError("characteristic polynomial left the float range")
    return coeffs


def discriminant_closed_form(a: np.ndarray) -> float | None:
    """Closed-form repeated-root discriminant for k = 2 and k = 3.

    k=2: (a11 - a22)^2 + 4 a12 a21, which is the *negated* Sylvester
    resultant of (P, P'). k=3: with P = l^3 - a1 l^2 + a2 l - a3,
    a3(4 a1^3 - 18 a1 a2 + 27 a3) + a2^2 (4 a2 - a1^2), equal to the
    Sylvester resultant with no sign flip. Returns None for other sizes.
    """
    a = as_square(a)
    k = a.shape[0]
    if k == 2:
        return float((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] * a[1, 0])
    if k == 3:
        a1 = float(np.trace(a))
        a2 = 0.5 * (a1 * a1 - float(np.trace(a @ a)))
        a3 = float(np.linalg.det(a))
        return a3 * (4.0 * a1 ** 3 - 18.0 * a1 * a2 + 27.0 * a3) + a2 ** 2 * (
            4.0 * a2 - a1 ** 2
        )
    return None


# ---------------------------------------------------------------------------
# degeneracy report


@dataclass(frozen=True)
class DegeneracyReport:
    eigenvalues: np.ndarray            # complex, sorted
    discriminant: float                # Sylvester resultant of (P, P')
    discriminant_closed: float | None  # closed form for k <= 3, else None
    double_eigenvalue: bool
    defective: bool
    aliasing_pairs: tuple              # (i, j, k) with l_i - l_j = 2*pi*i*k/h
    in_set_A: bool                     # exp(h A) has no repeated eigenvalues
    krylov_rank: int
    x0_in_E: bool                      # Krylov sequence of x0 degenerate
    h: float


def _aliasing_pairs(vals: np.ndarray, h: float) -> list[tuple[int, int, int]]:
    n = len(vals)
    scale = max(1.0, float(np.abs(vals).max()))
    pairs = []
    for a, b in itertools.combinations(range(n), 2):
        diff = vals[a] - vals[b]
        if diff.imag < 0.0:
            a, b, diff = b, a, -diff
        if abs(diff.real) >= DEFAULTS.aliasing_re_tol * scale:
            continue
        ratio = diff.imag * h / (2.0 * math.pi)
        k = round(ratio)
        if abs(k) > DEFAULTS.k_scan:
            continue
        if abs(ratio - k) < DEFAULTS.aliasing_im_tol:
            pairs.append((a, b, int(k)))
    return pairs


def krylov_rank(c: np.ndarray, x0: np.ndarray) -> int:
    """``numerical_rank`` of [x0, C x0, ..., C^(k-1) x0].

    Exact linear dependence leaks O(eps * cond^2) through float similarity
    transforms and the matrix exponential; the rule's sqrt(k*eps) threshold
    sits between those leaks and the singular values of generic spectra.
    Raises RangeError when a column leaves the float range.
    """
    c = as_square(c)
    x0 = as_vector(x0)
    k = c.shape[0]
    cols = [x0]
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        for _ in range(k - 1):
            cols.append(c @ cols[-1])
    krylov = np.column_stack(cols)
    if not np.isfinite(krylov).all():
        raise RangeError("Krylov sequence of x0 left the float range")
    return numerical_rank(singular_values(krylov))


def degeneracy_report(alpha, x0, h: float) -> DegeneracyReport:
    """Diagnose all uniqueness obstructions for the pair (A, x0) at spacing h.

    ``double_eigenvalue`` and ``defective`` are ``eigenvalues(A).repeated``
    and ``.defective``, the one rule that decides when eigenvalues coincide;
    the discriminants are reported beside them but decide nothing. Aliasing
    scans eigenvalue differences against the lattice 2*pi*i*Z/h up to
    |k| <= k_scan. The initial condition is in the bad set E exactly when
    its Krylov sequence under exp(h A) is linearly dependent. Raises
    RangeError when a discriminant, exp(h A) or the Krylov sequence leaves
    the float range.
    """
    a = as_square(alpha)
    x0 = as_vector(x0)
    if x0.shape[0] != a.shape[0]:
        raise DimensionError("x0 dimension does not match matrix")
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("h must be positive and finite")

    eig = eigenvalues(a)
    vals = eig.values

    p = characteristic_poly(a)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            resultant = sylvester_resultant(p, np.polyder(p))
            closed = discriminant_closed_form(a)
    except OverflowError:  # a Python-float power in the k = 3 closed form
        resultant = closed = math.inf
    if not (math.isfinite(resultant) and (closed is None or math.isfinite(closed))):
        raise RangeError("characteristic discriminant left the float range")

    pairs = tuple(_aliasing_pairs(vals, h))
    in_set_a = len(pairs) == 0

    c = mat_exp(a, h)
    kr = krylov_rank(c, x0)

    return DegeneracyReport(
        eigenvalues=vals,
        discriminant=float(resultant),
        discriminant_closed=closed,
        double_eigenvalue=eig.repeated,
        defective=eig.defective,
        aliasing_pairs=pairs,
        in_set_A=in_set_a,
        krylov_rank=kr,
        x0_in_E=kr < a.shape[0],
        h=float(h),
    )


# ---------------------------------------------------------------------------
# logarithm branches


@dataclass(frozen=True)
class BranchSet:
    base: np.ndarray
    h: float
    branches: tuple          # real matrices b with exp(h b) = exp(h base)
    k_range: int
    k_vectors: tuple         # per branch, the shift integers per conjugate pair


def log_branches(alpha0, h: float, k_max: int = DEFAULTS.k_max) -> BranchSet:
    """All real matrices sharing exp(h * alpha0): the lattice
    alpha0 + sum_p k_p S_p with |k_p| <= k_max.

    Each conjugate complex eigenvalue pair (l_p, conj(l_p)) gives one real
    generator S_p = P diag(+2*pi*i/h at l_p, -2*pi*i/h at conj(l_p)) P^-1,
    P the eigenvectors; the branch with shifts k is alpha0 + sum_p k_p S_p,
    so the k = 0 branch is alpha0 itself. A matrix with only real eigenvalues
    has the single branch alpha0. Requires simple eigenvalues: input that
    ``eigenvalues`` reports repeated (defective or not), or whose eigenbasis
    is too ill-conditioned to give real generators, raises
    DefectiveMatrixError. The lattice is exponentiated in one stacked
    ``mat_exp`` call, and each branch must match exp(h * alpha0) to
    ``DEFAULTS.branch_exp_tol``; the first failing branch in shift order
    decides the error; a ``k_max`` not an integer >= 0 raises DomainError.
    """
    a = as_square(alpha0)
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("h must be positive and finite")
    _check_count(k_max, "k_max", 0)
    k_max = int(k_max)  # a Python int: the branch count of a numpy int could wrap
    eig = eigenvalues(a)
    if eig.repeated:
        raise DefectiveMatrixError(
            "alpha0 has repeated (or defective) eigenvalues; branches not enumerable")
    vals = eig.values
    imag_tol = 1e-12 * max(1.0, float(np.abs(vals).max()))
    upper = [i for i in range(len(vals)) if vals[i].imag > imag_tol]
    if not upper:
        return BranchSet(base=a, h=float(h), branches=(a.copy(),),
                         k_range=k_max, k_vectors=((),))

    count = (2 * k_max + 1) ** len(upper)
    if count > DEFAULTS.branch_budget:
        raise DomainError(f"branch count {count} exceeds budget {DEFAULTS.branch_budget}")

    p = eig.vectors
    p_inv = np.linalg.inv(p)
    step = 2j * math.pi / h
    generators = []
    for i in upper:
        j = int(np.argmin(np.abs(vals - vals[i].conjugate())))
        if abs(vals[j] - vals[i].conjugate()) > imag_tol:
            raise DefectiveMatrixError("complex eigenvalue without conjugate partner")
        gen = step * (np.outer(p[:, i], p_inv[i]) - np.outer(p[:, j], p_inv[j]))
        try:
            generators.append(real_part(gen, tol=DEFAULTS.imag_residue_tol,
                                        name="generator"))
        except DomainError as exc:
            raise DefectiveMatrixError(
                f"eigenbasis is numerically defective: {exc}") from exc

    shifts = list(itertools.product(range(-k_max, k_max + 1), repeat=len(upper)))
    lattice = a + np.tensordot(np.array(shifts), np.array(generators), axes=1)
    try:
        branch_exps = mat_exp(lattice, h)
    except RangeError:
        # some lane overflowed; exponentiate one branch at a time, so that the
        # first failing branch in shift order decides the error
        base_exp = mat_exp(a, h)
        branch_exps = (mat_exp(branch, h) for branch in lattice)
    else:
        base_exp = branch_exps[shifts.index((0,) * len(upper))]  # alpha0's lane
    kept = []
    for i, (branch, branch_exp) in enumerate(zip(lattice, branch_exps)):
        err = float(np.abs(branch_exp - base_exp).max())
        if err > DEFAULTS.branch_exp_tol:
            raise DomainError(
                f"branch for shifts {shifts[i]} fails exp check (error {err:.3e})"
            )
        # the contract promises pairwise-distinct output; distinct shifts give
        # distinct branches unless the generators are numerically tiny
        if kept and np.abs(lattice[kept] - branch).max(axis=(1, 2)).min() \
                <= DEFAULTS.branch_distinct_tol:
            continue
        kept.append(i)
    return BranchSet(base=a, h=float(h), branches=tuple(lattice[kept]),
                     k_range=k_max, k_vectors=tuple(shifts[i] for i in kept))


# ---------------------------------------------------------------------------
# exponential divided-difference determinant


def exp_divided_difference_determinant(lam) -> tuple[complex, complex]:
    """(numeric, closed_form) for the divided-difference exponential matrix.

    The n x n matrix has first column e^{j l_1} and column i > 1 entries
    (e^{j l_1} - e^{j l_i}) / (l_1 - l_i), j = 1..n. Its determinant equals

        (-1)^(n-1) e^{l_1+...+l_n} prod_{i<j}(e^{l_j} - e^{l_i})
            / ((l_1-l_2)(l_1-l_3)...(l_1-l_n)),

    the Vandermonde orientation of the product being the one that makes the
    identity hold sign-exactly. It is nonzero whenever no two entries of
    ``lam`` differ by a multiple of 2*pi*i. Raises RangeError when an
    exponential, the determinant or the product leaves the float range.
    """
    lam = [complex(z) for z in lam]
    n = len(lam)
    if n < 2:
        raise DomainError("need at least two eigenvalues")
    scale = max(1.0, max(abs(z) for z in lam))
    for i, j in itertools.combinations(range(n), 2):
        if abs(lam[i] - lam[j]) <= DEFAULTS.divdiff_min_gap * scale:
            raise DomainError(f"eigenvalues {i} and {j} coincide")

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # tested just below
            mat = np.empty((n, n), dtype=complex)
            for j in range(1, n + 1):
                e = [cmath.exp(j * z) for z in lam]
                mat[j - 1] = [e[0]] + [(e[0] - e[i]) / (lam[0] - lam[i])
                                       for i in range(1, n)]
            numeric = complex(np.linalg.det(mat))
            prod = 1.0 + 0.0j
            for i, j in itertools.combinations(range(n), 2):
                prod *= cmath.exp(lam[j]) - cmath.exp(lam[i])
            denom = 1.0 + 0.0j
            for i in range(1, n):
                denom *= lam[0] - lam[i]
            closed = (-1.0) ** (n - 1) * cmath.exp(sum(lam)) * prod / denom
    except OverflowError:  # cmath.exp beyond the float range
        numeric = closed = complex(math.inf)
    if not (cmath.isfinite(numeric) and cmath.isfinite(closed)):
        raise RangeError("divided-difference determinant left the float range")
    return numeric, closed


# ---------------------------------------------------------------------------
# full-rank check of the exponential observation map


@dataclass(frozen=True)
class FullRankReport:
    rank: int
    sigma_min: float
    full: bool


def full_rank_check(handle: ObservationMapHandle, alpha0) -> FullRankReport:
    """``numerical_rank`` of the k^2-column Jacobian of A -> phi(A) at alpha0
    (A or its packed vector) for a ``MatrixLinear`` handle: ``phi_jacobian``'s,
    the one the estimators and ``certify_radius`` use, under their rank rule.
    DomainError for another species' handle, DimensionError when m*k < k^2.
    """
    if not isinstance(handle.sys, MatrixLinear):
        raise DomainError("full_rank_check needs a matrix_linear handle")
    if not handle.overdetermined:
        raise DimensionError("need m*k >= k^2 observations for a full-rank check")
    svals = singular_values(phi_jacobian(handle, alpha0))
    rank = numerical_rank(svals)
    return FullRankReport(rank=rank, sigma_min=float(svals[-1]),
                          full=rank == handle.n_params)
