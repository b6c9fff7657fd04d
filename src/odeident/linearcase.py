"""Exact analysis of the linear system x' = A x: exponential observation
map, eigenvalue degeneracy and aliasing detection, matrix-logarithm branch
enumeration, Krylov dependence of the initial condition, and the
exponential-divided-difference determinant identity.

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
from .errors import DefectiveMatrixError, DimensionError, DomainError
from .numkernel import (
    Poly,
    as_square,
    as_vector,
    eigenvalues,
    mat_exp,
    numerical_rank,
    real_part,
    singular_values,
    sylvester_resultant,
)
from .obsmap import ObservationMapHandle, phi_jacobian
from .ode import MatrixLinear


def phi_exact(alpha, x0, h: float, m: int) -> np.ndarray:
    """(e^{h A} x0, e^{2h A} x0, ..., e^{mh A} x0) stacked sample-major."""
    a = as_square(alpha)
    x0 = as_vector(x0)
    if x0.shape[0] != a.shape[0]:
        raise DimensionError("x0 dimension does not match matrix")
    if m < 1:
        raise DomainError("m must be >= 1")
    out = np.empty((m, a.shape[0]))
    for j in range(1, m + 1):
        out[j - 1] = mat_exp(a, j * h) @ x0
    return out.ravel()


# ---------------------------------------------------------------------------
# characteristic-polynomial discriminants


def characteristic_poly(a: np.ndarray) -> Poly:
    """Characteristic polynomial det(lambda I - A), monic, ascending coeffs."""
    a = as_square(a)
    coeffs = np.poly(a)[::-1]  # np.poly returns descending
    return Poly(coeffs)


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


CLOSED_FORM_SIGN = {2: -1.0, 3: 1.0}  # closed form = sign * sylvester resultant


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

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "discriminant": self.discriminant,
            "discriminant_closed": self.discriminant_closed,
            "double_eigenvalue": self.double_eigenvalue,
            "defective": self.defective,
            "aliasing_pairs": [list(p) for p in self.aliasing_pairs],
            "in_set_A": self.in_set_A,
            "krylov_rank": self.krylov_rank,
            "x0_in_E": self.x0_in_E,
            "h": self.h,
        }


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
    """Numerical rank of [x0, C x0, ..., C^(k-1) x0].

    Exact linear dependence leaks O(eps * cond^2) through float similarity
    transforms and the matrix exponential, so this rank decision uses the
    dedicated relative threshold ``DEFAULTS.krylov_rank_rel`` (1e-10)
    instead of the eps-level generic rank rule: dependent constructions sit
    below ~1e-13 while generic spectra sit above ~1e-4.
    """
    c = as_square(c)
    x0 = as_vector(x0)
    k = c.shape[0]
    cols = [x0]
    for _ in range(k - 1):
        cols.append(c @ cols[-1])
    svals = singular_values(np.column_stack(cols))
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > DEFAULTS.krylov_rank_rel * svals[0]))


def degeneracy_report(alpha, x0, h: float) -> DegeneracyReport:
    """Diagnose all uniqueness obstructions for the pair (A, x0) at spacing h.

    ``double_eigenvalue`` uses both the eigenvalue gap (at
    ``DEFAULTS.eig_repeat_tol`` relative to the spectral scale) and the
    characteristic discriminant; aliasing scans eigenvalue differences
    against the lattice 2*pi*i*Z/h up to |k| <= k_scan. The initial
    condition is in the bad set E exactly when its Krylov sequence under
    exp(h A) is linearly dependent.
    """
    a = as_square(alpha)
    x0 = as_vector(x0)
    if x0.shape[0] != a.shape[0]:
        raise DimensionError("x0 dimension does not match matrix")
    if h <= 0.0:
        raise DomainError("h must be positive")

    eig = eigenvalues(a)
    vals = eig.values
    scale = max(1.0, float(np.abs(vals).max()))
    gaps = [abs(vals[i] - vals[j])
            for i, j in itertools.combinations(range(len(vals)), 2)]
    double = bool(gaps and min(gaps) <= DEFAULTS.eig_repeat_tol * scale)

    p = characteristic_poly(a)
    resultant = sylvester_resultant(p, p.derivative())
    closed = discriminant_closed_form(a)

    pairs = tuple(_aliasing_pairs(vals, h))
    in_set_a = len(pairs) == 0

    c = mat_exp(a, h)
    kr = krylov_rank(c, x0)

    return DegeneracyReport(
        eigenvalues=vals,
        discriminant=float(resultant),
        discriminant_closed=closed,
        double_eigenvalue=double,
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

    def to_dict(self) -> dict:
        return {
            "base": self.base.tolist(),
            "h": self.h,
            "branches": [b.tolist() for b in self.branches],
            "k_range": self.k_range,
            "k_vectors": [list(kv) for kv in self.k_vectors],
        }


def log_branches(alpha0, h: float, k_max: int = DEFAULTS.k_max) -> BranchSet:
    """All real matrices sharing exp(h * alpha0), from eigenvalue shifts.

    For each conjugate complex eigenvalue pair (l, conj(l)) and each integer
    k in [-k_max, k_max], the pair is replaced by (l + 2*pi*i*k/h,
    conj(l) - 2*pi*i*k/h) and the matrix reassembled through its
    diagonalization. A matrix with only real eigenvalues has the single
    branch alpha0. Requires simple eigenvalues; defective or repeated input
    raises DefectiveMatrixError.
    """
    a = as_square(alpha0)
    if h <= 0.0:
        raise DomainError("h must be positive")
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    eig = eigenvalues(a)
    if eig.defective:
        raise DefectiveMatrixError("alpha0 is defective; branches not enumerable")
    vals = eig.values
    n = len(vals)
    scale = max(1.0, float(np.abs(vals).max()))
    same_tol = DEFAULTS.eig_repeat_tol * scale
    for i, j in itertools.combinations(range(n), 2):
        if abs(vals[i] - vals[j]) <= same_tol:
            raise DefectiveMatrixError(
                "alpha0 has repeated eigenvalues; branches not enumerable"
            )

    imag_tol = 1e-12 * scale
    conj_pairs: list[tuple[int, int]] = []
    used = set()
    for i in range(n):
        if i in used or vals[i].imag <= imag_tol:
            continue
        partner = None
        for j in range(n):
            if j in used or j == i:
                continue
            if abs(vals[j] - vals[i].conjugate()) <= same_tol:
                partner = j
                break
        if partner is None:
            raise DefectiveMatrixError("complex eigenvalue without conjugate partner")
        conj_pairs.append((i, partner))
        used.update({i, partner})

    if not conj_pairs:
        return BranchSet(base=a, h=float(h), branches=(a.copy(),),
                         k_range=int(k_max), k_vectors=((),))

    count = (2 * k_max + 1) ** len(conj_pairs)
    if count > DEFAULTS.branch_budget:
        raise DomainError(f"branch count {count} exceeds budget {DEFAULTS.branch_budget}")

    p = eig.vectors
    p_inv = np.linalg.inv(p)
    base_exp = mat_exp(a, h)
    branches = []
    k_vectors = []
    for ks in itertools.product(range(-k_max, k_max + 1), repeat=len(conj_pairs)):
        new_vals = vals.astype(complex).copy()
        for (i, j), k in zip(conj_pairs, ks):
            shift = 2.0 * math.pi * k / h
            new_vals[i] = vals[i] + 1j * shift
            new_vals[j] = vals[j] - 1j * shift
        reassembled = p @ np.diag(new_vals) @ p_inv
        branch = real_part(reassembled, tol=DEFAULTS.imag_residue_tol, name="branch")
        err = float(np.abs(mat_exp(branch, h) - base_exp).max())
        if err > DEFAULTS.branch_exp_tol:
            raise DomainError(
                f"branch for shifts {ks} fails exp check (error {err:.3e})"
            )
        branches.append(branch)
        k_vectors.append(ks)

    order = sorted(range(len(branches)), key=lambda i: k_vectors[i])
    # drop numerically duplicate branches (cannot happen for distinct shifts,
    # but the contract promises pairwise-distinct output)
    kept, kept_ks = [], []
    for i in order:
        if any(np.abs(branches[i] - b).max() <= DEFAULTS.branch_distinct_tol
               for b in kept):
            continue
        kept.append(branches[i])
        kept_ks.append(k_vectors[i])
    return BranchSet(base=a, h=float(h), branches=tuple(kept),
                     k_range=int(k_max), k_vectors=tuple(kept_ks))


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
    ``lam`` differ by a multiple of 2*pi*i.
    """
    lam = [complex(z) for z in lam]
    n = len(lam)
    if n < 2:
        raise DomainError("need at least two eigenvalues")
    scale = max(1.0, max(abs(z) for z in lam))
    for i, j in itertools.combinations(range(n), 2):
        if abs(lam[i] - lam[j]) <= DEFAULTS.divdiff_min_gap * scale:
            raise DomainError(f"eigenvalues {i} and {j} coincide")

    mat = np.empty((n, n), dtype=complex)
    for j in range(1, n + 1):
        mat[j - 1, 0] = cmath.exp(j * lam[0])
        for i in range(2, n + 1):
            mat[j - 1, i - 1] = (cmath.exp(j * lam[0]) - cmath.exp(j * lam[i - 1])) / (
                lam[0] - lam[i - 1]
            )
    numeric = complex(np.linalg.det(mat))

    prod = 1.0 + 0.0j
    for i, j in itertools.combinations(range(n), 2):
        prod *= cmath.exp(lam[j]) - cmath.exp(lam[i])
    denom = 1.0 + 0.0j
    for i in range(1, n):
        denom *= lam[0] - lam[i]
    closed = (-1.0) ** (n - 1) * cmath.exp(sum(lam)) * prod / denom
    return numeric, closed


# ---------------------------------------------------------------------------
# full-rank check of the exponential observation map


@dataclass(frozen=True)
class FullRankReport:
    rank: int
    sigma_min: float
    full: bool
    derivative_quality: str = "exact"

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "sigma_min": self.sigma_min,
            "full": self.full,
            "derivative_quality": self.derivative_quality,
        }


def full_rank_check(alpha0, x0, h: float, m: int,
                    tol: float = DEFAULTS.integrator_tol) -> FullRankReport:
    """Numerical rank of the k^2-column Jacobian of A -> phi_exact(A, x0, h, m).

    Columns come from the variational sensitivities of the matrix-linear
    system, so the check matches what the estimators actually use.
    """
    a = as_square(alpha0)
    x0 = as_vector(x0)
    k = a.shape[0]
    if m * k < k * k:
        raise DimensionError("need m*k >= k^2 observations for a full-rank check")
    sys = MatrixLinear(k)
    handle = ObservationMapHandle(sys=sys, x0=x0, h=h, m=m, tol=tol)
    jac = phi_jacobian(handle, MatrixLinear.pack(a))
    svals = singular_values(jac)
    rank = numerical_rank(jac, svals)
    return FullRankReport(rank=rank, sigma_min=float(svals[-1]),
                          full=rank == k * k)
