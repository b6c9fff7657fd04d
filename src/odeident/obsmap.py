"""Observation map, its Jacobian, the injectivity-radius certificate, and
the det(J^T J) lattice scan.

The observation map sends a parameter vector to the stacked trajectory
samples (X(h), X(2h), ..., X(mh)), flattened sample-major. A certificate
around a base point alpha0 consists of

    beta  = smallest eigenvalue of J^T J at alpha0 (J the map Jacobian),
    gamma = safety * max sampled norm of the second-derivative action,
    r_cert = min(r_work, sqrt(beta) / (6 * gamma)),

on which the map is one-to-one with bi-Lipschitz lower constant
sqrt(beta)/2. ``verify_lower_bound`` falsifies a certificate empirically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import (
    DimensionError,
    DomainError,
    IntegrationError,
    NotIdentifiableError,
    RangeError,
)
from .numkernel import numerical_rank, rank_threshold, singular_values
from .ode import ObservationMapHandle, _check_count


def phi(handle: ObservationMapHandle, alpha) -> np.ndarray:
    """Stacked samples (X(h), ..., X(mh)) as one vector, sample-major."""
    return handle.observe(alpha).values


def phi_jacobian(handle: ObservationMapHandle, alpha) -> np.ndarray:
    """(m*k) x n Jacobian of phi: stacked sensitivity blocks Z(jh)."""
    return handle.observe(alpha, jacobian=True).jacobian


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class InjectivityCertificate:
    alpha0: np.ndarray
    beta: float
    gamma: float
    r_work: float
    r_cert: float
    lipschitz_lower: float
    gamma_samples: int
    safety_factor: float
    # ||D2 phi|| is measured as the bilinear operator norm via directional
    # sampling; recorded so downstream consumers know the convention.
    d2_norm_model: str = "directional-bilinear"

    def __post_init__(self):
        if self.r_cert > self.r_work + 1e-15:
            raise DomainError("r_cert exceeds r_work")
        if abs(self.lipschitz_lower ** 2 - self.beta / 4.0) > 1e-12 * max(1.0, self.beta):
            raise DomainError("lipschitz_lower must equal sqrt(beta)/2")


def _normal_draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """A nonzero standard-normal vector and its norm."""
    # sqrt(d @ d) is np.linalg.norm's own formula for a real vector, without
    # its dispatch; verify_lower_bound's norms take it too
    d = rng.standard_normal(n)
    nrm = math.sqrt(d @ d)
    while nrm == 0.0:  # pragma: no cover - probability zero
        d = rng.standard_normal(n)
        nrm = math.sqrt(d @ d)
    return d, nrm


def _ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    n = center.shape[0]
    direction, nrm = _normal_draw(rng, n)
    r = radius * rng.uniform() ** (1.0 / n)
    return center + (r / nrm) * direction


def certify_radius(handle: ObservationMapHandle, alpha0, r_work: float,
                   gamma_samples: int = 32, safety: float = DEFAULTS.gamma_safety,
                   seed: int = 0) -> InjectivityCertificate:
    """Injectivity certificate around alpha0.

    beta is the squared smallest singular value of the Jacobian at alpha0
    (singular values rather than eigenvalues of J^T J, for accuracy on
    ill-conditioned Jacobians). gamma is ``safety`` times the largest sampled
    directional second difference of the map over the working ball.

    Raises NotIdentifiableError when m*k < n or when the Jacobian's
    ``numerical_rank`` is below n, and DomainError when ``r_work`` is not
    finite and > 0, ``gamma_samples`` is not an integer in [10,
    ``DEFAULTS.certify_budget``] or ``safety`` is not finite and >= 1.
    """
    alpha0 = np.array(alpha0, dtype=float).reshape(-1)
    # a nan compares false with every bound, so test for the good case
    if not (0.0 < r_work < math.inf):
        raise DomainError("r_work must be finite and > 0")
    _check_count(gamma_samples, "gamma_samples", 10, DEFAULTS.certify_budget)
    if not (1.0 <= safety < math.inf):
        raise DomainError("safety must be finite and >= 1")

    jac = phi_jacobian(handle, alpha0)
    svals = singular_values(jac)
    sigma1 = float(svals[0])
    sigma_min = float(svals[-1])
    if math.isinf(sigma1 * sigma1):  # beta squares sigma_min <= sigma_1
        raise RangeError(f"Jacobian norm {sigma1:.3e} squares beyond the float range")
    n = handle.n_params
    rank = numerical_rank(svals)
    beta = sigma_min ** 2
    diagnostics = {
        "beta": beta,
        "sigma_min": sigma_min,
        "sigma_max": sigma1,
        "rank": rank,
        "n_params": n,
        "dim_out": handle.dim_out,
        "overdetermined": handle.overdetermined,
    }
    if not handle.overdetermined:
        raise NotIdentifiableError(
            f"m*k = {handle.dim_out} observations < n = {n} parameters", diagnostics)
    if rank < n:
        ratio = sigma_min / sigma1 if sigma1 > 0.0 else 0.0
        raise NotIdentifiableError(
            f"Jacobian ill-conditioned at alpha0: sigma_min/sigma_1 = {ratio:.3e} "
            f"<= sqrt(n*eps) = {rank_threshold(n):.3e}", diagnostics)

    delta = DEFAULTS.gamma_fd_step * max(1.0, float(np.linalg.norm(alpha0)))
    worst = 0.0
    for i in range(gamma_samples):
        rng = np.random.default_rng((seed, i))
        point = _ball_point(rng, alpha0, r_work)
        d, nrm = _normal_draw(rng, n)
        direction = d / nrm
        j_plus = phi_jacobian(handle, point + delta * direction)
        j_minus = phi_jacobian(handle, point - delta * direction)
        action = (j_plus - j_minus) / (2.0 * delta)
        worst = max(worst, float(np.linalg.norm(action, 2)))
    if worst <= 0.0:
        raise DomainError("second-derivative estimate is zero; cannot certify")
    gamma = safety * worst

    r_cert = min(r_work, math.sqrt(beta) / (6.0 * gamma))
    return InjectivityCertificate(
        alpha0=alpha0,
        beta=beta,
        gamma=gamma,
        r_work=float(r_work),
        r_cert=float(r_cert),
        lipschitz_lower=math.sqrt(beta) / 2.0,
        gamma_samples=int(gamma_samples),
        safety_factor=float(safety),
    )


@dataclass(frozen=True)
class VerificationReport:
    pairs_tested: int
    violations: int
    worst_ratio: float     # inf when no distinct pair was compared
    bound: float           # sqrt(beta)/2
    margin: float          # absolute slack subtracted from the bound


def verify_lower_bound(handle: ObservationMapHandle, cert: InjectivityCertificate,
                       pair_count: int, seed: int) -> VerificationReport:
    """Empirically test ||phi(x)-phi(y)|| >= (sqrt(beta)/2 - margin)||x-y||.

    Pairs are sampled uniformly in B(alpha0, r_cert) with per-pair
    counter-derived seeds (deterministic under any evaluation order); the
    first pair is forced identical and excluded from the ratio. Violations
    falsify the certificate (gamma was under-estimated).

    ``pairs_tested`` is ``pair_count``: it counts pair 0, the identical
    control pair that is never compared. With ``pair_count == 1`` no pair is
    compared and ``worst_ratio`` stays inf (``null`` in the CLI report). A
    ``pair_count`` that is not an integer in [1, ``DEFAULTS.certify_budget``]
    raises DomainError.
    """
    _check_count(pair_count, "pair_count", 1, DEFAULTS.certify_budget)
    bound = cert.lipschitz_lower
    margin = DEFAULTS.verify_margin_rel * math.sqrt(cert.beta)
    violations = 0
    worst = math.inf
    for i in range(pair_count):
        rng = np.random.default_rng((seed, i))
        x = _ball_point(rng, cert.alpha0, cert.r_cert)
        y = x.copy() if i == 0 else _ball_point(rng, cert.alpha0, cert.r_cert)
        gap = x - y
        dist = math.sqrt(gap @ gap)
        if dist == 0.0:
            continue
        diff = phi(handle, x) - phi(handle, y)
        ratio = math.sqrt(diff @ diff) / dist
        worst = min(worst, ratio)
        if ratio < bound - margin:
            violations += 1
    return VerificationReport(pairs_tested=pair_count, violations=violations,
                              worst_ratio=worst, bound=bound, margin=margin)


# ---------------------------------------------------------------------------
# zeta scan


@dataclass(frozen=True)
class ZetaCell:
    t: float
    alpha: tuple
    x: tuple
    zeta: float
    flagged: bool
    failed: bool = False


@dataclass(frozen=True)
class ZetaScanResult:
    cells: list

    @property
    def flagged_fraction(self) -> float:
        ok = [c for c in self.cells if not c.failed]
        if not ok:
            return math.nan
        return sum(1 for c in ok if c.flagged) / len(ok)

    @property
    def failed_count(self) -> int:
        return sum(1 for c in self.cells if c.failed)


def zeta_scan(handle: ObservationMapHandle, t_values, alpha_box, x_box,
              grid, rank_tol: float = 1e-12) -> ZetaScanResult:
    """Evaluate zeta = det(J^T J) on a lattice of (t, alpha, x) points.

    ``t`` scales the sampling spacing (effective spacing t*h). Cells with
    zeta <= rank_tol * sigma_1^(2n) are flagged near-critical: the paper's
    det threshold, not a rank decision (that is ``numerical_rank``'s). It is
    relative to sigma_1^(2n) because det(J^T J) carries the 2n-th power of
    the problem scale. Integration failures mark the cell failed and the
    scan continues; a sigma_1^(2n) beyond the float range raises RangeError.
    A box bound that is not finite, a ``grid`` count that is not an integer
    >= 2, a ``t`` whose grid (t*h, m, tol) no handle accepts, or a
    ``rank_tol`` not finite and >= 0, raises DomainError naming the input
    before the first cell.
    """
    n, k = handle.n_params, handle.sys.state_dim
    alpha_box = [tuple(map(float, b)) for b in alpha_box]
    x_box = [tuple(map(float, b)) for b in x_box]
    if len(alpha_box) != n or len(x_box) != k:
        raise DimensionError("box dimensions must match (n, k)")
    counts = [grid] * (n + k) if np.isscalar(grid) else list(grid)
    if len(counts) != n + k:
        raise DimensionError(f"grid needs {n + k} counts, got {len(counts)}")
    for c in counts:
        _check_count(c, "grid", 2)
    counts = [int(c) for c in counts]  # Python ints, for the exact product below
    for name, box in (("alpha_box", alpha_box), ("x_box", x_box)):
        if not all(map(math.isfinite, itertools.chain.from_iterable(box))):
            raise DomainError(f"{name} bounds must be finite")
    if not all(hi > lo for lo, hi in alpha_box + x_box):
        raise DomainError("boxes must be non-degenerate")
    t_values = [float(t) for t in t_values]
    total = len(t_values) * math.prod(counts)  # exact: np.prod wraps at 2**63
    if total > DEFAULTS.zeta_budget:
        raise DomainError(f"lattice size {total} exceeds budget {DEFAULTS.zeta_budget}")
    for t in t_values:  # each cell handle's grid, checked by building one
        try:
            ObservationMapHandle(sys=handle.sys, x0=handle.x0, h=t * handle.h,
                                 m=handle.m, tol=handle.tol)
        except DomainError:
            raise DomainError(f"t_values entry {t!r} gives no sampling grid: "
                              "t*h*m must be positive and finite") from None
    if not (rank_tol >= 0.0 and math.isfinite(rank_tol)):
        raise DomainError("rank_tol must be finite and >= 0")

    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(alpha_box + x_box, counts)]
    cells = []
    for t in t_values:
        for point in itertools.product(*axes):
            alpha = np.array(point[:n])
            x = np.array(point[n:])
            cell_handle = ObservationMapHandle(sys=handle.sys, x0=x, h=t * handle.h,
                                               m=handle.m, tol=handle.tol)
            try:
                jac = phi_jacobian(cell_handle, alpha)
            except IntegrationError:
                cells.append(ZetaCell(t=float(t), alpha=tuple(alpha), x=tuple(x),
                                      zeta=math.nan, flagged=False, failed=True))
                continue
            svals = np.zeros(n)
            svals[: min(jac.shape)] = singular_values(jac)
            sigma1 = float(svals[0])
            try:
                scale = sigma1 ** (2 * n)
            except OverflowError:
                scale = math.inf
            if math.isinf(scale):  # zeta <= scale, so zeta is in range once scale is
                raise RangeError(f"Jacobian norm {sigma1:.3e} to the power 2n = {2 * n} "
                                 "leaves the float range")
            zeta = float(np.prod(svals ** 2))
            flagged = zeta <= rank_tol * scale
            cells.append(ZetaCell(t=float(t), alpha=tuple(alpha), x=tuple(x),
                                  zeta=zeta, flagged=flagged))
    return ZetaScanResult(cells=cells)
