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
from .numkernel import EPS, numerical_rank, singular_values
from .ode import ParamSystem, _check_grid


@dataclass(frozen=True)
class ObservationMapHandle:
    """Binding of (system, x0, h, m) defining the map R^n -> R^(m*k)."""

    sys: ParamSystem
    x0: np.ndarray
    h: float
    m: int
    tol: float = DEFAULTS.integrator_tol

    def __post_init__(self):
        # the integrators' own rule, so a handle that builds is one phi accepts
        object.__setattr__(self, "x0", _check_grid(self.sys, self.x0, self.h * self.m,
                                                   self.m, self.tol))

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


def phi(handle: ObservationMapHandle, alpha) -> np.ndarray:
    """Stacked samples (X(h), ..., X(mh)) as one vector, sample-major."""
    return handle.sys.observe(alpha, handle.x0, handle.h, handle.m, handle.tol)


def phi_jacobian(handle: ObservationMapHandle, alpha) -> np.ndarray:
    """(m*k) x n Jacobian of phi: stacked sensitivity blocks Z(jh)."""
    return handle.sys.observe(alpha, handle.x0, handle.h, handle.m, handle.tol,
                              jacobian=True)


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
    derivative_quality: str = "exact"

    def __post_init__(self):
        if self.r_cert > self.r_work + 1e-15:
            raise DomainError("r_cert exceeds r_work")
        if abs(self.lipschitz_lower ** 2 - self.beta / 4.0) > 1e-12 * max(1.0, self.beta):
            raise DomainError("lipschitz_lower must equal sqrt(beta)/2")

    def to_dict(self) -> dict:
        return {
            "alpha0": np.asarray(self.alpha0).tolist(),
            "beta": self.beta,
            "gamma": self.gamma,
            "r_work": self.r_work,
            "r_cert": self.r_cert,
            "lipschitz_lower": self.lipschitz_lower,
            "gamma_samples": self.gamma_samples,
            "safety_factor": self.safety_factor,
            "d2_norm_model": self.d2_norm_model,
            "derivative_quality": self.derivative_quality,
        }


def _normal_draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """A nonzero standard-normal vector and its norm."""
    d = rng.standard_normal(n)
    nrm = float(np.linalg.norm(d))
    while nrm == 0.0:  # pragma: no cover - probability zero
        d = rng.standard_normal(n)
        nrm = float(np.linalg.norm(d))
    return d, nrm


def _ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    n = center.shape[0]
    direction, nrm = _normal_draw(rng, n)
    r = radius * rng.uniform() ** (1.0 / n)
    return center + (r / nrm) * direction


def certify_radius(handle: ObservationMapHandle, alpha0, r_work: float,
                   gamma_samples: int = 32, safety: float = DEFAULTS.gamma_safety,
                   seed: int = 0,
                   gamma_raw: float | None = None) -> InjectivityCertificate:
    """Injectivity certificate around alpha0.

    beta is the squared smallest singular value of the Jacobian at alpha0
    (singular values rather than eigenvalues of J^T J, for accuracy on
    ill-conditioned Jacobians). gamma is ``safety`` times the largest sampled
    directional second difference of the map over the working ball; pass
    ``gamma_raw`` to inject a fixed estimate instead of sampling.

    Raises NotIdentifiableError when m*k < n or when the Jacobian is too
    ill-conditioned to certify: beta <= n * eps * sigma_1^2, that is
    sigma_min / sigma_1 <= sqrt(n * eps). This conditioning threshold is
    deliberately looser than the eps-level ``numerical_rank`` rule (the
    reported ``rank``): the Jacobian comes from an integrator run at
    ``handle.tol``, so its smallest singular values cannot be trusted to
    eps relative accuracy, and a nominally full-rank Jacobian with
    sigma_min / sigma_1 ~ 1e-11 is reported as not identifiable.
    """
    alpha0 = np.asarray(alpha0, dtype=float).reshape(-1)
    if not (r_work > 0.0):
        raise DomainError("r_work must be positive")
    if gamma_raw is None and gamma_samples < 10:
        raise DomainError("gamma_samples must be >= 10")
    if safety < 1.0:
        raise DomainError("safety must be >= 1")

    jac = phi_jacobian(handle, alpha0)
    svals = singular_values(jac)
    sigma1 = float(svals[0])
    sigma_min = float(svals[-1])
    if math.isinf(sigma1 * sigma1):  # beta and the conditioning test square it
        raise RangeError(f"Jacobian norm {sigma1:.3e} squares beyond the float range")
    n = handle.n_params
    rank = numerical_rank(jac, svals)
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
    if beta <= n * EPS * sigma1 ** 2:
        ratio = sigma_min / sigma1 if sigma1 > 0.0 else 0.0
        raise NotIdentifiableError(
            f"Jacobian ill-conditioned at alpha0: sigma_min/sigma_1 = {ratio:.3e} "
            f"<= sqrt(n*eps) = {math.sqrt(n * EPS):.3e}", diagnostics)

    samples_used = 0
    if gamma_raw is None:
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
        gamma_raw = worst
        samples_used = int(gamma_samples)
    if gamma_raw <= 0.0:
        raise DomainError("second-derivative estimate is zero; cannot certify")
    gamma = safety * gamma_raw

    r_cert = min(r_work, math.sqrt(beta) / (6.0 * gamma))
    return InjectivityCertificate(
        alpha0=alpha0,
        beta=beta,
        gamma=gamma,
        r_work=float(r_work),
        r_cert=float(r_cert),
        lipschitz_lower=math.sqrt(beta) / 2.0,
        gamma_samples=samples_used,
        safety_factor=float(safety),
        derivative_quality="exact" if handle.sys.derivatives_exact else "approximate",
    )


@dataclass(frozen=True)
class VerificationReport:
    pairs_tested: int
    violations: int
    worst_ratio: float
    bound: float           # sqrt(beta)/2
    margin: float          # absolute slack subtracted from the bound

    def to_dict(self) -> dict:
        return {
            "pairs_tested": self.pairs_tested,
            "violations": self.violations,
            # inf when no distinct pair was compared; JSON has no inf
            "worst_ratio": self.worst_ratio if math.isfinite(self.worst_ratio) else None,
            "bound": self.bound,
            "margin": self.margin,
        }


def verify_lower_bound(handle: ObservationMapHandle, cert: InjectivityCertificate,
                       pair_count: int, seed: int) -> VerificationReport:
    """Empirically test ||phi(x)-phi(y)|| >= (sqrt(beta)/2 - margin)||x-y||.

    Pairs are sampled uniformly in B(alpha0, r_cert) with per-pair
    counter-derived seeds (deterministic under any evaluation order); the
    first pair is forced identical and excluded from the ratio. Violations
    falsify the certificate (gamma was under-estimated).

    ``pairs_tested`` is ``pair_count``: it counts pair 0, the identical
    control pair that is never compared. With ``pair_count == 1`` no pair is
    compared and ``worst_ratio`` stays inf (``null`` in ``to_dict``).
    """
    if pair_count < 1:
        raise DomainError("pair_count must be >= 1")
    bound = cert.lipschitz_lower
    margin = DEFAULTS.verify_margin_rel * math.sqrt(cert.beta)
    violations = 0
    worst = math.inf
    for i in range(pair_count):
        rng = np.random.default_rng((seed, i))
        x = _ball_point(rng, cert.alpha0, cert.r_cert)
        y = x.copy() if i == 0 else _ball_point(rng, cert.alpha0, cert.r_cert)
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        ratio = float(np.linalg.norm(phi(handle, x) - phi(handle, y))) / dist
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
    sigma1: float
    flagged: bool
    failed: bool = False


@dataclass(frozen=True)
class ZetaScanResult:
    cells: list
    rank_tol: float
    n_params: int

    @property
    def flagged_fraction(self) -> float:
        ok = [c for c in self.cells if not c.failed]
        if not ok:
            return math.nan
        return sum(1 for c in ok if c.flagged) / len(ok)

    @property
    def failed_count(self) -> int:
        return sum(1 for c in self.cells if c.failed)

    def csv_lines(self) -> list[str]:
        if not self.cells:
            return ["t,zeta,flag"]
        na = len(self.cells[0].alpha)
        nx = len(self.cells[0].x)
        header = ("t,"
                  + ",".join(f"alpha{i + 1}" for i in range(na)) + ","
                  + ",".join(f"x{i + 1}" for i in range(nx))
                  + ",zeta,flag")
        lines = [header]
        for c in self.cells:
            flag = 2 if c.failed else (1 if c.flagged else 0)
            zeta = "nan" if c.failed else f"{c.zeta:.17g}"
            lines.append(",".join(
                [f"{c.t:.17g}"]
                + [f"{v:.17g}" for v in c.alpha]
                + [f"{v:.17g}" for v in c.x]
                + [zeta, str(flag)]
            ))
        return lines


def zeta_scan(handle: ObservationMapHandle, t_values, alpha_box, x_box,
              grid, rank_tol: float = 1e-12) -> ZetaScanResult:
    """Evaluate zeta = det(J^T J) on a lattice of (t, alpha, x) points.

    ``t`` scales the sampling spacing (effective spacing t*h). Cells with
    zeta <= rank_tol * sigma_1^(2n) are flagged near-critical; the threshold
    is relative to sigma_1^(2n) because det(J^T J) carries the 2n-th power of
    the problem scale. Integration failures mark the cell failed and the
    scan continues; a sigma_1^(2n) beyond the float range raises RangeError.
    """
    n, k = handle.n_params, handle.sys.state_dim
    alpha_box = [tuple(map(float, b)) for b in alpha_box]
    x_box = [tuple(map(float, b)) for b in x_box]
    if len(alpha_box) != n or len(x_box) != k:
        raise DimensionError("box dimensions must match (n, k)")
    counts = [int(grid)] * (n + k) if np.isscalar(grid) else [int(g) for g in grid]
    if len(counts) != n + k:
        raise DimensionError(f"grid needs {n + k} counts, got {len(counts)}")
    for (lo, hi), c in zip(alpha_box + x_box, counts):
        if not (hi > lo) or c < 2:
            raise DomainError("boxes must be non-degenerate with >= 2 points each")
    t_values = [float(t) for t in t_values]
    total = len(t_values) * math.prod(counts)  # exact: np.prod wraps at 2**63
    if total > DEFAULTS.zeta_budget:
        raise DomainError(f"lattice size {total} exceeds budget {DEFAULTS.zeta_budget}")

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
                                      zeta=math.nan, sigma1=math.nan,
                                      flagged=False, failed=True))
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
                                  zeta=zeta, sigma1=sigma1, flagged=flagged))
    return ZetaScanResult(cells=cells, rank_tol=rank_tol, n_params=n)
