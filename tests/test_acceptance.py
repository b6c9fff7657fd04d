"""Acceptance gate: every criterion as a test that prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each item runs in well under a minute on a laptop.
"""

import json
import math

import numpy as np

from conftest import ROTATION, finite_difference_jacobian, grid_handle, scalar_map
from odeident import (
    MatrixLinear,
    ObservationMapHandle,
    PolynomialBasis,
    add_noise,
    certify_radius,
    degeneracy_report,
    fd_linear_estimate,
    gauss_newton_invert,
    integrate,
    integrate_with_sensitivity,
    krylov_rank,
    log_branches,
    mat_exp,
    phi,
    exp_divided_difference_determinant,
    sylvester_resultant,
    verify_lower_bound,
    zeta_scan,
)
from odeident.cli import main
from odeident.linearcase import characteristic_poly, discriminant_closed_form

# the closed-form discriminant is this sign times the Sylvester resultant of (P, P')
CLOSED_FORM_SIGN = {2: -1.0, 3: 1.0}


def _gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def scalar_decay_map(tol=1e-10):
    sys = PolynomialBasis([scalar_map([(1.0, 1)])])
    return ObservationMapHandle(sys=sys, x0=np.array([1.0]), h=0.5, m=5, tol=tol), \
        np.array([-0.5])


def rotation_map(tol=1e-10):
    return ObservationMapHandle(sys=MatrixLinear(2), x0=np.array([1.0, 0.7]),
                                h=0.3, m=6, tol=tol), MatrixLinear.pack(ROTATION)


def logistic_sys():
    return PolynomialBasis([scalar_map([(1.0, 1)]), scalar_map([(1.0, 2)])])


def test_rotation_branch_family():
    result = log_branches(ROTATION, h=1.0, k_max=2)
    base_exp = mat_exp(ROTATION, 1.0)
    ok = len(result.branches) == 5 and result.k_vectors == tuple(
        (k,) for k in range(-2, 3)
    )
    worst_entry = worst_exp = 0.0
    for branch, (k,) in zip(result.branches, result.k_vectors):
        w = 1.0 + 2.0 * math.pi * k
        expected = np.array([[0.0, w], [-w, 0.0]])
        worst_entry = max(worst_entry, float(np.abs(branch - expected).max()))
        worst_exp = max(worst_exp,
                        float(np.abs(mat_exp(branch, 1.0) - base_exp).max()))
    ok = ok and worst_entry <= 1e-9 and worst_exp <= 1e-9
    _gate("rotation-branch-family", ok,
          f"branches={len(result.branches)} entry_err={worst_entry:.2e} "
          f"exp_err={worst_exp:.2e}")


def test_discriminant_identities():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for k in (2, 3):
        sign = CLOSED_FORM_SIGN[k]
        for _ in range(1000):
            a = rng.normal(size=(k, k)) * rng.uniform(0.3, 3.0)
            p = characteristic_poly(a)
            res = sylvester_resultant(p, p.derivative())
            closed = discriminant_closed_form(a)
            scale = max(abs(res), abs(closed), 1e-12)
            worst_rel = max(worst_rel, abs(closed - sign * res) / scale)

    worst_planted = 0.0
    for k in (2, 3):
        for _ in range(200):
            lam = rng.uniform(-2.0, 2.0)
            core = np.diag(np.full(k, lam))
            core[0, 1] = 1.0
            if k == 3:
                core[2, 2] = lam + rng.uniform(0.5, 2.0)
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            a = q @ core @ q.T
            scale = max(1.0, np.linalg.norm(a)) ** (2 * k)
            worst_planted = max(worst_planted,
                                abs(discriminant_closed_form(a)) / scale)
    ok = worst_rel <= 1e-8 and worst_planted <= 1e-8
    _gate("discriminant-identities", ok,
          f"worst_rel={worst_rel:.2e} worst_planted={worst_planted:.2e}")


def test_exp_divided_difference_determinant_oracle():
    rng = np.random.default_rng(77)
    done = 0
    worst_rel = 0.0
    min_abs = math.inf
    while done < 100:
        n = int(rng.integers(2, 7))
        lam = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
        if min(abs(lam[i] - lam[j]) for i in range(n)
               for j in range(i + 1, n)) < 0.3:
            continue
        numeric, closed = exp_divided_difference_determinant(lam)
        worst_rel = max(worst_rel, abs(numeric - closed) / abs(numeric))
        min_abs = min(min_abs, abs(numeric))
        done += 1
    ok = worst_rel <= 1e-6 and min_abs > 1e-10
    _gate("divided-difference-determinant-oracle", ok,
          f"worst_rel={worst_rel:.2e} min_abs={min_abs:.2e}")


def test_sensitivity_correctness():
    cases = [
        (PolynomialBasis([scalar_map([(1.0, 1)])]), [-0.5], [1.0]),
        (logistic_sys(), [1.0, -1.0], [0.5]),
        (MatrixLinear(2), MatrixLinear.pack(ROTATION), [1.0, 0.7]),
    ]
    tol = 1e-10
    worst = 0.0
    for sys, alpha, x0 in cases:
        alpha = np.asarray(alpha, dtype=float)
        bundle = integrate_with_sensitivity(grid_handle(sys, x0, 2.0, 4, tol), alpha)
        stacked = bundle.jacobian

        def phi_like(a, _sys=sys, _x0=x0):
            return integrate(grid_handle(_sys, _x0, 2.0, 4, tol), a).states.ravel()

        fd = finite_difference_jacobian(phi_like, alpha, step=1e-5)
        rel = np.linalg.norm(stacked - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    ok = worst <= 1e-4
    _gate("sensitivity-correctness", ok, f"worst_rel={worst:.2e}")


def test_certificate_soundness():
    details = []
    ok = True
    for label, (handle, alpha0), r_work in (
        ("scalar", scalar_decay_map(tol=1e-10), 0.3),
        ("rotation", rotation_map(tol=1e-9), 0.5),
    ):
        cert = certify_radius(handle, alpha0, r_work=r_work, gamma_samples=12,
                              safety=1.5, seed=0)
        report = verify_lower_bound(handle, cert, pair_count=10_000, seed=314)
        ok = ok and report.violations == 0 and report.worst_ratio >= (
            cert.lipschitz_lower - 1e-6 * math.sqrt(cert.beta)
        )
        details.append(f"{label}: viol={report.violations} "
                       f"worst={report.worst_ratio:.4f} bound={cert.lipschitz_lower:.4f}")
    _gate("certificate-soundness", ok, "; ".join(details))


def test_fd_estimator_order():
    sys = logistic_sys()
    dts = [0.04, 0.02, 0.01, 0.005]
    errors = []
    for dt in dts:
        handle = ObservationMapHandle(sys=sys, x0=[0.1], h=dt, m=int(round(4.0 / dt)),
                                      tol=1e-12)
        res = fd_linear_estimate(handle, phi(handle, [1.0, -1.0]))
        errors.append(np.abs(res.alpha_hat - [1.0, -1.0]).max())
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = 1.8 <= slope <= 2.2 and errors[-1] <= 1e-3
    _gate("fd-estimator-order", ok,
          f"slope={slope:.3f} err@0.005={errors[-1]:.2e}")


def test_gauss_newton_local_recovery():
    details = []
    failures = 0
    for label, (handle, alpha0), r_work in (
        ("scalar", scalar_decay_map(tol=1e-10), 0.3),
        ("rotation", rotation_map(tol=1e-10), 0.5),
    ):
        cert = certify_radius(handle, alpha0, r_work=r_work, gamma_samples=12,
                              safety=1.5, seed=0)
        y_obs = phi(handle, alpha0)
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(20):
            direction = rng.standard_normal(alpha0.shape[0])
            direction /= np.linalg.norm(direction)
            radius = 0.5 * cert.r_cert * rng.uniform() ** (1.0 / alpha0.shape[0])
            init = alpha0 + radius * direction
            result = gauss_newton_invert(handle, y_obs, init)
            err = float(np.abs(result.alpha_hat - alpha0).max())
            worst = max(worst, err)
            if not result.converged or err > 1e-6:
                failures += 1
        details.append(f"{label}: worst={worst:.2e} r_cert={cert.r_cert:.3g}")
    ok = failures == 0
    _gate("gauss-newton-local-recovery", ok,
          f"failures={failures}; " + "; ".join(details))


def test_aliasing_detection():
    aliased = degeneracy_report(2.0 * math.pi * ROTATION, [1.0, 0.0], h=1.0)
    clean = degeneracy_report(ROTATION, [1.0, 0.0], h=1.0)
    ok = (not aliased.in_set_A
          and any(k == 2 for _, _, k in aliased.aliasing_pairs)
          and clean.in_set_A
          and clean.aliasing_pairs == ())
    _gate("aliasing-detection", ok,
          f"aliased_pairs={list(aliased.aliasing_pairs)} "
          f"clean_pairs={list(clean.aliasing_pairs)}")


def test_krylov_e_set():
    rng = np.random.default_rng(23)
    done = 0
    mistakes = 0
    while done < 100:
        v = rng.normal(size=(3, 3))
        if np.linalg.cond(v) > 20.0:
            continue
        lams = np.sort(rng.uniform(-1.0, 1.0, size=3))
        if np.min(np.diff(lams)) < 0.4:
            continue
        a = v @ np.diag(lams) @ np.linalg.inv(v)
        c = mat_exp(a, 1.0)
        coeffs = rng.uniform(0.5, 1.5, size=3)
        planted = coeffs[0] * v[:, 0] + coeffs[1] * v[:, 1]
        generic = v @ coeffs
        if krylov_rank(c, planted) >= 3:
            mistakes += 1
        if krylov_rank(c, generic) < 3:
            mistakes += 1
        done += 1
    ok = mistakes == 0
    _gate("krylov-e-set", ok, f"cases={done} mistakes={mistakes}")


def test_zeta_scan_genericity():
    handle = ObservationMapHandle(sys=logistic_sys(), x0=np.array([0.1]),
                                  h=0.2, m=3, tol=1e-8)
    alpha_box = [(0.5, 1.5), (-1.5, -0.5)]
    # boxes stay below the equilibrium line x = -a1/a2 >= 1/3, where the
    # Jacobian genuinely loses rank
    clean = zeta_scan(handle, [1.0], alpha_box, [(0.02, 0.3)], [11, 11, 11],
                      rank_tol=1e-12)
    plane = zeta_scan(handle, [1.0], alpha_box, [(-0.25, 0.25)], [11, 11, 11],
                      rank_tol=1e-12)
    plane_cells = [c for c in plane.cells if c.x[0] == 0.0]
    exact = all(c.flagged == (c.x[0] == 0.0) for c in plane.cells)
    ok = (clean.flagged_fraction == 0.0 and clean.failed_count == 0
          and len(plane_cells) == 121 and exact)
    _gate("zeta-scan-genericity", ok,
          f"clean_frac={clean.flagged_fraction} plane_exact={exact}")


def test_end_to_end_determinism(tmp_path):
    cfg = {
        "system": {"species": "polynomial_basis", "k": 1, "n": 2,
                   "basis": [[[{"coeff": 1.0, "exponents": [1]}]],
                             [[{"coeff": 1.0, "exponents": [2]}]]],
                   "alpha0": [1.0, -1.0], "x0": [0.1]},
        "observation": {"h": 0.01, "m": 200, "tol": 1e-12},
        "noise": {"sigma": 1e-4, "seed": 99},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = []
    for tag in ("a", "b"):
        obs = tmp_path / f"obs_{tag}.csv"
        out = tmp_path / f"est_{tag}.json"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(obs)]) == 0
        assert main(["invert", "--config", str(cfg_path), "--obs", str(obs),
                     "--mode", "fd", "--out", str(out)]) == 0
        runs.append(obs.read_bytes() + out.read_bytes())
    identical = runs[0] == runs[1]

    handle = ObservationMapHandle(sys=PolynomialBasis([scalar_map([(1.0, 1)])]), x0=[1.0],
                                  h=0.01, m=100, tol=1e-12)
    y = phi(handle, [-0.5])
    sigmas = [1e-4, 1e-3, 1e-2]
    means = []
    for sigma in sigmas:
        errs = [abs(fd_linear_estimate(handle, add_noise(y, sigma, seed))
                    .alpha_hat[0] + 0.5) for seed in range(50)]
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sigmas), np.log(means), 1)[0])
    ok = identical and 0.8 <= slope <= 1.2
    _gate("end-to-end-determinism", ok,
          f"bytes_identical={identical} noise_slope={slope:.3f}")
