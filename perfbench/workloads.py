"""Seed-generated job lists for the four benchmark workloads.

A job is one CLI verb, or a fixed chain of verbs, run in-process through
``odeident.cli.main``. Its JSON config and the files the CLI writes are named
after the job in one work directory. The program sees only those files; the
facts the checks need (alpha0, planted degeneracies, expected call counts)
stay with the job.

Each workload is a fixed, interleaved mix of job classes. Only the numbers
inside a class vary with the seed, in ranges narrow enough that a class costs
about the same on every seed, so medians stay comparable across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("linear-certify", "poly-scan", "recover", "linear-analyze")

# Max-abs error allowed for fd on dense (m=200, h=0.01) noise-free grids: the
# central difference is O(h^2), which leaves about 1e-4 on these systems.
FD_DENSE_TOL = 2e-3
# Max-abs error allowed for noise-free Gauss-Newton, as in the
# gauss-newton-local-recovery acceptance gate.
GN_TOL = 1e-6


@dataclass
class Job:
    """One unit of benchmark work: CLI argv lists run in order."""

    name: str
    kind: str                   # certify | zeta | recover | analyze
    steps: list                 # argv lists for odeident.cli.main
    outputs: list               # files written by the steps, digested in order
    facts: dict = field(default_factory=dict)
    # (parent, child, per-parent-call count): calls of `child` nested inside
    # each call of `parent` that the traced run must see; `parent` must be
    # called exactly once per job.
    nested: tuple = ()


def _config(root: Path, name: str, payload: dict) -> str:
    path = root / f"{name}.config.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return str(path)


def _conditioned_basis(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random change of basis with condition number at most about 2."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q @ np.diag(rng.uniform(0.8, 1.4, k))


def _similar(rng: np.random.Generator, block: np.ndarray) -> np.ndarray:
    p = _conditioned_basis(rng, block.shape[0])
    return p @ block @ np.linalg.inv(p)


def _pair_block(sigma: float, omega: float) -> np.ndarray:
    return np.array([[sigma, omega], [-omega, sigma]])


def _block_diag(*blocks) -> np.ndarray:
    k = sum(b.shape[0] for b in blocks)
    out = np.zeros((k, k))
    i = 0
    for b in blocks:
        n = b.shape[0]
        out[i:i + n, i:i + n] = b
        i += n
    return out


def _unit(rng: np.random.Generator, k: int) -> list:
    while True:
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        if np.abs(v).min() > 0.2:
            return v.tolist()


def _matrix_system(amat: np.ndarray, x0: list) -> dict:
    k = amat.shape[0]
    return {"species": "matrix_linear", "k": k, "n": k * k,
            "alpha0": amat.tolist(), "x0": x0}


def _term(coeff: float, exps: tuple) -> dict:
    return {"coeff": coeff, "exponents": list(exps)}


LOGISTIC_BASIS = [[[_term(1.0, (1,))]], [[_term(1.0, (2,))]]]
# x' = a1 x + a2 x y,  y' = a3 y + a4 x y
LOTKA_VOLTERRA_BASIS = [
    [[_term(1.0, (1, 0))], []],
    [[_term(1.0, (1, 1))], []],
    [[], [_term(1.0, (0, 1))]],
    [[], [_term(1.0, (1, 1))]],
]


def _poly_system(basis: list, alpha0: list, x0: list) -> dict:
    return {"species": "polynomial_basis", "k": len(x0), "n": len(basis),
            "basis": basis, "alpha0": alpha0, "x0": x0}


# ---------------------------------------------------------------------------
# linear-certify: certify on matrix_linear, k in {2, 3}


def _certify_matrix(rng, k: int, oscillatory: bool) -> np.ndarray:
    if k == 2 and oscillatory:
        block = _pair_block(rng.uniform(-0.3, -0.1), rng.uniform(0.9, 1.3))
    elif k == 2:
        block = np.diag([rng.uniform(-1.1, -0.7), rng.uniform(-0.4, -0.2)])
    elif oscillatory:
        block = _block_diag(_pair_block(rng.uniform(-0.3, -0.1), rng.uniform(0.9, 1.3)),
                            np.array([[rng.uniform(-0.8, -0.4)]]))
    else:
        block = np.diag([rng.uniform(-1.1, -0.8), rng.uniform(-0.6, -0.4),
                         rng.uniform(-0.3, -0.15)])
    return _similar(rng, block)


# Oscillatory jobs cost about 1.3 times stable ones. They are two classes in
# three, so the median and the p65 tail fall inside the oscillatory cluster
# of job times, not on the edge between the two clusters, where a few jobs
# more or less of one kind would move them.
CERTIFY_CLASSES = ((2, True), (3, True), (2, False), (2, True), (3, True), (3, False))


def _certify_job(rng, root: Path, name: str, k: int, oscillatory: bool) -> Job:
    gamma_samples, pairs = 12, 60
    cfg = {
        "system": _matrix_system(_certify_matrix(rng, k, oscillatory), _unit(rng, k)),
        "observation": {"h": rng.uniform(0.27, 0.33), "m": k + 3, "tol": 1e-9},
        "solver": {"r_work": 0.3, "gamma_samples": gamma_samples, "safety": 1.5,
                   "verify_pairs": pairs, "seed": int(rng.integers(1 << 30))},
    }
    config, out = _config(root, name, cfg), root / f"{name}.certificate.json"
    return Job(name=name, kind="certify",
               steps=[["certify", "--config", config, "--out", str(out)]],
               outputs=[out], facts={"pairs": pairs},
               nested=(("obsmap.verify_lower_bound", "obsmap.phi", 2 * (pairs - 1)),
                       ("obsmap.certify_radius", "obsmap.phi_jacobian",
                        1 + 2 * gamma_samples)))


# ---------------------------------------------------------------------------
# poly-scan: zeta-scan on polynomial_basis systems


def _scan_job(rng, root: Path, name: str, species: str) -> Job:
    if species == "logistic":
        # a1 in ~[0.5, 1.5], a2 in ~[-1.5, -0.5], |x| <= 0.25: the box stays
        # below the equilibrium line x = -a1/a2 >= 1/3, so only x = 0 is
        # rank deficient (as in the zeta-scan-genericity gate).
        s1, s2 = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        alpha_box = [[0.5 + s1, 1.5 + s1], [-1.5 + s2, -0.5 + s2]]
        half = rng.uniform(0.15, 0.25)
        x_box = [[-half, half]]
        grid = [5, 5, 5]
        # alpha0 and x0 are required by the config; the scan uses the boxes
        system = _poly_system(LOGISTIC_BASIS, [1.0, -1.0], [0.1])
    else:
        # prey/predator box away from the equilibrium (-a3/a4, -a1/a2) and
        # with the prey-free plane x = 0 on the lattice
        alpha_box = [[lo * c, hi * c] for (lo, hi), c in
                     zip(((0.8, 1.2), (-0.6, -0.4), (-1.2, -0.8), (0.4, 0.6)),
                         rng.uniform(0.9, 1.1, 4).tolist())]
        half, y_lo = rng.uniform(0.25, 0.35), rng.uniform(0.25, 0.35)
        x_box = [[-half, half], [y_lo, y_lo + 0.5]]
        grid = [2, 2, 2, 2, 3, 2]
        system = _poly_system(LOTKA_VOLTERRA_BASIS, [1.0, -0.5, -1.0, 0.5], [0.5, 0.5])
    t_values = [1.0]
    cells = len(t_values) * int(np.prod(grid))
    cfg = {
        "system": system,
        "observation": {"h": rng.uniform(0.18, 0.22), "m": 3, "tol": 1e-8},
        "solver": {"scan": {"t_values": t_values, "alpha_box": alpha_box,
                            "x_box": x_box, "grid": grid, "rank_tol": 1e-12}},
    }
    config, out = _config(root, name, cfg), root / f"{name}.scan.csv"
    return Job(name=name, kind="zeta",
               steps=[["zeta-scan", "--config", config, "--out", str(out)]],
               outputs=[out], facts={"species": species, "cells": cells},
               nested=(("obsmap.zeta_scan", "obsmap.phi_jacobian", cells),))


SCAN_CLASSES = ("logistic", "lotka-volterra", "logistic")


# ---------------------------------------------------------------------------
# recover: simulate -> invert fd -> invert gn


def _recover_system(rng, species: str) -> tuple[dict, list]:
    if species == "logistic":
        alpha0 = [rng.uniform(0.8, 1.2), -rng.uniform(0.8, 1.2)]
        return _poly_system(LOGISTIC_BASIS, alpha0, [rng.uniform(0.08, 0.12)]), alpha0
    if species == "lotka-volterra":
        alpha0 = [rng.uniform(0.9, 1.1), -rng.uniform(0.45, 0.55),
                  -rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.55)]
        x0 = [rng.uniform(1.2, 1.5), rng.uniform(0.6, 0.9)]
        return _poly_system(LOTKA_VOLTERRA_BASIS, alpha0, x0), alpha0
    amat = _pair_block(rng.uniform(-0.15, -0.05), rng.uniform(0.9, 1.1))
    return _matrix_system(amat, _unit(rng, 2)), amat.ravel().tolist()


def _recover_job(rng, root: Path, name: str, species: str, dense: bool,
                 noisy: bool) -> Job:
    system, alpha0 = _recover_system(rng, species)
    direction = rng.standard_normal(len(alpha0))
    direction /= np.linalg.norm(direction)
    init = (np.array(alpha0) + 0.005 * direction).tolist()
    # Dense grids pin the step size to the output spacing; sparse grids run a
    # longer horizon at a tighter tolerance, so both kinds cost about the same.
    h, m, tol = (0.01, 200, 1e-10) if dense else (0.5, 8, 1e-11)
    cfg = {
        "system": system,
        "observation": {"h": h, "m": m, "tol": tol},
        "noise": {"sigma": 1e-5 if noisy else 0.0, "seed": int(rng.integers(1 << 30))},
        "solver": {"init": init},
    }
    config = _config(root, name, cfg)
    obs, fd, gn = (root / f"{name}.{suffix}" for suffix in ("obs.csv", "fd.json", "gn.json"))
    return Job(name=name, kind="recover",
               steps=[["simulate", "--config", config, "--out", str(obs)],
                      ["invert", "--config", config, "--obs", str(obs),
                       "--mode", "fd", "--out", str(fd)],
                      ["invert", "--config", config, "--obs", str(obs),
                       "--mode", "gn", "--out", str(gn)]],
               outputs=[obs, fd, gn],
               facts={"alpha0": alpha0, "m": m, "dense": dense, "noisy": noisy})


# Every species on sparse grids, with and without noise, and dense grids for
# the two cheaper species. Dense logistic, dense noisy rotation and
# Lotka-Volterra chains cost 1.5 to 3 times the others, so they are three
# classes in sixteen, spread through the cycle: the median and the p70 tail
# then fall inside the main cluster of job times, not on the edge of the slow
# one. Each class is (species, dense grid, noisy).
_LS, _LSN, _LD = ("logistic", False, False), ("logistic", False, True), ("logistic", True, False)
_RS, _RSN = ("rotation", False, False), ("rotation", False, True)
_RD, _RDN = ("rotation", True, False), ("rotation", True, True)
RECOVER_CLASSES = (_LS, _RD, _LD, _RSN, _LSN, _RS, _RD, _RDN,
                   _LSN, _RS, _LS, _RD, ("lotka-volterra", False, False), _RSN, _LSN, _RS)


# ---------------------------------------------------------------------------
# linear-analyze: analyze-linear with planted aliasing and repeated spectra


def _analyze_matrix(rng, shape: str) -> np.ndarray:
    sig = lambda: rng.uniform(-0.4, -0.1)  # noqa: E731
    if shape == "two-pairs":
        blocks = [_pair_block(sig(), rng.uniform(0.8, 1.2)),
                  _pair_block(sig(), rng.uniform(1.8, 2.4))]
    elif shape == "pair-aliased":
        # omega = pi/h with h = 1: the pair differs by 2*pi*i/h
        blocks = [_pair_block(sig(), math.pi), _pair_block(sig(), rng.uniform(0.8, 1.2))]
    elif shape == "cross-aliased":
        # two pairs with equal real part, imaginary parts 2*pi/h apart
        s, w = sig(), rng.uniform(0.6, 1.0)
        blocks = [_pair_block(s, w), _pair_block(s, w + 2.0 * math.pi)]
    elif shape == "repeated":
        # the same pair twice: diagonalizable, but eigenvalues repeat
        blocks = [_pair_block(sig(), rng.uniform(0.8, 1.2))] * 2
    elif shape == "pair-real":
        blocks = [_pair_block(sig(), rng.uniform(0.8, 1.2)),
                  np.array([[rng.uniform(-0.9, -0.5)]])]
    else:
        blocks = [_pair_block(sig(), rng.uniform(0.8, 1.2))]
    return _similar(rng, _block_diag(*blocks))


# k = 4 except pair-real (k = 3) and pair (k = 2)
ANALYZE_CLASSES = ("two-pairs", "pair-aliased", "cross-aliased", "pair-real",
                   "repeated", "pair")


def _analyze_job(rng, root: Path, name: str, shape: str) -> Job:
    amat = _analyze_matrix(rng, shape)
    k = amat.shape[0]
    pairs = k // 2
    # 81 branches whether the matrix has one conjugate pair or two
    k_max = 4 if pairs == 2 else 40
    cfg = {
        "system": _matrix_system(amat, _unit(rng, k)),
        # the loose tolerance keeps full_rank_check's one Jacobian cheap, so
        # linearcase and numkernel carry most of the job
        "observation": {"h": 1.0, "m": k, "tol": 1e-5},
        "solver": {"k_max": k_max},
    }
    config, out = _config(root, name, cfg), root / f"{name}.analysis.json"
    return Job(name=name, kind="analyze",
               steps=[["analyze-linear", "--config", config, "--out", str(out)]],
               outputs=[out],
               facts={"shape": shape, "branches": (2 * k_max + 1) ** pairs},
               nested=(("linearcase.full_rank_check", "obsmap.phi_jacobian", 1),))


# ---------------------------------------------------------------------------


PLANS = {
    # (classes, job builder, jobs per list); classes are interleaved so a
    # partly finished pass over the list keeps the class mix.
    "linear-certify": (CERTIFY_CLASSES, _certify_job, 24),
    "poly-scan": (SCAN_CLASSES, _scan_job, 30),
    # three cycles: Gauss-Newton's rejected steps vary with the input, so a
    # run averages over more instances
    "recover": (RECOVER_CLASSES, _recover_job, 48),
    "linear-analyze": (ANALYZE_CLASSES, _analyze_job, 120),
}


def _class_args(cls) -> tuple:
    return cls if isinstance(cls, tuple) else (cls,)


def generate(workload: str, seed: int, root: Path) -> tuple[Job, list]:
    """(warm-up job, job list) for one workload, written under ``root``."""
    classes, build, count = PLANS[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    warmup = build(rng, root, "warmup", *_class_args(classes[0]))
    jobs = [build(rng, root, f"job{i:03d}", *_class_args(classes[i % len(classes)]))
            for i in range(count)]
    return warmup, jobs
