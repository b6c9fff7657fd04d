"""Config-driven command-line pipelines.

Verbs: ``simulate | certify | analyze-linear | invert | zeta-scan``. Every
experiment is fully described by one JSON config file (schema below); no
model data is defaulted. Reports are machine-first (JSON/CSV) with a short
human summary on stdout, and every JSON output embeds the config digest and
toolkit version.

Config schema::

    {
      "system": {
        "species": "matrix_linear" | "polynomial_basis",
        "k": <state dim>, "n": <param dim>,
        "alpha0": <k x k nested list | flat length-n list>,
        "x0": <length-k list>,
        "basis": [<map>, ...]            # polynomial_basis only; each map is
                                         # a list of k components, each a list
                                         # of {"coeff": c, "exponents": [...]}
      },
      "observation": {"h": .., "m": .., "tol": ..},
      "noise": {"sigma": .., "seed": ..},              # optional
      "solver": {                                      # optional
        "r_work": .., "gamma_samples": .., "safety": .., "seed": ..,
        "verify_pairs": .., "k_max": .., "init": [..],
        "gauss_newton": {"max_iter": .., "step_tol": .., "grad_tol": ..,
                          "damping": ..},
        "scan": {"t_values": [..], "alpha_box": [[lo,hi],..],
                 "x_box": [[lo,hi],..], "grid": [..], "rank_tol": ..}
      }
    }

Exit codes: 0 success, 2 input error, 3 numerical/integration failure,
4 not identifiable, 5 non-convergence or rank deficiency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULTS
from .errors import (
    ConvergenceError,
    DefectiveMatrixError,
    DimensionError,
    DomainError,
    InputFormatError,
    IntegrationError,
    NotIdentifiableError,
    RangeError,
)
from .estimate import (
    GaussNewtonOptions,
    ObservationGrid,
    add_noise,
    fd_linear_estimate,
    gauss_newton_invert,
)
from .linearcase import (
    degeneracy_report,
    exp_divided_difference_determinant,
    full_rank_check,
    log_branches,
)
from .numkernel import as_square
from .obsmap import ObservationMapHandle, certify_radius, verify_lower_bound, zeta_scan
from .ode import (
    MatrixLinear,
    ParamSystem,
    PolyMap,
    PolynomialBasis,
    integrate,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NOT_IDENTIFIABLE = 4
EXIT_NOT_CONVERGED = 5


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


# ---------------------------------------------------------------------------
# config loading


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{path}.{key}'")
    return mapping[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list")
    return value


def _as_float(value, path: str) -> float:
    # the comparison is exact for ints of any size and false for nan
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{path}' must be a finite number")
    return float(value)


def _as_int(value, path: str, minimum: int | None = None,
            maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or abs(value) >= 2 ** 63:
        raise ConfigError(f"'{path}' must be a 64-bit integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{path}' must be <= {maximum}")
    return value


def _as_array(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{path}' must be numeric") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"'{path}' must be finite")
    return arr


def _basis_system(basis, k: int, n: int) -> PolynomialBasis:
    if not isinstance(basis, list) or len(basis) != n:
        raise ConfigError(f"system.basis must list n={n} maps")
    maps = []
    for mi, comp_list in enumerate(basis):
        path = f"system.basis[{mi}]"
        comps = []
        for ci, component in enumerate(_as_list(comp_list, path)):
            terms = []
            for ti, term in enumerate(_as_list(component, f"{path}[{ci}]")):
                tpath = f"{path}[{ci}][{ti}]"
                term = _as_dict(term, tpath)
                coeff = _as_float(_require(term, "coeff", tpath), f"{tpath}.coeff")
                exps = _as_list(_require(term, "exponents", tpath), f"{tpath}.exponents")
                terms.append((coeff, tuple(_as_int(e, f"{tpath}.exponents", 0)
                                           for e in exps)))
            comps.append(terms)
        try:
            maps.append(PolyMap(k, comps))
        except (DomainError, DimensionError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        return PolynomialBasis(maps)
    except (DomainError, DimensionError) as exc:
        raise ConfigError(f"system.basis: {exc}") from exc


def _gauss_newton_options(gn) -> GaussNewtonOptions:
    path = "solver.gauss_newton"
    gn = _as_dict(gn, path)
    d = GaussNewtonOptions()
    try:
        return GaussNewtonOptions(
            max_iter=_as_int(gn.get("max_iter", d.max_iter), f"{path}.max_iter"),
            step_tol=_as_float(gn.get("step_tol", d.step_tol), f"{path}.step_tol"),
            grad_tol=_as_float(gn.get("grad_tol", d.grad_tol), f"{path}.grad_tol"),
            damping=_as_float(gn.get("damping", d.damping), f"{path}.damping"),
        )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _scan_block(scan) -> dict:
    path = "solver.scan"
    scan = _as_dict(scan, path)
    out = {"t_values": _as_array(_require(scan, "t_values", path),
                                 f"{path}.t_values").reshape(-1)}
    for key in ("alpha_box", "x_box"):
        box = _as_array(_require(scan, key, path), f"{path}.{key}")
        if box.ndim != 2 or box.shape[1] != 2:
            raise ConfigError(f"'{path}.{key}' must be a list of [lo, hi] pairs")
        out[key] = box
    grid = _require(scan, "grid", path)
    out["grid"] = ([_as_int(g, f"{path}.grid") for g in grid] if isinstance(grid, list)
                   else _as_int(grid, f"{path}.grid"))
    out["rank_tol"] = _as_float(scan.get("rank_tol", 1e-12), f"{path}.rank_tol")
    return out


@dataclass
class ExperimentConfig:
    digest: str
    species: str
    k: int
    n: int
    system: ParamSystem
    alpha0: np.ndarray          # flat parameter vector, length n
    x0: np.ndarray
    h: float
    m: int
    tol: float
    sigma: float
    seed: int
    solver: dict                # solver scalars, validated, defaults filled in
    init: np.ndarray | None     # solver.init, flat length n
    gn_options: GaussNewtonOptions
    scan: dict | None           # validated solver.scan block

    def build_handle(self) -> ObservationMapHandle:
        return ObservationMapHandle(sys=self.system, x0=self.x0, h=self.h, m=self.m,
                                    tol=self.tol)


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; every malformed input is a ConfigError."""
    raw_bytes = Path(path).read_bytes()
    try:
        raw = json.loads(raw_bytes)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"parse error: {exc}") from exc
    raw = _as_dict(raw, "config root")
    digest = hashlib.sha256(raw_bytes).hexdigest()

    system = _as_dict(_require(raw, "system", ""), "system")
    species = _require(system, "species", "system")
    if species not in ("matrix_linear", "polynomial_basis"):
        raise ConfigError(f"unknown species '{species}'")
    k = _as_int(_require(system, "k", "system"), "system.k", 1)
    n = _as_int(_require(system, "n", "system"), "system.n", 1)
    if species == "matrix_linear":
        if n != k * k:
            raise ConfigError(f"matrix_linear requires n = k^2, got n={n}, k={k}")
        model = MatrixLinear(k)
    else:
        model = _basis_system(_require(system, "basis", "system"), k, n)

    alpha0 = _as_array(_require(system, "alpha0", "system"), "system.alpha0")
    if species == "matrix_linear" and alpha0.shape not in ((k, k), (k * k,)):
        raise ConfigError(
            f"system.alpha0 must be {k}x{k} (or flat length {k * k}), "
            f"got shape {alpha0.shape}"
        )
    alpha0 = alpha0.reshape(-1)
    if alpha0.shape[0] != n:
        raise ConfigError(f"system.alpha0 must have length n={n}")
    x0 = _as_array(_require(system, "x0", "system"), "system.x0").reshape(-1)
    if x0.shape[0] != k:
        raise ConfigError(f"system.x0 must have length k={k}, got {x0.shape[0]}")

    obs = _as_dict(_require(raw, "observation", ""), "observation")
    h = _as_float(_require(obs, "h", "observation"), "observation.h")
    m = _as_int(_require(obs, "m", "observation"), "observation.m", 1)
    tol = _as_float(obs.get("tol", DEFAULTS.integrator_tol), "observation.tol")
    if h <= 0.0:
        raise ConfigError("observation.h must be > 0")

    noise = _as_dict(raw.get("noise", {}), "noise")
    sigma = _as_float(noise.get("sigma", 0.0), "noise.sigma")
    seed = _as_int(noise.get("seed", 0), "noise.seed", 0)
    if sigma < 0.0:
        raise ConfigError("noise.sigma must be >= 0")
    if seed_override is not None:
        seed = _as_int(seed_override, "--seed", 0)

    raw_solver = _as_dict(raw.get("solver", {}), "solver")
    solver_seed = raw_solver.get("seed", 0) if seed_override is None else seed_override
    solver = {
        "r_work": _as_float(raw_solver.get("r_work", 0.5), "solver.r_work"),
        # certify evaluates every sample and pair, so the counts are bounded
        "gamma_samples": _as_int(raw_solver.get("gamma_samples", 32),
                                 "solver.gamma_samples", maximum=DEFAULTS.certify_budget),
        "safety": _as_float(raw_solver.get("safety", DEFAULTS.gamma_safety),
                            "solver.safety"),
        "seed": _as_int(solver_seed, "solver.seed", 0),
        "verify_pairs": _as_int(raw_solver.get("verify_pairs", 1000),
                                "solver.verify_pairs", maximum=DEFAULTS.certify_budget),
        "k_max": _as_int(raw_solver.get("k_max", DEFAULTS.k_max), "solver.k_max"),
    }
    init = None
    if "init" in raw_solver:
        init = _as_array(raw_solver["init"], "solver.init").reshape(-1)
        if init.shape[0] != n:
            raise ConfigError(f"solver.init must have length n={n}")
    gn_options = _gauss_newton_options(raw_solver.get("gauss_newton", {}))
    scan = _scan_block(raw_solver["scan"]) if "scan" in raw_solver else None

    return ExperimentConfig(digest=digest, species=species, k=k, n=n, system=model,
                            alpha0=alpha0, x0=x0, h=h, m=m, tol=tol, sigma=sigma,
                            seed=seed, solver=solver, init=init,
                            gn_options=gn_options, scan=scan)


# ---------------------------------------------------------------------------
# output helpers


def _write_json(path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = dict(payload)
    payload["toolkit_version"] = __version__
    payload["config_digest"] = cfg.digest
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands: each takes the loaded config and the parsed arguments


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    traj = integrate(cfg.system, cfg.alpha0, cfg.x0, t_end=cfg.h * cfg.m,
                     samples=cfg.m, tol=cfg.tol)
    grid = ObservationGrid.from_trajectory(traj)
    if cfg.sigma > 0.0:
        grid = add_noise(grid, cfg.sigma, cfg.seed)
    write_trajectory_csv(args.out, grid.times, grid.values)
    print(f"simulate: wrote {cfg.m} samples (h={cfg.h:g}, sigma={cfg.sigma:g}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_certify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    handle = cfg.build_handle()
    solver = cfg.solver
    try:
        cert = certify_radius(handle, cfg.alpha0, r_work=solver["r_work"],
                              gamma_samples=solver["gamma_samples"],
                              safety=solver["safety"], seed=solver["seed"])
    except NotIdentifiableError as exc:
        _write_json(args.out, {"not_identifiable": True,
                               "diagnostics": exc.diagnostics}, cfg)
        print(f"certify: NOT identifiable: {exc}")
        return EXIT_NOT_IDENTIFIABLE
    report = verify_lower_bound(handle, cert, pair_count=solver["verify_pairs"],
                                seed=solver["seed"])
    _write_json(args.out, {"certificate": cert.to_dict(),
                           "verification": report.to_dict()}, cfg)
    print(f"certify: beta={cert.beta:.6g} gamma={cert.gamma:.6g} "
          f"r_cert={cert.r_cert:.6g}; verified {report.pairs_tested} pairs, "
          f"{report.violations} violations")
    return EXIT_OK


def cmd_analyze_linear(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if cfg.species != "matrix_linear":
        raise ConfigError("analyze-linear requires the matrix_linear species")
    k_max = cfg.solver["k_max"] if args.kmax is None else args.kmax
    amat = as_square(cfg.alpha0.reshape(cfg.k, cfg.k))
    report = degeneracy_report(amat, cfg.x0, cfg.h)
    try:
        branches = log_branches(amat, cfg.h, k_max=k_max)
        branch_dict = branches.to_dict()
        n_branches = len(branches.branches)
    except DefectiveMatrixError:
        branch_dict = None
        n_branches = 0
    rank_report = full_rank_check(amat, cfg.x0, cfg.h, cfg.m, tol=cfg.tol)
    divdiff = None
    if not report.double_eigenvalue and cfg.k >= 2:
        try:
            numeric, closed = exp_divided_difference_determinant(report.eigenvalues)
            divdiff = {"numeric": [numeric.real, numeric.imag],
                       "closed_form": [closed.real, closed.imag]}
        except DomainError:
            pass
    _write_json(args.out, {
        "degeneracy": report.to_dict(),
        "branches": branch_dict,
        "full_rank": rank_report.to_dict(),
        "divided_difference_determinant": divdiff,
    }, cfg)
    print(f"analyze-linear: in_set_A={report.in_set_A} "
          f"aliasing={len(report.aliasing_pairs)} x0_in_E={report.x0_in_E} "
          f"branches={n_branches} full_rank={rank_report.full}")
    return EXIT_OK


def cmd_invert(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    grid = ObservationGrid.from_csv(args.obs)
    if grid.values.shape[1] != cfg.k:
        raise ConfigError(
            f"observations have {grid.values.shape[1]} state columns, "
            f"config expects k={cfg.k}"
        )

    if args.mode == "fd":
        result = fd_linear_estimate(grid, cfg.system)
    else:
        handle = cfg.build_handle()
        if (grid.times.shape[0] != cfg.m
                or abs(grid.delta_t - cfg.h) > 1e-9 * cfg.h
                or abs(grid.times[0] - cfg.h) > 1e-9 * cfg.h):
            raise ConfigError(
                "observation grid does not match the configured (h, m)"
            )
        if cfg.init is None:
            raise ConfigError("solver.init is required for gauss-newton inversion")
        result = gauss_newton_invert(handle, grid.values.ravel(), cfg.init,
                                     options=cfg.gn_options)

    _write_json(args.out, {"mode": args.mode, "result": result.to_dict()}, cfg)
    ok = result.converged and not result.rank_deficient
    status = "converged" if result.converged else "NOT converged"
    if result.rank_deficient:
        status += ", rank deficient"
    print(f"invert[{args.mode}]: {status}; residual={result.residual:.6g} "
          f"iterations={result.iterations}")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_zeta_scan(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    scan = cfg.scan
    if scan is None:
        raise ConfigError("solver.scan block is required for zeta-scan")
    result = zeta_scan(cfg.build_handle(), scan["t_values"], scan["alpha_box"],
                       scan["x_box"], scan["grid"], rank_tol=scan["rank_tol"])
    Path(args.out).write_text("\n".join(result.csv_lines()) + "\n")
    frac = result.flagged_fraction
    print(f"zeta-scan: {len(result.cells)} cells, flagged fraction "
          f"{frac if math.isnan(frac) else round(frac, 6)}, "
          f"{result.failed_count} failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# (verb, help, extra arguments beyond --config/--out/--seed, handler)
_VERBS = (
    ("simulate", "integrate and write the sample CSV", (), cmd_simulate),
    ("certify", "injectivity certificate + verification", (), cmd_certify),
    ("analyze-linear", "degeneracy/branch/rank report",
     (("--kmax", {"type": int, "default": None, "help": "branch shift bound"}),),
     cmd_analyze_linear),
    ("invert", "recover parameters from observations",
     (("--obs", {"required": True, "help": "observation CSV"}),
      ("--mode", {"required": True, "choices": ("fd", "gn")})),
     cmd_invert),
    ("zeta-scan", "det(J^T J) lattice scan", (), cmd_zeta_scan),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odeident",
        description="Identifiability certificates and parameter recovery "
                    "for sampled ODE systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text, extra, handler in _VERBS:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seeds")
        for flag, options in extra:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(load_config(args.config, args.seed), args)
    except (ConfigError, InputFormatError, DimensionError, DomainError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IntegrationError, RangeError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NotIdentifiableError as exc:
        print(f"not identifiable: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
