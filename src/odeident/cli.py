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
        "scan": {"t_values": [..], "alpha_box": [[lo,hi],..],
                 "x_box": [[lo,hi],..], "grid": [..], "rank_tol": ..}
      }
    }

The system and observation blocks build one ``ObservationMapHandle``, the
config's only description of the sampling grid: ``simulate`` writes its
``times`` beside the samples, and ``invert`` accepts, in both modes, exactly
the CSV of m rows of k values at those times.

The solver block sets no Gauss-Newton threshold: those are the fixed
``DEFAULTS.gn_*`` constants, and a config that carries the retired
``solver.gauss_newton`` block is refused by name (exit 2).

Exit codes: 0 success, 2 input error, 3 numerical/integration failure
or out of memory, 4 not identifiable, 5 non-convergence or rank deficiency.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
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
from .estimate import add_noise, fd_linear_estimate, gauss_newton_invert
from .linearcase import (
    degeneracy_report,
    exp_divided_difference_determinant,
    full_rank_check,
    log_branches,
)
from .numkernel import as_square
from .obsmap import certify_radius, phi, verify_lower_bound, zeta_scan
from .ode import MatrixLinear, ObservationMapHandle, PolynomialBasis

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
    """A number or nested lists of numbers as a float array. Every entry obeys
    ``_as_float``'s rule, so a bool or a numeric string is refused by its path."""
    pending = [(value, path)]
    while pending:  # no recursion: a config may nest lists as deep as JSON allows
        item, where = pending.pop()
        if isinstance(item, list):
            # reversed, so that the first bad entry is the one reported
            pending.extend((item[i], f"{where}[{i}]") for i in reversed(range(len(item))))
        else:
            _as_float(item, where)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # ragged, or more than numpy's 64 dimensions
        raise ConfigError(f"'{path}' must be a regular array of numbers") from None


def _basis_system(basis, k: int, n: int) -> PolynomialBasis:
    if not isinstance(basis, list) or len(basis) != n:
        raise ConfigError(f"system.basis must list n={n} maps")
    maps = []
    for mi, comp_list in enumerate(basis):
        path = f"system.basis[{mi}]"
        comp_list = _as_list(comp_list, path)
        if len(comp_list) != k:
            raise ConfigError(f"'{path}' must list k={k} components")
        comps = []
        for ci, component in enumerate(comp_list):
            terms = []
            for ti, term in enumerate(_as_list(component, f"{path}[{ci}]")):
                tpath = f"{path}[{ci}][{ti}]"
                term = _as_dict(term, tpath)
                coeff = _as_float(_require(term, "coeff", tpath), f"{tpath}.coeff")
                exps = _as_list(_require(term, "exponents", tpath), f"{tpath}.exponents")
                terms.append((coeff, tuple(_as_int(e, f"{tpath}.exponents", 0)
                                           for e in exps)))
            comps.append(terms)
        maps.append(comps)
    try:
        return PolynomialBasis(maps)
    except (DomainError, DimensionError) as exc:
        raise ConfigError(f"system.basis: {exc}") from exc


def _scan_block(scan) -> dict:
    path = "solver.scan"
    scan = _as_dict(scan, path)
    out = {"t_values": _as_array(_require(scan, "t_values", path),
                                 f"{path}.t_values").reshape(-1)}
    if out["t_values"].size == 0:  # a scan of no cell would report success
        raise ConfigError(f"'{path}.t_values' must not be empty")
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
    handle: ObservationMapHandle  # the system, x0 and the observation grid
    alpha0: np.ndarray          # flat parameter vector, length n
    sigma: float
    seed: int
    solver: dict                # solver scalars, validated, defaults filled in
    init: np.ndarray | None     # solver.init, flat length n
    scan: dict | None           # validated solver.scan block


def load_config(path) -> ExperimentConfig:
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
    try:
        handle = ObservationMapHandle(sys=model, x0=x0, h=h, m=m, tol=tol)
    except DomainError as exc:  # h * m beyond the float range, m or tol out of range
        raise ConfigError(f"observation: {exc}") from exc

    noise = _as_dict(raw.get("noise", {}), "noise")
    sigma = _as_float(noise.get("sigma", 0.0), "noise.sigma")
    seed = _as_int(noise.get("seed", 0), "noise.seed", 0)
    if sigma < 0.0:
        raise ConfigError("noise.sigma must be >= 0")

    raw_solver = _as_dict(raw.get("solver", {}), "solver")
    # unknown keys are ignored, but a block that once set thresholds must not
    # be: ignoring it would change results without a word
    if "gauss_newton" in raw_solver:
        raise ConfigError("'solver.gauss_newton' is not accepted: Gauss-Newton's "
                          "thresholds are fixed constants")
    solver = {
        "r_work": _as_float(raw_solver.get("r_work", 0.5), "solver.r_work"),
        # certify evaluates every sample and pair, so the counts are bounded
        "gamma_samples": _as_int(raw_solver.get("gamma_samples", 32),
                                 "solver.gamma_samples", maximum=DEFAULTS.certify_budget),
        "safety": _as_float(raw_solver.get("safety", DEFAULTS.gamma_safety),
                            "solver.safety"),
        "seed": _as_int(raw_solver.get("seed", 0), "solver.seed", 0),
        "verify_pairs": _as_int(raw_solver.get("verify_pairs", 1000),
                                "solver.verify_pairs", maximum=DEFAULTS.certify_budget),
        "k_max": _as_int(raw_solver.get("k_max", DEFAULTS.k_max), "solver.k_max"),
    }
    init = None
    if "init" in raw_solver:
        init = _as_array(raw_solver["init"], "solver.init").reshape(-1)
        if init.shape[0] != n:
            raise ConfigError(f"solver.init must have length n={n}")
    scan = _scan_block(raw_solver["scan"]) if "scan" in raw_solver else None

    return ExperimentConfig(digest=digest, species=species, k=k, n=n, handle=handle,
                            alpha0=alpha0, sigma=sigma, seed=seed, solver=solver,
                            init=init, scan=scan)


# ---------------------------------------------------------------------------
# files: the JSON reports and the two CSV layouts, trajectory and zeta scan


def _jsonable(value):
    """JSON data for a report value.

    A dataclass is the object of its fields, a dict is encoded value by
    value, a list or tuple is a list, an ndarray is ``tolist()`` (a complex
    one as ``[re, im]`` pairs), a complex scalar is ``[re, im]`` and a
    non-finite float is ``None``; anything else is returned as it is.
    """
    if value is None or isinstance(value, (str, int)):  # the most common leaves first
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()  # whole: a walk over the elements costs ~10x as much
    if isinstance(value, (list, tuple)):
        # a sequence of real arrays (branch matrices) or of int tuples (their
        # shift vectors) without a call per item, which costs more than the data
        kinds = set(map(type, value))
        if kinds == {np.ndarray} and all(item.dtype.kind != "c" for item in value):
            return [item.tolist() for item in value]
        if kinds == {tuple} and set(map(type, itertools.chain.from_iterable(value))) <= {int}:
            return [list(item) for item in value]
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if dataclasses.is_dataclass(value):
        return {field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    return value


def _write_json(path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = dict(payload, toolkit_version=__version__, config_digest=cfg.digest)
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path, header: list[str], rows, formats: list[str]) -> None:
    """Write the header line and one line per row, cell i by ``formats[i]``.

    One format string per row: the bytes of f"{v:.17g}" per value, in half
    the time; a nan writes as nan.
    """
    row = ",".join(formats).format
    Path(path).write_text("\n".join([",".join(header)] + [row(*r) for r in rows]) + "\n")


def _read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the trajectory CSV format; errors carry the offending row.

    One ``np.array`` call parses every cell, with float()'s rules and bits;
    when it fails, or the rows do not have the header's k + 1 columns, the
    per-row loop finds the first offending row.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty trajectory file", 1)
    if not lines[0].startswith("t,"):
        raise InputFormatError("missing 't,x1,...' header", 1)
    k = len(lines[0].split(",")) - 1
    rows = [line.split(",") for line in lines[1:]]
    try:
        table = np.array(rows, dtype=float)
        if table.shape[1:] == (k + 1,):
            return table[:, 0].copy(), table[:, 1:].copy()
    except ValueError:
        pass
    times, values = [], []
    for rowno, cells in enumerate(rows, start=2):
        if len(cells) != k + 1:
            raise InputFormatError(
                f"expected {k + 1} columns, got {len(cells)}", rowno
            )
        try:
            nums = [float(c) for c in cells]
        except ValueError as exc:
            raise InputFormatError(f"bad number: {exc}", rowno) from exc
        times.append(nums[0])
        values.append(nums[1:])
    return np.array(times), np.array(values)


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


# ---------------------------------------------------------------------------
# commands: each takes the loaded config and the parsed arguments


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    handle = cfg.handle
    samples = add_noise(phi(handle, cfg.alpha0).reshape(handle.m, cfg.k), cfg.sigma, cfg.seed)
    _write_csv(args.out, ["t"] + _names("x", cfg.k),
               np.column_stack([handle.times, samples]).tolist(),
               ["{:.17g}"] * (cfg.k + 1))
    print(f"simulate: wrote {handle.m} samples (h={handle.h:g}, sigma={cfg.sigma:g}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_certify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    handle = cfg.handle
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
    _write_json(args.out, {"certificate": cert, "verification": report}, cfg)
    print(f"certify: beta={cert.beta:.6g} gamma={cert.gamma:.6g} "
          f"r_cert={cert.r_cert:.6g}; verified {report.pairs_tested} pairs, "
          f"{report.violations} violations")
    return EXIT_OK


def cmd_analyze_linear(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if cfg.species != "matrix_linear":
        raise ConfigError("analyze-linear requires the matrix_linear species")
    handle = cfg.handle
    amat = as_square(cfg.alpha0.reshape(cfg.k, cfg.k))
    report = degeneracy_report(amat, handle.x0, handle.h)
    try:
        branches = log_branches(amat, handle.h, k_max=cfg.solver["k_max"])
        n_branches = len(branches.branches)
    except DefectiveMatrixError:
        branches = None
        n_branches = 0
    rank_report = full_rank_check(handle, cfg.alpha0)
    divdiff = None
    if not report.double_eigenvalue and cfg.k >= 2:
        numeric, closed = exp_divided_difference_determinant(report.eigenvalues)
        divdiff = {"numeric": numeric, "closed_form": closed}
    _write_json(args.out, {
        "degeneracy": report,
        "branches": branches,
        "full_rank": rank_report,
        "divided_difference_determinant": divdiff,
    }, cfg)
    print(f"analyze-linear: in_set_A={report.in_set_A} "
          f"aliasing={len(report.aliasing_pairs)} x0_in_E={report.x0_in_E} "
          f"branches={n_branches} full_rank={rank_report.full}")
    return EXIT_OK


def cmd_invert(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    handle = cfg.handle
    times, values = _read_trajectory_csv(args.obs)
    # a nan time compares false, so it fails the time test
    if values.shape != (handle.m, cfg.k) \
            or not (np.abs(times - handle.times) <= 1e-9 * handle.h).all():
        raise ConfigError(f"observations must be {handle.m} rows of {cfg.k} values at "
                          f"the configured times j*h, h={handle.h:g}")

    if args.mode == "fd":
        result = fd_linear_estimate(handle, values)
    else:
        if cfg.init is None:
            raise ConfigError("solver.init is required for gauss-newton inversion")
        result = gauss_newton_invert(handle, values, cfg.init)

    _write_json(args.out, {"mode": args.mode, "result": result}, cfg)
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
    result = zeta_scan(cfg.handle, scan["t_values"], scan["alpha_box"],
                       scan["x_box"], scan["grid"], rank_tol=scan["rank_tol"])
    # flag: 0 clear, 1 near-critical, 2 failed (zeta nan)
    _write_csv(args.out,
               ["t"] + _names("alpha", cfg.n) + _names("x", cfg.k) + ["zeta", "flag"],
               [(c.t, *c.alpha, *c.x, c.zeta, 2 if c.failed else int(c.flagged))
                for c in result.cells],
               ["{:.17g}"] * (cfg.n + cfg.k + 2) + ["{:d}"])
    frac = result.flagged_fraction
    print(f"zeta-scan: {len(result.cells)} cells, flagged fraction "
          f"{frac if math.isnan(frac) else round(frac, 6)}, "
          f"{result.failed_count} failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# (verb, help, extra arguments beyond --config/--out, handler)
_VERBS = (
    ("simulate", "write the samples phi(alpha0) as CSV", (), cmd_simulate),
    ("certify", "injectivity certificate + verification", (), cmd_certify),
    ("analyze-linear", "degeneracy/branch/rank report", (), cmd_analyze_linear),
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
        for flag, options in extra:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)  # the error its write would raise, before any computation
        if out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
        if not out.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
        return args.handler(cfg, args)
    except (ConfigError, InputFormatError, DimensionError, DomainError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IntegrationError, RangeError, ConvergenceError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NotIdentifiableError as exc:
        print(f"not identifiable: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
