"""Per-job correctness checks on the files the CLI wrote.

Each check returns None when the job's outputs are right, or a one-line
reason. Exit codes are checked by the runner: every generated job expects 0
from every step.
"""

from __future__ import annotations

import json
import math

from workloads import FD_DENSE_TOL, GN_TOL, Job


def _max_err(estimate: list, truth: list) -> float:
    return max(abs(a - b) for a, b in zip(estimate, truth))


def _certify(job: Job) -> str | None:
    blob = json.loads(job.outputs[0].read_text())
    cert, verification = blob["certificate"], blob["verification"]
    if verification["violations"] != 0:
        return f"{verification['violations']} verification violations"
    if verification["pairs_tested"] != job.facts["pairs"]:
        return f"pairs_tested {verification['pairs_tested']} != {job.facts['pairs']}"
    if not (cert["r_cert"] > 0.0 and math.isfinite(cert["r_cert"])):
        return f"r_cert {cert['r_cert']} is not positive"
    return None


def _zeta(job: Job) -> str | None:
    lines = job.outputs[0].read_text().strip().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != job.facts["cells"]:
        return f"{len(rows)} cells, expected {job.facts['cells']}"
    x1, flag = header.index("x1"), header.index("flag")
    if any(row[flag] == "2" for row in rows):
        return "integration failed in a cell"
    on_plane = [float(row[x1]) == 0.0 for row in rows]
    flagged = [row[flag] == "1" for row in rows]
    if job.facts["species"] == "logistic":
        # as the zeta-scan-genericity gate: exactly the x = 0 cells
        if flagged != on_plane:
            return "flagged cells are not exactly the x = 0 plane"
    elif not all(f for f, p in zip(flagged, on_plane) if p):
        return "an x = 0 cell is not flagged"
    return None


def _recover(job: Job) -> str | None:
    obs, fd_path, gn_path = job.outputs
    if len(obs.read_text().strip().splitlines()) != job.facts["m"] + 1:
        return "simulate wrote the wrong number of samples"
    alpha0 = job.facts["alpha0"]
    fd = json.loads(fd_path.read_text())["result"]["alpha_hat"]
    if not all(math.isfinite(v) for v in fd):
        return "fd estimate is not finite"
    if job.facts["dense"] and not job.facts["noisy"]:
        err = _max_err(fd, alpha0)
        if err > FD_DENSE_TOL:
            return f"fd error {err:.3e} > {FD_DENSE_TOL}"
    gn = json.loads(gn_path.read_text())["result"]
    if not gn["converged"]:
        return "gauss-newton did not converge"
    if not all(math.isfinite(v) for v in gn["alpha_hat"]):
        return "gauss-newton estimate is not finite"
    if not job.facts["noisy"]:
        err = _max_err(gn["alpha_hat"], alpha0)
        if err > GN_TOL:
            return f"gauss-newton error {err:.3e} > {GN_TOL}"
    return None


def _analyze(job: Job) -> str | None:
    blob = json.loads(job.outputs[0].read_text())
    shape = job.facts["shape"]
    aliased = bool(blob["degeneracy"]["aliasing_pairs"])
    if aliased != shape.endswith("aliased") and shape != "repeated":
        return f"aliasing reported={aliased} on a {shape} matrix"
    if shape == "repeated":
        if blob["branches"] is not None:
            return "branches enumerated for repeated eigenvalues"
    elif blob["branches"] is None:
        return "branches missing"
    elif len(blob["branches"]["branches"]) != job.facts["branches"]:
        return (f"{len(blob['branches']['branches'])} branches, "
                f"expected {job.facts['branches']}")
    return None


CHECKS = {"certify": _certify, "zeta": _zeta, "recover": _recover,
          "analyze": _analyze}


def check(job: Job) -> str | None:
    return CHECKS[job.kind](job)
