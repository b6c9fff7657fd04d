import copy
import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import odeident.cli
import odeident.obsmap
import odeident.ode
from conftest import ROTATION, gauss_newton_constants, logistic_system, scalar_decay_system
from odeident import (
    DEFAULTS,
    MatrixLinear,
    ObservationMapHandle,
    __version__,
    certify_radius,
    degeneracy_report,
    fd_linear_estimate,
    full_rank_check,
    integrate,
    log_branches,
    phi,
    verify_lower_bound,
)
from odeident.cli import _jsonable, _read_trajectory_csv, _write_csv, load_config, main
from odeident.obsmap import ZetaCell, ZetaScanResult

ROT = [[0.0, 1.0], [-1.0, 0.0]]


def strict_json(text):
    """Parse JSON that holds no NaN or Infinity constant."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def rotation_config(h=0.1, m=50, x0=(1.0, 0.0), alpha0=ROT, extra_solver=None,
                    sigma=0.0, seed=0, tol=1e-10):
    cfg = {
        "system": {"species": "matrix_linear", "k": 2, "n": 4,
                   "alpha0": alpha0, "x0": list(x0)},
        "observation": {"h": h, "m": m, "tol": tol},
        "noise": {"sigma": sigma, "seed": seed},
        "solver": {"r_work": 0.5, "gamma_samples": 12, "safety": 1.5,
                   "k_max": 2, "verify_pairs": 200},
    }
    if extra_solver:
        cfg["solver"].update(extra_solver)
    return cfg


def scalar_decay_config(**kw):
    cfg = {
        "system": {"species": "polynomial_basis", "k": 1, "n": 1,
                   "basis": [[[{"coeff": 1.0, "exponents": [1]}]]],
                   "alpha0": [-0.5], "x0": [1.0]},
        "observation": {"h": 0.5, "m": 5, "tol": 1e-10},
        "solver": {"r_work": 0.3, "gamma_samples": 12, "safety": 1.5,
                   "verify_pairs": 200},
    }
    cfg.update(kw)
    return cfg


def logistic_config(m=400, h=0.01):
    return {
        "system": {"species": "polynomial_basis", "k": 1, "n": 2,
                   "basis": [[[{"coeff": 1.0, "exponents": [1]}]],
                             [[{"coeff": 1.0, "exponents": [2]}]]],
                   "alpha0": [1.0, -1.0], "x0": [0.1]},
        "observation": {"h": h, "m": m, "tol": 1e-12},
    }


def write_trajectory_csv(path, times, values):
    """The trajectory layout simulate writes, through the CLI's one CSV writer."""
    k = values.shape[1]
    _write_csv(path, ["t"] + [f"x{i + 1}" for i in range(k)],
               np.column_stack([times, values]).tolist(), ["{:.17g}"] * (k + 1))


class TestSimulate:
    def test_rotation_writes_m_rows(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config())
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 51

    @pytest.mark.parametrize("cfg_dict", [rotation_config(h=0.3, m=6, x0=(1.0, 0.7)),
                                          logistic_config(m=40, h=0.05)],
                             ids=["rotation", "logistic"])
    def test_samples_are_phi(self, tmp_path, cfg_dict):
        path = write_config(tmp_path, "cfg.json", cfg_dict)
        out = tmp_path / "obs.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        times, values = _read_trajectory_csv(out)
        cfg = load_config(path)
        handle = cfg.handle
        expected = phi(handle, cfg.alpha0).reshape(handle.m, cfg.k)
        assert np.array_equal(values, expected)
        traj = integrate(handle, cfg.alpha0)
        assert np.array_equal(times, handle.times)
        if cfg.species == "polynomial_basis":  # phi is this integration, byte for byte
            ref = tmp_path / "ref.csv"
            write_trajectory_csv(ref, handle.times, traj.states)
            assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("x0", [(1e20, 0.7), (1e50, 0.7), (1e100, 0.7), (1e155, 0.7)])
    def test_widely_scaled_x0_writes_phi(self, tmp_path, x0):
        # Dormand-Prince's error scale tol * (1 + |x_i|) failed these at t = 0;
        # the exact map has none
        cfg = write_config(tmp_path, "rot.json", rotation_config(h=0.3, m=6, x0=x0))
        out = tmp_path / "obs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        handle = ObservationMapHandle(sys=MatrixLinear(2), x0=x0, h=0.3, m=6)
        expected = phi(handle, np.asarray(ROT, dtype=float).ravel()).reshape(6, 2)
        assert np.array_equal(_read_trajectory_csv(out)[1], expected)

    def test_integrates_only_polynomial_basis(self, tmp_path, monkeypatch):
        integrate_grid = odeident.ode._integrate_grid

        def refuse(*args, **kwargs):
            raise AssertionError("matrix_linear data must come from the exact map")

        monkeypatch.setattr(odeident.ode, "_integrate_grid", refuse)
        cfg = write_config(tmp_path, "rot.json", rotation_config(h=0.3, m=6))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate_grid(*args, **kwargs)

        monkeypatch.setattr(odeident.ode, "_integrate_grid", counted)
        cfg = write_config(tmp_path, "logi.json", logistic_config(m=20, h=0.05))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 0
        assert len(calls) == 1

    def test_dimension_mismatch_exits_2(self, tmp_path):
        bad = rotation_config(x0=(1.0, 0.0, 3.0))
        cfg = write_config(tmp_path, "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"system": {\n  "species": oops\n}}\n')
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(sigma=1e-3, seed=7, m=20))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_integration_blowup_exits_3(self, tmp_path):
        cfg_dict = {
            "system": {"species": "polynomial_basis", "k": 1, "n": 1,
                       "basis": [[[{"coeff": 1.0, "exponents": [2]}]]],
                       "alpha0": [1.0], "x0": [1.0]},
            "observation": {"h": 1.0, "m": 2, "tol": 1e-10},
        }
        cfg = write_config(tmp_path, "blow.json", cfg_dict)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("power", [10 ** 9, 2 ** 53])
    def test_huge_exponent_simulates(self, tmp_path, power):
        # x' = -0.5 x^power from x0 = 0.5: the monomial underflows to 0, and an
        # evaluation costs the same whatever the exponent
        cfg_dict = scalar_decay_config(
            observation={"h": 0.5, "m": 4, "tol": 1e-10})
        cfg_dict["system"]["basis"] = [[[{"coeff": 1.0, "exponents": [power]}]]]
        cfg_dict["system"]["x0"] = [0.5]
        cfg = write_config(tmp_path, "huge.json", cfg_dict)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.5"] * 4


class TestCertify:
    def test_scalar_decay_certificate(self, tmp_path):
        cfg = write_config(tmp_path, "dec.json", scalar_decay_config())
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        cert = blob["certificate"]
        assert cert["beta"] > 0.0
        assert cert["gamma"] > 0.0
        assert cert["r_cert"] > 0.0
        assert blob["verification"]["violations"] == 0
        assert blob["toolkit_version"] == __version__
        assert len(blob["config_digest"]) == 64

    def test_duplicated_basis_exits_4(self, tmp_path):
        dup = scalar_decay_config()
        dup["system"]["n"] = 2
        dup["system"]["basis"] = [[[{"coeff": 1.0, "exponents": [1]}]],
                                  [[{"coeff": 1.0, "exponents": [1]}]]]
        dup["system"]["alpha0"] = [-0.3, -0.2]
        cfg = write_config(tmp_path, "dup.json", dup)
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 4
        blob = strict_json(out.read_text())
        assert blob["not_identifiable"] is True
        assert blob["diagnostics"]["beta"] <= 1e-10

    def test_rotation_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config(m=8))
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        alpha0 = np.array(blob["certificate"]["alpha0"])
        assert np.array_equal(alpha0, np.array(ROT).ravel())

    def test_single_pair_report_is_strict_json(self, tmp_path):
        # pair 0 is the identical control pair, so no ratio exists: null, not Infinity
        cfg_dict = rotation_config(h=0.3, m=6, x0=(1.0, 0.7),
                                   extra_solver={"verify_pairs": 1})
        cfg = write_config(tmp_path, "rot.json", cfg_dict)
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        verification = strict_json(out.read_text())["verification"]
        assert verification["pairs_tested"] == 1
        assert verification["worst_ratio"] is None

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "dec.json", scalar_decay_config())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAnalyzeLinear:
    def test_rotation_branch_family(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config(h=1.0, m=8))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert len(blob["branches"]["branches"]) == 5
        assert blob["degeneracy"]["in_set_A"] is True
        assert blob["full_rank"]["full"] is True
        dd = blob["divided_difference_determinant"]
        assert len(dd["numeric"]) == len(dd["closed_form"]) == 2  # complex: [re, im]
        assert np.allclose(dd["numeric"], dd["closed_form"], rtol=1e-6)

    def test_real_spectrum_unique_branch(self, tmp_path):
        cfg = write_config(tmp_path, "diag.json",
                           rotation_config(h=0.5, m=8, x0=(1.0, 1.0),
                                           alpha0=[[1.0, 0.0], [0.0, 2.0]]))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert len(blob["branches"]["branches"]) == 1

    def test_full_rotation_aliasing_flagged(self, tmp_path):
        alpha = (2.0 * math.pi * np.array(ROT)).tolist()
        cfg = write_config(tmp_path, "alias.json",
                           rotation_config(h=1.0, m=8, alpha0=alpha))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert blob["degeneracy"]["in_set_A"] is False
        assert any(pair[2] == 2 for pair in blob["degeneracy"]["aliasing_pairs"])

    def test_defective_reports_but_exits_0(self, tmp_path):
        cfg = write_config(tmp_path, "def.json",
                           rotation_config(h=0.5, m=8,
                                           alpha0=[[1.0, 1.0], [0.0, 1.0]]))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert blob["degeneracy"]["defective"] is True
        assert blob["branches"] is None

    def test_overflowing_divided_difference_exits_3(self, tmp_path):
        # exp(2 * 400) in the divided-difference determinant
        cfg = write_config(tmp_path, "big.json",
                           rotation_config(h=0.01, m=8, x0=(1.0, 1.0),
                                           alpha0=[[400.0, 0.0], [0.0, 1.0]]))
        out = tmp_path / "lin.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_overflowing_krylov_sequence_exits_3(self, tmp_path):
        # exp(0.3 * 2360) is finite, exp(0.3 * 2360) @ x0 is not
        cfg = write_config(tmp_path, "big.json",
                           rotation_config(h=0.3, m=6, x0=(10.0, 0.7),
                                           alpha0=[[2360.0, 0.0], [0.0, 1.0]]))
        out = tmp_path / "lin.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_numerically_defective_eigenbasis_keeps_the_report(self, tmp_path):
        # a 3x3 Jordan block that rounding splits into simple eigenvalues: no
        # real generators, so no branches, but every other block is reported
        v = np.random.default_rng(0).normal(size=(3, 3))
        j = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        cfg = {"system": {"species": "matrix_linear", "k": 3, "n": 9,
                          "alpha0": (v @ j @ np.linalg.inv(v)).tolist(),
                          "x0": [1.0, 0.5, 0.2]},
               "observation": {"h": 1.0, "m": 4, "tol": 1e-10}}
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", write_config(tmp_path, "jordan.json", cfg),
                     "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert blob["branches"] is None
        assert blob["degeneracy"]["double_eigenvalue"] is False
        assert blob["full_rank"]["rank"] == 9
        assert blob["divided_difference_determinant"] is not None

    def test_scalar_system_is_analyzed(self, tmp_path):
        # k = 1: P' is the constant 1, whose resultant with P is 1
        cfg = {"system": {"species": "matrix_linear", "k": 1, "n": 1,
                          "alpha0": [[-0.5]], "x0": [1.0]},
               "observation": {"h": 0.3, "m": 3}}
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", write_config(tmp_path, "k1.json", cfg),
                     "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert blob["degeneracy"]["discriminant"] == 1.0
        assert len(blob["branches"]["branches"]) == 1
        assert blob["full_rank"]["full"] is True

    def test_wrong_species_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "dec.json", scalar_decay_config())
        assert main(["analyze-linear", "--config", cfg, "--out",
                     str(tmp_path / "x.json")]) == 2


class TestInvert:
    def test_fd_logistic(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config())
        obs = tmp_path / "obs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        out = tmp_path / "est.json"
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "fd", "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        alpha = np.array(blob["result"]["alpha_hat"])
        assert np.abs(alpha - [1.0, -1.0]).max() <= 1e-3
        assert blob["mode"] == "fd"

    def test_gn_rotation(self, tmp_path):
        init = (np.array(ROT).ravel() + 0.03 * np.array([1, -1, 0.5, -0.5]))
        cfg_dict = rotation_config(h=0.3, m=6, x0=(1.0, 0.7),
                                   extra_solver={"init": init.tolist()})
        cfg = write_config(tmp_path, "rot.json", cfg_dict)
        obs = tmp_path / "obs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        out = tmp_path / "est.json"
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "gn", "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        alpha = np.array(blob["result"]["alpha_hat"])
        assert np.abs(alpha - np.array(ROT).ravel()).max() <= 1e-6
        assert blob["result"]["converged"] is True

    def test_gn_fits_the_map_simulate_wrote(self, tmp_path):
        # simulate and invert --mode gn share phi, so noise-free data fit to
        # rounding; data from Dormand-Prince at tol 1e-11 left 4e-13 and 4e-12
        init = (np.array(ROT).ravel() + 0.003).tolist()
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(h=0.5, m=8, x0=(0.6, 0.8), tol=1e-11,
                                           extra_solver={"init": init}))
        obs, out = tmp_path / "obs.csv", tmp_path / "gn.json"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "gn", "--out", str(out)]) == 0
        result = strict_json(out.read_text())["result"]
        assert result["residual"] <= 1e-13
        assert np.abs(np.array(result["alpha_hat"]) - np.ravel(ROT)).max() <= 1e-13

    def test_gn_runs_only_jacobian_runs_and_counts_them(self, tmp_path, monkeypatch):
        # each point Gauss-Newton evaluates is one joint run, which prices it too
        cfg_dict = logistic_config(m=8, h=0.5)
        cfg_dict["solver"] = {"init": [1.003, -0.996]}
        cfg = write_config(tmp_path, "logi.json", cfg_dict)
        obs, gn, fd = tmp_path / "obs.csv", tmp_path / "gn.json", tmp_path / "fd.json"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        runs = {"integrate": 0, "integrate_with_sensitivity": 0}

        def counting(name):
            run = getattr(odeident.ode, name)

            def counted(*args, **kwargs):
                runs[name] += 1
                return run(*args, **kwargs)

            return counted

        for name in runs:
            monkeypatch.setattr(odeident.ode, name, counting(name))
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "gn", "--out", str(gn)]) == 0
        result = strict_json(gn.read_text())["result"]
        assert runs["integrate"] == 0
        assert runs["integrate_with_sensitivity"] == result["evaluations"] >= 2
        assert result["rejected"] >= result["evaluations"] - 1 - result["iterations"]
        # fd runs no observation map and reports both counters as 0
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "fd", "--out", str(fd)]) == 0
        fd_result = strict_json(fd.read_text())["result"]
        assert fd_result["evaluations"] == fd_result["rejected"] == 0

    def test_two_row_file_fd_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config())
        obs = tmp_path / "obs.csv"
        obs.write_text("t,x1\n0.01,0.1\n0.02,0.11\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "fd", "--out", str(tmp_path / "x.json")]) == 2

    def test_malformed_csv_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config())
        obs = tmp_path / "obs.csv"
        obs.write_text("t,x1\n0.01,0.1\n0.02,bad\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "fd", "--out", str(tmp_path / "x.json")]) == 2

    def test_gn_missing_init_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config(h=0.3, m=6))
        obs = tmp_path / "obs.csv"
        main(["simulate", "--config", cfg, "--out", str(obs)])
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "gn", "--out", str(tmp_path / "x.json")]) == 2

    @staticmethod
    def invert_gn_without_warning(tmp_path, constants, x0=(1.0, 0.7), sigma=0.0):
        """Simulate a rotation and invert it from ROT + 0.2 with these Gauss-Newton
        fields of DEFAULTS, with every warning an error; return the exit code and
        result."""
        init = (np.array(ROT).ravel() + 0.2)
        cfg_dict = rotation_config(h=0.3, m=6, x0=x0, sigma=sigma,
                                   extra_solver={"init": init.tolist()})
        cfg = write_config(tmp_path, "rot.json", cfg_dict)
        obs = tmp_path / "obs.csv"
        main(["simulate", "--config", cfg, "--out", str(obs)])
        out = tmp_path / "est.json"
        with warnings.catch_warnings(), gauss_newton_constants(**constants):
            warnings.simplefilter("error")
            code = main(["invert", "--config", cfg, "--obs", str(obs),
                         "--mode", "gn", "--out", str(out)])
        return code, strict_json(out.read_text())["result"]

    @pytest.mark.parametrize("sigma,gauss_newton,message", [
        (0.0, {"gn_max_iter": 1}, "max_iter exhausted"),
        # the first trial from a damping of 1e300 is flat, and ends the search
        (1e20, {"gn_damping": 1e300}, "stalled: no acceptable step"),
    ])
    def test_non_convergence_exits_5_with_result(self, tmp_path, sigma, gauss_newton,
                                                 message):
        code, result = self.invert_gn_without_warning(tmp_path, gauss_newton, sigma=sigma)
        assert code == 5
        assert result["converged"] is False
        assert result["message"] == message

    def test_damping_beyond_the_float_range_exits_5_with_result(self, tmp_path):
        # diag(J^T J) near 1e240 at an x0 of 1e120: 1e300 x diag(J^T J) overflows
        code, result = self.invert_gn_without_warning(tmp_path, {"gn_damping": 1e300},
                                                      x0=(1e120, 7e119))
        assert code == 5
        assert result["converged"] is False
        assert result["message"].endswith("x diag(J^T J) leaves the float range")

    def test_overflowing_observations_exit_3_with_no_report(self, tmp_path):
        # observations near 1e200: the fd residual norm and the GN cost overflow
        init = (np.array(ROT).ravel() + 0.03).tolist()
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(h=0.3, m=6, x0=(1.0, 0.7), sigma=1e200,
                                           extra_solver={"init": init}))
        obs = tmp_path / "obs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        for mode in ("fd", "gn"):
            out = tmp_path / f"{mode}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["invert", "--config", cfg, "--obs", str(obs),
                             "--mode", mode, "--out", str(out)]) == 3
            assert not out.exists()

    def test_non_finite_observations_exit_2_with_no_report(self, tmp_path):
        # every comparison with nan is false, so the grid checks alone let a nan
        # time column through, and gn then converged on it
        init = (np.array(ROT).ravel() + 0.03).tolist()
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(h=0.3, m=6, x0=(1.0, 0.7),
                                           extra_solver={"init": init}))
        obs = tmp_path / "obs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        header, *rows = obs.read_text().splitlines()
        nan_t = [header] + ["nan," + row.split(",", 1)[1] for row in rows]
        inf_x = [header] + rows[:2] + [rows[2].rsplit(",", 1)[0] + ",inf"] + rows[3:]
        for name, lines in (("nan_t", nan_t), ("inf_x", inf_x)):
            bad = tmp_path / f"{name}.csv"
            bad.write_text("\n".join(lines) + "\n")
            for mode in ("fd", "gn"):
                out = tmp_path / f"{name}_{mode}.json"
                assert main(["invert", "--config", cfg, "--obs", str(bad),
                             "--mode", mode, "--out", str(out)]) == 2
                assert not out.exists()

    @pytest.mark.parametrize("case", ["header_only", "other_h", "other_m", "from_t0",
                                      "non_uniform"])
    def test_both_modes_refuse_a_grid_other_than_the_config(self, tmp_path, capsys, case):
        # both inversions read the config's grid, so both refuse the same files;
        # fd used to take any uniform grid. Non-finite cells are the test above's
        init = (np.array(ROT).ravel() + 0.03).tolist()
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(h=0.3, m=6, x0=(1.0, 0.7),
                                           extra_solver={"init": init}))
        obs = tmp_path / "obs.csv"
        for mode in ("fd", "gn"):  # the simulated file itself is accepted
            assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
            assert main(["invert", "--config", cfg, "--obs", str(obs),
                         "--mode", mode, "--out", str(tmp_path / f"{mode}.json")]) == 0
        if case in ("other_h", "other_m"):
            other = rotation_config(h=0.25 if case == "other_h" else 0.3,
                                    m=7 if case == "other_m" else 6, x0=(1.0, 0.7))
            assert main(["simulate", "--config", write_config(tmp_path, "other.json", other),
                         "--out", str(obs)]) == 0
        else:
            header, *rows = obs.read_text().splitlines()
            times = ([0.0, 0.3, 0.6, 0.9, 1.2, 1.5] if case == "from_t0"
                     else [0.3, 0.6, 0.91, 1.2, 1.5, 1.8])
            rows = [] if case == "header_only" else [
                f"{t},{row.split(',', 1)[1]}" for t, row in zip(times, rows)]
            obs.write_text("\n".join([header] + rows) + "\n")
        capsys.readouterr()
        for mode in ("fd", "gn"):
            out = tmp_path / f"{case}_{mode}.json"
            assert main(["invert", "--config", cfg, "--obs", str(obs),
                         "--mode", mode, "--out", str(out)]) == 2
            assert not out.exists()
            assert "observations must be 6 rows of 2 values" in capsys.readouterr().err

    def test_overflowing_normal_equations_exit_3_without_warning(self, tmp_path):
        # x0 of 1e155: J^T J and J^T r overflow
        init = (np.array(ROT).ravel() + 0.03).tolist()
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(h=0.3, m=6, x0=(1e155, 0.7),
                                           extra_solver={"init": init}))
        obs, out = tmp_path / "obs.csv", tmp_path / "gn.json"
        assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["invert", "--config", cfg, "--obs", str(obs),
                         "--mode", "gn", "--out", str(out)]) == 3
        assert not out.exists()

    def test_pipeline_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config(m=100))
        blobs = []
        for tag in ("a", "b"):
            obs = tmp_path / f"obs_{tag}.csv"
            out = tmp_path / f"est_{tag}.json"
            assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
            assert main(["invert", "--config", cfg, "--obs", str(obs),
                         "--mode", "fd", "--out", str(out)]) == 0
            blobs.append(obs.read_bytes() + out.read_bytes())
        assert blobs[0] == blobs[1]


class TestZetaScan:
    def test_scan_writes_csv(self, tmp_path):
        cfg_dict = logistic_config(m=3, h=0.2)
        cfg_dict["observation"]["tol"] = 1e-8
        cfg_dict["solver"] = {"scan": {
            "t_values": [1.0],
            "alpha_box": [[0.5, 1.5], [-1.5, -0.5]],
            "x_box": [[0.02, 0.3]],
            "grid": [5, 5, 5],
            "rank_tol": 1e-12,
        }}
        cfg = write_config(tmp_path, "scan.json", cfg_dict)
        out = tmp_path / "scan.csv"
        assert main(["zeta-scan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,alpha1,alpha2,x1,zeta,flag"
        assert len(lines) == 1 + 125
        assert all(line.endswith(",0") for line in lines[1:])

    def test_overflowing_scale_exits_3_without_warning(self, tmp_path):
        # at alpha = +-50 the Jacobian norm reaches ~1e55, and sigma_1^(2n) = sigma_1^8
        # leaves the float range
        cfg_dict = rotation_config(h=0.3, m=6, x0=(1.0, 0.7))
        cfg_dict["solver"]["scan"] = {"t_values": [1.0], "alpha_box": [[-50, 50]] * 4,
                                      "x_box": [[0.5, 1.0]] * 2, "grid": 2}
        cfg = write_config(tmp_path, "scan.json", cfg_dict)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["zeta-scan", "--config", cfg, "--out",
                         str(tmp_path / "scan.csv")]) == 3

    @pytest.mark.parametrize("t_values,rank_tol,name", [
        ([1.0, 0.0], 1e-12, "t_values"),
        ([1.0], -1e-12, "rank_tol"),
    ])
    def test_bad_scan_input_exits_2_before_the_first_cell(self, tmp_path, capsys,
                                                          monkeypatch, t_values,
                                                          rank_tol, name):
        def refuse(handle, alpha):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(odeident.obsmap, "phi_jacobian", refuse)
        cfg_dict = logistic_config(m=3, h=0.2)
        cfg_dict["solver"] = {"scan": {"t_values": t_values,
                                       "alpha_box": [[0.5, 1.5], [-1.5, -0.5]],
                                       "x_box": [[0.02, 0.3]], "grid": 10,
                                       "rank_tol": rank_tol}}
        cfg = write_config(tmp_path, "scan.json", cfg_dict)
        assert main(["zeta-scan", "--config", cfg, "--out",
                     str(tmp_path / "scan.csv")]) == 2
        assert name in capsys.readouterr().err

    def test_missing_scan_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config())
        assert main(["zeta-scan", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_csv_layout(self, tmp_path):
        cfg_dict = scalar_decay_config(observation={"h": 1.0, "m": 2, "tol": 1e-10})
        cfg_dict["solver"]["scan"] = {"t_values": [1.0], "alpha_box": [[-1.0, 1.0]],
                                      "x_box": [[0.5, 1.5]], "grid": [3, 3],
                                      "rank_tol": 1e-12}
        cfg = write_config(tmp_path, "scan.json", cfg_dict)
        out = tmp_path / "scan.csv"
        assert main(["zeta-scan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,alpha1,x1,zeta,flag"
        assert len(lines) == 1 + 9

    def test_csv_rows_format_each_value(self, tmp_path, monkeypatch):
        # the row format string writes f"{v:.17g}" per value and the flag as an int
        cells = [
            ZetaCell(t=0.5, alpha=(1 / 3, -2.0), x=(0.1, 1e-300), zeta=2 / 3, flagged=False),
            ZetaCell(t=1.0, alpha=(0.25, 7.0), x=(-0.0, 3.5), zeta=0.0, flagged=True),
            ZetaCell(t=2.0, alpha=(0.1, 0.2), x=(0.3, 0.4), zeta=math.nan, flagged=False,
                     failed=True),
        ]
        monkeypatch.setattr(odeident.cli, "zeta_scan",
                            lambda *args, **kwargs: ZetaScanResult(cells=cells))
        # x1' = a1 x1, x2' = a2 x2: k = n = 2, as the cells
        cfg_dict = scalar_decay_config()
        cfg_dict["system"].update(
            k=2, n=2, alpha0=[-0.5, -0.5], x0=[1.0, 1.0],
            basis=[[[{"coeff": 1.0, "exponents": [1, 0]}], []],
                   [[], [{"coeff": 1.0, "exponents": [0, 1]}]]])
        cfg_dict["solver"]["scan"] = {"t_values": [1.0], "alpha_box": [[0.0, 1.0]] * 2,
                                      "x_box": [[0.0, 1.0]] * 2, "grid": 2}
        cfg = write_config(tmp_path, "scan.json", cfg_dict)
        out = tmp_path / "scan.csv"
        assert main(["zeta-scan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,alpha1,alpha2,x1,x2,zeta,flag"
        expected = [
            ",".join([f"{v:.17g}" for v in (c.t, *c.alpha, *c.x)]
                     + ["nan" if c.failed else f"{c.zeta:.17g}",
                        str(2 if c.failed else (1 if c.flagged else 0))])
            for c in cells
        ]
        assert lines[1:] == expected
        assert lines[2].endswith(",0,1")
        assert lines[3].endswith(",nan,2")


class TestCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        handle = ObservationMapHandle(sys=logistic_system(), x0=[0.1], h=0.4, m=5, tol=1e-10)
        traj = integrate(handle, [1.0, -1.0])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, handle.times, traj.states)
        times, values = _read_trajectory_csv(path)
        assert np.array_equal(times, handle.times)
        assert np.array_equal(values, traj.states)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1"

    def test_lines_are_the_per_value_format(self, tmp_path):
        # signed zeros, subnormals, the float range's ends and integral floats
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                1.7e308, -1.7e308, 3.0, -42.0, 2.0 ** 53, 0.1]
        values = np.array(edge + edge[::-1]).reshape(-1, 3)
        times = np.array([-0.0, 1.0, 1e-300, 5e-324, 0.1, 2.0 ** 60, 7.0, 1.7e308])
        path = tmp_path / "edge.csv"
        write_trajectory_csv(path, times, values)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert lines[1:] == [",".join(f"{v:.17g}" for v in (t, *row))
                             for t, row in zip(times, values)]
        assert lines[1] == "-0,0,-0,4.9406564584124654e-324"

    def test_reader_parses_every_cell_as_float_does(self, tmp_path):
        cells = ["-0", "0", "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308",
                 "1.7e308", "-1.7e308", "1e400", "-1e400", " 0.1 ", "\t-3\t", "1_000"]
        rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
        path = tmp_path / "edge.csv"
        path.write_text("t,x1,x2\n" + "".join(",".join(r) + "\n" for r in rows))
        times, values = _read_trajectory_csv(path)
        ref = np.array([[float(c) for c in r] for r in rows])
        assert times.tobytes() == ref[:, 0].tobytes()
        assert values.tobytes() == ref[:, 1:].tobytes()
        assert np.signbit(times[0]) and values[1, 1] == 1.7e308 and values[3, 1] == 1000.0

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1.0,2.0\n2.0,oops\n")
        from odeident import InputFormatError

        with pytest.raises(InputFormatError) as err:
            _read_trajectory_csv(path)
        assert err.value.line == 3

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2\n1.0,2.0\n")
        from odeident import InputFormatError

        with pytest.raises(InputFormatError) as err:
            _read_trajectory_csv(path)
        assert err.value.line == 2

    def test_csv_round_trip(self, tmp_path):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=[1.0], h=0.1, m=10,
                                      tol=1e-12)
        values = phi(handle, [-0.5]).reshape(10, 1)
        path = tmp_path / "obs.csv"
        write_trajectory_csv(path, handle.times, values)
        times, back = _read_trajectory_csv(path)
        assert np.array_equal(times, handle.times)
        assert np.array_equal(back, values)


def _certificate():
    # x' = a x, x0 = 1, h = 1, m = 2: phi(a) = (e^a, e^{2a})
    handle = ObservationMapHandle(sys=scalar_decay_system(), x0=np.array([1.0]),
                                  h=1.0, m=2, tol=1e-12)
    return handle, certify_radius(handle, [0.0], r_work=0.1, gamma_samples=16, seed=0)


def _single_pair_verification():
    handle, cert = _certificate()
    return verify_lower_bound(handle, cert, pair_count=1, seed=0)


def _rank_deficient_estimate():
    # all-zero observations: df/da is the zero matrix, so the condition is inf
    handle = ObservationMapHandle(sys=MatrixLinear(2), x0=[1.0, 0.7], h=0.3, m=5)
    return fd_linear_estimate(handle, np.zeros(10))


# (record, the encoded fields to check); every record's keys are checked too
RECORDS = {
    "certificate": (
        lambda: _certificate()[1],
        lambda r: {"alpha0": [0.0], "beta": r.beta, "gamma_samples": 16,
                   "lipschitz_lower": r.lipschitz_lower,
                   "d2_norm_model": "directional-bilinear"}),
    "verification": (
        _single_pair_verification,
        lambda r: {"pairs_tested": 1, "violations": 0, "worst_ratio": None,
                   "bound": r.bound}),
    "degeneracy": (
        lambda: degeneracy_report(ROTATION, [1.0, 0.0], h=1.0),
        lambda r: {"eigenvalues": [[0.0, -1.0], [0.0, 1.0]], "aliasing_pairs": [],
                   "in_set_A": True, "krylov_rank": 2, "discriminant": r.discriminant}),
    "branches": (
        lambda: log_branches(ROTATION, h=1.0, k_max=1),
        lambda r: {"base": ROTATION.tolist(), "k_range": 1,
                   "branches": [b.tolist() for b in r.branches],
                   "k_vectors": [[-1], [0], [1]]}),
    "full_rank": (
        lambda: full_rank_check(
            ObservationMapHandle(sys=MatrixLinear(2), x0=[1.0, 0.7], h=0.3, m=6), ROTATION),
        lambda r: {"rank": 4, "sigma_min": r.sigma_min, "full": True}),
    "estimate": (
        _rank_deficient_estimate,
        lambda r: {"alpha_hat": [0.0] * 4, "condition": None, "jacobian_rank": 0,
                   "rank_deficient": True, "message": "RankDeficient",
                   "history": [[[0.0] * 4, 0.0]]}),
}


class TestReportEncoding:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_encodes_its_fields(self, name):
        build, expected = RECORDS[name]
        record = build()
        data = strict_json(json.dumps(_jsonable(record)))
        assert list(data) == [field.name for field in dataclasses.fields(record)]
        fields = expected(record)
        assert {key: data[key] for key in fields} == fields

    def test_scalar_and_container_rules(self):
        data = _jsonable({"z": 1.5 - 2.0j, "inf": -math.inf, "nan": math.nan,
                          "pair": (1, np.float64(0.5)), "zs": np.array([[1j]])})
        assert data == {"z": [1.5, -2.0], "inf": None, "nan": None,
                        "pair": [1, 0.5], "zs": [[[0.0, 1.0]]]}


class TestValidation:
    def test_missing_key_reported_with_path(self, tmp_path, capsys):
        cfg_dict = logistic_config()
        del cfg_dict["system"]["alpha0"]
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "system.alpha0" in capsys.readouterr().err

    def test_matrix_linear_requires_n_equals_k_squared(self, tmp_path):
        cfg_dict = rotation_config()
        cfg_dict["system"]["n"] = 3
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_seed_and_kmax_flags_are_refused(self, tmp_path):
        # a report's bytes follow from its config digest, so no flag overrides the config
        cfg = write_config(tmp_path, "rot.json", rotation_config())
        for verb, flag, value in (("simulate", "--seed", "8"),
                                  ("analyze-linear", "--kmax", "2")):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--config", cfg, "--out", str(tmp_path / "out"), flag, value])
            assert exc.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("verb,config,obs,out", [
        ("invert", "cfg", "dir", "x.json"),
        ("invert", "cfg", "latin1", "x.json"),
        ("simulate", "dir", None, "x.csv"),
        ("simulate", "cfg", None, "dir"),
        ("certify", "cfg", None, "dir"),
    ], ids=["obs-directory", "obs-not-utf8", "config-directory", "simulate-out-directory",
            "certify-out-directory"])
    def test_unreadable_or_unwritable_file_exits_2(self, tmp_path, capsys, verb, config,
                                                   obs, out):
        paths = {"cfg": write_config(tmp_path, "rot.json", rotation_config(h=0.3, m=6)),
                 "dir": str(tmp_path), "latin1": str(tmp_path / "obs.csv")}
        (tmp_path / "obs.csv").write_bytes("t,x1,x2\n0.3,1,0\n0.6,\u00b5,0\n".encode("latin-1"))
        argv = [verb, "--config", paths[config], "--out", paths.get(out, str(tmp_path / out))]
        if obs is not None:
            argv += ["--obs", paths[obs], "--mode", "fd"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("out", [(), ("missing", "cert.json")],
                             ids=["out-directory", "out-parent-missing"])
    def test_unwritable_out_exits_2_before_computing(self, tmp_path, capsys, monkeypatch,
                                                     out):
        def refuse(*args, **kwargs):
            raise AssertionError("certify_radius ran for an unwritable --out")

        monkeypatch.setattr(odeident.cli, "certify_radius", refuse)
        cfg = write_config(tmp_path, "rot.json", rotation_config(h=0.3, m=6))
        before = sorted(tmp_path.rglob("*"))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path.joinpath(*out))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("observation", [
        {"h": 0.3, "m": 6, "tol": 1e-2},          # tol above the integrators' range
        {"h": 1e-3, "m": 10 ** 7, "tol": 1e-10},  # more samples than the budget
        {"h": 1e308, "m": 6, "tol": 1e-10},       # t_end = h * m overflows
    ], ids=["tol", "m", "h*m"])
    @pytest.mark.parametrize("verb", ["analyze-linear", "simulate"])
    def test_bad_grid_exits_2_before_any_verb_computes(self, tmp_path, capsys, monkeypatch,
                                                       verb, observation):
        # analyze-linear ran its degeneracy report and branches before
        # full_rank_check refused the grid
        def refuse(*args, **kwargs):
            raise AssertionError("a verb computed on a grid the config refuses")

        for name in ("degeneracy_report", "log_branches", "phi"):
            monkeypatch.setattr(odeident.cli, name, refuse)
        cfg_dict = rotation_config()
        cfg_dict["observation"] = observation
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: observation: " in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,named", [
        (("system", "basis", 0, 0, 0), {"coef": 1.0, "exponents": [1]},
         "system.basis[0][0][0].coeff"),
        (("system", "alpha0"), ["a", 1.0], "system.alpha0"),
        (("solver", "scan", "grid"), ["x", 2, 2], "solver.scan.grid"),
        (("system", "basis", 1), 7, "system.basis[1]"),
        (("system", "basis", 1), [[], []], "system.basis[1]"),
        # 2**53 + 1 would run as the even 2**53, flipping the sign of x^e for x < 0
        (("system", "basis", 0, 0, 0, "exponents"), [2 ** 53 + 1], "system.basis"),
        (("noise",), [1], "noise"),
        (("noise", "seed"), -1, "noise.seed"),
        (("observation", "h"), float("nan"), "observation.h"),
        # Gauss-Newton's thresholds are constants: an ignored block would change
        # results without a word
        (("solver", "gauss_newton"), {"max_iter": 5}, "solver.gauss_newton"),
        (("system", "x0"), [10 ** 400], "system.x0"),
        (("observation", "m"), 10 ** 20, "observation.m"),
        # certify's keys are validated with the rest of the config, for every verb
        (("solver", "verify_pairs"), "many", "solver.verify_pairs"),
        # certify would evaluate every sample and pair
        (("solver", "gamma_samples"), 10 ** 20, "solver.gamma_samples"),
        (("solver", "verify_pairs"), DEFAULTS.certify_budget + 1, "solver.verify_pairs"),
        # a scan of no cell would report success
        (("solver", "scan", "t_values"), [], "solver.scan.t_values"),
    ])
    def test_malformed_config_exits_2_naming_path(self, tmp_path, capsys, path, value,
                                                  named):
        cfg_dict = fuzz_base_config()
        _set(cfg_dict, path, value)
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert named in capsys.readouterr().err

    # an array entry is a real JSON number, as every scalar field's is: numpy
    # would read true as 1.0 and "0.1" as 0.1
    @pytest.mark.parametrize("path,value,named", [
        (("system", "alpha0"), [1.0, True], "'system.alpha0[1]' must be a finite number"),
        (("system", "x0"), ["0.1"], "'system.x0[0]' must be a finite number"),
        (("system", "x0"), "7", "'system.x0' must be a finite number"),
        (("solver", "init"), [True, False], "'solver.init[0]' must be a finite number"),
        (("solver", "scan", "x_box"), [[0.02, "0.3"]],
         "'solver.scan.x_box[0][1]' must be a finite number"),
    ])
    def test_array_entry_that_is_not_a_number_exits_2(self, tmp_path, capsys, path, value,
                                                      named):
        cfg_dict = fuzz_base_config()
        _set(cfg_dict, path, value)
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        for verb in ("simulate", "certify"):
            assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
            assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def fuzz_base_config():
    cfg = logistic_config(m=4, h=0.25)
    cfg["noise"] = {"sigma": 0.01, "seed": 3}
    cfg["solver"] = {
        "init": [0.9, -0.9],
        "scan": {"t_values": [1.0], "alpha_box": [[0.5, 1.5], [-1.5, -0.5]],
                 "x_box": [[0.02, 0.3]], "grid": [2, 2, 2]},
    }
    return cfg


_DELETE = object()


def _set(cfg, path, value):
    """Replace the value at `path`, or delete it when `value` is _DELETE."""
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)


def _paths(node, prefix=()):
    """Every key path in a JSON tree, parents before their children."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix + (key,)
        if isinstance(node[key], (dict, list)) and node[key]:
            yield from _paths(node[key], prefix + (key,))


# A fixed pool of replacement values, extremes included, keeps examples
# cheap: no moderately large sample count or stiff rate makes one run slow.
# 1e200 as noise.sigma overflows the inversions' residual norms, and 50 in a
# scan box overflows a rotation's sigma_1^(2n).
_LEAF_POOL = [None, True, False, 0, 1, 2, 3, -1, 50, 10 ** 20, 10 ** 400, 0.0, 0.5, -0.5,
              2.5, 1e-300, 1e200, 1e300, float("nan"), float("inf"), "", "x", "1.0",
              "polynomial_basis", "matrix_linear"]


def _containers(inner):
    keys = st.sampled_from(["coeff", "exponents", "h", "m", "seed", "x"])
    return st.one_of(st.lists(inner, max_size=3),
                     st.dictionaries(keys, inner, max_size=2))


def _edits(base, values):
    """One to three (path, value-or-_DELETE) edits of the config `base`."""
    return st.lists(st.tuples(st.sampled_from(list(_paths(base))),
                              st.one_of(st.just(_DELETE), values)),
                    min_size=1, max_size=3)


_JSON_VERBS = ("certify", "analyze-linear", "invert")


def _run_mutated(cfg_dict, edits, commands):
    """Apply the edits, run each command on the result, return the exit codes.

    A command is a verb and its extra arguments. Command i writes to
    "{out<i>}", which later arguments may name. Every JSON report left
    behind must be strict JSON. Gauss-Newton stops after 5 iterations, which
    bounds the cost of each mutated fit.
    """
    for path, value in edits:
        try:
            _set(cfg_dict, path, value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
    with tempfile.TemporaryDirectory() as tmp, gauss_newton_constants(gn_max_iter=5):
        cfg = write_config(Path(tmp), "fuzz.json", cfg_dict)
        outs = {f"out{i}": Path(tmp) / f"out{i}" for i in range(len(commands))}
        codes = []
        for i, (verb, *extra) in enumerate(commands):
            out = outs[f"out{i}"]
            codes.append(main([verb, "--config", cfg, "--out", str(out),
                               *(arg.format(**outs) for arg in extra)]))
            if verb in _JSON_VERBS and out.exists():
                strict_json(out.read_text())
        return codes


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=_edits(fuzz_base_config(),
                    st.recursive(st.sampled_from(_LEAF_POOL), _containers, max_leaves=4)))
def test_mutated_config_exit_code_contract(edits):
    """Any mutation of a valid config exits with a documented code, never a
    traceback. An edit replaces the value at a path or deletes it."""
    assert set(_run_mutated(fuzz_base_config(), edits, [("simulate",)])) <= {0, 2, 3, 4, 5}


def fuzz_rotation_config():
    # a deep copy: the edits must not reach the shared ROT matrix
    return copy.deepcopy(rotation_config(
        h=0.3, m=6, x0=(1.0, 0.7),
        extra_solver={"gamma_samples": 10, "verify_pairs": 20}))


# Leaves only: nested containers almost always fail validation (exit 2) before
# any numerics run. The explicit examples overflow the divided-difference
# determinant's exp(2 * 380) and the Krylov sequence exp(0.3 * 2360) x0.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(edits=[(("system", "alpha0", 0, 0), 380)])
@example(edits=[(("system", "alpha0"), [[2360, 0], [0, 1]]), (("system", "x0", 0), 10)])
@given(edits=_edits(fuzz_rotation_config(), st.sampled_from(_LEAF_POOL)))
def test_mutated_linear_config_exit_code_contract(edits):
    """As above for certify and analyze-linear on a matrix_linear config."""
    codes = _run_mutated(fuzz_rotation_config(), edits,
                         [("certify",), ("analyze-linear",)])
    assert set(codes) <= {0, 2, 3, 4, 5}


def fuzz_inversion_config():
    cfg = copy.deepcopy(rotation_config(
        h=0.3, m=6, x0=(1.0, 0.7), sigma=0.01, seed=3,
        extra_solver={"init": (np.array(ROT).ravel() + 0.03).tolist()}))
    cfg["solver"]["scan"] = {"t_values": [1.0],
                             "alpha_box": [[-0.2, 0.2], [0.8, 1.2], [-1.2, -0.8], [-0.2, 0.2]],
                             "x_box": [[0.5, 1.0], [0.5, 1.0]], "grid": 2}
    return cfg


# simulate writes the observations that both inversions read
_INVERT_AND_SCAN = [("simulate",), ("invert", "--mode", "fd", "--obs", "{out0}"),
                    ("invert", "--mode", "gn", "--obs", "{out0}"), ("zeta-scan",)]


# the explicit example overflows df/da at the observations
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(edits=[(("noise", "sigma"), 1e200)])
@given(edits=_edits(fuzz_base_config(), st.sampled_from(_LEAF_POOL)))
def test_mutated_config_invert_and_scan_exit_code_contract(edits):
    """As above for both inversions and zeta-scan on the polynomial config."""
    codes = _run_mutated(fuzz_base_config(), edits, _INVERT_AND_SCAN)
    assert set(codes) <= {0, 2, 3, 4, 5}


# the explicit examples reach the overflowing residual norm, sigma_1^(2n),
# a Gauss-Newton fit with no acceptable step and a gradient J^T r whose norm
# overflows
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(edits=[(("noise", "sigma"), 1e200)])
@example(edits=[(("solver", "scan", "alpha_box", 0, 1), 50)])
@example(edits=[(("noise", "sigma"), 1e20)])
@example(edits=[(("system", "x0", 0), 1e140)])
@given(edits=_edits(fuzz_inversion_config(), st.sampled_from(_LEAF_POOL)))
def test_mutated_linear_config_invert_and_scan_exit_code_contract(edits):
    """As above for both inversions and zeta-scan on a matrix_linear config."""
    codes = _run_mutated(fuzz_inversion_config(), edits, _INVERT_AND_SCAN)
    assert set(codes) <= {0, 2, 3, 4, 5}
