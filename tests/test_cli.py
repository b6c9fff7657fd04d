import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from odeident import DEFAULTS, __version__
from odeident.cli import main

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


class TestSimulate:
    def test_rotation_writes_m_rows(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config())
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 51

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

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json",
                           rotation_config(sigma=1e-3, seed=7, m=20))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "8"])
        assert out1.read_bytes() != out2.read_bytes()

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

    @pytest.mark.parametrize("power", [10 ** 9, 2 ** 62])
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
        blob = json.loads(out.read_text())
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
        blob = json.loads(out.read_text())
        assert blob["not_identifiable"] is True
        assert blob["diagnostics"]["beta"] <= 1e-10

    def test_rotation_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "rot.json", rotation_config(m=8))
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
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
        assert main(["analyze-linear", "--config", cfg, "--out", str(out),
                     "--kmax", "2"]) == 0
        blob = json.loads(out.read_text())
        assert len(blob["branches"]["branches"]) == 5
        assert blob["degeneracy"]["in_set_A"] is True
        assert blob["full_rank"]["full"] is True
        dd = blob["divided_difference_determinant"]
        assert np.allclose(dd["numeric"], dd["closed_form"], rtol=1e-6)

    def test_real_spectrum_unique_branch(self, tmp_path):
        cfg = write_config(tmp_path, "diag.json",
                           rotation_config(h=0.5, m=8, x0=(1.0, 1.0),
                                           alpha0=[[1.0, 0.0], [0.0, 2.0]]))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert len(blob["branches"]["branches"]) == 1

    def test_full_rotation_aliasing_flagged(self, tmp_path):
        alpha = (2.0 * math.pi * np.array(ROT)).tolist()
        cfg = write_config(tmp_path, "alias.json",
                           rotation_config(h=1.0, m=8, alpha0=alpha))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["degeneracy"]["in_set_A"] is False
        assert any(pair[2] == 2 for pair in blob["degeneracy"]["aliasing_pairs"])

    def test_defective_reports_but_exits_0(self, tmp_path):
        cfg = write_config(tmp_path, "def.json",
                           rotation_config(h=0.5, m=8,
                                           alpha0=[[1.0, 1.0], [0.0, 1.0]]))
        out = tmp_path / "lin.json"
        assert main(["analyze-linear", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["degeneracy"]["defective"] is True
        assert blob["branches"] is None

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
        blob = json.loads(out.read_text())
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
        blob = json.loads(out.read_text())
        alpha = np.array(blob["result"]["alpha_hat"])
        assert np.abs(alpha - np.array(ROT).ravel()).max() <= 1e-6
        assert blob["result"]["converged"] is True

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

    def test_non_convergence_exits_5_with_result(self, tmp_path):
        init = (np.array(ROT).ravel() + 0.2)
        cfg_dict = rotation_config(h=0.3, m=6, x0=(1.0, 0.7),
                                   extra_solver={
                                       "init": init.tolist(),
                                       "gauss_newton": {"max_iter": 1},
                                   })
        cfg = write_config(tmp_path, "rot.json", cfg_dict)
        obs = tmp_path / "obs.csv"
        main(["simulate", "--config", cfg, "--out", str(obs)])
        out = tmp_path / "est.json"
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--mode", "gn", "--out", str(out)]) == 5
        blob = json.loads(out.read_text())
        assert blob["result"]["converged"] is False

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

    def test_missing_scan_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "logi.json", logistic_config())
        assert main(["zeta-scan", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2


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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("path,value,named", [
        (("system", "basis", 0, 0, 0), {"coef": 1.0, "exponents": [1]},
         "system.basis[0][0][0].coeff"),
        (("system", "alpha0"), ["a", 1.0], "system.alpha0"),
        (("solver", "scan", "grid"), ["x", 2, 2], "solver.scan.grid"),
        (("system", "basis", 1), 7, "system.basis[1]"),
        (("noise",), [1], "noise"),
        (("noise", "seed"), -1, "noise.seed"),
        (("observation", "h"), float("nan"), "observation.h"),
        (("solver", "gauss_newton", "max_iter"), "many", "solver.gauss_newton.max_iter"),
        (("system", "x0"), [10 ** 400], "system.x0"),
        (("observation", "m"), 10 ** 20, "observation.m"),
        # certify's keys are validated with the rest of the config, for every verb
        (("solver", "verify_pairs"), "many", "solver.verify_pairs"),
        # certify would evaluate every sample and pair
        (("solver", "gamma_samples"), 10 ** 20, "solver.gamma_samples"),
        (("solver", "verify_pairs"), DEFAULTS.certify_budget + 1, "solver.verify_pairs"),
    ])
    def test_malformed_config_exits_2_naming_path(self, tmp_path, capsys, path, value,
                                                  named):
        cfg_dict = fuzz_base_config()
        _set(cfg_dict, path, value)
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert named in capsys.readouterr().err


def fuzz_base_config():
    cfg = logistic_config(m=4, h=0.25)
    cfg["noise"] = {"sigma": 0.01, "seed": 3}
    cfg["solver"] = {
        "init": [0.9, -0.9],
        "gauss_newton": {"max_iter": 5, "damping": 1e-3},
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
    behind must be strict JSON.
    """
    for path, value in edits:
        try:
            _set(cfg_dict, path, value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
    with tempfile.TemporaryDirectory() as tmp:
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
# any numerics run.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=_edits(fuzz_rotation_config(), st.sampled_from(_LEAF_POOL)))
def test_mutated_linear_config_exit_code_contract(edits):
    """As above for certify and analyze-linear on a matrix_linear config."""
    codes = _run_mutated(fuzz_rotation_config(), edits,
                         [("certify",), ("analyze-linear",)])
    assert set(codes) <= {0, 2, 3, 4, 5}


def fuzz_inversion_config():
    cfg = copy.deepcopy(rotation_config(
        h=0.3, m=6, x0=(1.0, 0.7), sigma=0.01, seed=3,
        extra_solver={"init": (np.array(ROT).ravel() + 0.03).tolist(),
                      "gauss_newton": {"max_iter": 5}}))
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


# the two explicit examples reach the overflowing residual norm and sigma_1^(2n)
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(edits=[(("noise", "sigma"), 1e200)])
@example(edits=[(("solver", "scan", "alpha_box", 0, 1), 50)])
@given(edits=_edits(fuzz_inversion_config(), st.sampled_from(_LEAF_POOL)))
def test_mutated_linear_config_invert_and_scan_exit_code_contract(edits):
    """As above for both inversions and zeta-scan on a matrix_linear config."""
    codes = _run_mutated(fuzz_inversion_config(), edits, _INVERT_AND_SCAN)
    assert set(codes) <= {0, 2, 3, 4, 5}
