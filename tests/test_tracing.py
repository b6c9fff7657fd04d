"""The traced benchmark's tracer (perfbench/tracing.py) still sees the
observation map's entry points.

The tracer rebinds the layers' public functions by name in every
``odeident`` module and wraps the ``ParamSystem`` and ``MatrixLinear`` RHS
factories. A rewiring of ``phi``, ``phi_jacobian``, ``observe`` or the
integrators that hides a call from it fails here. This test reads
perfbench/ and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import ROTATION, logistic_system, rotation_handle
import odeident
import odeident.cli  # noqa: F401 - the tracer imports every layer, cli too
import odeident.ode
from odeident import ObservationMapHandle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every attribute of every odeident module, and the RHS factories."""
    found = {(name, attr): value for name, module in list(sys.modules.items())
             if name == "odeident" or name.startswith("odeident.")
             for attr, value in vars(module).items()}
    for cls in (odeident.ode.ParamSystem, odeident.ode.MatrixLinear):
        for attr in ("rhs", "sensitivity_rhs"):
            found[cls.__name__, attr] = vars(cls)[attr]
    return found


def descendants(spans, index):
    """The names of every span below span ``index``."""
    names = []
    for i, span in enumerate(spans):
        parent = span[1]
        while parent >= 0 and parent != index:
            parent = spans[parent][1]
        if parent == index and i != index:
            names.append(span[2])
    return names


def test_tracer_sees_the_observation_map():
    tracing = load_tracing()
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        logistic = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                        h=0.2, m=3, tol=1e-8)
        exact = rotation_handle()
        for handle, alpha in ((logistic, [1.0, -1.0]), (exact, ROTATION.ravel())):
            first = len(tracer.spans)
            odeident.phi(handle, alpha)
            odeident.phi_jacobian(handle, alpha)
            spans = tracer.spans
            calls = [(i, spans[i][2]) for i in range(first, len(spans))
                     if spans[i][1] == -1]
            assert [name for _, name in calls] == ["obsmap.phi", "obsmap.phi_jacobian"]
            below = {name: descendants(spans, i) for i, name in calls}
            if handle is logistic:
                assert below == {"obsmap.phi": ["ode.integrate"],
                                 "obsmap.phi_jacobian": ["ode.integrate_with_sensitivity"]}
            else:
                assert below == {"obsmap.phi": ["numkernel.mat_exp"],
                                 "obsmap.phi_jacobian": ["numkernel.mat_exp"]}
        assert tracer.rhs_evals["rhs"] > 0
        assert tracer.rhs_evals["sensitivity_rhs"] > 0
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_counts_one_run_per_gauss_newton_evaluation():
    """Each point Gauss-Newton evaluates is one run below its span: one
    ``ode.integrate_with_sensitivity`` span for an integrating species, one
    ``numkernel.mat_exp`` span for the exact one."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        logistic = ObservationMapHandle(sys=logistic_system(), x0=np.array([0.1]),
                                        h=0.2, m=3, tol=1e-8)
        cases = ((logistic, np.array([1.0, -1.0]), "ode.integrate_with_sensitivity"),
                 (rotation_handle(), ROTATION.ravel(), "numkernel.mat_exp"))
        for handle, alpha, run in cases:
            y = odeident.phi(handle, alpha)
            first = len(tracer.spans)
            result = odeident.gauss_newton_invert(handle, y, alpha + 0.05)
            spans = tracer.spans
            roots = [i for i in range(first, len(spans)) if spans[i][1] == -1]
            assert [spans[i][2] for i in roots] == ["estimate.gauss_newton_invert"]
            assert result.evaluations > 1
            assert descendants(spans, roots[0]).count(run) == result.evaluations
    finally:
        tracer.uninstall()


def test_tracer_counts_one_exponential_per_exact_observe():
    """A certificate and its check on the exact linear map: each phi and
    phi_jacobian call is one ``numkernel.mat_exp`` span, 1 + 2 gamma_samples
    + 2 (pairs - 1) in all, and nothing integrates. A fast path that skipped
    ``ode``'s binding of ``mat_exp`` would hide its work from the tracer."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        handle, alpha0 = rotation_handle(), ROTATION.ravel()
        gamma_samples, pairs = 10, 7
        first = len(tracer.spans)
        cert = odeident.certify_radius(handle, alpha0, r_work=0.1,
                                       gamma_samples=gamma_samples, seed=3)
        report = odeident.verify_lower_bound(handle, cert, pairs, seed=4)
        spans = tracer.spans
        names = [span[2] for span in spans[first:]]
    finally:
        tracer.uninstall()
    assert report.pairs_tested == pairs
    assert names.count("numkernel.mat_exp") == 1 + 2 * gamma_samples + 2 * (pairs - 1)
    observes = [i for i in range(first, len(spans))
                if spans[i][2] in ("obsmap.phi", "obsmap.phi_jacobian")]
    assert len(observes) == names.count("numkernel.mat_exp")
    assert all(descendants(spans, i) == ["numkernel.mat_exp"] for i in observes)
    assert not [name for name in names if name.startswith("ode.integrate")]
