"""Outside-in tracing of odeident's layers for the traced benchmark run.

The tracer wraps the public functions of each layer and records one span
per call: (job, parent span, function, start, end). Spans stay in memory and
are reduced to per-layer numbers when the run ends. Nothing under ``src/``
changes; the wrappers are installed by rebinding module attributes.

Modules import each other's functions by name (``from .obsmap import
phi_jacobian``), so a function has one binding per importing module. The
tracer therefore finds every binding by the identity of the original object
across all ``odeident.*`` modules first, and only then rebinds them; patching
module by module would miss, say, ``linearcase.phi_jacobian``.

Right-hand-side evaluations are counted, not spanned: ``rhs`` and
``sensitivity_rhs`` on ``ParamSystem`` (and the ``MatrixLinear`` overrides)
are wrapped so that the closures they return bump a counter per call.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = {
    "cli": ("main",),
    "obsmap": ("phi", "phi_jacobian", "certify_radius", "verify_lower_bound",
               "zeta_scan"),
    "ode": ("integrate", "integrate_with_sensitivity"),
    "estimate": ("gauss_newton_invert", "fd_linear_estimate"),
    "linearcase": ("degeneracy_report", "log_branches", "full_rank_check",
                   "exp_divided_difference_determinant"),
    "numkernel": ("mat_exp", "eigenvalues", "singular_values", "least_squares"),
}
RHS_FACTORIES = (("ParamSystem", "rhs"), ("ParamSystem", "sensitivity_rhs"),
                 ("MatrixLinear", "rhs"), ("MatrixLinear", "sensitivity_rhs"))

SPAN_FIELDS = ("job", "parent", "name", "start", "end")
PARENT, NAME, START, END = range(1, 5)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.rhs_evals = {"rhs": 0, "sensitivity_rhs": 0}
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"odeident.{layer}")
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (f"{layer}.{name}", fn)
        bindings = [(module, attr, value)
                    for modname, module in list(sys.modules.items())
                    if modname == "odeident" or modname.startswith("odeident.")
                    for attr, value in vars(module).items()
                    if id(value) in originals and value is originals[id(value)][1]]
        wrappers = {key: self._span(name, fn) for key, (name, fn) in originals.items()}
        for module, attr, value in bindings:
            setattr(module, attr, wrappers[id(value)])
            self._restore.append((module, attr, value))

        ode = importlib.import_module("odeident.ode")
        for cls_name, method in RHS_FACTORIES:
            cls = getattr(ode, cls_name)
            factory = vars(cls)[method]
            setattr(cls, method, self._counting(method, factory))
            self._restore.append((cls, method, factory))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.job, stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _counting(self, key: str, factory):
        counts = self.rhs_evals

        @functools.wraps(factory)
        def make(system, alpha):
            inner = factory(system, alpha)

            def counted(t, y):
                counts[key] += 1
                return inner(t, y)

            return counted

        return make


def nested_counts(spans: list, first: int, parent: str, child: str) -> list[int]:
    """For each `parent` span from index `first` on, the `child` spans below it."""
    counts = {i: 0 for i in range(first, len(spans)) if spans[i][NAME] == parent}
    for i in range(first, len(spans)):
        if spans[i][NAME] != child:
            continue
        p = spans[i][PARENT]
        while p >= 0:
            if p in counts:
                counts[p] += 1
            p = spans[p][PARENT]
    return [counts[i] for i in sorted(counts)]


def _p50_us(durations: list) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(per-function and per-layer numbers, per-layer self-time shares)."""
    durations: dict[str, list] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        dur = s[END] - s[START]
        durations.setdefault(s[NAME], []).append(dur)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
    for i, s in enumerate(tracer.spans):
        self_s[s[NAME].split(".")[0]] += s[END] - s[START] - child_time[i]

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return sum(durations.get(name, ()), 0.0)

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in ("obsmap.phi", "obsmap.phi_jacobian", "ode.integrate",
                 "ode.integrate_with_sensitivity", "numkernel.mat_exp",
                 "numkernel.eigenvalues"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    for name in ("obsmap.phi", "obsmap.phi_jacobian", "ode.integrate",
                 "ode.integrate_with_sensitivity"):
        out[f"{name}.p50_us"] = _p50_us(durations.get(name, []))
    for name in ("obsmap.certify_radius", "obsmap.verify_lower_bound",
                 "obsmap.zeta_scan", "estimate.gauss_newton_invert",
                 "estimate.fd_linear_estimate", "linearcase.degeneracy_report",
                 "linearcase.log_branches", "linearcase.full_rank_check",
                 "numkernel.singular_values", "numkernel.least_squares"):
        out[f"{name}.busy_s"] = busy(name)
    rhs, sens = tracer.rhs_evals["rhs"], tracer.rhs_evals["sensitivity_rhs"]
    out["ode.rhs_evals"] = rhs
    out["ode.sensitivity_rhs_evals"] = sens
    ode_busy = busy("ode.integrate") + busy("ode.integrate_with_sensitivity")
    out["ode.us_per_rhs_eval"] = ode_busy / (rhs + sens) * 1e6 if rhs + sens else 0.0

    total = sum(self_s.values())
    shares = {layer: (v / total if total else 0.0) for layer, v in self_s.items()}
    return out, shares
