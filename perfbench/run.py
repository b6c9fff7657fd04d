#!/usr/bin/env python3
"""odeident benchmark: one workload, one closed-loop client, in-process CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload linear-certify --seed 1 --seconds 30 --trace 0

The workload's jobs are generated from ``--seed`` as JSON configs under
``.perfbench_run/`` and run through ``odeident.cli.main(argv)`` one after the
other, cycling over the job list for ``--seconds`` seconds (at least one full
pass). Each job is timed from call to return and its output files are
checked; repeated runs of a job must write identical bytes. Set-up is timed
in fresh interpreters started between jobs, spread through the same seconds.
Times are CPU time of the process doing the work (``time.process_time``),
scaled to a nominal host speed by a fixed reference loop timed between jobs
(see ``HostScale``). Raw CPU and wall times are kept in the run record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the first
half of the job list twice untraced and once traced (see tracing.py) and
prints the per-layer metrics; the traced run must write the same bytes and
make the call counts the generated inputs imply.

The last stdout line is the result object; the line before it is a record
of the host and the run (versions, ``host.spin_ms``, output digest). Exit
code 0 means every check passed, 1 means a check failed, 2 means the program
could not be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
sys.path.insert(0, str(Path(__file__).resolve().parent))
# One client and no worker threads: keep BLAS from starting its own (set
# before numpy is imported; the setup probes inherit it).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from checks import check  # noqa: E402
from tracing import SPAN_FIELDS, Tracer, layer_metrics, nested_counts  # noqa: E402
from workloads import WORKLOADS, Job, generate  # noqa: E402

SETUP_PROBES = 7          # fresh interpreters per run, spread through the timed loop
# The job-time percentile each workload reports as job_tail_ms. It is fixed,
# so every commit reads the same percentile: one that had at least ten jobs
# beyond it in a run of this benchmark's run_seconds when the benchmark was
# defined, and that falls inside a cluster of job times (see workloads.py).
TAIL_PERCENTILE = {"linear-certify": 65.0, "poly-scan": 75.0, "recover": 70.0,
                   "linear-analyze": 97.0}


# CPU seconds the reference loop takes on the nominal host; roughly its median
# on the 2-core host the benchmark was defined on, so scaled times read close
# to the raw ones there.
REF_NOMINAL_S = 2.5e-3


def reference_s() -> float:
    """CPU seconds of a fixed pure-Python plus small-numpy loop (~2.5 ms)."""
    c0 = time.process_time()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    a = np.arange(9.0).reshape(3, 3)
    for _ in range(200):
        a = np.sin(a @ a)
    return time.process_time() - c0


class HostScale:
    """Scales CPU times measured on a drifting host to the nominal host.

    The host's speed moves 1.3-2x within seconds (other tenants on the same
    cores), and that moves CPU time as much as wall time. The reference loop
    runs once before the first timed item and once after each one; an item's
    time is multiplied by REF_NOMINAL_S over the mean of the two reference
    times around it, so the drift cancels and program changes do not.
    """

    def __init__(self):
        self.refs = [reference_s()]

    def __call__(self, cpu: float) -> float:
        self.refs.append(reference_s())
        return cpu * 2.0 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])


def spin_ms() -> float:
    """Wall time of twenty reference loops, to show host drift."""
    t0 = time.perf_counter()
    for _ in range(20):
        reference_s()
    return (time.perf_counter() - t0) * 1e3


def import_cli():
    """odeident.cli from this checkout's src/, or None when it is missing."""
    src = ROOT / "src"
    if not (src / "odeident" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import odeident.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "odeident").resolve():
        return None
    return cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs jobs through the CLI, checks them and remembers their digests."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[str, list] = {}
        self.failures: list[str] = []

    def run(self, job: Job) -> tuple[float, float, list, bool]:
        """(CPU seconds, wall seconds, exit codes, ok) for one run of ``job``."""
        error = None
        codes: list = []
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                for argv in job.steps:
                    # looked up per call, so the traced run sees the wrapper
                    codes.append(self.cli.main(argv))
            except Exception as exc:  # a traceback is a failed job, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        if error is None and any(code != 0 for code in codes):
            error = f"exit codes {codes}, expected 0"
        if error is None:
            digests = [sha256(p) for p in job.outputs]
            first = self.digests.setdefault(job.name, digests)
            if first is digests:
                error = check(job)
            elif first != digests:
                error = "outputs differ from an earlier run of the same job"
        if error is not None:
            self.failures.append(f"{job.name}: {error}")
        return cpu, wall, codes, error is None

    def digest(self, jobs: list) -> str:
        h = hashlib.sha256()
        for job in jobs:
            h.update(job.name.encode())
            for d in self.digests.get(job.name, ["missing"]):
                h.update(d.encode())
        return h.hexdigest()


def setup(cli, workload: str, seed: int, workdir: Path) -> tuple[Runner, list]:
    """Write the inputs and run the untimed warm-up job."""
    workdir.mkdir(parents=True)
    warmup, jobs = generate(workload, seed, workdir)
    runner = Runner(cli)
    runner.run(warmup)
    return runner, jobs


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(CPU, wall) seconds from starting a fresh interpreter to the end of its
    setup; the CPU time is the interpreter's own, reported when it is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only", str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    shutil.rmtree(workdir, ignore_errors=True)
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return float(cpu), seconds


def determinism_set(jobs: list) -> list:
    """The jobs both modes run first: their digest must match across runs."""
    return jobs[: max(len(jobs) // 2, 1)]


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``n`` values."""
    return max(math.ceil(pct / 100.0 * n), 1)


def timed_loop(runner: Runner, jobs: list, seconds: float, probe) -> tuple:
    """Cycle over the job list for ``seconds``, finishing at least one pass.

    ``probe(i)`` times one fresh set-up as (CPU, wall) seconds; it runs
    SETUP_PROBES times, spread evenly through the loop between jobs, so
    set-up meets the same host states as the jobs do. Jobs and probes alike
    are bracketed by the reference loop. Returns lists of job times (scaled,
    CPU, wall), set-up times (scaled, CPU, wall), the reference times and
    the number of jobs that passed.
    """
    out = {key: [] for key in ("job", "job_cpu", "job_wall",
                               "setup", "setup_cpu", "setup_wall")}
    scale, passed = HostScale(), 0

    def add(kind: str, cpu: float, wall: float) -> None:
        out[kind].append(scale(cpu))
        out[kind + "_cpu"].append(cpu)
        out[kind + "_wall"].append(wall)

    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < seconds:
        due = len(out["setup"]) * seconds / SETUP_PROBES
        if len(out["setup"]) < SETUP_PROBES and time.perf_counter() - start >= due:
            add("setup", *probe(len(out["setup"])))
            continue
        cpu, wall, _, ok = runner.run(jobs[i % len(jobs)])
        add("job", cpu, wall)
        passed += ok
        i += 1
    while len(out["setup"]) < SETUP_PROBES:
        add("setup", *probe(len(out["setup"])))
    out["reference"] = scale.refs
    return out, passed


def end_to_end(runner: Runner, jobs: list, workload: str, seconds: float, probe) -> tuple:
    out, passed = timed_loop(runner, jobs, seconds, probe)
    times = out["job"]
    attempted, failed = len(times), len(times) - passed
    pct = TAIL_PERCENTILE[workload]
    tail = lambda values: sorted(values)[rank(attempted, pct) - 1] * 1e3  # noqa: E731
    metrics = {
        "setup_s": statistics.median(out["setup"]),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_tail_ms": tail(times),
        # jobs that passed every check, per (scaled) second spent inside the CLI
        "jobs_per_s": passed / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"jobs": attempted, "distinct_jobs": len(jobs), "tail_percentile": pct,
              "jobs_beyond_tail": attempted - rank(attempted, pct),
              "error_rate": failed / attempted,
              "setup_samples_s": out["setup"],
              "setup_cpu_samples_s": out["setup_cpu"],
              "setup_wall_samples_s": out["setup_wall"],
              "reference_ms": statistics.median(out["reference"]) * 1e3,
              "cpu_job_p50_ms": statistics.median(out["job_cpu"]) * 1e3,
              "cpu_job_tail_ms": tail(out["job_cpu"]),
              "wall_job_p50_ms": statistics.median(out["job_wall"]) * 1e3,
              "wall_job_tail_ms": tail(out["job_wall"]),
              "digest": runner.digest(determinism_set(jobs)),
              "digest_all": runner.digest(jobs)}
    return metrics, record, attempted, failed


def traced(runner: Runner, jobs: list, workload: str, seed: int) -> tuple:
    """Run the determinism set twice untraced, then traced; return per-layer
    numbers.

    The traced runs are third runs of each job, so the runner fails any job
    whose traced outputs differ from its untraced ones. Both halves are
    scaled to the nominal host, so the overhead ratio leaves out host drift.
    """
    subset = determinism_set(jobs)
    for job in subset:
        # untimed first runs: they check the outputs and are slower than the
        # repeats the end-to-end metrics mostly measure
        runner.run(job)
    scale = HostScale()
    plain = [scale(runner.run(job)[0]) for job in subset]

    tracer = Tracer()
    counted = {"cli.exit_nonzero": 0, "obsmap.zeta_cells": 0, "zeta_failed": 0,
               "estimate.gn_iterations": 0, "estimate.gn_phi_trials": 0,
               "linearcase.branches": 0}
    times, failed = [], 0
    tracer.install()
    try:
        for job in subset:
            tracer.job = job.name
            first = len(tracer.spans)
            cpu, _, codes, ok = runner.run(job)
            times.append(scale(cpu))
            counted["cli.exit_nonzero"] += sum(code != 0 for code in codes)
            for parent, child, per_call in job.nested:
                seen = nested_counts(tracer.spans, first, parent, child)
                if seen != [per_call]:
                    ok = False
                    runner.failures.append(
                        f"{job.name}: traced {child} calls under {parent} = {seen}, "
                        f"inputs imply [{per_call}]")
            if ok:
                _count_outputs(job, tracer, first, counted)
            failed += not ok
    finally:
        tracer.uninstall()

    metrics, shares = layer_metrics(tracer)
    metrics.update({k: v for k, v in counted.items() if k != "zeta_failed"})
    cells = counted["obsmap.zeta_cells"]
    metrics["obsmap.zeta_failed_ratio"] = counted["zeta_failed"] / cells if cells else 0.0
    trials = counted["estimate.gn_phi_trials"]
    metrics["estimate.gn_accept_ratio"] = (
        counted["estimate.gn_iterations"] / trials if trials else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(times) / statistics.median(plain)
    _write_spans(tracer, workload, seed)
    record = {"jobs": len(subset), "layer_self_share": shares,
              "digest": runner.digest(subset), "error_rate": failed / len(subset)}
    return metrics, record, len(subset), failed


def _count_outputs(job: Job, tracer, first: int, counted: dict) -> None:
    """Add the job's verdict-side counts (cells, iterations, branches)."""
    if job.kind == "zeta":
        flags = [line.rsplit(",", 1)[1]
                 for line in job.outputs[0].read_text().strip().splitlines()[1:]]
        counted["obsmap.zeta_cells"] += len(flags)
        counted["zeta_failed"] += flags.count("2")
    elif job.kind == "recover":
        gn = json.loads(job.outputs[2].read_text())["result"]
        counted["estimate.gn_iterations"] += gn["iterations"]
        # one phi at the initial point, then one per trial step
        counted["estimate.gn_phi_trials"] += sum(
            nested_counts(tracer.spans, first, "estimate.gauss_newton_invert",
                          "obsmap.phi")) - 1
    elif job.kind == "analyze":
        branches = json.loads(job.outputs[0].read_text())["branches"]
        counted["linearcase.branches"] += len(branches["branches"]) if branches else 0


def _write_spans(tracer, workload: str, seed: int) -> None:
    path = WORK / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans,
                                "rhs_evals": tracer.rhs_evals}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    if cli is None:
        print("error: odeident not found under src/ next to perfbench/", file=sys.stderr)
        return 2
    if args.setup_only:
        # the main process repeats this warm-up and reports its failures
        setup(cli, args.workload, args.seed, Path(args.setup_only))
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    # One core for the whole run, set-up probes included (they inherit it):
    # the host's cores drift apart in speed, and a job or probe must run on
    # the core whose reference loops scale it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        spins = [spin_ms() for _ in range(3)]
        if args.trace:
            runner, jobs = setup(cli, args.workload, args.seed, workdir)
            metrics, record, attempted, failed = traced(runner, jobs, args.workload,
                                                        args.seed)
        else:
            runner, jobs = setup(cli, args.workload, args.seed, workdir / "main")
            probe = lambda i: time_setup(args.workload, args.seed, workdir / f"probe{i}")
            metrics, record, attempted, failed = end_to_end(runner, jobs, args.workload,
                                                            args.seconds, probe)
        after = [spin_ms() for _ in range(3)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spin = statistics.median(spins + after)
    if args.trace:
        metrics["host.spin_ms"] = spin
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "spin_ms": spin,
                 "spin_ms_before": statistics.median(spins),
                 "spin_ms_after": statistics.median(after)},
        "failures": runner.failures[:20],
    })
    correct = failed == 0 and not runner.failures
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
