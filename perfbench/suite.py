#!/usr/bin/env python3
"""Run every workload, untraced and traced, for one seed and print a summary.

Usage (from the repository root):

    python3 perfbench/suite.py --seed 7919

For each workload this runs ``run.py --trace 0`` and ``run.py --trace 1`` as
separate processes with the same seed and the ``run_seconds`` of
``BENCHMARK.json``, prints every end-to-end metric with
its unit, the error rate, the trace overhead and each layer's share of
traced self time, and checks that both runs wrote identical output bytes
(the determinism digest). It exits 1 when any run fails a check or the
digests differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                          cwd=RUN.parent.parent)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, {}, {}
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    ok = True
    for workload in WORKLOADS:
        code0, rec0, res0 = run(workload, args.seed, seconds, 0)
        code1, rec1, res1 = run(workload, args.seed, seconds, 1)
        same = bool(rec0) and rec0.get("digest") == rec1.get("digest")
        ok = ok and code0 == 0 and code1 == 0 and same
        print(f"== {workload} (seed {args.seed}): exit {code0}/{code1}, "
              f"digest {'identical' if same else 'DIFFERS'} "
              f"{rec0.get('digest', '?')[:16]}")
        for name, metric in res0.get("metrics", {}).items():
            print(f"  {name:14s} {metric['value']:12.4f} {metric['unit']}")
        if rec0:
            host = rec0["host"]
            print(f"  error_rate     {rec0['error_rate']:12.4f} "
                  f"({rec0['jobs']} jobs, tail = p{rec0['tail_percentile']:.1f})")
            print(f"  host           nproc={host['nproc']} python={host['python']} "
                  f"numpy={host['numpy']} spin_ms={host['spin_ms']:.1f}")
        if rec1:
            overhead = res1["metrics"]["trace.overhead_ratio"]["value"]
            shares = ", ".join(f"{k} {v:.1%}" for k, v in rec1["layer_self_share"].items())
            print(f"  traced         overhead x{overhead:.3f}; self time: {shares}")
        for failure in rec0.get("failures", []) + rec1.get("failures", []):
            print(f"  FAILED {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
