"""Benchmark entry point.

    python3 perfbench/run.py --workload <sweep|joint|montecarlo|cli-chain>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The program is imported from the
checkout's ``src/`` directory; nothing is installed.  The workload runs in
a separate worker process, launched once more for each set-up probe, so set-up
time is measured from process launch.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics untraced, the per-layer metrics traced.  The README
describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep", "joint", "montecarlo", "cli-chain")
# set-up-only launches before and after the run, so they fall in
# different stretches of the host's speed; setup_s is the median over
# these and the run's own set-up
SETUP_PROBES = 1
# one BLAS thread: two threads on this 2-core class of host stall in
# OpenBLAS spin-waits whenever a neighbour takes a core
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _launch(args, env, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = clock()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest percentile with ten
    operations beyond it."""
    return count - 11


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gwgauss benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gwgauss" / "__init__.py").is_file():
        print(f"no gwgauss sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    start = clock()
    try:
        # a traced run reports no setup_s, so it needs no probes
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_launch(args, env, True, 30)["setup_s"] for _ in range(probes)]
        res = _launch(args, env, False, WORKER_TIMEOUT_S - (clock() - start))
        setups += [_launch(args, env, True, 30)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    lat = sorted(res["latencies"])
    count = len(lat)
    if count < 40:
        print(f"only {count} timed operations completed; the tail needs 40", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
        "tail_percentile": 100.0 * (tail_index(count) + 1) / count, "timed_ops": count,
        "blas_threads": int(BLAS_THREADS), "setup_samples_s": setups,
        "ops_per_s": count / res["busy_s"],
        "wrong": res["wrong"], "failures": res["failures"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": info["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * lat[tail_index(count)], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    out = {"correct": res["wrong_count"] == 0, "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    (HERE / "out").mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # per-operation latencies in pass order, for finding which op sets a figure
    saved = {**out, "info": info, "latencies_ms": [1e3 * t for t in res["latencies"]]}
    (HERE / "out" / name).write_text(json.dumps(saved, indent=1))
    print(json.dumps(info))
    print(json.dumps(out))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".evals_per_point"):
        return "count"
    if name == "realize.sample.mbytes":
        return "MB-computed"
    return "ms"


if __name__ == "__main__":
    sys.exit(main())
