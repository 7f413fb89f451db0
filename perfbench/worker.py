"""One workload in one process: set up, warm up, timed passes, checks.

Started by ``run.py``, which passes the monotonic clock reading taken just
before the launch, so set-up time covers interpreter start, ``import
gwgauss`` and input generation.  Prints one JSON line with the raw
figures; ``run.py`` turns them into the reported metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the tail percentile needs ten operations beyond it out of at least forty
MIN_OPS = 40


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import gwgauss as gw

    if Path(gw.__file__).resolve().parent != (SRC / "gwgauss").resolve():
        print(f"imported gwgauss from {gw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS)
    rng = np.random.default_rng([args.seed, names.index(args.workload)])
    workdir = OUT / f"work-{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = SimpleNamespace(workdir=workdir, env=_child_env(), tracer=None,
                              launcher=HERE / "launcher.py")
        if args.trace and not args.setup_only:
            # before the ops are built, so they bind the wrapped functions
            ctx.tracer = Tracer()
            if args.workload != "cli-chain":
                ctx.tracer.install()
        ops = workloads.WORKLOADS[args.workload](gw, rng, ctx)
        setup_s = clock() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(args, ops, ctx)
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GWGAUSS_UNITS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _measure(args, ops, ctx) -> dict:
    traced = ctx.tracer is not None

    passes = max(math.ceil(MIN_OPS / len(ops)),
                 round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    # one untimed, checked warm-up of the first operation
    wrong = [f"{ops[0].label}: {e}" for e in ops[0].check(ops[0].run())]
    failures: list[str] = []
    if traced:
        ctx.tracer.reset()
    latencies: list[float] = []
    busy = 0.0
    attempted = failed = 0
    for _ in range(passes):
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted, reported, and the run goes on
                busy += time.perf_counter() - t0
                failed += 1
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            wrong += [f"{op.label}: {e}" for e in op.check(out)]
            del out
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-chain" else resource.RUSAGE_SELF
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong_count": len(wrong),
        "wrong": wrong[:20],
        "failures": failures[:20],
        "passes": passes,
        "ops_per_pass": len(ops),
        "latencies": latencies,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if traced:
        result["layers"] = ctx.tracer.layer_metrics()
        OUT.mkdir(exist_ok=True)
        ctx.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result


if __name__ == "__main__":
    sys.exit(main())
