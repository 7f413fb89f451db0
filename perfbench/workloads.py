"""The four workloads: inputs made from a seed, the operation list of one
pass, and the check each operation's output must pass.

An operation is ``Op(label, run, check)``: ``run()`` is the timed call
into the program and ``check(output)`` returns failure messages and runs
outside the timed interval.  Every workload keeps its operations in a
fixed order, so a run is a fixed amount of work for a given seed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import subprocess
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import checks
import oracles


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def demo_pair_cov(p: int, seed: int) -> np.ndarray:
    """The joint covariance ``demo-random`` builds: ``F F.T + 1e-9 I``."""
    factor = np.random.default_rng(seed).standard_normal((p, p))
    return factor @ factor.T + 1e-9 * np.eye(p)


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


# ---------------------------------------------------------------- sweep
# Base instances with n = 1, 2, 3, each jittered by the seed; each weight
# pair is one op.  Jitter rather than fresh draws keeps the cost of a pass
# close to the same on every seed, since one n = 3 instance alone costs as
# much as all the n = 1 instances together.  With one n = 3 instance, its
# four costly weight pairs are the top four latencies and the tail (the
# 11th largest) falls inside the 56 costly n = 2 ops.  The weight grid has ticks
# {0, 0.5, 1} with a1 + a2 >= 1, so it holds the corners (1, 0) and (0, 1),
# where q runs to the family boundary and a sweep costs ~10x an interior
# point, and (1, 1), where the sweep must close the D_W rate.
SWEEP_BASES = (
    tuple((x,) for x in np.linspace(0.2, 0.85, 14))
    + tuple((x, r * x) for x, r in zip(np.linspace(0.4, 0.9, 14), itertools.cycle((0.3, 0.5, 0.7))))
    + ((0.8, 0.5, 0.1),)
)
# distortions as shares of the D_W edge n (1 - d_max), so inside D_W
SWEEP_SHARES = ((0.5, 0.8), (0.8, 0.5), (0.65, 0.65))
SWEEP_JITTER = 0.03
SWEEP_WEIGHTS = tuple(
    (a1, a2) for a1 in (0.0, 0.5, 1.0) for a2 in (0.0, 0.5, 1.0) if a1 + a2 >= 1.0
)


def sweep(gw, rng: np.random.Generator, ctx) -> list[Op]:
    ops = []
    for k, base in enumerate(SWEEP_BASES):
        d = np.sort(np.asarray(base) + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER, len(base)))[::-1]
        shares = np.asarray(SWEEP_SHARES[k % len(SWEEP_SHARES)])
        shares = shares + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER, 2)
        delta1, delta2 = (float(x) for x in shares * oracles.dw_bound(d))
        for alpha in SWEEP_WEIGHTS:
            ops.append(Op(
                f"sweep n={d.size} #{k} alpha={alpha}",
                functools.partial(gw.region_sweep, d, delta1, delta2, alphas=[alpha]),
                functools.partial(checks.sweep_point, d, delta1, delta2, alpha),
            ))
    return ops


# ---------------------------------------------------------------- joint
# One random pair per op, built as demo-random builds one, with (p1, p2)
# cycling up to 128 + 128.  Inside D_W the distortions are shares of its
# edge b = n (1 - d_max); outside they are b plus a share of n.  On these
# pairs d_max is often within 1e-6 of 1, so b is tiny; outside pairs set
# as multiples of b, such as (0.2 b, 3 b), make the numerical path
# overshoot its budget on some seeds (see CHANGES.md) and are left out.
JOINT_SIZES = ((4, 3), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128))
JOINT_CYCLES = 14
JOINT_INSIDE = ((0.5, 0.5), (0.9, 0.25))
JOINT_OUTSIDE = ((0.05, 0.4), (0.2, 0.2))
# marginal water-fill budget as a share of each block's total variance
MARGINAL_SHARE = 0.2
# the program's strict-PD floor: smallest eigenvalue above 1e-10 x largest
PD_FLOOR = 1e-10


def _joint_run(gw, pair):
    cf = gw.decompose(pair)
    ci = gw.common_information(cf.idx, cf.d)
    d = cf.d
    edge = gw.dw_bound(d)
    n = d.size
    inside = [(m1 * edge, m2 * edge) for m1, m2 in JOINT_INSIDE]
    outside = [(edge + c1 * n, edge + c2 * n) for c1, c2 in JOINT_OUTSIDE]
    joint = [gw.joint_rdf(d, *dl) for dl in inside + outside]
    gray = [gw.gray_lower_bound(d, *dl) for dl in inside + outside]
    triples = [gw.pangloss_triple(d, *dl) for dl in inside]
    marg = [gw.marginal_rdf(v, MARGINAL_SHARE * float(np.sum(v))) for v in (cf.d1, cf.d2)]
    return cf, ci, inside + outside, joint, gray, triples, marg


def _joint_check(q, p1: int, thresholds, out) -> list[str]:
    cf, ci, deltas, joint, gray, triples, marg = out
    q11, q22, q12 = q[:p1, :p1], q[p1:, p1:], q[:p1, p1:]
    errors = checks.canonical_form(q11, q22, q12, cf, thresholds.h1, thresholds.h2)
    d = np.asarray(cf.d, dtype=float)
    if d.size == 0:
        return errors + ["no correlated components"]
    errors += checks.common_info(cf.idx, d, ci)
    for (delta1, delta2), res, g in zip(deltas, joint, gray):
        errors += [f"joint at ({delta1:.6g}, {delta2:.6g}): {e}"
                   for e in checks.joint_rate(d, delta1, delta2, res)]
        errors += checks.gray(d, delta1, delta2, g)
    for (delta1, delta2), triple, res in zip(deltas, triples, joint):
        errors += checks.pangloss(d, delta1, delta2, triple, res)
    for block, res in zip((q11, q22), marg):
        v = np.linalg.eigvalsh(block)
        errors += checks.waterfill(v, MARGINAL_SHARE * float(np.sum(np.diag(block))), res)
    return errors


def joint(gw, rng: np.random.Generator, ctx) -> list[Op]:
    ops = []
    thresholds = gw.Thresholds()
    for p1, p2 in JOINT_SIZES * JOINT_CYCLES:
        # demo-random's 1e-9 ridge can leave a 256 x 256 draw below the
        # program's strict-PD floor (see CHANGES.md); such draws are redrawn
        while True:
            seed = _seeds(rng, 1)[0]
            q = demo_pair_cov(p1 + p2, seed)
            ev = np.linalg.eigvalsh(q)
            if ev[0] > PD_FLOOR * ev[-1]:
                break
        pair = gw.JointGaussianPair.from_joint(q, p1)
        ops.append(Op(
            f"joint {p1}+{p2} seed={seed}",
            functools.partial(_joint_run, gw, pair),
            functools.partial(_joint_check, q, p1, thresholds),
        ))
    return ops


# ---------------------------------------------------------------- montecarlo
# Build a realization, draw MC_ROWS rows, validate; the three kinds in turn.
MC_ROWS = 500_000
MC_OPS = 40


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    qf, rf = np.linalg.qr(rng.standard_normal((n, n)))
    return qf * np.sign(np.diag(rf))


def _mc_optimal(gw, idx, d, target, rows, seed):
    st = gw.optimal_state(idx, d)
    block = gw.sample(st, rows, seed)
    return block, gw.validate_realization(block, target)


def _mc_family(gw, d, qw, target, rows, seed):
    real = gw.family_realization(d, qw)
    block = gw.sample(real, rows, seed)
    return block, gw.validate_realization(block, target)


def _mc_channel(gw, d, q, a1, a2, target, rows, seed):
    ch = gw.test_channel(d, q, a1, a2)
    block = gw.sample(ch, rows, seed)
    rep = gw.validate_realization(block, target, distortion_targets=(a1.sum(), a2.sum()))
    return block, rep


def _mc_check(target, p1, p2, identical, corr_d, distortion, out) -> list[str]:
    block, rep = out
    mi_target = math.inf if identical else oracles.gaussian_mi(target[:p1 + p2, :p1 + p2], p1)
    return checks.realization_report(
        block, target, p1, p2, rep, identical=identical, mi_target=mi_target,
        corr_d=corr_d, distortion=distortion,
    )


def montecarlo(gw, rng: np.random.Generator, ctx) -> list[Op]:
    ops = []
    n = 3
    for i, seed in enumerate(_seeds(rng, MC_OPS)):
        d = np.sort(rng.uniform(0.1, 0.9, n))[::-1].copy()
        kind = i % 3
        if kind == 0:
            # identical, correlated and private components on both sides
            p11, p13, p23 = 1, 1, 1
            idx = gw.IndexSextuple(p11, n, p13, p11, n, p23)
            target = oracles.optimal_triple_cov(p11, d, p13, p23)
            run = functools.partial(_mc_optimal, gw, idx, d, target, MC_ROWS, seed)
            check = functools.partial(_mc_check, target, p11 + n + p13, p11 + n + p23,
                                      True, d, None)
            label = "optimal_state"
        elif kind == 1:
            # dense state with spectrum strictly inside [d_max, 1/d_max]
            spread = -math.log(d[0])
            lam = np.exp(rng.uniform(-0.8, 0.8, n) * spread)
            u = _random_rotation(rng, n)
            qw = (u * lam) @ u.T
            qw = 0.5 * (qw + qw.T)
            target = oracles.state_triple_cov(d, qw)
            run = functools.partial(_mc_family, gw, d, qw, target, MC_ROWS, seed)
            check = functools.partial(_mc_check, target, n, n, False, d, None)
            label = "family_realization"
        else:
            q = d ** rng.uniform(-0.8, 0.8, n)
            v1, v2 = oracles.branch_variances(d, q)
            a1 = rng.uniform(0.2, 0.9, n) * v1
            a2 = rng.uniform(0.2, 0.9, n) * v2
            target = oracles.state_triple_cov(d, np.diag(q))
            run = functools.partial(_mc_channel, gw, d, q, a1, a2, target, MC_ROWS, seed)
            check = functools.partial(_mc_check, target, n, n, False, d, (a1, a2))
            label = "test_channel"
        ops.append(Op(f"mc {label} #{i}", run, check))
    return ops


# ---------------------------------------------------------------- cli-chain
# One op is one `python -m gwgauss.cli` call; the chain passes files.
CLI_P1, CLI_P2 = 4, 3
CLI_ROWS = 200_000


def _cli_run(ctx, args: list[str]):
    """Run one CLI call; under tracing, through the launcher that times the
    import and the command and records library spans."""
    if ctx.tracer is not None:
        spans = ctx.workdir / "spans.jsonl"
        cmd = [sys.executable, str(ctx.launcher), str(spans), *args]
    else:
        cmd = [sys.executable, "-m", "gwgauss.cli", *args]
    proc = subprocess.run(cmd, cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True,
                          timeout=120)
    if ctx.tracer is not None and spans.exists():
        ctx.tracer.load(spans)
        spans.unlink()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def _cli_check(check, ctx, proc) -> list[str]:
    try:
        body = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    return check(ctx, body)


def _read_json(ctx, name: str):
    return json.loads((ctx.workdir / name).read_text())


def _check_demo(inp, ctx, body) -> list[str]:
    pair = _read_json(ctx, "pair.json")
    q = np.asarray(pair["Q"], dtype=float)
    if (pair["p1"], pair["p2"]) != (CLI_P1, CLI_P2) or not np.array_equal(q, inp.q):
        return ["pair.json differs from the demo recipe at the requested seed"]
    return []


def _cvf_d(ctx) -> np.ndarray:
    return np.asarray(_read_json(ctx, "cvf.json")["d"], dtype=float)


def _check_cvf(inp, ctx, body) -> list[str]:
    cvf = _read_json(ctx, "cvf.json")
    q11, q22, q12 = inp.q[:CLI_P1, :CLI_P1], inp.q[CLI_P1:, CLI_P1:], inp.q[:CLI_P1, CLI_P1:]
    cf = SimpleNamespace(
        sv=np.asarray(cvf["audit"]["sv"]), d=np.asarray(cvf["d"]),
        idx=SimpleNamespace(**cvf["idx"]),
    )
    th = cvf["thresholds"]
    errors = checks.canonical_form(q11, q22, q12, cf, th["h1"], th["h2"])
    if body["d"] != cvf["d"] or body["idx"] != cvf["idx"]:
        errors.append("stdout summary disagrees with cvf.json")
    return errors


def _check_common_info(inp, ctx, body) -> list[str]:
    d = _cvf_d(ctx)
    idx = SimpleNamespace(**_read_json(ctx, "cvf.json")["idx"])
    res = SimpleNamespace(value=body["value"], correlated_part=body["correlated_part"])
    return checks.common_info(idx, d, res)


def _check_realize_identity(inp, ctx, body) -> list[str]:
    real = _read_json(ctx, "real_identity.json")
    d = _cvf_d(ctx)
    l1, l2, l3 = (np.asarray(real[k], dtype=float) for k in ("l1", "l2", "l3"))
    # W = l1 Y1 + l2 Y2 + l3 V must have unit variance and Cov(Y_i, W) = sqrt(d)
    var_w = l1 * l1 + l2 * l2 + 2.0 * l1 * l2 * d + l3 * l3
    cov1 = l1 + l2 * d
    cov2 = l1 * d + l2
    errors = []
    if real["kind"] != "optimal-state" or body["kind"] != "optimal-state":
        errors.append(f"kind {real['kind']!r}")
    if not (np.allclose(var_w, 1.0, rtol=0, atol=1e-12)
            and np.allclose(cov1, np.sqrt(d), rtol=0, atol=1e-12)
            and np.allclose(cov2, np.sqrt(d), rtol=0, atol=1e-12)):
        errors.append("optimal-state gains do not give Var(W) = 1, Cov(Y_i, W) = sqrt(d)")
    return errors


def _check_realize_state(inp, ctx, body) -> list[str]:
    real = _read_json(ctx, "real_state.json")
    d = _cvf_d(ctx)
    c1, c2, qz1, qz2, qw = (np.asarray(real[k], dtype=float) for k in ("c1", "c2", "qz1", "qz2", "qw"))
    n = d.size
    errors = []
    if real["kind"] != "ci-family":
        errors.append(f"kind {real['kind']!r}")
    if not np.array_equal(qw, np.diag(inp.q_state)):
        errors.append("realization state differs from the state file")
    for what, got, want in (
        ("Cov(Y1)", c1 @ qw @ c1.T + qz1, np.eye(n)),
        ("Cov(Y2)", c2 @ qw @ c2.T + qz2, np.eye(n)),
        ("Cov(Y1, Y2)", c1 @ qw @ c2.T, np.diag(d)),
    ):
        if not np.allclose(got, want, rtol=0, atol=1e-12):
            errors.append(f"{what} of the realization is not the canonical pair's")
    for name, qz in (("qz1", qz1), ("qz2", qz2)):
        if np.linalg.eigvalsh(0.5 * (qz + qz.T))[0] < -1e-12:
            errors.append(f"{name} is not PSD")
    return errors


def _check_simulate(target_of, name, inp, ctx, body) -> list[str]:
    rep = json.loads((ctx.workdir / name).read_text())
    if rep != body:
        return ["report file differs from stdout summary"]
    d = _cvf_d(ctx)
    target, p1, p2, identical = target_of(inp, ctx, d)
    n = body["n_samples"]
    if n != CLI_ROWS:
        return [f"n_samples {n} != {CLI_ROWS}"]
    errors = []
    cov_sd, ci_sd = checks.mc_scales(target, n)
    if body["cov_rel_err"] > checks.MC_SIGMAS * cov_sd:
        errors.append(f"cov_rel_err {body['cov_rel_err']:.3e} > {checks.MC_SIGMAS} x {cov_sd:.3e}")
    if body["ci_residual"] > checks.MC_SIGMAS * ci_sd:
        errors.append(f"ci_residual {body['ci_residual']:.3e} > {checks.MC_SIGMAS} x {ci_sd:.3e}")
    if identical:
        if body["mi_plugin"] != math.inf:
            errors.append(f"mi_plugin {body['mi_plugin']!r} finite with identical components")
        return errors
    mi_target = oracles.gaussian_mi(target[:p1 + p2, :p1 + p2], p1)
    mi_tol = checks.MC_SIGMAS * math.sqrt(float(np.sum(d * d)) / n) + p1 * p2 / n
    if abs(body["mi_plugin"] - mi_target) > mi_tol:
        errors.append(f"mi_plugin {body['mi_plugin']!r} vs exact {mi_target!r} beyond {mi_tol:.3e}")
    return errors


def _identity_target(inp, ctx, d):
    idx = SimpleNamespace(**_read_json(ctx, "cvf.json")["idx"])
    target = oracles.optimal_triple_cov(idx.p11, d, idx.p13, idx.p23)
    return target, idx.p11 + d.size + idx.p13, idx.p21 + d.size + idx.p23, idx.p11 > 0


def _state_target(inp, ctx, d):
    return oracles.state_triple_cov(d, np.diag(inp.q_state)), d.size, d.size, False


def _check_rdf_marginal(inp, ctx, body) -> list[str]:
    v = np.linalg.eigvalsh(inp.q[:CLI_P1, :CLI_P1])
    res = SimpleNamespace(rate=body["rate"], alloc=np.asarray(body["alloc"]))
    return checks.waterfill(v, inp.delta_marginal, res)


def _check_rdf_conditional(inp, ctx, body) -> list[str]:
    d = _cvf_d(ctx)
    v2 = oracles.branch_variances(d, inp.q_state)[1]
    res = SimpleNamespace(rate=body["rate"], alloc=np.asarray(body["alloc"]))
    return checks.waterfill(v2, inp.delta_conditional, res)


def _check_rdf_joint(deltas, inp, ctx, body) -> list[str]:
    d = _cvf_d(ctx)
    res = SimpleNamespace(rate=body["rate"], alloc1=np.asarray(body["alloc1"]),
                          alloc2=np.asarray(body["alloc2"]), regime=body["regime"])
    return checks.joint_rate(d, *getattr(inp, deltas), res)


def _check_region(inp, ctx, body) -> list[str]:
    d = _cvf_d(ctx)
    with open(ctx.workdir / "region.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["alpha1", "alpha2", "T", "R0", "R1", "R2"] + [f"q_{j + 1}" for j in range(d.size)]
    if rows[0] != header or len(rows) != 2 or body["points"] != 1:
        return [f"region CSV has header {rows[0]} and {len(rows) - 1} rows"]
    vals = [float(x) for x in rows[1]]
    point = SimpleNamespace(
        alpha1=vals[0], alpha2=vals[1], objective=vals[2],
        triple=SimpleNamespace(r0=vals[3], r1=vals[4], r2=vals[5]), q=np.asarray(vals[6:]),
    )
    return checks.sweep_point(d, *inp.delta_inside, (1.0, 1.0), [point])


def cli_chain(gw, rng: np.random.Generator, ctx) -> list[Op]:
    demo_seed, sim_seed = _seeds(rng, 2)
    q = demo_pair_cov(CLI_P1 + CLI_P2, demo_seed)
    d = oracles.canonical_correlations(q[:CLI_P1, :CLI_P1], q[CLI_P1:, CLI_P1:], q[:CLI_P1, CLI_P1:])
    n = d.size
    # the diagonal state file: q_j = d_j^s, s in (-0.8, 0.8), inside [d_j, 1/d_j]
    q_state = d ** rng.uniform(-0.8, 0.8, n)
    (ctx.workdir / "state.json").write_text(json.dumps({"qw": np.diag(q_state).tolist()}))
    edge = oracles.dw_bound(d)
    inp = SimpleNamespace(
        q=q, q_state=q_state,
        delta_marginal=float(0.3 * np.trace(q[:CLI_P1, :CLI_P1])),
        delta_conditional=float(0.4 * np.sum(oracles.branch_variances(d, q_state)[1])),
        delta_inside=(0.5 * edge, 0.7 * edge),
        delta_outside=(edge + JOINT_OUTSIDE[0][0] * n, edge + JOINT_OUTSIDE[0][1] * n),
    )
    f = lambda x: format(x, ".17g")  # noqa: E731
    calls = [
        ("demo-random", ["demo-random", "--p1", str(CLI_P1), "--p2", str(CLI_P2),
                         "--seed", str(demo_seed), "--out", "pair.json"], _check_demo),
        ("cvf", ["cvf", "--in", "pair.json", "--out", "cvf.json"], _check_cvf),
        ("common-info", ["common-info", "--in", "pair.json"], _check_common_info),
        ("realize identity", ["realize", "--in", "cvf.json", "--out", "real_identity.json"],
         _check_realize_identity),
        ("realize state", ["realize", "--in", "cvf.json", "--qw", "state.json",
                           "--out", "real_state.json"], _check_realize_state),
        ("simulate identity", ["simulate", "--realization", "real_identity.json",
                               "-N", str(CLI_ROWS), "--seed", str(sim_seed),
                               "--report", "rep_identity.json"],
         functools.partial(_check_simulate, _identity_target, "rep_identity.json")),
        ("simulate state", ["simulate", "--realization", "real_state.json",
                            "-N", str(CLI_ROWS), "--seed", str(sim_seed),
                            "--report", "rep_state.json"],
         functools.partial(_check_simulate, _state_target, "rep_state.json")),
        ("rdf marginal", ["rdf", "marginal", "--in", "cvf.json",
                          "--delta1", f(inp.delta_marginal), "--branch", "1"], _check_rdf_marginal),
        ("rdf conditional", ["rdf", "conditional", "--in", "cvf.json", "--qw", "state.json",
                             "--delta1", f(inp.delta_conditional), "--branch", "2"],
         _check_rdf_conditional),
        ("rdf joint inside", ["rdf", "joint", "--in", "cvf.json",
                              "--delta1", f(inp.delta_inside[0]), "--delta2", f(inp.delta_inside[1])],
         functools.partial(_check_rdf_joint, "delta_inside")),
        ("rdf joint outside", ["rdf", "joint", "--in", "cvf.json",
                               "--delta1", f(inp.delta_outside[0]), "--delta2", f(inp.delta_outside[1])],
         functools.partial(_check_rdf_joint, "delta_outside")),
        ("region", ["region", "--in", "cvf.json", "--delta1", f(inp.delta_inside[0]),
                    "--delta2", f(inp.delta_inside[1]), "--alpha-grid", "1", "--out", "region.csv"],
         _check_region),
    ]
    return [
        Op(label, functools.partial(_cli_run, ctx, args),
           functools.partial(_cli_check, functools.partial(check, inp), ctx))
        for label, args, check in calls
    ]


WORKLOADS = {"sweep": sweep, "joint": joint, "montecarlo": montecarlo, "cli-chain": cli_chain}
# Reference cost of one pass in seconds on the 2-core host the README
# describes; a run repeats the pass max(ceil(40 / ops), round(seconds / this)) times.
PASS_SECONDS = {"sweep": 26.0, "joint": 11.0, "montecarlo": 10.5, "cli-chain": 10.0}
