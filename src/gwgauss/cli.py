"""Command line interface.

Every command reads and writes plain JSON (or CSV where noted), prints a
compact JSON summary to stdout, and maps every library error class to a
stable exit code with a JSON error body on stderr.  Rates are converted
at this layer only; infinite values use the JSON ``Infinity`` literal.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import errors as err
from .gaussmodel import (
    JointGaussianPair,
    check_canonical_args,
    nats_to,
    pair_from_csv,
    pair_from_dict,
    pair_to_dict,
)
from .cvf import CanonicalForm, IndexSextuple, Thresholds, decompose
from .graywyner import lossy_common_information, region_csv, region_sweep
from .mc_oracle import validate_realization
from .rdf import conditional_rdf, gray_lower_bound, joint_rdf, marginal_rdf
from .realize import (
    CIRealization,
    family_realization,
    optimal_state,
    optimal_triple_cov,
    sample,
    state_triple,
)
from .wyner import common_information

EXIT_CODES = {
    err.AsymmetricMatrix: 4,
    err.NotPositiveDefinite: 5,
    err.DimensionMismatch: 6,
    err.InconsistentIndices: 7,
    err.SingularValueOutOfRange: 8,
    err.QWOutOfFamily: 9,
    # 10 and 14 are unassigned: no error maps to them
    err.NonpositiveDistortion: 11,
    err.QWNotDiagonal: 12,
    err.AllocationOutOfRange: 13,
    err.OutsideDW: 15,
    err.TooFewSamples: 16,
    err.MissingReconstruction: 17,
}
EXIT_FILE_NOT_FOUND = 3
EXIT_OTHER = 18

UNITS_CHOICE = click.Choice(["nats", "bits", "paper-example-bits"])


def _default_units() -> str:
    return os.environ.get("GWGAUSS_UNITS", "nats")


def _fail(exc: Exception, code: int) -> None:
    body = {"error": type(exc).__name__, "message": str(exc)}
    bound = getattr(exc, "bound", None)
    if bound is not None:
        body["dw_bound"] = bound
    click.echo(json.dumps(body), err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            _fail(exc, EXIT_FILE_NOT_FOUND)
        except err.GwgaussError as exc:
            _fail(exc, EXIT_CODES.get(type(exc), EXIT_OTHER))

    return wrapper


def _read_pair(path: str) -> JointGaussianPair:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return pair_from_csv(text)
    return pair_from_dict(json.loads(text))


def _write_or_echo(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _cvf_to_dict(cf: CanonicalForm, thresholds: Thresholds) -> dict:
    return {
        "p1": cf.idx.p1,
        "p2": cf.idx.p2,
        "thresholds": {"h1": thresholds.h1, "h2": thresholds.h2},
        "idx": {k: getattr(cf.idx, k) for k in ("p11", "p12", "p13", "p21", "p22", "p23")},
        "d": cf.d.tolist(),
        "s1": cf.s1.tolist(),
        "s2": cf.s2.tolist(),
        "audit": {
            "u1": cf.u1.tolist(),
            "u2": cf.u2.tolist(),
            "u3": cf.u3.tolist(),
            "u4": cf.u4.tolist(),
            "d1": cf.d1.tolist(),
            "d2": cf.d2.tolist(),
            "sv": cf.sv.tolist(),
        },
    }


def _load_cvf(path: str) -> dict:
    obj = json.loads(Path(path).read_text())
    obj["idx_tuple"] = IndexSextuple(**obj["idx"])
    obj["d_array"] = check_canonical_args(obj["idx_tuple"], obj["d"])
    return obj


def _load_state_matrix(path: str) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict):
        obj = obj.get("Q", obj.get("qw"))
    return np.asarray(obj, dtype=float)


@click.group()
def main():
    """Analysis toolkit for pairs of jointly Gaussian vectors."""


@main.command("cvf")
@click.option("--in", "in_path", required=True, help="pair file (.json or .csv)")
@click.option("--h1", type=float, default=None, help="identical-classification threshold")
@click.option("--h2", type=float, default=None, help="private-classification threshold")
@click.option("--out", required=True, help="output canonical-form JSON")
@_guarded
def cvf_cmd(in_path, h1, h2, out):
    """Canonical variable form of a covariance pair."""
    defaults = Thresholds()
    th = Thresholds(
        h1 if h1 is not None else defaults.h1, h2 if h2 is not None else defaults.h2
    )
    pair = _read_pair(in_path)
    body = _cvf_to_dict(decompose(pair, th), th)
    Path(out).write_text(json.dumps(body))
    click.echo(json.dumps({"idx": body["idx"], "d": body["d"], "out": out}))


@main.command("common-info")
@click.option("--in", "in_path", required=True, help="pair file (.json or .csv)")
@click.option("--units", type=UNITS_CHOICE, default=_default_units, show_default="nats")
@click.option("--lossy", is_flag=True, help="also report the shared rate at a distortion pair")
@click.option("--delta1", type=float, default=None)
@click.option("--delta2", type=float, default=None)
@_guarded
def common_info_cmd(in_path, units, lossy, delta1, delta2):
    """Common information of a pair (and optionally its lossy counterpart)."""
    pair = _read_pair(in_path)
    cf = decompose(pair)
    res = common_information(cf.idx, cf.d)
    body = {
        "value": nats_to(res.value, units),
        "case_tag": res.case_tag,
        "per_coefficient_terms": [nats_to(t, units) for t in res.per_coefficient_terms],
        "correlated_part": nats_to(res.correlated_part, units),
        "units": units,
    }
    if lossy:
        if delta1 is None or delta2 is None:
            raise click.UsageError("--lossy requires --delta1 and --delta2")
        try:
            body["lossy_value"] = nats_to(
                lossy_common_information(cf.d, delta1, delta2), units
            )
            body["outside_dw"] = False
        except err.OutsideDW as exc:
            body["lossy_value"] = None
            body["outside_dw"] = True
            body["dw_bound"] = exc.bound
    click.echo(json.dumps(body))


@main.command("realize")
@click.option("--in", "in_path", required=True, help="canonical-form JSON")
@click.option("--qw", "qw_spec", default="identity", show_default=True,
              help="'identity' or a JSON file with the state covariance")
@click.option("--out", required=True, help="output realization JSON")
@_guarded
def realize_cmd(in_path, qw_spec, out):
    """Build a conditional-independence realization from a canonical form.

    'identity' produces the full information-minimizing state including
    identical passthrough and private components; a state file produces
    the family realization of the correlated parts only.
    """
    cf = _load_cvf(in_path)
    idx, d = cf["idx_tuple"], cf["d_array"]
    if qw_spec == "identity":
        st = optimal_state(idx, d)
        body = {
            "kind": "optimal-state",
            "idx": cf["idx"],
            "d": d.tolist(),
            "l1": st.l1.tolist(),
            "l2": st.l2.tolist(),
            "l3": st.l3.tolist(),
        }
    else:
        qw = _load_state_matrix(qw_spec)
        real = family_realization(d, qw)
        body = {
            "kind": "ci-family",
            "scope": "correlated-part",
            "n": real.n,
            "d": d.tolist(),
            "c1": real.c1.tolist(),
            "c2": real.c2.tolist(),
            "qz1": real.qz1.tolist(),
            "qz2": real.qz2.tolist(),
            "qw": real.qw.tolist(),
        }
    Path(out).write_text(json.dumps(body))
    click.echo(json.dumps({"kind": body["kind"], "out": out}))


@main.command("simulate")
@click.option("--realization", "real_path", required=True, help="realization JSON")
@click.option("-N", "n_samples", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--report", "report_path", required=True, help="output report JSON")
@_guarded
def simulate_cmd(real_path, n_samples, seed, report_path):
    """Draw samples from a realization and validate the second moments."""
    obj = json.loads(Path(real_path).read_text())
    d = np.asarray(obj["d"], dtype=float)
    if obj["kind"] == "optimal-state":
        idx = IndexSextuple(**obj["idx"])
        target = optimal_triple_cov(idx, d)
        block = sample(optimal_state(idx, d), n_samples, seed)
    elif obj["kind"] == "ci-family":
        qw = np.asarray(obj["qw"], dtype=float)
        target = state_triple(d, qw).joint()
        real = CIRealization(
            n=int(obj["n"]),
            c1=np.asarray(obj["c1"], dtype=float),
            c2=np.asarray(obj["c2"], dtype=float),
            qz1=np.asarray(obj["qz1"], dtype=float),
            qz2=np.asarray(obj["qz2"], dtype=float),
            qw=qw,
        )
        block = sample(real, n_samples, seed)
    else:
        raise click.UsageError(f"unknown realization kind {obj['kind']!r}")
    rep = validate_realization(block, target)
    body = {
        "n_samples": rep.n_samples,
        "cov_rel_err": rep.cov_rel_err,
        "ci_residual": rep.ci_residual,
        "mi_plugin": rep.mi_plugin,
        "distortion_errs": rep.distortion_errs,
        "seed": seed,
        "cov_err_sigmas": rep.cov_err_sigmas,
        "ci_residual_sigmas": rep.ci_residual_sigmas,
    }
    Path(report_path).write_text(json.dumps(body))
    click.echo(json.dumps(body))


@main.command("rdf")
@click.argument("kind", type=click.Choice(["marginal", "conditional", "joint", "gray-bound"]))
@click.option("--in", "in_path", required=True, help="canonical-form JSON")
@click.option("--delta1", type=float, required=True)
@click.option("--delta2", type=float, default=None)
@click.option("--branch", type=click.Choice(["1", "2"]), default="1", show_default=True)
@click.option("--qw", "qw_path", default=None, help="diagonal state JSON (conditional only)")
@click.option("--units", type=click.Choice(["nats", "bits"]), default=_default_units,
              show_default="nats")
@_guarded
def rdf_cmd(kind, in_path, delta1, delta2, branch, qw_path, units):
    """Rate-distortion values derived from a canonical form."""
    cf = _load_cvf(in_path)
    d = cf["d_array"]
    branch = int(branch)
    if kind in ("marginal", "conditional"):
        if kind == "marginal":
            res = marginal_rdf(np.asarray(cf["audit"][f"d{branch}"], dtype=float), delta1)
        else:
            q = _load_state_matrix(qw_path) if qw_path else np.ones(d.size)
            res = conditional_rdf(d, q, branch, delta1)
        body = {
            "rate": nats_to(res.rate, units),
            "alloc": res.alloc.tolist(),
            "water_level": res.water_level,
            "active_set": res.active_set.tolist(),
        }
    elif kind == "joint":
        if delta2 is None:
            raise click.UsageError("joint rate requires --delta2")
        res = joint_rdf(d, delta1, delta2)
        body = {
            "rate": nats_to(res.rate, units),
            "alloc1": res.alloc1.tolist(),
            "alloc2": res.alloc2.tolist(),
            "regime": res.regime,
            "iterations": res.iterations,
            "budget_residual": res.budget_residual,
            "dual_gap": nats_to(res.dual_gap, units),
        }
    else:
        if delta2 is None:
            raise click.UsageError("gray-bound requires --delta2")
        body = {"rate": nats_to(gray_lower_bound(d, delta1, delta2), units)}
    body["units"] = units
    click.echo(json.dumps(body))


@main.command("region")
@click.option("--in", "in_path", required=True, help="canonical-form JSON")
@click.option("--delta1", type=float, required=True)
@click.option("--delta2", type=float, required=True)
@click.option("--alpha-grid", type=int, default=11, show_default=True,
              help="ticks per weight axis on [0, 1]")
@click.option("--out", required=True, help="output CSV")
@_guarded
def region_cmd(in_path, delta1, delta2, alpha_grid, out):
    """Sweep the CI-family weighted rate min R0 + a1 R1 + a2 R2 (an upper
    bound on the Gray-Wyner surface), one dual solve per weight pair, to CSV;
    the summary adds the largest certified gap and the dual evaluations."""
    cf = _load_cvf(in_path)
    d = cf["d_array"]
    ticks = [i / (alpha_grid - 1) for i in range(alpha_grid)] if alpha_grid > 1 else [1.0]
    alphas = [(a1, a2) for a1 in ticks for a2 in ticks if a1 + a2 >= 1.0]
    points = region_sweep(d, delta1, delta2, alphas=alphas)
    Path(out).write_text(region_csv(points))
    click.echo(json.dumps({"points": len(points), "out": out,
                           "max_gap": max((p.gap for p in points), default=0.0),
                           "iterations": sum(p.iterations for p in points)}))


@main.command("demo-random")
@click.option("--p1", type=int, required=True)
@click.option("--p2", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", default=None, help="pair JSON (stdout when omitted)")
@_guarded
def demo_random_cmd(p1, p2, seed, out):
    """Generate a random strict-PD pair from a square Gaussian factor."""
    if p1 < 1 or p2 < 1:
        raise click.UsageError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    p = p1 + p2
    factor = rng.standard_normal((p, p))
    q = factor @ factor.T + 1e-9 * np.eye(p)
    pair = JointGaussianPair.from_joint(q, p1)
    _write_or_echo(out, json.dumps(pair_to_dict(pair)))


if __name__ == "__main__":
    main()
