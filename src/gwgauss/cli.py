"""Command line interface.

Every command reads and writes plain JSON (or CSV where noted), prints a
compact JSON summary to stdout, and maps every library error class to a
stable exit code with a JSON error body on stderr.  Rates are converted
at this layer only; infinite values use the JSON ``Infinity`` literal.
"""

from __future__ import annotations

import csv
import functools
import io
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
from .graywyner import lossy_common_information, region_csv, region_sweep, weight_grid
from .mc_oracle import validate_stream
from .rdf import conditional_rdf, gray_lower_bound, joint_rdf, marginal_rdf
from .realize import (
    CIRealization,
    family_realization,
    optimal_state,
    optimal_triple_cov,
    state_triple_cov,
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
IDX_KEYS = ("p11", "p12", "p13", "p21", "p22", "p23")
BLOCKS = ("c1", "c2", "qz1", "qz2", "qw")  # of a family realization


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


def _numeric(value) -> bool:
    try:
        return np.asarray(value).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        return False


def _require(obj, what: str, *keys: str, counts=(), arrays=(), exact: bool = False):
    """``obj`` if a JSON object with ``keys``, integer ``counts`` and numeric
    ``arrays`` (no other key if ``exact``), else a usage error naming the key."""
    if not isinstance(obj, dict):
        raise click.UsageError(f"{what} is not a JSON object")
    for key in (*keys, *counts, *arrays):
        if key not in obj:
            raise click.UsageError(f"{what} has no {key!r}")
        if key in counts and type(obj[key]) is not int:
            raise click.UsageError(f"{what}: {key!r} is not an integer")
        if key in arrays and not _numeric(obj[key]):
            raise click.UsageError(f"{what}: {key!r} is not numeric")
    stray = sorted(set(obj) - {*keys, *counts, *arrays}) if exact else []
    if stray:
        raise click.UsageError(f"{what} has the unknown key {stray[0]!r}")
    return obj


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{what} is not JSON ({exc})") from exc


def _check_pair_csv(text: str) -> None:
    """A usage error naming the row unless the first row is the two integers
    ``p1,p2`` and every later row holds as many numbers as the second."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    for i, row in enumerate(rows, 1):
        parse, what = (int, "the two integers p1,p2") if i == 1 else (float, "numbers")
        try:
            [parse(x) for x in row]
            fits = i > 1 or len(row) == 2
        except ValueError:
            fits = False
        if not fits:
            raise click.UsageError(f"pair CSV row {i} is not {what}")
        if i > 2 and len(row) != len(rows[1]):
            raise click.UsageError(f"pair CSV row {i} has length {len(row)}, row 2 has "
                                   f"length {len(rows[1])}")


def _read_pair(path: str) -> JointGaussianPair:
    if path.endswith(".csv"):
        text = Path(path).read_text()
        _check_pair_csv(text)
        return pair_from_csv(text)
    obj = _read_json(path, "pair file")
    return pair_from_dict(_require(obj, "pair file", counts=("p1", "p2"), arrays=("Q",)))


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
        "idx": {k: getattr(cf.idx, k) for k in IDX_KEYS},
        "d": cf.d.tolist(),
        "s1": cf.s1.tolist(),
        "s2": cf.s2.tolist(),
        "audit": {k: getattr(cf, k).tolist() for k in ("d1", "d2", "sv")},
    }


def _read_canonical(obj, what: str) -> tuple[IndexSextuple, np.ndarray]:
    """The index sextuple and coefficients of a record holding ``idx``
    (exactly ``p11``..``p23``) and ``d``, checked against each other."""
    _require(obj, what, "idx", arrays=("d",))
    idx = IndexSextuple(**_require(obj["idx"], f'{what} "idx"', counts=IDX_KEYS, exact=True))
    return idx, check_canonical_args(idx, obj["d"])


def _load_cvf(path: str) -> tuple[dict, IndexSextuple, np.ndarray]:
    what = "canonical-form file"
    obj = _read_json(path, what)
    return (obj, *_read_canonical(obj, what))


def _load_state_matrix(path: str) -> np.ndarray:
    obj = _read_json(path, "state file")
    # a bare matrix, or an object that holds it as "Q" or "qw"
    obj = obj if isinstance(obj, dict) else {"qw": obj}
    key = "Q" if "Q" in obj else "qw"
    return np.asarray(_require(obj, "state file", arrays=(key,))[key], dtype=float)


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
    try:
        th = Thresholds(
            h1 if h1 is not None else defaults.h1, h2 if h2 is not None else defaults.h2
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
    cf, idx, d = _load_cvf(in_path)
    if qw_spec == "identity":
        st = optimal_state(idx, d)
        body = {
            "kind": "optimal-state",
            "idx": cf["idx"],
            "d": d.tolist(),
            **{k: getattr(st, k).tolist() for k in ("l1", "l2", "l3")},
        }
    else:
        qw = _load_state_matrix(qw_spec)
        real = family_realization(d, qw)
        body = {
            "kind": "ci-family",
            "scope": "correlated-part",
            "n": real.n,
            "d": d.tolist(),
            **{k: getattr(real, k).tolist() for k in BLOCKS},
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
    what = "realization file"
    obj = _require(_read_json(real_path, what), what, "kind")
    if obj["kind"] == "optimal-state":
        idx, d = _read_canonical(obj, what)
        target = optimal_triple_cov(idx, d)
        source = optimal_state(idx, d)
    elif obj["kind"] == "ci-family":
        _require(obj, what, counts=("n",), arrays=("d", *BLOCKS))
        target = state_triple_cov(*(np.asarray(obj[k], dtype=float) for k in ("d", "qw")))
        source = CIRealization(**{k: np.asarray(obj[k], dtype=float) for k in BLOCKS})
        if obj["n"] != source.n:
            raise err.DimensionMismatch(f"\"n\" is {obj['n']} but qw is {source.n} x {source.n}")
    else:
        raise click.UsageError(f"unknown realization kind {obj['kind']!r}")
    rep = validate_stream(source, n_samples, seed, target)
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
@click.option("--units", type=UNITS_CHOICE, default=_default_units, show_default="nats")
@_guarded
def rdf_cmd(kind, in_path, delta1, delta2, branch, qw_path, units):
    """Rate-distortion values derived from a canonical form."""
    cf, _, d = _load_cvf(in_path)
    branch = int(branch)
    if kind in ("marginal", "conditional"):
        if kind == "marginal":
            key = f"d{branch}"
            audit = _require(cf.get("audit"), 'canonical-form file "audit"', arrays=(key,))
            res = marginal_rdf(np.asarray(audit[key], dtype=float), delta1)
        else:
            q = _load_state_matrix(qw_path) if qw_path else np.ones(d.size)
            res = conditional_rdf(d, q, branch, delta1)
        body = {
            "rate": nats_to(res.rate, units),
            "alloc": res.alloc.tolist(),
            "water_level": res.water_level,
            "active_set": res.active_set.tolist(),
        }
    elif delta2 is None:
        raise click.UsageError(f"{kind} requires --delta2")
    elif kind == "joint":
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
        body = {"rate": nats_to(gray_lower_bound(d, delta1, delta2), units)}
    body["units"] = units
    click.echo(json.dumps(body))


@main.command("region")
@click.option("--in", "in_path", required=True, help="canonical-form JSON")
@click.option("--delta1", type=float, required=True)
@click.option("--delta2", type=float, required=True)
@click.option("--alpha-grid", type=click.IntRange(min=1), default=11, show_default=True,
              help="ticks per weight axis on [0, 1]; 1 is the single point (1, 1)")
@click.option("--out", required=True, help="output CSV")
@_guarded
def region_cmd(in_path, delta1, delta2, alpha_grid, out):
    """Sweep the CI-family weighted rate min R0 + a1 R1 + a2 R2 (an upper
    bound on the Gray-Wyner surface) to CSV, each weight pair by its closed
    form where no priced branch saturates, by a one-multiplier solve where
    one weight is 1, and by a dual solve elsewhere; the summary adds the
    largest certified gap, the total solver evaluations and the number of
    closed-form and of one-multiplier points."""
    _, _, d = _load_cvf(in_path)
    points = region_sweep(d, delta1, delta2, alphas=weight_grid(alpha_grid))
    Path(out).write_text(region_csv(points))
    click.echo(json.dumps({"points": len(points), "out": out,
                           "max_gap": max((p.gap for p in points), default=0.0),
                           "iterations": sum(p.iterations for p in points),
                           "closed_form": sum(p.path == "closed-form" for p in points),
                           "one_multiplier": sum(p.path == "one-multiplier" for p in points)}))


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
