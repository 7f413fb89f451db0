import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gwgauss as gw
from gwgauss.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pair_file(tmp_path):
    d = np.array([0.8, 0.5, 0.1])
    pair = gw.JointGaussianPair(np.eye(3), np.eye(3), np.diag(d))
    path = tmp_path / "pair.json"
    path.write_text(gw.pair_to_json(pair))
    return str(path)


@pytest.fixture
def cvf_file(runner, pair_file, tmp_path):
    out = str(tmp_path / "cvf.json")
    res = runner.invoke(main, ["cvf", "--in", pair_file, "--out", out])
    assert res.exit_code == 0, res.output
    return out


def test_cvf_reports_indices_and_writes_file(runner, pair_file, tmp_path):
    out = str(tmp_path / "cvf.json")
    res = runner.invoke(main, ["cvf", "--in", pair_file, "--out", out])
    assert res.exit_code == 0
    body = json.loads(res.stdout)
    assert body["idx"] == {"p11": 0, "p12": 3, "p13": 0, "p21": 0, "p22": 3, "p23": 0}
    saved = json.loads(Path(out).read_text())
    np.testing.assert_allclose(saved["d"], [0.8, 0.5, 0.1], atol=1e-12)
    assert np.asarray(saved["s1"]).shape == (3, 3)


def test_cvf_accepts_csv_input(runner, tmp_path):
    pair = gw.JointGaussianPair(np.eye(2), np.eye(2), np.diag([0.4, 0.2]))
    src = tmp_path / "pair.csv"
    src.write_text(gw.pair_to_csv(pair))
    out = str(tmp_path / "cvf.json")
    res = runner.invoke(main, ["cvf", "--in", str(src), "--out", out])
    assert res.exit_code == 0
    np.testing.assert_allclose(json.loads(Path(out).read_text())["d"], [0.4, 0.2], atol=1e-12)
    # a well-formed CSV whose matrix is not (p1 + p2) square
    src.write_text("1,2\n" + gw.pair_to_csv(pair).split("\n", 1)[1])
    res = runner.invoke(main, ["cvf", "--in", str(src), "--out", out])
    assert res.exit_code == 6, res.output
    assert json.loads(res.stderr)["error"] == "DimensionMismatch"


def test_cvf_output_is_byte_stable(runner, pair_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    runner.invoke(main, ["cvf", "--in", pair_file, "--out", out1])
    runner.invoke(main, ["cvf", "--in", pair_file, "--out", out2])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_common_info_units(runner, pair_file):
    res = runner.invoke(main, ["common-info", "--in", pair_file, "--units",
                               "paper-example-bits"])
    body = json.loads(res.stdout)
    assert math.isclose(body["value"], 5.044394119358453, rel_tol=1e-12)
    assert body["units"] == "paper-example-bits"

    res = runner.invoke(main, ["common-info", "--in", pair_file])
    assert math.isclose(json.loads(res.stdout)["value"], 1.7482537807332401,
                        rel_tol=1e-12)


def test_common_info_env_units_override(runner, pair_file):
    res = runner.invoke(main, ["common-info", "--in", pair_file],
                        env={"GWGAUSS_UNITS": "bits"})
    body = json.loads(res.stdout)
    assert body["units"] == "bits"
    assert math.isclose(body["value"], 1.7482537807332401 / math.log(2), rel_tol=1e-12)


def test_common_info_infinite_value_serializes(runner, tmp_path):
    q12 = np.zeros((2, 2))
    q12[0, 0] = 1.0 - 1e-9
    q12[1, 1] = 0.5
    pair = gw.JointGaussianPair(np.eye(2), np.eye(2), q12)
    path = tmp_path / "pair.json"
    path.write_text(gw.pair_to_json(pair))
    res = runner.invoke(main, ["common-info", "--in", str(path)])
    assert res.exit_code == 0
    assert "Infinity" in res.stdout
    assert json.loads(res.stdout)["value"] == math.inf


def test_common_info_lossy_inside_and_outside(runner, pair_file):
    res = runner.invoke(main, ["common-info", "--in", pair_file, "--lossy",
                               "--delta1", "0.3", "--delta2", "0.3"])
    body = json.loads(res.stdout)
    assert body["outside_dw"] is False
    assert math.isclose(body["lossy_value"], body["value"], rel_tol=1e-12)

    res = runner.invoke(main, ["common-info", "--in", pair_file, "--lossy",
                               "--delta1", "2.0", "--delta2", "0.3"])
    assert res.exit_code == 0  # informative, not an error
    body = json.loads(res.stdout)
    assert body["outside_dw"] is True and body["lossy_value"] is None
    assert math.isclose(body["dw_bound"], 0.6, rel_tol=1e-9)

    res = runner.invoke(main, ["common-info", "--in", pair_file, "--lossy"])
    assert res.exit_code == 2  # missing distortions is a usage error


def test_realize_and_simulate_identity_state(runner, cvf_file, tmp_path):
    real = str(tmp_path / "real.json")
    res = runner.invoke(main, ["realize", "--in", cvf_file, "--out", real])
    assert res.exit_code == 0
    assert json.loads(Path(real).read_text())["kind"] == "optimal-state"

    rep1 = str(tmp_path / "r1.json")
    rep2 = str(tmp_path / "r2.json")
    for rep in (rep1, rep2):
        res = runner.invoke(main, ["simulate", "--realization", real, "-N", "5000",
                                   "--seed", "42", "--report", rep])
        assert res.exit_code == 0, res.output
    assert Path(rep1).read_bytes() == Path(rep2).read_bytes()
    body = json.loads(Path(rep1).read_text())
    assert list(body) == ["n_samples", "cov_rel_err", "ci_residual", "mi_plugin",
                          "distortion_errs", "seed", "cov_err_sigmas", "ci_residual_sigmas"]
    assert json.loads(res.stdout) == body
    assert body["n_samples"] == 5000
    assert body["cov_rel_err"] < 0.1
    # every noise variance 1 - d is below 1, so each entry's sd is below 1/sqrt(N)
    assert body["ci_residual_sigmas"] >= body["ci_residual"] * math.sqrt(5000)
    cf = json.loads(Path(cvf_file).read_text())
    idx = gw.IndexSextuple(**cf["idx"])
    rep = gw.validate_realization(gw.sample(gw.optimal_state(idx, cf["d"]), 5000, 42),
                                  gw.optimal_triple_cov(idx, cf["d"]))
    assert body["ci_residual_sigmas"] == rep.ci_residual_sigmas


def test_realize_and_simulate_family_state(runner, cvf_file, tmp_path):
    qw = tmp_path / "qw.json"
    qw.write_text(json.dumps({"Q": np.diag([1.1, 1.0, 0.9]).tolist()}))
    real = str(tmp_path / "real.json")
    res = runner.invoke(main, ["realize", "--in", cvf_file, "--qw", str(qw),
                               "--out", real])
    assert res.exit_code == 0
    body = json.loads(Path(real).read_text())
    assert body["kind"] == "ci-family"
    rep = str(tmp_path / "rep.json")
    res = runner.invoke(main, ["simulate", "--realization", real, "-N", "4000",
                               "--seed", "1", "--report", rep])
    assert res.exit_code == 0
    assert json.loads(Path(rep).read_text())["ci_residual"] < 0.1


def test_rdf_values_and_units(runner, cvf_file):
    res = runner.invoke(main, ["rdf", "marginal", "--in", cvf_file, "--delta1", "0.5"])
    body = json.loads(res.stdout)
    assert math.isclose(body["rate"], 1.5 * math.log(6.0), rel_tol=1e-12)

    res = runner.invoke(main, ["rdf", "conditional", "--in", cvf_file,
                               "--delta1", "0.3", "--branch", "2"])
    assert math.isclose(json.loads(res.stdout)["rate"], 2.2499048351651325,
                        rel_tol=1e-12)

    res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file, "--delta1", "0.3",
                               "--delta2", "0.3", "--units", "bits"])
    body = json.loads(res.stdout)
    assert math.isclose(body["rate"], 6.248063451063505 / math.log(2), rel_tol=1e-12)
    assert body["regime"] == "closed-form-DW"
    assert body["iterations"] == 0

    res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file, "--delta1", "1.2",
                               "--delta2", "0.3"])
    body = json.loads(res.stdout)
    assert list(body) == ["rate", "alloc1", "alloc2", "regime", "iterations",
                          "budget_residual", "dual_gap", "units"]
    assert body["regime"] == "numerical" and body["iterations"] > 0
    res = gw.joint_rdf([0.8, 0.5, 0.1], 1.2, 0.3)
    assert math.isclose(body["rate"], res.rate, rel_tol=1e-12)
    assert body["budget_residual"] == res.budget_residual <= 1e-12
    assert body["dual_gap"] == res.dual_gap

    res = runner.invoke(main, ["rdf", "gray-bound", "--in", cvf_file,
                               "--delta1", "0.3", "--delta2", "0.3"])
    assert math.isclose(json.loads(res.stdout)["rate"], 6.248063451063505,
                        rel_tol=1e-12)

    res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file, "--delta1", "0.3"])
    assert res.exit_code == 2  # joint needs both distortions


@pytest.mark.parametrize("kind", ["joint", "gray-bound"])
def test_rdf_takes_every_unit_from_the_environment(runner, cvf_file, kind):
    # GWGAUSS_UNITS means the same in every command; rdf once offered only
    # nats and bits, so paper-example-bits from the environment exited 2
    args = ["rdf", kind, "--in", cvf_file, "--delta1", "0.3", "--delta2", "0.3"]
    nats = json.loads(runner.invoke(main, args).stdout)
    res = runner.invoke(main, args, env={"GWGAUSS_UNITS": "paper-example-bits"})
    assert res.exit_code == 0, res.output
    body = json.loads(res.stdout)
    assert body["units"] == "paper-example-bits"
    assert body["rate"] == 2.0 * nats["rate"] / math.log(2.0)


def test_cvf_audit_holds_the_spectra_and_files_with_the_bases_read_the_same(
        runner, pair_file, cvf_file, tmp_path):
    saved = json.loads(Path(cvf_file).read_text())
    assert list(saved["audit"]) == ["d1", "d2", "sv"]
    # a file from before the eigenvector bases u1-u4 left the audit block
    pair = gw.pair_from_json(Path(pair_file).read_text())
    lam1, u1 = np.linalg.eigh(pair.q11)
    lam2, u2 = np.linalg.eigh(pair.q22)
    u3, _, u4t = np.linalg.svd((u1 / np.sqrt(lam1)).T @ pair.q12 @ (u2 / np.sqrt(lam2)))
    bases = {"u1": u1, "u2": u2, "u3": u3, "u4": u4t.T}
    old = tmp_path / "old_cvf.json"
    old.write_text(json.dumps({**saved, "audit": {**{k: v.tolist() for k, v in bases.items()},
                                                  **saved["audit"]}}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"qw": np.diag([0.9, 1.0, 1.2]).tolist()}))
    out = tmp_path / "out"
    commands = [
        ["rdf", "marginal", "--delta1", "0.5", "--branch", "2"],
        ["realize", "--out", str(out)],
        ["realize", "--qw", str(state), "--out", str(out)],
        ["region", "--delta1", "0.3", "--delta2", "0.3", "--alpha-grid", "3", "--out", str(out)],
    ]
    for args in commands:
        outputs = []
        for path in (cvf_file, str(old)):
            res = runner.invoke(main, args + ["--in", path])
            assert res.exit_code == 0, (args, res.output)
            outputs.append((res.stdout, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        assert outputs[0] == outputs[1], args


@pytest.mark.parametrize("ticks", [1, 2, 3, 11])
def test_region_alpha_grid_sends_the_weight_grid(runner, cvf_file, tmp_path, monkeypatch, ticks):
    seen = []

    def sweep(d, delta1, delta2, alphas=None):
        seen.append(alphas)
        return gw.region_sweep(d, delta1, delta2, alphas=alphas)

    monkeypatch.setattr("gwgauss.cli.region_sweep", sweep)
    res = runner.invoke(main, ["region", "--in", cvf_file, "--delta1", "0.3", "--delta2", "0.3",
                               "--alpha-grid", str(ticks), "--out", str(tmp_path / "r.csv")])
    assert res.exit_code == 0, res.output
    axis = [i / (ticks - 1) for i in range(ticks)] if ticks > 1 else [1.0]
    assert seen == [[(a1, a2) for a1 in axis for a2 in axis if a1 + a2 >= 1.0]]


def test_region_csv_schema(runner, cvf_file, tmp_path):
    out = str(tmp_path / "region.csv")
    res = runner.invoke(main, ["region", "--in", cvf_file, "--delta1", "0.3",
                               "--delta2", "0.3", "--alpha-grid", "3", "--out", out])
    assert res.exit_code == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "alpha1,alpha2,T,R0,R1,R2,q_1,q_2,q_3"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    summary = json.loads(res.stdout)
    assert list(summary) == ["points", "out", "max_gap", "iterations", "closed_form",
                             "one_multiplier"]
    assert len(rows) == summary["points"] and summary["out"] == out
    for row in rows:
        assert len(row) == 9
        assert row[0] + row[1] >= 1.0 - 1e-12
    # the bytes are the library's CSV: every value at 17 significant digits
    alphas = [(a1, a2) for a1 in (0.0, 0.5, 1.0) for a2 in (0.0, 0.5, 1.0) if a1 + a2 >= 1.0]
    points = gw.region_sweep([0.8, 0.5, 0.1], 0.3, 0.3, alphas=alphas)
    want = "\n".join([lines[0]] + [
        ",".join("%.17g" % x for x in [p.alpha1, p.alpha2, p.objective, p.triple.r0,
                                        p.triple.r1, p.triple.r2, *p.q])
        for p in points
    ]) + "\n"
    assert Path(out).read_bytes() == want.encode()
    assert gw.region_csv(points) == want
    assert lines[-1].startswith("1,1,6.2480634510635")
    # the summary certifies the sweep: the largest gap, the total solver
    # evaluations and the counts of closed-form points, here (0.5, 0.5) and
    # (1, 1), whose priced branches stay free inside D_W, and of
    # one-multiplier points, the four with a single unit weight
    assert summary["max_gap"] == max(p.gap for p in points)
    assert 0.0 < summary["max_gap"] <= 1e-10
    assert summary["iterations"] == sum(p.iterations for p in points)
    assert summary["closed_form"] == 2 and summary["one_multiplier"] == 4
    assert [(p.alpha1, p.alpha2) for p in points if p.path == "closed-form"] == [(0.5, 0.5),
                                                                                 (1.0, 1.0)]


def test_region_alpha_grid_needs_a_tick(runner, cvf_file, tmp_path):
    # one tick is the single point (1, 1); fewer is a usage error, which
    # once swept (1, 1) alone without a word
    out = tmp_path / "region.csv"
    args = ["region", "--in", cvf_file, "--delta1", "0.3", "--delta2", "0.3", "--out", str(out)]
    for ticks in ("0", "-3"):
        res = runner.invoke(main, args + ["--alpha-grid", ticks])
        assert res.exit_code == 2, ticks
        assert not out.exists()
    res = runner.invoke(main, args + ["--alpha-grid", "1"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["points"] == 1
    assert out.read_text().splitlines()[1].startswith("1,1,")


def test_demo_random_roundtrip_and_determinism(runner):
    res1 = runner.invoke(main, ["demo-random", "--p1", "2", "--p2", "3", "--seed", "7"])
    res2 = runner.invoke(main, ["demo-random", "--p1", "2", "--p2", "3", "--seed", "7"])
    assert res1.exit_code == 0
    assert res1.stdout == res2.stdout
    pair = gw.pair_from_json(res1.stdout)
    assert pair.p1 == 2 and pair.p2 == 3
    ev = np.linalg.eigvalsh(pair.joint())
    assert ev.min() > 0


def test_missing_input_file_exit_code(runner, tmp_path):
    res = runner.invoke(main, ["cvf", "--in", str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "FileNotFoundError"


def test_exit_code_table_is_stable():
    from gwgauss.cli import EXIT_CODES, EXIT_FILE_NOT_FOUND, EXIT_OTHER

    assert {cls.__name__: code for cls, code in EXIT_CODES.items()} == {
        "AsymmetricMatrix": 4,
        "NotPositiveDefinite": 5,
        "DimensionMismatch": 6,
        "InconsistentIndices": 7,
        "SingularValueOutOfRange": 8,
        "QWOutOfFamily": 9,
        "NonpositiveDistortion": 11,
        "QWNotDiagonal": 12,
        "AllocationOutOfRange": 13,
        "OutsideDW": 15,
        "TooFewSamples": 16,
        "MissingReconstruction": 17,
    }
    assert (EXIT_FILE_NOT_FOUND, EXIT_OTHER) == (3, 18)
    assert not hasattr(gw, "InfeasibleRegion")  # 14 stays unassigned
    assert not hasattr(gw, "SingularFactor")  # and so does 10


def test_error_exit_codes(runner, cvf_file, tmp_path):
    res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file,
                               "--delta1", "-1", "--delta2", "0.3"])
    assert res.exit_code == 11
    assert json.loads(res.stderr)["error"] == "NonpositiveDistortion"
    # a subnormal budget leaves no normal float per component; it once
    # ended in a traceback
    for budgets in (("1e-320", "0.3"), ("0.3", "5e-324")):
        res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file,
                                   "--delta1", budgets[0], "--delta2", budgets[1]])
        assert res.exit_code == 11, budgets
        assert json.loads(res.stderr)["error"] == "NonpositiveDistortion"

    bad_q = tmp_path / "bad_q.json"
    bad_q.write_text(json.dumps([0.5, 1.0, 1.0]))  # first entry below d_1
    res = runner.invoke(main, ["rdf", "conditional", "--in", cvf_file,
                               "--delta1", "0.3", "--qw", str(bad_q)])
    assert res.exit_code == 9

    # a state whose size differs from d's 3 coefficients exits 6 in every
    # state reader, where rdf conditional once exited 12 and realize 9
    short_q = tmp_path / "short_q.json"
    short_q.write_text(json.dumps(np.eye(2).tolist()))
    for command in (["rdf", "conditional", "--delta1", "0.3"],
                    ["realize", "--out", str(tmp_path / "real.json")]):
        res = runner.invoke(main, command + ["--in", cvf_file, "--qw", str(short_q)])
        assert res.exit_code == 6, command
        assert json.loads(res.stderr)["error"] == "DimensionMismatch"
    assert not (tmp_path / "real.json").exists()

    offdiag = tmp_path / "offdiag.json"
    # a diagonal state has exactly zero off-diagonal entries, as in
    # mi_given_state; small ones are not dropped
    for coupling in (0.2, 1e-13):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = coupling
        offdiag.write_text(json.dumps(m.tolist()))
        res = runner.invoke(main, ["rdf", "conditional", "--in", cvf_file,
                                   "--delta1", "0.3", "--qw", str(offdiag)])
        assert res.exit_code == 12, coupling

    asym = tmp_path / "asym.json"
    q = np.eye(4)
    q[0, 1] = 0.5  # asymmetry inside the first marginal block
    asym.write_text(json.dumps({"p1": 2, "p2": 2, "Q": q.tolist()}))
    res = runner.invoke(main, ["cvf", "--in", str(asym), "--out",
                               str(tmp_path / "x.json")])
    assert res.exit_code == 4

    notpd = tmp_path / "notpd.json"
    pair = {"p1": 1, "p2": 1, "Q": [[1.0, 1.5], [1.5, 1.0]]}
    notpd.write_text(json.dumps(pair))
    res = runner.invoke(main, ["cvf", "--in", str(notpd), "--out",
                               str(tmp_path / "y.json")])
    assert res.exit_code == 5


def test_marginal_rdf_negative_variance_exit_code(runner, cvf_file):
    obj = json.loads(Path(cvf_file).read_text())
    obj["audit"]["d1"][0] = -1.0
    Path(cvf_file).write_text(json.dumps(obj))
    res = runner.invoke(main, ["rdf", "marginal", "--in", cvf_file, "--delta1", "0.3"])
    assert res.exit_code == 5, res.output
    assert json.loads(res.stderr) == {
        "error": "NotPositiveDefinite", "message": "variances must be nonnegative"
    }


def test_marginal_rdf_extreme_variance_exit_codes(runner, cvf_file):
    # an infinite variance is a covariance error (exit 5), variances near
    # the largest float water-fill to a finite rate, and a nested array is a
    # shape error (exit 6)
    obj = json.loads(Path(cvf_file).read_text())
    n = len(obj["audit"]["d1"])
    obj["audit"]["d1"] = [math.inf] + [1.0] * (n - 1)
    Path(cvf_file).write_text(json.dumps(obj))
    res = runner.invoke(main, ["rdf", "marginal", "--in", cvf_file, "--delta1", "0.3"])
    assert res.exit_code == 5, res.output
    assert json.loads(res.stderr) == {
        "error": "NotPositiveDefinite", "message": "variances must be finite"
    }
    obj["audit"]["d1"] = [1e308] * n
    Path(cvf_file).write_text(json.dumps(obj))
    res = runner.invoke(main, ["rdf", "marginal", "--in", cvf_file, "--delta1", "1.0"])
    assert res.exit_code == 0, res.output
    rate = json.loads(res.stdout)["rate"]
    assert math.isclose(rate, 0.5 * n * (math.log(1e308) + math.log(n)), rel_tol=1e-14)
    obj["audit"]["d1"] = [[1.0] * n] * 2
    Path(cvf_file).write_text(json.dumps(obj))
    res = runner.invoke(main, ["rdf", "marginal", "--in", cvf_file, "--delta1", "0.3"])
    assert res.exit_code == 6, res.output
    assert json.loads(res.stderr)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_cvf_non_finite_entry_exit_code(runner, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text('{"p1": 1, "p2": 1, "Q": [[1.0, %s], [%s, 1.0]]}' % (bad, bad))
    res = runner.invoke(main, ["cvf", "--in", str(path), "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 5
    assert json.loads(res.stderr) == {
        "error": "NotPositiveDefinite", "message": "covariance has a non-finite entry"
    }
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("d", [[0.8, "NaN", 0.1], [0.8, 0.5, 1.2], [0.8, 0.5, -0.1],
                               [0.8, 0.5], [0.5, 0.8, 0.1]])
@pytest.mark.parametrize("command", [
    ["rdf", "joint", "--delta1", "0.3", "--delta2", "0.3"],
    ["realize", "--out", "{tmp}/real.json"],
    ["region", "--delta1", "0.3", "--delta2", "0.3", "--out", "{tmp}/region.csv"],
])
def test_bad_canonical_coefficients_exit_code(runner, cvf_file, tmp_path, command, d):
    obj = json.loads(Path(cvf_file).read_text())
    obj["d"] = d
    bad = tmp_path / "bad_cvf.json"
    bad.write_text(json.dumps(obj).replace('"NaN"', "NaN"))
    args = [a.format(tmp=tmp_path) for a in command] + ["--in", str(bad)]
    res = runner.invoke(main, args)
    assert res.exit_code == 7, res.output
    assert json.loads(res.stderr)["error"] == "InconsistentIndices"
    assert not any(tmp_path.glob("real.json")) and not any(tmp_path.glob("region.csv"))


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "prelude",
    [
        "",
        # an environment without scipy: any import of it raises
        "sys.modules['scipy'] = None",
    ],
)
def test_cli_import_needs_no_scipy(prelude):
    code = "\n".join([
        "import sys",
        prelude,
        "import gwgauss.cli",
        "loaded = [m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None]",
        "assert not loaded, loaded",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_simulate_in_a_subprocess_exits_with_the_in_process_report(runner, cvf_file, tmp_path):
    # a real interpreter exit after the sampling lanes have run
    real = str(tmp_path / "real.json")
    assert runner.invoke(main, ["realize", "--in", cvf_file, "--out", real]).exit_code == 0
    args = ["simulate", "--realization", real, "-N", "70000", "--seed", "5", "--report"]
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    res = runner.invoke(main, [*args, str(here)])
    assert res.exit_code == 0, res.output
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "gwgauss.cli", *args, str(there)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert there.read_bytes() == here.read_bytes()
    assert json.loads(proc.stdout) == json.loads(here.read_text())


def test_simulate_indefinite_noise_exit_code(runner, cvf_file, tmp_path):
    qw = tmp_path / "qw.json"
    qw.write_text(json.dumps({"Q": np.diag([1.1, 1.0, 0.9]).tolist()}))
    real = tmp_path / "real.json"
    res = runner.invoke(main, ["realize", "--in", cvf_file, "--qw", str(qw), "--out", str(real)])
    assert res.exit_code == 0
    body = json.loads(real.read_text())
    body["qz1"][0][0] = -0.5
    real.write_text(json.dumps(body))
    res = runner.invoke(main, ["simulate", "--realization", str(real), "-N", "40000",
                               "--seed", "1", "--report", str(tmp_path / "rep.json")])
    assert res.exit_code == 5
    assert json.loads(res.stderr)["error"] == "NotPositiveDefinite"


# a d shorter than qw is the README's "block shapes disagree" (once exit 9)
@pytest.mark.parametrize("field, value", [("n", 2), ("c1", [[0.5, 0.0, 0.0]] * 2),
                                          ("d", [0.8, 0.5])])
def test_simulate_tampered_realization_exit_code(runner, cvf_file, tmp_path, field, value):
    qw = tmp_path / "qw.json"
    qw.write_text(json.dumps({"Q": np.diag([1.1, 1.0, 0.9]).tolist()}))
    real = tmp_path / "real.json"
    res = runner.invoke(main, ["realize", "--in", cvf_file, "--qw", str(qw), "--out", str(real)])
    assert res.exit_code == 0
    real.write_text(json.dumps({**json.loads(real.read_text()), field: value}))
    res = runner.invoke(main, ["simulate", "--realization", str(real), "-N", "4000",
                               "--seed", "1", "--report", str(tmp_path / "rep.json")])
    assert res.exit_code == 6, res.output
    assert json.loads(res.stderr)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("state, key", [
    *((False, key) for key in ("kind", "d", "idx")),
    *((True, key) for key in ("kind", "d", "qw", "c1", "c2", "qz1", "qz2", "n")),
])
def test_simulate_realization_without_a_key_is_a_usage_error(runner, cvf_file, tmp_path,
                                                              state, key):
    qw = tmp_path / "qw.json"
    qw.write_text(json.dumps({"Q": np.diag([1.1, 1.0, 0.9]).tolist()}))
    real = tmp_path / "real.json"
    args = ["realize", "--in", cvf_file, "--out", str(real)] + (["--qw", str(qw)] if state else [])
    assert runner.invoke(main, args).exit_code == 0
    body = json.loads(real.read_text())
    del body[key]
    real.write_text(json.dumps(body))
    res = runner.invoke(main, ["simulate", "--realization", str(real), "-N", "4000",
                               "--seed", "1", "--report", str(tmp_path / "rep.json")])
    assert res.exit_code == 2, res.output
    assert f"realization file has no {key!r}" in res.stderr


IDX = {"p11": 0, "p12": 3, "p13": 0, "p21": 0, "p22": 3, "p23": 0}


@pytest.mark.parametrize("reader, change, message", [
    # the pair reader of cvf and common-info
    ("pair", {"Q": None}, "pair file has no 'Q'"),
    ("pair", {"p1": None}, "pair file has no 'p1'"),
    # the canonical-form reader of common-info, realize, rdf and region
    ("cvf", {"d": None}, "canonical-form file has no 'd'"),
    ("cvf", {"idx": None}, "canonical-form file has no 'idx'"),
    ("cvf", {"idx": {"p12": 3}}, "\"idx\" has no 'p11'"),
    ("cvf", {"idx": {**IDX, "p14": 0}}, "\"idx\" has the unknown key 'p14'"),
    # simulate's reader of an optimal-state realization
    ("realization", {"idx": {"p12": 3}}, "\"idx\" has no 'p11'"),
    ("realization", {"idx": {**IDX, "p14": 0}}, "\"idx\" has the unknown key 'p14'"),
])
def test_input_file_without_a_key_is_a_usage_error(runner, pair_file, cvf_file, tmp_path,
                                                   reader, change, message):
    # a missing key, or an idx that does not hold exactly the six counts,
    # once ended in a KeyError or TypeError traceback (exit 1)
    path = {"pair": pair_file, "cvf": cvf_file, "realization": str(tmp_path / "real.json")}[reader]
    if reader == "realization":
        assert runner.invoke(main, ["realize", "--in", cvf_file, "--out", path]).exit_code == 0
    body = json.loads(Path(path).read_text())
    assert body.get("idx", IDX) == IDX
    for key, value in change.items():
        if value is None:
            del body[key]
        else:
            body[key] = value
    Path(path).write_text(json.dumps(body))
    args = {
        "pair": ["cvf", "--in", path, "--out", str(tmp_path / "out.json")],
        "cvf": ["rdf", "joint", "--in", path, "--delta1", "0.3", "--delta2", "0.3"],
        "realization": ["simulate", "--realization", path, "-N", "4000", "--seed", "1",
                        "--report", str(tmp_path / "rep.json")],
    }[reader]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.stderr


def _replace(**change):
    return lambda body: json.dumps({**body, **change})


def _malformed(reader, make, message):
    return pytest.param(reader, make, message, id=message)


@pytest.mark.parametrize("reader, make, message", [
    # the top level is not an object
    _malformed("realization", lambda body: json.dumps([body]),
               "realization file is not a JSON object"),
    _malformed("pair", lambda body: json.dumps([body]), "pair file is not a JSON object"),
    _malformed("cvf", lambda body: json.dumps([body]), "canonical-form file is not a JSON object"),
    # a count that is not an integer
    _malformed("cvf", _replace(idx={**IDX, "p11": "a"}),
               "canonical-form file \"idx\": 'p11' is not an integer"),
    _malformed("realization", _replace(idx={**IDX, "p12": "a"}),
               "realization file \"idx\": 'p12' is not an integer"),
    _malformed("pair", _replace(p1="a"), "pair file: 'p1' is not an integer"),
    # an array that is not numeric
    _malformed("cvf", _replace(d=["a", 0.5, 0.1]), "canonical-form file: 'd' is not numeric"),
    _malformed("pair", _replace(Q=[["a"] * 6] * 6), "pair file: 'Q' is not numeric"),
    _malformed("realization", _replace(d=[0.8, None, 0.1]),
               "realization file: 'd' is not numeric"),
    _malformed("state", lambda body: json.dumps({"Q": [[1.0, 0, 0], [0, "a", 0], [0, 0, 1.0]]}),
               "state file: 'Q' is not numeric"),
    _malformed("state", lambda body: json.dumps([1.0, "1", 1.0]),
               "state file: 'qw' is not numeric"),
    # the marginal rate reads the audit block of a canonical-form file
    _malformed("marginal", _replace(audit=None),
               "canonical-form file \"audit\" is not a JSON object"),
    _malformed("marginal", _replace(audit={"d1": ["a"]}),
               "canonical-form file \"audit\": 'd1' is not numeric"),
    # not JSON at all
    *(_malformed(reader, lambda body: "{\"d\": [0.8,", f"{what} is not JSON")
      for reader, what in (("pair", "pair file"), ("cvf", "canonical-form file"),
                           ("realization", "realization file"), ("state", "state file"))),
    # a pair CSV whose header is not two integers, with an entry that is
    # not a number, or with a ragged row
    _malformed("csv", lambda body: "a,b\n1,0.5\n0.5,1\n",
               "pair CSV row 1 is not the two integers p1,p2"),
    _malformed("csv", lambda body: "2\n1,0.5\n0.5,1\n",
               "pair CSV row 1 is not the two integers p1,p2"),
    _malformed("csv", lambda body: "1,1\n1,0.5\n0,x\n", "pair CSV row 3 is not numbers"),
    _malformed("csv", lambda body: "1,1\n1,0.5\n0.5\n", "pair CSV row 3 has length 1, row 2 has length 2"),
])
def test_malformed_input_file_is_a_usage_error(runner, pair_file, cvf_file, tmp_path,
                                                reader, make, message):
    # each of these once ended in an AttributeError, TypeError, ValueError
    # or JSONDecodeError traceback (exit 1)
    path = {"pair": pair_file, "cvf": cvf_file, "marginal": cvf_file,
            "realization": str(tmp_path / "real.json"), "state": str(tmp_path / "qw.json"),
            "csv": str(tmp_path / "pair.csv")}[reader]
    if reader == "realization":
        assert runner.invoke(main, ["realize", "--in", cvf_file, "--out", path]).exit_code == 0
    body = json.loads(Path(path).read_text()) if reader not in ("state", "csv") else None
    Path(path).write_text(make(body))
    args = {
        "pair": ["cvf", "--in", path, "--out", str(tmp_path / "out.json")],
        "csv": ["cvf", "--in", path, "--out", str(tmp_path / "out.json")],
        "cvf": ["rdf", "joint", "--in", path, "--delta1", "0.3", "--delta2", "0.3"],
        "marginal": ["rdf", "marginal", "--in", path, "--delta1", "0.3"],
        "realization": ["simulate", "--realization", path, "-N", "4000", "--seed", "1",
                        "--report", str(tmp_path / "rep.json")],
        "state": ["realize", "--in", cvf_file, "--qw", path, "--out", str(tmp_path / "r.json")],
    }[reader]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.stderr


def test_cvf_bad_thresholds_are_a_usage_error(runner, pair_file, tmp_path):
    out = tmp_path / "cvf.json"
    res = runner.invoke(main, ["cvf", "--in", pair_file, "--h1", "1e-6", "--h2", "1e-3",
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "need 0 < h2 < h1 < 1" in res.stderr
    assert not out.exists()


def test_import_starts_no_sampling_lanes():
    code = "\n".join([
        "import sys, threading",
        "import gwgauss.cli",
        "assert 'concurrent.futures' not in sys.modules",
        "assert threading.active_count() == 1, threading.enumerate()",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
