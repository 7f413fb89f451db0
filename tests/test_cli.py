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
    saved = json.loads(open(out).read())
    np.testing.assert_allclose(saved["d"], [0.8, 0.5, 0.1], atol=1e-12)
    assert np.asarray(saved["s1"]).shape == (3, 3)


def test_cvf_accepts_csv_input(runner, tmp_path):
    pair = gw.JointGaussianPair(np.eye(2), np.eye(2), np.diag([0.4, 0.2]))
    src = tmp_path / "pair.csv"
    src.write_text(gw.pair_to_csv(pair))
    out = str(tmp_path / "cvf.json")
    res = runner.invoke(main, ["cvf", "--in", str(src), "--out", out])
    assert res.exit_code == 0
    np.testing.assert_allclose(json.loads(open(out).read())["d"], [0.4, 0.2], atol=1e-12)


def test_cvf_output_is_byte_stable(runner, pair_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    runner.invoke(main, ["cvf", "--in", pair_file, "--out", out1])
    runner.invoke(main, ["cvf", "--in", pair_file, "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


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
    assert json.loads(open(real).read())["kind"] == "optimal-state"

    rep1 = str(tmp_path / "r1.json")
    rep2 = str(tmp_path / "r2.json")
    for rep in (rep1, rep2):
        res = runner.invoke(main, ["simulate", "--realization", real, "-N", "5000",
                                   "--seed", "42", "--report", rep])
        assert res.exit_code == 0, res.output
    assert open(rep1, "rb").read() == open(rep2, "rb").read()
    body = json.loads(open(rep1).read())
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
    body = json.loads(open(real).read())
    assert body["kind"] == "ci-family"
    rep = str(tmp_path / "rep.json")
    res = runner.invoke(main, ["simulate", "--realization", real, "-N", "4000",
                               "--seed", "1", "--report", rep])
    assert res.exit_code == 0
    assert json.loads(open(rep).read())["ci_residual"] < 0.1


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


def test_region_csv_schema(runner, cvf_file, tmp_path):
    out = str(tmp_path / "region.csv")
    res = runner.invoke(main, ["region", "--in", cvf_file, "--delta1", "0.3",
                               "--delta2", "0.3", "--alpha-grid", "3", "--out", out])
    assert res.exit_code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "alpha1,alpha2,T,R0,R1,R2,q_1,q_2,q_3"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    summary = json.loads(res.stdout)
    assert list(summary) == ["points", "out", "max_gap", "iterations"]
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
    assert open(out, "rb").read() == want.encode()
    assert gw.region_csv(points) == want
    assert lines[-1].startswith("1,1,6.2480634510635")
    # the summary certifies the sweep: the largest gap and the total dual
    # evaluations of the points written
    assert summary["max_gap"] == max(p.gap for p in points)
    assert 0.0 < summary["max_gap"] <= 1e-10
    assert summary["iterations"] == sum(p.iterations for p in points) >= len(points)


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
        "SingularFactor": 10,
        "NonpositiveDistortion": 11,
        "QWNotDiagonal": 12,
        "AllocationOutOfRange": 13,
        "OutsideDW": 15,
        "TooFewSamples": 16,
        "MissingReconstruction": 17,
    }
    assert (EXIT_FILE_NOT_FOUND, EXIT_OTHER) == (3, 18)
    assert not hasattr(gw, "InfeasibleRegion")  # 14 stays unassigned


def test_error_exit_codes(runner, cvf_file, tmp_path):
    res = runner.invoke(main, ["rdf", "joint", "--in", cvf_file,
                               "--delta1", "-1", "--delta2", "0.3"])
    assert res.exit_code == 11
    assert json.loads(res.stderr)["error"] == "NonpositiveDistortion"

    bad_q = tmp_path / "bad_q.json"
    bad_q.write_text(json.dumps([0.5, 1.0, 1.0]))  # first entry below d_1
    res = runner.invoke(main, ["rdf", "conditional", "--in", cvf_file,
                               "--delta1", "0.3", "--qw", str(bad_q)])
    assert res.exit_code == 9

    offdiag = tmp_path / "offdiag.json"
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.2
    offdiag.write_text(json.dumps(m.tolist()))
    res = runner.invoke(main, ["rdf", "conditional", "--in", cvf_file,
                               "--delta1", "0.3", "--qw", str(offdiag)])
    assert res.exit_code == 12

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
