"""Tests of the benchmark's oracles and checks.

    python3 -m pytest perfbench/test_oracles.py

Each oracle is matched against a brute-force computation on small cases,
and each check is shown to accept a correct result and reject one that is
off by 1e-6 or outside its constraints.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import oracles

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------- brute force

def brute_waterfill(v, delta, points=4001):
    """Minimum of sum 0.5 log(v_j / a_j) over a grid of allocations
    with sum(a) = delta and 0 < a_j <= v_j (two or three components)."""
    v = np.asarray(v, dtype=float)
    best = math.inf
    grids = [np.linspace(1e-9, x, points) for x in v[:-1]]
    mesh = np.meshgrid(*grids, indexing="ij")
    rest = delta - sum(mesh)
    ok = (rest > 0) & (rest <= v[-1])
    rate = sum(0.5 * np.log(x / m) for x, m in zip(v[:-1], mesh))
    rate = rate + 0.5 * np.log(v[-1] / np.where(ok, rest, 1.0))
    best = float(np.min(np.where(ok, rate, math.inf)))
    return best


def brute_joint_n1(d, delta1, delta2, points=241):
    """Scalar joint RDF by brute force over 2 x 2 error covariances
    E = [[e1, r], [r, e2]] with E <= Q, e_i <= delta_i: max det E."""
    q = np.array([[1.0, d], [d, 1.0]])
    e1 = np.linspace(1e-6, delta1, points)
    e2 = np.linspace(1e-6, delta2, points)
    r = np.linspace(-1.0, 1.0, points)
    a, b, c = np.meshgrid(e1, e2, r, indexing="ij")
    c = c * np.sqrt(a * b)
    det_e = a * b - c * c
    # Q - E PSD: diagonal entries and determinant nonnegative
    m11, m22, m12 = 1.0 - a, 1.0 - b, d - c
    ok = (m11 >= 0) & (m22 >= 0) & (m11 * m22 - m12 * m12 >= -1e-15) & (det_e > 0)
    best = float(np.max(np.where(ok, det_e, 0.0)))
    return 0.5 * math.log(np.linalg.det(q) / best)


def brute_restricted(d, delta1, delta2, points=801):
    """Independent-error program for n = 2 by brute force over budget splits."""
    d = np.asarray(d, dtype=float)
    s = np.linspace(1e-9, 1.0 - 1e-9, points)
    a11, a21 = np.meshgrid(s * delta1, s * delta2, indexing="ij")
    a12, a22 = delta1 - a11, delta2 - a21
    ok = ((1 - a11) * (1 - a21) >= d[0] ** 2) & ((1 - a12) * (1 - a22) >= d[1] ** 2)
    ok &= (a11 <= 1) & (a12 <= 1) & (a21 <= 1) & (a22 <= 1)
    logs = np.log(a11) + np.log(a12) + np.log(a21) + np.log(a22)
    best = float(np.max(np.where(ok, logs, -math.inf)))
    return 0.5 * (float(np.sum(np.log1p(-d * d))) - best)


# ---------------------------------------------------------------- oracles

@pytest.mark.parametrize("v, delta", [
    ([1.0, 0.5], 0.6), ([0.9, 0.2], 0.5), ([1.0, 0.7, 0.1], 0.9), ([0.3, 0.3, 0.3], 0.4),
])
def test_waterfill_matches_brute_force(v, delta):
    rate, alloc, level = oracles.waterfill(v, delta)
    assert alloc.sum() == pytest.approx(delta, rel=1e-14)
    assert np.all(alloc <= np.asarray(v) + 1e-15)
    points = 4001 if len(v) == 2 else 601
    assert rate == pytest.approx(brute_waterfill(v, delta, points), abs=2e-3 if len(v) == 3 else 1e-3)
    assert rate <= brute_waterfill(v, delta, points) + 1e-12


def test_waterfill_zero_rate_past_total_variance():
    assert oracles.waterfill([0.2, 0.3], 0.6)[0] == 0.0


@pytest.mark.parametrize("d, q", [([0.6], [1.3]), ([0.8, 0.3], [0.9, 2.0]), ([0.5, 0.4, 0.2], [1.0, 1.0, 1.0])])
def test_diag_state_info_matches_triple_determinants(d, q):
    d = np.asarray(d)
    full = oracles.state_triple_cov(d, np.diag(q))
    n = d.size
    brute = 0.5 * (np.linalg.slogdet(full[:2 * n, :2 * n])[1] + np.linalg.slogdet(full[2 * n:, 2 * n:])[1]
                   - np.linalg.slogdet(full)[1])
    assert oracles.diag_state_info(d, q) == pytest.approx(brute, abs=1e-12)


def test_identity_state_gives_common_information():
    d = np.array([0.8, 0.5, 0.1])
    assert oracles.diag_state_info(d, np.ones(3)) == pytest.approx(oracles.common_information(d), abs=1e-14)
    assert oracles.common_information(d) == pytest.approx(0.5 * math.log(33.0), abs=1e-14)


@pytest.mark.parametrize("d, u1, u2", [(0.6, 0.5, 0.9), (0.3, 0.8, 0.4)])
def test_dw_joint_rate_matches_covariance_brute_force(d, u1, u2):
    b = oracles.dw_bound([d])
    rate = oracles.dw_joint_rate([d], u1 * b, u2 * b)
    assert rate == pytest.approx(brute_joint_n1(d, u1 * b, u2 * b), abs=2e-3)


def test_dw_joint_rate_matches_restricted_brute_force_n2():
    d = np.array([0.7, 0.4])
    b = oracles.dw_bound(d)
    rate = oracles.dw_joint_rate(d, 0.8 * b, 0.5 * b)
    assert rate == pytest.approx(brute_restricted(d, 0.8 * b, 0.5 * b), abs=1e-4)


@pytest.mark.parametrize("d, delta1, delta2", [(0.6, 0.3, 0.2), (0.9, 0.5, 0.05), (0.2, 1.5, 0.1)])
def test_gray_bound_scalar_closed_form_and_below_brute_force(d, delta1, delta2):
    want = max(0.0, 0.5 * math.log(1.0 / delta1)) + max(0.0, 0.5 * math.log((1 - d * d) / delta2))
    assert oracles.gray_lower_bound([d], delta1, delta2) == pytest.approx(want, abs=1e-14)
    if delta1 < 1.0 and delta2 < 1.0 - d * d:
        assert want <= brute_joint_n1(d, delta1, delta2) + 1e-9


@pytest.mark.parametrize("delta1, delta2", [(0.1, 0.1), (0.5, 0.2), (1.2, 0.3), (0.05, 1.0)])
def test_feasible_allocation_bound_above_brute_force(delta1, delta2):
    d = np.array([0.7, 0.4])
    brute = brute_restricted(d, delta1, delta2)
    bound = oracles.feasible_allocation_bound(d, delta1, delta2)
    assert bound >= brute - 1e-9
    if max(delta1, delta2) <= oracles.dw_bound(d):
        assert bound == pytest.approx(oracles.dw_joint_rate(d, delta1, delta2), abs=1e-14)


def test_canonical_correlations_of_a_constructed_pair():
    rng = np.random.default_rng(3)
    d = np.array([0.9, 0.6, 0.25])
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((3, 3))
    cross = np.zeros((4, 3))
    cross[:3, :3] = np.diag(d)
    got = oracles.canonical_correlations(a @ a.T, b @ b.T, a @ cross @ b.T)
    assert got == pytest.approx(d, abs=1e-10)


def test_gaussian_mi_scalar_and_singular():
    rho = 0.7
    q = np.array([[1.0, rho], [rho, 1.0]])
    assert oracles.gaussian_mi(q, 1) == pytest.approx(-0.5 * math.log(1 - rho * rho), abs=1e-14)
    assert oracles.gaussian_mi(np.ones((2, 2)), 1) == math.inf


def test_optimal_triple_makes_branches_independent_given_w():
    d = np.array([0.7, 0.2])
    t = oracles.optimal_triple_cov(1, d, 1, 0)
    p1, p2 = 4, 3
    resid = t[:p1, p1:p1 + p2] - t[:p1, p1 + p2:] @ np.linalg.solve(t[p1 + p2:, p1 + p2:], t[p1:p1 + p2, p1 + p2:].T)
    assert np.max(np.abs(resid)) < 1e-14
    assert np.all(np.linalg.eigvalsh(t) > -1e-12)


@pytest.mark.parametrize("d, alpha", [(0.6, (1.0, 0.0)), (0.3, (0.0, 1.0)), (0.8, (0.5, 1.0))])
def test_grid_min_n1_matches_dense_grid(d, alpha):
    b = oracles.dw_bound([d])
    delta1, delta2 = 0.7 * b, 0.4 * b
    x = np.exp(np.linspace(math.log(d), -math.log(d), 20_001))[1:-1]
    dense = min(oracles.sweep_objective([d], [xi], delta1, delta2, *alpha)[0] for xi in x)
    got = oracles.grid_min_n1(d, delta1, delta2, *alpha)
    assert got <= dense + 1e-12
    assert got == pytest.approx(dense, abs=1e-4)


# ---------------------------------------------------------------- checks

def _identity_point(d, delta1, delta2):
    """The sweep point at (1, 1): inside D_W the identity state is optimal."""
    q = np.ones(len(d))
    t, r0, r1, r2 = oracles.sweep_objective(d, q, delta1, delta2, 1.0, 1.0)
    return SimpleNamespace(alpha1=1.0, alpha2=1.0, objective=t,
                           triple=SimpleNamespace(r0=r0, r1=r1, r2=r2), q=q)


@pytest.mark.parametrize("d", [[0.6], [0.8, 0.5, 0.1]])
def test_sweep_check_accepts_correct_and_rejects_wrong(d):
    d = np.asarray(d)
    b = oracles.dw_bound(d)
    good = _identity_point(d, 0.5 * b, 0.8 * b)
    assert checks.sweep_point(d, 0.5 * b, 0.8 * b, (1.0, 1.0), [good]) == []
    off = SimpleNamespace(**{**vars(good), "objective": good.objective + 1e-6})
    assert checks.sweep_point(d, 0.5 * b, 0.8 * b, (1.0, 1.0), [off])
    tri = SimpleNamespace(**{**vars(good.triple), "r1": good.triple.r1 + 1e-6})
    assert checks.sweep_point(d, 0.5 * b, 0.8 * b, (1.0, 1.0), [SimpleNamespace(**{**vars(good), "triple": tri})])
    outside = SimpleNamespace(**{**vars(good), "q": d * 0.99})
    assert checks.sweep_point(d, 0.5 * b, 0.8 * b, (1.0, 1.0), [outside])


def _dw_result(d, delta1, delta2):
    n = len(d)
    return SimpleNamespace(rate=oracles.dw_joint_rate(d, delta1, delta2), alloc1=np.full(n, delta1 / n),
                           alloc2=np.full(n, delta2 / n), regime="closed-form-DW")


def test_joint_check_accepts_correct_and_rejects_wrong():
    d = np.array([0.7, 0.4, 0.2])
    b = oracles.dw_bound(d)
    good = _dw_result(d, 0.5 * b, 0.9 * b)
    assert checks.joint_rate(d, 0.5 * b, 0.9 * b, good) == []
    assert checks.joint_rate(d, 0.5 * b, 0.9 * b, SimpleNamespace(**{**vars(good), "rate": good.rate + 1e-6}))
    over = SimpleNamespace(**{**vars(good), "alloc1": good.alloc1 * (1 + 1e-5)})
    assert checks.joint_rate(d, 0.5 * b, 0.9 * b, over)
    capped = SimpleNamespace(**{**vars(good), "alloc1": np.array([0.9, 0.01, 0.01]),
                                "alloc2": np.array([0.9, 0.01, 0.01])})
    assert checks.joint_rate(d, 1.0, 1.0, capped)
    # outside D_W the feasible allocation is a valid result but not a closed form
    delta1, delta2 = 3.0 * b, 0.2 * b
    a1 = np.minimum(delta1 / 3, 1 - d)
    a2 = np.minimum(delta2 / 3, 1 - d)
    feasible = SimpleNamespace(rate=oracles.allocation_rate(d, a1, a2), alloc1=a1, alloc2=a2,
                               regime="numerical")
    assert checks.joint_rate(d, delta1, delta2, feasible) == []
    assert checks.joint_rate(d, delta1, delta2, SimpleNamespace(**{**vars(feasible), "regime": "closed-form-DW"}))


def test_waterfill_and_gray_checks_reject_wrong():
    v = np.array([1.0, 0.6, 0.2])
    rate, alloc, _ = oracles.waterfill(v, 0.5)
    assert checks.waterfill(v, 0.5, SimpleNamespace(rate=rate, alloc=alloc)) == []
    assert checks.waterfill(v, 0.5, SimpleNamespace(rate=rate + 1e-6, alloc=alloc))
    assert checks.waterfill(v, 0.5, SimpleNamespace(rate=rate, alloc=alloc + 1e-6))
    d = np.array([0.5])
    g = oracles.gray_lower_bound(d, 0.2, 0.3)
    assert checks.gray(d, 0.2, 0.3, g) == []
    assert checks.gray(d, 0.2, 0.3, g + 1e-6)


def test_canonical_form_check_rejects_wrong_correlations():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    q11, q22 = a @ a.T, np.eye(2)
    q12 = a @ np.array([[0.8, 0.0], [0.0, 0.3], [0.0, 0.0]])
    sv = oracles.canonical_correlations(q11, q22, q12)
    cf = SimpleNamespace(sv=sv, d=sv.copy(), idx=SimpleNamespace(p11=0, p12=2))
    assert checks.canonical_form(q11, q22, q12, cf, 1 - 1e-6, 1e-9) == []
    bad = SimpleNamespace(sv=sv + np.array([1e-6, 0.0]), d=sv + np.array([1e-6, 0.0]), idx=cf.idx)
    assert checks.canonical_form(q11, q22, q12, bad, 1 - 1e-6, 1e-9)


def _mc_block(cov, p1, p2, n, seed):
    x = np.random.default_rng(seed).multivariate_normal(np.zeros(cov.shape[0]), cov, size=n)
    return SimpleNamespace(n_samples=n, y1=x[:, :p1], y2=x[:, p1:p1 + p2], w=x[:, p1 + p2:])


def _mc_report(block, target, p1, p2):
    x = np.hstack([block.y1, block.y2, block.w])
    emp = x.T @ x / block.n_samples
    emp = 0.5 * (emp + emp.T)
    e12, e1w, e2w, ew = emp[:p1, p1:p1 + p2], emp[:p1, p1 + p2:], emp[p1:p1 + p2, p1 + p2:], emp[p1 + p2:, p1 + p2:]
    return SimpleNamespace(
        cov_rel_err=float(np.linalg.norm(emp - target) / np.linalg.norm(target)),
        ci_residual=float(np.max(np.abs(e12 - e1w @ np.linalg.solve(ew, e2w.T)))),
        mi_plugin=oracles.gaussian_mi(emp[:p1 + p2, :p1 + p2], p1), distortion_errs=None,
    )


def test_realization_check_accepts_samples_and_rejects_wrong_law():
    d = np.array([0.7, 0.3])
    target = oracles.state_triple_cov(d, np.diag([1.2, 0.8]))
    mi = oracles.gaussian_mi(target[:4, :4], 2)
    block = _mc_block(target, 2, 2, 20_000, 1)
    rep = _mc_report(block, target, 2, 2)
    kw = dict(identical=False, mi_target=mi, corr_d=d)
    assert checks.realization_report(block, target, 2, 2, rep, **kw) == []
    lied = SimpleNamespace(**{**vars(rep), "cov_rel_err": rep.cov_rel_err / 2})
    assert checks.realization_report(block, target, 2, 2, lied, **kw)
    wrong = oracles.state_triple_cov(np.array([0.6, 0.3]), np.diag([1.2, 0.8]))
    block = _mc_block(wrong, 2, 2, 20_000, 2)
    assert checks.realization_report(block, target, 2, 2, _mc_report(block, target, 2, 2), **kw)


# ---------------------------------------------------------------- the program

@pytest.fixture(scope="module")
def gw():
    sys.path.insert(0, str(SRC))
    import gwgauss

    return gwgauss


def test_checks_accept_program_outputs(gw):
    d = np.array([0.55])
    b = oracles.dw_bound(d)
    for alpha in ((1.0, 0.0), (1.0, 1.0)):
        pts = gw.region_sweep(d, 0.6 * b, 0.9 * b, alphas=[alpha])
        assert checks.sweep_point(d, 0.6 * b, 0.9 * b, alpha, pts) == []
        bumped = [SimpleNamespace(**{**vars(pts[0]), "objective": pts[0].objective + 1e-6})]
        assert checks.sweep_point(d, 0.6 * b, 0.9 * b, alpha, bumped)
    d = np.array([0.8, 0.5, 0.1])
    b = oracles.dw_bound(d)
    for m1, m2 in itertools.product((0.5, 3.0), (0.2, 2.0)):
        res = gw.joint_rdf(d, m1 * b, m2 * b)
        assert checks.joint_rate(d, m1 * b, m2 * b, res) == []
