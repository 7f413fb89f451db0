"""End-to-end acceptance checks: worked numeric examples, randomized
property sweeps, an independent grid oracle for the joint rate, and the
runtime envelopes the library promises.  One test per check."""

import math
import time

import numpy as np
import pytest

import gwgauss as gw

import reference
from conftest import random_pair

D3 = np.array([0.8, 0.5, 0.1])
IDX3 = gw.IndexSextuple(0, 3, 0, 0, 3, 0)


def _diag_cross_pair(d, p1=None, p2=None):
    d = np.asarray(d, dtype=float)
    p1 = p1 or d.size
    p2 = p2 or d.size
    q12 = np.zeros((p1, p2))
    q12[: d.size, : d.size] = np.diag(d)
    return gw.JointGaussianPair(np.eye(p1), np.eye(p2), q12)


def test_diagonal_three_coefficient_example_values_and_speed():
    pair = _diag_cross_pair(D3)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cf = gw.decompose(pair)
        res = gw.common_information(cf.idx, cf.d)
        pxbits = gw.nats_to(res.value, "paper-example-bits")
        best = min(best, time.perf_counter() - t0)
    assert cf.idx == IDX3
    np.testing.assert_allclose(cf.d, D3, rtol=0, atol=1e-12)
    assert abs(pxbits - 5.0444) < 5e-4
    assert abs(res.value - 0.5 * math.log(33.0)) < 1e-9
    assert round(res.value, 5) == 1.74825
    assert best < 0.010


def test_six_by_five_thresholded_example_values():
    q12 = np.array(
        [
            [0.999998, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.999992, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.3, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.000004],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    pair = gw.JointGaussianPair(np.eye(6), np.eye(5), q12)
    cf = gw.decompose(pair, gw.Thresholds(0.999, 1e-4))
    assert cf.idx == gw.IndexSextuple(2, 2, 2, 2, 2, 1)
    np.testing.assert_allclose(cf.d, [0.8, 0.3], rtol=0, atol=1e-12)
    res = gw.common_information(cf.idx, cf.d)
    assert math.isinf(res.value) and res.case_tag == "identical-present"
    corr_bits = gw.nats_to(res.correlated_part, "paper-example-bits")
    assert abs(corr_bits - 4.0630) < 5e-4


def test_scalar_lossy_common_information_closed_form():
    for rho in np.arange(0.1, 0.95, 0.1):
        rho = float(round(rho, 1))
        bound = 1.0 - rho
        want = 0.5 * math.log((1.0 + rho) / (1.0 - rho))
        for d1, d2 in [
            (bound, bound),
            (0.5 * bound, 0.25 * bound),
            (1e-6, bound),
        ]:
            got = gw.lossy_common_information(rho, d1, d2)
            assert abs(got - want) < 1e-12
        with pytest.raises(gw.OutsideDW):
            gw.lossy_common_information(rho, bound + 1e-9, bound)
        with pytest.raises(gw.OutsideDW):
            gw.lossy_common_information(rho, 0.5 * bound, 2.0 * bound)


def test_canonical_form_round_trip_on_500_random_pairs():
    rng = np.random.default_rng(20260819)
    for _ in range(500):
        p1 = int(rng.integers(1, 9))
        p2 = int(rng.integers(1, 9))
        pair = random_pair(rng, p1, p2)
        cf = gw.decompose(pair)
        assert gw.pattern_residual(pair, cf) < 1e-9
        oracle = reference.canonical_correlations(pair.joint(), pair.p1)
        expected = np.concatenate(
            [
                np.ones(cf.idx.p11),
                cf.d,
                np.zeros(oracle.size - cf.idx.p11 - cf.idx.p12),
            ]
        )
        np.testing.assert_allclose(oracle, expected, rtol=0, atol=1e-8)


def test_identity_state_is_strict_minimum_over_family():
    rng = np.random.default_rng(5)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(0.05, 0.95, size=n))[::-1]
        qw = reference.sample_state_matrix(d, rng)
        if np.linalg.norm(qw - np.eye(n)) <= 1e-6:
            continue
        c = gw.common_information(gw.IndexSextuple(0, n, 0, 0, n, 0), d).value
        assert gw.mi_given_state(d, qw) > c
        chk = reference.check_hua_inequality(d, qw)
        assert chk.holds and chk.lhs <= chk.rhs + 1e-12
        # the determinant inequality rests on a matrix identity; evaluate it
        # on this trial's factors, normal and boundary-inflated scale alike
        rootq = gw.sqrt_psd(qw)
        rd = np.diag(np.sqrt(d))
        a = rd @ np.linalg.inv(rootq)
        b = rootq @ rd
        residual = reference.check_hua_identity(a, b)
        scale = max(
            1.0,
            float(
                np.abs(
                    (a - b) @ np.linalg.solve(np.eye(n) - b.T @ b, (a - b).T)
                ).max()
            ),
        )
        assert residual < 1e-9
        assert residual <= 1e-9 * scale
        trials += 1


def test_sum_rate_identity_on_equal_split_region():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(0.05, 0.95, size=n))[::-1]
        dw = n * (1.0 - d[0])
        d1 = float(rng.uniform(0.02, 0.98) * dw)
        d2 = float(rng.uniform(0.02, 0.98) * dw)
        triple = gw.pangloss_triple(d, d1, d2)
        joint = gw.joint_rdf(d, d1, d2)
        assert joint.regime == "closed-form-DW"
        total = triple.r0 + triple.r1 + triple.r2
        assert abs(total - joint.rate) < 1e-10


def _grid_oracle(d, delta1, delta2, m=400):
    """Feasibility-filtered grid search for the two-component joint rate.

    Grids the two branch allocations of the first component over the box
    the cap constraint permits, solves the second component in closed form
    from the leftover budgets, and also walks the first component's cap
    curve since a binding cap turns the grid error first-order.
    """
    d1, d2 = d
    c2 = d2 * d2

    def comp2_best(r1, r2):
        cr1 = np.clip(np.minimum(r1, 1.0 - 1e-12), 1e-12, None)
        cr2 = np.clip(np.minimum(r2, 1.0 - 1e-12), 1e-12, None)
        corner_ok = (1.0 - cr1) * (1.0 - cr2) >= c2
        obj_corner = np.where(corner_ok, np.log(cr1) + np.log(cr2), -np.inf)
        b_low = 1.0 - c2 / (1.0 - cr1)
        b = np.clip(1.0 - d2, b_low, cr2)
        b = np.clip(b, 1e-12, 1.0 - 1e-12)
        a = np.minimum(cr1, 1.0 - c2 / (1.0 - b))
        obj_curve = np.where(
            a > 1e-12, np.log(np.clip(a, 1e-300, None)) + np.log(b), -np.inf
        )
        return np.maximum(obj_corner, obj_curve)

    hi1 = min(delta1, 1.0 - d1 * d1) - 1e-9
    hi2 = min(delta2, 1.0 - d1 * d1) - 1e-9
    g1 = np.linspace(1e-6, hi1, m)
    g2 = np.linspace(1e-6, hi2, m)
    x, y = np.meshgrid(g1, g2, indexing="ij")
    ok = (1.0 - x) * (1.0 - y) >= d1 * d1
    ok &= (delta1 - x > 1e-9) & (delta2 - y > 1e-9)
    obj = np.where(
        ok, np.log(x) + np.log(y) + comp2_best(delta1 - x, delta2 - y), -np.inf
    )
    best = float(obj.max())
    for grid_line in (g1, g2):
        partner = 1.0 - d1 * d1 / (1.0 - grid_line)
        for a11, a21 in ((grid_line, partner), (partner, grid_line)):
            good = (
                (a11 > 1e-12)
                & (a21 > 1e-12)
                & (delta1 - a11 > 1e-9)
                & (delta2 - a21 > 1e-9)
            )
            if good.any():
                vals = (
                    np.log(a11[good])
                    + np.log(a21[good])
                    + comp2_best(delta1 - a11[good], delta2 - a21[good])
                )
                best = max(best, float(vals.max()))
    return 0.5 * (float((np.log1p(-d) + np.log1p(d)).sum()) - best)


def test_joint_rate_matches_grid_search_oracle():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for _ in range(50):
        d = np.sort(rng.uniform(0.05, 0.95, size=2))[::-1]
        budget = float(np.sum(1.0 - d))
        d1 = float(rng.uniform(0.15, 0.7) * budget)
        d2 = float(rng.uniform(0.15, 0.7) * budget)
        res = gw.joint_rdf(d, d1, d2)
        assert abs(res.rate - _grid_oracle(d, d1, d2)) < 1e-3
    assert time.perf_counter() - t0 < 5.0


def test_joint_rate_dominates_gray_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = np.sort(rng.uniform(0.02, 0.97, size=n))[::-1]
        dw = gw.dw_bound(d)
        d1 = float(rng.uniform(0.05, 1.3) * dw)
        d2 = float(rng.uniform(0.05, 1.3) * dw)
        joint = gw.joint_rdf(d, d1, d2).rate
        assert joint >= gw.gray_lower_bound(d, d1, d2) - 1e-9


def test_monte_carlo_validates_optimal_realization_and_channel():
    n_draws = 200_000
    t0 = time.perf_counter()
    state = gw.optimal_state(IDX3, D3)
    block = gw.sample(state, n_draws, seed=1)
    target = gw.optimal_triple_cov(IDX3, D3)
    report = gw.validate_realization(block, target)
    assert report.cov_rel_err < 1e-2
    assert report.ci_residual < 1e-2
    alloc1 = np.array([0.05, 0.1, 0.2])
    alloc2 = np.full(3, 0.1)
    channel = gw.test_channel(D3, np.eye(3), alloc1, alloc2)
    chan_block = gw.sample(channel, n_draws, seed=1)
    e1, e2 = gw.validate_distortion(
        chan_block, float(alloc1.sum()), float(alloc2.sum())
    )
    assert e1 < 1e-2 and e2 < 1e-2
    assert time.perf_counter() - t0 < 5.0
    again = gw.sample(state, n_draws, seed=1)
    assert np.array_equal(block.y1, again.y1)
    assert np.array_equal(block.y2, again.y2)
    assert np.array_equal(block.w, again.w)
    rerun = gw.validate_realization(again, target)
    assert (rerun.cov_rel_err, rerun.ci_residual, rerun.mi_plugin) == (
        report.cov_rel_err,
        report.ci_residual,
        report.mi_plugin,
    )


def test_water_filling_monotone_zero_and_switch_points():
    v = np.array([3.0, 2.0, 1.0, 0.5])
    total = float(v.sum())
    sweep = np.linspace(1e-6, 1.05 * total, 1000)
    rates = np.array([gw.marginal_rdf(v, float(dd)).rate for dd in sweep])
    assert np.all(np.diff(rates) <= 1e-12)
    assert gw.marginal_rdf(v, total).rate == 0.0
    for vk in np.unique(v):
        dk = float(np.minimum(v, vk).sum())
        lo = gw.marginal_rdf(v, max(dk - 1e-8, 1e-12)).rate
        hi = gw.marginal_rdf(v, dk + 1e-8).rate
        assert abs(lo - hi) < 1e-6
