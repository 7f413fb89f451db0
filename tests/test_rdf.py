import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss import rdf

D3 = np.array([0.8, 0.5, 0.1])

variance_vectors = st.lists(
    st.floats(0.05, 4.0, allow_nan=False), min_size=1, max_size=8
).map(np.array)

d_vectors = st.lists(
    st.floats(0.05, 0.95, allow_nan=False), min_size=1, max_size=5
).map(lambda xs: np.array(sorted(xs, reverse=True)))


def test_marginal_two_level_value():
    res = gw.marginal_rdf([2.0, 1.0], 0.5)
    # both components active at level 0.25: 0.5 ln 32
    assert math.isclose(res.rate, 1.7328679513998633, rel_tol=1e-13)
    np.testing.assert_allclose(res.alloc, [0.25, 0.25], rtol=1e-12)
    assert math.isclose(res.water_level, 0.25, rel_tol=1e-12)
    assert list(res.active_set) == [0, 1]


def test_marginal_unit_variances():
    res = gw.marginal_rdf(np.ones(3), 0.3)
    assert math.isclose(res.rate, 3.4538776394910685, rel_tol=1e-13)


def test_marginal_partial_activation():
    res = gw.marginal_rdf([2.0, 0.1], 0.5)
    # level 0.4 leaves the small component saturated
    np.testing.assert_allclose(res.alloc, [0.4, 0.1], rtol=1e-10)
    assert list(res.active_set) == [0]
    assert math.isclose(res.rate, 0.5 * math.log(2.0 / 0.4), rel_tol=1e-12)


def test_marginal_rate_zero_exactly_at_saturation():
    v = np.array([2.0, 1.0, 0.5])
    res = gw.marginal_rdf(v, float(v.sum()))
    assert res.rate == 0.0
    np.testing.assert_array_equal(res.alloc, v)
    assert res.active_set.size == 0
    assert gw.marginal_rdf(v, 10.0).rate == 0.0


def test_marginal_rejects_bad_inputs():
    with pytest.raises(gw.NonpositiveDistortion):
        gw.marginal_rdf([1.0], 0.0)
    with pytest.raises(gw.NonpositiveDistortion):
        gw.marginal_rdf([1.0], -0.5)
    with pytest.raises(ValueError):
        gw.marginal_rdf([-1.0], 0.5)


@given(variance_vectors, st.floats(1e-6, 12.0))
def test_waterfill_allocation_identities(v, delta):
    res = gw.marginal_rdf(v, delta)
    assert math.isclose(res.alloc.sum(), min(delta, v.sum()), rel_tol=1e-10)
    np.testing.assert_allclose(
        res.alloc, np.minimum(res.water_level, v), rtol=0, atol=1e-9
    )
    assert res.rate >= -0.0


@given(variance_vectors, st.floats(1e-6, 12.0), st.floats(1e-6, 12.0))
def test_marginal_rate_monotone(v, d1, d2):
    lo, hi = sorted((d1, d2))
    assert gw.marginal_rdf(v, lo).rate >= gw.marginal_rdf(v, hi).rate - 1e-12


def test_conditional_branch_formulas():
    q = np.array([1.25, 0.8])
    d = np.array([0.5, 0.4])
    r1 = gw.conditional_rdf(d, q, 1, 0.3)
    want1 = gw.marginal_rdf(1.0 - d / q, 0.3)
    assert math.isclose(r1.rate, want1.rate, rel_tol=1e-13)
    r2 = gw.conditional_rdf(d, q, 2, 0.3)
    want2 = gw.marginal_rdf(1.0 - d * q, 0.3)
    assert math.isclose(r2.rate, want2.rate, rel_tol=1e-13)


def test_conditional_at_identity_value():
    res = gw.conditional_rdf(D3, np.ones(3), 1, 0.3)
    # 0.5 ln 90, high-precision reference
    assert math.isclose(res.rate, 2.2499048351651325, rel_tol=1e-13)


def test_conditional_rejects_invalid_state():
    with pytest.raises(gw.QWNotDiagonal):
        gw.conditional_rdf(D3, np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1, 0.3)
    with pytest.raises(gw.QWOutOfFamily):
        gw.conditional_rdf(D3, np.array([0.5, 1.0, 1.0]), 1, 0.3)
    with pytest.raises(ValueError):
        gw.conditional_rdf(D3, np.ones(3), 3, 0.3)


def test_dw_region_helpers():
    assert math.isclose(gw.dw_bound(D3), 3 * 0.2, rel_tol=1e-12)
    assert gw.in_dw(D3, 0.3, 0.6 - 1e-12)
    assert not gw.in_dw(D3, 0.3, 0.7)
    assert not gw.in_dw(D3, -0.1, 0.3)


def test_joint_closed_form_inside_region():
    res = gw.joint_rdf(D3, 0.3, 0.3)
    assert res.regime == "closed-form-DW"
    # 0.5 ln(267300), high-precision reference
    assert math.isclose(res.rate, 6.248063451063505, rel_tol=1e-13)
    np.testing.assert_allclose(res.alloc1, 0.1 * np.ones(3), rtol=1e-12)
    np.testing.assert_allclose(res.alloc2, res.alloc1, rtol=1e-12)


@given(d_vectors, st.floats(0.02, 1.0), st.floats(0.02, 1.0))
def test_joint_numerical_matches_closed_form(d, f1, f2):
    # dual route: the allocation solver must agree with the closed form on
    # the equal-split region
    b = gw.dw_bound(d)
    delta1, delta2 = f1 * b, f2 * b
    if min(delta1, delta2) < 1e-6:
        return
    direct = gw.joint_rdf(d, delta1, delta2)
    numeric = gw.joint_rdf(d, delta1, delta2, force_numerical=True)
    assert direct.regime == "closed-form-DW"
    assert math.isclose(direct.rate, numeric.rate, rel_tol=1e-9, abs_tol=1e-9)


@given(d_vectors, st.floats(1.05, 3.0), st.floats(0.2, 3.0))
def test_joint_outside_region_satisfies_constraints(d, f1, f2):
    n = d.size
    delta1 = f1 * gw.dw_bound(d) + 0.01
    delta2 = f2 * gw.dw_bound(d) + 0.01
    res = gw.joint_rdf(d, delta1, delta2)
    a1, a2 = res.alloc1, res.alloc2
    assert np.all(a1 > 0) and np.all(a2 > 0)
    assert a1.sum() <= delta1 + 1e-8
    assert a2.sum() <= delta2 + 1e-8
    np.testing.assert_array_less(d * d - 1e-9, (1 - a1) * (1 - a2))
    # the solve certifies itself: budgets kept, rate at the dual bound
    assert res.budget_residual <= 1e-11
    assert abs(res.dual_gap) <= 1e-9 * (1.0 + res.rate)
    # joint rate never drops below the shared-state information
    c = gw.common_information(gw.IndexSextuple(0, n, 0, 0, n, 0), d).value
    assert res.rate >= c - 1e-9


def test_joint_saturates_to_common_information():
    # huge distortion budgets: allocation approaches the cap curve and the
    # rate approaches the common information from above
    res = gw.joint_rdf(D3, 50.0, 50.0)
    assert res.regime == "infeasible-region"
    c = gw.common_information(gw.IndexSextuple(0, 3, 0, 0, 3, 0), D3).value
    assert math.isclose(res.rate, c, rel_tol=1e-12)
    assert np.allclose(res.alloc1, 1.0 - D3) and np.allclose(res.alloc2, 1.0 - D3)


@given(d_vectors, st.floats(0.05, 2.5), st.floats(0.05, 2.5), st.floats(1.02, 1.6))
def test_joint_rate_monotone_in_distortion(d, f1, f2, grow):
    delta1 = f1 * gw.dw_bound(d) + 1e-3
    delta2 = f2 * gw.dw_bound(d) + 1e-3
    base = gw.joint_rdf(d, delta1, delta2).rate
    assert gw.joint_rdf(d, grow * delta1, delta2).rate <= base + 1e-8
    assert gw.joint_rdf(d, delta1, grow * delta2).rate <= base + 1e-8


def test_joint_with_independent_components_splits():
    # zero correlation: the two branches decouple into marginal problems;
    # beyond D_W a budget of 2 or more leaves both components at a = 1
    for delta1, delta2 in [(0.7, 1.1), (0.7, 3.0), (2.5, 3.0)]:
        res = gw.joint_rdf(np.zeros(2), delta1, delta2)
        want = sum(gw.marginal_rdf(np.ones(2), delta).rate for delta in (delta1, delta2))
        assert math.isclose(res.rate, want, rel_tol=1e-10, abs_tol=1e-15)


def test_joint_empty_is_zero():
    res = gw.joint_rdf(np.zeros(0), 1.0, 1.0)
    assert res.rate == 0.0


def test_joint_rejects_bad_inputs():
    with pytest.raises(gw.NonpositiveDistortion):
        gw.joint_rdf(D3, 0.0, 0.3)
    with pytest.raises(gw.QWOutOfFamily):
        gw.joint_rdf([1.0], 0.3, 0.3)
    with pytest.raises(gw.QWOutOfFamily):
        gw.joint_rdf([-0.2], 0.3, 0.3)


def test_gray_bound_value_and_equality_on_region():
    got = gw.gray_lower_bound(D3, 0.3, 0.3)
    # marginal(ones) + marginal(1 - d^2) = 1.5 ln 10 + 0.5 ln(267.3)
    assert math.isclose(got, 3.4538776394910685 + 2.7941858115724366, rel_tol=1e-12)
    assert math.isclose(got, gw.joint_rdf(D3, 0.3, 0.3).rate, rel_tol=1e-12)


@given(d_vectors, st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_gray_bound_never_exceeds_joint(d, f1, f2):
    delta1 = f1 * gw.dw_bound(d) + 1e-3
    delta2 = f2 * gw.dw_bound(d) + 1e-3
    joint = gw.joint_rdf(d, delta1, delta2).rate
    assert joint >= gw.gray_lower_bound(d, delta1, delta2) - 1e-9


def test_sum_rate_identity_inside_region():
    assert gw.sum_rate_identity_check(D3, 0.3, 0.3) < 1e-10
    assert gw.sum_rate_identity_check(D3, 0.55, 0.12) < 1e-10


def test_sum_rate_identity_outside_raises_with_bound():
    with pytest.raises(gw.OutsideDW) as exc:
        gw.sum_rate_identity_check(D3, 0.7, 0.3)
    assert math.isclose(exc.value.bound, 0.6, rel_tol=1e-9)


def test_switch_point_continuity():
    v = np.array([3.0, 2.0, 1.0, 0.5])
    # exact budgets where the active set changes: level hits each variance
    svals = np.sort(v)
    for k, lam in enumerate(svals):
        delta = float(np.minimum(v, lam).sum())
        lo = gw.marginal_rdf(v, delta - 1e-8).rate
        hi = gw.marginal_rdf(v, delta + 1e-8).rate
        assert abs(lo - hi) < 1e-6


def test_waterfill_ties_stay_saturated():
    # level 0.5 equals the two smaller variances: they stay saturated
    res = gw.marginal_rdf([0.5, 2.0, 0.5], 1.5)
    assert res.water_level == 0.5
    assert list(res.active_set) == [1]
    np.testing.assert_array_equal(res.alloc, [0.5, 0.5, 0.5])
    assert math.isclose(res.rate, 0.5 * math.log(4.0), rel_tol=1e-15)


def test_waterfill_budget_is_exact(rng):
    for _ in range(200):
        v = rng.uniform(0.0, 3.0, int(rng.integers(1, 40))) ** 2
        delta = rng.uniform(1e-6, 1.0) * float(v.sum())
        res = gw.marginal_rdf(v, delta)
        assert abs(res.alloc.sum() - delta) <= 1e-13 * delta
        # the rate is the sum over active components of 0.5 log(v / level)
        act = v > res.water_level
        np.testing.assert_array_equal(np.flatnonzero(act), res.active_set)
        assert math.isclose(
            res.rate, float(np.sum(0.5 * np.log(v[act] / res.water_level))), rel_tol=1e-13
        )


def test_waterfill_empty_spectrum():
    res = gw.marginal_rdf(np.zeros(0), 0.3)
    assert res.rate == 0.0
    assert res.alloc.shape == (0,) and res.active_set.shape == (0,)
    assert gw.conditional_rdf(np.zeros(0), np.zeros(0), 1, 0.3).rate == 0.0


# ---------------------------------------------------------------- dual solve

# outside D_W; the last one is cap-coupled, where the dual has a valley
DUAL_CASES = [
    ((0.8, 0.5, 0.1), 2.0, 0.5),
    ((0.95, 0.9, 0.3), 0.3, 4.0),
    ((0.99, 0.2), 10.0, 10.0),
    ((0.84, 0.79, 0.64), 1.5, 1.5),
]


def _grid_joint_rate(d, delta_grid, delta_fill, points=101, zooms=7):
    """Least rate over allocations by a refined grid, independent of rdf.

    The grid branch spends its whole budget: its first n - 1 allocations are
    gridded and the last takes the remainder.  The other branch is then a
    water-fill under the per-component ceilings 1 - d^2 / (1 - a) that the
    caps leave, solved by bisection on the level.  Each refinement centres a
    box four cells wide on the best point.
    """
    c = d * d
    top = 1.0 - c
    center = half = top[:-1] / 2.0
    best = math.inf
    for _ in range(zooms + 1):
        axes = [np.linspace(m - h, m + h, points) for m, h in zip(center, half)]
        a = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        a = np.hstack([a, delta_grid - a.sum(axis=1, keepdims=True)])
        a = a[np.all((a > 0.0) & (a < top), axis=1)]
        ceil = 1.0 - c / (1.0 - a)
        lo, hi = np.zeros(len(a)), ceil.max(axis=1)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            over = np.minimum(ceil, mid[:, None]).sum(axis=1) > delta_fill
            lo, hi = np.where(over, lo, mid), np.where(over, mid, hi)
        b = np.minimum(ceil, lo[:, None])
        rate = 0.5 * np.sum(np.log1p(-c) - np.log(a) - np.log(b), axis=1)
        i = int(np.argmin(rate))
        best = min(best, float(rate[i]))
        center, half = a[i, :-1], half * 4.0 / (points - 1)
    return best


@pytest.mark.parametrize(
    "d, share1, share2, grid_branch",
    [(d, s1, s2, 1) for d, s1, s2 in DUAL_CASES]
    # branch 1 slack (delta1 = 2 >= sum(1 - d)), so its multiplier is 0
    # and only delta2 binds
    + [((0.9, 0.6), 10.0, 0.75, 2)],
)
def test_joint_outside_region_matches_a_grid(d, share1, share2, grid_branch):
    d = np.array(d)
    b = gw.dw_bound(d)
    delta1, delta2 = share1 * b, share2 * b
    res = gw.joint_rdf(d, delta1, delta2)
    if grid_branch == 1:
        best = _grid_joint_rate(d, delta1, delta2)
    else:
        best = _grid_joint_rate(d, delta2, delta1)
        assert res.alloc1.sum() < delta1 - 0.1
    assert math.isclose(res.rate, best, rel_tol=1e-9)
    # no feasible grid point does better
    assert best >= res.rate - 1e-12 * (1.0 + res.rate)
    assert res.alloc1.sum() <= delta1 * (1.0 + 1e-12)
    assert res.alloc2.sum() <= delta2 * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "d, share1, share2, lam2_outer",
    [(d, s1, s2, False) for d, s1, s2 in DUAL_CASES[:-1]]
    # the cap-coupled case nests the reference the other way round
    + [(*DUAL_CASES[-1], True)],
)
def test_brentq_matches_scipy_on_budget_equations(d, share1, share2, lam2_outer):
    # a reference solve of the budget equations sum(a(lam)) = delta by
    # scipy's brentq, nested: the inner search meets one budget for a fixed
    # multiplier of the other (at 0 where that budget is slack), the outer
    # search meets the other budget.  The Newton solve must land on its root.
    optimize = pytest.importorskip("scipy.optimize")
    d = np.array(d)
    b = gw.dw_bound(d)
    delta = (share1 * b, share2 * b)
    outer, inner = (1, 0) if lam2_outer else (0, 1)

    def alloc(lam_outer, lam_inner):
        lam = [0.0, 0.0]
        lam[outer], lam[inner] = lam_outer, lam_inner
        return rdf._lagrangian_alloc(d, *lam)

    def solve_inner(lam_outer):
        def excess(lam_inner):
            return alloc(lam_outer, lam_inner)[inner].sum() - delta[inner]

        if excess(1e-9) <= 0.0:
            return 0.0
        return optimize.brentq(excess, 1e-9, 1e9, xtol=1e-15, rtol=1e-15, maxiter=500)

    def outer_excess(lam_outer):
        return alloc(lam_outer, solve_inner(lam_outer))[outer].sum() - delta[outer]

    lam_outer = optimize.brentq(outer_excess, 1e-9, 1e9, xtol=1e-15, rtol=1e-15, maxiter=500)
    a1, a2, _ = alloc(lam_outer, solve_inner(lam_outer))
    ref = 0.5 * float(np.sum(np.log1p(-d * d)) - np.sum(np.log(a1 * a2)))
    res = gw.joint_rdf(d, *delta)
    assert res.regime == "numerical"
    assert math.isclose(res.rate, ref, rel_tol=1e-12)
    np.testing.assert_allclose(res.alloc1, a1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.alloc2, a2, rtol=0, atol=1e-12)


def test_dual_hessian_matches_finite_differences(rng):
    # the Hessian is minus the Jacobian of the allocation sums in (lam1, lam2)
    for _ in range(100):
        d = np.append(rng.uniform(0.05, 0.99, int(rng.integers(1, 5))), 0.0)
        lam = 10.0 ** rng.uniform(0.2, 2.0, 2)
        hess = rdf._lagrangian_alloc(d, *lam)[2]
        jac = np.empty((2, 2))
        for k in range(2):
            step = np.zeros(2)
            step[k] = 1e-6 * lam[k]
            up = rdf._lagrangian_alloc(d, *(lam + step))
            down = rdf._lagrangian_alloc(d, *(lam - step))
            jac[:, k] = [(up[i].sum() - down[i].sum()) / (2.0 * step[k]) for i in (0, 1)]
        np.testing.assert_allclose(hess, -jac, rtol=0, atol=1e-4 * np.abs(hess).max())


def _count_dual_evaluations(monkeypatch):
    calls = []
    inner = rdf._lagrangian_alloc

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(rdf, "_lagrangian_alloc", counted)
    return calls


@pytest.mark.parametrize("d, share1, share2", DUAL_CASES)
def test_joint_dual_solve_takes_few_evaluations(monkeypatch, d, share1, share2):
    # a deterministic stand-in for a timing assert: each evaluation is one
    # batched cap solve; alternating Brent line searches needed 80-231 here
    calls = _count_dual_evaluations(monkeypatch)
    d = np.array(d)
    b = gw.dw_bound(d)
    res = gw.joint_rdf(d, share1 * b, share2 * b)
    assert res.regime == "numerical"
    assert 0 < res.iterations < len(calls) <= 40


def test_joint_reports_newton_iterations():
    assert gw.joint_rdf(D3, 0.3, 0.3).iterations == 0
    assert gw.joint_rdf(np.zeros(0), 1.0, 1.0).iterations == 0
    # the dual solve starts at the equal-split multipliers n / delta, which
    # are already optimal inside D_W
    assert gw.joint_rdf(D3, 0.3, 0.3, force_numerical=True).iterations == 0
    assert gw.joint_rdf(D3, 1.2, 0.3).iterations > 0


# ---------------------------------------------------------------- cap solve


def test_capped_pairs_beat_a_dense_grid(rng):
    # each capped component maximizes phi on its cap curve; a log-spaced
    # grid over the whole interval (c, 1) never does better
    s = np.concatenate(
        [np.logspace(-16, -1, 3000), np.linspace(0.1, 0.9, 3000), 1.0 - np.logspace(-1, -16, 3000)]
    )
    checked = 0
    while checked < 60:
        c = np.array([1.0 - 10.0 ** rng.uniform(-7, -0.01)])
        lam1, lam2 = 10.0 ** rng.uniform(-3, 7, size=2)
        f1, f2 = 1.0 / lam1, 1.0 / lam2
        if f1 < 1.0 and f2 < 1.0 and (1.0 - f1) * (1.0 - f2) >= c[0]:
            continue  # free optimum inside the cap set
        a1, a2 = rdf._capped_pairs(c, lam1, lam2)
        assert math.isclose((1.0 - a1[0]) * (1.0 - a2[0]), c[0], rel_tol=1e-13)
        g1 = (1.0 - c[0]) * (1.0 - s)
        g2 = (1.0 - c[0]) * s / (c[0] + (1.0 - c[0]) * s)
        grid = np.log(g1) + np.log(g2) - lam1 * g1 - lam2 * g2
        best = math.log(a1[0]) + math.log(a2[0]) - lam1 * a1[0] - lam2 * a2[0]
        assert best >= grid.max() - 1e-12 * (1.0 + abs(best))
        checked += 1


def _demo_random_d(p1: int, p2: int, seed: int) -> np.ndarray:
    # canonical coefficients of `gwgauss demo-random --p1 p1 --p2 p2 --seed seed`
    factor = np.random.default_rng(seed).standard_normal((p1 + p2, p1 + p2))
    q = factor @ factor.T + 1e-9 * np.eye(p1 + p2)
    return gw.decompose(gw.JointGaussianPair.from_joint(q, p1)).d


@pytest.mark.parametrize(
    "p, seed, share1, share2", [(8, 810850621, 0.2, 3.0), (32, 1190804277, 3.0, 0.2)]
)
def test_joint_keeps_budgets_with_a_near_unit_coefficient(monkeypatch, p, seed, share1, share2):
    # d_max is within ~1.1e-6 of 1, so the cap interval of that component
    # is ~2e-6 wide; companion-matrix roots once jittered there and the
    # budgets were overshot by 1.6e-5 and 3.9e-6 relative
    d = _demo_random_d(p, p, seed)
    assert 1.0 - d.max() < 2e-6
    b = gw.dw_bound(d)
    delta1, delta2 = share1 * b, share2 * b
    calls = _count_dual_evaluations(monkeypatch)
    res = gw.joint_rdf(d, delta1, delta2)
    assert len(calls) <= 40  # alternating Brent line searches needed 108 and 66
    a1, a2 = res.alloc1, res.alloc2
    assert res.regime == "numerical"
    assert a1.sum() <= delta1 * (1.0 + 1e-9)
    assert a2.sum() <= delta2 * (1.0 + 1e-9)
    assert np.all((1.0 - a1) * (1.0 - a2) >= d * d - 1e-12)
    assert res.rate >= gw.gray_lower_bound(d, delta1, delta2)
    # the dual bound closes the rate; test_joint_certificates_match_a_brute_force_dual
    # checks that bound against a grid
    assert res.budget_residual <= 1e-11
    assert abs(res.dual_gap) <= 1e-9 * (1.0 + res.rate)


# ---------------------------------------------------------------- certificates

# pairs the `joint` benchmark workload drew on two of its seeds: demo-random
# 4 + 3 at delta1 = delta2 = b + 0.2 n.  For lam1 = lam2 below ~1.2 every
# component sits at its symmetric cap point, so the dual is linear there,
# and a line search on the residual norm stopped on that stretch 17 % and
# 4 % over budget.
FLAT_DUAL_PAIRS = [(1201795020, 0.61262694280), (1999631076, 0.7946959491063691)]

# coefficients within 1e-8 of 1, at delta = (93.45, 1.78e-3) b
NEAR_UNIT_CASES = [(1.0 - 1e-9,), (1.0 - 1e-8, 0.999)]


@pytest.mark.parametrize("seed, delta", FLAT_DUAL_PAIRS)
def test_joint_keeps_budgets_on_a_flat_dual(seed, delta):
    d = _demo_random_d(4, 3, seed)
    res = gw.joint_rdf(d, delta, delta)
    assert res.regime == "numerical"
    assert res.alloc1.sum() <= delta * (1.0 + 1e-11)
    assert res.alloc2.sum() <= delta * (1.0 + 1e-11)
    assert math.isclose(res.rate, _grid_joint_rate(d, delta, delta), rel_tol=1e-9)


def test_joint_keeps_budgets_on_near_symmetric_pairs(rng):
    # delta1 = delta2 (or within 1e-6 of it) between b and sum(1 - d):
    # the plateau where both multipliers are small and equal lies on the
    # way from the equal-split start
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            d = rng.uniform(0.0, 1.0, n)
        else:
            d = 1.0 - 10.0 ** rng.uniform(-7.0, 0.0, n)
        b, top = gw.dw_bound(d), float(np.sum(1.0 - d))
        if top <= b * (1.0 + 1e-9):
            continue
        delta1 = rng.uniform(b, top)
        delta2 = delta1 * rng.choice([1.0, 1.0 + 1e-6, 1.0 - 1e-6])
        res = gw.joint_rdf(d, delta1, delta2)
        assert res.budget_residual <= 1e-11, (d.tolist(), delta1, delta2)
        checked += 1


@pytest.mark.parametrize("d", NEAR_UNIT_CASES)
def test_joint_keeps_budgets_with_coefficients_near_one(d):
    # the cap solve iterated on 1 - a1, which lost a1's relative precision
    # once the cap interval (0, 1 - d^2) was ~1e-9 wide: budgets were
    # overshot by 1.2e-5 and 1.5e-6 relative
    d = np.array(d)
    b = gw.dw_bound(d)
    delta1, delta2 = 93.45 * b, 1.78e-3 * b
    res = gw.joint_rdf(d, delta1, delta2)
    assert res.budget_residual <= 1e-9
    assert res.rate >= gw.gray_lower_bound(d, delta1, delta2)


def test_closed_form_certificates():
    res = gw.joint_rdf(D3, 0.3, 0.2)
    np.testing.assert_allclose(res.multipliers, [10.0, 15.0], rtol=1e-15)
    assert abs(res.budget_residual) <= 1e-15
    assert abs(res.dual_gap) <= 1e-14
    # the dual solve started at n / delta stays there inside D_W
    forced = gw.joint_rdf(D3, 0.3, 0.2, force_numerical=True)
    np.testing.assert_array_equal(forced.multipliers, res.multipliers)
    empty = gw.joint_rdf(np.zeros(0), 1.0, 1.0)
    assert empty.dual_gap == 0.0 and empty.multipliers.tolist() == [0.0, 0.0]


def _lagrangian_sup(d, lam, delta):
    """sup over allocations of sum(log a1 + log a2) - lam . (sum(a) - delta),
    by brute force and independent of rdf.

    Per component (d > 0) the supremum is at the free point (1/lam1, 1/lam2)
    when that point keeps the cap, and otherwise on the cap curve
    (1 - a1)(1 - a2) = d^2.  The curve is gridded by s in (0, 1) as
    a1 = (1 - c)(1 - s), a2 = (1 - c) s / (c + (1 - c) s), log-spaced at both
    ends, and the grid is refined five times around its best point.
    """
    c = (d * d)[:, None]
    s = np.concatenate(
        [np.logspace(-16, -1, 3000), np.linspace(0.1, 0.9, 3000), 1.0 - np.logspace(-1, -16, 3000)]
    )

    def value(s):
        a1 = (1.0 - c) * (1.0 - s)
        a2 = (1.0 - c) * s / (c + (1.0 - c) * s)
        return np.log(a1) + np.log(a2) - lam[0] * a1 - lam[1] * a2

    s = np.broadcast_to(s, (d.size, s.size))
    for _ in range(6):
        v = value(s)
        i = np.argmax(v, axis=1)
        rows = np.arange(d.size)
        lo = s[rows, np.maximum(i - 1, 0)]
        hi = s[rows, np.minimum(i + 1, s.shape[1] - 1)]
        best = v[rows, i]
        s = np.linspace(lo, hi, 201, axis=1)
    if np.all(lam > 0.0):
        f1, f2 = 1.0 / lam
        if f1 < 1.0 and f2 < 1.0:
            free = math.log(f1) + math.log(f2) - 2.0
            best = np.where(d * d <= (1.0 - f1) * (1.0 - f2), free, best)
    return float(np.sum(best) + lam @ delta)


def _certificate_cases():
    for d, s1, s2 in DUAL_CASES:
        b = gw.dw_bound(d)
        yield f"dual-{d}", np.array(d), s1 * b, s2 * b
    for seed, delta in FLAT_DUAL_PAIRS:
        yield f"flat-{seed}", _demo_random_d(4, 3, seed), delta, delta
    for p, seed, s1, s2 in [(8, 810850621, 0.2, 3.0), (32, 1190804277, 3.0, 0.2)]:
        d = _demo_random_d(p, p, seed)
        b = gw.dw_bound(d)
        yield f"demo-{p}", d, s1 * b, s2 * b
    for d in NEAR_UNIT_CASES:
        b = gw.dw_bound(d)
        yield f"unit-{d}", np.array(d), 93.45 * b, 1.78e-3 * b


@pytest.mark.parametrize("case", list(_certificate_cases()), ids=lambda case: case[0])
def test_joint_certificates_match_a_brute_force_dual(case):
    _, d, delta1, delta2 = case
    res = gw.joint_rdf(d, delta1, delta2)
    assert res.budget_residual <= 1e-11
    assert abs(res.dual_gap) <= 1e-9 * (1.0 + res.rate)
    # the dual value the result implies, against a grid at its multipliers:
    # no grid point beats the solver's allocation beyond rounding (seen at
    # <= 4e-16 relative), and the grid comes close
    g = float(np.sum(np.log1p(-d * d))) - 2.0 * (res.rate - res.dual_gap)
    sup = _lagrangian_sup(d, res.multipliers, np.array([delta1, delta2]))
    assert sup <= g + 1e-14 * (1.0 + abs(g))
    assert g - sup <= 1e-9 * (1.0 + abs(g))
