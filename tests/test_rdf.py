import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss import rdf

import reference

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
    with pytest.raises(gw.NotPositiveDefinite):
        gw.marginal_rdf([-1.0], 0.5)
    with pytest.raises(gw.NotPositiveDefinite):
        gw.marginal_rdf([1.0, math.nan], 0.5)


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
    numeric = rdf._joint_numerical(d, delta1, delta2)
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
    # beyond D_W a budget of 2 or more leaves both components at a = 1.  At
    # budget ratios of 2e7 a start that capped a d = 0 component at the cap
    # point of the ray a2 = rho a1 instead of at 1 ended at rate 0, with a
    # budget broken 39-fold
    for delta1, delta2 in [(0.7, 1.1), (0.7, 3.0), (2.5, 3.0), (0.05, 1e6), (1e6, 0.05)]:
        res = gw.joint_rdf(np.zeros(2), delta1, delta2)
        want = sum(gw.marginal_rdf(np.ones(2), delta).rate for delta in (delta1, delta2))
        assert math.isclose(res.rate, want, rel_tol=1e-10, abs_tol=1e-15)
        # (2.5, 3.0): both budgets slack, where the dual is flat and a solve
        # that does not start at 0 stays with a gap of 0.5 lam . slack
        assert res.budget_residual <= 1e-12
        assert abs(res.dual_gap) <= 1e-12 * (1.0 + res.rate)


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
    for delta1, delta2 in ((0.3, 0.3), (0.55, 0.12)):
        joint = gw.joint_rdf(D3, delta1, delta2).rate
        assert reference.sum_rate_identity_check(D3, delta1, delta2, joint) < 1e-10


def test_sum_rate_identity_outside_raises_with_bound():
    # the identity's triple, the pangloss point, is defined on the region only
    with pytest.raises(gw.OutsideDW) as exc:
        gw.pangloss_triple(D3, 0.7, 0.3)
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


def test_waterfill_tie_at_an_inexact_level_stays_saturated():
    # 0.4 = 4 * 0.1 exactly, so the first candidate level, 0.4 / 4, is 0.1
    # and the three tied variances stay saturated.  Rejecting that candidate
    # would take 0.4 - (0.1 + 0.1 + 0.1), two ulps below 0.1, as the level
    # and count the ties active
    res = gw.marginal_rdf([0.1, 1.0, 0.1, 0.1], 0.4)
    assert res.water_level == 0.1
    assert list(res.active_set) == [1]
    assert res.rate == 0.5 * math.log(10.0)


def test_waterfill_extreme_variances_are_finite_or_typed():
    # an infinite variance is not a covariance eigenvalue; a ratio v / level
    # that overflows is summed as log v - log level, without a warning
    with pytest.raises(gw.NotPositiveDefinite, match="finite"):
        gw.marginal_rdf([1.0, math.inf], 0.5)
    with pytest.raises(gw.NotPositiveDefinite, match="finite"):
        gw.marginal_rate([math.inf], math.inf)
    with np.errstate(all="raise"):
        res = gw.marginal_rdf([1e308, 1e308], 1.0)
    assert res.water_level == 0.5
    assert math.isclose(res.rate, math.log(2.0) + 308.0 * math.log(10.0), rel_tol=1e-15)
    assert res.rate == gw.marginal_rate([1e308, 1e308], 1.0)


def test_waterfill_takes_one_vector():
    for call in (gw.marginal_rdf, gw.marginal_rate):
        with pytest.raises(gw.DimensionMismatch):
            call([[1.0, 2.0], [3.0, 4.0]], 0.5)
    assert gw.marginal_rate(2.0, 0.5) == gw.marginal_rdf([2.0], 0.5).rate == 0.5 * math.log(4.0)


# spectra with zeros and ties, n = 0..130, over 300 decades; a drawn level
# stays above 1e-153, so the numpy oracle's v / level stays finite
_variances = st.one_of(st.just(0.0), st.floats(1e-150, 1e150))
spectra = st.tuples(st.lists(_variances, max_size=8), st.integers(0, 130)).flatmap(
    lambda drawn: st.lists(st.one_of(_variances, st.sampled_from(drawn[0])) if drawn[0]
                           else _variances, min_size=drawn[1], max_size=drawn[1]))
budgets = st.one_of(st.floats(1e-150, 1e150), st.just(math.inf))


@settings(max_examples=150, deadline=None)
@example([0.1, 1.0, 0.1, 0.1], 0.4, 0.5)
@example([], 1e-150, math.inf)
@given(spectra, budgets, budgets)
def test_waterfill_entry_points_match_an_independent_oracle(values, delta, other):
    v = np.array(values)
    res = gw.marginal_rdf(v, delta)
    # the bisection oracle shares no code; both round the level by up to n
    # eps, which moves each active term by as much
    tol = 1e-13 * (res.rate + v.size)
    assert abs(res.rate - reference._waterfill_rate(v, delta)) <= tol
    assert res.rate == gw.marginal_rate(v, delta)
    # the float scan runs the cumulative sum's arithmetic in its order, so
    # the levels agree bit for bit, apart from a budget within rounding of
    # the sum, which the two sum in different orders
    if not math.isclose(delta, v.sum(), rel_tol=1e-12):
        assert res.water_level == reference.first_fit_level(v, delta)
    assert math.isclose(res.alloc.sum(), min(delta, v.sum()), rel_tol=1e-13)
    np.testing.assert_array_equal(res.alloc, np.minimum(res.water_level, v))
    np.testing.assert_array_equal(res.active_set, np.flatnonzero(v > res.water_level))
    lo, hi = sorted((delta, other))
    assert gw.marginal_rate(v, hi) <= gw.marginal_rate(v, lo) + tol


# coefficients at 0, tiny, in the bulk or within 1e-12 of 1; budgets over
# 600 decades and +inf
_coefficients = st.one_of(st.just(0.0), st.floats(1e-300, 1e-12), st.floats(1e-3, 1.0 - 1e-12))
_wide_budgets = st.one_of(st.floats(1e-300, 1e300), st.just(math.inf))


@settings(max_examples=100, deadline=None)
@example([0.869140625] + [0.0] * 7, 5.960464477539063e-08, math.inf)
@given(st.lists(_coefficients, max_size=8), _wide_budgets, _wide_budgets)
def test_branch_rates_bound_the_joint_rate(values, delta1, delta2):
    # R1 <= Gray's bound <= joint rate, and each branch rate alone is at most
    # the joint rate; R2 <= Gray's bound is not a law (Gray conditions
    # branch 2 on branch 1).  The joint rate holds to its certificate
    # |dual_gap|: at a tiny budget the dual stops at its rounding floor with
    # that budget overspent, and the rate falls below the optimum by ~|gap|
    d = np.array(sorted(values, reverse=True))
    r1, r2 = (gw.marginal_rate(np.ones(d.size), delta) for delta in (delta1, delta2))
    gray = gw.gray_lower_bound(d, delta1, delta2)
    joint = gw.joint_rdf(d, delta1, delta2)
    tol = 1e-12 * (1.0 + joint.rate) + abs(joint.dual_gap)
    assert r1 <= gray
    assert gray <= joint.rate + tol
    assert max(r1, r2) <= joint.rate + tol


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


def _lagrangian_argmax(d, lam):
    """Per-component argmax of log a1 + log a2 - lam . a under the cap
    (1 - a1)(1 - a2) >= d^2, for d > 0, independent of rdf.

    The free point (1/lam1, 1/lam2) when it keeps the cap; otherwise the
    stationary point on the cap curve a2 = (s - a1) / (1 - a1), s = 1 - d^2,
    where the derivative of the objective along the curve runs from +inf
    at a1 = 0 to -inf at a1 = s, found by reference.brent_root.
    """
    a = np.empty((2, d.size))
    for j, c in enumerate(d * d):
        s = 1.0 - c
        if np.all(lam > 1.0) and c <= (1.0 - 1.0 / lam[0]) * (1.0 - 1.0 / lam[1]):
            a[:, j] = 1.0 / lam
            continue

        def slope(a1):
            a2 = (s - a1) / (1.0 - a1)
            return 1.0 / a1 - lam[0] - (1.0 / a2 - lam[1]) * c / (1.0 - a1) ** 2

        a1 = reference.brent_root(slope, 1e-300, s * (1.0 - 1e-15), xtol=1e-300, rtol=1e-15)
        a[:, j] = a1, (s - a1) / (1.0 - a1)
    return a


@pytest.mark.parametrize(
    "d, share1, share2, lam2_outer",
    [(d, s1, s2, False) for d, s1, s2 in DUAL_CASES[:-1]]
    # the cap-coupled case nests the reference the other way round
    + [(*DUAL_CASES[-1], True)],
)
def test_joint_rdf_matches_a_nested_brent_solve_of_the_budget_equations(
        d, share1, share2, lam2_outer):
    # a reference solve of the budget equations sum(a(lam)) = delta by the
    # numpy-only Brent root-finder of tests/reference.py, nested: the inner
    # search meets one budget for a fixed multiplier of the other (at 0
    # where that budget is slack), the outer search meets the other budget.
    # The Newton solve must land on its root.
    d = np.array(d)
    b = gw.dw_bound(d)
    delta = (share1 * b, share2 * b)
    outer, inner = (1, 0) if lam2_outer else (0, 1)

    def alloc(lam_outer, lam_inner):
        lam = np.zeros(2)
        lam[outer], lam[inner] = lam_outer, lam_inner
        return _lagrangian_argmax(d, lam)

    def solve_inner(lam_outer):
        def excess(lam_inner):
            return alloc(lam_outer, lam_inner)[inner].sum() - delta[inner]

        if excess(1e-9) <= 0.0:
            return 0.0
        return reference.brent_root(excess, 1e-9, 1e9, xtol=1e-15, rtol=1e-15)

    def outer_excess(lam_outer):
        return alloc(lam_outer, solve_inner(lam_outer))[outer].sum() - delta[outer]

    lam_outer = reference.brent_root(outer_excess, 1e-9, 1e9, xtol=1e-15, rtol=1e-15)
    a1, a2 = alloc(lam_outer, solve_inner(lam_outer))
    ref = 0.5 * float(np.sum(np.log1p(-d) + np.log1p(d)) - np.sum(np.log(a1 * a2)))
    res = gw.joint_rdf(d, *delta)
    assert res.regime == "numerical"
    assert math.isclose(res.rate, ref, rel_tol=1e-12)
    np.testing.assert_allclose(res.alloc1, a1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.alloc2, a2, rtol=0, atol=1e-12)


def _ci_oracle(monkeypatch, d, alpha):
    # the dual oracle ci_dual hands its Newton solve
    oracles = []

    def grab(oracle, delta, start):
        oracles.append(oracle)
        return start, oracle(start)[4], 0, 1

    monkeypatch.setattr(rdf, "_dual_newton", grab)
    rdf.ci_dual(d, np.ones(2), np.asarray(alpha, dtype=float))
    monkeypatch.undo()
    return oracles[0]


def _hessian_cases(rng):
    for _ in range(100):
        d = np.append(rng.uniform(0.05, 0.99, int(rng.integers(1, 5))), 0.0)
        yield d, 10.0 ** rng.uniform(0.2, 2.0, 2)
    # lam2 > lam1 with lam1 below 1 and a tiny d: the capped a1 runs to 1,
    # where a Hessian built from 1 - a1 came out NaN
    for _ in range(100):
        tiny = 10.0 ** rng.uniform(-9.0, -2.0, int(rng.integers(1, 4)))
        d = np.append(tiny, rng.uniform(0.05, 0.99))
        lam1 = 10.0 ** rng.uniform(-1.0, -0.1)
        yield d, np.array([lam1, lam1 * 10.0 ** rng.uniform(0.5, 3.0)])


def test_dual_hessian_matches_finite_differences(monkeypatch, rng):
    # the Hessian is minus the Jacobian of the allocation sums in the budget
    # multipliers mu = lam / 2, at unit weights (the joint program) and off
    # them, each case with a d = 0 or a tiny d coordinate.  Each evaluation
    # takes a fresh oracle: a reused one warm-starts its roots from the last
    # call, which moves u by a few ulps and the differences with it
    for (d, lam), alpha in itertools.product(_hessian_cases(rng), [(1.0, 1.0), (0.6, 0.9)]):
        def evaluate(mu):
            return _ci_oracle(monkeypatch, d, alpha)(mu)

        mu = lam / 2.0
        hess = evaluate(mu)[0]
        assert np.all(np.isfinite(hess))
        jac = np.empty((2, 2))
        for k in range(2):
            step = np.zeros(2)
            step[k] = 1e-6 * mu[k]
            up = evaluate(mu + step)[4][0].sum(1)
            down = evaluate(mu - step)[4][0].sum(1)
            jac[:, k] = (up - down) / (2.0 * step[k])
        np.testing.assert_allclose(hess, -jac, rtol=0, atol=1e-4 * np.abs(hess).max())


def _count_dual_evaluations(monkeypatch, limit=None):
    # counts the calls of the dual oracle that ci_dual hands its Newton solve
    calls = []
    solve = rdf._dual_newton

    def counted_solve(oracle, delta, start):
        def counted(mu):
            calls.append(mu)
            assert limit is None or len(calls) <= limit, "the dual solve does not end"
            return oracle(mu)

        return solve(counted, delta, start)

    monkeypatch.setattr(rdf, "_dual_newton", counted_solve)
    return calls


@pytest.mark.parametrize("d, share1, share2", DUAL_CASES)
def test_joint_dual_solve_takes_few_evaluations(monkeypatch, d, share1, share2):
    # a deterministic stand-in for a timing assert: each evaluation is one
    # root solve per component; alternating Brent line searches needed
    # 80-231 here
    calls = _count_dual_evaluations(monkeypatch)
    d = np.array(d)
    b = gw.dw_bound(d)
    res = gw.joint_rdf(d, share1 * b, share2 * b)
    assert res.regime == "numerical"
    if share1 == share2:
        # equal budgets: the water-fill start is the optimum
        assert res.iterations == 0 and len(calls) == 1
    else:
        assert 0 < res.iterations < len(calls) <= 8


CROSS_PATH_WEIGHTS = [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.2, 0.9), (0.9, 0.3),
                      (0.6, 0.6)]


def _on_both_paths(monkeypatch, solve):
    # (batch, float): ci_dual's roots as one numpy batch, then one
    # coordinate at a time in Python floats, whatever the size
    out = []
    for coords in (0, 10**6):
        monkeypatch.setattr(rdf, "_FLOAT_COORDS", coords)
        out.append(solve())
    return out


def test_ci_dual_float_and_batch_paths_are_one_oracle(monkeypatch, rng):
    # n from 1 to 40, with d = 0 entries, tiny d and 1 - d down to 1e-9;
    # budgets at dw_bound 10^U(-1, 2.5), one of them +inf in a fifth of
    # the draws.  Where a sweep point's certificate does not close to
    # 1e-12 (1 + |T|) its budget sits at the dual's rounding floor, the two
    # paths' sums round apart there, and each T only lies within its gap of
    # the family minimum.  The state of a component with d below 1e-6 is
    # fixed only to rounding, so log q is compared on the others
    for _ in range(60):
        n = int(rng.integers(1, 41))
        kind = rng.integers(0, 4, n)
        d = np.sort(np.choose(kind, [rng.uniform(0.02, 0.98, n),
                                     1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n),
                                     10.0 ** rng.uniform(-9.0, -2.0, n), np.zeros(n)]))[::-1]
        delta = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.5, 2)
        if rng.random() < 0.2:
            delta[rng.integers(0, 2)] = math.inf
        where = (d.tolist(), delta.tolist())
        batch, floats = _on_both_paths(monkeypatch, lambda: gw.joint_rdf(d, *delta))
        assert (floats.iterations, floats.regime) == (batch.iterations, batch.regime), where
        assert math.isclose(floats.rate, batch.rate, rel_tol=1e-13), where
        ds = d[d > 0.0]
        if ds.size == 0:
            continue
        sweeps = _on_both_paths(monkeypatch, lambda: gw.region_sweep(ds, *delta,
                                                                     alphas=CROSS_PATH_WEIGHTS))
        for b, f in zip(*sweeps):
            at = (*where, b.alpha1, b.alpha2)
            if max(b.gap, f.gap) > 1e-12 * (1.0 + abs(b.objective)):
                assert abs(f.objective - b.objective) <= b.gap + f.gap, at
                continue
            assert f.iterations == b.iterations, at
            assert math.isclose(f.objective, b.objective, rel_tol=1e-13), at
            np.testing.assert_allclose(np.log(f.q[ds >= 1e-6]), np.log(b.q[ds >= 1e-6]),
                                       rtol=0, atol=1e-13, err_msg=str(at))


def _waterfill_level(ceilings, delta):
    # the level x with sum(min(x, ceilings)) = delta, by bisection
    lo, hi = 0.0, float(np.max(ceilings))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.minimum(mid, ceilings).sum() < delta else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "d, share",
    [((0.9, 0.4, 0.0), 0.5), ((0.7, 0.0, 0.0, 0.2), 0.9), ((1.0 - 1e-9, 0.999, 0.5), 0.3)],
)
def test_joint_equal_budgets_outside_region_water_fill_one_minus_d(d, share):
    # at delta1 = delta2 the restricted optimum is symmetric, and on the
    # diagonal the cap reads a <= 1 - d: both branches water-fill delta
    # over 1 - d
    d = np.array(d)
    b, top = gw.dw_bound(d), float(np.sum(1.0 - d))
    delta = b + share * (top - b)
    ceil = 1.0 - d
    level = _waterfill_level(ceil, delta)
    want = np.minimum(level, ceil)
    res = gw.joint_rdf(d, delta, delta)
    assert res.regime == "numerical"
    np.testing.assert_allclose(res.alloc1, want, rtol=1e-12)
    np.testing.assert_allclose(res.alloc2, want, rtol=1e-12)
    rate = 0.5 * float(np.sum(np.log1p(-d) + np.log1p(d) - 2.0 * np.log(want)))
    assert math.isclose(res.rate, rate, rel_tol=1e-12)
    assert res.budget_residual <= 1e-12
    assert abs(res.dual_gap) <= 1e-12 * (1.0 + res.rate)


def test_joint_reports_newton_iterations():
    assert gw.joint_rdf(D3, 0.3, 0.3).iterations == 0
    assert gw.joint_rdf(np.zeros(0), 1.0, 1.0).iterations == 0
    # the dual solve starts at 1 / the water levels of the budgets, which
    # inside D_W are the equal-split multipliers n / delta, already optimal
    assert rdf._joint_numerical(D3, 0.3, 0.3).iterations == 0
    assert gw.joint_rdf(D3, 1.2, 0.3).iterations > 0


def test_joint_returns_at_extreme_budget_ratios(monkeypatch):
    # the line search once halved t = 0 without bound under its Armijo test
    # and ran 636 350 dual evaluations in 60 s here without returning
    _count_dual_evaluations(monkeypatch, limit=1000)
    start = time.perf_counter()
    res = gw.joint_rdf(D3, 1e-150, 1e150)
    assert time.perf_counter() - start < 1.0
    assert res.budget_residual <= 1e-11
    assert abs(res.dual_gap) <= 1e-9 * (1.0 + res.rate)
    # the start's (1 + rho)^2 once overflowed past rho = 1e154, a bare
    # OverflowError in one order of the budgets and a rate in the other
    d = np.array([0.946, 0.590, 0.332])
    for small, large in ((1e-300, 1e300), (1e-200, 1e200), (1e-300, 1.7e308)):
        res, swapped = gw.joint_rdf(d, small, large), gw.joint_rdf(d, large, small)
        assert math.isclose(res.rate, swapped.rate, rel_tol=1e-14)
        for r in (res, swapped):
            values = [r.rate, r.budget_residual, r.dual_gap, *r.multipliers, *r.alloc1, *r.alloc2]
            assert all(map(math.isfinite, values)), (small, large)
            assert r.budget_residual <= 1e-11
    assert gw.joint_rdf(d, 1e-300, 1e300).rate == pytest.approx(1037.8112102803227, rel=1e-14)
    # a budget whose share per component is below the smallest normal float
    # once gave an infinite rate or multipliers; now it is refused, and one
    # just above that floor solves to finite numbers
    tiny = np.finfo(float).tiny
    for small in (1e-320, 5e-324, 1e-308, 2.9 * tiny):
        for pair in ((small, 0.3), (0.3, small), (small, math.inf), (small, small)):
            with pytest.raises(gw.NonpositiveDistortion):
                gw.joint_rdf(d, *pair)
    for pair in ((3.0 * tiny, 0.3), (math.inf, 3.0 * tiny), (3.0 * tiny, 1e300)):
        r = gw.joint_rdf(d, *pair)
        values = [r.rate, r.budget_residual, r.dual_gap, *r.multipliers, *r.alloc1, *r.alloc2]
        assert all(map(math.isfinite, values)), pair


def test_dual_line_search_halvings_are_bounded():
    # a step so long that its reach underflows to t = 0: every trial clamps
    # both multipliers at 0, and the dual value there never passes the
    # Armijo test; halving t = 0 once went on without end
    delta = np.array([1e150, 1e150])
    start = np.array([1e-100, 1e-100])
    calls = []

    def oracle(lam):
        calls.append(lam)
        assert len(calls) <= 1000, "the line search does not end"
        g = 0.0 if np.array_equal(lam, start) else 1.0
        return 1e-100 * np.eye(2), g, np.ones(2), np.zeros(2), lam

    lam, state, steps, evals = rdf._dual_newton(oracle, delta, start)
    assert all(np.array_equal(trial, [0.0, 0.0]) for trial in calls[1:])
    assert evals == len(calls) == 1 + rdf._LINE_STEPS
    assert steps == 0 and lam is start


def _quadratic_oracle(hess, target, calls):
    # the dual 0.5 (lam - target)' H (lam - target) over unit budgets: the
    # residual is the gradient, and a slack budget whose multiplier is 0
    # counts as met
    def oracle(lam):
        calls.append(lam.copy())
        grad = hess @ (lam - target)
        res = np.where(lam > 0.0, grad, np.minimum(grad, 0.0))
        return hess, 0.5 * float((lam - target) @ grad), res, np.zeros(2), lam

    return oracle


def test_dual_zero_multiplier_on_a_slack_budget_stays_at_zero():
    # at lam1 = 0 the first budget is slack (gradient 0.7 > 0), so its
    # residual reads 0; the coupled Newton step would raise lam1, but lam1
    # stays at 0 and lam2 takes the 1-d step to the constrained optimum 0.9
    calls = []
    hess = np.array([[1.0, 0.5], [0.5, 1.0]])
    oracle = _quadratic_oracle(hess, np.array([-0.2, 1.0]), calls)
    lam, _, steps, evals = rdf._dual_newton(oracle, np.ones(2), np.array([0.0, 2.0]))
    assert all(trial[0] == 0.0 for trial in calls)
    assert steps == 1 and evals == len(calls) == 2
    assert lam[0] == 0.0 and abs(lam[1] - 0.9) <= 1e-12


def test_dual_step_that_reaches_a_multiplier_clamps_it_at_zero():
    # the Newton step 1.6 / (1 + 1e-14) overshoots lam1 = 0.9, so t stops at
    # its reach 0.9 / step, where 0.9 - t * step rounds to 1.1e-16, not 0;
    # the trial sets lam1 to exactly 0, where the budget is slack and met
    calls = []
    oracle = _quadratic_oracle(np.eye(2), np.array([-0.7, 1.0]), calls)
    lam, _, steps, evals = rdf._dual_newton(oracle, np.ones(2), np.array([0.9, 1.0]))
    assert calls[1][0] == 0.0 and calls[1][1] == 1.0
    assert steps == 1 and evals == 2
    assert lam.tolist() == [0.0, 1.0]


def test_dual_zero_hessian_exits_at_the_start():
    # no multiplier moves the budget sums (ridge == 0): one evaluation, no step
    calls = []

    def oracle(lam):
        calls.append(lam)
        return np.zeros((2, 2)), 0.0, np.array([0.5, -0.5]), np.zeros(2), lam

    start = np.array([0.3, 0.4])
    lam, state, steps, evals = rdf._dual_newton(oracle, np.ones(2), start)
    assert steps == 0 and evals == len(calls) == 1
    assert lam is start and state is start


def test_dual_underflowed_determinant_takes_per_multiplier_steps():
    # a quadratic dual with Hessian 1e-170 [[2, 1], [1, 2]] and its minimum
    # at (2, 3): h11 h22 - h12^2 underflows to 0, where the 2 x 2 step once
    # divided by zero.  Each multiplier takes its own Newton step instead,
    # and the residuals, relative to budgets of 1e-170, still close
    scale, target = 1e-170, np.array([2.0, 3.0])
    hess = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    assert hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2 == 0.0

    def oracle(lam):
        dev = lam - target
        grad = hess @ dev
        return hess.tolist(), float(0.5 * dev @ grad), (grad / scale).tolist(), (0.0, 0.0), lam

    lam, _, steps, _ = rdf._dual_newton(oracle, np.full(2, scale), np.ones(2))
    assert 0 < steps < rdf._NEWTON_STEPS
    np.testing.assert_allclose(lam, target, rtol=1e-12)


# ---------------------------------------------------------------- cap


def test_joint_capped_allocations_sit_on_the_exact_cap():
    # a capped component meets a1 + a2 - a1 a2 = 1 - d^2 to a few eps of the
    # exact 1 - d^2, checked in 50 digits; a cap solved on the rounded d * d
    # is off by up to 3.7e-9 relative with 1 - d in [1e-9, 1e-6]
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    capped = 0
    with mp.workdps(50):
        while capped < 200:
            n = int(rng.integers(1, 5))
            d = np.sort(1.0 - 10.0 ** rng.uniform(-9.0, -6.0, n))[::-1]
            delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.0, 2)
            if gw.in_dw(d, delta1, delta2):
                continue
            res = gw.joint_rdf(d, delta1, delta2)
            for x, a1, a2 in zip(d, res.alloc1, res.alloc2):
                a1, a2, cap = mp.mpf(a1), mp.mpf(a2), 1 - mp.mpf(x) ** 2
                excess = (a1 + a2 - a1 * a2 - cap) / cap
                assert excess <= 4 * np.finfo(float).eps, (d.tolist(), delta1, delta2)
                capped += abs(excess) <= 1e-6


def test_joint_tiny_coefficients_stay_on_the_cap():
    # beside one d in [0.05, 0.99], components with d in [1e-12, 1e-7],
    # where 1 - d^2 rounds to 1: the larger allocation of each may reach the
    # cap point 1 - d^2 / (1 - a_other) but not pass it by more than 4 ulps,
    # checked in 50 digits.  A cap root on the rounded 1 - d^2 returned
    # exactly 1.0 there, (1 - a1)(1 - a2) = 0 < d^2, up to 5.8e6 ulps past
    # it on these draws; the form a1 + a2 - a1 a2 rounds that miss away.
    # Cap points within 1e-13 of 1 are skipped
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    drawn = capped = 0
    with mp.workdps(50):
        while drawn < 1500:
            tiny = 10.0 ** rng.uniform(-12.0, -7.0, int(rng.integers(1, 4)))
            d = np.sort(np.append(tiny, rng.uniform(0.05, 0.99)))[::-1]
            delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.5, 2)
            if gw.in_dw(d, delta1, delta2):
                continue
            drawn += 1
            res = gw.joint_rdf(d, delta1, delta2)
            for x, a1, a2 in zip(d, res.alloc1, res.alloc2):
                big, other = max(a1, a2), min(a1, a2)
                off = mp.mpf(x) ** 2 / (1 - mp.mpf(other))
                if off < 1e-13:
                    continue
                past = (mp.mpf(big) - (1 - off)) / np.spacing(big)
                assert past <= 4, (d.tolist(), delta1, delta2)
                capped += past >= -4
    assert capped >= drawn  # a capped component per draw, on average


def test_joint_rate_keeps_branch_swap_and_component_order():
    # laws that need no solver: swapping the branches with their budgets,
    # or permuting the components, leaves the rate as it is; half the draws
    # have 1 - d down to 1e-9, and the budgets lie inside D_W and outside
    rng = np.random.default_rng(41)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            d = rng.uniform(0.02, 0.98, n)
        else:
            d = 1.0 - 10.0 ** rng.uniform(-9.0, -0.05, n)
        d = np.sort(d)[::-1]
        delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.0, 2)
        rate = gw.joint_rdf(d, delta1, delta2).rate
        where = (d.tolist(), delta1, delta2)
        swapped = gw.joint_rdf(d, delta2, delta1).rate
        shuffled = gw.joint_rdf(rng.permutation(d), delta1, delta2).rate
        assert math.isclose(swapped, rate, rel_tol=1e-14), where
        assert math.isclose(shuffled, rate, rel_tol=1e-14), where


def test_exact_rate_closed_forms_lie_between_gray_and_the_restricted_rate(rng):
    # the exact Gaussian joint rate where a closed form gives it
    # (reference.exact_joint_rate): Gray's bound below it, the restricted
    # program of joint_rdf above it, and joint_rdf equal to it on D_W
    d = np.array([0.8])
    # Xiao & Luo (Allerton 2005) at d = 0.8
    assert reference.exact_joint_rate(d, 0.3, 0.3) == pytest.approx(0.7520387, abs=1e-7)
    assert reference.exact_joint_rate(d, 0.5, 0.5) == pytest.approx(0.4054651, abs=1e-7)
    inside = 0
    for k in range(600):
        n = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(0.02, 0.98, n))[::-1]
        if k % 3 == 0:
            delta1 = delta2 = n * 10.0 ** rng.uniform(-2.0, 0.5)
        elif k % 3 == 1:
            delta1 = n * 10.0 ** rng.uniform(-2.0, 0.0)
            delta2 = float(np.sum(1.0 - d * d * (1.0 - delta1 / n))) * 10.0 ** rng.uniform(0.0, 1.0)
            if rng.random() < 0.5:
                delta1, delta2 = delta2, delta1
        else:
            delta1, delta2 = n * 10.0 ** rng.uniform(0.0, 1.0, 2)
        exact = reference.exact_joint_rate(d, delta1, delta2)
        res = gw.joint_rdf(d, delta1, delta2)
        where = (d.tolist(), delta1, delta2)
        assert gw.gray_lower_bound(d, delta1, delta2) <= exact + 1e-13 * exact, where
        assert exact <= res.rate + 1e-13 * res.rate, where
        if res.regime == "closed-form-DW":
            inside += 1
            assert math.isclose(res.rate, exact, rel_tol=1e-13), where
    assert inside >= 20


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
    # a cap solve that iterated on 1 - a1 lost a1's relative precision
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
    forced = rdf._joint_numerical(D3, 0.3, 0.2)
    np.testing.assert_array_equal(forced.multipliers, res.multipliers)
    empty = gw.joint_rdf(np.zeros(0), 1.0, 1.0)
    assert empty.dual_gap == 0.0 and empty.multipliers.tolist() == [0.0, 0.0]


def _lagrangian_sup(d, lam, delta):
    """sup over allocations of sum(log a1 + log a2) - lam . (sum(a) - delta),
    by brute force and independent of rdf.

    Per component (d > 0) the supremum is at the free point (1/lam1, 1/lam2)
    when that point keeps the cap, and otherwise on the cap curve
    (1 - a1)(1 - a2) = d^2.  The curve is gridded by s in (0, 1) as
    a1 = m (1 - s), a2 = m s / (c + m s), with c = d^2 and the exact cap
    m = (1 - d)(1 + d) = a1 + a2 - a1 a2, and with s and 1 - s
    taken from a uniform grid of x = log(s / (1 - s)) on [-740, 740], so
    both allocations reach down to ~1e-320; the grid is refined five times
    around its best point.
    """
    c, m = (d * d)[:, None], ((1.0 - d) * (1.0 + d))[:, None]

    def value(x):
        with np.errstate(over="ignore", divide="ignore"):
            s, r = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
            a1 = m * r
            a2 = m * s / (c + m * s)
            return np.log(a1) + np.log(a2) - lam[0] * a1 - lam[1] * a2

    x = np.broadcast_to(np.linspace(-740.0, 740.0, 9001), (d.size, 9001))
    for _ in range(6):
        v = value(x)
        i = np.argmax(v, axis=1)
        rows = np.arange(d.size)
        lo = x[rows, np.maximum(i - 1, 0)]
        hi = x[rows, np.minimum(i + 1, x.shape[1] - 1)]
        best = v[rows, i]
        x = np.linspace(lo, hi, 201, axis=1)
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
    # multipliers ~1e9 apart, where a ridge of 1e-14 x trace swamped the
    # smaller one's curvature: the rate came out 1.25e-4 above its dual bound
    yield "ridge", np.array([0.999999999, 0.3]), 1e-12, 1e-3
    # lam2 > lam1 with a capped a1 near 1: the Hessian was NaN at the start,
    # and the solve stopped there with 20 % of a budget unspent and gap 1.44
    d = np.array([0.9962424033099652, 0.001333318731158828, 0.00037128869308300505,
                  3.615692523162295e-09])
    yield "orient", d, 6.240502262052035, 0.06782071059064179
    yield "extreme", D3, 1e-150, 1e150


@pytest.mark.parametrize("case", list(_certificate_cases()), ids=lambda case: case[0])
def test_joint_certificates_match_a_brute_force_dual(case):
    _, d, delta1, delta2 = case
    res = gw.joint_rdf(d, delta1, delta2)
    assert res.budget_residual <= 1e-11
    assert abs(res.dual_gap) <= 1e-9 * (1.0 + res.rate)
    # the dual value the result implies, against a grid at its multipliers:
    # no grid point beats the solver's allocation beyond rounding (seen at
    # <= 4e-16 relative), and the grid comes close
    g = float(np.sum(np.log1p(-d) + np.log1p(d))) - 2.0 * (res.rate - res.dual_gap)
    sup = _lagrangian_sup(d, res.multipliers, np.array([delta1, delta2]))
    assert sup <= g + 1e-14 * (1.0 + abs(g))
    assert g - sup <= 1e-9 * (1.0 + abs(g))
