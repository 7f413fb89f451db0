import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss.rdf import _kkt_residual

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
    assert _kkt_residual(d, a1, a2, delta1, delta2) < 1e-6
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
    # zero correlation: the two branches decouple into marginal problems
    res = gw.joint_rdf(np.zeros(2), 0.7, 1.1)
    want = gw.marginal_rdf(np.ones(2), 0.7).rate + gw.marginal_rdf(np.ones(2), 1.1).rate
    assert math.isclose(res.rate, want, rel_tol=1e-10)


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
