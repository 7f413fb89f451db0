"""Every public entry point that takes canonical coefficients d or a
distortion budget delta rejects a bad one with its typed error, and every
one that takes a family state rejects a state whose size differs from d's
with :class:`DimensionMismatch`.

Coefficients of a state family (``wyner.coefficients``) must lie in
[0, 1), canonical coefficients (``gaussmodel.check_canonical_args``) in
(0, 1) and nonincreasing, and budgets (``rdf.require_positive``) must be
positive and leave each component a normal float.  Each guard is
NaN-proof, so a non-finite input raises rather
than turning into a number.  The oracles of ``tests/reference.py`` that
take d or delta are in the tables too: they guard their own premises and
raise ``ValueError``.
"""

import math

import numpy as np
import pytest

import gwgauss as gw

import reference

IDX2 = gw.IndexSextuple(0, 2, 0, 0, 2, 0)
GOOD_D = np.array([0.5, 0.3])
ONES = np.ones(2)

# name -> (call with coefficients d, class a bad d raises)
D_ENTRY_POINTS = {
    "conditional_rdf": (lambda d: gw.conditional_rdf(d, ONES, 1, 0.1), gw.QWOutOfFamily),
    "joint_rdf": (lambda d: gw.joint_rdf(d, 0.1, 0.1), gw.QWOutOfFamily),
    "gray_lower_bound": (lambda d: gw.gray_lower_bound(d, 0.1, 0.1), gw.QWOutOfFamily),
    "sum_rate_identity_check": (lambda d: reference.sum_rate_identity_check(d, 0.1, 0.1, 0.0),
                                ValueError),
    "dw_bound": (gw.dw_bound, gw.QWOutOfFamily),
    "lossy_common_information": (lambda d: gw.lossy_common_information(d, 0.1, 0.1),
                                 gw.QWOutOfFamily),
    "pangloss_triple": (lambda d: gw.pangloss_triple(d, 0.1, 0.1), gw.QWOutOfFamily),
    "region_sweep": (lambda d: gw.region_sweep(d, 0.1, 0.1, alphas=[(1.0, 1.0)]),
                     gw.QWOutOfFamily),
    "mi_given_state": (lambda d: gw.mi_given_state(d, ONES), gw.QWOutOfFamily),
    "mi_given_state dense": (lambda d: gw.mi_given_state(d, [[1.0, 0.01], [0.01, 1.0]]),
                             gw.QWOutOfFamily),
    "assert_in_state_family": (lambda d: gw.assert_in_state_family(np.eye(2), d),
                               gw.QWOutOfFamily),
    "in_state_family": (lambda d: gw.in_state_family(np.eye(2), d), gw.QWOutOfFamily),
    "check_hua_inequality": (lambda d: reference.check_hua_inequality(d, np.eye(2)), ValueError),
    "sample_state_matrix": (lambda d: reference.sample_state_matrix(d, np.random.default_rng(0)),
                            ValueError),
    "dense_state_rates": (lambda d: reference.dense_state_rates(d, np.eye(2), 0.1, 0.1),
                          ValueError),
    "family_realization": (lambda d: gw.family_realization(d, np.eye(2)), gw.QWOutOfFamily),
    "state_triple": (lambda d: gw.state_triple_cov(d, np.eye(2)), gw.QWOutOfFamily),
    "test_channel": (lambda d: gw.test_channel(d, np.eye(2), [0.1, 0.1], [0.1, 0.1]),
                     gw.QWOutOfFamily),
    "common_information": (lambda d: gw.common_information(IDX2, d), gw.InconsistentIndices),
    "mi_canonical": (lambda d: gw.mi_canonical(IDX2, d), gw.InconsistentIndices),
    "optimal_state": (lambda d: gw.optimal_state(IDX2, d), gw.InconsistentIndices),
    "optimal_triple_cov": (lambda d: gw.optimal_triple_cov(IDX2, d), gw.InconsistentIndices),
    "canonical_cross_pattern": (lambda d: gw.canonical_cross_pattern(IDX2, d),
                                gw.InconsistentIndices),
}
BAD_D = [math.nan, math.inf, -math.inf, -0.5, 1.0, 1.2]

# name -> (call with one budget, class a bad budget raises)
DELTA_ENTRY_POINTS = {
    "marginal_rdf": (lambda x: gw.marginal_rdf([1.0, 2.0], x), gw.NonpositiveDistortion),
    "marginal_rate": (lambda x: gw.marginal_rate([1.0, 2.0], x), gw.NonpositiveDistortion),
    "conditional_rdf": (lambda x: gw.conditional_rdf(GOOD_D, ONES, 2, x),
                        gw.NonpositiveDistortion),
    "joint_rdf 1": (lambda x: gw.joint_rdf(GOOD_D, x, 0.1), gw.NonpositiveDistortion),
    "joint_rdf 2": (lambda x: gw.joint_rdf(GOOD_D, 0.1, x), gw.NonpositiveDistortion),
    "gray_lower_bound 1": (lambda x: gw.gray_lower_bound(GOOD_D, x, 0.1),
                           gw.NonpositiveDistortion),
    "gray_lower_bound 2": (lambda x: gw.gray_lower_bound(GOOD_D, 0.1, x),
                           gw.NonpositiveDistortion),
    "sum_rate_identity_check": (lambda x: reference.sum_rate_identity_check(GOOD_D, 0.1, x, 0.0),
                                ValueError),
    "lossy_common_information": (lambda x: gw.lossy_common_information(GOOD_D, x, 0.1),
                                 gw.NonpositiveDistortion),
    "pangloss_triple 1": (lambda x: gw.pangloss_triple(GOOD_D, x, 0.1), gw.NonpositiveDistortion),
    "pangloss_triple 2": (lambda x: gw.pangloss_triple(GOOD_D, 0.1, x), gw.NonpositiveDistortion),
    "region_sweep": (lambda x: gw.region_sweep(GOOD_D, 0.1, x, alphas=[(1.0, 1.0)]),
                     gw.NonpositiveDistortion),
    "dense_state_rates": (lambda x: reference.dense_state_rates(GOOD_D, np.eye(2), 0.1, x),
                          ValueError),
}
BAD_DELTA = [0.0, -0.1, -1.0, math.nan]

# name -> call with a state for the three coefficients STATE_D
STATE_D = np.array([0.8, 0.5, 0.1])
STATE_ENTRY_POINTS = {
    "conditional_rdf": lambda q: gw.conditional_rdf(STATE_D, q, 1, 0.1),
    "mi_given_state": lambda q: gw.mi_given_state(STATE_D, q),
    "assert_in_state_family": lambda q: gw.assert_in_state_family(q, STATE_D),
    "family_realization": lambda q: gw.family_realization(STATE_D, q),
    "state_triple_cov": lambda q: gw.state_triple_cov(STATE_D, q),
    "test_channel": lambda q: gw.test_channel(STATE_D, q, [0.1] * 3, [0.1] * 3),
}
WRONG_SIZE_STATES = {"vector of n - 1": np.ones(2), "scalar": 1.0, "n + 1 square": np.eye(4)}


@pytest.mark.parametrize("bad", BAD_D)
@pytest.mark.parametrize("name", sorted(D_ENTRY_POINTS))
def test_entry_point_rejects_bad_coefficient(name, bad):
    call, cls = D_ENTRY_POINTS[name]
    call(GOOD_D)  # the same call accepts good coefficients
    with pytest.raises(cls):
        call(np.array([0.5, bad]))
    with pytest.raises(cls):
        call(np.array([bad, 0.2]))


@pytest.mark.parametrize("bad", BAD_DELTA)
@pytest.mark.parametrize("name", sorted(DELTA_ENTRY_POINTS))
def test_entry_point_rejects_bad_distortion(name, bad):
    call, cls = DELTA_ENTRY_POINTS[name]
    call(0.1)
    with pytest.raises(cls):
        call(bad)


# the oracles guard only their own premises, positive budgets
ORACLES = {"sum_rate_identity_check", "dense_state_rates"}


@pytest.mark.parametrize("name", sorted(set(DELTA_ENTRY_POINTS) - ORACLES))
def test_entry_point_rejects_a_budget_below_a_normal_float_per_component(name):
    # two components here: the floor is 2 * 2.2e-308
    call, cls = DELTA_ENTRY_POINTS[name]
    call(4.5e-308)
    for tiny in (5e-324, 1e-320, 2.2e-308, 4.4e-308):
        with pytest.raises(cls, match="smallest normal float"):
            call(tiny)


@pytest.mark.parametrize("state", sorted(WRONG_SIZE_STATES))
@pytest.mark.parametrize("name", sorted(STATE_ENTRY_POINTS))
def test_entry_point_rejects_a_state_of_the_wrong_size(name, state):
    call = STATE_ENTRY_POINTS[name]
    call(np.ones(3))  # the same call accepts a state of n coordinates
    with pytest.raises(gw.DimensionMismatch):
        call(WRONG_SIZE_STATES[state])


def test_a_zero_coefficient_is_in_the_family_but_not_in_the_sweep():
    assert gw.joint_rdf([0.5, 0.0], 0.1, 0.1).regime == "closed-form-DW"
    with pytest.raises(gw.QWOutOfFamily):
        gw.region_sweep([0.5, 0.0], 0.1, 0.1)
    with pytest.raises(gw.InconsistentIndices):
        gw.common_information(IDX2, [0.5, 0.0])


def test_canonical_coefficients_must_be_nonincreasing_and_sized():
    for call in (gw.common_information, gw.mi_canonical, gw.optimal_state):
        with pytest.raises(gw.InconsistentIndices, match="nonincreasing"):
            call(IDX2, [0.3, 0.5])
        with pytest.raises(gw.InconsistentIndices, match="p12 = 2"):
            call(IDX2, [0.5])


def test_infinite_budget_is_slack():
    # branch 2 caps a2 = 0.1, so a1 = 1 - d^2 / 0.9 on the cap
    res = gw.joint_rdf([0.5], math.inf, 0.1)
    assert math.isclose(res.rate, 0.5 * math.log(0.75 / (0.1 * (1.0 - 0.25 / 0.9))),
                        rel_tol=1e-12)
    assert res.budget_residual <= 1e-12 and abs(res.dual_gap) <= 1e-12
    # with both budgets slack each component sits at a1 = a2 = 1 - d, and the
    # restricted program's rate is the common information
    d = np.array([0.5, 0.2])
    res = gw.joint_rdf(d, math.inf, math.inf)
    assert math.isclose(res.rate, gw.common_information(IDX2, d).value, rel_tol=1e-12)
    np.testing.assert_allclose(res.alloc1, 1.0 - d, rtol=1e-14)
    assert res.dual_gap == 0.0
    assert gw.marginal_rdf([1.0, 2.0], math.inf).rate == 0.0


def test_infinite_budget_sweep_is_the_slack_budget_sweep():
    # sum(1 - d^2) = 0.75: no allocation exceeds it, and the dual solved
    # there keeps its terms finite, so the certificates are finite too
    slack = gw.region_sweep([0.5], 0.75, 0.1)
    for point, want in zip(gw.region_sweep([0.5], math.inf, 0.1), slack, strict=True):
        assert point.objective == want.objective
        assert point.gap == want.gap and 0.0 < point.gap <= 1.7e-14


def test_infinite_budget_with_no_coefficients_is_any_budget():
    # at n = 0 the slack sum is 0, and nothing is allocated: rate 0, every
    # budget all slack (residual -1) and no gap, whatever the budgets
    for delta1 in (math.inf, 1.0):
        res = gw.joint_rdf([], delta1, 1.0)
        assert (res.rate, res.budget_residual, res.dual_gap) == (0.0, -1.0, 0.0)
        assert res.multipliers.tolist() == [0.0, 0.0] and res.regime == "closed-form-DW"
    assert all(p.objective == 0.0 and p.gap == 0.0 for p in gw.region_sweep([], math.inf, 0.1))


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_pangloss_branch_rates_are_the_identity_state_conditional_rates(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        d = np.sort(rng.uniform(0.01, 0.99, n))[::-1]
        b = gw.dw_bound(d) if n else 1.0
        delta1, delta2 = rng.uniform(0.05, 1.0, 2) * b
        tr = gw.pangloss_triple(d, delta1, delta2)
        assert tr.r1 == gw.conditional_rdf(d, np.ones(n), 1, delta1).rate
        assert tr.r2 == gw.conditional_rdf(d, np.ones(n), 2, delta2).rate
