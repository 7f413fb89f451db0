import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss.wyner import state_family_tolerance

import reference

CORR3 = gw.IndexSextuple(0, 3, 0, 0, 3, 0)
D3 = np.array([0.8, 0.5, 0.1])

d_vectors = st.lists(
    st.floats(0.05, 0.95, allow_nan=False), min_size=1, max_size=6
).map(lambda xs: np.array(sorted(xs, reverse=True)))


def test_common_information_three_coefficients():
    res = gw.common_information(CORR3, D3)
    # 0.5 ln 33, high-precision reference
    assert math.isclose(res.value, 1.7482537807332401, rel_tol=1e-13)
    assert res.case_tag == "correlated"
    np.testing.assert_allclose(
        res.per_coefficient_terms,
        [math.log(3.0), 0.5 * math.log(3.0), 0.5 * math.log(11.0 / 9.0)],
        rtol=1e-13,
    )
    assert math.isclose(
        gw.nats_to(res.value, "paper-example-bits"), 5.044394119358453, rel_tol=1e-13
    )


def test_common_information_identical_present():
    res = gw.common_information(gw.IndexSextuple(2, 2, 2, 2, 2, 1), [0.8, 0.3])
    assert res.value == math.inf
    assert res.case_tag == "identical-present"
    # finite correlated part survives: log2(117/7) in the doubled-bits scale
    assert math.isclose(
        gw.nats_to(res.correlated_part, "paper-example-bits"),
        4.0630097975258004,
        rel_tol=1e-13,
    )


def test_common_information_independent():
    res = gw.common_information(gw.IndexSextuple(0, 0, 2, 0, 0, 1), [])
    assert res.value == 0.0
    assert res.case_tag == "independent"


@given(st.floats(0.01, 0.99))
def test_scalar_common_information_formula(rho):
    res = gw.common_information(gw.IndexSextuple(0, 1, 0, 0, 1, 0), [rho])
    assert math.isclose(res.value, 0.5 * math.log((1 + rho) / (1 - rho)), rel_tol=1e-13)


def test_state_family_membership():
    d = np.array([0.5, 0.2])
    assert gw.in_state_family(np.eye(2), d)
    assert gw.in_state_family(np.diag(d), d)  # lower boundary point
    assert gw.in_state_family(np.diag(1.0 / d), d)  # upper boundary point
    assert not gw.in_state_family(np.diag([0.4, 0.2]), d)
    assert not gw.in_state_family(np.diag([2.2, 1.0]), d)
    assert not gw.in_state_family(np.array([[1.0, 0.1], [0.2, 1.0]]), d)  # asymmetric


def test_assert_in_state_family_raises():
    with pytest.raises(gw.QWOutOfFamily):
        gw.assert_in_state_family(np.array([[0.1]]), np.array([0.5]))


def test_as_state_covariance_shapes():
    np.testing.assert_array_equal(gw.as_state_covariance(1.2), [[1.2]])
    np.testing.assert_array_equal(gw.as_state_covariance([1.0, 2.0]), np.diag([1.0, 2.0]))
    m = np.array([[1.0, 0.1], [0.1, 1.0]])
    np.testing.assert_array_equal(gw.as_state_covariance(m), m)
    with pytest.raises(gw.DimensionMismatch):
        gw.as_state_covariance(np.zeros((2, 3)))


def test_mi_given_state_scalar_value():
    # 0.5 ln(45/14), high-precision reference
    v = gw.mi_given_state(np.array([0.5]), np.array([[1.2]]))
    assert math.isclose(v, 0.5838025800775306, rel_tol=1e-13)


@given(d_vectors)
def test_mi_given_state_at_identity_equals_common_information(d):
    idx = gw.IndexSextuple(0, d.size, 0, 0, d.size, 0)
    c = gw.common_information(idx, d).value
    assert math.isclose(gw.mi_given_state(d, np.eye(d.size)), c, rel_tol=1e-12)


def test_mi_given_state_boundary_is_infinite():
    d = np.array([0.5])
    assert gw.mi_given_state(d, np.diag(d)) == math.inf


def test_mi_given_state_empty():
    assert gw.mi_given_state(np.zeros(0), np.zeros((0, 0))) == 0.0


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_mi_given_state_minimized_at_identity(d, seed):
    rng = np.random.default_rng(seed)
    qw = reference.sample_state_matrix(d, rng)
    c = gw.common_information(gw.IndexSextuple(0, d.size, 0, 0, d.size, 0), d).value
    if np.max(np.abs(qw - np.eye(d.size))) > 1e-6:
        assert gw.mi_given_state(d, qw) > c


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_hua_inequality_on_sampled_states(d, seed):
    rng = np.random.default_rng(seed)
    qw = reference.sample_state_matrix(d, rng)
    chk = reference.check_hua_inequality(d, qw)
    assert chk.holds


def test_hua_inequality_equality_at_identity():
    chk = reference.check_hua_inequality(D3, np.eye(3))
    assert chk.holds and chk.equality
    assert math.isclose(chk.lhs, chk.rhs, rel_tol=1e-12)


def test_hua_identity_residual_small(rng):
    for _ in range(25):
        a = rng.standard_normal((4, 4)) * 0.5
        b = rng.standard_normal((4, 4)) * 0.5
        if np.min(np.abs(np.linalg.eigvalsh(np.eye(4) - b.T @ b))) < 1e-6:
            continue
        assert reference.check_hua_identity(a, b) < 1e-9


def test_hua_identity_rejects_singular_factor():
    b = np.eye(2)  # I - B.T B singular
    with pytest.raises(ValueError):
        reference.check_hua_identity(np.zeros((2, 2)), b)
    with pytest.raises(ValueError):
        reference.check_hua_identity(np.zeros((2, 2)), np.zeros((2, 2)))  # rank deficient


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_sampled_states_lie_in_family(d, seed):
    rng = np.random.default_rng(seed)
    qw = reference.sample_state_matrix(d, rng)
    assert gw.in_state_family(qw, d)


def test_sampled_state_outside_the_family_is_pulled_to_radius_0999():
    # Q is in the family iff -H <= Q - M <= H, M and H the midpoint and
    # half-width of Diag(d) and Diag(d)^{-1}: the eigenvalues of
    # H^{-1} (Q - M) lie in [-1, 1].  A candidate outside is pulled to 0.999
    d = np.array([0.9, 0.3, 0.1])
    mid, half = np.diag(0.5 * (1.0 / d + d)), np.diag(0.5 * (1.0 / d - d))
    radii = []
    for seed in range(20):
        qw = reference.sample_state_matrix(d, np.random.default_rng(seed))
        radii.append(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(half, qw - mid)))))
    pulled = [r for r in radii if r > 0.99]
    assert 0 < len(pulled) < len(radii)  # some candidates are in the family as drawn
    assert max(abs(r - 0.999) for r in pulled) <= 1e-12


def test_dense_family_test_leaves_a_zero_coefficient_open_above():
    q = np.array([[1.0, 0.01], [0.01, 1.0]])
    d = np.array([0.5, 0.0])
    assert gw.in_state_family(q, d)
    assert gw.in_state_family(np.array([[1.0, 0.01], [0.01, 1e6]]), d)
    assert not gw.in_state_family(np.array([[3.0, 0.01], [0.01, 1.0]]), d)
    assert not gw.in_state_family(np.array([[1.0, 0.01], [0.01, 3.0]]), d[::-1])
    assert gw.in_state_family(np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros(2))
    # only the first coordinate is coupled: M1 = Diag(1 - 0.5 / (1 - 1e-4), 1)
    # and M2 = Diag(0.5, 1)
    want = 0.5 * math.log(0.75) - 0.5 * (math.log(1.0 - 0.5 / (1.0 - 1e-4)) + math.log(0.5))
    assert math.isclose(gw.mi_given_state(d, q), want, rel_tol=1e-12)
    assert math.isclose(want, 0.54936, rel_tol=1e-5)


def test_common_information_terms_against_mpmath():
    # 0.5 log((1 + d) / (1 - d)) rounds (1 + d) / (1 - d) near 1 and is off
    # by ~1e-7 relative at d = 1e-9; each term stays within 2 eps
    mp = pytest.importorskip("mpmath")
    d = np.array([1.0 - 1e-6, 0.3, 1e-3, 1e-6, 1e-9])
    terms = gw.common_information(gw.IndexSextuple(0, 5, 0, 0, 5, 0), d).per_coefficient_terms
    with mp.workdps(50):
        for x, got in zip(d, terms):
            want = mp.atanh(mp.mpf(x))
            assert abs(got - want) <= 2 * np.finfo(float).eps * abs(want), x


def test_family_tolerance_scales_with_conditioning():
    loose = state_family_tolerance(np.array([0.9]))
    tight = state_family_tolerance(np.array([0.01]))
    assert tight > loose


def _dense_mi(d, q):
    """``0.5 sum log(1 - d^2) - 0.5 logdet(M1 M2)`` on full matrices."""
    rd = np.diag(np.sqrt(d))
    qw = np.diag(q)
    m1 = np.eye(d.size) - rd @ np.linalg.inv(qw) @ rd
    m2 = np.eye(d.size) - rd @ qw @ rd
    return 0.5 * np.sum(np.log1p(-d) + np.log1p(d)) - 0.5 * (
        np.linalg.slogdet(m1)[1] + np.linalg.slogdet(m2)[1]
    )


def test_mi_given_state_diagonal_matches_dense(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = rng.uniform(0.02, 0.98, n)
        q = np.exp(rng.uniform(0.02, 0.98, n) * np.log(d) * rng.choice([-1.0, 1.0], n))
        dense = _dense_mi(d, q)
        for form in (q, np.diag(q)):
            assert abs(gw.mi_given_state(d, form) - dense) <= 1e-12 * (1.0 + abs(dense))


def test_mi_given_state_diagonal_family_check():
    d = np.array([0.5, 0.2])
    tol = state_family_tolerance(d)
    # on the boundary, either side, within tolerance: infinite information
    assert gw.mi_given_state(d, np.array([0.5, 1.0])) == math.inf
    assert gw.mi_given_state(d, np.array([1.0, 5.0 + 0.5 * tol])) == math.inf
    with pytest.raises(gw.QWOutOfFamily):
        gw.mi_given_state(d, np.array([0.5 - 2.0 * tol, 1.0]))
    with pytest.raises(gw.QWOutOfFamily):
        gw.mi_given_state(d, np.array([1.0, 1.0, 1.0]))
    assert gw.in_state_family(np.array([2.0, 5.0 + 0.5 * tol]), d)
    assert not gw.in_state_family(np.array([2.0, 5.0 + 2.0 * tol]), d)



@pytest.mark.parametrize("gap", [1e-12, 1e-11, 2e-11, 1e-10, 1e-9, 1e-8])
def test_mi_given_state_diagonal_boundary_rule_matches_dense(gap):
    # each factor's top eigenvalue is 0.5, so the dense path's relative floor
    # turns a state singular once the small eigenvalue (~gap) is <= 5e-11
    d = np.array([0.5, 0.5])
    for q in (np.array([0.5 * (1.0 + gap), 1.0]), np.array([1.0, 2.0 * (1.0 - gap)])):
        near = np.diag(q)
        near[0, 1] = near[1, 0] = 1e-300  # not exactly diagonal: dense path
        dense = gw.mi_given_state(d, near)
        for form in (q, np.diag(q)):
            value = gw.mi_given_state(d, form)
            assert (value == math.inf) == (dense == math.inf) == (gap < 5e-11)
            if math.isfinite(dense):
                # the dense eigensolver resolves an eigenvalue ~gap to ~1e-16 absolute
                assert abs(value - dense) <= 1e-5 * abs(dense)


def test_family_tolerance_ignores_zero_coefficients():
    assert state_family_tolerance(np.array([0.0, 0.5])) == state_family_tolerance(np.array([0.5]))
    assert state_family_tolerance(np.zeros(1)) == 1e-10
    assert state_family_tolerance(np.zeros(0)) == 1e-10
    # a zero coefficient leaves its state entry free above, and conditional
    # rates accept it
    res = gw.conditional_rdf(np.array([0.0, 0.5]), np.array([7.0, 1.0]), 2, 0.2)
    assert math.isfinite(res.rate)
