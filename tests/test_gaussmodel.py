import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss.gaussmodel import LOG_2PIE, log_one_minus_square, logdet_or_neginf, symmetrize

from conftest import random_pair


def test_validate_covariance_rejects_asymmetry():
    q = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(gw.AsymmetricMatrix):
        gw.validate_covariance(q)


def test_validate_covariance_symmetrizes_roundoff():
    q = np.array([[1.0, 0.3 + 1e-14], [0.3, 1.0]])
    cov = gw.validate_covariance(q)
    assert np.array_equal(cov, cov.T)


def test_blocks_must_be_square():
    pair = gw.JointGaussianPair(np.eye(2), np.eye(3), np.zeros((2, 3)))
    cases = [
        lambda: gw.validate_covariance(np.ones((2, 3))),
        lambda: gw.validate_covariance(np.ones(3)),
        lambda: gw.JointGaussianPair(np.ones((2, 3)), np.eye(3), np.zeros((2, 3))),
        lambda: gw.JointGaussianPair(np.eye(2), np.ones((3, 2)), np.zeros((2, 3))),
        lambda: gw.JointGaussianPair(np.eye(2), np.eye(3), np.zeros((3, 2))),
        lambda: gw.GaussianTriple(pair, np.ones((1, 2)), np.zeros((2, 1)), np.zeros((3, 1))),
        lambda: gw.GaussianTriple(pair, np.eye(1), np.zeros((2, 2)), np.zeros((3, 1))),
        lambda: gw.GaussianTriple(pair, np.eye(1), np.zeros((2, 1)), np.zeros((1, 3))),
    ]
    for case in cases:
        with pytest.raises(gw.DimensionMismatch):
            case()


def test_validate_covariance_strict_rejects_indefinite():
    q = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(gw.NotPositiveDefinite):
        gw.validate_covariance(q, strict=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_covariance_strict_rejects_non_finite(bad):
    q = np.eye(3)
    q[0, 2] = bad
    with pytest.raises(gw.NotPositiveDefinite, match="non-finite"):
        gw.validate_covariance(q, strict=True)
    # the symmetric entry pair: the non-strict check and gaussian_mi, which
    # uses it, reject it before forming Q - Q.T
    q[2, 0] = bad
    with pytest.raises(gw.NotPositiveDefinite, match="non-finite"):
        gw.validate_covariance(q)
    with pytest.raises(gw.NotPositiveDefinite, match="non-finite"):
        gw.gaussian_mi(q, (1, 2))


def test_logdet_of_singular_matrix_is_neginf():
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert logdet_or_neginf(q) == -math.inf


def test_logdet_diagonal():
    assert math.isclose(logdet_or_neginf(np.diag([2.0, 1.0])), math.log(2.0),
                        rel_tol=1e-14)


def test_logdet_empty_is_zero():
    assert logdet_or_neginf(np.zeros((0, 0))) == 0.0


def test_entropy_diagonal():
    # 0.5 ln 2 + ln(2 pi e)
    want = 0.5 * math.log(2.0) + LOG_2PIE
    assert math.isclose(gw.gaussian_entropy(np.diag([2.0, 1.0])), want, rel_tol=1e-14)


def test_mi_scalar_correlation():
    q = np.array([[1.0, 0.5], [0.5, 1.0]])
    # -0.5 ln(1 - rho^2), high-precision reference 0.14384103622589046
    assert math.isclose(gw.gaussian_mi(q, (1, 1)), 0.14384103622589046, rel_tol=1e-13)


def test_mi_singular_joint_is_infinite():
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert gw.gaussian_mi(q, (1, 1)) == math.inf


def test_mi_singular_marginal_raises():
    q = np.zeros((2, 2))
    q[1, 1] = 1.0
    with pytest.raises(gw.NotPositiveDefinite):
        gw.gaussian_mi(q, (1, 1))


def test_mi_independent_blocks_is_zero():
    q = np.diag([2.0, 3.0])
    assert gw.gaussian_mi(q, (1, 1)) == 0.0


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_mi_nonnegative_and_symmetric(p1, p2, seed):
    pair = random_pair(np.random.default_rng(seed), p1, p2)
    q = pair.joint()
    mi = gw.gaussian_mi(q, (p1, p2))
    assert mi >= -1e-12
    swapped = np.block([[pair.q22, pair.q12.T], [pair.q12, pair.q11]])
    assert math.isclose(mi, gw.gaussian_mi(swapped, (p2, p1)), rel_tol=0, abs_tol=1e-10)


def test_log_one_minus_square_against_mpmath():
    # log1p(-d * d) loses ~eps / (1 - d) relative near 1 (2e-10 at
    # 1 - d = 1e-9); the helper stays within a few eps on every range
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        rng = np.random.default_rng(11)
        for lo, hi in [(-9.0, -8.0), (-6.0, -5.0), (-3.0, -1.0), (-1.0, -0.3)]:
            for d in (1.0 - 10.0 ** rng.uniform(lo, hi, 200), 10.0 ** rng.uniform(lo, hi, 200)):
                got = log_one_minus_square(d)
                for x, g in zip(d, got):
                    want = mp.log(1 - mp.mpf(x) ** 2)
                    assert abs(g - want) <= 4 * np.finfo(float).eps * abs(want), x
        assert log_one_minus_square(np.zeros(1))[0] == 0.0


def test_mi_canonical_cases():
    idx_id = gw.IndexSextuple(1, 1, 0, 1, 1, 0)
    assert gw.mi_canonical(idx_id, [0.5]) == math.inf
    idx_corr = gw.IndexSextuple(0, 2, 1, 0, 2, 0)
    d = np.array([0.8, 0.5])
    want = -0.5 * np.sum(np.log1p(-d) + np.log1p(d))
    assert math.isclose(gw.mi_canonical(idx_corr, d), want, rel_tol=1e-14)
    idx_priv = gw.IndexSextuple(0, 0, 2, 0, 0, 3)
    assert gw.mi_canonical(idx_priv, []) == 0.0


def test_mi_canonical_agrees_with_covariance_route():
    idx = gw.IndexSextuple(0, 3, 1, 0, 3, 2)
    d = np.array([0.7, 0.4, 0.2])
    q12 = np.zeros((4, 5))
    q12[:3, :3] = np.diag(d)
    q = np.block([[np.eye(4), q12], [q12.T, np.eye(5)]])
    assert math.isclose(gw.mi_canonical(idx, d), gw.gaussian_mi(q, (4, 5)),
                        rel_tol=1e-12)


def test_nats_conversions():
    assert gw.nats_to(math.log(2.0), "bits") == pytest.approx(1.0, rel=1e-15)
    assert gw.nats_to(math.log(2.0), "paper-example-bits") == pytest.approx(2.0, rel=1e-15)
    assert gw.nats_to(1.25, "nats") == 1.25
    assert gw.nats_to(math.inf, "bits") == math.inf
    with pytest.raises(ValueError):
        gw.nats_to(1.0, "hartleys")


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_json_round_trip_is_lossless(p1, p2, seed):
    pair = random_pair(np.random.default_rng(seed), p1, p2)
    back = gw.pair_from_json(gw.pair_to_json(pair))
    assert np.array_equal(back.q11, pair.q11)
    assert np.array_equal(back.q22, pair.q22)
    assert np.array_equal(back.q12, pair.q12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_lossless(p1, p2, seed):
    pair = random_pair(np.random.default_rng(seed), p1, p2)
    back = gw.pair_from_csv(gw.pair_to_csv(pair))
    assert back.p1 == p1 and back.p2 == p2
    assert np.array_equal(back.joint(), pair.joint())


def test_json_emits_infinity_literal():
    # infinite rates serialize as the bare Infinity token and parse back
    text = json.dumps({"value": math.inf})
    assert "Infinity" in text
    assert json.loads(text)["value"] == math.inf


def test_from_joint_round_trip(rng):
    pair = random_pair(rng, 3, 2)
    again = gw.JointGaussianPair.from_joint(pair.joint(), 3)
    assert np.array_equal(again.joint(), pair.joint())


def test_pair_rejects_cross_shape_mismatch():
    with pytest.raises(gw.DimensionMismatch):
        gw.JointGaussianPair(np.eye(2), np.eye(3), np.zeros((3, 2)))


def test_triple_joint_layout(rng):
    pair = random_pair(rng, 2, 2)
    qw = np.eye(2)
    q1w = 0.1 * np.ones((2, 2))
    q2w = 0.2 * np.ones((2, 2))
    triple = gw.GaussianTriple(pair=pair, qw=qw, q1w=q1w, q2w=q2w)
    j = triple.joint()
    assert j.shape == (6, 6)
    assert np.array_equal(j[:2, 4:], q1w)
    assert np.array_equal(j[2:4, 4:], q2w)
    assert np.array_equal(j, j.T)


def test_validated_rejects_non_pd_pair():
    pair = gw.JointGaussianPair(np.eye(1), np.eye(1), np.array([[1.5]]))
    with pytest.raises(gw.NotPositiveDefinite):
        pair.validated()


def test_symmetrize_is_idempotent(rng):
    m = rng.standard_normal((4, 4))
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.array_equal(symmetrize(s), s)
