import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss.gaussmodel import (LOG_2PIE, TINY, branch_variances, edge_coordinate, edge_state,
                                 free_state, log_branch_variances, log_one_minus_square,
                                 logdet_or_neginf, one_minus_square, symmetrize)

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
    cases = [
        lambda: gw.validate_covariance(np.ones((2, 3))),
        lambda: gw.validate_covariance(np.ones(3)),
        lambda: gw.JointGaussianPair(np.ones((2, 3)), np.eye(3), np.zeros((2, 3))),
        lambda: gw.JointGaussianPair(np.eye(2), np.ones((3, 2)), np.zeros((2, 3))),
        lambda: gw.JointGaussianPair(np.eye(2), np.eye(3), np.zeros((3, 2))),
        lambda: gw.encoder_split(np.ones((6, 5)), 2, 3),
        lambda: gw.encoder_split(np.ones(6), 2, 3),
        lambda: gw.encoder_split(np.eye(5), 2, 3),
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


EPS = np.finfo(float).eps


def _near_unit_d(rng, size):
    # 1 - d from 1e-12 to ~1, and d from 1e-6 to 1/2
    return np.concatenate([1.0 - 10.0 ** rng.uniform(-12.0, -0.01, size),
                           10.0 ** rng.uniform(-6.0, -0.3, size)])


def test_one_minus_square_against_mpmath():
    # (1 - d)(1 + d) stays within 2 eps relative; 1 - d * d is off by up to
    # ~eps / (1 - d) relative, 1e-4 at 1 - d = 1e-12
    mp = pytest.importorskip("mpmath")
    d = _near_unit_d(np.random.default_rng(12), 400)
    with mp.workdps(50):
        for x, got in zip(d, one_minus_square(d)):
            want = 1 - mp.mpf(x) ** 2
            assert abs(got - want) <= 2 * EPS * want, x
    assert one_minus_square(0.0) == 1.0


def test_branch_variances_against_mpmath():
    # at the diagonal state e^u, |u| up to -log d, w = d e^{-+u} and
    # v = 1 - w, with log v, are exact but for the rounding of log d -+ u,
    # at most eps (|log d| + |u|): that moves w by w times it, v by as much
    # and log v by that over v.  At v near 1, log(v) alone would be off by
    # eps absolute, which is far more than eps |log v| there
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    d = _near_unit_d(rng, 200)
    ld = np.log(d)
    # u across the whole family, its ends approached to 1e-12 relative
    edge = rng.choice([-1.0, 1.0], d.size) * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0, d.size))
    t = np.where(rng.random(d.size) < 0.5, rng.uniform(-1.0, 1.0, d.size), edge)
    u = -t * ld
    w, v = branch_variances(ld, u)
    with mp.workdps(50):
        for j in range(d.size):
            # the per-coordinate (v1, log v1, v2, log v2) in Python floats
            coordinate = log_branch_variances(float(ld[j]), float(u[j]))
            for i, sgn in enumerate((1, -1)):
                e = mp.log(mp.mpf(d[j])) - sgn * mp.mpf(u[j])
                ww, vv = mp.exp(e), -mp.expm1(e)
                rounding = EPS * (abs(ld[j]) + abs(u[j]))
                where = (d[j], u[j], i)
                assert abs(w[i, j] - ww) <= 2 * EPS * ww + ww * rounding, where
                lvv = mp.log(vv)
                vf, lvf = coordinate[2 * i], coordinate[2 * i + 1]
                for got in (v[i, j], vf):
                    assert abs(got - vv) <= 2 * EPS * vv + ww * rounding, where
                assert abs(lvf - lvv) <= 4 * EPS * abs(lvv) + ww * rounding / vv, where


def test_free_state_against_mpmath():
    # q, w = (d/q, d q) and v = 1 - w at the root of the quadratic
    # k2 q^2 + (k1 - k2) d q - k1 = 0, within 4 eps relative of 60 digits,
    # with d from 1e-12 to 1 - 1e-12 and weights up to 1 - 1e-12
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    d = np.concatenate([1.0 - 10.0 ** rng.uniform(-12.0, -0.01, 300),
                        10.0 ** rng.uniform(-12.0, -0.01, 300)])
    alpha = np.where(rng.random((2, d.size)) < 0.5, rng.uniform(0.0, 1.0, (2, d.size)),
                     1.0 - 10.0 ** rng.uniform(-12.0, 0.0, (2, d.size)))
    alpha[:, :20] = 0.0
    with mp.workdps(60):
        for x, a1, a2 in zip(d.tolist(), *alpha.tolist()):
            k1, k2 = 0.5 * (1.0 - a1), 0.5 * (1.0 - a2)
            got = free_state(x, k1, k2)
            b = (mp.mpf(k1) - mp.mpf(k2)) * x
            q = (mp.sqrt(b * b + 4 * mp.mpf(k1) * k2) - b) / (2 * mp.mpf(k2))
            want = (q, x / q, 1 - x / q, x * q, 1 - x * q)
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * EPS * w, (x, k1, k2, got)
    # a zero k_i puts the state on the family edge where v_i = 0, and with
    # both zero the identity, the state of least R0, is taken
    assert free_state(0.6, 0.0, 0.25)[:3] == (0.6, 1.0, 0.0)
    assert free_state(0.6, 0.25, 0.0)[3:] == (1.0, 0.0)
    assert free_state(0.6, 0.0, 0.0) == (1.0, 0.6, 0.4, 0.6, 0.4)
    # equal k gives the identity for any positive k
    q, w1, v1, w2, v2 = free_state(0.6, 0.3, 0.3)
    assert (q, w1, w2) == (1.0, 0.6, 0.6) and v1 == v2 == pytest.approx(0.4, rel=2 * EPS)


def test_edge_state_against_mpmath():
    # (q, w1, v1, w2, v2) at log(v1 / v2) = t, within 4 eps relative of 400
    # digits (the smaller variance reaches 1e-300), with d from 1e-12 to
    # 1 - 1e-12 and |t| from 1e-20 to 690, where that variance stays normal
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    d = np.concatenate([1.0 - 10.0 ** rng.uniform(-12.0, -0.01, 300),
                        10.0 ** rng.uniform(-12.0, -0.01, 300)])
    t = rng.choice([-1.0, 1.0], d.size) * 10.0 ** rng.uniform(-20.0, math.log10(690.0), d.size)
    t[:10] = 0.0
    with mp.workdps(400):
        for x, tj in zip(d.tolist(), t.tolist()):
            got = edge_state(x, tj)
            if min(got[2], got[4]) < TINY:
                continue
            # the larger w solves w^2 - c w - E d^2 = 0 with E = e^{-|t|}
            e, square = mp.exp(-abs(mp.mpf(tj))), mp.mpf(x) ** 2
            c = 1 - e
            big = (c + mp.sqrt(c * c + 4 * e * square)) / 2
            w1, w2 = (big, square / big) if tj <= 0.0 else (square / big, big)
            want = (x / w1, w1, 1 - w1, w2, 1 - w2)
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * EPS * w, (x, tj, got)
            # and their ratio has the log it was asked for, to their rounding
            assert abs(mp.log(mp.mpf(got[2]) / got[4]) - tj) <= 10 * EPS * (1.0 + abs(tj))
    # t = 0 is the identity state
    q, w1, v1, w2, v2 = edge_state(0.6, 0.0)
    assert (q, w1, w2) == (1.0, 0.6, 0.6) and v1 == v2 == pytest.approx(0.4, rel=2 * EPS)


def test_edge_coordinate_against_mpmath():
    # log(v1 / v2) at q = e^u, within 2 eps (1 + |u|) relative of 50 digits
    # wherever both w = d e^{-+u} are at most 3/4, with d from 1e-12 to
    # 1 - 1e-12; near q = 1 with tiny d, log v1 - log v2 cancels
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    d = np.concatenate([1.0 - 10.0 ** rng.uniform(-12.0, -0.01, 300),
                        10.0 ** rng.uniform(-12.0, -0.01, 300)])
    lo, hi = np.log(d) - math.log(0.75), math.log(0.75) - np.log(d)
    keep = lo < hi
    u = rng.uniform(lo[keep], hi[keep])
    u[:10] = 1e-9
    with mp.workdps(50):
        for x, uj in zip(d[keep].tolist(), u.tolist()):
            got = edge_coordinate(x, uj)
            q = mp.exp(mp.mpf(uj))
            want = mp.log((1 - x / q) / (1 - x * q))
            assert abs(got - want) <= 2 * EPS * (1.0 + abs(uj)) * abs(want), (x, uj, got)
            # the round trip through edge_state returns q
            assert abs(edge_state(x, got)[0] - q) <= 4 * EPS * (1.0 + abs(uj)) * q, (x, uj)


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


def test_triple_joint_layout():
    d = np.array([0.8, 0.3])
    qw = np.array([[1.1, 0.1], [0.1, 0.9]])
    j = gw.state_triple_cov(d, qw)
    assert j.shape == (6, 6)
    assert np.array_equal(j[:2, :2], np.eye(2)) and np.array_equal(j[2:4, 2:4], np.eye(2))
    assert np.array_equal(j[:2, 2:4], np.diag(d))
    assert np.array_equal(j[:2, 4:], np.diag(np.sqrt(d)))
    assert np.array_equal(j[2:4, 4:], np.sqrt(d)[:, None] * qw)
    assert np.array_equal(j[4:, 4:], qw)
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
