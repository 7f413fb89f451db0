import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss import realize
from gwgauss.realize import _CHUNK

d_vectors = st.lists(
    st.floats(0.05, 0.95, allow_nan=False), min_size=1, max_size=5
).map(lambda xs: np.array(sorted(xs, reverse=True)))


def test_family_realization_scalar_values():
    real = gw.family_realization([0.5], 1.2)
    np.testing.assert_allclose(real.qz1, [[7.0 / 12.0]], rtol=1e-14)
    np.testing.assert_allclose(real.qz2, [[0.4]], rtol=1e-14)
    np.testing.assert_allclose(real.c1, [[math.sqrt(0.5) / 1.2]], rtol=1e-14)
    np.testing.assert_allclose(real.c2, [[math.sqrt(0.5)]], rtol=1e-14)


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_state_triple_reproduces_pair_and_ci(d, seed):
    qw = gw.sample_state_matrix(d, np.random.default_rng(seed))
    triple = gw.state_triple(d, qw)
    n = d.size
    np.testing.assert_allclose(triple.pair.q11.entries, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(triple.pair.q22.entries, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(triple.pair.q12, np.diag(d), atol=1e-12)
    # conditional independence: Q12 = Q1W QW^{-1} Q2W.T exactly
    ci = triple.q1w @ np.linalg.solve(triple.qw.entries, triple.q2w.T)
    np.testing.assert_allclose(ci, np.diag(d), atol=1e-10)
    # the whole triple is a covariance
    ev = np.linalg.eigvalsh(triple.joint())
    assert ev.min() > -1e-10


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_noise_covariances_positive_semidefinite(d, seed):
    qw = gw.sample_state_matrix(d, np.random.default_rng(seed))
    real = gw.family_realization(d, qw)
    assert np.linalg.eigvalsh(real.qz1).min() > -1e-10
    assert np.linalg.eigvalsh(real.qz2).min() > -1e-10


def test_encoder_split_inverts_family_construction():
    d = np.array([0.8, 0.3])
    qw = np.diag([1.1, 0.9])
    real = gw.family_realization(d, qw)
    split = gw.encoder_split(gw.state_triple(d, qw))
    np.testing.assert_allclose(split.c1, real.c1, atol=1e-12)
    np.testing.assert_allclose(split.c2, real.c2, atol=1e-12)
    np.testing.assert_allclose(split.qz1, real.qz1, atol=1e-12)
    np.testing.assert_allclose(split.qz2, real.qz2, atol=1e-12)


def test_optimal_state_scalar_gains():
    st_ = gw.optimal_state(gw.IndexSextuple(0, 1, 0, 0, 1, 0), [0.5])
    np.testing.assert_allclose(st_.l1, [math.sqrt(0.5) / 1.5], rtol=1e-14)
    np.testing.assert_allclose(st_.l2, st_.l1, rtol=1e-14)
    np.testing.assert_allclose(st_.l3, [math.sqrt(0.5 / 1.5)], rtol=1e-14)
    # gains reconstruct a unit-variance state: l1^2 + l2^2 + 2 l1 l2 d + l3^2 = 1
    l1, l3, d = st_.l1[0], st_.l3[0], 0.5
    assert math.isclose(2 * l1 * l1 * (1 + d) + l3 * l3, 1.0, rel_tol=1e-13)


def test_optimal_triple_cov_structure():
    idx = gw.IndexSextuple(1, 2, 1, 1, 2, 2)
    d = np.array([0.7, 0.3])
    q = gw.optimal_triple_cov(idx, d)
    p1, p2, nw = 4, 5, 3
    assert q.shape == (p1 + p2 + nw, p1 + p2 + nw)
    np.testing.assert_allclose(q[:p1, :p1], np.eye(p1), atol=1e-12)
    np.testing.assert_allclose(q[p1:p1 + p2, p1:p1 + p2], np.eye(p2), atol=1e-12)
    np.testing.assert_allclose(
        q[:p1, p1:p1 + p2], gw.canonical_cross_pattern(idx, d), atol=1e-12
    )
    # conditional independence through the state block
    q1w = q[:p1, p1 + p2:]
    q2w = q[p1:p1 + p2, p1 + p2:]
    qw = q[p1 + p2:, p1 + p2:]
    ci = q1w @ np.linalg.solve(qw, q2w.T)
    np.testing.assert_allclose(ci, q[:p1, p1:p1 + p2], atol=1e-10)
    assert np.linalg.eigvalsh(q).min() > -1e-10


def test_optimal_state_information_matches_common_information():
    # I(Y1,Y2;W) at the optimal state equals the minimum over the family
    idx = gw.IndexSextuple(0, 3, 0, 0, 3, 0)
    d = np.array([0.8, 0.5, 0.1])
    q = gw.optimal_triple_cov(idx, d)
    mi = gw.gaussian_mi(q, (6, 3))
    assert math.isclose(mi, gw.common_information(idx, d).value, rel_tol=1e-10)


def test_test_channel_scalar_values():
    ch = gw.test_channel([0.5], 1.0, [0.25], [0.25])
    np.testing.assert_allclose(ch.qz1, [[0.5]], rtol=1e-14)
    np.testing.assert_allclose(ch.a1, [[0.5]], rtol=1e-14)
    np.testing.assert_allclose(ch.qv1, [[0.125]], rtol=1e-14)
    np.testing.assert_allclose(ch.qe1, [[0.25]], rtol=1e-14)


@given(d_vectors, st.integers(0, 2**32 - 1))
def test_test_channel_second_moment_identity(d, seed):
    # cov(reconstruction) + error covariance = conditional covariance
    rng = np.random.default_rng(seed)
    q = np.ones(d.size)
    ch = gw.test_channel(d, q, 0.3 * (1 - d), 0.4 * (1 - d))
    for a, qv, qe, qz in ((ch.a1, ch.qv1, ch.qe1, ch.qz1), (ch.a2, ch.qv2, ch.qe2, ch.qz2)):
        recon_cov = a @ qz @ a.T + qv
        np.testing.assert_allclose(recon_cov + qe, qz, atol=1e-10)
        assert np.linalg.eigvalsh(gw.sqrt_psd(qv) @ gw.sqrt_psd(qv)).min() > -1e-10


def test_allocation_bounds_enforced():
    with pytest.raises(gw.AllocationOutOfRange):
        gw.test_channel([0.5], 1.0, [0.75], [0.25])  # above conditional variance 0.5
    with pytest.raises(gw.AllocationOutOfRange):
        gw.test_channel([0.5], 1.0, [0.0], [0.25])


def test_sampling_is_deterministic_per_seed():
    st_ = gw.optimal_state(gw.IndexSextuple(0, 2, 1, 0, 2, 0), [0.6, 0.2])
    a = gw.sample(st_, 2000, seed=9)
    b = gw.sample(st_, 2000, seed=9)
    c = gw.sample(st_, 2000, seed=10)
    np.testing.assert_array_equal(a.y1, b.y1)
    np.testing.assert_array_equal(a.w, b.w)
    assert not np.array_equal(a.y1, c.y1)


def test_sample_shapes_per_kind():
    d = np.array([0.6, 0.2])
    real = gw.family_realization(d, np.eye(2))
    blk = gw.sample(real, 1500, seed=1)
    assert blk.y1.shape == (1500, 2) and blk.w.shape == (1500, 2)
    assert blk.yhat1 is None

    idx = gw.IndexSextuple(1, 2, 1, 1, 2, 2)
    st_ = gw.optimal_state(idx, d)
    blk = gw.sample(st_, 1500, seed=1)
    assert blk.y1.shape == (1500, 4) and blk.y2.shape == (1500, 5)
    assert blk.w.shape == (1500, 3)

    ch = gw.test_channel(d, np.ones(2), [0.1, 0.1], [0.2, 0.2])
    blk = gw.sample(ch, 1500, seed=1)
    assert blk.yhat1.shape == (1500, 2) and blk.yhat2.shape == (1500, 2)


def test_channel_draws_its_family_realization():
    # the channel adds reconstruction streams on top of the same source
    # draws, for a dense family state too
    d = np.array([0.8, 0.5])
    qw = np.array([[1.0, 0.1], [0.1, 1.1]])
    ch = gw.sample(gw.test_channel(d, qw, [0.05, 0.05], [0.05, 0.05]), 500, seed=21)
    real = gw.sample(gw.family_realization(d, qw), 500, seed=21)
    for name in ("y1", "y2", "w", "z1", "z2"):
        np.testing.assert_array_equal(getattr(ch, name), getattr(real, name))


def test_family_samples_match_target_moments():
    d = np.array([0.8, 0.3])
    qw = np.diag([1.2, 0.8])
    blk = gw.sample(gw.family_realization(d, qw), 60000, seed=77)
    rep = gw.validate_realization(blk, gw.state_triple(d, qw).joint())
    assert rep.cov_rel_err < 0.05
    assert rep.ci_residual < 0.05


def test_optimal_samples_match_target_moments_with_identical_parts():
    idx = gw.IndexSextuple(1, 2, 1, 1, 2, 2)
    d = np.array([0.7, 0.3])
    blk = gw.sample(gw.optimal_state(idx, d), 60000, seed=5)
    rep = gw.validate_realization(blk, gw.optimal_triple_cov(idx, d))
    assert rep.cov_rel_err < 0.05
    assert rep.ci_residual < 0.05
    # identical coordinates pass through exactly
    np.testing.assert_array_equal(blk.y1[:, 0], blk.y2[:, 0])
    np.testing.assert_array_equal(blk.y1[:, 0], blk.w[:, 0])


def test_channel_samples_hit_distortion_targets():
    d = np.array([0.8, 0.5, 0.1])
    alloc1 = np.array([0.05, 0.1, 0.2])
    alloc2 = np.array([0.1, 0.1, 0.1])
    ch = gw.test_channel(d, np.ones(3), alloc1, alloc2)
    blk = gw.sample(ch, 60000, seed=3)
    e1, e2 = gw.validate_distortion(blk, alloc1.sum(), alloc2.sum())
    assert e1 < 0.05 and e2 < 0.05


def test_sqrt_psd_squares_back(rng):
    g = rng.standard_normal((4, 4))
    q = g @ g.T
    r = gw.sqrt_psd(q)
    np.testing.assert_allclose(r @ r, q, atol=1e-10)
    np.testing.assert_allclose(r, r.T, atol=1e-12)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(gw.NotPositiveDefinite):
        gw.sqrt_psd(np.diag([1.0, -0.5]))


# stream indices of the roles, restated here so the oracle below shares
# nothing with the sampler
_ROLE = {"w": 0, "z1": 1, "z2": 2, "v": 3, "v1": 4, "v2": 5, "p1": 6, "p2": 7}
_FIELDS = ("y1", "y2", "w", "z1", "z2", "v", "yhat1", "yhat2")


def _normals(seed, role, n, k):
    ss = np.random.SeedSequence(seed, spawn_key=(_ROLE[role],))
    return np.random.default_rng(ss).standard_normal((n, k))


def _gauss(seed, role, n, cov):
    # G(0, cov) rows as G Q^{1/2}, Q^{1/2} the symmetric eigen square root
    lam, u = np.linalg.eigh(cov)
    return _normals(seed, role, n, cov.shape[0]) @ ((u * np.sqrt(lam)) @ u.T).T


def _oracle_family(real, n, seed):
    w = _gauss(seed, "w", n, real.qw)
    z1 = _gauss(seed, "z1", n, real.qz1)
    z2 = _gauss(seed, "z2", n, real.qz2)
    return dict(y1=w @ real.c1.T + z1, y2=w @ real.c2.T + z2, w=w, z1=z1, z2=z2)


def _kinds():
    d = np.array([0.8, 0.5, 0.2])
    qw = np.array([[1.05, 0.04, 0.0], [0.04, 0.95, 0.03], [0.0, 0.03, 1.1]])
    idx = gw.IndexSextuple(2, 3, 1, 2, 3, 2)
    ch = gw.test_channel(d, qw, [0.05, 0.1, 0.2], [0.1, 0.1, 0.1])
    return d, qw, idx, ch


def _assert_matches_oracle(n, seed, idx):
    d, qw, _, ch = _kinds()
    real = gw.family_realization(d, qw)
    want = {k: _oracle_family(real, n, seed) for k in ("family", "channel")}

    # optimal state: identical, correlated and private parts per branch
    w1 = _normals(seed, "w", n, idx.p11)
    g1 = _normals(seed, "z1", n, d.size)
    g2 = _normals(seed, "z2", n, d.size)
    v = _normals(seed, "v", n, d.size)
    y13 = _normals(seed, "p1", n, idx.p13)
    y23 = _normals(seed, "p2", n, idx.p23)
    l1 = np.sqrt(d) / (1 + d)
    l3 = np.sqrt((1 - d) / (1 + d))
    y12, y22 = g1, g1 * d + g2 * np.sqrt(1 - d * d)
    w2 = y12 * l1 + y22 * l1 + v * l3
    zero = np.zeros((n, idx.p11))
    want["optimal"] = dict(
        y1=np.hstack([w1, y12, y13]), y2=np.hstack([w1, y22, y23]),
        w=np.hstack([w1, w2]), v=v,
        z1=np.hstack([zero, y12 - w2 * np.sqrt(d), y13]),
        z2=np.hstack([zero, y22 - w2 * np.sqrt(d), y23]),
    )

    # test channel: Yhat_i = W C_i' + Z_i A_i' + V_i on the family draws
    fam = want["channel"]
    v1 = _gauss(seed, "v1", n, ch.qv1)
    v2 = _gauss(seed, "v2", n, ch.qv2)
    fam.update(
        v=np.hstack([v1, v2]),
        yhat1=fam["w"] @ real.c1.T + fam["z1"] @ ch.a1.T + v1,
        yhat2=fam["w"] @ real.c2.T + fam["z2"] @ ch.a2.T + v2,
    )

    objs = {"family": real, "optimal": gw.optimal_state(idx, d), "channel": ch}
    for kind, obj in objs.items():
        blk = gw.sample(obj, n, seed)
        for name in _FIELDS:
            got = getattr(blk, name)
            if name in want[kind]:
                np.testing.assert_array_equal(got, want[kind][name], err_msg=f"{kind} {name}")
            else:
                assert got is None, f"{kind} {name}"


def test_sampler_matches_plain_numpy_oracle():
    _assert_matches_oracle(3000, 17, _kinds()[2])


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_sampler_matches_oracle_at_chunk_boundaries(n):
    _assert_matches_oracle(n, 23, _kinds()[2])


def test_sampler_matches_oracle_with_zero_width_roles():
    # no identical part and no private part on branch 1: the "w" and "p1"
    # streams draw nothing
    _assert_matches_oracle(_CHUNK + 5, 29, gw.IndexSextuple(0, 3, 0, 0, 3, 1))


def test_samples_are_prefix_stable_in_n():
    d, qw, idx, ch = _kinds()
    for n_short, n_long in ((1000, 5000), (_CHUNK + 1, 2 * _CHUNK + 3)):
        for obj in (gw.family_realization(d, qw), gw.optimal_state(idx, d), ch):
            short = gw.sample(obj, n_short, seed=4)
            long = gw.sample(obj, n_long, seed=4)
            for name in _FIELDS:
                a, b = getattr(short, name), getattr(long, name)
                if a is None:
                    assert b is None
                else:
                    np.testing.assert_array_equal(a, b[:n_short], err_msg=name)


def test_concurrent_callers_get_the_serial_blocks():
    d, qw, idx, ch = _kinds()
    objs = [gw.family_realization(d, qw), gw.optimal_state(idx, d), ch]
    n = _CHUNK + 7
    serial = {(k, seed): gw.sample(obj, n, seed) for k, obj in enumerate(objs) for seed in (1, 2)}
    got, errors = {}, []

    def caller(seed):
        try:
            for k, obj in enumerate(objs):
                got[k, seed, threading.get_ident()] = gw.sample(obj, n, seed)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(1 + i % 2,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 4 * len(objs)
    for (k, seed, _), blk in got.items():
        for name in _FIELDS:
            a, b = getattr(blk, name), getattr(serial[k, seed], name)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"{k} {seed} {name}")


def test_traced_functions_run_in_the_calling_thread(monkeypatch):
    calls = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    d, qw, idx, ch = _kinds()
    objs = (gw.family_realization(d, qw), gw.optimal_state(idx, d), ch)
    for name in ("sqrt_psd", "family_realization"):
        monkeypatch.setattr(realize, name, recorded(getattr(realize, name)))
    for obj in objs:
        gw.sample(obj, 2 * _CHUNK, seed=3)
    assert [c[0] for c in calls].count("sqrt_psd") == 3 + 5
    assert [c[0] for c in calls].count("family_realization") == 1
    assert {c[1] for c in calls} == {threading.get_ident()}
    assert any(t.name.startswith("gwgauss-lane") for t in threading.enumerate())


def test_sampling_an_indefinite_noise_covariance_raises():
    real = gw.family_realization([0.6, 0.2], np.eye(2))
    bad = gw.CIRealization(n=2, c1=real.c1, c2=real.c2, qz1=np.diag([0.5, -0.5]),
                           qz2=real.qz2, qw=real.qw)
    with pytest.raises(gw.NotPositiveDefinite):
        gw.sample(bad, 2 * _CHUNK, seed=1)


def test_block_fields_are_views_of_one_component_major_buffer():
    d, qw, idx, ch = _kinds()
    for obj in (gw.family_realization(d, qw), gw.optimal_state(idx, d), ch):
        blk = gw.sample(obj, 1200, seed=2)
        for name in _FIELDS:
            a = getattr(blk, name)
            assert a is None or a.flags.f_contiguous, name
        x = blk.y1.base
        p1, p2 = blk.y1.shape[1], blk.y2.shape[1]
        assert x.flags.c_contiguous
        assert x.shape == (p1 + p2 + blk.w.shape[1], 1200)
        np.testing.assert_array_equal(x, np.hstack([blk.y1, blk.y2, blk.w]).T)
        assert blk.y2.base is x and blk.w.base is x
