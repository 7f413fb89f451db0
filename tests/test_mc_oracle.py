import math
import tracemalloc

import numpy as np
import pytest

import gwgauss as gw
from gwgauss import realize
from gwgauss.mc_oracle import MIN_SAMPLES
from gwgauss.realize import _CHUNK, _WINDOW


def family_block(n_samples=50000, seed=11):
    d = np.array([0.8, 0.3])
    qw = np.diag([1.1, 0.9])
    blk = gw.sample(gw.family_realization(d, qw), n_samples, seed)
    target = gw.state_triple_cov(d, qw)
    return blk, target


def test_too_few_samples_rejected():
    blk, target = family_block(n_samples=2000)
    short = gw.SampleBlock(
        n_samples=999, y1=blk.y1[:999], y2=blk.y2[:999], w=blk.w[:999],
        z1=None, z2=None, v=None,
    )
    with pytest.raises(gw.TooFewSamples):
        gw.validate_realization(short, target)


def test_report_fields_on_family_draws():
    blk, target = family_block()
    rep = gw.validate_realization(blk, target)
    assert rep.n_samples == 50000
    assert rep.cov_rel_err < 0.05
    assert rep.ci_residual < 0.05
    true_mi = gw.gaussian_mi(target[:4, :4], (2, 2))
    assert abs(rep.mi_plugin - true_mi) < 0.05
    assert rep.distortion_errs is None


def test_target_shape_mismatch_rejected():
    blk, target = family_block(n_samples=2000)
    with pytest.raises(gw.DimensionMismatch):
        gw.validate_realization(blk, target[:5, :5])


def test_distortion_validation_paths():
    d = np.array([0.6])
    ch = gw.test_channel(d, np.ones(1), [0.2], [0.3])
    blk = gw.sample(ch, 40000, seed=2)
    e1, e2 = gw.validate_distortion(blk, 0.2, 0.3)
    assert e1 < 0.05 and e2 < 0.05

    rep = gw.validate_realization(
        blk, gw.state_triple_cov(d, np.ones((1, 1))), distortion_targets=(0.2, 0.3)
    )
    assert rep.distortion_errs is not None
    assert max(rep.distortion_errs) < 0.05


def test_distortion_requires_reconstructions():
    blk, _ = family_block(n_samples=2000)
    with pytest.raises(gw.MissingReconstruction):
        gw.validate_distortion(blk, 0.1, 0.1)


def test_zero_target_uses_absolute_error():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((2000, 1))
    blk = gw.SampleBlock(
        n_samples=2000, y1=y, y2=y.copy(), w=None, z1=None, z2=None, v=None,
        yhat1=y.copy(), yhat2=y + 1e-4,
    )
    e1, e2 = gw.validate_distortion(blk, 0.0, 0.0)
    assert e1 == 0.0
    assert 0.0 < e2 < 1e-6


def test_plugin_mi_tracks_truth_without_state():
    # pairs-only block: the report still scores covariance and information
    rho = 0.5
    rng = np.random.default_rng(8)
    g = rng.standard_normal((60000, 2))
    y1 = g[:, :1]
    y2 = rho * g[:, :1] + math.sqrt(1 - rho * rho) * g[:, 1:]
    blk = gw.SampleBlock(n_samples=60000, y1=y1, y2=y2, w=None, z1=None, z2=None, v=None)
    target = np.array([[1.0, rho], [rho, 1.0]])
    rep = gw.validate_realization(blk, target)
    assert abs(rep.mi_plugin - 0.14384103622589046) < 0.02
    assert rep.cov_rel_err < 0.05


def test_sigma_units_follow_the_entry_variance():
    blk, target = family_block(n_samples=20000, seed=5)
    rep = gw.validate_realization(blk, target)
    n = 20000
    var_sum = sum(
        target[i, i] * target[j, j] + target[i, j] ** 2
        for i in range(target.shape[0]) for j in range(target.shape[0])
    )
    sd = math.sqrt(var_sum / n) / np.linalg.norm(target)
    assert math.isclose(rep.cov_err_sigmas, rep.cov_rel_err / sd, rel_tol=1e-12)
    # residual entry (i, j) has sd sqrt(Q_Z1,ii Q_Z2,jj / n), the noise
    # covariances of the realization that drew the block
    real = gw.family_realization([0.8, 0.3], np.diag([1.1, 0.9]))
    x = np.hstack([blk.y1, blk.y2, blk.w])
    e = x.T @ x / n
    resid = e[:2, 2:4] - e[:2, 4:] @ np.linalg.inv(e[4:, 4:]) @ e[4:, 2:4]
    ratios = [
        abs(resid[i, j]) / math.sqrt(real.qz1[i, i] * real.qz2[j, j] / n)
        for i in range(2) for j in range(2)
    ]
    assert math.isclose(rep.ci_residual_sigmas, max(ratios), rel_tol=1e-9)
    # right law: both errors within a few of their standard deviations
    assert rep.cov_err_sigmas < 6.0 and rep.ci_residual_sigmas < 6.0


def test_ci_sigmas_do_not_move_when_the_branches_are_scaled():
    # Y1 and Y2 scaled by 2 scale the residual and its sd alike
    s = np.diag([2.0, 2.0, 2.0, 2.0, 1.0, 1.0])
    plain, scaled = [], []
    for seed in range(10):
        blk, target = family_block(n_samples=20000, seed=seed)
        big = gw.SampleBlock(n_samples=20000, y1=2.0 * blk.y1, y2=2.0 * blk.y2, w=blk.w)
        plain.append(gw.validate_realization(blk, target).ci_residual_sigmas)
        scaled.append(gw.validate_realization(big, s @ target @ s).ci_residual_sigmas)
    np.testing.assert_allclose(scaled, plain, rtol=1e-9)
    # the largest of four |N(0, 1)| entries has median ~1.6
    assert 0.8 < float(np.median(plain)) < 3.0


def test_hand_built_block_reports_like_the_sampler_views():
    d = np.array([0.7, 0.4])
    q = np.array([1.1, 0.9])
    ch = gw.test_channel(d, q, [0.1, 0.2], [0.15, 0.1])
    blk = gw.sample(ch, 3000, seed=6)
    copied = gw.SampleBlock(
        n_samples=blk.n_samples,
        **{k: np.ascontiguousarray(getattr(blk, k))
           for k in ("y1", "y2", "w", "z1", "z2", "v", "yhat1", "yhat2")},
    )
    assert copied.y1.flags.c_contiguous and not blk.y1.flags.c_contiguous
    target = gw.state_triple_cov(d, np.diag(q))
    a = gw.validate_realization(blk, target, distortion_targets=(0.3, 0.25))
    b = gw.validate_realization(copied, target, distortion_targets=(0.3, 0.25))
    assert vars(a) == vars(b)


def _stream_cases():
    d = np.array([0.8, 0.5, 0.3])
    q = np.array([1.1, 1.0, 0.9])
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    dense = (u * np.array([1.05, 0.95, 1.1])) @ u.T
    dense = 0.5 * (dense + dense.T)
    # identical, correlated and private parts on both sides
    idx = gw.IndexSextuple(1, 3, 1, 1, 3, 2)
    return {
        "optimal": (gw.optimal_state(idx, d), gw.optimal_triple_cov(idx, d), None),
        "diagonal": (gw.family_realization(d, np.diag(q)), gw.state_triple_cov(d, np.diag(q)),
                     None),
        "dense": (gw.family_realization(d, dense), gw.state_triple_cov(d, dense), None),
        "channel": (gw.test_channel(d, q, [0.05, 0.1, 0.2], [0.1, 0.1, 0.1]),
                    gw.state_triple_cov(d, np.diag(q)), (0.35, 0.3)),
    }


@pytest.mark.parametrize("n", [1000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("kind", ["optimal", "diagonal", "dense", "channel"])
def test_streamed_report_is_the_block_report(kind, n):
    obj, target, distortion = _stream_cases()[kind]
    block = gw.validate_realization(gw.sample(obj, n, 31), target, distortion)
    streamed = gw.validate_stream(obj, n, 31, target, distortion)
    assert vars(streamed) == vars(block)
    assert (streamed.distortion_errs is None) == (distortion is None)


def test_streamed_validation_runs_in_constant_memory():
    obj, target, distortion = _stream_cases()["channel"]
    # every buffer the sampler fills; "joint" is a view of three of them
    window = sum(
        a.nbytes for k, a in vars(gw.sample(obj, _WINDOW * _CHUNK, 1)).items()
        if isinstance(a, np.ndarray) and k != "joint"
    )

    def peak(n):
        tracemalloc.start()
        try:
            gw.validate_stream(obj, n, 2, target, distortion)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2 * _CHUNK), peak(16 * _CHUNK)
    assert long - short < window
    assert long < 16 * _CHUNK * target.shape[0] * 8


def test_streamed_validation_checks_the_row_count_before_drawing(monkeypatch):
    obj, target, _ = _stream_cases()["diagonal"]

    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(realize, "_draw", no_draw)
    with pytest.raises(gw.TooFewSamples):
        gw.validate_stream(obj, MIN_SAMPLES - 1, 3, target)
    with pytest.raises(AssertionError):
        gw.validate_stream(obj, MIN_SAMPLES, 3, target)
