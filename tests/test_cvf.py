import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw
from gwgauss.gaussmodel import symmetrize

import reference
from conftest import random_pair

SRC = Path(__file__).resolve().parents[1] / "src"
CF_FIELDS = ("s1", "s2", "d", "u1", "u2", "u3", "u4", "d1", "d2", "sv")


def diag_cross_pair(d, p1=None, p2=None):
    d = np.asarray(d, dtype=float)
    p1 = p1 or d.size
    p2 = p2 or d.size
    q12 = np.zeros((p1, p2))
    q12[: d.size, : d.size] = np.diag(d)
    return gw.JointGaussianPair(np.eye(p1), np.eye(p2), q12)


def test_three_coefficient_example():
    pair = diag_cross_pair([0.8, 0.5, 0.1])
    cf = gw.decompose(pair)
    assert cf.idx == gw.IndexSextuple(0, 3, 0, 0, 3, 0)
    np.testing.assert_allclose(cf.d, [0.8, 0.5, 0.1], rtol=0, atol=1e-12)


def test_thresholded_six_by_five_instance():
    # near-unit and near-zero singular values classified by loose thresholds
    sv = [0.999998, 0.999992, 0.8, 0.3, 0.000004]
    pair = diag_cross_pair(sv, p1=6, p2=5)
    cf = gw.decompose(pair, gw.Thresholds(0.999, 1e-4))
    assert cf.idx == gw.IndexSextuple(2, 2, 2, 2, 2, 1)
    np.testing.assert_allclose(cf.d, [0.8, 0.3], rtol=0, atol=1e-12)


def test_default_thresholds_split():
    sv = [1.0 - 1e-8, 0.5, 1e-10]
    cf = gw.decompose(diag_cross_pair(sv))
    assert (cf.idx.p11, cf.idx.p12, cf.idx.p13) == (1, 1, 1)
    np.testing.assert_allclose(cf.d, [0.5], atol=1e-12)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        gw.Thresholds(1.5, 1e-9)
    with pytest.raises(ValueError):
        gw.Thresholds(0.5, 0.6)
    with pytest.raises(ValueError):
        gw.Thresholds(0.5, 0.0)


def test_index_sextuple_validation():
    with pytest.raises(gw.InconsistentIndices):
        gw.IndexSextuple(-1, 0, 0, 0, 0, 0)
    with pytest.raises(gw.InconsistentIndices):
        gw.IndexSextuple(1, 2, 0, 2, 2, 0)  # identical counts differ
    with pytest.raises(gw.InconsistentIndices):
        gw.IndexSextuple(1, 2, 0, 1, 3, 0)  # correlated counts differ
    idx = gw.IndexSextuple(1, 2, 3, 1, 2, 4)
    assert idx.p1 == 6 and idx.p2 == 7


def test_cross_pattern_layout():
    idx = gw.IndexSextuple(1, 2, 1, 1, 2, 2)
    pat = gw.canonical_cross_pattern(idx, [0.7, 0.2])
    assert pat.shape == (4, 5)
    assert pat[0, 0] == 1.0
    assert pat[1, 1] == 0.7 and pat[2, 2] == 0.2
    assert np.count_nonzero(pat) == 3


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_transform_reaches_canonical_pattern(p1, p2, seed):
    pair = random_pair(np.random.default_rng(seed), p1, p2)
    cf = gw.decompose(pair)
    assert gw.pattern_residual(pair, cf) < 1e-9


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_correlations_match_eigen_oracle(p1, p2, seed):
    pair = random_pair(np.random.default_rng(seed), p1, p2)
    cf = gw.decompose(pair)
    top = np.sort(np.concatenate([np.ones(cf.idx.p11), cf.d]))[::-1]
    oracle = reference.canonical_correlations(pair.joint(), pair.p1)[: top.size]
    np.testing.assert_allclose(top, oracle, rtol=0, atol=1e-8)


def test_transform_whitens_marginals(rng):
    pair = random_pair(rng, 4, 3)
    cf = gw.decompose(pair)
    out = gw.apply_transform(pair, cf)
    np.testing.assert_allclose(out.q11, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(out.q22, np.eye(3), atol=1e-10)


def test_correlations_invariant_under_basis_change(rng):
    # d is a pair invariant: block-diagonal changes of basis must not move it
    pair = random_pair(rng, 3, 4)
    base = gw.decompose(pair).d
    for _ in range(20):
        t1 = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        t2 = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        moved = gw.JointGaussianPair(
            t1 @ pair.q11 @ t1.T,
            t2 @ pair.q22 @ t2.T,
            t1 @ pair.q12 @ t2.T,
        )
        np.testing.assert_allclose(gw.decompose(moved).d, base, rtol=0, atol=1e-8)


def test_decompose_requires_pd_marginals():
    pair = gw.JointGaussianPair(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(gw.NotPositiveDefinite):
        gw.decompose(pair)


def test_apply_transform_checks_shapes(rng):
    pair = random_pair(rng, 3, 3)
    cf = gw.decompose(pair)
    other = random_pair(rng, 2, 3)
    with pytest.raises(gw.DimensionMismatch):
        gw.apply_transform(other, cf)


def test_audit_fields_reconstruct_the_transform(rng):
    pair = random_pair(rng, 4, 4)
    cf = gw.decompose(pair)
    # S1 = U3.T D1^{-1/2} U1.T rebuilt from the audit intermediates
    s1 = cf.u3.T @ np.diag(cf.d1 ** -0.5) @ cf.u1.T
    s2 = cf.u4.T @ np.diag(cf.d2 ** -0.5) @ cf.u2.T
    np.testing.assert_allclose(s1, cf.s1, atol=1e-12)
    np.testing.assert_allclose(s2, cf.s2, atol=1e-12)
    assert np.all(np.diff(cf.sv) <= 1e-15)  # singular values descending


def test_singular_values_clipped_to_unit_interval(rng):
    # a nearly singular joint pushes whitened singular values to 1 + roundoff;
    # the marginal jitter stays above the PD validator's eigenvalue floor
    for _ in range(10):
        g = rng.standard_normal((3, 3))
        eps = 1e-6
        q11 = g @ g.T + eps * np.eye(3)
        pair = gw.JointGaussianPair(q11, q11, g @ g.T)
        cf = gw.decompose(pair)
        assert np.all(cf.sv <= 1.0)
        assert np.all(cf.sv >= 0.0)


def validated_decompose(pair, thresholds=gw.Thresholds()):
    """The joint-eigensolve path: validated(), two eigh calls, the SVD."""
    pair = pair.validated()
    lam1, u1 = np.linalg.eigh(pair.q11)
    lam2, u2 = np.linalg.eigh(pair.q22)
    w1 = u1 / np.sqrt(lam1)
    w2 = u2 / np.sqrt(lam2)
    u3, sv, u4t = np.linalg.svd(w1.T @ pair.q12 @ w2, full_matrices=True)
    if sv.size and sv[0] > 1.0 + gw.cvf.SV_CEILING_SLACK:
        raise gw.SingularValueOutOfRange(
            f"raw canonical correlation {sv[0]:.12g} exceeds 1 beyond tolerance"
        )
    sv = np.clip(sv, 0.0, 1.0)
    p11 = int(np.sum(sv > thresholds.h1))
    p12 = int(np.sum((sv >= thresholds.h2) & (sv <= thresholds.h1)))
    idx = gw.IndexSextuple(p11, p12, pair.p1 - p11 - p12, p11, p12, pair.p2 - p11 - p12)
    return gw.CanonicalForm(
        s1=u3.T @ w1.T, s2=u4t @ w2.T, idx=idx, d=sv[p11 : p11 + p12].copy(),
        u1=u1, u2=u2, u3=u3, u4=u4t.T, d1=lam1, d2=lam2, sv=sv,
    )


def assert_same_bits(got, want):
    assert got.idx == want.idx
    for name in CF_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def outcome(fn, pair):
    try:
        return fn(pair)
    except gw.GwgaussError as exc:
        return type(exc), str(exc)


def demo_pair(p1, p2, seed):
    # demo-random's F F.T + 1e-9 I, whose smallest eigenvalue is near the floor
    f = np.random.default_rng(seed).standard_normal((p1 + p2, p1 + p2))
    return gw.JointGaussianPair.from_joint(f @ f.T + 1e-9 * np.eye(p1 + p2), p1)


def rotated(pair, rng):
    """The pair in random orthonormal bases, which keep the spectra."""
    t1 = np.linalg.qr(rng.standard_normal((pair.p1, pair.p1)))[0]
    t2 = np.linalg.qr(rng.standard_normal((pair.p2, pair.p2)))[0]
    return gw.JointGaussianPair(
        t1 @ pair.q11 @ t1.T, t2 @ pair.q22 @ t2.T, t1 @ pair.q12 @ t2.T
    )


def bit_identity_pairs():
    rng = np.random.default_rng(2411)
    pairs = [random_pair(rng, p1, p2) for p1, p2 in ((5, 3), (3, 7), (1, 1))]
    # one identical and one private component on each side
    pairs.append(rotated(diag_cross_pair([1.0 - 1e-8, 0.6, 0.0], 4, 5), rng))
    pairs.append(rotated(diag_cross_pair([0.7, 1e-12], 2, 6), rng))
    for p1, p2 in ((4, 3), (16, 16), (63, 64), (64, 64), (64, 128), (128, 128)):
        pairs += [random_pair(rng, p1, p2), demo_pair(p1, p2, p1 * 1000 + p2)]
    return pairs


def test_decompose_is_bit_identical_to_the_validated_path():
    pairs = bit_identity_pairs()
    results = []
    for pair in pairs:
        want = outcome(validated_decompose, pair)
        got = outcome(gw.decompose, pair)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_bits(got, want)
        results.append(got)
    assert results[3].idx == gw.IndexSextuple(1, 1, 2, 1, 1, 3)
    assert results[4].idx == gw.IndexSextuple(0, 1, 1, 0, 1, 5)
    assert sum(isinstance(r, tuple) for r in results) <= 2


def tight_pair(cond, rng, p=12):
    """Equal marginals U diag(lam) U.T and cross block U diag(lam s) U.T,
    the top s on the smallest lam, so the joint spectrum is lam (1 -+ s),
    its condition number is ``cond`` and the certificate's lower bound is
    its smallest eigenvalue."""
    lam = np.geomspace(1.0, 1e-3, p)
    s = rng.uniform(0.0, 0.9, p)
    s[-1] = 1.0 - np.max(lam[:-1] * (1.0 + s[:-1])) / (lam[-1] * cond)
    u = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return gw.JointGaussianPair((u * lam) @ u.T, (u * lam) @ u.T, (u * lam * s) @ u.T)


def spectrum_pairs():
    """Pairs whose joint condition numbers run from 1e9 to 1e11 across the
    1e-10 floor, and pairs each marginal or cross block of which is bad."""
    rng = np.random.default_rng(907)
    pairs = []
    for cond in np.geomspace(1e9, 1e11, 13):
        # a generic joint spectrum from 1 down to 1 / cond
        v = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        q = (v * np.geomspace(1.0, 1.0 / cond, 12)) @ v.T
        pairs += [gw.JointGaussianPair.from_joint(symmetrize(q), 5), tight_pair(cond, rng)]
    good = random_pair(rng, 3, 2)
    q11, q22, q12 = good.q11, good.q22, good.q12
    indefinite = q11.copy()
    indefinite[0, 0] = -1.0
    pairs.append(gw.JointGaussianPair(indefinite, q22, q12))
    # PD marginals, raw canonical correlation above 1
    pairs.append(gw.JointGaussianPair(np.eye(2), np.eye(2), np.diag([1.2, 0.3])))
    pairs.append(gw.JointGaussianPair(np.eye(2), np.eye(2), np.diag([1.0 + 1e-9, 0.3])))
    for block in (0, 1):
        asym = [q11.copy(), q22.copy()]
        asym[block][0, 1] += 1e-3
        pairs.append(gw.JointGaussianPair(*asym, q12))
    for bad in (math.nan, math.inf):
        for k in (0, 2):
            blocks = [q11.copy(), q22, q12.copy()]
            blocks[k][0, 1] = bad
            pairs.append(gw.JointGaussianPair(*blocks))
    pairs.append(gw.JointGaussianPair(np.zeros((0, 0)), q22, np.zeros((0, 2))))
    return pairs


def test_decompose_accepts_and_rejects_as_validated():
    verdicts = []
    for pair in spectrum_pairs():
        want = outcome(validated_decompose, pair)
        got = outcome(gw.decompose, pair)
        if isinstance(want, tuple):
            assert got == want
            verdicts.append(want[0].__name__)
        else:
            assert_same_bits(got, want)
            verdicts.append("ok")
    # both verdicts occur across the floor, and each error class a bad block gives
    assert {"ok", "NotPositiveDefinite", "AsymmetricMatrix", "DimensionMismatch"} <= set(verdicts)
    assert verdicts[:2] == ["ok", "ok"] and verdicts[24:26] == ["NotPositiveDefinite"] * 2


def count_joint_eigvalsh(monkeypatch, pair):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a)[0] == pair.p1 + pair.p2:
            calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    gw.decompose(pair)
    monkeypatch.undo()
    return len(calls)


def test_joint_eigensolve_runs_only_near_the_floor(monkeypatch):
    rng = np.random.default_rng(5)
    assert count_joint_eigvalsh(monkeypatch, random_pair(rng, 64, 64)) == 0
    # above the floor by less than the certificate's factor 2: the fallback
    # eigensolves the joint and accepts
    assert count_joint_eigvalsh(monkeypatch, tight_pair(6e9, rng)) == 1
    assert count_joint_eigvalsh(monkeypatch, tight_pair(3e9, rng)) == 0


def test_decompose_starts_no_thread():
    code = "\n".join([
        "import sys, threading",
        "import numpy as np",
        "import gwgauss as gw",
        "f = np.random.default_rng(1).standard_normal((256, 256))",
        "q = f @ f.T + 128 * np.eye(256)",
        "gw.decompose(gw.JointGaussianPair.from_joint(q, 128))",
        "assert 'concurrent.futures' not in sys.modules",
        "assert threading.active_count() == 1, threading.enumerate()",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
