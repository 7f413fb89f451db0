"""Constructive realizations of the conditional-independence structure.

Given correlated canonical coefficients d and a family state covariance
Q_W, the pair can be written as

    Y1 = D^{1/2} Q_W^{-1} W + Z1,   Z1 ~ G(0, I - D^{1/2} Q_W^{-1} D^{1/2})
    Y2 = D^{1/2} W + Z2,            Z2 ~ G(0, I - D^{1/2} Q_W D^{1/2})

with (Z1, Z2, W) independent.  At Q_W = I the state achieving the common
information has the explicit form W = L1 Y1 + L2 Y2 + L3 V with diagonal
gains, and the identical components pass through as state coordinates of
their own.  The test channel attaches reconstruction noise so that each
branch meets a per-component distortion allocation while the source stays
conditionally centered on its reconstruction.

Sampling uses one master seed with a fixed stream offset per component, so
adding draws of one component never perturbs the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationOutOfRange, DimensionMismatch, NotPositiveDefinite
from .gaussmodel import CovMatrix, GaussianTriple, JointGaussianPair, symmetrize
from .cvf import IndexSextuple, canonical_cross_pattern
from .wyner import as_state_covariance, assert_in_state_family

_STREAMS = {"w": 0, "z1": 1, "z2": 2, "v": 3, "v1": 4, "v2": 5, "p1": 6, "p2": 7}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS[stream],))
    )


def sqrt_psd(q: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, clipping roundoff negatives."""
    q = symmetrize(np.asarray(q, dtype=float))
    if q.size == 0:
        return q.copy()
    w, u = np.linalg.eigh(q)
    floor = -1e-12 * max(float(w[-1]), 1.0)
    if w[0] < floor:
        raise NotPositiveDefinite(f"eigenvalue {w[0]:.3e} below PSD clipping floor")
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


@dataclass(frozen=True, eq=False)
class CIRealization:
    """Linear-plus-noise realization Y_i = C_i W + Z_i with independent parts."""

    n: int
    c1: np.ndarray
    c2: np.ndarray
    qz1: np.ndarray
    qz2: np.ndarray
    qw: np.ndarray


@dataclass(frozen=True, eq=False)
class OptimalState:
    """The information-minimizing state at Q_W = I, with its forward gains."""

    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    qz: np.ndarray
    identical_dim: int
    idx: IndexSextuple = field(repr=False)
    d: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class TestChannel:
    """Reconstruction channel meeting a per-component distortion allocation."""

    a1: np.ndarray
    a2: np.ndarray
    qv1: np.ndarray
    qv2: np.ndarray
    qe1: np.ndarray
    qe2: np.ndarray
    qz1: np.ndarray = field(repr=False)
    qz2: np.ndarray = field(repr=False)
    qw: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Matrices of zero-mean draws, one row per sample."""

    n_samples: int
    y1: np.ndarray
    y2: np.ndarray
    w: np.ndarray | None = None
    z1: np.ndarray | None = None
    z2: np.ndarray | None = None
    v: np.ndarray | None = None
    yhat1: np.ndarray | None = None
    yhat2: np.ndarray | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise DimensionMismatch("sample block needs at least one row")


def family_realization(d, q) -> CIRealization:
    """Realization of the correlated parts through a family state W."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    qw = assert_in_state_family(q, d)
    n = d.size
    rd = np.sqrt(d)
    c1 = np.linalg.solve(qw, np.diag(rd)).T
    c2 = np.diag(rd)
    qz1 = symmetrize(np.eye(n) - c1 @ np.diag(rd))
    qz2 = symmetrize(np.eye(n) - rd[:, None] * qw * rd[None, :])
    return CIRealization(n=n, c1=c1, c2=c2, qz1=qz1, qz2=qz2, qw=qw.copy())


def state_triple(d, q) -> GaussianTriple:
    """Joint covariance of (Y1, Y2, W) for the correlated parts and a family state."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    qw = assert_in_state_family(q, d)
    n = d.size
    rd = np.sqrt(d)
    pair = JointGaussianPair(CovMatrix(np.eye(n)), CovMatrix(np.eye(n)), np.diag(d))
    return GaussianTriple(
        pair=pair, qw=CovMatrix(qw), q1w=np.diag(rd), q2w=rd[:, None] * qw
    )


def optimal_state(idx: IndexSextuple, d) -> OptimalState:
    """Gains of the state achieving the common information (Q_W = I).

    The correlated-part state is W = L1 Y1 + L2 Y2 + L3 V with
    ``L1 = L2 = Diag(sqrt(d) / (1 + d))`` and
    ``L3 = Diag(sqrt((1 - d) / (1 + d)))``; identical components are state
    coordinates verbatim, private components do not enter.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.size != idx.p12:
        raise DimensionMismatch(f"p12 = {idx.p12} but {d.size} coefficients")
    l1 = np.sqrt(d) / (1.0 + d)
    l3 = np.sqrt((1.0 - d) / (1.0 + d))
    return OptimalState(
        l1=l1,
        l2=l1.copy(),
        l3=l3,
        qz=np.diag(1.0 - d),
        identical_dim=idx.p11,
        idx=idx,
        d=d,
    )


def optimal_triple_cov(idx: IndexSextuple, d) -> np.ndarray:
    """Covariance of (Y1, Y2, W) under the optimal state, including the
    identical passthrough coordinates and the private components."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    rd = np.sqrt(d)
    p1, p2 = idx.p1, idx.p2
    nw = idx.p11 + idx.p12
    dim = p1 + p2 + nw
    q = np.zeros((dim, dim))
    q[:p1, :p1] = np.eye(p1)
    q[p1 : p1 + p2, p1 : p1 + p2] = np.eye(p2)
    q[:p1, p1 : p1 + p2] = canonical_cross_pattern(idx, d)
    q1w = np.zeros((p1, nw))
    q2w = np.zeros((p2, nw))
    q1w[: idx.p11, : idx.p11] = np.eye(idx.p11)
    q2w[: idx.p21, : idx.p11] = np.eye(idx.p11)
    q1w[idx.p11 : idx.p11 + idx.p12, idx.p11 :] = np.diag(rd)
    q2w[idx.p21 : idx.p21 + idx.p22, idx.p11 :] = np.diag(rd)
    q[:p1, p1 + p2 :] = q1w
    q[p1 : p1 + p2, p1 + p2 :] = q2w
    q[p1 + p2 :, p1 + p2 :] = np.eye(nw)
    return symmetrize(q + q.T - np.diag(np.diag(q)))


def encoder_split(triple: GaussianTriple) -> CIRealization:
    """Split any jointly Gaussian triple into state gains and residual noise.

    ``Z_i = Y_i - Q_{Yi,W} Q_W^{-1} W`` is uncorrelated with W by
    construction; Z1 and Z2 are mutually uncorrelated exactly when the
    triple makes the pair conditionally independent given W.
    """
    qw = triple.qw.entries
    if triple.n == 0:
        raise DimensionMismatch("state vector must have positive dimension")
    c1 = np.linalg.solve(qw, triple.q1w.T).T
    c2 = np.linalg.solve(qw, triple.q2w.T).T
    qz1 = symmetrize(triple.pair.q11.entries - c1 @ triple.q1w.T)
    qz2 = symmetrize(triple.pair.q22.entries - c2 @ triple.q2w.T)
    return CIRealization(n=triple.n, c1=c1, c2=c2, qz1=qz1, qz2=qz2, qw=qw.copy())


def _channel_noise(qz: np.ndarray, alloc: np.ndarray, label: str):
    """Error covariance in the conditional eigenbasis plus the channel gain."""
    n = qz.shape[0]
    offdiag = np.max(np.abs(qz - np.diag(np.diag(qz))), initial=0.0)
    if offdiag <= 1e-12 * max(1.0, float(np.max(np.abs(qz)))):
        lam = np.diag(qz).copy()
        u = np.eye(n)
    else:
        lam, u = np.linalg.eigh(qz)
        lam, u = lam[::-1].copy(), u[:, ::-1].copy()
    if np.any(alloc <= 0.0) or np.any(alloc > lam + 1e-12):
        raise AllocationOutOfRange(
            f"{label}: allocations must lie in (0, conditional variance], "
            f"variances {lam}, got {alloc}"
        )
    qe = symmetrize((u * alloc) @ u.T)
    a = np.eye(n) - qe @ np.linalg.solve(qz, np.eye(n))
    qv = symmetrize(qe @ a.T)
    return a, qe, qv


def test_channel(d, q, alloc1, alloc2) -> TestChannel:
    """Reconstruction channel for both branches at a family state.

    Per branch, with conditional covariance Q_{Yi|W} (eigenvalues give the
    allocation ceiling), the channel is
    ``Yhat_i = (gain_i) W + A_i Z_i + V_i`` with
    ``A_i = I - Q_{Ei} Q_{Yi|W}^{-1}`` and ``V_i ~ G(0, Q_{Ei} A_i.T)``;
    the reconstruction error has covariance exactly Q_{Ei} and is
    uncorrelated with the reconstruction.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    qw = assert_in_state_family(q, d)
    alloc1 = np.atleast_1d(np.asarray(alloc1, dtype=float))
    alloc2 = np.atleast_1d(np.asarray(alloc2, dtype=float))
    if alloc1.size != d.size or alloc2.size != d.size:
        raise DimensionMismatch("allocations must have one entry per coefficient")
    base = family_realization(d, qw)
    a1, qe1, qv1 = _channel_noise(base.qz1, alloc1, "branch 1")
    a2, qe2, qv2 = _channel_noise(base.qz2, alloc2, "branch 2")
    return TestChannel(
        a1=a1, a2=a2, qv1=qv1, qv2=qv2, qe1=qe1, qe2=qe2,
        qz1=base.qz1, qz2=base.qz2, qw=qw.copy(), d=d.copy(),
    )


def _draw(rng: np.random.Generator, n: int, cov: np.ndarray) -> np.ndarray:
    if cov.shape[0] == 0:
        return np.zeros((n, 0))
    return rng.standard_normal((n, cov.shape[0])) @ sqrt_psd(cov).T


def sample(obj, n_samples: int, seed: int) -> SampleBlock:
    """Draw ``n_samples`` rows from a realization, state, or test channel."""
    n_samples = int(n_samples)
    if n_samples < 1:
        raise DimensionMismatch("need at least one sample")
    if isinstance(obj, CIRealization):
        w = _draw(_rng(seed, "w"), n_samples, obj.qw)
        z1 = _draw(_rng(seed, "z1"), n_samples, obj.qz1)
        z2 = _draw(_rng(seed, "z2"), n_samples, obj.qz2)
        return SampleBlock(
            n_samples=n_samples,
            y1=w @ obj.c1.T + z1,
            y2=w @ obj.c2.T + z2,
            w=w, z1=z1, z2=z2,
        )
    if isinstance(obj, OptimalState):
        return _sample_optimal(obj, n_samples, seed)
    if isinstance(obj, TestChannel):
        return _sample_channel(obj, n_samples, seed)
    raise TypeError(f"cannot sample object of type {type(obj).__name__}")


def _sample_optimal(st: OptimalState, n_samples: int, seed: int) -> SampleBlock:
    idx, d = st.idx, st.d
    rd = np.sqrt(d)
    w1 = _rng(seed, "w").standard_normal((n_samples, idx.p11))
    g1 = _rng(seed, "z1").standard_normal((n_samples, d.size))
    g2 = _rng(seed, "z2").standard_normal((n_samples, d.size))
    v = _rng(seed, "v").standard_normal((n_samples, d.size))
    y12 = g1
    y22 = g1 * d + g2 * np.sqrt(1.0 - d * d)
    w2 = y12 * st.l1 + y22 * st.l2 + v * st.l3
    z12 = y12 - w2 * rd
    z22 = y22 - w2 * rd
    y13 = _rng(seed, "p1").standard_normal((n_samples, idx.p13))
    y23 = _rng(seed, "p2").standard_normal((n_samples, idx.p23))
    zero1 = np.zeros((n_samples, idx.p11))
    return SampleBlock(
        n_samples=n_samples,
        y1=np.hstack([w1, y12, y13]),
        y2=np.hstack([w1, y22, y23]),
        w=np.hstack([w1, w2]),
        z1=np.hstack([zero1, z12, y13]),
        z2=np.hstack([zero1, z22, y23]),
        v=v,
    )


def _sample_channel(ch: TestChannel, n_samples: int, seed: int) -> SampleBlock:
    real = family_realization(ch.d, ch.qw)
    base = sample(real, n_samples, seed)
    v1 = _draw(_rng(seed, "v1"), n_samples, ch.qv1)
    v2 = _draw(_rng(seed, "v2"), n_samples, ch.qv2)
    return SampleBlock(
        n_samples=n_samples,
        y1=base.y1,
        y2=base.y2,
        w=base.w, z1=base.z1, z2=base.z2,
        v=np.hstack([v1, v2]),
        yhat1=base.w @ real.c1.T + base.z1 @ ch.a1.T + v1,
        yhat2=base.w @ real.c2.T + base.z2 @ ch.a2.T + v2,
    )
