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

Sampling derives one random stream per role from the master seed, by
``SeedSequence(seed, spawn_key=(i,))`` with i the role's index in
``_STREAMS``, and draws each as an (N, p) standard normal matrix, one row
per sample.  The rows are therefore prefix-stable in N, and no role's draws
depend on the dimensions of another.  The role streams are drawn on
parallel lanes, one thread per usable core, each stream in chunks of a
fixed number of rows; the arithmetic that combines them then runs on the
lanes over column chunks.  Neither changes the draw-to-entry map, the
prefix stability or any output bit.  With ``G(0, Q) = G Q^{1/2}`` for the
symmetric square root:

- a family realization draws W, Z1 and Z2 from ``w``, ``z1`` and ``z2``;
- the optimal state draws the identical coordinates from ``w``,
  ``Y12 = G1`` from ``z1``, ``Y22 = d G1 + sqrt(1 - d^2) G2`` with G2 from
  ``z2``, V from ``v`` and the private parts of Y1 and Y2 from ``p1`` and
  ``p2``; then ``Z_i2 = Y_i2 - sqrt(d) W2`` and the private parts are their
  own noise;
- a test channel reuses its family draws and adds V1, V2 from ``v1``,
  ``v2``.

Blocks are built component-major: Y1, Y2 and W are consecutive (p, N) rows
of one buffer, and every field of a :class:`SampleBlock` is the transpose
of such rows, a Fortran-ordered (N, p) view.
"""

from __future__ import annotations

import collections
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationOutOfRange, DimensionMismatch, NotPositiveDefinite
from .gaussmodel import CovMatrix, GaussianTriple, JointGaussianPair, symmetrize
from .cvf import IndexSextuple, canonical_cross_pattern
from .wyner import as_state_covariance, assert_in_state_family

_STREAMS = {"w": 0, "z1": 1, "z2": 2, "v": 3, "v1": 4, "v2": 5, "p1": 6, "p2": 7}
# rows of a stream drawn per chunk, and columns per chunk of the combine
_CHUNK = 32768
# (pid, executor) of the lane pool; a forked child makes its own
_POOL = None
_POOL_LOCK = threading.Lock()


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


def _on_lanes(tasks) -> None:
    """Run the callables ``tasks`` on the lane pool and wait for all of them.

    The pool is process-wide, made on first use in each process with one
    lane per usable core, because numpy's generators and array kernels
    release the interpreter lock while they fill.  Nothing traced runs on a
    lane.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            lanes = (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1
            )
            _POOL = os.getpid(), ThreadPoolExecutor(lanes, thread_name_prefix="gwgauss-lane")
        futures = [_POOL[1].submit(task) for task in tasks]
    for f in futures:
        f.exception()  # every lane is done before any failure is raised
    for f in futures:
        f.result()


def _chunks(n: int):
    """Consecutive (a, b) ranges over n rows or columns, ``_CHUNK`` long
    except the last.  A lone trailing column joins the chunk before it:
    numpy multiplies a single column by a matrix-vector product, which
    rounds differently from the matrix product of the whole block."""
    edges = [*range(0, n, _CHUNK), n]
    if n > 1 and n % _CHUNK == 1:
        del edges[-2]
    return zip(edges, edges[1:])


def _draw(seed: int, jobs) -> None:
    """Fill the rows of every job ``(stream, root or None, out)`` from its
    role stream: the (k, N) rows ``out`` become ``root @ G.T``, or ``G.T``
    when ``root`` is None, for the stream's (N, k) standard normals G.

    G is drawn chunk by chunk.  Each lane takes the next stream in turn,
    draws one chunk of it and puts it back, so the lanes stay busy until
    fewer streams than lanes have chunks left.  A stream is with one lane
    at a time and its chunks are consecutive, so sample r takes draws
    r k .. r k + k - 1 whatever N is, and the first rows of a longer draw
    are the same.
    """
    n = jobs[0][2].shape[1]
    width = max(out.shape[0] for _, _, out in jobs)
    todo = collections.deque(
        (_rng(seed, stream), root, out, _chunks(n))
        for stream, root, out in jobs
        if out.shape[0]
    )
    lock = threading.Lock()

    def lane():
        scratch = np.empty(min(n, _CHUNK + 1) * width)
        while True:
            with lock:
                if not todo:
                    return
                job = todo.popleft()
            rng, root, out, chunks = job
            ab = next(chunks, None)
            if ab is None:
                continue
            a, b = ab
            gt = rng.standard_normal(out=scratch[: (b - a) * out.shape[0]].reshape(b - a, -1)).T
            if root is None:
                out[:, a:b] = gt
            else:
                np.matmul(root, gt, out=out[:, a:b])
            with lock:
                todo.append(job)

    _on_lanes([lane] * len(todo))


def _by_columns(n_samples: int, combine) -> None:
    """Run ``combine(cols)`` over the column slices of :func:`_chunks` on
    the lanes; the combine must be elementwise or per column."""
    _on_lanes(functools.partial(combine, slice(a, b)) for a, b in _chunks(n_samples))


def sample(obj, n_samples: int, seed: int) -> SampleBlock:
    """Draw ``n_samples`` rows from a realization, state, or test channel.

    Every field of the block is the transpose of component-major (p, N)
    rows, and Y1, Y2 and W are consecutive rows of one buffer.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise DimensionMismatch("need at least one sample")
    if isinstance(obj, CIRealization):
        return _sample_family(obj, n_samples, seed)
    if isinstance(obj, OptimalState):
        return _sample_optimal(obj, n_samples, seed)
    if isinstance(obj, TestChannel):
        return _sample_family(family_realization(obj.d, obj.qw), n_samples, seed, obj)
    raise TypeError(f"cannot sample object of type {type(obj).__name__}")


def _block(x: np.ndarray, p1: int, p2: int, **rows) -> SampleBlock:
    """A block over the (Y1; Y2; W) buffer ``x`` and further (p, N) rows."""
    return SampleBlock(
        n_samples=x.shape[1],
        y1=x[:p1].T,
        y2=x[p1 : p1 + p2].T,
        w=x[p1 + p2 :].T,
        **{k: v.T for k, v in rows.items()},
    )


def _sample_family(
    real: CIRealization, n_samples: int, seed: int, ch: TestChannel | None = None
) -> SampleBlock:
    """A family realization's block, or with ``ch`` the test channel's on
    the same source draws."""
    p1, p2 = real.c1.shape[0], real.c2.shape[0]
    x = np.empty((p1 + p2 + real.n, n_samples))
    y1, y2, w = x[:p1], x[p1 : p1 + p2], x[p1 + p2 :]
    z1, z2 = np.empty((p1, n_samples)), np.empty((p2, n_samples))
    jobs = [
        ("w", sqrt_psd(real.qw), w),
        ("z1", sqrt_psd(real.qz1), z1),
        ("z2", sqrt_psd(real.qz2), z2),
    ]
    rows = {"z1": z1, "z2": z2}
    recon = []
    if ch is not None:
        v, yhat = np.empty((2, p1 + p2, n_samples))
        jobs += [("v1", sqrt_psd(ch.qv1), v[:p1]), ("v2", sqrt_psd(ch.qv2), v[p1:])]
        recon = [
            (yhat[:p1], real.c1, ch.a1, z1, v[:p1]),
            (yhat[p1:], real.c2, ch.a2, z2, v[p1:]),
        ]
        rows.update(v=v, yhat1=yhat[:p1], yhat2=yhat[p1:])
    _draw(seed, jobs)

    def combine(s):
        for y, c, z in ((y1, real.c1, z1), (y2, real.c2, z2)):
            # Y_i = C_i W + Z_i
            np.matmul(c, w[:, s], out=y[:, s])
            y[:, s] += z[:, s]
        for yh, c, a, z, vi in recon:
            # Yhat_i = C_i W + A_i Z_i + V_i
            np.matmul(c, w[:, s], out=yh[:, s])
            yh[:, s] += a @ z[:, s]
            yh[:, s] += vi[:, s]

    _by_columns(n_samples, combine)
    return _block(x, p1, p2, **rows)


def _sample_optimal(st: OptimalState, n_samples: int, seed: int) -> SampleBlock:
    idx = st.idx
    p11, n, p1, p2 = idx.p11, st.d.size, idx.p1, idx.p2
    d, rd = st.d[:, None], np.sqrt(st.d)[:, None]
    g2_scale = np.sqrt(1.0 - d * d)
    l1, l2, l3 = st.l1[:, None], st.l2[:, None], st.l3[:, None]
    x = np.empty((p1 + p2 + p11 + n, n_samples))
    z = np.zeros((p1 + p2, n_samples))  # Z of the identical parts is 0
    v = np.empty((n, n_samples))
    # row blocks y_ij, z_ij of branch i; part j is identical (1),
    # correlated (2) or private (3); W = (W1; W2)
    y11, y12, y13 = x[:p11], x[p11 : p11 + n], x[p11 + n : p1]
    y21, y22, y23 = x[p1 : p1 + p11], x[p1 + p11 : p1 + p11 + n], x[p1 + p11 + n : p1 + p2]
    w1, w2 = x[p1 + p2 : p1 + p2 + p11], x[p1 + p2 + p11 :]
    z12, z13 = z[p11 : p11 + n], z[p11 + n : p1]
    z22, z23 = z[p1 + p11 : p1 + p11 + n], z[p1 + p11 + n :]
    _draw(seed, [("w", None, w1), ("z1", None, y12), ("z2", None, z22),
                 ("v", None, v), ("p1", None, y13), ("p2", None, y23)])

    def combine(s):
        y11[:, s] = y21[:, s] = w1[:, s]
        # Y22 = d Y12 + sqrt(1 - d^2) G2, the Z rows serving as scratch
        g2, t = z22[:, s], z12[:, s]
        g2 *= g2_scale
        np.multiply(y12[:, s], d, out=y22[:, s])
        y22[:, s] += g2
        # W2 = L1 Y12 + L2 Y22 + L3 V
        np.multiply(y12[:, s], l1, out=w2[:, s])
        w2[:, s] += np.multiply(y22[:, s], l2, out=t)
        w2[:, s] += np.multiply(v[:, s], l3, out=t)
        # Z = Y - sqrt(d) W2
        np.multiply(w2[:, s], rd, out=g2)
        np.subtract(y12[:, s], g2, out=t)
        np.subtract(y22[:, s], g2, out=g2)
        z13[:, s] = y13[:, s]
        z23[:, s] = y23[:, s]

    _by_columns(n_samples, combine)
    return _block(x, p1, p2, z1=z[:p1], z2=z[p1:], v=v)
