"""Monte Carlo validation of realizations against their target covariances.

The checks are deliberately model-free: empirical second moments of the
drawn rows are compared with the analytic target, the conditional
independence of the two branches given the state is measured through the
plug-in residual ``Q12 - Q1W QW^{-1} QW2``, and the plug-in mutual
information of the empirical pair covariance gives a consistency estimate
whose error shrinks like N^{-1/2}.  Both errors are also reported in
units of their own standard deviation at N rows.

The raw second moments and squared reconstruction errors are summed chunk
by chunk over the spans of :func:`gwgauss.realize.chunk_spans`, in order.
So :func:`validate_stream`, which draws the chunks one window at a time and
never holds the (N, p) block, reports what :func:`validate_realization`
reports on the block, bit for bit, in memory that does not grow with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingReconstruction, TooFewSamples
from .gaussmodel import gaussian_mi, symmetrize
from .realize import SampleBlock, chunk_spans, sample_chunks

MIN_SAMPLES = 1000


@dataclass(frozen=True, eq=False)
class ValidationReport:
    n_samples: int
    cov_rel_err: float
    ci_residual: float
    mi_plugin: float
    cov_err_sigmas: float
    ci_residual_sigmas: float
    distortion_errs: tuple[float, float] | None = None


def moment_variance(target: np.ndarray, n: int) -> np.ndarray:
    """Variance of each entry of the raw second-moment matrix of ``n``
    zero-mean Gaussian rows with covariance ``target``:
    ``(T_ii T_jj + T_ij^2) / n``."""
    diag = np.diag(target)
    return (np.outer(diag, diag) + target * target) / n


def _given_state(q: np.ndarray, a: slice, b: slice, p: int) -> np.ndarray:
    """Block (a, b) of a (Y1, Y2, W) covariance given W, whose rows start
    at ``p``: ``Q_ab - Q_aW Q_W^{-1} Q_Wb``, or ``Q_ab`` with no state."""
    if q.shape[0] == p:
        return q[a, b]
    return q[a, b] - q[a, p:] @ np.linalg.solve(q[p:, p:], q[p:, b])


def _residual_scale(target: np.ndarray, p1: int, p2: int, n: int) -> np.ndarray:
    """Standard deviation of each entry of the plug-in conditional
    independence residual at ``n`` rows, ``sqrt(Q_{Z1,ii} Q_{Z2,jj} / n)``.

    Entry (i, j) of the residual is an empirical covariance of the
    independent noises Z1_i and Z2_j, whose variances are the diagonals of
    the target's conditional covariances ``Q_{Zk} = T_kk - T_kW T_W^{-1}
    T_Wk``, or of ``T_kk`` when there is no state block.  Roundoff below 0
    counts as 0.
    """
    y1, y2 = slice(0, p1), slice(p1, p1 + p2)
    v1, v2 = (
        np.clip(np.diag(_given_state(target, y, y, p1 + p2)), 0.0, None) for y in (y1, y2)
    )
    return np.sqrt(np.outer(v1, v2) / n)


def _slices(samples: SampleBlock):
    """The block's (p, m) rows by field per chunk, as :func:`sample_chunks`."""
    fields = {k: v for k, v in vars(samples).items() if k != "n_samples" and v is not None}
    for a, b in chunk_spans(samples.n_samples):
        yield {k: v[a:b].T for k, v in fields.items()}


def _squared_errors(rows: dict) -> np.ndarray:
    """Summed squared reconstruction error of each branch over a chunk."""
    if "yhat1" not in rows or "yhat2" not in rows:
        raise MissingReconstruction("sample block carries no reconstructions")
    # one difference of the (p, m) component rows, summed without a squared copy
    diffs = (rows["y1"] - rows["yhat1"], rows["y2"] - rows["yhat2"])
    return np.array([float(np.vdot(diff, diff)) for diff in diffs])


def _relative_errors(errors: np.ndarray, n: int, targets) -> tuple[float, float]:
    """Relative error of each branch's mean squared error ``errors / n``."""
    mse = errors.tolist()
    return tuple(abs(m / n - t) / t if t > 0.0 else m / n for m, t in zip(mse, map(float, targets)))


def validate_realization(
    samples: SampleBlock,
    target,
    distortion_targets: tuple[float, float] | None = None,
) -> ValidationReport:
    """Compare empirical second moments of (Y1, Y2, W) with ``target``.

    ``target`` is the assembled covariance in that block order; the state
    block may be absent from the samples (dimension 0), in which case the
    conditional-independence residual degenerates to the raw cross block.
    When ``distortion_targets`` is given and reconstructions are present,
    the per-branch distortion errors are included.
    """
    return _validate(_slices(samples), samples.n_samples, target, distortion_targets)


def validate_stream(obj, n_samples: int, seed: int, target, distortion_targets=None):
    """``validate_realization(sample(obj, n_samples, seed), target,
    distortion_targets)``, bit for bit, from the chunks of
    :func:`sample_chunks`, so memory does not grow with ``n_samples``."""
    n = int(n_samples)
    return _validate(sample_chunks(obj, n, seed), n, target, distortion_targets)


def _validate(chunks, n: int, target, distortion_targets) -> ValidationReport:
    """The report on the chunk-ordered sums over ``chunks``, ``n`` rows in
    all; the row count is checked before the first chunk is drawn."""
    if n < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} rows, got {n}")
    moments = errors = 0
    for chunk in chunks:
        # the sampler's joint rows, else the Y1, Y2 and W rows stacked
        x = chunk.get("joint")
        if x is None:
            x = np.concatenate([chunk[k] for k in ("y1", "y2", "w") if k in chunk])
        moments = moments + x @ x.T
        if distortion_targets is not None:
            errors = errors + _squared_errors(chunk)
    t = np.asarray(target, dtype=float)
    if t.shape != moments.shape:
        raise DimensionMismatch(f"target has shape {t.shape}, samples imply {moments.shape}")
    p1, p2 = len(chunk["y1"]), len(chunk["y2"])
    # sources are zero mean by construction, so use raw second moments
    emp = symmetrize(moments / n)
    diff = float(np.linalg.norm(emp - t))
    denom = float(np.linalg.norm(t))
    cov_rel_err = diff / denom if denom > 0.0 else diff
    # cov_rel_err has standard deviation sqrt(var_sum) / ||T||_F
    var_sum = float(np.sum(moment_variance(t, n)))

    resid = np.abs(_given_state(emp, slice(0, p1), slice(p1, p1 + p2), p1 + p2))
    ci_residual = float(np.max(resid, initial=0.0))
    scale = _residual_scale(t, p1, p2, n)
    # identical components have no noise: their entries have scale 0
    kept = scale > 0.0
    ci_residual_sigmas = float(np.max(resid[kept] / scale[kept], initial=0.0))

    mi_plugin = gaussian_mi(emp[: p1 + p2, : p1 + p2], (p1, p2))

    errs = None
    if distortion_targets is not None:
        errs = _relative_errors(errors, n, distortion_targets)
    return ValidationReport(
        n_samples=n,
        cov_rel_err=cov_rel_err,
        ci_residual=ci_residual,
        mi_plugin=mi_plugin,
        cov_err_sigmas=cov_rel_err * denom / math.sqrt(var_sum) if var_sum > 0.0 else math.inf,
        ci_residual_sigmas=ci_residual_sigmas,
        distortion_errs=errs,
    )


def validate_distortion(
    samples: SampleBlock, target1: float, target2: float
) -> tuple[float, float]:
    """Relative error of the mean squared reconstruction error per branch.

    A zero target switches to absolute error (degenerate passthrough).
    """
    errors = sum(map(_squared_errors, _slices(samples)))
    return _relative_errors(errors, samples.n_samples, (target1, target2))
