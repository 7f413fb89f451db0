"""Monte Carlo validation of realizations against their target covariances.

The checks are deliberately model-free: empirical second moments of the
drawn rows are compared with the analytic target, the conditional
independence of the two branches given the state is measured through the
plug-in residual ``Q12 - Q1W QW^{-1} QW2``, and the plug-in mutual
information of the empirical pair covariance gives a consistency estimate
whose error shrinks like N^{-1/2}.  Both errors are also reported in
units of their own standard deviation at N rows.

Blocks from :func:`gwgauss.sample` are component-major: Y1, Y2 and W are
consecutive (p, N) rows of one buffer, and the empirical covariance is one
product of those rows with their transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingReconstruction, TooFewSamples
from .gaussmodel import CovMatrix, gaussian_mi, symmetrize
from .realize import SampleBlock

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


def _component_rows(samples: SampleBlock, widths: list[int]) -> np.ndarray:
    """The (p1 + p2 + nw, N) rows of Y1, Y2 and W: the sampler's buffer
    when the fields are its consecutive rows, else a stacked copy."""
    fields = [samples.y1, samples.y2, samples.w][: len(widths)]
    x = fields[0].base
    edges = np.cumsum([0, *widths])
    if isinstance(x, np.ndarray) and x.shape[0] == edges[-1] and all(
        f.__array_interface__ == x[a:b].T.__array_interface__
        for f, a, b in zip(fields, edges, edges[1:])
    ):
        return x
    return np.vstack([f.T for f in fields])


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
    n = samples.n_samples
    if n < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} rows, got {n}")
    t = target.entries if isinstance(target, CovMatrix) else np.asarray(target, dtype=float)
    p1 = samples.y1.shape[1]
    p2 = samples.y2.shape[1]
    nw = samples.w.shape[1] if samples.w is not None else 0
    if t.shape != (p1 + p2 + nw, p1 + p2 + nw):
        raise DimensionMismatch(
            f"target has shape {t.shape}, samples imply {(p1 + p2 + nw,) * 2}"
        )
    x = _component_rows(samples, [p1, p2] + ([nw] if nw else []))
    # sources are zero mean by construction, so use raw second moments
    emp = symmetrize(x @ x.T / x.shape[1])
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
        errs = validate_distortion(samples, *distortion_targets)
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
    if samples.yhat1 is None or samples.yhat2 is None:
        raise MissingReconstruction("sample block carries no reconstructions")

    def _err(y, yhat, target):
        # one difference of the (p, N) component rows, summed without a
        # squared copy in component-major order whatever the block's layout
        diff = y.T - yhat.T
        mse = float(np.vdot(diff, diff)) / diff.shape[1]
        return abs(mse - target) / target if target > 0.0 else mse

    return (
        _err(samples.y1, samples.yhat1, float(target1)),
        _err(samples.y2, samples.yhat2, float(target2)),
    )
