"""Reference computations for the benchmark's output checks.

Every function here is written from the formulas alone and imports nothing
from ``gwgauss``, so a check built on them does not share code with the
program it checks.  All rates are in nats.
"""

from __future__ import annotations

import math

import numpy as np


def waterfill(variances, delta: float):
    """Exact sorted reverse water-fill of independent Gaussian components.

    Returns ``(rate, alloc, level)`` with ``alloc_j = min(level, v_j)``,
    ``sum(alloc) = delta`` and ``rate = sum_{v_j > level} 0.5 log(v_j / level)``.
    Sorting once fixes the saturated set: with the ``k`` smallest variances
    saturated, the level is ``(delta - sum of those k) / (m - k)``.
    """
    v = np.asarray(variances, dtype=float).ravel()
    m = v.size
    total = float(v.sum())
    if m == 0 or delta >= total:
        return 0.0, v.copy(), float(v.max(initial=0.0))
    s = np.sort(v)
    below = np.concatenate([[0.0], np.cumsum(s)[:-1]])
    levels = (delta - below) / (m - np.arange(m))
    # the first k whose level does not exceed the next variance
    ok = levels <= s
    k = int(np.argmax(ok))
    level = float(levels[k])
    alloc = np.minimum(v, level)
    active = v > level
    rate = float(0.5 * np.sum(np.log(v[active] / level)))
    return rate, alloc, level


def diag_state_info(d, q) -> float:
    """``I(Y1, Y2; W)`` at a diagonal family state, the O(n) closed form
    ``0.5 sum[log(1 - d^2) - log(1 - d/q) - log(1 - d q)]``."""
    d = np.asarray(d, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(
        0.5 * np.sum(np.log1p(-d * d) - np.log1p(-d / q) - np.log1p(-d * q))
    )


def branch_variances(d, q):
    """Conditional variances of the two branches given a diagonal state:
    ``1 - d/q`` (branch 1) and ``1 - d q`` (branch 2), clipped at 0."""
    d = np.asarray(d, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.clip(1.0 - d / q, 0.0, None), np.clip(1.0 - d * q, 0.0, None)


def sweep_objective(d, q, delta1: float, delta2: float, a1: float, a2: float):
    """``(T, R0, R1, R2)`` of the weighted rate at a diagonal state."""
    v1, v2 = branch_variances(d, q)
    r0 = diag_state_info(d, q)
    r1 = waterfill(v1, delta1)[0]
    r2 = waterfill(v2, delta2)[0]
    return r0 + a1 * r1 + a2 * r2, r0, r1, r2


def common_information(d) -> float:
    """``0.5 sum log((1 + d) / (1 - d))`` over the correlated coefficients."""
    d = np.asarray(d, dtype=float)
    return float(0.5 * np.sum(np.log1p(d) - np.log1p(-d)))


def dw_bound(d) -> float:
    """Edge ``n (1 - d_max)`` of the square region where equal split is optimal."""
    d = np.asarray(d, dtype=float)
    return d.size * (1.0 - float(d.max())) if d.size else math.inf


def dw_joint_rate(d, delta1: float, delta2: float) -> float:
    """Closed-form joint rate on ``D_W``: ``0.5 sum log((1 - d^2) n^2 / (delta1 delta2))``."""
    d = np.asarray(d, dtype=float)
    n = d.size
    return float(0.5 * np.sum(np.log1p(-d * d) + math.log(n * n / (delta1 * delta2))))


def gray_lower_bound(d, delta1: float, delta2: float) -> float:
    """Gray's bound ``R_{Y1}(delta1) + R_{Y2|Y1}(delta2)`` in canonical coordinates."""
    d = np.asarray(d, dtype=float)
    return waterfill(np.ones(d.size), delta1)[0] + waterfill(1.0 - d * d, delta2)[0]


def allocation_rate(d, a1, a2) -> float:
    """Rate of an independent-error allocation pair,
    ``0.5 sum[log(1 - d^2) - log a1 - log a2]``."""
    d = np.asarray(d, dtype=float)
    return float(0.5 * np.sum(np.log1p(-d * d) - np.log(a1) - np.log(a2)))


def feasible_allocation_bound(d, delta1: float, delta2: float) -> float:
    """Rate at the feasible allocation ``a_ij = min(delta_i / n, 1 - d_j)``.

    Each pair meets its cap, since ``(1 - a1)(1 - a2) >= d^2`` whenever both
    allocations are at most ``1 - d``, and each budget holds, so the value
    bounds the independent-error program from above.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    a1 = np.minimum(delta1 / n, 1.0 - d)
    a2 = np.minimum(delta2 / n, 1.0 - d)
    return allocation_rate(d, a1, a2)


def canonical_correlations(q11, q22, q12) -> np.ndarray:
    """Canonical correlations by the eigenvalue route, descending.

    Whitens both blocks with Cholesky factors and takes the square roots of
    the eigenvalues of ``M M.T`` with ``M = L1^{-1} Q12 L2^{-T}``, which are
    those of ``Q11^{-1} Q12 Q22^{-1} Q12.T``.  Returns the top ``min(p1, p2)``.
    """
    return np.sqrt(squared_canonical_correlations(q11, q22, q12))


def squared_canonical_correlations(q11, q22, q12) -> np.ndarray:
    """Eigenvalues of ``Q11^{-1} Q12 Q22^{-1} Q12.T``, descending, top ``min(p1, p2)``."""
    q11 = np.asarray(q11, dtype=float)
    q22 = np.asarray(q22, dtype=float)
    q12 = np.asarray(q12, dtype=float)
    l1 = np.linalg.cholesky(0.5 * (q11 + q11.T))
    l2 = np.linalg.cholesky(0.5 * (q22 + q22.T))
    m = np.linalg.solve(l1, np.linalg.solve(l2, q12.T).T)
    ev = np.linalg.eigvalsh(m @ m.T)[::-1]
    return np.clip(ev[: min(q11.shape[0], q22.shape[0])], 0.0, 1.0)


def gaussian_mi(q, nx: int) -> float:
    """Exact ``I(X; Y)`` of a joint covariance split after ``nx`` rows;
    ``inf`` when the joint block is singular with regular marginals."""
    q = np.asarray(q, dtype=float)
    sx, ldx = np.linalg.slogdet(q[:nx, :nx])
    sy, ldy = np.linalg.slogdet(q[nx:, nx:])
    s, ld = np.linalg.slogdet(q)
    if s <= 0.0 or not np.isfinite(ld):
        return math.inf
    return float(0.5 * (ldx + ldy - ld))


def grid_min_n1(d: float, delta1: float, delta2: float, a1: float, a2: float,
                points: int = 2001, levels: int = 4) -> float:
    """Minimum over ``q`` in ``[d, 1/d]`` of the n = 1 sweep objective.

    A log-spaced grid is refined ``levels`` times around its best point; the
    objective is continuous and piecewise smooth, so the final spacing
    (about ``points^-levels`` of the interval in log scale) bounds the gap.
    """
    lo, hi = math.log(d), -math.log(d)
    best = math.inf
    for _ in range(levels):
        x = np.exp(np.linspace(lo, hi, points))[1:-1]
        v1 = 1.0 - d / x
        v2 = 1.0 - d * x
        r0 = 0.5 * (math.log1p(-d * d) - np.log(v1) - np.log(v2))
        r1 = np.where(v1 > delta1, 0.5 * np.log(np.maximum(v1, delta1) / delta1), 0.0)
        r2 = np.where(v2 > delta2, 0.5 * np.log(np.maximum(v2, delta2) / delta2), 0.0)
        t = r0 + a1 * r1 + a2 * r2
        k = int(np.argmin(t))
        best = min(best, float(t[k]))
        step = (hi - lo) / (points - 1)
        c = math.log(x[k])
        lo, hi = max(lo, c - 2 * step), min(hi, c + 2 * step)
    return best


def state_triple_cov(d, qw) -> np.ndarray:
    """Covariance of ``(Y1, Y2, W)`` for the correlated parts at a family state:
    ``Cov(Y1, W) = D^{1/2}``, ``Cov(Y2, W) = D^{1/2} Q_W``, ``Cov(Y1, Y2) = D``."""
    d = np.asarray(d, dtype=float)
    qw = np.asarray(qw, dtype=float)
    n = d.size
    rd = np.diag(np.sqrt(d))
    eye = np.eye(n)
    return np.block([
        [eye, np.diag(d), rd],
        [np.diag(d), eye, rd @ qw],
        [rd, qw @ rd, qw],
    ])


def optimal_triple_cov(p11: int, d, p13: int, p23: int) -> np.ndarray:
    """Covariance of ``(Y1, Y2, W)`` under the information-minimizing state.

    Coordinates are ordered identical, correlated, private on each side; the
    state holds the identical coordinates verbatim and one unit-variance
    coordinate per correlated pair with ``Cov(Y_i, W) = sqrt(d)``.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    p1, p2, nw = p11 + n + p13, p11 + n + p23, p11 + n
    q = np.eye(p1 + p2 + nw)
    for i in range(p11):
        q[i, p1 + i] = q[p1 + i, i] = 1.0
        q[i, p1 + p2 + i] = q[p1 + p2 + i, i] = 1.0
        q[p1 + i, p1 + p2 + i] = q[p1 + p2 + i, p1 + i] = 1.0
    for j in range(n):
        a, b, w = p11 + j, p1 + p11 + j, p1 + p2 + p11 + j
        q[a, b] = q[b, a] = d[j]
        q[a, w] = q[w, a] = q[b, w] = q[w, b] = math.sqrt(d[j])
    return q
