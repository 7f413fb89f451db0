"""Reference oracles for the test suite.

Each function is written from its formula with numpy alone and imports
nothing from ``gwgauss`` (``tests/test_layout.py`` checks that), so a test
that holds the package to one of them does not share the package's code
paths.  Each raises ``ValueError`` when its premises fail, so a bad input
cannot turn into a number.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def _sym(q: np.ndarray) -> np.ndarray:
    return 0.5 * (q + q.T)


def _coefficients(d) -> np.ndarray:
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.all((d > 0.0) & (d < 1.0)):
        raise ValueError("coefficients must lie in (0, 1)")
    return d


def canonical_correlations(q, p1: int) -> np.ndarray:
    """Canonical correlations of the pair split from the joint covariance
    ``q`` after ``p1`` rows, by the eigenvalue route.

    They are the square roots of the eigenvalues of
    ``Q11^{-1} Q12 Q22^{-1} Q12.T`` (top ``min(p1, p2)``, descending).
    With ``Q11 = L L.T`` (Cholesky) that matrix is similar to the symmetric
    ``L^{-1} Q12 Q22^{-1} Q12.T L^{-T}``, whose spectrum is real.
    """
    q = _sym(np.asarray(q, dtype=float))
    q11, q22, q12 = q[:p1, :p1], q[p1:, p1:], q[:p1, p1:]
    k = np.linalg.solve(np.linalg.cholesky(q11), q12)
    ev = np.linalg.eigvalsh(_sym(k @ np.linalg.solve(q22, k.T)))
    return np.sqrt(np.clip(ev, 0.0, None))[::-1][: min(q11.shape[0], q22.shape[0])].copy()


def check_hua_identity(a, b) -> float:
    """Max-abs residual of the matrix identity

    ``(I - A A.T) - (I - A B.T)(I - B B.T)^{-1}(I - A B.T).T
      = -(A - B)(I - B.T B)^{-1}(A - B).T``

    which holds for any square A and full-rank B with ``I - B.T B``
    nonsingular (for square B that makes ``I - B B.T`` nonsingular too,
    since the two Gram products share a spectrum).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square shapes, got {a.shape} and {b.shape}")
    n = a.shape[0]
    sv = np.linalg.svd(b, compute_uv=False)
    if sv.size and sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise ValueError("B must have full rank")
    m_right = np.eye(n) - b.T @ b
    ev = np.linalg.eigvalsh(_sym(m_right))
    if np.min(np.abs(ev)) <= 1e-12 * max(np.max(np.abs(ev)), 1.0):
        raise ValueError("I - B.T B must be nonsingular")
    m_left = np.eye(n) - b @ b.T
    cross = np.eye(n) - a @ b.T
    lhs = (np.eye(n) - a @ a.T) - cross @ np.linalg.solve(m_left, cross.T)
    rhs = -(a - b) @ np.linalg.solve(m_right, (a - b).T)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


class HuaInequalityCheck(NamedTuple):
    """Both sides of the determinant inequality at a family point."""

    lhs: float
    rhs: float
    holds: bool
    equality: bool


def _family_state(d: np.ndarray, q) -> np.ndarray:
    """``q`` as a float matrix; ``ValueError`` unless it is a symmetric
    n x n member of ``D <= Q <= D^{-1}``, up to ``1e-10 max(1/d)``."""
    n = d.size
    qw = np.asarray(q, dtype=float)
    if qw.shape != (n, n) or np.max(np.abs(qw - qw.T), initial=0.0) > 1e-10 * (
        1.0 + np.max(np.abs(qw), initial=0.0)
    ):
        raise ValueError(f"state must be a symmetric {n} x {n} matrix")
    tol = 1e-10 * float(np.max(1.0 / d))
    if (np.linalg.eigvalsh(_sym(qw) - np.diag(d))[0] < -tol
            or np.linalg.eigvalsh(np.diag(1.0 / d) - _sym(qw))[0] < -tol):
        raise ValueError("state outside Diag(d) <= Q <= Diag(d)^{-1}")
    return qw


def check_hua_inequality(d, q) -> HuaInequalityCheck:
    """Evaluate ``det(M1) det(M2) <= det(I - D)^2`` at a family point Q,
    ``D <= Q <= D^{-1}`` up to ``1e-10 max(1/d)``, where
    ``M1 = I - D^{1/2} Q^{-1} D^{1/2}`` and ``M2 = I - D^{1/2} Q D^{1/2}``.

    The inequality is strict except at ``Q = I``; ``equality`` reports
    whether Q is within ``1e-8`` of the identity.
    """
    d = _coefficients(d)
    n = d.size
    qw = _family_state(d, q)
    rd = np.sqrt(d)
    m1 = np.eye(n) - rd[:, None] * np.linalg.inv(qw) * rd[None, :]
    m2 = np.eye(n) - rd[:, None] * qw * rd[None, :]
    ev1 = np.clip(np.linalg.eigvalsh(_sym(m1)), 0.0, None)
    ev2 = np.clip(np.linalg.eigvalsh(_sym(m2)), 0.0, None)
    lhs = float(np.prod(ev1) * np.prod(ev2))
    rhs = float(np.prod((1.0 - d) ** 2))
    near_identity = float(np.max(np.abs(qw - np.eye(n)), initial=0.0)) <= 1e-8
    return HuaInequalityCheck(lhs, rhs, bool(lhs <= rhs + 1e-12), near_identity)


def sample_state_matrix(d, rng: np.random.Generator) -> np.ndarray:
    """Draw a random member of the state family ``D <= Q <= D^{-1}``.

    A point on the convex path between the family endpoints Diag(d) and
    Diag(d)^{-1} is conjugated by a random orthogonal matrix.  Conjugation
    does not preserve the order constraints, so a candidate Q outside the
    family is pulled toward the midpoint M = (D + D^{-1}) / 2 in closed
    form: with H = (D^{-1} - D) / 2, Q is in the family exactly when the
    spectral radius rho of ``H^{-1/2} (Q - M) H^{-1/2}`` is at most 1, and
    ``M + (0.999 / rho)(Q - M)`` has radius 0.999.
    """
    d = _coefficients(d)
    n = d.size
    t = rng.uniform(0.05, 0.95)
    g = rng.standard_normal((n, n))
    qf, rf = np.linalg.qr(g)
    qf = qf * np.sign(np.diag(rf))
    cand = _sym(qf @ np.diag((1.0 - t) * d + t * (1.0 / d)) @ qf.T)
    mid = np.diag(0.5 * (d + 1.0 / d))
    scale = 1.0 / np.sqrt(0.5 * (1.0 / d - d))
    dev = cand - mid
    rho = float(np.max(np.abs(np.linalg.eigvalsh(scale[:, None] * dev * scale)), initial=0.0))
    return cand if rho <= 1.0 else mid + (0.999 / rho) * dev


def _waterfill_rate(v: np.ndarray, delta: float) -> float:
    """Reverse water-fill rate ``sum_{v > level} 0.5 log(v / level)``, the
    level found by bisection on ``sum(min(level, v)) = delta``."""
    if delta >= v.sum():
        return 0.0
    lo, hi = 0.0, float(v.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.minimum(mid, v).sum() < delta:
            lo = mid
        else:
            hi = mid
    return float(0.5 * np.sum(np.log(v[v > mid] / mid)))


def first_fit_level(v: np.ndarray, delta: float) -> float:
    """The reverse water level by numpy's sorted cumulative sum: the first
    candidate ``(delta - sum of the k smallest) / (m - k)`` that does not
    exceed the next variance, the last where none does, and ``max(v)`` once
    ``delta`` covers the sum."""
    if delta >= v.sum():
        return float(v.max(initial=0.0))
    s = np.sort(v)
    levels = (delta - np.concatenate(([0.0], np.cumsum(s[:-1])))) / np.arange(v.size, 0, -1)
    fits = levels <= s
    fits[-1] = True
    return float(levels[np.argmax(fits)])


def dense_state_rates(d, q, delta1: float, delta2: float) -> tuple[float, float, float]:
    """``(R0, R1, R2)`` of the triple at a dense family state ``Q_W``, nats.

    Given W the branches have the covariances
    ``K1 = I - D^{1/2} Q_W^{-1} D^{1/2}`` and ``K2 = I - D^{1/2} Q_W D^{1/2}``,
    so ``R0 = I(Y1, Y2; W) = 0.5 [sum log(1 - d^2) - log det K1 - log det K2]``,
    ``inf`` where a K is singular, and R1, R2 reverse water-fill delta1 and
    delta2 (``inf`` is slack) over the eigenvalues of K1 and K2, with the
    level of :func:`first_fit_level`.
    """
    d = _coefficients(d)
    qw = _sym(_family_state(d, q))
    if not (delta1 > 0.0 and delta2 > 0.0):
        raise ValueError("distortions must be positive")
    rd = np.sqrt(d)
    eye = np.eye(d.size)
    spectra = [np.linalg.eigvalsh(_sym(eye - rd[:, None] * k * rd[None, :]))
               for k in (np.linalg.inv(qw), qw)]
    if min(float(ev[0]) for ev in spectra) <= 0.0:
        r0 = math.inf
    else:
        logdets = sum(float(np.sum(np.log(ev))) for ev in spectra)
        r0 = 0.5 * (float(np.sum(np.log((1.0 - d) * (1.0 + d)))) - logdets)
    rates = []
    for ev, delta in zip(spectra, (delta1, delta2)):
        ev = np.clip(ev, 0.0, None)
        level = first_fit_level(ev, delta)
        rates.append(float(0.5 * np.sum(np.log(ev[ev > level] / level))))
    return r0, rates[0], rates[1]


def sum_rate_identity_check(d, delta1: float, delta2: float, joint_rate: float) -> float:
    """Residual of ``joint_rate = R1 + R2 + C`` on the equal-split region
    ``0 < delta_i <= n (1 - d_max)``, its edge widened by 1e-12 relative
    for the rounding of ``n (1 - d_max)``.

    There the identity state closes the sum rate: R1 and R2 water-fill
    delta1 and delta2 over its branch variances ``1 - d``, and C is the
    common information ``0.5 sum log((1 + d) / (1 - d))``.
    """
    d = _coefficients(d)
    if not (delta1 > 0.0 and delta2 > 0.0):
        raise ValueError("distortions must be positive")
    if max(delta1, delta2) > d.size * (1.0 - d.max()) * (1.0 + 1e-12):
        raise ValueError("distortions outside the equal-split region")
    c = float(0.5 * np.sum(np.log((1.0 + d) / (1.0 - d))))
    r1, r2 = (_waterfill_rate(1.0 - d, x) for x in (delta1, delta2))
    return abs(joint_rate - (r1 + r2 + c))


def exact_joint_rate(d, delta1: float, delta2: float) -> float:
    """The Gaussian joint rate-distortion function of the canonical pair
    with coefficients d, nats, on the budget pairs where it has a closed
    form; ``ValueError`` elsewhere.

    Each component is the 2 x 2 block ``[[1, d_j], [d_j, 1]]``, with
    eigenvalues ``1 + d_j`` and ``1 - d_j``:

    * both ``delta_i >= n``: 0, the zero reconstruction meets both budgets;
    * ``delta1 = delta2 = delta``: the reverse water-fill of ``2 delta``
      over the 2n eigenvalues.  Relaxing the budgets to their sum gives a
      lower bound, and that water-fill's error is diagonal in each block's
      eigenbasis ``(1, +-1) / sqrt(2)``, so it splits ``delta`` per branch;
    * one budget slack, ``delta_i <= n`` and
      ``delta_other >= sum(1 - d^2 (1 - delta_i / n))``:
      ``(n / 2) log(n / delta_i)``, the rate of branch i alone; the other
      branch is reconstructed from branch i's reconstruction with that MSE.
    """
    d = _coefficients(d)
    n = d.size
    if not (delta1 > 0.0 and delta2 > 0.0):
        raise ValueError("distortions must be positive")
    if min(delta1, delta2) >= n:
        return 0.0
    if delta1 == delta2:
        return _waterfill_rate(np.concatenate((1.0 + d, 1.0 - d)), 2.0 * delta1)
    rates = [0.5 * n * np.log(n / di) for di, do in ((delta1, delta2), (delta2, delta1))
             if di <= n and do >= float(np.sum(1.0 - d * d * (1.0 - di / n)))]
    if not rates:
        raise ValueError("no closed form at these budgets")
    return float(max(rates))


def brent_root(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 500) -> float:
    """A root of ``f`` on ``[a, b]`` by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), to
    within ``xtol + rtol |x|``.

    Each step interpolates (secant or inverse quadratic) from the last
    iterates and keeps the step only while it stays well inside the
    bracket and shrinks fast enough; otherwise it bisects.  The bracket is
    kept by the signs of f, never by the product of two values, which can
    overflow.  ``ValueError`` unless f(a) and f(b) differ in sign,
    ``RuntimeError`` after ``maxiter`` steps.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            # xblk is the far end of the bracket
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < tol:
            return xcur
        trial = math.inf  # fails the test below: bisect
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            if den != 0.0:
                trial = num / den
        if 2.0 * abs(trial) < min(abs(spre), 3.0 * abs(sbis) - tol):
            spre, scur = scur, trial
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else math.copysign(tol, sbis)
        fcur = float(f(xcur))
    raise RuntimeError(f"no root within tolerance after {maxiter} steps")
