"""Rate-distortion functions for canonical pairs, marginal and joint.

Marginal and conditional rates come from reverse water-filling over
component variances: each active component is compressed down to a common
level, saturated components keep their variance.  The joint rate over both
branches restricts the reconstruction errors to be independent across
branches and diagonal per component, which is exact on the region

    D_W = { (delta1, delta2) : 0 <= delta_i <= n (1 - d_1) }

(d_1 the largest coefficient) where the optimal allocation is the equal
split delta_i / n.  Outside that region the same convex program

    minimize sum_j 0.5 [ log(1 - d_j^2) - log a_1j - log a_2j ]
    s.t.     sum_j a_ij <= delta_i,   (1 - a_1j)(1 - a_2j) >= d_j^2

is solved through its Lagrangian dual: the two budget multipliers are
found by alternating exact line searches (the dual is convex), with a
nested bisection fallback for instances where the cap couples the
multipliers so tightly that alternation stalls, and each component's
allocation follows in closed form, either at the common water levels or
on its feasibility cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.optimize import brentq

from .errors import NonpositiveDistortion, OutsideDW, QWNotDiagonal, QWOutOfFamily
from .wyner import as_state_covariance, in_state_family


@dataclass(frozen=True, eq=False)
class RdfResult:
    """Water-filling solution: rate in nats plus the allocation that attains it."""

    rate: float
    alloc: np.ndarray
    water_level: float
    active_set: np.ndarray


@dataclass(frozen=True, eq=False)
class JointRdfResult:
    rate: float
    alloc1: np.ndarray
    alloc2: np.ndarray
    regime: str  # "closed-form-DW" | "numerical" | "infeasible-region"


def _waterfill(variances: np.ndarray, delta: float):
    """Exact sorted reverse water-fill: alloc = min(level, v), sum(alloc) = delta.

    With the k smallest variances saturated the level is
    ``(delta - their sum) / (m - k)``; the level is the first such
    candidate that does not exceed the next variance (Cover & Thomas,
    Elements of Information Theory, 10.3.3).  A variance equal to the
    level counts as saturated.  Returns (alloc, level, active mask).
    """
    v = variances
    m = v.size
    if delta >= float(v.sum()):
        return v.copy(), float(v.max(initial=0.0)), np.zeros(m, dtype=bool)
    s = np.sort(v)
    below = np.concatenate(([0.0], np.cumsum(s[:-1])))
    levels = (delta - below) / np.arange(m, 0, -1)
    fits = levels <= s
    fits[-1] = True  # delta < sum(v); guards the last comparison against rounding
    level = float(levels[np.argmax(fits)])
    active = v > level
    return np.where(active, level, v), level, active


def marginal_rdf(variances, delta: float) -> RdfResult:
    """Rate-distortion function of independent Gaussian components.

    ``variances`` are the component variances (eigenvalues of the source
    covariance); the rate is ``sum over active of 0.5 log(v_j / level)``
    and exactly zero once ``delta`` reaches the total variance.
    """
    v = np.atleast_1d(np.asarray(variances, dtype=float))
    if np.any(v < 0.0):
        raise ValueError("variances must be nonnegative")
    if delta <= 0.0:
        raise NonpositiveDistortion(f"distortion must be positive, got {delta}")
    alloc, level, active = _waterfill(v, float(delta))
    if active.any():
        rate = float(0.5 * np.sum(np.log(v[active] / level)))
    else:
        rate = 0.0
    return RdfResult(
        rate=rate, alloc=alloc, water_level=level, active_set=np.flatnonzero(active)
    )


def _diagonal_state(d: np.ndarray, q) -> np.ndarray:
    qw = as_state_covariance(q)
    if qw.shape != (d.size, d.size):
        raise QWNotDiagonal(f"state covariance must be {d.size} x {d.size}")
    off = np.max(np.abs(qw - np.diag(np.diag(qw))), initial=0.0)
    if off > 1e-10 * max(1.0, float(np.max(np.abs(qw), initial=0.0))):
        raise QWNotDiagonal("conditional rates require a diagonal state covariance")
    qd = np.diag(qw).copy()
    if not in_state_family(qd, d):
        raise QWOutOfFamily("diagonal entries must satisfy d_j <= q_j <= 1/d_j")
    return qd


def conditional_rdf(d, q, branch: int, delta: float) -> RdfResult:
    """Rate-distortion function of one branch given a diagonal family state.

    Component variances are ``1 - d_j / q_j`` (branch 1, the branch seen
    through the state inverse) or ``1 - d_j q_j`` (branch 2), then reverse
    water-filling as in :func:`marginal_rdf`.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    qd = _diagonal_state(d, q)
    if branch == 1:
        lam = 1.0 - np.divide(d, qd, out=np.zeros_like(d), where=qd > 0)
    elif branch == 2:
        lam = 1.0 - d * qd
    else:
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    return marginal_rdf(np.clip(lam, 0.0, None), delta)


def dw_bound(d) -> float:
    """The equal-split region extends to ``n (1 - d_max)`` per branch."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.size == 0:
        return math.inf
    return d.size * (1.0 - float(np.max(d)))


def in_dw(d, delta1: float, delta2: float) -> bool:
    b = dw_bound(d)
    # the corner is inside; n (1 - d_max) itself rounds, so classify the
    # boundary at ulp scale rather than by exact comparison
    tol = 8.0 * np.finfo(float).eps * max(1.0, b) if math.isfinite(b) else 0.0
    return 0.0 <= delta1 <= b + tol and 0.0 <= delta2 <= b + tol


def _kkt_residual(
    d: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    delta1: float,
    delta2: float,
) -> float:
    """Stationarity residual of an allocation pair for the joint program.

    Components off their cap must share one water level per branch; for
    capped components the cap multiplier recovered from one branch must
    close the other branch's stationarity equation with nonnegative sign.
    A sum constraint left slack forces that branch's level to zero.  When
    a branch has no free component its level is recovered from the capped
    equations instead; if neither branch has one the multiplier split is
    a one-parameter family and the check degenerates to 0.
    """
    capped = (1.0 - a1) * (1.0 - a2) <= d * d + 1e-9
    free = ~capped
    inv1 = 0.5 / a1
    inv2 = 0.5 / a2
    res = 0.0

    def _level(inv, slack_big):
        if slack_big:
            return 0.0
        if free.any():
            return float(np.median(inv[free]))
        return None

    slack1 = delta1 - float(a1.sum()) > 1e-9 * (1.0 + delta1)
    slack2 = delta2 - float(a2.sum()) > 1e-9 * (1.0 + delta2)
    lam1 = _level(inv1, slack1)
    lam2 = _level(inv2, slack2)
    if lam1 is None and lam2 is None:
        return 0.0
    if lam1 is None or lam2 is None:
        # recover the unknown level from the capped equations; it must be
        # consistent across components and nonnegative
        known_inv, known_lam, known_a, unk_inv, unk_a = (
            (inv1, lam1, a2, inv2, a1) if lam2 is None else (inv2, lam2, a1, inv1, a2)
        )
        implied = []
        for j in np.flatnonzero(capped):
            mu = (known_inv[j] - known_lam) / max(1.0 - known_a[j], 1e-300)
            if mu < -1e-8:
                res = max(res, -mu)
            implied.append(unk_inv[j] - mu * (1.0 - unk_a[j]))
        if implied:
            arr = np.asarray(implied)
            res = max(res, float(arr.max() - arr.min()))
            res = max(res, max(0.0, -float(arr.min())))
        if free.any():
            res = max(res, float(np.max(np.abs(known_inv[free] - known_lam))))
        return res
    if free.any():
        res = max(res, float(np.max(np.abs(inv1[free] - lam1))))
        res = max(res, float(np.max(np.abs(inv2[free] - lam2))))
    for j in np.flatnonzero(capped):
        mu = (inv1[j] - lam1) / max(1.0 - a2[j], 1e-300)
        if mu < -1e-8:
            res = max(res, -mu)
        res = max(res, abs(-inv2[j] + lam2 + mu * (1.0 - a1[j])))
    return res


_LAM_TINY = 1e-12


def _polyval_batch(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Horner over rows: coeffs is (m, k+1) descending, x is (m, r)
    out = np.broadcast_to(coeffs[:, :1], x.shape).copy()
    for i in range(1, coeffs.shape[1]):
        out = out * x + coeffs[:, i : i + 1]
    return out


def _capped_pairs(c: np.ndarray, lam1: float, lam2: float):
    """Boundary optima of the per-component Lagrangian.

    On the cap curve (1-a1)(1-a2) = c, with u = 1 - a1, the stationarity
    condition of

        phi(u) = ln(1-u) + ln(1-c/u) - lam1 (1-u) - lam2 (1-c/u)

    clears denominators to a polynomial in u.  phi falls to -inf at both
    ends of (c, 1), so the boundary maximum is the best stationary point;
    we take all real roots in the interval and keep the argmax.
    """
    m = c.size
    if lam1 <= _LAM_TINY and lam2 <= _LAM_TINY:
        u = np.sqrt(c)  # free product maximizer, a1 = a2 = 1 - d
        return 1.0 - u, 1.0 - c / u
    ones = np.ones(m)
    if lam1 <= _LAM_TINY:
        coeffs = np.stack(
            [-ones, lam2 * c, c * (1.0 - lam2 * (1.0 + c)), lam2 * c * c], axis=1
        )
    elif lam2 <= _LAM_TINY:
        # the quartic's constant term vanishes; drop the u = 0 root
        coeffs = np.stack(
            [-lam1 * ones, (lam1 * (1.0 + c) - 1.0), -lam1 * c, c], axis=1
        )
    else:
        coeffs = np.stack(
            [
                -lam1 * ones,
                (lam1 * (1.0 + c) - 1.0) * ones,
                c * (lam2 - lam1),
                c * (1.0 - lam2 * (1.0 + c)),
                lam2 * c * c,
            ],
            axis=1,
        )
    k = coeffs.shape[1] - 1
    comp = np.zeros((m, k, k))
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, np.arange(1, k), np.arange(0, k - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    u = roots.real.copy()
    # two Newton steps repair companion-eigenvalue conditioning
    dcoeffs = coeffs[:, :-1] * np.arange(k, 0, -1)[None, :]
    for _ in range(2):
        pv = _polyval_batch(coeffs, u)
        dv = _polyval_batch(dcoeffs, u)
        step = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0.0, 1.0, dv), 0.0)
        u = u - step
    cgrid = c[:, None]
    ok = (np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots.real)))
    ok &= (u > cgrid * (1.0 + 1e-14)) & (u < 1.0 - 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (
            np.log(1.0 - u)
            + np.log(1.0 - cgrid / u)
            - lam1 * (1.0 - u)
            - lam2 * (1.0 - cgrid / u)
        )
    phi = np.where(ok, phi, -np.inf)
    missing = ~np.isfinite(phi).any(axis=1)
    if missing.any():
        # conditioning fallback: dense argmax on the interval
        for j in np.flatnonzero(missing):
            grid = np.linspace(c[j] * (1 + 1e-12) + 1e-15, 1.0 - 1e-12, 4096)
            vals = (
                np.log(1.0 - grid)
                + np.log(1.0 - c[j] / grid)
                - lam1 * (1.0 - grid)
                - lam2 * (1.0 - c[j] / grid)
            )
            u[j, 0] = grid[np.argmax(vals)]
            phi[j, 0] = 0.0
    pick = np.argmax(phi, axis=1)
    ustar = u[np.arange(m), pick]
    return 1.0 - ustar, 1.0 - c / ustar


def _lagrangian_alloc(d: np.ndarray, lam1: float, lam2: float):
    """Per-component argmax of sum(log a1 + log a2) - lam1 a1 - lam2 a2
    subject to the cap constraints; unique by strict concavity."""
    n = d.size
    c = d * d
    a1 = np.empty(n)
    a2 = np.empty(n)
    f1 = 1.0 / lam1 if lam1 > _LAM_TINY else math.inf
    f2 = 1.0 / lam2 if lam2 > _LAM_TINY else math.inf
    zero = d == 0.0
    if zero.any():
        a1[zero] = min(f1, 1.0)
        a2[zero] = min(f2, 1.0)
    pos = ~zero
    if pos.any():
        if f1 < 1.0 and f2 < 1.0:
            free = pos & (c <= (1.0 - f1) * (1.0 - f2))
        else:
            free = np.zeros(n, dtype=bool)
        a1[free] = f1
        a2[free] = f2
        capped = pos & ~free
        if capped.any():
            a1[capped], a2[capped] = _capped_pairs(c[capped], lam1, lam2)
    return a1, a2


def _solve_branch_level(d: np.ndarray, delta: float, lam_other: float, branch: int) -> float:
    """Dual line search: the branch allocation sum is monotone in its
    multiplier, so the budget equation has a bracketed root (or the
    multiplier is zero when the budget cannot bind)."""

    def total(lam: float) -> float:
        if branch == 1:
            return float(_lagrangian_alloc(d, lam, lam_other)[0].sum())
        return float(_lagrangian_alloc(d, lam_other, lam)[1].sum())

    if total(0.0) <= delta:
        return 0.0
    hi = max(d.size / delta, 1.0)
    for _ in range(200):
        if total(hi) < delta:
            break
        hi *= 2.0
    return float(
        brentq(lambda lam: total(lam) - delta, 0.0, hi, xtol=1e-15, maxiter=300)
    )


def _joint_numerical(d: np.ndarray, delta1: float, delta2: float) -> JointRdfResult:
    # alternate exact line searches on the two budget multipliers; the dual
    # is convex, so this converges in a few rounds whenever the two budget
    # equations respond independently
    lam1 = 0.0
    lam2 = 0.0
    a1 = a2 = None
    stalled = False
    prev_drift = math.inf
    for _ in range(60):
        lam1 = _solve_branch_level(d, delta1, lam2, 1)
        lam2 = _solve_branch_level(d, delta2, lam1, 2)
        a1, a2 = _lagrangian_alloc(d, lam1, lam2)
        drift = float(a1.sum()) - delta1
        if lam1 <= _LAM_TINY:
            drift = max(0.0, drift)
        if abs(drift) < 1e-12 * (1.0 + delta1):
            break
        if abs(drift) > 0.5 * prev_drift:
            # cap-coupled components can move both multipliers in lockstep,
            # leaving the residual frozen while the pair crawls along a
            # degenerate valley of the dual
            stalled = True
            break
        prev_drift = abs(drift)
    else:
        stalled = True
    if stalled:
        # nest the solves instead: the inner search keeps branch 2 exact,
        # and the outer bisection steps straight across any flat segment
        def budget_gap(lam1_try: float) -> float:
            lam2_try = _solve_branch_level(d, delta2, lam1_try, 2)
            return float(_lagrangian_alloc(d, lam1_try, lam2_try)[0].sum()) - delta1

        if budget_gap(0.0) <= 0.0:
            lam1 = 0.0
        else:
            hi = max(d.size / delta1, 1.0)
            for _ in range(200):
                if budget_gap(hi) < 0.0:
                    break
                hi *= 2.0
            lam1 = float(brentq(budget_gap, 0.0, hi, xtol=1e-14, maxiter=300))
        lam2 = _solve_branch_level(d, delta2, lam1, 2)
        a1, a2 = _lagrangian_alloc(d, lam1, lam2)
    rate = float(0.5 * (np.sum(np.log1p(-d * d)) - np.sum(np.log(a1 * a2))))
    slack1 = delta1 - float(a1.sum())
    slack2 = delta2 - float(a2.sum())
    regime = "numerical"
    if slack1 > 1e-9 * (1.0 + delta1) or slack2 > 1e-9 * (1.0 + delta2):
        regime = "infeasible-region"
    return JointRdfResult(rate=rate, alloc1=a1, alloc2=a2, regime=regime)


def joint_rdf(d, delta1: float, delta2: float, force_numerical: bool = False) -> JointRdfResult:
    """Joint rate over both branches under the independent-error structure.

    Inside the equal-split region the closed form
    ``sum_j 0.5 log((1 - d_j^2) n^2 / (delta1 delta2))`` applies; outside,
    the convex allocation program is solved numerically.  ``regime``
    records which path produced the result, with ``infeasible-region``
    flagging requests whose total distortion is unreachable because every
    component hit its feasibility cap.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("both distortions must be positive")
    n = d.size
    if n == 0:
        return JointRdfResult(0.0, np.zeros(0), np.zeros(0), "closed-form-DW")
    if not force_numerical and in_dw(d, delta1, delta2):
        rate = float(
            0.5 * np.sum(np.log((1.0 - d * d) * n * n / (delta1 * delta2)))
        )
        return JointRdfResult(
            rate=rate,
            alloc1=np.full(n, delta1 / n),
            alloc2=np.full(n, delta2 / n),
            regime="closed-form-DW",
        )
    return _joint_numerical(d, float(delta1), float(delta2))


def gray_lower_bound(d, delta1: float, delta2: float) -> float:
    """Sum of one marginal rate and the other branch's residual rate.

    ``R_{Y1}(delta1) + R_{Y2|Y1}(delta2)`` where the residual variances of
    branch 2 given branch 1 are ``1 - d_j^2``.  A lower bound on the joint
    rate, tight where the equal-split solution keeps all components active.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    r1 = marginal_rdf(np.ones(d.size), delta1).rate
    r2 = marginal_rdf(1.0 - d * d, delta2).rate
    return r1 + r2


def sum_rate_identity_check(d, delta1: float, delta2: float) -> float:
    """Residual of joint = conditional(1) + conditional(2) + common info.

    Valid on the equal-split region with the identity state; positive
    distortions required.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not in_dw(d, delta1, delta2):
        raise OutsideDW(
            f"(delta1, delta2) outside the equal-split region [0, {dw_bound(d)}]^2",
            bound=dw_bound(d),
        )
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("identity check needs positive distortions")
    ones = np.ones(d.size)
    joint = joint_rdf(d, delta1, delta2).rate
    r1 = conditional_rdf(d, ones, 1, delta1).rate
    r2 = conditional_rdf(d, ones, 2, delta2).rate
    c = float(np.sum(0.5 * np.log((1.0 + d) / (1.0 - d))))
    return abs(joint - (r1 + r2 + c))
