"""Rate-distortion functions for canonical pairs, marginal and joint.

Marginal and conditional rates come from reverse water-filling over
component variances: each active component is compressed down to a common
level, saturated components keep their variance.  The joint rate over both
branches restricts the reconstruction errors to be independent across
branches and diagonal per component, which is exact on the region

    D_W = { (delta1, delta2) : 0 <= delta_i <= n (1 - d_1) }

(d_1 the largest coefficient) where the optimal allocation is the equal
split delta_i / n.  Outside that region the value is the optimum of the
restricted convex program

    minimize sum_j 0.5 [ log(1 - d_j^2) - log a_1j - log a_2j ]
    s.t.     sum_j a_ij <= delta_i,   (1 - a_1j)(1 - a_2j) >= d_j^2

which is an upper bound on the Gaussian joint rate-distortion function,
not that function itself.  It is solved through its Lagrangian dual g by
one damped Newton iteration on the two budget multipliers, projected onto
lam >= 0 and backtracking on the value of g: the dual's gradient is the
budget residual and its Hessian comes in closed form with the allocation.
Each component's allocation sits either at the common water levels, in
closed form, or on its feasibility cap, at the one stationary point of the
Lagrangian along the cap curve (:func:`_capped_pairs`).  The iteration
starts at 1 / the water level of each budget over per-component ceilings
from the cap curve.  With delta1 = delta2 the program is symmetric and
strictly concave, so its optimum is symmetric, and on the diagonal the cap
reads a <= 1 - d: both branches water-fill delta over 1 - d, in closed
form, and the start is the optimum.  The result's duality gap certifies
the rate against the restricted optimum only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDistortion, OutsideDW, QWNotDiagonal, QWOutOfFamily
from .wyner import as_state_covariance, common_information_terms, in_state_family


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
    iterations: int  # Newton steps on the dual, 0 on the closed form
    multipliers: np.ndarray  # final budget multipliers (lam1, lam2), n / delta on the closed form
    budget_residual: float  # max_i (sum(alloc_i) - delta_i) / delta_i; > 0 breaks a budget
    dual_gap: float  # rate minus the dual bound at the multipliers


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


_LAM_TINY = 1e-12
_CAP_STEPS = 100


def _chi(u, w1, wc, c, lam1, lam2):
    """chi(u) of :func:`_capped_pairs`, its derivative in u, and the size of
    its terms, from u, w1 = 1 - u = a1 and wc = u - c."""
    cu = c / u
    m2 = lam2 * cu / u
    lead = w1 * wc * (lam1 - m2)
    tail = cu * w1
    slope = (w1 - wc) * (lam1 - m2) + 2.0 * m2 * w1 * wc / u - 1.0 - cu / u
    return lead - wc + tail, slope, np.abs(lead) + wc + tail


def _capped_pairs(c: np.ndarray, lam1: float, lam2: float):
    """Boundary optima of the per-component Lagrangian.

    On the cap curve (1-a1)(1-a2) = c, with u = 1 - a1, the Lagrangian is

        phi(u) = ln(1-u) + ln(1-c/u) - lam1 (1-u) - lam2 (1-c/u).

    A component is capped only when its free optimum (1/lam1, 1/lam2)
    violates the cap.  Then at any stationary point of phi on (c, 1) the
    gradient of the Lagrangian is a positive multiple of the cap's outward
    normal (a negative one would put the free optimum inside the cap set),
    so the point satisfies the KKT conditions of a concave program over a
    convex set: phi' has exactly one zero on (c, 1), the boundary maximum.
    It is the zero of

        chi(u) = (1-u)(u-c) phi'(u)
               = (1-u)(u-c)(lam1 - lam2 c/u^2) - (u-c) + c(1-u)/u,

    which keeps the sign of phi', has no poles, and runs from
    chi(c) = 1-c > 0 to chi(1) = -(1-c).  The solve iterates on a1 itself,
    with the cap written as a1 + a2 - a1 a2 = s = 1 - c, so that
    u - c = s - a1 and a2 = (s - a1) / (1 - a1) keep their relative
    precision when s is tiny (d near 1); for c >= 1/2, 1 - c is exact.
    With lam1 >= lam2 the iterate a1 is the smaller allocation, so s - a1
    does not cancel either; otherwise the branches swap roles.
    It is a safeguarded Newton iteration on chi, batched over components:
    the bracket starts at (0, s) and shrinks on the sign of chi, and a step
    that leaves it or meets chi' >= 0 bisects instead.  It starts from the
    root of the quadratic obtained by freezing c/u at sqrt(c), which is
    exact as the interval narrows, and an iterate is final once chi is zero
    to the rounding of its terms.
    """
    if lam2 > lam1:
        b2, b1 = _capped_pairs(c, lam2, lam1)
        return b1, b2
    r = np.sqrt(c)
    s = 1.0 - c
    if lam1 <= _LAM_TINY and lam2 <= _LAM_TINY:
        a = s / (1.0 + r)  # free product maximizer, a1 = a2 = 1 - d
        return a, a.copy()
    # start: the root in (0, s) of k x^2 - (k s + 1 + r) x + s, which is
    # chi with c/u frozen at sqrt(c) and x = a1; q is the cancellation-free
    # form.  A NaN or an infinity from a degenerate quadratic or a zero
    # slope fails the range and bracket tests below and falls back to the
    # symmetric point 1 - d or to bisection.
    k = lam1 - lam2
    b = k * s + 1.0 + r
    lo, hi = np.zeros_like(c), s
    tol = 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * k * s), b))
        x = s / q
        x = np.where((x > 0.0) & (x < s), x, q / k)
        x = np.where((x > 0.0) & (x < s), x, s / (1.0 + r))
        for _ in range(_CAP_STEPS):
            u = 1.0 - x
            chi, slope, size = _chi(u, x, s - x, c, lam1, lam2)
            lo = np.where(chi < 0.0, x, lo)
            hi = np.where(chi > 0.0, x, hi)
            nxt = x + chi / slope  # chi' in x is -slope
            nxt = np.where((slope < 0.0) & (nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            done = np.abs(chi) <= tol * size
            done |= np.abs(nxt - x) <= tol * x
            x = np.where(done, x, nxt)
            if done.all():
                break
    return x, (s - x) / (1.0 - x)


def _lagrangian_alloc(d: np.ndarray, lam1: float, lam2: float):
    """Per-component argmax of sum(log a1 + log a2) - lam1 a1 - lam2 a2
    subject to the cap constraints, unique by strict concavity, and the
    Hessian of the dual at (lam1, lam2), which is minus the Jacobian of the
    allocation sums.

    A free component adds diag(a1^2, a2^2), and one with d = 0 adds a^2 on
    each branch where a < 1.  A capped one moves along its cap: with
    u = 1 - a1 and chi' < 0 at its root, it adds s v v^T with
    v = (1, -c/u^2) and s = (1-u)(u-c) / -chi'(u).  When lam2 > lam1 the
    branches swap roles, as in :func:`_capped_pairs`: u = 1 - a2 stays away
    from 0 where a1 runs to 1.
    """
    n = d.size
    c = d * d
    a1 = np.empty(n)
    a2 = np.empty(n)
    hess = np.zeros((2, 2))
    f1 = 1.0 / lam1 if lam1 > _LAM_TINY else math.inf
    f2 = 1.0 / lam2 if lam2 > _LAM_TINY else math.inf
    zero = d == 0.0
    if zero.any():
        a1[zero] = min(f1, 1.0)
        a2[zero] = min(f2, 1.0)
        k = np.count_nonzero(zero)
        hess[0, 0] += k * f1 * f1 if f1 < 1.0 else 0.0
        hess[1, 1] += k * f2 * f2 if f2 < 1.0 else 0.0
    pos = ~zero
    if pos.any():
        if f1 < 1.0 and f2 < 1.0:
            free = pos & (c <= (1.0 - f1) * (1.0 - f2))
            k = np.count_nonzero(free)
            hess[0, 0] += k * f1 * f1
            hess[1, 1] += k * f2 * f2
        else:
            free = np.zeros(n, dtype=bool)
        a1[free] = f1
        a2[free] = f2
        capped = pos & ~free
        if capped.any():
            cc = c[capped]
            b1, b2 = _capped_pairs(cc, lam1, lam2)
            a1[capped] = b1
            a2[capped] = b2
            # in the cap solve's orientation: u is 1 minus the smaller
            # allocation, the larger multiplier's, so it stays away from 0
            swap = lam2 > lam1
            x, y, l1, l2 = (b2, b1, lam2, lam1) if swap else (b1, b2, lam1, lam2)
            u = 1.0 - x
            wc = u * y
            s = x * wc / -_chi(u, x, wc, cc, l1, l2)[1]
            v = -cc / (u * u)
            h = np.array([[s.sum(), (s * v).sum()], [(s * v).sum(), (s * v * v).sum()]])
            hess += h[::-1, ::-1] if swap else h
    return a1, a2, hess


_BUDGET_RTOL = 1e-12
_NEWTON_STEPS = 100
# a line search whose residual-norm test fails this many halvings marks the
# rounding floor of sum(a); away from that floor none needed more than 7 on
# 1000 random instances with 1 - d down to 1e-6 and budgets from 1e-3 to 1e3 b
_HALVINGS = 10
# halvings of one line search in all, those under the Armijo test included;
# 2^-100 covers 30 decades between a multiplier and the reach of its step
_LINE_STEPS = 100
# a predicted decrease of the dual value below this share of 1 + |g| is
# lost in the rounding of g
_G_ROUND = 1e-10
# a residual within this many of the rounding size its oracle reports is met
_FLOOR = 4.0
_EPS = np.finfo(float).eps


def _dual(d: np.ndarray, lam: np.ndarray, delta: np.ndarray):
    """Hessian and value g = sum(log(a1 a2)) + lam . (delta - sum(a)) of the
    dual at lam, the relative budget residuals, where a slack budget whose
    multiplier is 0 counts as met, their rounding size (4 eps of each sum,
    the cap roots' stopping tolerance) and the allocation."""
    a1, a2, hess = _lagrangian_alloc(d, *lam)
    sums = np.array([a1.sum(), a2.sum()])
    slack = delta - sums
    g = float(np.sum(np.log(a1 * a2)) + lam @ slack)
    r = slack / delta
    return hess, g, np.where(lam > 0.0, r, np.minimum(r, 0.0)), 4.0 * _EPS * sums / delta, (a1, a2)


def _certified(rate, a1, a2, lam, delta, regime, iterations) -> JointRdfResult:
    slack = delta - [a1.sum(), a2.sum()]
    residual, gap = float(np.max(-slack / delta)), float(0.5 * lam @ slack)
    return JointRdfResult(rate, a1, a2, regime, iterations, lam, residual, gap)


def _dual_newton(oracle, delta: np.ndarray, start: np.ndarray):
    """Minimize a convex dual over its two budget multipliers by damped
    Newton steps projected onto lam >= 0 (Boyd & Vandenberghe, Convex
    Optimization, 9.5 and 10.2).

    ``oracle(lam)`` returns the dual's Hessian and value, the relative
    budget residuals ``res`` (a slack budget whose multiplier is 0 counts as
    met; the gradient is ``res * delta``), the rounding size of each
    residual and the primal state at lam.  The solve stops once every
    ``|res_i|`` is within ``_BUDGET_RTOL`` or within ``_FLOOR`` times its
    rounding size.  The Newton system gets a ridge of 1e-14 times each
    diagonal entry (the trace where an entry is 0), so the step does not
    depend on the scale of either multiplier.  Returns the last accepted
    lam and state, the Newton steps taken and the oracle calls made.
    """
    lam = start
    hess, g, res, size, state = oracle(lam)
    steps, evals = 0, 1
    while steps < _NEWTON_STEPS and np.any(np.abs(res) > np.maximum(_BUDGET_RTOL, _FLOOR * size)):
        (h11, h12), (_, h22) = hess.tolist()
        ridge = 1e-14 * (h11 + h22)
        if ridge == 0.0:
            break  # no multiplier moves the budget sums
        # a near-singular Hessian along a valley of the dual would make the
        # step infinite; a ridge of 1e-14 of each diagonal entry keeps it
        # finite there without swamping the curvature of a multiplier
        # decades below the other (a ridge of the trace did)
        h11 += 1e-14 * h11 or ridge
        h22 += 1e-14 * h22 or ridge
        grad = res * delta
        g1, g2 = grad.tolist()
        # a zero multiplier whose budget is slack stays at 0
        move1, move2 = (lam > 0.0) | (res < 0.0)
        if move1 and move2:
            det = h11 * h22 - h12 * h12
            step = np.array([(h22 * g1 - h12 * g2) / det, (h11 * g2 - h12 * g1) / det])
        else:
            step = np.array([g1 / h11 if move1 else 0.0, g2 / h22 if move2 else 0.0])
        # a positive multiplier stops at 0 when the step reaches it, and
        # none grows by more than its value plus its start, which bounds
        # the long steps the ridge allows along a valley
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(step > 0.0, lam, lam + start) / np.abs(step)
        t = min(1.0, reach[(lam > 0.0) | (step < 0.0)].min(initial=np.inf))
        norm = np.linalg.norm(res)
        stalls = halvings = 0
        while stalls <= _HALVINGS and halvings < _LINE_STEPS:
            trial = np.where((step > 0.0) & (t >= reach), 0.0, np.maximum(lam - t * step, 0.0))
            bhess, bg, bres, bsize, bstate = oracle(trial)
            evals += 1
            # Armijo on the dual value while its predicted decrease is above
            # the rounding of g: on a flat stretch of the dual the residual
            # norm can stall while g still falls.  Below that rounding only
            # the residual norm can tell progress, and halvings that lower
            # nothing mark the rounding floor of the budget sums.
            drop = float(grad @ (lam - trial))
            if drop > _G_ROUND * (1.0 + abs(g)):
                if bg <= g - 1e-4 * drop:
                    break
            elif np.linalg.norm(bres) <= (1.0 - 1e-4 * t) * norm:
                break
            else:
                stalls += 1
            t *= 0.5
            halvings += 1
        else:
            break  # no trial lowers the residual: it is at the rounding floor
        lam, hess, g, res, size, state = trial, bhess, bg, bres, bsize, bstate
        steps += 1
    return lam, state, steps, evals


def _joint_numerical(d: np.ndarray, delta1: float, delta2: float) -> JointRdfResult:
    # start at 1 / the water level of each budget over the ceilings
    # e_ij = max(p_ij, 1 - d_j), with p_j where the ray a2 = rho a1 meets
    # the cap (1 - a1)(1 - a2) = d_j^2 (the root in cancellation-free form;
    # rho as a ratio of roots, since delta2 / delta1 can overflow).
    # At delta1 = delta2 below sum(1 - d) that is the restricted optimum,
    # and inside D_W it is the equal split n / delta.  No allocation
    # exceeds 1 - d^2, so a budget of sum(1 - d^2) or more is slack and
    # its multiplier starts at its optimum, 0.
    delta = np.array([delta1, delta2])
    rho = math.sqrt(delta2) / math.sqrt(delta1)
    s = 1.0 - d * d
    p1 = 2.0 * s / ((1.0 + rho) + np.sqrt((1.0 + rho) ** 2 - 4.0 * rho * s))
    start = np.array([1.0 / _waterfill(np.maximum(p, 1.0 - d), x)[1]
                      for p, x in ((p1, delta1), (rho * p1, delta2))])
    start[delta >= s.sum()] = 0.0
    lam, (a1, a2), steps, _ = _dual_newton(lambda lam: _dual(d, lam, delta), delta, start)
    rate = float(0.5 * (np.sum(np.log1p(-d * d)) - np.sum(np.log(a1 * a2))))
    slack = delta - [a1.sum(), a2.sum()]
    regime = "infeasible-region" if np.any(slack > 1e-9 * (1.0 + delta)) else "numerical"
    return _certified(rate, a1, a2, lam, delta, regime, steps)


def joint_rdf(d, delta1: float, delta2: float, force_numerical: bool = False) -> JointRdfResult:
    """Joint rate over both branches under the independent-error structure.

    Inside the equal-split region the closed form
    ``sum_j 0.5 log((1 - d_j^2) n^2 / (delta1 delta2))`` applies.  Outside
    it the result is the optimum of the restricted program (errors
    independent across branches and diagonal per component), an upper
    bound on the Gaussian joint rate-distortion function, found by a
    projected Newton solve of the two-multiplier dual whose line search
    backtracks on the dual value.  The solve starts at 1 / the water level
    of each budget over the ceilings ``max(p_ij, 1 - d_j)``, with p_j the
    point of the cap curve on the ray ``a2 = sqrt(delta2 / delta1) a1``.
    At ``delta1 = delta2`` that start is the optimum, a water-fill of delta
    over ``1 - d`` on both branches, and takes 0 steps.  ``regime``
    records which path produced the result; ``infeasible-region`` means a
    budget is left slack because every component sits at its cap in the
    restricted program, not that the pair is unreachable.  ``iterations``
    counts the Newton steps, 0 on the closed form.

    The result certifies itself: ``dual_gap`` is the rate minus the dual
    bound ``0.5 (sum log(1 - d^2) - g)`` at ``multipliers``, which equals
    ``0.5 lam . (delta - sum(alloc))``.  With ``budget_residual <= 0`` the
    rate lies within ``dual_gap`` of the restricted optimum; the gap says
    nothing about the distance to the Gaussian joint RDF.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("both distortions must be positive")
    n = d.size
    if n == 0 or not force_numerical and in_dw(d, delta1, delta2):
        delta = np.array([delta1, delta2], dtype=float)
        rate = float(0.5 * np.sum(np.log((1.0 - d * d) * n * n / (delta1 * delta2))))
        a1, a2 = np.full(n, delta1) / n, np.full(n, delta2) / n
        return _certified(rate, a1, a2, n / delta, delta, "closed-form-DW", 0)
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
    c = float(np.sum(common_information_terms(d)))
    return abs(joint - (r1 + r2 + c))
