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
not that function itself.  Its cap is the set of allocation pairs that
some diagonal conditional-independence state admits, so the program is the
CI-family weighted rate of :mod:`graywyner` at unit weights: one
two-multiplier dual (:func:`ci_dual`) solves both, and its duality gap
certifies the rate against the restricted optimum only.
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


def require_dw(d, delta1: float, delta2: float) -> None:
    """Raise :class:`OutsideDW`, with the bound attached, outside ``D_W``."""
    if not in_dw(d, delta1, delta2):
        b = dw_bound(d)
        raise OutsideDW(f"(delta1, delta2) = ({delta1}, {delta2}) outside the "
                        f"equal-split region [0, {b}]^2", bound=b)


_CAP_STEPS = 100


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
    does not cancel either; otherwise the branches swap roles.  With
    lam1 = lam2 (both 0 on slack budgets) the root is the symmetric point
    a1 = a2 = 1 - d, taken in closed form, since s - a1 cancels there.
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
    if lam1 == lam2:
        a = s / (1.0 + r)  # the symmetric point a1 = a2 = 1 - d, exact
        return a, a.copy()
    # start: the root in (0, s) of k x^2 - (k s + 1 + r) x + s, which is
    # chi with c/u frozen at sqrt(c) and x = a1; q is the cancellation-free
    # form (k > 0, so the linear coefficient is negative).  A NaN or an
    # infinity from a rounded or overflowing discriminant, or a zero slope,
    # fails the range and bracket tests below and falls back to the
    # symmetric point 1 - d or to bisection.
    k = lam1 - lam2
    b = k * s + 1.0 + r
    lo, hi = np.zeros_like(c), s
    tol = 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        x = s / (0.5 * (b + np.sqrt(b * b - 4.0 * k * s)))
        x = np.where((x > 0.0) & (x < s), x, s / (1.0 + r))
        for _ in range(_CAP_STEPS):
            # chi, its derivative in u and the size of its terms, from
            # u = 1 - x, a1 = x and u - c = s - x
            u, wc = 1.0 - x, s - x
            cu = c / u
            m2 = lam2 * cu / u
            lead = x * wc * (lam1 - m2)
            tail = cu * x
            chi, size = lead - wc + tail, np.abs(lead) + wc + tail
            slope = (x - wc) * (lam1 - m2) + 2.0 * m2 * x * wc / u - 1.0 - cu / u
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
_SGN = np.array([[1.0], [-1.0]])  # dv_i/du = sgn_i w_i in ci_dual, w_i = 1 - v_i


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


# per-coordinate Newton steps on h' in ci_dual; bisection alone reaches
# rounding on the bracket (log d, -log d) in under 60 halvings
_INNER_STEPS = 80


def ci_dual(d: np.ndarray, delta: np.ndarray, alpha: np.ndarray, start: np.ndarray):
    """Minimize ``R0 + alpha1 R1 + alpha2 R2`` over diagonal family states.

    With ``u = log q`` and the branch allocations ``x_ij`` as variables the
    weighted rate is, up to the constant ``0.5 sum log(1 - d^2)``, the
    jointly convex program

        minimize  sum_j sum_i [ -(1 - alpha_i)/2 log v_ij(u_j) - alpha_i/2 log x_ij ]
        s.t.      x_ij <= v_ij(u_j),   sum_j x_ij <= delta_i,

    with ``v_1 = 1 - d e^{-u}`` and ``v_2 = 1 - d e^{u}`` concave in u
    (``v = 1`` where d = 0); a branch with zero weight has no allocation.
    Multipliers mu on the budgets split the Lagrangian per coordinate:
    ``x_ij = min(v_ij, c_i)`` with ``c_i = alpha_i / (2 mu_i)``, and u_j
    minimizes ``h_j(u) = sum_i phi_i(v_ij(u))``, convex and C^1 on
    (log d_j, -log d_j), with ``phi_i' = -(1 - alpha_i) / (2 v)`` on an
    active branch (v > c_i) and ``mu_i - 1 / (2 v)`` on a saturated one.
    h' runs from -inf to +inf; safeguarded Newton steps inside a bisection
    bracket find its root, batched over coordinates and warm-started from
    the previous evaluation.

    At unit weights this is the restricted program of :func:`joint_rdf`
    with ``lam = 2 mu``: ``x1 <= 1 - d/q`` and ``x2 <= 1 - d q`` for some
    q is the cap ``(1 - x1)(1 - x2) >= d^2``.  There h is flat where both
    branches are active, so a coordinate keeps ``x = (c_1, c_2)`` when that
    point keeps the cap, and otherwise saturates both branches on the cap,
    at the root of :func:`_capped_pairs`; q is then the state nearest 1,
    the least R0, that admits the allocations.

    The dual over mu >= 0 is solved by :func:`_dual_newton`: its gradient
    is ``delta - sum_j x_ij`` and its Hessian
    ``diag(sum_active c_i / mu_i) + sum_j s s^T / h_j''``, with s the
    saturated slopes ``dv_i/du``.  A saturated x_ij = v_ij(u_j) inherits
    the inner roots' stopping error 2 eps |u_j|, so the budget sums round
    by ``sum_saturated w_ij 2 eps |u_j|`` (at unit weights by 4 eps of each
    sum, the cap roots' tolerance), and the solve stops within a few of
    that rounding (it exceeds 1e-12 of delta_i only where delta_i is tiny
    and |u| large).

    Returns ``(x, q, mu, bound, steps, evals, converged)``: the
    allocations, the state, the multipliers, the dual bound on the
    objective, the Newton steps, the dual evaluations and whether the solve
    stopped before its step cap.
    """
    dd = d * d
    pos = d > 0.0
    with np.errstate(divide="ignore"):
        ld = np.log(d)  # -inf where d = 0
    k = (1.0 - alpha)[:, None]
    on = alpha > 0.0
    u = np.zeros(d.size)

    def terms(w, v, active, m):
        # the terms psi_i w_i of h' = psi_1 w_1 - psi_2 w_2, 1 / (2 v), and h''
        iv = 0.5 / v
        pw = np.where(active, -k * iv, m - iv) * w
        return pw, iv, (np.where(active, k, 1.0) * 2.0 * iv * iv * w * w - pw).sum(0)

    def residuals(mu, sums):
        # a slack budget whose multiplier is 0 counts as met
        r = 1.0 - sums / delta
        return np.where(mu > 0.0, r, np.minimum(r, 0.0))

    def unit_oracle(mu):
        mu1, mu2 = mu.tolist()
        c1, c2 = (0.5 / mi if mi > 0.0 else math.inf for mi in (mu1, mu2))
        x = np.empty((2, d.size))
        x[0], x[1] = min(c1, 1.0), min(c2, 1.0)  # v = 1 where d = 0
        cap = pos & (dd > (1.0 - c1) * (1.0 - c2)) if c1 < 1.0 and c2 < 1.0 else pos
        free = d.size - np.count_nonzero(cap)
        # each active piece adds c_i / mu_i = 2 c_i^2
        hess = np.array([[2.0 * free * c1 * c1 if c1 < 1.0 else 0.0, 0.0],
                         [0.0, 2.0 * free * c2 * c2 if c2 < 1.0 else 0.0]])
        if free < d.size:
            # 1 minus the cap root's iterate, the larger multiplier's
            # allocation, keeps its precision where the other runs to 1
            i = int(mu2 > mu1)
            cc = dd[cap]
            x[:, cap] = xc = np.array(_capped_pairs(cc, 2.0 * mu1, 2.0 * mu2))
            w = np.empty_like(xc)
            w[i] = 1.0 - xc[i]
            w[1 - i] = cc / w[i]
            s = _SGN * w / np.sqrt(terms(w, xc, False, mu[:, None])[2])
            hess += s @ s.T
        sums = x.sum(1)
        g = float(mu @ (delta - sums) + 0.5 * np.log(x).sum())
        return hess, g, residuals(mu, sums), 4.0 * _EPS * sums / delta, (x, u, g)

    def family_oracle(mu):
        nonlocal u
        m = mu[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(on, alpha / (2.0 * mu), 0.0)  # inf on a weighted branch with mu = 0
            # -alpha/2 log c + mu c, the value of a weighted active piece
            pinned = np.where(on & (mu > 0.0), 0.5 * alpha * (1.0 - np.log(c)), 0.0)[:, None]
            c = c[:, None]
            lo, hi = ld, -ld
            for it in range(_INNER_STEPS):
                e = ld - _SGN * u
                w, v = np.exp(e), -np.expm1(e)
                active = v > c
                pw, iv, curv = terms(w, v, active, m)
                grad = pw[0] - pw[1]
                lo = np.where(grad < 0.0, u, lo)
                hi = np.where(grad > 0.0, u, hi)
                nxt = u - grad / curv
                nxt = np.where((curv > 0.0) & (nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
                # the size of the terms of h', for its rounding
                size = (w * (iv + np.where(active, 0.0, m))).sum(0)
                done = (abs(grad) <= 8.0 * _EPS * size) | (abs(nxt - u) <= 2.0 * _EPS * abs(u))
                if done.all() or it == _INNER_STEPS - 1:
                    break
                u = np.where(done, u, nxt)
            sat = ~active & on[:, None]
            s = np.where(sat, _SGN * w, 0.0) / np.sqrt(np.where(curv > 0.0, curv, 1.0))
            drift = np.where(on & (mu > 0.0), active.sum(1) * c[:, 0] / mu, 0.0)
        value = np.where(active, pinned - 0.5 * k * np.log(v), m * v - 0.5 * np.log(v))
        g = float(mu @ delta - value.sum())
        x = np.where(active, c, v)
        rounding = np.where(active, 0.0, w) @ (2.0 * _EPS * np.abs(u)) / delta
        return np.diag(drift) + s @ s.T, g, residuals(mu, x.sum(1)), rounding, (x, u, g)

    unit = alpha.tolist() == [1.0, 1.0]
    mu, (x, u, g), steps, evals = _dual_newton(unit_oracle if unit else family_oracle, delta, start)
    if unit:
        # the state of least R0 with x_i <= v_i(u) on both branches, u = 0
        # where d = 0; on the cap lo = hi, taken from the smaller allocation,
        # whose 1 - x keeps its precision
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = ld - np.log1p(-x[0]), np.log1p(-x[1]) - ld
            u = np.where(lo < hi, np.minimum(np.maximum(lo, 0.0), hi), np.where(x[0] <= x[1], lo, hi))
            u = np.where(pos, u, 0.0)
    bound = 0.5 * float(np.sum(np.log1p(-dd))) - g
    return x, np.exp(u), mu, bound, steps, evals, steps < _NEWTON_STEPS


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
    (a1, a2), _, mu, _, steps, _, _ = ci_dual(d, delta, np.ones(2), 0.5 * start)
    rate = float(0.5 * (np.sum(np.log1p(-d * d)) - np.sum(np.log(a1 * a2))))
    slack = delta - [a1.sum(), a2.sum()]
    regime = "infeasible-region" if np.any(slack > 1e-9 * (1.0 + delta)) else "numerical"
    return _certified(rate, a1, a2, 2.0 * mu, delta, regime, steps)


def joint_rdf(d, delta1: float, delta2: float) -> JointRdfResult:
    """Joint rate over both branches under the independent-error structure.

    Inside the equal-split region the closed form
    ``sum_j 0.5 log((1 - d_j^2) n^2 / (delta1 delta2))`` applies.  Outside
    it the result is the optimum of the restricted program (errors
    independent across branches and diagonal per component), an upper
    bound on the Gaussian joint rate-distortion function: :func:`ci_dual`
    at unit weights, with ``multipliers = 2 mu``.  The solve starts at 1 /
    the water level of each budget over the ceilings ``max(p_ij, 1 - d_j)``,
    with p_j the point of the cap curve on the ray
    ``a2 = sqrt(delta2 / delta1) a1``; at ``delta1 = delta2`` that is the
    optimum, a water-fill of delta over ``1 - d``, and takes 0 steps.
    ``regime`` records which path produced the result;
    ``infeasible-region`` means a budget is left slack because every
    component sits at its cap in the restricted program, not that the pair
    is unreachable.  ``iterations`` counts the Newton steps, 0 on the
    closed form.

    The result certifies itself: ``dual_gap`` is the rate minus the dual
    bound at ``multipliers``, ``0.5 lam . (delta - sum(alloc))``.  With
    ``budget_residual <= 0`` the rate lies within ``dual_gap`` of the
    restricted optimum; the gap says nothing about the distance to the
    Gaussian joint RDF.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("both distortions must be positive")
    n = d.size
    if n == 0 or in_dw(d, delta1, delta2):
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
    require_dw(d, delta1, delta2)
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("identity check needs positive distortions")
    ones = np.ones(d.size)
    joint = joint_rdf(d, delta1, delta2).rate
    r1 = conditional_rdf(d, ones, 1, delta1).rate
    r2 = conditional_rdf(d, ones, 2, delta2).rate
    c = float(np.sum(common_information_terms(d)))
    return abs(joint - (r1 + r2 + c))
