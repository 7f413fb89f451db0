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
not that function itself.  It is solved through its Lagrangian dual by one
damped Newton iteration on the two budget multipliers, projected onto
lam >= 0: the dual's gradient is the budget residual and its Hessian comes
in closed form with the allocation.  Each component's allocation sits
either at the common water levels, in closed form, or on its feasibility
cap, at the one stationary point of the Lagrangian along the cap curve
(:func:`_capped_pairs`).
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
_CAP_STEPS = 100


def _chi(u, w1, wc, c, lam1, lam2):
    """chi(u) of :func:`_capped_pairs`, its derivative in u, and the size of
    its terms, from u, w1 = 1 - u and wc = u - c."""
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
    chi(c) = 1-c > 0 to chi(1) = -(1-c).  The solve is a safeguarded Newton
    iteration on chi, batched over components: the bracket starts at
    (c, 1) and shrinks on the sign of chi, and a step that leaves it or
    meets chi' >= 0 bisects instead.  It starts from the root of the
    quadratic obtained by freezing c/u at sqrt(c), which is exact as the
    interval narrows (d near 1).  All arithmetic uses 1 - u and u - c,
    which are exact near 1, and an iterate is final once chi is zero to the
    rounding of its terms.
    """
    r = np.sqrt(c)
    if lam1 <= _LAM_TINY and lam2 <= _LAM_TINY:
        return 1.0 - r, 1.0 - c / r  # free product maximizer, a1 = a2 = 1 - d
    # start: the root in (c, 1) of k u^2 + b u + (k c - c - r), which is chi
    # with c/u frozen at sqrt(c); q is the cancellation-free form.  A NaN or
    # an infinity from a degenerate quadratic or a zero slope fails the
    # range and bracket tests below and falls back to sqrt(c) or bisection.
    k = lam1 - lam2
    b = 1.0 + r - k * (1.0 + c)
    lo, hi = c, np.ones_like(c)
    tol = 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b + 4.0 * k * (c + r - k * c)), b))
        u = (k * c - c - r) / q
        u = np.where((u > c) & (u < 1.0), u, q / k)
        u = np.where((u > c) & (u < 1.0), u, r)
        for _ in range(_CAP_STEPS):
            chi, slope, size = _chi(u, 1.0 - u, u - c, c, lam1, lam2)
            lo = np.where(chi > 0.0, u, lo)
            hi = np.where(chi < 0.0, u, hi)
            nxt = u - chi / slope
            nxt = np.where((slope < 0.0) & (nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            done = np.abs(chi) <= tol * size
            done |= np.abs(nxt - u) <= tol * u
            u = np.where(done, u, nxt)
            if done.all():
                break
    return 1.0 - u, 1.0 - c / u


def _lagrangian_alloc(d: np.ndarray, lam1: float, lam2: float):
    """Per-component argmax of sum(log a1 + log a2) - lam1 a1 - lam2 a2
    subject to the cap constraints, unique by strict concavity, and the
    Hessian of the dual at (lam1, lam2), which is minus the Jacobian of the
    allocation sums.

    A free component adds diag(a1^2, a2^2), and one with d = 0 adds a^2 on
    each branch where a < 1.  A capped one moves along its cap: with
    u = 1 - a1 and chi' < 0 at its root, it adds s v v^T with
    v = (1, -c/u^2) and s = (1-u)(u-c) / -chi'(u).
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
            u = 1.0 - b1
            wc = u * b2
            s = b1 * wc / -_chi(u, b1, wc, cc, lam1, lam2)[1]
            v2 = -cc / (u * u)
            hess += [[s.sum(), (s * v2).sum()], [(s * v2).sum(), (s * v2 * v2).sum()]]
    return a1, a2, hess


_BUDGET_RTOL = 1e-12
_NEWTON_STEPS = 100
# a line search that lowers nothing in this many halvings marks the rounding
# floor of sum(a); away from that floor none needed more than 7 on 1000
# random instances with 1 - d down to 1e-6 and budgets from 1e-3 to 1e3 b
_HALVINGS = 10


def _budget_residual(lam: np.ndarray, a1: np.ndarray, a2: np.ndarray, delta: np.ndarray):
    """Relative budget residuals; a slack budget whose multiplier is 0 is met."""
    r = (delta - [a1.sum(), a2.sum()]) / delta
    return np.where(lam > 0.0, r, np.minimum(r, 0.0))


def _joint_numerical(d: np.ndarray, delta1: float, delta2: float) -> JointRdfResult:
    # damped Newton on the convex dual over lam >= 0 (Boyd & Vandenberghe,
    # Convex Optimization, 9.5 and 10.2): the gradient is the budget
    # residual delta - sum(a), the Hessian comes with the allocation.  Inside
    # D_W the start n / delta is already the equal-split solution.
    delta = np.array([delta1, delta2])
    start = lam = d.size / delta
    a1, a2, hess = _lagrangian_alloc(d, *lam)
    res = _budget_residual(lam, a1, a2, delta)
    steps = 0
    while steps < _NEWTON_STEPS and np.abs(res).max() > _BUDGET_RTOL:
        # a zero multiplier whose budget is slack stays at 0
        move = (lam > 0.0) | (res < 0.0)
        ridge = 1e-14 * np.trace(hess)
        if ridge == 0.0:
            break  # every component has d = 0 and a = 1: no multiplier moves a
        # cap-coupled components can leave hess near-singular along a
        # valley of the dual; the ridge keeps the step finite there
        h = hess[np.ix_(move, move)] + ridge * np.eye(np.count_nonzero(move))
        step = np.zeros(2)
        step[move] = np.linalg.solve(h, (res * delta)[move])
        # a positive multiplier stops at 0 when the step reaches it, and
        # none grows by more than its value plus its start, which bounds
        # the long steps the ridge allows along a valley.  Then backtrack on
        # the residual norm, not on the dual value, which is flat to
        # rounding near the optimum.
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(step > 0.0, lam, lam + start) / np.abs(step)
        t = min(1.0, reach[(lam > 0.0) | (step < 0.0)].min(initial=np.inf))
        norm = np.linalg.norm(res)
        for _ in range(_HALVINGS + 1):
            trial = np.where((step > 0.0) & (t >= reach), 0.0, np.maximum(lam - t * step, 0.0))
            b1, b2, bhess = _lagrangian_alloc(d, *trial)
            bres = _budget_residual(trial, b1, b2, delta)
            if np.linalg.norm(bres) <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            break  # no trial lowers the residual: it is at the rounding floor of sum(a)
        lam, a1, a2, hess, res = trial, b1, b2, bhess, bres
        steps += 1
    rate = float(0.5 * (np.sum(np.log1p(-d * d)) - np.sum(np.log(a1 * a2))))
    slack1 = delta1 - float(a1.sum())
    slack2 = delta2 - float(a2.sum())
    regime = "numerical"
    if slack1 > 1e-9 * (1.0 + delta1) or slack2 > 1e-9 * (1.0 + delta2):
        regime = "infeasible-region"
    return JointRdfResult(rate=rate, alloc1=a1, alloc2=a2, regime=regime, iterations=steps)


def joint_rdf(d, delta1: float, delta2: float, force_numerical: bool = False) -> JointRdfResult:
    """Joint rate over both branches under the independent-error structure.

    Inside the equal-split region the closed form
    ``sum_j 0.5 log((1 - d_j^2) n^2 / (delta1 delta2))`` applies.  Outside
    it the result is the optimum of the restricted program (errors
    independent across branches and diagonal per component), an upper
    bound on the Gaussian joint rate-distortion function, found by a
    projected Newton solve of the two-multiplier dual.  ``regime`` records
    which path produced the result; ``infeasible-region`` means a budget is
    left slack because every component sits at its cap in the restricted
    program, not that the pair is unreachable.  ``iterations`` counts the
    Newton steps, 0 on the closed form.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("both distortions must be positive")
    n = d.size
    if n == 0:
        return JointRdfResult(0.0, np.zeros(0), np.zeros(0), "closed-form-DW", 0)
    if not force_numerical and in_dw(d, delta1, delta2):
        rate = float(
            0.5 * np.sum(np.log((1.0 - d * d) * n * n / (delta1 * delta2)))
        )
        return JointRdfResult(
            rate=rate,
            alloc1=np.full(n, delta1 / n),
            alloc2=np.full(n, delta2 / n),
            regime="closed-form-DW",
            iterations=0,
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
    c = float(np.sum(common_information_terms(d)))
    return abs(joint - (r1 + r2 + c))
