"""Rate-distortion functions for canonical pairs, marginal and joint.

Marginal and conditional rates come from reverse water-filling over
component variances: each active component is compressed down to a common
level, saturated components keep their variance.  One sorted scan in Python
floats finds that level for every spectrum size; :func:`marginal_rdf`
returns the allocation with the rate, and :func:`marginal_rate` the rate
alone, bit for bit the same, for the callers that read only the number.
The joint rate over both branches restricts the reconstruction errors to be
independent across branches and diagonal per component, which is exact on
the region

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
two-multiplier dual (:func:`ci_dual`), with the same oracle at every
weight, solves both, and its duality gap certifies the rate against the
restricted optimum only.  That oracle solves one root per component, in
Python floats one component at a time up to 32 components and as one numpy
batch above, under one contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonpositiveDistortion, NotPositiveDefinite, OutsideDW,
                     QWNotDiagonal)
from .gaussmodel import (EPS, SGN, TINY, branch_variances, coordinate_branch_variances,
                         log_one_minus_square, one_minus_square, pair_rate)
from .wyner import coefficients, diagonal_entries, family_state


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


def water_level(v: list[float], delta: float) -> float:
    """Level of the exact sorted reverse water-fill, alloc = min(level, v)
    with sum(alloc) = delta, in Python floats.

    With the k smallest variances saturated the level is
    ``(delta - their sum) / (m - k)``, the sum running in sorted order; the
    level is the first such candidate that does not exceed the next
    variance (Cover & Thomas, Elements of Information Theory, 10.3.3), and
    the last candidate where rounding leaves none that fits.  A variance
    equal to the level counts as saturated.  A budget that covers the sum
    gives the largest variance, 0.0 for none.
    """
    if delta >= sum(v):
        return max(v, default=0.0)
    below, m = 0.0, len(v)
    for k, x in enumerate(sorted(v)):
        level = (delta - below) / (m - k)
        if level <= x:
            break
        below += x
    return level


def _rate(v: list[float], level: float) -> float:
    """``0.5 sum_{v > level} log(v / level)``, summed in ``v``'s order; a
    ratio that overflows is taken as ``log v - log level``."""
    total = sum([math.log(x / level) for x in v if x > level], 0.0)
    if total == math.inf:
        total = sum([math.log(x / level) if x / level < math.inf else math.log(x) - math.log(level)
                     for x in v if x > level], 0.0)
    return 0.5 * total


def _variances(variances, delta: float) -> tuple[np.ndarray, list[float]]:
    """The variances as an array and as floats, after the checks that
    :func:`marginal_rdf` and :func:`marginal_rate` share."""
    v = np.atleast_1d(np.asarray(variances, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"variances must form one vector, got shape {v.shape}")
    values = v.tolist()
    # a NaN, which min can pass over, makes the sum NaN
    total = sum(values)
    if total != total or min(values, default=0.0) < 0.0:
        raise NotPositiveDefinite("variances must be nonnegative")
    if total == math.inf and math.inf in values:
        raise NotPositiveDefinite("variances must be finite")
    require_positive(delta, components=len(values))
    return v, values


def marginal_rate(variances, delta: float) -> float:
    """``marginal_rdf(variances, delta).rate``, bit for bit, with the same
    checks and errors but no allocation arrays."""
    _, v = _variances(variances, delta)
    return _rate(v, water_level(v, float(delta)))


def marginal_rdf(variances, delta: float) -> RdfResult:
    """Rate-distortion function of independent Gaussian components.

    ``variances`` are the component variances (eigenvalues of the source
    covariance); the rate is ``sum over active of 0.5 log(v_j / level)``
    and exactly zero once ``delta`` reaches the total variance.  A negative,
    NaN or infinite variance raises :class:`NotPositiveDefinite`.  Callers
    that read only the rate use :func:`marginal_rate`.
    """
    v, values = _variances(variances, delta)
    level = water_level(values, float(delta))
    active = v > level
    return RdfResult(rate=_rate(values, level), alloc=np.where(active, level, v),
                     water_level=level, active_set=np.flatnonzero(active))


def conditional_rdf(d, q, branch: int, delta: float) -> RdfResult:
    """Rate-distortion function of one branch given a diagonal family state.

    Component variances are ``1 - d_j / q_j`` (branch 1, the branch seen
    through the state inverse) or ``1 - d_j q_j`` (branch 2), then reverse
    water-filling as in :func:`marginal_rdf`.  A nonzero off-diagonal entry
    raises :class:`QWNotDiagonal` before :func:`wyner.family_state` reads q.
    """
    d = coefficients(d)
    if diagonal_entries(q) is None:
        raise QWNotDiagonal("conditional rates require a diagonal state covariance")
    qd = family_state(q, d)
    if branch == 1:
        lam = 1.0 - np.divide(d, qd, out=np.zeros_like(d), where=qd > 0)
    elif branch == 2:
        lam = 1.0 - d * qd
    else:
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    return marginal_rdf(np.clip(lam, 0.0, None), delta)


def dw_bound(d) -> float:
    """The equal-split region extends to ``n (1 - d_max)`` per branch."""
    d = coefficients(d)
    if d.size == 0:
        return math.inf
    return d.size * (1.0 - float(np.max(d)))


def in_dw(d, delta1: float, delta2: float) -> bool:
    b = dw_bound(d)
    # the corner is inside; n (1 - d_max) itself rounds, so classify the
    # boundary at ulp scale rather than by exact comparison
    tol = 8.0 * EPS * max(1.0, b) if math.isfinite(b) else 0.0
    return 0.0 <= delta1 <= b + tol and 0.0 <= delta2 <= b + tol


def require_positive(*deltas: float, components: int = 1) -> None:
    """Raise :class:`NonpositiveDistortion` unless every budget is positive
    and leaves each of ``components`` a normal float, ``delta >=
    max(components, 1) * 2.2e-308``; a NaN fails, and ``+inf``, a slack
    budget, passes."""
    for delta in deltas:
        if not delta > 0.0:
            raise NonpositiveDistortion(f"distortion must be positive, got {delta}")
        if delta < max(components, 1) * TINY:
            raise NonpositiveDistortion(f"distortion {delta} leaves each of {max(components, 1)} "
                                        f"components less than the smallest normal float, {TINY}")


def slack_budgets(d: np.ndarray, delta1: float, delta2: float) -> np.ndarray:
    """The budgets as an array, a ``+inf`` one replaced by ``sum(1 - d^2)``.

    No allocation exceeds ``1 - d_j^2``, so that sum is as slack as an
    infinite budget, and a dual solved at it keeps its terms finite.
    """
    budgets = [delta1, delta2]
    if math.inf in budgets:
        s = float(np.sum(one_minus_square(d)))
        budgets = [s if x == math.inf else x for x in budgets]
    return np.array(budgets, dtype=float)


def require_dw(d, delta1: float, delta2: float) -> None:
    """Raise :class:`OutsideDW`, with the bound attached, outside ``D_W``."""
    if not in_dw(d, delta1, delta2):
        b = dw_bound(d)
        raise OutsideDW(f"(delta1, delta2) = ({delta1}, {delta2}) outside the "
                        f"equal-split region [0, {b}]^2", bound=b)


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
_BELOW_ONE = 1.0 - EPS / 2.0  # the largest float below 1


def _certified(rate, a1, a2, lam, delta, regime, iterations) -> JointRdfResult:
    slack = delta - [a1.sum(), a2.sum()]
    residual, gap = float(np.max(-slack / delta)), float(0.5 * lam @ slack)
    return JointRdfResult(rate, a1, a2, regime, iterations, lam, residual, gap)


def _dual_newton(oracle, delta: np.ndarray, start: np.ndarray):
    """Minimize a convex dual over its two budget multipliers by damped
    Newton steps projected onto lam >= 0 (Boyd & Vandenberghe, Convex
    Optimization, 9.5 and 10.2) in floats, cheaper than numpy on 2-vectors.

    ``oracle(lam)`` takes lam as a length-2 float array (nats per unit of
    distortion) and returns ``((h11, h12), (h21, h22)), g, (res1, res2),
    (size1, size2), state``: floats for the dual's Hessian (squared
    distortion per nat), its value (nats), the relative budget residuals
    ``1 - sum_i / delta_i`` (0 on a slack budget whose multiplier is 0; the
    gradient is ``res * delta``) and their rounding sizes, and the primal
    state.  The solve stops once every ``|res_i|`` is within ``_BUDGET_RTOL``
    or ``_FLOOR`` times its size.  Returns the last accepted lam (``start``
    if no step is taken) and state, the Newton steps and the oracle calls.
    """
    lam, (s1, s2), (d1, d2) = start, start.tolist(), delta.tolist()
    l1, l2 = s1, s2
    ((h11, h12), (_, h22)), g, (r1, r2), (z1, z2), state = oracle(lam)
    steps, evals = 0, 1
    while steps < _NEWTON_STEPS and (abs(r1) > max(_FLOOR * z1, _BUDGET_RTOL)
                                     or abs(r2) > max(_FLOOR * z2, _BUDGET_RTOL)):
        ridge = 1e-14 * (h11 + h22)
        if ridge == 0.0:
            break  # no multiplier moves the budget sums
        # a near-singular Hessian along a valley would make the step
        # infinite; a ridge of 1e-14 of each diagonal entry (the trace where
        # one is 0) keeps it finite and free of either multiplier's scale,
        # where a ridge of the trace swamped a multiplier decades below
        h11 += 1e-14 * h11 or ridge
        h22 += 1e-14 * h22 or ridge
        g1, g2 = r1 * d1, r2 * d2
        # a zero multiplier whose budget is slack stays at 0
        move1, move2 = l1 > 0.0 or r1 < 0.0, l2 > 0.0 or r2 < 0.0
        # a determinant underflowed to 0 (entries below ~1e-154), or a step
        # that overflows (entries above ~1e154, as a multiplier near the
        # smallest normal float gives): per-multiplier steps
        det, p1, p2 = h11 * h22 - h12 * h12, math.nan, math.nan
        if move1 and move2 and det > 0.0:
            p1, p2 = (h22 * g1 - h12 * g2) / det, (h11 * g2 - h12 * g1) / det
        if not math.isfinite(p1 + p2):
            p1, p2 = g1 / h11 if move1 else 0.0, g2 / h22 if move2 else 0.0
        # a positive multiplier stops at 0 when the step reaches it, and
        # none grows by more than its value plus its start, which bounds
        # the long steps the ridge allows along a valley
        e1, e2 = ((lm if p > 0.0 else lm + s) / abs(p) if p else math.inf
                  for lm, s, p in ((l1, s1, p1), (l2, s2, p2)))
        t = min(1.0, *(e for e, lm, p in ((e1, l1, p1), (e2, l2, p2)) if lm > 0.0 or p < 0.0))
        stalls = halvings = 0
        while stalls <= _HALVINGS and halvings < _LINE_STEPS:
            q1 = 0.0 if p1 > 0.0 and t >= e1 else max(l1 - t * p1, 0.0)
            q2 = 0.0 if p2 > 0.0 and t >= e2 else max(l2 - t * p2, 0.0)
            out = oracle(trial := np.array([q1, q2]))
            evals += 1
            # Armijo on the dual value while its predicted decrease is above
            # the rounding of g: on a flat stretch of the dual the residual
            # norm can stall while g still falls.  Below that rounding only
            # the residual norm can tell progress, and halvings that lower
            # nothing mark the rounding floor of the budget sums.
            drop = g1 * (l1 - q1) + g2 * (l2 - q2)
            if drop > _G_ROUND * (1.0 + abs(g)):
                if out[1] <= g - 1e-4 * drop:
                    break
            elif math.hypot(*out[2]) <= (1.0 - 1e-4 * t) * math.hypot(r1, r2):
                break
            else:
                stalls += 1
            t *= 0.5
            halvings += 1
        else:
            break  # no trial lowers the residual: it is at the rounding floor
        lam, l1, l2, (((h11, h12), (_, h22)), g, (r1, r2), (z1, z2), state) = trial, q1, q2, out
        steps += 1
    return lam, state, steps, evals


# per-coordinate Newton steps on h' in ci_dual; bisection alone reaches
# rounding on the bracket (log d, -log d) in under 60 halvings
_INNER_STEPS = 80
# ci_dual solves its inner roots in Python floats, one coordinate at a time,
# up to this many coordinates, and as one numpy batch above, where numpy's
# per-call cost is spread over enough coordinates.  On the joint workload's
# budget pairs outside D_W (2-core Xeon, one BLAS thread) a joint_rdf solve
# took 0.37 ms in floats against 0.47 ms batched at 32 coordinates, 0.49
# against 0.49 at 48, 0.61 against 0.49 at 64 and 1.07 against 0.57 at 128:
# the crossover sits near 48
_FLOAT_COORDS = 32


def ci_dual(d: np.ndarray, delta: np.ndarray, alpha: np.ndarray):
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
    bracket find its root.  Each evaluation starts from the previous
    evaluation's roots moved to first order in mu,
    ``du_j/dmu_i = -sgn_i w_ij / h_j''`` on a saturated branch (0 on an
    active one), at most halfway to the family boundary.

    The roots are solved in Python floats, one coordinate at a time, for
    up to ``_FLOAT_COORDS`` (32) coordinates, and as one numpy batch over
    all coordinates above that, where the batch is faster.  Both paths run
    the same start, steps, stop test and sums, so they are one oracle under
    the contract of :func:`_dual_newton`; they differ only by the rounding
    of numpy's and ``math``'s functions and the order of the sums.

    At unit weights this is the restricted program of :func:`joint_rdf`
    with ``lam = 2 mu``: ``x1 <= 1 - d/q`` and ``x2 <= 1 - d q`` for some
    q is the cap ``(1 - x1)(1 - x2) >= d^2``, and the same oracle solves
    it.  There an active piece has no ``log v`` term and adds
    ``c_i / mu_i = 2 c_i^2`` to the Hessian, and a coordinate with both
    branches saturated sits on the cap by construction,
    ``(1 - v_1)(1 - v_2) = d e^{-u} d e^{u} = d^2``.
    h is flat where both branches are active, so the root found for u may
    lie anywhere on that stretch; the state returned is the one nearest 1,
    the least R0, that admits the allocations.

    The dual over mu >= 0 (``delta`` finite, as :func:`slack_budgets` maps
    it) is solved by :func:`_dual_newton` from a start set by the weights.
    At unit weights it is ``1 / (2 level)`` for each budget's water level
    over ceilings from the cap curve: the optimum where ``delta1 = delta2``,
    the equal split inside ``D_W``, and 0 on a budget of ``sum(1 - d^2)``
    or more, which is slack.  Elsewhere it is the equal split's ``alpha_i n
    / (2 delta_i)``.  So :func:`joint_rdf` and the (1, 1) point of
    :func:`graywyner.region_sweep` are one solve.  The gradient is
    ``delta - sum_j x_ij`` and the Hessian
    ``diag(sum_active c_i / mu_i) + sum_j s s^T / h_j''``, with s the
    saturated slopes ``dv_i/du``.  A saturated x_ij = v_ij(u_j) inherits
    the inner roots' stopping error 2 eps |u_j|, so the budget sums round
    by ``sum_saturated w_ij 2 eps |u_j|``, and the solve stops within a few
    of that rounding (it exceeds 1e-12 of delta_i only where delta_i is tiny
    and |u| large).

    Returns ``(x, u, mu, bound, steps, evals, converged)``: the
    allocations, the state ``u = log q``, the multipliers, the dual bound
    on the objective, the Newton steps, the dual evaluations and whether
    the solve stopped before its step cap.
    """
    with np.errstate(divide="ignore"):
        ld = np.log(d)  # -inf where d = 0
    kh = 0.5 * (1.0 - alpha)[:, None]
    weights, (d1, d2) = alpha.tolist(), delta.tolist()
    if weights == [1.0, 1.0]:
        # the water levels over the ceilings max(p_ij, 1 - d_j), p_j where
        # the ray a2 = rho a1 meets the cap (in cancellation-free form, with
        # (1 + rho)^2 factored out of the root; rho = sqrt(delta2 / delta1)
        # as a ratio of roots; neither overflows at any budget ratio that
        # require_positive admits).  No allocation exceeds 1 - d^2
        s = one_minus_square(d)
        rho = math.sqrt(d2) / math.sqrt(d1)
        r = 1.0 + rho
        p1 = 2.0 * s / (r * (1.0 + np.sqrt(1.0 - 4.0 * s * (rho / r) / r)))
        start = np.array([0.5 * (1.0 / water_level(np.maximum(p, 1.0 - d).tolist(), x))
                          for p, x in ((p1, d1), (rho * p1, d2))])
        start[delta >= s.sum()] = 0.0
    else:
        start = alpha * d.size / (2.0 * delta)  # the equal split's multipliers
    u = np.zeros(d.size)
    # the multipliers of the last family evaluation and its du/dmu
    last_mu, slope = np.zeros(2), np.zeros((2, d.size))

    def terms(w, v, active, m):
        # h' = psi_1 w_1 - psi_2 w_2 with psi_i = b_i - a_i / v_i: a = kh
        # and b = 0 on an active piece, a = 1/2 and b = mu on a saturated
        # one.  Returns the terms psi_i w_i, the size of those terms (for
        # the rounding of h') and h'' = sum_i (a_i w_i^2 / v_i^2 - psi_i w_i)
        a = np.where(active, kh, 0.5)
        b = np.where(active, 0.0, m)
        r = 1.0 / v
        pw = (b - a * r) * w
        ct = a * r * r * w * w - pw
        sz = (0.5 * r + b) * w
        return pw, sz[0] + sz[1], ct[0] + ct[1]

    def batch_roots(mu, c1, c2, p1, p2):
        # every coordinate's root at once; returns the dual value's family
        # sum, the branch sums of x and of w 2 eps |u| over saturated pieces,
        # the entries s11, s12, s22 of sum_j s s^T, the active counts and
        # the state (x, u)
        nonlocal u, last_mu, slope
        m, c, pinned = mu[:, None], np.array([[c1], [c2]]), np.array([[p1], [p2]])
        with np.errstate(divide="ignore", invalid="ignore"):
            # the last roots moved to first order in mu, at most halfway to
            # the family boundary
            u = np.clip(u - (mu - last_mu) @ slope, 0.5 * (ld + u), 0.5 * (u - ld))
            lo, hi = ld, -ld
            for it in range(_INNER_STEPS):
                w, v = branch_variances(ld, u)
                active = v > c
                pw, size, curv = terms(w, v, active, m)
                grad = pw[0] - pw[1]
                lo = np.where(grad < 0.0, u, lo)
                hi = np.where(grad > 0.0, u, hi)
                nxt = u - grad / curv
                nxt = np.where((curv > 0.0) & (nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
                done = (abs(grad) <= 8.0 * EPS * size) | (abs(nxt - u) <= 2.0 * EPS * abs(u))
                if done.all() or it == _INNER_STEPS - 1:
                    break
                u = np.where(done, u, nxt)
            sat = ~active & (c > 0.0)  # a branch with zero weight has no allocation
            # dh'/dmu_i = sgn_i w_i on a saturated branch, so a root moves by
            # du/dmu_i = -sgn_i w_i / h''; s = that times sqrt(h'')
            root = np.sqrt(np.where(curv > 0.0, curv, 1.0))
            s = np.where(sat, SGN * w, 0.0) / root
            last_mu, slope = mu, s / root
        lv = np.log(v)
        value = np.where(active, pinned - kh * lv, m * v - 0.5 * lv)
        x = np.where(active, c, v)
        z = (np.where(active, 0.0, w) @ (2.0 * EPS * np.abs(u))).tolist()
        (s11, s12), (_, s22) = (s @ s.T).tolist()
        counts = active.sum(1).tolist()
        return float(value.sum()), x.sum(1).tolist(), z, (s11, s12, s22), counts, (x, u)

    (k1, k2), lds = (0.5 * (1.0 - a) for a in weights), ld.tolist()
    roots, slopes, last = [0.0] * d.size, [(0.0, 0.0)] * d.size, (0.0, 0.0)
    grad_tol, step_tol, last_step = 8.0 * EPS, 2.0 * EPS, _INNER_STEPS - 1

    def float_roots(mu, c1, c2, p1, p2):
        # batch_roots one coordinate at a time in Python floats.  Where
        # numpy gives +-inf for 1 / 0 and -inf for log 0, math raises, so
        # both are spelled out; a d = 0 coordinate (l = -inf) stays at u = 0
        # with w = 0 and v = 1, and its h' = 0 meets the stop test at once
        nonlocal last
        (mu1, mu2), (m1, m2) = mu.tolist(), last
        dm1, dm2, last = mu1 - m1, mu2 - m2, (mu1, mu2)
        value = sum1 = sum2 = z1 = z2 = s11 = s12 = s22 = 0.0
        n1 = n2 = 0
        x1, x2 = [], []
        for j, l in enumerate(lds):
            u, (t1, t2) = roots[j], slopes[j]
            u = min(max(u - (dm1 * t1 + dm2 * t2), 0.5 * (l + u)), 0.5 * (u - l))
            lo, hi = l, -l
            for it in range(_INNER_STEPS):
                w1, v1, w2, v2 = coordinate_branch_variances(l, u)
                # a = kh and b = 0 on an active piece, 1/2 and mu on a saturated one
                act1, act2 = v1 > c1, v2 > c2
                if act1:
                    a1, b1 = k1, 0.0
                else:
                    a1, b1 = 0.5, mu1
                if act2:
                    a2, b2 = k2, 0.0
                else:
                    a2, b2 = 0.5, mu2
                r1 = 1.0 / v1 if v1 else math.copysign(math.inf, v1)
                r2 = 1.0 / v2 if v2 else math.copysign(math.inf, v2)
                pw1, pw2 = (b1 - a1 * r1) * w1, (b2 - a2 * r2) * w2
                grad = pw1 - pw2
                if grad < 0.0:
                    lo = u
                elif grad > 0.0:
                    hi = u
                curv = (a1 * r1 * r1 * w1 * w1 - pw1) + (a2 * r2 * r2 * w2 * w2 - pw2)
                size = (0.5 * r1 + b1) * w1 + (0.5 * r2 + b2) * w2
                if abs(grad) <= grad_tol * size or it == last_step:
                    break
                # NaN where h'' <= 0, which fails the bracket test
                nxt = u - grad / curv if curv > 0.0 else math.nan
                if not lo < nxt < hi:
                    nxt = 0.5 * (lo + hi)
                if abs(nxt - u) <= step_tol * abs(u):
                    break
                u = nxt
            roots[j] = u
            root = math.sqrt(curv) if curv > 0.0 else 1.0
            # a saturated branch of zero weight has no allocation
            e1 = (w1 if not act1 and c1 > 0.0 else 0.0) / root
            e2 = (-w2 if not act2 and c2 > 0.0 else 0.0) / root
            slopes[j] = (e1 / root, e2 / root)
            s11, s12, s22 = s11 + e1 * e1, s12 + e1 * e2, s22 + e2 * e2
            lv1 = math.log(v1) if v1 > 0.0 else -math.inf
            lv2 = math.log(v2) if v2 > 0.0 else -math.inf
            value += p1 - k1 * lv1 if act1 else mu1 * v1 - 0.5 * lv1
            value += p2 - k2 * lv2 if act2 else mu2 * v2 - 0.5 * lv2
            xa, xb = c1 if act1 else v1, c2 if act2 else v2
            x1.append(xa)
            x2.append(xb)
            sum1, sum2, n1, n2 = sum1 + xa, sum2 + xb, n1 + act1, n2 + act2
            zu = step_tol * abs(u)
            z1, z2 = z1 + (0.0 if act1 else w1 * zu), z2 + (0.0 if act2 else w2 * zu)
        state = np.array([x1, x2]), np.array(roots)
        return value, (sum1, sum2), (z1, z2), (s11, s12, s22), (n1, n2), state

    solve_roots = float_roots if d.size <= _FLOAT_COORDS else batch_roots

    def residuals(mu1, mu2, sum1, sum2):
        # a slack budget whose multiplier is 0 counts as met
        r1, r2 = 1.0 - sum1 / d1, 1.0 - sum2 / d2
        return r1 if mu1 > 0.0 else min(r1, 0.0), r2 if mu2 > 0.0 else min(r2, 0.0)

    def family_oracle(mu):
        mu1, mu2 = mu.tolist()
        c1, c2 = (a / (2.0 * mi) if mi > 0.0 else math.inf if a > 0.0 else 0.0
                  for a, mi in zip(weights, (mu1, mu2)))  # inf on a weighted branch with mu = 0
        # -alpha/2 log c + mu c, the value of a weighted active piece
        p1, p2 = (0.5 * a * (1.0 - math.log(ci)) if 0.0 < ci < math.inf else 0.0
                  for a, ci in zip(weights, (c1, c2)))
        value, sums, (z1, z2), (s11, h12, s22), counts, (x, u) = solve_roots(mu, c1, c2, p1, p2)
        g = mu1 * d1 + mu2 * d2 - value
        # each active piece of a priced branch adds c_i / mu_i to the diagonal
        h11, h22 = (sii + n * ci / mi if mi > 0.0 else sii for sii, n, ci, mi
                    in zip((s11, s22), counts, (c1, c2), (mu1, mu2)))
        res = residuals(mu1, mu2, *sums)
        return ((h11, h12), (h12, h22)), g, res, (z1 / d1, z2 / d2), (x, u, g)

    mu, (x, u, g), steps, evals = _dual_newton(family_oracle, delta, start)
    if weights == [1.0, 1.0]:
        # the state of least R0 with x_i <= v_i(u) on both branches, u = 0
        # where d = 0 (there lo = -inf and hi = inf); on the cap lo = hi,
        # taken from the smaller allocation, whose 1 - x keeps its precision.
        # An allocation that rounds to 1 (d e^{-+u} at most eps / 4) is read
        # as the largest float below 1, which leaves the state free where
        # both do
        with np.errstate(divide="ignore", invalid="ignore"):
            xb = np.minimum(x, _BELOW_ONE)
            lo, hi = ld - np.log1p(-xb[0]), np.log1p(-xb[1]) - ld
            u = np.where(lo < hi, np.minimum(np.maximum(lo, 0.0), hi), np.where(x[0] <= x[1], lo, hi))
    bound = 0.5 * float(np.sum(log_one_minus_square(d))) - g
    return x, u, mu, bound, steps, evals, steps < _NEWTON_STEPS


def _joint_numerical(d: np.ndarray, delta1: float, delta2: float) -> JointRdfResult:
    """``joint_rdf`` outside ``D_W``: one :func:`ci_dual` call at unit weights."""
    delta = slack_budgets(d, delta1, delta2)
    (a1, a2), _, mu, _, steps, _, _ = ci_dual(d, delta, np.ones(2))
    rate = pair_rate(d, np.log(a1).tolist(), np.log(a2).tolist())
    slack = delta - [a1.sum(), a2.sum()]
    regime = "infeasible-region" if np.any(slack > 1e-9 * (1.0 + delta)) else "numerical"
    return _certified(rate, a1, a2, 2.0 * mu, delta, regime, steps)


def joint_rdf(d, delta1: float, delta2: float) -> JointRdfResult:
    """Joint rate over both branches under the independent-error structure.

    Inside the equal-split region the closed form
    ``sum_j 0.5 log((1 - d_j^2) n^2 / (delta1 delta2))`` applies.  Outside
    it the result is the optimum of the restricted program (errors
    independent across branches and diagonal per component), an upper
    bound on the Gaussian joint rate-distortion function: one call of
    :func:`ci_dual` at unit weights, with ``multipliers = 2 mu``, the same
    solve as the (1, 1) point of :func:`graywyner.region_sweep`; at
    ``delta1 = delta2`` its start is the optimum and it takes 0 steps.
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
    d = coefficients(d)
    n = d.size
    require_positive(delta1, delta2, components=n)
    if n == 0:
        # nothing to allocate: every budget, an infinite one too, is all slack
        empty = np.zeros(0)
        return JointRdfResult(0.0, empty, empty.copy(), "closed-form-DW", 0, np.zeros(2),
                              -1.0, 0.0)
    if in_dw(d, delta1, delta2):
        delta = np.array([delta1, delta2], dtype=float)
        a1, a2 = np.full(n, delta1) / n, np.full(n, delta2) / n
        rate = pair_rate(d, np.log(a1).tolist(), np.log(a2).tolist())
        return _certified(rate, a1, a2, n / delta, delta, "closed-form-DW", 0)
    return _joint_numerical(d, float(delta1), float(delta2))


def gray_lower_bound(d, delta1: float, delta2: float) -> float:
    """Sum of one marginal rate and the other branch's residual rate.

    ``R_{Y1}(delta1) + R_{Y2|Y1}(delta2)`` where the residual variances of
    branch 2 given branch 1 are ``1 - d_j^2``.  A lower bound on the joint
    rate, tight where the equal-split solution keeps all components active.
    """
    d = coefficients(d)
    return marginal_rate(np.ones(d.size), delta1) + marginal_rate(one_minus_square(d), delta2)
