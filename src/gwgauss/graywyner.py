"""Rate triples for the three-terminal lossy network with a shared branch.

A state W feeding both decoders yields the achievable triple

    R0 = I(Y1, Y2; W),   R1 = R_{Y1|W}(delta1),   R2 = R_{Y2|W}(delta2)

and the sum R0 + R1 + R2 is bounded below by the joint rate.  On the
equal-split distortion region the identity state closes that bound
exactly, so the shared rate needed on the minimum-sum-rate surface equals
the common information; :func:`pangloss_triple` returns that point.

:func:`region_sweep` traces the CI-family weighted rate
``T(alpha1, alpha2) = min_W [ R0 + alpha1 R1 + alpha2 R2 ]`` over the
Gaussian states W that make Y1 and Y2 conditionally independent.  For
weights in [0, 1] the weighted rate is convex in the state, and
per-component sign flips map the family to itself, so the diagonal states
``d_j <= q_j <= 1/d_j`` attain the minimum: T is exact over Gaussian CI
states and an upper bound on the Gray-Wyner surface, which allows any W.
Each weight pair gets its state in one of three ways.  Where no priced
branch saturates, each component's state is the root of a quadratic
(:func:`gaussmodel.free_state`) with the equal split of each budget, a KKT
point of the convex program and so its optimum (Boyd & Vandenberghe,
Convex Optimization, 5.5.3).  Where one weight is 1 that branch saturates
in every component, and where the other branch takes its equal split or
no price only the first branch's multiplier is live: one Newton iteration
solves its water level with every state, held in the edge-exact
coordinate of :func:`gaussmodel.edge_state`.  Elsewhere the state comes
from the dual over the two budget multipliers (:func:`rdf.ci_dual`).  Each
state gives R0 in closed form (:func:`gaussmodel.pair_rate`), and each
point certifies itself by the dual bound, which the first two ways meet
up to rounding.
At (1, 1) T equals the joint rate of :func:`rdf.joint_rdf`: its closed form
on the equal-split region, and outside it the restricted program, which is
the same minimum over diagonal CI states, found by one :func:`rdf.ci_dual` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QWOutOfFamily
from .gaussmodel import (EPS, TINY, common_information_terms, edge_coordinate, edge_state,
                         free_state, log_branch_variances, log_variance, one_minus_square,
                         pair_rate)
from .rdf import ci_dual, marginal_rate, require_dw, require_positive, slack_budgets, water_level
from .wyner import coefficients


@dataclass(frozen=True)
class RateTriple:
    """Shared and private rates at a distortion pair, in nats."""

    r0: float
    r1: float
    r2: float
    delta1: float
    delta2: float


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One point of the CI-family weighted rate, with its dual certificate."""

    alpha1: float
    alpha2: float
    objective: float
    triple: RateTriple
    q: np.ndarray
    iterations: int  # dual evaluations; Newton steps on "one-multiplier"; 0 on the closed form
    converged: bool  # the solve stopped before its step cap; True on the closed form
    gap: float  # objective - dual bound + rounding allowance, >= objective - family minimum
    multipliers: np.ndarray  # budget multipliers (mu1, mu2) of the dual bound
    # "closed-form" where no priced branch saturates, "one-multiplier" where one
    # weight is 1 and the other's equal split holds, else "dual"
    path: str


def lossy_common_information(d, delta1: float, delta2: float) -> float:
    """Shared rate on the minimum-sum-rate surface, constant over the region.

    Equals the common information ``0.5 sum(log((1+d)/(1-d)))`` whenever
    both distortions are within the equal-split bound; beyond it the
    closed form no longer applies and :class:`OutsideDW` is raised with
    the bound attached.
    """
    d = coefficients(d)
    require_positive(delta1, delta2, components=d.size)
    require_dw(d, delta1, delta2)
    return float(np.sum(common_information_terms(d)))


def pangloss_triple(d, delta1: float, delta2: float) -> RateTriple:
    """The minimum-sum-rate triple at the identity state.

    R0 is the common information; R1 and R2 are the branch rates given
    that state, water-fills over its branch variances ``1 - d``
    (:func:`rdf.marginal_rate`).  Their sum equals the joint rate on the
    region.
    """
    d = coefficients(d)
    require_positive(delta1, delta2, components=d.size)
    require_dw(d, delta1, delta2)
    return RateTriple(
        r0=float(np.sum(common_information_terms(d))),
        r1=marginal_rate(1.0 - d, delta1),
        r2=marginal_rate(1.0 - d, delta2),
        delta1=float(delta1),
        delta2=float(delta2),
    )


# gap rounding allowance, in eps per unit of |T| + sum |log v|, the spread of
# the terms behind T and the bound at the state's own branch variances v, but
# at least n, one per component: raw gaps were seen down to -1.9 of that unit
# over 5600 random points, and down to -0.14 eps absolute at n = 1 with
# spreads from 1e-14 to 0.015
_GAP_ROUNDING = 4.0


def weight_grid(ticks: int) -> list[tuple[float, float]]:
    """The weight pairs ``(alpha1, alpha2)`` with ``alpha1 + alpha2 >= 1`` on
    a grid of ``ticks`` evenly spaced values per axis over [0, 1]; one tick
    is the single pair (1, 1)."""
    axis = [i / (ticks - 1) for i in range(ticks)] if ticks > 1 else [1.0]
    return [(a1, a2) for a1 in axis for a2 in axis if a1 + a2 >= 1.0]


def _closed_form(ds: list[float], k1: float, k2: float, c1: float, c2: float):
    """``(q, v1, log v1, v2, log v2)`` as lists over the components at the
    states of :func:`gaussmodel.free_state`, or ``None`` unless every branch
    variance lies above its share ``c_i`` (0 on a branch without weight);
    each log is taken once its variance has passed that test."""
    q, v1, lv1, v2, lv2 = [], [], [], [], []
    for x in ds:
        qj, w1, x1, w2, x2 = free_state(x, k1, k2)
        if not (x1 > c1 and x2 > c2):
            return None
        q.append(qj)
        v1.append(x1)
        v2.append(x2)
        lv1.append(log_variance(w1, x1))
        lv2.append(log_variance(w2, x2))
    return q, v1, lv1, v2, lv2


# Newton steps of the one-multiplier solve: at most 1 on benchmark-like
# instances, and at most 69 over 36000 random draws with up to 8 coefficients
# from 1e-300 to within 1e-16 of 1, budgets from n times the smallest normal
# float to within 1e-16 of slack, and weights within 1e-16 of 1
_ONE_STEPS = 100
# Newton steps of its start, in floats that lose precision near the edge,
# and the residuals at which the start stops
_START_STEPS = 6
_START_RESIDUAL = 1e-14
# a step moves the water level only while every stationarity residual is
# below this; larger ones move the states alone, each inside its bracket
_JOINT = 0.5
_LOG_TINY = math.log(TINY)
_LOG_THREE_QUARTERS = math.log(0.75)


def _one_multiplier(ds: list[float], frees: list, s: int, k: float, delta: float):
    """``(states, c, steps, converged)`` of a sweep point where branch s has
    weight 1 and a budget ``delta`` below ``sum(v_s)`` at ``frees``, the
    :func:`gaussmodel.free_state` states of ``mu_s = 0``, and the other
    branch o adds ``-k log v_o`` per component, ``0 < k <= 1/2``.

    Branch s saturates in every component, ``x_s = v_s``, so one multiplier
    is live, ``mu_s = 1 / (2 c)``.  With ``P = 2 k v_s w_o / (v_o w_s)`` the
    point solves the stationarity ``v_s / c + P = 1`` of each component,
    which is ``v_o w_s (c - v_s) = 2 k w_o v_s c``, and ``sum v_s = delta``.
    Each state is held in the coordinate ``t = log(v1 / v2)`` of
    :func:`gaussmodel.edge_state`, which keeps its v and w within a few eps
    up to the family edge; ``tau = log(v_s / v_o)`` is t or -t.  Newton
    steps on ``F = log(v_s / c + P)`` per component and ``H = log(sum v_s /
    delta)``, in the states and ``y = log c``, solve this arrowhead system
    through its Schur complement, in O(n) floats a step.  Safeguards:

    * y keeps a bracket.  c is at least the water level of the ``v_s`` at
      ``mu_s = 0`` over delta, as each v_s lies below c and below that
      value; an evaluation whose F all have one sign and whose H has the
      other moves an end.  A step across an end goes halfway to it, and a
      step that raises c is taken in ``1/c``, exact near slack, where
      ``sum v_s`` is linear in ``mu_s``.
    * While some ``|F|`` exceeds ``_JOINT`` only the states move, each
      inside a bracket of tau at that c: tau at ``mu_s = 0`` above, where F
      is positive at every c, the log of the smallest normal float below,
      and the signs of F evaluated in between.  A step across an end goes
      halfway to it.
    * Where both w lie below 1/2, a step that moves q by more than 1 % is
      taken in ``u = log q`` and mapped back by
      :func:`gaussmodel.edge_coordinate`: with d tiny, F is linear in u
      there but log-like in t.

    The start takes the same Newton steps in floats of v_s, where
    ``P = 2 k d^2 v_s / ((1 - v_s)(1 - d^2 - v_s))``, from c at that water
    level and v_s = min(c, v_s at ``mu_s = 0``); each v_s is then the state
    of :func:`gaussmodel.free_state` whose weights ``(k, P / 2)`` give its
    P.  The solve stops once each residual is within 8 eps of its rounding
    size, at the step cap, or where a step moves nothing.
    """
    n = len(ds)
    sign = 1.0 if s == 0 else -1.0
    lk = math.log(2.0 * k)
    vf = [f[2 + 2 * s] for f in frees]
    c = water_level(vf, delta)
    y = ylo = math.log(c)
    yhi = math.inf
    cubics = [(2.0 * k * x * x, one_minus_square(x)) for x in ds]
    alloc = [min(c, v) for v in vf]
    for _ in range(_START_STEPS):
        m = 1.0 / c
        total = num = den = worst = 0.0
        rows = []
        for (e, z), v in zip(cubics, alloc):
            # v_s rounds to 1 - d^2 only where d^2 is below eps: there P is 0
            p = e * v / ((1.0 - v) * (z - v)) if v < z else 0.0
            res = v * m + p - 1.0
            slope = m + (p * (1.0 / v + 1.0 / (1.0 - v) + 1.0 / (z - v)) if p else 0.0)
            num += res / slope
            den += v * m / slope
            total += v
            worst = max(worst, abs(res))
            rows.append((res, slope))
        h = math.log(total / delta)
        dy = (num - total * h) / den if den else math.inf
        if max(worst, abs(h)) <= _START_RESIDUAL or not abs(dy) < 700.0:
            break
        y = max(y - math.log1p(-dy) if 0.0 < dy < 1.0 else y + dy, ylo)
        dy, c = y - math.log(c), math.exp(y)
        # each v_s stays above half its value and below halfway to 1 - d^2
        alloc = [min(max(v + (v * m * dy - res) / slope, 0.5 * v), 0.5 * (v + z))
                 for (res, slope), (_, z), v in zip(rows, cubics, alloc)]
    # each bracket end is (tau, u, larger w); the upper one starts at mu_s = 0
    top = [(sign * (log_variance(f[1], f[2]) - log_variance(f[3], f[4])), math.log(f[0]),
            max(f[1], f[3])) for f in frees]
    floor = (_LOG_TINY, 0.0, 1.0)
    ts = []
    for x, v, (hi, _, _) in zip(ds, alloc, top):
        p = min(max(1.0 - v / c, TINY), 1.0)
        k1, k2 = (0.5 * p, k) if s == 0 else (k, 0.5 * p)
        big = max(k1, k2)
        _, w1, v1, w2, v2 = free_state(x, k1 / big, k2 / big)
        tau = sign * (log_variance(w1, v1) - log_variance(w2, v2))
        ts.append(sign * min(max(tau, 0.5 * _LOG_TINY), hi))
    lo, hi = [floor] * n, list(top)
    steps = 0
    while True:
        total = num = den = rounding = 0.0
        states, rows = [], []
        met = above = below = joint = True
        for j, (x, t) in enumerate(zip(ds, ts)):
            state = q, w1, v1, w2, v2 = edge_state(x, t)
            vs, ws, vo, wo = (v1, w1, v2, w2) if s == 0 else (v2, w2, v1, w1)
            lvs, u, tau = math.log(vs), math.log(q), sign * t
            ra, rb = lvs - y, lk + tau + 2.0 * sign * u  # log(v_s / c), log P
            e = math.exp(-abs(ra - rb))
            res = max(ra, rb) + math.log1p(e)
            share = 1.0 / (1.0 + e) if ra >= rb else e / (1.0 + e)  # of v_s / c in F
            dd = ws * vo + wo * vs
            grow = ws * vo / dd  # dlog v_s / dtau; dlog P / dtau is 1 + 2 vs vo / dd
            slope = share * grow + (1.0 - share) * (1.0 + 2.0 * vs * vo / dd)
            tol = 8.0 * EPS * (share * (2.0 + abs(lvs) + abs(y))
                               + (1.0 - share) * (4.0 + abs(lk) + abs(t) + 2.0 * abs(u)))
            met = met and abs(res) <= tol
            above, below = above and res >= -tol, below and res <= tol
            joint = joint and abs(res) <= _JOINT
            if res > tol and tau < hi[j][0]:
                hi[j] = (tau, u, max(w1, w2))
            elif res < -tol and tau > lo[j][0]:
                lo[j] = (tau, u, max(w1, w2))
            g = vs * grow / slope  # d sum v_s / dtau over dF / dtau
            num += g * res
            den += g * share
            total += vs
            rounding += vs * (2.0 + abs(t))
            states.append(state)
            rows.append((res, share, slope, u, max(w1, w2), v1 * v2 / dd))
        h = math.log(total / delta)
        if abs(h) <= 8.0 * EPS * (n + rounding / total):
            if met:
                return states, math.exp(y), steps, True
            h = 0.0  # the budget is met to rounding; the states alone move
        if steps == _ONE_STEPS:
            return states, math.exp(y), steps, False
        steps += 1
        dy = 0.0
        if joint:
            if above and h <= 0.0:
                ylo = max(ylo, y)
            if below and h >= 0.0:
                yhi = min(yhi, y)
            dy = (num - total * h) / den if den > 0.0 else math.copysign(math.inf, num - total * h)
            new = y - math.log1p(-dy) if 0.0 < dy < 1.0 else y + dy
            if new < ylo:
                new = 0.5 * (ylo + y)
            elif new > yhi:
                new = 0.5 * (y + yhi)
            elif new == math.inf:
                new = y + 1.0
            dy, y = new - y, new
            if dy:
                lo, hi = [floor] * n, list(top)
        moved = []
        for j, (x, t, (res, share, slope, u, w, dudt)) in enumerate(zip(ds, ts, rows)):
            dt = sign * (share * dy - res) / slope
            if w < 0.5 and abs(dt * dudt) > 0.01:
                lx = math.log(x)
                tau = sign * edge_coordinate(x, min(max(u + dt * dudt, lx - _LOG_THREE_QUARTERS),
                                                    _LOG_THREE_QUARTERS - lx))
            else:
                tau = sign * (t + dt)
            # a step across a bracket end goes halfway to it, in u where
            # both lie in the interior
            end = lo[j] if tau <= lo[j][0] else hi[j] if tau >= hi[j][0] else None
            if end is None:
                moved.append(sign * tau)
            elif w < 0.5 and end[2] < 0.5:
                moved.append(edge_coordinate(x, 0.5 * (u + end[1])))
            else:
                moved.append(t + 0.5 * (sign * end[0] - t))
        if moved == ts and dy == 0.0:
            return states, math.exp(y), steps, False
        ts = moved


def _unit_weight_state(ds, s, a, budgets, shares, edge):
    """``(q, v1, lv1, v2, lv2, mu, steps, converged)``, the first five over
    the components, at weight 1 on branch s and ``a < 1`` on the other branch o,
    or ``None`` where the equal split of a priced o fails the region test.

    o carries no price where ``a = 0`` or its budget reaches ``edge``,
    ``sum(1 - d^2)``, above every sum of its variances: ``mu_o = 0``, and its
    ``-log v_o`` term keeps weight 1/2 in R0.  Otherwise it takes the equal
    split, ``mu_o = a n / (2 delta_o)`` and weight ``(1 - a)/2``, which holds
    where every ``v_o`` exceeds its share.  A budget of s at or above
    ``sum(v_s)`` at the :func:`gaussmodel.free_state` states of ``mu_s = 0``
    is slack, and those states are the point; elsewhere
    :func:`_one_multiplier` solves it.
    """
    o = 1 - s
    priced = a > 0.0 and budgets[o] < edge
    k = 0.5 * (1.0 - a) if priced else 0.5
    frees = [free_state(x, 0.5, k) if s == 0 else free_state(x, k, 0.5) for x in ds]
    mu = [0.0, 0.0]
    if budgets[s] >= sum(f[2 + 2 * s] for f in frees):
        states, steps, converged = frees, 0, True
    else:
        states, c, steps, converged = _one_multiplier(ds, frees, s, k, budgets[s])
        mu[s] = 0.5 / c
    if priced:
        if not all(state[4 - 2 * s] > shares[o] for state in states):
            return None
        mu[o] = 0.5 * a / shares[o]  # a n / (2 delta_o)
    q, w1, v1, w2, v2 = zip(*states)
    lv1, lv2 = list(map(log_variance, w1, v1)), list(map(log_variance, w2, v2))
    return q, v1, lv1, v2, lv2, mu, steps, converged


def region_sweep(d, delta1: float, delta2: float, alphas=None) -> list[SweepPoint]:
    """The CI-family weighted rate T per weight pair, with its certificate.

    ``alphas`` defaults to ``weight_grid(11)``; every weight must lie in
    [0, 1], where the weighted rate is convex in ``log q``, and be 0 or at
    least 2.2e-308, the smallest normal float, as budgets must
    (``ValueError`` otherwise).  Each pair takes one of three paths to its
    state, recorded in ``path``:

    * ``"closed-form"``, wherever no priced branch saturates: with
      ``k_i = (1 - alpha_i)/2``, each component's state is the root of a
      quadratic (:func:`gaussmodel.free_state`), and it is the optimum
      exactly when ``delta_i / n < v_ij`` for every component j on each
      branch with ``alpha_i > 0``.  It is then a KKT point of the convex
      program, with the equal split ``delta_i / n`` and multipliers
      ``mu_i = alpha_i n / (2 delta_i)``; ``iterations`` is 0.
    * ``"one-multiplier"`` where ``alpha_s = 1`` and ``alpha_o < 1``: every
      component saturates branch s, ``x_s = v_s``.  Branch o has no price
      where ``alpha_o = 0`` or ``delta_o >= sum(1 - d^2)``, where ``R_o = 0``
      at every state, and otherwise the equal split's ``mu_o = alpha_o n /
      (2 delta_o)``, which needs ``delta_o / n < v_oj`` for every j (the
      pair takes the dual where it fails).  A budget ``delta_s`` at or
      above ``sum(v_s)`` at the :func:`gaussmodel.free_state` states of
      ``mu_s = 0`` is slack, and those states are the point.  Elsewhere
      :func:`_one_multiplier` solves the water level ``c = 1/(2 mu_s)``
      with the states, per component ``v_o w_s (c - v_s) = 2 k_o w_o v_s
      c`` with ``k_o = (1 - alpha_o)/2`` (1/2 without a price), and
      ``sum v_s = delta_s``; ``iterations`` counts its Newton steps.
    * ``"dual"`` elsewhere: the two-multiplier dual (:func:`rdf.ci_dual`,
      which picks its start from the weights; at (1, 1) it is the solve of
      :func:`rdf.joint_rdf`) gives the state ``u = log q``, unvalidated, and
      its branch variances ``v1 = 1 - d/q``, ``v2 = 1 - d q`` with their logs
      come from :func:`gaussmodel.log_branch_variances`; ``iterations``
      counts the dual evaluations.

    Either way the triple is built in Python floats from the state's
    branch variances: R0 = I(Y1, Y2; W) by its closed form
    :func:`gaussmodel.pair_rate` of the logs; R1 and R2 as the water-fills
    of v1 and v2 (:func:`rdf.marginal_rate`).  ``gap`` is the objective
    minus the dual bound at ``multipliers`` (0 on the closed form), plus an
    allowance for the rounding of both, so it is a nonnegative upper bound
    on the objective minus the family minimum.  On the one-multiplier path
    the bound is R0, the equal split's rate of a priced branch o and
    ``mu_s (sum v_s - delta_s)``: the Lagrangian at the point's state, the
    least over the family as each component's state is stationary.

    Where the minimum is not unique the state of least R0 is returned.  At
    unit weights T is flat in ``q_j`` wherever both branch allocations of
    component j sit below their variances, and the ``q_j`` nearest 1 on
    that stretch is taken.  On the equal-split region that is the identity
    state, whose R0 is the common information.
    """
    d = coefficients(d)
    ds = d.tolist()
    if 0.0 in ds:
        raise QWOutOfFamily("sweep needs coefficients strictly inside (0, 1)")
    n = len(ds)
    require_positive(delta1, delta2, components=n)
    if alphas is None:
        alphas = weight_grid(11)
    delta = slack_budgets(d, delta1, delta2)
    budgets = delta.tolist()
    shares = [x / n for x in budgets] if n else [math.inf, math.inf]
    lds = edge = None

    points: list[SweepPoint] = []
    for a1, a2 in alphas:
        w1, w2 = weights = (float(a1), float(a2))
        # a subnormal weight makes the dual's start subnormal and c = alpha /
        # (2 mu) overflow; rdf.require_positive bars the same range of budgets
        if not all(a == 0.0 or TINY <= a <= 1.0 for a in weights):
            raise ValueError(f"weights must be 0 or lie in [{TINY}, 1], got ({a1}, {a2})")
        bound, evals, converged, path = None, 0, True, "closed-form"
        state = None
        if n and (w1 == 1.0) != (w2 == 1.0):
            # a unit weight saturates its branch in every component, so no
            # closed form holds; one multiplier is live where the other
            # branch takes its equal split
            if edge is None:
                edge = float(np.sum(one_minus_square(d)))
            s = 0 if w1 == 1.0 else 1
            state = _unit_weight_state(ds, s, weights[1 - s], budgets, shares, edge)
            if state is not None:
                q, v1, lv1, v2, lv2, mu, evals, converged = state
                path = "one-multiplier"
        else:
            # the region test holds a priced branch's variances above its
            # share and an unpriced one's above 0, where free_state always
            # puts them
            c1, c2 = (c if a > 0.0 else 0.0 for a, c in zip(weights, shares))
            state = _closed_form(ds, 0.5 * (1.0 - w1), 0.5 * (1.0 - w2), c1, c2)
            if state is not None:
                q, v1, lv1, v2, lv2 = state
                mu = [0.5 * a / c for a, c in zip(weights, shares)]  # alpha_i n / (2 delta_i)
        if state is None:
            _, u, mu, bound, _, evals, converged = ci_dual(d, delta, np.array(weights))
            if lds is None:
                lds = np.log(d).tolist()
            q = np.exp(u)
            v1, lv1, v2, lv2 = zip(*map(log_branch_variances, lds, u.tolist()))
            path = "dual"
        triple = RateTriple(
            r0=pair_rate(d, lv1, lv2),
            r1=marginal_rate(v1, delta1),
            r2=marginal_rate(v2, delta2),
            delta1=float(delta1),
            delta2=float(delta2),
        )
        objective = triple.r0 + w1 * triple.r1 + w2 * triple.r2
        if path == "one-multiplier":
            # the Lagrangian at the point's state and allocations, the least
            # over the family as each component's state is stationary: R0,
            # the equal split's rate of a priced branch o, and mu_s times the
            # excess of branch s over its budget
            vs, lvo = (v1, lv2) if s == 0 else (v2, lv1)
            bound = triple.r0 + mu[s] * (sum(vs) - budgets[s])
            if mu[1 - s]:
                bound += 0.5 * weights[1 - s] * (sum(lvo) - n * math.log(shares[1 - s]))
        spread = max(abs(objective) + sum(map(abs, lv1)) + sum(map(abs, lv2)), n)
        gap = (0.0 if bound is None else objective - bound) + _GAP_ROUNDING * EPS * spread
        points.append(SweepPoint(alpha1=w1, alpha2=w2, objective=objective, triple=triple,
                                 q=np.asarray(q, dtype=float), iterations=evals,
                                 converged=converged, gap=gap,
                                 multipliers=np.asarray(mu, dtype=float), path=path))
    return points


def region_csv(points: list[SweepPoint]) -> str:
    """The sweep as CSV text: header ``alpha1,alpha2,T,R0,R1,R2,q_1,..,q_n``,
    then one row per point at 17 significant digits, which round-trip."""
    n = points[0].q.size if points else 0
    header = ["alpha1", "alpha2", "T", "R0", "R1", "R2"] + [f"q_{j + 1}" for j in range(n)]
    lines = [",".join(header)]
    for p in points:
        row = [p.alpha1, p.alpha2, p.objective, p.triple.r0, p.triple.r1, p.triple.r2, *p.q]
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"
