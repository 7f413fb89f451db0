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
Each weight pair gets its state in one of two ways.  Where no priced
branch saturates, each component's state is the root of a quadratic
(:func:`gaussmodel.free_state`) with the equal split of each budget, a KKT
point of the convex program and so its optimum (Boyd & Vandenberghe,
Convex Optimization, 5.5.3); elsewhere it comes from the dual over the two
budget multipliers (:func:`rdf.ci_dual`).  Either state gives R0 in closed
form (:func:`gaussmodel.pair_rate`), and each point certifies itself by
the dual bound, which the closed form meets up to rounding.
At (1, 1) T equals the joint rate of :func:`rdf.joint_rdf`: its closed form
on the equal-split region, and outside it the restricted program, which is
the same minimum over diagonal CI states, found by one :func:`rdf.ci_dual` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QWOutOfFamily
from .gaussmodel import (EPS, TINY, common_information_terms, free_state, log_branch_variances,
                         log_variance, pair_rate)
from .rdf import ci_dual, marginal_rate, require_dw, require_positive, slack_budgets
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
    iterations: int  # dual evaluations, 0 on the closed form
    converged: bool  # the dual solve stopped before its step cap; True on the closed form
    gap: float  # objective - dual bound + rounding allowance, >= objective - family minimum
    multipliers: np.ndarray  # budget multipliers (mu1, mu2) of the dual bound
    path: str  # "closed-form" where no priced branch saturates, else "dual"


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


def region_sweep(d, delta1: float, delta2: float, alphas=None) -> list[SweepPoint]:
    """The CI-family weighted rate T per weight pair, with its certificate.

    ``alphas`` defaults to ``weight_grid(11)``; every weight must lie in
    [0, 1], where the weighted rate is convex in ``log q``, and be 0 or at
    least 2.2e-308, the smallest normal float, as budgets must
    (``ValueError`` otherwise).  Each pair takes one of two paths to its
    state, recorded in ``path``:

    * ``"closed-form"``, wherever no priced branch saturates: with
      ``k_i = (1 - alpha_i)/2``, each component's state is the root of a
      quadratic (:func:`gaussmodel.free_state`), and it is the optimum
      exactly when ``delta_i / n < v_ij`` for every component j on each
      branch with ``alpha_i > 0``.  It is then a KKT point of the convex
      program, with the equal split ``delta_i / n`` and multipliers
      ``mu_i = alpha_i n / (2 delta_i)``; ``iterations`` is 0.
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
    on the objective minus the family minimum.

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
    lds = None

    points: list[SweepPoint] = []
    for a1, a2 in alphas:
        w1, w2 = weights = (float(a1), float(a2))
        # a subnormal weight makes the dual's start subnormal and c = alpha /
        # (2 mu) overflow; rdf.require_positive bars the same range of budgets
        if not all(a == 0.0 or TINY <= a <= 1.0 for a in weights):
            raise ValueError(f"weights must be 0 or lie in [{TINY}, 1], got ({a1}, {a2})")
        # the region test holds a priced branch's variances above its share
        # and an unpriced one's above 0, where free_state always puts them
        c1, c2 = (c if a > 0.0 else 0.0 for a, c in zip(weights, shares))
        state = _closed_form(ds, 0.5 * (1.0 - w1), 0.5 * (1.0 - w2), c1, c2)
        if state is not None:
            q, v1, lv1, v2, lv2 = state
            mu = [0.5 * a / c for a, c in zip(weights, shares)]  # alpha_i n / (2 delta_i)
            bound, evals, converged, path = None, 0, True, "closed-form"
        else:
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
