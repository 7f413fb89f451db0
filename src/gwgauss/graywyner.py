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
Each weight pair is one solve of the dual over the two budget multipliers
(:func:`rdf.ci_dual`), and each point certifies itself by the dual bound.
At (1, 1) T equals the joint rate of :func:`rdf.joint_rdf`: its closed form
on the equal-split region, and outside it the restricted program, which is
the same minimum over diagonal CI states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QWOutOfFamily
from .rdf import ci_dual, marginal_rdf, require_dw, require_positive, slack_budgets
from .wyner import coefficients, common_information_terms, diagonal_state_mi


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
    iterations: int  # dual evaluations, >= 1 when n >= 1
    converged: bool  # the dual solve stopped before its step cap
    gap: float  # objective - dual bound + rounding allowance, >= objective - family minimum
    multipliers: np.ndarray  # budget multipliers (mu1, mu2) of the dual bound


def lossy_common_information(d, delta1: float, delta2: float) -> float:
    """Shared rate on the minimum-sum-rate surface, constant over the region.

    Equals the common information ``0.5 sum(log((1+d)/(1-d)))`` whenever
    both distortions are within the equal-split bound; beyond it the
    closed form no longer applies and :class:`OutsideDW` is raised with
    the bound attached.
    """
    d = coefficients(d)
    require_positive(delta1, delta2)
    require_dw(d, delta1, delta2)
    return float(np.sum(common_information_terms(d)))


def pangloss_triple(d, delta1: float, delta2: float) -> RateTriple:
    """The minimum-sum-rate triple at the identity state.

    R0 is the common information; R1 and R2 are the branch rates given
    that state, water-fills over its branch variances ``1 - d``.  Their sum
    equals the joint rate on the region.
    """
    d = coefficients(d)
    require_positive(delta1, delta2)
    require_dw(d, delta1, delta2)
    return RateTriple(
        r0=float(np.sum(common_information_terms(d))),
        r1=marginal_rdf(1.0 - d, delta1).rate,
        r2=marginal_rdf(1.0 - d, delta2).rate,
        delta1=float(delta1),
        delta2=float(delta2),
    )


# gap rounding allowance, in eps per unit of the spread of the terms behind
# T and the bound.  Off unit weights T is built from the dual's own branch
# variances v, and the spread is |T| + sum |log v|: raw gaps were seen down
# to -1.7 of that unit over 8000 random points.  At unit weights u is
# rebuilt from allocations on the cap of the rounded d^2, which moves each
# v by ~eps and its log by ~eps / v, so the spread stays |T| + sum 1 / v
# there: raw gaps were seen down to -0.51 of that unit over 1600 points
_GAP_ROUNDING = 4.0
_EPS = np.finfo(float).eps
_LN2 = math.log(2.0)


def region_sweep(d, delta1: float, delta2: float, alphas=None) -> list[SweepPoint]:
    """The CI-family weighted rate T per weight pair, with its certificate.

    ``alphas`` defaults to the 11 x 11 grid over [0, 1]^2 restricted to
    ``alpha1 + alpha2 >= 1``; every weight must lie in [0, 1], where the
    weighted rate is convex in ``log q``.  Each pair is solved by its
    two-multiplier dual (:func:`rdf.ci_dual`), and the triple is built from
    the dual's own state ``u = log q``, with no state validation: the
    branch variances ``v1 = 1 - d/q`` and ``v2 = 1 - d q`` as the dual forms
    them, ``-expm1(log d -+ u)``; R0 by :func:`wyner.diagonal_state_mi` from
    their logs; R1 and R2 as the water-fills of v1 and v2 at the budgets
    (:func:`rdf.marginal_rdf`).  ``gap`` is the objective minus the dual
    bound at ``multipliers``, plus an allowance for the rounding of both,
    so it is a positive upper bound on the objective minus the family
    minimum.  ``iterations`` counts the dual evaluations.

    Where the minimum is not unique the state of least R0 is returned.  At
    unit weights T is flat in ``q_j`` wherever both branch allocations of
    component j sit below their variances, and the ``q_j`` nearest 1 on
    that stretch is taken.  On the equal-split region that is the identity
    state, whose R0 is the common information.
    """
    d = coefficients(d)
    if np.any(d == 0.0):
        raise QWOutOfFamily("sweep needs coefficients strictly inside (0, 1)")
    require_positive(delta1, delta2)
    if alphas is None:
        ticks = [i / 10.0 for i in range(11)]
        alphas = [(a1, a2) for a1 in ticks for a2 in ticks if a1 + a2 >= 1.0]
    delta = slack_budgets(d, delta1, delta2)
    ld = np.log(d)

    points: list[SweepPoint] = []
    for a1, a2 in alphas:
        alpha = np.array([a1, a2], dtype=float)
        if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
            raise ValueError(f"weights must lie in [0, 1], got ({a1}, {a2})")
        if d.size:
            start = alpha * d.size / (2.0 * delta)  # q = 1 with the equal split
            _, u, mu, bound, _, evals, converged = ci_dual(d, delta, alpha, start)
        else:
            u, mu, bound, evals, converged = np.zeros(0), np.zeros(2), 0.0, 0, True
        e = np.stack([ld - u, ld + u])
        v = -np.expm1(e)
        # log v = log(-expm1(e)), through log1p(-exp(e)) where v > 1/2
        lv = np.where(e < -_LN2, np.log1p(-np.exp(e)), np.log(v))
        triple = RateTriple(
            r0=diagonal_state_mi(d, lv[0], lv[1]),
            r1=marginal_rdf(v[0], delta1).rate,
            r2=marginal_rdf(v[1], delta2).rate,
            delta1=float(delta1),
            delta2=float(delta2),
        )
        objective = triple.r0 + a1 * triple.r1 + a2 * triple.r2
        spread = abs(objective) + np.sum(1.0 / v if (a1, a2) == (1.0, 1.0) else np.abs(lv))
        gap = float(objective - bound + _GAP_ROUNDING * _EPS * spread)
        points.append(SweepPoint(alpha1=a1, alpha2=a2, objective=objective, triple=triple,
                                 q=np.exp(u), iterations=evals, converged=converged, gap=gap,
                                 multipliers=mu))
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
