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

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDistortion, QWOutOfFamily
from .rdf import ci_dual, conditional_rdf, require_dw
from .wyner import common_information_terms, mi_given_state


@dataclass(frozen=True)
class RateTriple:
    """Shared and private rates at a distortion pair, in nats."""

    r0: float
    r1: float
    r2: float
    delta1: float
    delta2: float
    tag: str  # "pangloss" | "sweep-point"


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
    d = np.atleast_1d(np.asarray(d, dtype=float))
    require_dw(d, delta1, delta2)
    return float(np.sum(common_information_terms(d)))


def pangloss_triple(d, delta1: float, delta2: float) -> RateTriple:
    """The minimum-sum-rate triple at the identity state.

    R0 is the common information; R1 and R2 are the branch rates given
    that state.  Their sum equals the joint rate on the region.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    require_dw(d, delta1, delta2)
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("branch rates need positive distortions")
    ones = np.ones(d.size)
    return RateTriple(
        r0=float(np.sum(common_information_terms(d))),
        r1=conditional_rdf(d, ones, 1, delta1).rate,
        r2=conditional_rdf(d, ones, 2, delta2).rate,
        delta1=float(delta1),
        delta2=float(delta2),
        tag="pangloss",
    )


# gap rounding allowance, in eps per unit of |T| and of each 1 / v >= 1:
# the sums behind T round like eps per term and each log v (v = 1 - d/q
# or 1 - d q) like eps / v; raw gaps were seen down to -0.67 of that unit
_GAP_ROUNDING = 4.0
_EPS = np.finfo(float).eps


def region_sweep(d, delta1: float, delta2: float, alphas=None) -> list[SweepPoint]:
    """The CI-family weighted rate T per weight pair, with its certificate.

    ``alphas`` defaults to the 11 x 11 grid over [0, 1]^2 restricted to
    ``alpha1 + alpha2 >= 1``; every weight must lie in [0, 1], where the
    weighted rate is convex in ``log q``.  Each pair is solved by its
    two-multiplier dual (:func:`rdf.ci_dual`); the triple is evaluated at
    the returned state by :func:`mi_given_state` and :func:`conditional_rdf`,
    and the objective is built from it.  ``gap`` is the objective minus the
    dual bound at ``multipliers``, plus an allowance for the rounding of
    both, so it is a positive upper bound on the objective minus the family
    minimum.  ``iterations`` counts the dual evaluations.

    Where the minimum is not unique the state of least R0 is returned.  At
    unit weights T is flat in ``q_j`` wherever both branch allocations of
    component j sit below their variances, and the ``q_j`` nearest 1 on
    that stretch is taken.  On the equal-split region that is the identity
    state, whose R0 is the common information.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d <= 0.0) or np.any(d >= 1.0):
        raise QWOutOfFamily("sweep needs coefficients strictly inside (0, 1)")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise NonpositiveDistortion("sweep needs positive distortions")
    if alphas is None:
        ticks = [i / 10.0 for i in range(11)]
        alphas = [(a1, a2) for a1 in ticks for a2 in ticks if a1 + a2 >= 1.0]
    delta = np.array([delta1, delta2], dtype=float)

    points: list[SweepPoint] = []
    for a1, a2 in alphas:
        alpha = np.array([a1, a2], dtype=float)
        if np.any(alpha < 0.0) or np.any(alpha > 1.0):
            raise ValueError(f"weights must lie in [0, 1], got ({a1}, {a2})")
        if d.size:
            start = alpha * d.size / (2.0 * delta)  # q = 1 with the equal split
            _, q, mu, bound, _, evals, converged = ci_dual(d, delta, alpha, start)
        else:
            q, mu, bound, evals, converged = np.zeros(0), np.zeros(2), 0.0, 0, True
        triple = RateTriple(
            r0=mi_given_state(d, q),
            r1=conditional_rdf(d, q, 1, delta1).rate,
            r2=conditional_rdf(d, q, 2, delta2).rate,
            delta1=float(delta1),
            delta2=float(delta2),
            tag="sweep-point",
        )
        objective = triple.r0 + a1 * triple.r1 + a2 * triple.r2
        spread = abs(objective) + np.sum(1.0 / (1.0 - d / q)) + np.sum(1.0 / (1.0 - d * q))
        gap = float(objective - bound + _GAP_ROUNDING * _EPS * spread)
        points.append(SweepPoint(alpha1=a1, alpha2=a2, objective=objective, triple=triple, q=q,
                                 iterations=evals, converged=converged, gap=gap, multipliers=mu))
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
