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
Each weight pair is one solve of the dual over the two budget multipliers,
and each point certifies itself by the dual bound.  At (1, 1) on the
equal-split region T equals the joint rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDistortion, OutsideDW, QWOutOfFamily
from .rdf import _NEWTON_STEPS, _dual_newton, conditional_rdf, dw_bound, in_dw
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


def _check_region(d: np.ndarray, delta1: float, delta2: float) -> None:
    if not in_dw(d, delta1, delta2):
        raise OutsideDW(
            f"(delta1, delta2) = ({delta1}, {delta2}) outside "
            f"[0, {dw_bound(d)}]^2",
            bound=dw_bound(d),
        )


def lossy_common_information(d, delta1: float, delta2: float) -> float:
    """Shared rate on the minimum-sum-rate surface, constant over the region.

    Equals the common information ``0.5 sum(log((1+d)/(1-d)))`` whenever
    both distortions are within the equal-split bound; beyond it the
    closed form no longer applies and :class:`OutsideDW` is raised with
    the bound attached.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    _check_region(d, delta1, delta2)
    return float(np.sum(common_information_terms(d)))


def pangloss_triple(d, delta1: float, delta2: float) -> RateTriple:
    """The minimum-sum-rate triple at the identity state.

    R0 is the common information; R1 and R2 are the branch rates given
    that state.  Their sum equals the joint rate on the region.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    _check_region(d, delta1, delta2)
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


# per-coordinate Newton steps on h'; bisection alone reaches rounding on
# the bracket (log d, -log d) in under 60 halvings
_INNER_STEPS = 80
# gap rounding allowance, in eps per unit of |T| and of each 1 / v >= 1:
# the sums behind T round like eps per term and each log v (v = 1 - d/q
# or 1 - d q) like eps / v; raw gaps were seen down to -0.67 of that unit
_GAP_ROUNDING = 4.0
_EPS = np.finfo(float).eps


def _sweep_dual(d, delta, alpha):
    """Minimize ``R0 + alpha1 R1 + alpha2 R2`` over diagonal family states.

    With ``u = log q`` and the branch allocations ``x_ij`` as variables the
    weighted rate is, up to the constant ``0.5 sum log(1 - d^2)``, the
    jointly convex program

        minimize  sum_j sum_i [ -(1 - alpha_i)/2 log v_ij(u_j) - alpha_i/2 log x_ij ]
        s.t.      x_ij <= v_ij(u_j),   sum_j x_ij <= delta_i,

    with ``v_1 = 1 - d e^{-u}`` and ``v_2 = 1 - d e^{u}`` concave in u; a
    branch with zero weight has no allocation.  Multipliers mu on the
    budgets split the Lagrangian per coordinate: ``x_ij = min(v_ij, c_i)``
    with ``c_i = alpha_i / (2 mu_i)``, and u_j minimizes
    ``h_j(u) = sum_i phi_i(v_ij(u))``, convex and C^1 on (log d_j, -log d_j),
    with ``phi_i' = -(1 - alpha_i) / (2 v)`` on an active branch (v > c_i)
    and ``mu_i - 1 / (2 v)`` on a saturated one.  h' runs from -inf to +inf;
    safeguarded Newton steps inside a bisection bracket find its root,
    batched over coordinates and warm-started from the previous evaluation.
    At unit weights h is flat where both branches are active, between
    ``v_1 = c_1`` and ``v_2 = c_2``, and u nearest 0, the least R0, is taken.
    The dual over mu >= 0 is solved by :func:`rdf._dual_newton`: its
    gradient is ``delta - sum_j x_ij`` and its Hessian
    ``diag(sum_active c_i / mu_i) + sum_j s s^T / h_j''``, with s the
    saturated slopes ``dv_i/du``.

    Returns ``(q, mu, bound, evals, converged)``: the state, the
    multipliers, the dual bound on the objective, the dual evaluations and
    whether the solve stopped before its step cap.
    """
    ld = np.log(d)
    sgn = np.array([[1.0], [-1.0]])  # dv_i/du = sgn_i w_i, w_i = 1 - v_i
    k = (1.0 - alpha)[:, None]
    on = alpha > 0.0
    unit = bool(np.all(alpha == 1.0))
    const = 0.5 * float(np.sum(np.log1p(-d * d)))
    u = np.zeros(d.size)

    def oracle(mu):
        nonlocal u
        m = mu[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(on, alpha / (2.0 * mu), 0.0)  # inf on a weighted branch with mu = 0
            # -alpha/2 log c + mu c, the value of a weighted active piece
            pinned = np.where(on & (mu > 0.0), 0.5 * alpha * (1.0 - np.log(c)), 0.0)[:, None]
            if unit:
                # both branches are active on [lo, hi], where h is flat:
                # take the least R0
                lo = np.where(c[0] < 1.0, ld - np.log1p(-c[0]), np.inf)
                hi = np.where(c[1] < 1.0, np.log1p(-c[1]) - ld, -np.inf)
                u = np.where(lo <= hi, np.clip(0.0, lo, hi), u)
            c = c[:, None]
            lo, hi = ld, -ld
            for it in range(_INNER_STEPS):
                e = ld - sgn * u
                w, v = np.exp(e), -np.expm1(e)
                iv = 0.5 / v
                active = v > c
                psi = np.where(active, -k * iv, m - iv)
                pw = psi * w
                grad = pw[0] - pw[1]
                curv = (np.where(active, k, 1.0) * 2.0 * iv * iv * w * w - pw).sum(0)
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
            s = np.where(sat, sgn * w, 0.0) / np.sqrt(np.where(sat.any(0), curv, 1.0))
            drift = np.where(on & (mu > 0.0), active.sum(1) * c[:, 0] / mu, 0.0)
        value = np.where(active, pinned - 0.5 * k * np.log(v), m * v - 0.5 * np.log(v))
        g = float(mu @ delta - value.sum())
        r = 1.0 - np.where(active, c, v).sum(1) / delta
        hess = np.diag(drift) + s @ s.T
        return hess, g, np.where(mu > 0.0, r, np.minimum(r, 0.0)), (u, g)

    start = alpha * d.size / (2.0 * delta)  # q = 1 with the equal split
    mu, (u_opt, g), steps, evals = _dual_newton(oracle, delta, start)
    return np.exp(u_opt), mu, const - g, evals, steps < _NEWTON_STEPS


def region_sweep(d, delta1: float, delta2: float, alphas=None) -> list[SweepPoint]:
    """The CI-family weighted rate T per weight pair, with its certificate.

    ``alphas`` defaults to the 11 x 11 grid over [0, 1]^2 restricted to
    ``alpha1 + alpha2 >= 1``; every weight must lie in [0, 1], where the
    weighted rate is convex in ``log q``.  Each pair is solved by its
    two-multiplier dual (:func:`_sweep_dual`); the triple is evaluated at
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
            q, mu, bound, evals, converged = _sweep_dual(d, delta, alpha)
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
