"""Rate triples for the three-terminal lossy network with a shared branch.

A state W feeding both decoders yields the achievable triple

    R0 = I(Y1, Y2; W),   R1 = R_{Y1|W}(delta1),   R2 = R_{Y2|W}(delta2)

and the sum R0 + R1 + R2 is bounded below by the joint rate.  On the
equal-split distortion region the identity state closes that bound
exactly, so the shared rate needed on the minimum-sum-rate surface equals
the common information; :func:`pangloss_triple` returns that point.

:func:`region_sweep` traces the weighted surface
``T(alpha1, alpha2) = min_W [ R0 + alpha1 R1 + alpha2 R2 ]`` with W
restricted to diagonal family states ``d_j <= q_j <= 1/d_j``.  For weights
in [0, 1] the weighted rate is convex in ``log q`` jointly with the branch
allocations, so each weight pair is one convex solve and the sweep returns
the diagonal-family minimum, certified by a duality-gap bound.  The
diagonal restriction keeps that minimum an upper bound on the unrestricted
surface; it is exact at (1, 1) on the equal-split region, where it equals
the joint rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDistortion, OutsideDW, QWOutOfFamily
from .rdf import conditional_rdf, dw_bound, in_dw
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
    """One optimized point of the weighted-rate surface."""

    alpha1: float
    alpha2: float
    objective: float
    triple: RateTriple
    q: np.ndarray
    iterations: int  # Newton steps of the barrier solve
    converged: bool  # the gap bound reached its tolerance within the step cap
    gap: float  # barrier bound m/t on objective - (diagonal-family minimum)


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


# Barrier schedule: each centring multiplies t by _BARRIER_GROWTH until the
# duality-gap bound m/t falls below _GAP_TOL nats; a centring stops when
# half the squared Newton decrement is below _CENTRE_TOL.
_GAP_TOL = 1e-11
_BARRIER_GROWTH = 16.0
_CENTRE_TOL = 1e-12
_MAX_NEWTON = 400


def _barrier_min(d, delta, alpha):
    """Minimize ``R0 + alpha1 R1 + alpha2 R2`` over diagonal family states.

    With ``u = log q`` and the branch allocations ``x_ij`` as variables the
    weighted rate is, up to the constant ``0.5 sum log(1 - d^2)``, the
    smooth jointly convex program

        minimize  sum_j sum_i [ -(1 - alpha_i)/2 log v_ij(u_j) - alpha_i/2 log x_ij ]
        s.t.      x_ij <= v_ij(u_j),   sum_j x_ij <= delta_i,

    with ``v_1 = 1 - d e^{-u}`` and ``v_2 = 1 - d e^{u}`` concave in u (the
    inner minimum over x is the water-fill, so the program's value at u is
    the weighted rate at ``q = e^u``).  A branch with zero weight drops its
    allocations.  It is solved by the log-barrier method (Boyd &
    Vandenberghe, Convex Optimization, ch. 11).  The Newton system is
    block-arrowhead per coordinate plus one rank-one term per budget row,
    solved in O(n) by the Schur complement and Woodbury.

    Returns ``(q, newton_steps, converged, gap)`` with ``gap = m/t`` the
    barrier's bound on the distance of the returned objective from the
    family minimum.
    """
    n = d.size
    ld = np.log(d)
    on = alpha > 0.0
    k = int(on.sum())
    m = k * (n + 1)
    flip = np.array([[-1.0], [1.0]])  # v = 1 - exp(log d + flip u), dv/du = -flip w
    coef = 0.5 * (1.0 - alpha)[:, None]
    half_a = 0.5 * alpha[on][:, None]
    sign_on = -flip[on]
    budget = delta[on]
    unit_rows = np.repeat(np.eye(k)[:, :, None], n, axis=2)

    def state(u):
        e = ld + flip * u
        return np.exp(e), -np.expm1(e)  # w = d e^{-+u} = 1 - v, and v

    u = np.zeros(n)
    w, v = state(u)
    x = 0.5 * np.minimum(v[on], (budget / n)[:, None])
    # the slacks are carried, not recomputed as v - x, so that they keep
    # their relative precision once they shrink like 1/t
    s = v[on] - x
    r = budget - x.sum(1)
    t = 1.0
    steps = 0
    while True:
        while True:
            wv = coef * w / v
            ws = w[on] / s
            g_u = t * (flip * wv).sum(0) - (sign_on * ws).sum(0)
            g_x = (1.0 / s - t * half_a / x) + (1.0 / r)[:, None]
            # per coordinate the Hessian is an arrowhead (u couples to each
            # x_i, the x_i do not couple); eliminate u by its Schur complement
            a = t * half_a / (x * x)
            h_xx = a + 1.0 / (s * s)
            h_ux = -sign_on * ws / s
            schur = t * (wv / v).sum(0) + (ws + ws * ws * a * s * s / (1.0 + a * s * s)).sum(0)
            ratio = h_ux / h_xx

            def arrow_solve(b_u, b_x):
                du = (b_u - (ratio * b_x).sum(-2)) / schur
                return du, b_x / h_xx - ratio * du[..., None, :]

            du, dx = arrow_solve(-g_u, -g_x)
            if k:
                # Woodbury over the budget rows, each adding (1/r_i^2) 1 1^T
                zu, zx = arrow_solve(0.0, unit_rows)
                c = np.linalg.solve(np.diag(r * r) + zx.sum(2).T, dx.sum(1))
                du = du - c @ zu
                dx = dx - (c[:, None, None] * zx).sum(0)
            dec = -(g_u @ du + (g_x * dx).sum())
            if 0.5 * dec <= _CENTRE_TOL or steps >= _MAX_NEWTON:
                break
            # backtracking on the change of the barrier function, summed
            # from relative changes so it stays exact while the function
            # itself grows like t
            step = 1.0
            for _ in range(64):
                dv = -w * np.expm1(flip * (step * du))
                ddx = step * dx
                ds = dv[on] - ddx
                dr = -ddx.sum(1)
                rv, rx, rs, rr = dv / v, ddx / x, ds / s, dr / r
                if min(rv.min(), rx.min(initial=0.0), rs.min(initial=0.0), rr.min(initial=0.0)) > -1.0:
                    change = -t * ((coef * np.log1p(rv)).sum() + (half_a * np.log1p(rx)).sum())
                    change -= np.log1p(rs).sum() + np.log1p(rr).sum()
                    if change <= -0.25 * step * dec:
                        break
                step *= 0.5
            else:
                return np.exp(u), steps, False, m / t
            u = u + step * du
            x, s, r = x + ddx, s + ds, r + dr
            w, v = state(u)
            steps += 1
        if steps >= _MAX_NEWTON:
            return np.exp(u), steps, False, m / t
        if m / t <= _GAP_TOL:
            return np.exp(u), steps, True, m / t
        t *= _BARRIER_GROWTH


def region_sweep(
    d,
    delta1: float,
    delta2: float,
    alphas=None,
) -> list[SweepPoint]:
    """Minimize the weighted rate over diagonal states per weight pair.

    ``alphas`` defaults to the 11 x 11 grid over [0, 1]^2 restricted to
    ``alpha1 + alpha2 >= 1``; every weight must lie in [0, 1], where the
    weighted rate is convex in ``log q``.  Each pair is one convex solve
    (see :func:`_barrier_min`), so the point returned is the minimum over
    the diagonal family up to the reported ``gap``; the diagonal
    restriction makes it an upper bound on the unrestricted surface.  The
    triple is evaluated at the returned state by :func:`mi_given_state`
    and :func:`conditional_rdf`, and the objective is built from it.
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
            q, steps, converged, gap = _barrier_min(d, delta, alpha)
        else:
            q, steps, converged, gap = np.zeros(0), 0, True, 0.0
        triple = RateTriple(
            r0=mi_given_state(d, q),
            r1=conditional_rdf(d, q, 1, delta1).rate,
            r2=conditional_rdf(d, q, 2, delta2).rate,
            delta1=float(delta1),
            delta2=float(delta2),
            tag="sweep-point",
        )
        points.append(
            SweepPoint(
                alpha1=a1,
                alpha2=a2,
                objective=triple.r0 + a1 * triple.r1 + a2 * triple.r2,
                triple=triple,
                q=q,
                iterations=steps,
                converged=converged,
                gap=gap,
            )
        )
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
