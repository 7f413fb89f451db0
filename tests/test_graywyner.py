import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gwgauss as gw

D3 = np.array([0.8, 0.5, 0.1])

d_vectors = st.lists(
    st.floats(0.05, 0.95, allow_nan=False), min_size=1, max_size=4
).map(lambda xs: np.array(sorted(xs, reverse=True)))


def test_lossy_common_information_constant_on_region():
    c = gw.common_information(gw.IndexSextuple(0, 3, 0, 0, 3, 0), D3).value
    for delta in (1e-6, 0.1, 0.3, 0.6):
        assert math.isclose(gw.lossy_common_information(D3, delta, 0.3), c, rel_tol=1e-13)
    # inclusive at the corner
    assert math.isclose(gw.lossy_common_information(D3, 0.6, 0.6), c, rel_tol=1e-13)


def test_lossy_common_information_outside_raises():
    with pytest.raises(gw.OutsideDW) as exc:
        gw.lossy_common_information(D3, 0.3, 0.61)
    assert math.isclose(exc.value.bound, 0.6, rel_tol=1e-9)


@given(st.floats(0.05, 0.95), st.floats(0.01, 0.99))
def test_scalar_lossy_common_information(rho, frac):
    delta = frac * (1.0 - rho)
    got = gw.lossy_common_information([rho], delta, delta)
    assert math.isclose(got, 0.5 * math.log((1 + rho) / (1 - rho)), rel_tol=1e-12)


def test_pangloss_triple_components():
    tr = gw.pangloss_triple(D3, 0.3, 0.3)
    assert math.isclose(tr.r0, 1.7482537807332401, rel_tol=1e-13)
    assert math.isclose(tr.r1, 2.2499048351651325, rel_tol=1e-13)
    assert math.isclose(tr.r2, tr.r1, rel_tol=1e-13)
    assert tr.delta1 == 0.3 and tr.delta2 == 0.3


@given(d_vectors, st.floats(0.05, 0.98), st.floats(0.05, 0.98))
def test_pangloss_sum_matches_joint_rate(d, f1, f2):
    b = gw.dw_bound(d)
    delta1, delta2 = f1 * b, f2 * b
    if min(delta1, delta2) <= 1e-9:
        return
    tr = gw.pangloss_triple(d, delta1, delta2)
    joint = gw.joint_rdf(d, delta1, delta2).rate
    assert abs(tr.r0 + tr.r1 + tr.r2 - joint) < 1e-10


def test_pangloss_outside_region_raises():
    with pytest.raises(gw.OutsideDW):
        gw.pangloss_triple(D3, 0.7, 0.3)
    with pytest.raises(gw.NonpositiveDistortion):
        gw.pangloss_triple(D3, 0.0, 0.3)


def test_region_gate_reports_bound():
    b = gw.dw_bound(D3)
    assert math.isclose(b, 0.6, rel_tol=1e-12)
    assert gw.in_dw(D3, 0.6, 0.6)
    assert not gw.in_dw(D3, 0.6, 0.601)
    assert not gw.in_dw(D3, -0.1, 0.1)
    # one ulp-scale boundary rule, the same on either branch
    for x in (b, np.nextafter(b, 1.0), b + 4e-15, b * (1 + 1e-9)):
        assert gw.in_dw(D3, x, 0.5 * b) == gw.in_dw(D3, 0.5 * b, x)
    assert gw.in_dw(D3, np.nextafter(b, 1.0), b) and not gw.in_dw(D3, b + 4e-15, b)
    assert not gw.in_dw(D3, b * (1 + 1e-9), 0.5 * b)
    # only n and d_max enter the bound
    assert gw.dw_bound([0.8, 0.8, 0.8]) == b
    assert gw.dw_bound([]) == math.inf
    assert gw.in_dw([], 1e300, 0.0) and not gw.in_dw([], -1.0, 0.0)


def test_region_sweep_alpha_filter_and_membership():
    pts = gw.region_sweep(np.array([0.7, 0.2]), 0.2, 0.2)
    assert pts
    for p in pts:
        assert p.alpha1 + p.alpha2 >= 1.0 - 1e-12
        assert gw.in_state_family(np.diag(p.q), np.array([0.7, 0.2]))
        assert p.objective <= p.triple.r0 + p.alpha1 * p.triple.r1 + p.alpha2 * p.triple.r2 + 1e-9


def test_region_sweep_equal_weights_closes_sum_rate_bound():
    pts = gw.region_sweep(D3, 0.3, 0.3, alphas=[(1.0, 1.0)])
    (pt,) = pts
    joint = gw.joint_rdf(D3, 0.3, 0.3).rate
    # at unit weights the whole optimal state family attains the same sum,
    # so the minimum is a plateau: the sweep must reach the joint rate and
    # report the member of least shared rate, the identity state, whose
    # R0 is the common information
    assert abs(pt.objective - joint) < 1e-12
    assert abs(pt.triple.r0 + pt.triple.r1 + pt.triple.r2 - pt.objective) < 1e-12
    assert gw.in_state_family(np.diag(pt.q), D3)
    assert np.all(pt.q == 1.0)
    c = gw.lossy_common_information(D3, 0.3, 0.3)
    assert abs(pt.triple.r0 - c) < 1e-12
    ident = gw.pangloss_triple(D3, 0.3, 0.3)
    assert abs(ident.r0 + ident.r1 + ident.r2 - joint) < 1e-10


def test_region_sweep_never_beats_shared_rate_lower_bound():
    # T >= R0 >= C always; the sweep objective respects the information floor
    d = np.array([0.6, 0.3])
    c = gw.common_information(gw.IndexSextuple(0, 2, 0, 0, 2, 0), d).value
    for pt in gw.region_sweep(d, 0.25, 0.4):
        assert pt.objective >= c - 1e-9


def test_region_sweep_custom_alphas_echoed():
    alphas = [(0.25, 0.9), (1.0, 0.5)]
    pts = gw.region_sweep(np.array([0.5]), 0.2, 0.2, alphas=alphas)
    assert [(p.alpha1, p.alpha2) for p in pts] == alphas


# ---------------------------------------------------------------- oracles
# Written from the formulas alone: the rates below share no code with the
# sweep's solver or with the library's water-fill.

CORNERS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def _waterfill_rate_le2(v, delta):
    """Reverse water-fill rate of at most two variances, case by case;
    ``v`` has shape (n, ...) with n in {1, 2}."""
    if v.shape[0] == 1:
        return np.where(v[0] > delta, 0.5 * np.log(np.maximum(v[0], delta) / delta), 0.0)
    lo, hi = np.minimum(v[0], v[1]), np.maximum(v[0], v[1])
    both = delta / 2.0 <= lo
    level = np.where(both, delta / 2.0, delta - lo)
    level = np.where(level > 0.0, level, 1.0)
    r_both = 0.5 * np.log(lo / level) + 0.5 * np.log(hi / level)
    r_one = 0.5 * np.log(np.maximum(hi, level) / level)
    return np.where(lo + hi <= delta, 0.0, np.where(both, r_both, r_one))


def _weighted_rate(d, q, delta1, delta2, a1, a2):
    """``R0 + a1 R1 + a2 R2`` at diagonal states ``q`` of shape (n, ...)."""
    d = d.reshape((-1,) + (1,) * (q.ndim - 1))
    v1, v2 = 1.0 - d / q, 1.0 - d * q
    r0 = 0.5 * np.sum(np.log1p(-d * d) - np.log(v1) - np.log(v2), axis=0)
    return r0 + a1 * _waterfill_rate_le2(v1, delta1) + a2 * _waterfill_rate_le2(v2, delta2)


def _grid_min(d, delta1, delta2, a1, a2, points=201, levels=4):
    """Minimum over a log grid on the open box prod [d_j, 1/d_j], refined
    ``levels`` times around its best point."""
    lo, hi = np.log(d), -np.log(d)
    best = math.inf
    for _ in range(levels):
        axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
        u = np.stack(np.meshgrid(*axes, indexing="ij"))
        inside = np.all((u > np.log(d).reshape((-1,) + (1,) * d.size))
                        & (u < -np.log(d).reshape((-1,) + (1,) * d.size)), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(inside, _weighted_rate(d, np.exp(u), delta1, delta2, a1, a2), np.inf)
        k = np.unravel_index(np.argmin(t), t.shape)
        best = min(best, float(t[k]))
        step = (hi - lo) / (points - 1)
        centre = np.array([axes[j][k[j]] for j in range(d.size)])
        lo = np.maximum(np.log(d), centre - 2.0 * step)
        hi = np.minimum(-np.log(d), centre + 2.0 * step)
    return best


def test_region_sweep_reaches_brute_force_grid_minimum():
    rng = np.random.default_rng(7)
    for trial in range(36):
        n = 1 + trial % 2
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        scale = n * (1.0 - d[0]) if trial % 3 else float(np.sum(1.0 - d))
        delta1, delta2 = rng.uniform(0.1, 1.5, 2) * scale
        alphas = CORNERS + [tuple(rng.uniform(0.0, 1.0, 2))]
        for pt in gw.region_sweep(d, delta1, delta2, alphas=alphas):
            a1, a2 = pt.alpha1, pt.alpha2
            t_grid = _grid_min(d, delta1, delta2, a1, a2)
            t_at_q = float(_weighted_rate(d, pt.q, delta1, delta2, a1, a2))
            assert abs(pt.objective - t_at_q) <= 1e-12 * (1.0 + abs(t_at_q))
            assert pt.objective <= t_grid + 1e-9 * (1.0 + abs(t_grid)), (d, delta1, delta2, a1, a2)


def test_region_sweep_pinned_kink_case():
    # the minimum sits on the kink of R1: at q = 15/17 both branch-1
    # variances 1 - d/q are 0.15 and sum to delta1, so a search along one
    # coordinate at a time stops short of it (at T = 2.16897)
    (pt,) = gw.region_sweep(np.array([0.75, 0.75]), 0.3, 0.2, alphas=[(1.0, 0.0)])
    assert abs(pt.objective - 2.1544549009483700) < 1e-8
    np.testing.assert_allclose(pt.q, [15.0 / 17.0] * 2, rtol=0, atol=1e-6)
    assert pt.converged and 0.0 < pt.gap <= 1e-10
    assert pt.iterations > 0


def test_region_sweep_rejects_coefficients_outside_unit_interval():
    for d in ([1.0], [0.0], [0.5, 1.2], [-0.1]):
        with pytest.raises(gw.QWOutOfFamily):
            gw.region_sweep(np.array(d), 0.1, 0.1)
    with pytest.raises(gw.NonpositiveDistortion):
        gw.region_sweep(np.array([0.5]), 0.0, 0.1)
    with pytest.raises(ValueError):
        gw.region_sweep(np.array([0.5]), 0.1, 0.1, alphas=[(1.5, 0.5)])


def test_region_sweep_empty_coefficients():
    pts = gw.region_sweep(np.zeros(0), 0.2, 0.3, alphas=CORNERS)
    assert [(p.alpha1, p.alpha2) for p in pts] == CORNERS
    for p in pts:
        assert p.q.shape == (0,)
        assert p.objective == p.triple.r0 == p.triple.r1 == p.triple.r2 == 0.0
        assert (p.iterations, p.converged, p.gap) == (0, True, 0.0)


@pytest.mark.parametrize("d", [(0.999,), (1e-3,), (0.999, 1e-3)])
def test_region_sweep_extreme_coefficients(d):
    d = np.array(d)
    b = gw.dw_bound(d)
    delta1, delta2 = 0.5 * b, 0.8 * b
    for pt in gw.region_sweep(d, delta1, delta2, alphas=CORNERS):
        a1, a2 = pt.alpha1, pt.alpha2
        assert gw.in_state_family(pt.q, d)
        assert pt.converged and pt.gap <= 1e-10
        ident = gw.pangloss_triple(d, delta1, delta2)
        t_ident = ident.r0 + a1 * ident.r1 + a2 * ident.r2
        assert pt.objective <= t_ident + 1e-12 * (1.0 + abs(t_ident))
        if (a1, a2) == (1.0, 1.0):
            joint = gw.joint_rdf(d, delta1, delta2).rate
            assert abs(pt.objective - joint) <= 1e-9 * (1.0 + abs(joint))


def test_region_sweep_certificates():
    pts = gw.region_sweep(D3, 0.3, 0.3)
    assert len(pts) == 66
    for p in pts:
        assert p.converged
        assert 0.0 < p.gap <= 1e-10
        assert 0 < p.iterations < 200
    # at unit weights on D_W the family minimum is the joint rate, and
    # the gap bounds how far above it the returned objective may sit
    (unit,) = [p for p in pts if (p.alpha1, p.alpha2) == (1.0, 1.0)]
    joint = gw.joint_rdf(D3, 0.3, 0.3).rate
    assert unit.objective - joint <= unit.gap + 1e-12


def _lagrangian_inf(d, delta, alpha, mu):
    """Dual bound ``0.5 sum log(1 - d^2) + inf L - mu . delta`` at ``mu``, by
    brute force and independent of graywyner.

    Per component L is ``sum_i [-(1 - a_i)/2 log v_i - a_i/2 log x_i + mu_i x_i]``
    over u in (log d, -log d) and 0 < x_i <= v_i(u), with
    ``v_1 = 1 - d e^{-u}``, ``v_2 = 1 - d e^u``; a branch of zero weight has
    no x.  Both x_i are gridded as ``v_i t`` with t log-spaced in (0, 1], u
    linearly, and each grid is refined around its best point.
    """
    total = 0.5 * float(np.sum(np.log1p(-d * d))) - float(mu @ delta)
    for dj in d:
        lo, hi = math.log(dj), -math.log(dj)
        u = np.linspace(lo, hi, 403)[1:-1]
        for _ in range(8):
            v = np.stack([1.0 - dj * np.exp(-u), 1.0 - dj * np.exp(u)])  # (2, U)
            value = np.zeros(u.size)
            for i in range(2):
                value -= 0.5 * (1.0 - alpha[i]) * np.log(v[i])
                if alpha[i] == 0.0:
                    continue
                s = np.broadcast_to(np.linspace(-40.0, 0.0, 401), (u.size, 401))
                for _ in range(8):
                    x = v[i][:, None] * np.exp(s)
                    f = -0.5 * alpha[i] * np.log(x) + mu[i] * x
                    k = np.argmin(f, axis=1)
                    rows = np.arange(u.size)
                    best = f[rows, k]
                    s = np.linspace(s[rows, np.maximum(k - 1, 0)], s[rows, np.minimum(k + 1, 400)],
                                    401, axis=1)
                value += best
            k = int(np.argmin(value))
            least = float(value[k])
            grid = np.linspace(max(lo, u[k] - (u[1] - u[0])), min(hi, u[k] + (u[1] - u[0])), 41)
            u = grid[(grid > lo) & (grid < hi)]
        total += least
    return total


SWEEP_DUAL_CASES = [
    (D3, 0.3, 0.3, (0.5, 1.0)),
    (D3, 0.3, 0.3, (1.0, 0.0)),
    (D3, 1.2, 0.3, (0.7, 0.6)),
    (np.array([0.75, 0.75]), 0.3, 0.2, (1.0, 0.0)),
    (np.array([0.9, 0.2]), 0.05, 1.4, (1.0, 1.0)),
    (np.array([0.6]), 0.1, 0.5, (0.3, 0.9)),
    (np.array([0.999, 1e-3]), 0.4, 0.01, (0.0, 1.0)),
    (np.array([0.5, 0.4]), 2.5, 0.3, (1.0, 0.5)),
]


@pytest.mark.parametrize("case", SWEEP_DUAL_CASES, ids=lambda case: f"{case[0]}-{case[3]}")
def test_region_sweep_certificates_match_a_brute_force_dual(case):
    d, delta1, delta2, alpha = case
    (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[alpha])
    assert pt.multipliers.shape == (2,) and np.all(pt.multipliers >= 0.0)
    assert pt.converged and 0.0 < pt.gap <= 1e-10 and pt.iterations >= 1
    # the grid bound lies above the dual's infimum and near it; the gap the
    # point reports covers the objective's distance to it (the bound is not
    # above the infimum beyond rounding) and is not vacuous
    bound = _lagrangian_inf(d, np.array([delta1, delta2]), alpha, pt.multipliers)
    assert pt.objective - bound <= pt.gap
    assert pt.gap - (pt.objective - bound) <= 1e-11 * (1.0 + abs(pt.objective))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", CORNERS + [(0.5, 1.0)])
def test_region_sweep_slack_budget(n, alpha):
    # a budget of n or more covers every branch variance, so its multiplier
    # projects to 0 and its branch rate is 0 at any state
    d = np.array([0.7, 0.3][:n])
    for delta1, delta2 in ((float(n), 0.1), (0.15, 1.5 * n), (1.5 * n, float(n))):
        (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[alpha])
        for i, delta in enumerate((delta1, delta2)):
            if delta >= n:
                assert pt.multipliers[i] == 0.0
                assert (pt.triple.r1, pt.triple.r2)[i] == 0.0
        # the grid brackets the minimum with the certified bound
        t_grid = _grid_min(d, delta1, delta2, *alpha)
        assert pt.objective <= t_grid + 1e-9 * (1.0 + abs(t_grid)), (delta1, delta2)
        assert pt.objective - pt.gap <= t_grid, (delta1, delta2)
