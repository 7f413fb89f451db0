import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwgauss as gw

import reference

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
    # the default is the 11 x 11 grid at steps of 0.1
    ticks = [i / 10.0 for i in range(11)]
    assert [(p.alpha1, p.alpha2) for p in pts] == [
        (a1, a2) for a1 in ticks for a2 in ticks if a1 + a2 >= 1.0]
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


def test_region_sweep_unit_weights_equal_joint_rate_outside_region(rng):
    # outside D_W joint_rdf solves the restricted program, whose cap
    # (1 - a1)(1 - a2) >= d^2 is the set of allocation pairs that some
    # diagonal CI state admits, so T(1, 1) is the same minimum.  The sweep
    # evaluates T exactly at its state, and joint_rdf's allocations lie on
    # the exact cap, so the two agree to 1e-12 with 1 - d down to 1e-9 (a
    # cap of the rounded d^2 sets them up to 1.7e-10 apart on these draws)
    checked = 0
    while checked < 600:
        n = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            d = rng.uniform(0.05, 0.99, n)
        else:
            d = 1.0 - 10.0 ** rng.uniform(-9.0, -0.05, n)
        d = np.sort(d)[::-1]
        delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.0, 2)
        if gw.in_dw(d, delta1, delta2):
            continue
        (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[(1.0, 1.0)])
        joint = gw.joint_rdf(d, delta1, delta2)
        assert joint.regime != "closed-form-DW"
        assert math.isclose(pt.objective, joint.rate, rel_tol=1e-12), (d.tolist(), delta1, delta2)
        checked += 1


def test_region_sweep_mirrors_under_a_branch_swap():
    # a law that needs no solver: swapping the budgets and the weights maps
    # each state q of the family to 1/q and leaves T as it is
    rng = np.random.default_rng(43)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            d = rng.uniform(0.02, 0.98, n)
        else:
            d = 1.0 - 10.0 ** rng.uniform(-9.0, -0.05, n)
        d = np.sort(d)[::-1]
        delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.0, 2)
        alphas = CORNERS + [(1.0, 0.5), tuple(rng.uniform(0.0, 1.0, 2))]
        pts = gw.region_sweep(d, delta1, delta2, alphas=alphas)
        mirrored = gw.region_sweep(d, delta2, delta1, alphas=[(a2, a1) for a1, a2 in alphas])
        for p, m in zip(pts, mirrored):
            where = (d.tolist(), delta1, delta2, p.alpha1, p.alpha2)
            assert math.isclose(m.objective, p.objective, rel_tol=1e-14), where
            lq = np.log(p.q)
            assert np.all(np.abs(np.log(m.q) + lq) <= 1e-14 * (1.0 + np.abs(lq))), where


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
    r0 = 0.5 * np.sum(np.log1p(-d) + np.log1p(d) - np.log(v1) - np.log(v2), axis=0)
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
    # branch 1 saturates at weight 1, so no closed form holds and one
    # multiplier is live
    assert pt.path == "one-multiplier"


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
        # inside D_W the closed form serves each pair whose priced branches
        # stay free, the equal weights among them, with no dual evaluation;
        # a single unit weight leaves one live multiplier
        if p.path == "closed-form":
            assert p.iterations == 0
        elif p.path == "one-multiplier":
            assert (p.alpha1 == 1.0) != (p.alpha2 == 1.0) and 0 <= p.iterations <= 100
        else:
            assert p.path == "dual" and 0 < p.iterations < 200
    assert {(p.alpha1, p.alpha2) for p in pts if p.alpha1 == p.alpha2} <= {
        (p.alpha1, p.alpha2) for p in pts if p.path == "closed-form"}
    assert {(p.alpha1, p.alpha2) for p in pts if p.path == "one-multiplier"} == {
        (p.alpha1, p.alpha2) for p in pts if (p.alpha1 == 1.0) != (p.alpha2 == 1.0)}
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
    total = 0.5 * float(np.sum(np.log1p(-d) + np.log1p(d))) - float(mu @ delta)
    for dj in d:
        lo, hi = math.log(dj), -math.log(dj)
        u = np.linspace(lo, hi, 403)[1:-1]
        for _ in range(8):
            v = -np.expm1(np.stack([math.log(dj) - u, math.log(dj) + u]))  # (2, U)
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
    # closed-form points: no priced branch saturates
    (D3, 0.3, 0.3, (0.5, 0.5)),
    (np.array([0.6, 0.3]), 0.2, 0.3, (0.3, 0.8)),
    (np.array([0.6]), 0.1, 0.3, (0.8, 0.4)),
    # one-multiplier points: one unit weight, the other branch unpriced or
    # at its equal split, and one with a slack budget on the unit branch
    (D3, 0.3, 0.3, (0.0, 1.0)),
    (np.array([0.6, 0.3]), 0.2, 0.3, (1.0, 0.3)),
    (np.array([0.9, 0.2]), 0.05, 1.4, (0.6, 1.0)),
    (np.array([0.6, 0.3]), 1e-3, 10.0, (1.0, 0.0)),
]


@pytest.mark.parametrize("case", SWEEP_DUAL_CASES, ids=lambda case: f"{case[0]}-{case[3]}")
def test_region_sweep_certificates_match_a_brute_force_dual(case):
    d, delta1, delta2, alpha = case
    (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[alpha])
    assert pt.multipliers.shape == (2,) and np.all(pt.multipliers >= 0.0)
    assert pt.converged and 0.0 < pt.gap <= 1e-10
    if pt.path == "closed-form":
        assert pt.iterations == 0
    elif pt.path == "dual":
        assert pt.iterations >= 1
    # the grid bound lies above the dual's infimum and near it; the gap the
    # point reports covers the objective's distance to it (the bound is not
    # above the infimum beyond rounding) and is not vacuous
    bound = _lagrangian_inf(d, np.array([delta1, delta2]), alpha, pt.multipliers)
    assert pt.objective - bound <= pt.gap
    assert pt.gap - (pt.objective - bound) <= 1e-11 * (1.0 + abs(pt.objective))


def test_region_sweep_stops_at_the_rounding_floor_of_its_budget():
    # delta1 = 0.37 n (1 - d_max), 4.8e-5: from the 6th evaluation on, the branch-1 residual
    # wanders within +-9e-12, the rounding the inner roots' stopping error
    # 2 eps |u| leaves in the sums; the solve took 61 evaluations when only
    # 1e-12 ended it
    d = np.array([0.9999742998110388, 0.9999345418338131, 0.9984658064780574,
                  0.9915278929613666, 0.7671858927777988])
    delta = np.array([4.7663641630791746e-05, 3.01372850183702])
    (pt,) = gw.region_sweep(d, *delta, alphas=[(1.0, 1.0)])
    assert pt.converged and pt.iterations <= 10
    assert math.isclose(pt.objective, 29.035332339457543, rel_tol=1e-12)
    # the dual bound closes the objective, and the reported gap closes to
    # rounding on these near-unit coefficients too
    assert pt.gap <= 1e-12 * (1.0 + abs(pt.objective))
    with np.errstate(divide="ignore", invalid="ignore"):  # grid ends at v = 0
        bound = _lagrangian_inf(d, delta, (1.0, 1.0), pt.multipliers)
    assert pt.objective - bound <= min(pt.gap, 1e-10)


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


# ------------------------------------------------------- mpmath oracle
# The triple at the returned state in 50 digits, with a water-fill of its
# own.  q = exp(u) is rounded, so the oracle brackets each rate over
# log q +- h with h = 2 eps (1 + |log d|): |log q - u| <= eps, and forming
# log d -+ u in floating point moves u by at most eps |log d|.

BENCH_WEIGHTS = [(0.0, 1.0), (0.5, 0.5), (0.5, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
EPS = np.finfo(float).eps


def _mp_waterfill(mp, v, delta):
    """Reverse water-fill rate and level; the level is inf when delta covers v."""
    v = sorted(v)
    if sum(v) <= delta:
        return mp.mpf(0), mp.inf
    below = mp.mpf(0)
    for i, vi in enumerate(v):
        level = (delta - below) / (len(v) - i)
        if level <= vi:
            return sum(mp.log(x / level) for x in v[i:]) / 2, level
        below += vi
    raise AssertionError("water level above every variance")


def _mp_triple(mp, d, u, delta1, delta2):
    """Per-component R0 terms, then (rate, level) of branches 1 and 2, at
    the diagonal state ``exp(u)``."""
    v1 = [1 - dj * mp.exp(-uj) for dj, uj in zip(d, u)]
    v2 = [1 - dj * mp.exp(uj) for dj, uj in zip(d, u)]
    r0 = [(mp.log(1 - dj * dj) - mp.log(a) - mp.log(b)) / 2 for dj, a, b in zip(d, v1, v2)]
    return r0, _mp_waterfill(mp, v1, delta1), _mp_waterfill(mp, v2, delta2)


def test_region_sweep_triple_matches_an_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(1, 5))
            near = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n)
            d = np.sort(np.where(rng.random(n) < 0.5, rng.uniform(0.02, 0.98, n), near))[::-1]
            b = gw.dw_bound(d)
            shares = rng.uniform(0.2, 1.0, 2) if trial % 2 else 10.0 ** rng.uniform(-1.0, 2.0, 2)
            delta1, delta2 = b * shares
            alphas = BENCH_WEIGHTS + [tuple(rng.uniform(0.0, 1.0, 2))]
            dm = [mp.mpf(x) for x in d]
            h = [2 * EPS * (1 + abs(math.log(x))) for x in d]
            for pt in gw.region_sweep(d, delta1, delta2, alphas=alphas):
                u = [mp.log(mp.mpf(x)) for x in pt.q]
                at = [_mp_triple(mp, dm, [uj + s * hj for uj, hj in zip(u, h)], delta1, delta2)
                      for s in (-1, 0, 1)]
                # R0 is a sum of convex terms, each bracketed on its own; a
                # water-fill rate rises with every variance, so R1 rises and R2
                # falls in every u_j
                r0_lo = sum(min(t) for t in zip(*(a[0] for a in at)))
                r0_hi = sum(max(t) for t in zip(*(a[0] for a in at)))
                brackets = [(r0_lo, r0_hi),
                            (at[0][1][0], at[2][1][0]), (at[2][2][0], at[0][2][0])]
                # rounding: eps per R0 term; a branch rate also carries the
                # rounding of its level, (delta - the saturated sum) / #active
                sizes = [sum(abs(t) for t in at[1][0])]
                sizes += [abs(rate) + n * (1 + delta / level) for (rate, level), delta
                          in ((at[1][1], delta1), (at[1][2], delta2))]
                got = (pt.triple.r0, pt.triple.r1, pt.triple.r2)
                for rate, (lo, hi), size in zip(got, brackets, sizes):
                    tol = 8 * EPS * (1 + size)
                    where = (d.tolist(), delta1, delta2, pt.alpha1, pt.alpha2)
                    assert lo - tol <= rate <= hi + tol, where
                a1, a2 = pt.alpha1, pt.alpha2
                assert pt.objective == pt.triple.r0 + a1 * pt.triple.r1 + a2 * pt.triple.r2


def test_region_sweep_builds_the_triple_from_the_dual_state(monkeypatch):
    # the dual's state needs no re-validation and no re-evaluation through
    # the state-covariance entry points
    import gwgauss.graywyner
    import gwgauss.rdf
    import gwgauss.wyner

    def refuse(*args, **kwargs):
        raise AssertionError("region_sweep went through a state-covariance entry point")

    for module in (gw, gwgauss.graywyner, gwgauss.rdf, gwgauss.wyner):
        for name in ("conditional_rdf", "mi_given_state", "in_state_family"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    pts = gw.region_sweep(D3, 0.3, 0.2)
    assert len(pts) == 66
    assert all(p.converged and p.gap > 0.0 for p in pts)


def test_rate_only_callers_build_no_water_fill_arrays(monkeypatch):
    # the sweep, Gray's bound and the Pangloss triple read only the rate, so
    # they take rdf.marginal_rate and never build an RdfResult
    import gwgauss.graywyner
    import gwgauss.rdf

    def refuse(*args, **kwargs):
        raise AssertionError("a rate-only caller built the water-fill arrays")

    for module in (gwgauss.graywyner, gwgauss.rdf):
        monkeypatch.setattr(module, "marginal_rdf", refuse, raising=False)
    pts = gw.region_sweep(D3, 0.3, 0.2)
    assert len(pts) == 66
    assert all(p.converged and p.gap > 0.0 for p in pts)
    assert gw.gray_lower_bound(D3, 0.3, 0.2) > 0.0
    assert gw.pangloss_triple(D3, 0.3, 0.2).r1 > 0.0


def test_region_sweep_unit_weights_with_an_allocation_that_rounds_to_one():
    # d_2 = 1e-184 leaves both branch variances 1 - d e^{-+u} at exactly 1,
    # and so both allocations at slack budgets: no log1p(-1) = -inf bounds
    # the state, and the pick takes q_2 = 1
    d = np.array([0.5, 1e-184])
    (pt,) = gw.region_sweep(d, 10.0, 10.0, alphas=[(1.0, 1.0)])
    joint = gw.joint_rdf(d, 10.0, 10.0).rate
    assert math.isclose(pt.objective, joint, rel_tol=1e-14)
    np.testing.assert_array_equal(pt.q, [1.0, 1.0])
    assert pt.converged and 0.0 < pt.gap <= 1e-14


def test_ci_dual_solves_up_to_32_coordinates_in_floats(monkeypatch):
    # up to 32 coordinates the dual's roots never reach the numpy batch,
    # whose branch variances come from rdf.branch_variances
    import gwgauss.rdf

    def refuse(*args, **kwargs):
        raise AssertionError("ci_dual took the numpy batch")

    monkeypatch.setattr(gwgauss.rdf, "branch_variances", refuse)
    d = np.linspace(0.95, 0.05, 32)
    b = gw.dw_bound(d)
    pts = gw.region_sweep(d, 0.6 * b, 0.8 * b)
    assert len(pts) == 66
    assert all(p.converged and p.gap > 0.0 for p in pts)
    res = gw.joint_rdf(d, 1.5 * b, 3.0 * b)
    assert res.regime == "numerical" and res.iterations > 0


def test_region_sweep_gap_allowance_at_every_weight():
    # at every weight, (1, 1) included, T comes from the dual's own branch
    # variances, so the rounding allowance scales with |T| + sum |log v|,
    # not with sum 1 / v: the raw gap stays above it (the gap is positive),
    # and with budgets of at least 1e-3 n, where the dual's rounding floor
    # stays below 1e-12, the gap closes to 1e-12 even with 1 - d down to 1e-9
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        near = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n)
        d = np.sort(np.where(rng.random(n) < 0.5, rng.uniform(0.02, 0.98, n), near))[::-1]
        delta1, delta2 = n * 10.0 ** rng.uniform(-3.0, 0.0, 2)
        alphas = BENCH_WEIGHTS + [tuple(rng.uniform(0.0, 1.0, 2))]
        for pt in gw.region_sweep(d, delta1, delta2, alphas=alphas):
            assert pt.converged
            assert 0.0 < pt.gap <= 1e-12 * (1.0 + abs(pt.objective)), (d.tolist(), delta1, delta2)


def _benchmark_like(rng, passes):
    """``(d, delta1, delta2)`` like the benchmark's sweep workload: jittered
    n = 1, 2, 3 bases, budgets at 0.5-0.8 of the D_W edge."""
    bases = ([(x,) for x in np.linspace(0.2, 0.85, 14)]
             + [(x, r * x) for x, r in zip(np.linspace(0.4, 0.9, 14), [0.3, 0.5, 0.7] * 5)]
             + [(0.8, 0.5, 0.1)])
    for _ in range(passes):
        for base in bases:
            d = np.sort(np.asarray(base) + rng.uniform(-0.03, 0.03, len(base)))[::-1]
            yield (d, *(rng.uniform(0.5, 0.8, 2) * gw.dw_bound(d)))


def test_region_sweep_evaluations_on_benchmark_like_instances():
    # a deterministic stand-in for the sweep's speed.  At equal weights the
    # optimum is the identity state with the equal split, which the closed
    # form gives with no dual evaluation; at the four pairs with one unit
    # weight one multiplier is live, and its Newton iteration takes at most
    # 1 step from its start
    for d, delta1, delta2 in _benchmark_like(np.random.default_rng(30), 5):
        for pt in gw.region_sweep(d, delta1, delta2, alphas=BENCH_WEIGHTS):
            where = (d, delta1, delta2, pt.alpha1, pt.alpha2)
            if pt.alpha1 == pt.alpha2:
                assert pt.path == "closed-form" and pt.iterations == 0, where
            else:
                assert pt.path == "one-multiplier" and pt.iterations <= 1, where
                assert pt.converged, where


# coefficients in the bulk, tiny, or within 1e-12 of 1; budgets over 600
# decades and slack; weights at 0, at 1 or between, off the unit pair
sweep_d = st.lists(
    st.one_of(st.floats(1e-3, 1.0 - 1e-12),
              st.floats(-300.0, -1.0).map(lambda e: 10.0 ** e),
              st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0 ** e)),
    min_size=1, max_size=8,
)
sweep_budgets = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.just(math.inf))
sweep_weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=500)
@given(d=sweep_d, delta1=sweep_budgets, delta2=sweep_budgets,
       alpha=st.tuples(sweep_weight, sweep_weight).filter(lambda a: a != (1.0, 1.0)))
# a state with 1 - d q ~ 5e-12, once T = inf by an eigenvalue floor
@example(d=[0.5, 1e-7], delta1=math.inf, delta2=1e-11, alpha=(0.0, 1.0))
# Hessian entries ~1e-170, whose 2 x 2 determinant underflows to 0
@example(d=[1e-160], delta1=1e200, delta2=1e-100, alpha=(0.5, 0.5))
# a subnormal weight, once a NaN gap
@example(d=[0.75, 0.5], delta1=math.inf, delta2=math.inf, alpha=(1.0, 2.225073858507e-311))
# the smallest normal weight, whose dual Hessian entry ~1.8e308 once
# overflowed the 2 x 2 Newton step to a NaN multiplier
@example(d=[0.75, 0.25, 0.25, 0.25], delta1=math.inf, delta2=math.inf,
         alpha=(1.0, 2.2250738585072014e-308))
# T ~ 0.005 at the smallest normal weight, once a gap of -1.7e-17
@example(d=[0.005043426373056407], delta1=math.inf, delta2=0.00242037728,
         alpha=(1.0, 2.2250738585072014e-308))
def test_region_sweep_off_unit_weights_is_finite_and_converged(d, delta1, delta2, alpha):
    try:
        (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[alpha])
    except gw.NonpositiveDistortion:
        return
    except ValueError as exc:
        assert "weights must be 0 or lie in" in str(exc)
        return
    values = [pt.objective, pt.triple.r0, pt.triple.r1, pt.triple.r2, pt.gap]
    assert all(math.isfinite(x) for x in values), values
    assert pt.gap >= 0.0, values
    assert np.all(np.isfinite(pt.q)) and np.all(np.isfinite(pt.multipliers))
    assert pt.converged


@pytest.mark.parametrize("d, delta1, delta2", [
    (D3, 1e-20, math.inf),
    (D3, 1e-20, 2.25),  # a finite budget above sum(1 - d^2) = 2.1
    (D3, 2.25, 1e-20),
    (np.linspace(0.9, 0.1, 40), 4e-20, math.inf),  # the numpy batch path
])
def test_region_sweep_unit_weights_with_a_tiny_and_a_slack_budget(d, delta1, delta2):
    # the (1, 1) point runs joint_rdf's solve, from the cap-point start.
    # From the equal split's multipliers the unit-weight pick can put a
    # component on the family edge, v1 = 0, where T is inf (and the batch
    # warns of a log 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (pt,) = gw.region_sweep(d, delta1, delta2, alphas=[(1.0, 1.0)])
    joint = gw.joint_rdf(d, delta1, delta2).rate  # 70.725 on D3
    assert math.isfinite(pt.objective)
    assert abs(pt.objective - joint) <= 1e-9 * joint


def test_joint_rdf_and_the_unit_weight_sweep_point_are_one_solve(rng):
    # outside D_W both make the same ci_dual call, so the sweep's
    # multipliers mu are joint_rdf's lam / 2 bit for bit; n <= 6 runs the
    # float roots and n = 40 the numpy batch
    for n in [*rng.integers(1, 7, 60).tolist(), *[40] * 10]:
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        delta = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, 2.5, 2)
        delta[rng.integers(0, 2)] = gw.dw_bound(d) * 10.0 ** rng.uniform(0.01, 2.5)
        (pt,) = gw.region_sweep(d, *delta, alphas=[(1.0, 1.0)])
        res = gw.joint_rdf(d, *delta)
        assert pt.path == "dual" and res.regime != "closed-form-DW"
        assert (2.0 * pt.multipliers).tolist() == res.multipliers.tolist(), (d.tolist(), delta)


def test_sweep_point_floats_are_python_floats():
    # numpy weights come back as Python floats, and so do the values formed
    # from them, on all three paths
    alphas = [(np.float64(0.5), np.float64(0.5)), (np.float32(1.0), np.float64(0.2)),
              (np.float64(0.9), np.float32(0.3))]
    points = gw.region_sweep(D3, 0.3, 0.3, alphas=alphas)
    assert [p.path for p in points] == ["closed-form", "one-multiplier", "dual"]
    for p in points:
        values = [p.alpha1, p.alpha2, p.objective, p.gap, p.triple.r0, p.triple.r1,
                  p.triple.r2, p.triple.delta1, p.triple.delta2]
        assert [type(x) for x in values] == [float] * len(values)


@pytest.mark.xfail(strict=True, reason="the dual stops at its step cap with multipliers "
                                       "(0, 8.8e-314) and a gap of 0.69")
def test_region_sweep_converges_with_a_weight_at_the_smallest_normal_float():
    # a hypothesis draw of the off-unit finiteness test; branch 1 saturates,
    # so the point stays on the dual
    d = [0.001953125, 0.001, 0.9999, 0.9999, 0.9999, 0.9999]
    (pt,) = gw.region_sweep(d, 1.0, 1.0, alphas=[(1.0, 2.2250738585072014e-308)])
    assert pt.path == "dual"
    assert pt.converged and pt.gap <= 1e-10 * (1.0 + abs(pt.objective))


def test_region_sweep_converges_with_a_tiny_coefficient_and_a_slack_budget():
    # a hypothesis draw of the off-unit finiteness test, where the dual took
    # 1031 evaluations and stopped at its step cap.  Branch 2 saturates and
    # branch 1 has no weight, so one multiplier is live.  At delta2 = 1 the
    # d ~ 0 component's branch-2 variance, at most 1, meets its allocation:
    # a kink in the dual, which the one-multiplier solve brackets
    d = [1e-20, 0.9999999999]
    (pt,) = gw.region_sweep(d, math.inf, 1.0, alphas=[(0.0, 1.0)])
    assert pt.path == "one-multiplier" and pt.converged
    assert 0.0 < pt.gap <= 1e-12 * (1.0 + pt.objective)
    # T is convex and nonincreasing in delta2, with slope -mu2: across the
    # kink it moves by no more than the multiplier allows, and never up
    deltas = [0.99999999, 1.0, 1.0000000001]
    points = [gw.region_sweep(d, math.inf, x, alphas=[(0.0, 1.0)])[0] for x in deltas]
    for (da, a), (db, b) in zip(zip(deltas, points), zip(deltas[1:], points[1:])):
        assert a.converged and b.converged
        slack = a.gap + b.gap
        assert -slack <= a.objective - b.objective <= a.multipliers[1] * (db - da) + slack


# ---------------------------------------------------------------- closed form
# Wherever no priced branch saturates, region_sweep takes each component's
# state from a quadratic (gaussmodel.free_state), with the equal split, and
# runs no dual.  The tests below hold it to the dual, to brute force and to
# laws that need no solver.

def _dual_only(monkeypatch):
    """Send every weight pair to the dual, as if no closed form held."""
    import gwgauss.graywyner

    monkeypatch.setattr(gwgauss.graywyner, "_closed_form", lambda *args: None)


def test_region_sweep_takes_the_closed_form_inside_dw(monkeypatch):
    import gwgauss.graywyner

    def refuse(*args, **kwargs):
        raise AssertionError("a point inside the closed form's region ran the dual")

    monkeypatch.setattr(gwgauss.graywyner, "ci_dual", refuse)
    for d, delta1, delta2 in _benchmark_like(np.random.default_rng(31), 2):
        n = d.size
        for pt in gw.region_sweep(d, delta1, delta2, alphas=[(0.5, 0.5), (1.0, 1.0)]):
            assert pt.path == "closed-form" and pt.iterations == 0 and pt.converged
            assert 0.0 < pt.gap <= 1e-14 * (1.0 + abs(pt.objective))
            # the identity state, the equal split and its multipliers
            np.testing.assert_array_equal(pt.q, np.ones(n))
            np.testing.assert_allclose(pt.multipliers, [pt.alpha1 * n / (2.0 * delta1),
                                                        pt.alpha2 * n / (2.0 * delta2)],
                                       rtol=1e-15)
        joint = gw.joint_rdf(d, delta1, delta2).rate
        assert math.isclose(pt.objective, joint, rel_tol=1e-14)


def _closed_form_draws(rng):
    """``(d, delta1, delta2, alphas)``: the benchmark's instances at the
    equal weights and (0.3, 0.8), then random coefficients, near 1 too,
    with budgets inside D_W and random weights."""
    for d, delta1, delta2 in _benchmark_like(rng, 1):
        yield d, delta1, delta2, [(0.5, 0.5), (1.0, 1.0), (0.3, 0.8)]
    for _ in range(150):
        n = int(rng.integers(1, 5))
        near = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n)
        d = np.sort(np.where(rng.random(n) < 0.7, rng.uniform(0.02, 0.98, n), near))[::-1]
        delta1, delta2 = gw.dw_bound(d) * rng.uniform(0.05, 1.0, 2)
        alphas = [(0.3, 0.8), (0.8, 0.3), (0.0, 0.0), (0.0, 0.7), tuple(rng.uniform(0.0, 1.0, 2))]
        yield d, delta1, delta2, alphas


def test_region_sweep_closed_form_points_match_the_dual(monkeypatch):
    # T within 1e-14 relative.  q within 2e-14: the closed form's q is within
    # 1.4 eps of a 50-digit root of its quadratic, while the dual's inner
    # stop test left up to 1.1e-14 on its q over 2070 random points
    closed = []
    for d, delta1, delta2, alphas in _closed_form_draws(np.random.default_rng(37)):
        for pt in gw.region_sweep(d, delta1, delta2, alphas=alphas):
            if pt.path == "closed-form":
                closed.append((d, delta1, delta2, pt))
    assert len(closed) >= 500
    _dual_only(monkeypatch)
    for d, delta1, delta2, pt in closed:
        (dual,) = gw.region_sweep(d, delta1, delta2, alphas=[(pt.alpha1, pt.alpha2)])
        where = (d.tolist(), delta1, delta2, pt.alpha1, pt.alpha2)
        assert dual.path == "dual" and dual.converged, where
        assert abs(pt.objective - dual.objective) <= 1e-14 * abs(dual.objective), where
        np.testing.assert_allclose(pt.q, dual.q, rtol=2e-14, atol=0.0, err_msg=str(where))
        # each certificate covers the other point
        assert dual.objective - dual.gap <= pt.objective + 1e-15 * abs(pt.objective), where
        assert pt.objective - pt.gap <= dual.objective + 1e-15 * abs(dual.objective), where


@pytest.mark.parametrize("n", [1, 2, 4])
def test_region_sweep_paths_agree_on_the_closed_form_boundary(n):
    # at delta_i / n = min_j v_ij the strict region test fails and the dual
    # runs; one ulp inside, the closed form does.  n is a power of 2, so
    # delta_i / n is that v exactly
    from gwgauss.gaussmodel import free_state

    rng = np.random.default_rng(40 + n)
    d = np.sort(rng.uniform(0.1, 0.9, n))[::-1]
    for alpha in [(0.3, 0.8), (0.8, 0.3), (1.0, 1.0), (0.6, 0.0)]:
        k1, k2 = (0.5 * (1.0 - a) for a in alpha)
        states = [free_state(x, k1, k2) for x in d.tolist()]
        edges = [n * min(s[2] for s in states), n * min(s[4] for s in states)]
        for i in (0, 1):
            if alpha[i] == 0.0:
                continue
            budgets = [0.5 * e for e in edges]
            budgets[i] = edges[i]
            (at,) = gw.region_sweep(d, *budgets, alphas=[alpha])
            budgets[i] = np.nextafter(edges[i], 0.0)
            (inside,) = gw.region_sweep(d, *budgets, alphas=[alpha])
            where = (d.tolist(), alpha, i)
            assert (at.path, inside.path) == ("dual", "closed-form"), where
            assert at.converged and at.gap <= 1e-12 * (1.0 + abs(at.objective)), where
            assert abs(at.objective - inside.objective) <= 1e-14 * abs(at.objective), where
            np.testing.assert_allclose(inside.q, at.q, rtol=2e-14, atol=0.0, err_msg=str(where))


def test_region_sweep_is_nondecreasing_in_each_weight():
    # T(alpha) = min_W [R0 + a1 R1 + a2 R2] with R_i >= 0, so raising one
    # weight never lowers T; the two points may cross by their gaps and
    # rounding only.  A closed form solved with k1 and k2 swapped fails this
    rng = np.random.default_rng(41)
    paths = []
    for _ in range(300):
        n = int(rng.integers(1, 5))
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        delta1, delta2 = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, math.log10(30.0), 2)
        low = [float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.3 else float(rng.random())
               for _ in range(2)]
        high = list(low)
        i = int(rng.integers(2))
        high[i] = 1.0 if rng.random() < 0.3 else low[i] + (1.0 - low[i]) * float(rng.random())
        lo, hi = gw.region_sweep(d, delta1, delta2, alphas=[tuple(low), tuple(high)])
        paths += [lo.path, hi.path]
        allowance = lo.gap + hi.gap + 1e-14 * (1.0 + abs(hi.objective))
        assert lo.objective <= hi.objective + allowance, (d.tolist(), delta1, delta2, low, high)
    counts = [paths.count(path) for path in ("closed-form", "one-multiplier", "dual")]
    assert min(counts) >= 50, counts


def test_no_dense_family_state_beats_the_sweep():
    # the sweep minimizes over diagonal states only; the dense oracle of
    # reference.py values any state of the family, here random ones and
    # mixtures of them with each point's own state
    rng = np.random.default_rng(43)
    paths = []
    for trial in range(40):
        n = int(rng.integers(2, 5))
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        shares = rng.uniform(0.1, 1.0, 2) if trial % 2 else 10.0 ** rng.uniform(-1.0, 1.5, 2)
        delta1, delta2 = gw.dw_bound(d) * shares
        alphas = [(0.5, 0.5), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.5),
                  (0.3, 0.8), tuple(rng.uniform(0.0, 1.0, 2))]
        pts = gw.region_sweep(d, delta1, delta2, alphas=alphas)
        paths += [p.path for p in pts]
        # about 200 states per instance: 160 drawn, and 6 mixtures per point
        samples = [reference.sample_state_matrix(d, rng) for _ in range(160)]
        rates = [reference.dense_state_rates(d, s, delta1, delta2) for s in samples]
        for p in pts:
            mixed = [(1.0 - t) * np.diag(p.q) + t * samples[k]
                     for k, t in zip(rng.integers(0, 160, 6), rng.uniform(0.0, 0.3, 6))]
            for r0, r1, r2 in rates + [reference.dense_state_rates(d, s, delta1, delta2)
                                       for s in mixed]:
                dense = r0 + p.alpha1 * r1 + p.alpha2 * r2
                assert dense >= p.objective - p.gap, (d.tolist(), delta1, delta2, p.alpha1,
                                                      p.alpha2, p.path)
    counts = [paths.count(path) for path in ("closed-form", "one-multiplier", "dual")]
    assert min(counts) >= 40, counts


# ------------------------------------------------------- one multiplier
# Where exactly one weight is 1, that branch s saturates in every component,
# and where the other branch o takes its equal split or no price only mu_s is
# live: region_sweep solves the point by one Newton iteration on the states
# and the water level c = 1 / (2 mu_s).  The tests below hold it to the dual,
# to closed forms, to a 50-digit solve and to laws that need no solver.

def _no_one_multiplier(monkeypatch):
    """Send every weight pair with one unit weight to the dual."""
    import gwgauss.graywyner

    monkeypatch.setattr(gwgauss.graywyner, "_unit_weight_state", lambda *args: None)


def _one_unit_weight(rng):
    """``(1, a)`` or ``(a, 1)`` with a at 0, 1/2 or uniform in [0, 1)."""
    a = float(rng.choice([0.0, 0.5, rng.random()]))
    return (1.0, a) if rng.random() < 0.5 else (a, 1.0)


def test_one_multiplier_points_match_the_forced_dual(monkeypatch):
    # 2000 points on the new path against the dual forced on the same
    # weights.  The new T is never above the dual's by more than 1e-13
    # relative, and each point's certificate covers the other; where the
    # dual's own gap is below 1e-13 relative the two agree to 1e-13.  The
    # dual's gap reaches 1e-12 where its inner stop leaves q 3e-12 off
    rng = np.random.default_rng(47)
    points = []
    while len(points) < 2000:
        n = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        delta = gw.dw_bound(d) * 10.0 ** rng.uniform(-1.0, math.log10(30.0), 2)
        alpha = _one_unit_weight(rng)
        (pt,) = gw.region_sweep(d, *delta, alphas=[alpha])
        if pt.path == "one-multiplier":
            assert pt.converged and 0.0 < pt.gap <= 1e-12 * (1.0 + pt.objective)
            points.append((d, delta, alpha, pt))
    _no_one_multiplier(monkeypatch)
    compared = 0
    for d, delta, alpha, pt in points:
        (dual,) = gw.region_sweep(d, *delta, alphas=[alpha])
        assert dual.path == "dual"
        if not (dual.converged and dual.gap <= 1e-12):
            continue
        compared += 1
        where = (d.tolist(), delta.tolist(), alpha)
        rel = 1e-13 * abs(dual.objective)
        assert pt.objective <= dual.objective + rel, where
        assert dual.objective - dual.gap <= pt.objective, where
        assert pt.objective - pt.gap <= dual.objective, where
        if dual.gap <= rel:
            assert abs(pt.objective - dual.objective) <= rel, where
        np.testing.assert_allclose(pt.q, dual.q, rtol=1e-11, atol=0.0, err_msg=str(where))
    assert compared >= 1900


def test_one_multiplier_with_one_component_meets_its_budget():
    # with n = 1 and a binding budget the saturated variance is the budget,
    # v_s = delta_s, so the point needs no solve: w_o = d^2 / (1 - delta_s),
    # and T = R0 + alpha_o R_o there, in 50 digits
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(53)
    with mp.workdps(50):
        for _ in range(300):
            x = float(rng.uniform(0.05, 0.95))
            alpha = _one_unit_weight(rng)
            s = 0 if alpha[0] == 1.0 else 1
            a = alpha[1 - s]
            # at mu_s = 0 the weight 1/2 >= k_o leaves v_s >= 1 - d
            ds = (1.0 - x) * 10.0 ** rng.uniform(-8.0, -0.05)
            vs, dm = mp.mpf(ds), mp.mpf(x)
            vo = (1 - dm * dm - vs) / (1 - vs)
            do = math.inf if rng.random() < 0.3 else float(vo) * rng.uniform(0.1, 0.9)
            budgets = [ds, do] if s == 0 else [do, ds]
            (pt,) = gw.region_sweep([x], *budgets, alphas=[alpha])
            r0 = (mp.log(1 - dm * dm) - mp.log(vs) - mp.log(vo)) / 2
            ro = mp.log(vo / do) / 2 if do < math.inf else 0
            want = r0 + a * ro
            where = (x, budgets, alpha)
            assert pt.path == "one-multiplier" and pt.converged, where
            assert abs(pt.objective - want) <= min(pt.gap, 1e-13 * (1.0 + want)), where
            q = (1 - vs) / dm if s == 1 else dm / (1 - vs)
            assert abs(pt.q[0] - q) <= 1e-13 * q, where


def _mp_corner(mp, d, delta):
    """``(T, states)`` in the working precision at weight 1 on a branch s
    with budget ``delta`` and weight 0 on the other: each ``v_s`` solves
    ``v / c + P(v) = 1``, ``P = d^2 v / ((1 - v)(1 - d^2 - v))``, by Newton
    from ``min(c, 1 - d)``, and c solves ``sum v_s = delta`` by Newton in
    log c; T is R0 plus the water-fill rate of the v_s over delta."""
    d = [mp.mpf(x) for x in d]
    tol = mp.mpf(10) ** (-mp.mp.dps + 5)

    def saturated(c):
        out = []
        for x in d:
            z = 1 - x * x
            v = min(c, 1 - x)
            for _ in range(400):
                p = x * x * v / ((1 - v) * (z - v))
                slope = 1 / c + p * (1 / v + 1 / (1 - v) + 1 / (z - v))
                step = (v / c + p - 1) / slope
                v -= step
                if abs(step) <= tol * v:
                    break
            out.append((v, slope))
        return out

    y = mp.log(mp.mpf(delta) / len(d))
    for _ in range(200):
        rows = saturated(mp.exp(y))
        total = sum(v for v, _ in rows)
        step = mp.log(delta / total) * total / sum(v / (mp.exp(y) * g) for v, g in rows)
        y += step
        if abs(step) <= tol:
            break
    vs = [v for v, _ in saturated(mp.exp(y))]
    vo = [(1 - x * x - v) / (1 - v) for x, v in zip(d, vs)]
    r0 = sum((mp.log(1 - x * x) - mp.log(a) - mp.log(b)) / 2 for x, a, b in zip(d, vs, vo))
    return r0 + _mp_waterfill(mp, vs, mp.mpf(delta))[0], vs


def test_one_multiplier_certificates_at_tiny_budgets():
    # the certificate law at the corners (1, 0) and (0, 1), with the unit
    # branch's budget at 1e-16 to 1e-6 per component and the other slack:
    # every T lies within its gap of a 50-digit solve, where the dual left
    # T above the minimum by more than its gap (ROADMAP item 16)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        # the 50-digit minimum 32.2361913019166429; the dual gave
        # 32.23645595793567 with a gap of 1.3e-4
        want, _ = _mp_corner(mp, [0.6, 0.3], 2e-14)
        assert abs(want - mp.mpf("32.2361913019166429")) <= 1e-16
        (pt,) = gw.region_sweep([0.6, 0.3], 0.3, 2e-14, alphas=[(0.0, 1.0)])
        assert pt.path == "one-multiplier" and pt.converged
        assert abs(pt.objective - want) <= pt.gap <= 1e-12 * (1.0 + pt.objective)
        rng = np.random.default_rng(59)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
            delta = n * 10.0 ** rng.uniform(-16.0, -6.0)
            want, vs = _mp_corner(mp, d.tolist(), delta)
            for alpha, budgets in (((1.0, 0.0), (delta, math.inf)), ((0.0, 1.0), (math.inf, delta))):
                (pt,) = gw.region_sweep(d, *budgets, alphas=[alpha])
                where = (d.tolist(), budgets, alpha)
                assert pt.path == "one-multiplier" and pt.converged, where
                assert abs(pt.objective - want) <= pt.gap <= 1e-12 * (1.0 + pt.objective), where


@pytest.mark.parametrize("alpha", [(0.001, 1.0), (0.3, 1.0)])
def test_one_multiplier_prices_no_branch_with_a_slack_budget(alpha):
    # an infinite budget stands for sum(1 - d^2), which a component with
    # d ~ 0 can reach: the dual left mu1 > 0 there and reported a gap of
    # 5e-7.  A budget at or above that sum prices its branch at exactly 0
    d = [1e-20, 0.999999]
    (pt,) = gw.region_sweep(d, math.inf, 1.0, alphas=[alpha])
    assert pt.path == "one-multiplier" and pt.converged
    assert pt.multipliers[0] == 0.0 and pt.multipliers[1] > 0.0
    assert 0.0 < pt.gap <= 1e-12 * (1.0 + pt.objective)
    (far,) = gw.region_sweep(d, 1e300, 1.0, alphas=[alpha])
    assert math.isclose(pt.objective, far.objective, rel_tol=1.3e-13)


def test_a_slack_budget_takes_the_weight_off_its_branch():
    # a law that needs no solver: with delta_o >= sum(1 - d^2) >= sum v_o,
    # R_o = 0 at every state, so T(a, 1) = T(0, 1) for any a, within both
    # gaps; the same with the branches swapped
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        slack = float(np.sum((1.0 - d) * (1.0 + d))) * rng.choice([1.0, 3.0, math.inf])
        tight = gw.dw_bound(d) * 10.0 ** rng.uniform(-3.0, 1.5)
        a = float(rng.random())
        for budgets, low, high in (((slack, tight), (0.0, 1.0), (a, 1.0)),
                                   ((tight, slack), (1.0, 0.0), (1.0, a))):
            lo, hi = gw.region_sweep(d, *budgets, alphas=[low, high])
            where = (d.tolist(), budgets, a)
            assert lo.path == hi.path == "one-multiplier", where
            assert abs(hi.objective - lo.objective) <= lo.gap + hi.gap, where
            assert hi.multipliers[budgets.index(slack)] == 0.0, where
