"""Per-operation output checks.

Each check compares one operation's output with :mod:`oracles` or with a
property the method must have, and returns a list of failure messages
(empty when the output passes).  None of them reads stored output.  The
tolerances, and why each has its size, are listed in the README.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

# Rates are O(1..100) nats and every path the checks compare agrees to
# ~1e-15 relative; 1e-9 keeps six orders of margin and still rejects an
# error of 1e-6.
RATE_RTOL = 1e-9
# Two-sided order family d <= q <= 1/d, at the scale of rounding.
FAMILY_RTOL = 1e-12
# The n = 1 grid minimum and the golden-section minimum of the sweep both
# sit within ~1e-12 of the true minimum.
GRID_TOL = 1e-9
# The numerical joint path solves its budget equations to brentq's xtol on
# the multipliers; overshoots up to ~5e-8 relative have been seen on
# 128 + 128 pairs.  1e-6 bounds that and still rejects a wrong budget.
BUDGET_RTOL = 1e-6
# Cap (1 - a1)(1 - a2) >= d^2 is met by the boundary solve to rounding.
CAP_TOL = 1e-9
# Squared canonical correlations by SVD and by the eigenvalue route agree
# to rounding times the conditioning of the marginal blocks.
CANON_EPS_MULT = 1e3
# Monte Carlo statistics: allowed distance from the target, in multiples
# of the statistic's own standard deviation (N^{-1/2} times a scale).
MC_SIGMAS = 6.0
# The program and the check compute the same empirical statistics in a
# different order of operations.
MC_RECOMPUTE_RTOL = 1e-8


def close(a: float, b: float, rtol: float = RATE_RTOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _near(errors: list, what: str, got: float, want: float, rtol: float = RATE_RTOL):
    if not close(got, want, rtol):
        errors.append(f"{what}: got {got!r}, oracle {want!r}")


# ---------------------------------------------------------------- sweep

def sweep_point(d, delta1, delta2, alpha, points) -> list[str]:
    """One ``region_sweep`` call for a single weight pair."""
    errors: list[str] = []
    d = np.asarray(d, dtype=float)
    a1, a2 = alpha
    if len(points) != 1:
        return [f"expected one sweep point, got {len(points)}"]
    p = points[0]
    if (p.alpha1, p.alpha2) != (a1, a2):
        errors.append(f"weights {(p.alpha1, p.alpha2)} != requested {alpha}")
    q = np.asarray(p.q, dtype=float)
    if q.shape != d.shape:
        return errors + [f"q has shape {q.shape}, expected {d.shape}"]
    if np.any(q < d * (1.0 - FAMILY_RTOL)) or np.any(q > (1.0 / d) * (1.0 + FAMILY_RTOL)):
        errors.append(f"q = {q.tolist()} outside [d, 1/d] for d = {d.tolist()}")
        return errors
    t, r0, r1, r2 = oracles.sweep_objective(d, q, delta1, delta2, a1, a2)
    _near(errors, "R0 at returned q", p.triple.r0, r0)
    _near(errors, "R1 at returned q", p.triple.r1, r1)
    _near(errors, "R2 at returned q", p.triple.r2, r2)
    _near(errors, "objective vs R0 + a1 R1 + a2 R2", p.objective,
          p.triple.r0 + a1 * p.triple.r1 + a2 * p.triple.r2)
    _near(errors, "objective at returned q", p.objective, t)
    t_identity = oracles.sweep_objective(d, np.ones(d.size), delta1, delta2, a1, a2)[0]
    if p.objective > t_identity + RATE_RTOL * (1.0 + abs(t_identity)):
        errors.append(f"objective {p.objective!r} worse than identity state {t_identity!r}")
    ci = oracles.common_information(d)
    if p.triple.r0 < ci - RATE_RTOL * (1.0 + ci):
        errors.append(f"R0 {p.triple.r0!r} below common information {ci!r}")
    if (a1, a2) == (1.0, 1.0):
        _near(errors, "T(1, 1) vs D_W joint rate", p.objective,
              oracles.dw_joint_rate(d, delta1, delta2))
    if d.size == 1:
        gmin = oracles.grid_min_n1(float(d[0]), delta1, delta2, a1, a2)
        if abs(p.objective - gmin) > GRID_TOL * (1.0 + abs(gmin)):
            errors.append(f"n = 1 objective {p.objective!r} != grid minimum {gmin!r}")
    return errors


# ---------------------------------------------------------------- joint

def canonical_form(q11, q22, q12, cf, h1: float, h2: float) -> list[str]:
    """Canonical correlations against the eigenvalue route, and the
    classification of the raw values against the thresholds."""
    errors: list[str] = []
    ev = oracles.squared_canonical_correlations(q11, q22, q12)
    sv = np.asarray(cf.sv, dtype=float)
    if sv.shape != ev.shape:
        return [f"{sv.size} singular values, oracle has {ev.size}"]
    kappa = np.linalg.cond(q11) + np.linalg.cond(q22)
    tol = CANON_EPS_MULT * np.finfo(float).eps * kappa
    gap = float(np.max(np.abs(sv * sv - ev), initial=0.0))
    if gap > tol:
        errors.append(f"squared correlations differ from eigenvalue route by {gap:.3e} > {tol:.3e}")
    p11, p12 = cf.idx.p11, cf.idx.p12
    if not (np.all(sv[:p11] > h1) and np.all(sv[p11 + p12:] < h2)
            and np.all((sv[p11:p11 + p12] >= h2) & (sv[p11:p11 + p12] <= h1))):
        errors.append(f"index sextuple {cf.idx} disagrees with thresholds on {sv.tolist()}")
    if not np.array_equal(np.asarray(cf.d), sv[p11:p11 + p12]):
        errors.append("d is not the correlated slice of the singular values")
    return errors


def common_info(idx, d, result) -> list[str]:
    errors: list[str] = []
    c = oracles.common_information(d)
    _near(errors, "correlated part of common information", result.correlated_part, c)
    _near(errors, "common information", result.value, math.inf if idx.p11 else c)
    return errors


def joint_rate(d, delta1: float, delta2: float, res) -> list[str]:
    """A ``joint_rdf`` result on either path."""
    errors: list[str] = []
    d = np.asarray(d, dtype=float)
    a1 = np.asarray(res.alloc1, dtype=float)
    a2 = np.asarray(res.alloc2, dtype=float)
    if a1.shape != d.shape or a2.shape != d.shape:
        return [f"allocation shapes {a1.shape}, {a2.shape} for n = {d.size}"]
    if np.any(a1 <= 0.0) or np.any(a2 <= 0.0):
        errors.append("allocation not positive")
    if np.any((1.0 - a1) * (1.0 - a2) < d * d - CAP_TOL) or np.any(a1 > 1.0) or np.any(a2 > 1.0):
        errors.append("allocation pair beyond its cap (1 - a1)(1 - a2) >= d^2")
    for i, (a, delta) in enumerate(((a1, delta1), (a2, delta2)), start=1):
        if a.sum() > delta * (1.0 + BUDGET_RTOL):
            errors.append(f"branch {i} allocation sum {a.sum()!r} exceeds budget {delta!r}")
    if errors:
        return errors
    _near(errors, "rate recomputed from allocations", res.rate, oracles.allocation_rate(d, a1, a2))
    lower = oracles.gray_lower_bound(d, delta1, delta2)
    upper = oracles.feasible_allocation_bound(d, delta1, delta2)
    if res.rate < lower - RATE_RTOL * (1.0 + abs(lower)):
        errors.append(f"rate {res.rate!r} below Gray's bound {lower!r}")
    if res.rate > upper + RATE_RTOL * (1.0 + abs(upper)):
        errors.append(f"rate {res.rate!r} above the feasible-allocation bound {upper!r}")
    if max(delta1, delta2) <= oracles.dw_bound(d):
        if res.regime != "closed-form-DW":
            errors.append(f"inside D_W but regime {res.regime!r}")
        _near(errors, "closed-form D_W rate", res.rate, oracles.dw_joint_rate(d, delta1, delta2))
    elif res.regime not in ("numerical", "infeasible-region"):
        errors.append(f"outside D_W but regime {res.regime!r}")
    return errors


def pangloss(d, delta1: float, delta2: float, triple, joint) -> list[str]:
    """Inside ``D_W`` the identity-state triple closes the joint rate."""
    errors: list[str] = []
    _near(errors, "pangloss R0 vs common information", triple.r0, oracles.common_information(d))
    _near(errors, "pangloss R0 + R1 + R2 vs joint rate",
          triple.r0 + triple.r1 + triple.r2, joint.rate)
    ones = np.ones(len(d))
    v1, v2 = oracles.branch_variances(d, ones)
    _near(errors, "pangloss R1", triple.r1, oracles.waterfill(v1, delta1)[0])
    _near(errors, "pangloss R2", triple.r2, oracles.waterfill(v2, delta2)[0])
    return errors


def waterfill(variances, delta: float, res) -> list[str]:
    """A ``marginal_rdf`` / ``conditional_rdf`` result."""
    errors: list[str] = []
    rate, alloc, level = oracles.waterfill(variances, delta)
    _near(errors, "water-filling rate", res.rate, rate)
    got = np.asarray(res.alloc, dtype=float)
    if got.shape != alloc.shape or not np.allclose(got, alloc, rtol=RATE_RTOL, atol=RATE_RTOL * level):
        errors.append("water-filling allocation differs from the sorted oracle")
    return errors


def gray(d, delta1: float, delta2: float, value: float) -> list[str]:
    errors: list[str] = []
    _near(errors, "Gray's lower bound", value, oracles.gray_lower_bound(d, delta1, delta2))
    return errors


# ---------------------------------------------------------------- Monte Carlo

def mc_scales(target: np.ndarray, n: int) -> tuple[float, float]:
    """Standard deviations of the relative Frobenius covariance error and
    of each conditional-independence residual entry, for ``n`` rows.

    Entry (i, j) of an empirical second-moment matrix has variance
    ``(T_ii T_jj + T_ij^2) / n``; the residual entries are empirical
    covariances of unit-variance-bounded noise, so at most ``1 / n``.
    """
    diag = np.diag(target)
    var_sum = float(np.sum(np.outer(diag, diag) + target * target))
    cov_sd = math.sqrt(var_sum / n) / float(np.linalg.norm(target))
    return cov_sd, 1.0 / math.sqrt(n)


def realization_report(block, target, p1: int, p2: int, rep, *, identical: bool,
                       mi_target: float, corr_d, distortion=None) -> list[str]:
    """A ``validate_realization`` report against statistics recomputed from
    the same samples, and those statistics against the target."""
    errors: list[str] = []
    n = block.n_samples
    parts = [block.y1, block.y2] + ([block.w] if block.w is not None and block.w.shape[1] else [])
    x = np.hstack(parts)
    emp = x.T @ x / n
    emp = 0.5 * (emp + emp.T)
    target = np.asarray(target, dtype=float)
    if emp.shape != target.shape:
        return [f"samples give a {emp.shape} covariance, target is {target.shape}"]
    cov_err = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    _near(errors, "cov_rel_err vs recomputed", rep.cov_rel_err, cov_err, MC_RECOMPUTE_RTOL)
    cov_sd, ci_sd = mc_scales(target, n)
    if cov_err > MC_SIGMAS * cov_sd:
        errors.append(f"covariance error {cov_err:.3e} > {MC_SIGMAS} x {cov_sd:.3e}")
    if x.shape[1] > p1 + p2:
        e12 = emp[:p1, p1:p1 + p2]
        e1w = emp[:p1, p1 + p2:]
        e2w = emp[p1:p1 + p2, p1 + p2:]
        ew = emp[p1 + p2:, p1 + p2:]
        resid = float(np.max(np.abs(e12 - e1w @ np.linalg.solve(ew, e2w.T))))
        _near(errors, "ci_residual vs recomputed", rep.ci_residual, resid, 1e-6)
        if resid > MC_SIGMAS * ci_sd:
            errors.append(f"conditional-independence residual {resid:.3e} > {MC_SIGMAS} x {ci_sd:.3e}")
    mi = oracles.gaussian_mi(emp[:p1 + p2, :p1 + p2], p1)
    if math.isinf(rep.mi_plugin) != identical:
        errors.append(f"plug-in MI {rep.mi_plugin!r} but identical components present: {identical}")
    elif not identical:
        _near(errors, "mi_plugin vs recomputed", rep.mi_plugin, mi, MC_RECOMPUTE_RTOL)
        d = np.asarray(corr_d, dtype=float)
        # delta-method sd sqrt(sum d^2 / n) plus the p1 p2 / (2 n) bias
        mi_tol = MC_SIGMAS * math.sqrt(float(np.sum(d * d)) / n) + p1 * p2 / n
        if abs(rep.mi_plugin - mi_target) > mi_tol:
            errors.append(f"plug-in MI {rep.mi_plugin!r} vs exact {mi_target!r} beyond {mi_tol:.3e}")
    if distortion is not None:
        if rep.distortion_errs is None:
            return errors + ["report carries no distortion errors"]
        for i, (y, yhat, alloc, got) in enumerate(
            zip((block.y1, block.y2), (block.yhat1, block.yhat2), distortion, rep.distortion_errs),
            start=1,
        ):
            alloc = np.asarray(alloc, dtype=float)
            target_mse = float(alloc.sum())
            mse = float(np.mean(np.sum((y - yhat) ** 2, axis=1)))
            rel = abs(mse - target_mse) / target_mse
            _near(errors, f"branch {i} distortion error vs recomputed", got, rel, 1e-6)
            # per-row squared error sum has variance 2 tr(Q_E^2) = 2 sum a^2
            sd = math.sqrt(2.0 * float(np.sum(alloc * alloc)) / n) / target_mse
            if rel > MC_SIGMAS * sd:
                errors.append(f"branch {i} distortion error {rel:.3e} > {MC_SIGMAS} x {sd:.3e}")
    return errors
