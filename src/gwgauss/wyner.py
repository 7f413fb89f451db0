"""Common information of a canonical pair and the state-covariance family.

For a pair in canonical form the common information splits by component
class: identical components make it infinite, each correlated coefficient
contributes ``0.5 * log((1 + d_i) / (1 - d_i))`` nats, private components
contribute nothing.

A state vector W renders the correlated parts conditionally independent
exactly when its covariance Q_W lies in the two-sided order family
``D <= Q_W <= D^{-1}`` (D = Diag(d)); the amount of information the pair
carries about such a W is :func:`mi_given_state`, minimized uniquely at
``Q_W = I`` where it equals the common information.  The determinant
inequality behind that optimality (and the matrix identity its proof rests
on) are exposed as checkable residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentIndices,
    QWOutOfFamily,
    SingularFactor,
)
from .gaussmodel import _eig_floor, logdet_or_neginf, symmetrize, symmetry_tolerance
from .cvf import IndexSextuple


@dataclass(frozen=True, eq=False)
class CommonInfoResult:
    """Common information value with its case tag and per-coefficient terms."""

    value: float
    case_tag: str  # "independent" | "correlated" | "identical-present"
    per_coefficient_terms: np.ndarray

    @property
    def correlated_part(self) -> float:
        """Finite contribution of the correlated coefficients alone."""
        return float(np.sum(self.per_coefficient_terms))


@dataclass(frozen=True, eq=False)
class QWParameter:
    """State covariance parameterizing the conditional-independence family."""

    qw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "qw", np.array(self.qw, dtype=float))

    @property
    def n(self) -> int:
        return self.qw.shape[0]


@dataclass(frozen=True)
class HuaInequalityCheck:
    """Both sides of the determinant inequality at a family point."""

    lhs: float
    rhs: float
    holds: bool
    equality: bool


def as_state_covariance(q) -> np.ndarray:
    """Coerce scalar / vector / matrix / QWParameter to an n x n array."""
    if isinstance(q, QWParameter):
        return q.qw
    a = np.asarray(q, dtype=float)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return np.diag(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"state covariance must be square, got {a.shape}")
    return a


def state_family_tolerance(d: np.ndarray) -> float:
    # relative to the largest finite family bound, max 1/d_i over d_i > 0;
    # a zero coefficient leaves its upper bound open and sets no scale
    return 1e-10 * float(np.max(1.0 / d[d > 0.0], initial=1.0))


def diagonal_entries(q) -> np.ndarray | None:
    """The diagonal of a diagonal state (scalar, vector, or a matrix whose
    off-diagonal entries are exactly zero); ``None`` for any other state."""
    a = q.qw if isinstance(q, QWParameter) else np.asarray(q, dtype=float)
    if a.ndim <= 1:
        return np.atleast_1d(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    diag = np.diagonal(a)
    if np.count_nonzero(a) > np.count_nonzero(diag):
        return None
    return diag.copy()


def in_state_family(q, d, tol: float | None = None) -> bool:
    """Whether ``Diag(d) <= Q_W <= Diag(d)^{-1}`` holds up to tolerance.

    For a diagonal state the eigenvalue test reduces to the elementwise
    ``d_j - tol <= q_j <= 1/d_j + tol``, checked in O(n).
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if tol is None:
        tol = state_family_tolerance(d)
    qd = diagonal_entries(q)
    if qd is not None:
        if qd.shape != d.shape:
            return False
        # q <= 1/d + tol, multiplied through by d >= 0 so d = 0 needs no care
        return bool(np.all(qd >= d - tol) and np.all(d * qd <= 1.0 + d * tol))
    qw = as_state_covariance(q)
    if qw.shape != (d.size, d.size):
        return False
    if np.max(np.abs(qw - qw.T), initial=0.0) > symmetry_tolerance(qw):
        return False
    if d.size == 0:
        return True
    dm = np.diag(d)
    lower = np.linalg.eigvalsh(symmetrize(qw - dm))
    upper = np.linalg.eigvalsh(symmetrize(np.diag(1.0 / d) - qw))
    return bool(lower[0] >= -tol and upper[0] >= -tol)


def assert_in_state_family(q, d) -> np.ndarray:
    qw = as_state_covariance(q)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not in_state_family(qw, d):
        raise QWOutOfFamily(
            "state covariance violates Diag(d) <= Q_W <= Diag(d)^{-1}"
        )
    return qw


def common_information_terms(d: np.ndarray) -> np.ndarray:
    """Per-component common information ``0.5 log((1 + d_j) / (1 - d_j))``, nats."""
    return 0.5 * np.log((1.0 + d) / (1.0 - d))


def common_information(idx: IndexSextuple, d) -> CommonInfoResult:
    """Common information in nats from the canonical indices and coefficients."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.size != idx.p12:
        raise InconsistentIndices(f"p12 = {idx.p12} but {d.size} coefficients")
    if d.size and (np.any(d <= 0.0) or np.any(d >= 1.0)):
        raise InconsistentIndices("canonical correlations must lie strictly in (0, 1)")
    terms = common_information_terms(d)
    if idx.p11 > 0:
        return CommonInfoResult(math.inf, "identical-present", terms)
    if idx.p12 > 0:
        return CommonInfoResult(float(np.sum(terms)), "correlated", terms)
    return CommonInfoResult(0.0, "independent", terms)


def _conditional_factors(d: np.ndarray, qw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two conditional covariances I - D^{1/2} Q_W^{-1} D^{1/2} and
    I - D^{1/2} Q_W D^{1/2}."""
    rd = np.sqrt(d)
    n = d.size
    qwinv_scaled = np.linalg.solve(qw, np.diag(rd))
    m1 = np.eye(n) - (rd[:, None] * qwinv_scaled)
    m2 = np.eye(n) - (rd[:, None] * qw * rd[None, :])
    return symmetrize(m1), symmetrize(m2)


def mi_given_state(d, q) -> float:
    """Information the pair carries about a family state W, in nats.

    ``0.5 sum(log(1 - d_i^2)) - 0.5 logdet(M1 M2)`` with the two conditional
    factors above; equals the common information exactly at ``Q_W = I`` and
    exceeds it strictly everywhere else in the family.  Singular factors
    (boundary states) give ``inf``.  A diagonal state (a vector, or a
    matrix with zero off-diagonal entries) takes the O(n) form
    ``0.5 sum[log(1 - d^2) - log(1 - d/q) - log(1 - d q)]``, whose factor
    eigenvalues ``1 - d/q`` and ``1 - d q`` meet the same singularity floor.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    qd = diagonal_entries(q)
    if qd is not None:
        if not in_state_family(qd, d):
            raise QWOutOfFamily("diagonal entries must satisfy d_j <= q_j <= 1/d_j")
        if d.size == 0:
            return 0.0
        with np.errstate(divide="ignore"):
            r1 = np.divide(d, qd, out=np.zeros_like(d), where=d > 0.0)
        r2 = d * qd
        # 1 - r1 and 1 - r2 are the eigenvalues of M1 and M2: the same
        # singularity floor as the dense path
        for ev in (np.sort(1.0 - r1), np.sort(1.0 - r2)):
            if ev[0] <= _eig_floor(ev):
                return math.inf
        return float(0.5 * np.sum(np.log1p(-d * d) - np.log1p(-r1) - np.log1p(-r2)))
    qw = assert_in_state_family(q, d)
    if d.size == 0:
        return 0.0
    m1, m2 = _conditional_factors(d, qw)
    ld1 = logdet_or_neginf(m1)
    ld2 = logdet_or_neginf(m2)
    if not (math.isfinite(ld1) and math.isfinite(ld2)):
        return math.inf
    return float(0.5 * np.sum(np.log1p(-d * d)) - 0.5 * (ld1 + ld2))


def check_hua_identity(a, b) -> float:
    """Max-abs residual of the matrix identity

    ``(I - A A.T) - (I - A B.T)(I - B B.T)^{-1}(I - A B.T).T
      = -(A - B)(I - B.T B)^{-1}(A - B).T``

    which holds for any square A and full-rank B with ``I - B.T B``
    nonsingular (for square B that makes ``I - B B.T`` nonsingular too,
    since the two Gram products share a spectrum).  Raises
    :class:`SingularFactor` when the premises fail.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SingularFactor(f"expected equal square shapes, got {a.shape} and {b.shape}")
    n = a.shape[0]
    sv = np.linalg.svd(b, compute_uv=False)
    if sv.size and sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise SingularFactor("B must have full rank")
    m_right = np.eye(n) - b.T @ b
    ev = np.linalg.eigvalsh(symmetrize(m_right))
    if np.min(np.abs(ev)) <= 1e-12 * max(np.max(np.abs(ev)), 1.0):
        raise SingularFactor("I - B.T B must be nonsingular")
    m_left = np.eye(n) - b @ b.T
    cross = np.eye(n) - a @ b.T
    lhs = (np.eye(n) - a @ a.T) - cross @ np.linalg.solve(m_left, cross.T)
    rhs = -(a - b) @ np.linalg.solve(m_right, (a - b).T)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def check_hua_inequality(d, q) -> HuaInequalityCheck:
    """Evaluate ``det(M1) det(M2) <= det(I - D)^2`` at a family point.

    The inequality is strict except at ``Q_W = I``; the ``equality`` flag
    reports whether the argument is within ``1e-8`` of the identity.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    qw = assert_in_state_family(q, d)
    m1, m2 = _conditional_factors(d, qw)
    ev1 = np.clip(np.linalg.eigvalsh(m1), 0.0, None)
    ev2 = np.clip(np.linalg.eigvalsh(m2), 0.0, None)
    lhs = float(np.prod(ev1) * np.prod(ev2))
    rhs = float(np.prod((1.0 - d) ** 2))
    near_identity = float(np.max(np.abs(qw - np.eye(d.size)), initial=0.0)) <= 1e-8
    return HuaInequalityCheck(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12), equality=near_identity
    )


def sample_state_matrix(d, rng: np.random.Generator, max_tries: int = 64) -> np.ndarray:
    """Draw a random member of the state family.

    A point on the convex path between the family endpoints Diag(d) and
    Diag(d)^{-1} is conjugated by a random orthogonal matrix, then pulled
    toward the family midpoint until the order constraints hold again
    (conjugation does not preserve them).
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n = d.size
    dm = np.diag(d)
    dinv = np.diag(1.0 / d)
    mid = 0.5 * (dm + dinv)
    for _ in range(max_tries):
        t = rng.uniform(0.05, 0.95)
        base = (1.0 - t) * dm + t * dinv
        g = rng.standard_normal((n, n))
        qf, rf = np.linalg.qr(g)
        qf = qf * np.sign(np.diag(rf))
        cand = symmetrize(qf @ base @ qf.T)
        if in_state_family(cand, d):
            return cand
        lo, hi = 0.0, 1.0
        for _ in range(48):
            s = 0.5 * (lo + hi)
            if in_state_family(mid + s * (cand - mid), d):
                lo = s
            else:
                hi = s
        shrunk = mid + (0.999 * lo) * (cand - mid)
        if in_state_family(shrunk, d):
            return shrunk
    raise RuntimeError("state sampler failed to produce a family member")
