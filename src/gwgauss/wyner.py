"""Common information of a canonical pair and the state-covariance family.

For a pair in canonical form the common information splits by component
class: identical components make it infinite, each correlated coefficient
contributes ``0.5 * log((1 + d_i) / (1 - d_i))`` nats, private components
contribute nothing.

A state vector W renders the correlated parts conditionally independent
exactly when its covariance Q_W lies in the two-sided order family
``D <= Q_W <= D^{-1}`` (D = Diag(d)); the amount of information the pair
carries about such a W is :func:`mi_given_state`, minimized uniquely at
``Q_W = I`` where it equals the common information.  That bound,
``mi_given_state >= common_information``, states the optimality of the
identity state; Hua's determinant inequality, from which it is proved, is a
step of the proof and not an output.  Each entry point that takes a state
reads it once, by :func:`family_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, QWOutOfFamily
from .gaussmodel import (
    check_canonical_args,
    common_information_terms,
    eig_floor,
    log_one_minus_square,
    logdet_or_neginf,
    pair_rate,
    skew,
    symmetrize,
    symmetry_tolerance,
)
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


def as_state_covariance(q) -> np.ndarray:
    """Coerce scalar / vector / matrix to an n x n array."""
    a = np.asarray(q, dtype=float)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return np.diag(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"state covariance must be square, got {a.shape}")
    return a


def coefficients(d) -> np.ndarray:
    """``d`` as a float vector; raises :class:`QWOutOfFamily` unless every
    entry lies in [0, 1), so a NaN or an infinity fails too."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    # the extremes carry a NaN through, and two reductions cost less than
    # the elementwise tests on short vectors
    if d.size and not (0.0 <= np.minimum.reduce(d, axis=None)
                       and np.maximum.reduce(d, axis=None) < 1.0):
        raise QWOutOfFamily("coefficients must lie in [0, 1)")
    return d


def state_family_tolerance(d: np.ndarray) -> float:
    # relative to the largest finite family bound, max 1/d_i over d_i > 0;
    # a zero coefficient leaves its upper bound open and sets no scale
    return 1e-10 * float(np.max(1.0 / d[d > 0.0], initial=1.0))


def diagonal_entries(q) -> np.ndarray | None:
    """The diagonal of a diagonal state (scalar, vector, or a matrix whose
    off-diagonal entries are exactly zero); ``None`` for any other square
    matrix, and :class:`DimensionMismatch` for a matrix that is not square."""
    a = np.asarray(q, dtype=float)
    if a.ndim <= 1:
        return np.atleast_1d(a)
    diag = np.diagonal(as_state_covariance(a))
    if np.count_nonzero(a) > np.count_nonzero(diag):
        return None
    return diag.copy()


def in_state_family(q, d) -> bool:
    """Whether ``Diag(d) <= Q_W <= Diag(d)^{-1}`` holds up to tolerance.

    For a diagonal state the eigenvalue test reduces to the elementwise
    ``d_j - tol <= q_j <= 1/d_j + tol``, checked in O(n).  A state of
    another size is not in the family.  Coefficients outside [0, 1) raise
    :class:`QWOutOfFamily`.
    """
    d = coefficients(d)
    tol = state_family_tolerance(d)
    qd = diagonal_entries(q)
    qw = np.asarray(q, dtype=float) if qd is None else qd
    if qw.shape[0] != d.size:
        return False
    if qd is not None:
        # q <= 1/d + tol, multiplied through by d >= 0 so d = 0 needs no care
        return bool(np.all(qd >= d - tol) and np.all(d * qd <= 1.0 + d * tol))
    # a dense state is never 0 x 0: diagonal_entries reads that one
    if skew(qw) > symmetry_tolerance(qw):
        return False
    lower = np.linalg.eigvalsh(symmetrize(qw - np.diag(d)))
    # a zero coefficient bounds its coordinate of Q_W by nothing above, so
    # the upper test runs over the coordinates with d_j > 0
    pos = d > 0.0
    upper = np.linalg.eigvalsh(symmetrize(np.diag(1.0 / d[pos]) - qw[np.ix_(pos, pos)]))
    return bool(lower[0] >= -tol and np.all(upper >= -tol))


def family_state(q, d) -> np.ndarray:
    """The family state ``q`` for the coefficients ``d``, read once: its
    diagonal if it is diagonal (:func:`diagonal_entries`), else the n x n
    matrix.  Raises :class:`DimensionMismatch` unless it has one coordinate
    per coefficient, and :class:`QWOutOfFamily` outside the family or for a
    coefficient outside [0, 1)."""
    d = coefficients(d)
    state = diagonal_entries(q)
    if state is None:
        state = np.asarray(q, dtype=float)
    if state.shape[0] != d.size:
        raise DimensionMismatch(f"state of shape {np.shape(q)} for {d.size} coefficients")
    if not in_state_family(state, d):
        raise QWOutOfFamily("state covariance violates Diag(d) <= Q_W <= Diag(d)^{-1}")
    return state


def assert_in_state_family(q, d) -> np.ndarray:
    """The family state ``q`` (:func:`family_state`) as an n x n matrix."""
    return as_state_covariance(family_state(q, d))


def common_information(idx: IndexSextuple, d) -> CommonInfoResult:
    """Common information in nats from the canonical indices and coefficients."""
    d = check_canonical_args(idx, d)
    terms = common_information_terms(d)
    if idx.p11 > 0:
        return CommonInfoResult(math.inf, "identical-present", terms)
    if idx.p12 > 0:
        return CommonInfoResult(float(np.sum(terms)), "correlated", terms)
    return CommonInfoResult(0.0, "independent", terms)


def conditional_covariances(
    d: np.ndarray, qw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gain ``C1 = D^{1/2} Q_W^{-1}`` of Y1 on a family state W and the
    covariances of Y1 and Y2 given W, ``I - C1 D^{1/2}`` and
    ``I - D^{1/2} Q_W D^{1/2}``, as ``(c1, qz1, qz2)``.  A singular Q_W,
    which a zero coefficient admits, raises :class:`NotPositiveDefinite`."""
    rd = np.sqrt(d)
    n = d.size
    try:
        c1 = np.linalg.solve(qw, np.diag(rd)).T
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("family state covariance Q_W is singular") from exc
    qz1 = symmetrize(np.eye(n) - c1 @ np.diag(rd))
    qz2 = symmetrize(np.eye(n) - rd[:, None] * qw * rd[None, :])
    return c1, qz1, qz2


def mi_given_state(d, q) -> float:
    """Information the pair carries about a family state W, in nats.

    ``0.5 sum(log(1 - d_i^2)) - 0.5 logdet(M1 M2)`` with the two conditional
    factors above; equals the common information exactly at ``Q_W = I`` and
    exceeds it strictly everywhere else in the family.  Singular factors
    (boundary states) give ``inf``.  The state is read by
    :func:`family_state`; a diagonal one takes the O(n) form
    :func:`gaussmodel.pair_rate` of the factor eigenvalues ``1 - d/q`` and
    ``1 - d q``, which meet the dense path's singularity floor.
    """
    d = coefficients(d)
    state = family_state(q, d)
    if state.ndim == 1:
        # a ratio at or past 1, within the family tolerance, is a singular factor
        with np.errstate(divide="ignore"):
            r1 = np.divide(d, state, out=np.zeros_like(d), where=d > 0.0)
            lv1, lv2 = (np.log1p(-np.minimum(r, 1.0)) for r in (r1, d * state))
        for lv in (lv1, lv2):
            ev = np.exp(np.sort(lv))
            if ev.size and ev[0] <= eig_floor(ev):
                return math.inf
        return pair_rate(d, lv1.tolist(), lv2.tolist())
    _, m1, m2 = conditional_covariances(d, state)
    ld1 = logdet_or_neginf(m1)
    ld2 = logdet_or_neginf(m2)
    if not (math.isfinite(ld1) and math.isfinite(ld2)):
        return math.inf
    return float(0.5 * np.sum(log_one_minus_square(d)) - 0.5 * (ld1 + ld2))
