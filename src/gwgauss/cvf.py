"""Canonical variable form of a jointly Gaussian pair.

The canonical transform whitens each marginal and rotates both bases so the
cross covariance becomes a rectangular diagonal pattern: an identity block
(components of the two vectors that coincide almost surely), a diagonal
block ``Diag(d)`` with ``1 > d_1 >= ... >= d_n > 0`` (correlated pairs),
and zeros (private components).  The algorithm:

1. eigendecompose the marginals, ``Q11 = U1 D1 U1.T`` and
   ``Q22 = U2 D2 U2.T``;
2. take the SVD of the whitened cross block
   ``D1^{-1/2} U1.T Q12 U2 D2^{-1/2} = U3 S U4.T``;
3. the transforms are ``S1 = U3.T D1^{-1/2} U1.T`` and
   ``S2 = U4.T D2^{-1/2} U2.T``; after them both marginals are identities
   and the cross block is the singular-value pattern.

Thresholds classify the raw singular values: above ``h1`` counts as
exactly one (identical), below ``h2`` counts as exactly zero (private),
anything between is kept as a canonical correlation.  The index sextuple
records the three component counts per vector.

The input must be strictly PD as a joint covariance (every eigenvalue above
``1e-10 * lambda_max``), but :func:`decompose` does not eigendecompose the
joint to check it.  It checks symmetry per marginal block and certifies the
floor from the spectra of step 1 and the top raw singular value of step 2:
with ``B = blockdiag(Q11^{1/2}, Q22^{1/2})`` the joint is
``B [[I, R], [R.T, I]] B``, so its eigenvalues lie between
``min(lambda_min(Q11), lambda_min(Q22)) (1 - s_1)`` and
``max(lambda_max(Q11), lambda_max(Q22)) (1 + s_1)``.  When the lower end is
not above twice the floor of the upper one (``s_1 >= 1``, a marginal at or
below zero, or too little margin), and on a non-finite, asymmetric or empty
block, it falls back to ``JointGaussianPair.validated()``, which raises its
own error or lets the pair through.  So it accepts and rejects exactly the
pairs ``validated()`` does, with the same error, and returns the same bits.
Both marginal eigensolves run in the calling thread, one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InconsistentIndices, SingularValueOutOfRange
from .gaussmodel import (
    PD_FLOOR,
    JointGaussianPair,
    check_canonical_args,
    skew,
    symmetrize,
    symmetry_tolerance,
)

SV_CEILING_SLACK = 1e-8


@dataclass(frozen=True)
class Thresholds:
    """Classification cut-offs: ``s > h1`` is identical, ``s < h2`` is private."""

    h1: float = 1.0 - 1e-6
    h2: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.h2 < self.h1 < 1.0:
            raise ValueError(f"need 0 < h2 < h1 < 1, got h1={self.h1}, h2={self.h2}")


@dataclass(frozen=True)
class IndexSextuple:
    """Component counts (identical, correlated, private) for each vector."""

    p11: int
    p12: int
    p13: int
    p21: int
    p22: int
    p23: int

    def __post_init__(self):
        for name in ("p11", "p12", "p13", "p21", "p22", "p23"):
            if getattr(self, name) < 0:
                raise InconsistentIndices(f"{name} must be nonnegative")
        if self.p11 != self.p21:
            raise InconsistentIndices("identical parts must have equal dims on both sides")
        if self.p12 != self.p22:
            raise InconsistentIndices("correlated parts must have equal dims on both sides")

    @property
    def p1(self) -> int:
        return self.p11 + self.p12 + self.p13

    @property
    def p2(self) -> int:
        return self.p21 + self.p22 + self.p23


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Result of :func:`decompose`, with the marginal spectra ``d1``, ``d2``
    and the raw singular values ``sv`` kept for audit."""

    s1: np.ndarray
    s2: np.ndarray
    idx: IndexSextuple
    d: np.ndarray
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    sv: np.ndarray = field(repr=False)


def canonical_cross_pattern(idx: IndexSextuple, d) -> np.ndarray:
    """The idealized p1 x p2 cross block: I_{p11}, then Diag(d), then zeros."""
    d = check_canonical_args(idx, d)
    out = np.zeros((idx.p1, idx.p2))
    for i in range(idx.p11):
        out[i, i] = 1.0
    for i, di in enumerate(d):
        out[idx.p11 + i, idx.p11 + i] = di
    return out


def _certified_pd(lam1: np.ndarray, lam2: np.ndarray, s1: float) -> bool:
    """Whether the marginal spectra (ascending) and the top raw singular
    value ``s1`` of the whitened cross block prove the joint strictly PD.

    The bounds of the module docstring are exact for the matrix whose
    spectra these are.  eigh and svd are backward stable, and an error E
    in forming the whitened block moves ``min(lambda_min) (1 - s1)`` by at
    most ``min(lambda_min) |E| / sqrt(lambda1_min lambda2_min) <= |E|``,
    so each bound is within ``c n eps lambda_max`` of the true spectrum,
    as is the spectrum ``validated()`` computes.  Asking for twice the
    floor leaves ``1e-10 lambda_max`` of slack for those errors, a
    thousand times ``n eps`` at n = 256.
    """
    lower = min(lam1[0], lam2[0]) * (1.0 - s1)
    upper = max(lam1[-1], lam2[-1]) * (1.0 + s1)
    return bool(lower > 2.0 * PD_FLOOR * upper)


def decompose(pair: JointGaussianPair, thresholds: Thresholds = Thresholds()) -> CanonicalForm:
    """Compute the canonical variable form of a strictly PD pair.

    Accepts, rejects and computes exactly as ``pair.validated()`` followed
    by the two marginal eigensolves and the SVD would, without the joint
    eigensolve wherever the certificate of the module docstring holds.
    """
    q11, q22 = pair.q11, pair.q22
    q12 = np.ascontiguousarray(pair.q12)
    blocks = (q11, q22, q12)
    # Each pair.validated() below is the fallback: it raises the joint's own
    # error, or returns when the joint clears the floor after all.  The
    # blocks it would return are the ones used here, bit for bit: the joint
    # is symmetrized blockwise, 0.5 (x + x) = x leaves q12 as it is, and its
    # slice of the joint is C-ordered like q12 here.
    if not (
        q11.size
        and q22.size
        and all(np.isfinite(b).all() for b in blocks)
        and max(skew(q11), skew(q22)) <= max(map(symmetry_tolerance, blocks))
    ):
        pair.validated()
    lam1, u1 = np.linalg.eigh(symmetrize(q11))
    lam2, u2 = np.linalg.eigh(symmetrize(q22))
    if not (lam1[0] > 0.0 and lam2[0] > 0.0):
        pair.validated()
    w1 = u1 / np.sqrt(lam1)
    w2 = u2 / np.sqrt(lam2)
    r = w1.T @ q12 @ w2
    u3, sv, u4t = np.linalg.svd(r, full_matrices=True)
    if not _certified_pd(lam1, lam2, sv[0]):
        pair.validated()
    if sv[0] > 1.0 + SV_CEILING_SLACK:
        raise SingularValueOutOfRange(
            f"raw canonical correlation {sv[0]:.12g} exceeds 1 beyond tolerance"
        )
    sv = np.clip(sv, 0.0, 1.0)
    p11 = int(np.sum(sv > thresholds.h1))
    p12 = int(np.sum((sv >= thresholds.h2) & (sv <= thresholds.h1)))
    idx = IndexSextuple(
        p11, p12, pair.p1 - p11 - p12, p11, p12, pair.p2 - p11 - p12
    )
    d = sv[p11 : p11 + p12].copy()
    return CanonicalForm(
        s1=u3.T @ w1.T,
        s2=u4t @ w2.T,
        idx=idx,
        d=d,
        d1=lam1,
        d2=lam2,
        sv=sv,
    )


def apply_transform(pair: JointGaussianPair, cf: CanonicalForm) -> JointGaussianPair:
    """Apply the canonical transforms to a pair's covariance blocks."""
    if cf.s1.shape[1] != pair.p1 or cf.s2.shape[1] != pair.p2:
        raise DimensionMismatch(
            f"transform expects dims ({cf.s1.shape[1]}, {cf.s2.shape[1]}), "
            f"pair has ({pair.p1}, {pair.p2})"
        )
    q11 = symmetrize(cf.s1 @ pair.q11 @ cf.s1.T)
    q22 = symmetrize(cf.s2 @ pair.q22 @ cf.s2.T)
    q12 = cf.s1 @ pair.q12 @ cf.s2.T
    return JointGaussianPair(q11, q22, q12)


def pattern_residual(pair: JointGaussianPair, cf: CanonicalForm) -> float:
    """Max-abs deviation of the transformed pair from the idealized pattern.

    Under default thresholds on generic strict-PD inputs this is at the
    rounding level; with aggressive thresholds the deviation is bounded by
    the classification slack ``max(1 - h1, h2)`` by construction.
    """
    t = apply_transform(pair, cf)
    r11 = np.max(np.abs(t.q11 - np.eye(pair.p1)), initial=0.0)
    r22 = np.max(np.abs(t.q22 - np.eye(pair.p2)), initial=0.0)
    r12 = np.max(
        np.abs(t.q12 - canonical_cross_pattern(cf.idx, cf.d)), initial=0.0
    )
    return float(max(r11, r22, r12))
