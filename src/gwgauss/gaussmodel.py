"""Covariance data model and closed-form Gaussian information measures.

Everything downstream treats a zero-mean jointly Gaussian vector as fully
described by its covariance, a plain float array, so this module owns the
pair and triple containers of covariance blocks, the covariance validation
and the entropy and mutual-information formulas, and it fixes the
numerical conventions used everywhere else:

* symmetry is enforced up to ``1e-10 * (1 + max|Q|)`` and computations see
  the symmetrized matrix ``(Q + Q.T) / 2``;
* strict positive definiteness means every eigenvalue exceeds
  ``1e-10 * lambda_max``; a matrix with a non-finite entry is no
  covariance, and :func:`validate_covariance` rejects it with or without
  ``strict``.  ``cvf.decompose`` certifies the joint floor from the
  spectra of its two marginals;
* determinants are accumulated in the log domain from eigenvalues of the
  symmetrized matrix, never as raw products;
* rates and information quantities are nats internally, and ``math.inf``
  is a legitimate value (singular joint law with nonsingular marginals).
  Unit conversion is a presentation concern handled by the CLI.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    InconsistentIndices,
    NotPositiveDefinite,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cvf import IndexSextuple

LN2 = math.log(2.0)
LOG_2PIE = math.log(2.0 * math.pi) + 1.0
# strictly PD: every eigenvalue above PD_FLOOR * lambda_max
PD_FLOOR = 1e-10


def symmetry_tolerance(q: np.ndarray) -> float:
    """Scale-relative symmetry tolerance, ``1e-10 * (1 + max|q|)``."""
    return 1e-10 * (1.0 + float(np.max(np.abs(q), initial=0.0)))


def skew(q: np.ndarray) -> float:
    """``max|q - q.T|``, the asymmetry the tolerance is checked against."""
    return float(np.max(np.abs(q - q.T), initial=0.0))


def symmetrize(q: np.ndarray) -> np.ndarray:
    return 0.5 * (q + q.T)


def eig_floor(eigenvalues: np.ndarray) -> float:
    """The strict-PD floor ``PD_FLOOR * lambda_max`` of an ascending spectrum."""
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    return PD_FLOOR * max(top, 0.0)


def logdet_or_neginf(q: np.ndarray) -> float:
    """Log-determinant of a PSD matrix, ``-inf`` if numerically singular."""
    q = np.asarray(q, dtype=float)
    if q.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(symmetrize(q))
    if w[0] <= eig_floor(w):
        return -math.inf
    return float(np.sum(np.log(w)))


def _as_matrix(q) -> np.ndarray:
    a = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def validate_covariance(q, strict: bool = False) -> np.ndarray:
    """Check symmetry (always) and strict positive definiteness (``strict``).

    Returns the symmetrized matrix; asymmetry beyond tolerance raises
    :class:`AsymmetricMatrix`, and a non-finite entry or (under ``strict``)
    an eigenvalue at or below the floor raises :class:`NotPositiveDefinite`.
    """
    a = _as_matrix(q)
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("covariance has a non-finite entry")
    if skew(a) > symmetry_tolerance(a):
        raise AsymmetricMatrix(
            f"max|Q - Q.T| = {skew(a):.3e} exceeds tolerance {symmetry_tolerance(a):.3e}"
        )
    a = symmetrize(a)
    if strict and a.size:
        w = np.linalg.eigvalsh(a)
        if w[0] <= eig_floor(w):
            raise NotPositiveDefinite(
                f"min eigenvalue {w[0]:.3e} at or below floor {eig_floor(w):.3e}"
            )
    return a


@dataclass(frozen=True, eq=False)
class JointGaussianPair:
    """Zero-mean pair (Y1, Y2) described by the blocks of its joint covariance."""

    q11: np.ndarray
    q22: np.ndarray
    q12: np.ndarray

    def __post_init__(self):
        q11, q22 = (_as_matrix(np.array(q, dtype=float)) for q in (self.q11, self.q22))
        q12 = np.array(self.q12, dtype=float)
        if q12.shape != (q11.shape[0], q22.shape[0]):
            raise DimensionMismatch(
                f"cross block must be {(q11.shape[0], q22.shape[0])}, got {q12.shape}"
            )
        object.__setattr__(self, "q11", q11)
        object.__setattr__(self, "q22", q22)
        object.__setattr__(self, "q12", q12)

    @property
    def p1(self) -> int:
        return self.q11.shape[0]

    @property
    def p2(self) -> int:
        return self.q22.shape[0]

    def joint(self) -> np.ndarray:
        return np.block([[self.q11, self.q12], [self.q12.T, self.q22]])

    @classmethod
    def from_joint(cls, q, p1: int) -> "JointGaussianPair":
        a = _as_matrix(q)
        if not 0 < p1 < a.shape[0]:
            raise DimensionMismatch(f"p1 = {p1} does not split a {a.shape[0]}-dim matrix")
        return cls(a[:p1, :p1], a[p1:, p1:], a[:p1, p1:])

    def validated(self) -> "JointGaussianPair":
        """Symmetrize and require the assembled joint covariance strictly PD."""
        c = validate_covariance(self.joint(), strict=True)
        return JointGaussianPair.from_joint(c, self.p1)


@dataclass(frozen=True, eq=False)
class GaussianTriple:
    """A pair (Y1, Y2) together with a third jointly Gaussian vector W."""

    pair: JointGaussianPair
    qw: np.ndarray
    q1w: np.ndarray
    q2w: np.ndarray

    def __post_init__(self):
        qw = _as_matrix(np.array(self.qw, dtype=float))
        q1w = np.array(self.q1w, dtype=float)
        q2w = np.array(self.q2w, dtype=float)
        n = qw.shape[0]
        if q1w.shape != (self.pair.p1, n) or q2w.shape != (self.pair.p2, n):
            raise DimensionMismatch("state cross blocks disagree with pair/state dims")
        object.__setattr__(self, "qw", qw)
        object.__setattr__(self, "q1w", q1w)
        object.__setattr__(self, "q2w", q2w)

    @property
    def n(self) -> int:
        return self.qw.shape[0]

    def joint(self) -> np.ndarray:
        p = self.pair
        return np.block(
            [
                [p.q11, p.q12, self.q1w],
                [p.q12.T, p.q22, self.q2w],
                [self.q1w.T, self.q2w.T, self.qw],
            ]
        )


def gaussian_entropy(q) -> float:
    """Differential entropy in nats, ``0.5 logdet Q + (dim/2) log(2 pi e)``."""
    c = validate_covariance(q, strict=True)
    if c.size == 0:
        return 0.0
    # strict validation leaves the log-determinant finite
    return 0.5 * logdet_or_neginf(c) + 0.5 * c.shape[0] * LOG_2PIE


def gaussian_mi(q_joint, split: tuple[int, int]) -> float:
    """Mutual information between the two sub-vectors of a joint covariance.

    ``split = (nx, ny)`` partitions the leading ``nx`` rows from the rest.
    Marginal blocks must be strictly positive definite; a singular joint
    covariance with valid marginals yields ``math.inf``.
    """
    c = validate_covariance(q_joint)
    nx, ny = int(split[0]), int(split[1])
    if nx <= 0 or ny <= 0 or nx + ny != c.shape[0]:
        raise DimensionMismatch(f"split {split} does not partition dim {c.shape[0]}")
    qx = c[:nx, :nx]
    qy = c[nx:, nx:]
    ldx = logdet_or_neginf(qx)
    ldy = logdet_or_neginf(qy)
    if not (math.isfinite(ldx) and math.isfinite(ldy)):
        raise NotPositiveDefinite("marginal block is numerically singular")
    ldj = logdet_or_neginf(c)
    if not math.isfinite(ldj):
        return math.inf
    mi = 0.5 * (ldx + ldy - ldj)
    return mi if mi > 0.0 else 0.0


def check_canonical_args(idx: "IndexSextuple", d) -> np.ndarray:
    """``d`` as a float vector; raises :class:`InconsistentIndices` unless it
    has one coefficient per correlated component, each strictly inside
    (0, 1) (a NaN is not), in nonincreasing order."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if idx.p12 != d.size:
        raise InconsistentIndices(f"p12 = {idx.p12} but {d.size} correlation coefficients")
    if not np.all((d > 0.0) & (d < 1.0)):
        raise InconsistentIndices("canonical correlations must lie strictly in (0, 1)")
    if np.any(np.diff(d) > 0.0):
        raise InconsistentIndices("canonical correlations must be nonincreasing")
    return d


def log_one_minus_square(d: np.ndarray) -> np.ndarray:
    """``log(1 - d^2)`` for d in [0, 1), within ~3 eps relative.

    ``log1p(-d * d)`` is exact for small d, but near 1 the rounding of
    ``d * d`` costs ~eps / (1 - d) relative (2e-10 at 1 - d = 1e-9); from
    d = 1/2 on, ``1 - d`` is exact and the log of ``(1 - d)(1 + d)`` is
    taken instead.
    """
    return np.where(d < 0.5, np.log1p(-d * d), np.log((1.0 - d) * (1.0 + d)))


def mi_canonical(idx: "IndexSextuple", d) -> float:
    """Mutual information of a pair in canonical form, from indices and d.

    Identical components force ``inf``; with none, only the correlated
    coefficients contribute ``-0.5 * sum(log(1 - d_i^2))``.
    """
    d = check_canonical_args(idx, d)
    if idx.p11 > 0:
        return math.inf
    if idx.p12 == 0:
        return 0.0
    return float(-0.5 * np.sum(log_one_minus_square(d)))


def nats_to(value: float, units: str) -> float:
    """Convert a nats value to ``nats``, ``bits``, or ``paper-example-bits``.

    The last is the doubled-bits convention ``2 * value / ln 2`` (the bits
    value without the one-half factor in front of the defining sum).
    """
    if units == "nats":
        return value
    if units == "bits":
        return value / LN2
    if units == "paper-example-bits":
        return 2.0 * value / LN2
    raise ValueError(f"unknown units {units!r}")


def pair_to_dict(pair: JointGaussianPair) -> dict:
    return {"p1": pair.p1, "p2": pair.p2, "Q": pair.joint().tolist()}


def pair_from_dict(obj: dict) -> JointGaussianPair:
    p1 = int(obj["p1"])
    p2 = int(obj["p2"])
    q = np.asarray(obj["Q"], dtype=float)
    if q.shape != (p1 + p2, p1 + p2):
        raise DimensionMismatch(
            f"Q has shape {q.shape}, expected {(p1 + p2, p1 + p2)} from p1, p2"
        )
    return JointGaussianPair.from_joint(q, p1)


def pair_to_json(pair: JointGaussianPair) -> str:
    """JSON form ``{"p1": .., "p2": .., "Q": [[..]]}``, lossless round-trip."""
    return json.dumps(pair_to_dict(pair))


def pair_from_json(text: str) -> JointGaussianPair:
    return pair_from_dict(json.loads(text))


def pair_to_csv(pair: JointGaussianPair) -> str:
    """CSV form: first row ``p1,p2``, then the joint matrix rows at 17 digits."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([pair.p1, pair.p2])
    for row in pair.joint():
        w.writerow([format(x, ".17g") for x in row])
    return out.getvalue()


def pair_from_csv(text: str) -> JointGaussianPair:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise DimensionMismatch("empty CSV input")
    p1, p2 = (int(x) for x in rows[0][:2])
    q = np.array([[float(x) for x in r] for r in rows[1:]], dtype=float)
    if q.shape != (p1 + p2, p1 + p2):
        raise DimensionMismatch(
            f"CSV matrix has shape {q.shape}, expected {(p1 + p2, p1 + p2)}"
        )
    return JointGaussianPair.from_joint(q, p1)
