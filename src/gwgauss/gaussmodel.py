"""Covariance data model and closed-form Gaussian information measures.

Everything downstream treats a zero-mean jointly Gaussian vector as fully
described by its covariance, a plain float array, so this module owns the
pair container of covariance blocks, the covariance validation, the
entropy and mutual-information formulas and the per-component algebra of
a canonical block, and it fixes the numerical conventions used everywhere
else:

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
# machine epsilon, and the smallest normal float, the floor of each budget
# share delta / n and nonzero sweep weight: a share below it keeps fewer
# significant bits, and multipliers up to 2 n / delta overflow a factor 4 below
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


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


SGN = np.array([[1.0], [-1.0]])  # branch signs of a block: v_i = 1 - d e^{-sgn_i u}


def one_minus_square(d):
    """``1 - d^2`` for d in [0, 1) as ``(1 - d)(1 + d)``, within ~2 eps
    relative: ``1 - d * d`` loses ~eps / (1 - d) to the rounding of d * d."""
    return (1.0 - d) * (1.0 + d)


def log_one_minus_square(d: np.ndarray) -> np.ndarray:
    """``log(1 - d^2)`` for d in [0, 1), within ~3 eps relative:
    ``log1p(-d * d)`` below d = 1/2, the log of :func:`one_minus_square` on."""
    return np.where(d < 0.5, np.log1p(-d * d), np.log(one_minus_square(d)))


def common_information_terms(d: np.ndarray) -> np.ndarray:
    """Per-component common information ``0.5 log((1 + d_j) / (1 - d_j))``,
    nats, as ``arctanh(d_j)``, which stays within an ulp for small d_j."""
    return np.arctanh(d)


def branch_variances(log_d: np.ndarray, u: np.ndarray):
    """``(w, v)`` at the diagonal state ``q = e^u``, each (2, n): ``w = d e^{-+u}``
    and the branch variances ``v = 1 - w``, ``1 - d/q`` and ``1 - d q``, as
    ``-expm1(log d -+ u)``, exact but for the rounding of ``log d -+ u``."""
    e = log_d - SGN * u
    return np.exp(e), -np.expm1(e)


def coordinate_branch_variances(log_d: float, u: float):
    """:func:`branch_variances` of one coordinate in Python floats,
    ``(w1, v1, w2, v2)``; ``log_d = -inf`` (d = 0) gives ``w = 0``, ``v = 1``."""
    e1, e2 = log_d - u, log_d + u
    return math.exp(e1), -math.expm1(e1), math.exp(e2), -math.expm1(e2)


def log_variance(w: float, v: float) -> float:
    """``log v`` of a branch variance ``v = 1 - w`` in Python floats:
    ``log1p(-w)`` keeps log v's ulps where w < 1/2, ``log v`` elsewhere,
    and ``-inf`` at v = 0."""
    if w < 0.5:
        return math.log1p(-w)
    return math.log(v) if v > 0.0 else -math.inf


def log_branch_variances(log_d: float, u: float):
    """``(v1, log v1, v2, log v2)`` of one coordinate at the state ``q = e^u``,
    from :func:`coordinate_branch_variances` and :func:`log_variance`."""
    w1, v1, w2, v2 = coordinate_branch_variances(log_d, u)
    return v1, log_variance(w1, v1), v2, log_variance(w2, v2)


def free_state(d: float, k1: float, k2: float):
    """``(q, w1, v1, w2, v2)`` of one component at the state where
    ``-k1 log v1 - k2 log v2`` is least, ``k_i >= 0``, in Python floats.

    With ``v1 = 1 - d/q`` and ``v2 = 1 - d q`` that state solves the
    quadratic ``k2 q^2 + (k1 - k2) d q - k1 = 0``.  With ``b = (k1 - k2) d``,
    ``r = sqrt(b^2 + 4 k1 k2)`` and ``m = r + (k1 + k2) d``, its root is
    ``q = 2 k1 / (r + b) = (r - b) / (2 k2)``, and
    ``v1 = (1 - d^2)(r + b) / m``, ``v2 = (1 - d^2)(r - b) / m``.  The
    smaller of ``r + b`` and ``r - b`` is formed as ``4 k1 k2`` over the
    larger, so nothing cancels.  ``w1 = d/q`` and ``w2 = d q``.  A zero k_i
    with the other positive puts the state on the family edge where v_i = 0;
    with both zero every state is least, and the one of least R0, q = 1, is
    returned.
    """
    if k1 == 0.0 or k2 == 0.0:
        if k1 == k2:
            return 1.0, d, 1.0 - d, d, 1.0 - d
        s = one_minus_square(d)
        return (d, 1.0, 0.0, d * d, s) if k1 == 0.0 else (1.0 / d, d * d, s, 1.0, 0.0)
    b = (k1 - k2) * d
    r = math.sqrt(b * b + 4.0 * k1 * k2)
    if b >= 0.0:
        plus = r + b
        minus = 4.0 * k1 * k2 / plus
        q = 2.0 * k1 / plus
    else:
        minus = r - b
        plus = 4.0 * k1 * k2 / minus
        q = minus / (2.0 * k2)
    scale = one_minus_square(d) / (r + (k1 + k2) * d)
    return q, d / q, scale * plus, d * q, scale * minus


def edge_state(d: float, t: float):
    """``(q, w1, v1, w2, v2)`` of one component at the state where
    ``log(v1 / v2) = t``, in Python floats, each within a few eps relative
    for every t and 0 < d < 1; forming ``v = 1 - w`` from ``u = log q``
    instead loses ``eps |u| / v`` near the family edge.

    From ``v1 = e^t v2`` and ``w1 w2 = d^2`` the larger w is the positive
    root of ``w^2 - c w - E d^2 = 0``, with ``E = e^{-|t|}`` and
    ``c = -expm1(-|t|)``.  With ``r = hypot(c, 2 sqrt(E) d)`` the larger
    variance is ``2 (1 - d^2) / ((1 + E) + r)`` and the smaller E times it;
    the larger w, on the branch of the smaller variance, is ``(c + r) / 2``
    and the other ``d (d / w)``.  Nothing cancels, and t = 0 is q = 1.
    """
    e = math.exp(-abs(t))
    c = -math.expm1(-abs(t))
    r = math.hypot(c, 2.0 * math.sqrt(e) * d)
    big = 2.0 * one_minus_square(d) / ((1.0 + e) + r)
    w = 0.5 * (c + r)
    if t <= 0.0:
        return d / w, w, e * big, d * (d / w), big
    return w / d, d * (d / w), big, w, e * big


def edge_coordinate(d: float, u: float) -> float:
    """The coordinate ``t = log(v1 / v2)`` of :func:`edge_state` at the state
    ``q = e^u``, as ``log1p(2 d sinh(u) / v2)``: ``2 d sinh(u) = w2 - w1``
    does not cancel near q = 1 as ``log v1 - log v2`` does.  Wherever both
    ``w = d e^{-+u}`` are at most 3/4 its error is a few eps plus the
    ``eps |u|`` that rounding u itself carries."""
    return math.log1p(2.0 * d * math.sinh(u) / -math.expm1(math.log(d) + u))


def pair_rate(d: np.ndarray, log_a1, log_a2) -> float:
    """``0.5 sum[log(1 - d^2) - log a1 - log a2]``, nats: the joint rate at branch
    errors (a1, a2), and the information about a state with branch variances (a1, a2).
    The logs are sequences of Python floats, summed in order."""
    terms = log_one_minus_square(d).tolist()
    return 0.5 * sum([t - l1 - l2 for t, l1, l2 in zip(terms, log_a1, log_a2)], 0.0)


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
