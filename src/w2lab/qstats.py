"""Per-coordinate Q-statistics and their moment bounds.

For a pair (Y, Y') of independent rescaled draws (Y = X/sqrt(n), so
||Y|| <= beta/sqrt(n)) against a diagonal covariance, define

    Q_i = (2 n^2 Y_i Y'_i - n Y_i^2 - n Y'_i^2 + sigma_i^2)
          / (2 sigma_i^2 (n^2 - 1))  -  r(n),           Q = sum_i Q_i,

with the log-correction constant r(n) = 1/(2(n^2-1)) - (1/2) log(1 + 1/(n^2-1)).
The exponential moment of Q equals the chi-square-type second moment of the
density ratio handled in :mod:`w2lab.densities`; this module evaluates the Q
moments themselves, by one weighted sum over sampler pairs (every support
pair for an enumerable law, or Monte Carlo draws), and both sides of their
closed-form bounds.

Under the standing hypothesis n >= 5 beta^2 / sigma_min^2 the statistics obey
|Q| <= 1 and |Q - Q_i| <= 1, which is what makes the later Taylor expansion
of exp(Q) legitimate; both sides of the remainder inequality are evaluated
here too.  These functions measure; the checkers in :mod:`w2lab.checks`
decide pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussmath import CovarianceSpec, DimensionMismatchError
from .samplers import BoundedSampler


class HypothesisError(ValueError):
    """The standing hypothesis n >= 5*beta^2/sigma_min^2 fails."""


def r_of_n(n: int) -> float:
    """r(n) = 1/(2(n^2-1)) - (1/2) log(1 + 1/(n^2-1)), evaluated stably.

    Uses log1p so the near-cancellation for large n keeps full relative
    precision; naive evaluation loses everything past n ~ 1e4.  Satisfies
    0 <= r(n) <= 1/(n^2-1)^2 for n >= 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    u = 1.0 / (n * n - 1.0)
    return 0.5 * u - 0.5 * math.log1p(u)


def check_hypothesis(n: int, beta: float, cov: CovarianceSpec) -> None:
    """Raise unless n >= 5*beta^2/sigma_min^2 (and hence n >= 5k).

    A relative tolerance keeps boundary cases like beta = sqrt(2) (whose
    squared value lands a few ulps above 2) on the admissible side.
    """
    threshold = 5.0 * beta**2 / cov.sigma_min**2
    if n < threshold * (1.0 - 1e-9):
        raise HypothesisError(
            f"hypothesis n >= 5*beta^2/sigma_min^2 fails: "
            f"n={n} < {threshold:.6g} (beta={beta}, sigma_min={cov.sigma_min})"
        )
    # consequence: beta^2 >= sum sigma_i^2 forces n >= 5k
    if float(np.sum(cov.variances)) <= beta**2 * (1.0 + 1e-9):
        assert n >= 5 * cov.dim - 1e-9, "n >= 5k must follow from the hypothesis"


def q_values(y: np.ndarray, yp: np.ndarray, cov: CovarianceSpec, n: int) -> np.ndarray:
    """Vectorized Q_i for batches: y, yp of shape (..., d) -> (..., d)."""
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    if y.shape[-1] != cov.dim or yp.shape[-1] != cov.dim:
        raise DimensionMismatchError(
            f"pair has dims {y.shape[-1]}/{yp.shape[-1]}, covariance {cov.dim}"
        )
    n2m1 = float(n) * n - 1.0
    num = 2.0 * n * n * y * yp - n * y**2 - n * yp**2 + cov.variances
    return num / (2.0 * cov.variances * n2m1) - r_of_n(n)


def q_abs_bound_rhs(y: np.ndarray, yp: np.ndarray, cov: CovarianceSpec, n: int) -> np.ndarray:
    """Per-coordinate bound n^2|Y_i Y'_i| / (sigma_i^2 (n^2-1)) + 1/(2n)."""
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    return (n * n) * np.abs(y * yp) / (cov.variances * (n * n - 1.0)) + 1.0 / (2.0 * n)


# ---------------------------------------------------------------------------
# Moment estimation and bound suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """One moment rule: the measured lhs against its closed-form rhs."""

    name: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class QMomentReport:
    """Q moments, exact or with a Monte Carlo standard-error scale, and their rules."""

    mode: str
    n: int
    dim: int
    e_qi: np.ndarray
    e_qiqj: np.ndarray
    e_qmqi_qi: np.ndarray
    e_q2: float
    se_scale: float  # 0 for exact enumeration
    checks: tuple


def estimate_q_moments(
    s: BoundedSampler,
    n: int,
    mode: str = "exact",
    m: int = 10**6,
    rng: Optional[np.random.Generator] = None,
) -> QMomentReport:
    """Q moments over weighted sampler pairs, with the five rules' two sides.

    ``mode='exact'`` takes every support pair with weight p x p (requires an
    enumerable sampler); ``mode='mc'`` takes m drawn pairs with weight 1/m and
    reports the dominant standard error of the estimated moments as
    ``se_scale``.  The caller decides each rule, widening it by standard
    errors where the moments are estimated.
    """
    check_hypothesis(n, s.bound, s.cov)
    if mode == "exact":
        if not s.enumerable:
            raise ValueError("exact mode requires an enumerable support")
        size = len(s.probs)
        y = np.repeat(s.outcomes, size, axis=0)
        yp = np.tile(s.outcomes, (size, 1))
        w = np.outer(s.probs, s.probs).ravel()
    elif mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires an rng")
        y = s.draw(rng, size=m)
        yp = s.draw(rng, size=m)
        w = np.full(m, 1.0 / m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = y / math.sqrt(n)
    yp = yp / math.sqrt(n)
    qa = q_values(y, yp, s.cov, n)  # (pairs, d)
    q_tot = qa.sum(axis=1)
    e_qi = w @ qa
    e_qiqj = (w[:, None] * qa).T @ qa
    e_q2 = float(w @ q_tot**2)
    e_qmqi_qi = (w * q_tot) @ qa - np.diag(e_qiqj)
    e_yi2yj2 = (w[:, None] * y**2).T @ y**2
    se = 0.0
    if mode == "mc":  # dominant SE among the estimated moments
        se = max(
            float(np.max(qa.std(axis=0, ddof=1))),
            float(np.max((qa[:, :, None] * qa[:, None, :]).std(axis=0, ddof=1))),
            float(np.std(q_tot**2, ddof=1)),
        ) / math.sqrt(m)

    d = s.dim
    n2m1 = float(n) * n - 1.0
    var = s.cov.variances
    # cross-moment bound, entrywise:
    # E Q_i Q_j <= n^2/(n^2-1)^2 delta_ij + n^2 E Y_i^2 Y_j^2 / (2 s_i^2 s_j^2 (n^2-1)^2)
    #              + 1/(2 (n^2-1)^2)
    rhs_qiqj = (
        (n * n) / n2m1**2 * np.eye(d)
        + (n * n) * e_yi2yj2 / (2.0 * np.outer(var, var) * n2m1**2)
        + 1.0 / (2.0 * n2m1**2)
    )
    checks = (
        # mean identity: E Q_i = -1/(2(n^2-1)) - r(n)
        BoundCheck("mean_identity",
                   float(np.max(np.abs(e_qi - (-1.0 / (2.0 * n2m1) - r_of_n(n))))), 0.0),
        BoundCheck("cross_moment", float(np.max(e_qiqj - rhs_qiqj)), 0.0),
        # E Q_i^2 <= (2n^2 + n + 1) / (2 (n^2-1)^2)
        BoundCheck("square_moment", float(np.max(np.diag(e_qiqj))),
                   (2.0 * n * n + n + 1.0) / (2.0 * n2m1**2)),
        # E (Q - Q_i) Q_i <= n k / (2 (n^2-1)^2)
        BoundCheck("coupled_moment", float(np.max(e_qmqi_qi)), n * d / (2.0 * n2m1**2)),
        # E Q^2 <= 2k / (n^2-1)
        BoundCheck("total_square", e_q2, 2.0 * d / n2m1),
    )
    return QMomentReport(
        mode=mode, n=n, dim=d, e_qi=e_qi, e_qiqj=e_qiqj, e_qmqi_qi=e_qmqi_qi,
        e_q2=e_q2, se_scale=se, checks=checks,
    )


# ---------------------------------------------------------------------------
# Elementary inequality checkers
# ---------------------------------------------------------------------------

def conditional_l2_check(
    f_table: np.ndarray, p_a: np.ndarray, p_b: np.ndarray
) -> dict:
    """Both sides of E f(A,B)^2 + (E f)^2 >= E f_A(B)^2 + E f_B(A)^2, exactly.

    ``f_table[a, b]`` holds f on the product of two finite independent
    variables with laws p_a, p_b; f_A(b) averages over A and f_B(a) over B.
    Returns ``{"lhs": ..., "rhs": ...}``; the caller decides.
    """
    f = np.asarray(f_table, dtype=float)
    p_a = np.asarray(p_a, dtype=float)
    p_b = np.asarray(p_b, dtype=float)
    for name, p, size in (("p_a", p_a, f.shape[0]), ("p_b", p_b, f.shape[1])):
        if p.ndim != 1 or p.size != size or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a probability vector matching the table")
    w = np.outer(p_a, p_b)
    e_f = float(np.sum(w * f))
    e_f2 = float(np.sum(w * f * f))
    f_a = p_a @ f  # function of b
    f_b = f @ p_b  # function of a
    rhs = float(p_b @ f_a**2 + p_a @ f_b**2)
    lhs = e_f2 + e_f**2
    return {"lhs": lhs, "rhs": rhs}


def exp_remainder(t: np.ndarray) -> np.ndarray:
    """R(t) = exp(t) - 1 - t - t^2/2, the cubic-and-up tail of exp."""
    t = np.asarray(t, dtype=float)
    return np.exp(t) - 1.0 - t - 0.5 * t**2


def remainder_difference_batch(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of |R(a) - R(b)| <= |a - b| (1.5 a^2 + (a - b)^2) on [-1, 1]^2.

    Elementwise over arrays (or scalars) a and b; raises outside the square.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(np.abs(a) > 1.0) or np.any(np.abs(b) > 1.0):
        raise ValueError("the remainder bound is proved only on [-1, 1]")
    lhs = np.abs(exp_remainder(a) - exp_remainder(b))
    rhs = np.abs(a - b) * (1.5 * a**2 + (a - b) ** 2)
    return lhs, rhs
