"""Per-coordinate Q-statistics and their moment bounds.

For a pair (Y, Y') of independent rescaled draws (Y = X/sqrt(n), so
||Y|| <= beta/sqrt(n)) against a diagonal covariance, define

    Q_i = (2 n^2 Y_i Y'_i - n Y_i^2 - n Y'_i^2 + sigma_i^2)
          / (2 sigma_i^2 (n^2 - 1))  -  r(n),           Q = sum_i Q_i,

with the log-correction constant r(n) = 1/(2(n^2-1)) - (1/2) log(1 + 1/(n^2-1)).
The exponential moment of Q equals the chi-square-type second moment of the
density ratio handled in :mod:`w2lab.densities`; this module evaluates the Q
moments themselves, exactly, by one weighted sum over every ordered pair of
support points of the sampler's finite law (:func:`estimate_q_moments`).  The
moment lemma's closed-form right sides and rounding allowances are stated once,
in :func:`w2lab.checks.check_q_moments`.

Under the standing hypothesis n >= 5 beta^2 / sigma_min^2 the statistics obey
|Q| <= 1 and |Q - Q_i| <= 1, which is what makes the later Taylor expansion
of exp(Q) legitimate; both sides of the per-coordinate bound and of the
remainder inequality are evaluated here too.  These functions measure and name
no rule; the checkers in :mod:`w2lab.checks` decide pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussmath import CovarianceSpec, DimensionMismatchError
from .samplers import BoundedSampler, check_masses


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


def support_pairs(s: BoundedSampler, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair (Y, Y') of support points scaled by 1/sqrt(n), with weight p x p."""
    size = len(s.probs)
    y = np.repeat(s.outcomes, size, axis=0) / math.sqrt(n)
    yp = np.tile(s.outcomes, (size, 1)) / math.sqrt(n)
    return y, yp, np.outer(s.probs, s.probs).ravel()


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QMomentReport:
    """The exact moments the Q-moment lemma bounds, each over every ordered pair:
    E Q_i, E Q_i Q_j, E (Q - Q_i) Q_i, E Q^2, and E Y_i^2 Y_j^2, which the
    cross-moment bound's right side reads."""

    e_qi: np.ndarray
    e_qiqj: np.ndarray
    e_qmqi_qi: np.ndarray
    e_q2: float
    e_yi2yj2: np.ndarray


def estimate_q_moments(s: BoundedSampler, n: int) -> QMomentReport:
    """The exact Q moments over :func:`support_pairs`, under the standing hypothesis."""
    check_hypothesis(n, s.bound, s.cov)
    y, yp, w = support_pairs(s, n)
    qa = q_values(y, yp, s.cov, n)  # (pairs, d)
    q_tot = qa.sum(axis=1)
    e_qiqj = (w[:, None] * qa).T @ qa
    return QMomentReport(
        e_qi=w @ qa,
        e_qiqj=e_qiqj,
        e_qmqi_qi=(w * q_tot) @ qa - np.diag(e_qiqj),
        e_q2=float(w @ q_tot**2),
        e_yi2yj2=(w[:, None] * y**2).T @ y**2,
    )


# ---------------------------------------------------------------------------
# Elementary inequality checkers
# ---------------------------------------------------------------------------

def _expect(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j p[..., j] x[..., j], one term at a time, left to right.

    A zero-mass term then leaves every partial sum bitwise unchanged, so a
    table padded with zero-mass rows and columns averages exactly as the
    table itself, and no product of a law with a table is built.
    """
    return sum(p[..., j] * x[..., j] for j in range(p.shape[-1]))


def conditional_l2_check(
    f_table: np.ndarray, p_a: np.ndarray, p_b: np.ndarray
) -> dict:
    """Both sides of E f(A,B)^2 + (E f)^2 >= E f_A(B)^2 + E f_B(A)^2, exactly.

    ``f_table[..., a, b]`` holds f on the product of two finite independent
    variables with laws ``p_a[..., a]`` and ``p_b[..., b]``; f_A(b) averages
    over A and f_B(a) over B.  Leading axes stack tables, each with its own
    pair of laws, and each law passes :func:`w2lab.samplers.check_masses`.
    Every average runs term by term, so a table's sides do not depend on the
    stack it sits in, nor on zero-mass rows or columns padding it.  Returns
    ``{"lhs": ..., "rhs": ...}``, each of the stack's shape; the caller
    decides.
    """
    f = np.asarray(f_table, dtype=float)
    if f.ndim < 2:
        raise ValueError(f"f_table must have shape (..., na, nb), got {f.shape}")
    p_a = check_masses(p_a, f.shape[:-1], name="p_a")
    p_b = check_masses(p_b, f.shape[:-2] + f.shape[-1:], name="p_b")
    f_b = _expect(p_b[..., None, :], f)  # function of a
    f_a = _expect(p_a[..., None, :], np.swapaxes(f, -1, -2))  # function of b
    e_f = _expect(p_a, f_b)
    e_f2 = _expect(p_a, _expect(p_b[..., None, :], f * f))
    rhs = _expect(p_b, f_a**2) + _expect(p_a, f_b**2)
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
    if not (np.all(np.abs(a) <= 1.0) and np.all(np.abs(b) <= 1.0)):
        raise ValueError("the remainder bound is proved only on [-1, 1]")
    lhs = np.abs(exp_remainder(a) - exp_remainder(b))
    rhs = np.abs(a - b) * (1.5 * a**2 + (a - b) ** 2)
    return lhs, rhs
