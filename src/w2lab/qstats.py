"""Per-coordinate Q-statistics and their moment bounds.

For a pair (Y, Y') of independent rescaled draws (Y = X/sqrt(n), so
||Y|| <= beta/sqrt(n)) against a diagonal covariance, define

    Q_i = (2 n^2 Y_i Y'_i - n Y_i^2 - n Y'_i^2 + sigma_i^2)
          / (2 sigma_i^2 (n^2 - 1))  -  r(n),           Q = sum_i Q_i,

with the log-correction constant r(n) = 1/(2(n^2-1)) - (1/2) log(1 + 1/(n^2-1)).
The exponential moment of Q equals the chi-square-type second moment of the
density ratio handled in :mod:`w2lab.densities`; this module evaluates the Q
moments themselves, exactly over enumerable supports or by Monte Carlo, and
checks them against their closed-form bounds.

Under the standing hypothesis n >= 5 beta^2 / sigma_min^2 the statistics obey
|Q| <= 1 and |Q - Q_i| <= 1, which is what makes the later Taylor expansion
of exp(Q) legitimate; the remainder inequality is checked here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussmath import CovarianceSpec, DimensionMismatchError
from .samplers import SE_FACTOR, BoundedSampler


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
    name: str
    lhs: float
    rhs: float
    slack: float  # statistical widening already applied to rhs
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs + self.slack - self.lhs


@dataclass(frozen=True)
class QMomentReport:
    """Q moments with exact values or MC standard errors, plus bound verdicts."""

    mode: str
    n: int
    dim: int
    e_qi: np.ndarray
    e_qiqj: np.ndarray
    e_qi2: np.ndarray
    e_qmqi_qi: np.ndarray
    e_q2: float
    se_scale: float  # 0 for exact enumeration
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _pair_moments_exact(s: BoundedSampler, n: int):
    """Exact Q moments by enumeration over independent support pairs."""
    y = s.outcomes / math.sqrt(n)
    p = s.probs
    qa = q_values(y[:, None, :], y[None, :, :], s.cov, n)  # (s, s, d)
    w = p[:, None] * p[None, :]
    e_qi = np.einsum("ab,abi->i", w, qa)
    e_qiqj = np.einsum("ab,abi,abj->ij", w, qa, qa)
    q_tot = qa.sum(axis=-1)
    e_q2 = float(np.einsum("ab,ab->", w, q_tot**2))
    e_qmqi_qi = np.einsum("ab,ab,abi->i", w, q_tot, qa) - np.diag(e_qiqj)
    e_y2 = (p @ y**2)
    e_yi2yj2 = np.einsum("a,ai,aj->ij", p, y**2, y**2)
    return e_qi, e_qiqj, e_q2, e_qmqi_qi, e_y2, e_yi2yj2, 0.0


def _pair_moments_mc(s: BoundedSampler, n: int, m: int, rng: np.random.Generator):
    """Monte Carlo Q moments over m independent pairs; returns a crude SE scale."""
    y = s.draw(rng, size=m) / math.sqrt(n)
    yp = s.draw(rng, size=m) / math.sqrt(n)
    qa = q_values(y, yp, s.cov, n)  # (m, d)
    e_qi = qa.mean(axis=0)
    e_qiqj = (qa.T @ qa) / m
    q_tot = qa.sum(axis=1)
    e_q2 = float(np.mean(q_tot**2))
    e_qmqi_qi = (q_tot[:, None] * qa).mean(axis=0) - (qa**2).mean(axis=0)
    e_y2 = (y**2).mean(axis=0)
    e_yi2yj2 = ((y**2).T @ (y**2)) / m
    # dominant SE among the estimated moments, used to widen every bound
    ses = [
        float(np.max(qa.std(axis=0, ddof=1))) / math.sqrt(m),
        float(np.max((qa[:, :, None] * qa[:, None, :]).std(axis=0, ddof=1)))
        / math.sqrt(m),
        float(np.std(q_tot**2, ddof=1)) / math.sqrt(m),
    ]
    return e_qi, e_qiqj, e_q2, e_qmqi_qi, e_y2, e_yi2yj2, max(ses)


def estimate_q_moments(
    s: BoundedSampler,
    n: int,
    mode: str = "exact",
    m: int = 10**6,
    rng: Optional[np.random.Generator] = None,
) -> QMomentReport:
    """Estimate all Q moments for sampler pairs and check the five bounds.

    ``mode='exact'`` enumerates support pairs (requires an enumerable
    sampler); ``mode='mc'`` uses m Monte Carlo pairs and widens every bound
    by ``SE_FACTOR`` standard errors before declaring failure, so noise can
    not produce a false negative.
    """
    check_hypothesis(n, s.bound, s.cov)
    if mode == "exact":
        if not s.enumerable:
            raise ValueError("exact mode requires an enumerable support")
        e_qi, e_qiqj, e_q2, e_qmqi_qi, e_y2, e_yi2yj2, se = _pair_moments_exact(s, n)
    elif mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires an rng")
        e_qi, e_qiqj, e_q2, e_qmqi_qi, e_y2, e_yi2yj2, se = _pair_moments_mc(
            s, n, m, rng
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    d = s.dim
    n2m1 = float(n) * n - 1.0
    slack = SE_FACTOR * se
    rn = r_of_n(n)
    checks = []

    # mean identity: E Q_i = -1/(2(n^2-1)) - r(n)
    target = -1.0 / (2.0 * n2m1) - rn
    lhs = float(np.max(np.abs(e_qi - target)))
    checks.append(
        BoundCheck("mean_identity", lhs, 0.0, slack,
                   lhs <= (1e-12 if se == 0 else slack))
    )

    # cross-moment bound:
    # E Q_i Q_j <= n^2/(n^2-1)^2 delta_ij + n^2 E Y_i^2 Y_j^2 / (2 s_i^2 s_j^2 (n^2-1)^2)
    #              + 1/(2 (n^2-1)^2)
    var = s.cov.variances
    rhs_qiqj = (
        (n * n) / n2m1**2 * np.eye(d)
        + (n * n) * e_yi2yj2 / (2.0 * np.outer(var, var) * n2m1**2)
        + 1.0 / (2.0 * n2m1**2)
    )
    gap = float(np.max(e_qiqj - rhs_qiqj))
    checks.append(BoundCheck("cross_moment", gap, 0.0, slack, gap <= slack + 1e-15))

    # E Q_i^2 <= (2n^2 + n + 1) / (2 (n^2-1)^2)
    rhs_qi2 = (2.0 * n * n + n + 1.0) / (2.0 * n2m1**2)
    lhs_qi2 = float(np.max(np.diag(e_qiqj)))
    checks.append(
        BoundCheck("square_moment", lhs_qi2, rhs_qi2, slack, lhs_qi2 <= rhs_qi2 + slack)
    )

    # E (Q - Q_i) Q_i <= n k / (2 (n^2-1)^2)
    rhs_cross_sum = n * d / (2.0 * n2m1**2)
    lhs_cross_sum = float(np.max(e_qmqi_qi))
    checks.append(
        BoundCheck(
            "coupled_moment", lhs_cross_sum, rhs_cross_sum, slack,
            lhs_cross_sum <= rhs_cross_sum + slack,
        )
    )

    # E Q^2 <= 2k / (n^2-1)
    rhs_q2 = 2.0 * d / n2m1
    checks.append(BoundCheck("total_square", e_q2, rhs_q2, slack, e_q2 <= rhs_q2 + slack))

    return QMomentReport(
        mode=mode,
        n=n,
        dim=d,
        e_qi=e_qi,
        e_qiqj=e_qiqj,
        e_qi2=np.diag(e_qiqj).copy(),
        e_qmqi_qi=e_qmqi_qi,
        e_q2=e_q2,
        se_scale=se,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Elementary inequality checkers
# ---------------------------------------------------------------------------

def conditional_l2_check(
    f_table: np.ndarray, p_a: np.ndarray, p_b: np.ndarray
) -> dict:
    """Check E f(A,B)^2 + (E f)^2 >= E f_A(B)^2 + E f_B(A)^2 exactly.

    ``f_table[a, b]`` holds f on the product of two finite independent
    variables with laws p_a, p_b; f_A(b) averages over A and f_B(a) over B.
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
    return {"lhs": lhs, "rhs": rhs, "pass": lhs >= rhs - 1e-12}


def exp_remainder(t: np.ndarray) -> np.ndarray:
    """R(t) = exp(t) - 1 - t - t^2/2, the cubic-and-up tail of exp."""
    t = np.asarray(t, dtype=float)
    return np.exp(t) - 1.0 - t - 0.5 * t**2


def remainder_difference_check(a: float, b: float) -> dict:
    """Check |R(a) - R(b)| <= |a - b| * (1.5 a^2 + (a-b)^2) on [-1, 1]^2."""
    a = float(a)
    b = float(b)
    if not (-1.0 <= a <= 1.0 and -1.0 <= b <= 1.0):
        raise ValueError("the remainder bound is proved only on [-1, 1]")
    lhs = abs(float(exp_remainder(a) - exp_remainder(b)))
    rhs = abs(a - b) * (1.5 * a * a + (a - b) ** 2)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + 1e-12}


def remainder_difference_batch(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (lhs, rhs) of the remainder inequality for test sweeps."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(np.abs(a) > 1.0) or np.any(np.abs(b) > 1.0):
        raise ValueError("the remainder bound is proved only on [-1, 1]")
    lhs = np.abs(exp_remainder(a) - exp_remainder(b))
    rhs = np.abs(a - b) * (1.5 * a**2 + (a - b) ** 2)
    return lhs, rhs
