"""Increment bound, independent-coupling bound, and the induction schedule.

These are the assembly steps of the main convergence-rate argument: a single
Gaussian replacement step obeys W2(Z_n, Z_{n-1} + X) <= 5 sqrt(k) beta / n
once n >= 5 beta^2 / sigma_min^2; below that threshold the crude
independent-coupling bound takes over; and alternating the two over (n, k)
certifies A_{n,k} <= 5 sqrt(k) beta (1 + log n) for the unnormalized partial
sums, which is the main rate bound after dividing by sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gaussmath import CovarianceSpec, GaussianModel, sample_gaussian
from .qstats import check_hypothesis
from .samplers import BoundedSampler
from .transport import estimate_w2
# perfbench/test_perfbench.py checks that its tracer rebinds this name here
from .transport import w2_exact  # noqa: F401


@dataclass(frozen=True)
class IncrementCheck:
    n: int
    dim: int
    beta: float
    m: int
    w2_hat: float
    bound: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound - self.w2_hat


def increment_bound_check(
    s: Optional[BoundedSampler],
    n: int,
    m: int,
    rng: np.random.Generator,
    cov: Optional[CovarianceSpec] = None,
) -> IncrementCheck:
    """Estimate W2(Z_n, Z_{n-1} + X) empirically and compare to 5 sqrt(k) beta / n.

    ``s=None`` runs the degenerate X = 0 case (requires ``cov``), useful for
    calibrating the estimator against the closed Gaussian-to-Gaussian form.
    The estimator is :func:`~w2lab.transport.estimate_w2`: the 1-d quantile
    coupling for k = 1 and exact assignment for k in {2, 3} (subject to the
    solver's size cap); higher k has no reliable desk-scale estimator here.
    """
    if cov is None:
        if s is None:
            raise ValueError("cov is required for the degenerate sampler")
        cov = s.cov
    k = cov.dim
    if k > 3:
        raise ValueError("increment check supports k <= 3 only")
    beta = 0.0 if s is None else s.bound
    if s is not None:
        check_hypothesis(n, beta, cov)
    z_n = sample_gaussian(GaussianModel(cov, float(n)), m, rng)
    z_prev = sample_gaussian(GaussianModel(cov, float(n - 1)), m, rng)
    if s is not None:
        z_prev += s.draw(rng, size=m)
    w2_hat = estimate_w2(z_n, z_prev)
    bound = 5.0 * math.sqrt(k) * beta / n
    return IncrementCheck(
        n=n, dim=k, beta=beta, m=m, w2_hat=w2_hat, bound=bound,
        passed=(w2_hat <= bound) if s is not None else True,
    )


def naive_w2_upper(
    x_moments: Sequence[float],
    y_moments: Sequence[float],
    k: int,
    head_w2: float,
) -> float:
    """Independent-coupling bound: sqrt(head_w2^2 + sum of tail second moments).

    ``x_moments``/``y_moments`` are per-coordinate second moments E X_i^2,
    E Y_i^2 of the two laws; coordinates past ``k`` are coupled independently,
    adding E X_i^2 + E Y_i^2 each under the square root.
    """
    x_m = np.asarray(x_moments, dtype=float)
    y_m = np.asarray(y_moments, dtype=float)
    if x_m.shape != y_m.shape or x_m.ndim != 1:
        raise ValueError("moment vectors must be 1-d and equal length")
    d = x_m.size
    if not 0 <= k <= d:
        raise ValueError(f"k must be in [0, {d}], got {k}")
    if head_w2 < 0:
        raise ValueError("head_w2 must be nonnegative")
    if np.any(x_m < 0) or np.any(y_m < 0):
        raise ValueError("second moments must be nonnegative")
    tail = float(np.sum(x_m[k:]) + np.sum(y_m[k:]))
    return math.sqrt(head_w2**2 + tail)


@dataclass(frozen=True)
class ScheduleEntry:
    n: int
    k: int
    branch: str  # "base", "increment", or "naive"
    bound: float


@dataclass(frozen=True)
class ScheduleTable:
    """Certified A_{n,k} bounds from replaying the double induction."""

    n_max: int
    dim: int
    beta: float
    bounds: np.ndarray  # (n_max + 1, dim + 1); row 0 unused
    branches: np.ndarray  # same shape, integer codes 0=base,1=increment,2=naive

    BRANCH_NAMES = ("base", "increment", "naive")

    def entry(self, n: int, k: int) -> ScheduleEntry:
        return ScheduleEntry(
            n=n, k=k,
            branch=self.BRANCH_NAMES[self.branches[n, k]],
            bound=float(self.bounds[n, k]),
        )

    def envelope(self, n: int, k: int) -> float:
        """The target envelope 5 sqrt(k) beta (1 + log n)."""
        return 5.0 * math.sqrt(k) * self.beta * (1.0 + math.log(n))


def ank_bound_schedule(
    n_max: int, cov: CovarianceSpec, beta: float
) -> ScheduleTable:
    """Replay the (n, k) induction, recording which branch certified each cell.

    Cells with k = 0 are 0; n = 1 uses the independent-coupling base case
    (sqrt of twice the head variance sum, itself <= 2 beta); for n > 1 the
    increment step A_{n-1,k} + 5 sqrt(k) beta / n applies when
    n > 5 beta^2 / sigma_k^2, and the naive step
    sqrt(A_{n,k-1}^2 + 2 n sigma_k^2) otherwise.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    d = cov.dim
    var_prefix = np.concatenate([[0.0], np.cumsum(cov.variances)])
    if var_prefix[-1] > beta**2 + 1e-9:
        raise ValueError(
            "total variance exceeds beta^2; no bounded law has these moments"
        )
    bounds = np.zeros((n_max + 1, d + 1))
    branches = np.zeros((n_max + 1, d + 1), dtype=np.int8)
    for k in range(1, d + 1):
        bounds[1, k] = math.sqrt(2.0 * var_prefix[k])
        branches[1, k] = 0
    for n in range(2, n_max + 1):
        for k in range(1, d + 1):
            if n > 5.0 * beta**2 / cov.variances[k - 1]:
                bounds[n, k] = bounds[n - 1, k] + 5.0 * math.sqrt(k) * beta / n
                branches[n, k] = 1
            else:
                bounds[n, k] = math.sqrt(
                    bounds[n, k - 1] ** 2 + 2.0 * n * cov.variances[k - 1]
                )
                branches[n, k] = 2
    return ScheduleTable(
        n_max=n_max, dim=d, beta=beta, bounds=bounds, branches=branches
    )
