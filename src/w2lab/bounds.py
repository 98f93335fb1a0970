"""Increment bound, independent-coupling bound, and the induction schedule.

These are the assembly steps of the main convergence-rate argument: a single
Gaussian replacement step obeys W2(Z_n, Z_{n-1} + X) <= 5 sqrt(k) beta / n
(:func:`increment_bound`) once n >= 5 beta^2 / sigma_min^2; below that
threshold the independent-coupling bound (:func:`naive_w2_upper`) takes
over; and alternating the two over (n, k) certifies A_{n,k} <=
:func:`rate_envelope` = 5 sqrt(k) beta (1 + log n) for the unnormalized
partial sums, which is the main rate bound after dividing by sqrt(n).
:func:`ank_bound_schedule` takes every step from those two functions, the
ones the checkers certify.

These functions measure (an exact W2 next to its bound, a table of certified
bounds); the checkers in :mod:`w2lab.checks` decide pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussmath import GH_NODES_DEFAULT, CovarianceSpec, gh_budget
from .samplers import BoundedSampler
from .transport import w2_gaussian_mixture_1d
# perfbench/test_perfbench.py checks that its tracer rebinds this name here
from .transport import w2_exact  # noqa: F401


def increment_bound(k: int, beta: float, n):
    """The increment lemma's bound 5 sqrt(k) beta / n on W2(Z_n, Z_{n-1} + X);
    ``n`` may be an array."""
    return 5.0 * math.sqrt(k) * beta / n


def rate_envelope(k: int, beta: float, n):
    """The induction's envelope 5 sqrt(k) beta (1 + log n) on A_{n,k}.

    ``n`` may be an array of integers.  The log is ``math.log`` of each n in
    either case: ``np.log`` differs from it in the last bit on a few n past
    4096, so the array and the scalar would disagree there.
    """
    if np.ndim(n) == 0:
        log_n = math.log(n)
    else:
        log_n = np.array([math.log(v) for v in np.asarray(n).tolist()])
    return 5.0 * math.sqrt(k) * beta * (1.0 + log_n)


@dataclass(frozen=True)
class IncrementCheck:
    w2: float
    bound: float
    budget: float  # the Gauss-Hermite budget of w2


def increment_bound_check(s: BoundedSampler, n: int) -> IncrementCheck:
    """Exact W2(Z_n, Z_{n-1} + X) for k = 1, next to its bound 5 beta / n.

    Z_{n-1} + X is the mixture sum_j p_j N(a_j, sigma^2 (n-1)) over the
    support points a_j of X, and Z_n is N(0, sigma^2 n), so the distance is
    :func:`~w2lab.transport.w2_gaussian_mixture_1d`, whose Gauss-Hermite sum
    gets the budget :func:`~w2lab.gaussmath.gh_budget` against half as many
    nodes.  Needs a 1-d sampler.
    """
    from .qstats import check_hypothesis  # here, so the experiment legs never load qstats

    if s.dim != 1:
        raise ValueError("the exact increment step needs k = 1")
    check_hypothesis(n, s.bound, s.cov)
    sigma = float(s.cov.sigmas[0])
    w2, w2_coarse = (w2_gaussian_mixture_1d(
        s.outcomes[:, 0], s.probs, sigma * math.sqrt(n - 1), sigma * math.sqrt(n), nodes)
        for nodes in (GH_NODES_DEFAULT, GH_NODES_DEFAULT // 2))
    return IncrementCheck(w2=w2, bound=increment_bound(1, s.bound, n),
                          budget=gh_budget(w2, w2_coarse))


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
    if not head_w2 >= 0:
        raise ValueError("head_w2 must be nonnegative")
    if not (np.all(x_m >= 0) and np.all(y_m >= 0)):
        raise ValueError("second moments must be nonnegative")
    tail = float(np.sum(x_m[k:]) + np.sum(y_m[k:]))
    # squared by one multiplication, which rounds as the schedule's columns do
    return math.sqrt(head_w2 * head_w2 + tail)


def ank_bound_schedule(n_max: int, cov: CovarianceSpec, beta: float) -> np.ndarray:
    """Replay the (n, k) induction: the bound each cell A_{n,k} certifies.

    Returns the (n_max + 1, d + 1) table; row 0 is unused and column k = 0
    is 0.  Row n = 1 is the independent-coupling base case
    :func:`naive_w2_upper` over the first k coordinates (sqrt of twice their
    variance sum, itself <= 2 beta).  For n > 1 the increment step
    A_{n-1,k} + :func:`increment_bound` applies when n > 5 beta^2 /
    sigma_k^2; otherwise the naive step couples coordinate k independently,
    adding its second moments n sigma_k^2 on both sides to A_{n,k-1}^2
    under the root.

    The threshold is fixed per column, so each column k is filled at once:
    the naive rows 2 <= n <= 5 beta^2 / sigma_k^2 as one array expression
    over column k - 1, then the increment rows as one ``np.cumsum`` of the
    steps.  The cumulative sum adds in sequence, and the naive expression
    rounds as :func:`naive_w2_upper` does, so the table is bitwise the one
    a loop over (n, k) builds.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    d = cov.dim
    var = cov.variances
    if var.sum() > beta**2 + 1e-9:
        raise ValueError(
            "total variance exceeds beta^2; no bounded law has these moments"
        )
    n = np.arange(n_max + 1, dtype=float)
    bounds = np.zeros((n_max + 1, d + 1))
    for k in range(1, d + 1):
        col = bounds[:, k]
        col[1] = naive_w2_upper(var[:k], var[:k], 0, 0.0)
        # the naive step holds on rows 2..last, the increment step past them
        last = 1 + int(np.count_nonzero(n[2:] <= 5.0 * beta**2 / var[k - 1]))
        m = n[2:last + 1] * var[k - 1]
        col[2:last + 1] = np.sqrt(bounds[2:last + 1, k - 1] ** 2 + (m + m))
        col[last:] = np.cumsum(np.concatenate(
            ([col[last]], increment_bound(k, beta, n[last + 1:]))))
    return bounds
