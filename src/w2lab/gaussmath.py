"""Gaussian geometry for diagonal covariances.

Everything here works with centered Gaussians N(0, t*Sigma) where Sigma =
diag(sigma_1^2, ..., sigma_d^2) and sigma_1 >= ... >= sigma_d > 0;
non-diagonal covariances are out of scope.  Functions take a Gaussian as its
:class:`CovarianceSpec` and time scale t (default 1, the reference Gaussian).

The module also hosts the Gauss-Hermite nodes and the tensor grid used as
the quadrature oracle for every density integral in the package (200 nodes
per axis by default).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import roots_hermite

GH_NODES_DEFAULT = 200


class DimensionMismatchError(ValueError):
    """Vector length does not match the covariance dimension."""


class DivergentIntegralError(ValueError):
    """The quadratic-exponential moment does not exist (a >= 1/2)."""


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance diag(sigmas**2), stored with sigmas non-increasing.

    ``sigmas`` are standard deviations.  Construction sorts them into
    non-increasing order and records the permutation applied; this sorted
    frame is the canonical coordinate system of the whole package (prefix
    projections always mean "the k largest-variance axes").  Vectors supplied
    in the construction order can be mapped in with :meth:`canonicalize`.
    """

    sigmas: np.ndarray
    permutation: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __init__(self, sigmas: Sequence[float]):
        arr = np.asarray(sigmas, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sigmas must be a non-empty 1-d sequence")
        if not np.all((arr > 0) & np.isfinite(arr)):
            raise ValueError("all sigmas must be finite and strictly positive")
        order = np.argsort(-arr, kind="stable")
        object.__setattr__(self, "sigmas", arr[order])
        object.__setattr__(self, "permutation", order)

    @property
    def dim(self) -> int:
        return self.sigmas.size

    @property
    def variances(self) -> np.ndarray:
        return self.sigmas**2

    @property
    def sigma_min(self) -> float:
        return float(self.sigmas[-1])

    def canonicalize(self, v: np.ndarray) -> np.ndarray:
        """Reorder a construction-order vector (or batch) into sorted coordinates."""
        v = np.asarray(v, dtype=float)
        return v[..., self.permutation]

    def head(self, k: int) -> "CovarianceSpec":
        """Covariance of the projection onto the first k coordinates."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"k must be in [1, {self.dim}], got {k}")
        return CovarianceSpec(self.sigmas[:k])

    def drop(self, i: int) -> "CovarianceSpec":
        """Covariance of the projection onto all coordinates but i."""
        if self.dim < 2:
            raise ValueError("cannot drop a coordinate from a 1-d spec")
        return CovarianceSpec(np.delete(self.sigmas, i))

    def __eq__(self, other) -> bool:
        return isinstance(other, CovarianceSpec) and np.array_equal(
            self.sigmas, other.sigmas
        )


def _check_dim(v: np.ndarray, cov: CovarianceSpec, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != cov.dim:
        raise DimensionMismatchError(
            f"{name} has length {v.shape[-1]}, covariance has dim {cov.dim}"
        )
    return v


def sample_gaussian(
    cov: CovarianceSpec, count: int, rng: np.random.Generator, time_scale: float = 1.0
) -> np.ndarray:
    """i.i.d. draws from N(0, t*Sigma), t = ``time_scale`` > 0, shape (count, dim).

    Deterministic given the generator state; callers own seeding.
    """
    if not time_scale > 0:
        raise ValueError("time_scale must be strictly positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    z = rng.standard_normal((count, cov.dim))
    z *= np.sqrt(time_scale) * cov.sigmas
    return z


def gaussian_exp_quadratic(
    a: float, b: float, v: np.ndarray, cov: CovarianceSpec
) -> float:
    """E[exp(a*|Z|_w^2 + b*<Z, v>_w)] for Z ~ N(0, Sigma), w = Sigma^{-1} weights.

    Closed form: exp(b^2 |v|_w^2 / (2 - 4a)) * (1 - 2a)^(-k/2), valid for
    a < 1/2; the integral diverges otherwise.
    """
    if a >= 0.5:
        raise DivergentIntegralError(f"integral diverges for a={a} >= 1/2")
    v = _check_dim(v, cov, "v")
    vnorm2 = float(np.sum(v * v / cov.variances))
    k = cov.dim
    return math.exp(b * b * vnorm2 / (2.0 - 4.0 * a)) * (1.0 - 2.0 * a) ** (-k / 2.0)


def w2_gaussian_diag(
    cov1: CovarianceSpec, cov2: CovarianceSpec, t1: float = 1.0, t2: float = 1.0
) -> float:
    """Closed-form W2 between N(0, t1*Sigma1) and N(0, t2*Sigma2), both diagonal.

    For commuting covariances the optimal coupling is the linear map matching
    per-coordinate standard deviations, giving
    W2^2 = sum_i (sqrt(t1)*sigma_i - sqrt(t2)*tau_i)^2.
    """
    if cov1.dim != cov2.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {cov1.dim} vs {cov2.dim}"
        )
    if t1 < 0 or t2 < 0:
        raise ValueError("time scales must be nonnegative")
    diff = math.sqrt(t1) * cov1.sigmas - math.sqrt(t2) * cov2.sigmas
    return float(np.sqrt(np.sum(diff**2)))


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature oracle
# ---------------------------------------------------------------------------

@functools.cache
def gh_nodes_weights(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[g(T)], T ~ N(0,1): E[g] ~= sum w_i g(x_i).

    Each rule is built once and shared, so both arrays are read-only.
    """
    x, w = roots_hermite(nodes)
    rule = (np.sqrt(2.0) * x, w / math.sqrt(math.pi))
    for a in rule:
        a.setflags(write=False)
    return rule


def gh_grid(cov: CovarianceSpec, nodes: int = GH_NODES_DEFAULT):
    """Tensor quadrature grid for N(0, Sigma): points (N, d) and weights (N,)."""
    x1, w1 = gh_nodes_weights(nodes)
    d = cov.dim
    axes = [x1 * cov.sigmas[i] for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wts = w1
    for _ in range(d - 1):
        wts = np.multiply.outer(wts, w1)
    return pts, wts.ravel()
