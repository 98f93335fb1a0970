"""Bounded, mean-zero random-vector families.

Every sampler describes a law with E X = 0, a declared covariance, and a hard
almost-sure norm bound ||X|| <= beta.  Discrete families expose their full
outcome enumeration (outcomes + probabilities) whenever the support has at
most 2**16 points, so downstream moment identities can be evaluated exactly
instead of by Monte Carlo.

Sums of n i.i.d. draws are sampled in O(1)-per-n time for enumerable
families via multinomial outcome counts; this is an exact distributional
identity, not an approximation.

:func:`validate_sampler` measures a sampler's moments against its
declarations; the checker that calls it decides, with ``SE_FACTOR``
standard errors of slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussmath import CovarianceSpec

ENUMERATION_CAP = 2**16
NORM_SLACK = 1e-12
VALIDATE_MIN_DRAWS = 10**4  # fewest draws validate_sampler accepts
# standard errors a Monte Carlo check widens its inequality by before failing
SE_FACTOR = 5.0


class SamplerInvariantError(RuntimeError):
    """A draw violated a declared sampler invariant (hard failure)."""


@dataclass(frozen=True)
class LatticeSpec:
    """The scaled integer lattice spacing * Z^dim."""

    spacing: float
    dim: int

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError("lattice spacing must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def lattice_distance(x: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """Euclidean distance from x to the nearest point of spacing*Z^dim.

    Accepts a single point (dim,) or a batch (..., dim).
    """
    x = np.asarray(x, dtype=float)
    resid = x - spec.spacing * np.round(x / spec.spacing)
    return np.sqrt(np.sum(resid**2, axis=-1))


@dataclass(frozen=True)
class BoundedSampler:
    """A mean-zero law with covariance ``cov`` and ||X|| <= ``bound`` a.s.

    ``outcomes``/``probs`` enumerate the support when it is small enough
    (discrete families); both are None for continuous families.
    """

    kind: str
    dim: int
    bound: float
    cov: CovarianceSpec
    outcomes: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None

    @property
    def enumerable(self) -> bool:
        return self.outcomes is not None

    def draw(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """(size, dim) array of i.i.d. draws."""
        if self.kind == "sphere_uniform":
            g = rng.standard_normal((size, self.dim))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            return self.bound * g
        idx = rng.choice(len(self.outcomes), size=size, p=self.probs)
        return self.outcomes[idx]

    def draw_sum(self, n_terms: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """(size, dim) array of i.i.d. samples of X_1 + ... + X_{n_terms}.

        Enumerable families use multinomial outcome counts (exact in
        distribution); continuous families fall back to chunked summation.
        """
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.enumerable:
            counts = rng.multinomial(n_terms, self.probs, size=size)
            return counts.astype(float) @ self.outcomes
        total = np.zeros((size, self.dim))
        chunk = max(1, int(2**22 // max(size, 1)))
        done = 0
        while done < n_terms:
            step = min(chunk, n_terms - done)
            total += self.draw(rng, size=size * step).reshape(size, step, self.dim).sum(axis=1)
            done += step
        return total


def _enumerated(kind: str, outcomes: np.ndarray, probs: np.ndarray) -> BoundedSampler:
    outcomes = np.asarray(outcomes, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if outcomes.ndim != 2:
        raise ValueError("outcomes must be a (support, dim) array")
    if len(outcomes) != len(probs):
        raise ValueError("outcomes and probabilities must have equal length")
    if len(outcomes) > ENUMERATION_CAP:
        raise ValueError(f"support exceeds enumeration cap {ENUMERATION_CAP}")
    if not (np.isfinite(outcomes).all() and np.isfinite(probs).all()):
        raise ValueError("outcomes and probabilities must be finite")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    mean = probs @ outcomes
    if np.max(np.abs(mean)) > 1e-12:
        raise ValueError(f"support is not mean-zero (mean {mean})")
    cov_mat = (outcomes * probs[:, None]).T @ outcomes
    if np.max(np.abs(cov_mat - np.diag(np.diag(cov_mat)))) > 1e-12:
        raise ValueError("only diagonal-covariance supports are accepted")
    variances = np.diag(cov_mat)
    if np.any(variances <= 0):
        raise ValueError("support has a zero-variance coordinate")
    beta = float(np.max(np.linalg.norm(outcomes, axis=1)))
    cov = CovarianceSpec(np.sqrt(variances))
    # align outcome coordinates with the canonical sorted-sigma frame
    return BoundedSampler(
        kind=kind,
        dim=outcomes.shape[1],
        bound=beta,
        cov=cov,
        outcomes=cov.canonicalize(outcomes),
        probs=probs,
    )


def make_rademacher_product(d: int, scale: float = 1.0) -> BoundedSampler:
    """Coordinates i.i.d. +-scale: beta = scale*sqrt(d), Sigma = scale^2 * I."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not scale > 0:
        raise ValueError("scale must be positive")
    if 2**d > ENUMERATION_CAP:
        raise ValueError("rademacher product support too large to enumerate")
    signs = np.array(
        [[(1.0 if (i >> j) & 1 else -1.0) for j in range(d)] for i in range(2**d)]
    )
    probs = np.full(2**d, 1.0 / 2**d)
    return _enumerated("rademacher_product", scale * signs, probs)


def make_scaled_basis(d: int, beta: float) -> BoundedSampler:
    """+-beta e_j with sign and axis uniform: Sigma = (beta^2/d) * I, ||X|| = beta."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    eye = np.eye(d)
    outcomes = np.concatenate([beta * eye, -beta * eye])
    probs = np.full(2 * d, 1.0 / (2 * d))
    return _enumerated("scaled_basis", outcomes, probs)


def make_lattice_custom(outcomes: np.ndarray, probs: np.ndarray) -> BoundedSampler:
    """Sampler from an explicitly declared finite support.

    The support must be mean-zero with diagonal covariance.  Whether it sits
    inside beta*Z^d (as the lattice lower-bound experiment requires) is
    checked separately by :func:`require_lattice_support`.
    """
    return _enumerated("lattice_custom", outcomes, probs)


def make_sphere_uniform(d: int, beta: float) -> BoundedSampler:
    """Uniform on the sphere of radius beta: continuous, no enumeration."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    sigma = beta / math.sqrt(d)
    return BoundedSampler(
        kind="sphere_uniform",
        dim=d,
        bound=beta,
        cov=CovarianceSpec(np.full(d, sigma)),
    )


def require_lattice_support(s: BoundedSampler) -> LatticeSpec:
    """Check support is contained in bound*Z^dim; return the unit-scale lattice.

    The lower-bound experiment's hypothesis.  Rejects continuous samplers and
    discrete supports with non-integer coordinates in units of beta.
    """
    if not s.enumerable:
        raise ValueError(f"sampler kind={s.kind!r} has no enumerable support")
    ratio = s.outcomes / s.bound
    if np.max(np.abs(ratio - np.round(ratio))) > 1e-9:
        raise ValueError(
            f"sampler kind={s.kind!r} support is not contained in beta*Z^d "
            f"(beta={s.bound})"
        )
    return LatticeSpec(spacing=s.bound, dim=s.dim)


@dataclass(frozen=True)
class ValidationReport:
    """Sampler moments measured over m draws, with their standard errors."""

    kind: str
    n_draws: int
    beta: float
    max_norm: float
    mean: np.ndarray
    mean_se: np.ndarray
    cov_dev: np.ndarray  # |empirical - declared covariance|, entrywise
    cov_se: np.ndarray


def validate_sampler(
    s: BoundedSampler, m: int, rng: np.random.Generator
) -> ValidationReport:
    """Draw m samples and measure the bound, mean-zero, and covariance claims.

    The norm bound is a hard invariant: any draw with ||X|| > beta + 1e-12
    raises.  Mean and covariance are statistical: the report carries their
    deviations and standard errors, and the caller judges them.
    """
    if m < VALIDATE_MIN_DRAWS:
        raise ValueError(f"validation requires m >= {VALIDATE_MIN_DRAWS} draws")
    draws = s.draw(rng, size=m)
    norms = np.linalg.norm(draws, axis=1)
    max_norm = float(norms.max())
    if max_norm > s.bound + NORM_SLACK:
        raise SamplerInvariantError(
            f"draw with norm {max_norm} exceeds declared bound {s.bound}"
        )
    emp_cov = (draws.T @ draws) / m
    sq = draws**2
    return ValidationReport(
        kind=s.kind,
        n_draws=m,
        beta=s.bound,
        max_norm=max_norm,
        mean=draws.mean(axis=0),
        mean_se=draws.std(axis=0, ddof=1) / math.sqrt(m),
        cov_dev=np.abs(emp_cov - np.diag(s.cov.variances)),
        cov_se=np.sqrt((sq.T @ sq) / m / m),  # crude upper bound via fourth moments
    )
