"""Bounded, mean-zero random-vector families.

Every sampler is a finite law: E X = 0, a declared covariance, a hard
almost-sure norm bound ||X|| <= beta, and its full outcome enumeration
(outcomes + probabilities, at most 2**16 points), so downstream moment
identities are evaluated exactly instead of by Monte Carlo.

Every finite law of the package, a sampler's or one computed from it (the
pmf of S_n, a mixture's masses, a table's marginal laws), passes one mass
check, :func:`check_masses`: finite, nonnegative masses that sum to 1 within
a tolerance, 1e-12 for a sampler's declared law (``LAW_MASS_TOL``) and 1e-9
for computed mass rows (``MASS_TOL``).

Sums of n i.i.d. draws are sampled in O(1)-per-n time via multinomial
outcome counts; this is an exact distributional identity, not an
approximation.

The ``sampler-zoo`` checker (:mod:`w2lab.checks`) verifies each law's
hypotheses exactly from its outcomes and probabilities.
:func:`validate_sampler`, :meth:`BoundedSampler.draw` and
:meth:`BoundedSampler.draw_sum` feed no job (every experiment rests on the
exact law of S_n); they stay because ``perfbench/tracing.py`` pins them,
until the benchmark's revision (ROADMAP item 1) releases them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussmath import CovarianceSpec

ENUMERATION_CAP = 2**16
NORM_SLACK = 1e-12
VALIDATE_MIN_DRAWS = 10**4  # fewest draws validate_sampler accepts
LAW_MASS_TOL = 1e-12  # a sampler's declared probabilities
MASS_TOL = 1e-9  # mass rows computed from a law


class SamplerInvariantError(RuntimeError):
    """A draw violated a declared sampler invariant (hard failure)."""


def lattice_distance(x: np.ndarray, spacing: float | np.ndarray) -> np.ndarray:
    """Euclidean distance from x to the nearest point of spacing * Z^dim.

    Accepts a single point (dim,) or a batch (..., dim); dim is x's last axis.
    ``spacing`` is a scalar or an array that broadcasts against x: a (k, 1)
    column gives each row of a (k, dim) batch its own spacing, and row i then
    equals the scalar call with ``spacing[i, 0]`` exactly (the vectorised
    ``lattice-distance`` checker relies on this).
    """
    x = np.asarray(x, dtype=float)
    resid = x - spacing * np.round(x / spacing)
    return np.sqrt(np.sum(resid**2, axis=-1))


def check_masses(probs, shape: tuple | None = None, *, tol: float = MASS_TOL,
                 name: str = "probs") -> np.ndarray:
    """``probs`` as a float array, once each row along its last axis is a law:
    finite, nonnegative masses summing to 1 within ``tol``.

    Leading axes stack rows.  ``shape``, if given, is the shape ``probs`` must
    have.  Otherwise ``ValueError``, naming ``name`` and the first bad row.  The
    two comparisons are false on NaN, so a NaN mass fails, and so does an
    infinite one, through its sum.
    """
    p = np.asarray(probs, dtype=float)
    if shape is not None and p.shape != tuple(shape):
        raise ValueError(f"{name} has shape {p.shape}, expected {tuple(shape)}")
    sums = p.sum(axis=-1)
    bad = ~(np.all(p >= 0, axis=-1) & (np.abs(sums - 1.0) <= tol))
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        row = "" if not first else f" row {first[0] if len(first) == 1 else first}"
        raise ValueError(f"{name}{row} must be finite, nonnegative and sum to 1 within {tol!r}: "
                         f"min {float(p[first].min())!r}, sum {float(sums[first])!r}")
    return p


@dataclass(frozen=True)
class BoundedSampler:
    """A mean-zero finite law with covariance ``cov`` and ||X|| <= ``bound`` a.s.

    ``outcomes`` (support, dim) and ``probs`` enumerate its support.
    """

    kind: str
    dim: int
    bound: float
    cov: CovarianceSpec
    outcomes: np.ndarray
    probs: np.ndarray

    def draw(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """(size, dim) array of i.i.d. draws."""
        idx = rng.choice(len(self.outcomes), size=size, p=self.probs)
        return self.outcomes[idx]

    def draw_sum(self, n_terms: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """(size, dim) array of i.i.d. samples of X_1 + ... + X_{n_terms}.

        Uses multinomial outcome counts (exact in distribution).
        """
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        counts = rng.multinomial(n_terms, self.probs, size=size)
        return counts.astype(float) @ self.outcomes


def _enumerated(kind: str, outcomes: np.ndarray, probs: np.ndarray) -> BoundedSampler:
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim != 2:
        raise ValueError("outcomes must be a (support, dim) array")
    if len(outcomes) > ENUMERATION_CAP:
        raise ValueError(f"support exceeds enumeration cap {ENUMERATION_CAP}")
    if not np.isfinite(outcomes).all():
        raise ValueError("outcomes must be finite")
    probs = check_masses(probs, (len(outcomes),), tol=LAW_MASS_TOL)
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


def require_lattice_support(s: BoundedSampler) -> None:
    """Check the support is contained in bound * Z^dim.

    The lower and ci experiments' hypothesis.  Rejects a support with a point
    farther than 1e-9 * beta from the lattice, measured by
    :func:`lattice_distance`.
    """
    if np.max(lattice_distance(s.outcomes, s.bound)) > 1e-9 * s.bound:
        raise ValueError(
            f"sampler kind={s.kind!r} support is not contained in beta*Z^d "
            f"(beta={s.bound})"
        )


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
