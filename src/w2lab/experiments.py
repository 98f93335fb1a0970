"""End-to-end experiments: rate reproduction, lattice floor, halfspace distance.

Each experiment takes its leg's dataclass config, the run's root seed and the
leg's index (1 for the ``d1`` job, 2 for ``d2``), and draws every stream
from ``rng_for(seed, <experiment code>, leg, <grid point>[, <replica>])``
through the documented splitting rule.  Distinct jobs therefore never share
a stream, under one root seed or across seeds, and reports are
bit-identical across runs and across worker counts.  Experiments return
plain report dataclasses; the pass/fail verdicts are decided from them in
:mod:`w2lab.cli`, and serialization lives in :mod:`w2lab.reporting`.

The sampler's dimension picks the W2 estimator
(:func:`w2lab.transport.estimate_w2`): the quantile coupling in one
dimension, exact assignment otherwise.  A config checks at construction
everything that depends on it alone (the sampler builds, the n grid, the
cloud sizes against the exact-assignment cap, the lower leg's lattice
support), so a bad config fails before any compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, roots_legendre, stdtrit

from .gaussmath import CovarianceSpec, GaussianModel, sample_gaussian
from .samplers import (
    SE_FACTOR,
    BoundedSampler,
    LatticeSpec,
    lattice_distance,
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
    make_sphere_uniform,
    require_lattice_support,
)
from .seeding import rng_for
from .transport import EXACT_CAP_DEFAULT, estimate_w2
# perfbench/test_perfbench.py checks that its tracer rebinds this name here
from .transport import w2_exact  # noqa: F401

# job-path codes for the seed-splitting rule: distinct first components keep
# every experiment's streams disjoint under one root seed; the second
# component is the leg
_RATE_JOB = 1
_LOWER_W2_JOB = 2
_LOWER_PROXY_JOB = 3
_CI_JOB = 4
_CI_W2_JOB = 5
_CI_CALIBRATION_JOB = 6
# Gaussian draws below which the lattice-distance Monte Carlo is too noisy
LATTICE_MC_MIN = 10**5
# mean shift of the ci calibration instance N(shift, 1) against N(0, 1)
CALIBRATION_SHIFT = 0.5


@dataclass(frozen=True)
class SamplerSpec:
    """Config-file description of a sampler; ``build()`` realizes it.

    ``outcomes``/``probs`` (tuples of tuples / tuple of floats) describe a
    lattice_custom support and are ignored by the parametric kinds.
    """

    kind: str
    dim: int
    scale: float = 1.0  # rademacher scale, or beta for basis/sphere kinds
    outcomes: Optional[tuple] = None
    probs: Optional[tuple] = None

    def build(self) -> BoundedSampler:
        if self.kind == "rademacher_product":
            return make_rademacher_product(self.dim, self.scale)
        if self.kind == "scaled_basis":
            return make_scaled_basis(self.dim, self.scale)
        if self.kind == "sphere_uniform":
            return make_sphere_uniform(self.dim, self.scale)
        if self.kind == "lattice_custom":
            if self.outcomes is None or self.probs is None:
                raise ValueError("lattice_custom needs explicit outcomes and probs")
            outs = np.asarray(self.outcomes, dtype=float)
            if outs.ndim != 2 or outs.shape[1] != self.dim:
                raise ValueError(
                    f"outcomes must be rows of length dim={self.dim}"
                )
            return make_lattice_custom(outs, np.asarray(self.probs, dtype=float))
        raise ValueError(f"unknown sampler kind {self.kind!r}")


def _direction_set(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The d coordinate axes followed by ``count`` random unit directions."""
    dirs = rng.standard_normal((count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.concatenate([np.eye(d), dirs])


class _ExperimentLeg:
    """The derived W2 estimator and the checks every experiment config shares."""

    @property
    def estimator(self) -> str:
        """``quantile_1d`` for a one-dimensional sampler, ``exact`` otherwise."""
        return "quantile_1d" if self.sampler.dim == 1 else "exact"

    def _check_leg(self, cloud: int) -> BoundedSampler:
        """Check the n grid (stored as ints) and the W2 cloud size; return the sampler."""
        s = self.sampler.build()
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or grid[0] < 1:
            raise ValueError("n grid must be non-empty with every n >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if cloud < 1:
            raise ValueError(f"need at least 1 point per W2 cloud, got {cloud}")
        if self.sampler.dim > 1 and cloud > EXACT_CAP_DEFAULT:
            raise ValueError(
                f"exact assignment is capped at {EXACT_CAP_DEFAULT} points "
                f"per cloud, got {cloud}"
            )
        return s


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateExperimentConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple = tuple(2**k for k in range(4, 13))
    replicas: int = 10
    m: int = 10**5

    def __post_init__(self):
        self._check_leg(self.m)
        if self.replicas < 3:
            raise ValueError("need replicas >= 3 for CI reporting")


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log y), y the replica-mean W2.

    The ci experiment fits its decay slope of log delta_hat the same way.
    """

    slope: float
    intercept: float
    correlation: float


@dataclass(frozen=True)
class RatePoint:
    n: int
    w2_hat: float  # replica mean
    ci_lo: float
    ci_hi: float
    bound: float
    replica_values: tuple


@dataclass(frozen=True)
class RateReport:
    config: RateExperimentConfig
    points: tuple
    fit: RateFit


def main_rate_bound(d: int, beta: float, n: int) -> float:
    """The main upper bound 5 sqrt(d) beta (1 + log n) / sqrt(n)."""
    return 5.0 * math.sqrt(d) * beta * (1.0 + math.log(n)) / math.sqrt(n)


def _loglog_fit(xs, ys) -> RateFit:
    """Least-squares line through (log x, log y); one point has no correlation."""
    log_x = np.log(xs)
    log_y = np.log(ys)
    a = np.vstack([log_x, np.ones_like(log_x)]).T
    slope, intercept = np.linalg.lstsq(a, log_y, rcond=None)[0]
    corr = np.corrcoef(log_x, log_y)[0, 1] if log_x.size > 1 else math.nan
    return RateFit(
        slope=float(slope), intercept=float(intercept), correlation=float(corr)
    )


def _replica_ci(values: np.ndarray) -> tuple[float, float]:
    r = len(values)
    mean = float(values.mean())
    half = float(
        stdtrit(r - 1, 0.975) * values.std(ddof=1) / math.sqrt(r)
    )
    return mean - half, mean + half


def clt_rate_experiment(cfg: RateExperimentConfig, seed: int, leg: int) -> RateReport:
    """Estimate W2(S_n, Z) over the n grid, with the rate bound at each n.

    S_n = n^{-1/2} (X_1 + ... + X_n) is sampled through the sampler's exact
    sum fast path; each replica draws a fresh (S_n cloud, Z cloud) pair.
    """
    s = cfg.sampler.build()
    model = GaussianModel(s.cov, 1.0)
    points = []
    for i_n, n in enumerate(cfg.n_grid):
        vals = []
        bound = main_rate_bound(s.dim, s.bound, n)
        for r in range(cfg.replicas):
            rng = rng_for(seed, _RATE_JOB, leg, i_n, r)
            sn = s.draw_sum(n, cfg.m, rng) / math.sqrt(n)
            z = sample_gaussian(model, cfg.m, rng)
            vals.append(estimate_w2(sn, z))
        arr = np.array(vals)
        lo, hi = _replica_ci(arr)
        points.append(
            RatePoint(
                n=n, w2_hat=float(arr.mean()), ci_lo=lo, ci_hi=hi,
                bound=bound, replica_values=tuple(vals),
            )
        )
    fit = _loglog_fit([p.n for p in points], [p.w2_hat for p in points])
    return RateReport(config=cfg, points=tuple(points), fit=fit)


# ---------------------------------------------------------------------------
# Lattice lower bound
# ---------------------------------------------------------------------------

def expected_lattice_distance(
    cov: CovarianceSpec, spec: LatticeSpec, m: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of E d_L(Z), Z ~ N(0, Sigma).

    A certified lower-bound ingredient: for S_n supported on the lattice,
    W2(S_n, Z) >= E d_L(Z) up to the MC error.
    """
    if m < LATTICE_MC_MIN:
        raise ValueError(f"need m >= {LATTICE_MC_MIN} draws for a stable estimate")
    z = sample_gaussian(GaussianModel(cov, 1.0), m, rng)
    d = lattice_distance(z, spec)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(m))


def unit_cell_mean_distance(dim: int) -> float:
    """Mean distance to the cell center over the unit cube, by quadrature.

    Scales to a lattice of spacing L as L * value; 1/4 in one dimension,
    about 0.3826 in two.  The integrand |x| has a kink at the origin, so the
    60-node Gauss-Legendre rule runs over symmetric subregions where it is
    smooth (for d = 2, the octant substitution y = t x makes the radial
    factor polynomial).
    """
    x, w = roots_legendre(60)
    if dim == 1:
        # 2 * integral of x over [0, 1/2]
        u = 0.25 * (x + 1.0)
        return float(2.0 * (0.25 * w) @ u)
    if dim == 2:
        # 8 congruent octants; on {0 <= y <= x <= 1/2} substitute y = t x:
        # integral = (int_0^{1/2} x^2 dx) * (int_0^1 sqrt(1+t^2) dt)
        t = 0.5 * (x + 1.0)
        radial = float((0.5 * w) @ np.sqrt(1.0 + t**2))
        return 8.0 * (0.5**3 / 3.0) * radial
    raise ValueError("unit-cell constant implemented for dim in {1, 2}")


@dataclass(frozen=True)
class LowerBoundPoint:
    n: int
    ell_n: float
    sqrtn_w2_hat: float
    sqrtn_proxy: float
    proxy_se: float
    percube_measured: float  # measured per-cube mean distance / ell_n
    percube_quadrature: float  # quadrature value of the same constant
    percube_claim_half_sqrtd: float  # the 0.5*sqrt(d) comparison constant


@dataclass(frozen=True)
class LowerBoundReport:
    dim: int
    beta: float
    target: float  # sqrt(d) * beta / 4
    points: tuple
    plateau_value: float  # sqrt(n) * proxy at the largest n

    @property
    def plateau_vs_target(self) -> float:
        return self.plateau_value / self.target


@dataclass(frozen=True)
class LowerExperimentConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple = (64, 256, 1024, 4096)
    m_w2: int = 10**5
    m_proxy: int = 2 * 10**5

    def __post_init__(self):
        require_lattice_support(self._check_leg(self.m_w2))
        if self.m_proxy < LATTICE_MC_MIN:
            raise ValueError(
                f"need m_proxy >= {LATTICE_MC_MIN} draws, got {self.m_proxy}"
            )


def lattice_lower_experiment(
    cfg: LowerExperimentConfig, seed: int, leg: int
) -> LowerBoundReport:
    """Track sqrt(n) * W2 and the certified lattice proxy along the n grid.

    The sampler takes values in beta * Z^d (checked by the config).  At scale n the
    normalized sum lives on the lattice with spacing ell_n = beta / sqrt(n),
    so E d_L(Z) with that spacing lower-bounds W2(S_n, Z); its sqrt(n)-scaled
    plateau is compared against sqrt(d) * beta / 4.
    """
    s = cfg.sampler.build()
    model = GaussianModel(s.cov, 1.0)
    cell_const = unit_cell_mean_distance(s.dim)
    points = []
    for i_n, n in enumerate(cfg.n_grid):
        ell = s.bound / math.sqrt(n)
        spec = LatticeSpec(spacing=ell, dim=s.dim)
        rng_p = rng_for(seed, _LOWER_PROXY_JOB, leg, i_n)
        proxy, se = expected_lattice_distance(s.cov, spec, cfg.m_proxy, rng_p)
        rng_w = rng_for(seed, _LOWER_W2_JOB, leg, i_n)
        sn = s.draw_sum(n, cfg.m_w2, rng_w) / math.sqrt(n)
        z = sample_gaussian(model, cfg.m_w2, rng_w)
        w2_hat = estimate_w2(sn, z)
        # measured per-cube constant: mean distance of uniform cell points
        u = (rng_p.random((10**5, s.dim)) - 0.5) * ell
        percube = float(np.sqrt((u**2).sum(axis=1)).mean()) / ell
        points.append(
            LowerBoundPoint(
                n=n,
                ell_n=ell,
                sqrtn_w2_hat=math.sqrt(n) * w2_hat,
                sqrtn_proxy=math.sqrt(n) * proxy,
                proxy_se=math.sqrt(n) * se,
                percube_measured=percube,
                percube_quadrature=cell_const,
                percube_claim_half_sqrtd=0.5 * math.sqrt(s.dim),
            )
        )
    target = math.sqrt(s.dim) * s.bound / 4.0
    return LowerBoundReport(
        dim=s.dim,
        beta=s.bound,
        target=target,
        points=tuple(points),
        plateau_value=points[-1].sqrtn_proxy,
    )


# ---------------------------------------------------------------------------
# Halfspace (convex-indicator proxy) experiment
# ---------------------------------------------------------------------------

def ks_statistic_gaussian(proj: np.ndarray, sd: float) -> float:
    """Exact sup_t |F_hat(t) - Phi(t/sd)| for a 1-d sample."""
    x = np.sort(np.asarray(proj, dtype=float))
    m = x.size
    cdf = ndtr(x / sd)
    hi = np.max(np.arange(1, m + 1) / m - cdf)
    lo = np.max(cdf - np.arange(0, m) / m)
    return float(max(hi, lo))


@dataclass(frozen=True)
class HalfspacePoint:
    n: int
    delta_hat: float
    w2_hat: float
    rhs: float  # 5 d^{1/6} w2^{2/3}
    slack: float  # statistical widening added before the verdict


@dataclass(frozen=True)
class HalfspaceConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple = tuple(2**k for k in range(4, 13))
    m: int = 10**5
    w2_m: Optional[int] = None  # defaults to m
    directions: int = 16

    @property
    def w2_cloud(self) -> int:
        """Points per cloud in the W2 estimate: ``w2_m``, or ``m`` when unset."""
        return self.m if self.w2_m is None else self.w2_m

    def __post_init__(self):
        self._check_leg(self.w2_cloud)
        if self.m < 1 or self.directions < 0:
            raise ValueError("need m >= 1 and directions >= 0")


@dataclass(frozen=True)
class HalfspaceReport:
    config: HalfspaceConfig
    points: tuple
    decay_slope: float  # slope of log delta_hat vs log n


def halfspace_slack(m: int) -> float:
    """Statistical widening of a halfspace-frequency check on m draws.

    ``SE_FACTOR`` binomial standard errors at their largest, 0.5/sqrt(m):
    the measured frequency is estimated while the Gaussian side is exact.
    """
    return SE_FACTOR * 0.5 / math.sqrt(m)


def conversion_bound(d: int, w2: float) -> float:
    """The convex-indicator conversion 5 d^{1/6} W2^{2/3}."""
    return 5.0 * d ** (1.0 / 6.0) * w2 ** (2.0 / 3.0)


def halfspace_distance(
    sn: np.ndarray, cov: CovarianceSpec, directions: np.ndarray
) -> float:
    """Sup over sampled halfspaces of |P_hat(S in A) - P(Z in A)|.

    Halfspaces {x : <x, u> <= t} scan all t for each direction u; the
    Gaussian side is the exact 1-d normal CDF of <Z, u>.  A restricted
    supremum, hence a certified lower bound on the full convex-set distance.
    """
    best = 0.0
    for u in directions:
        sd = math.sqrt(float(np.sum(u * u * cov.variances)))
        best = max(best, ks_statistic_gaussian(sn @ u, sd))
    return best


def ci_halfspace_experiment(
    cfg: HalfspaceConfig, seed: int, leg: int
) -> HalfspaceReport:
    """Measure the halfspace distance and the conversion bound along the n grid.

    Each point carries :func:`halfspace_slack` for its m draws, by which the
    verdict widens the conversion bound.
    """
    s = cfg.sampler.build()
    model = GaussianModel(s.cov, 1.0)
    slack = halfspace_slack(cfg.m)
    points = []
    for i_n, n in enumerate(cfg.n_grid):
        rng = rng_for(seed, _CI_JOB, leg, i_n)
        sn = s.draw_sum(n, cfg.m, rng) / math.sqrt(n)
        dirs = _direction_set(s.dim, cfg.directions, rng)
        delta_hat = halfspace_distance(sn, s.cov, dirs)
        rng_w = rng_for(seed, _CI_W2_JOB, leg, i_n)
        sn_w = s.draw_sum(n, cfg.w2_cloud, rng_w) / math.sqrt(n)
        z_w = sample_gaussian(model, cfg.w2_cloud, rng_w)
        w2_hat = estimate_w2(sn_w, z_w)
        points.append(
            HalfspacePoint(
                n=n, delta_hat=delta_hat, w2_hat=w2_hat,
                rhs=conversion_bound(s.dim, w2_hat), slack=slack,
            )
        )
    fit = _loglog_fit(
        [p.n for p in points], [max(p.delta_hat, 1e-12) for p in points]
    )
    return HalfspaceReport(config=cfg, points=tuple(points), decay_slope=fit.slope)


@dataclass(frozen=True)
class CalibrationResult:
    delta_hat: float
    delta_exact: float
    w2: float
    rhs: float


def ci_calibration(m: int, rng: np.random.Generator) -> CalibrationResult:
    """Shifted-Gaussian calibration of the halfspace machinery.

    N(shift, 1) against N(0, 1) with ``shift = CALIBRATION_SHIFT``: the exact
    halfspace supremum is 2 Phi(shift/2) - 1 at the midpoint threshold, W2
    equals shift, and the conversion bound is evaluated at the exact W2.
    """
    x = rng.standard_normal(m) + CALIBRATION_SHIFT
    w2 = CALIBRATION_SHIFT
    return CalibrationResult(
        delta_hat=ks_statistic_gaussian(x, 1.0),
        delta_exact=2.0 * float(ndtr(CALIBRATION_SHIFT / 2.0)) - 1.0,
        w2=w2,
        rhs=conversion_bound(1, w2),
    )


def bentkus_reference_curve(d: int, n: int, beta3: float) -> float:
    """Reference-only convex-distance curve d^{1/4} beta3^3 / sqrt(n).

    Plot overlay with the constant taken as 1; never asserted against
    measurements (non-normative).
    """
    return d**0.25 * beta3**3 / math.sqrt(n)
