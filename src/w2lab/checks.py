"""Checker registry: every verifiable statement as a named, runnable check.

Each checker verifies one mathematical statement (an identity, an inequality
suite, or a solver contract) and emits structured verdict records.  Checkers
are pure functions of (config, root seed): a checker that draws takes its
generator from ``rng_for(seed, _CHECK_JOB, k)`` with its own k, so the
registry can be executed in any order, in parallel, with bit-identical
results.

Each checker states its records as ``Verdict(case, lhs, rhs)``: the library
functions it calls return measured quantities only, and the pass rule is
written once, in :class:`Verdict`: a record passes exactly when lhs <= rhs,
with margin rhs - lhs.  A checker folds its tolerance into the record: an
equality becomes ``(|a - b|, tol)``, a bound with an allowance ``(lhs, rhs +
tol)``.  Statistical checks widen inequalities by ``SE_FACTOR`` standard
errors; exact enumerations allow 1e-12.  Only the transportation chain flags
a record ``inconclusive``: when a step's error interval straddles its bound,
or when its two grid resolutions disagree.
A checker's records carry no labels: the job that runs it stamps them with
the checker id and the anchor written in its ``REGISTRY`` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import densities as dens
from . import qstats as qs
from . import transport as tr
from .gaussmath import (
    CovarianceSpec,
    GaussianModel,
    gaussian_exp_quadratic,
    gh_nodes_weights,
    sample_gaussian,
    w2_gaussian_diag,
)
from .samplers import (
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
    lattice_distance,
    LatticeSpec,
    SE_FACTOR,
    VALIDATE_MIN_DRAWS,
    validate_sampler,
)
from .seeding import rng_for

_CHECK_JOB = 100  # seed-path code for checker jobs


@dataclass(frozen=True)
class Verdict:
    """One checked statement instance: it passes exactly when lhs <= rhs.

    ``margin`` (rhs - lhs) and ``verdict`` derive from the record, so a NaN
    lhs fails; only a chain step whose error interval straddles its bound is
    flagged ``inconclusive``.  The job that records it supplies its checker
    id and anchor.
    """

    case: str
    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict)
    inconclusive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:  # "pass" | "fail" | "inconclusive"
        if self.inconclusive:
            return "inconclusive"
        return "pass" if self.lhs <= self.rhs else "fail"


@dataclass(frozen=True)
class CheckSuiteConfig:
    """Size knobs for the checker suite; defaults match the acceptance runs."""

    gauss_quad_instances: int = 50
    ot_instances: int = 200
    quantile_instances: int = 100
    metric_triples: int = 50
    sampler_validate_m: int = 10**6
    q_random_pairs: int = 10**5
    q_mc_pairs: int = 10**6
    l2_tables: int = 10**4
    remainder_pairs: int = 10**6
    increment_m: int = 10**6
    increment_ns: tuple = (20, 40, 80)
    chain_grid_2d: int = 24
    chain_refine: float = 1.42
    chain_radius: float = 5.0
    schedule_n_max: int = 4096

    def __post_init__(self):
        for name in ("gauss_quad_instances", "ot_instances", "quantile_instances",
                     "metric_triples", "q_random_pairs", "q_mc_pairs", "l2_tables",
                     "remainder_pairs", "increment_m", "schedule_n_max", "chain_grid_2d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sampler_validate_m < VALIDATE_MIN_DRAWS:
            raise ValueError(
                f"sampler_validate_m must be >= {VALIDATE_MIN_DRAWS}, "
                f"got {self.sampler_validate_m}"
            )
        if not self.increment_ns or min(self.increment_ns) < 2:
            raise ValueError("increment_ns must be non-empty with every n >= 2")
        if not 0 < self.chain_radius < math.inf:
            raise ValueError(f"chain_radius must be finite and > 0, got {self.chain_radius}")
        if not 1 < self.chain_refine < math.inf:
            raise ValueError(f"chain_refine must be finite and > 1, got {self.chain_refine}")
        fine = math.ceil(self.chain_grid_2d * self.chain_refine)  # ChainGrid's fine pass
        if fine**2 > tr.EXACT_CAP_DEFAULT:
            raise ValueError(
                f"chain_grid_2d * chain_refine gives a {fine}x{fine} fine grid, past "
                f"the {tr.EXACT_CAP_DEFAULT}-atom cap of exact transport"
            )


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def _tensor_gh_quadratic(a, b, v, cov, nodes=200):
    """Tensor Gauss-Hermite value of E exp(a|Z|_w^2 + b<Z,v>_w), any k.

    The exponent is a sum of one term per axis, so the tensor-rule sum over
    all ``nodes**k`` points factors into the product of the k one-axis sums;
    this is the same quadrature rule without building the k-fold grid.
    Log-weights are folded into each axis exponent before exponentiating:
    for a < 1/2 the combined exponent is bounded above, so no overflow.
    """
    x1, w1 = gh_nodes_weights(nodes)
    log_w = np.log(w1)
    axis_exponents = []
    for i in range(cov.dim):
        z = x1 * cov.sigmas[i]
        axis_exponents.append(
            a * z**2 / cov.variances[i] + b * v[i] * z / cov.variances[i] + log_w
        )
    return math.prod(float(np.exp(e).sum()) for e in axis_exponents)


def _se_units(dev, se) -> float:
    """Largest |dev| in units of ``SE_FACTOR`` standard errors (0/0 counts as 0)."""
    return float(np.max(np.abs(dev) / (SE_FACTOR * np.maximum(se, 1e-300))))


def check_gauss_quad_expectation(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 1)
    worst = 0.0
    for i in range(cfg.gauss_quad_instances):
        k = int(rng.integers(1, 4))
        cov = CovarianceSpec(rng.uniform(0.5, 2.0, size=k))
        a = float(rng.uniform(-1.0, 0.4))
        b = float(rng.uniform(-1.0, 1.0))
        v = rng.uniform(-1.0, 1.0, size=k) * cov.sigmas
        closed = gaussian_exp_quadratic(a, b, v, cov)
        quad = _tensor_gh_quadratic(a, b, v, cov)
        worst = max(worst, abs(closed - quad) / abs(closed))
    # pinned examples
    c1 = CovarianceSpec([1.0])
    v1 = gaussian_exp_quadratic(0.25, 0.0, np.zeros(1), c1)
    c2 = CovarianceSpec([1.0, 2.0])
    v2 = gaussian_exp_quadratic(-0.5, 1.0, c2.canonicalize([1.0, 2.0]), c2)
    return [
        Verdict(f"max relative error over {cfg.gauss_quad_instances} random instances",
                worst, 1e-8, {"instances": cfg.gauss_quad_instances}),
        Verdict("k=1 a=1/4 b=0 equals sqrt(2)", abs(v1 - math.sqrt(2.0)), 1e-12),
        Verdict("k=2 diag(1,4) example", abs(v2 - 0.5 * math.exp(0.5)), 1e-12),
    ]


def check_gauss_sampling(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 2)
    out = []
    for t, sigmas in ((1.0, [1.0]), (4.0, [1.0]), (1.0, [2.0, 1.0, 0.5])):
        cov = CovarianceSpec(sigmas)
        m = cfg.sampler_validate_m
        z = sample_gaussian(GaussianModel(cov, t), m, rng)
        emp = (z**2).mean(axis=0)
        target = t * cov.variances
        se = (z**2).std(axis=0, ddof=1) / math.sqrt(m)
        dev = _se_units(emp - target, se)
        out.append(Verdict(f"t={t} dim={cov.dim}", dev, 1.0, {"m": m}))
    return out


def check_w2_gaussian_metric(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 3)
    worst_tri = -math.inf
    for _ in range(cfg.metric_triples):
        d = int(rng.integers(1, 5))
        a, b, c = (CovarianceSpec(rng.uniform(0.2, 3.0, size=d)) for _ in range(3))
        ab, bc, ac = (w2_gaussian_diag(a, b), w2_gaussian_diag(b, c), w2_gaussian_diag(a, c))
        worst_tri = max(worst_tri, ac - (ab + bc))
    one = w2_gaussian_diag(CovarianceSpec([1.0]), CovarianceSpec([1.0]), 1.0, 4.0)
    return [
        Verdict("triangle inequality on random triples",
                worst_tri, 1e-9, {"triples": cfg.metric_triples}),
        Verdict("d=1 t-scales 1 vs 4 gives 1", abs(one - 1.0), 1e-12),
    ]


def check_ot_exact(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 4)
    worst = 0.0
    for _ in range(cfg.ot_instances):
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        mu = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
        nu = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
        cost, plan = tr.w2_exact(mu, nu)
        ref = tr.w2_bruteforce(mu, nu)
        worst = max(worst, abs(cost - ref))
        if not plan.check_marginals():
            worst = math.inf
    worst_q = 0.0
    for _ in range(cfg.quantile_instances):
        m = int(rng.integers(2, 40))
        xs = rng.normal(size=m)
        ys = rng.normal(size=m) + rng.normal()
        qv = tr.w2_quantile_1d(xs, ys)
        ev = math.sqrt(tr.w2_exact(
            tr.EmpiricalMeasure(xs[:, None]), tr.EmpiricalMeasure(ys[:, None])
        )[0])
        worst_q = max(worst_q, abs(qv - ev))
    return [
        Verdict(f"{cfg.ot_instances} random instances m<=7 d<=3", worst, 1e-9),
        Verdict(f"1-d quantile equals assignment on {cfg.quantile_instances} instances",
                worst_q, 1e-9),
    ]


def check_sinkhorn(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 5)
    out = []
    mu = tr.EmpiricalMeasure(np.array([[0.0], [1.0]]))
    nu = tr.EmpiricalMeasure(np.array([[1.0], [2.0]]))
    cost, diag = tr.sinkhorn_w2(mu, nu, epsilon=1e-3)
    out.append(Verdict("two-point instance within 1% of exact cost 1",
                       abs(cost - 1.0), 0.01, {"iterations": diag.iterations}))
    m, d = 200, 2
    x = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
    y = tr.EmpiricalMeasure(rng.normal(size=(m, d)) + np.array([1.2, 0.5]))
    exact = tr.w2_exact(x, y)[0]
    pair = ((x.points[:, None, :] - y.points[None, :, :]) ** 2).sum(-1)
    eps = 0.01 * float(np.median(pair))
    ent = tr.sinkhorn_w2(x, y, epsilon=eps)[0]
    rel = abs(ent - exact) / exact
    out.append(Verdict("random m=200 d=2 within 3% relative", rel, 0.03, {"epsilon": eps}))
    return out


def check_projection_lower(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 6)
    worst = -math.inf
    for _ in range(10):
        m, d = 500, 3
        mu = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
        nu = tr.EmpiricalMeasure(rng.normal(size=(m, d)) + rng.normal(size=d) * 0.3)
        dirs = rng.normal(size=(8, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        low = tr.w2_projection_lower(mu, nu, dirs)
        full = math.sqrt(tr.w2_exact(mu, nu)[0])
        worst = max(worst, low - full)
    return [Verdict("random rotations never exceed the exact value", worst, 1e-9)]


def _sampler_zoo():
    return [
        make_rademacher_product(2, 1.0),
        make_scaled_basis(4, 2.0),
        make_scaled_basis(3, math.sqrt(3.0)),
    ]


def check_sampler_zoo(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 7)
    out = []
    for s in _sampler_zoo():
        rep = validate_sampler(s, cfg.sampler_validate_m, rng)
        dev = max(_se_units(rep.mean, rep.mean_se), _se_units(rep.cov_dev, rep.cov_se))
        out.append(Verdict(f"{s.kind} d={s.dim} statistical validation", dev, 1.0,
                           {"max_norm": rep.max_norm, "beta": rep.beta, "m": rep.n_draws}))
        out.append(Verdict(f"{s.kind} d={s.dim} hard norm bound",
                           rep.max_norm, rep.beta + 1e-12))
    # rademacher sums stay on the rescaled lattice
    s = make_rademacher_product(2, 1.0)
    n = 64
    sn = s.draw_sum(n, 20000, rng) / math.sqrt(n)
    step = 1.0 / math.sqrt(n)
    resid = float(np.max(np.abs(sn / step - np.round(sn / step))))
    out.append(Verdict("normalized rademacher sums live on (scale/sqrt n) Z^d",
                       resid, 1e-12, {"n": n}))
    return out


def check_lattice_distance(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 8)
    worst = 0.0
    worst_cell = -math.inf
    for _ in range(2000):
        d = int(rng.integers(1, 4))
        ell = float(rng.uniform(0.3, 2.5))
        spec = LatticeSpec(spacing=ell, dim=d)
        x = rng.uniform(-3, 3, size=d)
        fast = float(lattice_distance(x, spec))
        base = ell * np.round(x / ell)
        offs = np.stack(np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * d), indexing="ij"), -1).reshape(-1, d)
        brute = float(np.min(np.linalg.norm(base + ell * offs - x, axis=1)))
        worst = max(worst, abs(fast - brute))
        worst_cell = max(worst_cell, fast - ell * math.sqrt(d) / 2.0)
    example = float(lattice_distance(np.array([0.3, 0.4]), LatticeSpec(1.0, 2)))
    return [
        Verdict("agrees with 3^d-neighbor brute force", worst, 1e-12),
        Verdict("never exceeds the half-diagonal", worst_cell, 1e-12),
        Verdict("d=2 point (0.3, 0.4) gives 1/2", abs(example - 0.5), 1e-12),
    ]


def check_r_of_n(cfg: CheckSuiteConfig, seed: int):
    ns = [2, 3, 5, 10, 100, 10**4, 10**6, 10**8]
    worst_lo, worst_hi = 0.0, -math.inf
    for n in ns:
        r = qs.r_of_n(n)
        worst_lo = min(worst_lo, r)
        worst_hi = max(worst_hi, r - 1.0 / (n * n - 1.0) ** 2)
    r2 = qs.r_of_n(2)
    expect = 1.0 / 6.0 - 0.5 * math.log(4.0 / 3.0)
    return [
        Verdict("lower edge over the n grid", -worst_lo, 0.0),
        Verdict("upper edge over the n grid", worst_hi, 0.0),
        Verdict("r(2) equals 1/6 - log(4/3)/2", abs(r2 - expect), 1e-16),
        # r(10^6) >= 0 is the lower-edge record: 10^6 is on the n grid
        Verdict("r(10^6) below 1e-12", qs.r_of_n(10**6), 1e-12),
    ]


def _q_zoo():
    return [
        (make_rademacher_product(1, 1.0), 10),
        (make_rademacher_product(2, 1.0), 12),
        (make_scaled_basis(2, math.sqrt(2.0)), 20),
        (make_lattice_custom(
            np.array([[-1.0], [2.0]]), np.array([2.0 / 3.0, 1.0 / 3.0])), 16),
        (make_lattice_custom(
            np.array([[-1.0, -2.0], [-1.0, 2.0], [1.0, -2.0], [1.0, 2.0]]),
            np.full(4, 0.25)), 30),
    ]


def check_q_abs_estimates(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 9)
    worst_qi, worst_q, worst_qmqi = -math.inf, -math.inf, -math.inf
    for s, n in _q_zoo():
        qs.check_hypothesis(n, s.bound, s.cov)
        y = s.draw(rng, size=cfg.q_random_pairs) / math.sqrt(n)
        yp = s.draw(rng, size=cfg.q_random_pairs) / math.sqrt(n)
        qa = qs.q_values(y, yp, s.cov, n)
        rhs = qs.q_abs_bound_rhs(y, yp, s.cov, n)
        worst_qi = max(worst_qi, float(np.max(np.abs(qa) - rhs)))
        q_tot = qa.sum(axis=1)
        worst_q = max(worst_q, float(np.max(np.abs(q_tot)) - 1.0))
        wo = np.abs(q_tot[:, None] - qa)
        worst_qmqi = max(worst_qmqi, float(np.max(wo) - 1.0))
    return [
        Verdict("per-coordinate bound", worst_qi, 1e-12),
        Verdict("|Q| <= 1", worst_q, 1e-12),
        Verdict("|Q - Q_i| <= 1", worst_qmqi, 1e-12),
    ]


# rounding allowance of the exact Q-moment rules: the mean identity is an
# equality, and the cross-moment rule compares two d x d tables entrywise
_Q_EXACT_TOL = {"mean_identity": 1e-12, "cross_moment": 1e-15}
_Q_CASE = {"mean_identity": "exact mean identity"}  # other rules' cases are their names


def check_q_moments(cfg: CheckSuiteConfig, seed: int):
    out = []
    for s, n in _q_zoo():
        if not s.enumerable:
            continue
        rep = qs.estimate_q_moments(s, n, mode="exact")
        for c in rep.checks:
            out.append(Verdict(f"{s.kind} d={s.dim} n={n} {_Q_CASE.get(c.name, c.name)}",
                               c.lhs, c.rhs + _Q_EXACT_TOL.get(c.name, 0.0)))
    rng = rng_for(seed, _CHECK_JOB, 10)
    s = make_scaled_basis(2, math.sqrt(2.0))
    rep = qs.estimate_q_moments(s, 20, mode="mc", m=cfg.q_mc_pairs, rng=rng)
    worst = max((c.lhs - c.rhs) / (SE_FACTOR * rep.se_scale) for c in rep.checks)
    out.append(Verdict("scaled_basis d=2 n=20 MC suite (5 SE slack)",
                       worst, 1.0, {"pairs": cfg.q_mc_pairs}))
    return out


def check_chi2_identity(cfg: CheckSuiteConfig, seed: int):
    out = []
    worst = 0.0
    for s, n in _q_zoo():
        if s.dim > 2:
            continue
        model = dens.DensityRatioModel(s, n)
        lhs = dens.density_second_moment_lhs(model)
        rhs = dens.density_second_moment_rhs(s, n)
        dev = abs(lhs - rhs)
        worst = max(worst, dev)
        out.append(Verdict(f"{s.kind} d={s.dim} n={n}", dev, 1e-6))
        norm = dens.density_normalization(model)
        out.append(Verdict(f"{s.kind} d={s.dim} n={n} normalization", abs(norm - 1.0), 1e-8))
    m0 = dens.DensityRatioModel(None, 10, cov=CovarianceSpec([1.0]))
    lhs0 = dens.density_second_moment_lhs(m0)
    rhs0 = dens.density_second_moment_rhs(None, 10, CovarianceSpec([1.0]))
    out.append(Verdict("degenerate Y=0 cross-check", abs(lhs0 - rhs0), 1e-8))
    return out


def check_averaged_identity(cfg: CheckSuiteConfig, seed: int):
    out = []
    s1 = make_rademacher_product(1, 1.0)
    v1 = dens.averaged_second_moment(s1, 10, i=0)
    out.append(Verdict("d=1 averaging gives the constant 1", abs(v1 - 1.0), 1e-12))
    s2 = make_scaled_basis(2, math.sqrt(2.0))
    a0 = dens.averaged_second_moment(s2, 40, i=0)
    a1 = dens.averaged_second_moment(s2, 40, i=1)
    out.append(Verdict("d=2 symmetric sampler: i=1 equals i=2", abs(a0 - a1), 1e-12))
    model = dens.DensityRatioModel(s2, 40)
    x1, w1 = gh_nodes_weights(200)
    worst = 0.0
    for i in (0, 1):
        other = 1 - i
        pts = (x1 * model.cov.sigmas[other])[:, None]
        quad = float(w1 @ model.f_avg_coord(i, pts) ** 2)
        worst = max(worst, abs(quad - dens.averaged_second_moment(s2, 40, i=i)))
    out.append(Verdict("d=2 quadrature oracle on the averaged integrand", worst, 1e-6))
    return out


def check_conditional_l2(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 11)
    worst = -math.inf
    for _ in range(cfg.l2_tables):
        na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        f = rng.normal(size=(na, nb)) * float(rng.uniform(0.2, 5.0))
        pa = rng.dirichlet(np.ones(na))
        pb = rng.dirichlet(np.ones(nb))
        res = qs.conditional_l2_check(f, pa, pb)
        worst = max(worst, res["rhs"] - res["lhs"])
    const = qs.conditional_l2_check(np.full((3, 4), 2.5), np.full(3, 1 / 3), np.full(4, 0.25))
    eq_gap = abs(const["lhs"] - const["rhs"])
    return [
        Verdict(f"zero violations over {cfg.l2_tables} random tables",
                worst, 1e-12, {"worst_gap": worst}),
        Verdict("constant table is the equality case", eq_gap, 1e-12),
    ]


def check_remainder(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 12)
    a = rng.uniform(-1, 1, size=cfg.remainder_pairs)
    b = rng.uniform(-1, 1, size=cfg.remainder_pairs)
    lhs, rhs = qs.remainder_difference_batch(a, b)
    worst = float(np.max(lhs - rhs))
    ex_lhs, ex_rhs = qs.remainder_difference_batch(1.0, 0.0)
    return [
        Verdict(f"zero violations over {cfg.remainder_pairs} random pairs", worst, 1e-12),
        Verdict("endpoint example |R(1)| <= 2.5", ex_lhs, ex_rhs + 1e-12),
    ]


def check_talagrand_1d(cfg: CheckSuiteConfig, seed: int):
    out = []
    cov = CovarianceSpec([1.0])
    for shift in (0.25, 0.5, 1.0):
        def f(x, s=shift):
            return np.exp(s * x[:, 0] - 0.5 * s * s)
        model = dens.ExplicitDensityRatio(f, cov)
        rep = dens.talagrand_chain(
            model, dens.ChainGrid(points_per_axis=4096, refine=2.0, radius_sigmas=12.8)
        )
        # the worse of the two steps' upper-edge excesses over their bounds
        excess = max((rep.w2_sq - rep.rhs_entropy) + (rep.budget_w2 + rep.budget_quad),
                     (rep.rhs_entropy - rep.rhs_chi2) + rep.budget_quad)
        out += [
            Verdict(f"shift {shift}: W2^2 equals shift^2", abs(rep.w2_sq - shift**2), 1e-6),
            Verdict(f"shift {shift}: entropy RHS equals shift^2",
                    abs(rep.rhs_entropy - shift**2), 1e-6),
            Verdict(f"shift {shift}: chain ordering", excess, rep.equality_atol,
                    inconclusive=rep.verdict == "inconclusive"),
        ]
    return out


def chain_models_2d():
    """The three d=2 models certified by the chain checker."""
    u, v = 0.8, 0.6
    outs, ps = [], []
    for xa, pa in ((-u, 2.0 / 3.0), (2 * u, 1.0 / 3.0)):
        for yb, pb in ((-v, 2.0 / 3.0), (2 * v, 1.0 / 3.0)):
            outs.append((xa, yb))
            ps.append(pa * pb)
    return [
        ("scaled_basis beta=sqrt2 n=2",
         dens.DensityRatioModel(make_scaled_basis(2, math.sqrt(2.0)), 2)),
        ("rademacher scale=1 n=2",
         dens.DensityRatioModel(make_rademacher_product(2, 1.0), 2)),
        ("asymmetric product n=2",
         dens.DensityRatioModel(
             make_lattice_custom(np.array(outs), np.array(ps)), 2)),
    ]


def check_talagrand_2d(cfg: CheckSuiteConfig, seed: int):
    grid = dens.ChainGrid(
        points_per_axis=cfg.chain_grid_2d,
        refine=cfg.chain_refine,
        radius_sigmas=cfg.chain_radius,
    )
    out = []
    for name, model in chain_models_2d():
        try:
            rep = dens.talagrand_chain(model, grid)
        except dens.InconclusiveGridError:
            out.append(Verdict(f"{name}: grid resolution", 1.0, 0.0, inconclusive=True))
            continue
        # each step records the upper edge of its error interval
        out.append(Verdict(f"{name}: W2^2 <= entropy RHS",
                           rep.w2_sq + rep.budget_w2 + rep.budget_quad,
                           rep.rhs_entropy + rep.equality_atol,
                           {"raw": rep.w2_sq_raw, "budget": rep.budget_w2},
                           inconclusive=rep.verdict_w2_entropy == "inconclusive"))
        out.append(Verdict(f"{name}: entropy RHS <= chi-square RHS",
                           rep.rhs_entropy + rep.budget_quad,
                           rep.rhs_chi2 + rep.equality_atol,
                           inconclusive=rep.verdict_entropy_chi2 == "inconclusive"))
    return out


def check_increment(cfg: CheckSuiteConfig, seed: int):
    rng = rng_for(seed, _CHECK_JOB, 13)
    out = []
    cov = CovarianceSpec([1.0])
    n0 = 25
    chk = bnd.increment_bound_check(None, n0, cfg.increment_m, rng, cov=cov)
    exact = w2_gaussian_diag(cov, cov, float(n0), float(n0 - 1))
    out.append(Verdict("degenerate X=0 estimator calibration",
                       abs(chk.w2_hat - exact), 0.02, {"m": cfg.increment_m}))
    s = make_rademacher_product(1, 2.0)
    for n in cfg.increment_ns:
        chk = bnd.increment_bound_check(s, n, cfg.increment_m, rng)
        out.append(Verdict(f"k=1 beta=2 n={n} (need 50% margin)", chk.w2_hat,
                           0.5 * chk.bound, {"bound": chk.bound, "m": cfg.increment_m}))
    return out


def check_naive_w2(cfg: CheckSuiteConfig, seed: int):
    v = bnd.naive_w2_upper([1.0, 0.5], [1.0, 0.5], 2, 0.7)
    base = bnd.naive_w2_upper([0.5, 0.5], [0.5, 0.5], 0, 0.0)
    tail = bnd.naive_w2_upper([1.0, 4.0], [1.0, 4.0], 1, 0.0)
    return [
        Verdict("k=d leaves the head distance unchanged", abs(v - 0.7), 1e-12),
        Verdict("k=0 with matched moments stays below 2 beta", base, 2.0, {"value": base}),
        Verdict("tail adds 2 n sigma^2 under the root", abs(tail - math.sqrt(8.0)), 1e-12),
    ]


def check_ank_schedule(cfg: CheckSuiteConfig, seed: int):
    out = []
    for sigmas, beta in (([1.0], 1.0), ([1.0, 0.5], 1.3), ([2.0, 1.0, 0.25], 2.5)):
        cov = CovarianceSpec(sigmas)
        table = bnd.ank_bound_schedule(cfg.schedule_n_max, cov, beta)
        worst = -math.inf
        for n in range(1, cfg.schedule_n_max + 1):
            for k in range(1, cov.dim + 1):
                worst = max(worst, table.bounds[n, k] - table.envelope(n, k))
        out.append(Verdict(f"sigmas={sigmas} beta={beta} envelope", worst, 1e-9))
        first_row = float(np.max(table.bounds[1, 1:]))
        out.append(Verdict(f"sigmas={sigmas} base row below 2 beta", first_row, 2.0 * beta))
        zero_col = float(np.max(np.abs(table.bounds[:, 0])))
        out.append(Verdict(f"sigmas={sigmas} k=0 column is zero", zero_col, 0.0))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckerEntry:
    checker_id: str
    anchor: str
    runner: Callable[[CheckSuiteConfig, int], list]


REGISTRY: tuple[CheckerEntry, ...] = (
    CheckerEntry("gauss-quad-expectation", "quadratic-exponential Gaussian moment formula", check_gauss_quad_expectation),
    CheckerEntry("gauss-sampling", "Gaussian sampling matches t*Sigma within 5 SE", check_gauss_sampling),
    CheckerEntry("w2-gaussian-metric", "closed-form W2 between diagonal Gaussians is a metric", check_w2_gaussian_metric),
    CheckerEntry("ot-exact", "exact assignment equals factorial brute force", check_ot_exact),
    CheckerEntry("sinkhorn", "entropic cost approaches the exact assignment cost", check_sinkhorn),
    CheckerEntry("projection-lower", "1-d projections lower-bound the full W2", check_projection_lower),
    CheckerEntry("sampler-zoo", "mean-zero, covariance, and norm-bound sampler hypotheses", check_sampler_zoo),
    CheckerEntry("lattice-distance", "nearest-lattice-point distance: brute force and cell bound", check_lattice_distance),
    CheckerEntry("r-of-n", "log-correction constant bracket 0 <= r(n) <= 1/(n^2-1)^2", check_r_of_n),
    CheckerEntry("q-abs-estimates", "|Q_i|, |Q|, and |Q - Q_i| estimates under the n-hypothesis", check_q_abs_estimates),
    CheckerEntry("q-moments", "Q moment identity and bounds (mean, cross, square, total)", check_q_moments),
    CheckerEntry("chi2-identity", "density-ratio second moment: quadrature equals exponential-moment form", check_chi2_identity),
    CheckerEntry("averaged-identity", "coordinate-averaged second moment equals the Q-sum with one term removed", check_averaged_identity),
    CheckerEntry("conditional-l2", "conditional second-moment inequality on product tables", check_conditional_l2),
    CheckerEntry("exp-remainder", "cubic Taylor remainder difference bound on [-1, 1]^2", check_remainder),
    CheckerEntry("talagrand-1d", "transportation inequality: shifted-Gaussian equality case", check_talagrand_1d),
    CheckerEntry("talagrand-2d", "weighted transportation chain: W2^2 <= entropy RHS <= chi-square RHS", check_talagrand_2d),
    CheckerEntry("increment-lemma", "single Gaussian replacement step: W2(Z_n, Z_{n-1}+X) <= 5 sqrt(k) beta/n", check_increment),
    CheckerEntry("naive-w2", "independent-coupling W2 bound over a coordinate split", check_naive_w2),
    CheckerEntry("ank-schedule", "double induction stays under the 5 sqrt(k) beta (1 + log n) envelope", check_ank_schedule),
)


def checker_ids() -> list[str]:
    return [e.checker_id for e in REGISTRY]


def checker_entry(checker_id: str) -> CheckerEntry:
    for entry in REGISTRY:
        if entry.checker_id == checker_id:
            return entry
    raise KeyError(f"unknown checker {checker_id!r}")
