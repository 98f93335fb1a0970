"""Checker registry: every verifiable statement as a named, runnable check.

Each checker verifies one mathematical statement (an identity, an inequality
suite, or a solver contract) and emits structured verdict records.  The
registry holds the paper's statements and the primitives a verdict runs:
Gauss-Hermite quadrature, the Gaussian-mixture transport of the chain and
the increment step, and the exact halfspace statistic (against enumeration
and an exact integer binomial CDF).  No verdict rests on the exact
assignment or the cloud quantile coupling, so they have no checker: Tier-1's
``tests/test_transport.py`` certifies them; nor on Gaussian sampling, which
``tests/test_gaussmath.py`` certifies.  The library's Sinkhorn and
projection solvers feed no verdict and have no checker; nor do the atomic
and LP solvers and the density cell masses: no job runs them; kept for
perfbench's pin (ROADMAP item 1).  No checker loads SciPy.  Checkers are
pure functions of their generator: a checker that draws draws only from the
generator its job passes in (:func:`w2lab.cli.run_job` keys it by the job
id), so the registry can be executed in any order, in parallel, with
bit-identical results.  Every checker size is a constant of this module.

Each checker states its records as ``Verdict(case, lhs, rhs)``.  The library
functions it calls return measured quantities only, and name no rule: a
record's case text, closed-form side and allowance are written here, side by
side (the Q-moment lemma's five rules in :func:`check_q_moments`, the
transportation chain's two steps in ``_chain_records``).  The verdict rule is
written once, in :class:`w2lab.reporting.Verdict` (imported here, so
``checks.Verdict`` names it too), on sides that are points or intervals: pass
when the left side lies at or below the right, inconclusive while the two
overlap, else fail.  A checker folds its tolerance into the record: an
equality becomes ``(|a - b|, tol)``, a bound with an allowance
``(lhs, rhs + tol)``.  No record rests on a standard error: exact
enumerations allow 1e-12.  The chain's steps are intervals, a quadrature
value +- its error budget.  A record over many instances takes its worst case
with ``np.max`` (``np.min``) over the collected values, which keeps a NaN from
any instance, so the rule fails it; Python's ``max`` drops a NaN that is not
its first argument.
A checker's records carry no labels: the job that runs it stamps them with
the checker id and the anchor written in its ``REGISTRY`` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import densities as dens
from . import qstats as qs
from . import transport as tr
from .experiments import (
    DIAGONAL_FRAME,
    LatticeWalk,
    conversion_bound,
    expected_lattice_distance,
    halfspace_distance,
    walk_gap,
    walk_pmf,
)
from .gaussmath import (
    GH_NODES_DEFAULT,
    CovarianceSpec,
    gaussian_exp_quadratic,
    gh_budget,
    gh_nodes_weights,
    norm_cdf,
    w2_gaussian_diag,
)
from .reporting import Verdict
from .samplers import (
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
    lattice_distance,
)

# the increment checker's law and its n values (its hypothesis needs n >= 5),
# the terms of the lattice floor's Poisson series, and the mean shift of the
# halfspace instance N(shift, 1)
INCREMENT_SAMPLER = make_rademacher_product(1, 2.0)
INCREMENT_NS = (20, 40, 80)
FLOOR_SERIES_TERMS = 20
HALFSPACE_SHIFT = 0.5
# the random instances of the quadrature and lattice records, the metric's
# random triples, the conditional-L2 tables (each at most L2_SIDE x L2_SIDE),
# the remainder pairs and the chunk they are drawn in, and the largest n the
# schedule replays
GAUSS_QUAD_INSTANCES = 50
LATTICE_INSTANCES = 2000
METRIC_TRIPLES = 50
L2_TABLES = 10**4
L2_SIDE = 8
REMAINDER_PAIRS = 10**6
REMAINDER_CHUNK = 10**5
SCHEDULE_N_MAX = 4096


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


def check_gauss_quad_expectation(rng: np.random.Generator):
    errs = []
    for i in range(GAUSS_QUAD_INSTANCES):
        k = int(rng.integers(1, 4))
        cov = CovarianceSpec(rng.uniform(0.5, 2.0, size=k))
        a = float(rng.uniform(-1.0, 0.4))
        b = float(rng.uniform(-1.0, 1.0))
        v = rng.uniform(-1.0, 1.0, size=k) * cov.sigmas
        closed = gaussian_exp_quadratic(a, b, v, cov)
        quad = _tensor_gh_quadratic(a, b, v, cov)
        errs.append(abs(closed - quad) / abs(closed))
    # pinned examples
    c1 = CovarianceSpec([1.0])
    v1 = gaussian_exp_quadratic(0.25, 0.0, np.zeros(1), c1)
    c2 = CovarianceSpec([1.0, 2.0])
    v2 = gaussian_exp_quadratic(-0.5, 1.0, c2.canonicalize([1.0, 2.0]), c2)
    return [
        Verdict(f"max relative error over {GAUSS_QUAD_INSTANCES} random instances",
                np.max(errs), 1e-8, {"instances": GAUSS_QUAD_INSTANCES}),
        Verdict("k=1 a=1/4 b=0 equals sqrt(2)", abs(v1 - math.sqrt(2.0)), 1e-12),
        Verdict("k=2 diag(1,4) example", abs(v2 - 0.5 * math.exp(0.5)), 1e-12),
    ]


def check_w2_gaussian_metric(rng: np.random.Generator):
    excess = []
    for _ in range(METRIC_TRIPLES):
        d = int(rng.integers(1, 5))
        a, b, c = (CovarianceSpec(rng.uniform(0.2, 3.0, size=d)) for _ in range(3))
        ab, bc, ac = (w2_gaussian_diag(a, b), w2_gaussian_diag(b, c), w2_gaussian_diag(a, c))
        excess.append(ac - (ab + bc))
    one = w2_gaussian_diag(CovarianceSpec([1.0]), CovarianceSpec([1.0]), 1.0, 4.0)
    return [
        Verdict("triangle inequality on random triples",
                np.max(excess), 1e-9, {"triples": METRIC_TRIPLES}),
        Verdict("d=1 t-scales 1 vs 4 gives 1", abs(one - 1.0), 1e-12),
    ]


def _enumerated_gap(outcomes: np.ndarray, probs: np.ndarray, n: int) -> float:
    """The halfspace statistic of S_n from all len(probs)^n step sequences, in the
    law's own frame over the d <= 2 family written out: |F(t) - Phi| and
    |F(t-) - Phi| at each atom t of each projection.

    The sequences grow one step at a time, their sums and masses accumulated left
    to right.  Each projection is sorted once and its equal values grouped; F(t)
    and F(t-) are the cumulative group masses up to t + 1e-12 and below t - 1e-12.
    Grouping before the cumulative sum keeps its rounding to one term per atom.
    """
    sums, mass = outcomes, probs
    for _ in range(n - 1):
        sums = (sums[:, None, :] + outcomes).reshape(-1, outcomes.shape[1])
        mass = (mass[:, None] * probs).ravel()
    sums = sums / math.sqrt(n)
    gaps = []
    for a in np.eye(1) if outcomes.shape[1] == 1 else np.array([[1, 0], [0, 1], [1, 1], [1, -1]]):
        proj, sd = sums @ a, math.sqrt(probs @ (outcomes @ a) ** 2)
        order = np.argsort(proj, kind="stable")
        proj = proj[order]
        starts = np.flatnonzero(np.concatenate(([True], proj[1:] != proj[:-1])))
        atoms = proj[starts]
        cdf = np.concatenate(([0.0], np.cumsum(np.add.reduceat(mass[order], starts))))
        g = norm_cdf(atoms / sd)
        gaps += [np.abs(cdf[np.searchsorted(atoms, atoms + 1e-12, side="right")] - g),
                 np.abs(cdf[np.searchsorted(atoms, atoms - 1e-12, side="left")] - g)]
    return float(np.max(np.concatenate(gaps)))


def _binomial_half_cdf(n: int) -> np.ndarray:
    """P(K <= k) for K ~ Binomial(n, 1/2) at k = 0..n, each correctly rounded.

    The coefficients C(n, k+1) = C(n, k) (n - k) / (k + 1) and their running
    sums are exact Python integers; each sum over 2^n is an int/int true
    division, which rounds correctly.  About 8 ms at n = 4096.
    """
    term, total, scale, cdf = 1, 0, 2**n, []
    for k in range(n + 1):
        total += term
        cdf.append(total / scale)
        term = term * (n - k) // (k + 1)
    return np.array(cdf)


def check_halfspace_exact(rng: np.random.Generator):
    """The exact halfspace statistic against enumeration (laws on and off {0,
    +-beta e_i}, and a drifting walk), the Rademacher walk's law against the
    binomial CDF, and the conversion bound at N(shift, 1) against N(0, 1), whose
    W2 is the shift and whose halfspace sup is 2 Phi(shift/2) - 1; draws nothing."""
    laws = [(np.array([[1.0], [-1.0]]), np.full(2, 0.5)),
            (math.sqrt(2.0) * np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]), np.full(4, 0.25)),
            # a zero atom, unequal masses, the larger variance on the second axis
            (2.0 * np.array([[0.0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]),
             np.array([0.4, 0.1, 0.1, 0.2, 0.2])),
            # laws off {0, +-beta e_i}: rademacher_product(2), and the skewed {-1, 2} law
            (np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]), np.full(4, 0.25)),
            (np.array([[-1.0], [2.0]]), np.array([2 / 3, 1 / 3]))]
    # this drifting walk's supremum sits at a left limit
    drift, steps = np.array([0.2, 0.3, 0.5]), np.array([[-1.0], [0.0], [1.0]])
    walk = LatticeWalk(-1.0, 1.0, tuple(drift), math.sqrt(drift @ steps[:, 0] ** 2))
    errs = [abs(halfspace_distance(make_lattice_custom(o, p), n) - _enumerated_gap(o, p, n))
            for n in range(1, 7) for o, p in laws]
    errs += [abs(walk_gap(walk, n) - _enumerated_gap(steps, drift, n)) for n in range(1, 7)]
    n = 4096
    return [
        Verdict("halfspace_distance equals enumeration of S_n for n <= 6", np.max(errs), 1e-12),
        Verdict(f"d=1 Rademacher walk CDF at n={n} equals the binomial CDF",
                np.max(np.abs(np.cumsum(walk_pmf((0.5, 0.5), n)) - _binomial_half_cdf(n))),
                1e-13),
        Verdict("conversion bound dominates the shifted-Gaussian sup 2 Phi(1/4) - 1",
                2.0 * norm_cdf(HALFSPACE_SHIFT / 2.0) - 1.0, conversion_bound(1, HALFSPACE_SHIFT),
                {"w2": HALFSPACE_SHIFT}),
    ]


def _sampler_zoo():
    """Each zoo law with its family's closed form (law, v, beta), Sigma = v I:
    rademacher_product(d, scale) has v = scale^2 and beta = scale sqrt(d), and
    scaled_basis(d, beta) has v = beta^2 / d."""
    return [(make_rademacher_product(2, 1.0), 1.0**2, 1.0 * math.sqrt(2.0)),
            (make_scaled_basis(4, 2.0), 2.0**2 / 4, 2.0),
            (make_scaled_basis(3, math.sqrt(3.0)), math.sqrt(3.0)**2 / 3, math.sqrt(3.0))]


def check_sampler_zoo(rng: np.random.Generator):
    """E X = 0, E X X^T and the declared Sigma equal the closed-form Sigma, and the
    declared bound and every outcome's norm equal beta, from each law's outcomes and
    probabilities against its closed form."""
    out = []
    for s, var, beta in _sampler_zoo():
        second = (s.outcomes * s.probs[:, None]).T @ s.outcomes
        moments = np.max([np.max(np.abs(s.probs @ s.outcomes)),
                          np.max(np.abs(second - var * np.eye(s.dim))),
                          np.max(np.abs(s.cov.variances - var))])
        norms = np.linalg.norm(s.outcomes, axis=1)
        out.append(Verdict(f"{s.kind} d={s.dim} mean zero, covariance and declared Sigma {var:g} I",
                           float(moments), 1e-12, {"support": len(s.probs)}))
        out.append(Verdict(f"{s.kind} d={s.dim} bound and outcome norms equal beta={beta:g}",
                           np.max([abs(s.bound - beta), *np.abs(norms - beta)]), 1e-12))
    # rademacher sums stay on the rescaled lattice: the outcomes lie on scale Z^d,
    # which is closed under sums, so S_n / sqrt(n) lies on (scale / sqrt n) Z^d
    n = 64
    s = make_rademacher_product(2, 1.0)
    out.append(Verdict("normalized rademacher sums live on (scale/sqrt n) Z^d, as the outcomes lie on scale Z^d",
                       float(np.max(lattice_distance(s.outcomes / math.sqrt(n), 1.0 / math.sqrt(n)))),
                       1e-12, {"n": n}))
    return out


def _poisson_floor_sq(cov: CovarianceSpec, spacing: float) -> float:
    """E d_L(Z)^2, L = spacing * Z^d, by Poisson summation of each coordinate's
    squared distance to the lattice: h^2/12 + (h^2/pi^2) sum_k (-1)^k k^-2
    exp(-2 pi^2 k^2 sigma^2 / h^2), h the spacing.  An oracle independent of the
    floor's cell sum; ``FLOOR_SERIES_TERMS`` terms reach rounding for h <= 3 sigma.
    """
    k = np.arange(1, FLOOR_SERIES_TERMS + 1)[:, None]
    h2 = spacing**2
    terms = (-1.0) ** k / k**2 * np.exp(-2.0 * math.pi**2 * k**2 * cov.variances / h2)
    return math.fsum(h2 / 12.0 + h2 / math.pi**2 * terms.sum(axis=0))


def check_lattice_distance(rng: np.random.Generator):
    # every instance draws three coordinates and uses its first d
    dims = rng.integers(1, 4, size=LATTICE_INSTANCES)
    ells = rng.uniform(0.3, 2.5, size=(LATTICE_INSTANCES, 1))
    xs = rng.uniform(-3, 3, size=(LATTICE_INSTANCES, 3))
    errs, cell_excess = [], []
    for d in np.flatnonzero(np.bincount(dims)):  # the drawn dims, ascending
        x, ell = xs[dims == d, :d], ells[dims == d]
        fast = lattice_distance(x, ell)
        offs = np.stack(np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * d), indexing="ij"), -1).reshape(-1, d)
        near = (ell * np.round(x / ell))[:, None, :] + ell[:, None] * offs - x[:, None, :]
        brute = np.min(np.linalg.norm(near, axis=2), axis=1)
        errs.append(np.max(np.abs(fast - brute)))
        cell_excess.append(np.max(fast - ell[:, 0] * math.sqrt(d) / 2.0))
    example = float(lattice_distance(np.array([0.3, 0.4]), 1.0))
    # the exact floor E d_L(Z)^2 against its Poisson series, in d = 1 and 2 at
    # spacing sigma_1 and sigma_1 / 64
    worst_floor = np.max([
        abs(expected_lattice_distance(cov, spacing) ** 2 / _poisson_floor_sq(cov, spacing) - 1.0)
        for cov in (CovarianceSpec([1.0]), CovarianceSpec([1.0, 0.5]))
        for spacing in (cov.sigmas[0], cov.sigmas[0] / 64)])
    return [
        Verdict("agrees with 3^d-neighbor brute force", np.max(errs), 1e-12),
        Verdict("never exceeds the half-diagonal", np.max(cell_excess), 1e-12),
        Verdict("d=2 point (0.3, 0.4) gives 1/2", abs(example - 0.5), 1e-12),
        Verdict("exact floor^2 matches the Poisson series of E d_L(Z)^2 to 1e-10 relative",
                worst_floor, 1e-10),
    ]


def check_r_of_n(rng: np.random.Generator):
    ns = [2, 3, 5, 10, 100, 10**4, 10**6, 10**8]
    rs = [qs.r_of_n(n) for n in ns]
    r2 = qs.r_of_n(2)
    expect = 1.0 / 6.0 - 0.5 * math.log(4.0 / 3.0)
    return [
        Verdict("lower edge over the n grid", -np.min([0.0, *rs]), 0.0),
        Verdict("upper edge over the n grid",
                np.max([r - 1.0 / (n * n - 1.0) ** 2 for n, r in zip(ns, rs)]), 0.0),
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


def check_q_abs_estimates(rng: np.random.Generator):
    excess = []  # per law: (|Q_i| - bound, |Q| - 1, |Q - Q_i| - 1), each at its worst pair
    for s, n in _q_zoo():
        qs.check_hypothesis(n, s.bound, s.cov)
        y, yp, _ = qs.support_pairs(s, n)
        qa = qs.q_values(y, yp, s.cov, n)
        rhs = qs.q_abs_bound_rhs(y, yp, s.cov, n)
        q_tot = qa.sum(axis=1)
        excess.append((np.max(np.abs(qa) - rhs), np.max(np.abs(q_tot)) - 1.0,
                       np.max(np.abs(q_tot[:, None] - qa)) - 1.0))
    worst_qi, worst_q, worst_qmqi = np.max(excess, axis=0)
    return [
        Verdict("per-coordinate bound", worst_qi, 1e-12),
        Verdict("|Q| <= 1", worst_q, 1e-12),
        Verdict("|Q - Q_i| <= 1", worst_qmqi, 1e-12),
    ]


def check_q_moments(rng: np.random.Generator):
    """The Q-moment lemma on each zoo law, from its exact moments: each rule as
    (case, measured side, closed-form side, rounding allowance), k the dimension.
    The mean identity is an equality, and the cross-moment rule compares two
    k x k tables entrywise."""
    out = []
    for s, n in _q_zoo():
        rep = qs.estimate_q_moments(s, n)
        k, n2m1, var = s.dim, float(n) * n - 1.0, s.cov.variances
        # E Q_i Q_j <= n^2/(n^2-1)^2 delta_ij + n^2 E Y_i^2 Y_j^2 / (2 s_i^2 s_j^2 (n^2-1)^2)
        #              + 1/(2 (n^2-1)^2), entrywise
        cross_rhs = ((n * n) / n2m1**2 * np.eye(k)
                     + (n * n) * rep.e_yi2yj2 / (2.0 * np.outer(var, var) * n2m1**2)
                     + 1.0 / (2.0 * n2m1**2))
        rules = (
            # E Q_i = -1/(2(n^2-1)) - r(n)
            ("exact mean identity",
             np.max(np.abs(rep.e_qi - (-1.0 / (2.0 * n2m1) - qs.r_of_n(n)))), 0.0, 1e-12),
            ("cross_moment", np.max(rep.e_qiqj - cross_rhs), 0.0, 1e-15),
            # E Q_i^2 <= (2n^2 + n + 1) / (2 (n^2-1)^2)
            ("square_moment", np.max(np.diag(rep.e_qiqj)),
             (2.0 * n * n + n + 1.0) / (2.0 * n2m1**2), 0.0),
            # E (Q - Q_i) Q_i <= n k / (2 (n^2-1)^2)
            ("coupled_moment", np.max(rep.e_qmqi_qi), n * k / (2.0 * n2m1**2), 0.0),
            # E Q^2 <= 2k / (n^2-1)
            ("total_square", rep.e_q2, 2.0 * k / n2m1, 0.0),
        )
        out += [Verdict(f"{s.kind} d={k} n={n} {case}", lhs, rhs + tol)
                for case, lhs, rhs, tol in rules]
    return out


def _second_moment_records(label: str, model, rhs: float, tol: float) -> list:
    """E f^2 by quadrature equals its closed form ``rhs``, and the quadrature at
    ``GH_NODES_DEFAULT`` and half as many nodes agree to 1e-8 relative."""
    fine = dens.density_second_moment_lhs(model, GH_NODES_DEFAULT)
    coarse = dens.density_second_moment_lhs(model, GH_NODES_DEFAULT // 2)
    return [Verdict(label, abs(fine - rhs), tol),
            Verdict(f"{label} quadrature at {GH_NODES_DEFAULT} and {GH_NODES_DEFAULT // 2} "
                    f"nodes agree to 1e-8 relative", abs(fine - coarse) / fine, 1e-8,
                    {"fine": fine, "coarse": coarse})]


def check_chi2_identity(rng: np.random.Generator):
    out = []
    for s, n in _q_zoo():
        if s.dim > 2:
            continue
        model = dens.DensityRatioModel(s, n)
        out += _second_moment_records(f"{s.kind} d={s.dim} n={n}", model,
                                      dens.density_second_moment_rhs(s, n), 1e-6)
        norm = dens.density_normalization(model)
        out.append(Verdict(f"{s.kind} d={s.dim} n={n} normalization", abs(norm - 1.0), 1e-8))
    cov = CovarianceSpec([1.0])
    m0 = dens.DensityRatioModel.mixture(np.zeros((1, 1)), [1.0], cov, 1 - 1 / 10)
    out += _second_moment_records("degenerate Y=0 cross-check", m0, float(np.exp(
        qs.q_values(np.zeros(1), np.zeros(1), cov, 10).sum())), 1e-8)
    return out


def check_averaged_identity(rng: np.random.Generator):
    out = []
    s1 = make_rademacher_product(1, 1.0)
    v1 = dens.averaged_second_moment(s1, 10, i=0)
    out.append(Verdict("d=1 averaging gives the constant 1", abs(v1 - 1.0), 1e-12))
    s2 = make_scaled_basis(2, math.sqrt(2.0))
    a0 = dens.averaged_second_moment(s2, 40, i=0)
    a1 = dens.averaged_second_moment(s2, 40, i=1)
    out.append(Verdict("d=2 symmetric sampler: i=1 equals i=2", abs(a0 - a1), 1e-12))
    # the oracle: E f_(i)^2 by quadrature on the marginal onto the other axis
    model = dens.DensityRatioModel(s2, 40)
    devs = [abs(model.marginal([1 - i]).gh_mean(np.square, 200) - a) for i, a in enumerate((a0, a1))]
    out.append(Verdict("d=2 quadrature oracle on the averaged integrand", np.max(devs), 1e-6))
    return out


def _flat_dirichlet_padded(sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One flat Dirichlet law on ``sizes[t]`` coordinates per row, zero past them.

    A flat Dirichlet on L2_SIDE coordinates, restricted to its first k and
    renormalised, is the flat Dirichlet on k.
    """
    p = rng.dirichlet(np.ones(L2_SIDE), size=len(sizes))
    p = np.where(np.arange(L2_SIDE) < sizes[:, None], p, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def check_conditional_l2(rng: np.random.Generator):
    # each (na, nb) table sits in an L2_SIDE x L2_SIDE slot whose extra rows and
    # columns carry zero mass, which adds nothing to either side
    sizes = rng.integers(1, L2_SIDE + 1, size=(2, L2_TABLES))
    f = rng.normal(size=(L2_TABLES, L2_SIDE, L2_SIDE))
    f *= rng.uniform(0.2, 5.0, size=(L2_TABLES, 1, 1))
    res = qs.conditional_l2_check(f, _flat_dirichlet_padded(sizes[0], rng),
                                  _flat_dirichlet_padded(sizes[1], rng))
    worst = float(np.max(res["rhs"] - res["lhs"]))
    const = qs.conditional_l2_check(np.full((3, 4), 2.5), np.full(3, 1 / 3), np.full(4, 0.25))
    eq_gap = abs(const["lhs"] - const["rhs"])
    return [
        Verdict(f"zero violations over {L2_TABLES} random tables",
                worst, 1e-12, {"worst_gap": worst}),
        Verdict("constant table is the equality case", eq_gap, 1e-12),
    ]


def check_remainder(rng: np.random.Generator):
    # one chunk's arrays at a time: all the pairs in one piece would lift the
    # process's peak memory by about 45 MB
    excess = []
    for _ in range(REMAINDER_PAIRS // REMAINDER_CHUNK):
        lhs, rhs = qs.remainder_difference_batch(*rng.uniform(-1, 1, size=(2, REMAINDER_CHUNK)))
        excess.append(np.max(lhs - rhs))
    ex_lhs, ex_rhs = qs.remainder_difference_batch(1.0, 0.0)
    return [
        Verdict(f"zero violations over {REMAINDER_PAIRS} random pairs", np.max(excess), 1e-12),
        Verdict("endpoint example |R(1)| <= 2.5", ex_lhs, ex_rhs + 1e-12),
    ]


def _chain_records(label: str, rep: dens.ChainReport, inputs: dict) -> list:
    """The chain's two steps for one model, each an estimate +- its budget against
    the next term, which gets a rounding allowance of max(1e-10, 1e-8 max|side|).
    The W2^2 step's estimate is KR, which bounds W2^2 from above and carries KR's
    budget and the quadrature's; W2^2 >= 0 clips its lower edge."""
    allow = max(1e-10, 1e-8 * max(abs(rep.kr), abs(rep.rhs_entropy), abs(rep.rhs_chi2)))
    kr, quad = rep.kr_budget + rep.budget_quad, rep.budget_quad
    return [Verdict(f"{label}: W2^2 <= entropy RHS", (max(rep.kr - kr, 0.0), rep.kr + kr),
                    rep.rhs_entropy + allow, inputs),
            Verdict(f"{label}: entropy RHS <= chi-square RHS",
                    (rep.rhs_entropy - quad, rep.rhs_entropy + quad),
                    rep.rhs_chi2 + allow, inputs)]


def check_talagrand_1d(rng: np.random.Generator):
    out = []
    cov = CovarianceSpec([1.0])
    for shift in (0.25, 0.5, 1.0):
        # N(shift, 1) against N(0, 1): a one-atom mixture with the reference's variance
        rep = dens.talagrand_chain(dens.DensityRatioModel.mixture([[shift]], [1.0], cov, 1.0))
        out += [
            Verdict(f"shift {shift}: W2^2 equals shift^2", abs(rep.kr - shift**2), 1e-12),
            Verdict(f"shift {shift}: entropy RHS equals shift^2",
                    abs(rep.rhs_entropy - shift**2), 1e-12),
            *_chain_records(f"shift {shift}", rep, {}),
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


def check_talagrand_2d(rng: np.random.Generator):
    """Both chain steps for each model, then two oracles of KR: for the rademacher
    product law KR is exact, the sum of its coordinates' 1-d distances; the
    scaled_basis law is that product law turned by 45 degrees, so its exact W2^2,
    the same sum in the turned frame, lies at or below KR."""
    models = dict(chain_models_2d())
    reports = {name: dens.talagrand_chain(model) for name, model in models.items()}
    out = [v for name, rep in reports.items() for v in _chain_records(name, rep, {
        "budget_kr": rep.budget_kr, "budget_kr_inner": rep.budget_kr_inner,
        "budget_quad": rep.budget_quad})]

    def marginal(name, frame):  # the marginal W2^2 sum and its Gauss-Hermite budget
        fine, coarse = (dens.marginal_w2_sq(models[name], frame, nodes)
                        for nodes in (GH_NODES_DEFAULT, GH_NODES_DEFAULT // 2))
        return fine, gh_budget(fine, coarse)

    name = "rademacher scale=1 n=2"
    exact, budget = marginal(name, np.eye(2))
    out.append(Verdict(f"{name}: KR equals the exact product W2^2 to 1e-10 relative",
                       abs(reports[name].kr / exact - 1.0), 1e-10,
                       {"budget_exact": budget, "budget_kr_inner": reports[name].budget_kr_inner}))
    name = "scaled_basis beta=sqrt2 n=2"
    rep = reports[name]
    rotated, budget = marginal(name, DIAGONAL_FRAME)
    out.append(Verdict(f"{name}: exact W2^2 in the 45-degree frame <= KR",
                       (rotated - budget, rotated + budget),
                       (rep.kr - rep.kr_budget, rep.kr + rep.kr_budget),
                       {"budget_rotated": budget, "budget_kr": rep.budget_kr,
                        "budget_kr_inner": rep.budget_kr_inner}))
    return out


def check_increment(rng: np.random.Generator):
    cov = CovarianceSpec([1.0])
    n0 = 25
    w2 = tr.w2_gaussian_mixture_1d([0.0], [1.0], math.sqrt(n0 - 1), math.sqrt(n0))
    exact = w2_gaussian_diag(cov, cov, float(n0), float(n0 - 1))
    out = [Verdict("degenerate X=0 against the closed form", abs(w2 - exact), 1e-12)]
    for n in INCREMENT_NS:
        chk = bnd.increment_bound_check(INCREMENT_SAMPLER, n)
        out.append(Verdict(f"k=1 beta=2 n={n} (need 50% margin)",
                           (chk.w2 - chk.budget, chk.w2 + chk.budget),
                           0.5 * chk.bound, {"bound": chk.bound, "budget_inner": chk.budget}))
    return out


def check_naive_w2(rng: np.random.Generator):
    v = bnd.naive_w2_upper([1.0, 0.5], [1.0, 0.5], 2, 0.7)
    base = bnd.naive_w2_upper([0.5, 0.5], [0.5, 0.5], 0, 0.0)
    tail = bnd.naive_w2_upper([1.0, 4.0], [1.0, 4.0], 1, 0.0)
    return [
        Verdict("k=d leaves the head distance unchanged", abs(v - 0.7), 1e-12),
        Verdict("k=0 with matched moments stays below 2 beta", base, 2.0, {"value": base}),
        Verdict("tail adds 2 n sigma^2 under the root", abs(tail - math.sqrt(8.0)), 1e-12),
    ]


# (sigmas, beta) of each covariance the schedule checker replays
SCHEDULE_CASES = (([1.0], 1.0), ([1.0, 0.5], 1.3), ([2.0, 1.0, 0.25], 2.5))


def check_ank_schedule(rng: np.random.Generator):
    out = []
    ns = np.arange(1, SCHEDULE_N_MAX + 1)
    for sigmas, beta in SCHEDULE_CASES:
        cov = CovarianceSpec(sigmas)
        table = bnd.ank_bound_schedule(SCHEDULE_N_MAX, cov, beta)
        worst = np.max([table[1:, k] - bnd.rate_envelope(k, beta, ns)
                        for k in range(1, cov.dim + 1)])
        out.append(Verdict(f"sigmas={sigmas} beta={beta} envelope", worst, 1e-9))
        first_row = float(np.max(table[1, 1:]))
        out.append(Verdict(f"sigmas={sigmas} base row below 2 beta", first_row, 2.0 * beta))
        zero_col = float(np.max(np.abs(table[:, 0])))
        out.append(Verdict(f"sigmas={sigmas} k=0 column is zero", zero_col, 0.0))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckerEntry:
    checker_id: str
    anchor: str
    runner: Callable[[np.random.Generator], list]


REGISTRY: tuple[CheckerEntry, ...] = (
    CheckerEntry("gauss-quad-expectation", "quadratic-exponential Gaussian moment formula", check_gauss_quad_expectation),
    CheckerEntry("w2-gaussian-metric", "closed-form W2 between diagonal Gaussians is a metric", check_w2_gaussian_metric),
    CheckerEntry("halfspace-exact", "exact halfspace statistic: enumeration, binomial CDF, and the 5 d^{1/6} W2^{2/3} conversion at a shifted Gaussian", check_halfspace_exact),
    CheckerEntry("sampler-zoo", "mean-zero, covariance, and norm-bound sampler hypotheses, exactly from the enumerated laws", check_sampler_zoo),
    CheckerEntry("lattice-distance", "nearest-lattice-point distance: brute force, cell bound and the exact Gaussian floor", check_lattice_distance),
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
