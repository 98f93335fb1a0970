"""Wasserstein-2 distances between empirical and discrete measures.

Solver menu:

* :func:`w2_atoms_gaussian_1d` -- exact W2 between a finite law on the line
  and a centred Gaussian: a closed-form sum over the Gaussian's quantile
  cells.  The experiments' W2(S_n, Z) on every law with lattice factors.
* :func:`w2_exact` -- equal-size uniform clouds via the shortest-augmenting-path
  assignment solver (`scipy.optimize.linear_sum_assignment`, Jonker-Volgenant
  family).  Exact; returns W2^2 and the plan (callers take the square
  root).  Clouds past ``EXACT_CAP_DEFAULT`` points raise
  :class:`SolverCapacityError`.  No job runs it, so no checker certifies
  it: Tier-1's ``tests/test_transport.py`` compares it with
  :func:`w2_bruteforce` and :func:`w2_quantile_1d`.  It stays because
  ``perfbench/tracing.py`` pins it, until the benchmark's revision (ROADMAP
  item 1) releases it.  A solve holds one m x m float64 cost matrix
  (72 MB at m = 3000, 200 MB at the cap), built in place by
  :func:`_pair_cost`.
* :func:`w2_bruteforce` -- the oracle that certifies :func:`w2_exact` on at
  most ``BRUTEFORCE_CAP`` points: all m! pairings scored in one indexed sum
  over a cached permutation array; independent of the assignment solver.
* :func:`w2_quantile_1d` -- monotone (quantile) coupling, optimal in one
  dimension; Tier-1 compares it with :func:`w2_exact`.
* :func:`estimate_w2` -- the cloud rule: the quantile coupling for 1-d
  clouds, exact assignment otherwise.  No job runs it, since every
  experiment rests on the exact law; it stays because
  ``perfbench/tracing.py`` pins it, until the benchmark's revision (ROADMAP
  item 1) releases it.
* :func:`w2_gaussian_mixture_1d` -- exact W2 between a 1-d Gaussian mixture
  with a common variance and a centred Gaussian: the forward monotone map
  x -> Phi^-1(F(x)) integrated against each component by Gauss-Hermite, with
  no root-finding; the increment step's distance, and, for a stack of mass
  rows in one call, every inner term of the transportation chain's
  Knothe-Rosenblatt cost.
* :func:`sinkhorn_w2` -- entropic approximation with epsilon scaling, for
  unequal sizes; no job runs it, and it stays because
  ``perfbench/tracing.py`` pins it, until the benchmark's revision (ROADMAP
  item 1) releases it.
* :func:`w2_projection_lower` -- certified lower bound in any dimension via
  1-d projections; no job runs it.
* :func:`w2_atomic_1d` / :func:`w2_discrete_lp` -- exact optimal transport
  between weighted atomic measures, which the transportation-inequality
  chain's density grids used: no job runs it; kept for perfbench's pin
  (ROADMAP item 1).  Both share the north-west-corner plan
  :func:`_north_west_corner`.  On the line, that plan of the sorted atoms is
  the monotone coupling, which is optimal, so :func:`w2_atomic_1d` is its
  cost.  In any dimension it seeds the linear program, which is solved by
  column generation: HiGHS solves it on a sparse candidate set
  of pairs (each source's nearest targets plus the north-west-corner plan),
  and every pair whose reduced cost under the restricted duals is negative
  joins the set for the next solve.  Once none is, the duals are feasible
  for the full problem, so the restricted optimum is the full optimum to the
  HiGHS feasibility tolerances (``LP_TOL`` = 1e-10).

This module imports no SciPy at load time.  The two exact solvers,
:func:`w2_atoms_gaussian_1d` and :func:`w2_gaussian_mixture_1d`, take Phi
and Phi^-1 from :func:`w2lab.gaussmath.norm_cdf` and
:func:`w2lab.gaussmath.norm_ppf`, and the mixture's Gauss-Hermite nodes
from :func:`w2lab.gaussmath.gh_nodes_weights`, which loads no SciPy either.
The SciPy users left are pinned code that no job runs; each imports what it
needs on its first call:

* :func:`w2_exact` and :func:`w2_discrete_lp`: ``scipy.optimize`` (and the
  LP's ``scipy.sparse``), with the ``scipy.linalg`` they pull in, about
  0.2 s;
* :func:`sinkhorn_w2`: ``scipy.special.logsumexp``.

So no job of ``w2lab all``, checker or experiment leg, loads SciPy.

Every solver that takes masses (a finite law's, a mixture's mass rows, an
atomic measure's weights) checks them with the package's one mass check,
:func:`w2lab.samplers.check_masses`: one per atom, finite, nonnegative and
summing to 1 within 1e-9, else ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussmath import GH_NODES_DEFAULT, gh_nodes_weights, norm_cdf, norm_ppf
from .samplers import check_masses

EXACT_CAP_DEFAULT = 5000
BRUTEFORCE_CAP = 8  # m! pairings: 40320 at the cap
# rows of the cost matrix per block when the squared norms are added in,
# values per list handed to math.fsum, and mass rows per block of the mixture
# distance: the scratch each path allocates
_COST_ROW_BLOCK = 256
_FSUM_CHUNK = 65536
MIXTURE_ROW_BLOCK = 16
# column generation in w2_discrete_lp: nearest targets seeded per source,
# HiGHS feasibility tolerances, and the reduced cost below which a pair enters
LP_SEED_NEIGHBOURS = 16
LP_TOL = 1e-10
LP_PRICING_TOL = 1e-12


class SolverCapacityError(ValueError):
    """Instance exceeds the exact solver's configured size cap."""


class SinkhornConvergenceError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance within max_iters."""

    def __init__(self, message: str, marginal_violation: float):
        super().__init__(message)
        self.marginal_violation = marginal_violation


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight point cloud: points (m, d), each with mass 1/m."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a non-empty (m, d) array")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two uniform equal-size clouds.

    ``pairing[i]`` is the target index matched to source i (each pair carries
    mass 1/m), and ``cost`` is sum_i ||x_i - y_{pairing[i]}||^2 / m, i.e. the
    squared W2 distance.
    """

    pairing: np.ndarray
    cost: float

    def check_marginals(self) -> bool:
        seen = np.bincount(self.pairing, minlength=len(self.pairing))
        return bool(np.all(seen == 1))


def _pair_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared-distance cost matrix ``max(|x_i|^2 + |y_j|^2 - 2<x_i, y_j>, 0)``.

    Built in the one (m, n) buffer the Gram product returns: it is scaled by
    -2 in place, and the rounded norm sums ``|x_i|^2 + |y_j|^2`` are added
    ``_COST_ROW_BLOCK`` rows at a time.  Every entry is rounded exactly as in
    ``xx + yy - 2.0 * (x @ y.T)``, so no second (m, n) array is needed.
    """
    xx = np.sum(x**2, axis=1)
    yy = np.sum(y**2, axis=1)
    c = x @ y.T
    c *= -2.0
    for r in range(0, len(c), _COST_ROW_BLOCK):
        block = c[r:r + _COST_ROW_BLOCK]
        block += xx[r:r + _COST_ROW_BLOCK, None] + yy
    np.maximum(c, 0.0, out=c)
    return c


def _fsum(values: np.ndarray) -> float:
    """Exact ``math.fsum`` of a 1-d array, fed ``_FSUM_CHUNK`` values at a time."""
    return math.fsum(itertools.chain.from_iterable(
        values[i:i + _FSUM_CHUNK].tolist() for i in range(0, len(values), _FSUM_CHUNK)
    ))


def w2_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> tuple[float, TransportPlan]:
    """Exact squared-W2 and optimal plan between equal-size uniform clouds.

    Returns (cost, plan) with cost = W2^2; the distance is sqrt(cost).  The
    final cost is accumulated with exact summation so large clouds do not
    lose digits.  The solve holds one m x m float64 cost matrix: 72 MB at
    m = 3000, 200 MB at ``EXACT_CAP_DEFAULT`` = 5000.
    """
    if mu.size != nu.size:
        raise ValueError(f"equal point counts required ({mu.size} vs {nu.size})")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.size > EXACT_CAP_DEFAULT:
        raise SolverCapacityError(f"cloud size {mu.size} exceeds cap {EXACT_CAP_DEFAULT}")
    from scipy.optimize import linear_sum_assignment

    c = _pair_cost(mu.points, nu.points)
    rows, cols = linear_sum_assignment(c)
    pairing = np.empty(mu.size, dtype=np.intp)
    pairing[rows] = cols
    cost = _fsum(c[rows, cols]) / mu.size
    return cost, TransportPlan(pairing=pairing, cost=cost)


@functools.cache
def _permutations(m: int) -> np.ndarray:
    """All m! orderings of range(m), one per row, as a cached read-only array."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.uint8)
    perms.flags.writeable = False
    return perms


def w2_bruteforce(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Reference oracle: minimum cost over all m! pairings (m <= 8 only).

    Each pairing's cost is a row sum of the cost matrix indexed by
    :func:`_permutations`, the float sum a loop over the pairings computes.
    Kept independent of the assignment solver, to certify :func:`w2_exact`.
    """
    if mu.size != nu.size:
        raise ValueError("equal point counts required")
    if mu.size > BRUTEFORCE_CAP:
        raise SolverCapacityError(f"brute force capped at {BRUTEFORCE_CAP} points")
    c = _pair_cost(mu.points, nu.points)
    return float(c[np.arange(mu.size), _permutations(mu.size)].sum(axis=1).min()) / mu.size


def w2_quantile_1d(xs: np.ndarray, ys: np.ndarray) -> float:
    """W2 between equal-size 1-d samples via the monotone coupling.

    Sorting both samples realizes the optimal coupling in one dimension, so
    this equals :func:`w2_exact` on 1-d input at a fraction of the cost.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("empty sample")
    if xs.size != ys.size:
        raise ValueError(f"equal sample sizes required ({xs.size} vs {ys.size})")
    d = np.sort(xs)
    d -= np.sort(ys)
    d *= d
    return math.sqrt(_fsum(d) / xs.size)


def estimate_w2(sn: np.ndarray, z: np.ndarray) -> float:
    """W2 between two equal-size clouds, by the coupling their dimension picks.

    One-dimensional clouds use the monotone (quantile) coupling; higher
    dimensions use exact assignment, which raises past ``EXACT_CAP_DEFAULT``
    points per cloud.
    """
    if sn.shape[1] == 1:
        return w2_quantile_1d(sn[:, 0], z[:, 0])
    cost, _ = w2_exact(EmpiricalMeasure(sn), EmpiricalMeasure(z))
    return math.sqrt(cost)


def w2_atoms_gaussian_1d(atoms: np.ndarray, probs: np.ndarray, sd: float) -> float:
    """Exact W2 between a finite law on the line, atoms in increasing order,
    and N(0, sd^2).

    The monotone coupling is optimal in 1-d: atom k takes the Gaussian's
    quantile cell [t_{k-1}, t_k] (in sd units), whose mass p_k is its own,
    with t_k = Phi^-1(P(X <= a_k)).  With c = a_k / sd the cell costs
    ``int (a_k - sd t)^2 dN``, which is sd^2 times (1 + c^2) p_k less the
    increment of (t - 2c) phi(t) from t_{k-1} to t_k; the outer ends, at
    -+inf, contribute nothing, and atoms of zero mass own no cell.
    Breakpoints above the median come from the upper-tail sums, so the
    right-hand cells keep their tail probabilities at full relative
    precision.  The cells are summed exactly.  ``probs``, one per atom, pass
    :func:`w2lab.samplers.check_masses`.

    Refs: Bobkov, *Berry-Esseen bounds and Edgeworth expansions in the CLT
    for transport distances*, PTRF 170 (2018).
    """
    a = np.asarray(atoms, dtype=float).ravel()
    p = check_masses(np.ravel(probs), a.shape)
    keep = p > 0
    c, p = a[keep] / sd, p[keep]
    below = np.cumsum(p)[:-1]  # P(X <= a_k), for every cell but the last
    above = np.cumsum(p[::-1])[::-1][1:]  # P(X > a_k)
    # each side clamped to its own half, where its tail sum is below 1 + rounding
    t = np.where(below <= 0.5, norm_ppf(np.minimum(below, 0.5)), -norm_ppf(np.minimum(above, 0.5)))
    phi = np.zeros(len(p) + 1)  # phi(t) at the breakpoints, the outer ends included
    phi[1:-1] = np.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    t_phi = np.zeros(len(p) + 1)
    t_phi[1:-1] = t * phi[1:-1]
    cells = (1 + c * c) * p - np.diff(t_phi) + 2 * c * np.diff(phi)
    return sd * math.sqrt(_fsum(cells))


def w2_gaussian_mixture_1d(
    atoms: np.ndarray, probs: np.ndarray, sd_mix: float, sd_ref: float,
    nodes: int = GH_NODES_DEFAULT,
) -> float:
    """Exact W2 between sum_j p_j N(a_j, sd_mix^2) and N(0, sd_ref^2) on the line.

    The monotone map T = sd_ref Phi^-1(F(x)), with F the mixture CDF, is the
    optimal coupling in 1-d, so W2^2 = int (x - T(x))^2 dF: a sum over the
    components of p_j E (x_j - T(x_j))^2 with x_j = a_j + sd_mix t, t ~
    N(0, 1), each a Gauss-Hermite sum of ``nodes`` terms.  No quantile is
    solved for: F(x_j) = sum_i p_i Phi(t + (a_j - a_i) / sd_mix), and the
    Phi values do not depend on the masses, so a stack of mass rows shares
    one table of 2 J^2 ``nodes`` of them (both tails).  Phi^-1 takes the
    lower tail where F <= 1/2 and the upper tail otherwise, so both keep full
    relative precision, and the result is clipped to the bracket [(x - max
    a) / sd_mix, (x - min a) / sd_mix] that F's own bounds give, which also
    keeps it finite where a tail sum underflows.  Along each component the
    integrand is smooth however far the components lie apart, where the
    quantile function F^-1(Phi(t)) is nearly a step.

    ``probs`` may be a stack of mass rows (R, J) over the same atoms: the
    result is then the (R,) array of the rows' distances.  Each row passes
    :func:`w2lab.samplers.check_masses`: a NaN or negative mass, or a row
    whose sum is off 1 by more than 1e-9, raises ``ValueError``.  The rows
    are taken ``MIXTURE_ROW_BLOCK`` at a time, so each (rows, J, ``nodes``)
    temporary stays that small whatever R is; a row's distance does not
    depend on the block it sits in.

    Ref: Villani, *Optimal Transport: Old and New* (2009), ch. 1.
    """
    a = np.asarray(atoms, dtype=float).ravel()
    p = np.asarray(probs, dtype=float)
    rows = check_masses(p, p.shape[:-1] + a.shape).reshape(-1, a.size)  # (R, J)
    t, w = gh_nodes_weights(nodes)
    x = a[:, None] + sd_mix * t  # (J, T): the nodes of each component
    u = (x - a[:, None, None]) / sd_mix  # (I, J, T): (x_j - a_i) / sd_mix
    phis = norm_cdf(np.stack([u, -u]))
    bracket = (x - a.max()) / sd_mix, (x - a.min()) / sd_mix
    w2 = np.empty(len(rows))
    for r in range(0, len(rows), MIXTURE_ROW_BLOCK):
        block = rows[r:r + MIXTURE_ROW_BLOCK]
        below, above = (np.einsum("ri,ijt->rjt", block, phi) for phi in phis)
        lower = below <= 0.5  # F(x) <= 1/2: its own tail, else the upper one
        q = norm_ppf(np.where(lower, below, np.minimum(above, 0.5)))
        q = np.clip(np.where(lower, q, -q), *bracket)
        w2[r:r + MIXTURE_ROW_BLOCK] = np.sqrt(np.sum(block * ((x - sd_ref * q) ** 2 @ w), axis=1))
    return float(w2[0]) if p.ndim == 1 else w2


@dataclass(frozen=True)
class SinkhornDiagnostics:
    iterations: int
    marginal_violation: float
    epsilon_final: float
    epsilon_schedule: tuple


def sinkhorn_w2(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    epsilon: float,
    max_iters: int = 20000,
    tol: float = 1e-5,
) -> tuple[float, SinkhornDiagnostics]:
    """Entropic transport cost <gamma, C> via log-domain Sinkhorn.

    Runs an epsilon-scaling schedule from a coarse regularization down to the
    requested ``epsilon``, iterating at each level until the worst marginal
    violation falls below ``tol`` (final level) or a looser warm-start
    threshold (earlier levels).  Returns the unregularized transport cost of
    the final plan; the entropic bias makes it an upper-ish proxy for W2^2.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    from scipy.special import logsumexp

    c = _pair_cost(mu.points, nu.points)
    a = np.full(mu.size, 1.0 / mu.size)
    b = np.full(nu.size, 1.0 / nu.size)
    log_a = np.log(a)
    log_b = np.log(b)

    eps0 = max(epsilon, float(np.median(c[c > 0])) if np.any(c > 0) else epsilon)
    schedule = [eps0]
    while schedule[-1] > epsilon * 1.0001:
        schedule.append(max(epsilon, schedule[-1] / 4.0))
    schedule[-1] = epsilon

    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    iters_used = 0
    violation = np.inf
    for level, eps in enumerate(schedule):
        level_tol = tol if level == len(schedule) - 1 else max(tol, 1e-3)
        while iters_used < max_iters:
            m_fg = (f[:, None] + g[None, :] - c) / eps
            f = f + eps * (log_a - logsumexp(m_fg, axis=1))
            m_fg = (f[:, None] + g[None, :] - c) / eps
            g = g + eps * (log_b - logsumexp(m_fg, axis=0))
            iters_used += 1
            gamma = np.exp((f[:, None] + g[None, :] - c) / eps)
            violation = max(
                float(np.abs(gamma.sum(axis=1) - a).max()),
                float(np.abs(gamma.sum(axis=0) - b).max()),
            )
            if violation <= level_tol:
                break
        else:
            raise SinkhornConvergenceError(
                f"no convergence after {max_iters} iterations "
                f"(marginal violation {violation:.3e})",
                marginal_violation=violation,
            )
    gamma = np.exp((f[:, None] + g[None, :] - c) / epsilon)
    cost = float(np.sum(gamma * c))
    return cost, SinkhornDiagnostics(
        iterations=iters_used,
        marginal_violation=violation,
        epsilon_final=epsilon,
        epsilon_schedule=tuple(schedule),
    )


def w2_projection_lower(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, directions: np.ndarray
) -> float:
    """Max over unit directions of the projected 1-d W2: a lower bound.

    Orthogonal projection contracts every coupling's cost, so each projected
    distance, and hence the max, is <= the full W2 of the same clouds.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("directions must be unit-norm")
    best = 0.0
    for u in directions:
        best = max(best, w2_quantile_1d(mu.points @ u, nu.points @ u))
    return best


# ---------------------------------------------------------------------------
# Weighted atomic measures (density-grid transport)
# ---------------------------------------------------------------------------

def _north_west_corner(p: np.ndarray, q: np.ndarray):
    """The north-west-corner plan of p and q: (rows, cols, masses).

    The plan couples the two weight vectors in index order, as the monotone
    coupling of their cumulative sums on [0, 1]: each interval between
    consecutive cumulative breakpoints is one pair, carrying the interval's
    length as its mass.  It is feasible for any non-negative marginals of
    equal total mass and touches every atom of positive mass; atoms of zero
    mass own no interval.
    """
    cp = np.cumsum(p)
    cq = np.cumsum(q)
    edges = np.union1d(np.concatenate([[0.0], cp[:-1], cq[:-1]]), [cp[-1]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    rows = np.minimum(np.searchsorted(cp, mids), len(p) - 1)
    cols = np.minimum(np.searchsorted(cq, mids), len(q) - 1)
    return rows, cols, np.diff(edges)


def w2_atomic_1d(
    x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray
) -> float:
    """Exact squared-W2 between two weighted atomic measures on the line.

    The north-west-corner plan of the atoms in sorted order is the monotone
    coupling, which is optimal in 1-d for any marginals; its cost is summed
    exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = check_masses(p, x.shape[:1], name="p")
    q = check_masses(q, y.shape[:1], name="q")
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    rows, cols, mass = _north_west_corner(p[ox], q[oy])
    return _fsum(mass * (x[ox][rows] - y[oy][cols]) ** 2)


def w2_discrete_lp(
    x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray,
    return_plan: bool = False,
):
    """Exact squared-W2 between weighted atomic measures in R^d, via LP.

    Solves the transportation linear program by column generation: HiGHS
    solves the LP restricted to a candidate set of pairs, every pair is then
    priced against the restricted duals (u, v), and each pair outside the
    set with reduced cost ``c_ij - u_i - v_j`` below ``-LP_PRICING_TOL`` joins
    the set before the next solve.  The set starts from each source's
    ``LP_SEED_NEIGHBOURS`` nearest targets plus the support of the
    north-west-corner plan, which is feasible, so every restricted LP has a
    solution.  When no pair prices negative the duals are feasible for the
    full problem, so the restricted optimum is the full optimum (to
    ``LP_TOL``); each round adds a pair, so the loop ends.

    HiGHS runs with presolve off (it misdeclares infeasibility on marginals
    with near-zero entries) and with primal and dual feasibility tolerances
    ``LP_TOL``.  One redundant marginal constraint (the last target's) is
    dropped so the system is full rank; its dual is 0.  With
    ``return_plan`` the optimal coupling matrix (ns, nt) is returned as well;
    its marginals match p and q within solver tolerance.

    Ref: Schmitzer, *A sparse multiscale algorithm for dense optimal
    transport*, J. Math. Imaging Vis. 56 (2016), in its single-scale form.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    p = check_masses(p, x.shape[:1], name="p")
    q = check_masses(q, y.shape[:1], name="q")
    ns, nt = len(x), len(y)
    c = _pair_cost(x, y)
    k = min(LP_SEED_NEIGHBOURS, nt)
    cand = np.zeros((ns, nt), dtype=bool)
    np.put_along_axis(cand, np.argpartition(c, k - 1, axis=1)[:, :k], True, axis=1)
    cand[_north_west_corner(p, q)[:2]] = True
    b_eq = np.concatenate([p, q[:-1]])
    options = {
        "presolve": False,
        "primal_feasibility_tolerance": LP_TOL,
        "dual_feasibility_tolerance": LP_TOL,
    }
    while True:
        rows, cols = np.nonzero(cand)
        n = len(rows)
        a_eq = sparse.csr_matrix(
            (np.ones(2 * n), (np.concatenate([rows, ns + cols]), np.tile(np.arange(n), 2))),
            shape=(ns + nt, n),
        )
        res = linprog(c[rows, cols], A_eq=a_eq[:-1], b_eq=b_eq, bounds=(0, None),
                      method="highs", options=options)
        if res.status != 0:
            raise RuntimeError(f"transport LP failed: {res.message}")
        duals = res.eqlin.marginals
        u = duals[:ns]
        v = np.concatenate([duals[ns:], [0.0]])
        enter = (c - u[:, None] - v[None, :] < -LP_PRICING_TOL) & ~cand
        if not enter.any():
            break
        cand |= enter
    if return_plan:
        plan = np.zeros((ns, nt))
        plan[rows, cols] = res.x
        return float(res.fun), plan
    return float(res.fun)
