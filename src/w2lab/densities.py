"""Density ratios f = tau/rho and the transportation-inequality chain.

``rho`` is the density of the reference Gaussian Z ~ N(0, Sigma) and ``tau``
the density of Z_{1-1/n} + Y, with Y = X/sqrt(n) a rescaled bounded draw:
the Gaussian mixture sum_j p_j N(y_j, c Sigma) over the support of Y, with
the variance ratio c = 1 - 1/n (any mixture of that form, any c > 0, is a
:meth:`DensityRatioModel.mixture`).  Dividing two near-zero tails is hopeless
numerically, so f is always evaluated through its mixture representation

    f(x) = E_Y[ c^{-k/2} exp( -(1-c)|x|_w^2/(2c) + <x,Y>_w/c - |Y|_w^2/(2c) ) ],

with w the inverse-covariance weights; every term is bounded above, so the
evaluation is stable everywhere.  Coordinate averagings f_(i) (average along
axis i) and prefix averagings f_[k] (average over all but the first k axes)
reduce to the same formula on projected data.

Every integral against rho or one of its marginals (second moments,
normalization, the entropy and chi-square terms) is
the one Gauss-Hermite tensor rule :func:`w2lab.gaussmath.gh_grid`, over all
of its nodes; the mixture form keeps f finite at the outermost ones.

The chain report compares, for one model,

    W2(tau, rho)^2  <=  KR  <=  entropy telescope RHS  <=  chi-square RHS,

where the middle term is 2 * sum_k sigma_k^2 * E(f_[k] log f_[k] -
f_[k-1] log f_[k-1]) and the right term 2 * sum_i sigma_i^2 * (E f^2 -
E f_(i)^2).  KR is the Knothe-Rosenblatt cost (:func:`kr_terms`): the cost of
a feasible coupling, so an upper bound on W2^2, exact in d = 1, and each of
its coordinate terms is at most 2 sigma_k^2 times that coordinate's entropy
increment (Talagrand's inequality in 1-d and the chain rule of relative
entropy).  Each quantity is a Gauss-Hermite sum whose error budget is one
rule, :func:`_budget`; the report states each step once, as an error
interval against its bound (:meth:`ChainReport.steps`).  The budget is a
first-order error model, not a certificate.

The cell masses (``rho_cell_masses`` and both ``tau_cell_masses``) and the
atomic solvers imported here from :mod:`w2lab.transport` fed the chain's old
density grid: no job runs them; kept for perfbench's pin (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, roots_legendre, xlogy

from .gaussmath import GH_NODES_DEFAULT, CovarianceSpec, gh_grid
from .samplers import BoundedSampler
from .qstats import q_values
from .transport import w2_gaussian_mixture_1d
# perfbench/test_perfbench.py checks that its tracer rebinds these names here
from .transport import w2_atomic_1d, w2_discrete_lp  # noqa: F401

class QuadratureResolutionError(RuntimeError):
    """Self-reported quadrature failure: node counts disagree too much."""


def _mixture_eval(
    pts: np.ndarray,
    ys: np.ndarray,
    probs: np.ndarray,
    cov: CovarianceSpec,
    c: float,
) -> np.ndarray:
    """The mixture representation of f on points (N, k), c the variance ratio."""
    w = 1.0 / cov.variances
    k = cov.dim
    xn2 = (pts**2 * w).sum(axis=-1)  # |x|_w^2, (N,)
    yn2 = (ys**2 * w).sum(axis=-1)  # (s,)
    cross = (pts * w) @ ys.T  # <x, y>_w, (N, s)
    expo = (-(1.0 - c) * xn2[:, None] + 2.0 * cross - yn2[None, :]) / (2.0 * c)
    return c ** (-k / 2.0) * (np.exp(expo) @ probs)


def _support(
    sampler: Optional[BoundedSampler], n: int, cov: Optional[CovarianceSpec]
):
    """(ys, probs, cov): the support of Y = X/sqrt(n), its masses, and Sigma.

    ``sampler=None`` is the zero atom, which needs ``cov``; otherwise ``cov``
    defaults to the sampler's covariance.
    """
    if cov is None:
        if sampler is None:
            raise ValueError("cov is required for the zero sampler")
        cov = sampler.cov
    if sampler is None:
        return np.zeros((1, cov.dim)), np.ones(1), cov
    return sampler.outcomes / math.sqrt(n), sampler.probs, cov


def _gauss_cell_masses_1d(edges: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (edges - mean) / sd
    cdf = ndtr(z)
    return np.diff(cdf)


class _RatioBase:
    """The reference Gaussian of :class:`DensityRatioModel`, and the cell masses
    of the chain's old density grid: no job runs them; kept for perfbench's pin
    (ROADMAP item 1)."""

    cov: CovarianceSpec

    @property
    def dim(self) -> int:
        return self.cov.dim

    # -- reference Gaussian --------------------------------------------------
    def rho(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = 1.0 / self.cov.variances
        norm = (2.0 * math.pi) ** (-self.dim / 2.0) / float(np.prod(self.cov.sigmas))
        return norm * np.exp(-0.5 * (pts**2 * w).sum(axis=-1))

    def rho_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        per_axis = [
            _gauss_cell_masses_1d(edges[i], 0.0, self.cov.sigmas[i])
            for i in range(self.dim)
        ]
        out = per_axis[0]
        for a in per_axis[1:]:
            out = np.multiply.outer(out, a)
        return out

    def tau_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        """Cell masses of the perturbed law, generic per-cell quadrature."""
        g = 8
        xg, wg = roots_legendre(g)
        axis_pts, axis_wts = [], []
        for i in range(self.dim):
            e = edges[i]
            half = 0.5 * np.diff(e)
            mid = 0.5 * (e[:-1] + e[1:])
            pts = mid[:, None] + half[:, None] * xg[None, :]  # (cells, g)
            wts = half[:, None] * wg[None, :]
            axis_pts.append(pts.ravel())
            axis_wts.append(wts.ravel())
        mesh = np.meshgrid(*axis_pts, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=-1)
        dens = self.f(flat) * self.rho(flat)
        wts = axis_wts[0]
        for a in axis_wts[1:]:
            wts = np.multiply.outer(wts, a)
        vals = dens.reshape(wts.shape) * wts
        cells = [len(edges[i]) - 1 for i in range(self.dim)]
        # collapse each axis's g quadrature points back onto its cell
        newshape = []
        for c in cells:
            newshape.extend([c, g])
        shaped = vals.reshape(newshape)
        for ax in reversed(range(1, 2 * len(cells), 2)):
            shaped = shaped.sum(axis=ax)
        return shaped


@dataclass(eq=False)  # a mixture() model has no sampler or n to compare
class DensityRatioModel(_RatioBase):
    """The ratio of law(Z_{1-1/n} + Y) to law(Z) for a bounded sampler.

    ``sampler=None`` means Y = 0 (the pure time-change ratio); ``cov``
    defaults to the sampler's covariance but may be supplied explicitly, in
    which case no moment identities are implied, only the density algebra.
    tau is the Gaussian mixture of the atoms ``_ys`` (the support of Y) with
    masses ``_probs`` and covariance ``_c`` Sigma, the variance ratio c being
    1 - 1/n; :meth:`mixture` builds the ratio of any such mixture.
    """

    sampler: Optional[BoundedSampler]
    n: int
    cov: CovarianceSpec = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        self._ys, self._probs, self.cov = _support(self.sampler, self.n, self.cov)
        self._c = 1.0 - 1.0 / self.n
        if self.sampler is not None and self.sampler.dim != self.cov.dim:
            raise ValueError("sampler and covariance dims differ")

    @classmethod
    def mixture(cls, ys, probs, cov: CovarianceSpec, c: float) -> "DensityRatioModel":
        """The ratio of sum_j p_j N(y_j, c Sigma) to N(0, Sigma), from the atoms
        (rows of ``ys``), their masses and the variance ratio c > 0; it has no
        sampler and no n."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if ys.shape[1] != cov.dim or not c > 0:
            raise ValueError(f"need atoms of dim {cov.dim} and c > 0, got {ys.shape[1]} and {c}")
        model = object.__new__(cls)
        model.sampler, model.n, model.cov = None, None, cov
        model._ys, model._probs, model._c = ys, np.asarray(probs, dtype=float), float(c)
        return model

    # scaled supports for a projection onto an index subset
    def _proj(self, idx: list[int]):
        return self._ys[:, idx], CovarianceSpec(self.cov.sigmas[idx])

    def f(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _mixture_eval(pts, self._ys, self._probs, self.cov, self._c)

    def f_prefix(self, k: int, pts: np.ndarray) -> np.ndarray:
        if not 0 <= k <= self.dim:
            raise ValueError(f"k must be in [0, {self.dim}]")
        if k == 0:
            return np.ones(np.atleast_2d(pts).shape[0])
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ys, cov = self._proj(list(range(k)))
        return _mixture_eval(pts, ys, self._probs, cov, self._c)

    def f_avg_coord(self, i: int, pts: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.dim:
            raise ValueError(f"coordinate {i} out of range")
        if self.dim == 1:
            return np.ones(np.atleast_2d(pts).shape[0])
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx = [j for j in range(self.dim) if j != i]
        ys, cov = self._proj(idx)
        return _mixture_eval(pts, ys, self._probs, cov, self._c)

    def tau(self, pts: np.ndarray) -> np.ndarray:
        return self.f(pts) * self.rho(pts)

    def tau_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        """Exact cell masses: the law is a finite mixture of Gaussians."""
        sd = self.cov.sigmas * math.sqrt(self._c)
        total = None
        for y, p in zip(self._ys, self._probs):
            per_axis = [
                _gauss_cell_masses_1d(edges[i], y[i], sd[i])
                for i in range(self.dim)
            ]
            block = per_axis[0]
            for a in per_axis[1:]:
                block = np.multiply.outer(block, a)
            total = p * block if total is None else total + p * block
        return total


# ---------------------------------------------------------------------------
# Second-moment identities
# ---------------------------------------------------------------------------

def _second_moment_quad(model: DensityRatioModel, nodes: int) -> float:
    pts, wts = gh_grid(model.cov, nodes=nodes)
    return float(wts @ model.f(pts) ** 2)


def density_second_moment_lhs(
    model: DensityRatioModel,
    nodes: int = GH_NODES_DEFAULT,
    check_tol: float = 1e-8,
) -> float:
    """E f(Z)^2 by Gauss-Hermite quadrature of f^2 against rho.

    Recomputes at half the node count and raises if the two disagree beyond
    ``check_tol`` relative, so an under-resolved grid reports itself instead
    of returning garbage.  Supported for dim <= 2.
    """
    if model.dim > 2:
        raise ValueError("quadrature second moment supported for dim <= 2")
    fine = _second_moment_quad(model, nodes)
    coarse = _second_moment_quad(model, nodes // 2)
    if abs(fine - coarse) > check_tol * max(1.0, abs(fine)):
        raise QuadratureResolutionError(
            f"quadrature self-check failed: {fine!r} vs {coarse!r} "
            f"at {nodes}/{nodes // 2} nodes"
        )
    return fine


def density_normalization(model: DensityRatioModel, nodes: int = GH_NODES_DEFAULT) -> float:
    """E f(Z), which must equal 1 (tau integrates to one)."""
    pts, wts = gh_grid(model.cov, nodes=nodes)
    return float(wts @ model.f(pts))


def density_second_moment_rhs(
    sampler: Optional[BoundedSampler],
    n: int,
    cov: Optional[CovarianceSpec] = None,
) -> float:
    """E exp(Q) over independent pairs, by exact enumeration of the support.

    The closed-form side of E f(Z)^2.
    """
    ys, probs, cov = _support(sampler, n, cov)
    q = q_values(ys[:, None, :], ys[None, :, :], cov, n).sum(axis=-1)
    w = probs[:, None] * probs[None, :]
    return float(np.sum(w * np.exp(q)))


def averaged_second_moment(
    sampler: Optional[BoundedSampler],
    n: int,
    cov: Optional[CovarianceSpec] = None,
    i: int = 0,
) -> float:
    """E f_(i)(Z)^2 = E exp(Q - Q_i) by exact enumeration."""
    ys, probs, cov = _support(sampler, n, cov)
    if not 0 <= i < cov.dim:
        raise ValueError(f"coordinate {i} out of range")
    q_all = q_values(ys[:, None, :], ys[None, :, :], cov, n)
    q_wo = q_all.sum(axis=-1) - q_all[:, :, i]
    w = probs[:, None] * probs[None, :]
    return float(np.sum(w * np.exp(q_wo)))


def _prefix_integrals(
    model: DensityRatioModel, nodes: int, integrand: Callable[[np.ndarray], np.ndarray]
) -> list:
    """[E integrand(f_[k](Z)) for k = 1..d] by quadrature on the k-dim marginals."""
    out = []
    for k in range(1, model.dim + 1):
        pts, wts = gh_grid(model.cov.head(k), nodes=nodes)
        out.append(float(wts @ integrand(model.f_prefix(k, pts))))
    return out


def prefix_second_moments(
    model: DensityRatioModel, nodes: int = GH_NODES_DEFAULT
) -> np.ndarray:
    """[E f_[k](Z)^2 for k = 0..d]; f_[0] = 1."""
    return np.array([1.0] + _prefix_integrals(model, nodes, lambda v: v**2))


# ---------------------------------------------------------------------------
# The transportation-inequality chain
# ---------------------------------------------------------------------------

# the factor scaling the difference of a chain quantity at its node count and at
# half as many into its error budget, and the Gauss-Hermite nodes per axis of the
# Knothe-Rosenblatt cost's outer expectation
CHAIN_BUDGET_FACTOR = 3.0
CHAIN_KR_NODES = 32


@dataclass(frozen=True)
class ChainReport:
    kr: float  # Knothe-Rosenblatt cost: >= W2^2, equal to it in d = 1
    rhs_entropy: float
    rhs_chi2: float
    budget_kr: float
    budget_quad: float
    equality_atol: float  # rounding allowance of both steps' bounds

    def steps(self) -> tuple:
        """The two steps as (statement, (lo, hi), bound): an estimate +- its budget
        against the next term plus ``equality_atol``; the W2^2 step's estimate is
        KR, which bounds W2^2 from above, and W2^2 >= 0 clips its lower edge."""
        kr, quad = self.budget_kr + self.budget_quad, self.budget_quad
        return (("W2^2 <= entropy RHS", (max(self.kr - kr, 0.0), self.kr + kr),
                 self.rhs_entropy + self.equality_atol),
                ("entropy RHS <= chi-square RHS", (self.rhs_entropy - quad, self.rhs_entropy + quad),
                 self.rhs_chi2 + self.equality_atol))


def _budget(fine, coarse) -> float:
    """The chain's one error budget: ``CHAIN_BUDGET_FACTOR`` times the largest change
    of a quantity between its node count and half as many."""
    return CHAIN_BUDGET_FACTOR * float(np.max(np.abs(np.subtract(fine, coarse))))


def _entropy_functional(model: DensityRatioModel, nodes: int) -> np.ndarray:
    """[E f_[k] log f_[k] for k = 0..d]; the k = 0 term is 0."""
    return np.array([0.0] + _prefix_integrals(model, nodes, lambda v: xlogy(v, v)))


def _chi2_terms(model: DensityRatioModel, nodes: int) -> np.ndarray:
    """[E f^2 - E f_(i)^2 for each i] by quadrature."""
    ef2 = _second_moment_quad(model, nodes)
    if model.dim == 1:
        return np.array([ef2 - 1.0])
    terms = []
    for i in range(model.dim):
        pts, wts = gh_grid(model.cov.drop(i), nodes=nodes)
        terms.append(ef2 - float(wts @ model.f_avg_coord(i, pts) ** 2))
    return np.array(terms)


def kr_terms(model: DensityRatioModel, nodes: int = CHAIN_KR_NODES) -> list:
    """[KR_k for each coordinate k]: the Knothe-Rosenblatt cost of tau against rho,
    coordinate by coordinate in the canonical order.

    KR_k = E_{x<k ~ tau} W2^2(tau_k(. | x<k), N(0, sigma_k^2)).  Given x<k, the
    k-th coordinate of tau = sum_j p_j N(y_j, c Sigma) is the mixture of
    N(y_jk, c sigma_k^2) with masses p_j times atom j's Gaussian density at x<k,
    so every outer node is one row of masses and one bisection
    (:func:`w2lab.transport.w2_gaussian_mixture_1d`) serves them all.  x<k ~ tau
    is a mixture too: the expectation is a tensor Gauss-Hermite sum of
    ``nodes`` per axis about each distinct prefix of the atoms.  Coupling the
    coordinates in turn is feasible, so sum_k KR_k >= W2^2(tau, rho), with
    equality in d = 1 and for a product law.

    Refs: Villani, *Optimal Transport: Old and New* (2009), ch. 1;
    Santambrogio, *Optimal Transport for Applied Mathematicians* (2015), 2.3.
    """
    live = model._probs > 0
    ys, probs = model._ys[live], model._probs[live]
    sd = model.cov.sigmas * math.sqrt(model._c)
    terms = []
    for k in range(model.dim):
        prefixes, owner = np.unique(ys[:, :k], axis=0, return_inverse=True)
        # sd is non-increasing, so the grid keeps the axes in order
        z, w = gh_grid(CovarianceSpec(sd[:k]), nodes) if k else (np.zeros((1, 0)), np.ones(1))
        x = (prefixes[:, None, :] + z).reshape(len(prefixes) * len(w), k)
        weight = np.outer(np.bincount(owner.ravel(), weights=probs), w).ravel()
        log_m = np.log(probs) - 0.5 * (((x[:, None, :] - ys[:, :k]) / sd[:k]) ** 2).sum(axis=-1)
        masses = np.exp(log_m - log_m.max(axis=1, keepdims=True))
        masses /= masses.sum(axis=1, keepdims=True)
        # atoms that share coordinate k share one inner component
        values, col = np.unique(ys[:, k], return_inverse=True)
        masses = masses @ (col.ravel()[:, None] == np.arange(len(values)))
        w2 = w2_gaussian_mixture_1d(values, masses, sd[k], model.cov.sigmas[k])
        terms.append(math.fsum(weight * w2**2))
    return terms


def marginal_w2_sq(model: DensityRatioModel, frame: np.ndarray) -> float:
    """sum_i W2^2 of tau's and rho's i-th coordinates in an orthonormal ``frame``
    (its rows): a lower bound on W2^2(tau, rho), since a coupling's cost is the
    sum of its coordinates' costs, and equal to it where tau and rho are both
    products in that frame."""
    frame = np.asarray(frame, dtype=float)
    ys = model._ys @ frame.T
    sd_ref = np.sqrt(frame**2 @ model.cov.variances)
    return math.fsum(
        w2_gaussian_mixture_1d(col, model._probs, math.sqrt(model._c) * sd, sd) ** 2
        for col, sd in zip(ys.T, sd_ref))


def talagrand_chain(model: DensityRatioModel) -> ChainReport:
    """Evaluate the chain W2^2 <= KR <= entropy-RHS <= chi2-RHS for one model.

    KR (:func:`kr_terms`) at ``CHAIN_KR_NODES`` outer nodes and the two right
    sides at ``GH_NODES_DEFAULT`` nodes per axis each get the one budget rule
    :func:`_budget` against half as many nodes.
    """
    if model.dim not in (1, 2):
        raise ValueError("the chain is computed for dim in {1, 2} only")
    var = model.cov.variances

    def sides(nodes: int) -> tuple:  # (entropy RHS, chi-square RHS)
        return (float((2.0 * var * np.diff(_entropy_functional(model, nodes))).sum()),
                float((2.0 * var * _chi2_terms(model, nodes)).sum()))

    kr, kr_coarse = (math.fsum(kr_terms(model, m)) for m in (CHAIN_KR_NODES, CHAIN_KR_NODES // 2))
    (rhs_entropy, rhs_chi2), coarse = sides(GH_NODES_DEFAULT), sides(GH_NODES_DEFAULT // 2)
    return ChainReport(
        kr=kr,
        rhs_entropy=rhs_entropy,
        rhs_chi2=rhs_chi2,
        budget_kr=_budget(kr, kr_coarse),
        budget_quad=_budget((rhs_entropy, rhs_chi2), coarse),
        equality_atol=max(1e-10, 1e-8 * max(abs(kr), abs(rhs_entropy), abs(rhs_chi2))),
    )
