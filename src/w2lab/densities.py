"""Density ratios f = tau/rho and the transportation-inequality chain.

``rho`` is the density of the reference Gaussian Z ~ N(0, Sigma) and ``tau``
the density of Z_{1-1/n} + Y, with Y = X/sqrt(n) a rescaled bounded draw:
the Gaussian mixture sum_j p_j N(y_j, c Sigma) over the support of Y, with
the variance ratio c = 1 - 1/n.  A model is built from a sampler and n, or
as any mixture of that form, any c > 0, by :meth:`DensityRatioModel.mixture`,
whose masses pass the package's one mass check,
:func:`w2lab.samplers.check_masses`.  Dividing two near-zero tails is hopeless
numerically, so f is always evaluated through its mixture representation

    f(x) = E_Y[ c^{-k/2} exp( -(1-c)|x|_w^2/(2c) + <x,Y>_w/c - |Y|_w^2/(2c) ) ],

with w the inverse-covariance weights; every term is bounded above, so the
evaluation is stable everywhere.  f averaged over some axes against rho is
the ratio of the marginals on the others, the same formula on the projected
atoms (:meth:`DensityRatioModel.marginal`, a model of its own): coordinate
averagings f_(i) (along axis i) and prefix averagings f_[k] (over all but the
first k axes) are marginals.

Every integral against rho or one of its marginals (second moments,
normalization, the entropy and chi-square terms) is one
:meth:`DensityRatioModel.gh_mean` on the model or a marginal: the tensor rule
:func:`w2lab.gaussmath.gh_grid` over all of its nodes, on f evaluated once per
model and node count (the mixture form keeps f finite at the outermost
nodes).  Marginals are cached, so in d = 2 the entropy's k = 1 term and the
chi-square term for i = 1 share one.  The sum is numpy's fixed-order pairwise
one, not a BLAS dot, whose threaded reduction moves the last bits with the
thread count: no value depends on the host's cores or ``OPENBLAS_NUM_THREADS``.

The chain report compares, for one model,

    W2(tau, rho)^2  <=  KR  <=  entropy telescope RHS  <=  chi-square RHS,

where the middle term is 2 * sum_k sigma_k^2 * E(f_[k] log f_[k] -
f_[k-1] log f_[k-1]) and the right term 2 * sum_i sigma_i^2 * (E f^2 -
E f_(i)^2).  KR is the Knothe-Rosenblatt cost (:func:`kr_terms`): the cost of
a feasible coupling, so an upper bound on W2^2, exact in d = 1, and each of
its coordinate terms is at most 2 sigma_k^2 times that coordinate's entropy
increment (Talagrand's inequality in 1-d and the chain rule of relative
entropy).  Each quantity is a Gauss-Hermite sum whose error budget is the
package's one rule, :func:`w2lab.gaussmath.gh_budget`; KR's covers both its
outer nodes and the inner sum of each mixture distance.  The report holds
the three values and their budgets only; the two steps, each an error
interval against its bound, are stated once, in :mod:`w2lab.checks`.  The
budget is a first-order error model, not a certificate.

The cell masses (``rho_cell_masses`` and both ``tau_cell_masses``) and the
atomic solvers imported here from :mod:`w2lab.transport` fed the chain's old
density grid: no job runs them; kept for perfbench's pin (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussmath import GH_NODES_DEFAULT, CovarianceSpec, gh_budget, gh_grid, norm_cdf
from .samplers import BoundedSampler, check_masses
from .qstats import q_values, support_pairs
from .transport import w2_gaussian_mixture_1d
# perfbench/test_perfbench.py checks that its tracer rebinds these names here
from .transport import w2_atomic_1d, w2_discrete_lp  # noqa: F401

def _mixture_eval(
    pts: np.ndarray,
    ys: np.ndarray,
    probs: np.ndarray,
    cov: CovarianceSpec,
    c: float,
) -> np.ndarray:
    """The mixture representation of f on points (N, k), c the variance ratio.

    The exponent (2<x, y>_w - (1 - c)|x|_w^2 - |y|_w^2) / (2c) is built and
    exponentiated in one (N, s) array, updated in place.
    """
    w = 1.0 / cov.variances
    expo = (pts * (2.0 * w)) @ ys.T  # 2<x, y>_w; doubling w is exact
    expo -= (1.0 - c) * (pts**2 * w).sum(axis=-1)[:, None]
    expo -= (ys**2 * w).sum(axis=-1)
    expo /= 2.0 * c
    return c ** (-cov.dim / 2.0) * (np.exp(expo, out=expo) @ probs)


def _gauss_cell_masses_1d(edges: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (edges - mean) / sd
    return np.diff(norm_cdf(z))


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
        from scipy.special import roots_legendre

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
    """The ratio of law(Z_{1-1/n} + Y) to law(Z) for a bounded sampler, Z ~
    N(0, Sigma) with Sigma the sampler's covariance.

    tau is the Gaussian mixture of the atoms ``_ys`` (the support of Y) with
    masses ``_probs`` and covariance ``_c`` Sigma, the variance ratio c being
    1 - 1/n.  A model is built in one of two ways: from ``(sampler, n)``, or
    by :meth:`mixture` from any such mixture; :meth:`marginal` gives the
    ratio of its marginals.  Integrals against rho are :meth:`gh_mean`.
    """

    sampler: BoundedSampler
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        s = self.sampler
        self._set_law(s.outcomes / math.sqrt(self.n), s.probs, s.cov, 1.0 - 1.0 / self.n)

    @classmethod
    def mixture(cls, ys, probs, cov: CovarianceSpec, c: float) -> "DensityRatioModel":
        """The ratio of sum_j p_j N(y_j, c Sigma) to N(0, Sigma), from the atoms
        (rows of ``ys``), their masses and the variance ratio c > 0; it has no
        sampler and no n.  The masses, one per atom, pass
        :func:`w2lab.samplers.check_masses`."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if ys.shape[1] != cov.dim or not c > 0:
            raise ValueError(f"need atoms of dim {cov.dim} and c > 0, got {ys.shape[1]} and {c}")
        probs = check_masses(probs, ys.shape[:1])
        model = object.__new__(cls)
        model.sampler, model.n = None, None
        model._set_law(ys, probs, cov, float(c))
        return model

    def _set_law(self, ys: np.ndarray, probs: np.ndarray, cov: CovarianceSpec, c: float):
        self._ys, self._probs, self.cov, self._c = ys, probs, cov, c
        self._grid_f, self._marginals = {}, {}

    def marginal(self, axes) -> "DensityRatioModel":
        """The ratio of tau's and rho's marginals on ``axes`` (f averaged over the
        others against rho): the mixture of the atoms' ``axes`` coordinates, same
        masses and c.  Cached per axis set, with its grid values; all axes give self."""
        key = tuple(sorted({int(a) for a in axes}))  # sorted keeps the sigmas' order
        if not key or key[0] < 0 or key[-1] >= self.dim:
            raise ValueError(f"axes must be a nonempty subset of range({self.dim}), got {axes}")
        if len(key) == self.dim:
            return self
        if key not in self._marginals:
            idx = list(key)
            self._marginals[key] = DensityRatioModel.mixture(
                self._ys[:, idx], self._probs, CovarianceSpec(self.cov.sigmas[idx]), self._c)
        return self._marginals[key]

    def f(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _mixture_eval(pts, self._ys, self._probs, self.cov, self._c)

    def _f_on_grid(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """(weights, f at the points) of the full rule ``gh_grid(cov, nodes)``,
        evaluated once per model and node count and shared, so both arrays are
        read-only, as :func:`w2lab.gaussmath.gh_nodes_weights`'s are."""
        if nodes not in self._grid_f:
            pts, wts = gh_grid(self.cov, nodes=nodes)
            vals = self.f(pts)
            for a in (wts, vals):
                a.setflags(write=False)
            self._grid_f[nodes] = (wts, vals)
        return self._grid_f[nodes]

    def gh_mean(self, g: Callable[[np.ndarray], np.ndarray], nodes: int = GH_NODES_DEFAULT) -> float:
        """E g(f(Z)), Z ~ rho, by the full Gauss-Hermite rule of ``nodes`` per axis
        on f's cached grid values, for dim <= 2 (a 200-node rule in d = 3 has 8e6
        points); summed in numpy's fixed order, whatever BLAS's thread count."""
        if self.dim > 2:
            raise ValueError(f"Gauss-Hermite means are supported for dim <= 2, not {self.dim}")
        wts, vals = self._f_on_grid(nodes)
        return float(np.sum(wts * g(vals)))

    def f_prefix(self, k: int, pts: np.ndarray) -> np.ndarray:
        """f_[k], f averaged over all but the first k axes: the marginal on them."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"k must be in [0, {self.dim}]")
        if k == 0:
            return np.ones(np.atleast_2d(pts).shape[0])
        return self.marginal(range(k)).f(pts)

    def f_avg_coord(self, i: int, pts: np.ndarray) -> np.ndarray:
        """f_(i), f averaged along axis i: the marginal on the other axes."""
        if not 0 <= i < self.dim:
            raise ValueError(f"coordinate {i} out of range")
        if self.dim == 1:
            return np.ones(np.atleast_2d(pts).shape[0])
        return self.marginal(np.delete(np.arange(self.dim), i)).f(pts)

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

def density_second_moment_lhs(model: DensityRatioModel, nodes: int = GH_NODES_DEFAULT) -> float:
    """E f(Z)^2 by Gauss-Hermite quadrature of f^2 against rho, for dim <= 2.

    Its resolution is a record of the ``chi2-identity`` checker, which compares
    it at ``nodes`` and ``nodes // 2``.
    """
    return model.gh_mean(np.square, nodes)


def density_normalization(model: DensityRatioModel, nodes: int = GH_NODES_DEFAULT) -> float:
    """E f(Z), which must equal 1 (tau integrates to one)."""
    return model.gh_mean(lambda v: v, nodes)


def _pair_mean_exp_q(sampler: BoundedSampler, n: int, skip: int | None) -> float:
    """E exp(sum_{j in A} Q_j) over :func:`w2lab.qstats.support_pairs`; A is
    every axis but ``skip`` (``None``: every axis)."""
    if skip is not None and not 0 <= skip < sampler.dim:
        raise ValueError(f"coordinate {skip} out of range")
    y, yp, w = support_pairs(sampler, n)
    axes = [j for j in range(sampler.dim) if j != skip]
    return float(np.sum(w * np.exp(q_values(y, yp, sampler.cov, n)[:, axes].sum(axis=-1))))


def density_second_moment_rhs(sampler: BoundedSampler, n: int) -> float:
    """E exp(Q) over independent pairs, by exact enumeration of the support.

    The closed-form side of E f(Z)^2.
    """
    return _pair_mean_exp_q(sampler, n, None)


def averaged_second_moment(sampler: BoundedSampler, n: int, i: int = 0) -> float:
    """E f_(i)(Z)^2 = E exp(Q - Q_i) by exact enumeration."""
    return _pair_mean_exp_q(sampler, n, i)


def prefix_second_moments(
    model: DensityRatioModel, nodes: int = GH_NODES_DEFAULT
) -> np.ndarray:
    """[E f_[k](Z)^2 for k = 0..d]; f_[0] = 1, and f_[k] is the marginal on the
    first k axes."""
    return np.array([1.0] + [model.marginal(range(k)).gh_mean(np.square, nodes)
                             for k in range(1, model.dim + 1)])


# ---------------------------------------------------------------------------
# The transportation-inequality chain
# ---------------------------------------------------------------------------

# the Gauss-Hermite nodes per axis of the Knothe-Rosenblatt cost's outer expectation
CHAIN_KR_NODES = 32


@dataclass(frozen=True)
class ChainReport:
    kr: float  # Knothe-Rosenblatt cost: >= W2^2, equal to it in d = 1
    rhs_entropy: float
    rhs_chi2: float
    budget_kr: float  # KR's outer nodes
    budget_kr_inner: float  # the inner sums of KR's mixture distances
    budget_quad: float

    @property
    def kr_budget(self) -> float:
        """KR's whole budget: its outer nodes and its inner sums."""
        return self.budget_kr + self.budget_kr_inner


def _entropy_functional(model: DensityRatioModel, nodes: int) -> np.ndarray:
    """[E f_[k] log f_[k] for k = 0..d]; the k = 0 term is 0, and so is v log v at v = 0."""
    return np.array([0.0] + [model.marginal(range(k)).gh_mean(
        lambda v: v * np.log(np.where(v > 0, v, 1.0)), nodes) for k in range(1, model.dim + 1)])


def _chi2_terms(model: DensityRatioModel, nodes: int) -> np.ndarray:
    """[E f^2 - E f_(i)^2 for each i] by quadrature; f_(i) is 1 in d = 1."""
    ef2 = model.gh_mean(np.square, nodes)
    if model.dim == 1:
        return np.array([ef2 - 1.0])
    return np.array([ef2 - model.marginal(np.delete(np.arange(model.dim), i)).gh_mean(
        np.square, nodes) for i in range(model.dim)])


def kr_terms(
    model: DensityRatioModel, nodes: int = CHAIN_KR_NODES, inner_nodes: int = GH_NODES_DEFAULT
) -> list:
    """[KR_k for each coordinate k]: the Knothe-Rosenblatt cost of tau against rho,
    coordinate by coordinate in the canonical order.

    KR_k = E_{x<k ~ tau} W2^2(tau_k(. | x<k), N(0, sigma_k^2)).  Given x<k, the
    k-th coordinate of tau = sum_j p_j N(y_j, c Sigma) is the mixture of
    N(y_jk, c sigma_k^2) with masses p_j times atom j's Gaussian density at x<k,
    so every outer node is one row of masses, and one call of
    :func:`w2lab.transport.w2_gaussian_mixture_1d`, a Gauss-Hermite sum of
    ``inner_nodes`` per component, serves them all.  x<k ~ tau is a mixture
    too: the expectation is a tensor Gauss-Hermite sum of ``nodes`` per axis
    about each distinct prefix of the atoms.  Coupling the
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
        w2 = w2_gaussian_mixture_1d(values, masses, sd[k], model.cov.sigmas[k], inner_nodes)
        terms.append(math.fsum(weight * w2**2))
    return terms


def marginal_w2_sq(
    model: DensityRatioModel, frame: np.ndarray, nodes: int = GH_NODES_DEFAULT
) -> float:
    """sum_i W2^2 of tau's and rho's i-th coordinates in an orthonormal ``frame``
    (its rows): a lower bound on W2^2(tau, rho), since a coupling's cost is the
    sum of its coordinates' costs, and equal to it where tau and rho are both
    products in that frame.  Each term is a Gauss-Hermite sum of ``nodes`` per
    mixture component."""
    frame = np.asarray(frame, dtype=float)
    ys = model._ys @ frame.T
    sd_ref = np.sqrt(frame**2 @ model.cov.variances)
    return math.fsum(
        w2_gaussian_mixture_1d(col, model._probs, math.sqrt(model._c) * sd, sd, nodes) ** 2
        for col, sd in zip(ys.T, sd_ref))


def talagrand_chain(model: DensityRatioModel) -> ChainReport:
    """Evaluate the chain W2^2 <= KR <= entropy-RHS <= chi2-RHS for one model.

    KR (:func:`kr_terms`) at ``CHAIN_KR_NODES`` outer and ``GH_NODES_DEFAULT``
    inner nodes and the two right sides at ``GH_NODES_DEFAULT`` nodes per axis
    each get the one budget rule :func:`w2lab.gaussmath.gh_budget` against half
    as many nodes; KR's outer and inner nodes are halved one at a time.
    """
    if model.dim not in (1, 2):
        raise ValueError("the chain is computed for dim in {1, 2} only")
    var = model.cov.variances

    def sides(nodes: int) -> tuple:  # (entropy RHS, chi-square RHS)
        return (float((2.0 * var * np.diff(_entropy_functional(model, nodes))).sum()),
                float((2.0 * var * _chi2_terms(model, nodes)).sum()))

    kr, kr_outer, kr_inner = (math.fsum(kr_terms(model, *nodes)) for nodes in (
        (CHAIN_KR_NODES, GH_NODES_DEFAULT), (CHAIN_KR_NODES // 2, GH_NODES_DEFAULT),
        (CHAIN_KR_NODES, GH_NODES_DEFAULT // 2)))
    (rhs_entropy, rhs_chi2), coarse = sides(GH_NODES_DEFAULT), sides(GH_NODES_DEFAULT // 2)
    return ChainReport(
        kr=kr,
        rhs_entropy=rhs_entropy,
        rhs_chi2=rhs_chi2,
        budget_kr=gh_budget(kr, kr_outer),
        budget_kr_inner=gh_budget(kr, kr_inner),
        budget_quad=gh_budget((rhs_entropy, rhs_chi2), coarse),
    )
